//! The serving stack as the benchmark drives it, and the measurements
//! shared by every workload.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sketchql::training::{train, TrainedModel, TrainingConfig};
use sketchql::{
    ingest_sharded, load_store_tier_dir, shard_set_dir_name, LearnedSimilarity, MatcherConfig,
    RetrievedMoment, ShardSet, StoreTier, VideoIndex,
};
use sketchql_nn::{EncoderConfig, Tensor};
use sketchql_server::{
    Client, ClientError, Engine, EngineConfig, EngineStats, QueryOutcome, Server, WireTrace,
};
use sketchql_telemetry::names;
use sketchql_trajectory::{extract_features, Clip};

use crate::trace;

/// Engine workers and ingest threads. A workload parameter, not the
/// machine's core count, so runs on other machines do the same work (the
/// core count is recorded beside every result).
pub const THREADS: usize = 2;

/// The serving configuration every workload uses: the defaults, with one
/// worker per core. Each worker scans on its own thread, so two
/// concurrent queries never oversubscribe the cores.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: THREADS,
        ..EngineConfig::default()
    }
}

/// The matcher configuration the engine serves with.
pub fn matcher_config() -> MatcherConfig {
    engine_config().matcher
}

/// An in-process matcher for the correctness checks: the serving
/// configuration on [`THREADS`] threads (results do not depend on the
/// thread count).
pub fn check_matcher(model: &TrainedModel) -> sketchql::Matcher<LearnedSimilarity> {
    sketchql::Matcher::with_config(
        model.similarity(),
        MatcherConfig {
            threads: THREADS,
            ..matcher_config()
        },
    )
}

/// The short seeded training run every workload serves (quality is not
/// what is measured; the encoder's shape and cost are the real ones).
pub fn train_model() -> TrainedModel {
    let _s = trace::span("train", "setup");
    let mut cfg = TrainingConfig::small();
    cfg.steps = 5;
    train(cfg)
}

/// Starts an engine over `datasets`/`stores` behind a loopback server.
pub fn serve(
    model: TrainedModel,
    datasets: BTreeMap<String, VideoIndex>,
    stores: BTreeMap<String, StoreTier>,
) -> Server {
    let engine = {
        let _s = trace::span("Engine::start_with_stores", "engine");
        Engine::start_with_stores(model, datasets, stores, engine_config())
    };
    let _s = trace::span("Server::start", "server");
    Server::start(engine, "127.0.0.1:0").expect("bind a loopback port")
}

/// Opens a wire connection.
pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to the loopback server")
}

/// Frames each shard owns.
pub const SHARD_FRAMES: u32 = 64;

/// Ingests `index` as `dataset`'s shard set at `set_dir` on [`THREADS`]
/// threads; returns the set and the wall time in seconds.
pub fn ingest(
    model: &TrainedModel,
    index: &VideoIndex,
    dataset: &str,
    set_dir: &Path,
) -> (ShardSet, f64) {
    let cfg = crate::inputs::ingest_config(&matcher_config(), THREADS);
    let sim = model.similarity();
    let _s = trace::span("ingest_sharded", "vshard");
    let started = Instant::now();
    let set = ingest_sharded(&sim, index, dataset, &cfg, SHARD_FRAMES, set_dir, &|_| {})
        .expect("ingest a shard set");
    (set, started.elapsed().as_secs_f64())
}

/// Ingest repetitions behind an `ingest_frames_per_s` figure where one
/// ingest takes well under a second.
pub const TIMED_INGESTS: usize = 5;

/// Ingests `index` [`TIMED_INGESTS`] times, each into a fresh scratch
/// directory named after `tag`, keeping only the last. Returns each
/// ingest's wall time (s) and rows, and the scratch directory holding
/// the last shard set.
pub fn timed_ingests(
    model: &TrainedModel,
    index: &VideoIndex,
    dataset: &str,
    tag: &str,
) -> (Vec<(f64, u64)>, PathBuf) {
    let mut out = Vec::with_capacity(TIMED_INGESTS);
    let mut dir = PathBuf::new();
    for round in 0..TIMED_INGESTS {
        if round > 0 {
            std::fs::remove_dir_all(&dir).ok();
        }
        dir = scratch(&format!("{tag}-{round}"));
        let (set, secs) = ingest(
            model,
            index,
            dataset,
            &dir.join(shard_set_dir_name(dataset)),
        );
        out.push((secs, set.total_rows()));
    }
    (out, dir)
}

/// Attaches every store under `dir`; returns the tiers and the wall time
/// in milliseconds.
pub fn attach(dir: &Path) -> (BTreeMap<String, StoreTier>, f64) {
    let _s = trace::span("load_store_tier_dir", "vshard");
    let started = Instant::now();
    let tiers = load_store_tier_dir(dir).expect("attach the stores");
    (tiers, started.elapsed().as_secs_f64() * 1e3)
}

/// A dataset ingested as a shard set, attached, and served to two
/// connections.
pub struct Served {
    /// The model the server runs.
    pub model: TrainedModel,
    /// The dataset.
    pub index: VideoIndex,
    /// Scratch directory holding the shard set.
    pub dir: PathBuf,
    /// The shard set directory.
    pub set_dir: PathBuf,
    /// The server.
    pub server: Server,
    /// Two open connections.
    pub clients: Vec<Client>,
    /// Ingest wall time, seconds.
    pub ingest_s: f64,
    /// Rows stored.
    pub rows: u64,
    /// Shards written.
    pub shards: usize,
    /// Attach wall time, ms.
    pub attach_ms: f64,
}

impl Served {
    /// One set-up round: trains the model, ingests `index` under scratch
    /// directory `tag`, attaches the set and starts the server.
    pub fn start(dataset: &str, index: VideoIndex, tag: &str) -> Served {
        let model = train_model();
        let dir = scratch(tag);
        let set_dir = dir.join(shard_set_dir_name(dataset));
        let (set, ingest_s) = ingest(&model, &index, dataset, &set_dir);
        let (rows, shards) = (set.total_rows(), set.shard_count());
        drop(set);
        let (stores, attach_ms) = attach(&dir);
        let server = serve(
            model.clone(),
            BTreeMap::from([(dataset.to_string(), index.clone())]),
            stores,
        );
        let clients = (0..2).map(|_| connect(server.local_addr())).collect();
        Served {
            model,
            index,
            dir,
            set_dir,
            server,
            clients,
            ingest_s,
            rows,
            shards,
            attach_ms,
        }
    }

    /// Closes the connections, drains the server and removes the set.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }

    /// Frames ingested per second.
    pub fn ingest_frames_per_s(&self) -> f64 {
        self.index.frames as f64 / self.ingest_s
    }
}

/// Runs every client closed-loop on its own thread for `seconds`:
/// connection `c` sends `pick(c, i)` as its `i`-th query. Returns all
/// samples and the wall time of the phase in seconds.
pub fn drive(
    clients: &mut [Client],
    dataset: &str,
    seconds: f64,
    pick: &(dyn Fn(usize, usize) -> (usize, Clip) + Sync),
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let until = started + std::time::Duration::from_secs_f64(seconds);
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    closed_loop(client, dataset, &|| Instant::now() < until, &|i| {
                        pick(conn, i)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (samples, started.elapsed().as_secs_f64())
}

/// The samples that were answered.
pub fn answered(samples: &[Sample]) -> Vec<&Sample> {
    samples.iter().filter(|x| x.outcome.is_ok()).collect()
}

/// Round trips (ms) of the answered samples whose trace was (or was not)
/// fetched.
pub fn rtts(answered: &[&Sample], traced: bool) -> Vec<f64> {
    answered
        .iter()
        .filter(|x| x.traced == traced)
        .map(|x| x.rtt_ms())
        .collect()
}

/// One query as the client saw it.
pub struct Sample {
    /// Index of the query in the workload's query list.
    pub query: usize,
    /// Client-observed round trip, nanoseconds.
    pub rtt_ns: u64,
    /// The answer.
    pub outcome: Result<QueryOutcome, ClientError>,
    /// Whether the query's server trace was fetched (`--trace 1` traces
    /// half the queries, so the untraced half gives the overhead).
    pub traced: bool,
}

impl Sample {
    /// Round trip in milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        self.rtt_ns as f64 / 1e6
    }
}

/// Runs one closed-loop connection: sends query `pick(i)` for
/// `i = 0, 1, ...`, each after the previous answer, while `go()` holds.
/// With tracing on, queries with `i % 4` in {1, 2} are traced: half of
/// them, balanced across any query pattern of period 2 or 3.
pub fn closed_loop(
    client: &mut Client,
    dataset: &str,
    go: &dyn Fn() -> bool,
    pick: &dyn Fn(usize) -> (usize, Clip),
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while go() {
        let (query, clip) = pick(i);
        out.push(send(client, dataset, query, clip, matches!(i % 4, 1 | 2)));
        i += 1;
    }
    out
}

/// Sends one query; with tracing on and `trace_it`, fetches its server
/// span tree afterwards (outside the measured round trip).
fn send(client: &mut Client, dataset: &str, query: usize, clip: Clip, trace_it: bool) -> Sample {
    let traced = trace_it && trace::on();
    let guard = traced.then(|| trace::span("Client::query_clip", "server"));
    let started = Instant::now();
    let outcome = client.query_clip(dataset, clip, None, None);
    let rtt_ns = started.elapsed().as_nanos() as u64;
    let parent = guard.as_ref().map_or(0, trace::Guard::id);
    drop(guard);
    if let (true, Ok(o)) = (traced, &outcome) {
        let fetched = {
            let _s = trace::span("Client::trace", "server");
            client.trace(Some(o.trace_id), None)
        };
        if let Some(t) = fetched.ok().and_then(|v| v.into_iter().next()) {
            trace::attach(parent, rtt_ns, t);
        }
    }
    Sample {
        query,
        rtt_ns,
        outcome,
        traced,
    }
}

/// Process-wide telemetry counters the per-layer metrics diff.
pub const COUNTERS: [&str; 10] = [
    names::WINDOWS_ENUMERATED,
    names::EMBED_CACHE_HITS,
    names::EMBED_CACHE_MISSES,
    names::EMBEDDINGS_COMPUTED,
    names::SHARD_LOADS,
    names::SHARD_EVICTIONS,
    names::SHARD_LOAD_ERRORS,
    names::LIVE_NOTIFICATIONS,
    names::LIVE_DROPPED,
    names::LIVE_EVALUATIONS,
];

/// A snapshot of [`COUNTERS`].
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Self {
        Counters(
            COUNTERS
                .iter()
                .map(|&n| (n, sketchql_telemetry::counter(n).get()))
                .collect(),
        )
    }

    /// Growth of counter `name` since `earlier`.
    pub fn since(&self, earlier: &Counters, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0) - earlier.0.get(name).copied().unwrap_or(0)
    }
}

/// Engine counters the per-layer metrics diff.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineDelta {
    /// Queries shed: overloaded, rate-limited or timed out.
    pub shed: u64,
    /// Queries the store served.
    pub store_hits: u64,
    /// Store-backed queries that fell back to the scan.
    pub store_fallbacks: u64,
    /// Store rows probed and re-ranked.
    pub store_probed: u64,
}

impl EngineDelta {
    /// `after - before`.
    pub fn between(before: &EngineStats, after: &EngineStats) -> Self {
        let shed = |s: &EngineStats| s.rejected_overload + s.rate_limited + s.timed_out;
        EngineDelta {
            shed: shed(after) - shed(before),
            store_hits: after.store_hits - before.store_hits,
            store_fallbacks: after.store_fallbacks - before.store_fallbacks,
            store_probed: after.store_probed - before.store_probed,
        }
    }
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh scratch directory inside the working directory (the benchmark
/// reads and writes only inside its checkout).
pub fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".perfbench")
        .join(format!("run-{}", std::process::id()))
        .join(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

/// Removes this run's scratch directories (and `.perfbench` itself when
/// nothing else is left in it).
pub fn clean_scratch() {
    let root = PathBuf::from(".perfbench");
    std::fs::remove_dir_all(root.join(format!("run-{}", std::process::id()))).ok();
    std::fs::remove_dir(root).ok();
}

/// Moments equal and every score bit-identical.
pub fn identical(a: &[RetrievedMoment], b: &[RetrievedMoment]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.start, x.end, &x.track_ids) == (y.start, y.end, &y.track_ids)
                && x.score.to_bits() == y.score.to_bits()
        })
}

/// Recall@10 of `got` against `exact`, plus whether every moment present
/// in both carries a bit-identical score.
pub fn recall_at_10(got: &[RetrievedMoment], exact: &[RetrievedMoment]) -> (f64, bool) {
    let key = |m: &RetrievedMoment| (m.start, m.end, m.track_ids.clone());
    let top: Vec<&RetrievedMoment> = exact.iter().take(10).collect();
    let mut hits = 0usize;
    let mut bits_equal = true;
    for e in &top {
        if let Some(g) = got.iter().take(10).find(|g| key(g) == key(e)) {
            hits += 1;
            bits_equal &= g.score.to_bits() == e.score.to_bits();
        }
    }
    let recall = if top.is_empty() {
        1.0
    } else {
        hits as f64 / top.len() as f64
    };
    (recall, bits_equal)
}

/// Multiply-add FLOPs (2 per multiply-add) of one encoder forward,
/// computed from the configuration's tensor sizes: input projection,
/// per layer the fused QKV, attention scores, attention-weighted values,
/// output projection and the two feed-forward matmuls, then the output
/// projection of the pooled vector. Softmax, layer norm and activations
/// are not counted.
pub fn flops_per_window(c: &EncoderConfig) -> f64 {
    let (t, d, f) = (c.steps as f64, c.d_model as f64, c.ff_hidden as f64);
    let input = t * c.input_dim as f64 * d;
    let layer = t * d * 3.0 * d + 2.0 * t * t * d + t * d * d + 2.0 * t * d * f;
    let out = d * c.embed_dim as f64;
    2.0 * (input + c.layers as f64 * layer + out)
}

/// At most `n` items spread evenly over `items`.
pub fn spread_sample<T>(items: Vec<T>, n: usize) -> Vec<T> {
    let step = (items.len() / n.max(1)).max(1);
    items.into_iter().step_by(step).take(n).collect()
}

/// `CoarseQuantizer::rank` wall time (ms) for each query's embedding, in
/// isolation, against the quantizer of the shard set at `set_dir`.
pub fn rank_times(sim: &LearnedSimilarity, set_dir: &Path, queries: &[Clip]) -> Vec<f64> {
    let set = ShardSet::open(set_dir).expect("reopen the shard set");
    queries
        .iter()
        .filter_map(|q| sim.embed(q))
        .map(|e| {
            let _s = trace::span("CoarseQuantizer::rank", "store");
            let started = Instant::now();
            std::hint::black_box(set.quantizer().rank(&e));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Encoder throughput on `clips`, one thread, in isolation: features are
/// extracted first, then `embed_batch` runs over 64-window batches until
/// at least `min_secs` have passed. Returns windows per second.
pub fn embed_rate(sim: &LearnedSimilarity, clips: &[Clip], min_secs: f64) -> f64 {
    let steps = sim.encoder.config.steps;
    let feats: Vec<Tensor> = clips
        .iter()
        .filter_map(|c| extract_features(c, steps).ok())
        .map(|f| {
            let cols = f.data.len() / steps;
            Tensor::from_vec(steps, cols, f.data)
        })
        .collect();
    if feats.is_empty() {
        return 0.0;
    }
    let _s = trace::span("TrajectoryEncoder::embed_batch", "nn");
    let started = Instant::now();
    let mut windows = 0usize;
    while started.elapsed().as_secs_f64() < min_secs {
        for chunk in feats.chunks(64) {
            let refs: Vec<&Tensor> = chunk.iter().collect();
            windows += std::hint::black_box(sim.encoder.embed_batch(&sim.store, &refs)).len();
        }
    }
    windows as f64 / started.elapsed().as_secs_f64()
}

/// Per-traced-query figures pulled out of the server span trees.
#[derive(Debug, Default)]
pub struct TreeFigures {
    /// Client round trip minus the server trace total, ms.
    pub wire_self_ms: Vec<f64>,
    /// Sum per query of each span name, ms.
    pub span_ms: BTreeMap<String, Vec<f64>>,
    /// Individual `sketchql.shard.load` durations, ms.
    pub shard_load_ms: Vec<f64>,
    /// Fused batch size per query.
    pub batch: Vec<f64>,
    /// CPU ms per query.
    pub cpu_ms: Vec<f64>,
    /// Heap KiB per query.
    pub alloc_kb: Vec<f64>,
    /// Self time per layer summed over queries, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Client round trips summed, ns.
    pub rtt_ns: u64,
}

/// Span names whose per-query totals the per-layer metrics read.
const SPAN_NAMES: [&str; 7] = [
    names::SERVER_SERIALIZE,
    names::SERVER_QUEUE_WAIT,
    names::SERVER_EXECUTE,
    names::MATCHER_PREPARE,
    names::MATCHER_RANK,
    names::MATCHER_SCAN,
    names::STORE_PROBE,
];

impl TreeFigures {
    /// Extracts the figures from every traced query.
    pub fn from_trees(trees: &[trace::ServerTree]) -> Self {
        let mut f = TreeFigures::default();
        for tree in trees {
            let t: &WireTrace = &tree.trace;
            f.wire_self_ms
                .push(tree.rtt_ns.saturating_sub(t.total_nanos) as f64 / 1e6);
            for name in SPAN_NAMES {
                let ns: u64 = t
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.nanos)
                    .sum();
                f.span_ms
                    .entry(name.to_string())
                    .or_default()
                    .push(ns as f64 / 1e6);
            }
            f.shard_load_ms.extend(
                t.spans
                    .iter()
                    .filter(|s| s.name == names::SHARD_LOAD)
                    .map(|s| s.nanos as f64 / 1e6),
            );
            f.batch.push(t.batch_size as f64);
            f.cpu_ms.push(t.cpu_nanos as f64 / 1e6);
            f.alloc_kb.push(t.alloc_bytes as f64 / 1024.0);
            for (layer, ns) in trace::breakdown(tree) {
                *f.self_ns.entry(layer).or_default() += ns;
            }
            f.rtt_ns += tree.rtt_ns;
        }
        f
    }

    /// Per-query values of span `name`, ms.
    pub fn span(&self, name: &str) -> &[f64] {
        self.span_ms.get(name).map_or(&[], Vec::as_slice)
    }
}

/// How a query's answer counts: refusals by admission are `Refused`,
/// every other error is `Failed`.
pub fn outcome_of(s: &Sample) -> crate::stats::Outcome {
    use crate::stats::Outcome;
    use sketchql_server::ErrorKind;
    match &s.outcome {
        Ok(_) => Outcome::Ok(s.rtt_ms()),
        Err(ClientError::Server {
            kind:
                ErrorKind::Overloaded
                | ErrorKind::RateLimited
                | ErrorKind::DeadlineExceeded
                | ErrorKind::ShuttingDown,
            ..
        }) => Outcome::Refused,
        Err(_) => Outcome::Failed,
    }
}

/// Runs `build` `rounds` times and keeps the last result, tearing each
/// earlier one down first; returns it with each round's duration in
/// seconds. Round 0 is timed from `process_start`, so the first figure
/// includes process start-up.
pub fn setup_rounds<T>(
    process_start: Instant,
    rounds: usize,
    mut build: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(rounds);
    let mut kept: Option<T> = None;
    for round in 0..rounds.max(1) {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let started = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        kept = Some(build(round));
        secs.push(started.elapsed().as_secs_f64());
    }
    (kept.expect("at least one round"), secs)
}

/// Queries whose answers the recall check compares with the exact path.
pub const RECALL_QUERIES: usize = 48;
/// Of those, the ones also compared with the full scan.
pub const SCAN_CHECKED: usize = 6;

/// What [`store_quality`] found.
pub struct Quality {
    /// Mean recall@10 of the served answers against the exact path.
    pub recall: f64,
    /// Answers compared.
    pub compared: usize,
    /// Answers whose moments shared with the exact path carry different
    /// score bits.
    pub drifted: u64,
    /// Scan-checked queries where the exhaustive store path differs from
    /// the full scan.
    pub not_exact: u64,
}

impl Quality {
    /// Records the two checks this comparison makes.
    pub fn record(&self, r: &mut crate::report::Report) {
        r.check(
            "exhaustive store equals full scan",
            self.not_exact == 0,
            self.not_exact,
            format!("{SCAN_CHECKED} queries scanned, {} differ", self.not_exact),
        );
        r.check(
            "served scores bit-identical to exact",
            self.drifted == 0 && self.compared > 0,
            self.drifted,
            format!(
                "{} answers compared, {} drifted",
                self.compared, self.drifted
            ),
        );
    }
}

/// Compares served store answers with the exact path. The exact path is
/// the store probed exhaustively (`nprobe = nlist`), which must equal the
/// full sliding-window scan bit for bit; the first [`SCAN_CHECKED`]
/// queries confirm that against `Matcher::search` itself.
pub fn store_quality(
    matcher: &sketchql::Matcher<LearnedSimilarity>,
    index: &VideoIndex,
    set_dir: &Path,
    served: &[(Clip, Vec<RetrievedMoment>)],
) -> Quality {
    let mut exhaustive = sketchql::ShardSet::open(set_dir).expect("reopen the shard set");
    exhaustive.nprobe = exhaustive.nlist();
    let mut q = Quality {
        recall: 0.0,
        compared: 0,
        drifted: 0,
        not_exact: 0,
    };
    let mut recalls = Vec::new();
    for (i, (clip, got)) in served.iter().enumerate() {
        let exact = matcher
            .search_with_shards(index, &exhaustive, clip, &sketchql::CancelToken::none())
            .expect("exhaustive store search");
        if i < SCAN_CHECKED {
            let scan = matcher.search(index, clip).expect("full scan");
            q.not_exact += u64::from(!exact.from_store || !identical(&exact.moments, &scan));
        }
        let (recall, bits) = recall_at_10(got, &exact.moments);
        recalls.push(recall);
        q.drifted += u64::from(!bits);
    }
    q.compared = recalls.len();
    q.recall = crate::stats::mean(&recalls).unwrap_or(0.0);
    q
}
