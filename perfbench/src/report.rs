//! What a run reports: end-to-end metrics, per-layer metrics, the
//! correctness checks, and the operation tally, printed as a human table
//! followed by the one-line JSON result.

use std::fmt::Write as _;

use crate::stack::{flops_per_window, rtts, Counters, EngineDelta, Sample, TreeFigures, COUNTERS};
use crate::stats::{mean, median, p50, percentile, quartiles, tail, Pct, Tally};
use crate::trace;

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Context printed beside it (sample counts, percentile used).
    pub note: String,
}

/// A metric with no note.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Counts behind the verdict.
    pub detail: String,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every operation attempted, queries and writes alike.
    pub tally: Tally,
    /// Correctness checks, run outside the timed phases.
    pub checks: Vec<Check>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// End-to-end figures only one workload has, printed in the table
    /// but not in the result line (which carries the same metric set on
    /// every workload).
    pub e2e_extra: Vec<Metric>,
    /// Per-layer metrics (filled with `--trace 1`).
    pub layer: Vec<Metric>,
    /// Workload parameters, recorded with the result.
    pub params: Vec<(&'static str, String)>,
    /// Fingerprint of the generated inputs.
    pub inputs_fp: u64,
}

impl Report {
    /// Records a check; a failed one marks `wrong` answered operations
    /// as failed.
    pub fn check(&mut self, name: &'static str, passed: bool, wrong: u64, detail: String) {
        if !passed {
            self.tally.mark_wrong(wrong.max(1));
        }
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Inputs of the end-to-end metrics every workload reports.
pub struct EndToEnd<'a> {
    /// Duration of each set-up round, seconds.
    pub setup_s: &'a [f64],
    /// Round trips of queries answered in the timed phase with no trace
    /// fetched, ms.
    pub query_ms: &'a [f64],
    /// Queries answered in the timed phase.
    pub answered: usize,
    /// Length of the timed phase, seconds.
    pub window_s: f64,
    /// Recall@10 against the exact scan, mean over the checked sample.
    pub recall: f64,
    /// Frames ingested per second (median over ingests).
    pub ingest_frames_per_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// On-disk bytes of the shard set per stored row.
    pub store_bytes_per_row: f64,
    /// The workload's latency limit, ms (reported as the share of
    /// attempted queries answered within it).
    pub limit_ms: f64,
}

fn pct_note(p: Option<Pct>) -> String {
    p.map_or("no samples".into(), |p| {
        format!("{} over n={}", p.label(), p.n)
    })
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(e: &EndToEnd, tally: &Tally) -> Vec<Metric> {
    let med = p50(e.query_ms);
    let p90 = percentile(e.query_ms, 900);
    let mut out = vec![
        metric("setup_s", median(e.setup_s).unwrap_or(0.0), "s"),
        metric("query_p50_ms", med.map_or(0.0, |p| p.value), "ms"),
        metric("query_p90_ms", p90.unwrap_or(0.0), "ms"),
        metric("query_qps", e.answered as f64 / e.window_s, "1/s"),
        metric("ok_frac", 1.0 - tally.failed_frac(), "frac"),
        metric("recall_at_10", e.recall, "frac"),
        metric("ingest_frames_per_s", e.ingest_frames_per_s, "1/s"),
        metric("peak_rss_mb", e.peak_rss_mb, "MB"),
        metric("store_bytes_per_row", e.store_bytes_per_row, "B"),
    ];
    out[0].note = format!("median of {} set-up rounds", e.setup_s.len());
    out[1].note = match quartiles(e.query_ms) {
        Some((q1, q3)) => format!("{}; quartiles {q1:.3}..{q3:.3}", pct_note(med)),
        None => pct_note(med),
    };
    out[2].note = format!(
        "n={}; highest supported tail: {}; {:.2}% of attempted within {} ms",
        e.query_ms.len(),
        pct_note(tail(e.query_ms)),
        100.0 * tally.within(e.limit_ms),
        e.limit_ms
    );
    out[3].note = format!("{} answered in {:.3} s", e.answered, e.window_s);
    out[4].note = format!(
        "failed_frac={} ({} of {} attempted)",
        tally.failed_frac(),
        tally.failed(),
        tally.attempted()
    );
    out
}

/// Live-path figures (zero on workloads without live appends).
#[derive(Debug, Default)]
pub struct Live {
    /// `append_frames` wall time per epoch, ms.
    pub append_ms: Vec<f64>,
    /// Rows of the rewritten shards copied rather than embedded, per
    /// append.
    pub reused_frac: Vec<f64>,
    /// Shards rewritten per epoch.
    pub rewritten_shards: Vec<f64>,
    /// New shard-file bytes over appended logical row bytes, per epoch.
    pub write_amp: Vec<f64>,
    /// `ShardSet::open` after each append, ms.
    pub open_ms: Vec<f64>,
    /// `Engine::reload_dataset` per epoch, ms.
    pub reload_ms: Vec<f64>,
    /// `Client::notifications` round trips, ms.
    pub notify_rtt_ms: Vec<f64>,
    /// Standing-query matches delivered.
    pub delivered: u64,
    /// Notifications dropped by full queues.
    pub dropped: u64,
    /// Frames appended over total append time, frames/s.
    pub append_frames_per_s: f64,
    /// Start of `append_frames` to notifications in hand, per epoch, ms.
    pub freshness_ms: Vec<f64>,
}

/// Inputs of the per-layer metrics.
#[derive(Debug, Default)]
pub struct Layers {
    /// Queries answered in the timed phase.
    pub queries: u64,
    /// Moments returned in the timed phase (store-served ones, where the
    /// store serves).
    pub store_moments: u64,
    /// Engine counter growth over the timed phase.
    pub engine: EngineDelta,
    /// Telemetry counter growth over the timed phase, by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Encoder windows per second in isolation.
    pub embed_windows_per_s: f64,
    /// The encoder's configuration (for the FLOP count).
    pub encoder: Option<sketchql_nn::EncoderConfig>,
    /// `CoarseQuantizer::rank` per query embedding, ms.
    pub rank_ms: Vec<f64>,
    /// `load_store_tier_dir` wall times, ms.
    pub attach_ms: Vec<f64>,
    /// Ingest windows per second, per ingest.
    pub ingest_windows_per_s: Vec<f64>,
    /// Live-path figures.
    pub live: Live,
    /// p50 of untraced and traced queries in the same run, ms.
    pub untraced_p50_ms: f64,
    /// See `untraced_p50_ms`.
    pub traced_p50_ms: f64,
}

impl Layers {
    /// The figures every workload's timed phase gives: answered queries,
    /// the moments they returned, engine and telemetry counter growth, and
    /// the untraced and traced medians.
    pub fn timed(
        answered: &[&Sample],
        engine: EngineDelta,
        before: &Counters,
        after: &Counters,
    ) -> Self {
        Layers {
            queries: answered.len() as u64,
            store_moments: answered
                .iter()
                .map(|x| x.outcome.as_ref().map_or(0, |o| o.moments.len() as u64))
                .sum(),
            engine,
            counters: COUNTERS
                .iter()
                .map(|&n| (n, after.since(before, n)))
                .collect(),
            untraced_p50_ms: p50(&rtts(answered, false)).map_or(0.0, |p| p.value),
            traced_p50_ms: p50(&rtts(answered, true)).map_or(0.0, |p| p.value),
            ..Layers::default()
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

fn per(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(l: &Layers, f: &TreeFigures) -> Vec<Metric> {
    use sketchql_telemetry::names as n;
    let q = l.queries as f64;
    let queue = f.span(n::SERVER_QUEUE_WAIT);
    let flops = l.encoder.as_ref().map_or(0.0, flops_per_window);
    let hits = l.counter(n::EMBED_CACHE_HITS) as f64;
    let misses = l.counter(n::EMBED_CACHE_MISSES) as f64;
    let self_ms = |layer: &str| {
        per(
            f.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6,
            f.batch.len() as f64,
        )
    };
    let traced_rtt_ms = f.rtt_ns as f64 / 1e6;
    let lv = &l.live;
    let mut out = vec![
        metric("server.wire_self_ms", med(&f.wire_self_ms), "ms"),
        metric(
            "server.serialize_ms",
            med(f.span(n::SERVER_SERIALIZE)),
            "ms",
        ),
        metric("engine.queue_wait_p50_ms", med(queue), "ms"),
        metric(
            "engine.queue_wait_p90_ms",
            percentile(queue, 900).unwrap_or(0.0),
            "ms",
        ),
        metric("engine.execute_ms", med(f.span(n::SERVER_EXECUTE)), "ms"),
        metric("engine.batch_size", mean(&f.batch).unwrap_or(0.0), "count"),
        metric("engine.shed", l.engine.shed as f64, "count"),
        metric("matcher.prepare_ms", med(f.span(n::MATCHER_PREPARE)), "ms"),
        metric("matcher.rank_ms", med(f.span(n::MATCHER_RANK)), "ms"),
        metric("matcher.scan_ms", med(f.span(n::MATCHER_SCAN)), "ms"),
        metric(
            "matcher.windows_per_query",
            per(l.counter(n::WINDOWS_ENUMERATED) as f64, q),
            "count",
        ),
        metric(
            "matcher.embed_cache_hit_frac",
            per(hits, hits + misses),
            "frac",
        ),
        metric("nn.embed_windows_per_s", l.embed_windows_per_s, "1/s"),
        metric("nn.flops_per_window", flops, "FLOP"),
        metric(
            "nn.achieved_gflops",
            l.embed_windows_per_s * flops / 1e9,
            "GFLOP/s",
        ),
        metric("store.rank_ms", med(&l.rank_ms), "ms"),
        metric(
            "store.rows_probed_per_query",
            per(l.engine.store_probed as f64, l.engine.store_hits as f64),
            "count",
        ),
        metric(
            "store.useful_frac",
            per(l.store_moments as f64, l.engine.store_probed as f64),
            "frac",
        ),
        metric("store.hits", l.engine.store_hits as f64, "count"),
        metric("store.fallbacks", l.engine.store_fallbacks as f64, "count"),
        metric("vshard.probe_ms", med(f.span(n::STORE_PROBE)), "ms"),
        metric(
            "vshard.shard_loads_per_query",
            per(l.counter(n::SHARD_LOADS) as f64, q),
            "count",
        ),
        metric(
            "vshard.load_ms",
            mean(&f.shard_load_ms).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "vshard.evictions",
            l.counter(n::SHARD_EVICTIONS) as f64,
            "count",
        ),
        metric("vshard.attach_ms", med(&l.attach_ms), "ms"),
        metric(
            "vshard.ingest_windows_per_s",
            med(&l.ingest_windows_per_s),
            "1/s",
        ),
        metric("live.append_ms", med(&lv.append_ms), "ms"),
        metric("live.reused_frac", med(&lv.reused_frac), "frac"),
        metric("live.rewritten_shards", med(&lv.rewritten_shards), "count"),
        metric("live.write_amp", med(&lv.write_amp), "ratio"),
        metric("live.open_ms", med(&lv.open_ms), "ms"),
        metric("live.reload_ms", med(&lv.reload_ms), "ms"),
        metric("live.notify_rtt_ms", med(&lv.notify_rtt_ms), "ms"),
        metric("live.matches_delivered", lv.delivered as f64, "count"),
        metric("live.dropped", lv.dropped as f64, "count"),
        metric("live.append_frames_per_s", lv.append_frames_per_s, "1/s"),
        metric("live.freshness_p50_ms", med(&lv.freshness_ms), "ms"),
        metric(
            "resource.cpu_ms_per_query",
            mean(&f.cpu_ms).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "resource.alloc_kb_per_query",
            mean(&f.alloc_kb).unwrap_or(0.0),
            "KiB",
        ),
    ];
    for (name, layer) in [
        ("self.server_ms", "server"),
        ("self.engine_ms", "engine"),
        ("self.matcher_ms", "matcher"),
        ("self.nn_ms", "nn"),
        ("self.vshard_ms", "vshard"),
        ("self.unattributed_ms", "unattributed"),
    ] {
        out.push(metric(name, self_ms(layer), "ms"));
    }
    out.push(metric(
        "trace.unattributed_frac",
        per(
            f.self_ns.get("unattributed").copied().unwrap_or(0) as f64 / 1e6,
            traced_rtt_ms,
        ),
        "frac",
    ));
    out.push(metric(
        "trace.overhead_ms",
        l.traced_p50_ms - l.untraced_p50_ms,
        "ms",
    ));
    out.push(metric("trace.queries", f.batch.len() as f64, "count"));
    out
}

/// The human-readable table: workload, provenance, every metric with its
/// unit and note, every check.
pub fn table(workload: &str, provenance: &str, r: &Report, traced: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# perfbench {workload}");
    let _ = writeln!(s, "provenance {provenance}");
    let _ = writeln!(s, "inputs_fp {:016x}", r.inputs_fp);
    let _ = writeln!(s, "## end to end");
    for m in &r.e2e {
        let _ = writeln!(
            s,
            "  {:<28} {:>14.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if traced {
        let _ = writeln!(s, "## per layer (traced run)");
        for m in &r.layer {
            let _ = writeln!(
                s,
                "  {:<28} {:>14.4} {:<8} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let spans = trace::spans();
        let _ = writeln!(
            s,
            "  ({} bench spans, {} server span trees)",
            spans.len(),
            trace::trees().len()
        );
    }
    let _ = writeln!(s, "## checks");
    for c in &r.checks {
        let _ = writeln!(
            s,
            "  [{}] {:<34} {}",
            if c.passed { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    s
}

/// The one-line JSON result.
pub fn result_line(r: &Report, traced: bool) -> String {
    let metrics: Vec<String> = (if traced { &r.layer } else { &r.e2e })
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, v, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.tally.attempted(),
        r.tally.failed(),
        metrics.join(",")
    )
}
