//! `live_append`: a live monitor, writes beside reads. The base video is
//! ingested from scratch (timed), standing single-object queries are
//! registered over the wire, then seeded chunks of a continuation are
//! appended on a fixed schedule: `append_frames`, a tier reopen with a
//! resident-shard cap below the shard count (the working set exceeds the
//! cache), `Engine::reload_dataset`, and the writer connection drains the
//! notifications. Meanwhile the reader connection runs closed-loop
//! distinct store queries on the same dataset.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sketchql::{
    append_frames, enumerate_store_rows, shard_set_dir_name, CancelToken, RetrievedMoment,
    ShardSet, StoreTier, TrainedModel, VideoIndex,
};
use sketchql_server::{Engine, LiveMatch, QuerySpec};
use sketchql_trajectory::Clip;

use crate::inputs;
use crate::report::{end_to_end, metric, per_layer, EndToEnd, Layers, Live, Report};
use crate::stack::{self, Counters, EngineDelta, Sample, TreeFigures, THREADS};
use crate::stats::{median, Outcome, Tally};
use crate::trace;

const DATASET: &str = "live";
/// Latency limit an interactive user would accept, ms.
const LIMIT_MS: f64 = 100.0;
/// Appended epochs, and frames per epoch (3.2 s of 30 fps video).
pub(crate) const CHUNKS: usize = 8;
pub(crate) const CHUNK_FRAMES: u32 = 96;
/// Resident-shard cap: below the base set's shard count.
const RESIDENT_CAP: usize = 8;
/// Standing queries registered.
const STANDING: usize = 3;
/// Logical bytes of one appended row: a 48-float vector plus its track
/// id (8 bytes) and frame range (2 x 4 bytes).
fn row_bytes(dim: usize) -> f64 {
    (dim * 4 + 16) as f64
}

struct Setup {
    model: TrainedModel,
    stages: Vec<VideoIndex>,
    standing: Vec<Clip>,
}

fn setup(seed: u64) -> Setup {
    Setup {
        model: stack::train_model(),
        stages: inputs::live_stages(seed, CHUNKS, CHUNK_FRAMES),
        standing: inputs::single_queries(seed, 5, STANDING),
    }
}

fn reader_query(seed: u64, i: usize) -> Clip {
    inputs::single_query(seed, 6, i)
}

fn file_sizes(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| {
                    Some((
                        e.file_name().to_string_lossy().into_owned(),
                        e.metadata().ok()?.len(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn open_capped(dir: &Path) -> StoreTier {
    let _s = trace::span("ShardSet::open", "vshard");
    let mut set = ShardSet::open(dir).expect("reopen the shard set");
    set.set_max_resident(Some(RESIDENT_CAP));
    StoreTier::Sharded(set)
}

/// One drained feed: the matches a registration received for an epoch.
struct Feed {
    epoch: u64,
    dropped: u64,
    matches: Vec<LiveMatch>,
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, process_start: Instant) -> Report {
    let (s, setup_s) = stack::setup_rounds(process_start, 3, |_| setup(seed), drop);
    let sim = s.model.similarity();
    let base = &s.stages[0];
    let last = &s.stages[CHUNKS];
    let mut r = Report {
        inputs_fp: inputs::fingerprint(
            &s.stages.iter().collect::<Vec<_>>(),
            &s.standing
                .iter()
                .cloned()
                .chain((0..64).map(|i| reader_query(seed, i)))
                .collect::<Vec<_>>(),
        ),
        params: vec![
            ("base_frames", base.frames.to_string()),
            ("final_frames", last.frames.to_string()),
            ("chunks", CHUNKS.to_string()),
            ("chunk_frames", CHUNK_FRAMES.to_string()),
            ("shard_frames", stack::SHARD_FRAMES.to_string()),
            ("resident_cap", RESIDENT_CAP.to_string()),
            ("standing_queries", STANDING.to_string()),
            ("connections", "2 (1 writer, 1 reader)".into()),
            ("loop", "closed reader, scheduled writer".into()),
        ],
        ..Report::default()
    };

    // Timed: the base ingest, several times (one takes under a second).
    let (ingests, dir) = stack::timed_ingests(&s.model, base, DATASET, "live");
    let set_dir = dir.join(shard_set_dir_name(DATASET));
    let (mut stores, attach_ms) = stack::attach(&dir);
    for tier in stores.values_mut() {
        tier.set_max_resident(Some(RESIDENT_CAP));
    }
    let server = stack::serve(
        s.model.clone(),
        BTreeMap::from([(DATASET.to_string(), base.clone())]),
        stores,
    );
    let engine = server.engine_handle();
    let mut writer = stack::connect(server.local_addr());
    let mut reader = stack::connect(server.local_addr());
    let mut writes = Tally::default();
    let mut regs = Vec::new();
    for clip in &s.standing {
        let _s = trace::span("Client::register_clip", "live");
        match writer.register_clip(DATASET, clip.clone(), None, None) {
            Ok(reg) => {
                writes.record(Outcome::Ok(0.0));
                regs.push(reg.registration_id);
            }
            Err(_) => writes.record(Outcome::Failed),
        }
    }
    for i in 0..12 {
        reader
            .query_clip(DATASET, inputs::single_query(seed, 7, i), None, None)
            .expect("warm-up query");
    }

    // Timed: reads beside scheduled appends.
    let mut live = Live::default();
    let mut feeds: BTreeMap<(usize, usize), Feed> = BTreeMap::new();
    let mut append_s = 0.0;
    let dim = sim.encoder.config.embed_dim;
    let before = (engine.stats(), Counters::now());
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let period = Duration::from_secs_f64(seconds / CHUNKS as f64);
    let writer_done = AtomicBool::new(false);
    let reads: Vec<Sample> = std::thread::scope(|scope| {
        let reader = &mut reader;
        let writer_done = &writer_done;
        let handle = scope.spawn(move || {
            stack::closed_loop(
                reader,
                DATASET,
                &|| Instant::now() < until || !writer_done.load(Ordering::SeqCst),
                &|i| (i, reader_query(seed, i)),
            )
        });
        let mut rows_before = ingests[ingests.len() - 1].1;
        for k in 1..=CHUNKS {
            let slot = started + period * (k as u32 - 1);
            std::thread::sleep(slot.saturating_duration_since(Instant::now()));
            let files_before = file_sizes(&set_dir);
            let t0 = Instant::now();
            let out = {
                let _s = trace::span("append_frames", "live");
                append_frames(&sim, &s.stages[k], &set_dir, THREADS, &|_| {})
            };
            let append = t0.elapsed().as_secs_f64();
            let Ok(out) = out else {
                writes.record(Outcome::Failed);
                continue;
            };
            append_s += append;
            let rows_after = out.set.total_rows();
            let epoch = out.epoch;
            live.append_ms.push(append * 1e3);
            live.reused_frac
                .push(out.reused_rows as f64 / (out.reused_rows + out.embedded_rows) as f64);
            live.rewritten_shards.push(out.rewritten_shards as f64);
            drop(out);
            let new_bytes: u64 = file_sizes(&set_dir)
                .into_iter()
                .filter(|(name, _)| !files_before.contains_key(name))
                .map(|(_, len)| len)
                .sum();
            live.write_amp
                .push(new_bytes as f64 / ((rows_after - rows_before) as f64 * row_bytes(dim)));
            rows_before = rows_after;
            let t = Instant::now();
            let tier = open_capped(&set_dir);
            live.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let reloaded = {
                let _s = trace::span("Engine::reload_dataset", "live");
                engine.reload_dataset(DATASET, s.stages[k].clone(), tier)
            };
            live.reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if reloaded.is_err() {
                writes.record(Outcome::Failed);
                continue;
            }
            for (ri, &id) in regs.iter().enumerate() {
                let t = Instant::now();
                let feed = {
                    let _s = trace::span("Client::notifications", "live");
                    writer.notifications(id, None)
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                live.notify_rtt_ms.push(ms);
                match feed {
                    Ok(f) => {
                        writes.record(Outcome::Ok(ms));
                        feeds.insert(
                            (k, ri),
                            Feed {
                                epoch,
                                dropped: f.dropped,
                                matches: f.matches,
                            },
                        );
                    }
                    Err(_) => writes.record(Outcome::Failed),
                }
            }
            let fresh = t0.elapsed().as_secs_f64() * 1e3;
            live.freshness_ms.push(fresh);
            writes.record(Outcome::Ok(fresh));
        }
        writer_done.store(true, Ordering::SeqCst);
        handle.join().expect("reader thread")
    });
    let window_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = stack::peak_rss_mb();
    let after = (engine.stats(), Counters::now());
    let delta = EngineDelta::between(&before.0, &after.0);
    drop(engine);
    drop((writer, reader));
    server.shutdown();

    for smp in &reads {
        r.tally.record(stack::outcome_of(smp));
    }
    let answered = stack::answered(&reads);
    let final_rows = ShardSet::open(&set_dir).expect("reopen").total_rows();
    let store_bytes_per_row = stack::dir_bytes(&set_dir) as f64 / final_rows as f64;
    live.delivered = feeds.values().map(|f| f.matches.len() as u64).sum();
    live.dropped = feeds.values().map(|f| f.dropped).sum();
    live.append_frames_per_s = (last.frames - base.frames) as f64 / append_s;
    r.tally.merge(writes);

    // Checks, outside the timed phases.
    r.check(
        "every epoch committed and drained",
        feeds.len() == CHUNKS * STANDING,
        (CHUNKS * STANDING - feeds.len()) as u64,
        format!("{} of {} feeds", feeds.len(), CHUNKS * STANDING),
    );
    r.check(
        "no notifications dropped",
        live.dropped == 0,
        live.dropped,
        format!("dropped={}", live.dropped),
    );
    let mismatched = replay_standing(&s, &feeds);
    r.check(
        "standing matches equal offline epoch query",
        mismatched == 0,
        mismatched,
        format!(
            "{} feeds compared, {mismatched} differ, {} matches",
            CHUNKS * STANDING,
            live.delivered
        ),
    );
    let matcher = stack::check_matcher(&s.model);
    let fresh_dir = stack::scratch("fresh").join(shard_set_dir_name(DATASET));
    let (mut fresh, _) = stack::ingest(&s.model, last, DATASET, &fresh_dir);
    let mut appended = ShardSet::open(&set_dir).expect("reopen the appended set");
    fresh.nprobe = fresh.nlist();
    appended.nprobe = appended.nlist();
    let probes: Vec<Clip> = s
        .standing
        .iter()
        .cloned()
        .chain((0..3).map(|i| reader_query(seed, i)))
        .collect();
    let differ = probes
        .iter()
        .filter(|q| {
            let a = matcher.search_with_shards(last, &appended, q, &CancelToken::none());
            let b = matcher.search_with_shards(last, &fresh, q, &CancelToken::none());
            !matches!((a, b), (Ok(a), Ok(b)) if a.from_store && b.from_store && stack::identical(&a.moments, &b.moments))
        })
        .count() as u64;
    r.check(
        "append equals from-scratch ingest",
        differ == 0,
        differ,
        format!(
            "{} queries at exhaustive nprobe, {differ} differ",
            probes.len()
        ),
    );
    // Recall and score identity on the final epoch, served in process at
    // the serving nprobe (the wire answers span several epochs).
    let served_set = ShardSet::open(&set_dir).expect("reopen the appended set");
    let served: Vec<(Clip, Vec<RetrievedMoment>)> = (0..stack::RECALL_QUERIES)
        .map(|i| {
            let q = reader_query(seed, i);
            let got = matcher
                .search_with_shards(last, &served_set, &q, &CancelToken::none())
                .expect("store search");
            (q, got.moments)
        })
        .collect();
    let quality = stack::store_quality(&matcher, last, &set_dir, &served);
    quality.record(&mut r);

    r.e2e = end_to_end(
        &EndToEnd {
            setup_s: &setup_s,
            query_ms: &stack::rtts(&answered, false),
            answered: answered.len(),
            window_s,
            recall: quality.recall,
            ingest_frames_per_s: median(
                &ingests
                    .iter()
                    .map(|(secs, _)| base.frames as f64 / secs)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            peak_rss_mb,
            store_bytes_per_row,
            limit_ms: LIMIT_MS,
        },
        &r.tally,
    );

    let mut freshness = metric(
        "live_freshness_p50_ms",
        median(&live.freshness_ms).unwrap_or(0.0),
        "ms",
    );
    freshness.note = format!("n={} epochs", live.freshness_ms.len());
    r.e2e_extra = vec![
        metric("append_frames_per_s", live.append_frames_per_s, "1/s"),
        freshness,
    ];

    if trace::on() {
        let cfg = inputs::ingest_config(&stack::matcher_config(), THREADS);
        let (_, windows) = enumerate_store_rows(last, &cfg, Some((base.frames, u32::MAX)));
        let queries: Vec<Clip> = (0..200).map(|i| reader_query(seed, i)).collect();
        r.layer = per_layer(
            &Layers {
                embed_windows_per_s: stack::embed_rate(
                    &sim,
                    &stack::spread_sample(windows, 512),
                    0.5,
                ),
                encoder: Some(sim.encoder.config.clone()),
                rank_ms: stack::rank_times(&sim, &set_dir, &queries),
                attach_ms: vec![attach_ms],
                ingest_windows_per_s: ingests.iter().map(|x| x.1 as f64 / x.0).collect(),
                live,
                ..Layers::timed(&answered, delta, &before.1, &after.1)
            },
            &TreeFigures::from_trees(&trace::trees()),
        );
    }
    r
}

/// Replays the stream on a fresh set through an in-process engine and
/// compares every feed the timed run received with the offline
/// epoch-scoped query over the same snapshot. Returns the feeds that
/// differ or are missing.
fn replay_standing(s: &Setup, feeds: &BTreeMap<(usize, usize), Feed>) -> u64 {
    let sim = s.model.similarity();
    let set_dir = stack::scratch("replay").join(shard_set_dir_name(DATASET));
    stack::ingest(&s.model, &s.stages[0], DATASET, &set_dir);
    let engine = Engine::start_with_stores(
        s.model.clone(),
        BTreeMap::from([(DATASET.to_string(), s.stages[0].clone())]),
        BTreeMap::from([(DATASET.to_string(), open_capped(&set_dir))]),
        stack::engine_config(),
    );
    let ids: Vec<u64> = s
        .standing
        .iter()
        .map(|q| {
            engine
                .register(DATASET, q.clone(), None, None)
                .expect("register")
                .id
        })
        .collect();
    let mut differ = 0u64;
    for k in 1..=CHUNKS {
        let out =
            append_frames(&sim, &s.stages[k], &set_dir, THREADS, &|_| {}).expect("replay append");
        let epoch = out.epoch;
        drop(out);
        engine
            .reload_dataset(DATASET, s.stages[k].clone(), open_capped(&set_dir))
            .expect("replay reload");
        for (ri, q) in s.standing.iter().enumerate() {
            engine.notifications(ids[ri], None);
            let offline = engine
                .execute(QuerySpec {
                    min_end: Some(s.stages[k - 1].frames),
                    ..QuerySpec::new(DATASET, q.clone())
                })
                .expect("offline scoped query");
            let same = feeds.get(&(k, ri)).is_some_and(|f| {
                f.epoch == epoch
                    && f.matches.len() == offline.moments.len()
                    && f.matches.iter().zip(&offline.moments).all(|(m, o)| {
                        (m.start, m.end, &m.track_ids) == (o.start, o.end, &o.track_ids)
                            && m.score.to_bits() == o.score.to_bits()
                            && m.epoch == epoch
                    })
            });
            differ += u64::from(!same);
        }
    }
    engine.shutdown();
    differ
}
