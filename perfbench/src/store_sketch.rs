//! `store_sketch`: analysts refining single-object sketches (the demo's
//! Q1 flow) against a resident archive. Every query is a distinct seeded
//! jitter of one of the six single-object canonical sketches, so the
//! store serves all of them and no result cache could; two closed-loop
//! connections.

use std::time::Instant;

use sketchql::{enumerate_store_rows, RetrievedMoment, VideoIndex};
use sketchql_telemetry::names;
use sketchql_trajectory::Clip;

use crate::inputs;
use crate::report::{end_to_end, per_layer, EndToEnd, Layers, Report};
use crate::stack::{self, Counters, EngineDelta, Served, TreeFigures, THREADS};
use crate::stats::median;
use crate::trace;

const DATASET: &str = "archive";
/// Archive size: two events of every kind plus four distractors, about
/// 1,950 frames.
const EVENTS_PER_KIND: usize = 2;
const DISTRACTORS: usize = 4;
/// Latency limit an interactive user would accept, ms.
const LIMIT_MS: f64 = 100.0;

/// Query `i` of the timed sequence.
fn query(seed: u64, i: usize) -> Clip {
    inputs::single_query(seed, 3, i)
}

/// One set-up round; returns the served archive and the shards resident
/// after warm-up.
fn setup(seed: u64, round: usize) -> (Served, usize) {
    let index = VideoIndex::from_truth(&inputs::video(seed, EVENTS_PER_KIND, DISTRACTORS));
    let mut s = Served::start(DATASET, index, &format!("store-{round}"));
    // Warm-up: four distinct jitters of every sketch on each connection
    // (outside the timed sequence), so the shards the timed queries probe
    // are resident and the working set fits.
    std::thread::scope(|scope| {
        for (conn, c) in s.clients.iter_mut().enumerate() {
            scope.spawn(move || {
                for i in 0..24 {
                    let clip = inputs::single_query(seed, 4, 2 * i + conn);
                    c.query_clip(DATASET, clip, None, None)
                        .expect("warm-up query");
                }
            });
        }
    });
    let resident = sketchql_telemetry::gauge(names::SHARD_RESIDENT).get() as usize;
    (s, resident)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, process_start: Instant) -> Report {
    let mut rounds = Vec::new();
    let ((mut s, resident), setup_s) = stack::setup_rounds(
        process_start,
        3,
        |round| {
            let s = setup(seed, round);
            rounds.push((
                s.0.ingest_frames_per_s(),
                s.0.rows as f64 / s.0.ingest_s,
                s.0.attach_ms,
            ));
            s
        },
        |(s, _)| s.shutdown(),
    );
    let mut r = Report {
        inputs_fp: inputs::fingerprint(
            &[&s.index],
            &(0..64).map(|i| query(seed, i)).collect::<Vec<_>>(),
        ),
        params: vec![
            ("dataset_frames", s.index.frames.to_string()),
            ("tracks", s.index.tracks.len().to_string()),
            ("store_rows", s.rows.to_string()),
            ("shard_frames", stack::SHARD_FRAMES.to_string()),
            (
                "shards_resident_after_warmup",
                format!("{resident}/{}", s.shards),
            ),
            ("connections", "2".into()),
            ("loop", "closed".into()),
        ],
        ..Report::default()
    };

    // Timed phase.
    let before = (s.server.engine().stats(), Counters::now());
    let (samples, window_s) = stack::drive(&mut s.clients, DATASET, seconds, &|conn, i| {
        let q = conn + 2 * i;
        (q, query(seed, q))
    });
    let peak_rss_mb = stack::peak_rss_mb();
    let after = (s.server.engine().stats(), Counters::now());
    let engine = EngineDelta::between(&before.0, &after.0);
    for smp in &samples {
        r.tally.record(stack::outcome_of(smp));
    }
    let answered = stack::answered(&samples);

    // Checks, outside the timed phase.
    r.check(
        "every query store-served",
        engine.store_fallbacks == 0 && engine.store_hits == answered.len() as u64,
        engine.store_fallbacks,
        format!(
            "hits={} fallbacks={} answered={}",
            engine.store_hits,
            engine.store_fallbacks,
            answered.len()
        ),
    );
    let served: Vec<(Clip, Vec<RetrievedMoment>)> = answered
        .iter()
        .take(stack::RECALL_QUERIES)
        .filter_map(|x| {
            Some((
                query(seed, x.query),
                x.outcome.as_ref().ok()?.moments.clone(),
            ))
        })
        .collect();
    let quality = stack::store_quality(
        &stack::check_matcher(&s.model),
        &s.index,
        &s.set_dir,
        &served,
    );
    quality.record(&mut r);
    r.e2e = end_to_end(
        &EndToEnd {
            setup_s: &setup_s,
            query_ms: &stack::rtts(&answered, false),
            answered: answered.len(),
            window_s,
            recall: quality.recall,
            ingest_frames_per_s: median(&rounds.iter().map(|x| x.0).collect::<Vec<_>>())
                .unwrap_or(0.0),
            peak_rss_mb,
            store_bytes_per_row: stack::dir_bytes(&s.set_dir) as f64 / s.rows as f64,
            limit_ms: LIMIT_MS,
        },
        &r.tally,
    );

    if trace::on() {
        let sim = s.model.similarity();
        let cfg = inputs::ingest_config(&stack::matcher_config(), THREADS);
        let (_, windows) = enumerate_store_rows(&s.index, &cfg, None);
        let queries: Vec<Clip> = (0..200).map(|i| query(seed, i)).collect();
        r.layer = per_layer(
            &Layers {
                embed_windows_per_s: stack::embed_rate(
                    &sim,
                    &stack::spread_sample(windows, 512),
                    0.5,
                ),
                encoder: Some(sim.encoder.config.clone()),
                rank_ms: stack::rank_times(&sim, &s.set_dir, &queries),
                attach_ms: rounds.iter().map(|x| x.2).collect(),
                ingest_windows_per_s: rounds.iter().map(|x| x.1).collect(),
                ..Layers::timed(&answered, engine, &before.1, &after.1)
            },
            &TreeFigures::from_trees(&trace::trees()),
        );
    }
    s.shutdown();
    r
}
