//! `scan_multi`: the demo's Q2 multi-object sketches (perpendicular
//! crossing, overtake) on a dataset that has a store attached. Stores
//! hold single-track rows, so every query falls back to the full
//! sliding-window scan. Both closed-loop connections send the two
//! canonical sketches in the same repeating order, crossing, crossing,
//! overtake, so concurrent queries tend to be the same sketch and fusion
//! and the embed cache have work to share. The 2:1 mix keeps the median
//! inside one sketch's latency cluster and the 90th percentile inside
//! the other's, so neither sits in the gap between them.

use std::time::Instant;

use sketchql::{enumerate_store_rows, VideoIndex};
use sketchql_datasets::query_clip;
use sketchql_trajectory::Clip;

use crate::inputs::{self, MULTI};
use crate::report::{end_to_end, per_layer, EndToEnd, Layers, Report};
use crate::stack::{self, Counters, EngineDelta, Served, TreeFigures, THREADS};
use crate::stats::median;
use crate::trace;

const DATASET: &str = "crossing";
/// Latency limit an interactive user would accept, ms.
const LIMIT_MS: f64 = 1000.0;

fn setup(seed: u64, round: usize) -> Served {
    let mut s = Served::start(DATASET, inputs::scan_index(seed), &format!("scan-{round}"));
    // Warm-up: each sketch once per connection.
    std::thread::scope(|scope| {
        for c in s.clients.iter_mut() {
            scope.spawn(move || {
                for kind in MULTI {
                    c.query_clip(DATASET, query_clip(kind), None, None)
                        .expect("warm-up query");
                }
            });
        }
    });
    s
}

/// Two-object windows of the dataset's own grid, for the encoder
/// measurement: pairs of single-track windows over the same frames.
fn pair_windows(index: &VideoIndex, n: usize) -> Vec<Clip> {
    let cfg = inputs::ingest_config(&stack::matcher_config(), THREADS);
    let (rows, clips) = enumerate_store_rows(index, &cfg, None);
    let mut out = Vec::new();
    for i in 1..rows.len() {
        let (a, b) = (&rows[i - 1], &rows[i]);
        if (a.start, a.end) == (b.start, b.end) {
            let mut objects = clips[i - 1].objects.clone();
            objects.extend(clips[i].objects.iter().cloned());
            out.push(Clip::new(index.frame_width, index.frame_height, objects));
        }
    }
    stack::spread_sample(out, n)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, process_start: Instant) -> Report {
    let mut attach_ms = Vec::new();
    let (mut s, setup_s) = stack::setup_rounds(
        process_start,
        3,
        |round| {
            let s = setup(seed, round);
            attach_ms.push(s.attach_ms);
            s
        },
        Served::shutdown,
    );
    // Timed ingests of the dataset, apart from set-up: one takes a
    // fraction of a second, so the figure is their median.
    let (ingests, dir) = stack::timed_ingests(&s.model, &s.index, DATASET, "scan-ingest");
    std::fs::remove_dir_all(dir).ok();
    let sketches: Vec<Clip> = MULTI.iter().map(|&k| query_clip(k)).collect();
    let mut r = Report {
        inputs_fp: inputs::fingerprint(&[&s.index], &sketches),
        params: vec![
            ("dataset_frames", s.index.frames.to_string()),
            ("tracks", s.index.tracks.len().to_string()),
            ("episodes", inputs::SCAN_EPISODES.to_string()),
            ("store_rows", s.rows.to_string()),
            ("connections", "2".into()),
            ("loop", "closed".into()),
        ],
        ..Report::default()
    };

    let before = (s.server.engine().stats(), Counters::now());
    let (samples, window_s) = stack::drive(&mut s.clients, DATASET, seconds, &|_, i| {
        let k = usize::from(i % 3 == 2);
        (k, sketches[k].clone())
    });
    let peak_rss_mb = stack::peak_rss_mb();
    let after = (s.server.engine().stats(), Counters::now());
    let engine = EngineDelta::between(&before.0, &after.0);
    for smp in &samples {
        r.tally.record(stack::outcome_of(smp));
    }
    let answered = stack::answered(&samples);

    // Checks: every wire answer equals an in-process search of the same
    // sketch, and every query fell back to the scan.
    let matcher = stack::check_matcher(&s.model);
    let reference: Vec<_> = sketches
        .iter()
        .map(|q| matcher.search(&s.index, q).expect("in-process search"))
        .collect();
    let mut recalls = Vec::new();
    let mut wrong = 0u64;
    for smp in &answered {
        let Ok(o) = &smp.outcome else { continue };
        wrong += u64::from(!stack::identical(&o.moments, &reference[smp.query]));
        recalls.push(stack::recall_at_10(&o.moments, &reference[smp.query]).0);
    }
    r.check(
        "wire equals in-process search",
        wrong == 0 && !answered.is_empty(),
        wrong,
        format!("{} answers compared, {wrong} differ", answered.len()),
    );
    r.check(
        "every query fell back to the scan",
        engine.store_fallbacks == answered.len() as u64 && engine.store_hits == 0,
        engine.store_hits,
        format!(
            "fallbacks={} hits={} answered={}",
            engine.store_fallbacks,
            engine.store_hits,
            answered.len()
        ),
    );

    r.e2e = end_to_end(
        &EndToEnd {
            setup_s: &setup_s,
            query_ms: &stack::rtts(&answered, false),
            answered: answered.len(),
            window_s,
            recall: crate::stats::mean(&recalls).unwrap_or(0.0),
            ingest_frames_per_s: median(
                &ingests
                    .iter()
                    .map(|(secs, _)| s.index.frames as f64 / secs)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            peak_rss_mb,
            store_bytes_per_row: stack::dir_bytes(&s.set_dir) as f64 / s.rows as f64,
            limit_ms: LIMIT_MS,
        },
        &r.tally,
    );

    if trace::on() {
        let sim = s.model.similarity();
        r.layer = per_layer(
            &Layers {
                embed_windows_per_s: stack::embed_rate(&sim, &pair_windows(&s.index, 512), 0.5),
                encoder: Some(sim.encoder.config.clone()),
                attach_ms,
                ingest_windows_per_s: ingests.iter().map(|x| x.1 as f64 / x.0).collect(),
                ..Layers::timed(&answered, engine, &before.1, &after.1)
            },
            &TreeFigures::from_trees(&trace::trees()),
        );
    }
    s.shutdown();
    r
}
