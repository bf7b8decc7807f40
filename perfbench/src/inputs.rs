//! Seeded workload inputs.
//!
//! Everything a workload sends to the program is generated here from the
//! `--seed` argument alone: videos (as oracle-track indexes, so the
//! offline tracker is not on the measured path), sketch queries and the
//! live stream's frame prefixes. The same seed gives byte-identical
//! inputs; [`fingerprint`] hashes their wire encoding so a run can show it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketchql::{IngestConfig, MatcherConfig, VideoIndex};
use sketchql_datasets::{
    extend_video, generate_video, query_clip, EventKind, ExtendConfig, SceneFamily, SyntheticVideo,
    VideoConfig,
};
use sketchql_trajectory::{BBox, Clip, TrajPoint, Trajectory};

/// The single-object canonical sketches (the demo's Q1 family).
pub const SINGLE: [EventKind; 6] = [
    EventKind::LeftTurn,
    EventKind::RightTurn,
    EventKind::UTurn,
    EventKind::StopAndGo,
    EventKind::LaneChange,
    EventKind::Loiter,
];

/// The multi-object canonical sketches (the demo's Q2 family).
pub const MULTI: [EventKind; 2] = [EventKind::PerpendicularCrossing, EventKind::Overtake];

/// Derives an independent stream seed from the workload seed.
fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

/// A synthetic intersection video.
pub fn video(seed: u64, events_per_kind: usize, distractors: usize) -> SyntheticVideo {
    let cfg = VideoConfig {
        family: SceneFamily::UrbanIntersection,
        events_per_kind,
        distractors,
        fps: 30.0,
    };
    generate_video(cfg, seed, &mut stream(seed, 1))
}

/// A copy of `clip` with every box centre moved by up to `radius` pixels
/// in each axis. Frames are untouched, so the sketch keeps its span (and
/// with it the window grid a store was built for).
pub fn jitter(clip: &Clip, rng: &mut StdRng, radius: f32) -> Clip {
    let objects = clip
        .objects
        .iter()
        .map(|t| {
            let points = t
                .points()
                .iter()
                .map(|p| {
                    let b = p.bbox;
                    TrajPoint::new(
                        p.frame,
                        BBox::new(
                            b.cx + rng.gen_range(-radius..radius),
                            b.cy + rng.gen_range(-radius..radius),
                            b.w,
                            b.h,
                        ),
                    )
                })
                .collect();
            Trajectory::from_points(t.id, t.class, points)
        })
        .collect();
    Clip::new(clip.frame_width, clip.frame_height, objects)
}

/// Query `i` of the single-object sequence `tag`: canonical sketch
/// `SINGLE[i % 6]` with its own seeded jitter, so no two are equal.
pub fn single_query(seed: u64, tag: u64, i: usize) -> Clip {
    let mut rng = stream(seed, (tag << 40) ^ i as u64);
    jitter(&query_clip(SINGLE[i % SINGLE.len()]), &mut rng, 6.0)
}

/// Queries `0..n` of sequence `tag`.
pub fn single_queries(seed: u64, tag: u64, n: usize) -> Vec<Clip> {
    (0..n).map(|i| single_query(seed, tag, i)).collect()
}

/// The store grid every stored dataset is ingested with: the windows the
/// matcher enumerates for the single-object sketches.
pub fn ingest_config(matcher: &MatcherConfig, threads: usize) -> IngestConfig {
    let spans: Vec<u32> = SINGLE.iter().map(|&k| query_clip(k).span()).collect();
    let mut cfg = IngestConfig::from_matcher(matcher, &spans);
    cfg.threads = threads;
    cfg
}

/// `index` restricted to frames `[lo, hi]` and shifted to start at frame
/// 0; tracks with no frame inside are dropped.
pub fn cut(index: &VideoIndex, lo: u32, hi: u32) -> VideoIndex {
    let tracks = index
        .tracks
        .iter()
        .filter_map(|t| {
            let pts: Vec<TrajPoint> = t
                .slice(lo, hi)
                .points()
                .iter()
                .map(|p| TrajPoint::new(p.frame - lo, p.bbox))
                .collect();
            (!pts.is_empty()).then(|| Trajectory::from_points(t.id, t.class, pts))
        })
        .collect();
    VideoIndex {
        name: index.name.clone(),
        tracks,
        frames: hi - lo + 1,
        frame_width: index.frame_width,
        frame_height: index.frame_height,
        fps: index.fps,
    }
}

/// Crossing-and-overtake episodes in the scan dataset.
pub const SCAN_EPISODES: usize = 4;

/// The multi-object scan dataset. A video with [`SCAN_EPISODES`] rounds
/// of events is generated; from each round the participants of its
/// perpendicular crossing and its overtake are cut out with a 30-frame
/// margin, and the episodes are laid end to end. Every seed gives the
/// same cast per episode (one person, three cars), so the scan's work
/// varies little from seed to seed while the motions are new each time.
pub fn scan_index(seed: u64) -> VideoIndex {
    let v = video(seed, SCAN_EPISODES, 0);
    let full = VideoIndex::from_truth(&v);
    let mut tracks = Vec::new();
    let mut frames = 0;
    for round in v.events.chunks(EventKind::ALL.len()) {
        let cast: Vec<_> = round.iter().filter(|e| MULTI.contains(&e.kind)).collect();
        let lo = cast
            .iter()
            .map(|e| e.start)
            .min()
            .unwrap_or(0)
            .saturating_sub(30);
        let hi = (cast.iter().map(|e| e.end).max().unwrap_or(0) + 30).min(full.frames - 1);
        let ids: Vec<_> = cast
            .iter()
            .flat_map(|e| e.object_ids.iter().copied())
            .collect();
        for t in cut(&full, lo, hi)
            .tracks
            .into_iter()
            .filter(|t| ids.contains(&t.id))
        {
            let pts = t
                .points()
                .iter()
                .map(|p| TrajPoint::new(p.frame + frames, p.bbox))
                .collect();
            tracks.push(Trajectory::from_points(t.id, t.class, pts));
        }
        frames += hi - lo + 1;
    }
    VideoIndex {
        tracks,
        frames,
        ..full
    }
}

/// A live stream: the base video plus `chunks` appended prefixes of one
/// seeded continuation, `chunk_frames` frames each. Element 0 is the
/// base; element `k` extends element `k - 1` without changing any of its
/// frames, which is the contract incremental ingest relies on.
pub fn live_stages(seed: u64, chunks: usize, chunk_frames: u32) -> Vec<VideoIndex> {
    let base = video(seed, 1, 2);
    let grown = extend_video(
        &base,
        ExtendConfig {
            events_per_kind: 1,
            distractors: 1,
        },
        &mut stream(seed, 2),
    );
    // Track membership is decided on the grown video, so a track that is
    // still short at some prefix never appears retroactively later.
    let full = VideoIndex::from_truth(&grown);
    let last = (base.frames + chunks as u32 * chunk_frames).min(full.frames);
    (0..=chunks as u32)
        .map(|k| {
            let hi = (base.frames + k * chunk_frames).min(last) - 1;
            cut(&full, 0, hi)
        })
        .collect()
}

/// FNV-1a 64 over the wire encoding of the indexes and queries.
pub fn fingerprint(indexes: &[&VideoIndex], queries: &[Clip]) -> u64 {
    let mut h = sketchql_store::Fnv64::new();
    for index in indexes {
        h.write(
            serde_json::to_string(index)
                .expect("index encodes")
                .as_bytes(),
        );
    }
    for q in queries {
        h.write(serde_json::to_string(q).expect("clip encodes").as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = scan_index(5);
        let b = scan_index(5);
        let qa = single_queries(5, 3, 24);
        let qb = single_queries(5, 3, 24);
        assert_eq!(fingerprint(&[&a], &qa), fingerprint(&[&b], &qb));
        let c = scan_index(6);
        let qc = single_queries(6, 3, 24);
        assert_ne!(fingerprint(&[&a], &qa), fingerprint(&[&c], &qc));
    }

    #[test]
    fn jittered_queries_are_distinct_and_keep_their_span() {
        let qs = single_queries(11, 3, 60);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.span(), query_clip(SINGLE[i % 6]).span());
        }
        let encoded: std::collections::HashSet<String> = qs
            .iter()
            .map(|q| serde_json::to_string(q).unwrap())
            .collect();
        assert_eq!(encoded.len(), qs.len(), "two queries are byte-identical");
    }

    #[test]
    fn every_seed_streams_full_chunks() {
        use crate::live_append::{CHUNKS, CHUNK_FRAMES};
        for seed in (0..48).chain([7_919, u64::MAX]) {
            let stages = live_stages(seed, CHUNKS, CHUNK_FRAMES);
            for pair in stages.windows(2) {
                assert_eq!(pair[1].frames, pair[0].frames + CHUNK_FRAMES, "seed {seed}");
            }
        }
    }

    #[test]
    fn live_stages_are_pure_extensions() {
        let stages = live_stages(3, 3, 40);
        for pair in stages.windows(2) {
            let (old, new) = (&pair[0], &pair[1]);
            assert_eq!(new.frames, old.frames + 40);
            for t in &old.tracks {
                let grown = new
                    .tracks
                    .iter()
                    .find(|u| u.id == t.id)
                    .expect("track kept");
                assert_eq!(grown.slice(0, old.frames - 1).points(), t.points());
            }
            // A track new to the later stage has no frame in the earlier one.
            for u in &new.tracks {
                if !old.tracks.iter().any(|t| t.id == u.id) {
                    assert!(u.start_frame().unwrap() >= old.frames);
                }
            }
        }
    }
}
