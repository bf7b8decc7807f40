//! Bench-side tracing.
//!
//! With `--trace 1` the benchmark records a span around every public call
//! it makes into the program, and fetches each traced query's span tree
//! from the server (`Client::trace`). Spans stay in memory and are
//! written as JSON lines when the run ends. With `--trace 0` every call
//! here is a no-op, so end-to-end figures carry no tracing cost.
//!
//! Self time of a span is its duration minus the part of it covered by
//! its children. For a query, the client-observed round trip is the root:
//! the round trip minus the server's trace total is wire time (socket,
//! request parse, framing), the server's top-level spans are its
//! children, and server time no span covers is "unattributed".

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use sketchql_server::WireTrace;

struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<BenchSpan>>,
    trees: Mutex<Vec<ServerTree>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One bench-side span.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing bench span on the same thread.
    pub parent: Option<u64>,
    /// The public call, e.g. `client.query`.
    pub name: &'static str,
    /// The layer the call enters.
    pub layer: &'static str,
    /// Offset from run start, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// A query's server span tree, hung under the bench span of the call.
#[derive(Debug, Clone)]
pub struct ServerTree {
    /// The bench span (`client.query`) the query ran under.
    pub parent: u64,
    /// Client-observed round trip, nanoseconds.
    pub rtt_ns: u64,
    /// The server's trace.
    pub trace: WireTrace,
}

/// Turns tracing on or off for the whole run. Call once, first.
pub fn init(on: bool) {
    let _ = TRACER.set(Tracer {
        on,
        t0: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        trees: Mutex::new(Vec::new()),
    });
}

fn tracer() -> Option<&'static Tracer> {
    TRACER.get().filter(|t| t.on)
}

/// Whether this run traces.
pub fn on() -> bool {
    tracer().is_some()
}

/// An open bench span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, &'static str, Instant)>,
}

impl Guard {
    /// The span's id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.0)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let (Some(t), Some((id, parent, name, layer, start))) = (tracer(), self.open.take()) else {
            return;
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().retain(|&x| x != id));
        t.spans.lock().expect("span list poisoned").push(BenchSpan {
            id,
            parent,
            name,
            layer,
            start_ns: start.duration_since(t.t0).as_nanos() as u64,
            dur_ns,
        });
    }
}

/// Opens a span named after the public call, in `layer`.
pub fn span(name: &'static str, layer: &'static str) -> Guard {
    let Some(t) = tracer() else {
        return Guard { open: None };
    };
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, layer, Instant::now())),
    }
}

/// Records a fetched server trace under bench span `parent`.
pub fn attach(parent: u64, rtt_ns: u64, trace: WireTrace) {
    if let Some(t) = tracer() {
        t.trees
            .lock()
            .expect("tree list poisoned")
            .push(ServerTree {
                parent,
                rtt_ns,
                trace,
            });
    }
}

/// Every bench span recorded so far.
pub fn spans() -> Vec<BenchSpan> {
    tracer().map_or_else(Vec::new, |t| {
        t.spans.lock().expect("span list poisoned").clone()
    })
}

/// Every server tree recorded so far.
pub fn trees() -> Vec<ServerTree> {
    tracer().map_or_else(Vec::new, |t| {
        t.trees.lock().expect("tree list poisoned").clone()
    })
}

/// The layer a server span belongs to, by its name.
pub fn server_layer(name: &str) -> &'static str {
    match name {
        "sketchql.server.serialize" => "server",
        "sketchql.matcher.embed" => "nn",
        n if n.starts_with("sketchql.server.") => "engine",
        n if n.starts_with("sketchql.matcher.") => "matcher",
        n if n.starts_with("sketchql.similarity.") => "nn",
        n if n.starts_with("sketchql.store.") || n.starts_with("sketchql.shard.") => "vshard",
        n if n.starts_with("sketchql.live.") => "live",
        _ => "unattributed",
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time (ns) of every span in `trace`, in span order: duration minus
/// the union of its direct children.
pub fn self_times(trace: &WireTrace) -> Vec<u64> {
    let spans = &trace.spans;
    (0..spans.len())
        .map(|i| {
            let p = &spans[i];
            let (lo, hi) = (p.start_nanos, p.start_nanos + p.nanos);
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .enumerate()
                .filter(|&(j, c)| j != i && c.depth == p.depth + 1)
                .filter(|(_, c)| c.start_nanos >= lo && c.start_nanos <= hi)
                .map(|(_, c)| (c.start_nanos, c.start_nanos + c.nanos))
                .collect();
            p.nanos - covered(&mut kids, lo, hi).min(p.nanos)
        })
        .collect()
}

/// Where one query's client-observed time went: self time per layer plus
/// the unattributed remainder, summing to the round trip.
pub fn breakdown(tree: &ServerTree) -> BTreeMap<&'static str, u64> {
    let t = &tree.trace;
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    let total = t.total_nanos.min(tree.rtt_ns);
    *out.entry("server").or_default() += tree.rtt_ns - total;
    let mut top: Vec<(u64, u64)> = t
        .spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| (s.start_nanos, s.start_nanos + s.nanos))
        .collect();
    let top_covered = covered(&mut top, 0, total);
    *out.entry("unattributed").or_default() += total - top_covered.min(total);
    for (s, own) in t.spans.iter().zip(self_times(t)) {
        *out.entry(server_layer(&s.name)).or_default() += own;
    }
    out
}

/// Writes `provenance` (one JSON object), then every bench span and
/// server tree, to `path` as JSON lines.
pub fn write(path: &Path, provenance: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"kind\":\"provenance\",\"run\":{provenance}}}")?;
    for s in spans() {
        writeln!(
            out,
            "{{\"kind\":\"bench\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.layer,
            s.start_ns,
            s.dur_ns
        )?;
    }
    for tree in trees() {
        let t = &tree.trace;
        let spans: Vec<String> = t
            .spans
            .iter()
            .zip(self_times(t))
            .map(|(s, own)| {
                format!(
                    "{{\"name\":\"{}\",\"layer\":\"{}\",\"depth\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}",
                    s.name,
                    server_layer(&s.name),
                    s.depth,
                    s.start_nanos,
                    s.nanos,
                    own
                )
            })
            .collect();
        writeln!(
            out,
            "{{\"kind\":\"server\",\"parent\":{},\"trace_id\":{},\"rtt_ns\":{},\"total_ns\":{},\"cpu_ns\":{},\"alloc_bytes\":{},\"batch_size\":{},\"spans\":[{}]}}",
            tree.parent,
            t.trace_id,
            tree.rtt_ns,
            t.total_nanos,
            t.cpu_nanos,
            t.alloc_bytes,
            t.batch_size,
            spans.join(",")
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchql_server::WireSpan;

    fn ws(name: &str, depth: usize, start: u64, nanos: u64) -> WireSpan {
        WireSpan {
            name: name.to_string(),
            depth,
            start_nanos: start,
            nanos,
        }
    }

    fn tree() -> ServerTree {
        ServerTree {
            parent: 1,
            rtt_ns: 1_000,
            trace: WireTrace {
                trace_id: 7,
                label: "d/q".into(),
                outcome: "completed".into(),
                batch_size: 1,
                total_nanos: 900,
                alloc_bytes: 0,
                alloc_count: 0,
                cpu_nanos: 0,
                spans: vec![
                    ws("sketchql.server.queue_wait", 0, 0, 100),
                    ws("sketchql.server.execute", 0, 100, 600),
                    ws("sketchql.matcher.prepare", 1, 110, 50),
                    ws("sketchql.store.probe", 1, 200, 300),
                    ws("sketchql.shard.load", 2, 250, 100),
                    ws("sketchql.server.serialize", 0, 750, 50),
                ],
            },
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = tree();
        assert_eq!(self_times(&t.trace), vec![100, 250, 50, 200, 100, 50]);
    }

    #[test]
    fn breakdown_sums_to_the_round_trip() {
        let b = breakdown(&tree());
        assert_eq!(b["server"], 100 + 50); // wire + serialize
        assert_eq!(b["engine"], 100 + 250);
        assert_eq!(b["matcher"], 50);
        assert_eq!(b["vshard"], 300);
        // 900 ns server total, 750 ns under top-level spans.
        assert_eq!(b["unattributed"], 150);
        assert_eq!(b.values().sum::<u64>(), 1_000);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut iv = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(covered(&mut iv, 0, 25), 20);
    }
}
