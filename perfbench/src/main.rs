//! The SketchQL benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and per-layer metrics with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload store_sketch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Standard output is a human-readable table (provenance, every metric
//! with its unit and sample count, every correctness check) followed by
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. A
//! failed correctness check exits with status 1 after printing it.

mod inputs;
mod live_append;
mod report;
mod scan_multi;
mod stack;
mod stats;
mod store_sketch;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["store_sketch", "scan_multi", "live_append"];

/// Held out from tuning: used only to confirm a later claim.
const HELD_OUT_SEED: u64 = 7_919;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// FNV-1a 64 over the benchmark's and the library crates' sources, in
/// path order: identifies the code measured even where no git metadata
/// is present.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "compat", "perfbench"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = sketchql_store::Fnv64::new();
    for f in &files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// The commit, read from `.git` if the working directory has one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match resolved.trim() {
        "" => "unknown".into(),
        c => c.into(),
    }
}

fn provenance(a: &Args, r: &report::Report) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let params: Vec<String> = r
        .params
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"commit\":\"{}\",\"source_fp\":\"{}\",\"cargo_features\":[{}],\"profile\":\"{}\",\"inputs_fp\":\"{:016x}\",\"params\":{{{}}}}}",
        a.workload,
        a.seed,
        HELD_OUT_SEED,
        a.seconds,
        u8::from(a.trace),
        nproc,
        stack::THREADS,
        commit(),
        source_fingerprint(),
        if sketchql_telemetry::is_enabled() { "\"telemetry\"" } else { "" },
        if cfg!(debug_assertions) { "debug" } else { "release" },
        r.inputs_fp,
        params.join(",")
    )
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    trace::init(args.trace);
    let r = match args.workload.as_str() {
        "store_sketch" => store_sketch::run(args.seed, args.seconds, process_start),
        "scan_multi" => scan_multi::run(args.seed, args.seconds, process_start),
        _ => live_append::run(args.seed, args.seconds, process_start),
    };
    stack::clean_scratch();
    let prov = provenance(&args, &r);
    if args.trace {
        let path = PathBuf::from(".perfbench")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write(&path, &prov) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    print!("{}", report::table(&args.workload, &prov, &r, args.trace));
    println!("{}", report::result_line(&r, args.trace));
    if !r.correct() {
        std::process::exit(1);
    }
}
