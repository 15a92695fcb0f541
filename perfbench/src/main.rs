//! The repository benchmark: four workloads over the reduction's phase
//! loop, the component executor, the phase journal and TCP serving.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` runs the identical configuration untraced for half the
//! time and traced for the other half, and reports the per-layer
//! metrics. The last stdout line is the result object; the line before
//! it records provenance. See `README.md` next to this file.

mod metrics;
mod reduce;
mod serve;

use metrics::{json_str, Outcome};
use std::path::Path;

/// The workloads, by name.
const WORKLOADS: [&str; 4] =
    ["reduce-dense", "reduce-components", "reduce-journaled", "serve-pipelined"];

/// Every end-to-end metric, reported by every workload.
const END_TO_END: [&str; 7] =
    ["setup_s", "op_ms_p50", "op_ms_p90", "op_ms_p99", "ops_per_s", "phases_mean", "colors_mean"];

/// Every per-layer metric with its unit. A layer a workload bypasses
/// reports 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("conflict_graph.build_ms", "ms"),
    ("conflict_graph.build_ns_per_edge", "ns"),
    ("conflict_graph.edges", "count"),
    ("conflict_graph.bitset_share", "ratio"),
    ("conflict_graph.restrict_ms", "ms"),
    ("conflict_graph.fingerprint_ms", "ms"),
    ("correspondence.commit_ms", "ms"),
    ("maxis.lambda_ms", "ms"),
    ("maxis.oracle_ms", "ms"),
    ("maxis.calls", "count"),
    ("maxis.decay", "ratio"),
    ("components.partition_ms", "ms"),
    ("components.executor_ms", "ms"),
    ("components.oracle_cpu_ms", "ms"),
    ("components.parallel_efficiency", "ratio"),
    ("components.count", "count"),
    ("components.largest_share", "ratio"),
    ("recovery.journal_ms", "ms"),
    ("recovery.journal_bytes", "bytes"),
    ("generators.planted_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.queue_depth_p50", "count"),
    ("service.run_ms_mean", "ms"),
    ("service.retries", "count/req"),
    ("server.wire_ms_mean", "ms"),
    ("reduction.traced_ms", "ms"),
    ("reduction.unattributed_ms", "ms"),
    ("reduction.unattributed_share", "ratio"),
    ("telemetry.trace_overhead", "ratio"),
    ("peak_rss_mb", "MB"),
];

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
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs one workload and completes its metric set: every expected
/// metric is present, bypassed layers as 0.
fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = match workload {
        "reduce-dense" => reduce::run(reduce::Kind::Dense, seed, seconds, trace),
        "reduce-components" => reduce::run(reduce::Kind::Components, seed, seconds, trace),
        "reduce-journaled" => reduce::run(reduce::Kind::Journaled, seed, seconds, trace),
        _ => serve::run(seed, seconds, trace),
    };
    if trace {
        for (name, unit) in PER_LAYER {
            if out.metrics.get(name).is_none() {
                out.metrics.set(name, 0.0, unit);
            }
        }
    }
    let expected: Vec<&str> =
        if trace { PER_LAYER.iter().map(|(n, _)| *n).collect() } else { END_TO_END.to_vec() };
    let extra: Vec<String> =
        out.metrics.names().filter(|n| !expected.contains(n)).map(str::to_string).collect();
    let missing: Vec<&str> =
        expected.iter().copied().filter(|n| out.metrics.get(n).is_none()).collect();
    if !extra.is_empty() || (!missing.is_empty() && out.failed == 0) {
        out.fail(format!("metric set mismatch: extra {extra:?}, missing {missing:?}"));
    }
    out
}

/// The filesystem type of the mount holding `dir` (from
/// `/proc/self/mountinfo`), or `unknown`.
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".into() };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount = *fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(sep + 1)?;
            dir.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn provenance(args: &Args) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let journal_fs = fs_type(Path::new(env!("CARGO_MANIFEST_DIR")));
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_threads\": {threads}, \"commit\": \"{}\", \"source_digest\": \"{}\", \
         \"rustc\": \"{}\", \"journal_fs\": \"{}\"}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(env!("PERFBENCH_COMMIT")),
        env!("PERFBENCH_SOURCE_DIGEST"),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&journal_fs),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out = run(&args.workload, args.seed, args.seconds, args.trace);
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", provenance(&args));
    println!("{}", out.result_line());
}
