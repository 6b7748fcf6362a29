//! The repository's benchmark: served decisions and shield synthesis,
//! measured end to end, with a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve|synth_verify|synth_distill> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` tracing is off (`vrl_obs::set_enabled(false)`) and the
//! run prints the end-to-end metrics; with `--trace 1` it prints the
//! per-layer ledger and writes a Chrome trace.  Human-readable lines come
//! first; the last line of standard output is the JSON result.  A
//! provenance record (machine, toolchain, commit, seed, run length, sample
//! counts) goes to `perfbench/out/`.  See `perfbench/README.md`.

mod ledger;
mod serve;
mod stats;
mod synth;
mod wire;

use ledger::Metrics;
use std::fmt::Write as _;
use std::process::ExitCode;
use vrl_obs::SpanRecord;

/// What one run produced.
pub struct Outcome {
    /// Operations attempted (requests, deploys, jobs, artifact checks).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Metrics in the order they were recorded.
    pub metrics: Metrics,
    /// Human-readable lines, with sample counts.
    pub notes: Vec<String>,
    /// Spans collected by traced phases.
    pub spans: Vec<SpanRecord>,
}

impl Outcome {
    /// An outcome with `attempted` operations already counted, `failed` of
    /// them failed.
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: Metrics::default(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Counts `attempted` more operations, `failed` of them failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["serve", "synth_verify", "synth_distill"];

/// End-to-end metrics every workload prints with `--trace 0`.
const END_TO_END: [&str; 3] = ["setup_s", "ops_per_s", "p50_ms"];

/// Per-layer metrics every workload prints with `--trace 1`.
const PER_LAYER: [&str; 45] = [
    "http.server_us",
    "http.socket_us",
    "codec.decode_us",
    "codec.encode_us",
    "server.decide_us",
    "server.lookup_ns",
    "server.scalar_us",
    "server.batch_of_one_us",
    "pool.fanout_gain",
    "oracle.scalar_us",
    "oracle.batch1_us",
    "oracle.batch512_us_per_state",
    "dynamics.step_ns",
    "shield.decide_ns",
    "shield.decide_batch_ns_per_state",
    "shield.table_hit_rate",
    "shield.intervention_share",
    "artifact.decode_ms",
    "table.build_ms",
    "redeploy_ms",
    "farm.idle_share",
    "verified_share",
    "cegis.coverage_s",
    "cegis.verify_s",
    "synth.distill_s",
    "cegis.attempts",
    "cegis.counterexamples",
    "cegis.useful_ratio",
    "synth.oracle_queries",
    "solver.bb_boxes",
    "solver.bb_queries",
    "solver.bb_waves",
    "solver.bb_guard_prunes",
    "solver.bb_counterexamples",
    "solver.l1_hit_rate",
    "solver.l2_hit_rate",
    "solver.l2_lock_wait_ms",
    "obs.tracing_overhead_pct",
    "obs.spans_dropped",
    "gen.lateness_max_us",
    "gen.backlog_max",
    "waterfall.residual_us",
    "p90_ms",
    "p99_ms",
    "failed_share",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `"name": {"value": v, "unit": "u"}`, the value with all its digits.
fn metric_json(m: &ledger::Metric) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_string(m.name),
        m.value,
        json_string(m.unit)
    )
}

/// `rustc -V`, or `unknown` when the compiler is not on the path.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Registers every series the program exports, so a counter read before
    // its first event is the program's own handle.
    vrl_runtime::install_metrics();
    vrl_obs::set_enabled(false);
    let dropped_before = vrl_obs::registry()
        .counter("vrl_obs_spans_dropped_total", "")
        .get();
    let mut out = match args.workload.as_str() {
        "serve" => serve::serve(args.seed, args.seconds, args.trace),
        "synth_verify" => synth::synth(synth::Kind::Verify, args.seed, args.seconds, args.trace),
        _ => synth::synth(synth::Kind::Distill, args.seed, args.seconds, args.trace),
    };
    let dropped = vrl_obs::registry()
        .counter("vrl_obs_spans_dropped_total", "")
        .get()
        - dropped_before;
    if args.trace {
        if dropped > 0 {
            out.note(format!("{dropped} spans were dropped from the ring"));
        }
        let share = stats::ratio(out.failed as f64, out.attempted as f64);
        let spans = out.spans.len();
        out.note(format!("{spans} spans recorded"));
        out.metrics
            .put("obs.spans_dropped", dropped as f64, "count");
        out.metrics.put("failed_share", share, "ratio");
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut selected = Vec::with_capacity(names.len());
    for name in names {
        match out.metrics.0.iter().find(|m| m.name == *name) {
            Some(m) => selected.push(m),
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                return ExitCode::from(1);
            }
        }
    }
    if let Some(m) = out.metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is {}", m.name, m.value);
        return ExitCode::from(1);
    }

    let provenance = write_provenance(&args, &out);
    for line in &out.notes {
        println!("# {line}");
    }
    for m in &selected {
        println!("# {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("# provenance: {provenance}");
    let metrics: Vec<String> = selected.iter().map(|m| metric_json(m)).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the run's provenance (and, for a traced run, its Chrome trace)
/// under `perfbench/out/`; returns the record's path, or why it could not
/// be written.
fn write_provenance(args: &Args, out: &Outcome) -> String {
    let dir = std::path::Path::new("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(dir) {
        return format!("not written: {e}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"nproc\": {nproc},\n  \"rustc\": {},\n  \"git_sha\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&rustc_version()),
        json_string(&git_sha()),
        out.attempted,
        out.failed,
    );
    let rows: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|m| format!("\n    {}", metric_json(m)))
        .collect();
    record.push_str(&rows.join(","));
    record.push_str("\n  },\n  \"notes\": [");
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|n| format!("\n    {}", json_string(n)))
        .collect();
    record.push_str(&notes.join(","));
    record.push_str("\n  ]\n}\n");
    let path = dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, record) {
        return format!("not written: {e}");
    }
    if args.trace {
        let trace = dir.join(format!("{stem}.trace.json"));
        if let Err(e) = std::fs::write(&trace, vrl_obs::spans_to_chrome_trace(&out.spans)) {
            return format!("{} (trace not written: {e})", path.display());
        }
    }
    path.display().to_string()
}
