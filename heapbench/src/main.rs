//! heapbench: the benchmark of heapdrag's two phases and the services
//! built on them, timed from outside, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path heapbench/Cargo.toml -- \
//!     --workload <profile|report|serve|optimize> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half the
//! time untraced and half traced, prints the per-layer metrics, the
//! tracing overhead and the reconciliation checks, and writes the spans
//! to `.bench_spans/`. The last stdout line is the JSON result. See
//! `heapbench/NOTES.md` for why each workload exists.

mod corpus;
mod cpu;
mod optimize;
mod profile;
mod report;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cpu::{Calibration, REFERENCE_MS};
use stats::quantile;
use trace::Span;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Calibration samples taken before and after each set-up.
const SETUP_BURST: usize = 5;

/// Warm-up before timing: lazy pools and caches fill here.
const WARMUP: Duration = Duration::from_millis(500);

/// End-to-end metrics, printed by every `--trace 0` run in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ref_cpu_ms.p50", "ms"),
    ("ref_cpu_ms.p90", "ms"),
    ("mib_per_ref_cpu_s", "MiB/cpu_s"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("load.assemble_us", "us"),
    ("load.verify_us", "us"),
    ("load.vm_new_us", "us"),
    ("vm.plain_run_us", "us"),
    ("vm.steps", "count"),
    ("vm.ns_per_step", "ns"),
    ("gc.pause_us", "us"),
    ("gc.full_count", "count"),
    ("gc.deep_count", "count"),
    ("gc.traced_objects", "count"),
    ("gc.pause_share_pct", "%"),
    ("profiler.observe_us", "us"),
    ("profiler.events", "count"),
    ("profiler.overhead_x", "x"),
    ("codec.encode_us.text", "us"),
    ("codec.encode_us.binary", "us"),
    ("codec.decode_us.text", "us"),
    ("codec.decode_us.binary", "us"),
    ("codec.decode_mib_per_s.text", "MiB/s"),
    ("codec.decode_mib_per_s.binary", "MiB/s"),
    ("engine.fold_us", "us"),
    ("engine.ns_per_record", "ns"),
    ("live.run_us", "us"),
    ("live.events", "count"),
    ("live.dropped", "count"),
    ("stream.chunks", "count"),
    ("stream.peak_buffered_kib", "KiB"),
    ("stream.backpressure_stalls", "count"),
    ("report.analyze_reader_us", "us"),
    ("report.render_us", "us"),
    ("serve.queued_ms.p50", "ms"),
    ("serve.queued_ms.p99", "ms"),
    ("serve.run_ms.p50", "ms"),
    ("serve.control_ms.p50", "ms"),
    ("serve.pool_busy_peak", "count"),
    ("serve.inflight_peak", "count"),
    ("optimize.verify_us", "us"),
    ("optimize.verify_calls", "count"),
    ("optimize.applied", "count"),
    ("optimize.rejected_by_analysis", "count"),
    ("optimize.rejected_by_verify", "count"),
    ("optimize.noop", "count"),
    ("optimize.drag_reclaimed_pct", "%"),
    ("analysis.death_points_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// One completed operation: which input it ran, its wall-clock and
/// process CPU time, and the bytes of work it covered (allocation clock
/// or trace bytes; see NOTES.md).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub item: usize,
    pub ns: u64,
    pub cpu_ns: u64,
    pub bytes: u64,
}

/// One complete round of a concurrent workload: an operation on every
/// input, with the process CPU time the round took.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub ops: usize,
    pub cpu_ns: u64,
    pub bytes: u64,
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Phase {
    /// Every completed operation (a job, a report, a session, a call).
    pub ops: Vec<Op>,
    /// Wall-clock time of the measured loop.
    pub wall: Duration,
    /// Complete rounds, when callers run concurrently and an operation's
    /// CPU time cannot be told apart; empty for a single caller.
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-specific named metrics, printed as `name = value unit`.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced phases only).
    pub layers: Vec<(&'static str, f64)>,
    /// Reconciliation checks (traced phases only): description, passed.
    pub checks: Vec<(String, bool)>,
    pub spans: Vec<Span>,
}

/// The end-to-end CPU figures of a phase.
///
/// One caller: each input's median CPU time per operation, then the
/// median and 90th percentile across the inputs, so the mix of large and
/// small inputs a run happens to draw cannot move them. Concurrent
/// callers: the CPU time per operation of each complete round, median
/// and 90th percentile across rounds.
pub struct Typical {
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// One round's bytes of work over one round's CPU time.
    pub mib_per_cpu_s: f64,
}

impl Phase {
    pub fn typical(&self) -> Typical {
        const MIB: f64 = 1024.0 * 1024.0;
        if !self.rounds.is_empty() {
            let per_op = self
                .rounds
                .iter()
                .map(|r| r.cpu_ns as f64 / 1e6 / r.ops as f64);
            let rate = self
                .rounds
                .iter()
                .map(|r| r.bytes as f64 / MIB / (r.cpu_ns as f64 / 1e9));
            let per_op: Vec<f64> = per_op.collect();
            return Typical {
                p50_ms: quantile(per_op.clone(), 0.5),
                p90_ms: quantile(per_op, 0.9),
                mib_per_cpu_s: quantile(rate.collect(), 0.5),
            };
        }
        let mut per_item: BTreeMap<usize, (Vec<f64>, u64)> = BTreeMap::new();
        for o in &self.ops {
            let e = per_item.entry(o.item).or_default();
            e.0.push(o.cpu_ns as f64 / 1e6);
            e.1 = o.bytes;
        }
        let medians: Vec<f64> = per_item
            .values()
            .map(|(v, _)| quantile(v.clone(), 0.5))
            .collect();
        let round_bytes: u64 = per_item.values().map(|(_, b)| b).sum();
        let round_cpu_s = medians.iter().sum::<f64>() / 1e3;
        Typical {
            p50_ms: quantile(medians.clone(), 0.5),
            p90_ms: quantile(medians, 0.9),
            mib_per_cpu_s: round_bytes as f64 / MIB / round_cpu_s,
        }
    }

    /// The `q`-quantile of every operation's latency.
    pub fn op_ms(&self, q: f64) -> f64 {
        quantile(self.ops.iter().map(|o| o.ns as f64 / 1e6).collect(), q)
    }

    /// Fails one operation, printing why on stderr.
    pub fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED {what}: {why}");
        }
    }
}

/// A benchmark workload: seeded set-up, then a measured loop.
pub trait Workload {
    type State;
    /// Generator threads or connections the workload drives.
    fn generators(&self) -> usize;
    fn setup(&self, seed: u64) -> Result<Self::State, String>;
    /// Human lines about the set-up's inputs (hashes, shares).
    fn describe(&self, state: &Self::State) -> Vec<String>;
    /// Runs operations until `budget` has passed (at least one).
    /// Calls `cal.tick()` between operations.
    fn measure(
        &self,
        state: &Self::State,
        budget: Duration,
        traced: bool,
        cal: &mut Calibration,
    ) -> Phase;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (profile|report|serve|optimize)".into());
    }
    Ok(args)
}

/// Worker threads the host offers.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision when it is a git work tree; read from
/// `.git` directly so nothing outside the checkout is consulted.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; such a run is already marked
            // incorrect by its caller.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_named(phase: &Phase) {
    for (name, value, unit) in &phase.named {
        println!("{name} = {value:.4} {unit}");
    }
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<(), String> {
    println!(
        "heapbench workload={} seed={} seconds={} trace={} host_cores={} generator_threads={} git_rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores(),
        w.generators(),
        git_rev()
    );
    // Set-up time is CPU time too, each set-up scaled by calibration
    // bursts taken right before and after it.
    let mut cal = Calibration::new();
    let (mut setup_s, mut setup_cpu_s, mut setup_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    let mut before_ms = cal.burst(SETUP_BURST);
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(state.take());
        let (t0, c0) = (Instant::now(), cpu::process_ns());
        state = Some(w.setup(args.seed)?);
        let cpu_s = (cpu::process_ns() - c0) as f64 / 1e9;
        setup_wall_s.push(t0.elapsed().as_secs_f64());
        let after_ms = cal.burst(SETUP_BURST);
        setup_cpu_s.push(cpu_s);
        setup_s.push(cpu_s * REFERENCE_MS * 2.0 / (before_ms + after_ms));
        before_ms = after_ms;
    }
    let state = state.expect("at least one set-up ran");
    for line in w.describe(&state) {
        println!("{line}");
    }
    let warm = w.measure(&state, WARMUP, false, &mut cal);
    let budget = Duration::from_secs(args.seconds);

    if !args.trace {
        let phase = w.measure(&state, budget, false, &mut cal);
        let attempted = phase.attempted + warm.attempted;
        let failed = phase.failed + warm.failed;
        let scale = cal.scale();
        let raw = phase.typical();
        let values = [
            quantile(setup_s, 0.5),
            peak_rss_mib()?,
            raw.p50_ms * scale,
            raw.p90_ms * scale,
            raw.mib_per_cpu_s / scale,
        ];
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect();
        println!(
            "calibration = {:.4} ms median of {} samples (reference {REFERENCE_MS} ms), scale {scale:.4}",
            cal.median_ms(),
            cal.samples()
        );
        println!(
            "setup: {:.4} s CPU, {:.4} s wall (medians of {})",
            quantile(setup_cpu_s, 0.5),
            quantile(setup_wall_s, 0.5),
            SETUP_REPS
        );
        println!(
            "unscaled: cpu_ms.p50 = {:.4} ms, cpu_ms.p90 = {:.4} ms, mib_per_cpu_s = {:.4}",
            raw.p50_ms, raw.p90_ms, raw.mib_per_cpu_s
        );
        println!(
            "operations = {} in {:.3} s wall; wall-clock figures:",
            phase.ops.len(),
            phase.wall.as_secs_f64()
        );
        print_named(&phase);
        println!(
            "failed_pct = {:.4} % ({failed} of {attempted})",
            100.0 * failed as f64 / attempted.max(1) as f64
        );
        for (name, value, unit) in &metrics {
            println!("{name} = {value:.4} {unit}");
        }
        let correct = failed == 0 && metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0);
        println!("{}", json_result(correct, attempted, failed, &metrics));
        return Ok(());
    }

    // Traced run: the same loop untraced, then traced, for the overhead.
    let half = Duration::from_secs_f64(budget.as_secs_f64() / 2.0);
    // Each half is scaled by its own calibration samples, so that host
    // drift between the halves does not read as tracing overhead.
    let mark = cal.samples();
    let plain = w.measure(&state, half, false, &mut cal);
    let plain_ms = plain.typical().p50_ms * cal.scale_since(mark);
    let mark = cal.samples();
    let traced = w.measure(&state, half, true, &mut cal);
    let traced_ms = traced.typical().p50_ms * cal.scale_since(mark);
    let attempted = warm.attempted + plain.attempted + traced.attempted;
    let failed = warm.failed + plain.failed + traced.failed;
    let overhead = (traced_ms / plain_ms - 1.0) * 100.0;
    println!(
        "untraced ref_cpu_ms.p50 = {plain_ms:.4} ms, traced ref_cpu_ms.p50 = {traced_ms:.4} ms ({} + {} operations)",
        plain.ops.len(),
        traced.ops.len()
    );
    print_named(&traced);
    let mut all_ok = true;
    for (what, ok) in &traced.checks {
        println!("reconcile {}: {what}", if *ok { "ok" } else { "FAILED" });
        all_ok &= ok;
    }
    let spans_path =
        Path::new(".bench_spans").join(format!("{}-seed{}.tsv", args.workload, args.seed));
    trace::write_spans(&spans_path, &traced.spans)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!("spans: {} -> {}", traced.spans.len(), spans_path.display());
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_pct" {
                overhead
            } else {
                traced
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v)
            };
            (name, value, unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name} = {value:.4} {unit}");
    }
    let unknown: Vec<&str> = traced
        .layers
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !PER_LAYER.iter().any(|(p, _)| p == n))
        .collect();
    if !unknown.is_empty() {
        return Err(format!("layer metrics missing from the table: {unknown:?}"));
    }
    let correct = failed == 0 && all_ok && metrics.iter().all(|m| m.1.is_finite());
    println!("{}", json_result(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> std::process::ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "profile" => run(&profile::Profile, &args),
        "report" => run(&report::Report, &args),
        "serve" => run(&serve::Serve, &args),
        "optimize" => run(&optimize::Optimize, &args),
        other => Err(format!("unknown workload `{other}`")),
    });
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("heapbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (section, table) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = json.find(section).expect("section present");
            let body = &json[start..json[start..].find(']').map(|e| start + e).unwrap()];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{section}: count");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section}: missing {entry}");
            }
        }
    }
}
