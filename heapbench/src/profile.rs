//! `profile`: the on-line phase, one closed-loop caller. Each job
//! assembles a program from its disassembly, verifies it, runs it plain,
//! profiles it and encodes the trace (the timed operation, steps 2–5),
//! then runs it under the live profiler (step 6).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use heapdrag::core::{profile_with, run_live, LiveOptions, LogFormat, ReportSections, VmConfig};
use heapdrag::obs::Registry;
use heapdrag::vm::asm::assemble;
use heapdrag::vm::disasm::disassemble;
use heapdrag::vm::observer::NullObserver;
use heapdrag::vm::verify::verify_program;
use heapdrag::vm::{InterpreterKind, Program, Vm};
use heapdrag::workloads::all_workloads;

use crate::corpus::{finalizer_share, order_hash, schedule, specs, Corpus, Spec, FORMATS, TOP};
use crate::cpu::{self, Calibration};
use crate::stats::{quantile, PerItem};
use crate::trace::{parent_and_children, self_times, Tracer};
use crate::{Op, Phase, Workload};

/// Jobs drawn per seed; more than any run reaches.
const ORDER_LEN: usize = 1 << 16;

/// Share of the job spans their children may leave uncovered.
const SPAN_TOLERANCE: f64 = 0.05;

pub struct Profile;

pub struct State {
    names: Vec<&'static str>,
    /// Per spec: `program/input/scale`, for failure messages.
    labels: Vec<String>,
    /// Step 1: each program's disassembly, the job's input text.
    texts: Vec<String>,
    specs: Vec<Spec>,
    inputs: Vec<Vec<i64>>,
    /// Every (spec, format) profiled on the reference interpreter: the
    /// bytes each job's log must equal.
    reference: Corpus,
    order: Vec<usize>,
}

/// Fields of [`Counts::per_job`].
const STEPS: usize = 0;
const RUN_NS: usize = 1;
const PAUSE_US: usize = 2;
const PROFILED_NS: usize = 3;
const FULL_GCS: usize = 4;
const DEEP_GCS: usize = 5;
const TRACED_OBJECTS: usize = 6;
const PROFILER_EVENTS: usize = 7;
const LIVE_EVENTS: usize = 8;

/// What the traced phase adds up across jobs.
struct Counts {
    per_job: PerItem<9>,
    live_dropped: u64,
    deep_gc_mismatches: u64,
    /// Per program: GC pause µs and profiled ns.
    gc_by_program: BTreeMap<&'static str, (u64, u64)>,
}

fn counter_sum(registry: &Registry, prefix: &str) -> u64 {
    registry
        .snapshot()
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

impl Workload for Profile {
    type State = State;

    fn generators(&self) -> usize {
        1
    }

    fn setup(&self, seed: u64) -> Result<State, String> {
        let workloads = all_workloads();
        let texts: Vec<String> = workloads
            .iter()
            .map(|w| disassemble(&w.original()))
            .collect();
        let programs: Vec<Program> = texts
            .iter()
            .map(|t| assemble(t).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let specs = specs();
        let inputs = specs
            .iter()
            .map(|s| s.input(&workloads[s.program]))
            .collect();
        let reference = Corpus::build(&programs, &specs, InterpreterKind::Reference)?;
        let order = schedule(seed, reference.traces.len(), ORDER_LEN);
        Ok(State {
            names: workloads.iter().map(|w| w.name).collect(),
            labels: specs
                .iter()
                .map(|s| s.label(&workloads[s.program]))
                .collect(),
            texts,
            specs,
            inputs,
            reference,
            order,
        })
    }

    fn describe(&self, st: &State) -> Vec<String> {
        let (with, total) = finalizer_share();
        let mut lines = vec![format!(
            "job list: {} (spec, format) items, hash {:016x}",
            st.reference.traces.len(),
            order_hash(&st.order)
        )];
        lines.extend(st.reference.describe());
        lines.push(format!("share.programs_with_finalizer = {with}/{total}"));
        lines
    }

    fn measure(&self, st: &State, budget: Duration, traced: bool, cal: &mut Calibration) -> Phase {
        let epoch = Instant::now();
        let mut tr = Tracer::new(traced, epoch, 0);
        let mut phase = Phase::default();
        let mut counts = Counts {
            per_job: PerItem::new(),
            live_dropped: 0,
            deep_gc_mismatches: 0,
            gc_by_program: BTreeMap::new(),
        };
        let (mut plain_ms, mut live_ms) = (Vec::new(), Vec::new());
        let mut busy = Duration::ZERO;
        let mut k = 0;
        while k == 0 || epoch.elapsed() < budget {
            let item = st.order[k % st.order.len()];
            k += 1;
            phase.attempted += 1;
            match job(st, item, &mut tr, &mut counts) {
                Ok(t) => {
                    phase.ops.push(Op {
                        item,
                        ns: t.op.as_nanos() as u64,
                        cpu_ns: t.op_cpu_ns,
                        bytes: st.reference.runs[item / 2].alloc_bytes,
                    });
                    busy += t.op;
                    plain_ms.push(t.plain.as_secs_f64() * 1e3);
                    live_ms.push(t.live.as_secs_f64() * 1e3);
                }
                Err(e) => {
                    let label = format!("{} {}", st.labels[item / 2], FORMATS[item % 2]);
                    phase.fail(&label, e);
                }
            }
            cal.tick();
        }
        phase.wall = epoch.elapsed();
        let mib = phase.ops.iter().map(|o| o.bytes).sum::<u64>() as f64 / (1024.0 * 1024.0);
        phase.named = vec![
            ("profile_ms.p50".into(), phase.op_ms(0.5), "ms"),
            ("profile_ms.p90".into(), phase.op_ms(0.9), "ms"),
            (
                "profile_mib_per_s".into(),
                mib / busy.as_secs_f64(),
                "MiB/s",
            ),
            ("plain_ms.p50".into(), quantile(plain_ms, 0.5), "ms"),
            ("live_ms.p50".into(), quantile(live_ms, 0.5), "ms"),
        ];
        if traced {
            phase.spans = tr.into_spans();
            layers(&mut phase, &counts);
        }
        phase
    }
}

struct JobTimes {
    op: Duration,
    op_cpu_ns: u64,
    plain: Duration,
    live: Duration,
}

fn job(st: &State, item: usize, tr: &mut Tracer, counts: &mut Counts) -> Result<JobTimes, String> {
    let spec = st.specs[item / 2];
    let format = FORMATS[item % 2];
    let input = &st.inputs[item / 2];
    let expected = &st.reference.traces[item];
    let traced = tr.enabled();
    let registry = traced.then(Registry::new);

    let (t0, c0) = (Instant::now(), cpu::process_ns());
    let job_span = tr.begin("job");
    // Steps 2–5; the job span closes even when a step fails.
    let steps = (|| {
        let s = tr.begin("load.assemble");
        let program = assemble(&st.texts[spec.program]).map_err(|e| e.to_string());
        tr.end(s);
        let program = program?;
        let s = tr.begin("load.verify");
        let verified = verify_program(&program);
        tr.end(s);
        verified.map_err(|e| e.to_string())?;
        let t_plain = Instant::now();
        let s = tr.begin("load.vm_new");
        let mut vm = Vm::new(&program, VmConfig::default());
        tr.end(s);
        let (s, t_run) = (tr.begin("vm.plain_run"), Instant::now());
        let plain = vm.run(input);
        drop(vm);
        tr.end(s);
        let (plain_time, run_ns) = (t_plain.elapsed(), t_run.elapsed().as_nanos() as u64);
        let plain = plain.map_err(|e| format!("plain run: {e}"))?;
        let t_profile = Instant::now();
        let s = tr.begin("profiler.profile");
        let run = profile_with(&program, input, VmConfig::profiling(), registry.as_ref());
        tr.end(s);
        let profiled_ns = t_profile.elapsed().as_nanos() as u64;
        let run = run.map_err(|e| format!("profile: {e}"))?;
        let s = tr.begin(match format {
            LogFormat::Text => "codec.encode.text",
            LogFormat::Binary => "codec.encode.binary",
        });
        let mut log = Vec::with_capacity(expected.bytes.len());
        let written = run.write_log_to(&program, format, &mut log);
        tr.end(s);
        written.map_err(|e| format!("encode: {e}"))?;
        Ok::<_, String>((program, plain, plain_time, run_ns, run, profiled_ns, log))
    })();
    tr.end(job_span);
    let (op, op_cpu_ns) = (t0.elapsed(), cpu::process_ns() - c0);
    let (program, plain, plain_time, run_ns, run, profiled_ns, log) = steps?;

    let live_registry = traced.then(Registry::new);
    let t_live = Instant::now();
    let s = tr.begin("live.run_live");
    let live = run_live(
        &program,
        input,
        VmConfig::profiling(),
        &LiveOptions::default(),
        live_registry.as_ref(),
        |_| {},
    );
    tr.end(s);
    let live_time = t_live.elapsed();
    let live = live.map_err(|e| format!("live: {e}"))?;

    if log != expected.bytes {
        return Err(format!(
            "log differs from the reference interpreter's ({} vs {} bytes)",
            log.len(),
            expected.bytes.len()
        ));
    }
    if plain.output != st.reference.runs[item / 2].output {
        return Err("plain run output differs from the reference run".into());
    }
    if live.dropped != 0 {
        return Err(format!("live run dropped {} events", live.dropped));
    }
    let final_report = ReportSections::standard(&live.report, &live)
        .top(TOP)
        .coldness(&live.coldness)
        .render();
    if !final_report.starts_with(&expected.report) {
        return Err("live final report does not start with the report".into());
    }

    if let (Some(reg), Some(live_reg)) = (&registry, &live_registry) {
        // Observer cost: the same VM configuration with the null
        // observer, whose use events the VM skips.
        let null_registry = Registry::new();
        let s = tr.begin("profiler.null_run");
        let mut vm = Vm::new(&program, VmConfig::profiling());
        vm.attach_metrics(&null_registry);
        let null = vm.run_observed(input, &mut NullObserver);
        tr.end(s);
        null.map_err(|e| format!("null-observer run: {e}"))?;

        let snap = reg.snapshot();
        let pause = snap
            .histograms
            .get("vm_gc_full_pause_us")
            .map_or(0, |h| h.sum);
        let deep_counter = snap.counters.get("vm_deep_gc_total").copied().unwrap_or(0);
        let mut row = [0.0; 9];
        row[STEPS] = plain.steps as f64;
        row[RUN_NS] = run_ns as f64;
        row[PAUSE_US] = pause as f64;
        row[PROFILED_NS] = profiled_ns as f64;
        row[FULL_GCS] = run.outcome.heap.full_collections as f64;
        row[DEEP_GCS] = run.outcome.deep_gcs as f64;
        row[TRACED_OBJECTS] = run.outcome.heap.traced_objects as f64;
        row[PROFILER_EVENTS] = counter_sum(reg, "profiler_events_total") as f64;
        row[LIVE_EVENTS] = counter_sum(live_reg, "heapdrag_live_events_total") as f64;
        counts.per_job.add(item, row);
        counts.live_dropped += live.dropped;
        if deep_counter != run.outcome.deep_gcs {
            counts.deep_gc_mismatches += 1;
        }
        let e = counts
            .gc_by_program
            .entry(st.names[spec.program])
            .or_default();
        e.0 += pause;
        e.1 += profiled_ns;
    }
    Ok(JobTimes {
        op,
        op_cpu_ns,
        plain: plain_time,
        live: live_time,
    })
}

fn layers(phase: &mut Phase, c: &Counts) {
    let st = self_times(&phase.spans);
    let total = |name: &str| st.get(name).map_or(0, |v| v.0) as f64;
    let mean_us = |name: &str| {
        st.get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n.max(1) as f64 / 1e3)
    };
    let jobs = c.per_job.ops();
    let per_job = |k: usize| c.per_job.mean(k);
    let (profiled, null) = (total("profiler.profile"), total("profiler.null_run"));
    phase.layers = vec![
        ("load.assemble_us", mean_us("load.assemble")),
        ("load.verify_us", mean_us("load.verify")),
        ("load.vm_new_us", mean_us("load.vm_new")),
        ("vm.plain_run_us", per_job(RUN_NS) / 1e3),
        ("vm.steps", per_job(STEPS)),
        ("vm.ns_per_step", per_job(RUN_NS) / per_job(STEPS)),
        ("gc.pause_us", per_job(PAUSE_US)),
        ("gc.full_count", per_job(FULL_GCS)),
        ("gc.deep_count", per_job(DEEP_GCS)),
        ("gc.traced_objects", per_job(TRACED_OBJECTS)),
        (
            "gc.pause_share_pct",
            per_job(PAUSE_US) * 1e3 / per_job(PROFILED_NS) * 100.0,
        ),
        (
            "profiler.observe_us",
            (profiled - null) / jobs.max(1) as f64 / 1e3,
        ),
        ("profiler.events", per_job(PROFILER_EVENTS)),
        ("profiler.overhead_x", profiled / null.max(1.0)),
        ("codec.encode_us.text", mean_us("codec.encode.text")),
        ("codec.encode_us.binary", mean_us("codec.encode.binary")),
        ("live.run_us", mean_us("live.run_live")),
        ("live.events", per_job(LIVE_EVENTS)),
        ("live.dropped", c.live_dropped as f64),
    ];
    for (program, (pause_us, ns)) in &c.gc_by_program {
        phase.named.push((
            format!("share.deep_gc_time.{program}"),
            *pause_us as f64 * 1e3 / (*ns).max(1) as f64 * 100.0,
            "%",
        ));
    }
    let (job_ns, child_ns) = parent_and_children(&phase.spans, "job");
    let gap = (job_ns as f64 - child_ns as f64) / job_ns.max(1) as f64;
    phase.checks = vec![
        (
            format!(
                "job children cover {:.2}% of {:.1} ms of job spans (tolerance {:.0}%)",
                100.0 * (1.0 - gap),
                job_ns as f64 / 1e6,
                SPAN_TOLERANCE * 100.0
            ),
            (0.0..=SPAN_TOLERANCE).contains(&gap),
        ),
        (
            format!(
                "vm_deep_gc_total equals RunOutcome::deep_gcs in {} of {jobs} jobs",
                jobs - c.deep_gc_mismatches,
            ),
            c.deep_gc_mismatches == 0 && jobs > 0,
        ),
    ];
}
