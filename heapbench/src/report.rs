//! `report`: the off-line phase alone, one closed-loop caller. Each
//! operation streams one trace of the corpus through the `report`
//! command's default pipeline and renders the top-10 report. The VM is
//! never called.

use std::time::{Duration, Instant};

use heapdrag::core::{LogFormat, Pipeline, ReportSections};
use heapdrag::vm::ids::SiteId;
use heapdrag::vm::{InterpreterKind, Program};
use heapdrag::workloads::all_workloads;

use crate::corpus::{order_hash, schedule, specs, Corpus, TOP};
use crate::cpu::{self, Calibration};
use crate::stats::PerItem;
use crate::trace::{parent_and_children, self_times, Tracer};
use crate::{Op, Phase, Workload};

/// Reports drawn per seed; more than any run reaches.
const ORDER_LEN: usize = 1 << 18;

/// Share of the report spans their children may leave uncovered.
const SPAN_TOLERANCE: f64 = 0.05;

pub struct Report;

/// The trace corpus and the seed's visiting order over it, shared with
/// the `serve` workload.
pub struct State {
    pub corpus: Corpus,
    pub order: Vec<usize>,
}

pub fn setup_corpus(seed: u64, order_len: usize) -> Result<State, String> {
    let programs: Vec<Program> = all_workloads().iter().map(|w| w.original()).collect();
    let corpus = Corpus::build(&programs, &specs(), InterpreterKind::Fast)?;
    let order = schedule(seed, corpus.traces.len(), order_len);
    Ok(State { corpus, order })
}

pub fn describe_corpus(st: &State) -> Vec<String> {
    let mut lines = vec![format!(
        "job list: {} traces, hash {:016x}",
        st.corpus.traces.len(),
        order_hash(&st.order)
    )];
    lines.extend(st.corpus.describe());
    lines
}

/// Fields of [`Counts::per_report`].
const CHUNKS: usize = 0;
const PEAK_KIB: usize = 1;
const STALLS: usize = 2;

/// What the traced phase adds up across reports.
struct Counts {
    per_report: PerItem<3>,
    records: u64,
    decoded_bytes: [u64; 2],
    record_mismatches: u64,
}

impl Workload for Report {
    type State = State;

    fn generators(&self) -> usize {
        1
    }

    fn setup(&self, seed: u64) -> Result<State, String> {
        setup_corpus(seed, ORDER_LEN)
    }

    fn describe(&self, st: &State) -> Vec<String> {
        describe_corpus(st)
    }

    fn measure(&self, st: &State, budget: Duration, traced: bool, cal: &mut Calibration) -> Phase {
        let pipe = Pipeline::options();
        let epoch = Instant::now();
        let mut tr = Tracer::new(traced, epoch, 0);
        let mut phase = Phase::default();
        let mut counts = Counts {
            per_report: PerItem::new(),
            records: 0,
            decoded_bytes: [0; 2],
            record_mismatches: 0,
        };
        let mut busy = Duration::ZERO;
        let mut k = 0;
        while k == 0 || epoch.elapsed() < budget {
            cal.tick();
            let item = st.order[k % st.order.len()];
            let trace = &st.corpus.traces[item];
            k += 1;
            phase.attempted += 1;

            let (t0, c0) = (Instant::now(), cpu::process_ns());
            let op = tr.begin("report");
            let s = tr.begin("report.analyze_reader");
            let streamed = pipe.analyze_reader(&trace.bytes[..]);
            tr.end(s);
            let rendered = streamed.map(|sr| {
                let s = tr.begin("report.render");
                let text = ReportSections::standard(&sr.report, &sr).top(TOP).render();
                tr.end(s);
                (sr, text)
            });
            tr.end(op);
            let (elapsed, cpu_ns) = (t0.elapsed(), cpu::process_ns() - c0);

            let (streamed, text) = match rendered {
                Ok(done) => done,
                Err(e) => {
                    phase.fail("report", e);
                    continue;
                }
            };
            if text != trace.report {
                phase.fail(
                    "report",
                    "report differs from ingest_bytes + analyze_records",
                );
                continue;
            }
            phase.ops.push(Op {
                item,
                ns: elapsed.as_nanos() as u64,
                cpu_ns,
                bytes: trace.bytes.len() as u64,
            });
            busy += elapsed;

            if traced {
                // The decomposed path the expected report came from,
                // timed per layer: decode, then fold.
                let s = tr.begin(match trace.format {
                    LogFormat::Text => "codec.decode.text",
                    LogFormat::Binary => "codec.decode.binary",
                });
                let ingested = pipe.ingest_bytes(&trace.bytes);
                tr.end(s);
                let Ok(ingested) = ingested else {
                    phase.fail("ingest_bytes", "decode failed");
                    continue;
                };
                let s = tr.begin("engine.fold");
                let _ = pipe.analyze_records(&ingested.log.records, |c| Some(SiteId(c.0)));
                tr.end(s);
                let stats = streamed.stats;
                counts.per_report.add(
                    item,
                    [
                        stats.chunks as f64,
                        stats.peak_buffered_bytes as f64 / 1024.0,
                        stats.backpressure_stalls as f64,
                    ],
                );
                counts.records += ingested.log.records.len() as u64;
                counts.decoded_bytes[usize::from(trace.format == LogFormat::Binary)] +=
                    trace.bytes.len() as u64;
                if ingested.log.records.len() != trace.records
                    || streamed.records != trace.records as u64
                {
                    counts.record_mismatches += 1;
                }
            }
        }
        phase.wall = epoch.elapsed();
        let mib = phase.ops.iter().map(|o| o.bytes).sum::<u64>() as f64 / (1024.0 * 1024.0);
        phase.named = vec![
            ("report_ms.p50".into(), phase.op_ms(0.5), "ms"),
            ("report_ms.p90".into(), phase.op_ms(0.9), "ms"),
            ("report_mib_per_s".into(), mib / busy.as_secs_f64(), "MiB/s"),
        ];
        if traced {
            phase.spans = tr.into_spans();
            layers(&mut phase, &counts);
        }
        phase
    }
}

fn layers(phase: &mut Phase, c: &Counts) {
    let st = self_times(&phase.spans);
    let total = |name: &str| st.get(name).map_or(0, |v| v.0) as f64;
    let mean_us = |name: &str| {
        st.get(name)
            .map_or(0.0, |&(ns, k)| ns as f64 / k.max(1) as f64 / 1e3)
    };
    let mib_per_s =
        |bytes: u64, name: &str| bytes as f64 / (1024.0 * 1024.0) / (total(name) / 1e9).max(1e-9);
    phase.layers = vec![
        ("codec.decode_us.text", mean_us("codec.decode.text")),
        ("codec.decode_us.binary", mean_us("codec.decode.binary")),
        (
            "codec.decode_mib_per_s.text",
            mib_per_s(c.decoded_bytes[0], "codec.decode.text"),
        ),
        (
            "codec.decode_mib_per_s.binary",
            mib_per_s(c.decoded_bytes[1], "codec.decode.binary"),
        ),
        ("engine.fold_us", mean_us("engine.fold")),
        (
            "engine.ns_per_record",
            total("engine.fold") / c.records.max(1) as f64,
        ),
        ("stream.chunks", c.per_report.mean(CHUNKS)),
        ("stream.peak_buffered_kib", c.per_report.mean(PEAK_KIB)),
        ("stream.backpressure_stalls", c.per_report.mean(STALLS)),
        ("report.analyze_reader_us", mean_us("report.analyze_reader")),
        ("report.render_us", mean_us("report.render")),
    ];
    let reports = c.per_report.ops();
    let (op_ns, child_ns) = parent_and_children(&phase.spans, "report");
    let gap = (op_ns as f64 - child_ns as f64) / op_ns.max(1) as f64;
    phase.checks = vec![
        (
            format!(
                "report children cover {:.2}% of {:.1} ms of report spans (tolerance {:.0}%)",
                100.0 * (1.0 - gap),
                op_ns as f64 / 1e6,
                SPAN_TOLERANCE * 100.0
            ),
            (0.0..=SPAN_TOLERANCE).contains(&gap),
        ),
        (
            format!(
                "records decoded equal records encoded in {} of {} traces",
                reports - c.record_mismatches,
                reports
            ),
            c.record_mismatches == 0 && reports > 0,
        ),
    ];
}
