//! Live-vs-post-mortem differential suite: with an unbounded window, the
//! in-process live path (VM → SPSC ring → `DragEngine`) must reproduce
//! the file-logging post-mortem path *byte-identically* — the rebuilt
//! trailer records, the GC samples, and the rendered report — for all
//! nine workloads, against the `report` output at both trace formats and
//! shards 1/4/7. And it must do so while actually being live: every run
//! asserts at least one intermediate snapshot carrying coldness data,
//! zero ring drops, and zero unmatched events.

use heapdrag::core::{
    profile, run_live, LiveOptions, LogFormat, Pipeline, ProfileRun, ReportSections, VmConfig,
};
use heapdrag::vm::Program;
use heapdrag::workloads::all_workloads;

fn encode(run: &ProfileRun, program: &Program, format: LogFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    Pipeline::options()
        .format(format)
        .write_to(run, program, &mut buf)
        .expect("writes");
    buf
}

#[test]
fn unbounded_live_reproduces_the_post_mortem_report_for_all_nine_workloads() {
    let workloads = all_workloads();
    assert_eq!(workloads.len(), 9, "the paper's nine benchmarks");
    for w in workloads {
        let program = w.original();
        let input = (w.default_input)();
        let run = profile(&program, &input, VmConfig::profiling())
            .unwrap_or_else(|e| panic!("{}: profiles: {e}", w.name));

        // Snapshot four times over the run so "live" is not vacuous.
        let every = (run.outcome.end_time / 4).max(1);
        let mut snapshots = Vec::new();
        let live = run_live(
            &program,
            &input,
            VmConfig::profiling(),
            &LiveOptions {
                every,
                keep_records: true,
                ..LiveOptions::default()
            },
            None,
            |s: &str| snapshots.push(s.to_string()),
        )
        .unwrap_or_else(|e| panic!("{}: live run: {e}", w.name));

        assert_eq!(live.dropped, 0, "{}: ring dropped events", w.name);
        assert_eq!(live.unmatched, 0, "{}: unmatched events", w.name);
        assert!(live.snapshots >= 1, "{}: no intermediate snapshot", w.name);
        assert!(
            !live.coldness.is_empty(),
            "{}: no per-site coldness data",
            w.name
        );
        assert!(
            snapshots.iter().all(|s| s.contains("cold (idle >=")),
            "{}: snapshots lack the coldness line",
            w.name
        );

        // Trailer-level parity: the records the consumer rebuilt from raw
        // heap events are exactly the ones the file-logging profiler
        // buffered, in the same order — and so are the GC samples.
        let (records, samples) = live.collected.as_ref().expect("keep_records was set");
        assert_eq!(records, &run.records, "{}: record parity", w.name);
        assert_eq!(samples, &run.samples, "{}: sample parity", w.name);
        assert_eq!(live.end_time, run.outcome.end_time, "{}", w.name);

        // Report-level parity: the live final report starts with the
        // exact bytes `report` prints (the coldness section follows),
        // whichever trace format carried the log and at any shard count.
        let final_text = ReportSections::standard(&live.report, &live)
            .coldness(&live.coldness)
            .render();
        for format in [LogFormat::Text, LogFormat::Binary] {
            let bytes = encode(&run, &program, format);
            for shards in [1usize, 4, 7] {
                let streamed = Pipeline::options()
                    .shards(shards)
                    .analyze_reader(&bytes[..])
                    .unwrap_or_else(|e| panic!("{}: {format} streams: {e}", w.name));
                let want = ReportSections::standard(&streamed.report, &streamed).render();
                assert!(
                    final_text.starts_with(&want),
                    "{}: live final report diverges from `report` \
                     ({format}, {shards} shards)\n--- report ---\n{want}\n--- live ---\n{final_text}",
                    w.name
                );
            }
        }
    }
}

/// The site rows a snapshot prints for `freed`, the records folded so
/// far: one row per allocation site, folded straight from the records and
/// rendered the way `heapdrag live` renders them.
fn direct_site_rows(freed: &[heapdrag::core::ObjectRecord]) -> Vec<String> {
    use std::collections::HashMap;
    let mut sites: HashMap<u32, (u64, u64, u128)> = HashMap::new();
    for r in freed {
        let row = sites.entry(r.alloc_site.0).or_default();
        row.0 += 1;
        row.1 += r.size;
        row.2 += r.drag();
    }
    let mut rows: Vec<(u32, (u64, u64, u128))> = sites.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(&b.0)));
    rows.iter()
        .enumerate()
        .map(|(i, (site, (objects, bytes, drag)))| {
            format!(
                "{:>4}  {:>10.3}  {:>7}  {:>10}  chain#{}",
                i + 1,
                *drag as f64 / (1024.0 * 1024.0),
                objects,
                bytes,
                site
            )
        })
        .collect()
}

#[test]
fn unbounded_snapshot_tables_equal_a_direct_fold_of_the_freed_records() {
    // Every intermediate snapshot of an unbounded live run lists, for
    // every allocation site seen so far, the objects, bytes and drag of
    // the records freed so far — checked against a per-site fold of
    // exactly those records, for all nine workloads.
    for w in all_workloads() {
        let program = w.original();
        let input = (w.default_input)();
        let mut snapshots = Vec::new();
        let live = run_live(
            &program,
            &input,
            VmConfig::profiling(),
            &LiveOptions {
                every: 64 * 1024,
                top: usize::MAX,
                keep_records: true,
                ..LiveOptions::default()
            },
            None,
            |s: &str| snapshots.push(s.to_string()),
        )
        .unwrap_or_else(|e| panic!("{}: live run: {e}", w.name));
        assert_eq!(live.dropped, 0, "{}: ring dropped events", w.name);
        // The collected records come back in object-id order, but the
        // engine folded them in free order. A stable sort by free time
        // restores that order: where a snapshot falls inside one
        // collection's frees, the sweep visited those objects in
        // object-id order in every one of these (deterministic) runs.
        let mut records = live.collected.expect("keep_records was set").0;
        records.sort_by_key(|r| r.freed);
        assert!(snapshots.len() >= 2, "{}: too few snapshots", w.name);
        for snap in &snapshots {
            let folded: usize = snap
                .lines()
                .find_map(|l| l.strip_prefix("folded: "))
                .and_then(|l| l.split(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{}: no folded count in\n{snap}", w.name));
            let rows: Vec<String> = snap
                .lines()
                .skip_while(|l| !l.starts_with("rank "))
                .skip(1)
                .take_while(|l| !l.starts_with("---"))
                .map(str::to_string)
                .collect();
            let want = direct_site_rows(&records[..folded]);
            assert!(folded == 0 || !want.is_empty());
            assert_eq!(rows, want, "{}: snapshot table diverges\n{snap}", w.name);
        }
    }
}

#[test]
fn the_engine_survives_event_streams_with_dropped_allocs() {
    // When the ring overflows, the consumer sees use/free events whose
    // alloc event is gone. The engine must count them as unmatched —
    // exactly — and keep folding, snapshotting, and summarising without
    // panicking, under any seeded pattern of drops and window modes.
    use heapdrag::core::{DragEngine, EngineConfig, WindowSpec};
    use heapdrag::vm::{ChainId, ClassId, ObjectId, SiteId};
    use heapdrag_testkit::{check, Rng};

    check("engine-dropped-allocs", 64, |rng: &mut Rng| {
        let window = if rng.bool() {
            WindowSpec::Rolling {
                window: rng.range_u64(512, 8192),
                advance: rng.range_u64(64, 512),
            }
        } else {
            WindowSpec::Unbounded
        };
        let mut engine = DragEngine::live(
            EngineConfig {
                window,
                ..EngineConfig::default()
            },
            |c: ChainId| Some(SiteId(c.0)),
        );
        let mut clock = 0u64;
        let mut expect_unmatched = 0u64;
        let mut folded = 0u64;
        for i in 0..rng.range_u64(1, 200) {
            let object = ObjectId(i);
            let size = rng.range_u64(8, 256);
            let known = rng.ratio(3, 4);
            clock += size;
            if known {
                engine.observe_alloc(object, ClassId(0), ChainId(i as u32 % 5), size, clock);
            }
            for _ in 0..rng.range_usize(0, 4) {
                clock += rng.range_u64(0, 64);
                engine.observe_use(object, ChainId(i as u32 % 3), clock);
                expect_unmatched += u64::from(!known);
            }
            if rng.ratio(4, 5) {
                clock += rng.range_u64(0, 64);
                let rec = engine.observe_free(object, clock, false);
                assert_eq!(rec.is_some(), known, "free folds iff the alloc arrived");
                expect_unmatched += u64::from(!known);
                folded += u64::from(known);
            }
        }
        folded += engine.flush_residents(clock).len() as u64;
        assert_eq!(engine.unmatched(), expect_unmatched, "unmatched is exact");
        assert_eq!(engine.records(), folded, "only complete objects fold");
        let snap = engine.snapshot();
        assert_eq!(snap.resident_objects, 0, "flush drained every resident");
        let _ = engine.coldness_summary();
    });
}

#[test]
fn live_snapshots_are_deterministic_when_nothing_is_dropped() {
    let w = all_workloads().into_iter().next().expect("a workload");
    let program = w.original();
    let input = (w.default_input)();
    let run_once = || {
        let mut snapshots = Vec::new();
        let live = run_live(
            &program,
            &input,
            VmConfig::profiling(),
            &LiveOptions {
                every: 64 * 1024,
                ..LiveOptions::default()
            },
            None,
            |s: &str| snapshots.push(s.to_string()),
        )
        .expect("live run");
        assert_eq!(live.dropped, 0);
        let final_text = ReportSections::standard(&live.report, &live)
            .coldness(&live.coldness)
            .render();
        (snapshots, final_text)
    };
    let (snaps_a, final_a) = run_once();
    let (snaps_b, final_b) = run_once();
    assert_eq!(snaps_a, snaps_b, "snapshot streams must be identical");
    assert_eq!(final_a, final_b, "final reports must be identical");
    assert!(!snaps_a.is_empty());
}
