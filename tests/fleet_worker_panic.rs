//! A fleet job whose verify gate panics is confined to itself: the fleet
//! still returns `Ok`, the scoreboard keeps one job per spec in spec
//! order, and every job that reached verify scores `worker panicked`
//! while the rest finish normally.

use std::sync::atomic::{AtomicUsize, Ordering};

use heapdrag::fleet::{optimize_fleet, FleetOptions, InputSelection};
use heapdrag::transform::Equivalence;
use heapdrag::vm::error::VmError;
use heapdrag::vm::program::Program;

/// Calls of [`panicking_verify`]; each one ends its job.
static VERIFY_CALLS: AtomicUsize = AtomicUsize::new(0);

fn panicking_verify(_: &Program, _: &Program, _: &[Vec<i64>]) -> Result<Equivalence, VmError> {
    VERIFY_CALLS.fetch_add(1, Ordering::SeqCst);
    panic!("injected verify failure");
}

#[test]
fn a_panicking_verify_scores_worker_panicked_in_spec_order() {
    let workloads = ["javac", "jack"];
    let options = FleetOptions {
        workloads: workloads.iter().map(|w| w.to_string()).collect(),
        inputs: InputSelection::Both,
        pool_workers: 2,
        verify: panicking_verify,
        ..FleetOptions::default()
    };
    let board = optimize_fleet(&options, None).expect("a panicking job does not fail the fleet");

    let specs: Vec<(&str, &str)> = workloads
        .iter()
        .flat_map(|w| [(*w, "default"), (*w, "alternate")])
        .collect();
    let got: Vec<(&str, &str)> = board
        .jobs
        .iter()
        .map(|j| (j.workload.as_str(), j.input))
        .collect();
    assert_eq!(got, specs, "one job per spec, in spec order");

    // Each job that reaches verify calls it exactly once, then panics.
    let panicked = board
        .jobs
        .iter()
        .filter(|j| j.error.as_deref() == Some("worker panicked"))
        .count();
    let calls = VERIFY_CALLS.load(Ordering::SeqCst);
    assert!(
        calls > 0,
        "javac and jack both rank a rewrite worth verifying"
    );
    assert_eq!(panicked, calls, "{}", board.render_text());

    // The same fleet with the real gate: a job that commits a rewrite
    // there reached verify, so it must have panicked above; the others
    // finished without error and without committing anything.
    let clean = optimize_fleet(
        &FleetOptions {
            verify: FleetOptions::default().verify,
            ..options.clone()
        },
        None,
    )
    .expect("clean fleet run");
    for (job, clean_job) in board.jobs.iter().zip(&clean.jobs) {
        let ctx = format!("{} {}", job.workload, job.input);
        if !clean_job.applied.is_empty() {
            assert_eq!(job.error.as_deref(), Some("worker panicked"), "{ctx}");
        }
        if job.error.is_none() {
            assert!(job.applied.is_empty(), "{ctx}: nothing passed the gate");
        }
    }
}
