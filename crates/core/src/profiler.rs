//! The on-line phase: a [`HeapObserver`] that keeps one trailer
//! ([`ObjectRecord`]) per object, updated on every use and finished when
//! the object dies.

use heapdrag_obs::{Counter, Gauge, Registry};
use heapdrag_vm::error::VmError;
use heapdrag_vm::ids::ObjectId;
use heapdrag_vm::interp::{RunOutcome, Vm, VmConfig};
use heapdrag_vm::observer::{
    AllocEvent, FreeEvent, GcEvent, HeapObserver, RetainDelivery, RetainEvent, UseDelivery,
    UseEvent, UseKind,
};
use heapdrag_vm::program::Program;
use heapdrag_vm::site::SiteTable;

use crate::record::{GcSample, ObjectRecord, RetainRecord};

/// Metric handles for the on-line phase.
///
/// The `heapdrag_*` family is the **reconciliation surface**: the off-line
/// analyzer publishes the same names from the parsed log
/// ([`crate::log::ParsedLog::publish_metrics`]), and the two snapshots must
/// agree exactly. `profiler_events_total{kind="..."}` additionally counts
/// raw observer callbacks per event kind.
#[derive(Debug, Clone)]
pub struct ProfilerMetrics {
    created: Counter,
    alloc_bytes: Counter,
    reclaimed: Counter,
    at_exit: Counter,
    samples: Counter,
    retains: Counter,
    end_time: Gauge,
    ev_alloc: Counter,
    ev_free: Counter,
    ev_deep_gc: Counter,
    ev_exit: Counter,
    ev_use: [Counter; UseKind::ALL.len()],
}

impl ProfilerMetrics {
    /// Registers (or re-attaches to) the profiler metric family in
    /// `registry`.
    pub fn register(registry: &Registry) -> Self {
        ProfilerMetrics {
            created: registry.counter("heapdrag_objects_created_total"),
            alloc_bytes: registry.counter("heapdrag_alloc_bytes_total"),
            reclaimed: registry.counter("heapdrag_objects_reclaimed_total"),
            at_exit: registry.counter("heapdrag_objects_at_exit_total"),
            samples: registry.counter("heapdrag_deep_gc_samples_total"),
            retains: registry.counter("heapdrag_retain_samples_total"),
            end_time: registry.gauge("heapdrag_end_time_bytes"),
            ev_alloc: registry.counter("profiler_events_total{kind=\"alloc\"}"),
            ev_free: registry.counter("profiler_events_total{kind=\"free\"}"),
            ev_deep_gc: registry.counter("profiler_events_total{kind=\"deep_gc\"}"),
            ev_exit: registry.counter("profiler_events_total{kind=\"exit\"}"),
            ev_use: std::array::from_fn(|i| {
                let kind = UseKind::ALL[i].name();
                registry.counter(&format!("profiler_events_total{{kind=\"use_{kind}\"}}"))
            }),
        }
    }
}

/// Marks an [`ObjectId`] with no live trailer in [`DragProfiler::slots`]:
/// never allocated, pinned, or already freed.
const NO_TRAILER: u32 = u32::MAX;

/// A drag profiler: attach to a [`Vm`] run (or use the
/// [`profile`] convenience) and collect per-object records plus deep-GC
/// samples.
///
/// Each object's record is pushed at allocation and doubles as its
/// trailer. One heap issues ids in sequence, so the records come out in
/// [`ObjectId`] order with no sort; `slots` maps an id to its record's
/// position while the object lives.
#[derive(Debug, Default)]
pub struct DragProfiler {
    records: Vec<ObjectRecord>,
    slots: Vec<u32>,
    samples: Vec<GcSample>,
    retains: Vec<RetainRecord>,
    end_time: u64,
    metrics: Option<ProfilerMetrics>,
}

impl DragProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a profiler that publishes its event counts into `registry`.
    pub fn with_metrics(registry: &Registry) -> Self {
        DragProfiler {
            metrics: Some(ProfilerMetrics::register(registry)),
            ..Self::default()
        }
    }

    /// Consumes the profiler, yielding records, samples, and retain
    /// samples. Every record is finished once the run's exit event has
    /// been delivered; before it, a live object's record still reads
    /// `freed == created`.
    pub fn into_parts(self) -> (Vec<ObjectRecord>, Vec<GcSample>, Vec<RetainRecord>) {
        (self.records, self.samples, self.retains)
    }

    /// The live trailer of `object`, if it has one. [`NO_TRAILER`] lies
    /// past the end of `records`, so it resolves to `None` too.
    fn trailer(&mut self, object: ObjectId) -> Option<&mut ObjectRecord> {
        let pos = *self.slots.get(usize::try_from(object.0).ok()?)?;
        self.records.get_mut(pos as usize)
    }

    /// Finishes the live trailer of `object` — the single bookkeeping
    /// point both [`HeapObserver::on_free`] and the defensive exit flush
    /// go through, so every object ends up in exactly one of reclaimed /
    /// at-exit. Later events for the same id find no trailer.
    fn finish(&mut self, object: ObjectId, time: u64, at_exit: bool) {
        let Some(r) = self.trailer(object) else {
            return;
        };
        r.freed = time;
        r.at_exit = at_exit;
        self.slots[object.0 as usize] = NO_TRAILER;
        if let Some(m) = &self.metrics {
            if at_exit {
                m.at_exit.inc();
            } else {
                m.reclaimed.inc();
            }
        }
    }
}

impl HeapObserver for DragProfiler {
    fn on_alloc(&mut self, event: AllocEvent) {
        if let Some(m) = &self.metrics {
            m.created.inc();
            m.alloc_bytes.add(event.size);
            m.ev_alloc.inc();
        }
        let id = event.object.0 as usize;
        if id >= self.slots.len() {
            self.slots.resize(id + 1, NO_TRAILER);
        }
        self.slots[id] = u32::try_from(self.records.len()).expect("fewer than 2^32 objects");
        self.records.push(ObjectRecord {
            object: event.object,
            class: event.class,
            size: event.size,
            created: event.time,
            freed: event.time,
            last_use: None,
            alloc_site: event.site,
            last_use_site: None,
            at_exit: false,
        });
    }

    fn on_use(&mut self, event: UseEvent) {
        if let Some(m) = &self.metrics {
            m.ev_use[event.kind as usize].inc();
        }
        if let Some(r) = self.trailer(event.object) {
            r.last_use = Some(event.time);
            r.last_use_site = Some(event.site);
        }
    }

    fn on_free(&mut self, event: FreeEvent) {
        if let Some(m) = &self.metrics {
            m.ev_free.inc();
        }
        self.finish(event.object, event.time, event.at_exit);
    }

    fn on_deep_gc(&mut self, event: GcEvent) {
        if let Some(m) = &self.metrics {
            m.samples.inc();
            m.ev_deep_gc.inc();
        }
        self.samples.push(GcSample {
            time: event.time,
            reachable_bytes: event.reachable_bytes,
            reachable_count: event.reachable_count,
        });
    }

    fn on_retain_sample(&mut self, event: RetainEvent) {
        if let Some(m) = &self.metrics {
            m.retains.inc();
        }
        // The sampled object is alive (it survived the mark), so its
        // trailer resolves the allocation site.
        if let Some(alloc_site) = self.trailer(event.object).map(|r| r.alloc_site) {
            self.retains.push(RetainRecord {
                alloc_site,
                size: event.size,
                time: event.time,
                depth: event.path.depth,
                truncated: event.path.truncated,
                path: event.path.text,
            });
        }
    }

    fn on_exit(&mut self, time: u64) {
        self.end_time = time;
        if let Some(m) = &self.metrics {
            m.ev_exit.inc();
            m.end_time.set(i64::try_from(time).unwrap_or(i64::MAX));
        }
        // Any objects the VM did not report at exit (it normally reports
        // all survivors) are flushed defensively here.
        let leftovers: Vec<ObjectId> = (0..self.slots.len())
            .filter(|&id| self.slots[id] != NO_TRAILER)
            .map(|id| ObjectId(id as u64))
            .collect();
        for id in leftovers {
            self.finish(id, time, true);
        }
    }

    /// The trailer update is last-write-wins per object, so the fast
    /// interpreter may deliver only the final use per object per GC window
    /// — the paper's "touch the trailer once per handle", batched.
    fn use_delivery(&self) -> UseDelivery {
        UseDelivery::Coalesced
    }

    /// Retain samples are welcome whenever the VM is configured to draw
    /// them; with no [`RetainConfig`](heapdrag_vm::retain::RetainConfig)
    /// on the VM this hint alone changes nothing.
    fn retain_delivery(&self) -> RetainDelivery {
        RetainDelivery::Sample
    }
}

/// A finished profiling run: records, samples, the site table for naming,
/// and the program outcome.
#[derive(Debug)]
pub struct ProfileRun {
    /// One record per object that lived during the run.
    pub records: Vec<ObjectRecord>,
    /// Deep-GC samples, in time order.
    pub samples: Vec<GcSample>,
    /// Retaining-path samples, in draw order (empty unless the config
    /// enables sampling).
    pub retains: Vec<RetainRecord>,
    /// Site table for resolving chain ids to code locations.
    pub sites: SiteTable,
    /// The VM run outcome (program output, steps, GC statistics).
    pub outcome: RunOutcome,
}

impl ProfileRun {
    /// Streams this run's trace to `writer` in `format` — the profiler's
    /// phase-1 output path (also reachable as
    /// [`crate::Pipeline::write_to`]). The trace goes through a streaming
    /// [`crate::codec::TraceSink`], so it never materialises as one
    /// in-memory buffer.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn write_log_to<W: std::io::Write>(
        &self,
        program: &Program,
        format: crate::codec::LogFormat,
        writer: W,
    ) -> std::io::Result<u64> {
        crate::log::write_run_to(self, program, format, writer)
    }
}

/// Runs `program` under the drag profiler.
///
/// `config` is usually [`VmConfig::profiling`] (deep GC every 100 KB); the
/// deep-GC interval and site depth may be adjusted for
/// precision/overhead trade-offs, as §2.1.1 of the paper discusses.
///
/// # Errors
///
/// Propagates any [`VmError`] from the run.
pub fn profile(program: &Program, input: &[i64], config: VmConfig) -> Result<ProfileRun, VmError> {
    profile_with(program, input, config, None)
}

/// [`profile`], optionally publishing on-line metrics into `registry`:
/// the VM family (`vm_*`, via [`Vm::attach_metrics`]) and the profiler
/// family (`heapdrag_*`, `profiler_events_total{...}`, via
/// [`DragProfiler::with_metrics`]).
///
/// # Errors
///
/// Propagates any [`VmError`] from the run.
pub fn profile_with(
    program: &Program,
    input: &[i64],
    config: VmConfig,
    registry: Option<&Registry>,
) -> Result<ProfileRun, VmError> {
    let mut profiler = match registry {
        Some(r) => DragProfiler::with_metrics(r),
        None => DragProfiler::new(),
    };
    let mut vm = Vm::new(program, config);
    if let Some(r) = registry {
        vm.attach_metrics(r);
    }
    let outcome = vm.run_observed(input, &mut profiler)?;
    let (records, samples, retains) = profiler.into_parts();
    Ok(ProfileRun {
        records,
        samples,
        retains,
        sites: vm.into_sites(),
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::value::Value;

    /// A program that allocates three objects with distinct lifetimes:
    /// one used then dropped, one never used, one held to exit.
    fn lifetime_program() -> (Program, heapdrag_vm::ids::ClassId) {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("Thing")
            .field("f", Visibility::Private)
            .finish();
        let filler = b.declare_method("filler", None, true, 0, 1);
        {
            // Allocate ~120KB of garbage to force a deep GC in between.
            let mut m = b.begin_body(filler);
            m.push_int(0).store(0);
            m.label("loop");
            m.load(0).push_int(200).cmpge().branch("done");
            m.push_int(64).new_array().pop();
            m.load(0).push_int(1).add().store(0);
            m.jump("loop");
            m.label("done").ret();
            m.finish();
        }
        let holder = b.static_var("Holder.survivor", Visibility::Public, Value::Null);
        let main = b.declare_method("main", None, true, 1, 4);
        {
            let mut m = b.begin_body(main);
            // used: allocate, use, drop reference
            m.mark("used thing").new_obj(c).store(1);
            m.load(1).push_int(1).putfield(0);
            m.push_null().store(1);
            // never used: allocate, drop
            m.mark("never-used thing").new_obj(c).store(2);
            m.push_null().store(2);
            // survivor: allocate, keep reachable from a static
            m.mark("survivor").new_obj(c).store(3);
            m.load(3).putstatic(holder);
            m.call(filler);
            m.load(3).push_int(2).putfield(0);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        (b.finish().unwrap(), c)
    }

    #[test]
    fn profiler_captures_lifetimes() {
        let (p, c) = lifetime_program();
        let run = profile(&p, &[], VmConfig::profiling()).unwrap();
        let things: Vec<_> = run.records.iter().filter(|r| r.class == c).collect();
        assert_eq!(things.len(), 3);
        let used = &things[0];
        let never = &things[1];
        let survivor = &things[2];
        assert!(used.last_use.is_some());
        assert!(used.freed < run.outcome.end_time);
        assert!(never.is_never_used(0));
        assert!(survivor.at_exit);
        assert_eq!(survivor.freed, run.outcome.end_time);
        assert!(survivor.last_use.is_some());
    }

    #[test]
    fn samples_are_taken_every_interval() {
        let (p, _) = lifetime_program();
        let run = profile(&p, &[], VmConfig::profiling()).unwrap();
        // ~205 KB of allocation at 100 KB interval → at least the exit
        // sample plus one periodic sample.
        assert!(run.samples.len() >= 2, "got {} samples", run.samples.len());
        assert!(run.samples.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn smaller_interval_more_samples() {
        let (p, _) = lifetime_program();
        let coarse = profile(&p, &[], VmConfig::profiling()).unwrap();
        let mut fine_cfg = VmConfig::profiling();
        fine_cfg.deep_gc_interval = Some(25 * 1024);
        let fine = profile(&p, &[], fine_cfg).unwrap();
        assert!(fine.samples.len() > coarse.samples.len());
    }

    #[test]
    fn metrics_reconcile_with_collected_records() {
        let (p, _) = lifetime_program();
        let registry = Registry::new();
        let run = profile_with(&p, &[], VmConfig::profiling(), Some(&registry)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["heapdrag_objects_created_total"],
            run.records.len() as u64
        );
        assert_eq!(
            snap.counters["heapdrag_alloc_bytes_total"],
            run.records.iter().map(|r| r.size).sum::<u64>()
        );
        let at_exit = run.records.iter().filter(|r| r.at_exit).count() as u64;
        assert_eq!(snap.counters["heapdrag_objects_at_exit_total"], at_exit);
        assert_eq!(
            snap.counters["heapdrag_objects_reclaimed_total"],
            run.records.len() as u64 - at_exit
        );
        assert_eq!(
            snap.counters["heapdrag_deep_gc_samples_total"],
            run.samples.len() as u64
        );
        assert_eq!(
            snap.gauges["heapdrag_end_time_bytes"],
            run.outcome.end_time as i64
        );
        // VM-side counters agree with the outcome too.
        let dispatch_total: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("vm_dispatch_total{"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(dispatch_total, run.outcome.steps);
        assert_eq!(snap.counters["vm_deep_gc_total"], run.outcome.deep_gcs);
        assert_eq!(
            snap.counters["vm_heap_alloc_bytes_total"],
            run.outcome.heap.allocated_bytes
        );
    }

    /// Drives a profiler by hand with events the VM never sends: ids
    /// with gaps (pinned objects take ids too), uses, frees and retains
    /// of unknown and already-freed ids, and a survivor the VM forgot to
    /// report at exit.
    #[test]
    fn events_for_unknown_or_freed_objects_are_ignored() {
        use heapdrag_vm::ids::{ChainId, ClassId};
        use heapdrag_vm::retain::RetainPath;

        let registry = Registry::new();
        let mut p = DragProfiler::with_metrics(&registry);
        let (class, site) = (ClassId(1), ChainId(2));
        for (id, time) in [(0, 16), (2, 32), (3, 48), (7, 64)] {
            p.on_alloc(AllocEvent::new(ObjectId(id), class, 16, time, site));
        }
        let used = |id, time| UseEvent::new(ObjectId(id), UseKind::GetField, time, ChainId(9));
        let retain =
            |id| RetainEvent::new(ObjectId(id), 16, 80, RetainPath::new("static S", 0, false));
        p.on_use(used(2, 40));
        p.on_free(FreeEvent::new(ObjectId(2), 70));
        p.on_free(FreeEvent::new(ObjectId(0), 72));
        // Already freed, never allocated (inside and past the table), and
        // a pinned object's id.
        for id in [2, 0, 5, 1, 1000, u64::MAX] {
            p.on_use(used(id, 75));
            p.on_free(FreeEvent::new(ObjectId(id), 76));
            p.on_retain_sample(retain(id));
        }
        p.on_retain_sample(retain(3));
        p.on_free(FreeEvent::new(ObjectId(3), 90).with_at_exit(true));
        p.on_exit(90);
        p.on_use(used(7, 95));
        p.on_free(FreeEvent::new(ObjectId(7), 96));

        let (records, _, retains) = p.into_parts();
        let ids: Vec<u64> = records.iter().map(|r| r.object.0).collect();
        assert_eq!(ids, [0, 2, 3, 7], "one record per object, in id order");
        let by_id = |id| records.iter().find(|r| r.object.0 == id).unwrap();
        assert_eq!(
            (by_id(0).freed, by_id(0).last_use, by_id(0).at_exit),
            (72, None, false)
        );
        assert_eq!((by_id(2).freed, by_id(2).last_use), (70, Some(40)));
        assert_eq!(by_id(2).last_use_site, Some(ChainId(9)));
        assert_eq!((by_id(3).freed, by_id(3).at_exit), (90, true));
        assert_eq!(
            (by_id(7).freed, by_id(7).last_use, by_id(7).at_exit),
            (90, None, true)
        );
        assert_eq!(retains.len(), 1, "only the live object's sample is kept");
        assert_eq!(retains[0].alloc_site, site);

        let snap = registry.snapshot();
        assert_eq!(snap.counters["heapdrag_objects_created_total"], 4);
        assert_eq!(snap.counters["heapdrag_objects_reclaimed_total"], 2);
        assert_eq!(snap.counters["heapdrag_objects_at_exit_total"], 2);
    }

    #[test]
    fn drag_identity_over_all_records() {
        let (p, _) = lifetime_program();
        let run = profile(&p, &[], VmConfig::profiling()).unwrap();
        for r in &run.records {
            assert_eq!(r.reachable_product(), r.in_use_product() + r.drag());
            assert!(r.created <= r.freed);
            if let Some(u) = r.last_use {
                assert!(u >= r.created && u <= r.freed);
            }
        }
    }
}
