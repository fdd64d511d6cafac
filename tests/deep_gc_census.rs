//! A deep GC with no finalizer in the program is one census collection.
//!
//! A program that declares a finalizer runs "collect, run finalizers,
//! census". Without one the first collection would mark the same set
//! from the same roots, so the census alone must produce the same trace.
//! This suite pins that: every workload is profiled as is and with one
//! never-instantiated finalizable class appended (which forces the
//! two-collection path without changing what the program does), and the
//! two logs must be byte-identical in both formats, with retain sampling
//! off and on.

use heapdrag::core::{profile, LogFormat, Pipeline, ProfileRun, VmConfig};
use heapdrag::vm::class::{ClassDef, Method};
use heapdrag::vm::ids::{ClassId, MethodId};
use heapdrag::vm::insn::Insn;
use heapdrag::vm::program::Program;
use heapdrag::vm::retain::RetainConfig;
use heapdrag::workloads::all_workloads;

/// `program` plus one finalizable class nobody instantiates. The class
/// and its finalizer go last, so no existing class or method id moves.
fn with_unused_finalizer(program: &Program) -> Program {
    let mut p = program.clone();
    let class = ClassId(p.classes.len() as u32);
    let method = MethodId(p.methods.len() as u32);
    let mut finalize = Method::new("finalize", 1, 1);
    finalize.is_static = false;
    finalize.class = Some(class);
    finalize.code = vec![Insn::Ret];
    p.methods.push(finalize);
    let mut def = ClassDef::new("CensusProbe");
    def.super_class = Some(p.builtins.object);
    def.finalizer = Some(method);
    p.classes.push(def);
    p.link().expect("appended class links");
    assert!(p.has_finalizers());
    p
}

fn encode(run: &ProfileRun, program: &Program, format: LogFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    Pipeline::options()
        .format(format)
        .write_to(run, program, &mut buf)
        .expect("write to a Vec");
    buf
}

#[test]
fn census_only_deep_gc_writes_the_same_log_as_collect_finalize_census() {
    let mut sampled = 0;
    for w in all_workloads() {
        let original = w.original();
        assert!(
            !original.has_finalizers(),
            "{} declares a finalizer",
            w.name
        );
        let augmented = with_unused_finalizer(&original);
        for (input_name, input) in [
            ("default", (w.default_input)()),
            ("alternate", (w.alternate_input)()),
        ] {
            for retain in [None, RetainConfig::from_rate(RetainConfig::DEFAULT_RATE)] {
                let ctx = format!("{} {input_name} retain={}", w.name, retain.is_some());
                let config = VmConfig {
                    retain,
                    ..VmConfig::profiling()
                };
                let plain = profile(&original, &input, config.clone()).expect("profile original");
                let probed = profile(&augmented, &input, config).expect("profile augmented");

                let deep = plain.outcome.deep_gcs;
                assert!(deep > 0, "{ctx}: no deep GC ran");
                assert_eq!(
                    plain.outcome.heap.full_collections, deep,
                    "{ctx}: one collection per deep GC"
                );
                assert_eq!(probed.outcome.deep_gcs, deep, "{ctx}");
                assert_eq!(
                    probed.outcome.heap.full_collections,
                    2 * deep,
                    "{ctx}: a declared finalizer keeps the pre-collection"
                );
                sampled += plain.retains.len();
                for format in [LogFormat::Text, LogFormat::Binary] {
                    assert!(
                        encode(&plain, &original, format) == encode(&probed, &augmented, format),
                        "{ctx} {format:?}: logs differ"
                    );
                }
            }
        }
    }
    assert!(sampled > 0, "retain sampling drew nothing on any run");
}
