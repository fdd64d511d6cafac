//! Assembler/disassembler round-trips over the real benchmark programs:
//! the textual form of every workload must reassemble into a program with
//! identical behaviour.

use heapdrag::vm::asm::assemble;
use heapdrag::vm::disasm::disassemble;
use heapdrag::vm::{Vm, VmConfig};
use heapdrag::workloads::all_workloads;

#[test]
fn every_workload_roundtrips_through_assembly() {
    for w in all_workloads() {
        let original = w.original();
        let text = disassemble(&original);
        let reassembled = assemble(&text)
            .unwrap_or_else(|e| panic!("{}: reassembly failed: {e}", w.name));
        let input = (w.default_input)();
        let out1 = Vm::new(&original, VmConfig::default())
            .run(&input)
            .expect("original runs");
        let out2 = Vm::new(&reassembled, VmConfig::default())
            .run(&input)
            .expect("reassembled runs");
        assert_eq!(out1.output, out2.output, "{}", w.name);
        assert_eq!(
            out1.heap.allocated_bytes, out2.heap.allocated_bytes,
            "{}: same allocation behaviour",
            w.name
        );
    }
}

#[test]
fn disassembly_is_stable() {
    // Disassembling the reassembled program gives the same text (a fixed
    // point after one round).
    let w = heapdrag::workloads::workload_by_name("jess").unwrap();
    let p1 = w.original();
    let t1 = disassemble(&p1);
    let p2 = assemble(&t1).expect("assembles");
    let t2 = disassemble(&p2);
    assert_eq!(t1, t2);
}

/// `examples/dragged.hdasm` with its 1-based line `line` replaced by
/// `with` (or, when `insert` is set, with `with` inserted before it).
fn mutate_example(line: usize, with: &str, insert: bool) -> String {
    let source = include_str!("../examples/dragged.hdasm");
    let mut lines: Vec<&str> = source.lines().collect();
    if insert {
        lines.insert(line - 1, with);
    } else {
        lines[line - 1] = with;
    }
    lines.join("\n")
}

#[test]
fn a_jump_to_an_unplaced_label_is_a_typed_error_at_the_jump() {
    let source = mutate_example(39, "  jump nowhere", false);
    let e = assemble(&source).expect_err("the label is never placed");
    assert_eq!(e.line, 39, "{e}");
    assert_eq!(
        e.to_string(),
        "line 39: label `nowhere` referenced but never placed"
    );
}

#[test]
fn a_label_placed_twice_is_a_typed_error_at_the_second_placement() {
    let source = mutate_example(40, "loop:", true);
    let e = assemble(&source).expect_err("the label is placed twice");
    assert_eq!(e.line, 40, "{e}");
    assert_eq!(e.to_string(), "line 40: label `loop` placed twice");
}
