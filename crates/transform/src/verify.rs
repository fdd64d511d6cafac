//! Behavioural-equivalence checking of original vs. revised programs — the
//! paper "checked that the original and revised benchmarks produce
//! identical results on several inputs" (§3.2); so do we, mechanically.
//!
//! A transactional optimizer verifies many candidates against one
//! unchanged original, so each thread remembers the outputs of the last
//! original it ran: under [`VmConfig::default`] (no deep GC, no retain
//! sampler) the VM is deterministic and a program's output is a pure
//! function of (program, input). The memo is keyed by program *equality*,
//! not address, and holds one program at a time.

use std::cell::RefCell;

use heapdrag_vm::error::VmError;
use heapdrag_vm::interp::{Vm, VmConfig};
use heapdrag_vm::program::Program;

/// The result of comparing two programs on one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// Identical printed output.
    Same,
    /// Outputs diverged.
    Different {
        /// The input that exposed the difference.
        input: Vec<i64>,
        /// Output of the original program.
        original: Vec<i64>,
        /// Output of the revised program.
        revised: Vec<i64>,
    },
}

/// The last original program this thread verified against, with its
/// printed output on each input it ran to completion.
struct OriginalOutputs {
    program: Program,
    outputs: Vec<(Vec<i64>, Vec<i64>)>,
}

thread_local! {
    static ORIGINAL_OUTPUTS: RefCell<Option<OriginalOutputs>> = const { RefCell::new(None) };
}

/// Runs both programs on every input and compares printed outputs.
///
/// Inputs are visited in order: the original's output, then the revised
/// run, then the comparison. The original's output on an input is
/// computed once per thread while `original` stays the same program;
/// errors are never remembered.
///
/// # Errors
///
/// Propagates the first [`VmError`] from either program — a revised
/// program that crashes where the original didn't is a transformation bug
/// and surfaces here as an error rather than a silent mismatch.
pub fn check_equivalence(
    original: &Program,
    revised: &Program,
    inputs: &[Vec<i64>],
) -> Result<Equivalence, VmError> {
    ORIGINAL_OUTPUTS.with(|memo| {
        let mut memo = memo.borrow_mut();
        if memo.as_ref().is_none_or(|m| m.program != *original) {
            *memo = Some(OriginalOutputs {
                program: original.clone(),
                outputs: Vec::new(),
            });
        }
        let outputs = &mut memo.as_mut().expect("memo set above").outputs;
        for input in inputs {
            let at = match outputs.iter().position(|(i, _)| i == input) {
                Some(at) => at,
                None => {
                    let o = Vm::new(original, VmConfig::default()).run(input)?;
                    outputs.push((input.clone(), o.output));
                    outputs.len() - 1
                }
            };
            let original_output = &outputs[at].1;
            let r = Vm::new(revised, VmConfig::default()).run(input)?;
            if *original_output != r.output {
                return Ok(Equivalence::Different {
                    input: input.clone(),
                    original: original_output.clone(),
                    revised: r.output,
                });
            }
        }
        Ok(Equivalence::Same)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;

    fn echo_program(offset: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.load(0).push_int(0).aload().push_int(offset).add().print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn same_programs_are_equivalent() {
        let a = echo_program(1);
        let b = echo_program(1);
        let r = check_equivalence(&a, &b, &[vec![5], vec![9]]).unwrap();
        assert_eq!(r, Equivalence::Same);
    }

    #[test]
    fn divergence_reports_the_input() {
        let a = echo_program(1);
        let b = echo_program(2);
        let r = check_equivalence(&a, &b, &[vec![5]]).unwrap();
        match r {
            Equivalence::Different {
                input,
                original,
                revised,
            } => {
                assert_eq!(input, vec![5]);
                assert_eq!(original, vec![6]);
                assert_eq!(revised, vec![7]);
            }
            Equivalence::Same => panic!("must differ"),
        }
    }

    /// `main(n)` prints `n / divisor` — a zero divisor throws an uncaught
    /// `ArithmeticException`.
    fn divide_program(divisor: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.load(0).push_int(0).aload().push_int(divisor).div().print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn alternating_originals_are_each_judged_against_their_own_output() {
        let revised = echo_program(1);
        for round in 0..6 {
            // A fresh stack local each round: the two originals can share
            // an address, and they share the input too.
            let offset = 1 + round % 2;
            let original = echo_program(offset);
            let verdict = check_equivalence(&original, &revised, &[vec![5]]).unwrap();
            let expected = if offset == 1 {
                Equivalence::Same
            } else {
                Equivalence::Different {
                    input: vec![5],
                    original: vec![7],
                    revised: vec![6],
                }
            };
            assert_eq!(verdict, expected, "round {round}");
        }
    }

    #[test]
    fn a_failing_original_fails_on_every_call() {
        let original = divide_program(0);
        let revised = divide_program(1);
        let first = check_equivalence(&original, &revised, &[vec![5]]).unwrap_err();
        assert!(
            matches!(first, VmError::UncaughtException { .. }),
            "{first:?}"
        );
        for _ in 0..3 {
            assert_eq!(
                check_equivalence(&original, &revised, &[vec![5]]),
                Err(first.clone())
            );
        }
    }
}
