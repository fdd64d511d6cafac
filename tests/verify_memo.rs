//! The verify gate remembers each thread's last original program and its
//! outputs. That memo must never change a verdict: on random programs
//! from `heapdrag_testkit::genprog`, any sequence of `check_equivalence`
//! calls that reuses and switches originals, candidates and inputs must
//! return exactly what running both programs on every input returns.
//! Replay a failure with `TESTKIT_SEED=<seed> TESTKIT_CASES=1`.

use heapdrag::transform::{check_equivalence, Equivalence};
use heapdrag::vm::{Program, Vm, VmConfig, VmError};
use heapdrag_testkit::{check, random_program, Rng};

/// The gate without a memo: both programs run on every input, in order.
fn unmemoized(
    original: &Program,
    revised: &Program,
    inputs: &[Vec<i64>],
) -> Result<Equivalence, VmError> {
    for input in inputs {
        let o = Vm::new(original, VmConfig::default()).run(input)?;
        let r = Vm::new(revised, VmConfig::default()).run(input)?;
        if o.output != r.output {
            return Ok(Equivalence::Different {
                input: input.clone(),
                original: o.output,
                revised: r.output,
            });
        }
    }
    Ok(Equivalence::Same)
}

fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> &'a T {
    &items[rng.range_usize(0, items.len())]
}

#[test]
fn memoized_verdicts_equal_the_unmemoized_gate() {
    check("verify memo", 24, |rng: &mut Rng| {
        let mut programs = Vec::new();
        let mut inputs = Vec::new();
        for _ in 0..3 {
            let (program, input) = random_program(rng);
            programs.push(program);
            inputs.push(input);
        }
        // An input no program was generated for: some programs index
        // past it and fail, which exercises the error path.
        inputs.push(vec![rng.range_i64(-3, 4)]);
        for call in 0..12 {
            let original = pick(rng, &programs).clone();
            let revised = if rng.bool() {
                original.clone()
            } else {
                pick(rng, &programs).clone()
            };
            let chosen: Vec<Vec<i64>> = (0..rng.range_usize(1, 4))
                .map(|_| pick(rng, &inputs).clone())
                .collect();
            assert_eq!(
                check_equivalence(&original, &revised, &chosen),
                unmemoized(&original, &revised, &chosen),
                "call {call}"
            );
        }
    });
}
