//! CPU time at a reference speed, for figures that hold still on a
//! shared host.
//!
//! Wall-clock time on a virtual machine includes the time the host gives
//! the machine's CPUs to its neighbours; the scheduler's runtime leaves
//! that out, so the end-to-end metrics are process CPU time. CPU time
//! itself still swings by a third between runs minutes apart, as
//! neighbours on sibling hardware threads and shared caches come and go.
//! A [`Calibration`] loop, a small bytecode dispatcher with the
//! interpreter's mix of branches, ALU work and loads, runs between
//! operations; every CPU time is scaled to the speed at which that loop
//! takes [`REFERENCE_MS`]. Raw CPU and wall-clock figures are printed
//! beside the scaled ones.

use std::time::{Duration, Instant};

use crate::corpus::Rng;
use crate::stats::quantile;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("heapbench reads CPU time through 64-bit Linux's clock_gettime");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process,
/// including threads that have exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, in nanoseconds.
pub fn process_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call and
    // clock_gettime writes nothing else; the clock id is a constant the
    // kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of one calibration sample at the reference speed; the loop
/// takes about this long on an unloaded 2-core host.
pub const REFERENCE_MS: f64 = 1.0;

/// Dispatches per calibration sample.
const STEPS: usize = 75_000;

/// Wall time between calibration samples.
const INTERVAL: Duration = Duration::from_millis(50);

/// The calibration loop and the CPU time of each of its samples.
pub struct Calibration {
    code: Vec<u8>,
    data: Vec<u64>,
    samples_ns: Vec<u64>,
    last: Instant,
}

impl Calibration {
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5eed);
        Calibration {
            code: (0..4096).map(|_| (rng.next_u64() % 8) as u8).collect(),
            data: (0..1u64 << 15).collect(),
            samples_ns: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Runs the loop once and records its CPU time.
    pub fn sample(&mut self) {
        let c0 = process_ns();
        let (mut a, mut b, mut pc) = (1u64, 2u64, 0usize);
        let mask = self.data.len() - 1;
        for _ in 0..STEPS {
            match self.code[pc] {
                0 => a = a.wrapping_add(b),
                1 => b ^= a.rotate_left(7),
                2 => a = self.data[a as usize & mask].wrapping_add(b),
                3 => self.data[b as usize & mask] = a,
                4 if a & 1 == 0 => b = b.wrapping_mul(3),
                4 => a = a.wrapping_sub(1),
                5 => a = a.wrapping_mul(0x9E37_79B9),
                6 => b = b.wrapping_add(pc as u64),
                _ => pc = (pc + (a as usize & 15)) & 4095,
            }
            pc = (pc + 1) & 4095;
        }
        std::hint::black_box((a, b));
        self.samples_ns.push(process_ns() - c0);
        self.last = Instant::now();
    }

    /// Takes `n` samples now and returns their median CPU milliseconds.
    pub fn burst(&mut self, n: usize) -> f64 {
        let start = self.samples_ns.len();
        for _ in 0..n {
            self.sample();
        }
        quantile(
            self.samples_ns[start..]
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect(),
            0.5,
        )
    }

    /// Samples when [`INTERVAL`] has passed since the last sample; call
    /// between operations, while no other benchmark thread works.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }

    /// Median CPU milliseconds of one sample.
    pub fn median_ms(&self) -> f64 {
        self.median_ms_of(0..self.samples_ns.len())
    }

    fn median_ms_of(&self, samples: std::ops::Range<usize>) -> f64 {
        quantile(
            self.samples_ns[samples]
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect(),
            0.5,
        )
    }

    /// Factor taking CPU time measured in this run to the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }

    /// [`scale`](Self::scale) from the samples taken since sample `start`
    /// only, for comparing two parts of one run.
    pub fn scale_since(&self, start: usize) -> f64 {
        REFERENCE_MS / self.median_ms_of(start..self.samples_ns.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_ns() > t0);
    }

    #[test]
    fn calibration_scale_is_positive() {
        let mut cal = Calibration::new();
        cal.sample();
        cal.sample();
        assert_eq!(cal.samples(), 2);
        assert!(cal.scale() > 0.0 && cal.scale().is_finite());
    }
}
