//! Host-normalised time.
//!
//! On a small shared VM the same binary runs 15–40% faster or slower from
//! one second to the next, which is wider than any regression bound worth
//! having. A fixed calibration kernel runs before and after every measured
//! chunk, and every timing of that chunk is scaled by
//! `CALIB_NOMINAL_NS / measured`. A normalised time is "what this would
//! have taken on a host where the kernel takes exactly
//! `CALIB_NOMINAL_NS`"; raw times are kept as `harness.*` layer metrics.
//!
//! The kernel is a sparse matrix–vector product — indirect loads feeding
//! multiply-adds, the instruction mix of a simplex pivot or a graph walk —
//! over ~40 KB, so it stays in the first-level cache and measures the
//! core's throughput as shared with whatever runs on its sibling thread.
//! That is what moves on this class of host: over 40 fifteen-second
//! windows the median op of three workloads spread 10–13% raw and 3.5–5%
//! scaled by this kernel, against 7–9% scaled by a dependent
//! floating-point chain and *worse than raw* scaled by a pointer chase
//! over 1 MB (which follows the neighbours' cache traffic, not ours). The
//! README keeps the table.

use std::hint::black_box;
use std::time::Instant;

use crate::fixtures::Rng;

/// Matrix rows, non-zeros per row, and products per kernel run.
const ROWS: usize = 1024;
const NNZ_PER_ROW: usize = 2;
const REPS: usize = 256;
/// Kernel runs per measurement; the median is reported, so a run that is
/// preempted outright does not poison the chunk it brackets.
const RUNS: usize = 5;

/// The kernel's duration, nanoseconds, on the defining host (2 vCPU
/// shared VM; see the README's provenance section). A constant: changing
/// it rescales every normalised time, so it changes only together with a
/// re-measured baseline.
pub const CALIB_NOMINAL_NS: f64 = 390_000.0;

/// The calibration kernel and the measurements taken with it.
pub struct Calibrator {
    idx: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    /// Every measurement taken, nanoseconds (for `harness.calib_*`).
    pub history_ns: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut rng = Rng::new(0x00ca_11b8);
        let nnz = ROWS * NNZ_PER_ROW;
        Calibrator {
            idx: (0..nnz).map(|_| rng.pick(ROWS) as u32).collect(),
            vals: (0..nnz).map(|_| rng.pick(1024) as f64 / 1024.0).collect(),
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
            history_ns: Vec::new(),
        }
    }

    fn kernel(&mut self) -> f64 {
        let mut sum = 0.0;
        for _ in 0..REPS {
            for (r, yr) in self.y.iter_mut().enumerate() {
                let mut acc = 0.0;
                for k in r * NNZ_PER_ROW..(r + 1) * NNZ_PER_ROW {
                    acc += self.vals[k] * self.x[self.idx[k] as usize];
                }
                *yr = acc * 0.5 + *yr * 0.25;
                sum += *yr;
            }
        }
        sum
    }

    /// One measurement: the median of [`RUNS`] kernel runs, nanoseconds.
    pub fn measure(&mut self) -> f64 {
        let mut runs = [0.0f64; RUNS];
        for r in &mut runs {
            let t = Instant::now();
            black_box(self.kernel());
            *r = t.elapsed().as_nanos() as f64;
        }
        runs.sort_by(f64::total_cmp);
        let m = runs[RUNS / 2];
        self.history_ns.push(m);
        m
    }
}

/// The factor that turns a raw duration into a host-normalised one, from
/// the calibration measurements taken before and after it.
pub fn scale(before_ns: f64, after_ns: f64) -> f64 {
    CALIB_NOMINAL_NS / (0.5 * (before_ns + after_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_twice_as_slow_halves_every_timing() {
        let s = scale(2.0 * CALIB_NOMINAL_NS, 2.0 * CALIB_NOMINAL_NS);
        assert!((s - 0.5).abs() < 1e-12);
        assert!((100.0 * s - 50.0).abs() < 1e-9);
    }

    #[test]
    fn the_nominal_host_leaves_timings_alone() {
        assert_eq!(scale(CALIB_NOMINAL_NS, CALIB_NOMINAL_NS), 1.0);
    }

    #[test]
    fn before_and_after_are_averaged() {
        let s = scale(0.5 * CALIB_NOMINAL_NS, 1.5 * CALIB_NOMINAL_NS);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_is_deterministic_and_stays_finite() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        let first = a.kernel();
        assert_eq!(first, b.kernel());
        // `y` carries over between runs and must settle, not blow up.
        for _ in 0..20 {
            a.kernel();
        }
        assert!(a.kernel().is_finite());
    }
}
