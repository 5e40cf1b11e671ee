//! Deterministic benchmark/stress instance generators.
//!
//! Shared by `tests/stress_ilp.rs` and `tests/solver_guards.rs` so the
//! "972-constraint chain" both of them talk about is provably the *same*
//! instance family — tuning the generator in one place keeps the stress
//! suite and the backend-parity guard checking the same thing.

use crate::problem::{Problem, Sense};

/// A single-crossing chain partitioning ILP of `n` vertices with
/// pseudo-random (deterministic, xorshift-seeded) reducing bandwidths
/// and CPU costs, mirroring the structure `wishbone-core` emits:
/// `n − 1` precedence rows `f_u − f_v ≥ 0` (2 nonzeros each) plus one
/// dense CPU budget row — `n` constraints total.
pub fn chain_ilp(n: usize, budget: f64) -> Problem {
    let mut p = Problem::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let bw: Vec<f64> = (0..n)
        .map(|i| 1000.0 * 0.9f64.powi(i as i32) + next() * 10.0)
        .collect();
    let cpu: Vec<f64> = (0..n).map(|_| 0.002 + 0.01 * next()).collect();

    let vars: Vec<_> = (0..n)
        .map(|i| {
            // Objective = cut bandwidth expansion: out_bw - in_bw per vertex.
            let out = bw[i];
            let inb = if i == 0 { 0.0 } else { bw[i - 1] };
            let (lo, hi) = if i == 0 { (1.0, 1.0) } else { (0.0, 1.0) };
            p.add_var(lo, hi, out - inb, true)
        })
        .collect();
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
    }
    let cpu_row: Vec<_> = vars.iter().zip(&cpu).map(|(&v, &c)| (v, c)).collect();
    p.add_constraint(&cpu_row, Sense::Le, budget);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape_is_as_documented() {
        let p = chain_ilp(50, 1.0);
        assert_eq!(p.num_vars(), 50);
        assert_eq!(p.num_constraints(), 50);
        // First vertex (the source) is pinned to the node.
        assert_eq!(p.lower_bounds()[0], 1.0);
        assert_eq!(p.upper_bounds()[0], 1.0);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = chain_ilp(20, 0.5);
        let b = chain_ilp(20, 0.5);
        assert_eq!(a.lower_bounds(), b.lower_bounds());
        let ones = vec![1.0; 20];
        assert!((a.objective_value(&ones) - b.objective_value(&ones)).abs() < 1e-12);
    }
}
