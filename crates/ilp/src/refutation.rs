//! Infeasibility proofs that outlive a right-hand side.
//!
//! A nonnegative combination of a problem's rows whose left-hand side
//! stays above its right-hand side over the whole variable box proves
//! the problem infeasible. Only the combined right-hand side reads `b`,
//! so the same combination refutes every right-hand side under which it
//! stays below the box minimum of its left-hand side. A caller that
//! moves nothing but right-hand sides — a rate search, whose budgets
//! only tighten as the rate grows — reads a verdict off it without a
//! solve.
//!
//! One source builds one: a side row's floor over the closure relaxation
//! ([`row_floor_in`](crate::row_floor_in)), which is the row itself plus
//! each difference row weighted by the max flow it carries in the
//! min-cut that minimises the row's left-hand side. That combination's
//! box minimum is the floor, so where the floor is above the row's
//! right-hand side, every placement breaks the row.
//!
//! The certificate is checked, not trusted: [`Refutation::refutes`] is
//! plain arithmetic over the problem's own rows and bounds, so a
//! multiplier vector a max flow got slightly wrong can only fail to
//! refute, never refute a feasible problem.

use crate::num::is_exact_zero;
use crate::problem::{Problem, Sense};

/// The loosest row tolerance under which the search accepts a point (a
/// seed or a rounded node point is adopted when
/// `Problem::is_feasible(_, 1e-6)`). A refutation
/// must clear the box minimum by this much per unit of multiplier, so no
/// point it refutes could pass that check either.
const MARGIN: f64 = 1e-6;

/// A nonnegative combination of a problem's rows that no point of its
/// variable box satisfies: `Σ wᵢ·(row i)` with `wᵢ ≥ 0` on a `≤` row,
/// `wᵢ ≤ 0` on a `≥` row (its `≤`-form multiplier is `−wᵢ`) and any sign
/// on an equality. Every feasible point has `Σ wᵢ aᵢx ≤ Σ wᵢ bᵢ`; the
/// combination refutes `b` when the left side's minimum over the box
/// exceeds the right side by more than the search's row tolerance.
///
/// It belongs to the constraint matrix and the variable bounds it was
/// built from: after either changes it proves nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Refutation {
    /// `(row, wᵢ)`, the rows with a nonzero multiplier.
    rows: Vec<(usize, f64)>,
    /// `min Σ wᵢ aᵢx` over the problem's own bounds.
    box_min: f64,
    /// `Σ |wᵢ|`: the `≤`-form multipliers' total, which scales the margin.
    weight: f64,
}

impl Refutation {
    /// The combination `Σ ρᵢ·(row i)` of `problem`'s rows, `ρ` given
    /// sparse as `(row, ρᵢ)`, whether or not it refutes anything. A
    /// multiplier of the wrong sign for its row's sense (roundoff) is
    /// dropped: any nonnegative combination is valid, so this only costs
    /// strength. The box is the problem's own, never a presolved or
    /// branched one, so the proof holds for every point the caller could
    /// hand the search.
    pub(crate) fn combine(
        problem: &Problem,
        rho: impl Iterator<Item = (usize, f64)>,
    ) -> Refutation {
        let mut rows = Vec::new();
        let mut combined = vec![0.0f64; problem.num_vars()];
        for (i, r) in rho {
            let row = problem.constraint(i);
            let w = match row.sense {
                Sense::Le => r.max(0.0),
                Sense::Ge => r.min(0.0),
                Sense::Eq => r,
            };
            if is_exact_zero(w) {
                continue;
            }
            for &(v, a) in &row.terms {
                combined[v.0] += w * a;
            }
            rows.push((i, w));
        }
        let box_min = combined
            .iter()
            .zip(problem.lower_bounds().iter().zip(problem.upper_bounds()))
            .map(|(&c, (&lo, &up))| {
                if c > 0.0 {
                    c * lo
                } else if c < 0.0 {
                    c * up
                } else {
                    0.0
                }
            })
            .sum();
        let weight = rows.iter().map(|&(_, w)| w.abs()).sum();
        Refutation {
            rows,
            box_min,
            weight,
        }
    }

    /// Does the combination refute the same matrix and bounds under the
    /// right-hand sides `rhs(row)`? True when `Σ wᵢ·rhs(i)` stays below
    /// the box minimum by more than `1e-6 · Σ |wᵢ|`: then no point of the
    /// box holds every row even to within the search's row tolerance.
    pub fn refutes(&self, rhs: impl Fn(usize) -> f64) -> bool {
        let combined: f64 = self.rows.iter().map(|&(i, w)| w * rhs(i)).sum();
        self.box_min > combined + MARGIN * self.weight
    }

    /// The rows with a nonzero multiplier, `(row, wᵢ)`.
    pub fn rows(&self) -> &[(usize, f64)] {
        &self.rows
    }

    /// The minimum of `Σ wᵢ aᵢx` over the problem's variable bounds.
    pub fn box_min(&self) -> f64 {
        self.box_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x + y ≤ 1` and `x + y ≥ 2` over `[0, 1]²`: the two rows with
    /// weights 1 and −1 read `0 ≤ −1`.
    fn contradiction() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 0.0, false);
        let y = p.add_var(0.0, 1.0, 0.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
        p
    }

    #[test]
    fn a_row_combination_refutes_exactly_the_right_hand_sides_it_clears() {
        let p = contradiction();
        let r = Refutation::combine(&p, [(0, 1.0), (1, -1.0)].into_iter());
        assert_eq!(r.rows(), &[(0, 1.0), (1, -1.0)]);
        assert!(r.box_min().abs() < 1e-15);
        // Σ w·b = b₀ − b₁ must stay below −2e-6 (the margin over Σ|w| = 2).
        let at = |b0: f64, b1: f64| r.refutes(|i| if i == 0 { b0 } else { b1 });
        assert!(at(1.0, 2.0));
        assert!(at(1.999_99, 2.0));
        assert!(!at(2.0, 2.0), "x + y = 2 is feasible");
        assert!(!at(2.0 - 1e-6, 2.0), "feasible within the row tolerance");
    }

    #[test]
    fn a_wrong_signed_multiplier_is_dropped_and_an_unbounded_direction_refutes_nothing() {
        let p = contradiction();
        // `−1` on the `≤` row is not a valid multiplier: dropped, the `≥`
        // row alone (`−x − y ≤ −2`) is refuted by nothing in the box.
        let r = Refutation::combine(&p, [(0, -1.0), (1, -1.0)].into_iter());
        assert_eq!(r.rows(), &[(1, -1.0)]);
        assert!(!r.refutes(|i| p.constraint(i).rhs));
        // `−x ≤ −1` has no minimum over `x ∈ [0, ∞)`.
        let mut q = Problem::new();
        let x = q.add_var(0.0, f64::INFINITY, 0.0, false);
        q.add_constraint(&[(x, 1.0)], Sense::Ge, 1.0);
        let r = Refutation::combine(&q, [(0, -1.0)].into_iter());
        assert_eq!(r.box_min(), f64::NEG_INFINITY);
        assert!(!r.refutes(|i| q.constraint(i).rhs));
    }
}
