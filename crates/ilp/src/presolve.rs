//! Presolve: bound propagation and fast infeasibility detection.
//!
//! Before the root LP is ever built, propagate variable bounds through the
//! constraint rows: a row whose minimum activity already exceeds its
//! right-hand side proves the whole problem infeasible with zero simplex
//! iterations, and implied bounds (tightened, then rounded to integrality)
//! shrink the search box and fix implied-integral variables outright.
//!
//! This is what lets Wishbone's rate sweep fail *fast* at overload rates:
//! with every source pinned to the node (`f = 1` bounds), the CPU row's
//! minimum activity is the pinned-vertex CPU sum — once that crosses the
//! budget, infeasibility is a single arithmetic pass, not a
//! branch-and-bound tree (the paper's 2100-solve Fig 6 sweep spends most
//! of its worst-case time exactly here).
//!
//! A pass costs one activity sweep per row plus, for the rows that can
//! still tighten something, a division and a rounding per term. A row
//! whose slack `b − min activity` exceeds its largest term swing
//! `|a_j|·(u_j − l_j)` — less half the least improvement a bound must
//! make to count, since a precedence row `f_u − f_v ≥ 0` over binaries
//! sits exactly at that tie — by more than the roundoff of the row's
//! magnitudes implies no bound its variables do not already have, so its
//! per-term step is skipped — exactly: debug builds run the step anyway
//! on every skipped row and assert it moves nothing, and the unit tests
//! hold the whole pass to the unskipped one bit for bit. A pass that can
//! tighten nothing then costs one activity sweep.
//!
//! Presolve reports whether it reached its fixpoint
//! ([`PresolveOutcome::Feasible::settled`]): a settled box has just
//! passed every row's activity check unchanged, so branch-and-bound
//! skips its root fast-fail; a box the pass cap cut short gets it.

use crate::num::is_exact_zero;
use crate::problem::{Problem, Sense, VarId};

/// Maximum fixpoint passes; propagation almost always stabilizes in 2–3.
pub(crate) const MAX_PASSES: usize = 16;
/// A bound must improve by more than this (scaled) to count as progress.
const IMPROVE_TOL: f64 = 1e-9;
/// How far inside a variable's box an implied bound may land and still
/// move nothing, per unit of the variable: half of [`IMPROVE_TOL`], the
/// least a continuous bound must improve by, and of the `1e-9` an integer
/// bound is rounded with.
const TIE: f64 = 0.5 * IMPROVE_TOL;
/// Relative roundoff allowance of the skip test, times the row's
/// magnitudes `|b| + |min activity| + max |a_j|·(|l_j| + |u_j|)`. The
/// per-term step and the skip test differ by a few roundings of those
/// magnitudes (≈ 6 · 2⁻⁵³ each), so this clears them ~10³ times over.
const SKIP_MARGIN: f64 = 1e-12;

/// What presolve concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresolveOutcome {
    /// Bounds were tightened in place; the search may proceed.
    Feasible {
        /// Individual bound tightenings applied across all passes.
        tightened: usize,
        /// Variables whose bounds collapsed to a single value.
        fixed: usize,
        /// The last pass tightened nothing: every row passed its
        /// activity check on the returned bounds, so re-checking them
        /// (the root's fast-fail) can only agree. `false` when the pass
        /// cap stopped a propagation that was still moving.
        settled: bool,
    },
    /// A row's activity range (or a crossed bound pair) proves the problem
    /// has no solution.
    Infeasible,
}

/// Feasibility tolerance for a row with right-hand side `rhs`, matching the
/// absolute 1e-6 tolerance the rest of the solver uses but scaling with the
/// row's magnitude so bandwidth-sized coefficients don't false-positive.
fn row_tol(rhs: f64) -> f64 {
    1e-6 * (1.0 + rhs.abs())
}

/// One `≤` row view: `Σ aᵢxᵢ ≤ b` (a `Ge` constraint contributes its
/// negation, an `Eq` contributes both directions).
fn le_rows(problem: &Problem) -> impl Iterator<Item = (&[(VarId, f64)], f64, f64)> {
    problem.constraints.iter().flat_map(|c| {
        let forward = (c.terms.as_slice(), 1.0, c.rhs);
        let backward = (c.terms.as_slice(), -1.0, -c.rhs);
        let (a, b) = match c.sense {
            Sense::Le => (Some(forward), None),
            Sense::Ge => (Some(backward), None),
            Sense::Eq => (Some(forward), Some(backward)),
        };
        [a, b].into_iter().flatten()
    })
}

/// One sweep over a `≤` row under the current bounds.
struct Activity {
    /// Finite part of the minimum activity.
    finite: f64,
    /// Count of `-∞` contributions (variables with an infinite upper
    /// bound and a negative coefficient).
    inf_count: usize,
    /// Column of the sole infinite contributor when there is exactly one.
    inf_col: usize,
    /// Largest `|a_j|·(u_j − l_j − TIE)`, at least 0: how far one
    /// variable can move the activity, less what a bound may be implied
    /// within without moving (`∞` when one is unbounded above).
    swing: f64,
    /// Largest `|a_j|·(|l_j| + |u_j|)`, the terms' magnitude scale.
    scale: f64,
}

/// Minimum activity of a `≤` row and, with `SIZES`, the sizes the skip
/// test reads ([`quick_infeasible`] needs neither and leaves them 0).
#[inline]
fn activity<const SIZES: bool>(
    terms: &[(VarId, f64)],
    sign: f64,
    lower: &[f64],
    upper: &[f64],
) -> Activity {
    let mut act = Activity {
        finite: 0.0,
        inf_count: 0,
        inf_col: usize::MAX,
        swing: 0.0,
        scale: 0.0,
    };
    for &(v, raw) in terms {
        let a = sign * raw;
        if a > 0.0 {
            act.finite += a * lower[v.0]; // lower bounds are always finite
        } else if a < 0.0 {
            if upper[v.0].is_finite() {
                act.finite += a * upper[v.0];
            } else {
                act.inf_count += 1;
                act.inf_col = v.0;
            }
        }
        if SIZES {
            let (l, u) = (lower[v.0], upper[v.0]);
            act.swing = act.swing.max(a.abs() * (u - l - TIE));
            act.scale = act.scale.max(a.abs() * (l.abs() + u.abs()));
        }
    }
    act
}

impl Activity {
    /// Can the per-term step of this row move no bound? True with two or
    /// more infinite contributors (no term has a finite residual), or
    /// when the slack clears every term's swing by the roundoff margin:
    /// then each term's implied bound lies beyond the bound it already
    /// has, or inside it by less than [`TIE`] — which neither counts as
    /// an improvement nor survives the integer rounding. (Exactly one
    /// infinite contributor always runs the step: that column is the one
    /// term it can bound.)
    fn cannot_tighten(&self, rhs: f64) -> bool {
        if self.inf_count >= 2 {
            return true;
        }
        let margin = SKIP_MARGIN * (rhs.abs() + self.finite.abs() + self.scale);
        self.inf_count == 0 && rhs - self.finite > self.swing + margin
    }
}

/// The per-term step of one `≤` row: each variable's implied bound from
/// the rest of the row's minimum activity, rounded for integers, applied
/// where it improves by more than [`IMPROVE_TOL`]. Returns the count of
/// bounds it moved, or `None` when a bound pair crossed (infeasible).
fn tighten_row(
    problem: &Problem,
    (terms, sign, rhs): (&[(VarId, f64)], f64, f64),
    act: &Activity,
    lower: &mut [f64],
    upper: &mut [f64],
) -> Option<usize> {
    let mut moved = 0;
    for &(v, raw) in terms {
        let a = sign * raw;
        if is_exact_zero(a) {
            continue;
        }
        let j = v.0;
        // Minimum activity of the row *excluding* column j.
        let residual = if act.inf_count == 0 {
            let own = if a > 0.0 { a * lower[j] } else { a * upper[j] };
            act.finite - own
        } else if act.inf_count == 1 && act.inf_col == j {
            act.finite
        } else {
            continue; // residual is -∞: no implied bound
        };
        let limit = (rhs - residual) / a;
        if a > 0.0 {
            // a·x_j ≤ rhs - residual  ⇒  x_j ≤ limit.
            let new_up = if problem.integer[j] {
                (limit + 1e-9).floor()
            } else {
                limit
            };
            if new_up < upper[j] - IMPROVE_TOL * (1.0 + upper[j].abs().min(1e12)) {
                upper[j] = new_up;
                moved += 1;
            }
        } else {
            // a < 0 flips the inequality  ⇒  x_j ≥ limit.
            let new_lo = if problem.integer[j] {
                (limit - 1e-9).ceil()
            } else {
                limit
            };
            if new_lo > lower[j] + IMPROVE_TOL * (1.0 + lower[j].abs()) {
                lower[j] = new_lo;
                moved += 1;
            }
        }
        if lower[j] > upper[j] + 1e-9 {
            return None;
        }
        // Keep the box consistent for subsequent rows this pass.
        if lower[j] > upper[j] {
            upper[j] = lower[j];
        }
    }
    Some(moved)
}

/// Debug builds: the per-term step of a row the skip test passed over
/// must move nothing.
#[cfg(debug_assertions)]
fn assert_skip_is_exact(
    problem: &Problem,
    row: (&[(VarId, f64)], f64, f64),
    act: &Activity,
    lower: &mut [f64],
    upper: &mut [f64],
) {
    let bits = |lower: &[f64], upper: &[f64]| -> Vec<(u64, u64)> {
        (row.0.iter())
            .map(|&(v, _)| (lower[v.0].to_bits(), upper[v.0].to_bits()))
            .collect()
    };
    let before = bits(lower, upper);
    let moved = tighten_row(problem, row, act, lower, upper);
    assert_eq!(moved, Some(0), "a skipped row would have tightened");
    assert_eq!(before, bits(lower, upper), "a skipped row moved a bound");
}

/// Tighten `lower`/`upper` in place by propagating them through every row,
/// rounding integer bounds, and iterating to a fixpoint (at most 16
/// passes). Returns [`PresolveOutcome::Infeasible`] as soon as any row or
/// bound pair proves the problem empty; propagation only removes points
/// that violate some constraint, so the feasible set (and the optimum) is
/// preserved exactly.
pub fn presolve(problem: &Problem, lower: &mut [f64], upper: &mut [f64]) -> PresolveOutcome {
    let mut tightened = 0usize;

    // Integral rounding of the caller's bounds before the first pass.
    for j in 0..problem.num_vars() {
        if problem.integer[j] {
            lower[j] = (lower[j] - 1e-9).ceil();
            upper[j] = (upper[j] + 1e-9).floor();
        }
        if lower[j] > upper[j] {
            return PresolveOutcome::Infeasible;
        }
    }

    let mut settled = false;
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for row in le_rows(problem) {
            let (terms, sign, rhs) = row;
            let act = activity::<true>(terms, sign, lower, upper);
            if act.inf_count == 0 && act.finite > rhs + row_tol(rhs) {
                return PresolveOutcome::Infeasible;
            }
            if act.cannot_tighten(rhs) {
                #[cfg(debug_assertions)]
                assert_skip_is_exact(problem, row, &act, lower, upper);
                continue;
            }
            match tighten_row(problem, row, &act, lower, upper) {
                None => return PresolveOutcome::Infeasible,
                Some(moved) => {
                    tightened += moved;
                    changed |= moved > 0;
                }
            }
        }
        if !changed {
            settled = true;
            break;
        }
    }

    let fixed = (0..problem.num_vars())
        .filter(|&j| upper[j] - lower[j] <= 1e-12)
        .count();
    PresolveOutcome::Feasible {
        tightened,
        fixed,
        settled,
    }
}

/// Single-pass fast fail: does any row's minimum activity already exceed
/// its right-hand side under these bounds (or any bound pair cross)? Used
/// per branch-and-bound node — `O(nnz)`, no allocation — so children made
/// infeasible by a branching bound never reach the simplex.
pub(crate) fn quick_infeasible(problem: &Problem, lower: &[f64], upper: &[f64]) -> bool {
    for j in 0..problem.num_vars() {
        if lower[j] > upper[j] {
            return true;
        }
    }
    for (terms, sign, rhs) in le_rows(problem) {
        let act = activity::<false>(terms, sign, lower, upper);
        if act.inf_count == 0 && act.finite > rhs + row_tol(rhs) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense};
    use proptest::prelude::*;

    /// The pass with no row skipped — every row runs its per-term step,
    /// written out in one body — reporting the same `settled` flag: the
    /// reference the skipping pass must equal bit for bit.
    fn full_presolve(problem: &Problem, lower: &mut [f64], upper: &mut [f64]) -> PresolveOutcome {
        let mut tightened = 0usize;
        for j in 0..problem.num_vars() {
            if problem.integer[j] {
                lower[j] = (lower[j] - 1e-9).ceil();
                upper[j] = (upper[j] + 1e-9).floor();
            }
            if lower[j] > upper[j] {
                return PresolveOutcome::Infeasible;
            }
        }
        let mut settled = false;
        for _ in 0..MAX_PASSES {
            let mut changed = false;
            for (terms, sign, rhs) in le_rows(problem) {
                let (mut finite, mut inf_count, mut inf_col) = (0.0, 0, usize::MAX);
                for &(v, raw) in terms {
                    let a = sign * raw;
                    if a > 0.0 {
                        finite += a * lower[v.0];
                    } else if a < 0.0 {
                        if upper[v.0].is_finite() {
                            finite += a * upper[v.0];
                        } else {
                            inf_count += 1;
                            inf_col = v.0;
                        }
                    }
                }
                if inf_count == 0 && finite > rhs + row_tol(rhs) {
                    return PresolveOutcome::Infeasible;
                }
                for &(v, raw) in terms {
                    let a = sign * raw;
                    if is_exact_zero(a) {
                        continue;
                    }
                    let j = v.0;
                    let residual = if inf_count == 0 {
                        let own = if a > 0.0 { a * lower[j] } else { a * upper[j] };
                        finite - own
                    } else if inf_count == 1 && inf_col == j {
                        finite
                    } else {
                        continue;
                    };
                    let limit = (rhs - residual) / a;
                    if a > 0.0 {
                        let new_up = if problem.integer[j] {
                            (limit + 1e-9).floor()
                        } else {
                            limit
                        };
                        if new_up < upper[j] - IMPROVE_TOL * (1.0 + upper[j].abs().min(1e12)) {
                            upper[j] = new_up;
                            tightened += 1;
                            changed = true;
                        }
                    } else {
                        let new_lo = if problem.integer[j] {
                            (limit - 1e-9).ceil()
                        } else {
                            limit
                        };
                        if new_lo > lower[j] + IMPROVE_TOL * (1.0 + lower[j].abs()) {
                            lower[j] = new_lo;
                            tightened += 1;
                            changed = true;
                        }
                    }
                    if lower[j] > upper[j] + 1e-9 {
                        return PresolveOutcome::Infeasible;
                    }
                    if lower[j] > upper[j] {
                        upper[j] = lower[j];
                    }
                }
            }
            if !changed {
                settled = true;
                break;
            }
        }
        let fixed = (0..problem.num_vars())
            .filter(|&j| upper[j] - lower[j] <= 1e-12)
            .count();
        PresolveOutcome::Feasible {
            tightened,
            fixed,
            settled,
        }
    }

    /// Widths a generated variable's box draws from (`∞`: unbounded
    /// above).
    const WIDTHS: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 10.0, f64::INFINITY];
    /// Where a generated row's right-hand side sits relative to an edge
    /// of the skip test — `min activity + largest swing`, where the
    /// slack stops clearing every swing, or that less `TIE` times the
    /// swinging term's `|a|`, where it stops clearing the tie — as a
    /// relative offset: the near-ties are where a skip test without its
    /// roundoff margin, or with too wide a tie, differs from the full
    /// pass.
    const TIES: [f64; 9] = [-1e-3, -1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9, 1e-3];

    /// `(integer, lower, width index)`.
    type VarSpec = (bool, i32, usize);
    /// `(terms as (variable seed, coefficient), sense seed, anchor seed,
    /// spread)`: anchors below `2 · TIES.len()` put the right-hand side
    /// on a near-tie of one of the two edges, the rest at `spread` across
    /// the activity range.
    type RowSpec = (Vec<(usize, f64)>, u8, usize, f64);

    /// Minimum activity of `Σ a_j x_j` over the variables' boxes, its
    /// largest finite swing `|a_j|·(u_j − l_j)`, and that term's `|a_j|`.
    fn edge(terms: &[(VarId, f64)], p: &Problem) -> (f64, f64, f64) {
        let (mut min, mut swing, mut coef) = (0.0, 0.0f64, 0.0);
        for &(v, a) in terms {
            let (l, u) = (p.lower[v.0], p.upper[v.0]);
            min += if a > 0.0 { a * l } else { a * u.min(l + 1e3) };
            if u.is_finite() && a.abs() * (u - l) > swing {
                (swing, coef) = (a.abs() * (u - l), a.abs());
            }
        }
        (min, swing, coef)
    }

    fn build(vars: &[VarSpec], rows: &[RowSpec]) -> Problem {
        let mut p = Problem::new();
        let ids: Vec<VarId> = (vars.iter())
            .map(|&(int, lo, w)| p.add_var(f64::from(lo), f64::from(lo) + WIDTHS[w], 0.0, int))
            .collect();
        for (terms, sense, anchor, spread) in rows {
            let terms: Vec<(VarId, f64)> = (terms.iter())
                .map(|&(k, a)| (ids[k % ids.len()], a))
                .collect();
            let sense = [Sense::Le, Sense::Ge, Sense::Eq][usize::from(*sense % 3)];
            // Anchor the `≤` view the row is propagated in: a `Ge` row
            // is its negation.
            let flip = if sense == Sense::Ge { -1.0 } else { 1.0 };
            let view: Vec<_> = terms.iter().map(|&(v, a)| (v, flip * a)).collect();
            let (min, swing, coef) = edge(&view, &p);
            let n = TIES.len();
            let rhs = match anchor / n {
                0 => min + swing * (1.0 + TIES[anchor % n]),
                1 => min + (swing - TIE * coef) * (1.0 + TIES[anchor % n]),
                _ => min + spread * (swing + 1.0),
            };
            p.add_constraint(&terms, sense, flip * rhs);
        }
        p
    }

    /// `n` variables, a share `fixed` of the seeds in `[0, 1)` drawing
    /// width 0.
    fn vars(n: usize, fixed: f64) -> impl Strategy<Value = Vec<VarSpec>> {
        let width = (0.0f64..1.0).prop_map(move |u| {
            let rest = (u - fixed).max(0.0) / (1.0 - fixed);
            ((rest * WIDTHS.len() as f64) as usize).min(WIDTHS.len() - 1)
        });
        prop::collection::vec((prop::bool::ANY, -3i32..=3, width), n)
    }

    fn rows(coef: impl Strategy<Value = f64> + 'static) -> impl Strategy<Value = Vec<RowSpec>> {
        let terms = prop::collection::vec((0usize..64, coef), 1..7);
        let row = (terms, 0u8..3, 0usize..2 * TIES.len() + 4, -0.5f64..1.5);
        prop::collection::vec(row, 1..7)
    }

    /// A signed coefficient `±10^e`, `e` uniform over `exp`.
    fn scaled(exp: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
        (prop::bool::ANY, exp)
            .prop_map(|(neg, e)| if neg { -(10f64.powf(e)) } else { 10f64.powf(e) })
    }

    /// Both passes on copies of the problem's own box: same verdict,
    /// counts and settled flag, and the same bounds bit for bit.
    fn assert_equals_full_pass(p: &Problem) -> Result<(), TestCaseError> {
        let (mut lo, mut up) = (p.lower.clone(), p.upper.clone());
        let (mut ref_lo, mut ref_up) = (p.lower.clone(), p.upper.clone());
        let got = presolve(p, &mut lo, &mut up);
        let want = full_presolve(p, &mut ref_lo, &mut ref_up);
        prop_assert_eq!(got, want);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&lo), bits(&ref_lo));
        prop_assert_eq!(bits(&up), bits(&ref_up));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Binary, general-integer and continuous variables (some
        /// unbounded above), `≤` / `≥` / `=` rows with unit-scale
        /// coefficients.
        #[test]
        fn the_skipping_pass_equals_the_full_pass(
            vars in (1usize..9).prop_flat_map(|n| vars(n, 0.0)),
            rows in rows(-5.0f64..5.0),
        ) {
            assert_equals_full_pass(&build(&vars, &rows))?;
        }

        /// Hostile scales: each row mixes coefficients from 1e-6 to 1e12,
        /// and half the variables are fixed, so a fixed huge term's share
        /// of the min activity rounds by more than a small term's swing —
        /// where a skip test without its margin misjudges near-ties.
        #[test]
        fn the_skipping_pass_equals_the_full_pass_at_hostile_scales(
            vars in (1usize..9).prop_flat_map(|n| vars(n, 0.5)),
            rows in rows(scaled(-6.0..12.0)),
        ) {
            assert_equals_full_pass(&build(&vars, &rows))?;
        }
    }

    #[test]
    fn a_row_whose_slack_clears_every_swing_is_skipped() {
        // x + y ≤ b over binaries, min activity 0, both swings 1: a
        // slack of 10 skips the per-term step, and so does the tie b = 1
        // (each implied upper bound is the one it has) — the pass
        // settles having tightened nothing; b = 1 − 1e-6 and b = ½
        // (which fix both at 0) run it.
        let mut p = Problem::new();
        let x = p.add_binary(0.0);
        let y = p.add_binary(0.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 10.0);
        let (mut lo, mut up) = (p.lower.clone(), p.upper.clone());
        let act = activity::<true>(&p.constraints[0].terms, 1.0, &lo, &up);
        assert!(act.cannot_tighten(10.0));
        assert!(act.cannot_tighten(1.0));
        assert!(!act.cannot_tighten(1.0 - 1e-6));
        assert!(!act.cannot_tighten(0.5));
        let settled = PresolveOutcome::Feasible {
            tightened: 0,
            fixed: 0,
            settled: true,
        };
        assert_eq!(presolve(&p, &mut lo, &mut up), settled);
    }

    #[test]
    fn over_budget_row_is_infeasible_without_simplex() {
        // Three pinned vertices (f = 1) whose CPU sum exceeds the budget.
        let mut p = Problem::new();
        let vars: Vec<_> = (0..3).map(|_| p.add_var(1.0, 1.0, 0.0, true)).collect();
        let row: Vec<_> = vars.iter().map(|&v| (v, 0.4)).collect();
        p.add_constraint(&row, Sense::Le, 1.0);
        let (mut lo, mut up) = (p.lower.clone(), p.upper.clone());
        assert_eq!(presolve(&p, &mut lo, &mut up), PresolveOutcome::Infeasible);
        assert!(quick_infeasible(&p, &p.lower, &p.upper));
    }

    #[test]
    fn knapsack_bounds_tighten_and_fix() {
        // 3x + 3y <= 4 over binaries: both uppers round down to 1 (no
        // change), but x + y <= 4/3 ⇒ implied upper 1 each; with a Ge row
        // forcing x = 1, y's implied upper becomes 0 (fixed).
        let mut p = Problem::new();
        let x = p.add_binary(0.0);
        let y = p.add_binary(0.0);
        p.add_constraint(&[(x, 3.0), (y, 3.0)], Sense::Le, 4.0);
        p.add_constraint(&[(x, 1.0)], Sense::Ge, 1.0);
        let (mut lo, mut up) = (p.lower.clone(), p.upper.clone());
        match presolve(&p, &mut lo, &mut up) {
            PresolveOutcome::Feasible { fixed, .. } => {
                assert_eq!(lo[0], 1.0, "x forced to 1");
                assert_eq!(up[1], 0.0, "y implied-fixed to 0");
                assert!(fixed >= 2);
            }
            PresolveOutcome::Infeasible => panic!("feasible instance"),
        }
    }

    #[test]
    fn ge_row_with_insufficient_max_activity_is_infeasible() {
        let mut p = Problem::new();
        let x = p.add_binary(0.0);
        let y = p.add_binary(0.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let (mut lo, mut up) = (p.lower.clone(), p.upper.clone());
        assert_eq!(presolve(&p, &mut lo, &mut up), PresolveOutcome::Infeasible);
    }

    #[test]
    fn infinite_bounds_do_not_false_positive() {
        // -x <= 0 with x unbounded above: min activity is -inf, never
        // "greater than rhs".
        let mut p = Problem::new();
        let x = p.add_var(0.0, f64::INFINITY, 1.0, false);
        let y = p.add_var(0.0, f64::INFINITY, 1.0, false);
        p.add_constraint(&[(x, -1.0), (y, -1.0)], Sense::Le, 0.0);
        let (mut lo, mut up) = (p.lower.clone(), p.upper.clone());
        assert!(matches!(
            presolve(&p, &mut lo, &mut up),
            PresolveOutcome::Feasible { .. }
        ));
        assert!(!quick_infeasible(&p, &p.lower, &p.upper));
    }

    #[test]
    fn single_infinite_contributor_still_gets_a_bound() {
        // x - y <= 2 with y unbounded above: the row cannot bound x (the
        // residual is -inf)... except for y itself: -y <= 2 - x_min ⇒
        // y >= x_min - 2 = -2, weaker than y >= 0. Now with x >= 5 pinned:
        // y >= 3.
        let mut p = Problem::new();
        let x = p.add_var(5.0, 5.0, 0.0, false);
        let y = p.add_var(0.0, f64::INFINITY, 0.0, false);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Sense::Le, 2.0);
        let (mut lo, mut up) = (p.lower.clone(), p.upper.clone());
        assert!(matches!(
            presolve(&p, &mut lo, &mut up),
            PresolveOutcome::Feasible { .. }
        ));
        assert!((lo[1] - 3.0).abs() < 1e-9, "y >= 3 implied, got {}", lo[1]);
    }

    #[test]
    fn equality_propagates_both_directions() {
        // x + y = 4, x,y in [0, 10] ⇒ both uppers tighten to 4.
        let mut p = Problem::new();
        let x = p.add_var(0.0, 10.0, 0.0, false);
        let y = p.add_var(0.0, 10.0, 0.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Eq, 4.0);
        let (mut lo, mut up) = (p.lower.clone(), p.upper.clone());
        assert!(matches!(
            presolve(&p, &mut lo, &mut up),
            PresolveOutcome::Feasible { .. }
        ));
        assert!(up[0] <= 4.0 + 1e-9 && up[1] <= 4.0 + 1e-9);
    }
}
