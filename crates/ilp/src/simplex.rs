//! Two-phase primal simplex with bounded variables.
//!
//! Dense-tableau implementation — the **reference** backend
//! ([`SolverBackend::Dense`]): simple and auditable, it is what the
//! differential suites hold the sparse revised simplex (`revised.rs`, the
//! backend every production solve runs) to, and it runs only when a
//! caller names it. This file also holds the backend-neutral entry points
//! ([`solve_lp`], [`solve_lp_in`]) that dispatch between the two.
//!
//! Variable bounds `l ≤ x ≤ u` are handled natively (nonbasic variables sit
//! at either bound; the ratio test includes bound flips), which keeps the
//! tableau at `m × (n + m_slack + m_art)` instead of adding a row per bound.
//! Anti-cycling: Dantzig pricing with a Bland's-rule fallback after a run of
//! degenerate pivots.
//!
//! Every tableau solve is **cold**: it starts from the all-artificial
//! basis and runs both phases, whatever the workspace solved before, so
//! "the backends agree" compares the sparse backend's warm re-entry with
//! an answer built from scratch. The tableau lives in the
//! [`SimplexWorkspace`] all the same, so branch-and-bound nodes reuse one
//! allocation.

use crate::num::is_exact_zero;
use crate::problem::{LpSolution, Problem, SolveError};
use crate::workspace::{SimplexWorkspace, SolverBackend, VarStatus};

pub(crate) const EPS: f64 = 1e-9;
/// Pivot elements smaller than this are considered numerically unusable.
pub(crate) const PIVOT_TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
pub(crate) const DEGENERATE_LIMIT: u64 = 64;
/// Recompute reduced costs from scratch this often to bound drift.
const REFRESH_PERIOD: u64 = 512;
/// Bound violations below this are treated as feasible by the dual repair.
pub(crate) const DUAL_FEAS_TOL: f64 = 1e-7;

/// How a sparse dual-then-primal pass ended — a warm re-entry, or a
/// dual-first cold start.
pub(crate) enum WarmOutcome {
    /// Optimal solution reached from the retained basis.
    Solved(LpSolution),
    /// The dual-simplex pass proved the (re-bounded) LP infeasible.
    Infeasible,
    /// Numerical doubt or budget exhausted: redo this solve cold.
    Retry,
}

impl SimplexWorkspace {
    /// `obj_row[j] = cost[j] - Σᵢ cost[basis[i]] · T[i][j]`, over the live
    /// (priceable) columns only.
    pub(crate) fn recompute_obj_row(&mut self) {
        let live = self.scan_limit;
        self.obj_row.copy_from_slice(&self.cost);
        for i in 0..self.m {
            let cb = self.cost[self.basis[i]];
            if is_exact_zero(cb) {
                continue;
            }
            let row = &self.t[i * self.n..i * self.n + live];
            for (o, &a) in self.obj_row[..live].iter_mut().zip(row) {
                *o -= cb * a;
            }
        }
        for &b in &self.basis {
            self.obj_row[b] = 0.0;
        }
    }

    pub(crate) fn objective(&self) -> f64 {
        self.cost.iter().zip(&self.x).map(|(c, v)| c * v).sum()
    }

    /// Choose the entering column, or `None` at optimality.
    ///
    /// The scan stops at `scan_limit`: during phase 2 the artificial
    /// columns are locked at `[0, 0]` and can never improve the objective,
    /// so pricing them (as a naive full scan does every iteration) is pure
    /// waste on wide problems.
    fn choose_entering(&self, bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (col, dir, score)
        for j in 0..self.scan_limit {
            let (dir, score) = match self.status[j] {
                VarStatus::Basic => continue,
                VarStatus::AtLower => {
                    let d = self.obj_row[j];
                    if d < -EPS {
                        (1.0, -d)
                    } else {
                        continue;
                    }
                }
                VarStatus::AtUpper => {
                    let d = self.obj_row[j];
                    if d > EPS {
                        (-1.0, d)
                    } else {
                        continue;
                    }
                }
            };
            if bland {
                return Some((j, dir));
            }
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((j, dir, score));
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// One simplex iteration. `Ok(true)` = continue, `Ok(false)` = optimal.
    fn step(&mut self) -> Result<bool, SolveError> {
        let bland = self.force_bland || self.degenerate_run > DEGENERATE_LIMIT;
        let Some((e, dir)) = self.choose_entering(bland) else {
            return Ok(false);
        };

        // Ratio test: how far can the entering variable move?
        let flip = self.upper[e] - self.lower[e]; // distance to its other bound
        let mut best_t = f64::INFINITY;
        let mut best_row: Option<usize> = None;
        let mut best_coef = 0.0f64;
        for i in 0..self.m {
            let coef = self.t[i * self.n + e];
            if coef.abs() < PIVOT_TOL {
                continue;
            }
            let xb = self.basis[i];
            let v = self.x[xb];
            let rate = -dir * coef; // d(x_b)/dt as the entering var moves
            let limit = if rate > 0.0 {
                if !self.upper[xb].is_finite() {
                    continue;
                }
                ((self.upper[xb] - v) / rate).max(0.0)
            } else {
                ((v - self.lower[xb]) / -rate).max(0.0)
            };
            let take = if limit < best_t - EPS {
                true
            } else if limit <= best_t + EPS {
                // Tie: prefer a numerically larger pivot (or the lowest row
                // index when Bland's rule is active).
                match best_row {
                    None => true,
                    Some(br) => {
                        if bland {
                            i < br
                        } else {
                            coef.abs() > best_coef
                        }
                    }
                }
            } else {
                false
            };
            if take {
                best_t = best_t.min(limit);
                best_row = Some(i);
                best_coef = coef.abs();
            }
        }

        if best_row.is_none() && !flip.is_finite() {
            return Err(SolveError::Unbounded);
        }

        if flip < best_t {
            // Bound flip: the entering variable hits its opposite bound
            // before any basic variable blocks; no basis change.
            self.apply_move(e, dir, flip);
            self.status[e] = match self.status[e] {
                VarStatus::AtLower => VarStatus::AtUpper,
                VarStatus::AtUpper => VarStatus::AtLower,
                VarStatus::Basic => unreachable!("entering var is nonbasic"),
            };
            self.x[e] = match self.status[e] {
                VarStatus::AtUpper => self.upper[e],
                _ => self.lower[e],
            };
            self.degenerate_run = if flip <= EPS {
                self.degenerate_run + 1
            } else {
                0
            };
            return Ok(true);
        }

        let r = best_row.expect("blocking row exists when flip does not apply");
        let t_star = best_t;
        self.apply_move(e, dir, t_star);
        let leaving = self.basis[r];
        // Snap the leaving variable exactly onto the bound it hit.
        let coef = self.t[r * self.n + e];
        let rate = -dir * coef;
        self.status[leaving] = if rate > 0.0 {
            self.x[leaving] = self.upper[leaving];
            VarStatus::AtUpper
        } else {
            self.x[leaving] = self.lower[leaving];
            VarStatus::AtLower
        };
        self.status[e] = VarStatus::Basic;
        self.basis[r] = e;
        self.pivot(r, e);
        self.degenerate_run = if t_star <= EPS {
            self.degenerate_run + 1
        } else {
            0
        };
        Ok(true)
    }

    /// Move entering variable `e` by `t` in direction `dir`, updating all
    /// basic values.
    fn apply_move(&mut self, e: usize, dir: f64, t: f64) {
        if is_exact_zero(t) {
            return;
        }
        self.x[e] += dir * t;
        for i in 0..self.m {
            let coef = self.t[i * self.n + e];
            if !is_exact_zero(coef) {
                let xb = self.basis[i];
                self.x[xb] -= dir * t * coef;
            }
        }
    }

    /// Gauss–Jordan pivot on `(r, e)`, also updating `obj_row`.
    ///
    /// Row operations stop at `scan_limit`: once phase 1 locks the
    /// artificial columns at `[0, 0]` nothing ever reads them again (they
    /// cannot enter, and a basic-at-zero artificial leaves via the live
    /// part of its row), so eliminating through them every pivot — a third
    /// of the tableau on partitioning-shaped problems — is pure waste.
    fn pivot(&mut self, r: usize, e: usize) {
        let n = self.n;
        let live = self.scan_limit;
        let piv = self.t[r * n + e];
        debug_assert!(piv.abs() >= PIVOT_TOL * 0.5, "tiny pivot {piv}");
        let inv = 1.0 / piv;
        for v in self.t[r * n..r * n + live].iter_mut() {
            *v *= inv;
        }
        // Eliminate column e from every other row.
        let (before, rest) = self.t.split_at_mut(r * n);
        let (prow, after) = rest.split_at_mut(n);
        let prow = &prow[..live];
        for chunk in before.chunks_exact_mut(n).chain(after.chunks_exact_mut(n)) {
            let f = chunk[e];
            if !is_exact_zero(f) {
                for (a, &p) in chunk.iter_mut().zip(prow.iter()) {
                    *a -= f * p;
                }
                chunk[e] = 0.0;
            }
        }
        let f = self.obj_row[e];
        if !is_exact_zero(f) {
            for (a, &p) in self.obj_row.iter_mut().zip(prow.iter()) {
                *a -= f * p;
            }
            self.obj_row[e] = 0.0;
        }
    }

    fn run_phase(&mut self) -> Result<(), SolveError> {
        loop {
            if self.iterations >= self.iteration_limit {
                return Err(SolveError::IterationLimit);
            }
            self.iterations += 1;
            self.primal_iterations += 1;
            if self.iterations.is_multiple_of(REFRESH_PERIOD) {
                self.recompute_obj_row();
            }
            if !self.step()? {
                return Ok(());
            }
        }
    }

    /// Solve both phases from the freshly [`load`]ed all-artificial basis,
    /// returning the structural solution.
    ///
    /// [`load`]: SimplexWorkspace::load
    pub(crate) fn solve_cold(&mut self, problem: &Problem) -> Result<LpSolution, SolveError> {
        // Phase 1: minimize the sum of artificials.
        let needs_phase1 = (0..self.m).any(|i| self.x[self.first_artificial + i] > EPS);
        if needs_phase1 {
            for j in self.first_artificial..self.n {
                self.cost[j] = 1.0;
            }
            self.recompute_obj_row();
            self.run_phase()?;
            let infeas: f64 = (self.first_artificial..self.n).map(|j| self.x[j]).sum();
            if infeas > 1e-6 {
                return Err(SolveError::Infeasible);
            }
        }
        // Lock artificials at zero for phase 2 (basic-at-zero artificials
        // stay harmless because their bounds collapse).
        for j in self.first_artificial..self.n {
            self.upper[j] = 0.0;
            self.x[j] = 0.0;
            self.cost[j] = 0.0;
        }

        // Phase 2: the real objective. Locked artificials are excluded
        // from pricing from here on.
        self.scan_limit = self.first_artificial;
        for j in 0..self.n {
            self.cost[j] = if j < self.n_structural {
                problem.objective[j]
            } else {
                0.0
            };
        }
        self.degenerate_run = 0;
        self.recompute_obj_row();
        self.run_phase()?;

        let values = self.x[..self.n_structural].to_vec();
        Ok(LpSolution {
            objective: self.objective(),
            values,
            iterations: self.iterations,
        })
    }
}

/// How a bounded dual-simplex pass ended.
pub(crate) enum DualOutcome {
    Feasible,
    Infeasible,
    GiveUp,
}

/// Solve the LP relaxation of `problem` (integrality ignored) in a
/// throwaway workspace; hot paths should use [`solve_lp_in`].
pub fn solve_lp(problem: &Problem) -> Result<LpSolution, SolveError> {
    let mut ws = SimplexWorkspace::new();
    solve_lp_in(
        problem,
        &problem.lower,
        &problem.upper,
        default_iteration_limit(problem),
        &mut ws,
        SolverBackend::Sparse,
    )
}

/// Solve the LP relaxation inside a reusable workspace, on `backend`.
///
/// [`SolverBackend::Sparse`] re-enters warm (dual-simplex repair from the
/// retained basis) when `ws` retains a valid basis for this problem's
/// constraint matrix — the last solve in `ws` was of `problem` or a clone
/// of it, with no variable or row added or replaced since; bounds, costs
/// and right-hand sides may differ — and starts cold otherwise; call
/// [`SimplexWorkspace::invalidate`] first to force the cold start. Any
/// numerical doubt on the warm path silently falls back to a cold start,
/// so verdict and optimal value never depend on the entry path (which of
/// several equally good vertices comes back can).
/// [`SolverBackend::Dense`], the reference tableau, always solves cold
/// and drops any basis the workspace retained. The workspace's warm/cold
/// counters record which path ran.
pub fn solve_lp_in(
    problem: &Problem,
    lower: &[f64],
    upper: &[f64],
    iteration_limit: u64,
    ws: &mut SimplexWorkspace,
    backend: SolverBackend,
) -> Result<LpSolution, SolveError> {
    for j in 0..problem.num_vars() {
        if lower[j] > upper[j] {
            return Err(SolveError::Infeasible);
        }
    }
    if backend == SolverBackend::Dense {
        // The tableau overwrites the basis, statuses and values a sparse
        // re-entry would read, and leaves nothing to re-enter from.
        ws.invalidate();
        ws.note_cold();
        ws.load(problem, lower, upper, iteration_limit);
        return ws.solve_cold(problem);
    }
    let mut burned = 0;
    if ws.can_warm(problem) {
        match ws.solve_warm_sparse(problem, lower, upper, iteration_limit) {
            WarmOutcome::Solved(s) => {
                ws.note_warm();
                return Ok(s);
            }
            WarmOutcome::Infeasible => {
                ws.note_warm();
                return Err(SolveError::Infeasible);
            }
            WarmOutcome::Retry => {
                // The abandoned attempt's pivots still happened; count
                // them towards this node's reported work.
                burned = ws.iterations;
                ws.invalidate();
            }
        }
    }
    ws.note_cold();
    let result = ws.solve_cold_sparse(problem, lower, upper, iteration_limit);
    if result.is_ok() {
        ws.mark_warm_ready();
    } else {
        ws.invalidate();
    }
    result.map(|mut s| {
        s.iterations += burned;
        s
    })
}

/// Default iteration budget, generous relative to problem size.
pub fn default_iteration_limit(problem: &Problem) -> u64 {
    (200 + 50 * (problem.num_vars() + problem.num_constraints())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    // This is the reference tableau's own unit suite, so every solve in
    // it names `Dense`; `solve_lp` shadows the backend-neutral entry point.
    const DENSE: SolverBackend = SolverBackend::Dense;

    fn solve_lp(p: &Problem) -> Result<LpSolution, SolveError> {
        let limit = default_iteration_limit(p);
        solve_lp_in(
            p,
            &p.lower,
            &p.upper,
            limit,
            &mut SimplexWorkspace::new(),
            DENSE,
        )
    }

    #[test]
    fn trivially_bounded_minimum() {
        // min x + y, x,y in [1, 5]: optimum at lower bounds.
        let mut p = Problem::new();
        let _x = p.add_var(1.0, 5.0, 1.0, false);
        let _y = p.add_var(1.0, 5.0, 1.0, false);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn classic_two_var_lp() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 (Dantzig's example).
        // As minimization: min -3x -5y. Optimum (2, 6), objective -36.
        let mut p = Problem::new();
        let x = p.add_var(0.0, f64::INFINITY, -3.0, false);
        let y = p.add_var(0.0, f64::INFINITY, -5.0, false);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 4.0);
        p.add_constraint(&[(y, 2.0)], Sense::Le, 12.0);
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.values[0], 2.0);
        assert_close(s.values[1], 6.0);
    }

    #[test]
    fn equality_constraints_need_phase1() {
        // min x + 2y s.t. x + y = 10, x - y = 2  => x=6, y=4, obj=14.
        let mut p = Problem::new();
        let x = p.add_var(0.0, f64::INFINITY, 1.0, false);
        let y = p.add_var(0.0, f64::INFINITY, 2.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Eq, 10.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Sense::Eq, 2.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 14.0);
        assert_close(s.values[0], 6.0);
        assert_close(s.values[1], 4.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 => (4,0)? obj 8 vs (1,3): 11.
        let mut p = Problem::new();
        let x = p.add_var(0.0, f64::INFINITY, 2.0, false);
        let y = p.add_var(0.0, f64::INFINITY, 3.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 4.0);
        p.add_constraint(&[(x, 1.0)], Sense::Ge, 1.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 8.0);
        assert_close(s.values[0], 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 1.0, false);
        p.add_constraint(&[(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(solve_lp(&p), Err(SolveError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, f64::INFINITY, -1.0, false);
        p.add_constraint(&[(x, -1.0)], Sense::Le, 0.0); // -x <= 0, always true
        assert_eq!(solve_lp(&p), Err(SolveError::Unbounded));
    }

    #[test]
    fn upper_bounds_respected_via_flip() {
        // min -x - 2y with x,y in [0,3], x + y <= 4 => y=3, x=1, obj=-7.
        let mut p = Problem::new();
        let x = p.add_var(0.0, 3.0, -1.0, false);
        let y = p.add_var(0.0, 3.0, -2.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, -7.0);
        assert_close(s.values[1], 3.0);
        assert_close(s.values[0], 1.0);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x, x in [-5, 5], x >= -3  => x = -3.
        let mut p = Problem::new();
        let x = p.add_var(-5.0, 5.0, 1.0, false);
        p.add_constraint(&[(x, 1.0)], Sense::Ge, -3.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, -3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Beale's cycling example (classic), guarded by Bland fallback.
        let mut p = Problem::new();
        let x1 = p.add_var(0.0, f64::INFINITY, -0.75, false);
        let x2 = p.add_var(0.0, f64::INFINITY, 150.0, false);
        let x3 = p.add_var(0.0, f64::INFINITY, -0.02, false);
        let x4 = p.add_var(0.0, f64::INFINITY, 6.0, false);
        p.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(&[(x3, 1.0)], Sense::Le, 1.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn bound_overrides_make_problem_infeasible() {
        let mut p = Problem::new();
        let _x = p.add_var(0.0, 1.0, 1.0, false);
        let r = solve_lp_in(
            &p,
            &[2.0],
            &[1.0],
            1000,
            &mut SimplexWorkspace::new(),
            DENSE,
        );
        assert_eq!(r, Err(SolveError::Infeasible));
    }

    #[test]
    fn larger_random_like_lp_is_stable() {
        // A chain: x0 >= x1 >= ... >= x19, sum x <= 10, min -sum(x).
        // Optimum: all equal 0.5, objective -10.
        let mut p = Problem::new();
        let vars: Vec<_> = (0..20).map(|_| p.add_var(0.0, 1.0, -1.0, false)).collect();
        for w in vars.windows(2) {
            p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
        }
        let sum: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&sum, Sense::Le, 10.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, -10.0);
    }

    #[test]
    fn warm_resolve_after_loosening_bounds() {
        // A workspace reused under bounds that loosen relative to the last
        // solve (best-first search jumps between subtrees) answers like a
        // fresh one: the tableau reloads every buffer it reads.
        let mut p = Problem::new();
        let x = p.add_var(0.0, 2.0, -1.0, false);
        let y = p.add_var(0.0, 2.0, -1.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 10.0);

        let mut ws = SimplexWorkspace::new();
        solve_lp_in(&p, &p.lower, &[1.0, 1.0], 10_000, &mut ws, DENSE).unwrap();
        let loose = solve_lp_in(&p, &p.lower, &[2.0, 2.0], 10_000, &mut ws, DENSE).unwrap();
        assert_close(loose.objective, -4.0);
    }
}
