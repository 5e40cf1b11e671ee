//! Two-phase primal simplex with bounded variables, plus a dual-simplex
//! warm-start path.
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
//! All dense state lives in a [`SimplexWorkspace`] so branch-and-bound
//! reuses one allocation across every node. A solve can enter either
//! **cold** (all-artificial basis, two phases) or **warm**
//! ([`solve_lp_in`] with `allow_warm`): the workspace's retained
//! phase-2-optimal basis is dual feasible when only bounds have changed
//! (or the objective was scaled by a positive factor), so a bounded
//! dual-simplex pass repairs primal feasibility — or proves the LP
//! infeasible — in a handful of pivots, then a primal phase-2 pass
//! certifies optimality, whatever the costs have become. Any numerical
//! doubt falls back to a cold start, so warm and cold solves always agree
//! on the verdict and the optimal value.

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

/// How a warm-started solve ended.
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

    /// Gauss–Jordan pivot on `(r, e)`, also updating `rhs` and `obj_row`.
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
        self.rhs[r] *= inv;
        // Eliminate column e from every other row.
        let (before, rest) = self.t.split_at_mut(r * n);
        let (prow, after) = rest.split_at_mut(n);
        let prow = &prow[..live];
        for (i, chunk) in before.chunks_exact_mut(n).enumerate() {
            let f = chunk[e];
            if !is_exact_zero(f) {
                for (a, &p) in chunk.iter_mut().zip(prow.iter()) {
                    *a -= f * p;
                }
                chunk[e] = 0.0;
                self.rhs[i] -= f * self.rhs[r];
            }
        }
        for (k, chunk) in after.chunks_exact_mut(n).enumerate() {
            let i = r + 1 + k;
            let f = chunk[e];
            if !is_exact_zero(f) {
                for (a, &p) in chunk.iter_mut().zip(prow.iter()) {
                    *a -= f * p;
                }
                chunk[e] = 0.0;
                self.rhs[i] -= f * self.rhs[r];
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

    /// Warm solve: re-enter from the retained phase-2 basis under new
    /// bounds. The retained reduced costs are dual feasible (the previous
    /// solve ended optimal and only bounds changed), so a bounded
    /// dual-simplex pass either restores primal feasibility or proves the
    /// re-bounded LP infeasible; a primal phase-2 pass then certifies
    /// optimality.
    pub(crate) fn solve_warm(
        &mut self,
        problem: &Problem,
        lower: &[f64],
        upper: &[f64],
        iteration_limit: u64,
    ) -> WarmOutcome {
        if !self.warm_load(problem, lower, upper, iteration_limit) {
            return WarmOutcome::Retry;
        }
        // The repair is a *bounded* pass: a healthy warm start needs a
        // handful of pivots; one that still flails after ~2m is cheaper to
        // redo cold than to grind out (the budget also keeps warm + cold
        // fallback within one node's iteration allowance).
        let dual_budget = (self.m as u64 * 2 + 64).min(iteration_limit);
        match self.dual_repair(dual_budget) {
            DualOutcome::Feasible => {}
            DualOutcome::Infeasible => return WarmOutcome::Infeasible,
            DualOutcome::GiveUp => return WarmOutcome::Retry,
        }
        self.degenerate_run = 0;
        match self.run_phase() {
            Ok(()) => {}
            // Cold start re-derives the verdict with a full budget; this
            // keeps warm and cold solves byte-for-byte agreeing on errors.
            Err(_) => return WarmOutcome::Retry,
        }
        let values = self.x[..self.n_structural].to_vec();
        WarmOutcome::Solved(LpSolution {
            objective: self.objective(),
            values,
            iterations: self.iterations,
        })
    }

    /// Bounded-variable dual simplex: while some basic variable violates a
    /// bound, pivot it out towards the violated bound, choosing the
    /// entering column by the dual ratio test so reduced costs stay dual
    /// feasible. "No admissible entering column" on a violated row is a
    /// proof of primal infeasibility (the row's reachable range excludes
    /// the bound) — this is what makes warm-started children *fast* at
    /// proving infeasibility.
    fn dual_repair(&mut self, budget: u64) -> DualOutcome {
        loop {
            if self.iterations >= budget {
                return DualOutcome::GiveUp;
            }
            // Leaving row: the most violated basic variable.
            let mut leave: Option<(usize, bool, f64)> = None; // (row, above, viol)
            for i in 0..self.m {
                let xb = self.basis[i];
                let v = self.x[xb];
                let (viol, above) = if v > self.upper[xb] + DUAL_FEAS_TOL {
                    (v - self.upper[xb], true)
                } else if v < self.lower[xb] - DUAL_FEAS_TOL {
                    (self.lower[xb] - v, false)
                } else {
                    continue;
                };
                if leave.is_none_or(|(_, _, w)| viol > w) {
                    leave = Some((i, above, viol));
                }
            }
            let Some((r, above, _)) = leave else {
                return DualOutcome::Feasible;
            };
            self.iterations += 1;
            self.dual_iterations += 1;

            // Dual ratio test over nonbasic, non-fixed columns.
            let row = &self.t[r * self.n..r * self.n + self.first_artificial];
            let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
            let mut dubious = false;
            for (j, &alpha) in row.iter().enumerate() {
                if alpha.abs() < EPS || self.upper[j] - self.lower[j] <= 0.0 {
                    continue;
                }
                let (admissible, d_eff) = match self.status[j] {
                    VarStatus::Basic => continue,
                    // At lower: the column can only increase; it reduces an
                    // above-violation when α > 0, a below-violation when
                    // α < 0. Reduced cost is ≥ 0 (clamped against drift).
                    VarStatus::AtLower => {
                        let a_eff = if above { alpha } else { -alpha };
                        (a_eff > 0.0, self.obj_row[j].max(0.0))
                    }
                    // At upper: mirrored signs; reduced cost ≤ 0.
                    VarStatus::AtUpper => {
                        let a_eff = if above { -alpha } else { alpha };
                        (a_eff > 0.0, (-self.obj_row[j]).max(0.0))
                    }
                };
                if !admissible {
                    continue;
                }
                if alpha.abs() < PIVOT_TOL {
                    // Right sign but numerically unusable: remember that the
                    // infeasibility "proof" would be unsound.
                    dubious = true;
                    continue;
                }
                let ratio = d_eff / alpha.abs();
                let take = match best {
                    None => true,
                    Some((_, br, ba)) => {
                        ratio < br - EPS || (ratio <= br + EPS && alpha.abs() > ba)
                    }
                };
                if take {
                    best = Some((j, ratio, alpha.abs()));
                }
            }

            match best {
                None => {
                    return if dubious {
                        DualOutcome::GiveUp
                    } else {
                        DualOutcome::Infeasible
                    };
                }
                Some((e, _, _)) => {
                    // Incremental primal update: moving the entering
                    // variable by Δ = (x_b − bound)/α_re drives the leaving
                    // variable exactly onto its violated bound, and every
                    // other basic value shifts by its own column entry —
                    // O(m), no tableau-wide recomputation.
                    let leaving = self.basis[r];
                    let alpha = self.t[r * self.n + e];
                    let target = if above {
                        self.upper[leaving]
                    } else {
                        self.lower[leaving]
                    };
                    let delta = (self.x[leaving] - target) / alpha;
                    self.apply_move(e, delta.signum(), delta.abs());
                    self.x[leaving] = target;
                    self.status[leaving] = if above {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.status[e] = VarStatus::Basic;
                    self.basis[r] = e;
                    self.pivot(r, e);
                }
            }
        }
    }
}

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
        false,
    )
}

/// Solve the LP relaxation inside a reusable workspace.
///
/// With `allow_warm`, and when `ws` retains a valid basis for this
/// problem's constraint matrix — the last solve in `ws` was of `problem`
/// or a clone of it, with no variable or row added or replaced since;
/// bounds, costs and right-hand sides may differ (the reference tableau
/// alone needs equal right-hand sides) — the solve re-enters warm (dual-simplex repair from the
/// retained basis); any numerical doubt silently falls back to a cold
/// start, so verdict and optimal value never depend on the entry path
/// (which of several equally good vertices comes back can). The
/// workspace's warm/cold counters record which path ran.
pub fn solve_lp_in(
    problem: &Problem,
    lower: &[f64],
    upper: &[f64],
    iteration_limit: u64,
    ws: &mut SimplexWorkspace,
    allow_warm: bool,
) -> Result<LpSolution, SolveError> {
    ws.sparse.refuted = None;
    for j in 0..problem.num_vars() {
        if lower[j] > upper[j] {
            return Err(SolveError::Infeasible);
        }
    }
    let backend = ws.backend();
    let mut burned = 0;
    if allow_warm && ws.can_warm(problem) {
        let outcome = match backend {
            SolverBackend::Sparse => ws.solve_warm_sparse(problem, lower, upper, iteration_limit),
            SolverBackend::Dense => ws.solve_warm(problem, lower, upper, iteration_limit),
        };
        match outcome {
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
    let result = match backend {
        // The whole sparse ladder — dual-first start → sparse two-phase
        // primal — is inside `solve_cold_sparse`; whatever it returns,
        // a numerically singular refactorization's `IterationLimit`
        // included, is the answer: nothing here allocates a tableau.
        SolverBackend::Sparse => ws.solve_cold_sparse(problem, lower, upper, iteration_limit),
        SolverBackend::Dense => {
            ws.load(problem, lower, upper, iteration_limit);
            ws.solve_cold(problem)
        }
    };
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
    fn dense_ws() -> SimplexWorkspace {
        let mut ws = SimplexWorkspace::new();
        ws.set_backend(SolverBackend::Dense);
        ws
    }

    fn solve_lp(p: &Problem) -> Result<LpSolution, SolveError> {
        let limit = default_iteration_limit(p);
        solve_lp_in(p, &p.lower, &p.upper, limit, &mut dense_ws(), false)
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
        let r = solve_lp_in(&p, &[2.0], &[1.0], 1000, &mut dense_ws(), false);
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
    fn warm_resolve_matches_cold_after_bound_change() {
        // Dantzig's example again; re-solve with x's upper bound tightened
        // to 1 through the warm path and compare against a cold solve.
        let mut p = Problem::new();
        let x = p.add_var(0.0, 10.0, -3.0, false);
        let y = p.add_var(0.0, 10.0, -5.0, false);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 4.0);
        p.add_constraint(&[(y, 2.0)], Sense::Le, 12.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Sense::Le, 18.0);

        let mut ws = dense_ws();
        let first = solve_lp_in(&p, &p.lower, &p.upper, 10_000, &mut ws, true).unwrap();
        assert_close(first.values[0], 4.0);

        let tight_upper = [1.0, 10.0];
        let warm = solve_lp_in(&p, &p.lower, &tight_upper, 10_000, &mut ws, true).unwrap();
        let cold = solve_lp_in(&p, &p.lower, &tight_upper, 10_000, &mut dense_ws(), false).unwrap();
        assert_close(warm.objective, cold.objective);
        assert_eq!(ws.warm_starts(), 1);
        assert_eq!(ws.cold_starts(), 1);
    }

    #[test]
    fn warm_resolve_detects_infeasibility() {
        // x + y >= 6 with both in [0, 4] is feasible; tightening both
        // uppers to 2 makes it infeasible — the warm dual pass must prove
        // it without a cold restart.
        let mut p = Problem::new();
        let x = p.add_var(0.0, 4.0, 1.0, false);
        let y = p.add_var(0.0, 4.0, 1.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 6.0);

        let mut ws = dense_ws();
        solve_lp_in(&p, &p.lower, &p.upper, 10_000, &mut ws, true).unwrap();
        let r = solve_lp_in(&p, &p.lower, &[2.0, 2.0], 10_000, &mut ws, true);
        assert_eq!(r, Err(SolveError::Infeasible));
        assert_eq!(ws.warm_starts(), 1, "infeasibility proven on the warm path");
    }

    #[test]
    fn warm_resolve_after_loosening_bounds() {
        // Warm starts must also handle bounds that loosen relative to the
        // retained basis (best-first search jumps between subtrees).
        let mut p = Problem::new();
        let x = p.add_var(0.0, 2.0, -1.0, false);
        let y = p.add_var(0.0, 2.0, -1.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 10.0);

        let mut ws = dense_ws();
        solve_lp_in(&p, &p.lower, &[1.0, 1.0], 10_000, &mut ws, true).unwrap();
        let loose = solve_lp_in(&p, &p.lower, &[2.0, 2.0], 10_000, &mut ws, true).unwrap();
        assert_close(loose.objective, -4.0);
    }
}
