//! Sparse revised simplex over an LU-factored basis, **dual first**.
//!
//! This is the production backend, at every problem size: at 972
//! constraints a dense-tableau pivot streams ~13 MB, while Wishbone's
//! constraint matrices carry ≈2 nonzeros per row (`f_u ≥ f_v` precedence
//! rows plus a few budget rows) — exactly the shape where a revised
//! method that only touches what changed per iteration wins by orders of
//! magnitude. The tableau is never formed:
//! entering columns come from an FTRAN (`Bα = a_e`), duals and pivot rows
//! from a BTRAN, and each pivot appends an eta to the factorization
//! (`lu.rs`), which refactorizes — and recomputes `x_B`, bounding drift —
//! once the eta file outgrows its nonzero budget
//! ([`ETA_NNZ_FACTOR`](crate::lu::ETA_NNZ_FACTOR) nonzeros per row). The
//! sparse FTRANs and BTRANs apply only the etas that can act on their
//! vector, so the file's length costs nothing by itself: the 22-channel
//! chain's root LP factorizes once in 1,299 pivots. That budget is the
//! only refactorization rule: a warm re-entry keeps the LU and eta file
//! it finds (they are its basis's) and only recomputes `x_B`, so a
//! branch-and-bound child or a rate retarget costs no factorization of
//! its own: the sparse smoke's forest replay, 28 probes each solved in
//! one workspace, factorizes once.
//!
//! # One tail, two ways in
//!
//! Every solve that can ends in the same two steps: a bounded-variable
//! **dual simplex** ([`dual_repair_sparse`]) drives a dual-feasible basis
//! to primal feasibility — or proves the LP infeasible, which is final —
//! and a **primal** pass ([`run_phase_sparse`]) certifies optimality,
//! usually in a handful of iterations. What differs is where the basis
//! comes from:
//!
//! * **warm** ([`solve_warm_sparse`]): the retained optimal basis of the
//!   previous solve, under new bounds (a branch-and-bound child);
//! * **cold, dual-first** ([`load_sparse`]): the slack basis with every
//!   nonbasic structural parked at the bound its cost prefers (upper if
//!   `c_j < 0`, else lower). With all duals zero the reduced costs are
//!   the costs themselves, so this basis is dual feasible for free;
//!   inequality slacks start basic even where that makes them negative,
//!   and those are the rows the dual simplex repairs. The loader takes
//!   this start whenever the `Problem` admits it: no equality row (which
//!   would need an artificial) and a finite bound on the improving side
//!   of every column. Wishbone's indicator variables are all boxed, so
//!   its encodings always qualify — and the primal's long stall on the
//!   all-zero vertex, where every precedence row is tight, never happens.
//!
//! Everything else — and any dual pass that ends in numerical doubt —
//! takes the **two-phase primal** ([`two_phase_sparse`]) from the slack /
//! artificial crash basis: Dantzig pricing over rotating sections with a
//! Bland's-rule fallback after a degenerate run, the dense backend's
//! bound-flipping ratio test. That is the last rung: what it returns is
//! the solve's answer. The dense tableau (`simplex.rs`) stays the
//! differential oracle; `tests/proptest_revised.rs` holds this backend to
//! its verdicts and objectives.
//!
//! # What one dual iteration costs
//!
//! Not `O(m + n + nnz(A))` — every step follows the nonzeros it meets:
//!
//! 1. **Leaving row**, by dual steepest edge: among the basis positions
//!    whose variable violates a bound, the one maximising `viol_i² / w_i`
//!    with `w_i = ‖e_iᵀB⁻¹‖²`, the lowest position on ties — the top of a
//!    lazy max-heap keyed `(viol_i²/w_i, lowest position)`, not a scan. A
//!    pivot changes violations and weights only where `α` is nonzero, so
//!    only those positions are re-keyed (a fresh entry pushed; the old one
//!    is dropped when it surfaces and no longer matches its position); a
//!    refactorization rewrites every basic value and rebuilds the heap in
//!    one heapify. The choice is exactly a full scan's, which debug builds
//!    check at every selection. Normalising by `w_i` is
//!    what keeps everything below cheap: the largest raw violation tends
//!    to sit on a row whose `ρ` is long, and a long `ρ` means a dense
//!    pivot row, a dense entering column and a dense eta.
//! 2. **Pivot row**: `ρ = B⁻ᵀe_r` from a hypersparse BTRAN with its
//!    nonzero rows listed; `ρᵀA` is scattered from those rows of a
//!    row-major copy of `A` into a stamped accumulator, so the ratio test
//!    and the reduced-cost update walk only the columns the row touches.
//!    Ties in the ratio test break by larger `|α|`, then lower column
//!    index, so the choice does not depend on the order columns were
//!    touched in.
//! 3. **Entering column**: `α = B⁻¹a_e`, a hypersparse FTRAN.
//! 4. **Weight update**: a second hypersparse FTRAN, `τ = B⁻¹ρ`, gives
//!    the cross terms `τ_i = ρ_i·ρ_r`; over the nonzeros of `α`,
//!    `w_i ← max(w_i − 2(α_i/α_r)τ_i + (α_i/α_r)²w_r, floor)`, and
//!    `w_r ← w_r/α_r²` — with `w_r = ‖ρ‖²` recomputed from the `ρ` in
//!    hand rather than trusted, so an inexact weight is corrected the
//!    moment its row is chosen.
//!
//! The weights' lifecycle: **cold load** — exactly 1 (both starting
//! bases are diagonal ±1), so a cold solve owes nothing to what the
//! workspace solved before; **dual pivot** — the exact update above;
//! **refactorization** and **warm re-entry** — kept (neither changes the
//! basis; a branch-and-bound child or a rate retarget resumes with the
//! weights, and the factorization, its parent ended on);
//! **reload** — reset with everything else.
//! A **primal pivot** updates the replaced position only (`w_r ← w_r/α_r²`
//! needs no solve) and leaves the other positions `α` touches as they
//! were: exact there would cost the primal a BTRAN and an FTRAN per pivot
//! to serve a dual pass that usually never follows, and a stale weight
//! can cost the next dual pass pivots, never its verdict — the weights
//! only rank candidate rows.
//!
//! [`dual_repair_sparse`]: SimplexWorkspace::dual_repair_sparse
//! [`run_phase_sparse`]: SimplexWorkspace::run_phase_sparse
//! [`solve_warm_sparse`]: SimplexWorkspace::solve_warm_sparse
//! [`load_sparse`]: SimplexWorkspace::load_sparse
//! [`two_phase_sparse`]: SimplexWorkspace::two_phase_sparse

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::lu::LuFactors;
use crate::num::is_exact_zero;
use crate::problem::{LpSolution, Problem, Sense, SolveError};
use crate::refutation::Refutation;
use crate::simplex::{DualOutcome, WarmOutcome, DEGENERATE_LIMIT, DUAL_FEAS_TOL, EPS, PIVOT_TOL};
use crate::sparse::{CscMatrix, CsrMatrix};
use crate::workspace::{refill, SimplexWorkspace, VarStatus};

/// Steepest-edge weights never drop below this: the recurrence subtracts
/// nearly equal numbers when a row of `B⁻¹` shrinks, and a weight that
/// cancelled to zero or below would make its row win every selection.
const WEIGHT_FLOOR: f64 = 1e-12;

/// Everything the sparse backend owns beyond the shared workspace
/// bookkeeping: the constraint matrix, the basis factorization, and the
/// scratch vectors the solves consume. All buffers are reused across
/// loads and every one of them is reset by [`resize`](Self::resize), so
/// nothing a previous solve left behind can reach the next. A workspace
/// that only ever runs the reference tableau never allocates any of this.
#[derive(Debug, Default)]
pub(crate) struct SparseState {
    /// Structural + slack + signed-artificial columns, CSC.
    pub(crate) matrix: CscMatrix,
    /// Row-major copy of the structural + slack columns (pivot rows).
    rows: CsrMatrix,
    /// Raw right-hand sides (no row flipping — artificial signs carry
    /// the orientation instead).
    pub(crate) b: Vec<f64>,
    lu: LuFactors,
    /// LU factorizations since the counters were last reset.
    pub(crate) refactorizations: u64,
    /// Test-only override: the factorization with this ordinal (as
    /// `refactorizations` counts them) reports a numerically singular
    /// basis, which no well-posed instance is known to produce.
    #[cfg(test)]
    singular_at: Option<u64>,
    /// Scratch indexed by original row (FTRAN input, zeroed after use).
    worig: Vec<f64>,
    /// Scratch indexed by basis position (BTRAN input / FTRAN output).
    wpos: Vec<f64>,
    /// The entering column in the basis frame. Sparse: only positions in
    /// `alpha_nnz` (stamped with `alpha_epoch`) are live; the rest is
    /// stale storage. This keeps the ratio test, the basic-value update,
    /// and the eta harvest `O(nnz(α))` instead of `O(m)` per iteration.
    alpha: Vec<f64>,
    /// Live positions of `alpha`, deduplicated via `alpha_stamp`.
    alpha_nnz: Vec<usize>,
    alpha_stamp: Vec<u64>,
    alpha_epoch: u64,
    /// Duals `y` (by original row) from the pricing BTRAN.
    y: Vec<f64>,
    /// Pivot row `ρ = B⁻ᵀ e_r` (by original row) for the dual simplex:
    /// zero outside the rows listed in `rho_nnz`.
    rho: Vec<f64>,
    rho_nnz: Vec<u32>,
    /// `ρᵀA` by column — the dual simplex's pivot row `α_r`. Sparse: only
    /// the columns in `row_cols` (stamped with `row_epoch`) are live.
    row_acc: Vec<f64>,
    row_cols: Vec<u32>,
    row_stamp: Vec<u32>,
    row_epoch: u32,
    /// Admissible columns of the current dual ratio test.
    ratio_cand: Vec<u32>,
    /// Signed bound violation of the basic variable at each basis
    /// position (`> 0`: above its upper bound, `< 0`: below its lower,
    /// `0`: within tolerance), maintained by the dual simplex.
    viol: Vec<f64>,
    /// The leaving-row candidates, a lazy max-heap keyed by
    /// `(viol²/w as bits, lowest position)`. An entry is a claim, checked
    /// against `viol` and `weight` when it reaches the top: one whose
    /// score is no longer its position's is dropped there. Every
    /// violated position has at least one current entry: each dual pass
    /// starts from a rebuild, each write of a nonzero violation pushes
    /// one, and within a pass a weight only changes on a position whose
    /// violation is rewritten right after.
    leaving: BinaryHeap<(u64, Reverse<u32>)>,
    /// Dual steepest-edge weights `w_i = ‖e_iᵀB⁻¹‖²` by basis position
    /// (see the module docs for their lifecycle).
    weight: Vec<f64>,
    /// `τ = B⁻¹ρ` in the basis frame, the cross terms `ρ_i·ρ_r` of the
    /// weight update. Sparse like `alpha`: live positions are stamped
    /// with `tau_epoch`.
    tau: Vec<f64>,
    tau_nnz: Vec<usize>,
    tau_stamp: Vec<u64>,
    tau_epoch: u64,
    /// Reduced costs `d = c − Aᵀy` by column, maintained by the dual
    /// simplex from pivot to pivot (the primal re-prices from `y`).
    dj: Vec<f64>,
    /// Is `y` current for the present basis and costs? Bound flips
    /// leave the basis (and hence the duals) untouched, so flip-heavy
    /// stretches price without a single BTRAN.
    duals_fresh: bool,
    /// Set when a dual pass proves the LP infeasible: whether the basic
    /// variable of the row it could not repair sat above its upper bound
    /// (`true`) or below its lower. `rho` still holds that row, which
    /// [`SimplexWorkspace::refutation`] reads; every LP solve clears it.
    pub(crate) refuted: Option<bool>,
}

impl SparseState {
    /// Size every scratch buffer for an `m`-row problem whose structural
    /// and slack columns number `n_priced`, and return it to its initial
    /// state.
    fn resize(&mut self, m: usize, n_priced: usize) {
        refill(&mut self.worig, m, 0.0);
        refill(&mut self.wpos, m, 0.0);
        refill(&mut self.alpha, m, 0.0);
        refill(&mut self.alpha_stamp, m, 0);
        self.alpha_nnz.clear();
        self.alpha_epoch = 0;
        refill(&mut self.y, m, 0.0);
        refill(&mut self.rho, m, 0.0);
        self.rho_nnz.clear();
        refill(&mut self.row_acc, n_priced, 0.0);
        refill(&mut self.row_stamp, n_priced, 0);
        self.row_cols.clear();
        self.row_epoch = 0;
        self.ratio_cand.clear();
        refill(&mut self.viol, m, 0.0);
        self.leaving.clear();
        // Every cold start is a diagonal ±1 basis: the weights are
        // exactly 1, at no cost.
        refill(&mut self.weight, m, 1.0);
        refill(&mut self.tau, m, 0.0);
        refill(&mut self.tau_stamp, m, 0);
        self.tau_nnz.clear();
        self.tau_epoch = 0;
        refill(&mut self.dj, n_priced, 0.0);
        self.duals_fresh = false;
    }

    /// Refactorize from the given basis, clearing the eta file. `false`
    /// means the basis is numerically singular.
    fn refactor(&mut self, basis: &[usize]) -> bool {
        self.refactorizations += 1;
        #[cfg(test)]
        if self.singular_at == Some(self.refactorizations) {
            return false;
        }
        self.lu.factorize(&self.matrix, basis)
    }

    /// `α ← B⁻¹ a_j` (sparse, live positions in `self.alpha_nnz`).
    ///
    /// `worig` is clean here by invariant: the FTRAN consumes its input
    /// back to zero, and every other writer restores it.
    fn ftran_col(&mut self, j: usize) {
        debug_assert!(self.worig.iter().all(|&v| is_exact_zero(v)));
        self.matrix.axpy_col(j, 1.0, &mut self.worig);
        self.alpha_epoch += 1;
        self.alpha_nnz.clear();
        self.lu.ftran_sparse(
            &mut self.worig,
            self.matrix.col(j).0.iter().copied(),
            &mut self.alpha,
            &mut self.alpha_stamp,
            self.alpha_epoch,
            &mut self.alpha_nnz,
        );
    }

    /// The live value of `α` at position `i` (0 when unstamped).
    #[inline]
    fn alpha_at(&self, i: usize) -> f64 {
        if self.alpha_stamp[i] == self.alpha_epoch {
            self.alpha[i]
        } else {
            0.0
        }
    }

    /// Solve `B·x = worig` into `wpos` (caller prepared `worig`; it is
    /// consumed). Applies the eta file, so it is valid mid-solve.
    fn ftran_rhs(&mut self) {
        self.lu.ftran(&mut self.worig, &mut self.wpos);
    }

    /// Duals: `y ← B⁻ᵀ · wpos` (caller filled `wpos` with `c_B`; it is
    /// consumed as scratch).
    fn btran_duals(&mut self) {
        self.lu.btran(&mut self.wpos, &mut self.y);
    }

    /// The dual simplex's pivot row for basis position `r`: `ρ ← B⁻ᵀe_r`
    /// (hypersparse), then `α_r = ρᵀA` scattered from the nonzero rows of
    /// `ρ` over the structural and slack columns into `row_acc`, with the
    /// touched columns listed in `row_cols`.
    fn pivot_row(&mut self, r: usize) {
        for &i in &self.rho_nnz {
            self.rho[i as usize] = 0.0;
        }
        self.rho_nnz.clear();
        self.lu.btran_unit(r, &mut self.rho, &mut self.rho_nnz);

        if self.row_epoch == u32::MAX {
            self.row_stamp.iter_mut().for_each(|s| *s = 0);
            self.row_epoch = 0;
        }
        self.row_epoch += 1;
        let epoch = self.row_epoch;
        self.row_cols.clear();
        for &i in &self.rho_nnz {
            let rho_i = self.rho[i as usize];
            let (cols, vals) = self.rows.row(i as usize);
            for (&j, &a) in cols.iter().zip(vals) {
                let ju = j as usize;
                if self.row_stamp[ju] != epoch {
                    self.row_stamp[ju] = epoch;
                    self.row_acc[ju] = 0.0;
                    self.row_cols.push(j);
                }
                self.row_acc[ju] += rho_i * a;
            }
        }
    }

    /// The dual steepest-edge score of basis position `i`, as the bits
    /// the heap orders by (a positive `f64` orders like its bits).
    #[inline]
    fn score_bits(&self, i: usize) -> u64 {
        let v = self.viol[i];
        (v * v / self.weight[i]).to_bits()
    }

    /// Record the violation of basis position `i`, keying the position
    /// into the leaving heap if it is infeasible.
    #[inline]
    fn set_violation(&mut self, i: usize, v: f64) {
        self.viol[i] = v;
        if !is_exact_zero(v) {
            self.leaving.push((self.score_bits(i), Reverse(i as u32)));
        }
    }

    /// The dual simplex's leaving row: the infeasible basis position
    /// maximising `viol² / w`, the lowest such position on ties — the top
    /// of the heap once the entries that no longer hold are popped.
    /// `None`: the basis is primal feasible.
    fn choose_leaving(&mut self) -> Option<usize> {
        while let Some(&(score, Reverse(i))) = self.leaving.peek() {
            let i = i as usize;
            if !is_exact_zero(self.viol[i]) && self.score_bits(i) == score {
                debug_assert_eq!(Some(i), self.scan_leaving(), "heap vs full scan");
                return Some(i);
            }
            self.leaving.pop();
        }
        debug_assert_eq!(None, self.scan_leaving(), "heap vs full scan");
        None
    }

    /// What the heap must agree with: the same rule as a scan over every
    /// basis position (the debug-build check in `choose_leaving`).
    fn scan_leaving(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in self.viol.iter().enumerate() {
            if is_exact_zero(v) {
                continue;
            }
            let score = v * v / self.weight[i];
            if best.is_none_or(|(_, bs)| score > bs) {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Carry the steepest-edge weights through a dual pivot at position
    /// `r`: `ρ` is the pivot row just used and `α` the entering column,
    /// both still in hand and both in the *old* basis frame, so this runs
    /// before the eta is pushed. One extra hypersparse FTRAN gives
    /// `τ = B⁻¹ρ`, whose entry `τ_i = ρ_i·ρ_r` is the cross term of
    /// `‖ρ_i − (α_i/α_r)ρ_r‖²`; `w_r` itself is recomputed from `ρ`, so an
    /// inexact weight is corrected the moment its row is chosen.
    fn update_weights(&mut self, r: usize) {
        debug_assert!(self.worig.iter().all(|&v| is_exact_zero(v)));
        let mut w_r = 0.0;
        for &i in &self.rho_nnz {
            let v = self.rho[i as usize];
            self.worig[i as usize] = v;
            w_r += v * v;
        }
        self.tau_epoch += 1;
        self.tau_nnz.clear();
        self.lu.ftran_sparse(
            &mut self.worig,
            self.rho_nnz.iter().map(|&i| i as usize),
            &mut self.tau,
            &mut self.tau_stamp,
            self.tau_epoch,
            &mut self.tau_nnz,
        );
        let alpha_r = self.alpha[r];
        for &i in &self.alpha_nnz {
            if i == r {
                continue;
            }
            let k = self.alpha[i] / alpha_r;
            if is_exact_zero(k) {
                continue;
            }
            let tau_i = if self.tau_stamp[i] == self.tau_epoch {
                self.tau[i]
            } else {
                0.0
            };
            self.weight[i] = (self.weight[i] - 2.0 * k * tau_i + k * k * w_r).max(WEIGHT_FLOOR);
        }
        self.weight[r] = (w_r / (alpha_r * alpha_r)).max(WEIGHT_FLOOR);
    }

    /// Append the update for a pivot at basis position `r` whose entering
    /// column is currently in `self.alpha`.
    fn push_eta(&mut self, r: usize) {
        self.lu.push_eta(r, &self.alpha, &self.alpha_nnz);
    }
}

impl SimplexWorkspace {
    /// Cold build for the sparse backend: same shared-array layout as the
    /// dense [`load`](SimplexWorkspace::load) (structural, slack,
    /// artificial columns), but no tableau — the constraint matrix goes
    /// to CSC (plus its row-major copy) and the starting basis is
    /// LU-factorized (trivially: it is diagonal).
    ///
    /// With `allow_dual_first`, and when the problem admits it (see the
    /// module docs), the start is the dual-feasible one: slack basis,
    /// structurals at their cost-preferred bounds, phase-2 costs loaded,
    /// and no artificial columns at all (`n == first_artificial`) — and
    /// `true` is returned. Otherwise it is the two-phase primal's crash
    /// basis, one signed artificial per row.
    fn load_sparse(
        &mut self,
        problem: &Problem,
        lower: &[f64],
        upper: &[f64],
        iteration_limit: u64,
        allow_dual_first: bool,
    ) -> bool {
        let n_structural = problem.num_vars();
        let m = problem.num_constraints();
        let n_slack = problem
            .constraints
            .iter()
            .filter(|c| c.sense != Sense::Eq)
            .count();
        let first_artificial = n_structural + n_slack;

        // The dual-first gate, read off the problem as handed over: no
        // row needs an artificial (no equalities — an inequality's slack
        // may start basic at any sign) and every column has a finite
        // bound to park at on the side its cost improves towards.
        let dual_first = allow_dual_first
            && n_slack == m
            && (0..n_structural).all(|j| {
                lower[j].is_finite() && (problem.objective[j] >= 0.0 || upper[j].is_finite())
            });
        // No row needs an artificial, so none is created: the column
        // space ends at the slacks.
        let n = first_artificial + if dual_first { 0 } else { m };

        self.m = m;
        self.n = n;
        self.n_structural = n_structural;
        self.first_artificial = first_artificial;

        refill(&mut self.lower, n, 0.0);
        refill(&mut self.upper, n, f64::INFINITY);
        self.lower[..n_structural].copy_from_slice(lower);
        self.upper[..n_structural].copy_from_slice(upper);

        refill(&mut self.x, n, 0.0);
        refill(&mut self.status, n, VarStatus::AtLower);
        for j in 0..n_structural {
            if dual_first && problem.objective[j] < 0.0 {
                self.x[j] = upper[j];
                self.status[j] = VarStatus::AtUpper;
            } else {
                self.x[j] = lower[j];
            }
        }
        self.basis.clear();

        // Slack crash basis: an inequality row whose residual (with the
        // nonbasic variables at their starting bounds) has the sign its
        // slack can absorb starts with the *slack* basic — no artificial,
        // no phase-1 work for that row. Under the dual-first start every
        // slack is basic whatever its sign: a negative one is a primal
        // infeasibility for the dual simplex to repair. Under the primal
        // start only equality or wrong-signed rows fall back to an
        // artificial (whose sign makes its starting value `|residual|`).
        self.sparse.b.clear();
        let mut art_sign = std::mem::take(&mut self.sparse.worig);
        art_sign.clear();
        let mut slack_col = n_structural;
        for (i, c) in problem.constraints.iter().enumerate() {
            self.sparse.b.push(c.rhs);
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * self.x[v.0]).sum();
            let residual = c.rhs - lhs;
            let slack_value = match c.sense {
                Sense::Le => residual,
                Sense::Ge => -residual,
                Sense::Eq => -1.0,
            };
            if !dual_first {
                art_sign.push(if residual >= 0.0 { 1.0 } else { -1.0 });
            }
            if dual_first || slack_value >= 0.0 {
                self.x[slack_col] = slack_value;
                self.status[slack_col] = VarStatus::Basic;
                self.basis.push(slack_col);
            } else {
                let art = first_artificial + i;
                self.x[art] = residual.abs();
                self.status[art] = VarStatus::Basic;
                self.basis.push(art);
            }
            if c.sense != Sense::Eq {
                slack_col += 1;
            }
        }
        debug_assert_eq!(slack_col, first_artificial);
        self.sparse.matrix.load(problem, &art_sign);
        self.sparse.rows.load(problem);
        self.sparse.worig = art_sign;

        self.loaded_stamp = problem.matrix_stamp;

        refill(&mut self.cost, n, 0.0);
        self.iterations = 0;
        self.iteration_limit = iteration_limit;
        self.degenerate_run = 0;
        self.scan_limit = n;
        self.price_cursor = 0;
        if dual_first {
            // No phase 1: the real costs are in place from the start.
            self.cost[..n_structural].copy_from_slice(&problem.objective);
        }

        self.sparse.resize(m, first_artificial);
        self.sparse.refactorizations += 1;
        self.sparse
            .lu
            .factorize_diagonal(&self.sparse.matrix, &self.basis);
        dual_first
    }

    /// Cold solve on the sparse backend: the dual-first start when the
    /// loader grants it, the two-phase primal otherwise — and as the
    /// landing spot when the dual pass gives up (never after it proves
    /// infeasibility: that verdict is final).
    pub(crate) fn solve_cold_sparse(
        &mut self,
        problem: &Problem,
        lower: &[f64],
        upper: &[f64],
        iteration_limit: u64,
    ) -> Result<LpSolution, SolveError> {
        let mut burned = 0;
        if self.load_sparse(problem, lower, upper, iteration_limit, true) {
            match self.dual_then_primal_sparse() {
                WarmOutcome::Solved(s) => return Ok(s),
                WarmOutcome::Infeasible => return Err(SolveError::Infeasible),
                WarmOutcome::Retry => {
                    burned = self.iterations;
                    self.load_sparse(problem, lower, upper, iteration_limit, false);
                }
            }
        }
        self.two_phase_sparse(problem).map(|mut s| {
            s.iterations += burned;
            s
        })
    }

    /// Two-phase primal from the crash basis of a primal-start
    /// [`load_sparse`](SimplexWorkspace::load_sparse), mirroring the dense
    /// [`solve_cold`](SimplexWorkspace::solve_cold).
    fn two_phase_sparse(&mut self, problem: &Problem) -> Result<LpSolution, SolveError> {
        let needs_phase1 = (0..self.m).any(|i| self.x[self.first_artificial + i] > EPS);
        if needs_phase1 {
            for j in self.first_artificial..self.n {
                self.cost[j] = 1.0;
            }
            self.run_phase_sparse()?;
            let infeas: f64 = (self.first_artificial..self.n).map(|j| self.x[j]).sum();
            if infeas > 1e-6 {
                return Err(SolveError::Infeasible);
            }
        }
        for j in self.first_artificial..self.n {
            self.upper[j] = 0.0;
            self.x[j] = 0.0;
            self.cost[j] = 0.0;
        }

        self.scan_limit = self.first_artificial;
        for j in 0..self.n {
            self.cost[j] = if j < self.n_structural {
                problem.objective[j]
            } else {
                0.0
            };
        }
        self.degenerate_run = 0;
        self.sparse.duals_fresh = false; // costs changed between phases
        self.run_phase_sparse()?;
        Ok(self.solution_sparse())
    }

    fn solution_sparse(&self) -> LpSolution {
        LpSolution {
            objective: self.objective(),
            values: self.x[..self.n_structural].to_vec(),
            iterations: self.iterations,
        }
    }

    /// Warm solve on the sparse backend: snap nonbasic variables onto
    /// the new bounds, reread `b`, recompute `x_B` through the retained
    /// factorization (no refactorization: the eta file's nonzero budget
    /// in [`pivot_sparse`](Self::pivot_sparse) is the only rule that
    /// refreshes it), then the shared dual-then-primal tail.
    pub(crate) fn solve_warm_sparse(
        &mut self,
        problem: &Problem,
        lower: &[f64],
        upper: &[f64],
        iteration_limit: u64,
    ) -> WarmOutcome {
        if !self.warm_load_sparse(problem, lower, upper, iteration_limit) {
            return WarmOutcome::Retry;
        }
        self.dual_then_primal_sparse()
    }

    /// The tail every dual-feasible start shares, warm or cold: a bounded
    /// dual-simplex pass to primal feasibility, then a primal pass that
    /// certifies optimality. `Retry` (numerical doubt, or a budget ran
    /// out) sends the caller to a fresh start; `Infeasible` is a proof.
    fn dual_then_primal_sparse(&mut self) -> WarmOutcome {
        // A healthy dual pass needs well under `2m` pivots; one that
        // still flails beyond that is cheaper to redo from the crash
        // basis than to grind out.
        let dual_budget = (self.m as u64 * 2 + 64).min(self.iteration_limit);
        match self.dual_repair_sparse(dual_budget) {
            DualOutcome::Feasible => {}
            DualOutcome::Infeasible => return WarmOutcome::Infeasible,
            DualOutcome::GiveUp => return WarmOutcome::Retry,
        }
        self.degenerate_run = 0;
        match self.run_phase_sparse() {
            Ok(()) => WarmOutcome::Solved(self.solution_sparse()),
            Err(_) => WarmOutcome::Retry,
        }
    }

    /// Re-enter the retained basis under new bounds and right-hand
    /// sides, keeping its LU and eta file. `false` when a nonbasic
    /// variable sits at an upper bound that is now infinite.
    fn warm_load_sparse(
        &mut self,
        problem: &Problem,
        lower: &[f64],
        upper: &[f64],
        iteration_limit: u64,
    ) -> bool {
        self.lower[..self.n_structural].copy_from_slice(lower);
        self.upper[..self.n_structural].copy_from_slice(upper);
        for j in 0..self.n_structural {
            match self.status[j] {
                VarStatus::Basic => {}
                VarStatus::AtLower => self.x[j] = self.lower[j],
                VarStatus::AtUpper => {
                    if !self.upper[j].is_finite() {
                        return false;
                    }
                    self.x[j] = self.upper[j];
                }
            }
        }
        for j in 0..self.n {
            self.cost[j] = if j < self.n_structural {
                problem.objective[j]
            } else {
                0.0
            };
        }
        self.iterations = 0;
        self.iteration_limit = iteration_limit;
        self.degenerate_run = 0;
        self.scan_limit = self.first_artificial;
        self.price_cursor = 0;
        self.sparse.duals_fresh = false;
        // The caller may have moved right-hand sides since the load (a
        // rate retarget moves the budget rows'): `b` is kept raw, so
        // rereading it is all it takes — the basic values below are
        // derived from it, and the dual pass repairs what went infeasible.
        self.sparse.b.clear();
        self.sparse
            .b
            .extend(problem.constraints.iter().map(|c| c.rhs));
        // The retained LU and eta file are the basis's already: every
        // pivot since the last factorization appended its eta, and a
        // solve that could not keep them in step invalidated the
        // workspace. Only `x_B` is stale (new `b`, new nonbasic values).
        #[cfg(debug_assertions)]
        self.assert_factors_are_the_basis();
        self.recompute_basic_x_sparse();
        true
    }

    /// Debug builds, at warm entry: FTRAN of a sample of basic columns
    /// (every ⌈m/8⌉-th position, the last included) must return their
    /// unit vectors, or the retained factors are not this basis's.
    #[cfg(debug_assertions)]
    fn assert_factors_are_the_basis(&mut self) {
        let m = self.m;
        let sample = (0..m).step_by(m.div_ceil(8).max(1)).chain(m.checked_sub(1));
        for k in sample {
            self.sparse.ftran_col(self.basis[k]);
            for &i in &self.sparse.alpha_nnz {
                let want = if i == k { 1.0 } else { 0.0 };
                let got = self.sparse.alpha_at(i);
                assert!(
                    (got - want).abs() <= 1e-7,
                    "retained factors: B⁻¹·B e_{k} has {got} at position {i}"
                );
            }
            assert!(
                (self.sparse.alpha_at(k) - 1.0).abs() <= 1e-7,
                "retained factors: B⁻¹·B e_{k} misses its unit entry"
            );
        }
    }

    /// Re-derive every basic value from the factorized invariant
    /// `x_B = B⁻¹(b − N·x_N)` — the step that discards accumulated drift
    /// at each refactorization.
    fn recompute_basic_x_sparse(&mut self) {
        self.sparse.worig.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..self.m {
            self.sparse.worig[i] = self.sparse.b[i];
        }
        for j in 0..self.n {
            if self.status[j] == VarStatus::Basic || is_exact_zero(self.x[j]) {
                continue;
            }
            self.sparse
                .matrix
                .axpy_col(j, -self.x[j], &mut self.sparse.worig);
        }
        self.sparse.ftran_rhs();
        for k in 0..self.m {
            self.x[self.basis[k]] = self.sparse.wpos[k];
        }
    }

    fn run_phase_sparse(&mut self) -> Result<(), SolveError> {
        loop {
            if self.iterations >= self.iteration_limit {
                return Err(SolveError::IterationLimit);
            }
            self.iterations += 1;
            self.primal_iterations += 1;
            if !self.step_sparse()? {
                return Ok(());
            }
        }
    }

    /// Admissibility and score of nonbasic column `j` against the current
    /// duals, mirroring the dense
    /// [`choose_entering`](SimplexWorkspace::choose_entering) rule.
    #[inline]
    fn price_col(&self, j: usize) -> Option<(f64, f64)> {
        match self.status[j] {
            VarStatus::Basic => None,
            VarStatus::AtLower => {
                let d = self.cost[j] - self.sparse.matrix.col_dot(j, &self.sparse.y);
                (d < -EPS).then_some((1.0, -d))
            }
            VarStatus::AtUpper => {
                let d = self.cost[j] - self.sparse.matrix.col_dot(j, &self.sparse.y);
                (d > EPS).then_some((-1.0, d))
            }
        }
    }

    /// Price against freshly BTRANed duals (cached across bound flips,
    /// which leave the basis — and hence the duals — unchanged).
    ///
    /// Unlike the dense path, reduced costs are not maintained; each one
    /// is a small gather, so a full Dantzig scan per iteration would make
    /// the *scan* the dominant per-iteration cost at partitioning sizes.
    /// Instead: **sectional partial pricing** — take the best admissible
    /// column within a rotating section, falling through to the next
    /// section (wrapping once around, which doubles as the optimality
    /// certificate) only when a section prices clean. Under Bland's rule
    /// the scan is always full and lowest-index-first, so the
    /// anti-cycling guarantee is untouched.
    fn price_sparse(&mut self, bland: bool) -> Option<(usize, f64)> {
        if !self.sparse.duals_fresh {
            for k in 0..self.m {
                self.sparse.wpos[k] = self.cost[self.basis[k]];
            }
            self.sparse.btran_duals();
            self.sparse.duals_fresh = true;
        }
        if bland {
            for j in 0..self.scan_limit {
                if let Some((dir, _)) = self.price_col(j) {
                    return Some((j, dir));
                }
            }
            return None;
        }
        let n = self.scan_limit;
        let section = 64.max(n / 8);
        let mut j = if self.price_cursor < n {
            self.price_cursor
        } else {
            0
        };
        let mut scanned = 0;
        while scanned < n {
            let stop = (scanned + section).min(n);
            let mut best: Option<(usize, f64, f64)> = None; // (col, dir, score)
            while scanned < stop {
                if let Some((dir, score)) = self.price_col(j) {
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((j, dir, score));
                    }
                }
                j += 1;
                if j == n {
                    j = 0;
                }
                scanned += 1;
            }
            if let Some((col, dir, _)) = best {
                self.price_cursor = j;
                return Some((col, dir));
            }
        }
        None
    }

    /// One revised-simplex iteration: price, FTRAN the entering column,
    /// run the dense backend's exact bounded ratio test against `α`, then
    /// either bound-flip or pivot (recording an eta).
    fn step_sparse(&mut self) -> Result<bool, SolveError> {
        let bland = self.force_bland || self.degenerate_run > DEGENERATE_LIMIT;
        let Some((e, dir)) = self.price_sparse(bland) else {
            return Ok(false);
        };
        self.sparse.ftran_col(e);

        let flip = self.upper[e] - self.lower[e];
        let mut best_t = f64::INFINITY;
        let mut best_row: Option<usize> = None;
        let mut best_coef = 0.0f64;
        for idx in 0..self.sparse.alpha_nnz.len() {
            let i = self.sparse.alpha_nnz[idx];
            let coef = self.sparse.alpha[i];
            if coef.abs() < PIVOT_TOL {
                continue;
            }
            let xb = self.basis[i];
            let v = self.x[xb];
            let rate = -dir * coef;
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
            self.apply_move_sparse(e, dir, flip);
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
        self.apply_move_sparse(e, dir, t_star);
        let leaving = self.basis[r];
        let coef = self.sparse.alpha[r];
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
        // Row `r` of the new `B⁻¹` is the old one over `α_r`, so the
        // replaced position's weight follows without a solve (see the
        // module docs for the positions that do not).
        self.sparse.weight[r] = (self.sparse.weight[r] / (coef * coef)).max(WEIGHT_FLOOR);
        self.pivot_sparse(r)?;
        self.degenerate_run = if t_star <= EPS {
            self.degenerate_run + 1
        } else {
            0
        };
        Ok(true)
    }

    /// Move entering variable `e` by `t` along `dir`, updating the basic
    /// values through the live entries of the entering column `α`.
    fn apply_move_sparse(&mut self, e: usize, dir: f64, t: f64) {
        if is_exact_zero(t) {
            return;
        }
        self.x[e] += dir * t;
        for idx in 0..self.sparse.alpha_nnz.len() {
            let i = self.sparse.alpha_nnz[idx];
            let coef = self.sparse.alpha[i];
            if !is_exact_zero(coef) {
                let xb = self.basis[i];
                self.x[xb] -= dir * t * coef;
            }
        }
    }

    /// Record the basis change at position `r`: append an eta, and
    /// refactorize (recomputing `x_B` to shed drift) once the eta file
    /// outgrows its nonzero budget. `Ok(true)` when it did, i.e. when
    /// every basic value was rewritten.
    fn pivot_sparse(&mut self, r: usize) -> Result<bool, SolveError> {
        self.sparse.duals_fresh = false;
        self.sparse.push_eta(r);
        if self.sparse.lu.due_for_refactor() {
            if !self.sparse.refactor(&self.basis) {
                // A running basis only goes singular through roundoff;
                // surface it as numerical trouble. The dual pass turns
                // this into a fresh primal start; when the two-phase
                // primal itself hits it, the error is the solve's answer.
                return Err(SolveError::IterationLimit);
            }
            self.recompute_basic_x_sparse();
            return Ok(true);
        }
        Ok(false)
    }

    /// Ratio of nonbasic column `j` in the dual ratio test for a leaving
    /// row violated `above` its upper bound (or below its lower), given
    /// the pivot-row entry `alpha`: `None` when the column cannot move the
    /// row the right way, else `(d_eff / |α|, |α|)` with the reduced cost
    /// clamped dual-feasible against drift.
    #[inline]
    fn dual_ratio(&self, j: usize, alpha: f64, above: bool) -> Option<(f64, f64)> {
        let (a_eff, d_eff) = match self.status[j] {
            VarStatus::Basic => return None,
            // At lower: the column can only increase; it reduces an
            // above-violation when α > 0, a below-violation when α < 0.
            VarStatus::AtLower => (
                if above { alpha } else { -alpha },
                self.sparse.dj[j].max(0.0),
            ),
            // At upper: mirrored signs; reduced cost ≤ 0.
            VarStatus::AtUpper => (
                if above { -alpha } else { alpha },
                (-self.sparse.dj[j]).max(0.0),
            ),
        };
        (a_eff > 0.0).then(|| (d_eff / alpha.abs(), alpha.abs()))
    }

    /// Signed violation of the basic variable at basis position `i`
    /// (see `SparseState::viol`).
    #[inline]
    fn bound_violation(&self, i: usize) -> f64 {
        let xb = self.basis[i];
        let v = self.x[xb];
        if v > self.upper[xb] + DUAL_FEAS_TOL {
            v - self.upper[xb]
        } else if v < self.lower[xb] - DUAL_FEAS_TOL {
            v - self.lower[xb]
        } else {
            0.0
        }
    }

    /// Recompute every violation and rebuild the leaving heap, in one
    /// `O(m)` heapify (at entry to the dual pass and after each
    /// refactorization, which rewrites every basic value).
    fn refresh_violations(&mut self) {
        let mut keys = std::mem::take(&mut self.sparse.leaving).into_vec();
        keys.clear();
        for i in 0..self.m {
            let v = self.bound_violation(i);
            self.sparse.viol[i] = v;
            if !is_exact_zero(v) {
                keys.push((self.sparse.score_bits(i), Reverse(i as u32)));
            }
        }
        self.sparse.leaving = BinaryHeap::from(keys);
    }

    /// Bounded-variable dual simplex on the factorization: while some
    /// basic variable violates a bound, pivot it out onto that bound,
    /// choosing the entering column by the dual ratio test so the reduced
    /// costs stay dual feasible. "No admissible entering column" on a
    /// violated row proves primal infeasibility (the row's reachable
    /// range excludes the bound) whatever the reduced costs are.
    ///
    /// Reduced costs are computed once at entry and then maintained with
    /// the standard rule `d ← d − θ·α_r` (θ = d_e/α_re) over the columns
    /// the pivot row touches. The primal phase that follows re-prices
    /// from scratch, so drift here can only affect pivot choice, never
    /// the verdict.
    fn dual_repair_sparse(&mut self, budget: u64) -> DualOutcome {
        let budget = self.dual_giveup_after.map_or(budget, |cap| cap.min(budget));
        for k in 0..self.m {
            self.sparse.wpos[k] = self.cost[self.basis[k]];
        }
        self.sparse.btran_duals();
        for j in 0..self.first_artificial {
            self.sparse.dj[j] = self.cost[j] - self.sparse.matrix.col_dot(j, &self.sparse.y);
        }
        self.refresh_violations();
        loop {
            if self.iterations >= budget {
                return DualOutcome::GiveUp;
            }
            let Some(r) = self.sparse.choose_leaving() else {
                return DualOutcome::Feasible;
            };
            let above = self.sparse.viol[r] > 0.0;
            self.iterations += 1;
            self.dual_iterations += 1;

            self.sparse.pivot_row(r);

            // Dual ratio test over the touched, nonbasic, non-fixed
            // columns, in two passes so the choice is a function of the
            // candidate *set*: the smallest ratio first, then among the
            // columns within `EPS` of it the largest `|α|`, then the
            // lowest index.
            let mut cand = std::mem::take(&mut self.sparse.ratio_cand);
            cand.clear();
            let mut min_ratio = f64::INFINITY;
            let mut dubious = false;
            for &j in &self.sparse.row_cols {
                let ju = j as usize;
                let alpha = self.sparse.row_acc[ju];
                if alpha.abs() < EPS || self.upper[ju] - self.lower[ju] <= 0.0 {
                    continue;
                }
                let Some((ratio, _)) = self.dual_ratio(ju, alpha, above) else {
                    continue;
                };
                if alpha.abs() < PIVOT_TOL {
                    // Right sign but numerically unusable: remember that
                    // the infeasibility "proof" would be unsound.
                    dubious = true;
                    continue;
                }
                min_ratio = min_ratio.min(ratio);
                cand.push(j);
            }
            let mut best: Option<(usize, f64)> = None; // (col, |alpha|)
            for &j in &cand {
                let ju = j as usize;
                let Some((ratio, abs_alpha)) = self.dual_ratio(ju, self.sparse.row_acc[ju], above)
                else {
                    continue;
                };
                if ratio > min_ratio + EPS {
                    continue;
                }
                let take =
                    best.is_none_or(|(bj, ba)| abs_alpha > ba || (abs_alpha >= ba && ju < bj));
                if take {
                    best = Some((ju, abs_alpha));
                }
            }
            self.sparse.ratio_cand = cand;

            let Some((e, _)) = best else {
                return if dubious {
                    DualOutcome::GiveUp
                } else {
                    self.sparse.refuted = Some(above);
                    DualOutcome::Infeasible
                };
            };
            self.sparse.ftran_col(e);
            let alpha = self.sparse.alpha_at(r);
            if alpha.abs() < PIVOT_TOL * 0.5 {
                // FTRAN disagrees with the BTRANed row value: the
                // factorization is too frayed to trust.
                return DualOutcome::GiveUp;
            }
            self.sparse.update_weights(r);
            // Maintain the reduced costs through the basis change: the
            // entering column's drops to zero, the leaving one's (zero
            // while basic, `α_r` = 1) becomes −θ.
            let leaving = self.basis[r];
            let theta = self.sparse.dj[e] / alpha;
            if !is_exact_zero(theta) {
                for &j in &self.sparse.row_cols {
                    let ju = j as usize;
                    self.sparse.dj[ju] -= theta * self.sparse.row_acc[ju];
                }
            }
            self.sparse.dj[e] = 0.0;
            if leaving < self.first_artificial {
                self.sparse.dj[leaving] = -theta;
            }
            let target = if above {
                self.upper[leaving]
            } else {
                self.lower[leaving]
            };
            let delta = (self.x[leaving] - target) / alpha;
            self.apply_move_sparse(e, delta.signum(), delta.abs());
            self.x[leaving] = target;
            self.status[leaving] = if above {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            self.status[e] = VarStatus::Basic;
            self.basis[r] = e;
            // The move touched the basic values along `α` (position `r`,
            // now the entering variable's, among them).
            match self.pivot_sparse(r) {
                Err(_) => return DualOutcome::GiveUp,
                Ok(true) => self.refresh_violations(),
                Ok(false) => {
                    for idx in 0..self.sparse.alpha_nnz.len() {
                        let i = self.sparse.alpha_nnz[idx];
                        let v = self.bound_violation(i);
                        self.sparse.set_violation(i, v);
                    }
                }
            }
        }
    }

    /// The refutation the last LP solve ended on, when the sparse dual
    /// simplex proved it infeasible (see [`Refutation`]), checked against
    /// `problem` — the problem that solve was handed, over its own
    /// bounds. The basic variable of the row it could not repair is
    /// `x_r = ρᵀb − Σ α_j x_j`, every nonbasic column already at the
    /// bound that moves `x_r` towards feasibility and the slack columns
    /// (`α_j = ±ρᵢ`) among them: above its upper bound, `ρᵀAx ≥ ρᵀb`
    /// holds at every feasible point and `−ρ` is the `≤` combination;
    /// below its lower bound, `ρ` is.
    pub(crate) fn refutation(&self, problem: &Problem) -> Option<Refutation> {
        let sign = if self.sparse.refuted? { -1.0 } else { 1.0 };
        let rho = &self.sparse.rho;
        let row = self
            .sparse
            .rho_nnz
            .iter()
            .map(|&i| (i as usize, rho[i as usize]));
        Refutation::from_row(problem, row, sign)
    }

    /// `‖A·x − b‖∞` over the full column space — the factorization-drift
    /// observable the regression tests bound across ≥100 pivots (and
    /// [`basis_residual`](SimplexWorkspace::basis_residual) reports).
    pub(crate) fn sparse_residual_inf(&mut self) -> f64 {
        self.sparse.worig.iter_mut().for_each(|v| *v = 0.0);
        for j in 0..self.n {
            if !is_exact_zero(self.x[j]) {
                self.sparse
                    .matrix
                    .axpy_col(j, self.x[j], &mut self.sparse.worig);
            }
        }
        let r = self
            .sparse
            .worig
            .iter()
            .zip(&self.sparse.b)
            .map(|(ax, b)| (ax - b).abs())
            .fold(0.0f64, f64::max);
        self.sparse.worig.iter_mut().for_each(|v| *v = 0.0);
        r
    }
}

#[cfg(test)]
mod tests {
    use crate::problem::{LpSolution, Problem, Sense, SolveError};
    use crate::simplex::{solve_lp_in, DualOutcome};
    use crate::workspace::{SimplexWorkspace, SolverBackend};

    const SPARSE: SolverBackend = SolverBackend::Sparse;

    /// The reference tableau's answer under `upper`, from a fresh
    /// workspace.
    fn dense_lp(p: &Problem, upper: &[f64], limit: u64) -> LpSolution {
        let mut ws = SimplexWorkspace::new();
        solve_lp_in(p, &p.lower, upper, limit, &mut ws, SolverBackend::Dense).unwrap()
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{a} != {b}");
    }

    /// A long reducing chain with a tight budget row: the kind of LP the
    /// partitioner emits, sized to force well over 100 pivots.
    fn long_chain(n: usize) -> Problem {
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_var(0.0, 1.0, -1.0 - ((i * 7) % 11) as f64 * 0.13, false))
            .collect();
        for w in vars.windows(2) {
            p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
        }
        let row: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 0.4 + ((i * 3) % 5) as f64 * 0.2))
            .collect();
        p.add_constraint(&row, Sense::Le, 0.35 * n as f64);
        p
    }

    #[test]
    fn lu_drift_stays_bounded_over_100_plus_pivots() {
        // The eta file + periodic refactorization must keep the basis
        // residual ‖A·x − b‖∞ at solver tolerance across a solve long
        // enough to span several refactorization cycles.
        let p = long_chain(400);
        let mut ws = SimplexWorkspace::new();
        let s = solve_lp_in(&p, &p.lower, &p.upper, 100_000, &mut ws, SPARSE).unwrap();
        assert!(
            s.iterations >= 100,
            "instance must exercise ≥100 pivots (several refactor cycles), got {}",
            s.iterations
        );
        let drift = ws.sparse_residual_inf();
        assert!(
            drift < 1e-6,
            "factorization drift {drift} exceeds solver tolerance after {} pivots",
            s.iterations
        );
        // And the answer matches the dense oracle.
        let dense = dense_lp(&p, &p.upper, 100_000);
        assert_close(s.objective, dense.objective);
    }

    /// `long_chain(400)` plus an "unlimited" budget row (rhs 1e12,
    /// coefficients in the thousands), last.
    fn vacuous_chain() -> Problem {
        let mut p = long_chain(400);
        let unlimited: Vec<_> = (0..400)
            .map(|i| (crate::VarId(i), 7.0 + ((i * 37) % 2473) as f64))
            .collect();
        p.add_constraint(&unlimited, Sense::Le, 1e12);
        p
    }

    #[test]
    fn a_dense_rows_slack_takes_its_own_row_even_behind_a_bump_column() {
        // Pins `peel_order`'s unit-column rule on a basis built to need
        // it, from the slack basis of the vacuous instance (slack of row
        // `i` at position `i`):
        // * structurals 1..=17 replace the slacks of precedence rows
        //   1..=17 — the peel takes each on its row, and 17 basic columns
        //   crossing them make both budget rows dense;
        // * structural 399, whose only precedence row is 398, takes
        //   position 398 and that row's slack moves to position 399 (the
        //   real budget row's slack leaves). The slack, later in basis
        //   order, is peeled first and takes row 398, so x399 is left to
        //   the bump — ahead of the vacuous row's slack at position 400.
        // Relative to its rows x399 prefers the vacuous one: its 2405 is
        // that row's largest basic entry, its 0.8 two thirds of the real
        // budget row's. Without the rule x399 takes the vacuous row and
        // the slack is left a row it only reaches through fill (row 16).
        let p = vacuous_chain();
        let vacuous = 400;
        let mut ws = SimplexWorkspace::new();
        assert!(ws.load_sparse(&p, &p.lower, &p.upper, 1_000_000, true));
        let n = ws.n_structural; // slack of row `i`: column `n + i`
        let mut basis = ws.basis.clone();
        for (j, col) in basis.iter_mut().enumerate().take(18).skip(1) {
            *col = j;
        }
        basis[398] = 399;
        basis[399] = n + 398;
        assert!(ws.sparse.refactor(&basis));
        assert!(ws.sparse.lu.bump_positions().contains(&398), "x399");
        assert_eq!(
            ws.sparse.lu.pivot_row_of(vacuous),
            vacuous,
            "the slack takes its own row"
        );

        // And on the basis the solver ends on: a fresh factorization's
        // `x_B` holds every row (the real budget row, rhs 140, included).
        solve_lp_in(&p, &p.lower, &p.upper, 1_000_000, &mut ws, SPARSE).unwrap();
        assert!(ws.sparse.refactor(&ws.basis));
        ws.recompute_basic_x_sparse();
        assert!(
            p.is_feasible(&ws.x[..n], 1e-9),
            "fresh `x_B` of the final basis"
        );
    }

    #[test]
    fn a_vacuous_huge_budget_row_does_not_leak_into_the_answer() {
        // Encoders spell "no budget" as a row with a right-hand side of
        // 1e12 over coefficients in the thousands. Its slack never leaves
        // the basis, so the row should be inert — but a factorization
        // that lets its large entries outbid the ±1 precedence rows for
        // pivots threads that 1e12 through the multipliers, and every
        // recomputation of `x_B` then carries ~1e-6 of roundoff: enough
        // to turn an integral optimum fractional. Row-relative pivoting
        // keeps the row decoupled; the answer must be clean to 1e-9.
        let p = vacuous_chain();
        let mut ws = SimplexWorkspace::new();
        let s = solve_lp_in(&p, &p.lower, &p.upper, 1_000_000, &mut ws, SPARSE).unwrap();
        assert!(ws.refactorizations() >= 3, "several `x_B` recomputations");
        assert!(p.is_feasible(&s.values, 1e-9), "sparse point infeasible");
        let dense = dense_lp(&p, &p.upper, 1_000_000);
        assert!(
            (s.objective - dense.objective).abs() < 1e-9 * (1.0 + dense.objective.abs()),
            "sparse {} vs dense {}",
            s.objective,
            dense.objective
        );
    }

    #[test]
    fn drift_bounded_through_warm_resolves_too() {
        // Dual-repair pivots go through the same eta/refactor machinery;
        // the invariant must survive a chain of warm re-solves.
        let p = long_chain(150);
        let mut ws = SimplexWorkspace::new();
        solve_lp_in(&p, &p.lower, &p.upper, 100_000, &mut ws, SPARSE).unwrap();
        let mut upper = p.upper.clone();
        for step in 0..8 {
            // Tighten a different block of variables to 0 each round.
            for u in upper.iter_mut().skip(step * 12).take(8) {
                *u = 0.0;
            }
            let warm = solve_lp_in(&p, &p.lower, &upper, 100_000, &mut ws, SPARSE).unwrap();
            let drift = ws.sparse_residual_inf();
            assert!(drift < 1e-6, "round {step}: drift {drift}");
            let dense = dense_lp(&p, &upper, 100_000);
            assert_close(warm.objective, dense.objective);
        }
    }

    #[test]
    fn a_default_workspace_never_allocates_the_tableau_however_small_the_lp() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, -1.0, false);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 1.0);
        let mut ws = SimplexWorkspace::new();
        let s = solve_lp_in(&p, &p.lower, &p.upper, 1_000, &mut ws, SPARSE).unwrap();
        assert_close(s.objective, -1.0);
        assert!(ws.refactorizations() > 0, "the sparse backend ran");
        assert!(ws.t.is_empty(), "the dense tableau was never loaded");
    }

    #[test]
    fn dual_giveup_lands_on_the_sparse_primal_never_the_dense_tableau() {
        // The ladder is dual-first → sparse two-phase primal, full stop.
        // A dual pass that gives up mid-way (here: forced after 50 pivots,
        // with etas on file and half the basis rewritten) must reload and
        // finish on the sparse primal: a dense tableau of a kilo-row LP
        // is hundreds of megabytes.
        let p = long_chain(1200);
        assert!(p.num_constraints() >= 1000);
        let mut plain = SimplexWorkspace::new();
        let want = solve_lp_in(&p, &p.lower, &p.upper, 1_000_000, &mut plain, SPARSE).unwrap();
        assert!(
            plain.dual_iterations() > 50,
            "the reference must be a real dual solve"
        );

        let mut ws = SimplexWorkspace::new();
        ws.dual_giveup_after = Some(50);
        let got = solve_lp_in(&p, &p.lower, &p.upper, 1_000_000, &mut ws, SPARSE).unwrap();
        assert_close(got.objective, want.objective);
        assert!(p.is_feasible(&got.values, 1e-6));
        assert_eq!(
            ws.dual_iterations(),
            50,
            "the dual pass ran up to the forced give-up"
        );
        assert!(
            ws.primal_iterations() > 1,
            "the two-phase primal finished the solve"
        );
        assert_eq!(
            got.iterations,
            ws.dual_iterations() + ws.primal_iterations(),
            "the abandoned pass is counted"
        );
        assert!(ws.t.is_empty(), "the dense tableau was never loaded");
        assert!(ws.sparse_residual_inf() < 1e-6);

        // The same holds when the give-up strikes a warm re-entry.
        let mut upper = p.upper.clone();
        for u in upper.iter_mut().step_by(7) {
            *u = 0.0;
        }
        let mut ref_ws = SimplexWorkspace::new();
        let want = solve_lp_in(&p, &p.lower, &upper, 1_000_000, &mut ref_ws, SPARSE).unwrap();
        ws.dual_giveup_after = Some(5);
        let got = solve_lp_in(&p, &p.lower, &upper, 1_000_000, &mut ws, SPARSE).unwrap();
        assert_close(got.objective, want.objective);
        assert!(ws.t.is_empty(), "the dense tableau was never loaded");

        // And the primal is the last rung. When its refactorization comes
        // back numerically singular (forced: the third of the solve —
        // load, reload after the give-up, first eta-file refresh) it
        // reports `IterationLimit` with budget to spare, and that typed
        // error is the answer: no tableau is allocated to second-guess it.
        let mut ws = SimplexWorkspace::new();
        ws.dual_giveup_after = Some(50);
        ws.sparse.singular_at = Some(3);
        let err = solve_lp_in(&p, &p.lower, &p.upper, 1_000_000, &mut ws, SPARSE).unwrap_err();
        assert_eq!(err, SolveError::IterationLimit);
        assert!(ws.iterations < ws.iteration_limit, "budget to spare");
        assert_eq!(ws.refactorizations(), 3);
        assert!(ws.t.is_empty(), "the dense tableau was never loaded");
        // The failed solve retains nothing: the next one enters cold.
        let got = solve_lp_in(&p, &p.lower, &upper, 1_000_000, &mut ws, SPARSE).unwrap();
        assert_close(got.objective, want.objective);
        assert_eq!((ws.warm_starts(), ws.cold_starts()), (0, 2));
    }

    /// `‖B⁻ᵀe_i‖²` for every basis position, straight from the
    /// factorization.
    fn true_weights(ws: &mut SimplexWorkspace) -> Vec<f64> {
        let mut rho = vec![0.0; ws.m];
        let mut nnz: Vec<u32> = Vec::new();
        (0..ws.m)
            .map(|i| {
                ws.sparse.lu.btran_unit(i, &mut rho, &mut nnz);
                let w = nnz.iter().map(|&k| rho[k as usize].powi(2)).sum();
                for &k in &nnz {
                    rho[k as usize] = 0.0;
                }
                nnz.clear();
                w
            })
            .collect()
    }

    #[test]
    fn steepest_edge_weights_track_the_basis_inverse_through_a_dual_pass() {
        // A wrong weight update still solves every LP — only slower — so
        // the objective-parity tests cannot see it. Pin the recurrence
        // itself: after a cold dual pass of ≥ 100 pivots (several
        // refactorizations, which must leave the weights alone) every
        // maintained `w_i` is the squared norm of row `i` of `B⁻¹`.
        for (name, p) in [
            ("long_chain(400)", long_chain(400)),
            ("chain_ilp(972)", crate::instances::chain_ilp(972, 2.0)),
        ] {
            let mut ws = SimplexWorkspace::new();
            assert!(
                ws.load_sparse(&p, &p.lower, &p.upper, 1_000_000, true),
                "{name}: the dual-first start applies"
            );
            assert!(ws
                .sparse
                .weight
                .iter()
                .all(|&w| w.to_bits() == 1f64.to_bits()));
            assert!(matches!(
                ws.dual_repair_sparse(1_000_000),
                DualOutcome::Feasible
            ));
            assert!(
                ws.dual_iterations() >= 100 && ws.refactorizations() >= 3,
                "{name}: {} dual pivots, {} factorizations",
                ws.dual_iterations(),
                ws.refactorizations()
            );
            let want = true_weights(&mut ws);
            let mut moved = 0;
            for (i, (&got, &want)) in ws.sparse.weight.iter().zip(&want).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-6 * want,
                    "{name}: position {i}: maintained {got} vs ‖B⁻ᵀe_i‖² = {want}"
                );
                moved += usize::from((want - 1.0).abs() > 1e-3);
            }
            assert!(moved >= 50, "{name}: only {moved} weights left 1");
        }
    }

    #[test]
    fn answers_do_not_depend_on_what_the_workspace_solved_before() {
        // The fleet's determinism contract: a long-lived workspace arena
        // must answer exactly as a fresh one would. The stamped / touched
        // scratch of the dual simplex (pivot-row accumulator, `ρ` pattern,
        // bitsets, eta arena) is the state that could leak across loads —
        // and so are the steepest-edge weights and the leaving heap,
        // which steer every leaving-row choice: the reused workspace
        // must arrive with both dirty.
        let p = long_chain(300);
        let bits = |ws: &mut SimplexWorkspace| -> Vec<u64> {
            solve_lp_in(&p, &p.lower, &p.upper, 1_000_000, ws, SPARSE)
                .unwrap()
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let non_unit_weights = |ws: &SimplexWorkspace| {
            ws.sparse
                .weight
                .iter()
                .filter(|w| (*w - 1.0).abs() > 1e-3)
                .count()
        };
        let fresh = bits(&mut SimplexWorkspace::new());

        // After a differently-shaped (larger, then smaller) LP.
        let mut reused = SimplexWorkspace::new();
        for other in [long_chain(450), long_chain(70)] {
            solve_lp_in(
                &other,
                &other.lower,
                &other.upper,
                1_000_000,
                &mut reused,
                SPARSE,
            )
            .unwrap();
            assert!(non_unit_weights(&reused) > other.num_constraints() / 4);
            assert_eq!(
                bits(&mut reused),
                fresh,
                "after a {}-row LP",
                other.num_constraints()
            );
        }

        // After an infeasible LP (the dual pass stops mid-iteration, its
        // leaving heap still populated).
        let mut infeasible = long_chain(120);
        infeasible.add_constraint(&[(crate::VarId(119), 1.0)], Sense::Ge, 2.0);
        assert_eq!(
            solve_lp_in(
                &infeasible,
                &infeasible.lower,
                &infeasible.upper,
                1_000_000,
                &mut reused,
                SPARSE
            ),
            Err(SolveError::Infeasible)
        );
        assert!(!reused.sparse.leaving.is_empty());
        assert!(non_unit_weights(&reused) > 0);
        assert_eq!(bits(&mut reused), fresh, "after an infeasible LP");

        // After a solve whose dual pass gave up half-way and fell back to
        // the primal (whose pivots rescale the weights they replace).
        let mut gave_up = SimplexWorkspace::new();
        gave_up.dual_giveup_after = Some(40);
        let other = long_chain(450);
        solve_lp_in(
            &other,
            &other.lower,
            &other.upper,
            1_000_000,
            &mut gave_up,
            SPARSE,
        )
        .unwrap();
        assert!(gave_up.primal_iterations() > 1);
        assert!(non_unit_weights(&gave_up) > 0);
        gave_up.dual_giveup_after = None;
        assert_eq!(bits(&mut gave_up), fresh, "after a GiveUp");
    }

    #[test]
    fn forced_bland_rule_reaches_the_same_optimum() {
        // Pin the Bland's-rule fallback path itself (not just the trigger):
        // an entire solve priced lowest-admissible-index-first must reach
        // the same optimum on both backends.
        let p = long_chain(60);
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut plain_ws = SimplexWorkspace::new();
            let plain =
                solve_lp_in(&p, &p.lower, &p.upper, 100_000, &mut plain_ws, backend).unwrap();
            let mut bland_ws = SimplexWorkspace::new();
            bland_ws.force_bland = true;
            let bland =
                solve_lp_in(&p, &p.lower, &p.upper, 100_000, &mut bland_ws, backend).unwrap();
            assert_close(bland.objective, plain.objective);
        }
    }

    #[test]
    fn forced_bland_detects_infeasibility_and_unboundedness() {
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut p = Problem::new();
            let x = p.add_var(0.0, 1.0, 1.0, false);
            p.add_constraint(&[(x, 1.0)], Sense::Ge, 2.0);
            let mut ws = SimplexWorkspace::new();
            ws.force_bland = true;
            let r = solve_lp_in(&p, &p.lower, &p.upper, 10_000, &mut ws, backend);
            assert_eq!(r, Err(SolveError::Infeasible), "{backend:?}");

            let mut q = Problem::new();
            let y = q.add_var(0.0, f64::INFINITY, -1.0, false);
            q.add_constraint(&[(y, -1.0)], Sense::Le, 0.0);
            let mut ws = SimplexWorkspace::new();
            ws.force_bland = true;
            let r = solve_lp_in(&q, &q.lower, &q.upper, 10_000, &mut ws, backend);
            assert_eq!(r, Err(SolveError::Unbounded), "{backend:?}");
        }
    }
}
