//! Reusable simplex workspace, shared by both backends.
//!
//! A [`SimplexWorkspace`] owns every buffer a simplex solve needs —
//! bounds, costs, basis, variable statuses, the sparse backend's
//! factorization state (and, only when the reference backend is asked
//! for, the dense tableau) — sized once for a problem and reused across
//! all LP solves of a branch-and-bound search. After the first node a
//! cold load only rewrites buffer contents: zero per-node heap
//! allocations.
//!
//! The workspace also retains the final basis of the last *successful*
//! solve. When the next solve is over the same constraint matrix — a
//! branch-and-bound child under different variable bounds, or the next
//! probe of a rate search under a rescaled objective and new budget
//! right-hand sides — the warm path re-enters from that basis and repairs
//! primal feasibility with a bounded dual-simplex pass instead of
//! rebuilding from scratch — the warm-started-child strategy production
//! MILP solvers use.
//!
//! "The same matrix" is decided (`can_warm`) from the [`Problem`]'s
//! matrix stamp, recorded at every cold load: equal stamps mean the same
//! variables and the same row terms and senses, whichever `Problem` value
//! carries them, and nothing cheaper than a coefficient-by-coefficient
//! compare could tell two same-shaped problems apart otherwise. Costs,
//! bounds and right-hand sides are reread on every warm entry
//! (`warm_load_sparse` keeps `b` raw), so they may differ freely: a
//! changed `b` is just more work for the dual pass. The reference tableau
//! alone is stricter: it carries `B⁻¹b`, and without the basis inverse
//! (phase 2 stops eliminating through the artificial columns that held
//! it) it cannot follow a changed `b` — [`SolverBackend::Dense`] also
//! requires the right-hand sides it was loaded with.

use crate::num::is_exact_zero;
use crate::problem::{Problem, Sense};
use crate::revised::SparseState;

/// Which simplex implementation executes a solve.
///
/// Every production solve runs [`Sparse`](SolverBackend::Sparse), at
/// every problem size; [`Dense`](SolverBackend::Dense) is the reference
/// the differential suites compare it against and runs only when a
/// caller names it. Both share the [`SimplexWorkspace`] bookkeeping
/// (column layout, basis, statuses, warm-start retention) and produce the
/// same answers — `tests/proptest_revised.rs` holds them to that — by
/// different routes: the dense tableau runs a two-phase primal and
/// streams `O(m·n)` floats per pivot; the sparse revised method starts
/// dual-first wherever the problem admits it and pays `O(nnz)` — for a
/// dual iteration, only what the pivot touches — against an LU-factored
/// basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Sparse, dual-first revised simplex over an LU-factored basis
    /// (`revised.rs`): the solver.
    #[default]
    Sparse,
    /// Dense-tableau two-phase simplex (`simplex.rs`): the reference.
    /// Nothing selects it but [`IlpOptions::backend`](crate::IlpOptions)
    /// or [`SimplexWorkspace::set_backend`] naming it — the differential
    /// test suites and the benchmark's answer check do.
    Dense,
}

/// Where a variable currently sits relative to the basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarStatus {
    /// In the basis (value determined by the tableau).
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
}

/// Reusable simplex state: one allocation per *problem shape*, shared
/// by every LP solve of a branch-and-bound search (and, allocation-wise, by
/// every probe of a rate search over the same encoded problem).
#[derive(Debug, Default)]
pub struct SimplexWorkspace {
    pub(crate) m: usize,
    /// Total columns: structural + slack + artificial.
    pub(crate) n: usize,
    pub(crate) n_structural: usize,
    pub(crate) first_artificial: usize,
    /// Row-major `m × n` tableau, kept equal to `B⁻¹·A`. Reference
    /// backend only: empty until a [`SolverBackend::Dense`] solve loads it.
    pub(crate) t: Vec<f64>,
    /// Transformed right-hand side (`B⁻¹·b`-style invariant).
    pub(crate) rhs: Vec<f64>,
    pub(crate) basis: Vec<usize>,
    pub(crate) status: Vec<VarStatus>,
    pub(crate) x: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) cost: Vec<f64>,
    pub(crate) obj_row: Vec<f64>,
    /// `m`-sized scratch used when re-deriving basic values from the
    /// tableau invariant.
    pub(crate) work: Vec<f64>,
    pub(crate) iterations: u64,
    pub(crate) iteration_limit: u64,
    pub(crate) degenerate_run: u64,
    /// Entering-column scan bound: `n` while artificials may still price
    /// (phase 1), `first_artificial` once they are locked at zero.
    pub(crate) scan_limit: usize,
    /// Rotating start column of the sparse backend's sectional pricing.
    pub(crate) price_cursor: usize,
    /// Sparse-backend state: CSC matrix, LU factors, eta file, raw
    /// right-hand sides, and the scratch the revised method needs. Boxed
    /// so that the workspace itself stays small — prepared instances embed
    /// one each, and a fleet cache holds thousands of those by value —
    /// and every buffer in it stays empty while only the reference
    /// backend runs.
    pub(crate) sparse: Box<SparseState>,
    /// Which backend the caller asked for.
    backend: SolverBackend,
    /// Backend that produced the currently loaded/retained state; a warm
    /// start requires the requested backend to match it.
    loaded_backend: SolverBackend,
    /// Test-only override: price with Bland's rule from the first
    /// iteration instead of after a degenerate run. The anti-cycling
    /// regression tests use it to pin the fallback path on both backends.
    pub(crate) force_bland: bool,
    /// Test-only override: the sparse dual simplex gives up once the
    /// solve has spent this many iterations, as if its budget had run
    /// out mid-pass. The fallback-ladder and history-independence tests
    /// use it to land on the two-phase primal with a dirty workspace.
    pub(crate) dual_giveup_after: Option<u64>,
    /// True when the buffers hold a valid, phase-2-optimal (or at least
    /// dual-feasible) basis for the problem shape recorded above.
    warm_ready: bool,
    /// [`Problem::matrix_stamp`] as of the last cold load, either
    /// backend: the matrix the retained basis belongs to.
    pub(crate) loaded_stamp: u64,
    /// Raw constraint right-hand sides as of the last cold *dense* `load`.
    /// The transformed `rhs` bakes these in, so a caller mutating them in
    /// place (`Problem::set_rhs`) silently invalidates the retained
    /// tableau; `can_warm` compares to catch that. (Objective mutation is
    /// safe on both backends: the warm loaders reread costs and the final
    /// primal pass certifies optimality regardless of the entering
    /// reduced costs.)
    loaded_rhs: Vec<f64>,
    warm_starts: u64,
    cold_starts: u64,
    /// Dual / primal simplex iterations since the last `reset_counters`,
    /// abandoned attempts included.
    pub(crate) dual_iterations: u64,
    pub(crate) primal_iterations: u64,
}

/// Reset a buffer to `len` copies of `val` without shrinking capacity (and
/// so without reallocating once the high-water mark is reached).
pub(crate) fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, val: T) {
    buf.clear();
    buf.resize(len, val);
}

impl SimplexWorkspace {
    /// An empty workspace; buffers grow on first `load`.
    pub fn new() -> Self {
        Self::default()
    }

    /// LP solves that re-entered from a retained basis (dual-simplex warm
    /// start) since the last [`reset_counters`].
    ///
    /// [`reset_counters`]: SimplexWorkspace::reset_counters
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts
    }

    /// LP solves built from scratch (no retained basis) since the last
    /// [`reset_counters`].
    ///
    /// [`reset_counters`]: SimplexWorkspace::reset_counters
    pub fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    /// Dual-simplex iterations (warm repairs, and the sparse backend's
    /// dual-first cold starts) since the last [`reset_counters`],
    /// including those of attempts that were abandoned for a fresh start.
    ///
    /// [`reset_counters`]: SimplexWorkspace::reset_counters
    pub fn dual_iterations(&self) -> u64 {
        self.dual_iterations
    }

    /// Primal-simplex iterations (both phases, bound flips included)
    /// since the last [`reset_counters`].
    ///
    /// [`reset_counters`]: SimplexWorkspace::reset_counters
    pub fn primal_iterations(&self) -> u64 {
        self.primal_iterations
    }

    /// LU factorizations of the sparse backend's basis since the last
    /// [`reset_counters`]: one per load and one each time the eta file
    /// outgrows its nonzero budget — a warm re-entry keeps the
    /// factorization it finds. Always zero on the dense backend.
    ///
    /// [`reset_counters`]: SimplexWorkspace::reset_counters
    pub fn refactorizations(&self) -> u64 {
        self.sparse.refactorizations
    }

    /// `‖B·x_B − (b − N·x_N)‖∞` of the retained sparse basis: how far
    /// the basic values have drifted from the invariant the LU and eta
    /// file represent. `None` when the workspace retains no sparse basis
    /// (nothing solved yet, a failed solve, or the reference tableau).
    pub fn basis_residual(&mut self) -> Option<f64> {
        (self.warm_ready && self.loaded_backend == SolverBackend::Sparse)
            .then(|| self.sparse_residual_inf())
    }

    /// Zero the warm/cold and iteration counters (each ILP solve reports
    /// per-solve deltas).
    pub fn reset_counters(&mut self) {
        self.warm_starts = 0;
        self.cold_starts = 0;
        self.dual_iterations = 0;
        self.primal_iterations = 0;
        self.sparse.refactorizations = 0;
    }

    /// Forget the retained basis: the next solve must be a cold start.
    /// Never needed for correctness — a mutated matrix is caught by its
    /// stamp — but it is how a caller makes an answer independent of what
    /// the workspace solved before, ties between equal optima included.
    pub fn invalidate(&mut self) {
        self.warm_ready = false;
    }

    /// Select the simplex backend for subsequent solves (a new workspace
    /// runs [`SolverBackend::Sparse`]). Switching backends between solves
    /// is safe: a retained basis from the other backend is simply not
    /// warm-started from.
    pub fn set_backend(&mut self, backend: SolverBackend) {
        self.backend = backend;
    }

    /// The backend the next solve runs.
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    pub(crate) fn note_warm(&mut self) {
        self.warm_starts += 1;
    }

    pub(crate) fn note_cold(&mut self) {
        self.cold_starts += 1;
    }

    pub(crate) fn mark_warm_ready(&mut self) {
        self.warm_ready = true;
    }

    /// Can the retained basis serve `problem`: valid state, same
    /// backend, same constraint matrix (by stamp — which covers the
    /// shape) and, on the reference tableau only, the same right-hand
    /// sides? See the module docs for why the backends differ.
    pub(crate) fn can_warm(&self, problem: &Problem) -> bool {
        self.warm_ready
            && self.loaded_backend == self.backend
            && self.loaded_stamp == problem.matrix_stamp
            && (self.backend == SolverBackend::Sparse
                || problem
                    .constraints
                    .iter()
                    .zip(&self.loaded_rhs)
                    .all(|(c, &r)| c.rhs == r))
    }

    /// Cold build: the tableau for `problem` with per-solve bound overrides
    /// (branch-and-bound tightens bounds without copying the problem).
    /// Reuses every buffer; allocates only if the problem outgrows them.
    pub(crate) fn load(
        &mut self,
        problem: &Problem,
        lower: &[f64],
        upper: &[f64],
        iteration_limit: u64,
    ) {
        let n_structural = problem.num_vars();
        let m = problem.num_constraints();
        let n_slack: usize = problem
            .constraints
            .iter()
            .filter(|c| c.sense != Sense::Eq)
            .count();
        let n = n_structural + n_slack + m; // one artificial per row
        let first_artificial = n_structural + n_slack;

        self.m = m;
        self.n = n;
        self.n_structural = n_structural;
        self.first_artificial = first_artificial;

        refill(&mut self.t, m * n, 0.0);
        refill(&mut self.rhs, m, 0.0);
        refill(&mut self.lower, n, 0.0);
        refill(&mut self.upper, n, f64::INFINITY);
        self.lower[..n_structural].copy_from_slice(lower);
        self.upper[..n_structural].copy_from_slice(upper);

        // Nonbasic structural variables start at their (finite) lower bound.
        refill(&mut self.x, n, 0.0);
        self.x[..n_structural].copy_from_slice(&self.lower[..n_structural]);

        refill(&mut self.status, n, VarStatus::AtLower);
        self.basis.clear();

        let mut slack_col = n_structural;
        for (i, c) in problem.constraints.iter().enumerate() {
            let row = &mut self.t[i * n..(i + 1) * n];
            for &(v, a) in &c.terms {
                row[v.0] += a;
            }
            match c.sense {
                Sense::Le => {
                    row[slack_col] = 1.0;
                    slack_col += 1;
                }
                Sense::Ge => {
                    row[slack_col] = -1.0;
                    slack_col += 1;
                }
                Sense::Eq => {}
            }
            self.rhs[i] = c.rhs;
            // Residual with all nonbasic vars at their initial values
            // (slacks start at 0, structural at lower bound).
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * self.x[v.0]).sum();
            let residual = c.rhs - lhs;
            let art = first_artificial + i;
            if residual >= 0.0 {
                row[art] = 1.0;
            } else {
                // Scale the row so the artificial's column is +1 and its
                // value |residual| is nonnegative.
                for v in row.iter_mut() {
                    *v = -*v;
                }
                row[art] = 1.0;
                self.rhs[i] = -self.rhs[i];
            }
            self.x[art] = residual.abs();
            self.status[art] = VarStatus::Basic;
            self.basis.push(art);
        }
        debug_assert_eq!(slack_col, first_artificial);

        self.loaded_stamp = problem.matrix_stamp;
        self.loaded_rhs.clear();
        self.loaded_rhs
            .extend(problem.constraints.iter().map(|c| c.rhs));

        refill(&mut self.cost, n, 0.0);
        refill(&mut self.obj_row, n, 0.0);
        refill(&mut self.work, m, 0.0);
        self.iterations = 0;
        self.iteration_limit = iteration_limit;
        self.degenerate_run = 0;
        self.scan_limit = n;
        self.loaded_backend = SolverBackend::Dense;
    }

    /// Record which backend produced the loaded state (the sparse loader
    /// lives in `revised.rs` and calls this).
    pub(crate) fn set_loaded_backend(&mut self, backend: SolverBackend) {
        self.loaded_backend = backend;
    }

    /// Warm re-entry: keep the retained tableau/basis, apply the new bound
    /// overrides, snap nonbasic variables onto their (possibly moved)
    /// bounds, re-derive basic values from the tableau invariant, and
    /// refresh phase-2 costs and reduced costs.
    ///
    /// Returns `false` when the retained statuses cannot express the new
    /// bounds (a variable parked at an upper bound that is now infinite) —
    /// the caller must fall back to a cold start.
    pub(crate) fn warm_load(
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

        // Phase-2 costs (artificials stay locked at zero cost and bounds).
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
        self.recompute_obj_row();
        self.recompute_basic_x();
        true
    }

    /// Re-derive every basic variable's value from the tableau invariant
    /// `x_B = B⁻¹b − Σ_{j nonbasic} (B⁻¹A)_j · x_j`.
    pub(crate) fn recompute_basic_x(&mut self) {
        self.work.clear();
        self.work.extend_from_slice(&self.rhs);
        for j in 0..self.n {
            if self.status[j] == VarStatus::Basic || is_exact_zero(self.x[j]) {
                continue;
            }
            let xj = self.x[j];
            for i in 0..self.m {
                self.work[i] -= self.t[i * self.n + j] * xj;
            }
        }
        for i in 0..self.m {
            self.x[self.basis[i]] = self.work[i];
        }
    }
}

#[cfg(test)]
mod send_audit {
    use super::*;

    /// Compile-time `Send` audit: the fleet service gives each worker
    /// thread a long-lived workspace arena, so the workspace (both
    /// backends' factorization state included) and everything solver
    /// calls exchange with it must cross thread boundaries.
    #[test]
    fn workspace_and_solver_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimplexWorkspace>();
        assert_send::<SolverBackend>();
        assert_send::<crate::Problem>();
        assert_send::<crate::IlpOptions>();
        assert_send::<crate::IlpStats>();
        assert_send::<crate::IlpSolution>();
    }
}
