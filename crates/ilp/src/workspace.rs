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
//! sparse solve. When the next solve is over the same constraint matrix —
//! a branch-and-bound child under different variable bounds, or the next
//! probe of a rate search under a rescaled objective and new budget
//! right-hand sides — the warm path re-enters from that basis and repairs
//! primal feasibility with a bounded dual-simplex pass instead of
//! rebuilding from scratch — the warm-started-child strategy production
//! MILP solvers use. The reference tableau never re-enters: every
//! [`SolverBackend::Dense`] solve is cold and drops the retained basis.
//!
//! "The same matrix" is decided (`can_warm`) from the [`Problem`]'s
//! matrix stamp, recorded at every sparse load: equal stamps mean the
//! same variables and the same row terms and senses, whichever `Problem`
//! value carries them, and nothing cheaper than a coefficient-by-coefficient
//! compare could tell two same-shaped problems apart otherwise. Costs,
//! bounds and right-hand sides are reread on every warm entry
//! (`warm_load_sparse` keeps `b` raw), so they may differ freely: a
//! changed `b` is just more work for the dual pass.

use crate::problem::{Problem, Sense};
use crate::revised::SparseState;

/// Which simplex implementation executes a solve: an argument of every
/// LP solve ([`solve_lp_in`](crate::solve_lp_in)), set for a whole search
/// by [`IlpOptions::backend`](crate::IlpOptions); a workspace holds no
/// choice of its own.
///
/// Every production solve runs [`Sparse`](SolverBackend::Sparse), at
/// every problem size; [`Dense`](SolverBackend::Dense) is the reference
/// the differential suites compare it against and runs only when a
/// caller names it. Both share the [`SimplexWorkspace`] buffers (column
/// layout, basis, statuses) and produce the same answers —
/// `tests/proptest_revised.rs` holds them to that — by different routes:
/// the dense tableau solves every LP cold with a two-phase primal and
/// streams `O(m·n)` floats per pivot; the sparse revised method starts
/// dual-first wherever the problem admits it, re-enters warm from a
/// retained basis, and pays `O(nnz)` — for a dual iteration, only what
/// the pivot touches — against an LU-factored basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Sparse, dual-first revised simplex over an LU-factored basis
    /// (`revised.rs`): the solver.
    #[default]
    Sparse,
    /// Dense-tableau two-phase simplex (`simplex.rs`): the reference.
    /// Nothing selects it but [`IlpOptions::backend`](crate::IlpOptions),
    /// or a [`solve_lp_in`](crate::solve_lp_in) call, naming it — the
    /// differential test suites and the benchmark's answer check do.
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
    pub(crate) basis: Vec<usize>,
    pub(crate) status: Vec<VarStatus>,
    pub(crate) x: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) cost: Vec<f64>,
    pub(crate) obj_row: Vec<f64>,
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
    /// dual-feasible) sparse basis for the problem shape recorded above.
    /// Only a successful sparse solve sets it.
    warm_ready: bool,
    /// [`Problem::matrix_stamp`] as of the last sparse load: the matrix
    /// the retained basis belongs to.
    pub(crate) loaded_stamp: u64,
    warm_starts: u64,
    cold_starts: u64,
    /// Dual / primal simplex iterations since the last `reset_counters`,
    /// abandoned attempts included.
    pub(crate) dual_iterations: u64,
    pub(crate) primal_iterations: u64,
    /// Spare bound vectors of branch-and-bound nodes: a search takes each
    /// node's bounds from here and gives them back once the node is done,
    /// so a search in a reused workspace copies its bounds without
    /// allocating. They hold nothing a solve reads.
    pub(crate) spare_bounds: Vec<Vec<f64>>,
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

    /// Dual-simplex iterations (the sparse backend's warm repairs and
    /// dual-first cold starts; the tableau runs none) since the last
    /// [`reset_counters`],
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
        self.warm_ready.then(|| self.sparse_residual_inf())
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

    pub(crate) fn note_warm(&mut self) {
        self.warm_starts += 1;
    }

    pub(crate) fn note_cold(&mut self) {
        self.cold_starts += 1;
    }

    pub(crate) fn mark_warm_ready(&mut self) {
        self.warm_ready = true;
    }

    /// Can the retained sparse basis serve `problem`: valid state and the
    /// same constraint matrix (by stamp — which covers the shape)?
    pub(crate) fn can_warm(&self, problem: &Problem) -> bool {
        self.warm_ready && self.loaded_stamp == problem.matrix_stamp
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
            }
            self.x[art] = residual.abs();
            self.status[art] = VarStatus::Basic;
            self.basis.push(art);
        }
        debug_assert_eq!(slack_col, first_artificial);

        refill(&mut self.cost, n, 0.0);
        refill(&mut self.obj_row, n, 0.0);
        self.iterations = 0;
        self.iteration_limit = iteration_limit;
        self.degenerate_run = 0;
        self.scan_limit = n;
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
