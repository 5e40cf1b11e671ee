//! # wishbone-ilp
//!
//! A self-contained linear-programming and integer-linear-programming
//! solver: a bounded-variable, sparse, dual-first revised simplex plus
//! branch and bound (and a dense two-phase tableau kept as the reference
//! the tests diff it against). It plays the role of `lp_solve` in the
//! Wishbone paper (§4.2.1):
//! "an off-the-shelf integer programming solver ... uses branch-and-bound to
//! solve integer-constrained problems ... and the Simplex algorithm to solve
//! linear programming problems."
//!
//! The solver is deterministic, pure Rust, `forbid(unsafe_code)`, and
//! instruments the branch-and-bound search with the discover-vs-prove
//! timeline that the paper's Figure 6 reports.
//!
//! Performance architecture (mirroring production MILP codes):
//!
//! * [`SimplexWorkspace`] — one factorization allocation reused by every
//!   branch-and-bound node; nodes re-enter **warm** from the search's
//!   last optimal basis via a bounded dual-simplex repair — and so does
//!   the root of the next search over the same constraint matrix (a
//!   [`Problem`] carries a stamp of its matrix; retargeting costs and
//!   right-hand sides keeps it, editing rows or variables renews it);
//! * one production simplex behind that workspace, at every problem
//!   size: a **sparse revised simplex** over an LU-factored basis with
//!   eta updates (`sparse.rs`, `lu.rs`, `revised.rs`) that starts cold
//!   solves **dual first** — from the slack basis with every variable at
//!   its cost-preferred bound — whenever the problem admits it, so cold
//!   and warm solves share one dual-then-primal tail. The dense tableau
//!   (`simplex.rs`) is the reference of the differential test suite: it
//!   runs only when a caller names [`SolverBackend::Dense`], and then
//!   solves every LP cold;
//! * [`presolve`](mod@presolve) — bound propagation that proves infeasibility (or fixes
//!   implied-integral variables) before a single simplex iteration runs;
//! * a root LP that the sparse dual simplex refutes leaves a checked
//!   [`Refutation`] in [`IlpStats::refutation`]: a row combination that
//!   keeps refuting every right-hand side it still clears, so a caller
//!   that only moves right-hand sides needs no further solve to say so;
//! * best-first node selection with a depth-first plunge on the most
//!   fractional variable, so the reported optimality gap tightens
//!   monotonically and limit-hit returns carry a meaningful bound. An
//!   incumbent is the caller's seed — [`IlpOptions::warm_solution`], or
//!   one [`solve_ilp_seeded_in`] asks for only once the search is stuck
//!   (a few node LPs with no incumbent, or its budget spent) — or an
//!   integral node LP; the search rounds and repairs nothing. Every cold
//!   LP starts from a diagonal ±1 slack basis, which is factored
//!   directly in `O(m)`, and a search in a reused workspace takes its
//!   node bound vectors from the workspace, so a small search's fixed
//!   cost is its pivots.
//!
//! ```
//! use wishbone_ilp::{solve_ilp, IlpOptions, Problem, Sense};
//!
//! // A miniature Wishbone partition problem: two operators in a chain,
//! // f=1 places an operator on the mote, f=0 on the server. The source
//! // edge carries 10 kb/s, the edge after op0 carries 6 kb/s, after op1
//! // 2 kb/s. Cut bandwidth = 10(1-f0) + 6(f0-f1) + 2 f1 when f0 >= f1.
//! let mut p = Problem::new();
//! let f0 = p.add_var(0.0, 1.0, -4.0, true); // d(net)/d(f0) = 6-10 = -4
//! let f1 = p.add_var(0.0, 1.0, -4.0, true); // d(net)/d(f1) = 2-6  = -4
//! p.add_constraint(&[(f0, 1.0), (f1, -1.0)], Sense::Ge, 0.0); // single cut
//! p.add_constraint(&[(f0, 3.0), (f1, 5.0)], Sense::Le, 4.0);  // CPU budget
//! let sol = solve_ilp(&p, &IlpOptions::default()).unwrap();
//! // Budget 4 admits only op0 on the mote: net falls from 10 to 6 kb/s.
//! assert_eq!(sol.values, vec![1.0, 0.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch_bound;
pub mod instances;
mod lu;
pub mod num;
pub mod presolve;
pub mod problem;
mod refutation;
mod revised;
pub mod simplex;
mod sparse;
pub mod workspace;

pub use branch_bound::{
    solve_ilp, solve_ilp_in, solve_ilp_seeded_in, IlpOptions, IlpSolution, IlpStats, PhaseTimes,
};
pub use num::is_exact_zero;
pub use presolve::{presolve, PresolveOutcome};
pub use problem::{Constraint, LpSolution, Problem, Sense, SolveError, VarId};
pub use refutation::Refutation;
pub use simplex::{solve_lp, solve_lp_in};
pub use workspace::{SimplexWorkspace, SolverBackend};
