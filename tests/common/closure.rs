//! Telling a closure answer apart positively, shared by the suites that
//! hold one to other rules than a branch-and-bound run
//! (`fleet_parity.rs`, `proptest_deployment.rs`, `solver_guards.rs`,
//! `end_to_end_tiered.rs`). A search is answered by the closure exactly
//! when the closure optimum of its encoding holds every row of its
//! problem (`Problem::is_feasible` at tolerance 0, the search's own exact
//! check), so a suite recomputes that optimum instead of reading the
//! answer's counters: a branch-and-bound run stopped before its root
//! reports no node either.

use wishbone::core::PreparedDeployment;
use wishbone::ilp::{solve_closure_in, SimplexWorkspace, VarId};

/// The closure optimum of `prep`'s encoding under its current objective,
/// by one min-cut in a fresh workspace, if certified. Called on a fresh
/// instance before any solve, that objective is the unit-rate one every
/// search of the instance computes its closure under.
pub fn closure_of(prep: &PreparedDeployment) -> Option<Vec<f64>> {
    let p = prep.problem();
    let cost: Vec<f64> = (0..p.num_vars())
        .map(|j| p.objective_coeff(VarId(j)))
        .collect();
    let mut values = Vec::new();
    solve_closure_in(p, &cost, &mut SimplexWorkspace::new(), &mut values)?;
    Some(values)
}
