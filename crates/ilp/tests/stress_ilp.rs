//! Stress and robustness tests for the solver at partitioning-problem
//! scale: chain ILPs of growing size, degenerate/duplicated constraints,
//! and numerically awkward coefficient ranges.

use wishbone_ilp::instances::chain_ilp;
use wishbone_ilp::{
    solve_ilp, solve_ilp_in, solve_lp, IlpOptions, Problem, Sense, SimplexWorkspace, SolveError,
};

/// "Quickly" is a count, the same on every host: the search's nodes and
/// simplex iterations may not exceed what they were when the bound was
/// recorded (3 nodes, 549 iterations).
#[test]
fn chain_of_500_solves_quickly_and_correctly() {
    let p = chain_ilp(500, 1.5);
    let (sol, stats) = solve_ilp_in(&p, &IlpOptions::default(), &mut SimplexWorkspace::new());
    let sol = sol.expect("solvable");
    assert!(
        stats.nodes <= 3 && stats.simplex_iterations <= 549,
        "took {} nodes and {} simplex iterations",
        stats.nodes,
        stats.simplex_iterations
    );
    assert!(p.is_feasible(&sol.values, 1e-6));
    // Prefix structure: values must be monotone non-increasing.
    for w in sol.values.windows(2) {
        assert!(w[0] >= w[1] - 1e-9);
    }
}

#[test]
fn tight_budget_forces_short_prefix() {
    let p = chain_ilp(100, 0.02);
    let sol = solve_ilp(&p, &IlpOptions::default()).expect("solvable");
    let on_node = sol.values.iter().filter(|&&v| v > 0.5).count();
    assert!(
        on_node <= 5,
        "tiny budget admits only a short prefix, got {on_node}"
    );
}

#[test]
fn duplicated_and_redundant_constraints_are_harmless() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, 5.0, -1.0, false);
    let y = p.add_var(0.0, 5.0, -1.0, false);
    for _ in 0..20 {
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 6.0);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 4.0);
    }
    // Identical equality pair (redundant but consistent).
    p.add_constraint(&[(x, 1.0), (y, -1.0)], Sense::Eq, 2.0);
    p.add_constraint(&[(x, 1.0), (y, -1.0)], Sense::Eq, 2.0);
    let sol = solve_lp(&p).expect("solvable");
    assert!(
        (sol.objective - (-6.0)).abs() < 1e-6,
        "x=4,y=2: {}",
        sol.objective
    );
}

#[test]
fn wide_coefficient_ranges_stay_stable() {
    // Bandwidths in the hundreds of thousands vs CPU fractions in 1e-4:
    // the ranges wishbone-core actually emits.
    let mut p = Problem::new();
    let vars: Vec<_> = (0..50)
        .map(|i| p.add_var(0.0, 1.0, -(1e5 / (i + 1) as f64), true))
        .collect();
    let cpu_row: Vec<_> = vars.iter().map(|&v| (v, 1e-4)).collect();
    p.add_constraint(&cpu_row, Sense::Le, 30.0 * 1e-4);
    let sol = solve_ilp(&p, &IlpOptions::default()).expect("solvable");
    assert!(p.is_feasible(&sol.values, 1e-5));
    let picked = sol.values.iter().filter(|&&v| v > 0.5).count();
    assert_eq!(picked, 30, "budget admits exactly 30 items");
}

#[test]
fn zero_coefficient_objective_is_a_feasibility_check() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, 1.0, 0.0, true);
    let y = p.add_var(0.0, 1.0, 0.0, true);
    p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 1.0);
    let sol = solve_ilp(&p, &IlpOptions::default()).expect("feasible");
    assert!(sol.values[0] + sol.values[1] >= 1.0 - 1e-9);
    assert!(sol.objective.abs() < 1e-12);
}

#[test]
fn equality_chain_propagates() {
    // x0 = x1 = ... = x9, x0 >= 0.7, minimize sum.
    let mut p = Problem::new();
    let vars: Vec<_> = (0..10).map(|_| p.add_var(0.0, 1.0, 1.0, false)).collect();
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Eq, 0.0);
    }
    p.add_constraint(&[(vars[0], 1.0)], Sense::Ge, 0.7);
    let sol = solve_lp(&p).expect("solvable");
    assert!((sol.objective - 7.0).abs() < 1e-6);
    for v in &sol.values {
        assert!((v - 0.7).abs() < 1e-6);
    }
}

#[test]
fn infeasible_large_chain_detected() {
    let mut p = chain_ilp(200, 1.0);
    // Add an impossible demand: last vertex on node (violates budget path).
    let last = wishbone_ilp::VarId(199);
    p.add_constraint(&[(last, 1.0)], Sense::Ge, 1.0);
    // Make the budget too small for the full chain.
    let mut q = chain_ilp(200, 0.0001);
    q.add_constraint(&[(wishbone_ilp::VarId(199), 1.0)], Sense::Ge, 1.0);
    assert_eq!(
        solve_ilp(&q, &IlpOptions::default()),
        Err(SolveError::Infeasible)
    );
}

#[test]
fn time_limit_is_respected() {
    let p = chain_ilp(400, 1.0);
    let opts = IlpOptions {
        time_limit: Some(std::time::Duration::from_millis(50)),
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let _ = solve_ilp(&p, &opts); // may succeed (fast) or stop early
    assert!(
        start.elapsed().as_secs_f64() < 10.0,
        "time limit must bound the run, took {:?}",
        start.elapsed()
    );
}
