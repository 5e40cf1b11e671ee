//! Regression tests for the simplex corner cases that historically break
//! LP codes — cycling-prone degeneracy, massive ratio-test ties, and
//! zero-step pivots — pinned on **both** backends so the Bland's-rule
//! fallback and the tie-breaking rules cannot silently regress when
//! either implementation changes.

use wishbone_ilp::{
    solve_ilp, solve_lp_in, IlpOptions, Problem, Sense, SimplexWorkspace, SolverBackend,
};

const BACKENDS: [SolverBackend; 2] = [SolverBackend::Dense, SolverBackend::Sparse];

fn lp(p: &Problem, backend: SolverBackend) -> f64 {
    solve_lp_in(
        p,
        p.lower_bounds(),
        p.upper_bounds(),
        100_000,
        &mut SimplexWorkspace::new(),
        backend,
    )
    .expect("solvable")
    .objective
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{what}: {a} != {b}");
}

#[test]
fn beales_cycling_example_terminates_on_both_backends() {
    // The classic instance on which Dantzig pricing cycles forever
    // without an anti-cycling rule; the degenerate-run Bland fallback
    // must break the cycle on either backend.
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
    for backend in BACKENDS {
        assert_close(lp(&p, backend), -0.05, &format!("{backend:?}"));
    }
}

#[test]
fn massive_ratio_test_ties_are_resolved_consistently() {
    // Twelve identical blocking rows: every ratio-test step ties across
    // all of them, exercising the pivot-magnitude (and, under Bland,
    // lowest-row) tie-break. Duplicated rows also stress the duplicate
    // handling in the sparse loader.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -1.0, false);
    let y = p.add_var(0.0, f64::INFINITY, -2.0, false);
    for _ in 0..12 {
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 3.0);
    }
    for backend in BACKENDS {
        assert_close(lp(&p, backend), -6.0, &format!("{backend:?}"));
    }
}

#[test]
fn zero_step_pivot_cascade_terminates() {
    // A degenerate vertex at the origin: the improving direction is
    // blocked at step zero by a cascade of rows, so the solver must chew
    // through zero-step pivots (triggering the degenerate-run counter)
    // before concluding the origin is optimal.
    let mut p = Problem::new();
    let n = 10;
    let vars: Vec<_> = (0..n)
        .map(|_| p.add_var(0.0, f64::INFINITY, -1.0, false))
        .collect();
    // x_i <= x_{i+1} and x_last <= 0 => everything pinned to 0, but each
    // row alone blocks only via the next.
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Le, 0.0);
    }
    p.add_constraint(&[(vars[n - 1], 1.0)], Sense::Le, 0.0);
    for backend in BACKENDS {
        assert_close(lp(&p, backend), 0.0, &format!("{backend:?}"));
    }
}

#[test]
fn all_zero_cost_chain_terminates_inside_the_budget() {
    // Total dual degeneracy: with every cost zero every reduced cost is
    // zero, every dual ratio ties at zero, and the sparse backend's
    // dual-first start is nothing but a feasibility search steered by its
    // tie-breaks — the setting in which a dual simplex can cycle. The
    // lower bounds alternate so the start violates every other precedence
    // row, and the budget row binds. Either the dual pass gets there or
    // it gives up into the two-phase primal; both must happen inside the
    // iteration budget, and any feasible point is optimal at 0.
    let n = 400;
    let mut p = Problem::new();
    let vars: Vec<_> = (0..n)
        .map(|i| p.add_var(if i % 2 == 0 { 0.0 } else { 0.5 }, 1.0, 0.0, false))
        .collect();
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
    }
    let row: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    p.add_constraint(&row, Sense::Le, 0.5 * n as f64);
    let budget = 200 + 50 * (p.num_vars() + p.num_constraints()) as u64;
    for backend in BACKENDS {
        let mut ws = SimplexWorkspace::new();
        let s = solve_lp_in(
            &p,
            p.lower_bounds(),
            p.upper_bounds(),
            budget,
            &mut ws,
            backend,
        )
        .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        assert_close(s.objective, 0.0, &format!("{backend:?}"));
        assert!(p.is_feasible(&s.values, 1e-6), "{backend:?}");
        assert!(s.iterations < budget, "{backend:?}: {}", s.iterations);
        if backend == SolverBackend::Sparse {
            assert!(ws.dual_iterations() > 0, "the chain is inside the gate");
        }
    }
}

#[test]
fn degenerate_equality_block_with_redundant_rows() {
    // Equalities plus their implied redundant sum: the basis is
    // rank-deficient in the artificial space, leaving basic-at-zero
    // artificials that the pivoting must tolerate on both backends.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 10.0, 1.0, false);
    let y = p.add_var(0.0, 10.0, 2.0, false);
    let z = p.add_var(0.0, 10.0, 3.0, false);
    p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Eq, 4.0);
    p.add_constraint(&[(y, 1.0), (z, 1.0)], Sense::Eq, 6.0);
    p.add_constraint(&[(x, 1.0), (y, 2.0), (z, 1.0)], Sense::Eq, 10.0); // sum of the two
    for backend in BACKENDS {
        // min x + 2y + 3z s.t. x+y=4, y+z=6: substitute x=4-y, z=6-y:
        // 4-y+2y+18-3y = 22-2y, maximize y=4 => x=0,y=4,z=2 => obj 14.
        assert_close(lp(&p, backend), 14.0, &format!("{backend:?}"));
    }
}

#[test]
fn degenerate_ilp_agrees_across_backends_and_warm_modes() {
    // A budget exactly at an integer boundary makes most branch-and-bound
    // nodes degenerate; the sparse search, warm at every child, must
    // agree with the reference tableau's, cold at every node.
    let mut p = Problem::new();
    let vars: Vec<_> = (0..14)
        .map(|i| p.add_binary(-(1.0 + (i % 3) as f64)))
        .collect();
    let row: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    p.add_constraint(&row, Sense::Le, 7.0);
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
    }
    let mut objs = Vec::new();
    for backend in BACKENDS {
        let s = solve_ilp(
            &p,
            &IlpOptions {
                backend,
                ..Default::default()
            },
        )
        .expect("solvable");
        assert!(p.is_feasible(&s.values, 1e-6));
        objs.push(s.objective);
    }
    assert_close(objs[1], objs[0], "sparse (warm) against dense (cold)");
}
