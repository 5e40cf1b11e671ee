//! Warm-start soundness: a branch-and-bound search whose node LPs re-enter
//! warm from the shared workspace basis must be indistinguishable — same
//! objective, same feasible/infeasible verdict — from the reference
//! tableau's, which cold-starts every node, on random bounded
//! mixed-integer programs; and a sparse workspace re-enters warm exactly
//! when it last solved the same constraint matrix, while the reference
//! tableau never does.
//! Plus the presolve fast-fail contract: a pinned-vertex CPU sum over
//! budget is rejected with zero branch-and-bound nodes.

use proptest::prelude::*;
use wishbone_ilp::{
    solve_ilp, solve_ilp_in, solve_lp_in, IlpOptions, Problem, Sense, SimplexWorkspace, SolveError,
    SolverBackend, VarId,
};

const BACKENDS: [SolverBackend; 2] = [SolverBackend::Dense, SolverBackend::Sparse];

/// Random bounded MILPs: a mix of integer and continuous variables with
/// finite boxes, small integer-ish coefficients, a few ≤/≥ rows.
fn milp_strategy() -> impl Strategy<Value = Problem> {
    let n_vars = 2usize..7;
    n_vars.prop_flat_map(|n| {
        let vars = prop::collection::vec((-3i32..=0, 0i32..=3, -8i32..=8, prop::bool::ANY), n);
        let n_cons = 1usize..5;
        let cons = n_cons.prop_flat_map(move |m| {
            prop::collection::vec(
                (
                    prop::collection::vec(-4i32..=4, n),
                    prop::bool::ANY,
                    -8i32..=12,
                ),
                m,
            )
        });
        (vars, cons).prop_map(|(vars, cons)| {
            let mut p = Problem::new();
            let ids: Vec<_> = vars
                .iter()
                .map(|&(lo, up, obj, int)| {
                    p.add_var(f64::from(lo), f64::from(up), f64::from(obj), int)
                })
                .collect();
            for (coefs, is_le, rhs) in cons {
                let terms: Vec<_> = ids
                    .iter()
                    .zip(&coefs)
                    .filter(|(_, &c)| c != 0)
                    .map(|(&v, &c)| (v, f64::from(c)))
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                let sense = if is_le { Sense::Le } else { Sense::Ge };
                p.add_constraint(&terms, sense, f64::from(rhs));
            }
            p
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn warm_and_cold_bb_agree(p in milp_strategy()) {
        let warm = solve_ilp(&p, &IlpOptions::default());
        let cold = solve_ilp(&p, &IlpOptions { backend: SolverBackend::Dense, ..Default::default() });
        match (&warm, &cold) {
            (Ok(w), Ok(c)) => {
                prop_assert!((w.objective - c.objective).abs() < 1e-6,
                    "warm {} vs cold {}", w.objective, c.objective);
                prop_assert!(p.is_feasible(&w.values, 1e-6), "warm returned infeasible point");
                prop_assert!(p.is_feasible(&c.values, 1e-6), "cold returned infeasible point");
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "verdicts must match"),
            _ => prop_assert!(false, "warm {warm:?} vs cold {cold:?} verdicts diverge"),
        }
    }

    #[test]
    fn workspace_reuse_across_solves_is_transparent(p in milp_strategy()) {
        // One workspace carried across two back-to-back solves of the same
        // problem must not change the answer, although the second solve's
        // root re-enters from whatever basis the first one's last node
        // left behind.
        let mut ws = SimplexWorkspace::new();
        let (first, _) = solve_ilp_in(&p, &IlpOptions::default(), &mut ws);
        let (second, stats) = solve_ilp_in(&p, &IlpOptions::default(), &mut ws);
        if first.is_ok() && stats.nodes > 0 {
            prop_assert!(stats.warm_starts >= 1, "the second root must enter warm");
        }
        match (&first, &second) {
            (Ok(a), Ok(b)) => prop_assert!((a.objective - b.objective).abs() < 1e-9),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "reused workspace changed the verdict"),
        }
    }
}

#[test]
fn presolve_rejects_pinned_sum_over_budget_without_search() {
    // The ROADMAP open item in miniature: pinned vertices (f fixed at 1 by
    // bounds, exactly how the partitioner encodes Pin::Node) whose CPU sum
    // exceeds the budget row. Presolve must refuse before any node LP.
    let mut p = Problem::new();
    let pinned: Vec<_> = (0..5).map(|_| p.add_var(1.0, 1.0, 0.0, true)).collect();
    let movable: Vec<_> = (0..5).map(|_| p.add_binary(-1.0)).collect();
    let cpu_row: Vec<_> = pinned.iter().chain(&movable).map(|&v| (v, 0.3)).collect();
    p.add_constraint(&cpu_row, Sense::Le, 1.0); // 5 × 0.3 pinned > 1.0
    let mut ws = SimplexWorkspace::new();
    let (result, stats) = solve_ilp_in(&p, &IlpOptions::default(), &mut ws);
    assert_eq!(result, Err(SolveError::Infeasible));
    assert_eq!(stats.nodes, 0, "no branch-and-bound node may be explored");
    assert_eq!(stats.simplex_iterations, 0, "no simplex iteration may run");
    assert!(stats.proved);
}

/// `min −x − y` over `x, y ∈ [0, 4]` under two `≤ 4` rows with the given
/// coefficients.
fn two_rows(rows: [[f64; 2]; 2]) -> Problem {
    let mut p = Problem::new();
    let x = p.add_var(0.0, 4.0, -1.0, false);
    let y = p.add_var(0.0, 4.0, -1.0, false);
    for [a, b] in rows {
        p.add_constraint(&[(x, a), (y, b)], Sense::Le, 4.0);
    }
    p
}

fn lp_in(
    p: &Problem,
    ws: &mut SimplexWorkspace,
    backend: SolverBackend,
) -> Result<f64, SolveError> {
    solve_lp_in(p, p.lower_bounds(), p.upper_bounds(), 10_000, ws, backend).map(|s| s.objective)
}

#[test]
fn a_same_shaped_problem_never_inherits_another_matrix_basis() {
    // Same shape, same right-hand sides, same costs — only the matrix
    // differs. A workspace that tells problems apart by shape and rhs
    // alone re-enters the second from the first one's basis inverse and
    // returns −4 at a point the second problem forbids.
    let first = two_rows([[1.0, 1.0], [1.0, 1.0]]);
    let second = two_rows([[3.0, 1.0], [1.0, 3.0]]);
    for backend in BACKENDS {
        let mut ws = SimplexWorkspace::new();
        assert_eq!(lp_in(&first, &mut ws, backend), Ok(-4.0), "{backend:?}");
        let s = solve_lp_in(
            &second,
            second.lower_bounds(),
            second.upper_bounds(),
            10_000,
            &mut ws,
            backend,
        )
        .expect("feasible");
        assert!(
            second.is_feasible(&s.values, 1e-9),
            "{backend:?}: {:?}",
            s.values
        );
        assert!((s.objective + 2.0).abs() < 1e-9, "{backend:?}: {s:?}");
        assert_eq!(
            (ws.warm_starts(), ws.cold_starts()),
            (0, 2),
            "{backend:?}: a different matrix is a cold start"
        );
    }
}

#[test]
fn retargets_keep_the_basis_and_matrix_edits_drop_it() {
    let (x, y) = (VarId(0), VarId(1));
    for backend in BACKENDS {
        // The reference tableau solves every LP cold; the sparse backend
        // keeps its basis across everything but a matrix edit.
        let sparse = backend == SolverBackend::Sparse;
        let mut p = two_rows([[3.0, 1.0], [1.0, 3.0]]);
        let mut ws = SimplexWorkspace::new();
        // (what changed, expected objective, does the basis survive it)
        let mut step = |p: &Problem, what: &str, want: f64, warm: bool| {
            ws.reset_counters();
            let got = lp_in(p, &mut ws, backend).expect("feasible");
            assert!((got - want).abs() < 1e-9, "{backend:?} {what}: {got}");
            assert_eq!(
                (ws.warm_starts(), ws.cold_starts()),
                if warm && sparse { (1, 0) } else { (0, 1) },
                "{backend:?} after {what}"
            );
        };
        step(&p, "the first load", -2.0, false);
        step(&p.clone(), "a clone", -2.0, true);
        p.set_objective_coeff(x, -3.0);
        step(&p, "set_objective_coeff", -4.0, true);
        p.set_objective_coeff(x, -1.0);
        p.set_rhs(0, 8.0);
        step(&p, "set_rhs", -3.0, true);
        p.set_rhs(0, 4.0);
        step(&p, "set_rhs back", -2.0, true);
        p.rewrite_constraint(1, Sense::Le, 4.0, |t| t.extend([(x, 1.0), (y, 1.0)]));
        step(&p, "rewrite_constraint", -4.0, false);
        p.add_constraint(&[(y, 1.0)], Sense::Le, 1.0);
        step(&p, "add_constraint", -2.0, false);
        let z = p.add_var(0.0, 1.0, -1.0, false);
        step(&p, "add_var", -3.0, false);
        p.add_constraint(&[(z, 1.0)], Sense::Le, 0.5);
        step(&p, "add_constraint", -2.5, false);

        // Bound overrides are per solve and never touch the problem.
        ws.reset_counters();
        let tight = solve_lp_in(
            &p,
            p.lower_bounds(),
            &[0.5, 4.0, 1.0],
            10_000,
            &mut ws,
            backend,
        )
        .expect("feasible");
        assert!(
            (tight.objective + 2.0).abs() < 1e-9,
            "{backend:?}: {tight:?}"
        );
        assert_eq!(
            (ws.warm_starts(), ws.cold_starts()),
            if sparse { (1, 0) } else { (0, 1) },
            "{backend:?}"
        );
    }
}
