//! Property tests: the branch-and-bound solver must agree with exhaustive
//! enumeration on random small binary programs and budgeted covers, on
//! either simplex backend, and LP relaxations must lower-bound the
//! integer optimum.

use proptest::prelude::*;
use wishbone_ilp::{
    solve_ilp, solve_ilp_in, solve_lp, IlpOptions, Problem, Sense, SimplexWorkspace, SolveError,
    SolverBackend, VarId,
};

/// Exhaustively enumerate all 0/1 assignments of an all-binary problem.
fn brute_force(p: &Problem) -> Option<f64> {
    let n = p.num_vars();
    assert!(n <= 16);
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let x: Vec<f64> = (0..n).map(|j| f64::from((mask >> j) & 1)).collect();
        if p.is_feasible(&x, 1e-9) {
            let obj = p.objective_value(&x);
            if best.is_none_or(|b| obj < b) {
                best = Some(obj);
            }
        }
    }
    best
}

/// Strategy: a random binary minimization problem with a few ≤/≥
/// constraints over small integer-ish coefficients.
fn problem_strategy() -> impl Strategy<Value = Problem> {
    let n_vars = 2usize..8;
    n_vars.prop_flat_map(|n| {
        let objs = prop::collection::vec(-8i32..=8, n);
        let n_cons = 1usize..5;
        let cons = n_cons.prop_flat_map(move |m| {
            prop::collection::vec(
                (
                    prop::collection::vec(-4i32..=4, n),
                    prop::bool::ANY,
                    -6i32..=10,
                ),
                m,
            )
        });
        (objs, cons).prop_map(|(objs, cons)| {
            let mut p = Problem::new();
            let vars: Vec<_> = objs.iter().map(|&c| p.add_binary(f64::from(c))).collect();
            for (coefs, is_le, rhs) in cons {
                let terms: Vec<_> = vars
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

/// Strategy: a budgeted cover over binaries — items worth at least a
/// demand (a `≥` row) within a weight budget (a `≤` row) — plus
/// `x_j ≥ x_{j+1}` rows between random neighbours, like the partitioner's
/// cut rows. Half the problems get one more item, a heavy one worth more
/// per unit weight than any other, which presolve fixes out at a tight
/// budget.
fn budgeted_cover() -> impl Strategy<Value = Problem> {
    (3usize..10)
        .prop_flat_map(|n| {
            (
                prop::collection::vec((1i32..=4, 1i32..=9, -5i32..=5, prop::bool::ANY), n),
                (8i32..=16, -5i32..=5, prop::bool::ANY),
                0.2f64..0.8,
                0.4f64..0.95,
            )
        })
        .prop_map(
            |(mut items, (heavy, cost, jackpot), budget_frac, demand_frac)| {
                let light = |pick: fn(&(i32, i32, i32, bool)) -> i32| -> f64 {
                    items.iter().map(|item| f64::from(pick(item))).sum()
                };
                let (budget, demand) = (budget_frac * light(|i| i.0), demand_frac * light(|i| i.1));
                if jackpot {
                    items.push((heavy, 10 * heavy, cost, false));
                }
                let mut p = Problem::new();
                let vars: Vec<VarId> = items
                    .iter()
                    .map(|&(_, _, c, _)| p.add_binary(f64::from(c)))
                    .collect();
                let row = |pick: fn(&(i32, i32, i32, bool)) -> i32| -> Vec<(VarId, f64)> {
                    vars.iter()
                        .zip(&items)
                        .map(|(&v, item)| (v, f64::from(pick(item))))
                        .collect()
                };
                p.add_constraint(&row(|i| i.0), Sense::Le, budget);
                p.add_constraint(&row(|i| i.1), Sense::Ge, demand);
                for (j, pair) in vars.windows(2).enumerate() {
                    if items[j].3 {
                        p.add_constraint(&[(pair[0], 1.0), (pair[1], -1.0)], Sense::Ge, 0.0);
                    }
                }
                p
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bb_matches_brute_force(p in prop_oneof![problem_strategy(), budgeted_cover()]) {
        let expected = brute_force(&p);
        for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
            let opts = IlpOptions { backend, ..Default::default() };
            let (got, _) = solve_ilp_in(&p, &opts, &mut SimplexWorkspace::new());
            match (expected, got) {
                (None, Err(SolveError::Infeasible)) => {}
                (None, Ok(s)) => prop_assert!(false, "{:?} found {:?} but problem infeasible", backend, s.values),
                (Some(e), Ok(s)) => {
                    prop_assert!(p.is_feasible(&s.values, 1e-6), "{:?} returned infeasible point", backend);
                    prop_assert!((s.objective - e).abs() < 1e-6,
                        "{:?} objective {} != brute-force {}", backend, s.objective, e);
                }
                (Some(e), Err(err)) => prop_assert!(false, "{:?} error {err} but optimum {e} exists", backend),
                (None, Err(err)) => prop_assert!(false, "{:?}: expected Infeasible, got {err}", backend),
            }
        }
    }

    #[test]
    fn lp_relaxation_lower_bounds_ilp(p in problem_strategy()) {
        if let (Ok(lp), Ok(ilp)) = (solve_lp(&p), solve_ilp(&p, &IlpOptions::default())) {
            prop_assert!(lp.objective <= ilp.objective + 1e-6,
                "LP bound {} above ILP optimum {}", lp.objective, ilp.objective);
        }
    }

    #[test]
    fn lp_solution_is_feasible(p in problem_strategy()) {
        if let Ok(lp) = solve_lp(&p) {
            prop_assert!(p.is_feasible(&lp.values, 1e-6));
        }
    }

    #[test]
    fn gap_termination_never_worse_than_gap(p in problem_strategy()) {
        let exact = solve_ilp(&p, &IlpOptions::default());
        let (loose, stats) = solve_ilp_in(
            &p,
            &IlpOptions { rel_gap: 0.10, ..Default::default() },
            &mut SimplexWorkspace::new(),
        );
        if let (Ok(a), Ok(b)) = (exact, loose) {
            // A 10% gap solve may stop early but can never return an
            // incumbent worse than 10% off the optimum (plus absolute fuzz).
            let slack = 1e-6 + 0.10 * a.objective.abs().max(1.0);
            prop_assert!(b.objective <= a.objective + slack,
                "gap solve {} vs exact {}", b.objective, a.objective);
            // Its bound stays a bound: the nodes the gap pruned count.
            let bound = stats.best_bound.expect("an incumbent bounds the tree");
            prop_assert!(bound <= a.objective + 1e-6,
                "gap solve's bound {} above the optimum {}", bound, a.objective);
        }
    }
}
