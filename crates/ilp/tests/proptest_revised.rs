//! Differential testing: the sparse revised simplex against the dense
//! tableau, which stays alive precisely to serve as the oracle here.
//!
//! The backends take different routes — the dense tableau a two-phase
//! primal, the sparse one a dual-first start wherever the problem admits
//! it — so on every random LP/ILP they must agree on the *status*
//! (optimal/infeasible/unbounded) and, when optimal, on the objective
//! within tolerance — including when the sparse solve re-enters **warm**
//! from a retained basis after a bound change, the exact access pattern
//! branch-and-bound children produce. The tableau solves every LP cold,
//! so each comparison holds a warm sparse answer to one built from
//! scratch.
//!
//! Three generators: Wishbone-shaped sparse instances (precedence chain
//! rows `f_u − f_v ≥ 0` plus a knapsack budget row — ≈2 nonzeros per
//! row); unconstrained-shape small MILPs that exercise equality rows,
//! negative bounds, and infeasible/unbounded corners (all of which the
//! dual-first gate must turn away); and boxed inequality-only LPs built
//! to stress the dual-first start itself — negative lower bounds, fixed
//! columns, duplicate terms, zero costs, and budgets tight enough that
//! about a third of the cases are infeasible.

use proptest::prelude::*;
use wishbone_ilp::{
    solve_ilp_in, solve_lp_in, IlpOptions, IlpSolution, IlpStats, Problem, Sense, SimplexWorkspace,
    SolveError, SolverBackend, VarId,
};

const SPARSE: SolverBackend = SolverBackend::Sparse;

/// Wishbone-shaped sparse LPs/ILPs: a precedence chain, a budget row,
/// and reducing per-vertex objective coefficients.
fn chain_strategy() -> impl Strategy<Value = Problem> {
    let n_vars = 3usize..12;
    (n_vars, prop::bool::ANY).prop_flat_map(|(n, integral)| {
        let objs = prop::collection::vec(-20i32..=20, n);
        let weights = prop::collection::vec(1i32..=9, n);
        let budget = 2i32..=24;
        (objs, weights, budget).prop_map(move |(objs, weights, budget)| {
            let mut p = Problem::new();
            let vars: Vec<VarId> = objs
                .iter()
                .map(|&o| p.add_var(0.0, 1.0, f64::from(o), integral))
                .collect();
            for w in vars.windows(2) {
                p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
            }
            let row: Vec<_> = vars
                .iter()
                .zip(&weights)
                .map(|(&v, &w)| (v, f64::from(w)))
                .collect();
            p.add_constraint(&row, Sense::Le, f64::from(budget) * 0.25);
            p
        })
    })
}

/// Free-form small MILPs (the same family `proptest_warm.rs` uses):
/// mixed senses, equality rows, negative bounds, possible infeasibility.
fn milp_strategy() -> impl Strategy<Value = Problem> {
    let n_vars = 2usize..7;
    n_vars.prop_flat_map(|n| {
        let vars = prop::collection::vec((-3i32..=0, 0i32..=3, -8i32..=8, prop::bool::ANY), n);
        let n_cons = 1usize..5;
        let cons = n_cons.prop_flat_map(move |m| {
            prop::collection::vec(
                (prop::collection::vec(-4i32..=4, n), 0u8..=2, -8i32..=12),
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
            for (coefs, sense, rhs) in cons {
                let terms: Vec<_> = ids
                    .iter()
                    .zip(&coefs)
                    .filter(|(_, &c)| c != 0)
                    .map(|(&v, &c)| (v, f64::from(c)))
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                let sense = match sense {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Eq,
                };
                p.add_constraint(&terms, sense, f64::from(rhs));
            }
            p
        })
    })
}

/// Boxed, inequality-only LPs — everything the dual-first gate accepts,
/// shaped to be hard on it: negative lower bounds, fixed (`lo == hi`)
/// columns, duplicate terms within a row, zero costs (dual degeneracy),
/// and each right-hand side placed at a random fraction of the row's
/// activity range over the box, from just outside it (the row alone is
/// infeasible) to well inside.
fn boxed_ineq_strategy() -> impl Strategy<Value = Problem> {
    let n_vars = 2usize..9;
    n_vars.prop_flat_map(|n| {
        // (lower, width, cost, zero the cost?)
        let vars = prop::collection::vec((-3i32..=1, 0i32..=4, -6i32..=6, 0u8..=2), n);
        let n_rows = 1usize..6;
        let rows = n_rows.prop_flat_map(move |m| {
            prop::collection::vec(
                (
                    // Terms drawn with replacement: duplicates happen.
                    prop::collection::vec((0..n, -4i32..=4), 1..n + 3),
                    prop::bool::ANY,
                    -1i32..=26,
                ),
                m,
            )
        });
        (vars, rows).prop_map(|(vars, rows)| {
            let mut p = Problem::new();
            let ids: Vec<VarId> = vars
                .iter()
                .map(|&(lo, width, cost, zero)| {
                    let cost = if zero == 0 { 0 } else { cost };
                    p.add_var(f64::from(lo), f64::from(lo + width), f64::from(cost), false)
                })
                .collect();
            for (terms, is_le, frac) in rows {
                let terms: Vec<(VarId, f64)> = terms
                    .into_iter()
                    .filter(|&(_, c)| c != 0)
                    .map(|(j, c)| (ids[j], f64::from(c)))
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                // The row's activity range over the box.
                let (mut min, mut max) = (0.0, 0.0);
                for &(v, c) in &terms {
                    let (lo, hi) = (p.lower_bounds()[v.0], p.upper_bounds()[v.0]);
                    min += (c * lo).min(c * hi);
                    max += (c * lo).max(c * hi);
                }
                // `frac` < 0 puts the bound outside the range; a `≤` row
                // measures it up from the minimum, a `≥` row down from the
                // maximum, so small fractions are tight either way.
                let t = f64::from(frac) / 20.0;
                if is_le {
                    p.add_constraint(&terms, Sense::Le, min + t * (max - min));
                } else {
                    p.add_constraint(&terms, Sense::Ge, max - t * (max - min));
                }
            }
            p
        })
    })
}

fn backend_opts(backend: SolverBackend) -> IlpOptions {
    IlpOptions {
        backend,
        ..Default::default()
    }
}

/// Solve the LP relaxation on a forced backend through a fresh workspace.
fn lp_on(p: &Problem, backend: SolverBackend) -> Result<f64, wishbone_ilp::SolveError> {
    solve_lp_in(
        p,
        p.lower_bounds(),
        p.upper_bounds(),
        50_000,
        &mut SimplexWorkspace::new(),
        backend,
    )
    .map(|s| s.objective)
}

/// Branch and bound on a forced backend through a fresh workspace: the
/// answer and the search's report.
fn ilp_on(p: &Problem, backend: SolverBackend) -> (Result<IlpSolution, SolveError>, IlpStats) {
    solve_ilp_in(p, &backend_opts(backend), &mut SimplexWorkspace::new())
}

/// Did the reference tableau run the search? Read from the counters, not
/// from the options: only the sparse method factorizes a basis,
/// re-enters warm or leaves a refutation.
fn ran_dense(stats: &IlpStats) -> bool {
    stats.refactorizations == 0 && stats.warm_starts == 0 && stats.refutation.is_none()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn lp_status_and_objective_agree_on_chains(p in chain_strategy()) {
        let dense = lp_on(&p, SolverBackend::Dense);
        let sparse = lp_on(&p, SolverBackend::Sparse);
        match (&dense, &sparse) {
            (Ok(d), Ok(s)) => prop_assert!(
                (d - s).abs() < 1e-6 * (1.0 + d.abs()),
                "dense {d} vs sparse {s}"
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "statuses must match"),
            _ => prop_assert!(false, "dense {dense:?} vs sparse {sparse:?} diverge"),
        }
    }

    #[test]
    fn lp_status_and_objective_agree_on_free_form(p in milp_strategy()) {
        let dense = lp_on(&p, SolverBackend::Dense);
        let sparse = lp_on(&p, SolverBackend::Sparse);
        match (&dense, &sparse) {
            (Ok(d), Ok(s)) => prop_assert!(
                (d - s).abs() < 1e-6 * (1.0 + d.abs()),
                "dense {d} vs sparse {s}"
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "statuses must match"),
            _ => prop_assert!(false, "dense {dense:?} vs sparse {sparse:?} diverge"),
        }
    }

    #[test]
    fn dual_first_start_agrees_with_the_dense_oracle(p in boxed_ineq_strategy()) {
        let dense = lp_on(&p, SolverBackend::Dense);
        let mut ws = SimplexWorkspace::new();
        let sparse = solve_lp_in(&p, p.lower_bounds(), p.upper_bounds(), 50_000, &mut ws, SPARSE);
        match (&dense, &sparse) {
            (Ok(d), Ok(s)) => {
                prop_assert!(
                    (d - s.objective).abs() < 1e-6 * (1.0 + d.abs()),
                    "dense {d} vs sparse {}", s.objective
                );
                prop_assert!(p.is_feasible(&s.values, 1e-6), "sparse point infeasible");
            }
            // Every `Infeasible` of the dual pass is a claim the oracle
            // must confirm (and vice versa); nothing here is unbounded.
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b, "statuses must match");
                prop_assert_eq!(*a, SolveError::Infeasible);
            }
            _ => prop_assert!(false, "dense {dense:?} vs sparse {sparse:?} diverge"),
        }
        // The family is inside the gate, so an infeasibility verdict came
        // from the dual pass alone — no primal pass runs after it.
        if sparse.is_err() {
            prop_assert!(ws.dual_iterations() > 0, "the dual-first start did not run");
            prop_assert_eq!(ws.primal_iterations(), 0);
        }
    }

    #[test]
    fn ilp_verdicts_agree(p in chain_strategy()) {
        let (dense, d_stats) = ilp_on(&p, SolverBackend::Dense);
        let (sparse, s_stats) = ilp_on(&p, SolverBackend::Sparse);
        prop_assert!(ran_dense(&d_stats), "the tableau ran: {d_stats:?}");
        if s_stats.nodes > 0 {
            prop_assert!(s_stats.refactorizations > 0, "the sparse method ran: {s_stats:?}");
        }
        match (&dense, &sparse) {
            (Ok(d), Ok(s)) => {
                prop_assert!(
                    (d.objective - s.objective).abs() < 1e-6 * (1.0 + d.objective.abs()),
                    "dense {} vs sparse {}", d.objective, s.objective
                );
                prop_assert!(p.is_feasible(&s.values, 1e-6), "sparse point infeasible");
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "verdicts must match"),
            _ => prop_assert!(false, "dense {dense:?} vs sparse {sparse:?} diverge"),
        }
    }

    #[test]
    fn ilp_verdicts_agree_on_free_form(p in milp_strategy()) {
        let dense = p.solve_ilp(&backend_opts(SolverBackend::Dense));
        let sparse = p.solve_ilp(&backend_opts(SolverBackend::Sparse));
        match (&dense, &sparse) {
            (Ok(d), Ok(s)) => {
                prop_assert!(
                    (d.objective - s.objective).abs() < 1e-6 * (1.0 + d.objective.abs()),
                    "dense {} vs sparse {}", d.objective, s.objective
                );
                prop_assert!(p.is_feasible(&s.values, 1e-6), "sparse point infeasible");
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "verdicts must match"),
            _ => prop_assert!(false, "dense {dense:?} vs sparse {sparse:?} diverge"),
        }
    }

    #[test]
    fn warm_resolves_agree_across_backends(
        p in chain_strategy(),
        tighten in prop::collection::vec(prop::bool::ANY, 12),
    ) {
        // First solve retains a basis; the re-solve tightens a subset of
        // upper bounds to 0 (exactly what branching on f_j = 0 does),
        // re-enters warm on the sparse backend and cold on the tableau,
        // and must reach the same verdict.
        let lower = p.lower_bounds().to_vec();
        let upper = p.upper_bounds().to_vec();
        let mut tight = upper.clone();
        for (j, t) in tight.iter_mut().zip(&tighten) {
            if *t {
                *j = 0.0;
            }
        }

        let mut results = Vec::new();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut ws = SimplexWorkspace::new();
            let first = solve_lp_in(&p, &lower, &upper, 50_000, &mut ws, backend);
            prop_assert!(first.is_ok(), "{backend:?} root must solve: {first:?}");
            let second = solve_lp_in(&p, &lower, &tight, 50_000, &mut ws, backend);
            results.push(second.map(|s| s.objective));
        }
        match (&results[0], &results[1]) {
            (Ok(d), Ok(s)) => prop_assert!(
                (d - s).abs() < 1e-6 * (1.0 + d.abs()),
                "warm dense {d} vs warm sparse {s}"
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "warm statuses must match"),
            (a, b) => prop_assert!(false, "warm dense {a:?} vs warm sparse {b:?}"),
        }

        // Sparse, then the tableau, then sparse again, in one workspace:
        // the tableau overwrote the basis the first solve retained, so
        // the third solve must not re-enter from it.
        let mut ws = SimplexWorkspace::new();
        let mut objectives = Vec::new();
        for backend in [SolverBackend::Sparse, SolverBackend::Dense, SolverBackend::Sparse] {
            let warm_before = ws.warm_starts();
            let s = solve_lp_in(&p, &lower, &upper, 50_000, &mut ws, backend);
            prop_assert!(s.is_ok(), "{backend:?} must solve: {s:?}");
            prop_assert_eq!(ws.warm_starts(), warm_before, "{:?} re-entered warm", backend);
            objectives.push(s.unwrap().objective);
        }
        for o in &objectives[1..] {
            prop_assert!(
                (o - objectives[0]).abs() <= 1e-9 * (1.0 + o.abs()),
                "interleaved backends disagree: {objectives:?}"
            );
        }
    }

    #[test]
    fn infeasibility_list_is_exact_at_every_selection(
        p in boxed_ineq_strategy(),
        rounds in prop::collection::vec(prop::collection::vec(0u8..=3, 9), 1..5),
    ) {
        // The sparse dual prices over a maintained list of infeasible
        // basis positions. Under `debug_assertions` (every `cargo test`
        // without `--release`) each leaving-row selection asserts that
        // the list is exactly `{i : viol_i ≠ 0}`; this case walks the
        // ways the list is built and edited — a cold dual-first pass,
        // then warm re-entries under bounds fixed low, fixed high and
        // released again, infeasible dead ends included — and holds each
        // warm answer to a fresh solve's while it is there.
        let lower = p.lower_bounds().to_vec();
        let upper = p.upper_bounds().to_vec();
        let mut ws = SimplexWorkspace::new();
        let _ = solve_lp_in(&p, &lower, &upper, 50_000, &mut ws, SPARSE);
        for moves in &rounds {
            let (mut lo, mut up) = (lower.clone(), upper.clone());
            for (j, &mv) in moves.iter().enumerate().take(lo.len()) {
                match mv {
                    0 => up[j] = lo[j],
                    1 => lo[j] = up[j],
                    _ => {}
                }
            }
            let warm = solve_lp_in(&p, &lo, &up, 50_000, &mut ws, SPARSE).map(|s| s.objective);
            let fresh = solve_lp_in(&p, &lo, &up, 50_000, &mut SimplexWorkspace::new(), SPARSE)
                .map(|s| s.objective);
            match (&warm, &fresh) {
                (Ok(w), Ok(f)) => prop_assert!(
                    (w - f).abs() < 1e-6 * (1.0 + f.abs()),
                    "warm {w} vs fresh {f}"
                ),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "statuses must match"),
                (a, b) => prop_assert!(false, "warm {a:?} vs fresh {b:?}"),
            }
        }
    }
}

#[test]
fn sparse_warm_start_is_exercised_and_counted() {
    // A branching chain ILP on the forced-sparse backend must actually
    // re-enter children warm (not silently cold-start every node).
    let mut p = Problem::new();
    let vars: Vec<VarId> = (0..10)
        .map(|i| p.add_var(0.0, 1.0, -((i * 3 % 7) as f64) - 1.21, true))
        .collect();
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
    }
    let row: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (i % 4 + 1) as f64 + 0.5))
        .collect();
    p.add_constraint(&row, Sense::Le, 9.7);

    let (sparse, stats) = ilp_on(&p, SolverBackend::Sparse);
    let dense = p.solve_ilp(&backend_opts(SolverBackend::Dense)).unwrap();
    assert!((sparse.unwrap().objective - dense.objective).abs() < 1e-6);
    if stats.nodes > 1 {
        assert!(
            stats.warm_starts > 0,
            "sparse children must re-enter warm: {stats:?}"
        );
    }
}

/// A boxed chain with a budget row: inside the dual-first gate.
fn gate_chain() -> (Problem, Vec<VarId>) {
    let mut p = Problem::new();
    let vars: Vec<VarId> = (0..12)
        .map(|i| p.add_var(0.0, 1.0, -1.0 - (i % 3) as f64, false))
        .collect();
    for w in vars.windows(2) {
        p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
    }
    let row: Vec<_> = vars.iter().map(|&v| (v, 1.5)).collect();
    p.add_constraint(&row, Sense::Le, 7.0);
    (p, vars)
}

/// Cold-solve `p` on the sparse backend; `(objective, dual, primal)`.
fn sparse_counts(p: &Problem) -> (Result<f64, SolveError>, u64, u64) {
    let mut ws = SimplexWorkspace::new();
    let r = solve_lp_in(
        p,
        p.lower_bounds(),
        p.upper_bounds(),
        50_000,
        &mut ws,
        SPARSE,
    );
    (
        r.map(|s| s.objective),
        ws.dual_iterations(),
        ws.primal_iterations(),
    )
}

#[test]
fn dual_first_gate_reads_the_problem_it_is_handed() {
    // Inside the gate: the cold solve is dual-first.
    let (p, vars) = gate_chain();
    let dense = lp_on(&p, SolverBackend::Dense).unwrap();
    let (obj, dual, _) = sparse_counts(&p);
    assert!((obj.unwrap() - dense).abs() < 1e-6);
    assert!(dual > 0, "a boxed inequality-only LP must start dual-first");

    // One equality row needs an artificial: two-phase primal, no dual
    // iteration at all.
    let mut with_eq = p.clone();
    with_eq.add_constraint(&[(vars[0], 1.0), (vars[11], 1.0)], Sense::Eq, 1.0);
    let dense = lp_on(&with_eq, SolverBackend::Dense).unwrap();
    let (obj, dual, primal) = sparse_counts(&with_eq);
    assert!((obj.unwrap() - dense).abs() < 1e-6);
    assert_eq!(dual, 0, "an Eq row must take the two-phase primal");
    assert!(primal > 0);

    // A column whose cost improves towards an infinite bound has no
    // bound to park at: primal again — bounded by a row here …
    let mut open = p.clone();
    let z = open.add_var(0.0, f64::INFINITY, -1.0, false);
    open.add_constraint(&[(z, 1.0), (vars[0], 1.0)], Sense::Le, 5.0);
    let dense = lp_on(&open, SolverBackend::Dense).unwrap();
    let (obj, dual, primal) = sparse_counts(&open);
    assert!((obj.unwrap() - dense).abs() < 1e-6);
    assert_eq!(dual, 0, "an improving infinite bound must take the primal");
    assert!(primal > 0);

    // … and genuinely unbounded there, which only the primal can say.
    let mut unbounded = p.clone();
    unbounded.add_var(0.0, f64::INFINITY, -1.0, false);
    let (obj, dual, _) = sparse_counts(&unbounded);
    assert_eq!(obj, Err(SolveError::Unbounded));
    assert_eq!(dual, 0);

    // An infinite bound on the side the cost does *not* improve towards
    // is no obstacle: the column parks at its finite lower bound.
    let mut harmless = p.clone();
    let z = harmless.add_var(0.0, f64::INFINITY, 2.0, false);
    harmless.add_constraint(&[(z, 1.0), (vars[0], 1.0)], Sense::Ge, 1.5);
    let dense = lp_on(&harmless, SolverBackend::Dense).unwrap();
    let (obj, dual, _) = sparse_counts(&harmless);
    assert!((obj.unwrap() - dense).abs() < 1e-6);
    assert!(dual > 0);

    // The gate reads the bounds of *this* solve, not the problem's own:
    // a branch-and-bound override that boxes the open column lets it in.
    let mut ws = SimplexWorkspace::new();
    let mut upper = open.upper_bounds().to_vec();
    upper[z.0] = 3.0;
    let boxed = solve_lp_in(&open, open.lower_bounds(), &upper, 50_000, &mut ws, SPARSE).unwrap();
    let want = solve_lp_in(
        &open,
        open.lower_bounds(),
        &upper,
        50_000,
        &mut SimplexWorkspace::new(),
        SolverBackend::Dense,
    )
    .unwrap();
    assert!((boxed.objective - want.objective).abs() < 1e-6);
    assert!(ws.dual_iterations() > 0);
}

#[test]
fn auto_threshold_routes_by_size() {
    // There is no threshold: the default is the sparse backend at every
    // size, and the reference tableau runs only when a caller names it.
    assert_eq!(IlpOptions::default().backend, SolverBackend::Sparse);

    let mut small = Problem::new();
    let x = small.add_var(0.0, 1.0, -1.0, false);
    small.add_constraint(&[(x, 1.0)], Sense::Le, 1.0);

    let mut big = Problem::new();
    let vars: Vec<VarId> = (0..65).map(|_| p_var(&mut big)).collect();
    for w in vars.windows(2) {
        big.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
    }
    let row: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    big.add_constraint(&row, Sense::Le, 10.0);

    for p in [&small, &big] {
        let (default, stats) =
            solve_ilp_in(p, &IlpOptions::default(), &mut SimplexWorkspace::new());
        assert!(
            stats.refactorizations > 0,
            "only the sparse backend factorizes a basis"
        );
        let (dense, dense_stats) = ilp_on(p, SolverBackend::Dense);
        assert!(ran_dense(&dense_stats), "{dense_stats:?}");
        assert!((default.unwrap().objective - dense.unwrap().objective).abs() < 1e-6);
    }
}

/// The shapes so small that only the tableau met them while a size
/// threshold routed them there: both backends must return the verdict /
/// objective worked out by hand. Every shape but the first starts from
/// `min −x + y/2` over `x ∈ [0, 1]`, `y ∈ [−1, 2]` (optimum −1.5).
#[test]
fn tiny_shapes_agree_across_backends() {
    type Shape = (
        &'static str,
        fn(&mut Problem, VarId, VarId),
        Result<f64, SolveError>,
    );
    let shapes: [Shape; 9] = [
        ("no rows", |_, _, _| {}, Ok(-1.5)),
        (
            "Eq only",
            |p, x, y| p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Eq, 1.5),
            Ok(-0.75),
        ),
        (
            "empty row, rhs +1",
            |p, _, _| p.add_constraint(&[], Sense::Le, 1.0),
            Ok(-1.5),
        ),
        (
            "empty row, rhs -1",
            |p, _, _| p.add_constraint(&[], Sense::Le, -1.0),
            Err(SolveError::Infeasible),
        ),
        (
            "empty Ge row, rhs +1",
            |p, _, _| p.add_constraint(&[], Sense::Ge, 1.0),
            Err(SolveError::Infeasible),
        ),
        (
            "duplicated term",
            |p, x, y| p.add_constraint(&[(x, 1.0), (y, 1.0), (x, 1.0)], Sense::Le, 0.5),
            Ok(-1.25),
        ),
        (
            "zero coefficient",
            |p, x, y| p.add_constraint(&[(x, 0.0), (y, 1.0)], Sense::Ge, 0.5),
            Ok(-0.75),
        ),
        (
            "unbounded ray",
            |p, x, _| {
                let z = p.add_var(0.0, f64::INFINITY, -1.0, false);
                p.add_constraint(&[(z, 1.0), (x, -1.0)], Sense::Ge, 0.0);
            },
            Err(SolveError::Unbounded),
        ),
        (
            "infeasible box",
            |p, x, y| p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 5.0),
            Err(SolveError::Infeasible),
        ),
    ];
    let check = |name: &str, p: &Problem, want: &Result<f64, SolveError>| {
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            match (lp_on(p, backend), want) {
                (Ok(got), Ok(want)) => {
                    assert!((got - want).abs() < 1e-9, "{name} on {backend:?}: {got}")
                }
                (got, want) => assert_eq!(&got, want, "{name} on {backend:?}"),
            }
        }
    };
    check("no variables", &Problem::new(), &Ok(0.0));
    for (name, build, want) in shapes {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, -1.0, false);
        let y = p.add_var(-1.0, 2.0, 0.5, false);
        build(&mut p, x, y);
        check(name, &p, &want);
    }
}

fn p_var(p: &mut Problem) -> VarId {
    p.add_var(0.0, 1.0, -1.0, false)
}
