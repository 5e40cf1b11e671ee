//! The closure relaxation (`wishbone::ilp::solve_closure_in`) against the
//! dense tableau, on random trees of depth k = 2 – 4 over profiled
//! pipelines. Per case:
//!
//! * the closure's objective is the dense LP's with the budget rows
//!   dropped (1e-9), and its cut is the source-minimal one: pinning any
//!   variable it sets to 1 at 0 raises that LP's optimum;
//! * a closure that fits every budget row is a dense `solve_ilp` optimum
//!   of the full problem (1e-9);
//! * the closure placement fits at its ceiling `min C / (a·y + shift)`
//!   over the budget rows, and `max_sustainable_rate_deployment` never
//!   returns below `ceiling / (1 + tol)`;
//! * each budget row's floor certificate (`row_floor_in`) has the
//!   min-cut's objective under the row's own coefficients as its box
//!   minimum (1e-9), as the dense LP does, and refutes exactly when that
//!   floor clears the row's right-hand side by the margin.
//!
//! * at rates straddling the closure ceiling, every floor that refutes
//!   the retargeted problem is confirmed `Infeasible` by `solve_ilp_in`
//!   on that problem, on either backend, and by `solve_at` itself.

use proptest::prelude::*;

use wishbone::core::{
    max_sustainable_rate_deployment, Deployment, DeploymentConfig, LinkSpec, PartitionError,
    PreparedDeployment, Site,
};
use wishbone::ilp::{
    row_floor_in, solve_closure_in, solve_ilp, solve_ilp_in, solve_lp_in, IlpOptions, Problem,
    SimplexWorkspace, SolveError, SolverBackend, VarId,
};
use wishbone::prelude::Platform;

#[path = "common/fleet.rs"]
#[allow(dead_code)] // the load generators are `fleet_parity.rs`'s
mod fleet;

/// Weights and budgets of one case, per site of the drawn shape: a CPU
/// weight and budget, an uplink weight and budget. A zero weight on both
/// ends of a hop makes its indicators free, and the closure's optimum a
/// tie that only the source-minimal cut settles.
struct Budgets {
    alpha: Vec<f64>,
    cpu: Vec<f64>,
    beta: Vec<f64>,
    net: Vec<f64>,
}

/// Shape 0: a two-site star; 1: two leaves under the server (k = 2);
/// 2: a mote → phone → server chain (k = 3); 3: two wards under two
/// gateways (k = 3); 4: a mote → phone → phone → server chain (k = 4).
/// Site `s` gets the `s`-th budgets; the first leaf `count` devices.
fn deployment(shape: usize, b: &Budgets, count: usize) -> Deployment {
    let (mote, phone) = (Platform::tmote_sky(), Platform::iphone());
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let mut attach = |parent, name: &str, platform: &Platform, count: usize| {
        let s = dep.len();
        let site = Site::new(name, platform)
            .with_alpha(b.alpha[s])
            .with_cpu_budget(b.cpu[s])
            .with_count(count);
        let link = LinkSpec {
            beta: b.beta[s],
            net_budget: b.net[s],
        };
        dep.attach(parent, site, link)
    };
    let root = wishbone::core::SiteId(0);
    match shape {
        0 => {
            attach(root, "motes", &mote, count);
        }
        1 => {
            attach(root, "motes-a", &mote, count);
            attach(root, "motes-b", &mote, 1);
        }
        2 | 4 => {
            let mut parent = attach(root, "gw", &phone, 1);
            if shape == 4 {
                parent = attach(parent, "relay", &phone, 1);
            }
            attach(parent, "motes", &mote, count);
        }
        _ => {
            let gw_a = attach(root, "gw-a", &phone, 1);
            let gw_b = attach(root, "gw-b", &phone, 1);
            attach(gw_a, "motes-a", &mote, count);
            attach(gw_b, "motes-b", &mote, 1);
        }
    }
    dep
}

/// The problem's costs, one per variable.
fn costs(p: &Problem) -> Vec<f64> {
    (0..p.num_vars())
        .map(|j| p.objective_coeff(VarId(j)))
        .collect()
}

/// `p` without the rows in `dropped`.
fn without_rows(p: &Problem, dropped: &[usize]) -> Problem {
    let mut q = Problem::new();
    for (j, (&lo, &up)) in p.lower_bounds().iter().zip(p.upper_bounds()).enumerate() {
        q.add_var(lo, up, p.objective_coeff(VarId(j)), p.is_integer(VarId(j)));
    }
    for row in (0..p.num_constraints()).filter(|r| !dropped.contains(r)) {
        let c = p.constraint(row);
        q.add_constraint(&c.terms, c.sense, c.rhs);
    }
    q
}

/// The dense tableau's LP optimum of `p` under the given bounds.
fn dense_lp(p: &Problem, lower: &[f64], upper: &[f64]) -> Result<f64, SolveError> {
    let mut ws = SimplexWorkspace::new();
    solve_lp_in(p, lower, upper, 1_000_000, &mut ws, SolverBackend::Dense).map(|lp| lp.objective)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn check_case(
    shape: usize,
    app: (usize, &[u64], &[usize]),
    b: &Budgets,
    count: usize,
    tol: f64,
) -> Result<usize, TestCaseError> {
    let (stages, cost, keep) = app;
    let (graph, prof) = fleet::pipeline(stages, |s| (cost[s], keep[s]), 10, 128);
    let dep = deployment(shape, b, count);
    let cfg = DeploymentConfig::default();
    let Ok(mut prep) = PreparedDeployment::new(&graph, &prof, &dep, &cfg) else {
        return Ok(0);
    };
    // A fresh instance's problem is at unit rate: costs × 1, each CPU
    // row's right-hand side `C − shift`, each uplink row's `B`.
    let (p, ep) = (prep.problem(), prep.encoded());
    let mut rows: Vec<(usize, f64)> = ep
        .cpu_rows
        .iter()
        .flatten()
        .map(|r| (r.row, r.shift))
        .collect();
    rows.extend(ep.net_rows.iter().flatten().map(|&r| (r, 0.0)));
    let budget_rows: Vec<usize> = rows.iter().map(|&(r, _)| r).collect();

    let (mut ws, mut y) = (SimplexWorkspace::new(), Vec::new());
    let cut = solve_closure_in(p, &costs(p), &mut ws, &mut y);
    let relaxed = without_rows(p, &budget_rows);
    let (lower, upper) = (p.lower_bounds(), p.upper_bounds());
    let lp = dense_lp(&relaxed, lower, upper);
    let cut = match (cut, lp) {
        (Some(cut), Ok(lp)) => {
            prop_assert!(
                close(cut.objective, lp),
                "closure {} vs dense LP {}",
                cut.objective,
                lp
            );
            prop_assert_eq!(cut.side_rows, budget_rows.len());
            cut
        }
        (None, Err(SolveError::Infeasible)) => return Ok(0),
        (cut, lp) => {
            return Err(TestCaseError::fail(format!(
                "closure {cut:?} vs dense LP {lp:?}"
            )))
        }
    };
    // Source-minimal: no variable at 1 is outside some optimum.
    for v in (0..y.len()).filter(|&v| y[v] == 1.0 && lower[v] == 0.0) {
        let mut pinned = upper.to_vec();
        pinned[v] = 0.0;
        if let Ok(without_v) = dense_lp(&relaxed, lower, &pinned) {
            prop_assert!(
                without_v > cut.objective && !close(without_v, cut.objective),
                "variable {} at 1 in a closure of {} that drops it at {}",
                v,
                cut.objective,
                without_v
            );
        }
    }

    // Each budget row's floor: its certificate's box minimum is the
    // min-cut under the row's coefficients, and the dense LP's; it refutes
    // exactly when the floor clears the right-hand side by the margin
    // (outside a 1e-9 band around it, where the two sums may round apart).
    for &row in &budget_rows {
        let c = p.constraint(row);
        let mut row_cost = vec![0.0; p.num_vars()];
        for &(v, a) in &c.terms {
            row_cost[v.0] += a;
        }
        let (mut floor_ws, mut floor_y) = (SimplexWorkspace::new(), Vec::new());
        let floor_cut = solve_closure_in(p, &row_cost, &mut floor_ws, &mut floor_y)
            .expect("the closure applied under the objective");
        let floor = row_floor_in(p, row, &mut ws).expect("the closure applied");
        prop_assert!(
            close(floor.box_min(), floor_cut.objective),
            "row {}: certificate {} vs min-cut {}",
            row,
            floor.box_min(),
            floor_cut.objective
        );
        let mut row_lp = relaxed.clone();
        for (j, &a) in row_cost.iter().enumerate() {
            row_lp.set_objective_coeff(VarId(j), a);
        }
        let lp = dense_lp(&row_lp, lower, upper).expect("the closure polytope is not empty");
        prop_assert!(
            close(lp, floor_cut.objective),
            "row {}: dense LP {} vs min-cut {}",
            row,
            lp,
            floor_cut.objective
        );
        let weight: f64 = floor.rows().iter().map(|&(_, w)| w.abs()).sum();
        let clearance = floor_cut.objective - c.rhs - 1e-6 * weight;
        if clearance.abs() > 1e-9 * (1.0 + c.rhs.abs()) {
            prop_assert_eq!(
                floor.refutes(|i| p.constraint(i).rhs),
                clearance > 0.0,
                "row {}: floor {} against {}",
                row,
                floor_cut.objective,
                c.rhs
            );
        }
    }

    // The budget rows' loads under the closure, and its ceiling.
    let load = |row: usize| -> f64 {
        p.constraint(row)
            .terms
            .iter()
            .map(|&(v, a)| a * y[v.0])
            .sum()
    };
    let fits = rows
        .iter()
        .all(|&(row, _)| load(row) <= p.constraint(row).rhs);
    if fits {
        let dense = IlpOptions {
            backend: SolverBackend::Dense,
            ..IlpOptions::default()
        };
        let ilp = solve_ilp(p, &dense).expect("a fitting closure is a placement");
        prop_assert!(
            close(cut.objective, ilp.objective),
            "closure {} vs ILP {}",
            cut.objective,
            ilp.objective
        );
    }
    let ceiling = rows
        .iter()
        .map(|&(row, shift)| {
            let capacity = p.constraint(row).rhs + shift;
            let used = load(row) + shift;
            if used > 0.0 {
                capacity / used
            } else {
                f64::INFINITY
            }
        })
        .fold(f64::INFINITY, f64::min);
    let (hi_limit, floor) = (64.0, 64.0 * 2f64.powi(-24));
    if ceiling.is_finite() {
        let r = ceiling * (1.0 - 1e-9);
        for &(row, shift) in &rows {
            let capacity = p.constraint(row).rhs + shift;
            prop_assert!(
                load(row) <= capacity / r - shift,
                "row {} over at the ceiling",
                row
            );
        }
    }
    if ceiling > floor {
        let found = max_sustainable_rate_deployment(&graph, &prof, &dep, &cfg, hi_limit, tol)
            .expect("no solver error")
            .expect("feasible below the closure's ceiling");
        let least = ceiling.min(hi_limit) / (1.0 + tol);
        prop_assert!(
            found.rate >= least * (1.0 - 1e-12),
            "found x{} below the closure ceiling x{} / (1 + {})",
            found.rate,
            ceiling,
            tol
        );
    }
    floors_are_sound(&mut prep, &rows, ceiling)
}

/// Every floor of the budget `rows` that refutes `prep`'s problem at a
/// rate straddling the closure ceiling — ×0.5, ×(1 ∓ 1e-9), ×1.01, ×2 and
/// ×16 of it — is confirmed `Infeasible` by `solve_ilp_in` on the
/// retargeted problem, on the sparse backend and on the dense tableau,
/// and `solve_at` answers that rate `Infeasible` too. Returns how many
/// refuting floors it confirmed.
fn floors_are_sound(
    prep: &mut PreparedDeployment,
    rows: &[(usize, f64)],
    ceiling: f64,
) -> Result<usize, TestCaseError> {
    if !ceiling.is_finite() {
        return Ok(0);
    }
    let ws = &mut SimplexWorkspace::new();
    let dense = IlpOptions {
        backend: SolverBackend::Dense,
        ..IlpOptions::default()
    };
    let mut confirmed = 0;
    for scale in [0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.01, 2.0, 16.0] {
        let rate = ceiling * scale;
        let answer = prep.solve_at(rate);
        let p = prep.problem();
        let refuting = (rows.iter())
            .filter_map(|&(row, _)| row_floor_in(p, row, ws))
            .filter(|floor| floor.refutes(|i| p.constraint(i).rhs))
            .count();
        if refuting == 0 {
            continue;
        }
        for opts in [&IlpOptions::default(), &dense] {
            let (direct, _) = solve_ilp_in(p, opts, &mut SimplexWorkspace::new());
            prop_assert_eq!(
                direct.err(),
                Some(SolveError::Infeasible),
                "x{} ({} of the closure ceiling) on {:?}: {} floors refute",
                rate,
                scale,
                opts.backend,
                refuting
            );
        }
        prop_assert_eq!(answer.err(), Some(PartitionError::Infeasible), "x{}", rate);
        confirmed += refuting;
    }
    Ok(confirmed)
}

fn budget(d: f64, lo: f64, hi: f64) -> f64 {
    // A fifth of the draws are no budget at all.
    if d < 0.2 {
        f64::INFINITY
    } else {
        lo + (hi - lo) * (d - 0.2) / 0.8
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_closure_is_the_relaxation_and_bounds_the_rate_search(
        shape in 0usize..5,
        stages in 2usize..6,
        cost in prop::collection::vec(100u64..4000, 6),
        keep in prop::collection::vec(1usize..5, 6),
        cpu in prop::collection::vec(0.0f64..1.0, 5),
        net in prop::collection::vec(0.0f64..1.0, 5),
        weights in (prop::collection::vec(0.0f64..1.0, 5), prop::collection::vec(0.0f64..1.0, 5)),
        count in 1usize..4,
        tol in 0.001f64..0.05,
    ) {
        // Half the sites weigh CPU (up to 2,000 per device-second, the
        // scale of a few hundred B/s of radio); a fifth of the hops weigh
        // nothing.
        let (alpha, beta) = weights;
        let b = Budgets {
            alpha: alpha.iter().map(|&d| if d < 0.5 { 0.0 } else { 4000.0 * (d - 0.5) }).collect(),
            cpu: cpu.iter().map(|&d| budget(d, 0.02, 4.0)).collect(),
            beta: beta.iter().map(|&d| if d < 0.2 { 0.0 } else { 0.5 + 1.5 * d }).collect(),
            net: net.iter().map(|&d| budget(d, 50.0, 50000.0)).collect(),
        };
        check_case(shape, (stages, &cost, &keep), &b, count, tol)?;
    }
}

/// The two-ward tree with ward-a's backhaul starved: past the closure
/// ceiling a floor refutes, so the property's soundness check runs.
#[test]
fn a_starved_backhaul_has_a_refuting_floor_the_tableau_confirms() {
    let b = Budgets {
        alpha: vec![1.0; 5],
        cpu: vec![f64::INFINITY; 5],
        beta: vec![1.0; 5],
        net: vec![
            f64::INFINITY,
            200.0,
            f64::INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ],
    };
    let app: (usize, &[u64], &[usize]) = (4, &[800, 1500, 300, 2000], &[2, 1, 3, 2]);
    let confirmed = check_case(3, app, &b, 2, 0.01).expect("sound");
    assert!(confirmed >= 1, "no floor refuted");
}
