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
//!   returns below `ceiling / (1 + tol)`.

use proptest::prelude::*;

use wishbone::core::{
    max_sustainable_rate_deployment, Deployment, DeploymentConfig, LinkSpec, PreparedDeployment,
    Site,
};
use wishbone::ilp::{
    solve_closure_in, solve_ilp, solve_lp_in, IlpOptions, Problem, SimplexWorkspace, SolveError,
    SolverBackend, VarId,
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
) -> Result<(), TestCaseError> {
    let (stages, cost, keep) = app;
    let (graph, prof) = fleet::pipeline(stages, |s| (cost[s], keep[s]), 10, 128);
    let dep = deployment(shape, b, count);
    let cfg = DeploymentConfig::default();
    let Ok(prep) = PreparedDeployment::new(&graph, &prof, &dep, &cfg) else {
        return Ok(());
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
        (None, Err(SolveError::Infeasible)) => return Ok(()),
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
    Ok(())
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
