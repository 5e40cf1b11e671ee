//! PR-8 near-cliff regression: the tight-gateway forest from the PR-5
//! asymmetric-backhaul sweep, solved at a rate just under its
//! feasibility cliff. Before the multilevel heuristic landed, exact
//! branch-and-bound *starved* here — the LP relaxation stays fractional
//! on the saturated gateway's uplink row, plunging keeps producing
//! infeasible roundings, and the search could run out its budget with
//! no incumbent, which `max_sustainable_rate_deployment` then misread
//! as "infeasible".
//!
//! The seed is asked for only once a search is stuck — a few node LPs
//! with no incumbent, or its budget spent — so the anchors that need it
//! run on the starved 8-channel ward, whose LPs stay fractional just
//! under its cliff; on the 4-channel tight forest the root LP is integral
//! and the seed is never asked for.
//!
//! The anchors:
//!
//! * on the 8-channel ward, a node-capped search holds a placement by its
//!   third node LP — the heuristic's cut, adopted once the search is
//!   stuck — where the unseeded search would find none in 20;
//! * a root-capped search (`ilp.max_nodes = 1`, the bounded-time mode)
//!   returns an integer-feasible placement whose certified optimality
//!   gap (vs the root LP bound) is ≤ 2.5%, and whose *actual* gap vs the
//!   exact optimum is within the certificate, on both simplex backends,
//!   on the tight forest; on the 8-channel ward it returns the seed,
//!   certified against the root LP bound;
//! * random tree deployments (proptest): every root-capped placement
//!   respects all budgets and its certificate, and it never claims
//!   feasibility where the exact solver proves there is none.

use std::time::Duration;

use proptest::prelude::*;

use wishbone::ilp::{
    solve_ilp_in, IlpSolution, IlpStats, SimplexWorkspace, SolveError, SolverBackend,
};
use wishbone::prelude::*;

/// The profiled EEG app of the bench forest.
fn eeg_profiled(channels: usize) -> (wishbone::dataflow::Graph, GraphProfile) {
    let app = build_eeg_app(EegParams {
        n_channels: channels,
        ..Default::default()
    });
    let traces = app.traces(4, 1..3, 7);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");
    (app.graph, prof)
}

/// The PR-5 two-ward forest: `count_{a,b}` motes per ward behind two
/// gateways, gw-a's backhaul (optionally) starved, gw-b's roomy.
/// Sites: 0 = server, 1 = gw-a, 2 = gw-b, 3 = ward-a, 4 = ward-b.
fn forest(
    count_a: usize,
    count_b: usize,
    backhaul_a: f64,
    backhaul_b: f64,
    gw_budget_a: f64,
) -> Deployment {
    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &phone).with_cpu_budget(gw_budget_a),
        LinkSpec {
            beta: 1.0,
            net_budget: backhaul_a,
        },
    );
    let gw_b = dep.attach(
        root,
        Site::new("gw-b", &phone),
        LinkSpec {
            beta: 1.0,
            net_budget: backhaul_b,
        },
    );
    let uplink = |count: usize| LinkSpec {
        beta: 1.0,
        net_budget: count as f64 * mote.radio.goodput_bytes_per_sec,
    };
    dep.attach(
        gw_a,
        Site::new("ward-a", &mote).with_count(count_a),
        uplink(count_a),
    );
    dep.attach(
        gw_b,
        Site::new("ward-b", &mote).with_count(count_b),
        uplink(count_b),
    );
    dep
}

/// The calibrated near-cliff instance: 4-channel EEG, two 4-mote wards,
/// gw-a's backhaul starved to 500 B/s.
fn tight_forest() -> (wishbone::dataflow::Graph, GraphProfile, Deployment) {
    let (graph, prof) = eeg_profiled(4);
    let dep = forest(4, 4, 500.0, 400_000.0, f64::INFINITY);
    (graph, prof, dep)
}

/// Rate multiplier just under the tight forest's feasibility cliff
/// (calibrated by `probe_cliff` below: the cliff sits at x3.16456; the
/// closure ceiling is x3.164557, where gw-a's uplink binds).
const NEAR_CLIFF_RATE: f64 = 3.15;

/// Near-cliff rate for the harder 8-channel ward (cliff at x3.6102,
/// per `probe_cliff`): LP-feasible, but an unseeded search needs
/// hundreds of nodes to stumble on its first integer point.
const STARVED_RATE: f64 = 3.5;

/// Hard against that cliff (`probe_unproven_band`): integer points
/// still exist, but the multilevel heuristic finds no cut to seed with
/// and the search needs more than 20 nodes to reach one by itself.
const UNSEEDABLE_RATE: f64 = 3.6;

/// Past the cliff, where the 8-channel ward is refuted inside any budget.
const INFEASIBLE_RATE: f64 = 3.7;

/// `cfg` with branch-and-bound stopped after the root node: on a fresh
/// instance, the multilevel seed (or an integral root LP, if cheaper)
/// certified against the root LP bound.
fn root_capped(cfg: &DeploymentConfig) -> DeploymentConfig {
    let mut cfg = cfg.clone();
    cfg.ilp.max_nodes = 1;
    cfg
}

/// Manual calibration probe — run with
/// `cargo test -q probe_cliff -- --ignored --nocapture` when re-tuning
/// the instance; not part of the suite. Bisects each forest's cliff with
/// the pipeline as it ships (seeded), then shows what the seed buys just
/// under it: the same retargeted problem handed to branch-and-bound with
/// no `warm_solution`.
#[test]
#[ignore = "calibration probe, not a regression test"]
fn probe_cliff() {
    // Cap each probe so a starving search reads as Unproven instead of
    // hanging the calibration: above the cliff no cut exists to seed
    // with, so the bisection needs the cap to step over the Unproven band.
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.time_limit = Some(Duration::from_secs(5));
    for (channels, count_a, count_b, bk_a, bk_b, gw_budget) in [
        (
            4usize,
            4usize,
            4usize,
            500.0f64,
            400_000.0f64,
            f64::INFINITY,
        ),
        (4, 4, 4, 500.0, 2_000.0, f64::INFINITY),
        (4, 4, 4, 500.0, 2_000.0, 0.3),
        (4, 8, 2, 500.0, 1_000.0, 0.2),
        (8, 4, 4, 800.0, 1_500.0, 0.25),
        (4, 4, 4, 300.0, 900.0, 0.15),
    ] {
        let (graph, prof) = eeg_profiled(channels);
        let dep = forest(count_a, count_b, bk_a, bk_b, gw_budget);
        let label = format!("ch{channels} {count_a}x{count_b} bk({bk_a},{bk_b}) gw{gw_budget}");
        let mut prep = match PreparedDeployment::new(&graph, &prof, &dep, &cfg) {
            Ok(p) => p,
            Err(e) => {
                println!("{label}: {e}");
                continue;
            }
        };
        let mut lo = 0.05f64;
        let mut hi = 64.0f64;
        if prep.solve_at(lo).is_err() {
            println!("{label}: dead");
            continue;
        }
        while hi / lo > 1.005 {
            let mid = (lo * hi).sqrt();
            match prep.solve_at(mid) {
                Ok(_) => lo = mid,
                Err(_) => hi = mid,
            }
        }
        println!("{label}: cliff x{lo:.4}");
        for rate in [lo * 0.97, lo * 0.99, lo] {
            let mut cold = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
            let t = std::time::Instant::now();
            let seeded = match cold.solve_at(rate) {
                Ok(p) => format!(
                    "ok (seeded {}, first {:?})",
                    p.ilp_stats.seeded,
                    p.ilp_stats.incumbents.first().map(|i| i.0)
                ),
                Err(e) => format!("{e}"),
            };
            let seeded_t = t.elapsed();
            let t = std::time::Instant::now();
            let mut ws = wishbone::ilp::SimplexWorkspace::new();
            let unseeded = match wishbone::ilp::solve_ilp_in(cold.problem(), &cfg.ilp, &mut ws) {
                (Ok(_), stats) => format!(
                    "ok ({} nodes, first {:?})",
                    stats.nodes,
                    stats.incumbents.first().map(|i| i.0)
                ),
                (Err(e), _) => format!("{e:?}"),
            };
            println!(
                "  x{rate:.4}: unseeded {unseeded} in {:?}; seeded {seeded} in {seeded_t:?}",
                t.elapsed()
            );
        }
    }
}

/// Second manual probe: map the Unproven band (LP-feasible,
/// IP-infeasible or undiscoverable) around the 8-channel cliff, under
/// the two node budgets the suite uses.
#[test]
#[ignore = "calibration probe, not a regression test"]
fn probe_unproven_band() {
    let (graph, prof) = eeg_profiled(8);
    let dep = forest(4, 4, 800.0, 1_500.0, 0.25);
    for rate in [3.4, 3.5, 3.6, 3.63, 3.65, 3.7] {
        for (max_nodes, rel_gap) in [(20, 0.0), (2_000, 0.025)] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.rel_gap = rel_gap;
            cfg.ilp.max_nodes = max_nodes;
            let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
            let t = std::time::Instant::now();
            let verdict = match prep.solve_at(rate) {
                Ok(p) => format!(
                    "ok obj {} (seeded {}, timed_out {}, nodes {}, first {:?})",
                    p.objective,
                    p.ilp_stats.seeded,
                    p.ilp_stats.timed_out,
                    p.ilp_stats.nodes,
                    p.ilp_stats.incumbents.first().map(|i| i.0)
                ),
                Err(e) => format!("{e}"),
            };
            println!("{max_nodes}-node x{rate}: {verdict} in {:?}", t.elapsed());
        }
    }
}

/// The node by which a stuck search holds the seed: branch-and-bound
/// asks for it once this many node LPs have come back with no incumbent
/// (`SEED_AFTER_NODES` in `wishbone-ilp`'s `branch_bound.rs`).
const SEED_DUE_AT_NODE: u64 = 3;

/// On the starved 8-channel ward a 20-node search returns a placement,
/// and its first incumbent is the multilevel cut, adopted at the node the
/// seed is due — a count, the same on every host. The same problem
/// searched unseeded finds no placement in 20 nodes.
#[test]
fn seeded_search_finds_an_incumbent_fast_near_the_cliff() {
    let (graph, prof) = eeg_profiled(8);
    let dep = forest(4, 4, 800.0, 1_500.0, 0.25);
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.max_nodes = 20;
    let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
    let part = prep
        .solve_at(STARVED_RATE)
        .expect("the seed is a placement");
    assert!(
        part.ilp_stats.seeded,
        "the multilevel cut must be adopted once the search is stuck"
    );
    let (_, first_node, _) = *part
        .ilp_stats
        .incumbents
        .first()
        .expect("a solved instance records its incumbents");
    assert!(
        first_node <= SEED_DUE_AT_NODE && SEED_DUE_AT_NODE < cfg.ilp.max_nodes,
        "first incumbent after {first_node} node LPs; the near-cliff starvation is back"
    );
    assert_eq!(
        wishbone::ilp::solve_ilp(prep.problem(), &cfg.ilp).err(),
        Some(wishbone::ilp::SolveError::IterationLimit),
        "unseeded, 20 nodes starve here"
    );
}

/// Branch-and-bound on `prep`'s problem as its last solve retargeted it
/// to `rate`, under `ilp` (its backend and node cap), in a fresh
/// workspace: the search a fitting closure answers in its place. The
/// placement's objective and certified gap, offset included as
/// `PreparedDeployment` reports them, and the search's report.
fn search_directly(
    prep: &PreparedDeployment,
    ilp: &IlpOptions,
    rate: f64,
) -> (Result<(IlpSolution, Option<f64>), SolveError>, IlpStats) {
    let p = prep.problem();
    let (sol, stats) = solve_ilp_in(p, ilp, &mut SimplexWorkspace::new());
    let offset = prep.encoded().objective_offset * rate;
    let sol = sol.map(|mut s| {
        s.objective += offset;
        let gap = stats
            .best_bound
            .map(|b| ((s.objective - (b + offset)) / s.objective.abs().max(f64::EPSILON)).max(0.0));
        (s, gap)
    });
    (sol, stats)
}

/// On the tight forest just under its cliff the closure still fits, so
/// `partition_deployment` answers with it on either backend; the exact and
/// root-capped searches are therefore run on the prepared problem itself,
/// on each backend, and held to the closure's optimum too.
#[test]
fn approx_certificate_holds_near_the_cliff_on_both_backends() {
    let (graph, prof, dep) = tight_forest();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let mut cfg = DeploymentConfig::default().at_rate(NEAR_CLIFF_RATE);
        cfg.ilp.backend = backend;
        let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
        let closure = prep
            .solve_at(NEAR_CLIFF_RATE)
            .expect("feasible just under the cliff");
        let (exact, exact_stats) = search_directly(&prep, &cfg.ilp, NEAR_CLIFF_RATE);
        let (exact, _) = exact.expect("feasible just under the cliff");
        let (approx, stats) = search_directly(&prep, &root_capped(&cfg).ilp, NEAR_CLIFF_RATE);
        let (approx, gap) = approx.expect("an integral root is a placement");
        assert!(
            exact_stats.nodes >= 1 && stats.nodes == 1,
            "[{backend:?}] branch-and-bound ran: {} and {} nodes",
            exact_stats.nodes,
            stats.nodes
        );
        assert!(
            !stats.seeded,
            "[{backend:?}] the tight forest's root LP is integral"
        );
        assert!(
            (closure.objective - exact.objective).abs() <= 1e-9 * exact.objective.abs(),
            "[{backend:?}] closure {} vs branch-and-bound {}",
            closure.objective,
            exact.objective
        );
        let gap = gap.expect("every placement carries a certificate");
        assert!(
            gap <= 0.025,
            "[{backend:?}] certified gap {gap} exceeds the 2.5% acceptance bar"
        );
        // The certificate must be honest: the true distance from the
        // exact optimum is within the certified bound.
        let true_gap =
            (approx.objective - exact.objective) / approx.objective.abs().max(f64::EPSILON);
        assert!(
            true_gap <= gap + 1e-9,
            "[{backend:?}] true gap {true_gap} exceeds certificate {gap}"
        );
        assert!(
            approx.objective >= exact.objective - 1e-9 * (1.0 + exact.objective.abs()),
            "[{backend:?}] heuristic {} beat the exact optimum {}",
            approx.objective,
            exact.objective
        );
        // Feasibility of the emitted placement, at the row level: the
        // budget rows included.
        assert!(
            prep.problem().is_feasible(&approx.values, 1e-6),
            "[{backend:?}] the root-capped placement breaks a row"
        );
    }

    // There the root LP is integral and proves itself. On the starved
    // 8-channel ward the root LP stays fractional: the capped search
    // returns the seed unproven, and its certificate is the seed's
    // distance from the root LP bound, recomputed here from the problem
    // (on the default backend: the dense one takes minutes in debug).
    let (graph, prof) = eeg_profiled(8);
    let dep = forest(4, 4, 800.0, 1_500.0, 0.25);
    let cfg = root_capped(&DeploymentConfig::default());
    let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
    let capped = prep
        .solve_at(STARVED_RATE)
        .expect("the seed is a placement");
    assert!(capped.ilp_stats.seeded && !capped.ilp_stats.proved);
    let gap = capped.certified_gap.expect("every placement carries one");
    let root = wishbone::ilp::solve_lp(prep.problem())
        .expect("LP-feasible")
        .objective
        + prep.encoded().objective_offset * STARVED_RATE;
    let bound = capped.objective * (1.0 - gap);
    assert!(gap > 0.0, "an unproven seed is certified above 0");
    assert!(
        (bound - root).abs() <= 1e-9 * root.abs(),
        "certificate bound {bound} is not the root LP bound {root}"
    );
}

#[test]
fn starved_probe_past_the_cliff_reports_unproven_not_infeasible() {
    let (graph, prof) = eeg_profiled(8);
    let dep = forest(4, 4, 800.0, 1_500.0, 0.25);
    let solve = |rate: f64, max_nodes: u64| {
        let mut cfg = DeploymentConfig::default();
        cfg.ilp.max_nodes = max_nodes;
        let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
        prep.solve_at(rate)
    };

    // Under the cliff the multilevel seed is the incumbent from the
    // node it is due: 50 nodes is plenty to return a placement (the
    // proof phase is cut short — `timed_out` stays honest about that).
    let part = solve(STARVED_RATE, 50).expect("seeded solve succeeds");
    assert!(part.ilp_stats.seeded, "incumbent came from the seed");

    // Hard against it the heuristic has no cut to offer, and 20 nodes is
    // enough for a root-LP infeasibility proof (one solve, zero nodes),
    // nowhere near the search's first integral node LP — before `Unproven`
    // this outcome was indistinguishable from `Infeasible`. The bound is
    // the root LP's with the per-boundary §4.1 merge's shared top
    // indicators, equalities that tighten the relaxation.
    match solve(UNSEEDABLE_RATE, 20) {
        Err(PartitionError::Unproven { best_bound }) => {
            let bound = best_bound.expect("an unproven verdict carries the root LP bound");
            assert!(
                (bound - 13_725.16).abs() < 0.01,
                "open-tree bound moved: {bound}"
            );
        }
        other => panic!(
            "a starved near-cliff probe must surface as Unproven, got {:?}",
            other.map(|p| p.objective)
        ),
    }

    // Past it the same budget proves there is nothing to find, and says
    // so.
    assert_eq!(
        solve(INFEASIBLE_RATE, 20).err(),
        Some(PartitionError::Infeasible)
    );
}

/// One leaf class as `PreparedDeployment` keeps it: the merged chain
/// graph and the site index at every path position.
type MergedLeaf = (SiteId, wishbone::core::TieredGraph, Vec<usize>);

/// Every leaf's merged chain graph, rebuilt from `dep`'s public
/// accessors the way `PreparedDeployment::new` builds its own.
fn merged_leaves(
    graph: &wishbone::dataflow::Graph,
    prof: &GraphProfile,
    dep: &Deployment,
) -> Vec<MergedLeaf> {
    use wishbone::core::{build_tiered_graph, preprocess_tiered, TierObjective};
    let link = |s: &SiteId| *dep.uplink(*s).expect("a non-root site has an uplink");
    dep.leaves()
        .into_iter()
        .map(|leaf| {
            let path = dep.path(leaf);
            let hops = &path[..path.len() - 1];
            let platforms: Vec<Platform> =
                path.iter().map(|&s| dep.site(s).platform.clone()).collect();
            let tobj = TierObjective {
                alpha: path.iter().map(|&s| dep.site(s).alpha).collect(),
                cpu_budget: path.iter().map(|&s| dep.site(s).cpu_budget).collect(),
                beta: hops.iter().map(|s| link(s).beta).collect(),
                net_budget: hops.iter().map(|s| link(s).net_budget).collect(),
            };
            let rate_factor = dep.site(leaf).rate_factor;
            let built = build_tiered_graph(graph, prof, &platforms, Mode::Permissive, rate_factor)
                .expect("pins ok");
            let merged = preprocess_tiered(&built, &tobj).expect("pins ok");
            (leaf, merged.graph, path.iter().map(|s| s.0).collect())
        })
        .collect()
}

/// The nominal per-site objective `PreparedDeployment` prices `dep` at.
fn site_objective(dep: &Deployment) -> wishbone::core::DeploymentObjective {
    let sites = || dep.site_ids().map(|s| dep.site(s));
    let links = || dep.site_ids().map(|s| dep.uplink(s));
    wishbone::core::DeploymentObjective {
        alpha: sites().map(|s| s.alpha).collect(),
        cpu_budget: sites().map(|s| s.cpu_budget).collect(),
        count: sites().map(|s| s.count as f64).collect(),
        beta: links().map(|u| u.map_or(0.0, |l| l.beta)).collect(),
        net_budget: links()
            .map(|u| u.map_or(f64::INFINITY, |l| l.net_budget))
            .collect(),
        row_order: dep.site_order().iter().map(|s| s.0).collect(),
    }
}

/// A one-shot `approx_cut` — hierarchy built, cut once, dropped — of
/// `leaves` at `dep`'s counts and budgets.
fn fresh_cut(leaves: &[MergedLeaf], dep: &Deployment, rate: f64) -> Option<ApproxCut> {
    let chains: Vec<wishbone::core::LeafChain<'_>> = leaves
        .iter()
        .map(|(leaf, graph, path)| wishbone::core::LeafChain {
            graph,
            path: path.clone(),
            count: dep.site(*leaf).count as f64,
        })
        .collect();
    wishbone::core::approx_cut(&chains, &site_objective(dep), rate)
}

/// Single-tier moves `approx_cut` applies over `rates`, summed.
fn cut_moves(
    graph: &wishbone::dataflow::Graph,
    prof: &GraphProfile,
    dep: &Deployment,
    rates: &[f64],
) -> u64 {
    let leaves = merged_leaves(graph, prof, dep);
    rates
        .iter()
        .map(|&rate| {
            fresh_cut(&leaves, dep, rate)
                .expect("a cut exists under the cliff")
                .moves
        })
        .sum()
}

/// The search effort of the multilevel cut is part of its contract: the
/// FM candidate table and the retained hierarchy must pick the very moves
/// the full-rescan, rebuild-per-call heuristic picked (counts taken at
/// 217550e), on the benchmark's two approx-heavy instances.
#[test]
fn cut_move_counts_are_pinned() {
    // `forest_eeg4_approx_sweep`'s instance (`benchmark/src/fixtures.rs`):
    // the tight forest with each ward attached right after its gateway
    // and the gateways' CPU left at the site default.
    let (graph, prof) = eeg_profiled(4);
    let (mote, phone) = (Platform::tmote_sky(), Platform::iphone());
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    for (name, backhaul) in [("a", 500.0), ("b", 400_000.0)] {
        let link = |net_budget: f64| LinkSpec {
            beta: 1.0,
            net_budget,
        };
        let gw = dep.attach(
            dep.root(),
            Site::new(format!("gw-{name}"), &phone),
            link(backhaul),
        );
        dep.attach(
            gw,
            Site::new(format!("ward-{name}"), &mote).with_count(4),
            link(4.0 * mote.radio.goodput_bytes_per_sec),
        );
    }
    let sweep = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.15];
    assert_eq!(cut_moves(&graph, &prof, &dep, &sweep), 544);

    let (graph, prof) = eeg_profiled(22);
    let chain = Deployment::chain(&[
        Platform::tmote_sky(),
        Platform::iphone(),
        Platform::server(),
    ]);
    assert_eq!(cut_moves(&graph, &prof, &chain, &[1.0]), 36);
}

/// Warm re-entry keeps the factorization it finds. One workspace
/// re-enters ≥ 200 times in a row: the root LP of each retarget of the
/// tight forest, swept up across its cliff and back down, and two
/// branch-and-bound children below each feasible root. Only the eta
/// file's nonzero budget may refactorize — never a re-entry that pushed
/// no eta — and at every step the verdict and objective equal a cold
/// solve's while `x_B` sits on the factorized invariant:
/// `‖B·x_B − (b − N·x_N)‖∞` within 1e-12 of the largest row magnitude
/// `|b_i| + Σ_j |a_ij|·max(|l_j|, |u_j|)` (≈ 1.6e6 here; the drift reads
/// ≤ 6e-9, a stale `x_B` reads ≥ 1).
#[test]
fn warm_reentries_keep_their_factorization_and_match_cold_solves() {
    use wishbone::ilp::simplex::default_iteration_limit;
    use wishbone::ilp::{solve_lp_in, LpSolution, Problem, VarId};
    const SPARSE: SolverBackend = SolverBackend::Sparse;

    let (graph, prof, dep) = tight_forest();
    let cfg = DeploymentConfig::default();
    let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
    let mut ws = SimplexWorkspace::new();
    let up = (0..40).map(|k| 0.5 + 0.09 * f64::from(k));
    // The one cold load: the first rate's root.
    let _ = prep.solve_at(0.5);
    let p = prep.problem();
    solve_lp_in(
        p,
        p.lower_bounds(),
        p.upper_bounds(),
        default_iteration_limit(p),
        &mut ws,
        SPARSE,
    )
    .expect("the first root is feasible");
    let (mut entries, mut refactors) = (0u64, 0u64);
    let mut reenter = |p: &Problem, lower: &[f64], upper: &[f64]| -> Option<LpSolution> {
        let limit = default_iteration_limit(p);
        let counts = |ws: &SimplexWorkspace| {
            let c = [ws.warm_starts(), ws.refactorizations()];
            (c, [ws.dual_iterations(), ws.primal_iterations()])
        };
        let (before, iters_before) = counts(&ws);
        let got = solve_lp_in(p, lower, upper, limit, &mut ws, SPARSE);
        let want = solve_lp_in(p, lower, upper, limit, &mut SimplexWorkspace::new(), SPARSE);
        entries += 1;
        let (after, iters_after) = counts(&ws);
        assert_eq!(after[0], before[0] + 1, "entry {entries} re-entered warm");
        let refactored = after[1] - before[1];
        // Every dual iteration pivots; a primal pass's last iteration
        // only prices. With neither, the solve pushed no eta.
        let no_eta = iters_after[0] == iters_before[0] && iters_after[1] <= iters_before[1] + 1;
        assert!(
            !(no_eta && refactored > 0),
            "entry {entries} refactorized without a pivot"
        );
        refactors += refactored;
        let scale = (0..p.num_constraints())
            .map(|r| {
                let c = p.constraint(r);
                let terms = c.terms.iter();
                let reach =
                    |&(v, a): &(VarId, f64)| a.abs() * lower[v.0].abs().max(upper[v.0].abs());
                c.rhs.abs() + terms.map(reach).sum::<f64>()
            })
            .fold(1.0, f64::max);
        let residual = ws.basis_residual().expect("a sparse basis is retained");
        assert!(
            residual <= 1e-12 * scale,
            "entry {entries}: ‖B·x_B − (b − N·x_N)‖∞ = {residual} at row scale {scale}"
        );
        match (got, want) {
            (Ok(got), Ok(want)) => {
                let tol = 1e-9 * want.objective.abs().max(1.0);
                assert!(
                    (got.objective - want.objective).abs() <= tol,
                    "entry {entries}: warm {} vs cold {}",
                    got.objective,
                    want.objective
                );
                Some(got)
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => None,
            (got, want) => panic!("entry {entries}: warm {got:?} vs cold {want:?}"),
        }
    };

    for (step, rate) in up.clone().chain(up.rev()).enumerate() {
        // Retarget the encoding (past the cliff the probe is refuted).
        let _ = prep.solve_at(rate);
        let p = prep.problem();
        let (lower, upper) = (p.lower_bounds(), p.upper_bounds());
        let Some(root) = reenter(p, lower, upper) else {
            continue;
        };
        // Every root here is integral: each child pushes one integer
        // variable off its root value, as a branch would.
        let ints: Vec<usize> = (0..p.num_vars())
            .filter(|&j| p.is_integer(VarId(j)))
            .collect();
        for c in 0..2 {
            let j = ints[(step * 7 + c * 13) % ints.len()];
            let (mut lo, mut hi) = (lower.to_vec(), upper.to_vec());
            if root.values[j] >= 0.5 {
                hi[j] = (root.values[j] - 1.0).ceil().max(lo[j]);
            } else {
                lo[j] = (root.values[j] + 1.0).floor().min(hi[j]);
            }
            reenter(p, &lo, &hi);
        }
    }
    println!("{entries} warm re-entries, {refactors} factorizations");
    assert!(entries >= 200, "only {entries} re-entries");
    assert!(
        refactors * 10 <= entries,
        "{refactors} factorizations in {entries} re-entries"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random tree deployments: root-capped placements respect every
    /// budget, never beat the exact optimum, and stay within their own
    /// certificate — on both backends.
    #[test]
    fn approx_respects_budgets_and_certificates_on_random_trees(
        channels in 1usize..3,
        counts in (1usize..5, 1usize..5),
        backhaul_a in 200.0f64..4000.0,
        gw_budget in 0.05f64..0.8,
        rate in 0.1f64..2.0,
    ) {
        let (count_a, count_b) = counts;
        let (graph, prof) = eeg_profiled(channels);
        let dep = forest(count_a, count_b, backhaul_a, 400_000.0, gw_budget);
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default().at_rate(rate);
            cfg.ilp.backend = backend;
            let exact = partition_deployment(&graph, &prof, &dep, &cfg);
            let approx = partition_deployment(&graph, &prof, &dep, &root_capped(&cfg));
            // Under the closure's ceiling the closure answers both solves
            // above on either backend, so the prepared problem is also
            // searched directly: exactly, and root-capped with no seed,
            // against its own certificate.
            let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
            let _ = prep.solve_at(rate);
            let (direct, stats) = search_directly(&prep, &cfg.ilp, rate);
            let (capped, capped_stats) = search_directly(&prep, &root_capped(&cfg).ilp, rate);
            match (&exact, &direct) {
                (Ok(e), Ok((d, _))) => {
                    prop_assert!(stats.nodes >= 1, "{:?}: no node searched", backend);
                    prop_assert!(
                        (e.objective - d.objective).abs() <= 1e-9 * (1.0 + d.objective.abs()),
                        "{:?}: solve {} vs searched directly {}", backend, e.objective, d.objective
                    );
                }
                (Err(PartitionError::Infeasible), Err(SolveError::Infeasible)) => {}
                (e, d) => prop_assert!(
                    false,
                    "{:?}: solve {:?} vs searched directly {:?}",
                    backend, e.as_ref().map(|p| p.objective), d.as_ref().map(|(s, _)| s.objective)
                ),
            }
            match (&direct, capped) {
                (Ok((d, _)), Ok((a, gap))) => {
                    prop_assert_eq!(capped_stats.nodes, 1, "{:?}: the root ran", backend);
                    let gap = gap.expect("certificate present");
                    let true_gap =
                        (a.objective - d.objective) / a.objective.abs().max(f64::EPSILON);
                    prop_assert!(
                        true_gap <= gap + 1e-9,
                        "{:?}: direct root-capped true gap {} exceeds certificate {}",
                        backend, true_gap, gap
                    );
                    prop_assert!(prep.problem().is_feasible(&a.values, 1e-6));
                }
                // A fractional root with no seed holds no placement.
                (Ok(_), Err(SolveError::IterationLimit)) => {}
                (Err(_), Err(_)) => {}
                (d, a) => prop_assert!(
                    false,
                    "{:?}: exact {:?} vs root-capped {:?} disagree on feasibility",
                    backend, d.as_ref().map(|(s, _)| s.objective), a.map(|(s, _)| s.objective)
                ),
            }
            match (exact, approx) {
                (Ok(e), Ok(a)) => {
                    let gap = a.certified_gap.expect("certificate present");
                    prop_assert!(gap >= 0.0);
                    let true_gap =
                        (a.objective - e.objective) / a.objective.abs().max(f64::EPSILON);
                    prop_assert!(
                        true_gap <= gap + 1e-9,
                        "{:?}: true gap {} exceeds certificate {}", backend, true_gap, gap
                    );
                    for s in dep.site_ids() {
                        let site = dep.site(s);
                        if site.cpu_budget.is_finite() {
                            prop_assert!(
                                a.site_cpu[s.0] <= site.cpu_budget + 1e-6,
                                "{:?}: site {} over CPU budget", backend, site.name
                            );
                        }
                        if let Some(l) = dep.uplink(s) {
                            if l.net_budget.is_finite() {
                                prop_assert!(
                                    a.link_net[s.0] <= l.net_budget + 1e-6,
                                    "{:?}: site {} over uplink budget", backend, site.name
                                );
                            }
                        }
                    }
                }
                // One node is incomplete: with no cut to seed it and a
                // fractional root it finds nothing on a feasible instance
                // (reported as Unproven, never as a silent Infeasible). It
                // must not claim feasibility the exact solver refutes.
                (Ok(_), Err(PartitionError::Unproven { .. })) => {}
                (Err(_), Err(_)) => {}
                (e, a) => prop_assert!(
                    false,
                    "{:?}: exact {:?} vs approx {:?} disagree on feasibility",
                    backend, e.map(|p| p.objective), a.map(|p| p.objective)
                ),
            }
        }
    }
}
