//! The solver's count guards and backend parity, on the instances the
//! examples and the benchmark of record solve. Counts repeat exactly on
//! any host, so a guard that moves is a change in what the solver does,
//! not noise:
//!
//! * the 22-channel chain's root LP starts dual-first and takes exactly
//!   1,717 iterations and at most 2 factorizations;
//! * the two-ward forest's rate search lands on ×3.15625 in 28 probes on
//!   one encode, with 2 branch-and-bound runs on the sparse backend and 6
//!   on the dense tableau; replayed with every probe solved, ≥ 80 % of
//!   its feasible root LPs enter warm, in ≤ 1,000 iterations and ≤ 2
//!   factorizations all told;
//! * both backends reach the same optimum on every instance that
//!   compares them, warm equals cold, a delta equals a cold rebuild, and
//!   the prepared rate search, the near-cliff certificate (and, on the
//!   starved 8-channel ward, the seed it certifies) and a drift re-solve
//!   hold on each backend.
//!
//! The dense tableau's rate search and near-cliff solves cost an
//! unoptimized build minutes, so those two tests run only in release
//! (`cargo test --release --test solver_guards`).

use wishbone::core::{build_tiered_graph, preprocess_tiered, TierObjective};
use wishbone::ilp::instances::chain_ilp;
use wishbone::ilp::{
    solve_ilp_in, solve_lp_in, IlpOptions, IlpStats, Problem, SimplexWorkspace, SolverBackend,
};
use wishbone::prelude::*;
use wishbone_oracle::{
    build_partition_graph, encode, encode_multitier, preprocess, Encoding, ObjectiveConfig,
};

/// The profiled EEG app every instance here is built from.
fn eeg_app(channels: usize) -> (wishbone::dataflow::Graph, GraphProfile) {
    let app = build_eeg_app(EegParams {
        n_channels: channels,
        ..Default::default()
    });
    let traces = app.traces(4, 1..3, 7);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");
    (app.graph, prof)
}

/// The merged, restricted binary ILP of the EEG app on a TMote Sky.
fn eeg_ilp(channels: usize) -> Problem {
    let (graph, prof) = eeg_app(channels);
    let mote = Platform::tmote_sky();
    let pg = build_partition_graph(&graph, &prof, &mote, Mode::Permissive, 1.0).expect("pins ok");
    let merged = preprocess(&pg).expect("merge ok").graph;
    let obj = ObjectiveConfig::bandwidth_only(1.0, 1e12);
    encode(&merged, Encoding::Restricted, &obj).problem
}

/// Telos mote → phone → server.
fn three_tiers() -> [Platform; 3] {
    [
        Platform::tmote_sky(),
        Platform::iphone(),
        Platform::server(),
    ]
}

/// The merged 3-tier monotone-cut ILP of the EEG app, budgets
/// unconstrained.
fn eeg_multitier_ilp(channels: usize) -> Problem {
    let (graph, prof) = eeg_app(channels);
    let tg =
        build_tiered_graph(&graph, &prof, &three_tiers(), Mode::Permissive, 1.0).expect("pins ok");
    let obj = TierObjective::bandwidth_only(vec![1.0, 1.0, f64::INFINITY], vec![1e12; 2]);
    let tg = preprocess_tiered(&tg, &obj).expect("merge ok").graph;
    encode_multitier(&tg, &obj).problem
}

/// Two wards of `count` caps behind two gateways with backhauls `a` and
/// `b`; every ward uplink carries `count` motes' goodput. Site ids follow
/// attach order: both gateways, then both wards.
fn forest_dep(count: usize, a: f64, b: f64) -> Deployment {
    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gateways = [("gw-a", a), ("gw-b", b)].map(|(name, net_budget)| {
        let backhaul = LinkSpec {
            beta: 1.0,
            net_budget,
        };
        dep.attach(root, Site::new(name, &phone), backhaul)
    });
    let ward_uplink = LinkSpec {
        beta: 1.0,
        net_budget: count as f64 * mote.radio.goodput_bytes_per_sec,
    };
    for (gw, name) in gateways.into_iter().zip(["ward-a", "ward-b"]) {
        let ward = Site::new(name, &mote).with_count(count);
        dep.attach(gw, ward, ward_uplink);
    }
    dep
}

/// The merged forest ILP at unit rate, roomy backhauls.
fn eeg_forest_ilp(channels: usize, count: usize) -> Problem {
    let (graph, prof) = eeg_app(channels);
    let dep = forest_dep(count, 1e9, 1e9);
    let prep = PreparedDeployment::new(&graph, &prof, &dep, &DeploymentConfig::default())
        .expect("pins ok");
    prep.problem().clone()
}

/// The tight forest of the near-cliff and rate-search guards: 4-channel
/// EEG, two 4-cap wards, gw-a's backhaul starved to 500 B/s.
fn tight_forest() -> (wishbone::dataflow::Graph, GraphProfile, Deployment) {
    let (graph, prof) = eeg_app(4);
    (graph, prof, forest_dep(4, 500.0, 400_000.0))
}

/// The starved 8-channel ward of `tests/approx_nearcliff.rs`: two 4-cap
/// wards behind gw-a (CPU budget 0.25, backhaul 800 B/s) and gw-b
/// (backhaul 1,500 B/s), sites in `forest_dep`'s order.
fn starved_ward() -> (wishbone::dataflow::Graph, GraphProfile, Deployment) {
    let (graph, prof) = eeg_app(8);
    let (mote, phone) = (Platform::tmote_sky(), Platform::iphone());
    let link = |net_budget: f64| LinkSpec {
        beta: 1.0,
        net_budget,
    };
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &phone).with_cpu_budget(0.25),
        link(800.0),
    );
    let gw_b = dep.attach(root, Site::new("gw-b", &phone), link(1_500.0));
    let radio = link(4.0 * mote.radio.goodput_bytes_per_sec);
    dep.attach(gw_a, Site::new("ward-a", &mote).with_count(4), radio);
    dep.attach(gw_b, Site::new("ward-b", &mote).with_count(4), radio);
    (graph, prof, dep)
}

/// One TMote leaf under the server.
fn mote_star() -> Deployment {
    let mote = Platform::tmote_sky();
    Deployment::star([(Site::new("mote", &mote), LinkSpec::for_platform(&mote))])
}

/// The production backend and the tests' reference tableau.
const BOTH: [SolverBackend; 2] = [SolverBackend::Sparse, SolverBackend::Dense];

fn with_backend(backend: SolverBackend) -> DeploymentConfig {
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.backend = backend;
    cfg
}

fn backend_opts(backend: SolverBackend) -> IlpOptions {
    IlpOptions {
        backend,
        ..Default::default()
    }
}

/// Branch and bound on `backend` in a fresh workspace: the optimum and
/// the search's report.
fn solve_on(p: &Problem, backend: SolverBackend) -> (f64, IlpStats) {
    let (sol, stats) = solve_ilp_in(p, &backend_opts(backend), &mut SimplexWorkspace::new());
    (sol.expect("solvable").objective, stats)
}

/// `backend` ran the search `stats` reports, as its counters show: only
/// the sparse method factorizes a basis, re-enters warm or leaves a
/// refutation, and a sparse search that solved an LP factorized one.
fn assert_ran(backend: SolverBackend, stats: &IlpStats) {
    match backend {
        SolverBackend::Dense => {
            assert_eq!((stats.refactorizations, stats.warm_starts), (0, 0));
            assert_eq!(stats.refutation, None);
        }
        SolverBackend::Sparse => assert!(stats.refactorizations > 0, "{stats:?}"),
    }
}

/// `p` solves on each backend, its counters show that backend ran, and
/// both reach the same optimum.
fn assert_backends_agree(name: &str, p: &Problem) {
    let [sparse, dense] = BOTH.map(|backend| {
        let (objective, stats) = solve_on(p, backend);
        assert_ran(backend, &stats);
        objective
    });
    assert!(
        (sparse - dense).abs() < 1e-6 * (1.0 + sparse.abs()),
        "backends disagree on {name}: sparse {sparse} vs dense {dense}"
    );
}

/// `max_sustainable_rate_deployment`'s §4.3 schedule — floor probe,
/// doubling, bisection to relative precision `tol` — over an arbitrary
/// probe, so a test can watch or replace every probe of a search.
fn rate_schedule(mut feasible: impl FnMut(f64) -> bool, hi_limit: f64, tol: f64) -> f64 {
    let mut lo = hi_limit * 2f64.powi(-24);
    assert!(feasible(lo), "feasible at tiny rates");
    let mut hi = lo;
    loop {
        let next = (hi * 2.0).min(hi_limit);
        if feasible(next) {
            lo = next;
            hi = next;
            if (next - hi_limit).abs() < f64::EPSILON * hi_limit {
                return lo;
            }
        } else {
            hi = next;
            break;
        }
    }
    while (hi - lo) / lo > tol {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[test]
fn backends_agree_on_every_compared_instance() {
    let instances = [
        ("eeg_4ch", eeg_ilp(4)),
        ("eeg_22ch", eeg_ilp(22)),
        ("chain_972", chain_ilp(972, 1.5)),
        ("multitier 1ch k3", eeg_multitier_ilp(1)),
        ("eeg_2ch_k3", eeg_multitier_ilp(2)),
        ("the 2-ward forest", eeg_forest_ilp(1, 1)),
        ("forest_eeg2_2x4", eeg_forest_ilp(2, 4)),
    ];
    for (name, p) in &instances {
        assert_backends_agree(name, p);
    }
}

/// On the 1-channel EEG ILP the sparse search, warm at every child from
/// its parent's basis, equals the reference tableau's, cold at every
/// node.
#[test]
fn warm_equals_cold_and_the_backends_agree_on_1ch_eeg() {
    let p = eeg_ilp(1);
    let [(sparse, warm), (dense, cold)] = BOTH.map(|backend| solve_on(&p, backend));
    assert_eq!(cold.warm_starts, 0, "the tableau solves every node cold");
    if warm.nodes > 1 {
        assert!(
            warm.warm_starts > 0,
            "a branching sparse solve must warm-start its children"
        );
    }
    assert!(
        (sparse - dense).abs() < 1e-6,
        "warm sparse {sparse} vs cold dense {dense} on 1ch EEG"
    );
}

/// The §4.3 search on the 1-channel star re-targets one encoding.
#[test]
fn a_rate_search_encodes_once() {
    let (graph, prof) = eeg_app(1);
    for backend in BOTH {
        let r = max_sustainable_rate_deployment(
            &graph,
            &prof,
            &mote_star(),
            &with_backend(backend),
            16.0,
            0.05,
        )
        .expect("no solver error")
        .expect("feasible");
        assert_eq!(
            r.encodes, 1,
            "[{backend:?}] rate search must encode exactly once"
        );
    }
}

/// The prepared search (one encode, a retarget per probe) lands within
/// 2 % of a search that rebuilds and re-encodes at every probe.
#[test]
fn the_prepared_rate_search_matches_rebuild_per_probe() {
    let (graph, prof) = eeg_app(2);
    let (dep, cfg) = (mote_star(), DeploymentConfig::default());
    let prepared = max_sustainable_rate_deployment(&graph, &prof, &dep, &cfg, 64.0, 0.01)
        .expect("no solver error")
        .expect("feasible")
        .rate;
    let rebuilt = rate_schedule(
        |rate| match partition_deployment(&graph, &prof, &dep, &cfg.clone().at_rate(rate)) {
            Ok(_) => true,
            Err(PartitionError::Infeasible) => false,
            Err(e) => panic!("solver error: {e}"),
        },
        64.0,
        0.01,
    );
    assert!(
        (prepared - rebuilt).abs() <= 0.02 * prepared,
        "prepared rate {prepared} vs rebuild rate {rebuilt}"
    );
}

/// Two wards of EEG caps, ward-a's count and gw-a's CPU budget the knobs
/// a churn event turns; everything else, the ward uplinks included, held
/// constant.
fn churn_dep(count_a: usize, gw_budget_a: f64) -> Deployment {
    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let backhaul = LinkSpec {
        beta: 1.0,
        net_budget: 1e9,
    };
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &phone).with_cpu_budget(gw_budget_a),
        backhaul,
    );
    let gw_b = dep.attach(root, Site::new("gw-b", &phone), backhaul);
    let ward_uplink = LinkSpec {
        beta: 1.0,
        net_budget: 4.0 * mote.radio.goodput_bytes_per_sec,
    };
    let ward_a = Site::new("ward-a", &mote).with_count(count_a);
    dep.attach(gw_a, ward_a, ward_uplink);
    dep.attach(gw_b, Site::new("ward-b", &mote).with_count(4), ward_uplink);
    dep
}

/// A churn event (ward-a re-provisioned from 2 caps to 3, gw-a re-budgeted
/// from 0.20 to 0.22) absorbed in place solves like an instance prepared
/// after it, without a re-encode.
#[test]
fn a_delta_equals_a_cold_rebuild() {
    let (graph, prof) = eeg_app(1);
    for backend in BOTH {
        let cfg = with_backend(backend);
        let ((count0, budget0), (count1, budget1)) = ((2, 0.20), (3, 0.22));
        let mut warm = PreparedDeployment::new(&graph, &prof, &churn_dep(count0, budget0), &cfg)
            .expect("pins ok");
        warm.apply_delta(&[
            DeploymentDelta::SetLeafCount {
                leaf: SiteId(3),
                count: count1,
            },
            DeploymentDelta::SetCpuBudget {
                site: SiteId(1),
                cpu_budget: budget1,
            },
        ]);
        assert_eq!(warm.encodes(), 1, "[{backend:?}] deltas must not re-encode");
        let mut cold = PreparedDeployment::new(&graph, &prof, &churn_dep(count1, budget1), &cfg)
            .expect("pins ok");
        match (warm.solve_at(0.5), cold.solve_at(0.5)) {
            (Ok(w), Ok(c)) => assert!(
                (w.objective - c.objective).abs() < 1e-6 * (1.0 + c.objective.abs()),
                "[{backend:?}] delta re-solve {} vs cold rebuild {}",
                w.objective,
                c.objective
            ),
            (Err(_), Err(_)) => {}
            (w, c) => panic!(
                "[{backend:?}] churn feasibility flipped: warm {:?} vs cold {:?}",
                w.is_ok(),
                c.is_ok()
            ),
        }
    }
}

/// Just under the tight forest's feasibility cliff (×3.1614).
const NEAR_CLIFF_RATE: f64 = 3.15;

/// Just under the starved 8-channel ward's cliff (×3.6102).
const STARVED_RATE: f64 = 3.5;

/// Near a cliff a root-capped search (`max_nodes = 1`) holds a certified
/// gap that bounds the exact optimum. On the tight forest the root LP is
/// integral: the capped search returns it, certified within 2.5 %, and no
/// better than a 2.5 %-gap search. On the starved 8-channel ward the root
/// LP is fractional: the capped search returns the multilevel seed, and
/// its certificate's bound — the root LP's — is no higher than the best
/// bound of a 50-node sparse search, itself a lower bound on the exact
/// optimum.
fn near_cliff(backend: SolverBackend) {
    let (graph, prof, dep) = tight_forest();
    let mut cfg = with_backend(backend);
    cfg.ilp.rel_gap = 0.025;
    let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
    let seeded = prep.solve_at(NEAR_CLIFF_RATE).expect("near-cliff feasible");
    let mut cfg = with_backend(backend);
    cfg.ilp.max_nodes = 1;
    let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
    let capped = prep.solve_at(NEAR_CLIFF_RATE).expect("near-cliff feasible");
    let gap = capped
        .certified_gap
        .expect("every placement carries a certificate");
    assert!(
        gap <= 0.025,
        "[{backend:?}] near-cliff certified gap blew up: {gap}"
    );
    assert!(
        capped.objective >= seeded.objective - 1e-9 * (1.0 + seeded.objective.abs()),
        "[{backend:?}] a root-capped search beat the exact optimum: {} vs {}",
        capped.objective,
        seeded.objective
    );

    let (graph, prof, dep) = starved_ward();
    let solve = |backend: SolverBackend, max_nodes: u64| {
        let mut cfg = with_backend(backend);
        cfg.ilp.max_nodes = max_nodes;
        let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
        prep.solve_at(STARVED_RATE)
            .expect("the seed is a placement")
    };
    // The exact optimum is the backends' common one: the deeper search
    // runs on the sparse backend, which is the faster.
    let (capped, deeper) = (solve(backend, 1), solve(SolverBackend::Sparse, 50));
    assert!(
        capped.ilp_stats.seeded && deeper.ilp_stats.seeded,
        "[{backend:?}] a fractional root must ask for the multilevel seed"
    );
    let bound = |p: &DeploymentPartition| {
        p.objective * (1.0 - p.certified_gap.expect("every placement carries one"))
    };
    let tol = 1e-9 * capped.objective.abs();
    assert!(
        bound(&capped) <= bound(&deeper) + tol,
        "[{backend:?}] root-capped bound {} above a deeper search's {}",
        bound(&capped),
        bound(&deeper)
    );
    assert!(
        deeper.objective <= capped.objective + tol && bound(&deeper) <= deeper.objective + tol,
        "[{backend:?}] the capped seed {} beat a deeper search's {} (bound {})",
        capped.objective,
        deeper.objective,
        bound(&deeper)
    );
}

#[test]
fn the_near_cliff_solve_is_seeded_and_certified_sparse() {
    near_cliff(SolverBackend::Sparse);
}

#[cfg_attr(debug_assertions, ignore = "the dense tableau takes 25 s unoptimized")]
#[test]
fn the_near_cliff_solve_is_seeded_and_certified_dense() {
    near_cliff(SolverBackend::Dense);
}

/// The forest rate search (the benchmark of record's
/// `forest_eeg4_rate_search` instance): the same rate and probe count on
/// either backend. The floor's placement still fits at ×3.15625, so it
/// answers the 22 feasible probes after the floor, and the found rate is
/// decoded, not solved again. Past the cliff the backends part: the
/// sparse one refutes the ×4 probe's root LP with a row that still
/// refutes the 4 probes after it, so it runs branch-and-bound twice; the
/// reference tableau reports no refutation and solves all 5.
fn forest_rate_search(backend: SolverBackend, solves: u32) -> DeploymentRateResult {
    let (graph, prof, dep) = tight_forest();
    let found =
        max_sustainable_rate_deployment(&graph, &prof, &dep, &with_backend(backend), 64.0, 0.005)
            .expect("no solver error")
            .expect("feasible");
    assert_eq!(found.encodes, 1, "[{backend:?}] one encode");
    assert_eq!(
        (found.rate, found.evaluations, found.solves),
        (3.15625, 28, solves),
        "[{backend:?}] the forest's sustainable rate, probe count and solves"
    );
    found
}

/// The sparse search, then the same schedule replayed with every probe
/// solved on one prepared instance: a retarget follows the previous
/// probe's basis, so all but the first root LP (and any right after a
/// cold-refuted infeasible probe) enter warm, the whole schedule costs a
/// few hundred pivots (~15 500 from the slack basis every time), and a
/// warm re-entry keeps the LU it finds, so only the eta file's nonzero
/// budget refactorizes.
#[test]
fn the_forest_rate_search_and_its_replay_sparse() {
    let found = forest_rate_search(SolverBackend::Sparse, 2);
    let (graph, prof, dep) = tight_forest();
    let cfg = with_backend(SolverBackend::Sparse);
    let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
    let (mut probes, mut feasible, mut warm_roots) = (0u32, 0u32, 0u32);
    let (mut iterations, mut factorizations) = (0u64, 0u64);
    let replayed = rate_schedule(
        |rate| {
            probes += 1;
            match prep.solve_at(rate) {
                Ok(part) => {
                    feasible += 1;
                    // No LP of the probe started cold, its root included.
                    warm_roots += u32::from(part.ilp_stats.cold_starts == 0);
                    iterations += part.ilp_stats.simplex_iterations;
                    factorizations += part.ilp_stats.refactorizations;
                    true
                }
                Err(PartitionError::Infeasible) => false,
                Err(e) => panic!("solver error: {e}"),
            }
        },
        64.0,
        0.005,
    );
    println!(
        "forest rate search: {probes} probes, {warm_roots} of {feasible} feasible ones warm at \
         the root, {iterations} iterations, {factorizations} factorizations"
    );
    assert_eq!(prep.encodes(), 1, "one encode");
    assert_eq!(
        (replayed, probes),
        (found.rate, found.evaluations),
        "the replay must be the library's search"
    );
    assert!(
        warm_roots * 5 >= feasible * 4,
        "only {warm_roots} of {feasible} feasible probes entered warm"
    );
    assert!(
        iterations <= 1000,
        "the forest rate search took {iterations} simplex iterations, budget 1000"
    );
    assert!(
        factorizations <= 2,
        "the forest rate search took {factorizations} factorizations, budget 2"
    );
}

#[cfg_attr(debug_assertions, ignore = "the dense tableau takes 60 s unoptimized")]
#[test]
fn the_forest_rate_search_dense() {
    forest_rate_search(SolverBackend::Dense, 6);
}

/// A flagged 2× operator inflation on the 2×4 forest maps to budget
/// deltas the standing encoding absorbs in place: the re-solve does not
/// re-encode and, the budget being tighter, is no better than the base.
#[test]
fn a_drift_resolve_absorbs_in_place() {
    let (graph, prof) = eeg_app(2);
    let dep = forest_dep(4, 1e9, 1e9);
    for backend in BOTH {
        let mut prep =
            PreparedDeployment::new(&graph, &prof, &dep, &with_backend(backend)).expect("pins ok");
        let base = prep.solve_at(0.25).expect("baseline solve");
        assert!(
            prep.encode_seconds() > 0.0,
            "[{backend:?}] the encode span must be timed"
        );
        let victim = base.leaves[0].site_ops[0]
            .iter()
            .copied()
            .min()
            .expect("the leaf hosts its sources");
        let report = DriftReport {
            operators: vec![OperatorDrift {
                op: victim,
                expected_s: 1.0,
                observed_s: 2.0,
                ratio: 2.0,
            }],
            edges: vec![],
        };
        let deltas = drift_to_deltas(&report, &dep, &base);
        assert!(!deltas.is_empty(), "[{backend:?}] drift must map to deltas");
        prep.apply_delta(&deltas);
        let drifted = prep.solve_at(0.25).expect("drift re-solve");
        assert_eq!(
            prep.encodes(),
            1,
            "[{backend:?}] the drift re-solve must not re-encode"
        );
        assert!(
            drifted.objective >= base.objective - 1e-9 * (1.0 + base.objective.abs()),
            "[{backend:?}] a tighter budget cannot improve the objective: {} vs {}",
            drifted.objective,
            base.objective
        );
    }
}

/// The 22-channel EEG app on the mote → phone → server chain: its root
/// LP must take the dual-first start (the two-phase primal needs ~4,450
/// pivots) and exactly 1,717 iterations — 1,964 means the leaving row is
/// no longer priced by dual steepest edge, any other count that the
/// leaving heap no longer picks what a full scan picks or a hypersparse
/// eta pass moved a pivot. Steepest-edge rows keep the etas sparse, so
/// the 1,716 dual pivots stay inside the eta file's nonzero budget and
/// the load's factorization is the only one.
#[test]
fn the_22ch_chain_root_lp_is_dual_first_in_1717_iterations() {
    let (graph, prof) = eeg_app(22);
    let chain = Deployment::chain(&three_tiers());
    let prep = PreparedDeployment::new(&graph, &prof, &chain, &DeploymentConfig::default())
        .expect("the 22ch chain prepares");
    let p = prep.problem();
    let mut ws = SimplexWorkspace::new();
    let lp = solve_lp_in(
        p,
        p.lower_bounds(),
        p.upper_bounds(),
        1_000_000,
        &mut ws,
        SolverBackend::Sparse,
    )
    .expect("the 22ch chain root LP solves");
    let (dual, primal) = (ws.dual_iterations(), ws.primal_iterations());
    println!(
        "22ch chain root LP: {} rows, {} iterations ({dual} dual + {primal} primal), {} \
         factorizations",
        p.num_constraints(),
        lp.iterations,
        ws.refactorizations()
    );
    assert!(dual > 0, "the 22ch chain root LP must start dual-first");
    assert_eq!(
        lp.iterations, 1717,
        "the 22ch chain root LP took {} iterations ({dual} dual + {primal} primal)",
        lp.iterations
    );
    assert!(
        ws.refactorizations() <= 2,
        "the 22ch chain root LP took {} factorizations, budget 2",
        ws.refactorizations()
    );
}
