//! Criterion micro-benchmarks for the solver and its design choices:
//!
//! * `backend_scaling` / `multitier_scaling` / `deployment_scaling`: the
//!   solve alone on pre-encoded binary, k-tier chain and forest ILPs;
//! * `rate_search`: §4.3 end-to-end, prepared (one encode, rescale per
//!   probe) vs rebuild-per-probe (the pre-workspace behaviour);
//! * `churn_scaling`: deltas absorbed in place vs a cold rebuild per event;
//! * `trace_overhead`: the tree simulator untraced vs traced with a
//!   `NullSink` (must be free) vs a buffering `MemorySink`;
//! * `drift_resolve`: a flagged profile drift absorbed by the standing
//!   encoding (in-place budget rescale + warm re-solve) vs rebuilding
//!   and re-encoding the drifted deployment from scratch;
//! * `prepare_scaling`: `PreparedDeployment::new` on 1k- and 16k-stage
//!   pipelines — the build + §4.1 merge's complexity, which the sparse
//!   `--smoke` pins as a ratio.
//!
//! The groups are the only list of timed instances and the `criterion`
//! stand-in the only timer. Modes (custom harness, so extra flags pass
//! straight through):
//!
//! * `cargo bench --bench solver_criterion` — the criterion groups, each
//!   id printed as `median [q1 q3]`;
//! * `... -- --json` — the same run, after which exactly what the groups
//!   timed is merged into `BENCH_solver.json` at the repo root (see the
//!   README "Solver perf trajectory" section); `fleet_scaling`'s lines
//!   there are kept;
//! * `... -- --smoke [--backend dense|sparse]` — a seconds-scale CI run of
//!   assertions and count guards instead of the groups.

use std::collections::HashSet;
use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion};

use wishbone_apps::{build_eeg_app, EegParams};
use wishbone_bench::merge_bench_json;
use wishbone_core::{
    build_tiered_graph, drift_to_deltas, max_sustainable_rate_deployment, partition_deployment,
    preprocess_tiered, Deployment, DeploymentConfig, DeploymentDelta, LinkSpec, Mode,
    PartitionError, PreparedDeployment, Site, SiteId, TierObjective,
};
use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder, OperatorId, Value};
use wishbone_ilp::instances::chain_ilp;
use wishbone_ilp::{
    solve_lp_in, IlpOptions, IlpSolution, IlpStats, Problem, SimplexWorkspace, SolverBackend,
};
use wishbone_net::ChannelParams;
use wishbone_oracle::{
    build_partition_graph, encode, encode_multitier, preprocess, Encoding, ObjectiveConfig,
    PartitionGraph,
};
use wishbone_profile::{profile, GraphProfile, Platform, SourceTrace};
use wishbone_runtime::{
    attribute_tree, simulate_deployment_tree, simulate_deployment_tree_traced, FailurePlan,
    LeafRoute, SimulationConfig, SourceFeed, TreeDeploymentReport, TreeTopology,
};
use wishbone_trace::{DriftReport, LossCause, MemorySink, NullSink, OperatorDrift, TraceSink};

fn eeg_partition_graph(channels: usize) -> PartitionGraph {
    let (graph, prof) = eeg_app(channels);
    let mote = Platform::tmote_sky();
    build_partition_graph(&graph, &prof, &mote, Mode::Permissive, 1.0).expect("pins ok")
}

fn obj() -> ObjectiveConfig {
    ObjectiveConfig::bandwidth_only(1.0, 1e12)
}

/// Merge, encode (restricted) and solve `pg` under `opts`.
fn solve_opts(pg: &PartitionGraph, opts: &IlpOptions) -> (f64, IlpStats) {
    let merged = preprocess(pg).expect("merge ok").graph;
    let ep = encode(&merged, Encoding::Restricted, &obj());
    let sol = ep.problem.solve_ilp(opts).expect("solvable");
    (sol.objective, sol.stats)
}

fn backend_opts(backend: SolverBackend) -> IlpOptions {
    IlpOptions {
        backend,
        ..Default::default()
    }
}

fn other_backend(backend: SolverBackend) -> SolverBackend {
    match backend {
        SolverBackend::Dense => SolverBackend::Sparse,
        SolverBackend::Sparse => SolverBackend::Dense,
    }
}

/// Differential parity, outside any timing loop: `p` solves on `backend`
/// (and says so) to the optimum the other backend finds. Returns
/// `backend`'s solution.
fn assert_backends_agree(name: &str, p: &Problem, backend: SolverBackend) -> IlpSolution {
    let other = other_backend(backend);
    let mine = p.solve_ilp(&backend_opts(backend)).expect("solvable");
    assert_eq!(mine.stats.backend, backend);
    let theirs = p.solve_ilp(&backend_opts(other)).expect("solvable");
    assert!(
        (mine.objective - theirs.objective).abs() < 1e-6 * (1.0 + mine.objective.abs()),
        "backends disagree on {name}: {backend:?} {} vs {other:?} {}",
        mine.objective,
        theirs.objective
    );
    mine
}

/// The encoded (merged, restricted) ILP of an EEG instance — what the
/// dense-vs-sparse backend benches solve directly, so encoding time does
/// not dilute the solver comparison.
fn eeg_ilp(channels: usize) -> Problem {
    let pg = eeg_partition_graph(channels);
    let merged = preprocess(&pg).expect("merge ok").graph;
    encode(&merged, Encoding::Restricted, &obj()).problem
}

/// The tier chain of the multitier benches: telos mote → phone → server.
fn bench_chain(k: usize) -> Vec<Platform> {
    match k {
        2 => vec![Platform::tmote_sky(), Platform::server()],
        3 => vec![
            Platform::tmote_sky(),
            Platform::iphone(),
            Platform::server(),
        ],
        _ => panic!("bench chains are 2 or 3 tiers"),
    }
}

/// The encoded (merged) k-tier monotone-cut ILP of an EEG instance, with
/// unconstrained budgets (mirroring `obj()` so tier counts — not budget
/// cliffs — dominate the timing).
fn eeg_multitier_ilp(channels: usize, k: usize) -> Problem {
    let (graph, prof) = eeg_app(channels);
    let chain = bench_chain(k);
    let tg = build_tiered_graph(&graph, &prof, &chain, Mode::Permissive, 1.0).expect("pins ok");
    let mut cpu_budgets = vec![1.0; k];
    cpu_budgets[k - 1] = f64::INFINITY;
    let net_budgets = vec![1e12; k - 1];
    let obj = TierObjective::bandwidth_only(cpu_budgets, net_budgets);
    let tg = preprocess_tiered(&tg, &obj).expect("merge ok").graph;
    encode_multitier(&tg, &obj).problem
}

/// A two-ward forest deployment of the EEG app: `count` caps per ward
/// behind each of two gateways with (optionally asymmetric) backhauls —
/// the tree-deployment instance of the benches and smokes.
fn eeg_forest(
    channels: usize,
    count: usize,
    backhaul_a: f64,
    backhaul_b: f64,
) -> (wishbone_dataflow::Graph, GraphProfile, Deployment) {
    let (graph, prof) = eeg_app(channels);
    let ward_budget = Platform::tmote_sky().cpu_budget_fraction;
    let dep = forest_dep(count, ward_budget, backhaul_a, backhaul_b);
    (graph, prof, dep)
}

/// The forest of [`eeg_forest`] with every cap's CPU budget at
/// `ward_budget` — the platform's own there; cut by the drift ratio where
/// a cold rebuild has to reconstruct what the warm arm absorbs as a
/// `SetCpuBudget` delta.
fn forest_dep(count: usize, ward_budget: f64, backhaul_a: f64, backhaul_b: f64) -> Deployment {
    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    // Site ids follow attach order: both gateways, then both wards.
    let [gw_a, gw_b] = [("gw-a", backhaul_a), ("gw-b", backhaul_b)].map(|(name, net_budget)| {
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
    for (gw, name) in [(gw_a, "ward-a"), (gw_b, "ward-b")] {
        let ward = Site::new(name, &mote)
            .with_count(count)
            .with_cpu_budget(ward_budget);
        dep.attach(gw, ward, ward_uplink);
    }
    dep
}

/// The encoded (merged) forest ILP at unit rate.
fn eeg_forest_ilp(channels: usize, count: usize) -> Problem {
    let (graph, prof, dep) = eeg_forest(channels, count, 1e9, 1e9);
    let prep = PreparedDeployment::new(&graph, &prof, &dep, &DeploymentConfig::default())
        .expect("pins ok");
    prep.problem().clone()
}

/// Dense tableau vs sparse revised on identical pre-encoded instances:
/// the EEG family up to the full 22-channel fig6 application (729 vars ×
/// 972 constraints — the ROADMAP's scaling-wall size) plus a synthetic
/// 972-constraint chain. The dense path stays alive as the
/// differential-test oracle; this group is where its replacement earns
/// its keep.
fn backend_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_scaling");
    let instances: Vec<(String, Problem)> = vec![
        ("eeg_4ch".into(), eeg_ilp(4)),
        ("eeg_22ch".into(), eeg_ilp(22)),
        ("chain_972".into(), chain_ilp(972, 1.5)),
    ];
    for (name, p) in &instances {
        for (label, backend) in [
            ("dense", SolverBackend::Dense),
            ("sparse", SolverBackend::Sparse),
        ] {
            group.bench_function(BenchmarkId::new(name.as_str(), label), |b| {
                b.iter(|| p.solve_ilp(&backend_opts(backend)).expect("solvable"))
            });
        }
    }
    group.finish();
    for (name, p) in &instances {
        assert_backends_agree(name, p, SolverBackend::Sparse);
    }
}

/// k-way monotone-cut scaling: the same EEG instance encoded for 2 and 3
/// tiers (k multiplies variables and precedence rows on the identical
/// ≈2-nonzeros-per-row structure — the stress test the sparse revised
/// backend was built for), up to the full 22-channel app on the mote →
/// phone → server chain (the `tiered_eeg` example's encoding, and the
/// cold solve the benchmark of record's `chain_eeg22_cold` is built on).
fn multitier_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("multitier_scaling");
    let instances: Vec<(String, Problem)> = vec![
        ("eeg_2ch_k2".into(), eeg_multitier_ilp(2, 2)),
        ("eeg_2ch_k3".into(), eeg_multitier_ilp(2, 3)),
        ("eeg_4ch_k3".into(), eeg_multitier_ilp(4, 3)),
        ("eeg_22ch_k3".into(), eeg_multitier_ilp(22, 3)),
    ];
    for (name, p) in &instances {
        group.bench_function(name.as_str(), |b| {
            b.iter(|| p.solve_ilp(&IlpOptions::default()).expect("solvable"))
        });
    }
    group.finish();
    // Parity outside the timing loops: k = 2 multitier must equal the
    // binary encoding's optimum, and both backends must agree on k = 3.
    let binary = eeg_ilp(2)
        .solve_ilp(&IlpOptions::default())
        .expect("solvable");
    let k2 = instances[0]
        .1
        .solve_ilp(&IlpOptions::default())
        .expect("solvable");
    assert!(
        (binary.objective - k2.objective).abs() < 1e-6 * (1.0 + binary.objective.abs()),
        "k=2 multitier {} vs binary {}",
        k2.objective,
        binary.objective
    );
    assert_backends_agree("eeg_2ch_k3", &instances[1].1, SolverBackend::Sparse);
}

/// Tree-deployment scaling: two coupled leaf classes vs the same app's
/// single chain — the joint forest ILP is ~2x the chain's size with the
/// identical ≈2-nonzeros-per-row structure.
fn deployment_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("deployment_scaling");
    let instances: Vec<(String, Problem)> = vec![
        ("forest_eeg1_2x1".into(), eeg_forest_ilp(1, 1)),
        ("forest_eeg2_2x4".into(), eeg_forest_ilp(2, 4)),
        ("forest_eeg4_2x4".into(), eeg_forest_ilp(4, 4)),
    ];
    for (name, p) in &instances {
        group.bench_function(name.as_str(), |b| {
            b.iter(|| p.solve_ilp(&IlpOptions::default()).expect("solvable"))
        });
    }
    group.finish();
    assert_backends_agree("forest_eeg2_2x4", &instances[1].1, SolverBackend::Sparse);
}

/// Rate just under the tight forest's feasibility cliff (calibrated in
/// `tests/approx_nearcliff.rs`): the instance where exact search used
/// to starve for an incumbent and now adopts the multilevel cut.
const NEAR_CLIFF_RATE: f64 = 3.15;

/// Profiled EEG app reused by the end-to-end rate-search benches.
fn eeg_app(channels: usize) -> (wishbone_dataflow::Graph, GraphProfile) {
    let mut app = build_eeg_app(EegParams {
        n_channels: channels,
        ..Default::default()
    });
    let traces = app.traces(4, 1..3, 7);
    let prof = profile(&mut app.graph, &traces).expect("profiling succeeds");
    (app.graph, prof)
}

/// The binary node/server shape of the rate-search benches: one TMote
/// leaf under the server.
fn mote_star() -> Deployment {
    let mote = Platform::tmote_sky();
    Deployment::star([(Site::new("mote", &mote), LinkSpec::for_platform(&mote))])
}

/// `max_sustainable_rate_deployment`'s §4.3 schedule — floor probe,
/// doubling, bisection to relative precision `tol` — over an arbitrary
/// probe, so a bench can watch (or replace) every probe of a search.
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

/// §4.3 rate search the pre-workspace way: rebuild the partition graph,
/// preprocessing, and encoding at every probe (a one-shot
/// `partition_deployment` per probe). Kept as the comparison baseline
/// for the prepared path.
fn rate_search_rebuild(
    graph: &wishbone_dataflow::Graph,
    prof: &GraphProfile,
    dep: &Deployment,
    cfg: &DeploymentConfig,
    hi_limit: f64,
    tol: f64,
) -> f64 {
    rate_schedule(
        |rate| match partition_deployment(graph, prof, dep, &cfg.clone().at_rate(rate)) {
            Ok(_) => true,
            Err(PartitionError::Infeasible) => false,
            Err(e) => panic!("solver error: {e}"),
        },
        hi_limit,
        tol,
    )
}

fn rate_search(c: &mut Criterion) {
    let (graph, prof) = eeg_app(2);
    let dep = mote_star();
    let cfg = DeploymentConfig::default();
    let mut group = c.benchmark_group("rate_search");
    group.bench_function("prepared", |b| {
        b.iter(|| {
            max_sustainable_rate_deployment(&graph, &prof, &dep, &cfg, 64.0, 0.01)
                .expect("no solver error")
                .expect("feasible")
                .rate
        })
    });
    group.bench_function("rebuild_per_probe", |b| {
        b.iter(|| rate_search_rebuild(&graph, &prof, &dep, &cfg, 64.0, 0.01))
    });
    group.finish();
    // Both searches must land on the same rate.
    let a = max_sustainable_rate_deployment(&graph, &prof, &dep, &cfg, 64.0, 0.01)
        .unwrap()
        .unwrap()
        .rate;
    let b = rate_search_rebuild(&graph, &prof, &dep, &cfg, 64.0, 0.01);
    assert!(
        (a - b).abs() <= 0.02 * a,
        "prepared rate {a} vs rebuild rate {b}"
    );
}

/// The churn bench forest: ward-a's device count and gw-a's CPU budget
/// are the two knobs the delta stream turns, so both are parameters
/// here and everything else — in particular the ward uplink budgets —
/// is held constant (a [`DeploymentDelta::SetLeafCount`] does not touch
/// link budgets, and the cold-rebuild arm must match it exactly).
fn churn_dep(count_a: usize, gw_budget_a: f64) -> Deployment {
    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &phone).with_cpu_budget(gw_budget_a),
        LinkSpec {
            beta: 1.0,
            net_budget: 1e9,
        },
    );
    let gw_b = dep.attach(
        root,
        Site::new("gw-b", &phone),
        LinkSpec {
            beta: 1.0,
            net_budget: 1e9,
        },
    );
    let ward_uplink = LinkSpec {
        beta: 1.0,
        net_budget: 4.0 * mote.radio.goodput_bytes_per_sec,
    };
    dep.attach(
        gw_a,
        Site::new("ward-a", &mote).with_count(count_a),
        ward_uplink,
    );
    dep.attach(gw_b, Site::new("ward-b", &mote).with_count(4), ward_uplink);
    dep
}

/// The `i`-th churn event: re-provision ward-a and re-budget gw-a.
fn churn_event(i: usize) -> (usize, f64) {
    (2 + (i % 5), 0.20 + 0.02 * ((i % 8) as f64))
}

/// The delta batch that absorbs the `i`-th churn event in place.
fn churn_deltas(i: usize) -> [DeploymentDelta; 2] {
    let (count, cpu_budget) = churn_event(i);
    [
        DeploymentDelta::SetLeafCount {
            leaf: SiteId(3),
            count,
        },
        DeploymentDelta::SetCpuBudget {
            site: SiteId(1),
            cpu_budget,
        },
    ]
}

const CHURN_RATE: f64 = 0.5;

/// Topology churn: a stream of N re-provision/re-budget events against
/// one 2-ward EEG forest. The warm arm prepares once and absorbs each
/// event with `apply_delta` (in-place row rescales on the encoding it
/// already has); the cold arm rebuilds the leaf graphs, re-runs the
/// §4.1 merge, and re-encodes from scratch per event — the pre-delta
/// behaviour. Both arms end at bit-identical problems (pinned by the
/// `apply_delta_parity_with_cold_rebuild` proptest and the `--smoke`
/// churn check), so the solve itself is the same on either side and is
/// deliberately *not* inside the timed region: this group isolates the
/// per-event cost of keeping the encoding current, which is what the
/// incremental path exists for.
fn churn_scaling(c: &mut Criterion) {
    let (graph, prof) = eeg_app(2);
    let cfg = DeploymentConfig::default();
    let mut group = c.benchmark_group("churn_scaling");
    for n in [1usize, 10, 100] {
        group.bench_function(BenchmarkId::new("delta_apply", n), |b| {
            let (count0, budget0) = churn_event(0);
            let mut prep =
                PreparedDeployment::new(&graph, &prof, &churn_dep(count0, budget0), &cfg)
                    .expect("pins ok");
            b.iter(|| {
                for i in 0..n {
                    prep.apply_delta(&churn_deltas(i));
                }
                prep.problem_size()
            })
        });
        group.bench_function(BenchmarkId::new("cold_rebuild", n), |b| {
            b.iter(|| {
                let mut size = (0, 0);
                for i in 0..n {
                    let (count, budget) = churn_event(i);
                    let prep =
                        PreparedDeployment::new(&graph, &prof, &churn_dep(count, budget), &cfg)
                            .expect("pins ok");
                    size = prep.problem_size();
                }
                size
            })
        });
    }
    group.finish();
}

/// A `stages`-long pipeline between a mote source and a server sink:
/// data-neutral stages with a 3× reducer every 128th, the fleet fixture's
/// shape stretched. The §4.1 merge collapses every neutral run, so the
/// merged ILP grows with the reducers alone while the build and the
/// merge see every stage — the instance that shows their complexity.
fn pipeline_app(stages: usize) -> (wishbone_dataflow::Graph, GraphProfile) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for s in 0..stages {
        let keep = if s % 128 == 127 { 3 } else { 1 };
        let cost = 100 + 20 * (s as u64 % 7);
        prev = b.transform(
            format!("stage{s}"),
            Box::new(FnWork(move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().expect("the pipeline carries i16 windows");
                cx.meter().loop_scope(cost, |m| m.int(cost));
                cx.emit(Value::VecI16(w.iter().step_by(keep).copied().collect()));
            })),
            prev,
        );
    }
    b.exit_namespace();
    b.sink("out", prev);
    let mut graph = b.finish().expect("a pipeline is a DAG");
    let trace = SourceTrace {
        source: src.0,
        elements: (0..4).map(|i| Value::VecI16(vec![i as i16; 64])).collect(),
        rate_hz: 10.0,
    };
    // The profiler delivers each emission depth first, a stack frame per
    // stage: give a 16k-stage cascade the room.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            let prof = profile(&mut graph, &[trace]).expect("profiling succeeds");
            (graph, prof)
        })
        .expect("spawn the profiling thread")
        .join()
        .expect("profiling succeeds")
}

/// Stage counts of the `prepare_scaling` group and the smoke's ratio.
const PIPELINE_STAGES: [(&str, usize); 2] = [("pipeline_1k", 1_000), ("pipeline_16k", 16_000)];

/// The smoke's ceiling on prepare time at 16k stages over 1k: measured
/// 9.9×–23.5× over six runs of the linear merge, 178× under the
/// quadratic out-edge scan it replaced (0.99 → 177 ms), both on the
/// 2-vCPU host; the ceiling is twice the highest linear reading.
const PREPARE_RATIO_CEILING: f64 = 48.0;

/// `PreparedDeployment::new` on a one-mote star over pipelines 16× apart
/// in length: graph build, §4.1 merge, encode and coarsening, once. A
/// linear prepare reads ≈ 16× between the two; the quadratic out-edge
/// scan the merge had before read far more (the `--smoke` ceiling sits
/// between the two).
fn prepare_scaling(c: &mut Criterion) {
    let dep = mote_star();
    let cfg = DeploymentConfig::default();
    let mut group = c.benchmark_group("prepare_scaling");
    for (label, stages) in PIPELINE_STAGES {
        let (graph, prof) = pipeline_app(stages);
        group.bench_function(label, |b| {
            b.iter(|| {
                PreparedDeployment::new(&graph, &prof, &dep, &cfg)
                    .expect("pins ok")
                    .problem_size()
            })
        });
    }
    group.finish();
}

/// The traced-simulation fixture of the trace benches and smokes: the
/// 2-ward EEG forest as a runtime tree. The caps host only their
/// sources (gateways pure store-and-forward, the rest at the server),
/// so the full raw streams cross both hops and gw-a's starved 100 B/s
/// backhaul sheds load deterministically — the instance
/// `tests/observability.rs` pins attribution on.
struct ForestSim {
    graph: wishbone_dataflow::Graph,
    topo: TreeTopology,
    routes: Vec<LeafRoute>,
    cfg: SimulationConfig,
}

impl ForestSim {
    /// The untraced entry point.
    fn untraced(&self) -> TreeDeploymentReport {
        simulate_deployment_tree(&self.graph, &self.topo, &self.routes, &self.cfg)
    }

    /// The traced entry point, no failures injected.
    fn traced(&self, sink: &mut impl TraceSink) -> TreeDeploymentReport {
        let plan = FailurePlan::default();
        simulate_deployment_tree_traced(
            &self.graph,
            &self.topo,
            &self.routes,
            &self.cfg,
            &plan,
            sink,
        )
    }
}

fn forest_sim() -> ForestSim {
    let mut app = build_eeg_app(EegParams {
        n_channels: 2,
        ..Default::default()
    });
    let traces = app.traces(8, 3..6, 5);
    profile(&mut app.graph, &traces).expect("profiling succeeds");
    let mote = Platform::tmote_sky();
    let relay = Platform::iphone();
    let topo = TreeTopology {
        parent: vec![None, Some(0), Some(0), Some(1), Some(2)],
        platforms: vec![Platform::server(), relay.clone(), relay, mote.clone(), mote],
        counts: vec![1, 1, 1, 4, 4],
        uplink: vec![
            None,
            Some(ChannelParams::wifi(100.0)),
            Some(ChannelParams::wifi(400_000.0)),
            Some(ChannelParams::wifi(1_000_000.0)),
            Some(ChannelParams::wifi(1_000_000.0)),
        ],
    };
    let feeds: Vec<SourceFeed> = app
        .sources
        .iter()
        .zip(&traces)
        .map(|(&src, t)| SourceFeed {
            source: src,
            trace: t.elements.clone(),
            rate_hz: t.rate_hz,
        })
        .collect();
    let sources: HashSet<OperatorId> = app.sources.iter().copied().collect();
    let rest: HashSet<OperatorId> = app
        .graph
        .operator_ids()
        .filter(|id| !sources.contains(id))
        .collect();
    let routes = vec![
        LeafRoute {
            path: vec![3, 1, 0],
            site_ops: vec![sources.clone(), HashSet::new(), rest.clone()],
            feeds: feeds.clone(),
        },
        LeafRoute {
            path: vec![4, 2, 0],
            site_ops: vec![sources, HashSet::new(), rest],
            feeds,
        },
    ];
    let cfg = SimulationConfig {
        duration_s: 5.0,
        rate_multiplier: 1.0,
        ..SimulationConfig::motes(1, 7)
    };
    ForestSim {
        graph: app.graph,
        topo,
        routes,
        cfg,
    }
}

/// Telemetry must be free when off: the untraced entry point vs the
/// traced one with a [`NullSink`] (its `enabled()` is a monomorphized
/// constant `false`, so every emission site folds away) vs a
/// [`MemorySink`] actually buffering the stream (the honest cost of
/// turning tracing on). The `--smoke` run asserts the null arm lands
/// within 5% of untraced; this group puts numbers on all three.
fn trace_overhead(c: &mut Criterion) {
    let sim = forest_sim();
    let mut group = c.benchmark_group("trace_overhead");
    group.bench_function("untraced", |b| b.iter(|| sim.untraced()));
    group.bench_function("null_sink", |b| b.iter(|| sim.traced(&mut NullSink)));
    group.bench_function("memory_sink", |b| {
        b.iter(|| {
            let mut sink = MemorySink::new();
            sim.traced(&mut sink);
            sink.events.len()
        })
    });
    group.finish();
}

/// The solve rate of the drift benches and smokes (comfortably inside
/// the 2×4 forest's feasible region even after a 2× budget cut).
const DRIFT_RATE: f64 = 0.25;

/// A synthetic one-operator drift report (the detector's output shape,
/// without needing a live stream in the timed region).
fn drift_report(victim: OperatorId, ratio: f64) -> DriftReport {
    DriftReport {
        operators: vec![OperatorDrift {
            op: victim,
            expected_s: 1.0,
            observed_s: ratio,
            ratio,
        }],
        edges: vec![],
    }
}

/// The drift loop's repair step on the 2×4 forest: a flagged 2× operator
/// inflation mapped through `drift_to_deltas` onto the standing encoding
/// (in-place budget-row rescale + warm re-solve; `encodes()` stays 1) vs
/// rebuilding and re-encoding the drifted deployment from scratch — the
/// gap that makes reacting to drift online viable at all. The warm arm
/// alternates drifted/recovered so both rewrite directions are timed.
fn drift_resolve(c: &mut Criterion) {
    let (graph, prof, dep) = eeg_forest(2, 4, 1e9, 1e9);
    let cfg = DeploymentConfig::default();
    let mut group = c.benchmark_group("drift_resolve");
    group.bench_function("warm_rescale", |b| {
        let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
        let base = prep.solve_at(DRIFT_RATE).expect("baseline solve");
        let victim = base.leaves[0].site_ops[0]
            .iter()
            .copied()
            .min()
            .expect("the leaf hosts its sources");
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let ratio = if i.is_multiple_of(2) { 1.0 } else { 2.0 };
            let deltas = drift_to_deltas(&drift_report(victim, ratio), &dep, &base);
            prep.apply_delta(&deltas);
            prep.solve_at(DRIFT_RATE).expect("warm re-solve").objective
        });
        assert_eq!(prep.encodes(), 1, "drift re-solves must not re-encode");
    });
    group.bench_function("cold_rebuild", |b| {
        let ward_budget = Platform::tmote_sky().cpu_budget_fraction;
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let ratio = if i.is_multiple_of(2) { 1.0 } else { 2.0 };
            let drifted = forest_dep(4, ward_budget / ratio, 1e9, 1e9);
            let mut prep = PreparedDeployment::new(&graph, &prof, &drifted, &cfg).expect("pins ok");
            prep.solve_at(DRIFT_RATE).expect("cold solve").objective
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    backend_scaling,
    multitier_scaling,
    deployment_scaling,
    rate_search,
    churn_scaling,
    trace_overhead,
    drift_resolve,
    prepare_scaling,
);

/// Seconds-scale smoke run for CI, parameterized by backend so a sparse
/// (or dense) regression cannot land silently: the perf-critical paths
/// must compile, run, agree warm-vs-cold *and* dense-vs-sparse, and
/// actually exercise warm starts.
fn smoke(backend: SolverBackend) {
    let label = format!("{backend:?}").to_lowercase();
    let pg = eeg_partition_graph(1);
    let warm_opts = backend_opts(backend);
    let cold_opts = IlpOptions {
        warm_lp: false,
        ..backend_opts(backend)
    };
    let (warm_obj, warm_stats) = solve_opts(&pg, &warm_opts);
    let (cold_obj, cold_stats) = solve_opts(&pg, &cold_opts);
    assert!(
        (warm_obj - cold_obj).abs() < 1e-6,
        "[{label}] warm {warm_obj} vs cold {cold_obj}"
    );
    assert_eq!(cold_stats.warm_starts, 0);
    if warm_stats.nodes > 1 {
        assert!(
            warm_stats.warm_starts > 0,
            "[{label}] a branching solve must warm-start its children"
        );
    }

    // Differential parity against the other backend on the same instance
    // and on the 972-constraint chain the sparse path exists for.
    let other = backend_opts(other_backend(backend));
    let (other_obj, _) = solve_opts(&pg, &other);
    assert!(
        (warm_obj - other_obj).abs() < 1e-6,
        "backends disagree on 1ch EEG: {warm_obj} vs {other_obj}"
    );
    let mine = assert_backends_agree("chain_972", &chain_ilp(972, 1.5), backend);

    // One multitier instance per smoke: the 3-tier 1ch EEG encoding must
    // solve on this backend to the same optimum as the other backend.
    let mt_mine = assert_backends_agree("multitier 1ch k3", &eeg_multitier_ilp(1, 3), backend);

    // One tree-deployment instance per smoke: the 2-ward forest encoding
    // must solve on this backend to the same optimum as the other.
    let f_mine = assert_backends_agree("the 2-ward forest", &eeg_forest_ilp(1, 1), backend);

    let (graph, prof) = eeg_app(1);
    let mut dcfg = DeploymentConfig::default();
    dcfg.ilp.backend = backend;
    let r = max_sustainable_rate_deployment(&graph, &prof, &mote_star(), &dcfg, 16.0, 0.05)
        .expect("no solver error")
        .expect("feasible");
    assert_eq!(r.encodes, 1, "rate search must encode exactly once");

    // One churn instance per smoke: a delta'd prepared forest must
    // agree with a cold rebuild of the same delta'd deployment on this
    // backend, without re-encoding.
    let (count0, budget0) = churn_event(0);
    let (count1, budget1) = churn_event(1);
    let mut warm = PreparedDeployment::new(&graph, &prof, &churn_dep(count0, budget0), &dcfg)
        .expect("pins ok");
    warm.apply_delta(&churn_deltas(1));
    assert_eq!(warm.encodes(), 1, "[{label}] deltas must not re-encode");
    let mut cold = PreparedDeployment::new(&graph, &prof, &churn_dep(count1, budget1), &dcfg)
        .expect("pins ok");
    let churn_obj = match (warm.solve_at(CHURN_RATE), cold.solve_at(CHURN_RATE)) {
        (Ok(w), Ok(c)) => {
            assert!(
                (w.objective - c.objective).abs() < 1e-6 * (1.0 + c.objective.abs()),
                "[{label}] delta re-solve {} vs cold rebuild {}",
                w.objective,
                c.objective
            );
            w.objective
        }
        (Err(_), Err(_)) => f64::NAN,
        (w, c) => panic!(
            "[{label}] churn feasibility flipped: warm {:?} vs cold {:?}",
            w.is_ok(),
            c.is_ok()
        ),
    };

    // One near-cliff instance per smoke: on the tight asymmetric forest
    // just under its feasibility cliff, the exact solve must adopt the
    // multilevel seed and a root-capped search (`max_nodes = 1`) must
    // hold its certified gap — on this backend.
    let (graph4, prof4, dep4) = eeg_forest(4, 4, 500.0, 400_000.0);
    let mut ncfg = DeploymentConfig::default();
    ncfg.ilp.backend = backend;
    ncfg.ilp.rel_gap = 0.025;
    let mut prep = PreparedDeployment::new(&graph4, &prof4, &dep4, &ncfg).expect("pins ok");
    let seeded = prep.solve_at(NEAR_CLIFF_RATE).expect("near-cliff feasible");
    assert!(
        seeded.ilp_stats.seeded,
        "[{label}] near-cliff exact solve must adopt the multilevel seed"
    );
    let mut ccfg = DeploymentConfig::default();
    ccfg.ilp.backend = backend;
    ccfg.ilp.max_nodes = 1;
    let mut prep = PreparedDeployment::new(&graph4, &prof4, &dep4, &ccfg).expect("pins ok");
    let capped = prep.solve_at(NEAR_CLIFF_RATE).expect("near-cliff feasible");
    let cliff_gap = capped
        .certified_gap
        .expect("every placement carries a certificate");
    assert!(
        cliff_gap <= 0.025,
        "[{label}] near-cliff certified gap blew up: {cliff_gap}"
    );
    assert!(
        capped.objective >= seeded.objective - 1e-9 * (1.0 + seeded.objective.abs()),
        "[{label}] a root-capped search beat the exact optimum: {} vs {}",
        capped.objective,
        seeded.objective
    );

    // One forest rate search per smoke — the benchmark of record's
    // `forest_eeg4_rate_search` instance. Both backends must land on
    // the same rate in the same number of probes.
    let mut rcfg = DeploymentConfig::default();
    rcfg.ilp.backend = backend;
    let found = max_sustainable_rate_deployment(&graph4, &prof4, &dep4, &rcfg, 64.0, 0.005)
        .expect("no solver error")
        .expect("feasible");
    assert_eq!(found.encodes, 1, "[{label}] one encode");
    assert_eq!(
        (found.rate, found.evaluations),
        (3.15625, 28),
        "[{label}] the forest's sustainable rate and probe count (either backend)"
    );
    // Sparse smoke only: the same search probe by probe on one prepared
    // instance, to count what the library's result does not carry. The
    // sparse backend follows a retarget from the previous probe's basis,
    // so all but the first root LP (and any right after an infeasible
    // probe that was refuted from a cold start) enter warm and the whole
    // search costs a few hundred pivots, not ~15 500 from the slack basis
    // every time. Counts, so they repeat exactly on any machine.
    if backend == SolverBackend::Sparse {
        let (mut probes, mut feasible, mut warm_roots) = (0u32, 0u32, 0u32);
        let (mut search_iters, mut search_refactors) = (0u64, 0u64);
        let mut prep = PreparedDeployment::new(&graph4, &prof4, &dep4, &rcfg).expect("pins ok");
        let replayed = rate_schedule(
            |rate| {
                probes += 1;
                match prep.solve_at(rate) {
                    Ok(part) => {
                        feasible += 1;
                        // No LP of the probe started cold, its root included.
                        warm_roots += u32::from(part.ilp_stats.cold_starts == 0);
                        search_iters += part.ilp_stats.simplex_iterations;
                        search_refactors += part.ilp_stats.refactorizations;
                        true
                    }
                    Err(PartitionError::Infeasible) => false,
                    Err(e) => panic!("[sparse] solver error: {e}"),
                }
            },
            64.0,
            0.005,
        );
        assert_eq!(prep.encodes(), 1, "[sparse] one encode");
        assert_eq!(
            (replayed, probes),
            (found.rate, found.evaluations),
            "[sparse] the replay must be the library's search"
        );
        assert!(
            warm_roots * 5 >= feasible * 4,
            "[sparse] only {warm_roots} of {feasible} feasible probes entered warm"
        );
        assert!(
            search_iters <= 1000,
            "[sparse] the forest rate search took {search_iters} simplex iterations, budget 1000"
        );
        println!(
            "smoke[sparse] forest rate search: {probes} probes, {warm_roots} of {feasible} \
             feasible ones warm at the root, {search_iters} iterations, \
             {search_refactors} factorizations"
        );
    }

    // One traced simulation per smoke: the NullSink run must reproduce
    // the untraced entry point byte for byte and cost nothing (min-of-N
    // within 5% plus scheduling slack), a MemorySink must capture the
    // stream, and attribution must blame the starved gateway uplink.
    let sim = forest_sim();
    let bare = sim.untraced();
    let traced = sim.traced(&mut NullSink);
    assert_eq!(
        bare, traced,
        "[{label}] NullSink run must be byte-identical"
    );
    let mut mem = MemorySink::new();
    let _ = sim.traced(&mut mem);
    assert!(!mem.events.is_empty(), "[{label}] MemorySink saw no events");
    let attr = attribute_tree(&bare, &sim.topo);
    let top = attr.top().expect("the starved forest sheds load");
    assert_eq!(
        (top.cause, top.site),
        (LossCause::ChannelLoss, 1),
        "[{label}] attribution must blame gw-a's uplink:\n{attr}"
    );
    let mut best_untraced = u128::MAX;
    let mut best_null = u128::MAX;
    for _ in 0..7 {
        let t = Instant::now();
        let _ = sim.untraced();
        best_untraced = best_untraced.min(t.elapsed().as_nanos());
        let t = Instant::now();
        let _ = sim.traced(&mut NullSink);
        best_null = best_null.min(t.elapsed().as_nanos());
    }
    assert!(
        best_null as f64 <= best_untraced as f64 * 1.05 + 2e6,
        "[{label}] NullSink tracing is not free: {best_null}ns vs {best_untraced}ns untraced"
    );

    // One drift re-solve per smoke: a flagged 2× inflation maps to
    // budget deltas the standing encoding absorbs in place — the warm
    // re-solve completes without a re-encode, on this backend.
    let (dgraph, dprof, ddep) = eeg_forest(2, 4, 1e9, 1e9);
    let mut dcfg = DeploymentConfig::default();
    dcfg.ilp.backend = backend;
    let mut prep = PreparedDeployment::new(&dgraph, &dprof, &ddep, &dcfg).expect("pins ok");
    let dbase = prep.solve_at(DRIFT_RATE).expect("baseline solve");
    assert!(
        prep.encode_seconds() > 0.0,
        "[{label}] the encode span must be timed"
    );
    let victim = dbase.leaves[0].site_ops[0]
        .iter()
        .copied()
        .min()
        .expect("the leaf hosts its sources");
    let deltas = drift_to_deltas(&drift_report(victim, 2.0), &ddep, &dbase);
    assert!(!deltas.is_empty(), "[{label}] drift must map to deltas");
    prep.apply_delta(&deltas);
    let drifted = prep.solve_at(DRIFT_RATE).expect("drift re-solve");
    assert_eq!(
        prep.encodes(),
        1,
        "[{label}] the drift re-solve must not re-encode"
    );
    assert!(
        drifted.objective >= dbase.objective - 1e-9 * (1.0 + dbase.objective.abs()),
        "[{label}] a tighter budget cannot improve the objective: {} vs {}",
        drifted.objective,
        dbase.objective
    );

    // A host-independent count guard on the flagship root LP (sparse
    // smoke only): the 22-channel EEG app on the mote → phone → server
    // chain must take the dual-first start and finish well under the
    // ~4450 pivots the two-phase primal needs on it — so a change that
    // silently falls back to the primal fails here, on any machine. The
    // iteration count is pinned exactly: the leaving heap must choose
    // what a full scan chooses, and a longer refactorization period must
    // not move a pivot. The factorization guard is the steepest-edge
    // pricing's: rows with a short `B⁻ᵀe_r` keep the etas sparse, so only
    // the 128-eta period forces a refactorization (14 of them; 27 at the
    // old 64-eta period), where largest-violation pricing ran into the eta
    // file's nonzero budget (39 at 64).
    if backend == SolverBackend::Sparse {
        let (graph22, prof22) = eeg_app(22);
        let chain = Deployment::chain(&bench_chain(3));
        let prep = PreparedDeployment::new(&graph22, &prof22, &chain, &DeploymentConfig::default())
            .expect("the 22ch chain prepares");
        let p = prep.problem();
        let mut ws = SimplexWorkspace::new();
        ws.set_backend(SolverBackend::Sparse);
        let lp = solve_lp_in(
            p,
            p.lower_bounds(),
            p.upper_bounds(),
            1_000_000,
            &mut ws,
            false,
        )
        .expect("the 22ch chain root LP solves");
        assert!(
            ws.dual_iterations() > 0,
            "[sparse] the 22ch chain root LP must start dual-first"
        );
        assert_eq!(
            lp.iterations,
            1717,
            "[sparse] the 22ch chain root LP took {} iterations ({} dual + {} primal)",
            lp.iterations,
            ws.dual_iterations(),
            ws.primal_iterations()
        );
        assert!(
            ws.refactorizations() <= 16,
            "[sparse] the 22ch chain root LP took {} factorizations, budget 16",
            ws.refactorizations()
        );
        println!(
            "smoke[sparse] 22ch chain root LP: {} rows, {} iterations ({} dual + {} primal), \
             {} factorizations",
            p.num_constraints(),
            lp.iterations,
            ws.dual_iterations(),
            ws.primal_iterations(),
            ws.refactorizations()
        );
    }

    // Prepare is linear in the pipeline's length (sparse smoke only: no
    // solve runs, so the backend cannot matter). A ratio, not a time, so
    // the host's speed cancels; best of five per side.
    if backend == SolverBackend::Sparse {
        let (dep, cfg) = (mote_star(), DeploymentConfig::default());
        let best_prepare = |stages: usize| {
            let (graph, prof) = pipeline_app(stages);
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let [(_, short), (_, long)] = PIPELINE_STAGES;
        let (short_s, long_s) = (best_prepare(short), best_prepare(long));
        let ratio = long_s / short_s;
        println!(
            "smoke[sparse] prepare scaling: {:.3} ms at {short} stages, {:.3} ms at {long}: \
             {ratio:.1}x (ceiling {PREPARE_RATIO_CEILING}x; linear is {}x)",
            short_s * 1e3,
            long_s * 1e3,
            long / short
        );
        assert!(
            ratio <= PREPARE_RATIO_CEILING,
            "[sparse] prepare grew superlinearly: {ratio:.1}x for {}x the stages",
            long / short
        );
    }

    println!(
        "smoke[{label}] OK: {} nodes ({} warm) on 1ch EEG; chain_972 obj {:.1} \
         in {} nodes; multitier k3 obj {:.1}; forest obj {:.1}; rate search found \
         x{:.3} in {} probes / {} encode; churn delta obj {:.3}; near-cliff \
         seeded obj {:.3}, capped gap {:.4}; forest rate search x{} in {} probes; \
         traced sim {} events, top blame {}, null-sink overhead {:+.1}%; drift \
         re-solve obj {:.3} in 1 encode",
        warm_stats.nodes,
        warm_stats.warm_starts,
        mine.objective,
        mine.stats.nodes,
        mt_mine.objective,
        f_mine.objective,
        r.rate,
        r.evaluations,
        r.encodes,
        churn_obj,
        seeded.objective,
        cliff_gap,
        found.rate,
        found.evaluations,
        mem.events.len(),
        top.label,
        (best_null as f64 / best_untraced as f64 - 1.0) * 100.0,
        drifted.objective
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let backend = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .map(|b| match b.as_str() {
            "dense" => SolverBackend::Dense,
            "sparse" => SolverBackend::Sparse,
            other => panic!("unknown backend {other:?} (use dense|sparse)"),
        });
    if args.iter().any(|a| a == "--smoke") {
        match backend {
            Some(b) => smoke(b),
            None => {
                smoke(SolverBackend::Dense);
                smoke(SolverBackend::Sparse);
            }
        }
        return;
    }
    let timed = benches();
    if args.iter().any(|a| a == "--json") {
        merge_bench_json("solver_criterion", &timed);
    }
}
