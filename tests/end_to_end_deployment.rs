//! End-to-end tests of the topology-first `Deployment` API on the
//! apps-crate graphs.
//!
//! Two anchors:
//!
//! 1. **Differential parity on real programs** — the prepared deployment
//!    ILP for a path topology is bit-for-bit `encode_multitier`'s ILP
//!    (and for a 2-site star, the binary restricted encoding), built
//!    through the *independent* oracle path
//!    (`build_partition_graph`/`build_tiered_graph` + merge + the chain
//!    encoders). This is what licenses the deployment engine being the
//!    only partitioner: the binary and chain shapes are its
//!    `Deployment::star` / `Deployment::chain` constructors.
//! 2. **New capability** — a genuinely branching forest (two gateways
//!    with different uplink budgets) solves end to end, and the
//!    partitioner, the §4.3 rate search, and the tree simulator agree
//!    about *where* goodput collapses when one gateway saturates.

use wishbone::core::{build_tiered_graph, preprocess_tiered, TierObjective};
use wishbone::ilp::{solve_ilp_in, SimplexWorkspace};
use wishbone::prelude::*;
use wishbone_oracle::{
    build_partition_graph, encode, encode_multitier, preprocess, Encoding, ObjectiveConfig,
};

#[path = "common/identity.rs"]
mod identity;
use identity::problems_identical;

#[test]
fn speech_two_site_star_is_the_binary_encoding() {
    let app = build_speech_app();
    let trace = app.trace(40, 42);
    let prof = profile(&app.graph, &[trace]).unwrap();
    let mote = Platform::tmote_sky();
    let uplink = LinkSpec::for_platform(&mote);

    // Oracle: the historical binary path, assembled by hand.
    let pg = build_partition_graph(&app.graph, &prof, &mote, Mode::Permissive, 1.0).unwrap();
    let merged = preprocess(&pg).unwrap().graph;
    let oracle = encode(
        &merged,
        Encoding::Restricted,
        &ObjectiveConfig::bandwidth_only(1.0, uplink.net_budget),
    );

    let dep = Deployment::star([(Site::new("mote", &mote), uplink)]);
    let prep =
        PreparedDeployment::new(&app.graph, &prof, &dep, &DeploymentConfig::default()).unwrap();
    problems_identical(&oracle.problem, prep.problem())
        .unwrap_or_else(|e| panic!("speech 2-site: {e}"));
}

#[test]
fn eeg_three_tier_path_is_the_multitier_encoding() {
    let app = build_eeg_app(EegParams {
        n_channels: 2,
        ..Default::default()
    });
    let traces = app.traces(6, 2..4, 13);
    let prof = profile(&app.graph, &traces).unwrap();
    let chain = [
        Platform::tmote_sky(),
        Platform::iphone(),
        Platform::server(),
    ];

    // Oracle: the chain path, assembled by hand through the independent
    // multitier encoder.
    let obj = TierObjective::bandwidth_only(
        vec![1.0, 1.0, f64::INFINITY],
        chain[..2]
            .iter()
            .map(|p| p.radio.goodput_bytes_per_sec)
            .collect(),
    );
    let tg = build_tiered_graph(&app.graph, &prof, &chain, Mode::Permissive, 1.0).unwrap();
    let tg = preprocess_tiered(&tg, &obj).unwrap().graph;
    let oracle = encode_multitier(&tg, &obj);

    let dep = Deployment::chain(&chain);
    let prep =
        PreparedDeployment::new(&app.graph, &prof, &dep, &DeploymentConfig::default()).unwrap();
    problems_identical(&oracle.problem, prep.problem())
        .unwrap_or_else(|e| panic!("eeg k=3 path: {e}"));

    // And through the solver, on both backends, the deployment facade
    // must reproduce the oracle's optimum. The facade's answer is the
    // closure where it fits; the oracle's is always branch-and-bound on
    // the backend, which keeps both simplex methods in the comparison.
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let opts = IlpOptions {
            backend,
            ..Default::default()
        };
        let (oracle_sol, stats) =
            solve_ilp_in(&oracle.problem, &opts, &mut SimplexWorkspace::new());
        let oracle_sol = oracle_sol.expect("feasible");
        assert!(
            stats.nodes >= 1,
            "{backend:?}: the oracle's search ran no node"
        );
        let mut cfg = DeploymentConfig::default();
        cfg.ilp.backend = backend;
        let part = partition_deployment(&app.graph, &prof, &dep, &cfg).expect("feasible");
        assert!(
            (oracle_sol.objective - part.objective).abs()
                < 1e-9 * (1.0 + oracle_sol.objective.abs()),
            "{backend:?}: oracle {} vs deployment {}",
            oracle_sol.objective,
            part.objective
        );
    }
}

/// The acceptance instance: 2 gateways × 11 EEG channels each with
/// asymmetric uplinks. `partition_deployment`,
/// `max_sustainable_rate_deployment`, and `simulate_deployment_tree`
/// must agree that goodput collapses only on the saturated gateway's
/// subtree (the full-size version lives in `examples/forest_eeg.rs`).
#[test]
fn forest_goodput_collapses_only_on_the_saturated_subtree() {
    let app = build_eeg_app(EegParams {
        n_channels: 3,
        ..Default::default()
    });
    let traces = app.traces(6, 2..4, 29);
    let prof = profile(&app.graph, &traces).unwrap();
    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();

    // gw-a gets a starved uplink, gw-b a roomy one.
    let mk_forest = |uplink_a: f64, uplink_b: f64| {
        let mut dep = Deployment::new(Site::server("server", &Platform::server()));
        let root = dep.root();
        let gw_a = dep.attach(
            root,
            Site::new("gw-a", &phone),
            LinkSpec {
                beta: 1.0,
                net_budget: uplink_a,
            },
        );
        let gw_b = dep.attach(
            root,
            Site::new("gw-b", &phone),
            LinkSpec {
                beta: 1.0,
                net_budget: uplink_b,
            },
        );
        let uplink = LinkSpec {
            beta: 1.0,
            net_budget: mote.radio.goodput_bytes_per_sec,
        };
        let a = dep.attach(gw_a, Site::new("cap-a", &mote), uplink);
        let b = dep.attach(gw_b, Site::new("cap-b", &mote), uplink);
        (dep, a, b)
    };

    // 1. The partitioner respects each gateway's own uplink.
    let (dep, leaf_a, leaf_b) = mk_forest(40.0, 400_000.0);
    let cfg = DeploymentConfig::default();
    let r = max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 16.0, 0.01)
        .expect("solver ok")
        .expect("feasible at low rates");
    let a = r.partition.leaf(leaf_a).unwrap();
    assert!(r.partition.leaf(leaf_b).is_some(), "both leaves placed");
    assert!(
        a.predicted_net[1] <= 40.0 + 1e-9,
        "gw-a uplink {} over its 40 B/s budget",
        a.predicted_net[1]
    );
    // The starved uplink is the binding constraint: the roomy sibling's
    // rate alone would be far higher.
    let (dep_roomy, _, _) = mk_forest(400_000.0, 400_000.0);
    let roomy = max_sustainable_rate_deployment(&app.graph, &prof, &dep_roomy, &cfg, 16.0, 0.01)
        .expect("solver ok")
        .expect("feasible");
    assert!(
        roomy.rate > r.rate * 1.5,
        "starved gw-a must cap the whole deployment: {} vs {}",
        roomy.rate,
        r.rate
    );

    // 2. Simulate the starved forest at the roomy deployment's rate:
    // only gw-a's subtree may collapse.
    let topo = TreeTopology {
        parent: vec![None, Some(0), Some(0), Some(1), Some(2)],
        platforms: vec![
            Platform::server(),
            phone.clone(),
            phone.clone(),
            mote.clone(),
            mote.clone(),
        ],
        counts: vec![1; 5],
        uplink: vec![
            None,
            Some(ChannelParams::wifi(40.0)),
            Some(ChannelParams::wifi(400_000.0)),
            Some(ChannelParams::mote()),
            Some(ChannelParams::mote()),
        ],
    };
    // Drive well past the starved deployment's sustainable rate (but
    // within what the roomy placement was computed for): gw-a's 40 B/s
    // backhaul must shed most of its subtree's stream.
    let sim_rate = (3.0 * r.rate).min(roomy.rate);
    // Drive both subtrees with the placement the *roomy* partition chose
    // (what a deployment engineer would ship before discovering gw-a's
    // backhaul is 40 B/s).
    let placement = &roomy.partition;
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
    let mk_route = |leaf: usize, part: &LeafPartition| LeafRoute {
        path: vec![leaf, leaf - 2, 0],
        site_ops: part
            .site_ops
            .iter()
            .map(|ops| ops.iter().copied().collect())
            .collect(),
        feeds: feeds.clone(),
    };
    let sim = simulate_deployment_tree(
        &app.graph,
        &topo,
        &[
            mk_route(3, placement.leaf(leaf_a).unwrap()),
            mk_route(4, placement.leaf(leaf_b).unwrap()),
        ],
        &SimulationConfig {
            duration_s: 10.0,
            rate_multiplier: sim_rate,
            ..SimulationConfig::motes(1, 7)
        },
    );
    let (flow_a, flow_b) = (&sim.leaves[0], &sim.leaves[1]);
    assert!(
        // Baseline radio loss (5% per mote packet) costs the healthy
        // subtree a fixed fraction over two hops; what matters is that it
        // keeps flowing while its sibling collapses.
        flow_b.goodput_ratio() > 0.6,
        "the healthy subtree must keep its goodput: {}",
        flow_b.goodput_ratio()
    );
    assert!(
        flow_a.goodput_ratio() < 0.5 * flow_b.goodput_ratio(),
        "goodput must collapse on the saturated gateway's subtree only: a {} vs b {}",
        flow_a.goodput_ratio(),
        flow_b.goodput_ratio()
    );
    // The collapse is on gw-a's uplink hop, not inside the healthy tree.
    assert!(flow_a.hop_delivery_ratio(1) < 0.5);
    assert!(flow_b.hop_delivery_ratio(1) > 0.9);
}
