//! End-to-end tests of chain (`Deployment::chain`) deployments.
//!
//! The correctness anchor is differential parity: for k = 2 the k-way
//! monotone-cut partitioner must return the same operator assignment,
//! objective, and verdict as the binary pipeline assembled by hand from
//! the standalone oracles (`build_partition_graph` → `preprocess` →
//! `encode(.., Restricted, ..)` → `solve_ilp`) on the apps-crate graphs,
//! on both simplex backends (the same way the dense tableau anchored the
//! sparse revised simplex in PR 3). On top of that, 3-tier chains are
//! checked for structural invariants and wired through the deployment
//! simulator.

use wishbone::ilp::{solve_ilp_in, SimplexWorkspace, SolveError};
use wishbone::prelude::*;
use wishbone_oracle::{build_partition_graph, encode, preprocess, Encoding, ObjectiveConfig};

fn parity_on(
    graph: &Graph,
    prof: &GraphProfile,
    node_platform: &Platform,
    rates: &[f64],
    backend: SolverBackend,
) {
    let dep = Deployment::chain(&[node_platform.clone(), Platform::server()]);
    for &rate in rates {
        let opts = IlpOptions {
            backend,
            ..Default::default()
        };
        // Binary oracle at `rate`, straight through the standalone
        // restricted encoder.
        let pg = build_partition_graph(graph, prof, node_platform, Mode::Permissive, rate).unwrap();
        let merged = preprocess(&pg).unwrap().graph;
        let ep = encode(
            &merged,
            Encoding::Restricted,
            &ObjectiveConfig::bandwidth_only(1.0, node_platform.radio.goodput_bytes_per_sec),
        );
        let (binary, b_stats) = solve_ilp_in(&ep.problem, &opts, &mut SimplexWorkspace::new());

        let cfg = DeploymentConfig {
            ilp: opts,
            ..DeploymentConfig::default().at_rate(rate)
        };
        let tiered = partition_deployment(graph, prof, &dep, &cfg);
        match (binary, tiered) {
            (Ok(b), Ok(t)) => {
                let mut node_ops: Vec<OperatorId> =
                    merged.expand(&ep.decode(&b.values)).into_iter().collect();
                node_ops.sort_unstable();
                let leaf = &t.leaves[0];
                assert_eq!(
                    node_ops, leaf.site_ops[0],
                    "node assignment diverged at rate {rate} on {backend:?}"
                );
                assert_eq!(
                    graph.operator_count() - node_ops.len(),
                    leaf.site_ops[1].len()
                );
                let cut_edges: Vec<_> = graph
                    .edge_ids()
                    .filter(|&e| {
                        let edge = graph.edge(e);
                        node_ops.contains(&edge.src) && !node_ops.contains(&edge.dst)
                    })
                    .collect();
                assert_eq!(cut_edges, leaf.link_cut_edges[0]);
                assert!(
                    (b.objective - t.objective).abs() < 1e-9 * (1.0 + b.objective.abs()),
                    "objective diverged at rate {rate}: {} vs {}",
                    b.objective,
                    t.objective
                );
                assert_eq!(
                    (ep.problem.num_vars(), ep.problem.num_constraints()),
                    t.problem_size,
                    "the k=2 encoding must be the binary encoding, row for row"
                );
                // Both searches ran on `backend`, as their counters show:
                // only the sparse method factorizes a basis or re-enters
                // warm.
                for s in [&b_stats, &t.ilp_stats] {
                    match backend {
                        SolverBackend::Dense => {
                            assert_eq!((s.refactorizations, s.warm_starts), (0, 0), "{s:?}")
                        }
                        SolverBackend::Sparse => assert!(s.refactorizations > 0, "{s:?}"),
                    }
                }
            }
            (Err(SolveError::Infeasible), Err(PartitionError::Infeasible)) => {}
            (b, t) => panic!("rate {rate} {backend:?}: binary {b:?} vs chain {t:?}"),
        }
    }
}

#[test]
fn speech_k2_parity_both_backends() {
    let app = build_speech_app(SpeechParams::default());
    let trace = app.trace(40, 42);
    let prof = profile(&app.graph, &[trace]).unwrap();
    let mote = Platform::tmote_sky();
    // 0.125 fits a prefix on the mote; 4.0 is hopeless (pinned source
    // alone overruns): both Ok and Err verdicts must agree.
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        parity_on(&app.graph, &prof, &mote, &[0.125, 0.5, 4.0], backend);
    }
}

#[test]
fn eeg_k2_parity_both_backends() {
    let app = build_eeg_channel();
    let traces = app.traces(6, 2..4, 9);
    let prof = profile(&app.graph, &traces).unwrap();
    for platform in [Platform::tmote_sky(), Platform::nokia_n80()] {
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            parity_on(&app.graph, &prof, &platform, &[0.25, 1.0], backend);
        }
    }
}

#[test]
fn eeg_three_tier_structure_and_rate_dominance() {
    let app = build_eeg_app(EegParams {
        n_channels: 4,
        ..Default::default()
    });
    let traces = app.traces(6, 2..4, 13);
    let prof = profile(&app.graph, &traces).unwrap();
    let mote = Platform::tmote_sky();
    let chain = [mote.clone(), Platform::iphone(), Platform::server()];

    let dep3 = Deployment::chain(&chain);
    let cfg = DeploymentConfig::default();
    let part = partition_deployment(&app.graph, &prof, &dep3, &cfg.clone().at_rate(0.5))
        .expect("3-tier feasible at half rate");
    let part = &part.leaves[0];
    assert_eq!(part.path.len(), 3);
    // Tier order is monotone along every dataflow edge.
    for eid in app.graph.edge_ids() {
        let e = app.graph.edge(eid);
        assert!(part.position_of(e.src).unwrap() <= part.position_of(e.dst).unwrap());
    }
    // Sources sit on the motes, the sink on the server.
    for &src in &app.sources {
        assert_eq!(part.position_of(src), Some(0));
    }
    assert_eq!(part.position_of(app.sink), Some(2));
    // Budgets hold on every constrained tier and link.
    for (t, &site) in part.path.iter().enumerate() {
        let cpu_budget = dep3.site(site).cpu_budget;
        if cpu_budget.is_finite() {
            assert!(part.predicted_cpu[t] <= cpu_budget * 0.5 + 1e-9);
        }
        if let Some(link) = dep3.uplink(site) {
            assert!(part.predicted_net[t] <= link.net_budget * 0.5 + 1e-9);
        }
    }

    // Adding a relay can only help: the 3-tier max sustainable rate is at
    // least the binary mote→server rate (a 2-tier solution embeds as a
    // 3-tier one with an empty phone tier; the phone's WiFi uplink dwarfs
    // the mote radio, so pass-through always fits).
    let two = max_sustainable_rate_deployment(
        &app.graph,
        &prof,
        &Deployment::chain(&[mote, Platform::server()]),
        &cfg,
        32.0,
        0.02,
    )
    .unwrap()
    .expect("2-tier feasible");
    let three = max_sustainable_rate_deployment(&app.graph, &prof, &dep3, &cfg, 32.0, 0.02)
        .unwrap()
        .expect("3-tier feasible");
    assert!(
        three.rate >= two.rate * (1.0 - 0.05),
        "3-tier rate {} must not trail 2-tier rate {}",
        three.rate,
        two.rate
    );
    assert_eq!(three.encodes, 1, "one encode for the whole search");
}

#[test]
fn tiered_deployment_simulates_goodput_across_both_hops() {
    let app = build_speech_app(SpeechParams::default());
    let trace = app.trace(40, 7);
    let prof = profile(&app.graph, std::slice::from_ref(&trace)).unwrap();
    let chain = [
        Platform::tmote_sky(),
        Platform::gumstix(),
        Platform::server(),
    ];
    let rate = 0.125;
    let part = partition_deployment(
        &app.graph,
        &prof,
        &Deployment::chain(&chain),
        &DeploymentConfig::default().at_rate(rate),
    )
    .expect("feasible at 1/8 rate");

    let cfg = SimulationConfig {
        duration_s: 5.0,
        rate_multiplier: rate,
        ..SimulationConfig::motes(2, 3)
    };
    let feeds = vec![SourceFeed {
        source: app.source,
        trace: trace.elements.clone(),
        rate_hz: trace.rate_hz,
    }];
    // Sites: 0 = server, 1 = Gumstix relay, 2 = the two motes.
    let topo = TreeTopology::chain(
        &chain,
        &[ChannelParams::mote(), ChannelParams::wifi(400_000.0)],
        2,
    );
    let route = LeafRoute::chain(&app.graph, &part.leaves[0].site_ops[..2], feeds);
    let sim = simulate_deployment_tree(&app.graph, &topo, &[route], &cfg);
    let r = &sim.leaves[0];
    assert!(r.events_offered > 0);
    assert!(
        r.input_processed_ratio() > 0.9,
        "partitioned rate must be sustainable: {}",
        r.input_processed_ratio()
    );
    // Both hops were exercised and neither collapsed: the partitioner's
    // per-link budgets kept each offered load under its channel capacity.
    assert!(r.hop_elements_sent[0] > 0);
    assert!(r.hop_elements_sent[1] > 0);
    assert!(sim.edge_offered_load_bytes_per_sec[2] <= ChannelParams::mote().capacity_bytes_per_sec);
    assert!(sim.edge_offered_load_bytes_per_sec[1] <= 400_000.0);
    assert!(r.goodput_ratio() > 0.5, "goodput {}", r.goodput_ratio());
    assert_eq!(r.sink_arrivals, r.hop_elements_delivered[1]);
}

#[test]
fn mixed_classes_still_compose_with_multitier_chains() {
    // The §9 mixed-network shape (a star of node classes) and the chain
    // shape answer different questions about the same program; on a
    // single-class network they must agree with each other through the
    // k = 2 anchor. The class's four nodes share its uplink row, so four
    // nodes each allowed the radio's goodput budget four times that.
    let app = build_speech_app(SpeechParams::default());
    let trace = app.trace(40, 21);
    let prof = profile(&app.graph, &[trace]).unwrap();
    let gumstix = Platform::gumstix();
    let uplink = LinkSpec::for_platform(&gumstix);
    let star = Deployment::star([(
        Site::new("microservers", &gumstix).with_count(4),
        LinkSpec {
            net_budget: 4.0 * uplink.net_budget,
            ..uplink
        },
    )]);
    let cfg = DeploymentConfig::default();
    let mixed = partition_deployment(&app.graph, &prof, &star, &cfg).unwrap();
    let chain = Deployment::chain(&[gumstix, Platform::server()]);
    let tiered = partition_deployment(&app.graph, &prof, &chain, &cfg).unwrap();
    assert_eq!(mixed.leaves[0].site_ops[0], tiered.leaves[0].site_ops[0]);
    assert_eq!(
        mixed.leaves[0].link_cut_edges[0],
        tiered.leaves[0].link_cut_edges[0]
    );
}
