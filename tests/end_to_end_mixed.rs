//! End-to-end coverage for the two example scenarios that previously had
//! no test: the §9 mixed-network deployment (`examples/mixed_network.rs`)
//! and the §7.3 overload pipeline (`examples/overload_deployment.rs`).
//! Locking their semantics here means a solver swap (dense tableau →
//! sparse revised simplex) cannot silently change what the examples
//! print.

use wishbone::prelude::*;

fn speech_profiled() -> (SpeechApp, GraphProfile) {
    let app = build_speech_app();
    let trace = app.trace(120, 7);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");
    (app, prof)
}

#[test]
fn mixed_network_two_classes_semantics() {
    // The examples/mixed_network.rs scenario: 16 slowed TMotes + 4
    // Gumstix microservers running one logical speech program.
    let (app, prof) = speech_profiled();
    let mote = Platform::tmote_sky();
    let gumstix = Platform::gumstix();
    // §9: "run the partitioning algorithm once for each type of node" —
    // one leaf class per node type under the server.
    let classes = [
        (
            Site::new("motes", &mote)
                .with_measured_overheads()
                .at_rate(0.1),
            16,
        ),
        (Site::new("microservers", &gumstix), 4),
    ];
    // Each uplink row aggregates its class's devices, so a class of `n`
    // nodes each allowed the platform's goodput budgets `n` times that.
    let dep = Deployment::star(classes.iter().map(|(site, count)| {
        let link = LinkSpec::for_platform(&site.platform);
        (
            site.clone().with_count(*count),
            LinkSpec {
                net_budget: link.net_budget * *count as f64,
                ..link
            },
        )
    }));
    let cfg = DeploymentConfig::default();
    let mixed =
        partition_deployment(&app.graph, &prof, &dep, &cfg).expect("both classes partition");

    assert_eq!(mixed.leaves.len(), 2);
    let mote_part = &mixed.leaves[0];
    let gum_part = &mixed.leaves[1];

    // Each class keeps the pinned source on the node and respects its own
    // budgets at its own rate.
    assert!(mote_part.site_ops[0].contains(&app.source));
    assert!(gum_part.site_ops[0].contains(&app.source));
    assert!(
        mote_part.predicted_cpu[0] <= 1.0 + 1e-9,
        "mote cpu {}",
        mote_part.predicted_cpu[0]
    );
    // The microserver class runs the full 8 kHz and has CPU to spare, so
    // it carries at least as much of the pipeline as the slowed motes.
    assert!(
        gum_part.site_ops[0].len() >= mote_part.site_ops[0].len(),
        "gumstix {} ops vs mote {} ops",
        gum_part.site_ops[0].len(),
        mote_part.site_ops[0].len()
    );

    // The joint star decouples: every class gets the placement it would
    // get partitioned alone.
    for (leaf, (class, _)) in mixed.leaves.iter().zip(classes) {
        let uplink = LinkSpec::for_platform(&class.platform);
        let alone = partition_deployment(
            &app.graph,
            &prof,
            &Deployment::star([(class, uplink)]),
            &cfg,
        )
        .expect("each class partitions alone");
        assert_eq!(leaf.site_ops[0], alone.leaves[0].site_ops[0]);
        assert_eq!(leaf.link_cut_edges[0], alone.leaves[0].link_cut_edges[0]);
    }

    // "The server would need to be engineered to deal with receiving
    // results ... at various stages of partial processing": the
    // server-side union covers every operator some class leaves off-node.
    let union = mixed.ops_at(dep.root());
    for id in app.graph.operator_ids() {
        let off_node_somewhere = mixed.leaves.iter().any(|l| !l.site_ops[0].contains(&id));
        assert_eq!(union.contains(&id), off_node_somewhere);
    }

    // Aggregate offered load = Σ count · per-node net.
    let expect = mote_part.predicted_net[0] * 16.0 + gum_part.predicted_net[0] * 4.0;
    assert!((mixed.link_net.iter().sum::<f64>() - expect).abs() < 1e-9);
}

#[test]
fn overload_deployment_recommendation_matches_simulation() {
    // The examples/overload_deployment.rs pipeline: profile the network
    // (§7.3.1), binary-search the maximum sustainable rate with the
    // measured budget (§4.3), then validate the recommended cut against
    // a ground-truth deployment simulation of every cutpoint (Figs 9–10).
    let app = build_speech_app();
    let trace = app.trace(120, 3);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");
    let mote = Platform::tmote_sky();

    let channel = ChannelParams::mote();
    let netprof = profile_network(channel, 28, 0.90, 99);
    assert!(
        netprof.max_aggregate_payload_rate > 0.0,
        "network profile must find a usable rate"
    );

    let uplink = LinkSpec {
        beta: 1.0,
        net_budget: netprof.max_aggregate_payload_rate,
    };
    let dep = Deployment::star([(Site::new("mote", &mote), uplink)]);
    let result = max_sustainable_rate_deployment(
        &app.graph,
        &prof,
        &dep,
        &DeploymentConfig::default(),
        8.0,
        0.01,
    )
    .expect("solver ok")
    .expect("feasible at low rate");
    let recommended = &result.partition.leaves[0];
    assert!(
        result.rate > 0.0 && result.rate < 8.0,
        "sustainable rate {} must be an interior point",
        result.rate
    );
    // The recommendation is an intermediate cut: real on-node work, and
    // the predicted load fits both measured budgets.
    assert!(!recommended.site_ops[0].is_empty());
    assert!(recommended.predicted_cpu[0] <= 1.0 + 1e-9);
    assert!(recommended.predicted_net[0] <= uplink.net_budget + 1e-9);

    // Ground truth: simulate the deployment at the recommended rate for
    // every cutpoint; the recommended cut must be competitive with the
    // empirical best (top-2, ≥70% of peak goodput — the same bar
    // end_to_end_speech.rs holds the derated recommendation to).
    let elems = app.trace_elements(200, 11);
    let mut goods: Vec<(String, f64, bool)> = Vec::new();
    for (name, node_set) in app.cutpoints() {
        let dcfg = SimulationConfig {
            duration_s: 20.0,
            rate_multiplier: result.rate,
            ..SimulationConfig::motes(1, 17)
        };
        let topo = TreeTopology::chain(&[mote.clone(), Platform::server()], &[channel], 1);
        let feeds = vec![SourceFeed {
            source: app.source,
            trace: elems.clone(),
            rate_hz: 40.0,
        }];
        let route = LeafRoute::chain(&app.graph, std::slice::from_ref(&node_set), feeds);
        let report = simulate_deployment_tree(&app.graph, &topo, &[route], &dcfg);
        let mut node_list: Vec<OperatorId> = node_set.iter().copied().collect();
        node_list.sort_unstable();
        let is_recommended = node_list == recommended.site_ops[0];
        goods.push((
            name.to_string(),
            report.leaves[0].goodput_ratio(),
            is_recommended,
        ));
    }
    let rec = goods
        .iter()
        .find(|(_, _, r)| *r)
        .expect("recommended cut is one of the pipeline cutpoints")
        .1;
    let mut sorted: Vec<f64> = goods.iter().map(|&(_, g, _)| g).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert!(
        rec >= 0.70 * sorted[0],
        "recommended cut goodput {rec} vs empirical best {}",
        sorted[0]
    );
    assert!(
        rec >= sorted[1] - 1e-9,
        "recommendation must be a top-2 cut (got {rec}, second best {})",
        sorted[1]
    );
    assert!(rec > 0.05, "recommended cut must actually deliver data");
}

#[test]
fn overload_pipeline_is_backend_invariant() {
    // The §7.3 pipeline's outcome (rate and chosen cut) must not depend
    // on which simplex backend solved the partitioning ILPs.
    let (app, prof) = speech_profiled();
    let mote = Platform::tmote_sky();
    let channel = ChannelParams::mote();
    let netprof = profile_network(channel, 28, 0.90, 99);
    let mut results = Vec::new();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let dep = Deployment::star([(
            Site::new("mote", &mote),
            LinkSpec {
                beta: 1.0,
                net_budget: netprof.max_aggregate_payload_rate,
            },
        )]);
        let mut cfg = DeploymentConfig::default();
        cfg.ilp.backend = backend;
        let r = max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 8.0, 0.01)
            .expect("solver ok")
            .expect("feasible");
        // The closure may answer every feasible probe; the found rate's
        // problem, searched directly, keeps the backend in the pipeline.
        let mut prep = PreparedDeployment::new(&app.graph, &prof, &dep, &cfg).expect("pins ok");
        let answered = prep.solve_at(r.rate).expect("feasible at the found rate");
        let (searched, stats) = wishbone::ilp::solve_ilp_in(
            prep.problem(),
            &cfg.ilp,
            &mut wishbone::ilp::SimplexWorkspace::new(),
        );
        let searched =
            searched.expect("feasible").objective + prep.encoded().objective_offset * r.rate;
        assert!(stats.nodes >= 1, "{backend:?}: no node searched");
        assert!(
            (searched - answered.objective).abs() <= 1e-9 * answered.objective.abs(),
            "{backend:?}: searched {searched} vs answered {}",
            answered.objective
        );
        results.push((r.rate, r.partition.leaves[0].site_ops[0].clone()));
    }
    let (dense_rate, dense_cut) = &results[0];
    let (sparse_rate, sparse_cut) = &results[1];
    assert!(
        (dense_rate - sparse_rate).abs() <= 0.02 * dense_rate,
        "dense rate {dense_rate} vs sparse rate {sparse_rate}"
    );
    assert_eq!(dense_cut, sparse_cut, "backends must pick the same cut");
}
