//! End-to-end integration for the EEG application: the paper's large-graph
//! stress case (§7.1) plus functional seizure detection through the
//! deployment simulator.

use wishbone::prelude::*;
use wishbone_oracle::{all_node, all_server, build_partition_graph, evaluate, ObjectiveConfig};

/// The paper's node/server split: one TMote leaf under the server.
fn mote_star() -> Deployment {
    let mote = Platform::tmote_sky();
    Deployment::star([(Site::new("mote", &mote), LinkSpec::for_platform(&mote))])
}

#[test]
fn full_eeg_app_partitions_in_reasonable_time() {
    // §7.1: "partitioning all 22-channels (1412 operators)"; our build is
    // the same order of magnitude. §1: "our implementation can partition
    // dataflow graphs containing over a thousand operators in a few
    // seconds".
    let app = build_eeg_app(EegParams::default());
    assert!(app.graph.operator_count() > 1000);
    let traces = app.traces(6, 2..4, 3);
    let prof = profile(&app.graph, &traces).unwrap();

    let cfg = DeploymentConfig::default().at_rate(1.0);
    let part = partition_deployment(&app.graph, &prof, &mote_star(), &cfg)
        .expect("feasible at reference rate");
    // "Reasonable time" as a count, the same on every host: the root LP
    // is the whole search, in no more simplex iterations than when this
    // bound was recorded (419).
    let stats = &part.ilp_stats;
    assert!(
        stats.nodes == 1 && stats.simplex_iterations <= 419,
        "kilooperator graph took {} nodes and {} simplex iterations",
        stats.nodes,
        stats.simplex_iterations
    );
    // Preprocessing must shrink the ILP substantially (§4.1). With the
    // sound single-out-edge merge rule the reduction is ~35% on this graph
    // (the FIR chains collapse; fan-out splitters cannot).
    assert!(
        part.merge_stats.1 * 4 < part.merge_stats.0 * 3,
        "merge: {} -> {}",
        part.merge_stats.0,
        part.merge_stats.1
    );
    // Sources always stay on the node.
    for s in &app.sources {
        assert!(part.leaves[0].site_ops[0].contains(s));
    }
}

#[test]
fn node_partition_shrinks_with_rate() {
    // Fig 5a: "As we increased the data rate, fewer operators can fit
    // within the CPU bounds on the node."
    let app = build_eeg_channel();
    let traces = app.traces(6, 2..4, 7);
    let prof = profile(&app.graph, &traces).unwrap();
    let dep = mote_star();
    let mut counts = Vec::new();
    for mult in [0.5, 2.0, 8.0, 32.0] {
        let cfg = DeploymentConfig::default().at_rate(mult);
        let n = match partition_deployment(&app.graph, &prof, &dep, &cfg) {
            Ok(p) => p.leaves[0].site_ops[0].len(),
            Err(PartitionError::Infeasible) => 0,
            Err(e) => panic!("{e}"),
        };
        counts.push(n);
    }
    for w in counts.windows(2) {
        assert!(w[1] <= w[0], "node ops must not grow with rate: {counts:?}");
    }
    assert!(
        counts[0] > counts[3],
        "sweep must show real movement: {counts:?}"
    );
}

#[test]
fn conservative_mode_keeps_stateful_ops_on_the_node() {
    let app = build_eeg_channel();
    let traces = app.traces(6, 2..4, 11);
    let prof = profile(&app.graph, &traces).unwrap();
    let dep = mote_star();

    // Permissive at a high rate: the FIRs (stateful) may move server-side.
    let mut cfg = DeploymentConfig::default().at_rate(16.0);
    cfg.mode = Mode::Permissive;
    let permissive = partition_deployment(&app.graph, &prof, &dep, &cfg);

    let mut ccfg = DeploymentConfig::default().at_rate(16.0);
    ccfg.mode = Mode::Conservative;
    let conservative = partition_deployment(&app.graph, &prof, &dep, &ccfg);

    match (permissive, conservative) {
        (Ok(p), Ok(c)) => {
            // Conservative can never place fewer ops on the node than the
            // pinning forces; permissive has strictly more freedom.
            assert!(c.leaves[0].site_ops[0].len() >= p.leaves[0].site_ops[0].len());
        }
        (Ok(_), Err(PartitionError::Infeasible)) => {
            // Also a valid outcome: pinning everything stateful on-node
            // blows the CPU budget at 16x rate.
        }
        (p, c) => panic!("unexpected outcomes: {p:?} / {c:?}"),
    }
}

#[test]
fn seizure_detected_through_partitioned_deployment() {
    // Functional check end-to-end *through the simulated deployment*: all
    // channels feed one node; features cross the cut; SVM + declare run
    // wherever the partitioner put them.
    let app = build_eeg_app(EegParams {
        n_channels: 4,
        ..Default::default()
    });
    let traces = app.traces(16, 8..14, 13);
    let prof = profile(&app.graph, &traces).unwrap();

    let cfg = DeploymentConfig::default().at_rate(1.0);
    let part = partition_deployment(&app.graph, &prof, &mote_star(), &cfg)
        .expect("EEG fits at 0.5 windows/s");

    // Rebuild a fresh app (the profiler consumed operator state) and drive
    // all four channel sources through the multi-source deployment.
    let app2 = build_eeg_app(EegParams {
        n_channels: 4,
        ..Default::default()
    });
    let feeds: Vec<SourceFeed> = app2
        .traces(16, 8..14, 13)
        .into_iter()
        .map(|t| SourceFeed {
            source: t.source,
            trace: t.elements,
            rate_hz: t.rate_hz,
        })
        .collect();
    let dcfg = SimulationConfig {
        duration_s: 32.0, // 16 windows at 0.5 windows/s
        ..SimulationConfig::motes(1, 3)
    };
    let topo = TreeTopology::chain(
        &[Platform::tmote_sky(), Platform::server()],
        &[ChannelParams::mote()],
        1,
    );
    let route = LeafRoute::chain(&app2.graph, &part.leaves[0].site_ops[..1], feeds);
    let rep = simulate_deployment_tree(&app2.graph, &topo, &[route], &dcfg);
    assert!(
        rep.leaves[0].input_processed_ratio() > 0.9,
        "EEG at reference rate flows: {rep:?}"
    );
    assert!(
        rep.leaves[0].goodput_ratio() > 0.5,
        "features cross the network: {rep:?}"
    );
    assert!(rep.sink_arrivals >= 8, "declare verdicts reach the sink");
}

#[test]
fn eeg_features_fit_even_where_raw_eeg_would_not() {
    // The whole point of in-network processing: 22 channels of raw EEG
    // (22 x 512 B / 2 s ≈ 5.6 KB/s + headers) saturate a mote radio, but
    // the 66-feature vector is tiny.
    let app = build_eeg_app(EegParams::default());
    let traces = app.traces(6, 2..4, 17);
    let prof = profile(&app.graph, &traces).unwrap();
    let mote = Platform::tmote_sky();

    let pg = build_partition_graph(&app.graph, &prof, &mote, Mode::Permissive, 1.0).unwrap();
    let obj = ObjectiveConfig::bandwidth_only(1.0, mote.radio.goodput_bytes_per_sec);
    let raw = evaluate(&pg, &all_server(&pg), &obj);
    let processed = evaluate(&pg, &all_node(&pg), &obj);
    assert!(
        raw.net > 3.0 * processed.net,
        "feature extraction reduces bandwidth: raw {} vs features {}",
        raw.net,
        processed.net
    );
}
