//! End-to-end integration: profile → partition → deploy for the speech
//! application, validating the paper's headline claims (§7.2–7.3).

use std::collections::HashSet;

use wishbone::prelude::*;

/// The paper's node/server split: one `node` leaf under the server, its
/// uplink budgeted at the platform radio's goodput.
fn two_site(node: Site) -> Deployment {
    let uplink = LinkSpec::for_platform(&node.platform);
    Deployment::star([(node, uplink)])
}

/// A cut point's node set as a placement lists it: sorted ascending.
fn sorted(ops: &HashSet<OperatorId>) -> Vec<OperatorId> {
    let mut ops: Vec<OperatorId> = ops.iter().copied().collect();
    ops.sort_unstable();
    ops
}

/// Simulate one `platform` node running `node_ops` of the speech pipeline
/// under the server, fed `elems` at the 40 frames/s reference rate.
fn simulate_cut<S>(
    app: &SpeechApp,
    node_ops: &S,
    elems: &[Value],
    platform: &Platform,
    channel: ChannelParams,
    cfg: &SimulationConfig,
) -> TreeDeploymentReport
where
    for<'s> &'s S: IntoIterator<Item = &'s OperatorId>,
{
    let topo = TreeTopology::chain(&[platform.clone(), Platform::server()], &[channel], 1);
    let feeds = vec![SourceFeed {
        source: app.source,
        trace: elems.to_vec(),
        rate_hz: 40.0,
    }];
    let route = LeafRoute::chain(&app.graph, std::slice::from_ref(node_ops), feeds);
    simulate_deployment_tree(&app.graph, &topo, &[route], cfg)
}

fn profiled_app() -> (SpeechApp, GraphProfile) {
    let app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 42);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");
    (app, prof)
}

#[test]
fn tmote_cannot_fit_at_full_rate_but_fits_when_slowed() {
    let (app, prof) = profiled_app();
    let dep = two_site(Site::new("mote", &Platform::tmote_sky()));
    let cfg = DeploymentConfig::default();
    // Full 8 kHz: infeasible on a TMote (both CPU and radio are too small).
    assert!(matches!(
        partition_deployment(&app.graph, &prof, &dep, &cfg),
        Err(PartitionError::Infeasible)
    ));
    // The §4.3 rate search finds a positive sustainable rate.
    let r = max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 4.0, 0.01)
        .unwrap()
        .expect("some rate is sustainable");
    assert!(r.rate > 0.001 && r.rate < 1.0, "rate {}", r.rate);
    // At that rate, the selected cut is an intermediate one (not all-server,
    // not necessarily everything).
    let leaf = &r.partition.leaves[0];
    assert!(!leaf.site_ops[0].is_empty());
    assert!(leaf.predicted_cpu[0] <= 1.0 + 1e-9);
}

#[test]
fn optimal_cut_beats_endpoint_partitions_in_deployment() {
    // The paper: "our weakest platform got 0% of speaker detection results
    // through ... when doing all work on the server, and 0.5% when doing
    // all work at the node. We can do 20x better by picking the right
    // intermediate partition."
    let (app, prof) = profiled_app();
    let mote = Platform::tmote_sky();
    let dep = two_site(Site::new("mote", &mote));
    let cfg = DeploymentConfig::default();
    let r = max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 4.0, 0.01)
        .unwrap()
        .expect("feasible");

    let elems = app.trace_elements(200, 9);
    let channel = ChannelParams::mote();
    let run = |node_set: &HashSet<OperatorId>| -> f64 {
        let dcfg = SimulationConfig {
            duration_s: 20.0,
            rate_multiplier: 1.0, // full rate: the overload case
            ..SimulationConfig::motes(1, 33)
        };
        simulate_cut(&app, node_set, &elems, &mote, channel, &dcfg).leaves[0].goodput_ratio()
    };

    let cuts = app.cutpoints();
    let all_server_good = run(&cuts.first().unwrap().1);
    let all_node_good = run(&cuts.last().unwrap().1);
    let recommended = run(&r.partition.leaves[0].site_ops[0].iter().copied().collect());

    // All-server drives the mote radio into congestion collapse (paper:
    // ~0% goodput); the recommended intermediate cut delivers data. The
    // all-node margin is smaller here than the paper's 0.5% because our
    // calibrated CPU gap (~8x at full rate) is milder than their ~80x;
    // the ordering is what the claim is about.
    assert!(
        recommended > 20.0 * all_server_good.max(1e-4),
        "recommended {recommended} vs all-server {all_server_good}"
    );
    assert!(
        recommended > all_node_good,
        "recommended {recommended} vs all-node {all_node_good}"
    );
    assert!(
        recommended > 0.02,
        "recommended cut must actually deliver data"
    );
}

#[test]
fn recommended_cut_matches_empirical_peak() {
    // §7.3: "The optimal partitioning at that data rate was in fact cut
    // point 4, right after filterbank, as in the empirical data." We apply
    // the measured-overhead derating (the paper's proposed fix for its
    // 11.5%-predicted vs 15%-measured CPU gap) so the recommendation
    // doesn't over-commit the CPU that the OS will eat.
    let (app, prof) = profiled_app();
    let mote = Platform::tmote_sky();
    let dep = two_site(Site::new("mote", &mote).with_measured_overheads());
    let cfg = DeploymentConfig::default();
    let r = max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 4.0, 0.01)
        .unwrap()
        .expect("feasible");
    let recommended = &r.partition.leaves[0].site_ops[0];

    let elems = app.trace_elements(200, 5);
    let channel = ChannelParams::mote();
    let mut best: Option<(usize, f64)> = None;
    let mut recommended_good = None;
    for (i, (_name, node_set)) in app.cutpoints().into_iter().enumerate() {
        let dcfg = SimulationConfig {
            duration_s: 30.0,
            rate_multiplier: r.rate,
            ..SimulationConfig::motes(1, 77)
        };
        let rep = simulate_cut(&app, &node_set, &elems, &mote, channel, &dcfg);
        let g = rep.leaves[0].goodput_ratio();
        if sorted(&node_set) == *recommended {
            recommended_good = Some(g);
        }
        if best.is_none_or(|(_, bg)| g > bg) {
            best = Some((i, g));
        }
    }
    let (_, best_good) = best.unwrap();
    let rec = recommended_good.expect("recommendation is one of the cutpoints");
    // The recommendation must land among the winning cuts: at least 70% of
    // the empirical peak and better than every non-top-2 alternative. (The
    // paper matched its 6-point grid exactly; the residual gap here is the
    // per-packet CPU cost that even the derated additive model omits —
    // the same limitation §7.3 discusses.)
    assert!(
        rec >= 0.70 * best_good,
        "recommended cut goodput {rec} vs empirical best {best_good}"
    );
    let mut all_goods: Vec<f64> = Vec::new();
    for (_n, node_set) in app.cutpoints() {
        let dcfg = SimulationConfig {
            duration_s: 30.0,
            rate_multiplier: r.rate,
            ..SimulationConfig::motes(1, 77)
        };
        let rep = simulate_cut(&app, &node_set, &elems, &mote, channel, &dcfg);
        all_goods.push(rep.leaves[0].goodput_ratio());
    }
    all_goods.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert!(
        rec >= all_goods[1] - 1e-9,
        "recommendation must be a top-2 cut"
    );
}

#[test]
fn predicted_cpu_close_to_simulated_cpu() {
    // §7.3's validation: predictions are additive and slightly optimistic
    // (Gumstix: 11.5% predicted vs 15% measured — a ~1.3x OS factor).
    let (app, prof) = profiled_app();
    let gumstix = Platform::gumstix();
    let dep = two_site(Site::new("gumstix", &gumstix));
    let part = partition_deployment(&app.graph, &prof, &dep, &DeploymentConfig::default())
        .expect("gumstix fits");
    let leaf = &part.leaves[0];

    let elems = app.trace_elements(200, 21);
    let dcfg = SimulationConfig {
        duration_s: 20.0,
        task_model: TaskModel::threaded(),
        per_packet_cpu_s: 20e-6,
        ..SimulationConfig::motes(1, 5)
    };
    let rep = simulate_cut(
        &app,
        &leaf.site_ops[0],
        &elems,
        &gumstix,
        ChannelParams::wifi(400_000.0),
        &dcfg,
    );
    let predicted = leaf.predicted_cpu[0];
    let measured = rep.site_cpu_utilization[1];
    assert!(
        measured > predicted,
        "measured ({measured:.3}) must exceed the additive prediction ({predicted:.3})"
    );
    assert!(
        measured < predicted * 1.6,
        "but only by the OS-overhead factor: {measured:.3} vs {predicted:.3}"
    );
}

#[test]
fn faster_platforms_sustain_higher_rates() {
    // Fig 5b, cepstral/9 bars: with the whole pipeline on the node the
    // sustainable rate is CPU-bound, so the platform ordering is the CPU
    // ordering: TinyOS < JavaME < iPhone < VoxNet < Scheme — and the N80
    // is only a small multiple of the TMote despite a 55x clock.
    let (app, prof) = profiled_app();
    let cpu_rate = |p: &Platform| -> f64 {
        let total: f64 = app
            .stages
            .iter()
            .map(|&(_, id)| prof.cpu_fraction(id, p))
            .sum();
        1.0 / total
    };
    let mote = cpu_rate(&Platform::tmote_sky());
    let n80 = cpu_rate(&Platform::nokia_n80());
    let iphone = cpu_rate(&Platform::iphone());
    let voxnet = cpu_rate(&Platform::voxnet());
    let scheme = cpu_rate(&Platform::scheme_server());
    assert!(
        mote < n80 && n80 < iphone && iphone < voxnet && voxnet < scheme,
        "ordering: {mote:.3} {n80:.3} {iphone:.3} {voxnet:.3} {scheme:.3}"
    );
    let speedup = n80 / mote;
    assert!(
        (1.5..8.0).contains(&speedup),
        "N80 only ~2x the mote despite 55x clock, got {speedup:.1}"
    );
}

#[test]
fn meraki_ships_raw_data() {
    // §7.3: "for the Meraki the optimal partitioning falls at cut point 1:
    // send the raw data directly back to the server." The paper sets the
    // four numbers (C, N, α, β) *per platform*; for a WiFi-class radio the
    // energy proxy weights CPU against the (cheap, abundant) radio:
    // normalize each term by its budget so α·cpu + β·net compares
    // fractions of each resource.
    let (app, prof) = profiled_app();
    let meraki = Platform::meraki_mini();
    let uplink = LinkSpec::for_platform(&meraki);
    let dep = Deployment::star([(
        Site::new("meraki", &meraki).with_alpha(1.0),
        LinkSpec {
            beta: 1.0 / uplink.net_budget,
            ..uplink
        },
    )]);
    let part = partition_deployment(&app.graph, &prof, &dep, &DeploymentConfig::default())
        .expect("meraki fits at full rate");
    let node_ops = &part.leaves[0].site_ops[0];
    assert_eq!(node_ops.len(), 1, "only the source stays on the node");
    assert!(node_ops.contains(&app.source));

    // Cross-check with the deployment simulator: shipping raw over WiFi
    // delivers essentially everything at the full 8 kHz rate.
    let elems = app.trace_elements(200, 31);
    let dcfg = SimulationConfig {
        duration_s: 10.0,
        task_model: TaskModel::threaded(),
        per_packet_cpu_s: 50e-6,
        ..SimulationConfig::motes(1, 41)
    };
    let rep = simulate_cut(
        &app,
        node_ops,
        &elems,
        &meraki,
        ChannelParams::wifi(meraki.radio.goodput_bytes_per_sec),
        &dcfg,
    );
    assert!(
        rep.leaves[0].goodput_ratio() > 0.9,
        "WiFi swallows the raw stream: {rep:?}"
    );
}
