//! PR-7 acceptance: single-gateway-failure robustness.
//!
//! A 2-ward EEG forest whose gateways are small clusters (3 and 2
//! devices). Nominal pricing loads each gateway close to its per-device
//! CPU budget; losing one device rebalances its share onto the
//! survivors and blows the budget.
//! [`RobustnessMode::SingleGatewayFailure`] prices every interior CPU
//! and uplink row at `count − 1`, so the robust partition must stay
//! feasible under *every* single gateway-device failure — verified both
//! arithmetically against the budget rows and by exhaustively failing
//! each gateway in the tree simulator.

use wishbone::prelude::*;

/// Per-device CPU fraction of `ops` on `platform` at `rate`.
fn class_cost(prof: &GraphProfile, ops: &[OperatorId], platform: &Platform, rate: f64) -> f64 {
    ops.iter()
        .map(|&op| prof.cpu_fraction(op, platform) * rate)
        .sum()
}

#[test]
fn robust_partition_survives_every_single_gateway_failure() {
    let mut app = build_eeg_app(EegParams {
        n_channels: 3,
        ..Default::default()
    });
    let traces = app.traces(6, 2..4, 29);
    let prof = profile(&mut app.graph, &traces).unwrap();
    let leaf_platform = Platform::gumstix();
    let gw_platform = Platform::iphone();

    let movable: Vec<OperatorId> = app
        .graph
        .operator_ids()
        .filter(|id| !app.sources.contains(id))
        .collect();
    // Load the gateways to ~93% of their per-device budget under
    // nominal pricing: 6 leaf devices over 3 gateway devices (ward A)
    // and 4 over 2 (ward B) both offer 2x a class per gateway device.
    // The budget is deliberately below the simulator's physical
    // capacity of 1.0 so that a placement honoring the failed-over
    // budget rows also survives in the simulator (whose relay charges
    // run a few percent above the profiled prediction), while a
    // nominal placement pushed to `c/(c − 1)` times its budget lands
    // past 1.0 and sheds load.
    let gw_budget = 0.75;
    let class_unit = class_cost(&prof, &movable, &gw_platform, 1.0);
    let rate = 0.35 / class_unit;
    let src_budget = 1.0001 * class_cost(&prof, &app.sources, &leaf_platform, rate);

    let (gw_counts, leaf_counts) = ([3usize, 2], [6usize, 4]);
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let wide_open = LinkSpec {
        beta: 1.0,
        net_budget: 1e12,
    };
    for ward in 0..2 {
        let gw = dep.attach(
            root,
            Site::new(format!("gw-{ward}"), &gw_platform)
                .with_count(gw_counts[ward])
                .with_cpu_budget(gw_budget),
            wide_open,
        );
        // Caps afford only their pinned sources: the reducers must run
        // on the gateway cluster or the server.
        dep.attach(
            gw,
            Site::new(format!("ward-{ward}"), &leaf_platform)
                .with_count(leaf_counts[ward])
                .with_cpu_budget(src_budget),
            wide_open,
        );
    }
    let gw_sites = [SiteId(1), SiteId(3)];

    let cfg = DeploymentConfig::default().at_rate(rate);
    let nominal = partition_deployment(&app.graph, &prof, &dep, &cfg).expect("nominal feasible");
    let robust = partition_deployment(
        &app.graph,
        &prof,
        &dep,
        &cfg.clone()
            .with_robustness(RobustnessMode::SingleGatewayFailure),
    )
    .expect("robust feasible");

    // ILP arithmetic: failing one of `c` gateway devices multiplies the
    // survivors' per-device CPU by `c/(c − 1)`. The robust partition
    // must satisfy every such failed-over budget row; the nominal one
    // must violate at least one (otherwise this instance proves
    // nothing).
    let failed_over = |part: &DeploymentPartition, g: SiteId, c: f64| {
        part.site_cpu[g.0] * c / (c - 1.0) <= gw_budget + 1e-9
    };
    let mut nominal_fragile = false;
    for (ward, &g) in gw_sites.iter().enumerate() {
        let c = gw_counts[ward] as f64;
        assert!(
            part_uses_budget(&nominal, g, gw_budget),
            "precondition: nominal pricing must load gw-{ward} near its budget \
             (got {:.3} of {gw_budget})",
            nominal.site_cpu[g.0]
        );
        if !failed_over(&nominal, g, c) {
            nominal_fragile = true;
        }
        assert!(
            failed_over(&robust, g, c),
            "robust partition violates gw-{ward}'s failed-over CPU row: \
             {:.3} x {c}/{} > {gw_budget}",
            robust.site_cpu[g.0],
            c - 1.0
        );
    }
    assert!(
        nominal_fragile,
        "precondition: the nominal partition must be fragile somewhere \
         (site_cpu {:?})",
        nominal.site_cpu
    );

    // Simulator ground truth: exhaustively fail each gateway device
    // class down to `count − 1` and replay both placements. The robust
    // placement must never saturate the surviving relays; the nominal
    // one must shed load on some failure.
    let mk_topo = |counts: [usize; 2]| TreeTopology {
        parent: vec![None, Some(0), Some(1), Some(0), Some(3)],
        platforms: vec![
            Platform::server(),
            gw_platform.clone(),
            leaf_platform.clone(),
            gw_platform.clone(),
            leaf_platform.clone(),
        ],
        counts: vec![1, counts[0], leaf_counts[0], counts[1], leaf_counts[1]],
        uplink: vec![
            None,
            Some(ChannelParams::wifi(1e9)),
            Some(ChannelParams::wifi(1e9)),
            Some(ChannelParams::wifi(1e9)),
            Some(ChannelParams::wifi(1e9)),
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
    // TX CPU is outside the partitioner's cost model: zero it so the
    // simulator's relay busy time is exactly the profiled operator
    // cost, making the budget rows directly comparable to utilization.
    let sim_cfg = SimulationConfig {
        duration_s: 10.0,
        rate_multiplier: rate,
        per_packet_cpu_s: 0.0,
        ..SimulationConfig::motes(1, 7)
    };
    // Topology site ids: 1 = gw-0, 2 = ward-0, 3 = gw-1, 4 = ward-1.
    let run = |part: &DeploymentPartition, counts: [usize; 2]| {
        let routes: Vec<LeafRoute> = [(2usize, SiteId(2)), (4, SiteId(4))]
            .iter()
            .map(|&(topo_leaf, dep_leaf)| LeafRoute {
                path: vec![topo_leaf, topo_leaf - 1, 0],
                site_ops: part
                    .leaf(dep_leaf)
                    .unwrap()
                    .site_ops
                    .iter()
                    .map(|ops| ops.iter().copied().collect())
                    .collect(),
                feeds: feeds.clone(),
            })
            .collect();
        simulate_deployment_tree(&app.graph, &mk_topo(counts), &routes, &sim_cfg)
    };

    let mut nominal_sheds_somewhere = false;
    for (ward, topo_gw) in [(0usize, 1usize), (1, 3)] {
        let mut counts = gw_counts;
        counts[ward] -= 1;
        let frail = run(&nominal, counts);
        let hardened = run(&robust, counts);
        assert_eq!(
            hardened.site_elements_dropped[topo_gw], 0,
            "robust placement saturates gw-{ward} after a single failure"
        );
        assert!(
            hardened.leaves[ward].goodput_ratio() > 0.9,
            "robust ward-{ward} goodput collapsed under a single failure: {:.3}",
            hardened.leaves[ward].goodput_ratio()
        );
        if frail.site_elements_dropped[topo_gw] > 0 {
            nominal_sheds_somewhere = true;
            assert!(
                hardened.leaves[ward].goodput_ratio() > frail.leaves[ward].goodput_ratio(),
                "robustness must buy goodput on the failure that hurts the \
                 nominal placement"
            );
        }
    }
    assert!(
        nominal_sheds_somewhere,
        "the nominal placement must saturate some surviving gateway"
    );
}

/// The nominal partition actually parks work on `g` (more than half of
/// the failure-critical band) — otherwise the instance is too easy.
fn part_uses_budget(part: &DeploymentPartition, g: SiteId, budget: f64) -> bool {
    part.site_cpu[g.0] > 0.55 * budget
}
