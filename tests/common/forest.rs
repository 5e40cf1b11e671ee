//! The starved two-ward forest that `observability.rs` traces and
//! `perf_ratios.rs` times with tracing off.

use wishbone::prelude::*;

/// Two wards of EEG caps behind asymmetric gateway backhauls: gw-a
/// (site 1) is a starved 100 B/s link, gw-b (site 2) a roomy one. The
/// caps host only their sources, so the full raw streams cross both
/// hops — deterministic saturation on gw-a's uplink with no solver in
/// the loop.
pub fn starved_forest() -> (
    wishbone::dataflow::Graph,
    TreeTopology,
    Vec<LeafRoute>,
    SimulationConfig,
) {
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
    // Caps host only the sources; gateways pure store-and-forward; the
    // rest of the program runs at the server.
    let sources: std::collections::HashSet<OperatorId> = app.sources.iter().copied().collect();
    let rest: std::collections::HashSet<OperatorId> = app
        .graph
        .operator_ids()
        .filter(|id| !sources.contains(id))
        .collect();
    let routes = vec![
        LeafRoute {
            path: vec![3, 1, 0],
            site_ops: vec![
                sources.clone(),
                std::collections::HashSet::new(),
                rest.clone(),
            ],
            feeds: feeds.clone(),
        },
        LeafRoute {
            path: vec![4, 2, 0],
            site_ops: vec![sources, std::collections::HashSet::new(), rest],
            feeds,
        },
    ];
    let cfg = SimulationConfig {
        duration_s: 5.0,
        rate_multiplier: 1.0,
        ..SimulationConfig::motes(1, 7)
    };
    (app.graph, topo, routes, cfg)
}
