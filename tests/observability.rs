//! End-to-end coverage of the `wishbone-trace` observability layer:
//!
//! * the **off path** — a traced run with [`NullSink`] is
//!   byte-identical to the untraced entry point (the zero-overhead
//!   anchor; `perf_ratios.rs` asserts the timing side of the same
//!   claim);
//! * the **on path** — a [`MemorySink`] captures exactly one
//!   [`TraceEvent::EdgeElement`] per element per hop, per-site busy
//!   fractions, and per-operator cost samples a [`LiveProfile`] can
//!   fold;
//! * **attribution** — driving a starved gateway backhaul far past its
//!   capacity, [`attribute_tree`] names that gateway's uplink as the
//!   dominant loss;
//! * the **pinned rendering** of [`report_deployment_stats`] (every
//!   site, zeros included).

use wishbone::prelude::*;

#[path = "common/forest.rs"]
mod forest;
use forest::starved_forest;

#[test]
fn null_sink_traced_run_is_byte_identical() {
    let (graph, topo, routes, cfg) = starved_forest();
    let bare = simulate_deployment_tree(&graph, &topo, &routes, &cfg);
    // `NullSink` is the canonical off path: `enabled()` is a constant
    // false, so the traced entry point must reproduce the untraced run
    // byte for byte.
    let mut off = NullSink;
    let traced = simulate_deployment_tree_traced(
        &graph,
        &topo,
        &routes,
        &cfg,
        &FailurePlan::default(),
        &mut off,
    );
    assert_eq!(bare, traced);
}

#[test]
fn memory_sink_captures_the_full_event_stream() {
    let (graph, topo, routes, cfg) = starved_forest();
    let mut sink = MemorySink::new();
    let sim = simulate_deployment_tree_traced(
        &graph,
        &topo,
        &routes,
        &cfg,
        &FailurePlan::default(),
        &mut sink,
    );

    let total_sent: u64 = sim
        .leaves
        .iter()
        .flat_map(|l| l.hop_elements_sent.iter())
        .sum();
    let edge_elements = sink
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::EdgeElement { .. }))
        .count() as u64;
    assert_eq!(
        edge_elements, total_sent,
        "exactly one EdgeElement per element per hop"
    );

    let busy = sink
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SiteBusy { .. }))
        .count();
    assert_eq!(busy, topo.len(), "one SiteBusy per site");

    let op_costs = sink
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::OperatorCost { .. }))
        .count() as u64;
    let processed: u64 = sim.leaves.iter().map(|l| l.events_processed).sum();
    assert!(
        op_costs >= processed,
        "at least one cost sample per processed event ({op_costs} vs {processed})"
    );

    // The live profile folds the stream into per-operator estimates.
    let mut live = LiveProfile::new(0.2);
    live.fold(&sink.events);
    let leaf = routes[0].path[0];
    let sampled = routes[0].site_ops[0]
        .iter()
        .filter(|&&op| live.operator(leaf, op).is_some())
        .count();
    assert!(sampled > 0, "leaf operators collected cost samples");
}

#[test]
fn attribution_blames_the_starved_gateway_uplink() {
    let (graph, topo, routes, cfg) = starved_forest();
    let sim = simulate_deployment_tree(&graph, &topo, &routes, &cfg);
    let attr = attribute_tree(&sim, &topo);
    assert!(attr.total_lost > 0, "the starved backhaul must shed load");
    let top = attr.top().expect("losses were attributed");
    assert_eq!(top.cause, LossCause::ChannelLoss);
    assert_eq!(top.site, 1, "gw-a's uplink is the dominant loss:\n{attr}");
    assert!(top.label.contains("uplink 1->0"), "label names the link");
    assert!(top.share > 0.5, "the starved uplink dominates");
    // Shares are a distribution over the attributed losses.
    let share_sum: f64 = attr.blames.iter().map(|b| b.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9);
    assert_eq!(
        attr.blames.iter().map(|b| b.lost).sum::<u64>(),
        attr.total_lost
    );
}

#[test]
fn report_deployment_stats_renders_every_site_uniformly() {
    let (graph, topo, routes, cfg) = starved_forest();
    let sim = simulate_deployment_tree(&graph, &topo, &routes, &cfg);
    let rendered = report_deployment_stats(&sim, &topo);
    // Uniform shape: the aggregate line plus one line per site, zeros
    // included — failure-free runs and failure replays line up.
    let lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(lines.len(), 1 + topo.len());
    for (s, line) in lines[1..].iter().enumerate() {
        assert!(line.starts_with(&format!("site {s}:")), "line {s}: {line}");
        assert!(line.contains("saturation-dropped"));
        assert!(line.contains("outage-dropped"));
        if s > 0 {
            assert!(line.contains(&format!("uplink {s}->")));
        }
    }
    // And the exact bytes, pinned (the simulation is fully seeded).
    let expected = "\
32 events offered / 32 processed; 63 elements sent, 16 lost on-air, \
0 saturation-dropped, 0 outage-dropped, 8 reached the sink
site 0: busy   0.0%, saturation-dropped 0, outage-dropped 0
site 1: busy   0.2%, saturation-dropped 0, outage-dropped 0; \
uplink 1->0: 3312.0 B/s offered,   0.0% delivered, fade-dropped 0
site 2: busy   0.3%, saturation-dropped 0, outage-dropped 0; \
uplink 2->0: 3532.8 B/s offered, 100.0% delivered, fade-dropped 0
site 3: busy   0.1%, saturation-dropped 0, outage-dropped 0; \
uplink 3->1: 3532.8 B/s offered,  93.8% delivered, fade-dropped 0
site 4: busy   0.1%, saturation-dropped 0, outage-dropped 0; \
uplink 4->2: 3532.8 B/s offered, 100.0% delivered, fade-dropped 0";
    assert_eq!(rendered, expected);
}
