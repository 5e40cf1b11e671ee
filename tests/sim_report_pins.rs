//! Exact pins of two simulator reports, so a faster kernel or cascade
//! that changes a value, a count or a charge fails here rather than
//! arguing that it cannot.
//!
//! * the starved forest of `common/forest.rs` as it is: every filter
//!   stage runs at the root, whose CPU is not modelled, so its pin
//!   catches a wrong *value* (a sink arrival, a counter);
//! * the same forest with each ward's per-channel cascade on its
//!   gateway, where every operator's `OpCounts` are charged, so its pin
//!   catches a wrong *count* too (the gateways' busy fractions).
//!
//! The expected strings were recorded from the per-sample FIR and the
//! copying `AddWindowsOp`; the simulation is fully seeded.

use std::collections::HashSet;
use std::fmt::Write as _;

use wishbone::prelude::*;

#[path = "common/forest.rs"]
mod forest;
use forest::starved_forest;

/// Every field a faster cascade must leave alone: per route the events
/// offered and processed, the per-hop sent / delivered / dropped
/// counters and the sink arrivals; then the run's sink arrivals, its
/// goodput bits and each site's CPU utilization bits.
fn pin(report: &TreeDeploymentReport) -> String {
    let mut out = String::new();
    for l in &report.leaves {
        writeln!(
            out,
            "leaf {}: offered {} processed {} sent {:?} delivered {:?} dropped {:?} sink {}",
            l.leaf,
            l.events_offered,
            l.events_processed,
            l.hop_elements_sent,
            l.hop_elements_delivered,
            l.hop_elements_dropped,
            l.sink_arrivals
        )
        .expect("writing to a String");
    }
    let busy: Vec<String> = report
        .site_cpu_utilization
        .iter()
        .map(|u| format!("{:#x}", u.to_bits()))
        .collect();
    write!(
        out,
        "sink {} goodput {:#x} busy {}",
        report.sink_arrivals,
        report.goodput_ratio().to_bits(),
        busy.join(" ")
    )
    .expect("writing to a String");
    out
}

#[test]
fn the_starved_forest_report_is_pinned() {
    let (graph, topo, routes, cfg) = starved_forest();
    let report = simulate_deployment_tree(&graph, &topo, &routes, &cfg);
    assert_eq!(
        pin(&report),
        "\
leaf 3: offered 16 processed 16 sent [16, 15] delivered [15, 0] dropped [0, 0] sink 0
leaf 4: offered 16 processed 16 sent [16, 16] delivered [16, 16] dropped [0, 0] sink 8
sink 8 goodput 0x3fe0000000000000 busy 0x0 0x3f63a92a30553263 0x3f64f8b588e368f2 \
0x3f45c5e4fc1894cd 0x3f45c5e4fc1894cd"
    );
}

#[test]
fn the_forest_with_its_filters_on_the_gateways_is_pinned() {
    let (graph, topo, mut routes, cfg) = starved_forest();
    // Each ward's gateway takes the per-channel cascade (`toFloat`, the
    // filter stages, the band energies and `zipN`); the server keeps the
    // cross-channel combiner, the classifier and the sink.
    let per_channel: HashSet<OperatorId> = graph
        .operator_ids()
        .filter(|&id| {
            let name = &graph.spec(id).name;
            name.starts_with("ch") && !name.ends_with("/source")
        })
        .collect();
    assert!(per_channel.len() > 90, "two channels' cascades");
    for route in &mut routes {
        route.site_ops[1] = per_channel.clone();
        route.site_ops[2].retain(|id| !per_channel.contains(id));
    }
    let report = simulate_deployment_tree(&graph, &topo, &routes, &cfg);
    assert!(
        report.site_cpu_utilization[1] > 0.0 && report.site_cpu_utilization[2] > 0.0,
        "the gateways are charged for the cascade"
    );
    assert_eq!(
        pin(&report),
        "\
leaf 3: offered 16 processed 16 sent [16, 15] delivered [15, 2] dropped [0, 0] sink 0
leaf 4: offered 16 processed 16 sent [16, 16] delivered [16, 16] dropped [0, 0] sink 8
sink 8 goodput 0x3fe2000000000000 busy 0x0 0x3f8180861556411c 0x3f82ab39b05c012f \
0x3f45c5e4fc1894cd 0x3f45c5e4fc1894cd"
    );
}
