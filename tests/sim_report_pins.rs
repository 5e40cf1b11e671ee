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
//!
//! A report counts elements, bytes and CPU, never a value, so a third pin
//! digests the values that reach the root of a pipeline whose stateful
//! operators keep per-node state on a mote class and on a gateway.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wishbone::dataflow::{ExecCtx, FnWork};

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

/// Folds one element into an order-sensitive FNV-1a-style digest.
fn fold(digest: &AtomicU64, v: &Value) {
    let Value::I32(x) = *v else {
        panic!("the tap sees I32 elements, got {v:?}");
    };
    let mut d = digest.load(Ordering::Relaxed);
    d = (d ^ u64::from(x as u32)).wrapping_mul(0x0100_0000_01b3);
    digest.store(d, Ordering::Relaxed);
}

/// `src -> sum -> delta -> tap -> sink` on `[3 × tmote_sky, gumstix,
/// server]`: each mote keeps its own running sum of its samples, the
/// gateway keeps one previous sum per originating mote and emits the
/// difference, and the root's tap folds every arrival into a digest its
/// instances share. Per-node state makes each mote's stream a prefix sum
/// of the trace and each gateway output a trace sample again; state shared
/// across nodes changes both.
#[test]
fn the_values_reaching_the_root_are_pinned() {
    let digest = Arc::new(AtomicU64::new(0xcbf2_9ce4_8422_2325));
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let sum = b.stateful_transform(
        "sum",
        Box::new(FnWork({
            let mut total = 0i32;
            move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let Value::I16(x) = *v else {
                    panic!("samples are I16");
                };
                total += i32::from(x);
                cx.meter().int(1);
                cx.emit(Value::I32(total));
            }
        })),
        src,
    );
    let delta = b.stateful_transform(
        "delta",
        Box::new(FnWork({
            let mut prev = 0i32;
            move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let Value::I32(x) = *v else {
                    panic!("sums are I32");
                };
                cx.meter().int(1);
                cx.emit(Value::I32(x - prev));
                prev = x;
            }
        })),
        sum,
    );
    b.exit_namespace();
    b.enter_server_namespace();
    let tap = b.transform(
        "tap",
        Box::new(FnWork({
            let digest = Arc::clone(&digest);
            move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                fold(&digest, v);
                cx.emit(v.clone());
            }
        })),
        delta,
    );
    b.exit_namespace();
    b.sink("out", tap);
    let graph = b.finish().expect("a valid DAG");

    let topo = TreeTopology::chain(
        &[
            Platform::tmote_sky(),
            Platform::gumstix(),
            Platform::server(),
        ],
        &[ChannelParams::mote(), ChannelParams::wifi(50_000.0)],
        3,
    );
    let feeds = vec![SourceFeed {
        source: src.0,
        trace: (0..20).map(|i| Value::I16(i * 7 - 50)).collect(),
        rate_hz: 2.0,
    }];
    let route = LeafRoute::chain(&graph, &[vec![src.0, sum.0], vec![delta.0]], feeds);
    let cfg = SimulationConfig {
        duration_s: 10.0,
        ..SimulationConfig::motes(1, 11)
    };
    let report = simulate_deployment_tree(&graph, &topo, &[route], &cfg);
    assert_eq!(
        format!(
            "sink {} digest {:#x}",
            report.sink_arrivals,
            digest.load(Ordering::Relaxed)
        ),
        "sink 56 digest 0x354546d272b06ba8"
    );
}
