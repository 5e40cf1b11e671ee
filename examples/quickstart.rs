//! Quickstart: build the speech-detection pipeline, profile it on sample
//! audio, partition it for a TMote Sky, and dump the GraphViz
//! visualization the Wishbone compiler would show you.
//!
//! Run with: `cargo run --example quickstart`

use wishbone::dataflow::dot::{to_dot, DotOptions};
use wishbone::prelude::*;

fn main() {
    // 1. The application: a WaveScript-style dataflow graph.
    let app = build_speech_app(SpeechParams::default());
    println!(
        "speech pipeline: {} operators, {} edges",
        app.graph.operator_count(),
        app.graph.edge_count()
    );

    // 2. Profile on representative sample data (40 frames = 1 s of audio).
    let trace = app.trace(40, 42);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");

    let mote = Platform::tmote_sky();
    println!("\nper-operator profile on {}:", mote.name);
    println!(
        "{:<12} {:>14} {:>16}",
        "operator", "us/frame", "out bytes/s"
    );
    for (i, &(name, id)) in app.stages.iter().enumerate() {
        let us = prof.seconds_per_invocation(id, &mote) * 1e6;
        let bw = prof.edge_bandwidth(wishbone::dataflow::EdgeId(i));
        println!("{name:<12} {us:>14.1} {bw:>16.0}");
    }

    // 3. Partition. The paper's node/server split is a one-leaf star: a
    // TMote under the server, its uplink budgeted at the radio's goodput.
    // At the full 8 kHz rate nothing fits on a TMote, so ask Wishbone for
    // the best partition at 1/8 rate.
    let dep = Deployment::star([(Site::new("mote", &mote), LinkSpec::for_platform(&mote))]);
    let cfg = DeploymentConfig::default().at_rate(0.125);
    match partition_deployment(&app.graph, &prof, &dep, &cfg) {
        Ok(part) => {
            let on_mote = &part.leaves[0];
            let names: Vec<&str> = app
                .stages
                .iter()
                .filter(|(_, id)| on_mote.site_ops[0].contains(id))
                .map(|&(n, _)| n)
                .collect();
            println!("\noptimal node partition at 1/8 rate: {names:?}");
            println!(
                "predicted: {:.1}% CPU, {:.0} B/s over the radio (objective {:.1})",
                on_mote.predicted_cpu[0] * 100.0,
                on_mote.predicted_net[0],
                part.objective
            );
            println!(
                "ILP: {} vars, {} constraints, solved in {:?}",
                part.problem_size.0, part.problem_size.1, part.ilp_stats.total_time
            );
            println!("solver: {}", report_stats(&part.ilp_stats));

            // 4. The compiler's visualization (§3): heat = CPU, boxes =
            // node partition, cut edges labelled with their profiled
            // on-air bandwidth at the partitioned rate.
            let dot = to_dot(
                &app.graph,
                &DotOptions {
                    heat: prof.heat(&mote),
                    node_partition: on_mote.site_ops[0].clone(),
                    label: "speech detection on TMote Sky (1/8 rate)".into(),
                    cut_bandwidth: on_mote.link_cut_edges[0]
                        .iter()
                        .map(|&e| {
                            (
                                e,
                                prof.edge_on_air_bandwidth(e, &mote) * cfg.rate_multiplier,
                            )
                        })
                        .collect(),
                    ..Default::default()
                },
            );
            std::fs::write("speech_partition.dot", &dot).ok();
            println!("\nwrote speech_partition.dot ({} bytes)", dot.len());
        }
        Err(e) => println!("no feasible partition: {e}"),
    }
}
