//! Partition the full 22-channel EEG application (the paper's
//! 1412-operator stress case, §7.1): show how preprocessing shrinks the
//! ILP, how long the solver takes, and how the node partition shrinks as
//! the input rate grows.
//!
//! Run with: `cargo run --release --example eeg_partition`

use wishbone::prelude::*;

/// The paper's node/server split: one `platform` leaf under the server.
fn two_site(platform: &Platform) -> Deployment {
    Deployment::star([(
        Site::new(platform.name.clone(), platform),
        LinkSpec::for_platform(platform),
    )])
}

fn main() {
    let app = build_eeg_app(EegParams::default());
    println!(
        "EEG app: {} channels, {} operators, {} edges (paper: 1412 operators)",
        app.n_channels,
        app.graph.operator_count(),
        app.graph.edge_count()
    );

    let traces = app.traces(8, 3..6, 5);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");

    let mote = Platform::tmote_sky();

    // One partition at a moderate rate, with solver statistics.
    let cfg = DeploymentConfig::default().at_rate(0.5);
    match partition_deployment(&app.graph, &prof, &two_site(&mote), &cfg) {
        Ok(part) => {
            let node = &part.leaves[0];
            println!(
                "\nrate x0.5: {} of {} operators on the node, cpu {:.1}%, net {:.0} B/s",
                node.site_ops[0].len(),
                app.graph.operator_count(),
                node.predicted_cpu[0] * 100.0,
                node.predicted_net[0]
            );
            println!(
                "preprocessing merged {} vertices down to {}; ILP had {} vars / {} constraints",
                part.merge_stats.0, part.merge_stats.1, part.problem_size.0, part.problem_size.1
            );
            println!(
                "solver: optimum discovered at {:?}, proven at {:?} ({} nodes, {} warm starts)",
                part.ilp_stats.time_to_best,
                part.ilp_stats.total_time,
                part.ilp_stats.nodes,
                part.ilp_stats.warm_starts
            );
            println!("solver: {}", report_stats(&part.ilp_stats));
        }
        Err(e) => println!("rate x0.5: {e}"),
    }

    // Fig 5a in miniature: node-partition size vs rate for two platforms.
    // Each platform's graph build + preprocessing + ILP encoding happens
    // once; every rate point re-solves the prepared problem in place.
    // Overloaded rates are proven infeasible by presolve (the pinned
    // sources' CPU sum alone overruns the budget) before a single simplex
    // iteration, so no generous time limit is needed. The feasible-but-
    // hard cells (the phone at x4 and x8) do run into the 2 s cap: they
    // return the best partition found, unproven, and are starred with
    // their residual gap rather than passed off as optimal.
    println!("\noperators in the node partition vs input rate (optimal unless starred):");
    println!("{:>8} {:>10} {:>10}", "rate", "TMoteSky", "NokiaN80");
    let n80 = Platform::nokia_n80();
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.time_limit = Some(std::time::Duration::from_secs(2));
    let mut prep_mote = PreparedDeployment::new(&app.graph, &prof, &two_site(&mote), &cfg)
        .expect("pin analysis succeeds");
    let mut prep_n80 = PreparedDeployment::new(&app.graph, &prof, &two_site(&n80), &cfg)
        .expect("pin analysis succeeds");
    let mut sweep_stats: Vec<(String, u64, u64)> = Vec::new();
    let mut capped: Vec<String> = Vec::new();
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let mut count = |prep: &mut PreparedDeployment, name: &str| -> String {
            match prep.solve_at(mult) {
                Ok(part) => {
                    sweep_stats.push((
                        format!("{name} x{mult}"),
                        part.ilp_stats.warm_starts,
                        part.ilp_stats.cold_starts,
                    ));
                    let ops = part.leaves[0].site_ops[0].len();
                    if part.ilp_stats.timed_out {
                        capped.push(format!(
                            "{name} x{mult} within {:.2}%",
                            part.ilp_stats.final_gap * 100.0
                        ));
                        format!("{ops}*")
                    } else {
                        ops.to_string()
                    }
                }
                Err(_) => "-".into(),
            }
        };
        let mote_count = count(&mut prep_mote, "TMoteSky");
        let n80_count = count(&mut prep_n80, "NokiaN80");
        println!("{mult:>8.2} {mote_count:>10} {n80_count:>10}");
    }
    if !capped.is_empty() {
        println!(
            "* hit the 2 s cap, optimality unproven: {}",
            capped.join(", ")
        );
    }

    // Solver diagnostics for the sweep: how much warm-start reuse the
    // searches got.
    let warm: u64 = sweep_stats.iter().map(|s| s.1).sum();
    let cold: u64 = sweep_stats.iter().map(|s| s.2).sum();
    println!(
        "\nsweep node LPs: {warm} warm-started, {cold} cold across the {} feasible probes",
        sweep_stats.len()
    );
}
