//! Speech detection across the paper's platform zoo (§7.2): for each
//! platform, find the maximum sustainable data rate and the optimal
//! cutpoint via the §4.3 binary search.
//!
//! Run with: `cargo run --release --example speech_detection`

use wishbone::prelude::*;

/// The paper's node/server split: one `platform` leaf under the server.
fn two_site(platform: &Platform) -> Deployment {
    Deployment::star([(
        Site::new(platform.name.clone(), platform),
        LinkSpec::for_platform(platform),
    )])
}

fn main() {
    let app = build_speech_app();
    let trace = app.trace(120, 7);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");

    println!("platform survey: max sustainable rate (x 8 kHz) and optimal cut\n");
    println!(
        "{:<10} {:>12} {:>10} {:>10}  cut after",
        "platform", "max rate", "node ops", "cpu %"
    );

    for platform in Platform::fig5b_platforms() {
        let cfg = DeploymentConfig::default();
        let dep = two_site(&platform);
        match max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 32.0, 0.01) {
            Ok(Some(r)) => {
                let node = &r.partition.leaves[0];
                let last_stage = app
                    .stages
                    .iter()
                    .rev()
                    .find(|(_, id)| node.site_ops[0].contains(id))
                    .map(|&(n, _)| n)
                    .unwrap_or("nothing");
                println!(
                    "{:<10} {:>12.3} {:>10} {:>9.1}%  {}",
                    platform.name,
                    r.rate,
                    node.site_ops[0].len(),
                    node.predicted_cpu[0] * 100.0,
                    last_stage
                );
            }
            Ok(None) => println!("{:<10} {:>12}", platform.name, "infeasible"),
            Err(e) => println!("{:<10} error: {e}", platform.name),
        }
    }

    // The Meraki story (§7.3): plenty of radio, modest CPU — optimal cut
    // is to ship raw data.
    let meraki = Platform::meraki_mini();
    let part = partition_deployment(
        &app.graph,
        &prof,
        &two_site(&meraki),
        &DeploymentConfig::default(),
    )
    .expect("meraki fits at full rate");
    println!("\nMeraki solver: {}", report_stats(&part.ilp_stats));
    let node_stage_count = part.leaves[0].site_ops[0].len();
    println!(
        "\nMeraki Mini at full rate: {} node op(s) -> {}",
        node_stage_count,
        if node_stage_count == 1 {
            "cut point 1: send the raw data directly back to the server (matches §7.3)"
        } else {
            "in-network processing selected"
        }
    );
}
