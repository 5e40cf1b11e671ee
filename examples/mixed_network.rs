//! §9 extension: mixed networks. "A single logical node partition can take
//! on different physical partitions at different nodes ... by running the
//! partitioning algorithm once for each type of node." Here that is one
//! joint solve over a star of node classes, which decouples per class.
//!
//! Scenario: a deployment with 16 TMote Sky motes and 4 Gumstix
//! microservers all running the same speech-detection program.
//!
//! Run with: `cargo run --release --example mixed_network`

use wishbone::prelude::*;

fn main() {
    let app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 7);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");

    // One leaf class per node type under the server. Each uplink row
    // aggregates its class's devices, so `n` nodes each allowed the
    // platform radio's goodput budget the class at `n` times that.
    let class = |site: Site, count: usize| {
        let link = LinkSpec::for_platform(&site.platform);
        (
            site.with_count(count),
            LinkSpec {
                net_budget: link.net_budget * count as f64,
                ..link
            },
        )
    };
    let dep = Deployment::star([
        // Motes run at a reduced rate (their radio share of the channel).
        class(
            Site::new("TMoteSky", &Platform::tmote_sky())
                .with_measured_overheads()
                .at_rate(0.1),
            16,
        ),
        class(Site::new("Gumstix", &Platform::gumstix()), 4),
    ]);

    let mixed = partition_deployment(&app.graph, &prof, &dep, &DeploymentConfig::default())
        .expect("both classes partition");
    println!("mixed deployment: one logical program, two physical partitions\n");
    for c in &mixed.leaves {
        let site = dep.site(c.leaf);
        let last = app
            .stages
            .iter()
            .rev()
            .find(|(_, id)| c.site_ops[0].contains(id))
            .map(|&(n, _)| n)
            .unwrap_or("nothing");
        println!(
            "{:>9} x{:<3} -> {} ops on-node (cut after '{}'), cpu {:.1}%, net {:.0} B/s",
            site.name,
            site.count,
            c.site_ops[0].len(),
            last,
            c.predicted_cpu[0] * 100.0,
            c.predicted_net[0]
        );
    }
    println!("\nsolver: {}", report_stats(&mixed.ilp_stats));
    let mut entry_edges: Vec<_> = mixed
        .leaves
        .iter()
        .flat_map(|c| c.link_cut_edges[0].iter().copied())
        .collect();
    entry_edges.sort_unstable();
    entry_edges.dedup();
    println!(
        "server must accept partial results at {} distinct cut edges; \
         aggregate offered load {:.0} B/s",
        entry_edges.len(),
        mixed.link_net.iter().sum::<f64>()
    );
    let union = mixed.ops_at(dep.root());
    println!(
        "server-side code covers {} of {} operators (union across classes)",
        union.len(),
        app.graph.operator_count()
    );
}
