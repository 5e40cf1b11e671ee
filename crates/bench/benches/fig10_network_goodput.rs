//! Figure 10: goodput across cutpoints for a single TMote vs a 20-mote
//! network. "For the case of a single TMote, peak throughput rate occurs
//! at the 4th cut point (filterbank), while for the whole TMote network in
//! aggregate, peak throughput occurs at the 6th and final cut point
//! (cepstral) ... a many node network is limited by the same bottleneck as
//! a network of only one node: the single link at the root of the routing
//! tree. At the final cut point, the problem becomes compute bound and the
//! aggregate power of the 20 TMote network makes it more potent than the
//! single node." Also §7.3's Meraki result: its optimal cut is point 1.

use wishbone_apps::{build_speech_app, SpeechParams};
use wishbone_core::{partition_deployment, Deployment, DeploymentConfig, LinkSpec, Site};
use wishbone_net::ChannelParams;
use wishbone_profile::{profile, Platform};
use wishbone_runtime::{
    simulate_deployment_tree, LeafRoute, SimulationConfig, SourceFeed, TreeTopology,
};

fn main() {
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 42);
    let prof = profile(&mut app.graph, &[trace]).expect("profiling succeeds");
    let mote = Platform::tmote_sky();
    let channel = ChannelParams::mote();
    let elems = app.trace_elements(240, 13);
    let duration = 30.0; // simulated seconds per cutpoint

    wishbone_bench::header(
        "Figure 10: goodput per cutpoint, 1 vs 20 TMotes (full rate)",
        &["cutpoint", "1 mote %", "20 motes %"],
    );

    let mut one_series = Vec::new();
    let mut twenty_series = Vec::new();
    for (name, node_set) in app.cutpoints() {
        let run = |n_nodes: usize| -> f64 {
            let cfg = SimulationConfig {
                duration_s: duration,
                rate_multiplier: 1.0,
                ..SimulationConfig::motes(n_nodes, 29)
            };
            let topo =
                TreeTopology::chain(&[mote.clone(), Platform::server()], &[channel], n_nodes);
            let feeds = vec![SourceFeed {
                source: app.source,
                trace: elems.clone(),
                rate_hz: 40.0,
            }];
            let route = LeafRoute::chain(&app.graph, std::slice::from_ref(&node_set), feeds);
            simulate_deployment_tree(&app.graph, &topo, &[route], &cfg).leaves[0].goodput_ratio()
        };
        let g1 = run(1);
        let g20 = run(20);
        wishbone_bench::row(&[
            name.to_string(),
            wishbone_bench::pct(g1),
            wishbone_bench::pct(g20),
        ]);
        one_series.push((name, g1));
        twenty_series.push((name, g20));
    }

    fn argmax<'a>(s: &[(&'a str, f64)]) -> (&'a str, f64) {
        s.iter()
            .copied()
            .fold(("", f64::MIN), |acc, x| if x.1 > acc.1 { x } else { acc })
    }
    let (one_best, one_g) = argmax(&one_series);
    let (twenty_best, twenty_g) = argmax(&twenty_series);
    println!("\n1-mote peak at '{one_best}' ({:.1}%)", one_g * 100.0);
    println!("20-mote peak at '{twenty_best}' ({:.1}%)", twenty_g * 100.0);

    // Paper-shape assertions: the 20-node peak sits at a deeper cut than
    // the 1-node peak (cut 4 -> cut 6 in the paper), because 20 nodes
    // share the root link and must compress harder.
    let idx = |s: &[(&str, f64)], n: &str| s.iter().position(|x| x.0 == n).unwrap();
    assert!(
        idx(&twenty_series, twenty_best) >= idx(&one_series, one_best),
        "more nodes must push the optimal cut deeper"
    );
    assert_eq!(twenty_best, "cepstrals", "20 motes peak at the final cut");
    // Per-node goodput collapses in the 20-node network at shallow cuts.
    let one_src = one_series[0].1;
    let twenty_src = twenty_series[0].1;
    assert!(
        twenty_src <= one_src + 1e-9,
        "sharing the root link can't help raw streaming"
    );

    // Meraki Mini: WiFi-class radio, modest CPU -> optimal partition is
    // cut point 1 (ship raw data). The paper sets α and β per platform;
    // with budget-normalized weights the energy proxy prefers the cheap
    // radio over the expensive CPU.
    let meraki = Platform::meraki_mini();
    let uplink = LinkSpec::for_platform(&meraki);
    let dep = Deployment::star([(
        Site::new("meraki", &meraki).with_alpha(1.0 / meraki.cpu_budget_fraction),
        LinkSpec {
            beta: 1.0 / uplink.net_budget,
            ..uplink
        },
    )]);
    let part = partition_deployment(&app.graph, &prof, &dep, &DeploymentConfig::default())
        .expect("meraki fits at full rate");
    let node_ops = part.leaves[0].site_ops[0].len();
    println!(
        "\nMeraki Mini optimal partition: {node_ops} node op(s) -> cut point 1 (paper: 'send the \
         raw data directly back to the server')"
    );
    assert_eq!(node_ops, 1);
}
