//! The overload story of §7.3: profile the network, binary-search the
//! maximum sustainable rate, then *validate* the recommended cut against
//! ground truth by simulating the deployment at every cutpoint — the
//! methodology behind Figures 9 and 10.
//!
//! Run with: `cargo run --release --example overload_deployment`

use wishbone::prelude::*;

fn main() {
    let app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 3);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");
    let mote = Platform::tmote_sky();

    // 1. Network profiling (§7.3.1): max send rate for 90% reception.
    let channel = ChannelParams::mote();
    let netprof = profile_network(channel, 1, 28, 0.90, 99);
    println!(
        "network profile: {:.0} B/s aggregate payload at >=90% reception",
        netprof.max_aggregate_payload_rate
    );

    // 2. Binary search over data rates (§4.3).
    let dep = Deployment::star([(
        Site::new("mote", &mote),
        LinkSpec {
            beta: 1.0,
            net_budget: netprof.max_aggregate_payload_rate,
        },
    )]);
    let result = max_sustainable_rate_deployment(
        &app.graph,
        &prof,
        &dep,
        &DeploymentConfig::default(),
        8.0,
        0.01,
    )
    .expect("solver ok")
    .expect("feasible at low rate");
    let recommended = app
        .stages
        .iter()
        .rev()
        .find(|(_, id)| result.partition.leaves[0].site_ops[0].contains(id))
        .map(|&(n, _)| n)
        .unwrap();
    println!(
        "binary search: max rate x{:.3} of 8 kHz; recommended cut after '{}'",
        result.rate, recommended
    );
    println!("solver: {}\n", report_stats(&result.partition.ilp_stats));

    // 3. Ground truth: simulate every cutpoint on a 1-mote deployment.
    println!("deployment simulation at the recommended rate (1 TMote + basestation):");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "cut after", "input %", "msgs %", "goodput %"
    );
    let elems = app.trace_elements(200, 11);
    let topo = TreeTopology::chain(&[mote, Platform::server()], &[channel], 1);
    let mut best: Option<(&str, f64)> = None;
    let mut goods: Vec<(&str, f64)> = Vec::new();
    for (name, node_set) in app.cutpoints() {
        let dcfg = SimulationConfig {
            duration_s: 20.0,
            rate_multiplier: result.rate,
            ..SimulationConfig::motes(1, 17)
        };
        let feeds = vec![SourceFeed {
            source: app.source,
            trace: elems.clone(),
            rate_hz: 40.0,
        }];
        let route = LeafRoute::chain(&app.graph, &[node_set], feeds);
        let sim = simulate_deployment_tree(&app.graph, &topo, &[route], &dcfg);
        let report = &sim.leaves[0];
        let good = report.goodput_ratio() * 100.0;
        println!(
            "{:<12} {:>9.1}% {:>9.1}% {:>9.1}%",
            name,
            report.input_processed_ratio() * 100.0,
            report.hop_delivery_ratio(0) * 100.0,
            good
        );
        if best.is_none_or(|(_, g)| good > g) {
            best = Some((name, good));
        }
        goods.push((name, good));
    }
    let (best_cut, best_good) = best.unwrap();
    println!(
        "\nempirical best cut: '{best_cut}' ({best_good:.1}% goodput); \
         Wishbone recommended '{recommended}'"
    );

    // Assertion path (the same bar tests/end_to_end_mixed.rs holds the
    // pipeline to): the recommendation must be competitive with the
    // empirical peak, so a solver or model regression aborts the example
    // instead of printing a quietly wrong table.
    let rec_good = goods
        .iter()
        .find(|(name, _)| *name == recommended)
        .map(|&(_, g)| g)
        .expect("recommended cut is one of the cutpoints");
    let mut sorted: Vec<f64> = goods.iter().map(|&(_, g)| g).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert!(
        rec_good >= 0.70 * best_good && rec_good >= sorted[1] - 1e-9,
        "recommended cut '{recommended}' ({rec_good:.1}%) must be a top-2 cut \
         within 70% of the empirical best ({best_good:.1}%)"
    );
    println!("assertion path OK: recommendation is a top-2 cut within 70% of peak");
}
