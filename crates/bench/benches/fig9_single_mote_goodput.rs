//! Figure 9: loss-rate measurements for a single TMote plus basestation
//! across partitionings, at the full 8 kHz input rate. "On a single mote,
//! the data rate is so high at early cutpoints that it drives the network
//! reception rate to zero. At later cutpoints too much computation is done
//! at the node and the CPU is busy for long periods, missing input events.
//! In the middle, even an underpowered TMote can process 10% of sample
//! windows."

use wishbone_apps::{build_speech_app, SpeechParams};
use wishbone_net::ChannelParams;
use wishbone_profile::{profile, Platform};
use wishbone_runtime::{
    simulate_deployment_tree, LeafRoute, SimulationConfig, SourceFeed, TreeTopology,
};

fn main() {
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 42);
    let _prof = profile(&mut app.graph, &[trace]).expect("profiling succeeds");
    let mote = Platform::tmote_sky();
    let channel = ChannelParams::mote();
    let elems = app.trace_elements(240, 9);
    let duration = 30.0; // simulated seconds per cutpoint

    wishbone_bench::header(
        "Figure 9: 1 TMote + basestation, full 8 kHz rate",
        &["cutpoint", "input %", "msgs %", "goodput %"],
    );

    let topo = TreeTopology::chain(&[mote, Platform::server()], &[channel], 1);
    let mut series = Vec::new();
    for (name, node_set) in app.cutpoints() {
        let cfg = SimulationConfig {
            duration_s: duration,
            rate_multiplier: 1.0,
            ..SimulationConfig::motes(1, 17)
        };
        let feeds = vec![SourceFeed {
            source: app.source,
            trace: elems.clone(),
            rate_hz: 40.0,
        }];
        let route = LeafRoute::chain(&app.graph, &[node_set], feeds);
        let sim = simulate_deployment_tree(&app.graph, &topo, &[route], &cfg);
        let rep = &sim.leaves[0];
        let (inp, msg, good) = (
            rep.input_processed_ratio(),
            rep.hop_delivery_ratio(0),
            rep.goodput_ratio(),
        );
        wishbone_bench::row(&[
            name.to_string(),
            wishbone_bench::pct(inp),
            wishbone_bench::pct(msg),
            wishbone_bench::pct(good),
        ]);
        series.push((name, inp, msg, good));
    }

    // Paper-shape assertions.
    let by_name = |n: &str| series.iter().find(|s| s.0 == n).copied().unwrap();
    let (_, src_in, src_msg, src_good) = by_name("source");
    let (_, _, _, cep_good) = by_name("cepstrals");
    let (_, _fb_in, _, fb_good) = by_name("filtBank");
    let best = series.iter().map(|s| s.3).fold(0.0f64, f64::max);

    // Early cuts: input fine, network collapsed.
    assert!(src_in > 0.95, "all-server processes its inputs");
    assert!(src_msg < 0.02, "raw stream collapses the radio: {src_msg}");
    assert!(src_good < 0.02);
    // Late cuts: CPU-bound input loss.
    let (_, cep_in, _, _) = by_name("cepstrals");
    assert!(cep_in < 0.5, "all-node misses inputs: {cep_in}");
    // Middle cuts win, with double-digit goodput.
    assert!(
        fb_good > src_good && fb_good > 0.05,
        "filtBank cut delivers: {fb_good}"
    );
    assert!(best >= fb_good * 0.999);
    assert!(
        best > 10.0 * src_good.max(0.001) && best > 1.05 * cep_good.max(0.001) / 1.05,
        "middle cut dominates the endpoints"
    );
    // The expanding early stages (preemph/hamming/prefilt) are the *worst*
    // network offenders — worse than shipping raw data.
    let (_, _, pre_msg, _) = by_name("preemph");
    assert!(
        pre_msg <= src_msg + 0.01,
        "expanded data can't beat raw data"
    );
    println!(
        "\nmiddle cut ({:.1}% goodput) vs all-server ({:.1}%) and all-node ({:.1}%): \
         the paper's 'picking the right partition matters' (their best/worst gap was 20x)",
        fb_good * 100.0,
        src_good * 100.0,
        cep_good * 100.0
    );
}
