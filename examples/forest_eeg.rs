//! A genuinely branching deployment: two wards of EEG caps, two
//! gateways, one server — the topology no star or chain can express.
//!
//! Each ward is 20 caps of 11-channel EEG montages on telos-class motes,
//! docked to one ward gateway; the gateways share nothing but the clinic
//! server. Gateway A's backhaul is a metered 100 B/s 2G link, gateway
//! B's a roomy WiFi one. The gateway's uplink row aggregates all 20
//! caps' streams — the count-weighted coupling per-class solves cannot
//! see — so the starved backhaul constrains *only* subtree A. Driven
//! well past A's sustainable rate, `simulate_deployment_tree` shows
//! goodput collapsing on A's subtree while B keeps streaming.
//!
//! Run with: `cargo run --release --example forest_eeg`

use wishbone::dataflow::dot::{deployment_to_dot, DeploymentDotOptions, DeploymentInstance};
use wishbone::prelude::*;

fn main() {
    let caps_per_ward = 20;
    let app = build_eeg_app(EegParams {
        n_channels: 11,
        ..Default::default()
    });
    println!(
        "EEG cap: {} channels, {} operators, {} edges (x{caps_per_ward} caps x2 wards)",
        app.n_channels,
        app.graph.operator_count(),
        app.graph.edge_count()
    );
    let traces = app.traces(8, 3..6, 5);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");

    let mote = Platform::tmote_sky();
    let relay = Platform::iphone();
    let starved_backhaul = 100.0; // bytes/second — gateway A's metered 2G link
    let roomy_backhaul = 400_000.0; // gateway B's WiFi

    // server <- {gw-a <- cap-a, gw-b <- cap-b}
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &relay),
        LinkSpec {
            beta: 1.0,
            net_budget: starved_backhaul,
        },
    );
    let gw_b = dep.attach(
        root,
        Site::new("gw-b", &relay),
        LinkSpec {
            beta: 1.0,
            net_budget: roomy_backhaul,
        },
    );
    // Caps dock to their ward gateway over a short-range WiFi-class
    // link (single-packet elements, 1% loss). It is roomy enough that
    // each gateway's WAN backhaul is the scarce resource, and modest
    // enough that the joint optimum stays below the mote-CPU cliff.
    let ward_link_capacity = 1_200.0;
    let cap_uplink = LinkSpec {
        beta: 1.0,
        net_budget: ward_link_capacity,
    };
    let cap_a = dep.attach(
        gw_a,
        Site::new("ward-a", &mote).with_count(caps_per_ward),
        cap_uplink,
    );
    let cap_b = dep.attach(
        gw_b,
        Site::new("ward-b", &mote).with_count(caps_per_ward),
        cap_uplink,
    );

    let mut cfg = DeploymentConfig::default();
    // Budget-limited mid-cascade cuts are the knapsack-hard case: accept
    // the near-cliff integrality gap and give each probe a real (but
    // bounded) budget to find an incumbent.
    cfg.ilp.rel_gap = 0.025;
    cfg.ilp.time_limit = Some(std::time::Duration::from_secs(15));

    let prep = PreparedDeployment::new(&app.graph, &prof, &dep, &cfg).expect("pins ok");
    let (vars, cons) = prep.problem_size();
    println!(
        "forest ILP: {} vars x {} constraints across 2 leaf classes, backend {:?}",
        vars, cons, cfg.ilp.backend
    );
    drop(prep);

    // §4.3 on the whole forest: the starved backhaul caps the deployment.
    let r = max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 8.0, 0.02)
        .expect("no solver error")
        .expect("feasible at low rates");
    println!(
        "\nmax sustainable rate x{:.3} ({} probes, {} refuted, {} encode)",
        r.rate,
        r.evaluations,
        r.refuted.len(),
        r.encodes
    );
    println!("solver: {}", report_stats(&r.partition.ilp_stats));
    for (leaf, gw, name) in [(cap_a, gw_a, "ward-a"), (cap_b, gw_b, "ward-b")] {
        let l = r.partition.leaf(leaf).unwrap();
        println!(
            "  {name}: {:>3} ops on each cap, {:>3} at its gateway, {:>2} at the server; \
             gateway backhaul {:.1} B/s aggregate over {caps_per_ward} caps",
            l.site_ops[0].len(),
            l.site_ops[1].len(),
            l.site_ops[2].len(),
            r.partition.link_net[gw.0]
        );
    }
    let a_net = r.partition.link_net[gw_a.0];
    assert!(
        a_net <= starved_backhaul + 1e-9,
        "gw-a backhaul {a_net} must fit its {starved_backhaul} B/s budget"
    );

    // What would the forest sustain if A's backhaul were as roomy as
    // B's? (Uplinks are fixed at attach time, so rebuild the forest.)
    let roomy_dep = {
        let mut d = Deployment::new(Site::server("server", &Platform::server()));
        let root = d.root();
        let roomy_uplink = LinkSpec {
            beta: 1.0,
            net_budget: roomy_backhaul,
        };
        let ga = d.attach(root, Site::new("gw-a", &relay), roomy_uplink);
        let gb = d.attach(root, Site::new("gw-b", &relay), roomy_uplink);
        d.attach(
            ga,
            Site::new("ward-a", &mote).with_count(caps_per_ward),
            cap_uplink,
        );
        d.attach(
            gb,
            Site::new("ward-b", &mote).with_count(caps_per_ward),
            cap_uplink,
        );
        d
    };
    let roomy = max_sustainable_rate_deployment(&app.graph, &prof, &roomy_dep, &cfg, 8.0, 0.02)
        .expect("no solver error")
        .expect("feasible");
    println!(
        "\nwith a roomy gw-a backhaul the same forest sustains x{:.3} \
         ({:.1}x more) — the starved uplink is the binding constraint",
        roomy.rate,
        roomy.rate / r.rate
    );
    assert!(roomy.rate > r.rate, "starved backhaul must bind");

    // Ground truth: drive the roomy placement far past the starved
    // forest's sustainable rate over the *real* (starved) channels. Only
    // A's subtree may collapse.
    let sim_rate = (9.0 * r.rate).min(roomy.rate);
    let topo = TreeTopology {
        parent: vec![None, Some(0), Some(0), Some(1), Some(2)],
        platforms: vec![
            Platform::server(),
            relay.clone(),
            relay.clone(),
            mote.clone(),
            mote.clone(),
        ],
        counts: vec![1, 1, 1, caps_per_ward, caps_per_ward],
        uplink: vec![
            None,
            Some(ChannelParams::wifi(starved_backhaul)),
            Some(ChannelParams::wifi(roomy_backhaul)),
            Some(ChannelParams::wifi(ward_link_capacity)),
            Some(ChannelParams::wifi(ward_link_capacity)),
        ],
    };
    let feeds: Vec<SourceFeed> = app
        .sources
        .iter()
        .zip(&traces)
        .map(|(&src, t)| SourceFeed {
            source: src,
            trace: t.elements.clone(),
            rate_hz: t.rate_hz,
        })
        .collect();
    // A route's per-position operator sets, from the placement's sorted lists.
    let route = |leaf, path, feeds| LeafRoute {
        path,
        site_ops: (roomy.partition.leaf(leaf).unwrap().site_ops.iter())
            .map(|ops| ops.iter().copied().collect())
            .collect(),
        feeds,
    };
    let routes = [
        route(cap_a, vec![3, 1, 0], feeds.clone()),
        route(cap_b, vec![4, 2, 0], feeds),
    ];
    let sim_cfg = SimulationConfig {
        duration_s: 20.0,
        rate_multiplier: sim_rate,
        ..SimulationConfig::motes(1, 7)
    };
    let sim = simulate_deployment_tree(&app.graph, &topo, &routes, &sim_cfg);
    println!("\ndriving both subtrees at x{sim_rate:.3} over the real channels:");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>10}",
        "subtree", "input %", "gw uplink %", "goodput %", "gw cpu %"
    );
    for (i, name) in ["ward-a", "ward-b"].iter().enumerate() {
        let l = &sim.leaves[i];
        println!(
            "{:>8} {:>9.1}% {:>11.1}% {:>11.1}% {:>9.1}%",
            name,
            l.input_processed_ratio() * 100.0,
            l.hop_delivery_ratio(1) * 100.0,
            l.goodput_ratio() * 100.0,
            sim.site_cpu_utilization[i + 1] * 100.0
        );
    }
    println!("sim: {}", report_deployment_stats(&sim, &topo));
    let attr = attribute_tree(&sim, &topo);
    println!("\nattribution: {attr}");
    let (a, b) = (&sim.leaves[0], &sim.leaves[1]);
    // A hard gate, not an assert: CI smoke runs this example and must
    // fail on a regression even under panic handlers or `panic=abort`
    // quirks — exit non-zero explicitly, naming the blamed site/link.
    if !(a.goodput_ratio() < 0.5 * b.goodput_ratio() && b.goodput_ratio() > 0.6) {
        let blamed = attr
            .top()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "no losses attributed".into());
        eprintln!(
            "FAIL: goodput must collapse only on the saturated gateway's subtree \
             (a {:.2} vs b {:.2}); dominant blame: {blamed}",
            a.goodput_ratio(),
            b.goodput_ratio()
        );
        std::process::exit(1);
    }
    println!(
        "\ngw-a saturates (its uplink sheds {:.0}% of subtree A's stream) while \
         gw-b has headroom — per-gateway budgets, not one shared pool",
        (1.0 - a.hop_delivery_ratio(1)) * 100.0
    );

    // Replay the identical run under a seeded failure plan: ward B's
    // gateway reboots mid-experiment and its ward link fades for the
    // first half. Outages are accounted per failure window.
    let plan = FailurePlan {
        failures: vec![
            Failure::GatewayReboot {
                site: 2,
                start_s: 8.0,
                end_s: 12.0,
            },
            Failure::LossyUplink {
                site: 4,
                start_s: 0.0,
                end_s: 10.0,
                loss_prob: 0.25,
            },
        ],
        seed: 1,
    };
    let failed =
        simulate_deployment_tree_traced(&app.graph, &topo, &routes, &sim_cfg, &plan, &mut NullSink);
    println!("\nsame run under failures (gw-b reboot 8-12s, ward-b fade 0-10s @25%):");
    for (f, o) in plan.failures.iter().zip(&failed.outages) {
        println!(
            "  {f:?}: {} elements dropped, {} delivered outside/through the window [{:.1}s, {:.1}s)",
            o.elements_dropped, o.elements_delivered, o.window.0, o.window.1
        );
    }
    println!("sim: {}", report_deployment_stats(&failed, &topo));
    let fattr = attribute_tree(&failed, &topo);
    println!("attribution under failures: {fattr}");
    let fb = &failed.leaves[1];
    println!(
        "ward-b goodput under failures: {:.1}% (was {:.1}%)",
        fb.goodput_ratio() * 100.0,
        b.goodput_ratio() * 100.0
    );
    if fb.goodput_ratio() >= b.goodput_ratio() {
        let blamed = fattr
            .top()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "no losses attributed".into());
        eprintln!(
            "FAIL: failure windows must cost ward B goodput ({:.3} vs {:.3}); \
             dominant blame: {blamed}",
            fb.goodput_ratio(),
            b.goodput_ratio()
        );
        std::process::exit(1);
    }

    // The deployment visualization: one cluster per site; cap-a's and
    // cap-b's pipelines meet only in the server cluster.
    let part = &r.partition;
    let mut instances = Vec::new();
    for (leaf, label) in [(cap_a, "ward-a"), (cap_b, "ward-b")] {
        let l = part.leaf(leaf).unwrap();
        let mut sites = Vec::new();
        for (pos, ops) in l.site_ops.iter().enumerate() {
            sites.extend(ops.iter().map(|&op| (op, l.path[pos].0)));
        }
        let mut cut_bandwidth = Vec::new();
        for (b, cut) in l.link_cut_edges.iter().enumerate() {
            let platform = &dep.site(l.path[b]).platform;
            for &e in cut {
                let bw = prof.edge_on_air_bandwidth(e, platform) * r.rate;
                if !cut_bandwidth.iter().any(|&(e2, _)| e2 == e) {
                    cut_bandwidth.push((e, bw));
                }
            }
        }
        instances.push(DeploymentInstance {
            label: label.to_string(),
            sites,
            cut_bandwidth,
        });
    }
    let dot = deployment_to_dot(
        &app.graph,
        &DeploymentDotOptions {
            label: format!(
                "2 wards x {caps_per_ward} caps x 11-channel EEG, asymmetric backhauls (rate x{:.2})",
                r.rate
            ),
            site_labels: dep
                .site_ids()
                .map(|s| {
                    let site = dep.site(s);
                    match dep.uplink(s) {
                        Some(l) => format!("{} (uplink {:.0} B/s)", site.name, l.net_budget),
                        None => site.name.clone(),
                    }
                })
                .collect(),
            instances,
        },
    );
    std::fs::write("forest_eeg.dot", &dot).ok();
    println!("\nwrote forest_eeg.dot ({} bytes)", dot.len());
}
