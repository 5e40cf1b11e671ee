//! §7.3 validation experiments that aren't figures:
//!
//! 1. the network-profiler + binary-search pipeline picks the empirically
//!    best cut (the paper's "3 input events per second ... cut point 4,
//!    right after filterbank, as in the empirical data");
//! 2. predicted vs measured CPU on the Gumstix (paper: 11.5% vs 15%) —
//!    the additive model under-predicts by the OS-overhead factor;
//! 3. baseline comparison: the ILP vs greedy / local search / exhaustive
//!    (quantifying why Wishbone uses an exact method).

use std::collections::HashSet;

use wishbone_apps::SpeechApp;
use wishbone_apps::{build_speech_app, SpeechParams};
use wishbone_core::{
    max_sustainable_rate_deployment, partition_deployment, Deployment, DeploymentConfig, LinkSpec,
    Mode, Site,
};
use wishbone_dataflow::{OperatorId, Value};
use wishbone_net::{profile_network, ChannelParams};
use wishbone_oracle::{
    build_partition_graph, evaluate, exhaustive, greedy, local_search, ObjectiveConfig,
};
use wishbone_profile::{profile, Platform};
use wishbone_runtime::{
    simulate_deployment_tree, LeafRoute, SimulationConfig, SourceFeed, TaskModel,
    TreeDeploymentReport, TreeTopology,
};

/// Simulate one `platform` node running `node_ops` under the server, fed
/// `elems` at the 40 frames/s reference rate.
fn simulate_cut(
    app: &SpeechApp,
    node_ops: &HashSet<OperatorId>,
    elems: &[Value],
    platform: &Platform,
    channel: ChannelParams,
    cfg: &SimulationConfig,
) -> TreeDeploymentReport {
    let topo = TreeTopology::chain(&[platform.clone(), Platform::server()], &[channel], 1);
    let feeds = vec![SourceFeed {
        source: app.source,
        trace: elems.to_vec(),
        rate_hz: 40.0,
    }];
    let route = LeafRoute::chain(&app.graph, std::slice::from_ref(node_ops), feeds);
    simulate_deployment_tree(&app.graph, &topo, &[route], cfg)
}

fn main() {
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 42);
    let prof = profile(&mut app.graph, &[trace]).expect("profiling succeeds");
    let mote = Platform::tmote_sky();
    let channel = ChannelParams::mote();

    // ---- 1. Rate search vs empirical ground truth -----------------------
    let netprof = profile_network(channel, 1, 28, 0.90, 99);
    // Budget = network profile; CPU derated by the measured OS-overhead
    // factor (the paper's §7.3 proposal).
    let dep = Deployment::star([(
        Site::new("mote", &mote).with_measured_overheads(),
        LinkSpec {
            beta: 1.0,
            net_budget: netprof.max_aggregate_payload_rate,
        },
    )]);
    let cfg = DeploymentConfig::default();
    let r = max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 8.0, 0.01)
        .expect("solver ok")
        .expect("feasible");
    let recommended_ops = &r.partition.leaves[0].site_ops[0];
    let recommended: &str = app
        .stages
        .iter()
        .rev()
        .find(|(_, id)| recommended_ops.contains(id))
        .map(|&(n, _)| n)
        .unwrap();
    println!(
        "binary search: max sustainable rate x{:.3} ({:.1} frames/s), cut after '{}'",
        r.rate,
        r.rate * 40.0,
        recommended
    );

    let elems = app.trace_elements(240, 5);
    let mut best: Option<(&str, f64)> = None;
    let mut rec_good = 0.0;
    for (name, node_set) in app.cutpoints() {
        let dcfg = SimulationConfig {
            duration_s: 30.0,
            rate_multiplier: r.rate,
            ..SimulationConfig::motes(1, 77)
        };
        let rep = simulate_cut(&app, &node_set, &elems, &mote, channel, &dcfg);
        let g = rep.leaves[0].goodput_ratio();
        if node_set == *recommended_ops {
            rec_good = g;
        }
        if best.is_none_or(|(_, bg)| g > bg) {
            best = Some((name, g));
        }
    }
    let (best_cut, best_good) = best.unwrap();
    println!(
        "empirical: best cut '{best_cut}' at {:.1}% goodput; recommendation achieves {:.1}%",
        best_good * 100.0,
        rec_good * 100.0
    );
    // The recommendation lands among the top cuts; the residual gap is
    // the per-packet CPU the additive model omits (§7.3's discussion).
    assert!(
        rec_good >= 0.7 * best_good,
        "recommendation must be near the empirical peak: {rec_good} vs {best_good}"
    );

    // ---- 2. Predicted vs measured CPU (Gumstix) --------------------------
    let gumstix = Platform::gumstix();
    let gdep = Deployment::star([(
        Site::new("gumstix", &gumstix),
        LinkSpec::for_platform(&gumstix),
    )]);
    let gpart = partition_deployment(&app.graph, &prof, &gdep, &cfg).expect("gumstix fits");
    let gleaf = &gpart.leaves[0];
    let dcfg = SimulationConfig {
        duration_s: 20.0,
        task_model: TaskModel::threaded(),
        per_packet_cpu_s: 20e-6,
        ..SimulationConfig::motes(1, 3)
    };
    let rep = simulate_cut(
        &app,
        &gleaf.site_ops[0],
        &elems,
        &gumstix,
        ChannelParams::wifi(400_000.0),
        &dcfg,
    );
    let (predicted, measured) = (gleaf.predicted_cpu[0], rep.site_cpu_utilization[1]);
    println!(
        "\nGumstix: predicted {:.1}% CPU, measured {:.1}% (paper: 11.5% vs 15%)",
        predicted * 100.0,
        measured * 100.0
    );
    assert!(measured > predicted);
    assert!(measured < predicted * 1.6);

    // ---- 3. Baselines: ILP vs heuristics ---------------------------------
    wishbone_bench::header(
        "Baseline comparison (speech graph, objective = cut bandwidth)",
        &["cpu budget", "ILP", "greedy", "local srch", "exhaustive"],
    );
    let pg = build_partition_graph(&app.graph, &prof, &mote, Mode::Permissive, 0.1).unwrap();
    for budget in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e12);
        let ilp_set: HashSet<usize> = {
            let ep = wishbone_oracle::encode(&pg, wishbone_oracle::Encoding::Restricted, &obj);
            let sol = ep.problem.solve_ilp(&Default::default()).expect("solvable");
            ep.decode(&sol.values)
        };
        let ilp_m = evaluate(&pg, &ilp_set, &obj);
        let greedy_m = evaluate(&pg, &greedy(&pg, &obj), &obj);
        let ls_m = evaluate(&pg, &local_search(&pg, &greedy(&pg, &obj), &obj, 50), &obj);
        let (_, ex_m) = exhaustive(&pg, &obj, 20).expect("feasible");
        wishbone_bench::row(&[
            wishbone_bench::f(budget),
            wishbone_bench::f(ilp_m.net),
            wishbone_bench::f(greedy_m.net),
            wishbone_bench::f(ls_m.net),
            wishbone_bench::f(ex_m.net),
        ]);
        assert!(
            (ilp_m.objective - ex_m.objective).abs() < 1e-6,
            "ILP must be exact at budget {budget}"
        );
        assert!(ilp_m.objective <= greedy_m.objective + 1e-9);
        assert!(ilp_m.objective <= ls_m.objective + 1e-9);
    }
    println!(
        "\nILP matches exhaustive ground truth at every budget; heuristics are bounded below by it"
    );
}
