//! The paper's evaluation, reproduced: every figure and validation
//! experiment of Wishbone's §7 (and the motivating Fig 3) in one target.
//!
//! ```sh
//! cargo bench -p wishbone-bench --bench repro > REPRO.md
//! ```
//!
//! No flags, no environment reads. Each function prints the series the
//! paper plots and records the paper's statements about it on one claim
//! list; every claim is evaluated even after one fails, the claims table
//! is printed last, and the exit status is nonzero iff a claim failed.
//! Stdout is the checked-in `REPRO.md`, byte-identical from run to run
//! (the only wall-clock seconds, Fig 6's CDF, go to stderr): CI
//! regenerates it and fails on a diff.

use std::collections::HashSet;
use std::ops::Range;
use std::process::ExitCode;

use wishbone_apps::{
    build_eeg_app, build_eeg_channel, build_speech_app, EegApp, EegParams, SpeechApp, SpeechParams,
};
use wishbone_bench::{cdf, f, geometric_rates, header, linear_rates, pct, row, Claims};
use wishbone_core::{
    max_sustainable_rate_deployment, partition_deployment, Deployment, DeploymentConfig, LinkSpec,
    Mode, PartitionError, Pin, PreparedDeployment, Site,
};
use wishbone_dataflow::{EdgeId, OperatorId, Value};
use wishbone_ilp::IlpOptions;
use wishbone_net::{profile_network, ChannelParams};
use wishbone_oracle::{
    build_partition_graph, encode, evaluate, exhaustive, greedy, local_search, Encoding,
    ObjectiveConfig, PEdge, PVertex, PartitionGraph,
};
use wishbone_profile::{profile, GraphProfile, Platform};
use wishbone_runtime::{
    simulate_deployment_tree, LeafRoute, SimulationConfig, SourceFeed, TaskModel,
    TreeDeploymentReport, TreeTopology,
};

/// Rate points in Fig 6's sweep. CI scale; the paper ran lp_solve 2100
/// times, which is the number to edit this to for the full sweep (same
/// shape — at that size gap closure depends on the machine's speed).
const N_POINTS: usize = 8;

/// A profiled application: `main` builds and profiles the speech pipeline,
/// one EEG channel and the 22-channel EEG application once each, and every
/// figure borrows the one it reads.
type Profiled<App> = (App, GraphProfile);

fn profiled_speech() -> Profiled<SpeechApp> {
    let app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 42);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");
    (app, prof)
}

fn profiled_eeg(app: EegApp, windows: usize, seizure: Range<usize>) -> Profiled<EegApp> {
    let traces = app.traces(windows, seizure, 42);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");
    (app, prof)
}

/// Simulate `n_nodes` `platform` nodes, each running `node_ops` (a
/// cut point's set or a placement's sorted list) under the server, fed
/// `elems` at the 40 frames/s reference rate.
fn simulate_cut<S>(
    app: &SpeechApp,
    node_ops: &S,
    elems: &[Value],
    platform: &Platform,
    channel: ChannelParams,
    n_nodes: usize,
    cfg: &SimulationConfig,
) -> TreeDeploymentReport
where
    for<'s> &'s S: IntoIterator<Item = &'s OperatorId>,
{
    let tiers = [platform.clone(), Platform::server()];
    let topo = TreeTopology::chain(&tiers, &[channel], n_nodes);
    let feeds = vec![SourceFeed {
        source: app.source,
        trace: elems.to_vec(),
        rate_hz: 40.0,
    }];
    let route = LeafRoute::chain(&app.graph, std::slice::from_ref(node_ops), feeds);
    simulate_deployment_tree(&app.graph, &topo, &[route], cfg)
}

/// The node set the ILP (restricted encoding, default options) picks for
/// `pg` under `obj`.
fn ilp_cut(pg: &PartitionGraph, obj: &ObjectiveConfig) -> HashSet<usize> {
    let ep = encode(pg, Encoding::Restricted, obj);
    let sol = ep.problem.solve_ilp(&IlpOptions::default());
    ep.decode(&sol.expect("solvable").values)
}

/// Index of the speech stage (and so of the cutpoint after it) called `name`.
fn stage(app: &SpeechApp, name: &str) -> usize {
    let found = app.stages.iter().position(|s| s.0 == name);
    found.expect("a speech stage")
}

/// `values`, each through [`f`], separated by `sep`.
fn joined(values: impl Iterator<Item = f64>, sep: &str) -> String {
    values.map(f).collect::<Vec<_>>().join(sep)
}

/// Index of the largest entry of a per-cutpoint series (the first on ties).
fn peak(series: &[f64]) -> usize {
    (0..series.len()).fold(0, |best, i| if series[i] > series[best] { i } else { best })
}

/// Figure 3: the motivating example. A source (cpu 1, pinned) feeds two
/// branches a (cpu 2, reduces 4→2) and b (cpu 3, reduces 4→1): budget 2
/// fits neither branch (cut 8), budget 3 fits only a (cut 6), budget 4
/// flips to b (cut 5).
fn fig3(claims: &mut Claims) {
    claims.section = "Fig 3";
    let v = |cpu_cost: f64, pin: Pin, i: usize| PVertex {
        ops: vec![OperatorId(i)],
        cpu_cost,
        pin,
    };
    let e = |src: usize, dst: usize, bandwidth: f64| PEdge {
        src,
        dst,
        bandwidth,
        graph_edges: vec![],
    };
    let pg = PartitionGraph {
        vertices: vec![
            v(1.0, Pin::Node, 0),    // source
            v(2.0, Pin::Movable, 1), // a
            v(3.0, Pin::Movable, 2), // b
            v(0.0, Pin::Server, 3),  // sink
        ],
        edges: vec![e(0, 1, 4.0), e(0, 2, 4.0), e(1, 3, 2.0), e(2, 3, 1.0)],
    };

    header(
        "Figure 3: optimal partition vs CPU budget",
        &["budget", "cut bw", "node set", "brute force"],
    );
    let (mut cuts, mut sets, mut exact) = (Vec::new(), Vec::new(), true);
    for budget in [2.0, 3.0, 4.0] {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        let set = ilp_cut(&pg, &obj);
        let m = evaluate(&pg, &set, &obj);
        let (bset, bm) = exhaustive(&pg, &obj, 8).expect("feasible");
        exact &= (m.objective - bm.objective).abs() < 1e-9 && set == bset;
        let mut members: Vec<usize> = set.into_iter().collect();
        members.sort_unstable();
        row(&[f(budget), f(m.net), format!("{members:?}"), f(bm.net)]);
        cuts.push(m.net);
        sets.push(members);
    }

    claims.check(
        "fig3/ilp-matches-brute-force",
        "the ILP's partition is the optimal one",
        format!("objective and node set equal exhaustive search's at all 3 budgets: {exact}"),
        exact,
    );
    claims.check(
        "fig3/cut-bandwidth-8-6-5",
        "cut bandwidth 8 → 6 → 5 as the budget goes 2 → 3 → 4",
        format!("{} → {} → {}", f(cuts[0]), f(cuts[1]), f(cuts[2])),
        cuts == [8.0, 6.0, 5.0],
    );
    claims.check(
        "fig3/shape-flips-between-budget-3-and-4",
        "\"the partitioning can change unpredictably ... with only a small change in the CPU \
         budget\" (a → b)",
        format!("node set {:?} → {:?}", sets[1], sets[2]),
        sets[1].len() == sets[2].len() && sets[1] != sets[2],
    );
}

/// Figure 5(a): one EEG channel — operators in the optimal node partition
/// as the input rate grows, TMote Sky vs Nokia N80; α = 0, β = 1 as in
/// the paper, over 48 rate points.
fn fig5a((app, prof): &Profiled<EegApp>, claims: &mut Claims) {
    claims.section = "§7 Fig 5a";
    let count = |p: &Platform, rate: f64| -> Option<usize> {
        // Isolate the CPU effect like the paper: bandwidth is objective,
        // CPU is the binding budget.
        let uplink = LinkSpec {
            beta: 1.0,
            net_budget: 1e12,
        };
        let dep = Deployment::star([(Site::new(p.name.clone(), p), uplink)]);
        let cfg = DeploymentConfig::default().at_rate(rate);
        match partition_deployment(&app.graph, prof, &dep, &cfg) {
            Ok(part) => Some(part.leaves[0].site_ops[0].len()),
            Err(PartitionError::Infeasible) => None,
            Err(e) => panic!("solver error: {e}"),
        }
    };

    header(
        "Figure 5a: node-partition size vs rate (1 EEG channel)",
        &["rate x", "TMoteSky ops", "NokiaN80 ops"],
    );
    let (tmote, n80) = (Platform::tmote_sky(), Platform::nokia_n80());
    let mut series = Vec::new();
    // Geometric grid over a wide range so both platforms' shedding
    // regions (TMote ~30x, N80 ~100x) are resolved.
    for r in geometric_rates(1.0, 512.0, 48) {
        let (t, n) = (count(&tmote, r), count(&n80, r));
        let cell = |c: Option<usize>| c.map_or("-".into(), |v| v.to_string());
        row(&[f(r), cell(t), cell(n)]);
        series.push((t, n));
    }
    println!("\nof {} operators", app.graph.operator_count());

    // Non-increasing, and lower at the end than at the start.
    let falls = |c: &[usize]| c.windows(2).all(|w| w[1] <= w[0]) && c.first() > c.last();
    let end = |c: Option<&usize>| c.map_or("-".to_string(), |n| n.to_string());
    let span = |c: &[usize]| format!("{} → {} ops", end(c.first()), end(c.last()));
    let t: Vec<usize> = series.iter().filter_map(|s| s.0).collect();
    let n: Vec<usize> = series.iter().filter_map(|s| s.1).collect();
    claims.check(
        "fig5a/curves-slope-down",
        "\"As we increased the data rate (moving right), fewer operators can fit within the CPU \
         bounds on the node (moving down). The sloping lines show that every stage of processing \
         yields data reductions.\"",
        format!("TMote {}, N80 {}, neither ever rising", span(&t), span(&n)),
        falls(&t) && falls(&n),
    );
    let both: Vec<(usize, usize)> = series.iter().filter_map(|&(t, n)| t.zip(n)).collect();
    let above = both.iter().filter(|(t, n)| n >= t).count();
    claims.check(
        "fig5a/n80-holds-at-least-the-motes-operators",
        "the N80 curve lies on or above the TMote curve",
        format!("at {above} of the {} rates both fit", both.len()),
        above == both.len(),
    );
}

/// Figure 5(b): speech detection — maximum sustainable rate (as a
/// multiple of 8 kHz) at each viable (data-reducing) cutpoint, for
/// TinyOS, JavaME, iPhone, VoxNet and Scheme.
fn fig5b((app, prof): &Profiled<SpeechApp>, claims: &mut Claims) {
    claims.section = "§7 Fig 5b";
    let platforms = Platform::fig5b_platforms();

    let mut cols = vec!["cutpoint"];
    cols.extend(platforms.iter().map(|p| p.name.as_str()));
    header(
        "Figure 5b: max rate (x 8 kHz) per cutpoint per platform",
        &cols,
    );
    // Viable cutpoints: strictly data-reducing relative to every earlier
    // cut (the paper shows source/1, filtbank/7, logs/8, cepstral/9).
    let mut table: Vec<Vec<f64>> = Vec::new();
    let mut best_bw = f64::INFINITY;
    for (i, (name, set)) in app.cutpoints().into_iter().enumerate() {
        let bw = prof.edge_bandwidth(EdgeId(i));
        if bw >= best_bw {
            continue;
        }
        best_bw = bw;
        // For a fixed cut, load scales linearly with rate, so the max
        // rate is min(C / cpu@1x, N / net@1x).
        let max_rate = |p: &Platform| {
            let on_node = app.stages[..=i].iter();
            let cpu: f64 = on_node.map(|&(_, op)| prof.cpu_fraction(op, p)).sum();
            let crosses = |e: &EdgeId| {
                let ed = app.graph.edge(*e);
                set.contains(&ed.src) && !set.contains(&ed.dst)
            };
            let cut = app.graph.edge_ids().filter(crosses);
            let net: f64 = cut.map(|e| prof.edge_on_air_bandwidth(e, p)).sum();
            let cpu_rate = 1.0 / cpu.max(1e-12);
            cpu_rate.min(p.radio.goodput_bytes_per_sec / net.max(1e-12))
        };
        let rates: Vec<f64> = platforms.iter().map(max_rate).collect();
        let mut cells = vec![format!("{name}/{}", i + 1)];
        cells.extend(rates.iter().map(|&r| f(r)));
        row(&cells);
        table.push(rates);
    }

    let (tinyos, javame, scheme) = (0, 1, 4);
    let column = |k: usize| joined(table.iter().map(|r| r[k]), ", ");
    claims.check(
        "fig5b/tinyos-below-and-scheme-above-full-rate",
        "\"Bars falling under the horizontal line [1.0] indicate that the platform cannot be \
         expected to keep up with the full (8 kHz) data rate\": TinyOS at every cut, Scheme at none",
        format!("TinyOS {}; Scheme {}", column(tinyos), column(scheme)),
        table.iter().all(|r| r[tinyos] < 1.0 && r[scheme] > 1.0),
    );
    let deepest = table.last().expect("has cutpoints");
    let ratio = deepest[javame] / deepest[tinyos];
    claims.check(
        "fig5b/n80-small-multiple-of-tmote-at-cepstrals",
        "at the deepest (compute-bound) cut the N80 is only ~2x the TMote despite its 55x clock",
        format!("{ratio:.1}x (accepted: 1.5x – 8x)"),
        (1.5..8.0).contains(&ratio),
    );
    claims.check(
        "fig5b/platform-order-at-deepest-cut",
        "TinyOS < JavaME < iPhone < VoxNet < Scheme at the cepstral cut",
        joined(deepest.iter().copied(), " < "),
        deepest.windows(2).all(|w| w[0] < w[1]),
    );
}

/// Figure 6: the time the solver needs to *discover* the optimal partition
/// vs the time to *prove* it optimal, on the full 22-channel EEG
/// application, across a linear sweep of data rates (§7.1) that shares one
/// `PreparedDeployment` — built, merged and encoded once, rescaled per
/// rate. Stdout carries each point's deterministic outcome; the CDF of
/// seconds goes to stderr.
fn fig6((app, prof): &Profiled<EegApp>, claims: &mut Claims) {
    claims.section = "§7.1 Fig 6";
    // Proving optimality exactly can take minutes on the budget-binding,
    // channel-symmetric instances, so the run uses the paper's own remedy,
    // an approximate bound: near the infeasibility cliff the CPU row is a
    // tight knapsack whose LP bound sits a couple of percent (one edge's
    // bandwidth) below the integer optimum, and 2.5% sits just past that
    // plateau, so every feasible point provably terminates. The time
    // limit is a pure safety net; overload points need none — presolve
    // proves them infeasible.
    let rel_gap = 0.025;
    let uplink = LinkSpec {
        beta: 1.0,
        net_budget: 1e12, // paper: CPU capacity is the only bound here
    };
    let dep = Deployment::star([(Site::new("mote", &Platform::tmote_sky()), uplink)]);
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.rel_gap = rel_gap;
    cfg.ilp.time_limit = Some(std::time::Duration::from_secs(45));
    let mut prep =
        PreparedDeployment::new(&app.graph, prof, &dep, &cfg).expect("pin analysis succeeds");

    header(
        "Figure 6: discover vs prove across rates (22-channel EEG)",
        &["rate x", "node ops", "B&B nodes", "final gap", "outcome"],
    );
    let (mut discover, mut prove) = (Vec::new(), Vec::new());
    let (mut infeasible, mut proved, mut worst_gap) = (0usize, 0usize, 0.0f64);
    let mut sizes = ((0, 0), (0, 0));
    for rate in linear_rates(0.25, 48.0, N_POINTS) {
        let cells = match prep.solve_at(rate) {
            Ok(p) => {
                let stats = &p.ilp_stats;
                proved += usize::from(stats.proved);
                worst_gap = worst_gap.max(stats.final_gap);
                discover.push(stats.time_to_best.as_secs_f64());
                prove.push(stats.total_time.as_secs_f64());
                sizes = (p.merge_stats, p.problem_size);
                let outcome = if stats.proved { "proved" } else { "limit hit" };
                let ops = p.leaves[0].site_ops[0].len();
                let gap = pct(stats.final_gap);
                [
                    ops.to_string(),
                    stats.nodes.to_string(),
                    gap,
                    outcome.into(),
                ]
            }
            Err(PartitionError::Infeasible) => {
                infeasible += 1;
                ["-".into(), "-".into(), "-".into(), "infeasible".into()]
            }
            Err(e) => panic!("solver error at rate {rate}: {e}"),
        };
        row(&[&[f(rate)], &cells[..]].concat());
    }
    let ((from, to), (vars, rows)) = sizes;
    println!(
        "\n{} operators, {} edges (paper: 1412 operators); merged {from} -> {to} vertices; ILP \
         {vars} vars, {rows} constraints",
        app.graph.operator_count(),
        app.graph.edge_count()
    );

    let feasible = discover.len();
    let ordered = discover.iter().zip(&prove).all(|(d, p)| *d <= *p + 1e-9);
    let grid = [5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
    let (mut d95, mut slowest) = (0.0, 0.0);
    if feasible > 0 {
        let (d, p) = (cdf(&mut discover, &grid), cdf(&mut prove, &grid));
        eprintln!("Figure 6 CDF (seconds): percentile, discover, prove");
        for (d, p) in d.iter().zip(&p) {
            eprintln!("{:>6}% {:>10} {:>10}", d.1, f(d.0), f(p.0));
        }
        (d95, slowest) = (d[5].0, p[7].0); // grid[5] = 95 %, grid[7] = 100 %
    }

    let (gap, bound) = (pct(worst_gap), pct(rel_gap));
    claims.check(
        "fig6/every-feasible-point-closes-its-gap",
        "a sweep from \"everything fits easily\" to \"nothing fits\" that lets \"the CPU ... be fully \
         utilized but not over-utilized\", with \"an approximate lower bound to establish a \
         termination condition\"",
        format!(
            "{feasible} feasible (needs ≥ 3) / {infeasible} infeasible / {proved} proved of \
             {N_POINTS} rate points; worst final gap {gap} ≤ rel_gap {bound}"
        ),
        feasible >= 3 && proved == feasible && worst_gap <= rel_gap + 1e-9,
    );
    claims.check(
        "fig6/discovery-never-after-proof",
        "the discover curve lies left of the prove curve",
        format!("time-to-best ≤ total time at all {feasible} feasible points: {ordered}"),
        ordered,
    );
    let (fast, bounded) = (d95 < 30.0, slowest < 720.0);
    claims.check(
        "fig6/seconds-within-paper-regime",
        "95% of runs discover the optimum in < 10 s; proving ran to 12 minutes",
        format!("p95 discovery < 30 s: {fast}; slowest proof < 720 s: {bounded} (seconds: stderr)"),
        fast && bounded,
    );
}

/// Figure 7: per-operator execution time on the TMote Sky (µs per frame,
/// the paper plots this on a log scale), cumulative CPU cost, and the
/// bandwidth of the cut at each stage (KB/s).
fn fig7((app, prof): &Profiled<SpeechApp>, claims: &mut Claims) {
    claims.section = "§7 Fig 7";
    let mote = Platform::tmote_sky();

    header(
        "Figure 7: speech pipeline profile on TMote Sky",
        &["operator", "us/frame", "cum us/frame", "cut KB/s"],
    );
    let (mut cumulative, mut us, mut kbs) = (0.0f64, Vec::new(), Vec::new());
    for (i, &(name, id)) in app.stages.iter().enumerate() {
        us.push(prof.seconds_per_invocation(id, &mote) * 1e6);
        cumulative += us[i];
        kbs.push(prof.edge_bandwidth(EdgeId(i)) / 1000.0);
        row(&[name.to_string(), f(us[i]), f(cumulative), f(kbs[i])]);
    }

    let (fft, cep) = (stage(app, "FFT"), stage(app, "cepstrals"));
    let hamming = us[stage(app, "hamming")];
    let (fft_x, cep_x) = (us[fft] / hamming, us[cep] / hamming);
    claims.check(
        "fig7/raw-stream-about-16-kBps",
        "the raw stream is ~16 KB/s (400-byte frames at 40/s)",
        format!("{} KB/s (accepted: 15 – 18)", f(kbs[0])),
        (15.0..18.0).contains(&kbs[0]),
    );
    let reducing = joined(kbs[fft..].iter().copied(), " > ");
    claims.check(
        "fig7/processing-trades-bandwidth-for-cpu",
        "\"Data is reduced by processing, lowering bandwidth requirements, but increasing CPU \
         requirements.\" (filtBank, logs and cepstrals each shrink the stream; the FFT and \
         cepstral bars tower on the log scale)",
        format!(
            "{reducing} KB/s from the FFT on; FFT {fft_x:.0}x and cepstrals {cep_x:.0}x \
             hamming's cost (needs > 10x)"
        ),
        kbs[fft..].windows(2).all(|w| w[1] < w[0]) && fft_x > 10.0 && cep_x > 10.0,
    );
    claims.check(
        "fig7/full-pipeline-exceeds-frame-period",
        "no split point can fit the application on the TMote at the full rate (2 s per frame on \
         their slower mote build)",
        format!("{:.1} ms per 25 ms frame", cumulative / 1000.0),
        cumulative > 25_000.0,
    );
}

/// Figure 8: normalized cumulative CPU usage per operator across
/// platforms. "If the time required for each operator scaled linearly with
/// the overall speed of the platform, all three lines would be identical."
fn fig8((app, prof): &Profiled<SpeechApp>, claims: &mut Claims) {
    claims.section = "§7 Fig 8";
    let platforms = [
        Platform::tmote_sky(),
        Platform::nokia_n80(),
        Platform::server(),
    ];
    // Per platform: each stage's share of the pipeline's seconds per frame.
    let shares = |p: &Platform| -> (Vec<f64>, f64) {
        let stages = app.stages.iter();
        let seconds: Vec<f64> = stages
            .map(|&(_, id)| prof.seconds_per_invocation(id, p))
            .collect();
        let total: f64 = seconds.iter().sum();
        (seconds.iter().map(|s| s / total).collect(), total)
    };
    let (share, total): (Vec<Vec<f64>>, Vec<f64>) = platforms.iter().map(shares).unzip();

    header(
        "Figure 8: cumulative fraction of total CPU cost per operator",
        &["operator", "Mote", "N80", "PC"],
    );
    let mut cum = [0.0f64; 3];
    for (i, &(name, _)) in app.stages.iter().enumerate() {
        for k in 0..3 {
            cum[k] += share[k][i];
        }
        row(&[name.to_string(), pct(cum[0]), pct(cum[1]), pct(cum[2])]);
    }

    let cep = stage(app, "cepstrals");
    claims.check(
        "fig8/cepstrals-share-larger-on-mote-than-pc",
        "\"on the TMote, floating point operations, which are used heavily in the cepstrals \
         operator, are particularly slow\"",
        format!(
            "{} of the mote's pipeline, {} of the PC's (needs > 1.5x)",
            pct(share[0][cep]),
            pct(share[2][cep])
        ),
        share[0][cep] > 1.5 * share[2][cep],
    );
    // A "relative costs are platform-independent" model predicts the
    // mote's shares from the PC's: the worst per-operator ratio.
    let mut worst = (1.0f64, "");
    for (i, &(name, _)) in app.stages.iter().enumerate() {
        let (actual, naive) = (share[0][i] * total[0], share[2][i] * total[0]);
        let off = (actual / naive).max(naive / actual);
        if actual > 0.0 && naive > 0.0 && off > worst.0 {
            worst = (off, name);
        }
    }
    claims.check(
        "fig8/platform-independent-model-misestimates",
        "\"a model that assumes the relative costs of operators are the same on all platforms \
         would mis-estimate costs by over an order of magnitude\"",
        format!("'{}' by {:.1}x on the mote (needs > 3x)", worst.1, worst.0),
        worst.0 > 3.0,
    );
}

/// Figure 9: loss-rate measurements for a single TMote plus basestation
/// across partitionings, at the full 8 kHz input rate.
fn fig9((app, _): &Profiled<SpeechApp>, claims: &mut Claims) {
    claims.section = "§7 Fig 9";
    let elems = app.trace_elements(240, 9);
    let (mote, channel) = (Platform::tmote_sky(), ChannelParams::mote());
    let cfg = SimulationConfig::motes(1, 17); // 30 simulated s per cutpoint

    header(
        "Figure 9: 1 TMote + basestation, full 8 kHz rate",
        &["cutpoint", "input %", "msgs %", "goodput %"],
    );
    let (mut input, mut msgs, mut good) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (name, node_set)) in app.cutpoints().into_iter().enumerate() {
        let sim = simulate_cut(app, &node_set, &elems, &mote, channel, 1, &cfg);
        let leaf = &sim.leaves[0];
        input.push(leaf.input_processed_ratio());
        msgs.push(leaf.hop_delivery_ratio(0));
        good.push(leaf.goodput_ratio());
        row(&[name.to_string(), pct(input[i]), pct(msgs[i]), pct(good[i])]);
    }

    let (src, fb, cep) = (0, stage(app, "filtBank"), good.len() - 1);
    let (pre, best) = (stage(app, "preemph"), good[peak(&good)]);
    claims.check(
        "fig9/early-cuts-collapse-the-radio",
        "\"the data rate is so high at early cutpoints that it drives the network reception rate \
         to zero\", the expanding early stages (preemph / hamming / prefilt) being the worst \
         network offenders",
        format!(
            "source-only cut: {} of inputs processed (needs > 95%), {} of messages received, {} \
             goodput (needs < 2% each); preemph: {} of messages received (needs no more)",
            pct(input[src]),
            pct(msgs[src]),
            pct(good[src]),
            pct(msgs[pre])
        ),
        input[src] > 0.95 && msgs[src] < 0.02 && good[src] < 0.02 && msgs[pre] <= msgs[src] + 0.01,
    );
    claims.check(
        "fig9/all-node-misses-inputs",
        "\"At later cutpoints too much computation is done at the node and the CPU is busy for \
         long periods, missing input events.\"",
        format!(
            "cepstrals cut: {} of inputs processed (needs < 50%)",
            pct(input[cep])
        ),
        input[cep] < 0.5,
    );
    claims.check(
        "fig9/filtbank-cut-delivers",
        "\"In the middle, even an underpowered TMote can process 10% of sample windows.\"",
        format!(
            "filtBank goodput {} (needs > 5% and > source-only)",
            pct(good[fb])
        ),
        good[fb] > good[src] && good[fb] > 0.05,
    );
    claims.check(
        "fig9/middle-cut-beats-endpoints",
        "picking the right partition matters: their best / worst gap was 20x",
        format!(
            "best {} vs all-server {} (needs > 10x) and all-node {} (needs >)",
            pct(best),
            pct(good[src]),
            pct(good[cep])
        ),
        best > 10.0 * good[src].max(0.001) && best > good[cep].max(0.001),
    );
}

/// Figure 10: goodput across cutpoints for a single TMote vs a 20-mote
/// network, plus §7.3's Meraki result: its optimal cut is point 1.
fn fig10((app, prof): &Profiled<SpeechApp>, claims: &mut Claims) {
    claims.section = "§7.3 Fig 10";
    let elems = app.trace_elements(240, 13);
    let (mote, channel) = (Platform::tmote_sky(), ChannelParams::mote());

    header(
        "Figure 10: goodput per cutpoint, 1 vs 20 TMotes (full rate)",
        &["cutpoint", "1 mote %", "20 motes %"],
    );
    let (mut one, mut twenty) = (Vec::new(), Vec::new());
    for (name, node_set) in app.cutpoints() {
        let run = |n_nodes: usize| {
            let cfg = SimulationConfig::motes(n_nodes, 29); // 30 simulated s
            simulate_cut(app, &node_set, &elems, &mote, channel, n_nodes, &cfg).leaves[0]
                .goodput_ratio()
        };
        one.push(run(1));
        twenty.push(run(20));
        let last = one.len() - 1;
        row(&[name.to_string(), pct(one[last]), pct(twenty[last])]);
    }

    // Meraki Mini: WiFi-class radio, modest CPU. The paper sets α and β
    // per platform; with budget-normalized weights the energy proxy
    // prefers the cheap radio over the expensive CPU.
    let meraki = Platform::meraki_mini();
    let mut uplink = LinkSpec::for_platform(&meraki);
    uplink.beta = 1.0 / uplink.net_budget;
    let site = Site::new("meraki", &meraki).with_alpha(1.0);
    let dep = Deployment::star([(site, uplink)]);
    let part = partition_deployment(&app.graph, prof, &dep, &DeploymentConfig::default())
        .expect("meraki fits at full rate");
    let node_ops = part.leaves[0].site_ops[0].len();
    println!("\nMeraki Mini optimal partition: {node_ops} node op(s)");

    let (p1, p20, cuts) = (peak(&one), peak(&twenty), one.len());
    let (at1, at20) = (app.stages[p1].0, app.stages[p20].0);
    claims.check(
        "fig10/one-mote-peaks-at-filtbank",
        "\"For the case of a single TMote, peak throughput rate occurs at the 4th cut point \
         (filterbank)\"",
        format!("'{at1}' ({}), our cut {} of {cuts}", pct(one[p1]), p1 + 1),
        at1 == "filtBank",
    );
    claims.check(
        "fig10/twenty-motes-peak-at-cepstrals",
        "\"for the whole TMote network in aggregate, peak throughput occurs at the 6th and final \
         cut point (cepstral) ... a many node network is limited by the same bottleneck as a \
         network of only one node: the single link at the root of the routing tree\"",
        format!(
            "'{at20}' ({}), our cut {} of {cuts}, the last; source-only goodput {} ≤ one mote's {}",
            pct(twenty[p20]),
            p20 + 1,
            pct(twenty[0]),
            pct(one[0])
        ),
        at20 == "cepstrals" && p20 >= p1 && twenty[0] <= one[0] + 1e-9,
    );
    claims.section = "§7.3";
    claims.check(
        "fig10/meraki-optimal-cut-is-point-1",
        "Meraki Mini: \"send the raw data directly back to the server\" (cut point 1)",
        format!("{node_ops} operator(s) on the node"),
        node_ops == 1,
    );
}

/// §7.3's validation experiments that are not figures: (1) the
/// network-profiler + binary-search pipeline picks the empirically best
/// cut; (2) predicted vs measured CPU on the Gumstix — the additive model
/// under-predicts by the OS-overhead factor; (3) the ILP vs greedy / local
/// search / exhaustive (why Wishbone uses an exact method).
fn validation((app, prof): &Profiled<SpeechApp>, claims: &mut Claims) {
    claims.section = "§7.3";
    let (mote, channel) = (Platform::tmote_sky(), ChannelParams::mote());
    let cfg = DeploymentConfig::default();
    let elems = app.trace_elements(240, 5);

    // ---- 1. Rate search vs empirical ground truth -----------------------
    let netprof = profile_network(channel, 1, 28, 0.90, 99);
    // Budget = network profile; CPU derated by the measured OS-overhead
    // factor (the paper's §7.3 proposal).
    let site = Site::new("mote", &mote).with_measured_overheads();
    let cpu_budget = site.cpu_budget;
    let uplink = LinkSpec {
        beta: 1.0,
        net_budget: netprof.max_aggregate_payload_rate,
    };
    let dep = Deployment::star([(site, uplink)]);
    let r = max_sustainable_rate_deployment(&app.graph, prof, &dep, &cfg, 8.0, 0.01)
        .expect("solver ok")
        .expect("feasible");
    let leaf = &r.partition.leaves[0];
    let rec = leaf.site_ops[0].len() - 1; // the cut after the last stage on the mote
    let rec_name = app.stages[rec].0;

    header(
        "Validation 1: the searched rate against simulated cutpoints (1 TMote)",
        &["cutpoint", "goodput", "input", "mote busy", "goodput @0.8"],
    );
    let base = SimulationConfig::motes(1, 77);
    let at = |scale: f64, node_set: &HashSet<OperatorId>| {
        let dcfg = SimulationConfig {
            rate_multiplier: scale * r.rate,
            ..base.clone()
        };
        simulate_cut(app, node_set, &elems, &mote, channel, 1, &dcfg)
    };
    let (mut good, mut eased, mut input, mut busy) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, (name, node_set)) in app.cutpoints().into_iter().enumerate() {
        let rep = at(1.0, &node_set);
        good.push(rep.leaves[0].goodput_ratio());
        eased.push(at(0.8, &node_set).leaves[0].goodput_ratio());
        input.push(rep.leaves[0].input_processed_ratio());
        busy.push(rep.site_cpu_utilization[1]);
        let cells = [pct(good[i]), pct(input[i]), pct(busy[i]), pct(eased[i])];
        row(&[&[name.to_string()], &cells[..]].concat());
    }
    println!(
        "\nbinary search: max sustainable rate x{:.3} ({:.1} frames/s), cut after '{rec_name}', \
         predicted mote CPU {:.3} of budget {cpu_budget:.3}; '@0.8' is 0.8 x that rate",
        r.rate,
        r.rate * 40.0,
        leaf.predicted_cpu[0]
    );

    let (best, best_eased) = (peak(&good), peak(&eased));
    claims.check(
        "validation/recommended-cut-is-empirical-best",
        "\"3 input events per second ... cut point 4, right after filterbank, as in the empirical \
         data\": the binary search's cut is the empirically best one",
        format!(
            "at 0.8 x the searched rate the recommended '{rec_name}' delivers {} and the \
             empirical best is '{}' at {}",
            pct(eased[rec]),
            app.stages[best_eased].0,
            pct(eased[best_eased])
        ),
        best_eased == rec,
    );
    // The search stops on the right side of the *model's* cliff; the
    // simulated mote falls off earlier because it also pays for its radio.
    claims.differs(
        "validation/searched-rate-overshoots-by-unmodelled-radio-cpu",
        "the recommendation is the empirical best at the searched rate itself",
        format!(
            "at the searched rate '{rec_name}' processes {} of its inputs and delivers {}, {:.2} \
             of '{}' {}: the simulator charges {} ms of CPU per radio packet plus task overhead, \
             the additive model neither — the source-only cut, with no operator work on the \
             mote, is already {} busy",
            pct(input[rec]),
            pct(good[rec]),
            good[rec] / good[best],
            app.stages[best].0,
            pct(good[best]),
            f(base.per_packet_cpu_s * 1e3),
            pct(busy[0])
        ),
    );

    // ---- 2. Predicted vs measured CPU (Gumstix) --------------------------
    let gumstix = Platform::gumstix();
    let gsite = Site::new("gumstix", &gumstix);
    let gdep = Deployment::star([(gsite, LinkSpec::for_platform(&gumstix))]);
    let gpart = partition_deployment(&app.graph, prof, &gdep, &cfg);
    let gleaf = &gpart.expect("gumstix fits").leaves[0];
    let dcfg = SimulationConfig {
        duration_s: 20.0,
        task_model: TaskModel::threaded(),
        per_packet_cpu_s: 20e-6,
        ..SimulationConfig::motes(1, 3)
    };
    let wifi = ChannelParams::wifi(400_000.0);
    let rep = simulate_cut(app, &gleaf.site_ops[0], &elems, &gumstix, wifi, 1, &dcfg);
    let (predicted, measured) = (gleaf.predicted_cpu[0], rep.site_cpu_utilization[1]);
    let ratio = predicted / measured;
    claims.check(
        "validation/gumstix-underprediction-ratio",
        "Gumstix: 11.5% predicted vs 15% measured CPU (a 0.77 under-prediction)",
        format!(
            "{} vs {}: {ratio:.2} (accepted: 0.70 – 0.85)",
            pct(predicted),
            pct(measured)
        ),
        (0.70..=0.85).contains(&ratio),
    );

    // ---- 3. Baselines: ILP vs heuristics ---------------------------------
    header(
        "Validation 3: ILP vs heuristics (speech graph, objective = cut bandwidth)",
        &["cpu budget", "ILP", "greedy", "local srch", "exhaustive"],
    );
    let pg = build_partition_graph(&app.graph, prof, &mote, Mode::Permissive, 0.1).expect("pins");
    // The budgets straddle the per-cut CPU at this rate (prefilt 0.006,
    // FFT 0.090, filtBank 0.106, logs 0.177, cepstrals 1.134), so the
    // optimum moves from row to row.
    let budgets = [0.05, 0.10, 0.15, 0.50, 1.20];
    let (mut exact, mut optima) = (0, Vec::new());
    for budget in budgets {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e12);
        let ilp = evaluate(&pg, &ilp_cut(&pg, &obj), &obj);
        let greedy_set = greedy(&pg, &obj);
        let gr = evaluate(&pg, &greedy_set, &obj);
        let ls = evaluate(&pg, &local_search(&pg, &greedy_set, &obj, 50), &obj);
        let (_, ex) = exhaustive(&pg, &obj, 20).expect("feasible");
        row(&[f(budget), f(ilp.net), f(gr.net), f(ls.net), f(ex.net)]);
        let bounds = ilp.objective <= gr.objective + 1e-9 && ilp.objective <= ls.objective + 1e-9;
        exact += usize::from((ilp.objective - ex.objective).abs() < 1e-6 && bounds);
        if !optima.contains(&f(ilp.net)) {
            optima.push(f(ilp.net));
        }
    }
    claims.check(
        "validation/ilp-matches-exhaustive-at-every-budget",
        "Wishbone uses an exact method: the ILP's cut is the optimal one, and heuristics can only \
         match it or do worse",
        format!(
            "ILP = exhaustive, ≤ greedy and ≤ local search at {exact} of {} budgets, over {} \
             distinct optima (needs ≥ 3): {} B/s",
            budgets.len(),
            optima.len(),
            optima.join(", ")
        ),
        exact == budgets.len() && optima.len() >= 3,
    );
}

fn main() -> ExitCode {
    println!("# REPRO — the paper's evaluation as this repository reproduces it\n");
    println!(
        "Generated, not written: the stdout of `cargo bench -p wishbone-bench --bench repro > \
         REPRO.md`, byte-identical from run to run; CI regenerates it and fails on a diff. Each \
         figure's series comes first, then the paper's claims checked against them."
    );
    let speech = profiled_speech();
    let mut claims = Claims::default();
    fig3(&mut claims);
    fig5a(&profiled_eeg(build_eeg_channel(), 8, 3..6), &mut claims);
    fig5b(&speech, &mut claims);
    let eeg22 = profiled_eeg(build_eeg_app(EegParams::default()), 6, 2..4);
    fig6(&eeg22, &mut claims);
    fig7(&speech, &mut claims);
    fig8(&speech, &mut claims);
    fig9(&speech, &mut claims);
    fig10(&speech, &mut claims);
    validation(&speech, &mut claims);
    print!("{}", claims.render());
    match claims.failed() {
        0 => ExitCode::SUCCESS,
        failed => {
            eprintln!("{failed} claim(s) FAILED");
            ExitCode::FAILURE
        }
    }
}
