//! Figure 5(a): one EEG channel — number of operators in the optimal node
//! partition as the input data rate grows, for TMote Sky/TinyOS and Nokia
//! N80/JavaME. "As we increased the data rate (moving right), fewer
//! operators can fit within the CPU bounds on the node (moving down). The
//! sloping lines show that every stage of processing yields data
//! reductions." α = 0, β = 1 as in the paper, over 48 rate points.

use wishbone_apps::{build_eeg_channel, EegApp};
use wishbone_core::{
    partition_deployment, Deployment, DeploymentConfig, LinkSpec, PartitionError, Site,
};
use wishbone_profile::{profile, GraphProfile, Platform};

fn profiled() -> (EegApp, GraphProfile) {
    let mut app = build_eeg_channel();
    let traces = app.traces(8, 3..6, 42);
    let prof = profile(&mut app.graph, &traces).expect("profiling succeeds");
    (app, prof)
}

fn main() {
    let (app, prof) = profiled();
    // Geometric grid over a wide range so both platforms' shedding
    // regions (TMote ~30x, N80 ~100x) are resolved.
    let rates = wishbone_bench::geometric_rates(1.0, 512.0, 48);

    let tmote = Platform::tmote_sky();
    let n80 = Platform::nokia_n80();

    wishbone_bench::header(
        &format!(
            "Figure 5a: node-partition size vs rate (1 EEG channel, {} ops)",
            app.graph.operator_count()
        ),
        &["rate x", "TMoteSky ops", "NokiaN80 ops"],
    );

    let count = |p: &Platform, rate: f64| -> Option<usize> {
        // Isolate the CPU effect like the paper: bandwidth is objective,
        // CPU is the binding budget.
        let uplink = LinkSpec {
            beta: 1.0,
            net_budget: 1e12,
        };
        let dep = Deployment::star([(Site::new(p.name.clone(), p), uplink)]);
        let cfg = DeploymentConfig::default().at_rate(rate);
        match partition_deployment(&app.graph, &prof, &dep, &cfg) {
            Ok(part) => Some(part.leaves[0].site_ops[0].len()),
            Err(PartitionError::Infeasible) => None,
            Err(e) => panic!("solver error: {e}"),
        }
    };

    let mut series: Vec<(f64, Option<usize>, Option<usize>)> = Vec::new();
    for &r in &rates {
        let t = count(&tmote, r);
        let n = count(&n80, r);
        wishbone_bench::row(&[
            wishbone_bench::f(r),
            t.map_or("-".into(), |v| v.to_string()),
            n.map_or("-".into(), |v| v.to_string()),
        ]);
        series.push((r, t, n));
    }

    // Shape checks matching the paper's curves.
    let tmote_counts: Vec<usize> = series.iter().filter_map(|s| s.1).collect();
    for w in tmote_counts.windows(2) {
        assert!(w[1] <= w[0], "TMote curve must be non-increasing");
    }
    let n80_counts: Vec<usize> = series.iter().filter_map(|s| s.2).collect();
    for w in n80_counts.windows(2) {
        assert!(w[1] <= w[0], "N80 curve must be non-increasing");
    }
    // At any given rate the N80 fits at least as many operators.
    for (_, t, n) in &series {
        if let (Some(t), Some(n)) = (t, n) {
            assert!(n >= t, "N80 holds >= operators than the mote at equal rate");
        }
    }
    assert!(
        tmote_counts.first().copied().unwrap_or(0) > tmote_counts.last().copied().unwrap_or(0),
        "the sweep must actually shed operators"
    );
    println!("\ncurves are non-increasing; N80 dominates TMote at every rate (paper shape)");
}
