//! Exact vs root-capped partitioning on a near-cliff forest.
//!
//! The instance is the calibrated tight forest from
//! `tests/approx_nearcliff.rs`: two 4-mote wards of 4-channel EEG caps
//! behind asymmetric gateways (gw-a's backhaul starved to 500 B/s),
//! driven at rates approaching its feasibility cliff (x3.16456). This is
//! the regime where exact branch-and-bound used to *starve* — hundreds
//! of nodes before the first integer point — and where the multilevel
//! heuristic is branch-and-bound's seed on demand. Here, though, every
//! row is answered before branch-and-bound runs:
//!
//! * the closure — the encoding less its budget rows, one min-cut —
//!   places the forest within every budget up to its ceiling x3.164557,
//!   where gw-a's uplink binds. So it is the optimum at each rate below,
//!   proved with no LP (0 nodes, no seed, certified gap 0), for the
//!   exact search and the root-capped one (`ilp.max_nodes = 1`) alike;
//! * the root-capped search is the bounded-time answer where the closure
//!   does not fit: an integral root LP, or else the multilevel cut, with
//!   `DeploymentPartition::certified_gap` measured from the root LP
//!   bound (`tests/approx_nearcliff.rs`'s starved 8-channel ward).
//!
//! Run with: `cargo run --release --example approx_forest`

use wishbone::prelude::*;

fn main() {
    let app = build_eeg_app(EegParams {
        n_channels: 4,
        ..Default::default()
    });
    let traces = app.traces(4, 1..3, 7);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");

    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &phone),
        LinkSpec {
            beta: 1.0,
            net_budget: 500.0, // metered backhaul: the binding row
        },
    );
    let gw_b = dep.attach(
        root,
        Site::new("gw-b", &phone),
        LinkSpec {
            beta: 1.0,
            net_budget: 400_000.0,
        },
    );
    let uplink = LinkSpec {
        beta: 1.0,
        net_budget: 4.0 * mote.radio.goodput_bytes_per_sec,
    };
    dep.attach(gw_a, Site::new("ward-a", &mote).with_count(4), uplink);
    dep.attach(gw_b, Site::new("ward-b", &mote).with_count(4), uplink);

    let mut exact = PreparedDeployment::new(&app.graph, &prof, &dep, &DeploymentConfig::default())
        .expect("pins ok");
    let mut capped_cfg = DeploymentConfig::default();
    capped_cfg.ilp.max_nodes = 1;
    let mut capped =
        PreparedDeployment::new(&app.graph, &prof, &dep, &capped_cfg).expect("pins ok");

    println!("rate      exact obj   (seeded, first inc)   capped obj  certified gap");
    for rate in [1.0, 2.0, 3.0, 3.15] {
        let e = exact.solve_at(rate).expect("below the cliff");
        // Start from this rate's own root, not the previous rate's
        // placement.
        capped.reset_warm_start();
        let a = capped.solve_at(rate).expect("below the cliff");
        let gap = a.certified_gap.expect("every placement carries one");
        println!(
            "x{rate:<7} {:>11.2}   ({}, {:?})   {:>10.2}  {:.4}",
            e.objective,
            e.ilp_stats.seeded,
            e.ilp_stats.incumbents.first().map(|i| i.0),
            a.objective,
            gap
        );
        assert!(
            a.objective >= e.objective - 1e-9 * (1.0 + e.objective.abs()),
            "a root-capped search beat the exact optimum"
        );
        assert!(
            (a.objective - e.objective) / a.objective.abs().max(f64::EPSILON) <= gap + 1e-9,
            "certificate violated: capped {} exact {} gap {gap}",
            a.objective,
            e.objective
        );
        // What the one node cost.
        println!("          capped: {}", report_stats(&a.ilp_stats));
    }

    // Past the cliff both searches agree there is nothing to place.
    match exact.solve_at(4.0) {
        Err(e) => println!("x4.0 (past the cliff): the exact search says {e}"),
        Ok(p) => panic!("x4.0 should be infeasible, got obj {}", p.objective),
    }
    match capped.solve_at(4.0) {
        Err(e) => println!("x4.0 (past the cliff): the capped search says {e}"),
        Ok(p) => panic!("x4.0 should be infeasible, got obj {}", p.objective),
    }
}
