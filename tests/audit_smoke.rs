//! Auditor smoke over the repo's flagship instances (ISSUE 6, CI gate):
//! the fig6-scale 22-channel EEG chain and the two-ward forest
//! deployment must audit with **zero errors**, on both simplex
//! backends, before and after solving (rate re-targeting rewrites
//! budget right-hand sides in place — the structure must survive it).

use wishbone::ilp::SolverBackend;
use wishbone::prelude::*;

/// The fig6 instance: 22-channel EEG on telos → phone → server. An
/// unoptimized build solves the dense 972-constraint instance in
/// minutes, so debug runs audit a reduced montage; the CI gate runs
/// this test `--release` at full fig6 scale.
#[test]
fn fig6_multitier_audits_clean_on_both_backends() {
    let params = if cfg!(debug_assertions) {
        EegParams {
            n_channels: 6,
            ..Default::default()
        }
    } else {
        EegParams::default()
    };
    let app = build_eeg_app(params);
    let traces = app.traces(8, 3..6, 5);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");
    let chain = [
        Platform::tmote_sky(),
        Platform::iphone(),
        Platform::server(),
    ];
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let mut cfg = DeploymentConfig::default();
        cfg.ilp.backend = backend;
        cfg.ilp.rel_gap = 0.025;
        cfg.ilp.time_limit = Some(std::time::Duration::from_secs(5));
        let mut prep = PreparedDeployment::new(&app.graph, &prof, &Deployment::chain(&chain), &cfg)
            .expect("pin analysis succeeds");
        let report = prep.audit();
        assert!(
            !report.has_errors(),
            "{backend:?}: fig6 encoding rejected:\n{report}"
        );
        // Re-targeting the rate rewrites budget rhs in place; the
        // audited structure must be invariant under it.
        let _ = prep.solve_at(0.25);
        let report = prep.audit();
        assert!(
            !report.has_errors(),
            "{backend:?}: fig6 encoding rejected after a solve:\n{report}"
        );
    }
}

/// The forest instance: two wards of EEG caps behind asymmetric
/// gateway backhauls (the `forest_eeg` example's topology at a lighter
/// montage so the debug-build profile stays fast).
#[test]
fn forest_deployment_audits_clean_on_both_backends() {
    let app = build_eeg_app(EegParams {
        n_channels: if cfg!(debug_assertions) { 2 } else { 4 },
        ..Default::default()
    });
    let traces = app.traces(8, 3..6, 5);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");

    let mote = Platform::tmote_sky();
    let relay = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &relay),
        LinkSpec {
            beta: 1.0,
            net_budget: 100.0,
        },
    );
    let gw_b = dep.attach(
        root,
        Site::new("gw-b", &relay),
        LinkSpec {
            beta: 1.0,
            net_budget: 400_000.0,
        },
    );
    let cap_uplink = LinkSpec {
        beta: 1.0,
        net_budget: 1_200.0,
    };
    dep.attach(gw_a, Site::new("ward-a", &mote).with_count(20), cap_uplink);
    dep.attach(gw_b, Site::new("ward-b", &mote).with_count(20), cap_uplink);

    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let mut cfg = DeploymentConfig::default();
        cfg.ilp.backend = backend;
        cfg.ilp.rel_gap = 0.025;
        cfg.ilp.time_limit = Some(std::time::Duration::from_secs(5));
        let mut prep = PreparedDeployment::new(&app.graph, &prof, &dep, &cfg).expect("pins ok");
        let report = prep.audit();
        assert!(
            !report.has_errors(),
            "{backend:?}: forest encoding rejected:\n{report}"
        );
        let _ = prep.solve_at(0.25);
        let report = prep.audit();
        assert!(
            !report.has_errors(),
            "{backend:?}: forest encoding rejected after a solve:\n{report}"
        );
    }
}

/// The binary encodings audit clean too: the restricted one through the
/// prepared 2-site star, the general DAG one straight from the
/// standalone encoder.
#[test]
fn binary_prepared_partitions_audit_clean() {
    use wishbone_oracle::{
        audit_binary, build_partition_graph, encode, preprocess, Encoding, ObjectiveConfig,
    };
    let app = build_eeg_app(EegParams {
        n_channels: 2,
        ..Default::default()
    });
    let traces = app.traces(8, 3..6, 5);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");
    let mote = Platform::tmote_sky();
    let uplink = LinkSpec::for_platform(&mote);

    let dep = Deployment::star([(Site::new("mote", &mote), uplink)]);
    let prep = PreparedDeployment::new(&app.graph, &prof, &dep, &DeploymentConfig::default())
        .expect("pin analysis succeeds");
    let report = prep.audit();
    assert!(
        !report.has_errors(),
        "restricted binary encoding rejected:\n{report}"
    );

    let pg = build_partition_graph(&app.graph, &prof, &mote, Mode::Permissive, 1.0)
        .expect("pin analysis succeeds");
    let merged = preprocess(&pg).expect("merge succeeds").graph;
    let obj = ObjectiveConfig::bandwidth_only(1.0, uplink.net_budget);
    let report = audit_binary(&encode(&merged, Encoding::General, &obj));
    assert!(
        !report.has_errors(),
        "general binary encoding rejected:\n{report}"
    );
}
