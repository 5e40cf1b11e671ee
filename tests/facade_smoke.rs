//! Facade smoke test: both paper applications build, profile, and
//! partition for a TMote Sky purely through `wishbone::prelude`, and the
//! resulting partitions satisfy the invariants every deployment relies on:
//! the CPU budget is respected and sources stay on the node side.

use wishbone::prelude::*;

/// The paper's node/server split: one `platform` leaf under the server.
fn two_site(platform: &Platform) -> Deployment {
    Deployment::star([(
        Site::new(platform.name.clone(), platform),
        LinkSpec::for_platform(platform),
    )])
}

#[test]
fn speech_app_partitions_on_tmote_sky() {
    let app = build_speech_app();
    let trace = app.trace(60, 17);
    let prof = profile(&app.graph, &[trace]).expect("profiling succeeds");

    let mote = Platform::tmote_sky();
    // Full 8 kHz exceeds a TMote (§7.2); an eighth of the rate fits.
    let cfg = DeploymentConfig::default().at_rate(0.125);
    let part = partition_deployment(&app.graph, &prof, &two_site(&mote), &cfg)
        .expect("feasible at 1/8 rate");
    let leaf = &part.leaves[0];

    assert!(
        leaf.predicted_cpu[0] <= 1.0,
        "predicted CPU {} exceeds the whole-processor budget",
        leaf.predicted_cpu[0]
    );
    assert!(
        leaf.site_ops[0].contains(&app.source),
        "speech source must be pinned to the node partition"
    );
}

#[test]
fn eeg_app_partitions_on_tmote_sky() {
    let app = build_eeg_app(EegParams::default());
    let traces = app.traces(4, 1..3, 23);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");

    let mote = Platform::tmote_sky();
    let cfg = DeploymentConfig::default().at_rate(1.0);
    let part = partition_deployment(&app.graph, &prof, &two_site(&mote), &cfg)
        .expect("feasible at reference rate");
    let leaf = &part.leaves[0];

    assert!(
        leaf.predicted_cpu[0] <= 1.0,
        "predicted CPU {} exceeds the whole-processor budget",
        leaf.predicted_cpu[0]
    );
    for src in &app.sources {
        assert!(
            leaf.site_ops[0].contains(src),
            "EEG source {src} must be pinned to the node partition"
        );
    }
}
