//! The drift loop end to end: a [`LiveProfile`] fed samples consistent
//! with the solved-against [`GraphProfile`] never flags drift (property
//! test over in-band jitter); a mid-stream 2× cost inflation is caught
//! and names exactly the inflated operator; and a flagged drift maps
//! through [`drift_to_deltas`] onto the standing encoding's in-place
//! rescale path — the warm re-solve finishes with `encodes() == 1`.

use proptest::prelude::*;
use wishbone::dataflow::EdgeId;
use wishbone::prelude::*;

/// The profiled 2-channel EEG app plus the platform drift is judged on.
fn eeg_fixture() -> (wishbone::dataflow::Graph, GraphProfile, Platform) {
    let app = build_eeg_app(EegParams {
        n_channels: 2,
        ..Default::default()
    });
    let traces = app.traces(8, 3..6, 5);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");
    (app.graph, prof, Platform::tmote_sky())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Samples drawn from the solved-against profile — per-operator
    /// costs and per-edge wire bytes, each within ±10% jitter, well
    /// inside the default ±50% band — must never flag drift, however
    /// the jitter lands. EWMAs of in-band samples stay in-band (convex
    /// combinations), so a false positive here is a detector bug.
    #[test]
    fn in_band_samples_never_flag_drift(jitter in prop::collection::vec(0.9f64..1.1, 256)) {
        let (_graph, prof, mote) = eeg_fixture();
        let mut live = LiveProfile::new(0.3);
        let mut k = 0;
        let mut draw = || {
            let j = jitter[k % jitter.len()];
            k += 1;
            j
        };
        for op in 0..prof.operator_count() {
            let expected = prof.seconds_per_invocation(OperatorId(op), &mote);
            for _ in 0..12 {
                let sample = expected * draw();
                live.observe(&TraceEvent::OperatorCost {
                    site: 0,
                    op: OperatorId(op),
                    cpu_s: sample,
                    profile_s: sample,
                });
            }
        }
        for edge in 0..prof.edge_count() {
            let expected = prof.mean_element_bytes(EdgeId(edge));
            for _ in 0..12 {
                live.observe(&TraceEvent::EdgeElement {
                    site: 0,
                    edge: EdgeId(edge),
                    wire_bytes: (expected * draw()).round() as usize,
                    delivered: true,
                });
            }
        }
        let detector = DriftDetector::new(&prof, std::slice::from_ref(&mote), DriftConfig::default());
        let report = detector.detect(&live);
        prop_assert!(report.is_clean(), "false positive: {report}");
    }
}

/// One operator's cost doubles mid-stream; the detector flags exactly
/// that operator — nothing else, no edge drift — before the stream ends
/// (the victim's EWMA crosses the band after a handful of inflated
/// samples; `min_samples` was already met during the clean prefix).
#[test]
fn two_x_inflation_flags_exactly_the_inflated_operator() {
    let (_graph, prof, mote) = eeg_fixture();
    let victim = (0..prof.operator_count())
        .map(OperatorId)
        .max_by(|&a, &b| {
            prof.seconds_per_invocation(a, &mote)
                .total_cmp(&prof.seconds_per_invocation(b, &mote))
        })
        .expect("the app has operators");

    let mut live = LiveProfile::new(0.5);
    // Clean prefix: every operator at its profiled cost, enough samples
    // to clear the detector's min_samples gate.
    for op in 0..prof.operator_count() {
        let expected = prof.seconds_per_invocation(OperatorId(op), &mote);
        for _ in 0..8 {
            live.observe(&TraceEvent::OperatorCost {
                site: 0,
                op: OperatorId(op),
                cpu_s: expected,
                profile_s: expected,
            });
        }
    }
    for edge in 0..prof.edge_count() {
        let expected = prof.mean_element_bytes(EdgeId(edge));
        for _ in 0..8 {
            live.observe(&TraceEvent::EdgeElement {
                site: 0,
                edge: EdgeId(edge),
                wire_bytes: expected.round() as usize,
                delivered: true,
            });
        }
    }
    let detector = DriftDetector::new(&prof, std::slice::from_ref(&mote), DriftConfig::default());
    assert!(detector.detect(&live).is_clean(), "clean prefix flags");

    // Mid-stream inflation: the victim starts costing 2×. With
    // alpha = 0.5 the EWMA ratio reaches 1.75 after two inflated
    // samples — past the 1.5 band edge while the stream is still going.
    let expected = prof.seconds_per_invocation(victim, &mote);
    for _ in 0..4 {
        live.observe(&TraceEvent::OperatorCost {
            site: 0,
            op: victim,
            cpu_s: 2.0 * expected,
            profile_s: 2.0 * expected,
        });
    }
    let report = detector.detect(&live);
    assert!(!report.is_clean());
    assert_eq!(report.operators.len(), 1, "only the victim: {report}");
    assert_eq!(report.operators[0].op, victim);
    assert!(report.operators[0].ratio > 1.5);
    assert!(report.edges.is_empty(), "no edge drift was injected");
}

/// The 2-channel × 4-cap forest: two phone gateways under the server,
/// four motes under each, every budget finite but the server's.
fn two_ward_forest(mote: &Platform) -> Deployment {
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &phone),
        LinkSpec {
            beta: 1.0,
            net_budget: 1e9,
        },
    );
    let gw_b = dep.attach(
        root,
        Site::new("gw-b", &phone),
        LinkSpec {
            beta: 1.0,
            net_budget: 1e9,
        },
    );
    let ward_uplink = LinkSpec {
        beta: 1.0,
        net_budget: 4.0 * mote.radio.goodput_bytes_per_sec,
    };
    dep.attach(gw_a, Site::new("ward-a", mote).with_count(4), ward_uplink);
    dep.attach(gw_b, Site::new("ward-b", mote).with_count(4), ward_uplink);
    dep
}

/// Acceptance pin: on the 2-channel × 4-cap forest, a flagged 2× drift
/// maps to `SetCpuBudget` deltas, the standing encoding absorbs them in
/// place, and the warm re-solve completes — with `encodes() == 1` (the
/// ILP was never re-encoded) and a second `solves()` tick.
#[test]
fn drift_triggers_warm_resolve_without_reencode() {
    let (graph, prof, mote) = eeg_fixture();
    let dep = two_ward_forest(&mote);
    let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &DeploymentConfig::default())
        .expect("encoding succeeds");
    let base = prep.solve_at(0.25).expect("baseline solve succeeds");
    assert_eq!(prep.encodes(), 1);
    assert_eq!(prep.solves(), 1);

    // A leaf-pinned operator (sources live on the motes), chosen
    // deterministically; its site has a finite CPU budget, so the drift
    // maps to a budget rewrite rather than being skipped.
    let victim = base.leaves[0].site_ops[0]
        .iter()
        .copied()
        .min()
        .expect("the leaf hosts its sources");
    let expected = prof.seconds_per_invocation(victim, &mote);
    let report = DriftReport {
        operators: vec![OperatorDrift {
            site: base.leaves[0].path[0].0,
            op: victim,
            expected_s: expected,
            observed_s: 2.0 * expected,
            ratio: 2.0,
        }],
        edges: vec![],
    };
    let deltas = drift_to_deltas(&report, &dep, &base);
    assert!(!deltas.is_empty(), "finite-budget drift must map to deltas");
    assert!(deltas
        .iter()
        .all(|d| matches!(d, DeploymentDelta::SetCpuBudget { .. })));

    prep.apply_delta(&deltas);
    let resolved = prep.solve_at(0.25).expect("warm re-solve succeeds");

    // In-place rescale, no re-encode; the tighter budget can only make
    // the objective worse (or leave it unchanged).
    assert_eq!(prep.encodes(), 1, "drift re-solve must not re-encode");
    assert_eq!(prep.solves(), 2);
    assert!(resolved.objective >= base.objective - 1e-9);
}

/// A mote operator and a ward-uplink edge go silent: every live sample
/// reads 0 s and 0 bytes, so the detector flags both at ratio 0. No
/// budget can be divided by that; both keep their old budgets, the
/// deltas apply without a panic, and the re-solve is the un-drifted
/// answer.
#[test]
fn a_zero_ratio_drift_keeps_the_old_budgets() {
    let (graph, prof, mote) = eeg_fixture();
    let dep = two_ward_forest(&mote);
    let cfg = DeploymentConfig::default();
    let mut prep = PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("encoding succeeds");
    let base = prep.solve_at(0.25).expect("baseline solve succeeds");
    let op = base.leaves[0].site_ops[0]
        .iter()
        .copied()
        .min()
        .expect("the leaf hosts its sources");
    let edge = *base.leaves[0].link_cut_edges[0]
        .first()
        .expect("the ward's uplink carries an edge");

    let mut live = LiveProfile::new(0.5);
    for _ in 0..8 {
        live.observe(&TraceEvent::OperatorCost {
            site: 0,
            op,
            cpu_s: 0.0,
            profile_s: 0.0,
        });
        live.observe(&TraceEvent::EdgeElement {
            site: 0,
            edge,
            wire_bytes: 0,
            delivered: true,
        });
    }
    let report = DriftDetector::new(&prof, std::slice::from_ref(&mote), DriftConfig::default())
        .detect(&live);
    let flagged: Vec<_> = report.operators.iter().map(|d| (d.op, d.ratio)).collect();
    assert_eq!(flagged, [(op, 0.0)]);
    let flagged: Vec<_> = report.edges.iter().map(|d| (d.edge, d.ratio)).collect();
    assert_eq!(flagged, [(edge, 0.0)]);

    let deltas = drift_to_deltas(&report, &dep, &base);
    assert_eq!(deltas, vec![], "a zero ratio moves no budget");
    prep.apply_delta(&deltas);
    let resolved = prep.solve_at(0.25).expect("re-solve succeeds");
    assert_eq!(resolved.objective.to_bits(), base.objective.to_bits());
    for (a, b) in resolved.leaves.iter().zip(&base.leaves) {
        assert_eq!(a.site_ops, b.site_ops);
    }
}

/// A traced replay of the very trace the profile was taken on has not
/// drifted. On a 3-tier chain `[tmote_sky, iphone, server]` the motes run
/// each channel's source, float conversion and first filter stage, the
/// phone the rest of the program, so operators run on two platforms; the
/// detector must price each site's samples on that site's platform, and
/// compare them with what the profile prices — not with the charged
/// seconds, which add OS and task overheads.
#[test]
fn a_replay_of_the_profiled_trace_on_a_tiered_chain_is_clean() {
    let app = build_eeg_app(EegParams {
        n_channels: 2,
        ..Default::default()
    });
    let traces = app.traces(8, 3..6, 5);
    let prof = profile(&app.graph, &traces).expect("profiling succeeds");
    let chain = [
        Platform::tmote_sky(),
        Platform::iphone(),
        Platform::server(),
    ];
    let topo = TreeTopology::chain(
        &chain,
        &[ChannelParams::mote(), ChannelParams::wifi(400_000.0)],
        1,
    );
    let on_mote = |name: &str| {
        name.ends_with("/source") || name.ends_with("/toFloat") || name.contains("/low1/")
    };
    let graph = &app.graph;
    let (mote_ops, phone_ops): (Vec<OperatorId>, Vec<OperatorId>) = graph
        .operator_ids()
        .filter(|&id| graph.spec(id).namespace == Namespace::Node)
        .partition(|&id| on_mote(&graph.spec(id).name));
    let feeds = app
        .sources
        .iter()
        .zip(&traces)
        .map(|(&source, t)| SourceFeed {
            source,
            trace: t.elements.clone(),
            rate_hz: t.rate_hz,
        })
        .collect();
    let routes = vec![LeafRoute::chain(graph, &[mote_ops, phone_ops], feeds)];
    // Eight passes over the 8-window trace, at a rate the mote keeps up
    // with, give the least-invoked operator the default `min_samples`.
    let rate = 0.25;
    let cfg = SimulationConfig {
        duration_s: 64.0 / (traces[0].rate_hz * rate),
        rate_multiplier: rate,
        ..SimulationConfig::motes(1, 7)
    };
    let mut live = LiveProfile::new(0.2);
    let sim = simulate_deployment_tree_traced(
        graph,
        &topo,
        &routes,
        &cfg,
        &FailurePlan::default(),
        &mut live,
    );
    let leaf = &sim.leaves[0];
    assert_eq!(
        leaf.events_processed, leaf.events_offered,
        "the mote keeps up"
    );
    let min_samples = DriftConfig::default().min_samples;
    for (position, ops) in routes[0].site_ops[..2].iter().enumerate() {
        let site = routes[0].path[position];
        for &op in ops {
            let samples = live.operator(site, op).map_or(0, |e| e.samples);
            assert!(
                samples >= min_samples,
                "{} at site {site}: {samples} samples",
                graph.spec(op).name
            );
        }
    }

    let report = DriftDetector::new(&prof, &topo.platforms, DriftConfig::default()).detect(&live);
    assert!(
        report.is_clean(),
        "an undrifted replay flags drift:\n{report}"
    );
}
