//! Property and mutation tests for the static model auditor (ISSUE 6).
//!
//! Two directions, both required for the auditor to be trustworthy:
//!
//! * **No false positives** — over random binary (restricted *and*
//!   general), multi-tier, and forest-deployment encodings, the auditor
//!   must return zero `Error`-severity diagnostics. (The encoders also
//!   self-audit under `debug_assertions`, so the whole suite doubles as
//!   a corpus; these tests make the contract explicit and keep it alive
//!   in release runs.)
//! * **No false negatives** — seeded corruptions of a healthy encoding
//!   (a dropped monotonicity row, a sign-flipped uplink coefficient, a
//!   duplicated uplink budget row) must each be flagged with `Error`
//!   severity and the specific diagnostic code.

use proptest::prelude::*;

use wishbone::audit::audit_model;
use wishbone::core::{
    audit_deployment, deployment_spec, encode_deployment, DeploymentObjective, EncodedDeployment,
    LeafChain, Pin, TierObjective, TieredGraph,
};
use wishbone::dataflow::OperatorId;
use wishbone::prelude::AuditCode;
use wishbone_oracle::{
    audit_binary, audit_multitier, encode, encode_multitier, tiered_from_binary, EncodedMultiTier,
    Encoding, ObjectiveConfig, PEdge, PVertex, PartitionGraph,
};

/// Random layered DAG: vertex 0 pinned Node, last pinned Server, edges
/// only forward (same shape as `proptest_deployment`).
fn pg_strategy() -> impl Strategy<Value = PartitionGraph> {
    (3usize..9).prop_flat_map(|n| {
        let cpus = prop::collection::vec(0.0f64..0.4, n);
        let edge_picks = prop::collection::vec(prop::bool::ANY, n * (n - 1) / 2);
        let bws = prop::collection::vec(1.0f64..100.0, n * (n - 1) / 2);
        (cpus, edge_picks, bws).prop_map(move |(cpus, picks, bws)| {
            let vertices: Vec<PVertex> = (0..n)
                .map(|i| PVertex {
                    ops: vec![OperatorId(i)],
                    cpu_cost: cpus[i],
                    pin: if i == 0 {
                        Pin::Node
                    } else if i == n - 1 {
                        Pin::Server
                    } else {
                        Pin::Movable
                    },
                })
                .collect();
            let mut edges = Vec::new();
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if j == i + 1 || picks[k] {
                        edges.push(PEdge {
                            src: i,
                            dst: j,
                            bandwidth: bws[k],
                            graph_edges: vec![],
                        });
                    }
                    k += 1;
                }
            }
            PartitionGraph { vertices, edges }
        })
    })
}

/// Lift a binary graph into a 3-tier one (gateway at 1/8 cost, both
/// hops the same bandwidth), as in `proptest_multitier`.
fn lift_k3(pg: &PartitionGraph) -> TieredGraph {
    let mut tg = tiered_from_binary(pg);
    tg.tiers = 3;
    for v in &mut tg.vertices {
        let mote = v.cpu_cost[0];
        v.cpu_cost = vec![mote, mote / 8.0, 0.0];
    }
    for e in &mut tg.edges {
        let bw = e.bandwidth[0];
        e.bandwidth = vec![bw, bw];
    }
    tg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both binary encoders produce models the auditor accepts, for
    /// finite and infinite (row-omitting) budgets alike. Warnings (e.g.
    /// a provably infeasible budget) are allowed; errors are not.
    #[test]
    fn binary_encodings_audit_clean(
        pg in pg_strategy(),
        budget in 0.05f64..1.0,
        net_pick in 1e2f64..2e4,
    ) {
        let net = if net_pick > 1e4 { f64::INFINITY } else { net_pick };
        for enc in [Encoding::Restricted, Encoding::General] {
            let ep = encode(&pg, enc, &ObjectiveConfig::bandwidth_only(budget, net));
            let report = audit_binary(&ep);
            prop_assert!(!report.has_errors(), "{:?} rejected:\n{}", enc, report);
        }
    }

    /// The multi-tier encoder produces models the auditor accepts.
    #[test]
    fn multitier_encoding_audits_clean(
        pg in pg_strategy(),
        mote_budget in 0.05f64..0.8,
        relay_pick in 0.01f64..0.25,
        link_pick in 1e2f64..2e4,
    ) {
        let tg = lift_k3(&pg);
        let relay = if relay_pick > 0.2 { f64::INFINITY } else { relay_pick };
        let link = if link_pick > 1e4 { f64::INFINITY } else { link_pick };
        let ep = encode_multitier(
            &tg,
            &TierObjective::bandwidth_only(
                vec![mote_budget, relay, f64::INFINITY],
                vec![link, 1e9],
            ),
        );
        let report = audit_multitier(&ep);
        prop_assert!(!report.has_errors(), "multitier rejected:\n{}", report);
    }

    /// A two-leaf forest (two mote classes behind one gateway) produces
    /// a model the auditor accepts: multi-block indicator specs, shared
    /// interior budget rows and all.
    #[test]
    fn forest_deployment_audits_clean(
        pg_a in pg_strategy(),
        pg_b in pg_strategy(),
        budgets in ((0.05f64..0.8), (0.01f64..0.5)),
        links in ((1e2f64..2e4), (1e2f64..1e4)),
        count_a in 1.0f64..6.0,
    ) {
        let (mote_budget, relay) = budgets;
        let (uplink_pick, leaf_link) = links;
        let uplink = if uplink_pick > 1e4 { f64::INFINITY } else { uplink_pick };
        let tg_a = lift_k3(&pg_a);
        let tg_b = lift_k3(&pg_b);
        // Sites: 0 = server, 1 = gateway, 2 = leaf class A, 3 = leaf
        // class B; row order is depth-descending, index-ascending.
        let ep = encode_deployment(
            &[
                LeafChain { graph: &tg_a, path: vec![2, 1, 0], count: count_a },
                LeafChain { graph: &tg_b, path: vec![3, 1, 0], count: 1.0 },
            ],
            &DeploymentObjective {
                alpha: vec![0.0; 4],
                cpu_budget: vec![f64::INFINITY, relay, mote_budget, mote_budget],
                count: vec![1.0, 1.0, count_a, 1.0],
                beta: vec![0.0, 1.0, 1.0, 1.0],
                net_budget: vec![f64::INFINITY, uplink, leaf_link, leaf_link],
                row_order: vec![2, 3, 1, 0],
            },
        );
        let report = audit_deployment(&ep);
        prop_assert!(!report.has_errors(), "deployment rejected:\n{}", report);
    }
}

/// Fixed 5-vertex chain with distinct costs and bandwidths — the
/// deterministic substrate for the mutation tests below.
fn chain_pg() -> PartitionGraph {
    let cpu = [0.05, 0.12, 0.08, 0.2, 0.0];
    let bw = [96.0, 64.0, 24.0, 8.0];
    let vertices = (0..5)
        .map(|i| PVertex {
            ops: vec![OperatorId(i)],
            cpu_cost: cpu[i],
            pin: if i == 0 {
                Pin::Node
            } else if i == 4 {
                Pin::Server
            } else {
                Pin::Movable
            },
        })
        .collect();
    let edges = (0..4)
        .map(|i| PEdge {
            src: i,
            dst: i + 1,
            bandwidth: bw[i],
            graph_edges: vec![],
        })
        .collect();
    PartitionGraph { vertices, edges }
}

fn fixed_multitier() -> EncodedMultiTier {
    encode_multitier(
        &lift_k3(&chain_pg()),
        &TierObjective::bandwidth_only(vec![0.5, 0.25, f64::INFINITY], vec![500.0, 200.0]),
    )
}

fn fixed_forest() -> EncodedDeployment {
    let tg = lift_k3(&chain_pg());
    encode_deployment(
        &[
            LeafChain {
                graph: &tg,
                path: vec![2, 1, 0],
                count: 4.0,
            },
            LeafChain {
                graph: &tg,
                path: vec![3, 1, 0],
                count: 2.0,
            },
        ],
        &DeploymentObjective {
            alpha: vec![0.0; 4],
            cpu_budget: vec![f64::INFINITY, 0.3, 0.5, 0.6],
            count: vec![1.0, 1.0, 4.0, 2.0],
            beta: vec![0.0, 1.0, 1.0, 1.0],
            net_budget: vec![f64::INFINITY, 800.0, 300.0, 300.0],
            row_order: vec![2, 3, 1, 0],
        },
    )
}

/// Row index of the monotonicity row tying vertex `v`'s two boundary
/// indicators together (the 2-term row over `y[0][v]` and `y[1][v]`).
fn monotonicity_row(ep: &EncodedMultiTier, v: usize) -> usize {
    let (a, b) = (ep.y_vars[0][v], ep.y_vars[1][v]);
    (0..ep.problem.num_constraints())
        .find(|&i| {
            let c = ep.problem.constraint(i);
            c.terms.len() == 2
                && c.terms.iter().any(|t| t.0 == a)
                && c.terms.iter().any(|t| t.0 == b)
        })
        .expect("k = 3 encoding must carry a monotonicity row per vertex")
}

/// Corruption (a): overwrite a monotonicity row with a (well-formed)
/// precedence-shaped row. The per-vertex indicator staircase is now
/// broken, and the auditor must say exactly that.
#[test]
fn dropped_monotonicity_row_is_flagged() {
    let mut ep = fixed_multitier();
    assert!(
        !audit_multitier(&ep).has_errors(),
        "pristine encoding must audit clean"
    );
    let row = monotonicity_row(&ep, 0);
    // Same-boundary 2-term row: classifies as precedence, so the ONLY
    // defect left for the auditor to find is the missing staircase.
    let sense = ep.problem.constraint(row).sense;
    ep.problem.replace_constraint(
        row,
        &[(ep.y_vars[0][0], 1.0), (ep.y_vars[0][1], -1.0)],
        sense,
        0.0,
    );
    let report = audit_multitier(&ep);
    assert!(
        report
            .errors()
            .any(|d| d.code == AuditCode::MissingMonotonicityRow),
        "expected a MissingMonotonicityRow error, got:\n{report}"
    );
}

/// Corruption (b): flip the sign of one coefficient in the mote uplink
/// budget row. The telescoping sum no longer cancels, which the
/// conservation check must catch.
#[test]
fn sign_flipped_uplink_coefficient_is_flagged() {
    let mut ep = fixed_multitier();
    assert!(!audit_multitier(&ep).has_errors());
    let row = ep.net_rows[0].expect("finite link budget emits a row");
    let c = ep.problem.constraint(row).clone();
    let mut terms = c.terms;
    terms[0].1 = -terms[0].1;
    ep.problem.replace_constraint(row, &terms, c.sense, c.rhs);
    let report = audit_multitier(&ep);
    assert!(
        report
            .errors()
            .any(|d| d.code == AuditCode::UnbalancedUplinkRow),
        "expected an UnbalancedUplinkRow error, got:\n{report}"
    );
}

/// Corruption (c): append a verbatim copy of an uplink budget row. A
/// duplicated budget row double-counts nothing today but silently
/// shadows future rhs rewrites (rate re-targeting edits one row by
/// index), so the auditor treats it as an error.
#[test]
fn duplicated_uplink_row_is_flagged() {
    let mut ep = fixed_forest();
    assert!(
        !audit_deployment(&ep).has_errors(),
        "pristine forest must audit clean"
    );
    let row = ep.net_rows[1].expect("gateway uplink row");
    let c = ep.problem.constraint(row).clone();
    ep.problem.add_constraint(&c.terms, c.sense, c.rhs);
    let report = audit_deployment(&ep);
    assert!(
        report.errors().any(|d| d.code == AuditCode::DuplicateRow),
        "expected a DuplicateRow error, got:\n{report}"
    );
}

/// A fourth corruption beyond the required three: turning a site CPU
/// budget row from `≤` into `≥` (the classic flipped-inequality bug)
/// must be rejected as a malformed budget row.
#[test]
fn flipped_cpu_budget_sense_is_flagged() {
    let mut ep = fixed_forest();
    let row = ep.cpu_rows[2].as_ref().expect("leaf cpu row").row;
    let c = ep.problem.constraint(row).clone();
    ep.problem
        .replace_constraint(row, &c.terms, wishbone::ilp::Sense::Ge, c.rhs);
    let report = audit_deployment(&ep);
    assert!(
        report.errors().any(|d| d.code == AuditCode::BadBudgetRow),
        "expected a BadBudgetRow error, got:\n{report}"
    );
}

/// Corruption (e): silently re-pricing a single-failure-robust forest
/// at full device count. The robust objective prices the shared
/// 3-device gateway's CPU and uplink rows as if one device were
/// already gone (`count − 1`, uplink budget scaled by `2/3`). Pin
/// those rows, rescale the encoding in place with the nominal
/// full-count objective — a well-formed model in its own right — and
/// the auditor must still flag every re-priced budget row as drifted
/// from the encoder's declared intent.
#[test]
fn robust_rows_repriced_at_full_count_drift_from_the_pinned_spec() {
    let tg = lift_k3(&chain_pg());
    let chains = [
        LeafChain {
            graph: &tg,
            path: vec![2, 1, 0],
            count: 4.0,
        },
        LeafChain {
            graph: &tg,
            path: vec![3, 1, 0],
            count: 2.0,
        },
    ];
    let nominal = DeploymentObjective {
        alpha: vec![0.0; 4],
        cpu_budget: vec![f64::INFINITY, 0.3, 0.5, 0.6],
        count: vec![1.0, 3.0, 4.0, 2.0],
        beta: vec![0.0, 1.0, 1.0, 1.0],
        net_budget: vec![f64::INFINITY, 800.0, 300.0, 300.0],
        row_order: vec![2, 3, 1, 0],
    };
    let mut robust = nominal.clone();
    robust.count[1] = 2.0;
    robust.net_budget[1] *= 2.0 / 3.0;

    let mut ep = encode_deployment(&chains, &robust);
    let pinned = deployment_spec(&ep);
    assert!(
        !audit_model(&ep.problem, &pinned).has_errors(),
        "pristine robust forest must audit clean against its own pins"
    );

    ep.rescale_in_place(&chains, &nominal);
    assert!(
        !audit_deployment(&ep).has_errors(),
        "nominal pricing is well-formed, so a fresh spec must accept it"
    );
    let report = audit_model(&ep.problem, &pinned);
    assert!(
        report.errors().any(|d| d.code == AuditCode::PinnedRowDrift),
        "expected PinnedRowDrift against the robust pins, got:\n{report}"
    );
}
