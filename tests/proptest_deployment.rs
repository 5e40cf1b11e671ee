//! Property tests for the topology-first `Deployment` encoding over
//! random DAGs and random tree shapes. The parity anchors (ISSUE 5
//! acceptance):
//!
//! * (a) a **path** deployment produces `encode_multitier`'s rows
//!   bit-for-bit (and a 2-site star produces the binary restricted
//!   encoding bit-for-bit) — the old encoders stay alive as independent
//!   oracles precisely so this comparison means something now that the
//!   deployment path is the only partitioner;
//! * (b) a **star** of heterogeneous leaf classes reproduces, from one
//!   joint ILP, the partition each class gets solved alone (§9: "running
//!   the partitioning algorithm once for each type of node");
//! * (c) on genuine **trees**, every per-gateway CPU and uplink budget
//!   holds at the returned placement, identically on both simplex
//!   backends.
//!
//! And the prepared-instance contract: the n-th `solve_at` of one
//! instance — its root LP re-entering from the previous solve's basis —
//! agrees with a freshly prepared instance solved once at that rate,
//! across rate sequences, `apply_delta` and `reset_warm_start`; and the
//! §4.3 search, which answers most probes from the last proved placement,
//! agrees with the same schedule solving every probe. And the
//! decode, which reads only the merged leaf graphs, reports what pricing
//! the placement afresh from the profile gives.

use proptest::prelude::*;
use std::collections::HashSet;

use wishbone::core::{
    deltas_between, encode_deployment, max_sustainable_rate_deployment, partition_deployment,
    shape_key, Deployment, DeploymentConfig, DeploymentDelta, DeploymentObjective,
    DeploymentPartition, LeafChain, LinkSpec, PartitionError, Pin, PreparedDeployment, Site,
    SiteId, TierObjective, TieredGraph,
};
use wishbone::dataflow::{
    EdgeId, Graph, IdentityWork, Namespace, OperatorId, OperatorSpec, WorkFn,
};
use wishbone::ilp::{IlpOptions, IlpStats, Problem, SolverBackend, VarId};
use wishbone::prelude::{profile, GraphBuilder, Platform, SourceTrace, Value};
use wishbone_oracle::{
    encode, encode_multitier, tiered_from_binary, Encoding, ObjectiveConfig, PEdge, PVertex,
    PartitionGraph,
};

/// Random layered DAG: vertex 0 pinned Node, last pinned Server, edges
/// only forward (guaranteeing acyclicity and source/sink reachability).
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

/// Bit-level problem identity: same variables (bounds, integrality,
/// objective bits), same rows (terms in order, sense, rhs bits).
fn assert_problems_identical(a: &Problem, b: &Problem) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.num_vars(), b.num_vars(), "variable count");
    prop_assert_eq!(a.num_constraints(), b.num_constraints(), "row count");
    for j in 0..a.num_vars() {
        let v = VarId(j);
        prop_assert_eq!(
            a.objective_coeff(v).to_bits(),
            b.objective_coeff(v).to_bits(),
            "objective bits of var {}",
            j
        );
        prop_assert_eq!(a.lower_bounds()[j].to_bits(), b.lower_bounds()[j].to_bits());
        prop_assert_eq!(a.upper_bounds()[j].to_bits(), b.upper_bounds()[j].to_bits());
        prop_assert_eq!(a.is_integer(v), b.is_integer(v));
    }
    for i in 0..a.num_constraints() {
        let (ca, cb) = (a.constraint(i), b.constraint(i));
        prop_assert_eq!(ca.sense, cb.sense, "sense of row {}", i);
        prop_assert_eq!(ca.rhs.to_bits(), cb.rhs.to_bits(), "rhs bits of row {}", i);
        prop_assert_eq!(ca.terms.len(), cb.terms.len(), "terms of row {}", i);
        for (ta, tb) in ca.terms.iter().zip(&cb.terms) {
            prop_assert_eq!(ta.0, tb.0, "term variable in row {}", i);
            prop_assert_eq!(ta.1.to_bits(), tb.1.to_bits(), "term bits in row {}", i);
        }
    }
    Ok(())
}

/// Lift a binary graph into a 3-tier one (gateway at 1/8 cost, both hops
/// the same bandwidth), as in `proptest_multitier`.
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

/// Random reducing pipeline as a real (profilable) dataflow graph.
fn random_app(
    stages: usize,
    costs: &[u64],
    keeps: &[usize],
) -> (wishbone::dataflow::Graph, OperatorId) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for s in 0..stages {
        prev = b.transform(format!("stage{s}"), reducing_work(costs[s], keeps[s]), prev);
    }
    b.exit_namespace();
    b.sink("out", prev);
    (b.finish().unwrap(), src.0)
}

/// `random_app`'s stages dealt alternately onto two branches that fan out
/// of the source and join before the sink — with an odd stage count the
/// join's first input edge comes from the later operator.
fn diamond_app(
    stages: usize,
    costs: &[u64],
    keeps: &[usize],
) -> (wishbone::dataflow::Graph, OperatorId) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut arms = [src, src];
    for s in 0..stages {
        let arm = &mut arms[s % 2];
        *arm = b.transform(format!("stage{s}"), reducing_work(costs[s], keeps[s]), *arm);
    }
    let join = b.operator(
        OperatorSpec::transform("join"),
        Box::new(IdentityWork),
        &arms,
    );
    b.exit_namespace();
    b.sink("out", join);
    (b.finish().unwrap(), src.0)
}

/// A stage metering `cost` operations per element and keeping every
/// `keep`-th sample.
fn reducing_work(cost: u64, keep: usize) -> Box<dyn WorkFn> {
    let keep = keep.max(1);
    Box::new(wishbone::dataflow::FnWork(
        move |_p: usize, v: &Value, cx: &mut wishbone::dataflow::ExecCtx| {
            let w = v.as_i16s().unwrap();
            cx.meter().loop_scope(cost, |m| {
                m.int(cost);
                m.fadd(cost / 2);
            });
            cx.emit(Value::VecI16(w.iter().step_by(keep).copied().collect()));
        },
    ))
}

/// The two-ward tree of the tree-shaped properties. Sites: 0 = server,
/// 1 = gw-a (metered uplink), 2 = gw-b, 3 = motes-a (`count_a` devices),
/// 4 = motes-b.
fn two_ward_tree(budget_a: f64, budget_b: f64, uplink_a: f64, count_a: usize) -> Deployment {
    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();
    let roomy = LinkSpec {
        beta: 1.0,
        net_budget: 1e9,
    };
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &phone).with_cpu_budget(budget_a),
        LinkSpec {
            beta: 1.0,
            net_budget: uplink_a,
        },
    );
    let gw_b = dep.attach(
        root,
        Site::new("gw-b", &phone).with_cpu_budget(budget_b),
        roomy,
    );
    dep.attach(gw_a, Site::new("motes-a", &mote).with_count(count_a), roomy);
    dep.attach(gw_b, Site::new("motes-b", &mote), roomy);
    dep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) 2-site star ≡ binary restricted encoding, bit for bit.
    #[test]
    fn two_site_star_is_the_binary_encoding_bit_for_bit(
        pg in pg_strategy(),
        budget in 0.1f64..1.0,
        net_pick in 1e2f64..2e4,
    ) {
        // The top fifth of the range means "unconstrained": the
        // row-omission contract must hold bit-for-bit too.
        let net = if net_pick > 1e4 { f64::INFINITY } else { net_pick };
        let binary = encode(
            &pg,
            Encoding::Restricted,
            &ObjectiveConfig::bandwidth_only(budget, net),
        );
        // Sites: 0 = server (root), 1 = the leaf class.
        let lifted = tiered_from_binary(&pg);
        let ep = encode_deployment(
            &[LeafChain {
                graph: &lifted,
                path: vec![1, 0],
                count: 1.0,
            }],
            &DeploymentObjective {
                alpha: vec![0.0, 0.0],
                cpu_budget: vec![f64::INFINITY, budget],
                count: vec![1.0, 1.0],
                beta: vec![0.0, 1.0],
                net_budget: vec![f64::INFINITY, net],
                row_order: vec![1, 0],
            },
        );
        assert_problems_identical(&binary.problem, &ep.problem)?;
    }

    /// (a) k = 3 path ≡ `encode_multitier`, bit for bit — and the
    /// infinite-budget row-omission contract carries over.
    #[test]
    fn path_deployment_is_the_multitier_encoding_bit_for_bit(
        pg in pg_strategy(),
        mote_budget in 0.05f64..0.8,
        relay_pick in 0.01f64..0.25,
        link_pick in 1e2f64..2e4,
    ) {
        let tg = lift_k3(&pg);
        // Top-of-range picks mean "unconstrained" (omitted rows).
        let relay = if relay_pick > 0.2 { f64::INFINITY } else { relay_pick };
        let link = if link_pick > 1e4 { f64::INFINITY } else { link_pick };
        let tobj = TierObjective::bandwidth_only(
            vec![mote_budget, relay, f64::INFINITY],
            vec![link, 1e9],
        );
        let oracle = encode_multitier(&tg, &tobj);
        // Sites: 0 = server, 1 = gateway, 2 = motes (path 2 → 1 → 0).
        let ep = encode_deployment(
            &[LeafChain {
                graph: &tg,
                path: vec![2, 1, 0],
                count: 1.0,
            }],
            &DeploymentObjective {
                alpha: vec![0.0; 3],
                cpu_budget: vec![f64::INFINITY, relay, mote_budget],
                count: vec![1.0; 3],
                beta: vec![0.0, 1.0, 1.0],
                net_budget: vec![f64::INFINITY, 1e9, link],
                row_order: vec![2, 1, 0],
            },
        );
        assert_problems_identical(&oracle.problem, &ep.problem)?;
        // Bit-identical problems must decode identically through both
        // variable maps on both backends.
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let opts = IlpOptions { backend, ..Default::default() };
            match (oracle.problem.solve_ilp(&opts), ep.problem.solve_ilp(&opts)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(oracle.decode(&a.values), ep.decode(&b.values)[0].clone());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "verdict mismatch: {:?} vs {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (b) star of heterogeneous leaf classes ≡ one solve per class: the
    /// joint block-diagonal ILP reproduces every per-class partition.
    #[test]
    fn star_reproduces_mixed_per_class_partitions(
        stages in 2usize..5,
        costs in prop::collection::vec(100u64..4000, 4),
        keeps in prop::collection::vec(1usize..5, 4),
        weak_budget in 0.05f64..1.0,
        weak_rate in 0.02f64..0.5,
        strong_budget in 0.05f64..1.0,
    ) {
        let (g, src) = random_app(stages, &costs, &keeps);
        let trace = SourceTrace {
            source: src,
            elements: (0..10).map(|i| Value::VecI16(vec![i as i16; 128])).collect(),
            rate_hz: 20.0,
        };
        let prof = match profile(&g, &[trace]) {
            Ok(p) => p,
            Err(_) => return Ok(()), // degenerate trace: skip
        };
        let mote = Platform::tmote_sky();
        let strong = Platform::gumstix();
        let uplink = LinkSpec { beta: 1.0, net_budget: 1e9 };
        let classes = [
            (
                Site::new("motes", &mote)
                    .with_cpu_budget(weak_budget)
                    .at_rate(weak_rate),
                uplink,
            ),
            (
                Site::new("microservers", &strong).with_cpu_budget(strong_budget),
                uplink,
            ),
        ];

        // Each class partitioned alone, as its own one-leaf star.
        let mut alone = Vec::new();
        for class in &classes {
            let solo = Deployment::star([class.clone()]);
            match partition_deployment(&g, &prof, &solo, &DeploymentConfig::default()) {
                Ok(p) => alone.push(p),
                Err(_) => return Ok(()), // a class may genuinely not fit
            }
        }

        let dep = Deployment::star(classes.clone());
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.backend = backend;
            let part = partition_deployment(&g, &prof, &dep, &cfg)
                .expect("every class fits alone, so the joint star must too");
            for ((leaf, solo), class) in part.leaves.iter().zip(&alone).zip(&classes) {
                prop_assert_eq!(
                    &leaf.site_ops[0],
                    &solo.leaves[0].site_ops[0],
                    "{:?}: class {} diverged from its solo partition",
                    backend,
                    &class.0.name
                );
            }
        }
    }

    /// (c) genuine trees: every per-gateway CPU and uplink budget holds
    /// at the returned placement, on both backends, with matching
    /// objectives.
    #[test]
    fn tree_budgets_hold_on_both_backends(
        stages in 2usize..5,
        costs in prop::collection::vec(100u64..4000, 4),
        keeps in prop::collection::vec(1usize..5, 4),
        gw_budgets in ((0.01f64..0.5), (0.01f64..0.5)),
        uplink_rate in ((50.0f64..5000.0), (0.05f64..0.5)),
        count_a in 1usize..4,
    ) {
        let (gw_budget_a, gw_budget_b) = gw_budgets;
        let (uplink_a, rate) = uplink_rate;
        let (g, src) = random_app(stages, &costs, &keeps);
        let trace = SourceTrace {
            source: src,
            elements: (0..10).map(|i| Value::VecI16(vec![i as i16; 128])).collect(),
            rate_hz: 20.0,
        };
        let prof = match profile(&g, &[trace]) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let dep = two_ward_tree(gw_budget_a, gw_budget_b, uplink_a, count_a);

        let mut objectives: Vec<Option<f64>> = Vec::new();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default().at_rate(rate);
            cfg.ilp.backend = backend;
            match partition_deployment(&g, &prof, &dep, &cfg) {
                Ok(part) => {
                    assert_budgets_hold(&dep, &part)?;
                    // Structure: positions are monotone along every edge
                    // of every leaf's program instance.
                    for leaf in &part.leaves {
                        for eid in g.edge_ids() {
                            let e = g.edge(eid);
                            let (ps, pd) = (
                                leaf.position_of(e.src).unwrap(),
                                leaf.position_of(e.dst).unwrap(),
                            );
                            prop_assert!(ps <= pd, "edge goes backwards");
                        }
                    }
                    objectives.push(Some(part.objective));
                }
                Err(_) => objectives.push(None),
            }
        }
        match (objectives[0], objectives[1]) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() < 1e-6 * (1.0 + a.abs()),
                "backends disagree: dense {} vs sparse {}", a, b
            ),
            (None, None) => {}
            (a, b) => prop_assert!(false, "feasibility flipped: {:?} vs {:?}", a, b),
        }
    }
}

/// Sanity outside proptest: the star's server must still catch every
/// operator some class leaves off-leaf (the mixed "stages of partial
/// processing" contract, via the joint solve).
#[test]
fn star_server_side_union_matches_mixed() {
    let (g, src) = random_app(3, &[500, 2000, 900, 100], &[2, 3, 2, 1]);
    let trace = SourceTrace {
        source: src,
        elements: (0..10)
            .map(|i| Value::VecI16(vec![i as i16; 128]))
            .collect(),
        rate_hz: 20.0,
    };
    let prof = profile(&g, &[trace]).unwrap();
    let mote = Platform::tmote_sky();
    let strong = Platform::gumstix();
    // Aggregate uplinks: each class's nodes share a channel budgeted at
    // the per-node figure each.
    let class = |name: &str, p: &Platform, count: usize| {
        (
            Site::new(name, p).with_count(count),
            LinkSpec {
                beta: 1.0,
                net_budget: count as f64 * p.radio.goodput_bytes_per_sec,
            },
        )
    };
    let (motes, mote_uplink) = class("motes", &mote, 8);
    let classes = [
        (motes.at_rate(0.1), mote_uplink),
        class("microservers", &strong, 2),
    ];
    let cfg = DeploymentConfig::default();

    // What the server must host when each class is partitioned alone.
    let mut alone_union: HashSet<OperatorId> = HashSet::new();
    for class in &classes {
        let solo = Deployment::star([class.clone()]);
        let part = partition_deployment(&g, &prof, &solo, &cfg).unwrap();
        alone_union.extend(part.ops_at(solo.root()));
    }

    let dep = Deployment::star(classes);
    let part = partition_deployment(&g, &prof, &dep, &cfg).unwrap();
    let mut alone_union: Vec<OperatorId> = alone_union.into_iter().collect();
    alone_union.sort_unstable();
    assert_eq!(part.ops_at(SiteId(0)), alone_union);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PR-7 churn parity: a batch of [`DeploymentDelta`]s applied to a
    /// prepared instance (re-provision one leaf class, re-budget its
    /// gateway, and take the sibling leaf out of service and back)
    /// must solve exactly like a cold rebuild of the delta'd
    /// deployment — same feasibility verdict, same objective and
    /// placements — on both simplex backends, without re-encoding.
    #[test]
    fn apply_delta_parity_with_cold_rebuild(
        stages in 2usize..5,
        costs in prop::collection::vec(100u64..4000, 4),
        keeps in prop::collection::vec(1usize..5, 4),
        gw_budgets in ((0.01f64..0.5), (0.01f64..0.5), (0.5f64..1.5)),
        uplink_rate in ((50.0f64..5000.0), (0.05f64..0.5)),
        counts in (1usize..4, 1usize..6),
    ) {
        let (gw_budget_a, gw_budget_b, budget_scale) = gw_budgets;
        let (count_a, new_count_a) = counts;
        let (uplink_a, rate) = uplink_rate;
        let (g, src) = random_app(stages, &costs, &keeps);
        let trace = SourceTrace {
            source: src,
            elements: (0..10).map(|i| Value::VecI16(vec![i as i16; 128])).collect(),
            rate_hz: 20.0,
        };
        let prof = match profile(&g, &[trace]) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let mk_dep =
            |count_a: usize, budget_a: f64| two_ward_tree(budget_a, gw_budget_b, uplink_a, count_a);
        let new_budget_a = gw_budget_a * budget_scale;

        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.backend = backend;
            let dep = mk_dep(count_a, gw_budget_a);
            let mut warm = match PreparedDeployment::new(&g, &prof, &dep, &cfg) {
                Ok(p) => p,
                Err(_) => return Ok(()),
            };
            // Two delta batches (two in-place rescales): an outage for
            // motes-b, then its revival riding along with the churn.
            warm.apply_delta(&[DeploymentDelta::RemoveLeaf { leaf: SiteId(4) }]);
            warm.apply_delta(&[
                DeploymentDelta::SetLeafCount { leaf: SiteId(3), count: new_count_a },
                DeploymentDelta::SetCpuBudget { site: SiteId(1), cpu_budget: new_budget_a },
                DeploymentDelta::SetLeafCount { leaf: SiteId(4), count: 1 },
            ]);
            prop_assert_eq!(warm.encodes(), 1, "deltas must not re-encode");

            let cold_dep = mk_dep(new_count_a, new_budget_a);
            let mut cold = PreparedDeployment::new(&g, &prof, &cold_dep, &cfg)
                .expect("same graph prepared once already");
            match (warm.solve_at(rate), cold.solve_at(rate)) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(
                        (a.objective - b.objective).abs() < 1e-6 * (1.0 + b.objective.abs()),
                        "{:?}: warm {} vs cold {}", backend, a.objective, b.objective
                    );
                    for (la, lb) in a.leaves.iter().zip(b.leaves.iter()) {
                        prop_assert_eq!(
                            &la.site_ops, &lb.site_ops,
                            "{:?}: placements diverged after deltas", backend
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "{:?}: feasibility flipped: warm {:?} vs cold {:?}",
                    backend, a.is_ok(), b.is_ok()
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PR-10 satellite: `SetNetBudget` — the uplink-row in-place
    /// rescale — must solve exactly like a cold rebuild with the new
    /// uplink budget, on both backends, without re-encoding. The scale
    /// range spans 1, so tightening and relaxing are both exercised,
    /// and a CPU-budget delta rides in the same batch to pin their
    /// composition.
    #[test]
    fn set_net_budget_parity_with_cold_rebuild(
        stages in 2usize..5,
        costs in prop::collection::vec(100u64..4000, 4),
        keeps in prop::collection::vec(1usize..5, 4),
        gw_budgets in ((0.01f64..0.5), (0.01f64..0.5), (0.5f64..1.5)),
        uplink_scale_rate in ((50.0f64..5000.0), (0.3f64..3.0), (0.05f64..0.5)),
        count_a in 1usize..4,
    ) {
        let (gw_budget_a, gw_budget_b, budget_scale) = gw_budgets;
        let (uplink_a, uplink_scale, rate) = uplink_scale_rate;
        let (g, src) = random_app(stages, &costs, &keeps);
        let trace = SourceTrace {
            source: src,
            elements: (0..10).map(|i| Value::VecI16(vec![i as i16; 128])).collect(),
            rate_hz: 20.0,
        };
        let prof = match profile(&g, &[trace]) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let mk_dep =
            |uplink_a: f64, budget_a: f64| two_ward_tree(budget_a, gw_budget_b, uplink_a, count_a);
        let new_uplink_a = uplink_a * uplink_scale;
        let new_budget_a = gw_budget_a * budget_scale;

        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.backend = backend;
            let dep = mk_dep(uplink_a, gw_budget_a);
            let mut warm = match PreparedDeployment::new(&g, &prof, &dep, &cfg) {
                Ok(p) => p,
                Err(_) => return Ok(()),
            };
            warm.apply_delta(&[
                DeploymentDelta::SetNetBudget { site: SiteId(1), net_budget: new_uplink_a },
                DeploymentDelta::SetCpuBudget { site: SiteId(1), cpu_budget: new_budget_a },
            ]);
            prop_assert_eq!(warm.encodes(), 1, "deltas must not re-encode");

            let cold_dep = mk_dep(new_uplink_a, new_budget_a);
            let mut cold = PreparedDeployment::new(&g, &prof, &cold_dep, &cfg)
                .expect("same graph prepared once already");
            match (warm.solve_at(rate), cold.solve_at(rate)) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(
                        (a.objective - b.objective).abs() < 1e-6 * (1.0 + b.objective.abs()),
                        "{:?}: warm {} vs cold {}", backend, a.objective, b.objective
                    );
                    for (la, lb) in a.leaves.iter().zip(b.leaves.iter()) {
                        prop_assert_eq!(
                            &la.site_ops, &lb.site_ops,
                            "{:?}: placements diverged after SetNetBudget", backend
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "{:?}: feasibility flipped: warm {:?} vs cold {:?}",
                    backend, a.is_ok(), b.is_ok()
                ),
            }
        }
    }

    /// PR-10: `ShapeKey` equality implies delta-reachability. Two
    /// deployments differing arbitrarily in leaf counts and finite
    /// CPU/uplink budget values must (a) produce equal keys, and
    /// (b) morphing the first's prepared encoding with
    /// `deltas_between` must leave a problem **bit-identical** to a
    /// cold prepare of the second at the same rate — the exact
    /// contract the fleet's `ShapeCache` banks on. Flipping a budget's
    /// finiteness (a row appearing or vanishing) must change the key.
    #[test]
    fn shape_key_equality_implies_delta_reachable(
        stages in 2usize..5,
        costs in prop::collection::vec(100u64..4000, 4),
        keeps in prop::collection::vec(1usize..5, 4),
        budgets_a in ((0.01f64..0.5), (50.0f64..5000.0)),
        budgets_b in ((0.01f64..0.5), (50.0f64..5000.0)),
        counts_rate in (1usize..5, 1usize..5, 0.05f64..0.5),
    ) {
        let (cpu_a, net_a) = budgets_a;
        let (cpu_b, net_b) = budgets_b;
        let (count_a, count_b, rate) = counts_rate;
        let (g, src) = random_app(stages, &costs, &keeps);
        let trace = SourceTrace {
            source: src,
            elements: (0..10).map(|i| Value::VecI16(vec![i as i16; 128])).collect(),
            rate_hz: 20.0,
        };
        let prof = match profile(&g, &[trace]) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let mk_dep = gateway_chain;
        let cfg = DeploymentConfig::default();
        let dep_a = mk_dep(count_a, cpu_a, net_a);
        let dep_b = mk_dep(count_b, cpu_b, net_b);

        prop_assert_eq!(
            shape_key(&g, &prof, &dep_a, &cfg),
            shape_key(&g, &prof, &dep_b, &cfg),
            "counts and finite budget values must not be shape"
        );
        let unbudgeted = mk_dep(count_b, cpu_b, f64::INFINITY);
        prop_assert!(
            shape_key(&g, &prof, &dep_a, &cfg) != shape_key(&g, &prof, &unbudgeted, &cfg),
            "budget finiteness must be shape"
        );

        let mut morphed = match PreparedDeployment::new(&g, &prof, &dep_a, &cfg) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let deltas = deltas_between(morphed.deployment(), &dep_b);
        if !deltas.is_empty() {
            morphed.apply_delta(&deltas);
        }
        prop_assert_eq!(morphed.encodes(), 1, "reachability must not re-encode");
        let mut cold = PreparedDeployment::new(&g, &prof, &dep_b, &cfg)
            .expect("same graph prepared once already");
        // Retarget both to the same rate (errors allowed — the bit
        // comparison below is the property under test).
        let warm_result = morphed.solve_at(rate);
        let cold_result = cold.solve_at(rate);
        assert_problems_identical(morphed.problem(), cold.problem())?;
        prop_assert_eq!(
            warm_result.is_ok(), cold_result.is_ok(),
            "bit-identical problems must agree on feasibility"
        );
        if let (Ok(a), Ok(b)) = (warm_result, cold_result) {
            prop_assert_eq!(
                a.objective.to_bits(), b.objective.to_bits(),
                "bit-identical problems must solve bit-identically ({} vs {})",
                a.objective, b.objective
            );
        }
    }
}

/// Motes under a budgeted gateway under the server. Sites: 0 = server,
/// 1 = gateway (`cpu`, uplink `net`), 2 = motes (`count` devices).
fn gateway_chain(count: usize, cpu: f64, net: f64) -> Deployment {
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw = dep.attach(
        root,
        Site::new("gw", &Platform::iphone()).with_cpu_budget(cpu),
        LinkSpec {
            beta: 1.0,
            net_budget: net,
        },
    );
    dep.attach(
        gw,
        Site::new("motes", &Platform::tmote_sky()).with_count(count),
        LinkSpec {
            beta: 1.0,
            net_budget: 1e9,
        },
    );
    dep
}

/// One edit to `built_app`'s pipeline, at one stage.
#[derive(Debug, Clone, Copy)]
enum Edit {
    None,
    /// The stage meters one more operation per element.
    Cost,
    Stateful,
    Namespace,
    /// The stage reads the operator before its input instead.
    MoveEdge,
}

/// `random_app`'s pipeline, built op by op into a fresh allocation with
/// `edit` applied at `stage` (≥ 1), and profiled; `None` when profiling
/// fails.
fn built_app(
    costs: &[u64],
    keeps: &[usize],
    edit: Edit,
    stage: usize,
) -> Option<(Graph, wishbone::profile::GraphProfile)> {
    let mut g = Graph::new();
    let src = g.add_operator(OperatorSpec::source("src"), Some(Box::new(IdentityWork)));
    let (mut before, mut prev) = (src, src);
    for (s, (&cost, &keep)) in costs.iter().zip(keeps).enumerate() {
        let mut spec = OperatorSpec::transform(format!("stage{s}"));
        let mut cost = cost;
        let mut input = prev;
        if s == stage {
            match edit {
                Edit::None => {}
                Edit::Cost => cost += 1,
                Edit::Stateful => spec.stateful = true,
                Edit::Namespace => spec.namespace = Namespace::Server,
                Edit::MoveEdge => input = before,
            }
        }
        let op = g.add_operator(spec, Some(reducing_work(cost, keep)));
        g.connect(input, op, 0);
        (before, prev) = (prev, op);
    }
    let sink = g.add_operator(OperatorSpec::sink("out"), None);
    g.connect(prev, sink, 0);
    let trace = SourceTrace {
        source: src,
        elements: (0..10)
            .map(|i| Value::VecI16(vec![i as i16; 128]))
            .collect(),
        rate_hz: 20.0,
    };
    let prof = profile(&g, &[trace]).ok()?;
    Some((g, prof))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A key says what an app is. An independent second build of one
    /// app keys equal to the first, and the first build's instance,
    /// morphed to the second's counts and budgets, is bit for bit a cold
    /// prepare of the second build. A changed stage cost, a flipped
    /// `stateful` or `namespace`, or a moved edge each change the key,
    /// and so does an operator or an edge added after a key was taken.
    #[test]
    fn a_key_is_the_apps_content_not_its_address(
        costs in prop::collection::vec(100u64..4000, 2..5),
        keeps in prop::collection::vec(1usize..5, 4),
        stage_pick in 0usize..4,
        budgets_a in ((0.01f64..0.5), (50.0f64..5000.0)),
        budgets_b in ((0.01f64..0.5), (50.0f64..5000.0)),
        counts_rate in (1usize..5, 1usize..5, 0.05f64..0.5),
    ) {
        let ((cpu_a, net_a), (cpu_b, net_b)) = (budgets_a, budgets_b);
        let (count_a, count_b, rate) = counts_rate;
        let stage = 1 + stage_pick % (costs.len() - 1);
        let build = |edit: Edit| built_app(&costs, &keeps, edit, stage);
        let (Some(first), Some(second)) = (build(Edit::None), build(Edit::None)) else {
            return Ok(());
        };
        let cfg = DeploymentConfig::default();
        let (dep_a, dep_b) = (gateway_chain(count_a, cpu_a, net_a), gateway_chain(count_b, cpu_b, net_b));
        let key = |app: &(Graph, wishbone::profile::GraphProfile)| shape_key(&app.0, &app.1, &dep_a, &cfg);
        prop_assert_eq!(key(&first), key(&second), "two builds of one app");

        for edit in [Edit::Cost, Edit::Stateful, Edit::Namespace, Edit::MoveEdge] {
            if let Some(edited) = build(edit) {
                prop_assert!(key(&first) != key(&edited), "{:?} at stage {}", edit, stage);
            }
        }

        let mut morphed = match PreparedDeployment::new(&first.0, &first.1, &dep_a, &cfg) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let deltas = deltas_between(morphed.deployment(), &dep_b);
        if !deltas.is_empty() {
            morphed.apply_delta(&deltas);
        }
        drop(first);
        let mut cold = PreparedDeployment::new(&second.0, &second.1, &dep_b, &cfg)
            .expect("the first build prepared");
        let (warm_result, cold_result) = (morphed.solve_at(rate), cold.solve_at(rate));
        assert_problems_identical(morphed.problem(), cold.problem())?;
        match (warm_result, cold_result) {
            (Ok(a), Ok(b)) => assert_bit_identical(&a, &b)?,
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }

        let (mut g, prof) = second;
        let before = shape_key(&g, &prof, &dep_a, &cfg);
        let late = g.add_operator(OperatorSpec::transform("late"), Some(Box::new(IdentityWork)));
        let grown = shape_key(&g, &prof, &dep_a, &cfg);
        prop_assert!(before != grown, "add_operator after a key");
        g.connect(OperatorId(0), late, 0);
        prop_assert!(grown != shape_key(&g, &prof, &dep_a, &cfg), "connect after a key");
    }
}

/// Every finite CPU and uplink budget of `dep` holds at `part`.
fn assert_budgets_hold(dep: &Deployment, part: &DeploymentPartition) -> Result<(), TestCaseError> {
    for s in dep.site_ids() {
        let site = dep.site(s);
        prop_assert!(
            part.site_cpu[s.0] <= site.cpu_budget + 1e-6,
            "site {} cpu {} over {}",
            site.name,
            part.site_cpu[s.0],
            site.cpu_budget
        );
        if let Some(l) = dep.uplink(s) {
            prop_assert!(
                part.link_net[s.0] <= l.net_budget + 1e-6,
                "site {} uplink {} over {}",
                site.name,
                part.link_net[s.0],
                l.net_budget
            );
        }
    }
    Ok(())
}

/// Everything a caller can read off a placement, floats by bit pattern.
fn assert_bit_identical(
    a: &DeploymentPartition,
    b: &DeploymentPartition,
) -> Result<(), TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    prop_assert_eq!(bits(&a.site_cpu), bits(&b.site_cpu));
    prop_assert_eq!(bits(&a.link_net), bits(&b.link_net));
    for (la, lb) in a.leaves.iter().zip(&b.leaves) {
        prop_assert_eq!(&la.site_ops, &lb.site_ops);
        prop_assert_eq!(&la.link_cut_edges, &lb.link_cut_edges);
        prop_assert_eq!(bits(&la.predicted_cpu), bits(&lb.predicted_cpu));
        prop_assert_eq!(bits(&la.predicted_net), bits(&lb.predicted_net));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Warm ≡ cold across retargets. One prepared instance walks a rate
    /// sequence — a repeated rate and a rate far past the cliff spliced
    /// in, a delta batch applied half-way — and after every step answers
    /// like an instance prepared from scratch for that one question.
    #[test]
    fn nth_solve_at_agrees_with_a_freshly_prepared_instance(
        stages in 2usize..5,
        costs in prop::collection::vec(100u64..4000, 4),
        keeps in prop::collection::vec(1usize..5, 4),
        gw_budgets in ((0.01f64..0.5), (0.01f64..0.5), (0.5f64..1.5)),
        uplink_count in ((50.0f64..5000.0), 1usize..4),
        walk in (prop::collection::vec(-5.0f64..5.0, 3..7), 0usize..3, 0usize..3),
    ) {
        let (gw_budget_a, gw_budget_b, budget_scale) = gw_budgets;
        let (uplink_a, count_a) = uplink_count;
        let (rate_exps, repeat_at, cliff_at) = walk;
        let (g, src) = random_app(stages, &costs, &keeps);
        let trace = SourceTrace {
            source: src,
            elements: (0..10).map(|i| Value::VecI16(vec![i as i16; 128])).collect(),
            rate_hz: 20.0,
        };
        let prof = match profile(&g, &[trace]) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let dep = two_ward_tree(gw_budget_a, gw_budget_b, uplink_a, count_a);

        // The walk: the random rates, one of them asked twice in a row,
        // and one rate no budget survives.
        let mut rates: Vec<f64> = rate_exps.iter().map(|e| e.exp2()).collect();
        rates.insert(repeat_at + 1, rates[repeat_at]);
        rates.insert(cliff_at, 1e6);
        let delta_at = rates.len() / 2;

        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.backend = backend;
            let mut prep = match PreparedDeployment::new(&g, &prof, &dep, &cfg) {
                Ok(p) => p,
                Err(_) => return Ok(()),
            };
            let fresh_at = |prep: &PreparedDeployment<'_>, rate: f64| {
                PreparedDeployment::new(&g, &prof, prep.deployment(), &cfg)
                    .expect("same graph prepared once already")
                    .solve_at(rate)
            };
            // The previous step, when it was answered by its root LP alone.
            let mut root_only: Option<f64> = None;
            let mut past_the_cliff = 0;
            for (i, &rate) in rates.iter().enumerate() {
                let morphed = i == delta_at;
                if morphed {
                    prep.apply_delta(&[
                        DeploymentDelta::SetCpuBudget {
                            site: SiteId(1),
                            cpu_budget: gw_budget_a * budget_scale,
                        },
                        DeploymentDelta::SetLeafCount { leaf: SiteId(3), count: count_a + 1 },
                    ]);
                }
                let got = prep.solve_at(rate);
                let want = fresh_at(&prep, rate);
                match (&got, &want) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(
                            (a.objective - b.objective).abs() <= 1e-9 * b.objective.abs(),
                            "{:?} step {} rate {}: nth {} vs fresh {}",
                            backend, i, rate, a.objective, b.objective
                        );
                        assert_budgets_hold(prep.deployment(), a)?;
                        if backend == SolverBackend::Dense {
                            // The reference tableau solves every LP cold.
                            prop_assert_eq!(
                                a.ilp_stats.warm_starts, 0,
                                "Dense step {}: a tableau LP re-entered warm", i
                            );
                        } else if morphed {
                            // The rewritten budget rows are a new matrix.
                            prop_assert!(
                                a.ilp_stats.cold_starts >= 1,
                                "{:?}: the root LP after apply_delta must start cold", backend
                            );
                        } else if root_only == Some(rate) {
                            // Same matrix, same right-hand sides, and the
                            // last thing the workspace did was solve this
                            // LP: the sparse backend re-enters.
                            prop_assert!(
                                a.ilp_stats.warm_starts >= 1,
                                "{:?} step {}: a repeated rate must re-enter warm", backend, i
                            );
                        }
                        root_only = (a.ilp_stats.nodes == 1).then_some(rate);
                    }
                    (Err(PartitionError::Infeasible), Err(PartitionError::Infeasible)) => {
                        past_the_cliff += 1;
                        root_only = None;
                    }
                    _ => prop_assert!(
                        false,
                        "{:?} step {} rate {}: nth {:?} vs fresh {:?}",
                        backend, i, rate, got.map(|p| p.objective), want.map(|p| p.objective)
                    ),
                }
            }
            prop_assert!(past_the_cliff >= 1, "the walk must cross the cliff");
            prop_assert_eq!(prep.encodes(), 1);

            // With the carried state dropped, the instance is
            // indistinguishable from a fresh one — ties included.
            let rate = rates[repeat_at + usize::from(cliff_at <= repeat_at)];
            prep.reset_warm_start();
            match (prep.solve_at(rate), fresh_at(&prep, rate)) {
                (Ok(a), Ok(b)) => {
                    assert_bit_identical(&a, &b)?;
                    prop_assert_eq!(a.ilp_stats.warm_starts, b.ilp_stats.warm_starts);
                    prop_assert_eq!(a.ilp_stats.cold_starts, b.ilp_stats.cold_starts);
                    let work = |s: &IlpStats| {
                        (
                            s.nodes,
                            s.simplex_iterations,
                            s.dual_iterations,
                            s.primal_iterations,
                            s.refactorizations,
                        )
                    };
                    prop_assert_eq!(work(&a.ilp_stats), work(&b.ilp_stats));
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(
                    false,
                    "{:?}: after reset, {:?} vs fresh {:?}", backend, a.is_ok(), b.is_ok()
                ),
            }
        }
    }
}

/// §4.3's schedule — floor probe, doubling, bisection to relative
/// precision `tol` — over an arbitrary verdict: the highest feasible
/// probe (`None` when the floor is not) and the probe count.
fn rate_schedule(mut fits: impl FnMut(f64) -> bool, hi_limit: f64, tol: f64) -> (Option<f64>, u32) {
    let mut probes = 0;
    let mut fits = |rate: f64| {
        probes += 1;
        fits(rate)
    };
    let mut lo = hi_limit * 2f64.powi(-24);
    if !fits(lo) {
        return (None, probes);
    }
    let mut hi = lo;
    loop {
        hi = (hi * 2.0).min(hi_limit);
        if !fits(hi) {
            break;
        }
        lo = hi;
        if (hi - hi_limit).abs() < f64::EPSILON * hi_limit {
            break;
        }
    }
    while (hi - lo) / lo > tol {
        let mid = 0.5 * (lo + hi);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (Some(lo), probes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The §4.3 search answers a probe from the last proved placement
    /// while it still fits; that may change the work and nothing else.
    /// Against the same schedule with every probe solved, on both
    /// backends: the same rate, bit for bit, in the same number of probes
    /// — and the returned placement a proved optimum there (a cold
    /// solve's objective to 1e-9, certified gap 0) within every budget.
    #[test]
    fn the_rate_search_answers_like_a_solve_at_every_probe(
        stages in 2usize..5,
        costs in prop::collection::vec(100u64..4000, 4),
        keeps in prop::collection::vec(1usize..5, 4),
        gw_budgets in ((0.01f64..0.5), (0.01f64..0.5)),
        uplink_count in ((50.0f64..5000.0), 1usize..4),
        shape_tol in (prop::bool::ANY, 0.001f64..0.05),
    ) {
        let (diamond, tol) = shape_tol;
        let (gw_budget_a, gw_budget_b) = gw_budgets;
        let (uplink_a, count_a) = uplink_count;
        let app = if diamond { diamond_app } else { random_app };
        let (g, src) = app(stages, &costs, &keeps);
        let trace = SourceTrace {
            source: src,
            elements: (0..10).map(|i| Value::VecI16(vec![i as i16; 128])).collect(),
            rate_hz: 20.0,
        };
        let prof = match profile(&g, &[trace]) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let dep = two_ward_tree(gw_budget_a, gw_budget_b, uplink_a, count_a);
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.backend = backend;
            let got = match max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 64.0, tol) {
                Ok(got) => got,
                Err(PartitionError::Pin(_)) => return Ok(()),
                Err(e) => return Err(TestCaseError::fail(format!("solver error: {e}"))),
            };

            let mut every =
                PreparedDeployment::new(&g, &prof, &dep, &cfg).expect("prepared once already");
            let mut infeasible = Vec::new();
            let (rate, probes) = rate_schedule(
                |rate| match every.solve_at(rate) {
                    Ok(_) => true,
                    Err(PartitionError::Infeasible) => {
                        infeasible.push(rate.to_bits());
                        false
                    }
                    Err(e) => panic!("solver error at x{rate}: {e}"),
                },
                64.0,
                tol,
            );
            let Some(got) = got else {
                prop_assert_eq!(rate, None, "{:?}: the floor probe's verdict flipped", backend);
                continue;
            };
            prop_assert_eq!(
                (Some(got.rate.to_bits()), got.evaluations),
                (rate.map(f64::to_bits), probes),
                "{:?}", backend
            );
            prop_assert!(got.unproven.is_none());
            prop_assert!(got.solves <= got.evaluations + 1);
            // Every probe a refutation answered is one the every-probe
            // schedule solved to `Infeasible`; the tableau refutes none.
            for refuted in &got.refuted {
                prop_assert!(
                    infeasible.contains(&refuted.to_bits()),
                    "{:?}: x{} refuted, but the every-probe schedule did not find it infeasible",
                    backend, refuted
                );
            }
            if backend == SolverBackend::Dense {
                prop_assert!(got.refuted.is_empty());
            }
            let cold = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(got.rate))
                .expect("the found rate is feasible");
            let p = &got.partition;
            prop_assert!(
                (p.objective - cold.objective).abs() <= 1e-9 * cold.objective.abs(),
                "{:?} x{}: searched {} vs cold {}", backend, got.rate, p.objective, cold.objective
            );
            prop_assert!(p.ilp_stats.proved);
            prop_assert_eq!(p.certified_gap, Some(0.0));
            assert_budgets_hold(&dep, p)?;
        }
    }
}

/// `a` and `b` agree to 1e-12 relative (both sums of non-negative terms).
fn assert_close(what: &str, a: f64, b: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
        "{}: decoded {} vs profile {}",
        what,
        a,
        b
    );
    Ok(())
}

/// Recompute every leaf's predictions and cut edges of `part` from the
/// raw profile, by public API only: per-operator CPU on each position's
/// platform and per-edge on-air bandwidth with each hop's framing, times
/// `rate × rate_factor`, and the cut edges of link `b` as every edge with
/// `pos(src) ≤ b < pos(dst)` in ascending order.
fn assert_decode_is_the_profile(
    g: &wishbone::dataflow::Graph,
    prof: &wishbone::profile::GraphProfile,
    dep: &Deployment,
    part: &DeploymentPartition,
    rate: f64,
) -> Result<(), TestCaseError> {
    for leaf in &part.leaves {
        let rate_factor = dep.site(leaf.leaf).rate_factor;
        let platform = |t: usize| &dep.site(leaf.path[t]).platform;
        let pos = |op: OperatorId| leaf.position_of(op).expect("every operator is placed");
        prop_assert_eq!(
            leaf.site_ops.iter().map(Vec::len).sum::<usize>(),
            g.operator_count()
        );
        for (t, ops) in leaf.site_ops.iter().enumerate() {
            let cpu: f64 = ops
                .iter()
                .map(|&op| prof.cpu_fraction(op, platform(t)) * rate * rate_factor)
                .sum();
            assert_close("predicted_cpu", leaf.predicted_cpu[t], cpu)?;
        }
        for b in 0..leaf.path.len() - 1 {
            let cut: Vec<EdgeId> = g
                .edge_ids()
                .filter(|&eid| {
                    let e = g.edge(eid);
                    pos(e.src) <= b && b < pos(e.dst)
                })
                .collect();
            prop_assert_eq!(&leaf.link_cut_edges[b], &cut);
            let net: f64 = cut
                .iter()
                .map(|&e| prof.edge_on_air_bandwidth(e, platform(b)) * rate * rate_factor)
                .sum();
            assert_close("predicted_net", leaf.predicted_net[b], net)?;
        }
    }
    Ok(())
}

/// `random_app` (or, if `diamond`, `diamond_app`) profiled on a short
/// trace; `None` when profiling fails.
fn profiled_app(
    diamond: bool,
    stages: usize,
    costs: &[u64],
    keeps: &[usize],
) -> Option<(wishbone::dataflow::Graph, wishbone::profile::GraphProfile)> {
    let app = if diamond { diamond_app } else { random_app };
    let (g, src) = app(stages, costs, keeps);
    let trace = SourceTrace {
        source: src,
        elements: (0..10)
            .map(|i| Value::VecI16(vec![i as i16; 128]))
            .collect(),
        rate_hz: 20.0,
    };
    let prof = profile(&g, &[trace]).ok()?;
    Some((g, prof))
}

/// Two gateway wards whose motes run at their own rate factors, and
/// optionally a leaf class straight under the server. Sites: 0 = server,
/// 1 = gw-a (metered uplink), 2 = gw-b, 3 = motes-a, 4 = motes-b,
/// 5 = microservers (when `direct_leaf`).
fn rated_wards(factor_a: f64, factor_b: f64, direct_leaf: bool) -> Deployment {
    let (mote, phone) = (Platform::tmote_sky(), Platform::iphone());
    let link = |net_budget: f64| LinkSpec {
        beta: 1.0,
        net_budget,
    };
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let gw_a = dep.attach(
        root,
        Site::new("gw-a", &phone).with_cpu_budget(0.3),
        link(2000.0),
    );
    let gw_b = dep.attach(
        root,
        Site::new("gw-b", &phone).with_cpu_budget(0.3),
        link(1e9),
    );
    dep.attach(
        gw_a,
        Site::new("motes-a", &mote).at_rate(factor_a),
        link(1e9),
    );
    dep.attach(
        gw_b,
        Site::new("motes-b", &mote).at_rate(factor_b),
        link(1e9),
    );
    if direct_leaf {
        let gumstix = Platform::gumstix();
        dep.attach(
            root,
            Site::new("microservers", &gumstix),
            LinkSpec::for_platform(&gumstix),
        );
    }
    dep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decode reads the merged leaf graphs, not the profile. What it
    /// reports must still be what pricing every operator and cut edge
    /// afresh from the profile gives: for pipelines and fan-out / fan-in
    /// apps, on random trees (two gateway wards at their own rate factors,
    /// optionally a leaf class straight under the server), exact and
    /// root-capped (`max_nodes = 1`), after every step of a delta chain that re-counts,
    /// re-budgets, removes and revives leaves.
    #[test]
    fn decoded_predictions_are_the_profile_priced_afresh(
        stages in 2usize..6,
        costs in prop::collection::vec(100u64..4000, 5),
        keeps in prop::collection::vec(1usize..5, 5),
        shape in ((0.05f64..2.0), (0.05f64..2.0), prop::bool::ANY, prop::bool::ANY, prop::bool::ANY),
        chain in prop::collection::vec((0usize..5, 0.0f64..1.0), 1..6),
        rates in prop::collection::vec(0.02f64..0.6, 6),
    ) {
        let (factor_a, factor_b, direct_leaf, capped, diamond) = shape;
        let Some((g, prof)) = profiled_app(diamond, stages, &costs, &keeps) else {
            return Ok(());
        };
        let dep = rated_wards(factor_a, factor_b, direct_leaf);
        let mut cfg = DeploymentConfig::default();
        if capped {
            cfg.ilp.max_nodes = 1;
        }
        let mut prep = match PreparedDeployment::new(&g, &prof, &dep, &cfg) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let check = |prep: &mut PreparedDeployment<'_>, rate: f64| {
            match prep.solve_at(rate) {
                Ok(part) => assert_decode_is_the_profile(&g, &prof, prep.deployment(), &part, rate),
                Err(_) => Ok(()),
            }
        };
        check(&mut prep, rates[0])?;
        for (step, &(kind, v)) in chain.iter().enumerate() {
            let delta = match kind {
                0 => DeploymentDelta::SetLeafCount { leaf: SiteId(3), count: 1 + (v * 4.0) as usize },
                1 => DeploymentDelta::SetCpuBudget { site: SiteId(1), cpu_budget: 0.01 + 0.5 * v },
                2 => DeploymentDelta::SetNetBudget { site: SiteId(1), net_budget: 50.0 + 5000.0 * v },
                3 => DeploymentDelta::RemoveLeaf { leaf: SiteId(4) },
                _ => DeploymentDelta::SetLeafCount { leaf: SiteId(4), count: 1 + (v * 2.0) as usize },
            };
            prep.apply_delta(&[delta]);
            check(&mut prep, rates[1 + step % 5])?;
        }
    }
}

/// `part`'s lists are canonical: every `site_ops[t]` strictly ascending,
/// a leaf's lists together holding each of the program's operators
/// exactly once, `position_of` (a binary search) agreeing with a linear
/// scan, and `ops_at(site)` the sorted, deduplicated union over the
/// leaves whose path runs through `site`.
fn assert_placement_is_canonical(
    g: &wishbone::dataflow::Graph,
    dep: &Deployment,
    part: &DeploymentPartition,
) -> Result<(), TestCaseError> {
    let mut program: Vec<OperatorId> = g.operator_ids().collect();
    program.sort_unstable();
    let absent = OperatorId(program.last().map_or(0, |op| op.0 + 1));
    for leaf in &part.leaves {
        for ops in &leaf.site_ops {
            prop_assert!(
                ops.windows(2).all(|w| w[0] < w[1]),
                "not ascending: {:?}",
                ops
            );
        }
        let mut placed = leaf.site_ops.concat();
        placed.sort_unstable();
        prop_assert_eq!(&placed, &program);
        for &op in program.iter().chain([&absent]) {
            let scan = leaf.site_ops.iter().position(|ops| ops.contains(&op));
            prop_assert_eq!(leaf.position_of(op), scan, "operator {:?}", op);
        }
    }
    for site in dep.site_ids() {
        let hosts = |op: &OperatorId| {
            part.leaves.iter().any(|l| {
                let t = l.path.iter().position(|&s| s == site);
                t.is_some_and(|t| l.site_ops[t].contains(op))
            })
        };
        let union: Vec<OperatorId> = program.iter().copied().filter(hosts).collect();
        prop_assert_eq!(part.ops_at(site), union, "site {:?}", site);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A placement's per-position operator lists are canonical (see
    /// `assert_placement_is_canonical`) on pipelines and fan-out / fan-in
    /// apps over the decode proptest's random trees, at every rate of a
    /// schedule and after a delta that removes a leaf class.
    #[test]
    fn placement_lists_are_sorted_and_partition_the_program(
        stages in 2usize..6,
        costs in prop::collection::vec(100u64..4000, 5),
        keeps in prop::collection::vec(1usize..5, 5),
        shape in ((0.05f64..2.0), (0.05f64..2.0), prop::bool::ANY, prop::bool::ANY),
        rates in prop::collection::vec(0.02f64..0.6, 3),
    ) {
        let (factor_a, factor_b, direct_leaf, diamond) = shape;
        let Some((g, prof)) = profiled_app(diamond, stages, &costs, &keeps) else {
            return Ok(());
        };
        let dep = rated_wards(factor_a, factor_b, direct_leaf);
        let Ok(mut prep) = PreparedDeployment::new(&g, &prof, &dep, &DeploymentConfig::default())
        else {
            return Ok(());
        };
        for (i, &rate) in rates.iter().enumerate() {
            if i == rates.len() - 1 {
                prep.apply_delta(&[DeploymentDelta::RemoveLeaf { leaf: SiteId(4) }]);
            }
            if let Ok(part) = prep.solve_at(rate) {
                assert_placement_is_canonical(&g, prep.deployment(), &part)?;
            }
        }
    }
}
