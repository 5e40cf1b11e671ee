//! Property tests for §9 mixed networks (`Deployment::star` with one leaf
//! class per node type): every class's physical partition must respect
//! that class's budgets, and the per-class server-side residual graphs
//! must compose into a valid whole-program execution order on the server.

use proptest::prelude::*;

use wishbone::prelude::*;

/// A random reducing pipeline: `stages` transforms, each with a random
/// per-element loop cost and a reduction factor, node-namespaced so the
/// partitioner may cut anywhere.
fn random_app(stages: usize, costs: &[u64], keeps: &[usize]) -> (Graph, OperatorId) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for s in 0..stages {
        let cost = costs[s];
        let keep = keeps[s].max(1);
        prev = b.transform(
            format!("stage{s}"),
            Box::new(wishbone::dataflow::FnWork(
                move |_p: usize, v: &Value, cx: &mut wishbone::dataflow::ExecCtx| {
                    let w = v.as_i16s().unwrap();
                    cx.meter().loop_scope(cost, |m| {
                        m.int(cost);
                        m.fadd(cost / 2);
                    });
                    cx.emit(Value::VecI16(w.iter().step_by(keep).copied().collect()));
                },
            )),
            prev,
        );
    }
    b.exit_namespace();
    b.sink("out", prev);
    (b.finish().unwrap(), src.0)
}

fn class_strategy() -> impl Strategy<Value = (f64, f64)> {
    // (cpu budget fraction, rate multiplier)
    (0.05f64..1.0, 0.02f64..0.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn class_partitions_respect_budgets_and_compose(
        stages in 2usize..5,
        costs in prop::collection::vec(100u64..4000, 4),
        keeps in prop::collection::vec(1usize..5, 4),
        weak in class_strategy(),
        strong in class_strategy(),
    ) {
        let (mut g, src) = random_app(stages, &costs, &keeps);
        let trace = SourceTrace {
            source: src,
            elements: (0..10).map(|i| Value::VecI16(vec![i as i16; 128])).collect(),
            rate_hz: 20.0,
        };
        let prof = match profile(&mut g, &[trace]) {
            Ok(p) => p,
            Err(_) => return Ok(()), // degenerate trace: skip
        };

        let mote = Platform::tmote_sky();
        let gumstix = Platform::gumstix();
        // Each uplink row aggregates its class's devices: scale the
        // (non-binding) per-node budget by the class size.
        let mk_class = |name: &str, platform: &Platform, (budget, rate): (f64, f64), count| {
            (
                Site::new(name, platform)
                    .with_count(count)
                    .with_cpu_budget(budget)
                    .at_rate(rate),
                LinkSpec { beta: 1.0, net_budget: 1e9 * count as f64 },
            )
        };
        let dep = Deployment::star([
            mk_class("motes", &mote, weak, 10),
            mk_class("microservers", &gumstix, strong, 2),
        ]);
        let mixed = match partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()) {
            Ok(m) => m,
            Err(_) => return Ok(()), // a class may genuinely not fit
        };

        let mut all_ops: Vec<OperatorId> = g.operator_ids().collect();
        all_ops.sort_unstable();
        let mut cut_union: Vec<wishbone::dataflow::EdgeId> = Vec::new();
        for part in &mixed.leaves {
            let class = dep.site(part.leaf);
            let (node_ops, server_ops) = (&part.site_ops[0], &part.site_ops[1]);
            // 1. The class budget holds at the class rate.
            prop_assert!(
                part.predicted_cpu[0] <= class.cpu_budget + 1e-9,
                "{}: cpu {} over budget {}",
                class.name, part.predicted_cpu[0], class.cpu_budget
            );
            // 2. node ∪ server covers the program exactly once.
            let mut union: Vec<OperatorId> = node_ops.iter().chain(server_ops).copied().collect();
            union.sort_unstable();
            prop_assert_eq!(&union, &all_ops);
            prop_assert!(node_ops.iter().all(|id| server_ops.binary_search(id).is_err()));
            // 3. Single crossing: no edge flows server → node, and the cut
            // edges are exactly the node → server frontier.
            let mut frontier = Vec::new();
            for eid in g.edge_ids() {
                let e = g.edge(eid);
                let src_on_node = node_ops.contains(&e.src);
                let dst_on_node = node_ops.contains(&e.dst);
                prop_assert!(src_on_node || !dst_on_node,
                    "{}: edge {:?} flows back into the network", class.name, eid);
                if src_on_node && !dst_on_node {
                    frontier.push(eid);
                }
            }
            prop_assert_eq!(&frontier, &part.link_cut_edges[0]);
            cut_union.extend(frontier);
        }

        // 4. The server-side residuals compose: the union of server ops
        // closes under successors (a valid suffix of every topological
        // order), and every entry edge targets an op inside it.
        let server_union = mixed.ops_at(dep.root());
        for eid in &cut_union {
            let e = g.edge(*eid);
            prop_assert!(server_union.contains(&e.dst),
                "entry edge {:?} targets an op outside the server union", eid);
        }
        for part in &mixed.leaves {
            for id in g.operator_ids() {
                if !part.site_ops[0].contains(&id) {
                    // Everything any class leaves behind is in the union…
                    prop_assert!(server_union.contains(&id));
                    // …and its whole downstream cone is too (execution
                    // order exists: the union is successor-closed).
                    for d in g.descendants(id) {
                        prop_assert!(server_union.contains(&d),
                            "descendant {d} of server op {id} missing from server code");
                    }
                }
            }
        }
    }
}
