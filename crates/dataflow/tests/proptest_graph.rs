//! Property tests on the graph structure: topological order, reachability
//! duality, and wire-size consistency over random DAGs and values.

use proptest::prelude::*;
use wishbone_dataflow::{
    ExecCtx, Graph, GraphError, IdentityWork, OperatorId, OperatorSpec, Value,
};

/// Random DAG: `n` operators, forward edges only (guaranteed acyclic),
/// vertex 0 a source, last vertex a sink, a guaranteed chain for
/// connectivity.
fn dag_strategy() -> impl Strategy<Value = Graph> {
    (3usize..12).prop_flat_map(|n| {
        let picks = prop::collection::vec(prop::bool::ANY, n * (n - 1) / 2);
        picks.prop_map(move |picks| {
            let mut g = Graph::new();
            for i in 0..n {
                if i == 0 {
                    g.add_operator(OperatorSpec::source("src"), Some(Box::new(IdentityWork)));
                } else if i == n - 1 {
                    g.add_operator(OperatorSpec::sink("sink"), None);
                } else {
                    g.add_operator(
                        OperatorSpec::transform(format!("t{i}")),
                        Some(Box::new(IdentityWork)),
                    );
                }
            }
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    // Chain edges always; optional extra forward edges with
                    // distinct ports (sinks take many ports; sources none).
                    if j == i + 1 || (picks[k] && i != 0) {
                        let port = g.in_edges(OperatorId(j)).len();
                        g.connect(OperatorId(i), OperatorId(j), port);
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i16>().prop_map(Value::I16),
        any::<i32>().prop_map(Value::I32),
        any::<f32>().prop_map(Value::F32),
        prop::collection::vec(any::<i16>(), 0..64).prop_map(Value::VecI16),
        prop::collection::vec(any::<f32>(), 0..64).prop_map(Value::VecF32),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::Tuple)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_dags_validate_and_topo_sort(g in dag_strategy()) {
        prop_assert!(g.validate().is_ok());
        let order = g.topo_order().unwrap();
        prop_assert_eq!(order.len(), g.operator_count());
        // Every edge is forward in the order.
        let pos: std::collections::HashMap<OperatorId, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for e in g.edge_ids() {
            let edge = g.edge(e);
            prop_assert!(pos[&edge.src] < pos[&edge.dst], "edge {edge:?} violates topo order");
        }
    }

    #[test]
    fn ancestors_and_descendants_are_dual(g in dag_strategy()) {
        for a in g.operator_ids() {
            for &b in &g.descendants(a) {
                prop_assert!(
                    g.ancestors(b).contains(&a),
                    "{a} reaches {b} but {b}'s ancestors lack {a}"
                );
            }
        }
    }

    #[test]
    fn reachability_contains_self_and_respects_edges(g in dag_strategy()) {
        for v in g.operator_ids() {
            prop_assert!(g.descendants(v).contains(&v));
            prop_assert!(g.ancestors(v).contains(&v));
            for s in g.successors(v) {
                prop_assert!(g.descendants(v).contains(&s));
            }
        }
    }

    #[test]
    fn wire_size_is_consistent(v in value_strategy()) {
        let size = v.wire_size();
        // Deterministic.
        prop_assert_eq!(size, v.wire_size());
        // Clone preserves it.
        prop_assert_eq!(size, v.clone().wire_size());
        // Tuples cost the sum of fields plus a 1-byte arity header.
        if let Value::Tuple(fields) = &v {
            let sum: usize = fields.iter().map(Value::wire_size).sum();
            prop_assert_eq!(size, 1 + sum);
        }
    }

    #[test]
    fn identity_cascade_preserves_values(g in dag_strategy(), x in any::<i16>()) {
        // Pushing a value through any single Identity operator emits it
        // unchanged (sinks excluded).
        for work in g.instantiate_work().iter_mut().flatten() {
            let mut cx = ExecCtx::new();
            work.process(0, &Value::I16(x), &mut cx);
            let (out, counts) = cx.finish();
            prop_assert_eq!(out, vec![Value::I16(x)]);
            prop_assert!(counts.total() > 0, "identity meters its copy");
        }
    }

    #[test]
    fn cyclic_graphs_rejected(n in 2usize..8) {
        let mut g = Graph::new();
        for i in 0..n {
            g.add_operator(
                OperatorSpec::transform(format!("t{i}")),
                Some(Box::new(IdentityWork)),
            );
        }
        for i in 0..n {
            g.connect(OperatorId(i), OperatorId((i + 1) % n), 0);
        }
        prop_assert_eq!(g.topo_order(), Err(GraphError::Cyclic));
    }
}
