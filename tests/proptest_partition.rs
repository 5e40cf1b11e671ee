//! Property tests on the partitioner over random weighted DAGs: the ILP
//! must match exhaustive enumeration, never violate constraints, and the
//! §4.1 preprocessing must preserve optimality.

use proptest::prelude::*;
use std::collections::HashSet;

use wishbone::core::Pin;
use wishbone::dataflow::OperatorId;
use wishbone::ilp::{solve_ilp, IlpOptions};
use wishbone_oracle::{
    all_server, encode, evaluate, exhaustive, greedy, preprocess, Encoding, ObjectiveConfig, PEdge,
    PVertex, PartitionGraph,
};

/// Random layered DAG: vertex 0 pinned Node, last pinned Server, edges only
/// forward (guaranteeing acyclicity and source/sink reachability).
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
                    // Always keep the chain i -> i+1 so the graph is
                    // connected; other forward edges are optional.
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

fn solve_ilp_set(pg: &PartitionGraph, obj: &ObjectiveConfig) -> Option<HashSet<usize>> {
    let ep = encode(pg, Encoding::Restricted, obj);
    solve_ilp(&ep.problem, &IlpOptions::default())
        .ok()
        .map(|s| ep.decode(&s.values))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ilp_matches_exhaustive(pg in pg_strategy(), budget in 0.1f64..1.0) {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        let ilp = solve_ilp_set(&pg, &obj);
        let brute = exhaustive(&pg, &obj, 12);
        match (ilp, brute) {
            (None, None) => {}
            (Some(iset), Some((_bset, bm))) => {
                let im = evaluate(&pg, &iset, &obj);
                prop_assert!(im.feasible, "ILP returned infeasible set");
                prop_assert!((im.objective - bm.objective).abs() < 1e-6,
                    "ILP {} vs brute force {}", im.objective, bm.objective);
            }
            (a, b) => prop_assert!(false, "feasibility disagreement: ilp={:?} brute={:?}",
                a.is_some(), b.is_some()),
        }
    }

    #[test]
    fn ilp_never_worse_than_greedy(pg in pg_strategy(), budget in 0.1f64..1.0) {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        if let Some(iset) = solve_ilp_set(&pg, &obj) {
            let gm = evaluate(&pg, &greedy(&pg, &obj), &obj);
            let im = evaluate(&pg, &iset, &obj);
            if gm.feasible {
                prop_assert!(im.objective <= gm.objective + 1e-6,
                    "ILP {} worse than greedy {}", im.objective, gm.objective);
            }
        }
    }

    #[test]
    fn ilp_respects_constraints(pg in pg_strategy(), budget in 0.05f64..1.0) {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        if let Some(set) = solve_ilp_set(&pg, &obj) {
            let m = evaluate(&pg, &set, &obj);
            prop_assert!(m.cpu <= budget + 1e-6, "cpu {} over budget {}", m.cpu, budget);
            prop_assert!(!pg.crosses_back(&set), "single-crossing violated");
            // Pins respected.
            for (v, vert) in pg.vertices.iter().enumerate() {
                match vert.pin {
                    Pin::Node => prop_assert!(set.contains(&v)),
                    Pin::Server => prop_assert!(!set.contains(&v)),
                    Pin::Movable => {}
                }
            }
        }
    }

    #[test]
    fn preprocess_preserves_optimum(pg in pg_strategy(), budget in 0.2f64..1.0) {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        let merged = match preprocess(&pg) {
            Ok(r) => r,
            Err(_) => return Ok(()), // pin conflict from forced merges: skip
        };
        prop_assert!(merged.vertices_after <= merged.vertices_before);
        let before = solve_ilp_set(&pg, &obj).map(|s| evaluate(&pg, &s, &obj).objective);
        let after = solve_ilp_set(&merged.graph, &obj)
            .map(|s| evaluate(&merged.graph, &s, &obj).objective);
        match (before, after) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() < 1e-6,
                "preprocessing changed the optimum: {} -> {}", a, b),
            (None, None) => {}
            // Merging pinned-adjacent expanding ops can only *lose*
            // solutions if a merge glued a movable op to a pinned side that
            // the budget can't afford; §4.1's argument assumes the movable
            // op was never going to sit on the frontier anyway, so a
            // feasibility flip indicates the merged instance is infeasible
            // in both. Disallow one-sided feasibility:
            (a, b) => prop_assert!(false,
                "feasibility flipped under preprocessing: {:?} -> {:?}", a, b),
        }
    }

    #[test]
    fn general_encoding_agrees_with_restricted(pg in pg_strategy(), budget in 0.2f64..1.0) {
        let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
        let r = solve_ilp_set(&pg, &obj).map(|s| evaluate(&pg, &s, &obj).objective);
        let ep = encode(&pg, Encoding::General, &obj);
        let g = solve_ilp(&ep.problem, &IlpOptions::default()).ok().map(|s| {
            evaluate(&pg, &ep.decode(&s.values), &obj).objective
        });
        // On a source->sink oriented DAG the general encoding can only
        // match or beat the restricted one; with our pinned
        // frontier it should match exactly.
        if let (Some(ro), Some(go)) = (r, g) {
            prop_assert!(go <= ro + 1e-6, "general {} worse than restricted {}", go, ro);
        }
    }

    #[test]
    fn endpoints_bound_the_optimum(pg in pg_strategy()) {
        // With an unconstrained budget the ILP is at least as good as both
        // trivial endpoint partitions.
        let obj = ObjectiveConfig::bandwidth_only(10.0, 1e9);
        if let Some(iset) = solve_ilp_set(&pg, &obj) {
            let im = evaluate(&pg, &iset, &obj);
            let an = evaluate(&pg, &wishbone_oracle::all_node(&pg), &obj);
            let asrv = evaluate(&pg, &all_server(&pg), &obj);
            prop_assert!(im.objective <= an.objective + 1e-6);
            prop_assert!(im.objective <= asrv.objective + 1e-6);
        }
    }
}
