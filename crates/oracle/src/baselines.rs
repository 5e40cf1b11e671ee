//! Baseline partitioning strategies.
//!
//! The paper motivates the ILP by noting that general graph partitioners
//! (METIS, Zoltan) and list schedulers don't fit the problem (§4). These
//! baselines quantify that: naive endpoints (all-node / all-server), a
//! greedy frontier heuristic, a Kernighan–Lin-style local search, and — for
//! small graphs — exhaustive enumeration as ground truth. The benchmark
//! harness uses them to measure the ILP's optimality margin.

use std::collections::HashSet;

use wishbone_core::Pin;

use crate::cost_graph::PartitionGraph;
use crate::encodings::ObjectiveConfig;

/// Metrics of a candidate cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutMetrics {
    /// Node CPU fraction.
    pub cpu: f64,
    /// Cut bandwidth, bytes/second.
    pub net: f64,
    /// α·cpu + β·net.
    pub objective: f64,
    /// Within both budgets and orientation-valid?
    pub feasible: bool,
}

/// Evaluate a node-side vertex set against `obj`.
pub fn evaluate(
    pg: &PartitionGraph,
    node_set: &HashSet<usize>,
    obj: &ObjectiveConfig,
) -> CutMetrics {
    let cpu = pg.cpu_of(node_set);
    let net = pg.net_of(node_set);
    let pins_ok = pg
        .vertices
        .iter()
        .enumerate()
        .all(|(v, vert)| match vert.pin {
            Pin::Node => node_set.contains(&v),
            Pin::Server => !node_set.contains(&v),
            Pin::Movable => true,
        });
    CutMetrics {
        cpu,
        net,
        objective: obj.alpha * cpu + obj.beta * net,
        feasible: pins_ok
            && !pg.crosses_back(node_set)
            && cpu <= obj.cpu_budget + 1e-9
            && net <= obj.net_budget + 1e-9,
    }
}

/// Everything that *can* sit on the node does (only server-pinned vertices
/// stay behind).
pub fn all_node(pg: &PartitionGraph) -> HashSet<usize> {
    (0..pg.vertices.len())
        .filter(|&v| pg.vertices[v].pin != Pin::Server)
        .collect()
}

/// Only node-pinned vertices stay on the node; all movable work ships raw
/// data to the server.
pub fn all_server(pg: &PartitionGraph) -> HashSet<usize> {
    (0..pg.vertices.len())
        .filter(|&v| pg.vertices[v].pin == Pin::Node)
        .collect()
}

/// Greedy frontier heuristic: starting from [`all_server`], repeatedly
/// absorb the movable vertex (all of whose predecessors are already on the
/// node) that most improves the objective, while budgets hold.
pub fn greedy(pg: &PartitionGraph, obj: &ObjectiveConfig) -> HashSet<usize> {
    let mut node = all_server(pg);
    loop {
        let cur = evaluate(pg, &node, obj);
        let mut best: Option<(usize, f64)> = None;
        for v in 0..pg.vertices.len() {
            if node.contains(&v) || pg.vertices[v].pin == Pin::Server {
                continue;
            }
            // Frontier rule keeps the set upstream-closed.
            let frontier = pg.in_edges(v).all(|e| node.contains(&pg.edges[e].src));
            if !frontier {
                continue;
            }
            let mut cand = node.clone();
            cand.insert(v);
            let m = evaluate(pg, &cand, obj);
            if m.cpu <= obj.cpu_budget && m.objective < cur.objective - 1e-12 {
                let gain = cur.objective - m.objective;
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((v, gain));
                }
            }
        }
        match best {
            Some((v, _)) => {
                node.insert(v);
            }
            None => return node,
        }
    }
}

/// Kernighan–Lin-style local search: single-vertex add/remove moves that
/// keep the set upstream-closed, until a local optimum (bounded passes).
pub fn local_search(
    pg: &PartitionGraph,
    start: &HashSet<usize>,
    obj: &ObjectiveConfig,
    max_passes: usize,
) -> HashSet<usize> {
    let mut node = start.clone();
    for _ in 0..max_passes {
        let cur = evaluate(pg, &node, obj);
        let mut improved = false;
        for v in 0..pg.vertices.len() {
            let movable = pg.vertices[v].pin == Pin::Movable;
            if !movable {
                continue;
            }
            let mut cand = node.clone();
            if node.contains(&v) {
                cand.remove(&v);
            } else {
                cand.insert(v);
            }
            let m = evaluate(pg, &cand, obj);
            if m.feasible && m.objective < cur.objective - 1e-12 {
                node = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    node
}

/// Exhaustive enumeration over movable vertices (ground truth for graphs
/// with ≤ `max_movable` movable vertices). Returns the best feasible set,
/// or `None` if nothing is feasible.
pub fn exhaustive(
    pg: &PartitionGraph,
    obj: &ObjectiveConfig,
    max_movable: usize,
) -> Option<(HashSet<usize>, CutMetrics)> {
    let movable: Vec<usize> = (0..pg.vertices.len())
        .filter(|&v| pg.vertices[v].pin == Pin::Movable)
        .collect();
    assert!(
        movable.len() <= max_movable,
        "too many movable vertices for brute force"
    );
    assert!(movable.len() < 26);
    let base = all_server(pg);
    let mut best: Option<(HashSet<usize>, CutMetrics)> = None;
    for mask in 0u32..(1 << movable.len()) {
        let mut cand = base.clone();
        for (i, &v) in movable.iter().enumerate() {
            if mask >> i & 1 == 1 {
                cand.insert(v);
            }
        }
        let m = evaluate(pg, &cand, obj);
        if m.feasible && best.as_ref().is_none_or(|(_, b)| m.objective < b.objective) {
            best = Some((cand, m));
        }
    }
    best
}

/// All prefix cutpoints of a linear pipeline, from "source only" to
/// "everything on the node", as node-side vertex sets in order. Panics if
/// the graph is not a chain.
pub fn pipeline_cutpoints(pg: &PartitionGraph) -> Vec<HashSet<usize>> {
    let n = pg.vertices.len();
    // Identify the chain by following the unique out-edges from the root.
    let mut indeg = vec![0usize; n];
    let mut outdeg = vec![0usize; n];
    for e in &pg.edges {
        outdeg[e.src] += 1;
        indeg[e.dst] += 1;
    }
    assert!(
        indeg.iter().all(|&d| d <= 1) && outdeg.iter().all(|&d| d <= 1),
        "pipeline_cutpoints requires a linear chain"
    );
    let mut cur = (0..n).find(|&v| indeg[v] == 0).expect("chain root");
    let mut order = vec![cur];
    while let Some(e) = pg.edges.iter().find(|e| e.src == cur) {
        cur = e.dst;
        order.push(cur);
    }
    assert_eq!(order.len(), n, "graph is not a single chain");

    let mut cuts = Vec::new();
    let mut set = HashSet::new();
    for (i, &v) in order.iter().enumerate() {
        set.insert(v);
        if i + 1 < n {
            cuts.push(set.clone()); // cut after vertex v
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_graph::{PEdge, PVertex};
    use crate::encodings::{encode, Encoding};
    use wishbone_dataflow::OperatorId;
    use wishbone_ilp::{solve_ilp, IlpOptions};

    fn chain(bws: &[f64], cpus: &[f64]) -> PartitionGraph {
        let n = cpus.len();
        let vertices = (0..n)
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
        let edges = (0..n - 1)
            .map(|i| PEdge {
                src: i,
                dst: i + 1,
                bandwidth: bws[i],
                graph_edges: vec![],
            })
            .collect();
        PartitionGraph { vertices, edges }
    }

    #[test]
    fn endpoints() {
        let pg = chain(&[100.0, 40.0, 5.0], &[0.1, 0.2, 0.3, 0.0]);
        let obj = ObjectiveConfig::bandwidth_only(1.0, 1e9);
        let an = evaluate(&pg, &all_node(&pg), &obj);
        assert!((an.cpu - 0.6).abs() < 1e-12);
        assert!((an.net - 5.0).abs() < 1e-12);
        let asr = evaluate(&pg, &all_server(&pg), &obj);
        assert!((asr.cpu - 0.1).abs() < 1e-12);
        assert!((asr.net - 100.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_matches_ilp_on_chains() {
        // On a monotone-reducing chain the greedy frontier is optimal.
        let pg = chain(&[100.0, 40.0, 5.0], &[0.1, 0.2, 0.3, 0.0]);
        for budget in [0.15, 0.35, 0.7, 1.0] {
            let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
            let gset = greedy(&pg, &obj);
            let ep = encode(&pg, Encoding::Restricted, &obj);
            let ilp = solve_ilp(&ep.problem, &IlpOptions::default()).unwrap();
            let iset = ep.decode(&ilp.values);
            assert_eq!(
                evaluate(&pg, &gset, &obj).objective,
                evaluate(&pg, &iset, &obj).objective,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn greedy_is_suboptimal_where_ilp_is_not() {
        // A bandwidth *bump*: 10 -> 50 -> 2. Greedy (steepest-descent,
        // one vertex at a time) refuses to climb through the 50-edge;
        // the ILP looks ahead and reaches the 2-edge cut.
        let pg = chain(&[10.0, 50.0, 2.0], &[0.0, 0.1, 0.1, 0.0]);
        let obj = ObjectiveConfig::bandwidth_only(1.0, 1e9);
        let gset = greedy(&pg, &obj);
        let g = evaluate(&pg, &gset, &obj);
        let ep = encode(&pg, Encoding::Restricted, &obj);
        let ilp = solve_ilp(&ep.problem, &IlpOptions::default()).unwrap();
        let iset = ep.decode(&ilp.values);
        let i = evaluate(&pg, &iset, &obj);
        assert!((i.net - 2.0).abs() < 1e-9, "ILP reaches the global optimum");
        assert!(g.net > i.net, "greedy stalls at {} vs {}", g.net, i.net);
        // Local search can escape if started from greedy? Single-vertex
        // moves can't jump the bump either, demonstrating why the paper
        // uses an exact method.
        let lset = local_search(&pg, &gset, &obj, 100);
        assert!(evaluate(&pg, &lset, &obj).net >= i.net);
    }

    #[test]
    fn exhaustive_is_ground_truth() {
        let pg = chain(&[10.0, 50.0, 2.0], &[0.0, 0.1, 0.1, 0.0]);
        let obj = ObjectiveConfig::bandwidth_only(1.0, 1e9);
        let (eset, em) = exhaustive(&pg, &obj, 20).unwrap();
        let ep = encode(&pg, Encoding::Restricted, &obj);
        let ilp = solve_ilp(&ep.problem, &IlpOptions::default()).unwrap();
        let iset = ep.decode(&ilp.values);
        let im = evaluate(&pg, &iset, &obj);
        assert!((em.objective - im.objective).abs() < 1e-9);
        assert_eq!(eset, iset);
    }

    #[test]
    fn cutpoints_enumerate_prefixes() {
        let pg = chain(&[100.0, 40.0, 5.0], &[0.1, 0.2, 0.3, 0.0]);
        let cuts = pipeline_cutpoints(&pg);
        assert_eq!(cuts.len(), 3);
        assert_eq!(cuts[0].len(), 1);
        assert_eq!(cuts[2].len(), 3);
        let obj = ObjectiveConfig::bandwidth_only(1.0, 1e9);
        let nets: Vec<f64> = cuts.iter().map(|c| evaluate(&pg, c, &obj).net).collect();
        assert_eq!(nets, vec![100.0, 40.0, 5.0]);
    }

    #[test]
    fn infeasible_marked() {
        let pg = chain(&[100.0], &[0.5, 0.0]);
        let obj = ObjectiveConfig::bandwidth_only(0.1, 1e9);
        let m = evaluate(&pg, &all_server(&pg), &obj);
        assert!(!m.feasible, "pinned source over budget");
    }
}
