//! §4.1 preprocessing: merge data-expanding / data-neutral operators with
//! their downstream operators.
//!
//! "Consider an operator u that feeds another operator v such that the
//! bandwidth from v is the same or higher than the bandwidth on the output
//! stream from u. A partition with a cut-point on v's output stream can
//! always be improved by moving the cut-point to the stream u → v ...
//! Thus, any operator that is data-expanding or data-neutral may be merged
//! with its downstream operator(s), reducing the search space without
//! eliminating optimal solutions."
//!
//! The binary graph *is* the 2-tier chain whose downstream side has
//! "infinite computational power", so the merge itself is
//! [`wishbone_core::preprocess_tiered`] under a free server tier; this
//! module is the scalar-weight view of it ([`tiered_from_binary`] in,
//! [`PartitionGraph`] out).

use wishbone_core::{preprocess_tiered, PinError, TEdge, TVertex, TierObjective, TieredGraph};

use crate::cost_graph::{PEdge, PVertex, PartitionGraph};

/// Lift a binary [`PartitionGraph`] into a 2-tier graph (tier-1 CPU
/// costs are zero: the paper's infinitely powerful server).
pub fn tiered_from_binary(pg: &PartitionGraph) -> TieredGraph {
    TieredGraph {
        tiers: 2,
        vertices: pg
            .vertices
            .iter()
            .map(|v| TVertex {
                ops: v.ops.clone(),
                cpu_cost: vec![v.cpu_cost, 0.0],
                pin: v.pin,
            })
            .collect(),
        edges: pg
            .edges
            .iter()
            .map(|e| TEdge {
                src: e.src,
                dst: e.dst,
                bandwidth: vec![e.bandwidth],
                graph_edges: e.graph_edges.clone(),
            })
            .collect(),
    }
}

/// Result of preprocessing, with bookkeeping for reporting.
#[derive(Debug, Clone)]
pub struct PreprocessResult {
    /// The merged graph.
    pub graph: PartitionGraph,
    /// Vertices before / after, for ablation reporting.
    pub vertices_before: usize,
    /// Vertex count after merging.
    pub vertices_after: usize,
}

/// Apply the §4.1 merge to `pg`.
///
/// Delegates to the k-way generalization ([`preprocess_tiered`]) with a
/// free server tier — exactly the regime where the paper's dominance
/// argument holds. One quotient/SCC-collapse implementation serves both
/// paths.
pub fn preprocess(pg: &PartitionGraph) -> Result<PreprocessResult, PinError> {
    let tg = tiered_from_binary(pg);
    // A free final tier (α = 0, infinite budget): every bandwidth-safe
    // merge is also CPU-safe, matching the binary rule exactly.
    let obj = TierObjective {
        alpha: vec![0.0, 0.0],
        cpu_budget: vec![f64::INFINITY, f64::INFINITY],
        beta: vec![1.0],
        net_budget: vec![f64::INFINITY],
    };
    let r = preprocess_tiered(&tg, &obj)?;
    Ok(PreprocessResult {
        graph: PartitionGraph {
            vertices: r
                .graph
                .vertices
                .into_iter()
                .map(|v| PVertex {
                    ops: v.ops,
                    cpu_cost: v.cpu_cost[0],
                    pin: v.pin,
                })
                .collect(),
            edges: r
                .graph
                .edges
                .into_iter()
                .map(|e| PEdge {
                    src: e.src,
                    dst: e.dst,
                    bandwidth: e.bandwidth[0],
                    graph_edges: e.graph_edges,
                })
                .collect(),
        },
        vertices_before: r.vertices_before,
        vertices_after: r.vertices_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_core::Pin;
    use wishbone_dataflow::OperatorId;

    fn v(cpu: f64, pin: Pin) -> PVertex {
        PVertex {
            ops: vec![],
            cpu_cost: cpu,
            pin,
        }
    }

    fn e(src: usize, dst: usize, bw: f64) -> PEdge {
        PEdge {
            src,
            dst,
            bandwidth: bw,
            graph_edges: vec![],
        }
    }

    /// Give each vertex a distinct op id so conflict errors are traceable.
    fn tag(mut pg: PartitionGraph) -> PartitionGraph {
        for (i, vert) in pg.vertices.iter_mut().enumerate() {
            vert.ops = vec![OperatorId(i)];
        }
        pg
    }

    #[test]
    fn expanding_op_merges_downstream() {
        // src(Node) --100--> expander --150--> reducer --10--> sink(Server)
        // The expander (out 150 >= in 100) merges with the reducer.
        let pg = tag(PartitionGraph {
            vertices: vec![
                v(0.1, Pin::Node),
                v(0.2, Pin::Movable),
                v(0.3, Pin::Movable),
                v(0.0, Pin::Server),
            ],
            edges: vec![e(0, 1, 100.0), e(1, 2, 150.0), e(2, 3, 10.0)],
        });
        let r = preprocess(&pg).unwrap();
        assert_eq!(r.vertices_after, 3);
        let merged = r
            .graph
            .vertices
            .iter()
            .find(|vert| vert.ops.len() == 2)
            .expect("one merged vertex");
        assert!((merged.cpu_cost - 0.5).abs() < 1e-12);
        // Remaining cut candidates: the 100 edge and the 10 edge.
        let bws: Vec<f64> = r.graph.edges.iter().map(|e| e.bandwidth).collect();
        assert!(bws.contains(&100.0) && bws.contains(&10.0));
    }

    #[test]
    fn reducing_ops_are_not_merged() {
        // Strictly reducing chain: no merges possible.
        let pg = tag(PartitionGraph {
            vertices: vec![
                v(0.1, Pin::Node),
                v(0.2, Pin::Movable),
                v(0.3, Pin::Movable),
                v(0.0, Pin::Server),
            ],
            edges: vec![e(0, 1, 100.0), e(1, 2, 50.0), e(2, 3, 10.0)],
        });
        let r = preprocess(&pg).unwrap();
        assert_eq!(r.vertices_after, 4);
    }

    #[test]
    fn neutral_op_merges() {
        let pg = tag(PartitionGraph {
            vertices: vec![v(0.1, Pin::Node), v(0.2, Pin::Movable), v(0.0, Pin::Server)],
            edges: vec![e(0, 1, 64.0), e(1, 2, 64.0)],
        });
        let r = preprocess(&pg).unwrap();
        assert_eq!(
            r.vertices_after, 2,
            "data-neutral op merges with the sink side"
        );
    }

    #[test]
    fn pinned_expanding_op_does_not_merge() {
        // Node-pinned expander must not be glued into the server sink.
        let pg = tag(PartitionGraph {
            vertices: vec![v(0.1, Pin::Node), v(0.0, Pin::Server)],
            edges: vec![e(0, 1, 100.0)],
        });
        let r = preprocess(&pg).unwrap();
        assert_eq!(r.vertices_after, 2);
    }

    #[test]
    fn fan_out_vertices_never_merge() {
        // w -> a, w -> b with w "expanding" in aggregate: the optimal cut
        // may separate a from b, so w must stay mergeable-free (this exact
        // shape broke the naive all-successors rule; found by proptest).
        let pg = tag(PartitionGraph {
            vertices: vec![
                v(0.0, Pin::Node),    // 0 = src
                v(0.1, Pin::Movable), // 1 = w (fan-out 2, out 40 >= in 10)
                v(0.1, Pin::Movable), // 2 = a
                v(0.1, Pin::Movable), // 3 = b
                v(0.0, Pin::Server),  // 4 = sink
            ],
            edges: vec![
                e(0, 1, 10.0),
                e(1, 2, 20.0), // w -> a
                e(1, 3, 20.0), // w -> b
                e(2, 3, 30.0), // a -> b (reconvergence)
                e(3, 4, 1.0),  // b -> sink
            ],
        });
        let r = preprocess(&pg).unwrap();
        // w keeps its own vertex; only single-output chains merge (here: a
        // is expanding with one out-edge, so {a, b} may merge).
        let w_class = r
            .graph
            .vertices
            .iter()
            .find(|vert| vert.ops.contains(&OperatorId(1)))
            .unwrap();
        assert_eq!(
            w_class.ops,
            vec![OperatorId(1)],
            "fan-out vertex must stay alone"
        );
    }

    #[test]
    fn merge_into_pinned_consumer_inherits_pin() {
        // Movable neutral op feeding a node-pinned actuator: the merged
        // class is node-pinned; feeding a server-pinned sink: server.
        let pg = tag(PartitionGraph {
            vertices: vec![
                v(0.0, Pin::Node),
                v(0.1, Pin::Movable), // neutral, single out
                v(0.0, Pin::Node),    // actuator
            ],
            edges: vec![e(0, 1, 10.0), e(1, 2, 10.0)],
        });
        let r = preprocess(&pg).unwrap();
        let class = r
            .graph
            .vertices
            .iter()
            .find(|vert| vert.ops.contains(&OperatorId(1)))
            .unwrap();
        assert_eq!(class.pin, Pin::Node);
        assert_eq!(class.ops.len(), 2);
    }

    #[test]
    fn idempotent_on_fixed_point() {
        let pg = tag(PartitionGraph {
            vertices: vec![v(0.1, Pin::Node), v(0.2, Pin::Movable), v(0.0, Pin::Server)],
            edges: vec![e(0, 1, 100.0), e(1, 2, 10.0)],
        });
        let once = preprocess(&pg).unwrap();
        let twice = preprocess(&once.graph).unwrap();
        assert_eq!(once.vertices_after, twice.vertices_after);
    }
}
