//! The binary weighted partitioning graph.
//!
//! "A directed acyclic graph whose vertices are stream operators and
//! whose edges are streams, with edge weights representing bandwidth and
//! vertex weights representing CPU utilization" (§4) — for **one**
//! candidate node platform against an infinitely powerful server. The
//! shipping pipeline models the same thing per root path as
//! [`wishbone_core::TieredGraph`]; this scalar-weight form is what the
//! binary oracles ([`mod@crate::preprocess`], [`crate::encodings`],
//! [`crate::baselines`]) are written over.

use std::collections::HashSet;

use wishbone_core::{pin_analysis, Mode, Pin, PinError};
use wishbone_dataflow::{EdgeId, Graph, OperatorId};
use wishbone_profile::{GraphProfile, Platform};

/// A vertex of the partitioning graph (one operator, or several after the
/// §4.1 merge).
#[derive(Debug, Clone)]
pub struct PVertex {
    /// The underlying dataflow operators.
    pub ops: Vec<OperatorId>,
    /// CPU fraction consumed on the candidate node platform at the chosen
    /// rate (`c_v` in the ILP).
    pub cpu_cost: f64,
    /// Placement constraint.
    pub pin: Pin,
}

/// An edge of the partitioning graph.
#[derive(Debug, Clone)]
pub struct PEdge {
    /// Source vertex index.
    pub src: usize,
    /// Destination vertex index.
    pub dst: usize,
    /// On-air bandwidth if cut, bytes/second (`r_uv` in the ILP).
    pub bandwidth: f64,
    /// The dataflow edges aggregated into this partition edge.
    pub graph_edges: Vec<EdgeId>,
}

/// The weighted DAG handed to the ILP encodings.
#[derive(Debug, Clone, Default)]
pub struct PartitionGraph {
    /// Vertices.
    pub vertices: Vec<PVertex>,
    /// Edges.
    pub edges: Vec<PEdge>,
}

/// Build the weighted partitioning graph for one candidate platform.
///
/// `rate_multiplier` scales both CPU and bandwidth linearly (§4.3: "CPU and
/// network load increase monotonically with input data rate").
pub fn build_partition_graph(
    graph: &Graph,
    profile: &GraphProfile,
    platform: &Platform,
    mode: Mode,
    rate_multiplier: f64,
) -> Result<PartitionGraph, PinError> {
    let pins = pin_analysis(graph, mode)?;
    let vertices = graph
        .operator_ids()
        .map(|id| PVertex {
            ops: vec![id],
            cpu_cost: profile.cpu_fraction(id, platform) * rate_multiplier,
            pin: pins[id.0],
        })
        .collect();
    let edges = graph
        .edge_ids()
        .map(|eid| {
            let e = graph.edge(eid);
            PEdge {
                src: e.src.0,
                dst: e.dst.0,
                bandwidth: profile.edge_on_air_bandwidth(eid, platform) * rate_multiplier,
                graph_edges: vec![eid],
            }
        })
        .collect();
    Ok(PartitionGraph { vertices, edges })
}

impl PartitionGraph {
    /// Sum of CPU costs of vertices in `node_set` (indices).
    pub fn cpu_of(&self, node_set: &HashSet<usize>) -> f64 {
        node_set.iter().map(|&v| self.vertices[v].cpu_cost).sum()
    }

    /// Total bandwidth of edges cut by `node_set` (node side → server side).
    pub fn net_of(&self, node_set: &HashSet<usize>) -> f64 {
        self.edges
            .iter()
            .filter(|e| node_set.contains(&e.src) != node_set.contains(&e.dst))
            .map(|e| e.bandwidth)
            .sum()
    }

    /// Does `node_set` violate the single-crossing orientation (an edge
    /// from a server vertex back into a node vertex)?
    pub fn crosses_back(&self, node_set: &HashSet<usize>) -> bool {
        self.edges
            .iter()
            .any(|e| !node_set.contains(&e.src) && node_set.contains(&e.dst))
    }

    /// Expand a vertex-index set into the underlying operator set.
    pub fn expand(&self, node_set: &HashSet<usize>) -> HashSet<OperatorId> {
        node_set
            .iter()
            .flat_map(|&v| self.vertices[v].ops.iter().copied())
            .collect()
    }

    /// Out-edges (indices) of vertex `v`.
    pub fn out_edges(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.src == v)
            .map(|(i, _)| i)
    }

    /// In-edges (indices) of vertex `v`.
    pub fn in_edges(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.dst == v)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_metrics() {
        let pg = PartitionGraph {
            vertices: vec![
                PVertex {
                    ops: vec![OperatorId(0)],
                    cpu_cost: 0.1,
                    pin: Pin::Node,
                },
                PVertex {
                    ops: vec![OperatorId(1)],
                    cpu_cost: 0.2,
                    pin: Pin::Movable,
                },
                PVertex {
                    ops: vec![OperatorId(2)],
                    cpu_cost: 0.3,
                    pin: Pin::Server,
                },
            ],
            edges: vec![
                PEdge {
                    src: 0,
                    dst: 1,
                    bandwidth: 100.0,
                    graph_edges: vec![],
                },
                PEdge {
                    src: 1,
                    dst: 2,
                    bandwidth: 40.0,
                    graph_edges: vec![],
                },
            ],
        };
        let node: HashSet<usize> = [0, 1].into_iter().collect();
        assert!((pg.cpu_of(&node) - 0.3).abs() < 1e-12);
        assert!((pg.net_of(&node) - 40.0).abs() < 1e-12);
        assert!(!pg.crosses_back(&node));
        let bad: HashSet<usize> = [1].into_iter().collect(); // 0 on server, 1 on node
        assert!(pg.crosses_back(&bad));
    }
}
