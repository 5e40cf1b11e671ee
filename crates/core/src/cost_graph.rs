//! The pinning analysis: which operators the partitioner may move.
//!
//! The partitioner works on "a directed acyclic graph whose vertices are
//! stream operators and whose edges are streams, with edge weights
//! representing bandwidth and vertex weights representing CPU utilization"
//! (§4) — [`crate::multitier::TieredGraph`], one per leaf root path. Its
//! vertices carry the pinning state derived here from §2.1.1:
//!
//! * side-effecting operators are pinned to their declared partition;
//! * stateful server operators may never move into the network;
//! * stateful node operators may move to the server only in *permissive*
//!   mode (their state becomes a table indexed by node id);
//! * stateless effect-free operators are always movable.
//!
//! Under the single-crossing restriction (§2.1.2), pinning an operator also
//! pins everything up- or down-stream of it — ancestors of node-pinned
//! operators cannot sit on the server, and descendants of server-pinned
//! operators cannot sit on the node.

use wishbone_dataflow::{Graph, Namespace, OperatorId, OperatorKind, OperatorSpec};

/// Relocation mode for stateful node operators (§2.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Never add lossiness upstream of stateful operators: they stay
    /// pinned to the embedded node.
    Conservative,
    /// Allow relocating stateful node operators to the server (state is
    /// duplicated per node id).
    #[default]
    Permissive,
}

/// Where a vertex may be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    /// Free to move.
    Movable,
    /// Must run on the embedded node.
    Node,
    /// Must run on the server.
    Server,
}

/// Errors raised by the pinning analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinError {
    /// An operator is transitively required on both sides at once.
    Conflict(OperatorId),
}

impl std::fmt::Display for PinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinError::Conflict(id) => {
                write!(f, "operator {id} is pinned to both node and server")
            }
        }
    }
}

impl std::error::Error for PinError {}

/// Compute the per-operator pin state for `graph` under `mode`, including
/// transitive propagation for the single-crossing model.
pub fn pin_analysis(graph: &Graph, mode: Mode) -> Result<Vec<Pin>, PinError> {
    let mut pins: Vec<Pin> = graph
        .operator_ids()
        .map(|id| declared_pin(graph.spec(id), mode))
        .collect();

    // Transitive propagation (§2.1.2): data flows node → server exactly
    // once, so ancestors of node-pinned operators are node-pinned and
    // descendants of server-pinned operators are server-pinned — one
    // multi-source sweep in each direction.
    let seeds = |pin: Pin| -> Vec<OperatorId> {
        graph
            .operator_ids()
            .filter(|id| pins[id.0] == pin)
            .collect()
    };
    let node_required = graph.ancestor_mask(&seeds(Pin::Node));
    let server_required = graph.descendant_mask(&seeds(Pin::Server));

    for id in graph.operator_ids() {
        match (node_required[id.0], server_required[id.0]) {
            (true, true) => return Err(PinError::Conflict(id)),
            (true, false) => pins[id.0] = Pin::Node,
            (false, true) => pins[id.0] = Pin::Server,
            (false, false) => {}
        }
    }
    Ok(pins)
}

/// An operator's own pin under `mode`, before propagation (§2.1.1).
fn declared_pin(spec: &OperatorSpec, mode: Mode) -> Pin {
    match spec.kind {
        OperatorKind::Source => Pin::Node,
        OperatorKind::Sink => Pin::Server,
        OperatorKind::Transform => {
            if spec.side_effecting {
                match spec.namespace {
                    Namespace::Node => Pin::Node,
                    Namespace::Server => Pin::Server,
                }
            } else if spec.stateful {
                match spec.namespace {
                    // Stateful server operators have serial semantics
                    // and a single state instance: never movable.
                    Namespace::Server => Pin::Server,
                    Namespace::Node => match mode {
                        Mode::Conservative => Pin::Node,
                        Mode::Permissive => Pin::Movable,
                    },
                }
            } else {
                Pin::Movable
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wishbone_dataflow::{GraphBuilder, IdentityWork};

    /// The per-seed rule `pin_analysis` replaced, kept as its reference:
    /// one depth-first search per pinned seed, each with its own `seen`
    /// vector and a `Vec` of neighbours per visited operator.
    fn per_seed_pins(graph: &Graph, mode: Mode) -> Result<Vec<Pin>, PinError> {
        let reach = |start: OperatorId, upstream: bool| {
            let mut seen = vec![false; graph.operator_count()];
            let mut stack = vec![start];
            let mut out = Vec::new();
            while let Some(v) = stack.pop() {
                if seen[v.0] {
                    continue;
                }
                seen[v.0] = true;
                out.push(v);
                let next: Vec<OperatorId> = if upstream {
                    graph.predecessors(v).collect()
                } else {
                    graph.successors(v).collect()
                };
                stack.extend(next);
            }
            out
        };
        let mut pins: Vec<Pin> = graph
            .operator_ids()
            .map(|id| declared_pin(graph.spec(id), mode))
            .collect();
        let n = pins.len();
        let mut node_required = vec![false; n];
        let mut server_required = vec![false; n];
        for id in graph.operator_ids() {
            match pins[id.0] {
                Pin::Node => reach(id, true)
                    .iter()
                    .for_each(|a| node_required[a.0] = true),
                Pin::Server => reach(id, false)
                    .iter()
                    .for_each(|d| server_required[d.0] = true),
                Pin::Movable => {}
            }
        }
        for id in graph.operator_ids() {
            match (node_required[id.0], server_required[id.0]) {
                (true, true) => return Err(PinError::Conflict(id)),
                (true, false) => pins[id.0] = Pin::Node,
                (false, true) => pins[id.0] = Pin::Server,
                (false, false) => {}
            }
        }
        Ok(pins)
    }

    /// A random DAG of `n` operators (forward edges only, each at most
    /// once), every one a source, a sink or a transform with a random
    /// namespace, state and side-effect flag.
    fn pinned_dag() -> impl Strategy<Value = Graph> {
        (2usize..24).prop_flat_map(|n| {
            (
                prop::collection::vec(0u8..16, n),
                prop::collection::vec(0.0f64..1.0, n * (n - 1) / 2),
                0.0f64..0.5,
            )
                .prop_map(move |(kinds, picks, density)| {
                    let mut g = Graph::new();
                    for (i, &kind) in kinds.iter().enumerate() {
                        let ns = if kind & 1 == 0 {
                            Namespace::Node
                        } else {
                            Namespace::Server
                        };
                        let spec = match kind >> 1 {
                            0 => OperatorSpec::source(format!("s{i}")),
                            1 => OperatorSpec::sink(format!("k{i}")),
                            2 => OperatorSpec::transform(format!("e{i}")).with_side_effects(),
                            3 | 4 => OperatorSpec::transform(format!("f{i}")).with_state(),
                            _ => OperatorSpec::transform(format!("t{i}")),
                        };
                        g.add_operator(spec.in_namespace(ns), None);
                    }
                    let mut pick = picks.iter();
                    for i in 0..n {
                        for j in i + 1..n {
                            if *pick.next().expect("one pick per pair") < density {
                                let port = g.in_edges(OperatorId(j)).len();
                                g.connect(OperatorId(i), OperatorId(j), port);
                            }
                        }
                    }
                    g
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One sweep in each direction pins exactly what one search per
        /// seed pins, and names the same conflict witness.
        #[test]
        fn the_two_sweeps_pin_like_one_search_per_seed(g in pinned_dag()) {
            for mode in [Mode::Conservative, Mode::Permissive] {
                prop_assert_eq!(pin_analysis(&g, mode), per_seed_pins(&g, mode));
            }
        }
    }

    /// node{ src -> stateless -> stateful } -> server_stage -> sink
    fn mixed_graph() -> (Graph, [OperatorId; 5]) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let sl = b.transform("stateless", Box::new(IdentityWork), src);
        let sf = b.stateful_transform("stateful", Box::new(IdentityWork), sl);
        b.exit_namespace();
        let srv = b.transform("server_stage", Box::new(IdentityWork), sf);
        let sink = b.sink("out", srv);
        (b.finish().unwrap(), [src.0, sl.0, sf.0, srv.0, sink])
    }

    #[test]
    fn permissive_frees_stateful_node_ops() {
        let (g, [src, sl, sf, srv, sink]) = mixed_graph();
        let pins = pin_analysis(&g, Mode::Permissive).unwrap();
        assert_eq!(pins[src.0], Pin::Node);
        assert_eq!(pins[sl.0], Pin::Movable);
        assert_eq!(pins[sf.0], Pin::Movable);
        assert_eq!(pins[srv.0], Pin::Movable); // stateless server-ns op can move
        assert_eq!(pins[sink.0], Pin::Server);
    }

    #[test]
    fn conservative_pins_stateful_node_ops_and_their_ancestors() {
        let (g, [src, sl, sf, _srv, _sink]) = mixed_graph();
        let pins = pin_analysis(&g, Mode::Conservative).unwrap();
        assert_eq!(pins[sf.0], Pin::Node);
        // Propagation: sl is upstream of a node-pinned op.
        assert_eq!(pins[sl.0], Pin::Node);
        assert_eq!(pins[src.0], Pin::Node);
    }

    #[test]
    fn stateful_server_op_pins_descendants() {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        b.exit_namespace();
        let agg = b.operator(
            OperatorSpec::transform("agg").with_state(),
            Box::new(IdentityWork),
            &[src],
        );
        let post = b.transform("post", Box::new(IdentityWork), agg);
        b.sink("out", post);
        let g = b.finish().unwrap();
        let pins = pin_analysis(&g, Mode::Permissive).unwrap();
        assert_eq!(pins[(agg.0).0], Pin::Server);
        assert_eq!(
            pins[(post.0).0],
            Pin::Server,
            "descendant of server-pinned op"
        );
    }

    #[test]
    fn side_effects_pin_to_namespace() {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let led = b.operator(
            OperatorSpec::transform("led").with_side_effects(),
            Box::new(IdentityWork),
            &[src],
        );
        b.exit_namespace();
        b.sink("out", led);
        let g = b.finish().unwrap();
        let pins = pin_analysis(&g, Mode::Permissive).unwrap();
        assert_eq!(pins[(led.0).0], Pin::Node);
    }

    #[test]
    fn conflict_detected() {
        // server-pinned stateful op feeding a node-pinned (side-effecting)
        // op: impossible under single crossing.
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        b.exit_namespace();
        let agg = b.operator(
            OperatorSpec::transform("agg").with_state(),
            Box::new(IdentityWork),
            &[src],
        );
        b.enter_node_namespace();
        let act = b.operator(
            OperatorSpec::transform("actuator").with_side_effects(),
            Box::new(IdentityWork),
            &[agg],
        );
        b.exit_namespace();
        b.sink("out", act);
        let g = b.finish().unwrap();
        assert!(matches!(
            pin_analysis(&g, Mode::Permissive),
            Err(PinError::Conflict(_))
        ));
    }
}
