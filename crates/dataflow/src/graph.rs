//! The stream-operator dataflow graph.
//!
//! A WaveScript program partially evaluates to a directed acyclic graph of
//! operators (§2 of the paper): each operator has a *work function* and
//! optional private state; edges are streams. Wishbone's partitioner
//! consumes this graph plus per-operator metadata:
//!
//! * **namespace** — whether the programmer placed the operator in the
//!   `Node{}` namespace (replicated per embedded node) or at top level
//!   (server side),
//! * **statefulness** — stateful node operators can only move to the server
//!   in *permissive* mode (their state is then indexed by node id),
//! * **side effects** — operators with side effects (sensor sampling, LEDs,
//!   file output) are pinned to their partition.

use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

use crate::fingerprint::Fingerprint;
use crate::meter::{Meter, OpCounts};
use crate::value::Value;

/// Identifier of an operator within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorId(pub usize);

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Identifier of an edge (stream) within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Which logical partition the programmer declared an operator in (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Namespace {
    /// Inside `Node{}`: replicated once per embedded node.
    Node,
    /// Top level: instantiated once on the server.
    Server,
}

/// Structural role of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Data source (sensor sampling); no inputs; pinned to the node.
    Source,
    /// Ordinary stream transformer.
    Transform,
    /// Terminal consumer (user output, file); no outputs; pinned to server.
    Sink,
}

/// Static metadata describing one operator.
#[derive(Debug, Clone)]
pub struct OperatorSpec {
    /// Human-readable name (used in DOT output and reports).
    pub name: String,
    /// Structural role.
    pub kind: OperatorKind,
    /// Declared logical partition.
    pub namespace: Namespace,
    /// Does the work function keep mutable private state between elements?
    pub stateful: bool,
    /// Does the operator perform externally visible effects (sampling,
    /// actuation, printing)? Side-effecting operators are pinned (§2.1.1).
    pub side_effecting: bool,
}

impl OperatorSpec {
    /// A stateless, effect-free transform in the node namespace.
    pub fn transform(name: impl Into<String>) -> Self {
        OperatorSpec {
            name: name.into(),
            kind: OperatorKind::Transform,
            namespace: Namespace::Node,
            stateful: false,
            side_effecting: false,
        }
    }

    /// A source (pinned, side-effecting by definition: it samples hardware).
    pub fn source(name: impl Into<String>) -> Self {
        OperatorSpec {
            name: name.into(),
            kind: OperatorKind::Source,
            namespace: Namespace::Node,
            stateful: true,
            side_effecting: true,
        }
    }

    /// A server sink (pinned: it reports results to the user).
    pub fn sink(name: impl Into<String>) -> Self {
        OperatorSpec {
            name: name.into(),
            kind: OperatorKind::Sink,
            namespace: Namespace::Server,
            stateful: false,
            side_effecting: true,
        }
    }

    /// Mark the operator stateful (builder style).
    pub fn with_state(mut self) -> Self {
        self.stateful = true;
        self
    }

    /// Place the operator in an explicit namespace (builder style).
    pub fn in_namespace(mut self, ns: Namespace) -> Self {
        self.namespace = ns;
        self
    }

    /// Mark the operator side-effecting (builder style).
    pub fn with_side_effects(mut self) -> Self {
        self.side_effecting = true;
        self
    }
}

/// Execution context handed to a work function for one input element.
///
/// Provides metering (see [`Meter`]) and the `emit` operation. Each `emit`
/// is a yield point in the TinyOS backend (§5.2); the runtime simulator uses
/// emitted-element ordering to drive depth-first traversal.
pub struct ExecCtx {
    meter: Meter,
    emitted: Vec<Value>,
}

impl ExecCtx {
    /// Fresh context (one per work-function invocation).
    pub fn new() -> Self {
        ExecCtx {
            meter: Meter::new(),
            emitted: Vec::new(),
        }
    }

    /// Fresh context that emits into `buf`, cleared first: a caller that
    /// runs many invocations hands back the buffer [`ExecCtx::finish`]
    /// returned, so an invocation allocates only what it emits.
    pub fn with_buffer(mut buf: Vec<Value>) -> Self {
        buf.clear();
        ExecCtx {
            meter: Meter::new(),
            emitted: buf,
        }
    }

    /// Metering handle.
    pub fn meter(&mut self) -> &mut Meter {
        &mut self.meter
    }

    /// Produce one element on the operator's output stream.
    pub fn emit(&mut self, v: Value) {
        self.emitted.push(v);
    }

    /// Consume the context, returning `(emitted elements, op counts)`.
    pub fn finish(self) -> (Vec<Value>, OpCounts) {
        (self.emitted, self.meter.counts())
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// A work function: the imperative routine run once per input element (§2).
///
/// `port` identifies which input stream the element arrived on (operators
/// like `zipN` have several). Implementations meter their computation via
/// `cx.meter()` and produce outputs via `cx.emit(..)`.
///
/// The work function a [`Graph`] holds is a *prototype* that nothing runs:
/// whatever executes the graph — the profiler, each simulated site, one
/// instance per node for the `Node{}` partition (§2.1: "stateful operators
/// in the Node partition have an instance of their state for every node in
/// the network") — runs clones from [`Graph::instantiate_work`]. So a
/// clone starts from the initial state by construction, and an operator
/// replicates by deriving `Clone` (see [`CloneWork`]).
///
/// `Send + Sync` so a [`Graph`] can be shared (`Arc<Graph>`) across the
/// fleet-service worker threads; work functions take `&mut self`, so
/// `Sync` costs implementors nothing beyond not holding `Rc`/`Cell` state.
pub trait WorkFn: CloneWork + Send + Sync {
    /// Process one input element.
    fn process(&mut self, port: usize, input: &Value, cx: &mut ExecCtx);
}

/// Boxed cloning for [`WorkFn`], implemented for every `WorkFn + Clone`
/// type; it is what makes `Box<dyn WorkFn>` [`Clone`].
pub trait CloneWork {
    /// A boxed copy of `self`.
    fn clone_box(&self) -> Box<dyn WorkFn>;
}

impl<T: WorkFn + Clone + 'static> CloneWork for T {
    fn clone_box(&self) -> Box<dyn WorkFn> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn WorkFn> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// Identity work function used by sources (the profiler injects trace
/// elements through it) and by structural no-ops.
#[derive(Debug, Clone, Default)]
pub struct IdentityWork;

impl WorkFn for IdentityWork {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        cx.meter().mem(1);
        cx.emit(input.clone());
    }
}

/// A stream edge between two operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producing operator.
    pub src: OperatorId,
    /// Consuming operator.
    pub dst: OperatorId,
    /// Input port index on `dst`.
    pub dst_port: usize,
}

/// Errors produced by graph validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An operator id out of range was referenced.
    UnknownOperator(OperatorId),
    /// The graph contains a cycle (streams must form a DAG).
    Cyclic,
    /// A source operator has an inbound edge.
    SourceHasInput(OperatorId),
    /// A sink operator has an outbound edge.
    SinkHasOutput(OperatorId),
    /// Two edges share the same (dst, port) slot.
    DuplicatePort(OperatorId, usize),
    /// An operator that needs a work function lacks one.
    MissingWork(OperatorId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownOperator(id) => write!(f, "unknown operator {id}"),
            GraphError::Cyclic => write!(f, "operator graph contains a cycle"),
            GraphError::SourceHasInput(id) => write!(f, "source {id} has an inbound edge"),
            GraphError::SinkHasOutput(id) => write!(f, "sink {id} has an outbound edge"),
            GraphError::DuplicatePort(id, p) => {
                write!(f, "operator {id} input port {p} is connected twice")
            }
            GraphError::MissingWork(id) => write!(f, "operator {id} has no work function"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The dataflow graph: operators, their work functions, and stream edges.
///
/// The graph only holds each work function as a prototype; to run one,
/// take an instance set from [`instantiate_work`](Self::instantiate_work).
pub struct Graph {
    specs: Vec<OperatorSpec>,
    work: Vec<Option<Box<dyn WorkFn>>>,
    edges: Vec<Edge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    /// [`fingerprint`](Self::fingerprint), computed on first call and
    /// reset by the two methods that change the structure.
    fingerprint: OnceLock<Fingerprint>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph {
            specs: Vec::new(),
            work: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Add an operator with an optional work function; returns its id.
    pub fn add_operator(
        &mut self,
        spec: OperatorSpec,
        work: Option<Box<dyn WorkFn>>,
    ) -> OperatorId {
        self.fingerprint.take();
        let id = OperatorId(self.specs.len());
        self.specs.push(spec);
        self.work.push(work);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Connect `src → dst` at input `dst_port`; returns the edge id.
    pub fn connect(&mut self, src: OperatorId, dst: OperatorId, dst_port: usize) -> EdgeId {
        self.fingerprint.take();
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, dst_port });
        self.out_edges[src.0].push(id);
        self.in_edges[dst.0].push(id);
        id
    }

    /// The words of what a partitioner reads of the graph: the operator
    /// count, then each operator's kind, namespace, statefulness and side
    /// effects (its pin), then the edge count and each edge's endpoints
    /// and port. Names are not read, so two graphs that differ only in
    /// names share a fingerprint. Computed on first call and kept until
    /// [`add_operator`](Self::add_operator) or [`connect`](Self::connect)
    /// changes the structure.
    pub fn fingerprint(&self) -> &Fingerprint {
        self.fingerprint.get_or_init(|| {
            let mut words = Vec::with_capacity(2 + 4 * self.specs.len() + 3 * self.edges.len());
            words.push(self.specs.len() as u64);
            for spec in &self.specs {
                // No `..`: a new field does not compile here until it is
                // keyed or ignored by name.
                let OperatorSpec {
                    name: _,
                    kind,
                    namespace,
                    stateful,
                    side_effecting,
                } = spec;
                words.extend([
                    *kind as u64,
                    *namespace as u64,
                    u64::from(*stateful),
                    u64::from(*side_effecting),
                ]);
            }
            words.push(self.edges.len() as u64);
            for &Edge { src, dst, dst_port } in &self.edges {
                words.extend([src.0 as u64, dst.0 as u64, dst_port as u64]);
            }
            Fingerprint::new(words)
        })
    }

    /// Number of operators.
    pub fn operator_count(&self) -> usize {
        self.specs.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All operator ids in insertion order.
    pub fn operator_ids(&self) -> impl Iterator<Item = OperatorId> + '_ {
        (0..self.specs.len()).map(OperatorId)
    }

    /// All edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Metadata for one operator.
    pub fn spec(&self, id: OperatorId) -> &OperatorSpec {
        &self.specs[id.0]
    }

    /// One edge.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.0]
    }

    /// Outbound edges of an operator.
    pub fn out_edges(&self, id: OperatorId) -> &[EdgeId] {
        &self.out_edges[id.0]
    }

    /// Inbound edges of an operator.
    pub fn in_edges(&self, id: OperatorId) -> &[EdgeId] {
        &self.in_edges[id.0]
    }

    /// Downstream neighbours.
    pub fn successors(&self, id: OperatorId) -> impl Iterator<Item = OperatorId> + '_ {
        self.out_edges[id.0].iter().map(|&e| self.edges[e.0].dst)
    }

    /// Upstream neighbours.
    pub fn predecessors(&self, id: OperatorId) -> impl Iterator<Item = OperatorId> + '_ {
        self.in_edges[id.0].iter().map(|&e| self.edges[e.0].src)
    }

    /// Ids of all sources (no inbound edges, kind `Source`).
    pub fn sources(&self) -> Vec<OperatorId> {
        self.operator_ids()
            .filter(|&id| self.specs[id.0].kind == OperatorKind::Source)
            .collect()
    }

    /// One runnable instance of every operator's work function (`None`
    /// for a sink), indexed by operator: clones of the never-run
    /// prototypes, so each starts from its initial state.
    pub fn instantiate_work(&self) -> Vec<Option<Box<dyn WorkFn>>> {
        self.instantiate_work_where(|_| true)
    }

    /// [`instantiate_work`](Self::instantiate_work) for only the operators
    /// `keep` accepts: every other slot is `None`, and no clone is made
    /// for it.
    pub fn instantiate_work_where(
        &self,
        mut keep: impl FnMut(OperatorId) -> bool,
    ) -> Vec<Option<Box<dyn WorkFn>>> {
        (self.work.iter().enumerate())
            .map(|(i, w)| w.as_ref().filter(|_| keep(OperatorId(i))).cloned())
            .collect()
    }

    /// Topological order (Kahn's algorithm). Errors with
    /// [`GraphError::Cyclic`] if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<OperatorId>, GraphError> {
        let n = self.specs.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.in_edges[i].len()).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(OperatorId(i));
            for &e in &self.out_edges[i] {
                let d = self.edges[e.0].dst.0;
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::Cyclic);
        }
        Ok(order)
    }

    /// Validate structural invariants: DAG, source/sink arity, unique input
    /// ports, work functions present on sources and transforms.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (i, spec) in self.specs.iter().enumerate() {
            let id = OperatorId(i);
            match spec.kind {
                OperatorKind::Source => {
                    if !self.in_edges[i].is_empty() {
                        return Err(GraphError::SourceHasInput(id));
                    }
                }
                OperatorKind::Sink => {
                    if !self.out_edges[i].is_empty() {
                        return Err(GraphError::SinkHasOutput(id));
                    }
                }
                OperatorKind::Transform => {}
            }
            if spec.kind != OperatorKind::Sink && self.work[i].is_none() {
                return Err(GraphError::MissingWork(id));
            }
            let mut ports: Vec<usize> = self.in_edges[i]
                .iter()
                .map(|&e| self.edges[e.0].dst_port)
                .collect();
            ports.sort_unstable();
            for w in ports.windows(2) {
                if w[0] == w[1] {
                    return Err(GraphError::DuplicatePort(id, w[0]));
                }
            }
        }
        self.topo_order().map(|_| ())
    }

    /// All operators reachable downstream from `start` (inclusive), in
    /// ascending order.
    pub fn descendants(&self, start: OperatorId) -> Vec<OperatorId> {
        ids_of(&self.descendant_mask(&[start]))
    }

    /// All operators reachable upstream from `start` (inclusive), in
    /// ascending order.
    pub fn ancestors(&self, start: OperatorId) -> Vec<OperatorId> {
        ids_of(&self.ancestor_mask(&[start]))
    }

    /// Which operators are reachable downstream from any of `seeds` (the
    /// seeds included), indexed by operator: one sweep, O(V + E) however
    /// many seeds there are.
    pub fn descendant_mask(&self, seeds: &[OperatorId]) -> Vec<bool> {
        self.reach(seeds, false)
    }

    /// Which operators are reachable upstream from any of `seeds` (the
    /// seeds included), indexed by operator: one sweep, O(V + E) however
    /// many seeds there are.
    pub fn ancestor_mask(&self, seeds: &[OperatorId]) -> Vec<bool> {
        self.reach(seeds, true)
    }

    /// Depth-first from every seed at once; an operator is marked when it
    /// is pushed, so each is pushed and expanded at most once.
    fn reach(&self, seeds: &[OperatorId], upstream: bool) -> Vec<bool> {
        let mut seen = vec![false; self.specs.len()];
        let mut stack = Vec::with_capacity(seeds.len());
        let mut visit = |v: OperatorId, stack: &mut Vec<OperatorId>| {
            if !std::mem::replace(&mut seen[v.0], true) {
                stack.push(v);
            }
        };
        for &s in seeds {
            visit(s, &mut stack);
        }
        while let Some(v) = stack.pop() {
            if upstream {
                for &e in &self.in_edges[v.0] {
                    visit(self.edges[e.0].src, &mut stack);
                }
            } else {
                for &e in &self.out_edges[v.0] {
                    visit(self.edges[e.0].dst, &mut stack);
                }
            }
        }
        seen
    }
}

/// The operators a mask marks, in ascending order.
fn ids_of(mask: &[bool]) -> Vec<OperatorId> {
    (mask.iter().enumerate())
        .filter(|&(_, &on)| on)
        .map(|(i, _)| OperatorId(i))
        .collect()
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("operators", &self.specs.len())
            .field("edges", &self.edges.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, [OperatorId; 4]) {
        // src -> a -> sink, src -> b -> sink(port1)
        let mut g = Graph::new();
        let s = g.add_operator(OperatorSpec::source("src"), Some(Box::new(IdentityWork)));
        let a = g.add_operator(OperatorSpec::transform("a"), Some(Box::new(IdentityWork)));
        let b = g.add_operator(OperatorSpec::transform("b"), Some(Box::new(IdentityWork)));
        let t = g.add_operator(OperatorSpec::sink("out"), None);
        g.connect(s, a, 0);
        g.connect(s, b, 0);
        g.connect(a, t, 0);
        g.connect(b, t, 1);
        (g, [s, a, b, t])
    }

    #[test]
    fn diamond_validates_and_topo_sorts() {
        let (g, [s, a, b, t]) = diamond();
        g.validate().unwrap();
        let order = g.topo_order().unwrap();
        let pos = |id: OperatorId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(s) < pos(a));
        assert!(pos(s) < pos(b));
        assert!(pos(a) < pos(t));
        assert!(pos(b) < pos(t));
    }

    #[test]
    fn cycle_detected() {
        let mut g = Graph::new();
        let a = g.add_operator(OperatorSpec::transform("a"), Some(Box::new(IdentityWork)));
        let b = g.add_operator(OperatorSpec::transform("b"), Some(Box::new(IdentityWork)));
        g.connect(a, b, 0);
        g.connect(b, a, 0);
        assert_eq!(g.validate(), Err(GraphError::Cyclic));
    }

    #[test]
    fn source_with_input_rejected() {
        let mut g = Graph::new();
        let s = g.add_operator(OperatorSpec::source("src"), Some(Box::new(IdentityWork)));
        let a = g.add_operator(OperatorSpec::transform("a"), Some(Box::new(IdentityWork)));
        g.connect(a, s, 0);
        assert!(matches!(
            g.validate(),
            Err(GraphError::SourceHasInput(_)) | Err(GraphError::Cyclic)
        ));
    }

    #[test]
    fn duplicate_port_rejected() {
        let mut g = Graph::new();
        let s = g.add_operator(OperatorSpec::source("src"), Some(Box::new(IdentityWork)));
        let a = g.add_operator(OperatorSpec::transform("a"), Some(Box::new(IdentityWork)));
        g.connect(s, a, 0);
        g.connect(s, a, 0);
        assert_eq!(g.validate(), Err(GraphError::DuplicatePort(a, 0)));
    }

    #[test]
    fn missing_work_rejected() {
        let mut g = Graph::new();
        g.add_operator(OperatorSpec::transform("a"), None);
        assert!(matches!(g.validate(), Err(GraphError::MissingWork(_))));
    }

    #[test]
    fn reachability() {
        let (g, [s, a, b, t]) = diamond();
        assert_eq!(g.descendants(s), vec![s, a, b, t]);
        assert_eq!(g.ancestors(t), vec![s, a, b, t]);
        assert_eq!(g.descendants(a), vec![a, t]);
        assert_eq!(g.ancestors(b), vec![s, b]);
    }

    #[test]
    fn instantiate_work_gives_fresh_copies() {
        let (g, _) = diamond();
        let w = g.instantiate_work();
        assert_eq!(w.len(), 4);
        assert!(w[0].is_some());
        assert!(w[3].is_none());
    }

    #[test]
    fn instantiate_work_where_clones_only_the_kept_operators() {
        let (g, [s, a, _b, t]) = diamond();
        let w = g.instantiate_work_where(|id| id == a || id == t);
        let live: Vec<bool> = w.iter().map(Option::is_some).collect();
        // The sink is kept but has no work function.
        assert_eq!(live, [false, true, false, false]);
        assert!(g.instantiate_work_where(|id| id == s)[s.0].is_some());
    }
}
