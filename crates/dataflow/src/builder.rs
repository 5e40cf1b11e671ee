//! Ergonomic graph construction mirroring WaveScript's combinator style.
//!
//! WaveScript programs wire graphs by calling functions that take and return
//! streams (`FIRFilter(coeffs, strm)`, `zipN([a, b, c])`, Fig 1 of the
//! paper). [`GraphBuilder`] reproduces that shape: every construction method
//! returns a [`StreamRef`] that later stages consume. The `Node{}` namespace
//! (§2.1) is modelled with [`GraphBuilder::enter_node_namespace`] /
//! [`GraphBuilder::enter_server_namespace`]: operators created in between
//! are tagged `Namespace::Node`.

use crate::graph::{
    ExecCtx, Graph, GraphError, IdentityWork, OperatorId, OperatorKind, OperatorSpec, WorkFn,
};
use crate::value::Value;

/// Handle to the output stream of an operator under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRef(pub OperatorId);

/// Work-function adapter over a cloneable closure.
///
/// Handy for tests and small structural operators; real DSP operators live
/// in `wishbone-dsp` as named types. State the closure captures by move is
/// the operator's state: the graph keeps the closure as built, and each
/// instance runs a clone of it.
#[derive(Clone)]
pub struct FnWork<F>(pub F);

impl<F> WorkFn for FnWork<F>
where
    F: FnMut(usize, &Value, &mut ExecCtx) + Clone + Send + Sync + 'static,
{
    fn process(&mut self, port: usize, input: &Value, cx: &mut ExecCtx) {
        (self.0)(port, input, cx)
    }
}

/// `zipN`: synchronize `n` input streams, emitting one tuple per aligned
/// element set (paper Fig 1: `zipN([level4, level5, level6])`).
///
/// Stateful: buffers one FIFO per port.
#[derive(Debug, Clone)]
pub struct ZipWork {
    buffers: Vec<Vec<Value>>,
}

impl ZipWork {
    /// Zip over `ports` input streams.
    pub fn new(ports: usize) -> Self {
        ZipWork {
            buffers: vec![Vec::new(); ports],
        }
    }
}

impl WorkFn for ZipWork {
    fn process(&mut self, port: usize, input: &Value, cx: &mut ExecCtx) {
        self.buffers[port].push(input.clone());
        cx.meter().mem(1);
        cx.meter().branch(self.buffers.len() as u64);
        if self.buffers.iter().all(|b| !b.is_empty()) {
            let tuple: Vec<Value> = self.buffers.iter_mut().map(|b| b.remove(0)).collect();
            cx.meter().mem(tuple.len() as u64);
            cx.emit(Value::Tuple(tuple));
        }
    }
}

/// Incremental builder for [`Graph`].
pub struct GraphBuilder {
    graph: Graph,
    namespace_stack: Vec<crate::graph::Namespace>,
}

impl GraphBuilder {
    /// Start with the server namespace active (matching WaveScript's top
    /// level).
    pub fn new() -> Self {
        GraphBuilder {
            graph: Graph::new(),
            namespace_stack: vec![crate::graph::Namespace::Server],
        }
    }

    fn current_namespace(&self) -> crate::graph::Namespace {
        *self
            .namespace_stack
            .last()
            .expect("namespace stack never empty")
    }

    /// Begin a `Node{}` block; operators added until the matching
    /// [`Self::exit_namespace`] are replicated per embedded node.
    pub fn enter_node_namespace(&mut self) {
        self.namespace_stack.push(crate::graph::Namespace::Node);
    }

    /// Begin an explicit server block (rarely needed; server is default).
    pub fn enter_server_namespace(&mut self) {
        self.namespace_stack.push(crate::graph::Namespace::Server);
    }

    /// Close the innermost namespace block.
    pub fn exit_namespace(&mut self) {
        assert!(self.namespace_stack.len() > 1, "unbalanced namespace exit");
        self.namespace_stack.pop();
    }

    /// Add a data source (always in the node namespace: it samples hardware
    /// that only exists on the embedded node).
    pub fn source(&mut self, name: impl Into<String>) -> StreamRef {
        let spec = OperatorSpec::source(name);
        StreamRef(self.graph.add_operator(spec, Some(Box::new(IdentityWork))))
    }

    /// Add a stateless transform consuming `input`.
    pub fn transform(
        &mut self,
        name: impl Into<String>,
        work: Box<dyn WorkFn>,
        input: StreamRef,
    ) -> StreamRef {
        self.add(
            OperatorSpec::transform(name).in_namespace(self.current_namespace()),
            work,
            &[input],
        )
    }

    /// Add a stateful transform consuming `input`.
    pub fn stateful_transform(
        &mut self,
        name: impl Into<String>,
        work: Box<dyn WorkFn>,
        input: StreamRef,
    ) -> StreamRef {
        self.add(
            OperatorSpec::transform(name)
                .in_namespace(self.current_namespace())
                .with_state(),
            work,
            &[input],
        )
    }

    /// Add an operator with full control over its spec and inputs.
    pub fn operator(
        &mut self,
        mut spec: OperatorSpec,
        work: Box<dyn WorkFn>,
        inputs: &[StreamRef],
    ) -> StreamRef {
        spec.namespace = self.current_namespace();
        self.add(spec, work, inputs)
    }

    /// Add a `zipN` synchronizer over several streams.
    pub fn zip(&mut self, name: impl Into<String>, inputs: &[StreamRef]) -> StreamRef {
        let work = Box::new(ZipWork::new(inputs.len()));
        self.add(
            OperatorSpec::transform(name)
                .in_namespace(self.current_namespace())
                .with_state(),
            work,
            inputs,
        )
    }

    /// Add a terminal sink consuming `input` (server side, pinned).
    pub fn sink(&mut self, name: impl Into<String>, input: StreamRef) -> OperatorId {
        let spec = OperatorSpec::sink(name);
        let id = self.graph.add_operator(spec, None);
        self.graph.connect(input.0, id, 0);
        id
    }

    fn add(
        &mut self,
        spec: OperatorSpec,
        work: Box<dyn WorkFn>,
        inputs: &[StreamRef],
    ) -> StreamRef {
        debug_assert!(spec.kind == OperatorKind::Transform);
        let id = self.graph.add_operator(spec, Some(work));
        for (port, &input) in inputs.iter().enumerate() {
            self.graph.connect(input.0, id, port);
        }
        StreamRef(id)
    }

    /// Validate and return the finished graph.
    pub fn finish(self) -> Result<Graph, GraphError> {
        assert_eq!(self.namespace_stack.len(), 1, "unbalanced namespace blocks");
        self.graph.validate()?;
        Ok(self.graph)
    }
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Namespace;

    #[test]
    fn builder_wires_linear_pipeline() {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("mic");
        let f = b.transform("filt", Box::new(IdentityWork), src);
        b.exit_namespace();
        let g2 = b.transform("server_stage", Box::new(IdentityWork), f);
        b.sink("main", g2);
        let g = b.finish().unwrap();
        assert_eq!(g.operator_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.spec(f.0).namespace, Namespace::Node);
        assert_eq!(g.spec(g2.0).namespace, Namespace::Server);
    }

    #[test]
    fn zip_waits_for_all_ports() {
        let mut z = ZipWork::new(2);
        let mut cx = ExecCtx::new();
        z.process(0, &Value::I16(1), &mut cx);
        assert_eq!(cx.emitted_len(), 0);
        z.process(1, &Value::I16(2), &mut cx);
        let (out, _) = cx.finish();
        assert_eq!(out, vec![Value::Tuple(vec![Value::I16(1), Value::I16(2)])]);
    }

    #[test]
    fn fn_work_adapter() {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("s");
        let doubler = b.transform(
            "double",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let x = v.as_scalar().unwrap();
                cx.meter().fadd(1);
                cx.emit(Value::F32(x * 2.0));
            })),
            src,
        );
        b.exit_namespace();
        b.sink("out", doubler);
        let g = b.finish().unwrap();
        let mut cx = ExecCtx::new();
        g.instantiate_work()[doubler.0 .0]
            .as_mut()
            .unwrap()
            .process(0, &Value::F32(21.0), &mut cx);
        let (out, counts) = cx.finish();
        assert_eq!(out, vec![Value::F32(42.0)]);
        assert_eq!(counts.total(), 1);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_namespace_panics() {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let _ = b.finish();
    }
}
