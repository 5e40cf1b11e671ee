//! The one executor for a site of a partitioned graph.
//!
//! The paper runs the same work functions wherever the cut puts them: on
//! the mote under TinyOS task-model timing, or off it, where the runtime
//! "emulates many instances running within the network" for relocated
//! stateful node operators by keeping one state instance per node id
//! (§2.1.1), while operators declared in the server namespace keep a
//! single serial instance. A [`SiteExecutor`] is that one depth-first
//! cascade; what differs between a mote, a gateway and the server is only
//! which operators it hosts and whether its OS has a task model (§5.2).

use std::collections::HashSet;

use wishbone_dataflow::{
    EdgeId, ExecCtx, Graph, Namespace, OperatorId, OperatorKind, Value, WorkFn,
};
use wishbone_profile::{CostRow, Platform};

use crate::task::TaskModel;

/// Result of pushing one element through the operators a site hosts.
#[derive(Debug, Default)]
pub struct Cascade {
    /// CPU-seconds consumed at the site (including OS overhead and, where
    /// the site has a task model, task overheads).
    pub cpu_seconds: f64,
    /// Elements that must continue towards the next site:
    /// `(cut edge, element)` — a leaf's radio traffic, a gateway's
    /// hosted-operator output and its unmodified pass-through traffic.
    pub forwards: Vec<(EdgeId, Value)>,
    /// Per-operator CPU of this cascade, `(operator, charged seconds,
    /// profile-priced seconds)` in execution order — the telemetry source
    /// for [`TraceEvent::OperatorCost`](wishbone_trace::TraceEvent)
    /// samples. Collected only when the caller asks for it.
    pub op_costs: Vec<(OperatorId, f64, f64)>,
    /// Elements that reached a hosted sink.
    pub sink_arrivals: u64,
}

/// Executes the operators placed at one site for a whole class of nodes.
///
/// Node-namespace operators keep one work-function instance (and therefore
/// one copy of private state) *per originating node* — on the motes
/// themselves, and equally when relocated to a gateway or the server;
/// operators in the server namespace keep a single instance with serial
/// semantics. Whatever is not hosted here is **stored-and-forwarded**
/// towards the next site.
pub struct SiteExecutor {
    /// `per_node[node][op]`: instances for Node-namespace operators.
    per_node: Vec<Vec<Option<Box<dyn WorkFn>>>>,
    /// Shared instances for Server-namespace operators.
    shared: Vec<Option<Box<dyn WorkFn>>>,
    is_node_ns: Vec<bool>,
    hosted: Vec<bool>,
    /// The site platform's CPU pricing constants, built once.
    cost: CostRow,
    /// The platform's measured-vs-predicted CPU factor.
    os_overhead: f64,
    /// Task-granularity model of the site's OS, where it has one (the
    /// motes); `None` charges the bare platform cost.
    task_model: Option<TaskModel>,
    /// Emission buffers of finished invocations, one per cascade depth
    /// in use, handed to the next [`ExecCtx`].
    buffers: Vec<Vec<Value>>,
}

impl SiteExecutor {
    /// Build the site's state for `n_nodes` originating nodes; `site_ops`
    /// is the operator set placed here, `platform` its cost model. Only
    /// hosted operators are instantiated: a node-namespace one once per
    /// node, a server-namespace one once.
    pub fn new(
        graph: &Graph,
        site_ops: &HashSet<OperatorId>,
        n_nodes: usize,
        platform: Platform,
        task_model: Option<TaskModel>,
    ) -> Self {
        let is_node_ns: Vec<bool> = graph
            .operator_ids()
            .map(|id| graph.spec(id).namespace == Namespace::Node)
            .collect();
        let hosted: Vec<bool> = graph
            .operator_ids()
            .map(|id| site_ops.contains(&id))
            .collect();
        let per_node = (0..n_nodes)
            .map(|_| graph.instantiate_work_where(|id| hosted[id.0] && is_node_ns[id.0]))
            .collect();
        let shared = graph.instantiate_work_where(|id| hosted[id.0] && !is_node_ns[id.0]);
        SiteExecutor {
            per_node,
            shared,
            is_node_ns,
            hosted,
            cost: CostRow::of(&platform),
            os_overhead: platform.os_overhead,
            task_model,
            buffers: Vec::new(),
        }
    }

    /// Process one arrival at `source` on node `node`, running the
    /// depth-first cascade through the operators hosted here. `costs`
    /// asks for [`Cascade::op_costs`].
    pub(crate) fn process_event(
        &mut self,
        graph: &Graph,
        node: usize,
        source: OperatorId,
        input: &Value,
        costs: bool,
    ) -> Cascade {
        debug_assert!(self.hosted[source.0], "cascade entered a foreign operator");
        let mut cascade = Cascade::default();
        self.run(graph, node, source, 0, input, costs, &mut cascade);
        cascade
    }

    /// Deliver an element that arrived from `node` over cut edge `edge`.
    /// A hosted destination is executed (cascading within the site);
    /// anything else — including the incoming element itself when its
    /// destination lives further downstream — comes back as a forward.
    pub fn deliver(
        &mut self,
        graph: &Graph,
        node: usize,
        edge: EdgeId,
        value: &Value,
        costs: bool,
    ) -> Cascade {
        let mut cascade = Cascade::default();
        let e = graph.edge(edge);
        if self.hosted[e.dst.0] {
            self.run(graph, node, e.dst, e.dst_port, value, costs, &mut cascade);
        } else {
            // Pure store-and-forward: the destination is on a later site.
            cascade.forwards.push((edge, value.clone()));
        }
        cascade
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        graph: &Graph,
        node: usize,
        op: OperatorId,
        port: usize,
        input: &Value,
        costs: bool,
        cascade: &mut Cascade,
    ) {
        if graph.spec(op).kind == OperatorKind::Sink {
            cascade.sink_arrivals += 1;
            return;
        }
        let mut cx = ExecCtx::with_buffer(self.buffers.pop().unwrap_or_default());
        let slot = if self.is_node_ns[op.0] {
            &mut self.per_node[node][op.0]
        } else {
            &mut self.shared[op.0]
        };
        slot.as_mut()
            .unwrap_or_else(|| panic!("operator {op} has no work function"))
            .process(port, input, &mut cx);
        let (mut outputs, counts) = cx.finish();

        let priced = self.cost.seconds_for(&counts);
        let busy = priced * self.os_overhead;
        let charged = match self.task_model {
            Some(tm) => tm.total_time(busy, counts.loop_fraction()),
            None => busy,
        };
        cascade.cpu_seconds += charged;
        if costs {
            cascade.op_costs.push((op, charged, priced));
        }
        for v in &outputs {
            for &eid in graph.out_edges(op) {
                let e = graph.edge(eid);
                if self.hosted[e.dst.0] {
                    self.run(graph, node, e.dst, e.dst_port, v, costs, cascade);
                } else {
                    cascade.forwards.push((eid, v.clone()));
                }
            }
        }
        outputs.clear();
        self.buffers.push(outputs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_dataflow::{FnWork, GraphBuilder, OperatorSpec};

    /// src -> counter (stateful: emits running count) -> sink
    fn counting_graph() -> (Graph, OperatorId, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let counter = b.operator(
            OperatorSpec::transform("counter").with_state(),
            Box::new(FnWork({
                let mut n = 0i32;
                move |_p: usize, _v: &Value, cx: &mut ExecCtx| {
                    n += 1;
                    cx.meter().int(1);
                    cx.emit(Value::I32(n));
                }
            })),
            &[src],
        );
        b.exit_namespace();
        let sink = b.sink("out", counter);
        (b.finish().unwrap(), src.0, counter.0, sink)
    }

    /// A mote-class site: TMote Sky under the TinyOS task model.
    fn mote(g: &Graph, ops: &[OperatorId], n_nodes: usize, tm: TaskModel) -> SiteExecutor {
        let ops = ops.iter().copied().collect();
        SiteExecutor::new(g, &ops, n_nodes, Platform::tmote_sky(), Some(tm))
    }

    /// A site with no task model (a gateway, the server).
    fn bare(g: &Graph, ops: &[OperatorId], n_nodes: usize, platform: Platform) -> SiteExecutor {
        SiteExecutor::new(g, &ops.iter().copied().collect(), n_nodes, platform, None)
    }

    #[test]
    fn node_executor_cuts_at_partition_boundary() {
        let (g, src, _counter, _) = counting_graph();
        // Node partition = {src}: counter runs on the server.
        let mut leaf = mote(&g, &[src], 1, TaskModel::tinyos());
        let c = leaf.process_event(&g, 0, src, &Value::I16(1), false);
        assert_eq!(c.forwards, vec![(g.out_edges(src)[0], Value::I16(1))]);
        assert!(c.cpu_seconds > 0.0);
    }

    #[test]
    fn node_executor_runs_whole_node_partition() {
        let (g, src, counter, _) = counting_graph();
        let mut leaf = mote(&g, &[src, counter], 2, TaskModel::tinyos());
        let c1 = leaf.process_event(&g, 0, src, &Value::I16(1), false);
        let c2 = leaf.process_event(&g, 0, src, &Value::I16(1), false);
        let c3 = leaf.process_event(&g, 1, src, &Value::I16(1), false);
        // Counter state advances on the node: transmitted values 1 then
        // 2, and the class's other node starts over at 1.
        assert_eq!(c1.forwards[0].1, Value::I32(1));
        assert_eq!(c2.forwards[0].1, Value::I32(2));
        assert_eq!(c3.forwards[0].1, Value::I32(1));
    }

    /// src -> counter (emits its running count `n`, stateful, declared in
    /// `namespace`) -> tell (server side: emits `n` elements) -> sink, so
    /// the sink arrivals of one delivery read back the counter's state.
    fn telltale_graph(namespace: Namespace) -> (Graph, OperatorId, Vec<OperatorId>) {
        let mut b = GraphBuilder::new();
        let src = b.source("src");
        match namespace {
            Namespace::Node => b.enter_node_namespace(),
            Namespace::Server => b.enter_server_namespace(),
        }
        let counter = b.stateful_transform(
            "counter",
            Box::new(FnWork({
                let mut n = 0i32;
                move |_p: usize, _v: &Value, cx: &mut ExecCtx| {
                    n += 1;
                    cx.meter().int(1);
                    cx.emit(Value::I32(n));
                }
            })),
            src,
        );
        b.exit_namespace();
        let tell = b.transform(
            "tell",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let Value::I32(n) = *v else {
                    panic!("tell reads counts")
                };
                (0..n).for_each(|_| cx.emit(Value::I32(n)));
            })),
            counter,
        );
        let sink = b.sink("out", tell);
        (b.finish().unwrap(), src.0, vec![counter.0, tell.0, sink])
    }

    #[test]
    fn server_keeps_per_node_state_for_relocated_ops() {
        let (g, src, root_ops) = telltale_graph(Namespace::Node);
        let mut root = bare(&g, &root_ops, 2, Platform::server());
        let cut = g.out_edges(src)[0];
        let mut arrivals = |node| {
            root.deliver(&g, node, cut, &Value::I16(1), false)
                .sink_arrivals
        };
        // Two deliveries from node 0, one from node 1: the counter state is
        // per node (the paper's table indexed by node ID).
        assert_eq!([arrivals(0), arrivals(0), arrivals(1)], [1, 2, 1]);
    }

    #[test]
    fn server_namespace_ops_share_one_instance() {
        // The same aggregator declared server-side: one serial instance,
        // so node 1's first element is the aggregator's third.
        let (g, src, root_ops) = telltale_graph(Namespace::Server);
        let mut root = bare(&g, &root_ops, 2, Platform::server());
        let cut = g.out_edges(src)[0];
        let mut arrivals = |node| {
            root.deliver(&g, node, cut, &Value::I16(1), false)
                .sink_arrivals
        };
        assert_eq!([arrivals(0), arrivals(0), arrivals(1)], [1, 2, 3]);
    }

    #[test]
    fn a_site_instantiates_only_the_operators_it_hosts() {
        let (g, src, root_ops) = telltale_graph(Namespace::Node);
        let [counter, tell, _sink] = root_ops[..] else {
            panic!("telltale has three operators past its source")
        };
        let live = |slots: &[Option<Box<dyn WorkFn>>]| -> Vec<OperatorId> {
            (slots.iter().enumerate())
                .filter(|(_, w)| w.is_some())
                .map(|(i, _)| OperatorId(i))
                .collect()
        };
        let instances = |site: &SiteExecutor| {
            let per_node: Vec<_> = site.per_node.iter().map(|w| live(w)).collect();
            (per_node, live(&site.shared))
        };
        // The root: the node-namespace counter once per node, the
        // server-namespace tell once, the sink (no work function) never.
        let root = bare(&g, &root_ops, 3, Platform::server());
        assert_eq!(instances(&root), (vec![vec![counter]; 3], vec![tell]));
        let leaf = mote(&g, &[src], 2, TaskModel::tinyos());
        assert_eq!(instances(&leaf), (vec![vec![src]; 2], vec![]));
        let relay = bare(&g, &[], 4, Platform::gumstix());
        assert_eq!(instances(&relay), (vec![vec![]; 4], vec![]));
    }

    #[test]
    fn relay_runs_hosted_ops_and_forwards_the_rest() {
        let (g, src, counter, _) = counting_graph();
        // Tier chain: {src} on the mote, {counter} on the relay, sink on
        // the server.
        let mut relay = bare(&g, &[counter], 2, Platform::gumstix());
        let cut = g.out_edges(src)[0];
        let c1 = relay.deliver(&g, 0, cut, &Value::I16(1), false);
        let c2 = relay.deliver(&g, 0, cut, &Value::I16(1), false);
        let c3 = relay.deliver(&g, 1, cut, &Value::I16(1), false);
        // The counter runs *at the relay* with per-node state: node 0 sees
        // 1 then 2, node 1 starts over at 1.
        assert_eq!(c1.forwards[0].1, Value::I32(1));
        assert_eq!(c2.forwards[0].1, Value::I32(2));
        assert_eq!(c3.forwards[0].1, Value::I32(1));
        assert!(c1.cpu_seconds > 0.0);
        // Every forward targets the counter -> sink edge.
        let out = g.out_edges(counter)[0];
        assert!(c1.forwards.iter().all(|(e, _)| *e == out));
        assert_eq!(c1.sink_arrivals, 0, "the sink is not hosted here");
    }

    #[test]
    fn relay_passes_through_traffic_for_later_tiers() {
        let (g, src, _counter, _) = counting_graph();
        // Empty relay tier: everything is pass-through, untouched.
        let mut relay = bare(&g, &[], 1, Platform::gumstix());
        let cut = g.out_edges(src)[0];
        let c = relay.deliver(&g, 0, cut, &Value::I16(7), true);
        assert_eq!(c.forwards, vec![(cut, Value::I16(7))]);
        assert_eq!(c.cpu_seconds, 0.0, "store-and-forward costs no app CPU");
        assert!(c.op_costs.is_empty());
    }

    #[test]
    fn task_overheads_show_up_in_cascade_time() {
        let (g, src, counter, _) = counting_graph();
        let overhead = |task_overhead_s| TaskModel {
            max_task_s: 0.005,
            task_overhead_s,
        };
        let mut heavy = mote(&g, &[src, counter], 1, overhead(0.010));
        let mut light = mote(&g, &[src, counter], 1, overhead(0.0));
        let ch = heavy.process_event(&g, 0, src, &Value::I16(1), false);
        let cl = light.process_event(&g, 0, src, &Value::I16(1), false);
        assert!(
            ch.cpu_seconds > cl.cpu_seconds + 0.015,
            "2 ops x 10ms overhead"
        );
    }

    #[test]
    fn a_site_without_a_task_model_charges_the_bare_platform_cost() {
        let (g, src, counter, _) = counting_graph();
        let tm = TaskModel {
            max_task_s: 0.005,
            task_overhead_s: 0.010,
        };
        // Same graph, same platform: only the task model differs.
        let mut tasked = mote(&g, &[src, counter], 1, tm);
        let mut plain = bare(&g, &[src, counter], 1, Platform::tmote_sky());
        let ct = tasked.process_event(&g, 0, src, &Value::I16(1), false);
        let cp = plain.process_event(&g, 0, src, &Value::I16(1), false);
        assert_eq!(ct.forwards, cp.forwards);
        // Two short operators, one task each: 2 x 10 ms of overhead.
        let ops = 2.0;
        assert!(
            (ct.cpu_seconds - cp.cpu_seconds - ops * 0.010).abs() < 1e-12,
            "tasked {} vs bare {}",
            ct.cpu_seconds,
            cp.cpu_seconds
        );
    }

    #[test]
    fn cost_samples_are_collected_only_when_asked() {
        let (g, src, counter, _) = counting_graph();
        let mut leaf = mote(&g, &[src, counter], 1, TaskModel::tinyos());
        let quiet = leaf.process_event(&g, 0, src, &Value::I16(1), false);
        let traced = leaf.process_event(&g, 0, src, &Value::I16(1), true);
        assert!(quiet.op_costs.is_empty());
        // One sample per operator run, in execution order, summing to the
        // cascade's charge — which asking does not change.
        let ops: Vec<OperatorId> = traced.op_costs.iter().map(|&(op, _, _)| op).collect();
        assert_eq!(ops, vec![src, counter]);
        let sum: f64 = traced.op_costs.iter().map(|&(_, s, _)| s).sum();
        assert!((sum - traced.cpu_seconds).abs() < 1e-15);
        assert!((quiet.cpu_seconds - traced.cpu_seconds).abs() < 1e-15);
        // The profile price is the bare platform cost, below the charge
        // that adds OS and task overheads to it.
        assert!(traced
            .op_costs
            .iter()
            .all(|&(_, charged, priced)| 0.0 < priced && priced < charged));
    }
}
