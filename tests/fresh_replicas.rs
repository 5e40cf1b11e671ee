//! Profiling leaves a graph as it was built: it runs its own instances,
//! so every replica the simulator takes of a stateful operator (the
//! speech app's pre-emphasis, the EEG app's FIR cascades, `zipN`s and
//! declaration counter) starts from its initial state, however often the
//! graph was profiled.

use std::collections::HashSet;

use wishbone::dataflow::ExecCtx;
use wishbone::prelude::*;

/// Each operator's emissions, in order, when a fresh instance set of
/// `graph` runs `traces` depth-first in timestamp order.
fn emissions(graph: &Graph, traces: &[SourceTrace]) -> Vec<(OperatorId, Value)> {
    fn deliver(
        graph: &Graph,
        work: &mut [Option<Box<dyn WorkFn>>],
        op: OperatorId,
        port: usize,
        input: &Value,
        out: &mut Vec<(OperatorId, Value)>,
    ) {
        let Some(w) = work[op.0].as_mut() else {
            return; // a sink
        };
        let mut cx = ExecCtx::new();
        w.process(port, input, &mut cx);
        for v in cx.finish().0 {
            out.push((op, v.clone()));
            for &e in graph.out_edges(op) {
                let e = graph.edge(e);
                deliver(graph, work, e.dst, e.dst_port, &v, out);
            }
        }
    }
    let mut timeline: Vec<(f64, OperatorId, &Value)> = traces
        .iter()
        .flat_map(|t| {
            let at = |i: usize| i as f64 / t.rate_hz;
            t.elements
                .iter()
                .enumerate()
                .map(move |(i, v)| (at(i), t.source, v))
        })
        .collect();
    timeline.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut work = graph.instantiate_work();
    let mut out = Vec::new();
    for (_, src, v) in timeline {
        deliver(graph, &mut work, src, 0, v, &mut out);
    }
    out
}

/// Three motes run every node-namespace operator over a roomy WiFi hop;
/// the server runs the rest.
fn simulate_on_motes(graph: &Graph, traces: &[SourceTrace]) -> TreeDeploymentReport {
    let node_ops: HashSet<OperatorId> = graph
        .operator_ids()
        .filter(|&id| graph.spec(id).namespace == Namespace::Node)
        .collect();
    let feeds = traces
        .iter()
        .map(|t| SourceFeed {
            source: t.source,
            trace: t.elements.clone(),
            rate_hz: t.rate_hz,
        })
        .collect();
    let topo = TreeTopology::chain(
        &[Platform::gumstix(), Platform::server()],
        &[ChannelParams::wifi(1e6)],
        3,
    );
    let route = LeafRoute::chain(graph, &[node_ops], feeds);
    let cfg = SimulationConfig {
        duration_s: 5.0,
        ..SimulationConfig::motes(3, 5)
    };
    simulate_deployment_tree(graph, &topo, &[route], &cfg)
}

/// `build` one graph and profile it three times, and a second that is
/// never profiled: the two simulate alike, and their instances emit
/// alike. (The second is not profiled because one profile of a trace
/// leaves these operators in the state three do: each keeps only its
/// last samples.)
fn assert_profiling_leaves_no_state(build: impl Fn() -> (Graph, Vec<SourceTrace>)) {
    let (profiled, traces) = build();
    for _ in 0..3 {
        profile(&profiled, &traces).expect("profiling succeeds");
    }
    let (fresh, _) = build();
    assert_eq!(
        simulate_on_motes(&profiled, &traces),
        simulate_on_motes(&fresh, &traces)
    );
    assert_eq!(emissions(&profiled, &traces), emissions(&fresh, &traces));
}

#[test]
fn a_speech_graph_profiled_three_times_simulates_like_a_fresh_one() {
    assert_profiling_leaves_no_state(|| {
        let app = build_speech_app();
        let traces = vec![app.trace(40, 1)];
        (app.graph, traces)
    });
}

#[test]
fn an_eeg_graph_profiled_three_times_simulates_like_a_fresh_one() {
    assert_profiling_leaves_no_state(|| {
        let app = build_eeg_app(EegParams {
            n_channels: 2,
            ..Default::default()
        });
        let traces = app.traces(8, 3..6, 5);
        (app.graph, traces)
    });
}
