//! A graph's work functions are prototypes that nothing runs: profiling
//! runs its own instances, so it leaves the graph as it found it.

use wishbone_dataflow::{ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value, WorkFn};
use wishbone_profile::{profile, SourceTrace};

/// src -> a stateful counter -> sink. The counter counts the elements it
/// has seen and, when `odd_only`, emits the count only when it is odd.
fn counter_graph(odd_only: bool) -> (Graph, OperatorId, OperatorId) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let counter = b.stateful_transform(
        "counter",
        Box::new(FnWork({
            let mut n = 0i32;
            move |_p: usize, _v: &Value, cx: &mut ExecCtx| {
                n += 1;
                cx.meter().int(1);
                if !odd_only || n % 2 == 1 {
                    cx.emit(Value::I32(n));
                }
            }
        })),
        src,
    );
    b.exit_namespace();
    b.sink("out", counter);
    (b.finish().unwrap(), src.0, counter.0)
}

fn five_elements(source: OperatorId) -> SourceTrace {
    SourceTrace {
        source,
        elements: (0..5).map(Value::I32).collect(),
        rate_hz: 1.0,
    }
}

#[test]
fn profiling_one_graph_twice_gives_one_profile() {
    let (g, src, counter) = counter_graph(true);
    let out = g.out_edges(counter)[0];
    let traces = [five_elements(src)];
    let first = profile(&g, &traces).unwrap();
    let second = profile(&g, &traces).unwrap();
    assert_eq!(first.edge(out).elements, 3, "counts 1, 3 and 5 are odd");
    for e in g.edge_ids() {
        assert_eq!(first.edge(e).elements, second.edge(e).elements, "{e}");
        assert_eq!(first.edge(e).bytes, second.edge(e).bytes, "{e}");
    }
    assert_eq!(first.fingerprint(), second.fingerprint());
}

#[test]
fn an_instance_handed_out_after_profiling_starts_from_its_initial_state() {
    let (g, src, counter) = counter_graph(false);
    profile(&g, &[five_elements(src)]).unwrap();
    let mut work = g.instantiate_work();
    let fresh: &mut Box<dyn WorkFn> = work[counter.0].as_mut().unwrap();
    let mut cx = ExecCtx::new();
    fresh.process(0, &Value::I32(0), &mut cx);
    assert_eq!(cx.finish().0, vec![Value::I32(1)]);
}
