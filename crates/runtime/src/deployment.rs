//! The node-side pass of the deployment simulation, and its inputs.
//!
//! Reproduces the paper's testbed methodology (§7.3): run the partitioned
//! application, count *missed input events* (CPU overrun at the node) and
//! *dropped network messages* (channel congestion), and report goodput —
//! "the percentage of sample data that was fully processed to produce
//! output ... roughly the product of the fraction of data processed at
//! sensor inputs, and the fraction of network messages that were
//! successfully received." The channels, gateways, and server above the
//! nodes are simulated by [`crate::tree`].

use std::collections::HashSet;

use wishbone_dataflow::{EdgeId, Graph, OperatorId, Value};
use wishbone_net::ChannelParams;
use wishbone_profile::Platform;
use wishbone_trace::{TraceEvent, TraceSink};

use crate::exec::SiteExecutor;
use crate::task::TaskModel;

/// Configuration of one simulated deployment run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Simulated wall-clock duration, seconds.
    pub duration_s: f64,
    /// Source-rate multiplier relative to the trace's reference rate.
    pub rate_multiplier: f64,
    /// Deterministic seed for channel losses.
    pub seed: u64,
    /// Task-granularity model of the node OS.
    pub task_model: TaskModel,
    /// CPU cost of transmitting one packet, seconds (processor involvement
    /// in communication — one of the overheads the paper notes its additive
    /// model omits, §7.3).
    pub per_packet_cpu_s: f64,
}

/// Source buffer depth in events (TinyOS `ReadStream` double buffering,
/// §6.2.3). Arrivals beyond this while busy are missed.
const SOURCE_BUFFER: usize = 2;

impl SimulationConfig {
    /// A mote-class deployment at the reference rate. How many nodes a
    /// class has is its [`TreeTopology::counts`](crate::tree::TreeTopology::counts)
    /// entry alone: `_n_nodes` is unused, and stays only because the
    /// benchmark fixtures name this signature.
    pub fn motes(_n_nodes: usize, seed: u64) -> Self {
        SimulationConfig {
            duration_s: 30.0,
            rate_multiplier: 1.0,
            seed,
            task_model: TaskModel::tinyos(),
            per_packet_cpu_s: 0.8e-3,
        }
    }
}

/// Input feed for one source operator on every node.
#[derive(Debug, Clone)]
pub struct SourceFeed {
    /// The source operator this feed drives.
    pub source: OperatorId,
    /// Elements, replayed cyclically.
    pub trace: Vec<Value>,
    /// Reference element rate, elements/second (scaled by the config's
    /// rate multiplier).
    pub rate_hz: f64,
}

/// One element in flight between two sites of a route.
pub(crate) struct InFlight {
    /// Originating node within the leaf class.
    pub(crate) node: usize,
    /// The cut edge the element is crossing.
    pub(crate) edge: EdgeId,
    pub(crate) value: Value,
    /// When the node's CPU finished the cascade that emitted it (or the
    /// element it descends from). The tree simulator uses this to place
    /// elements inside failure windows.
    pub(crate) produced_at: f64,
}

impl InFlight {
    /// A cascade's `forwards` as elements in flight from `node`.
    pub(crate) fn all(
        node: usize,
        produced_at: f64,
        forwards: Vec<(EdgeId, Value)>,
    ) -> impl Iterator<Item = InFlight> {
        forwards.into_iter().map(move |(edge, value)| InFlight {
            node,
            edge,
            value,
            produced_at,
        })
    }
}

/// Output of the node-side simulation pass (CPU + queueing).
pub(crate) struct NodePass {
    pub(crate) events_offered: u64,
    pub(crate) events_processed: u64,
    pub(crate) busy_total: f64,
    /// Transmissions in send order.
    pub(crate) sends: Vec<InFlight>,
    /// Events missed because the node's battery had died.
    pub(crate) events_lost_to_death: u64,
    /// Per-death accounting aligned with the `deaths` parameter of
    /// [`run_node_pass_failing`]: `(events lost, events processed by the
    /// dying node, death wall-clock time)`.
    pub(crate) death_outcomes: Vec<(u64, u64, f64)>,
}

/// Pass 1: the `n_nodes` nodes of a class are independent except for the
/// shared channel; simulate each node's arrival queue to find which events
/// are processed and what traffic it offers to the first hop.
///
/// `deaths` lists `(node, after_events)` battery deaths — node `node`
/// stops processing (and transmitting) once `after_events` source events
/// have been offered to it; later arrivals count as offered but are lost
/// to the outage.
///
/// `site` labels the emitted [`TraceEvent::OperatorCost`] samples;
/// with a [`wishbone_trace::NullSink`] the instrumentation compiles away
/// entirely.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_node_pass_failing<S: TraceSink>(
    graph: &Graph,
    node_ops: &HashSet<OperatorId>,
    feeds: &[SourceFeed],
    node_platform: &Platform,
    channel: &ChannelParams,
    n_nodes: usize,
    cfg: &SimulationConfig,
    deaths: &[(usize, u64)],
    site: usize,
    sink: &mut S,
) -> NodePass {
    assert!(
        !feeds.is_empty(),
        "deployment needs at least one source feed"
    );
    for f in feeds {
        assert!(!f.trace.is_empty(), "deployment needs non-empty traces");
        assert!(f.rate_hz > 0.0);
    }
    assert!(n_nodes >= 1);

    // Merged per-node arrival schedule: (time, feed index, element index).
    let mut schedule: Vec<(f64, usize, usize)> = Vec::new();
    for (fi, f) in feeds.iter().enumerate() {
        let rate = f.rate_hz * cfg.rate_multiplier;
        let n = (cfg.duration_s * rate).floor() as u64;
        for k in 0..n {
            schedule.push((k as f64 / rate, fi, k as usize));
        }
    }
    schedule.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

    let mut exec = SiteExecutor::new(
        graph,
        node_ops,
        n_nodes,
        node_platform.clone(),
        Some(cfg.task_model),
    );

    let mut pass = NodePass {
        events_offered: 0,
        events_processed: 0,
        busy_total: 0.0,
        sends: Vec::new(),
        events_lost_to_death: 0,
        death_outcomes: vec![(0, 0, cfg.duration_s); deaths.len()],
    };

    for node in 0..n_nodes {
        // Battery death threshold for this node (events offered before
        // the node goes dark), if the failure plan names it.
        let my_deaths: Vec<usize> = deaths
            .iter()
            .enumerate()
            .filter(|&(_, &(n, _))| n == node)
            .map(|(i, _)| i)
            .collect();
        let dead_after: Option<u64> = my_deaths.iter().map(|&i| deaths[i].1).min();
        let mut offered_here = 0u64;
        // When the CPU finishes its current queue.
        let mut free_at = 0.0f64;
        // Each source has its own buffer (TinyOS ReadStream double
        // buffering is per interface), so simultaneous multi-channel
        // arrivals do not evict each other.
        let mut queued = vec![0usize; feeds.len()];
        for &(t, fi, k) in &schedule {
            pass.events_offered += 1;
            offered_here += 1;
            if let Some(after) = dead_after {
                if offered_here > after {
                    pass.events_lost_to_death += 1;
                    for &i in &my_deaths {
                        let o = &mut pass.death_outcomes[i];
                        o.0 += 1;
                        o.2 = o.2.min(t);
                    }
                    continue; // the node is dead
                }
            }
            // Drain the queues virtually: everything queued completes
            // before `free_at`; arrivals when a source's backlog exceeds
            // its buffer are missed (the ReadStream has nowhere to put
            // them).
            if t >= free_at {
                queued.iter_mut().for_each(|q| *q = 0);
            }
            if queued[fi] >= SOURCE_BUFFER {
                continue; // missed input event
            }
            let feed = &feeds[fi];
            let elem = &feed.trace[k % feed.trace.len()];
            let cascade = exec.process_event(graph, node, feed.source, elem, sink.enabled());
            for &(op, cpu_s, profile_s) in &cascade.op_costs {
                sink.record(TraceEvent::OperatorCost {
                    site,
                    op,
                    cpu_s,
                    profile_s,
                });
            }
            let tx_cpu = cascade
                .forwards
                .iter()
                .map(|(_, v)| {
                    channel.format.packets_for(v.wire_size()) as f64 * cfg.per_packet_cpu_s
                })
                .sum::<f64>();
            let service = cascade.cpu_seconds + tx_cpu;
            pass.busy_total += service;
            free_at = free_at.max(t) + service;
            queued[fi] += 1;
            pass.events_processed += 1;
            for &i in &my_deaths {
                pass.death_outcomes[i].1 += 1;
            }
            pass.sends
                .extend(InFlight::all(node, free_at, cascade.forwards));
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{simulate_deployment_tree, LeafRoute, TreeDeploymentReport, TreeTopology};
    use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder};

    /// src -> burn (costs `cost` int ops, reduces 10x) -> sink
    fn pipeline(cost: u64) -> (Graph, OperatorId, OperatorId) {
        pipeline_with_payload(cost, 10)
    }

    /// Like `pipeline` but with a configurable emitted-window length.
    fn pipeline_with_payload(cost: u64, payload: usize) -> (Graph, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let burn = b.stateful_transform(
            "burn",
            Box::new(FnWork({
                let mut i = 0u64;
                move |_p: usize, _v: &Value, cx: &mut ExecCtx| {
                    i += 1;
                    cx.meter().loop_scope(cost, |m| m.int(cost));
                    if i.is_multiple_of(10) {
                        cx.emit(Value::VecI16(vec![0; payload]));
                    }
                }
            })),
            src,
        );
        b.exit_namespace();
        b.sink("out", burn);
        let g = b.finish().unwrap();
        (g, src.0, burn.0)
    }

    fn trace(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::VecI16(vec![i as i16; 100])).collect()
    }

    /// One class of `n_nodes` TMotes under the server over the mote
    /// channel, `node_ops` on the motes — site 1 is the motes, site 0 the
    /// server.
    fn simulate_motes(
        g: &Graph,
        node_ops: &HashSet<OperatorId>,
        n_nodes: usize,
        feeds: Vec<SourceFeed>,
        cfg: &SimulationConfig,
    ) -> TreeDeploymentReport {
        let topo = TreeTopology::chain(
            &[Platform::tmote_sky(), Platform::server()],
            &[ChannelParams::mote()],
            n_nodes,
        );
        let route = LeafRoute::chain(g, std::slice::from_ref(node_ops), feeds);
        simulate_deployment_tree(g, &topo, &[route], cfg)
    }

    fn feed(source: OperatorId, n: usize, rate_hz: f64) -> Vec<SourceFeed> {
        vec![SourceFeed {
            source,
            trace: trace(n),
            rate_hz,
        }]
    }

    #[test]
    fn light_load_processes_everything() {
        let (g, src, burn) = pipeline(100);
        let node_ops: HashSet<_> = [src, burn].into_iter().collect();
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 1)
        };
        let r = simulate_motes(&g, &node_ops, 1, feed(src, 100, 10.0), &cfg);
        let leaf = &r.leaves[0];
        assert_eq!(leaf.events_offered, 100);
        assert_eq!(leaf.events_processed, 100);
        // 10 single-packet elements at 5% baseline loss: expect ~9.5
        // delivered; allow binomial noise.
        assert!(
            leaf.goodput_ratio() > 0.7,
            "goodput {}",
            leaf.goodput_ratio()
        );
        assert!(r.site_cpu_utilization[1] < 0.2);
        // 10x reduction: 10 elements sent, and they're small.
        assert_eq!(leaf.hop_elements_sent[0], 10);
    }

    #[test]
    fn cpu_overload_misses_input_events() {
        // Each event costs ~2.5M int ops = ~0.8s on a 4 MHz mote with
        // os_overhead; at 10 events/s the node can keep up with only ~1/8.
        let (g, src, burn) = pipeline(2_500_000);
        let node_ops: HashSet<_> = [src, burn].into_iter().collect();
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 2)
        };
        let r = simulate_motes(&g, &node_ops, 1, feed(src, 100, 10.0), &cfg);
        assert!(
            r.leaves[0].input_processed_ratio() < 0.5,
            "ratio {}",
            r.leaves[0].input_processed_ratio()
        );
        assert!(r.site_cpu_utilization[1] > 0.9);
    }

    #[test]
    fn network_overload_drops_messages() {
        // All-on-server cut: raw 202-byte elements at 40/s = ~8 on-air KB/s
        // + per-packet headers over a 6 KB/s channel.
        let (g, src, _burn) = pipeline(100);
        let node_ops: HashSet<_> = [src].into_iter().collect();
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 3)
        };
        let r = simulate_motes(&g, &node_ops, 1, feed(src, 100, 40.0), &cfg);
        assert!(
            r.edge_offered_load_bytes_per_sec[1] > ChannelParams::mote().capacity_bytes_per_sec
        );
        assert!(
            r.leaves[0].hop_delivery_ratio(0) < 0.5,
            "delivery {}",
            r.leaves[0].hop_delivery_ratio(0)
        );
        assert!(
            r.leaves[0].input_processed_ratio() > 0.9,
            "cheap source shouldn't miss inputs"
        );
    }

    #[test]
    fn twenty_nodes_share_the_bottleneck() {
        // 202-byte elements: 20 nodes push the shared channel well past
        // saturation while a single node stays under it.
        let (g, src, burn) = pipeline_with_payload(1000, 100);
        let node_ops: HashSet<_> = [src, burn].into_iter().collect();
        let run = |n_nodes: usize| {
            simulate_motes(
                &g,
                &node_ops,
                n_nodes,
                feed(src, 100, 20.0),
                &SimulationConfig {
                    duration_s: 10.0,
                    ..SimulationConfig::motes(1, 4)
                },
            )
        };
        let (one, twenty) = (run(1), run(20));
        assert!(
            twenty.edge_offered_load_bytes_per_sec[1]
                > 10.0 * one.edge_offered_load_bytes_per_sec[1]
        );
        assert!(twenty.leaves[0].hop_delivery_ratio(0) <= one.leaves[0].hop_delivery_ratio(0));
    }

    #[test]
    fn sink_arrivals_track_deliveries() {
        let (g, src, burn) = pipeline(10);
        let node_ops: HashSet<_> = [src, burn].into_iter().collect();
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 5)
        };
        let r = simulate_motes(&g, &node_ops, 1, feed(src, 100, 10.0), &cfg);
        assert_eq!(r.sink_arrivals, r.leaves[0].hop_elements_delivered[0]);
    }

    #[test]
    fn multi_source_merges_arrivals() {
        // Two sources on one node: a fast cheap one and a slow heavy one.
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let s1 = b.source("fast");
        let s2 = b.source("slow");
        let t1 = b.transform(
            "t1",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                cx.meter().int(10);
                cx.emit(v.clone());
            })),
            s1,
        );
        let t2 = b.transform(
            "t2",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                cx.meter().loop_scope(1000, |m| m.int(1000));
                cx.emit(v.clone());
            })),
            s2,
        );
        b.exit_namespace();
        b.sink("o1", t1);
        b.sink("o2", t2);
        let g = b.finish().unwrap();
        let node_ops: HashSet<_> = [s1.0, s2.0, t1.0, t2.0].into_iter().collect();
        let feeds = vec![
            SourceFeed {
                source: s1.0,
                trace: vec![Value::I16(1)],
                rate_hz: 20.0,
            },
            SourceFeed {
                source: s2.0,
                trace: vec![Value::VecI16(vec![0; 50])],
                rate_hz: 5.0,
            },
        ];
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 8)
        };
        let r = simulate_motes(&g, &node_ops, 1, feeds, &cfg);
        let leaf = &r.leaves[0];
        // 20/s + 5/s over 10s = 250 events offered.
        assert_eq!(leaf.events_offered, 250);
        assert!(
            leaf.input_processed_ratio() > 0.95,
            "light load processes everything"
        );
        assert_eq!(
            leaf.hop_elements_sent[0], leaf.events_processed,
            "both pipelines transmit"
        );
    }

    /// src -> burn(node) -> squeeze(relay candidate, 2x reducer) -> sink
    fn three_stage() -> (Graph, OperatorId, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let burn = b.transform(
            "burn",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                cx.meter().loop_scope(100, |m| m.int(100));
                cx.emit(v.clone());
            })),
            src,
        );
        let squeeze = b.transform(
            "squeeze",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter()
                    .loop_scope(w.len() as u64, |m| m.int(w.len() as u64));
                cx.emit(Value::VecI16(w.iter().step_by(2).copied().collect()));
            })),
            burn,
        );
        b.exit_namespace();
        b.sink("out", squeeze);
        let g = b.finish().unwrap();
        (g, src.0, burn.0, squeeze.0)
    }

    /// The mote → Gumstix relay → server chain of the relay tests (site 2
    /// the mote, site 1 the relay, site 0 the server).
    fn relay_chain(channels: &[ChannelParams; 2]) -> TreeTopology {
        TreeTopology::chain(
            &[
                Platform::tmote_sky(),
                Platform::gumstix(),
                Platform::server(),
            ],
            channels,
            1,
        )
    }

    #[test]
    fn relay_tier_reduces_second_hop_load() {
        let (g, src, burn, squeeze) = three_stage();
        let node: HashSet<_> = [src, burn].into_iter().collect();
        let relay_hosted: HashSet<_> = [squeeze].into_iter().collect();
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 13)
        };
        let topo = relay_chain(&[ChannelParams::mote(), ChannelParams::wifi(1e6)]);
        let run = |relay: HashSet<OperatorId>| {
            let route = LeafRoute::chain(&g, &[node.clone(), relay], feed(src, 50, 10.0));
            simulate_deployment_tree(&g, &topo, &[route], &cfg)
        };
        // Empty relay: hop-1 carries the same payloads as hop 0.
        let passthrough = run(HashSet::new());
        // Squeeze at the relay: hop-1 load halves, and the relay burns CPU.
        let squeezed = run(relay_hosted);
        assert!(
            squeezed.edge_offered_load_bytes_per_sec[1]
                < 0.8 * passthrough.edge_offered_load_bytes_per_sec[1],
            "squeezed {} vs passthrough {}",
            squeezed.edge_offered_load_bytes_per_sec[1],
            passthrough.edge_offered_load_bytes_per_sec[1]
        );
        // Pass-through still pays per-packet forwarding CPU; hosting the
        // squeeze op adds real application CPU on top.
        assert!(squeezed.site_cpu_utilization[1] > passthrough.site_cpu_utilization[1]);
        assert_eq!(
            squeezed.sink_arrivals,
            squeezed.leaves[0].hop_elements_delivered[1]
        );
    }

    #[test]
    fn saturated_relay_drops_instead_of_forwarding_for_free() {
        // The squeeze stage costs ~0.9 s per element on a TMote-class
        // gateway; at 20 elements/s over 10 s the gateway can process only
        // ~11 of ~200 — the rest must be dropped, and goodput must say so.
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let heavy = b.transform(
            "heavy",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                cx.meter().loop_scope(2_500_000, |m| m.int(2_500_000));
                cx.emit(v.clone());
            })),
            src,
        );
        b.exit_namespace();
        b.sink("out", heavy);
        let g = b.finish().unwrap();
        let node: HashSet<_> = [src.0].into_iter().collect();
        let relay: HashSet<_> = [heavy.0].into_iter().collect();
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 23)
        };
        let topo = TreeTopology::chain(
            &[
                Platform::gumstix(),
                Platform::tmote_sky(),
                Platform::server(),
            ],
            &[ChannelParams::wifi(1e6), ChannelParams::wifi(1e6)],
            1,
        );
        let route = LeafRoute::chain(&g, &[node, relay], feed(src.0, 50, 20.0));
        let r = simulate_deployment_tree(&g, &topo, &[route], &cfg);
        let leaf = &r.leaves[0];
        assert!(
            leaf.hop_elements_dropped[0] > 0,
            "saturated gateway must shed load"
        );
        assert!(r.site_cpu_utilization[1] >= 0.99);
        assert!(
            leaf.relay_processed_ratio(0) < 0.2,
            "processed ratio {}",
            leaf.relay_processed_ratio(0)
        );
        assert!(
            leaf.goodput_ratio() < 0.2,
            "goodput must reflect relay overload, got {}",
            leaf.goodput_ratio()
        );
        // Conservation: everything delivered into the relay was either
        // processed (and forwarded, 1:1 here) or dropped.
        assert_eq!(
            leaf.hop_elements_sent[1] + leaf.hop_elements_dropped[0],
            leaf.hop_elements_delivered[0]
        );
    }

    #[test]
    fn congested_second_hop_caps_goodput() {
        let (g, src, burn, _squeeze) = three_stage();
        let node: HashSet<_> = [src, burn].into_iter().collect();
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 17)
        };
        // Hop 0 is a roomy 1 MB/s link, hop 1 a starved 500 B/s one:
        // 202-byte elements at 20/s sail over the first hop and swamp
        // the second.
        let topo = relay_chain(&[ChannelParams::wifi(1e6), ChannelParams::wifi(500.0)]);
        let route = LeafRoute::chain(&g, &[node, HashSet::new()], feed(src, 50, 20.0));
        let r = simulate_deployment_tree(&g, &topo, &[route], &cfg);
        let leaf = &r.leaves[0];
        assert!(
            leaf.hop_delivery_ratio(1) < leaf.hop_delivery_ratio(0),
            "hop1 {} must lose more than hop0 {}",
            leaf.hop_delivery_ratio(1),
            leaf.hop_delivery_ratio(0)
        );
        assert!(
            leaf.goodput_ratio() < 0.5,
            "goodput {}",
            leaf.goodput_ratio()
        );
        assert_eq!(r.sink_arrivals, leaf.hop_elements_delivered[1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, src, burn) = pipeline(500);
        let node_ops: HashSet<_> = [src, burn].into_iter().collect();
        let cfg = SimulationConfig {
            duration_s: 5.0,
            ..SimulationConfig::motes(1, 9)
        };
        let run = || simulate_motes(&g, &node_ops, 3, feed(src, 50, 20.0), &cfg);
        assert_eq!(run(), run());
    }
}
