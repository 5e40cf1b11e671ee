//! Tree-deployment simulation: the runtime mirror of
//! `wishbone-core`'s topology-first `Deployment` partitioner.
//!
//! A [`TreeTopology`] is a rooted tree of sites — leaf sites are classes
//! of embedded nodes, interior sites are gateways, the root is the server
//! (each a [`crate::exec::SiteExecutor`] per leaf class, with per-node
//! state for relocated operators) — with **one [`Channel`] per tree
//! edge**. Each [`LeafRoute`] runs its own instance of the program along
//! its root path; what couples the routes is the shared infrastructure: a
//! tree edge's channel carries every route crossing it, and a gateway's
//! CPU burns busy time for every route it serves, dropping elements once
//! saturated (the relay analogue of tier-0 nodes missing input events).
//!
//! This is the only simulator. Its differential parity anchor is a
//! test-only reference (see the tests below): for a path topology with a
//! single route it reproduces a straight-line per-hop loop *exactly* —
//! same node pass, same channel seeds, same relay semantics.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wishbone_dataflow::{Graph, Namespace, OperatorId};
use wishbone_net::{Channel, ChannelParams};
use wishbone_profile::Platform;

use wishbone_trace::{NullSink, TraceEvent, TraceSink};

use crate::deployment::{run_node_pass_failing, InFlight, SimulationConfig, SourceFeed};
use crate::exec::SiteExecutor;

/// A rooted tree of deployment sites, runtime view: platforms, device
/// counts, and one uplink channel per non-root site.
#[derive(Debug, Clone)]
pub struct TreeTopology {
    /// Parent site per site (`None` exactly for the root, site 0).
    pub parent: Vec<Option<usize>>,
    /// Platform model per site.
    pub platforms: Vec<Platform>,
    /// Device count per site (leaf counts = nodes running the program;
    /// interior counts scale gateway CPU capacity).
    pub counts: Vec<usize>,
    /// Uplink radio channel per site (`None` exactly for the root).
    pub uplink: Vec<Option<ChannelParams>>,
}

impl TreeTopology {
    /// A path topology (mote → … → server): `platforms` and `channels`
    /// innermost first, `n_nodes` motes at the leaf. Site 0 is the server,
    /// site `k − 1` the motes; [`LeafRoute::chain`] is its one route.
    pub fn chain(platforms: &[Platform], channels: &[ChannelParams], n_nodes: usize) -> Self {
        let k = platforms.len();
        assert!(k >= 2, "a chain needs at least two sites");
        assert_eq!(channels.len(), k - 1, "one channel per hop");
        // Site 0 = root (server) … site k−1 = the motes.
        let mut counts = vec![1; k];
        counts[k - 1] = n_nodes;
        TreeTopology {
            parent: (0..k).map(|i| i.checked_sub(1)).collect(),
            platforms: platforms.iter().rev().cloned().collect(),
            counts,
            uplink: std::iter::once(None)
                .chain(channels.iter().rev().map(|&c| Some(c)))
                .collect(),
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.platforms.len()
    }

    /// Always false: a topology owns at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Depth of `site` (root = 0).
    pub fn depth(&self, site: usize) -> usize {
        let mut d = 0;
        let mut cur = site;
        while let Some(p) = self.parent[cur] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Edge-processing order: child sites by depth descending, index
    /// ascending — deepest hops first, so every route's traffic reaches a
    /// shared edge before that edge's channel is simulated. For a path
    /// this is hop order, innermost first (channel `h` is seeded
    /// `cfg.seed + h`).
    pub fn edge_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len())
            .filter(|&s| self.parent[s].is_some())
            .collect();
        order.sort_by_key(|&s| (std::cmp::Reverse(self.depth(s)), s));
        order
    }

    fn validate(&self) {
        let n = self.len();
        assert!(n >= 2, "a tree needs at least one site under the root");
        assert_eq!(self.parent.len(), n);
        assert_eq!(self.counts.len(), n);
        assert_eq!(self.uplink.len(), n);
        assert_eq!(self.parent[0], None, "site 0 is the root");
        for s in 1..n {
            let p = self.parent[s].expect("non-root site has a parent");
            assert!(p < n, "unknown parent of site {s}");
            assert!(self.uplink[s].is_some(), "non-root site {s} has an uplink");
            assert!(self.counts[s] >= 1);
        }
    }
}

/// One failure process in a [`FailurePlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Battery death: node `node` of the leaf class at `leaf` stops
    /// processing (and transmitting) once `after_events` source events
    /// have been offered to it; later arrivals are lost to the outage.
    MoteDeath {
        /// Leaf site whose class loses a node.
        leaf: usize,
        /// Node index within the class (`0..counts[leaf]`).
        node: usize,
        /// Events the node survives before going dark.
        after_events: u64,
    },
    /// Gateway reboot: the site drops every element that arrives during
    /// `[start_s, end_s)` (its relays hold no state across the window's
    /// losses — elements are simply gone, like a saturation drop).
    GatewayReboot {
        /// The rebooting interior site.
        site: usize,
        /// Window start, seconds.
        start_s: f64,
        /// Window end, seconds.
        end_s: f64,
    },
    /// Fading uplink: elements crossing the tree edge out of `site`
    /// during `[start_s, end_s)` suffer an extra independent loss with
    /// probability `loss_prob`, on top of the channel's congestion model.
    LossyUplink {
        /// Child site whose uplink fades.
        site: usize,
        /// Window start, seconds.
        start_s: f64,
        /// Window end, seconds.
        end_s: f64,
        /// Per-element extra loss probability in the window.
        loss_prob: f64,
    },
}

/// A seeded set of failure processes applied during
/// [`simulate_deployment_tree_traced`]. The default (empty) plan
/// perturbs nothing: the simulation is byte-for-byte identical to
/// [`simulate_deployment_tree`], and the failure RNG — seeded from
/// `seed`, independent of the channel seeds — is never drawn.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailurePlan {
    /// The failure processes, in the order their outage windows are
    /// reported.
    pub failures: Vec<Failure>,
    /// Seed of the failure RNG (only [`Failure::LossyUplink`] draws).
    pub seed: u64,
}

impl FailurePlan {
    /// Does this plan perturb anything?
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    fn validate(&self, topo: &TreeTopology) {
        for f in &self.failures {
            match *f {
                Failure::MoteDeath { leaf, node, .. } => {
                    assert!(leaf < topo.len(), "unknown leaf site {leaf}");
                    assert!(node < topo.counts[leaf], "no node {node} at site {leaf}");
                }
                Failure::GatewayReboot {
                    site,
                    start_s,
                    end_s,
                } => {
                    assert!(site < topo.len() && site != 0, "reboots hit non-root sites");
                    assert!(start_s < end_s, "empty reboot window");
                }
                Failure::LossyUplink {
                    site,
                    start_s,
                    end_s,
                    loss_prob,
                } => {
                    assert!(
                        site < topo.len() && topo.parent[site].is_some(),
                        "lossy uplink must name a non-root site"
                    );
                    assert!(start_s < end_s, "empty loss window");
                    assert!((0.0..=1.0).contains(&loss_prob), "loss_prob in [0, 1]");
                }
            }
        }
    }
}

/// Accounting for one failure window of a [`FailurePlan`], in plan
/// order: elements lost to the window vs elements the same site or link
/// carried successfully outside (or, for a fading uplink, inside) it.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageReport {
    /// Site (for deaths and reboots) or child site of the edge (for a
    /// lossy uplink) the failure hit.
    pub site: usize,
    /// `[start, end)` of the outage, seconds. For a mote death this is
    /// `[death time, duration)`.
    pub window: (f64, f64),
    /// Elements (or source events, for a death) lost to the window.
    pub elements_dropped: u64,
    /// Elements the site or link still carried: outside the window for
    /// deaths and reboots, survivors inside it for a fading uplink.
    pub elements_delivered: u64,
}

/// Aggregate drop/outage counters of one tree simulation — the
/// simulator-side companion of the solver's `IlpStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Source events offered across all leaf classes.
    pub events_offered: u64,
    /// Source events processed at the leaves.
    pub events_processed: u64,
    /// Elements submitted to tree edges, summed over every hop.
    pub elements_sent: u64,
    /// Elements lost to channel congestion (sent but not delivered,
    /// excluding failure-window losses).
    pub channel_lost: u64,
    /// Elements dropped by saturated gateway CPUs.
    pub saturation_dropped: u64,
    /// Elements and events lost to failure windows (deaths, reboots,
    /// fading uplinks).
    pub outage_dropped: u64,
    /// Elements that reached a sink on the server.
    pub sink_arrivals: u64,
}

/// One leaf class's program instance: its root path, the operator set at
/// each path position (from a `DeploymentPartition` leaf), and its input
/// feeds (replayed on every node of the class).
#[derive(Debug, Clone)]
pub struct LeafRoute {
    /// Site indices, leaf first, root last.
    pub path: Vec<usize>,
    /// Operators at each path position.
    pub site_ops: Vec<HashSet<OperatorId>>,
    /// Source feeds driving every node of this class.
    pub feeds: Vec<SourceFeed>,
}

impl LeafRoute {
    /// The one route of a [`TreeTopology::chain`]: `below_root[t]` runs at
    /// tier `t` (innermost first) and the root hosts every other operator
    /// of `graph`. One collection is the paper's node/server cut; `k − 1`
    /// are a `DeploymentPartition` leaf's non-root `site_ops` (sorted
    /// lists), which route as they are, as do hash sets.
    pub fn chain<S>(graph: &Graph, below_root: &[S], feeds: Vec<SourceFeed>) -> Self
    where
        for<'s> &'s S: IntoIterator<Item = &'s OperatorId>,
    {
        let mut site_ops: Vec<HashSet<OperatorId>> = below_root
            .iter()
            .map(|ops| ops.into_iter().copied().collect())
            .collect();
        let root_ops = graph
            .operator_ids()
            .filter(|id| !site_ops.iter().any(|ops| ops.contains(id)))
            .collect();
        site_ops.push(root_ops);
        LeafRoute {
            path: (0..=below_root.len()).rev().collect(),
            site_ops,
            feeds,
        }
    }
}

/// Per-leaf-class flow accounting of a tree simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafFlowReport {
    /// The route's leaf site.
    pub leaf: usize,
    /// Source events offered across the class's nodes.
    pub events_offered: u64,
    /// Source events actually processed (not missed while CPU-busy).
    pub events_processed: u64,
    /// Elements this class submitted to each hop of its path.
    pub hop_elements_sent: Vec<u64>,
    /// Elements delivered over each hop.
    pub hop_elements_delivered: Vec<u64>,
    /// Elements that survived the hop but were dropped by a saturated
    /// gateway CPU before processing.
    pub hop_elements_dropped: Vec<u64>,
    /// Elements of this class that reached a sink on the server.
    pub sink_arrivals: u64,
}

impl LeafFlowReport {
    /// Fraction of input events processed at the class's nodes.
    pub fn input_processed_ratio(&self) -> f64 {
        if self.events_offered == 0 {
            1.0
        } else {
            self.events_processed as f64 / self.events_offered as f64
        }
    }

    /// Fraction of elements delivered over hop `h` of this route.
    pub fn hop_delivery_ratio(&self, h: usize) -> f64 {
        if self.hop_elements_sent[h] == 0 {
            1.0
        } else {
            self.hop_elements_delivered[h] as f64 / self.hop_elements_sent[h] as f64
        }
    }

    /// Fraction of elements delivered into the gateway after hop `h`
    /// that its CPU managed to process.
    pub fn relay_processed_ratio(&self, h: usize) -> f64 {
        if self.hop_elements_delivered[h] == 0 {
            1.0
        } else {
            (self.hop_elements_delivered[h] - self.hop_elements_dropped[h]) as f64
                / self.hop_elements_delivered[h] as f64
        }
    }

    /// The paper's goodput metric along this route: input processing ×
    /// every hop's delivery × every gateway's processed ratio.
    pub fn goodput_ratio(&self) -> f64 {
        (0..self.hop_elements_sent.len())
            .map(|h| self.hop_delivery_ratio(h) * self.relay_processed_ratio(h))
            .product::<f64>()
            * self.input_processed_ratio()
    }
}

/// Outcome of a tree-deployment simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDeploymentReport {
    /// Per-route flow accounting, in route order.
    pub leaves: Vec<LeafFlowReport>,
    /// Aggregate on-air offered load per site's uplink, bytes/s (0 for
    /// the root).
    pub edge_offered_load_bytes_per_sec: Vec<f64>,
    /// Packet delivery ratio per site's uplink (1.0 for the root).
    pub edge_packet_delivery_ratio: Vec<f64>,
    /// CPU utilization per site: node pass utilization at leaves, relay
    /// busy fraction at gateways, 0 at the root.
    pub site_cpu_utilization: Vec<f64>,
    /// Elements dropped by each site's saturated CPU (gateways only).
    pub site_elements_dropped: Vec<u64>,
    /// Elements (and source events, at leaves) lost to failure windows
    /// at each site: reboot drops at gateways, battery-death misses at
    /// leaves. All zero without a [`FailurePlan`].
    pub site_outage_dropped: Vec<u64>,
    /// Elements lost to fading-uplink windows per child site's edge.
    /// All zero without a [`FailurePlan`].
    pub edge_outage_dropped: Vec<u64>,
    /// Per-failure-window accounting, in [`FailurePlan`] order (empty
    /// without a plan).
    pub outages: Vec<OutageReport>,
    /// Elements that reached a sink on the server, all routes.
    pub sink_arrivals: u64,
}

impl TreeDeploymentReport {
    /// Events-weighted mean of the per-route goodputs.
    pub fn goodput_ratio(&self) -> f64 {
        let offered: u64 = self.leaves.iter().map(|l| l.events_offered).sum();
        if offered == 0 {
            return 1.0;
        }
        self.leaves
            .iter()
            .map(|l| l.goodput_ratio() * l.events_offered as f64)
            .sum::<f64>()
            / offered as f64
    }

    /// Aggregate drop/outage counters of this run.
    pub fn stats(&self) -> SimStats {
        let events_offered = self.leaves.iter().map(|l| l.events_offered).sum();
        let events_processed = self.leaves.iter().map(|l| l.events_processed).sum();
        let elements_sent: u64 = self
            .leaves
            .iter()
            .flat_map(|l| l.hop_elements_sent.iter())
            .sum();
        let elements_delivered: u64 = self
            .leaves
            .iter()
            .flat_map(|l| l.hop_elements_delivered.iter())
            .sum();
        let lossy: u64 = self.edge_outage_dropped.iter().sum();
        let site_outage: u64 = self.site_outage_dropped.iter().sum();
        SimStats {
            events_offered,
            events_processed,
            elements_sent,
            channel_lost: elements_sent - elements_delivered - lossy,
            saturation_dropped: self.site_elements_dropped.iter().sum(),
            outage_dropped: site_outage + lossy,
            sink_arrivals: self.sink_arrivals,
        }
    }
}

/// Simulate a tree deployment of `graph`: every route's leaf class runs
/// `site_ops[0]` on `counts[leaf]` nodes, gateways along the path host
/// that route's interior placements with per-node state, and the root
/// hosts `site_ops[last]` (a route is validated, not trusted: every
/// operator of `graph` sits in exactly one `site_ops[t]`, a
/// server-namespace operator only at the root). Each tree edge is one [`Channel`] shared by every
/// route crossing it; traffic destined beyond the next site is
/// store-and-forwarded by each gateway it crosses, consuming bandwidth on
/// every hop and gateway CPU at every relay — the runtime counterpart of
/// the partitioner's per-site rows.
///
/// Per-class node counts come from `topo`; [`SimulationConfig`] applies
/// to every site.
pub fn simulate_deployment_tree(
    graph: &Graph,
    topo: &TreeTopology,
    routes: &[LeafRoute],
    cfg: &SimulationConfig,
) -> TreeDeploymentReport {
    simulate_deployment_tree_traced(
        graph,
        topo,
        routes,
        cfg,
        &FailurePlan::default(),
        &mut NullSink,
    )
}

/// [`simulate_deployment_tree`] under a seeded [`FailurePlan`] — motes
/// die on battery, gateways reboot, uplinks fade — with streaming
/// telemetry. Failure windows are evaluated against each element's
/// production time at its leaf (propagation delay is not modeled); the
/// plan's RNG is independent of the channel seeds, so adding a failure
/// never reshuffles congestion losses, and an empty plan reproduces the
/// failure-free simulation byte for byte.
///
/// Every per-operator invocation cost, per-edge element fate, per-site
/// busy fraction, and failure-outage window is emitted through `sink` as
/// a structured [`TraceEvent`]. All event construction is gated on
/// [`TraceSink::enabled`], so running with [`NullSink`] is byte-identical
/// to (and within measurement noise of) the untraced entry point — which
/// in fact delegates here.
pub fn simulate_deployment_tree_traced<S: TraceSink>(
    graph: &Graph,
    topo: &TreeTopology,
    routes: &[LeafRoute],
    cfg: &SimulationConfig,
    plan: &FailurePlan,
    sink: &mut S,
) -> TreeDeploymentReport {
    topo.validate();
    plan.validate(topo);
    assert!(!routes.is_empty(), "a tree deployment needs a route");
    for route in routes {
        assert!(route.path.len() >= 2, "a route spans at least two sites");
        assert_eq!(route.site_ops.len(), route.path.len());
        assert_eq!(*route.path.last().unwrap(), 0, "routes end at the root");
        for w in route.path.windows(2) {
            assert_eq!(
                topo.parent[w[0]],
                Some(w[1]),
                "route must follow tree edges"
            );
        }
        // The root runs `site_ops[last]` and nothing else, so a placement
        // is taken at its word only if it is one: every operator at
        // exactly one site, a server-namespace operator (one shared
        // instance) at the root.
        let root = route.path.len() - 1;
        for op in graph.operator_ids() {
            let mut homes = (0..=root).filter(|&t| route.site_ops[t].contains(&op));
            let home = homes.next();
            assert!(
                home.is_some() && homes.next().is_none(),
                "operator {op} must sit in exactly one site_ops[t] of its route"
            );
            assert!(
                graph.spec(op).namespace == Namespace::Node || home == Some(root),
                "server-namespace operator {op} placed below the root"
            );
        }
    }

    let n_sites = topo.len();
    let mut report = TreeDeploymentReport {
        leaves: Vec::with_capacity(routes.len()),
        edge_offered_load_bytes_per_sec: vec![0.0; n_sites],
        edge_packet_delivery_ratio: vec![1.0; n_sites],
        site_cpu_utilization: vec![0.0; n_sites],
        site_elements_dropped: vec![0; n_sites],
        site_outage_dropped: vec![0; n_sites],
        edge_outage_dropped: vec![0; n_sites],
        outages: plan
            .failures
            .iter()
            .map(|f| match *f {
                Failure::MoteDeath { leaf, .. } => OutageReport {
                    site: leaf,
                    // Tightened to the actual death time in pass 1.
                    window: (cfg.duration_s, cfg.duration_s),
                    elements_dropped: 0,
                    elements_delivered: 0,
                },
                Failure::GatewayReboot {
                    site,
                    start_s,
                    end_s,
                }
                | Failure::LossyUplink {
                    site,
                    start_s,
                    end_s,
                    ..
                } => OutageReport {
                    site,
                    window: (start_s, end_s),
                    elements_dropped: 0,
                    elements_delivered: 0,
                },
            })
            .collect(),
        sink_arrivals: 0,
    };
    // The failure RNG: drawn only inside fading-uplink windows, so a
    // plan without them stays deterministic no matter the seed.
    let mut frng = StdRng::seed_from_u64(plan.seed);

    // Pass 1: every leaf class's nodes, independently (they share only
    // the channels and gateways above them). Per-site busy time goes into
    // one shared budget — a site that starts one route *and* relays
    // another spends the same CPU on both.
    let mut site_busy = vec![0.0f64; n_sites];
    let mut traffic: Vec<Vec<InFlight>> = Vec::with_capacity(routes.len());
    for route in routes {
        let leaf = route.path[0];
        // Battery deaths hitting this class, with their plan indices.
        let mut death_idx: Vec<usize> = Vec::new();
        let deaths: Vec<(usize, u64)> = plan
            .failures
            .iter()
            .enumerate()
            .filter_map(|(i, f)| match *f {
                Failure::MoteDeath {
                    leaf: l,
                    node,
                    after_events,
                } if l == leaf => {
                    death_idx.push(i);
                    Some((node, after_events))
                }
                _ => None,
            })
            .collect();
        let np = run_node_pass_failing(
            graph,
            &route.site_ops[0],
            &route.feeds,
            &topo.platforms[leaf],
            topo.uplink[leaf].as_ref().expect("leaf has an uplink"),
            topo.counts[leaf],
            cfg,
            &deaths,
            leaf,
            sink,
        );
        site_busy[leaf] += np.busy_total;
        report.site_outage_dropped[leaf] += np.events_lost_to_death;
        for (k, &pi) in death_idx.iter().enumerate() {
            let (lost, processed, died_at) = np.death_outcomes[k];
            let o = &mut report.outages[pi];
            o.elements_dropped += lost;
            o.elements_delivered += processed;
            o.window.0 = o.window.0.min(died_at);
        }
        report.leaves.push(LeafFlowReport {
            leaf,
            events_offered: np.events_offered,
            events_processed: np.events_processed,
            hop_elements_sent: vec![0; route.path.len() - 1],
            hop_elements_delivered: vec![0; route.path.len() - 1],
            hop_elements_dropped: vec![0; route.path.len() - 1],
            sink_arrivals: 0,
        });
        traffic.push(np.sends);
    }

    // Gateway and server state: `execs[r][t - 1]` runs position `t ≥ 1`
    // of route `r` (per-node state for the route's class; no task model
    // above the motes); per site one shared busy-time budget.
    let mut execs: Vec<Vec<SiteExecutor>> = routes
        .iter()
        .map(|route| {
            let count = topo.counts[route.path[0]];
            (1..route.path.len())
                .map(|t| {
                    let platform = topo.platforms[route.path[t]].clone();
                    SiteExecutor::new(graph, &route.site_ops[t], count, platform, None)
                })
                .collect()
        })
        .collect();

    // Pass 2: tree edges, deepest first. All traffic arriving at an edge
    // has been produced by deeper edges already; the edge's channel sees
    // the aggregate offered load of every route crossing it.
    for (ordinal, child) in topo.edge_order().into_iter().enumerate() {
        let params = topo.uplink[child].expect("non-root site has an uplink");
        let parent = topo.parent[child].expect("non-root site has a parent");
        // Which routes cross this edge, and at which hop of their path?
        let crossing: Vec<(usize, usize)> = routes
            .iter()
            .enumerate()
            .filter_map(|(r, route)| {
                route.path[..route.path.len() - 1]
                    .iter()
                    .position(|&s| s == child)
                    .map(|h| (r, h))
            })
            .collect();
        if crossing.is_empty() {
            continue;
        }
        let offered = crossing
            .iter()
            .flat_map(|&(r, _)| traffic[r].iter())
            .map(|f| params.format.on_air_bytes(f.value.wire_size()) as f64)
            .sum::<f64>()
            / cfg.duration_s;
        report.edge_offered_load_bytes_per_sec[child] = offered;
        let mut ch = Channel::new(params, cfg.seed.wrapping_add(ordinal as u64));
        ch.set_offered_load(offered);

        // Failure windows touching this edge: fading intervals on the
        // uplink itself, reboot windows on the receiving gateway.
        let lossy: Vec<(usize, f64, f64, f64)> = plan
            .failures
            .iter()
            .enumerate()
            .filter_map(|(i, f)| match *f {
                Failure::LossyUplink {
                    site,
                    start_s,
                    end_s,
                    loss_prob,
                } if site == child => Some((i, start_s, end_s, loss_prob)),
                _ => None,
            })
            .collect();
        let reboots: Vec<(usize, f64, f64)> = plan
            .failures
            .iter()
            .enumerate()
            .filter_map(|(i, f)| match *f {
                Failure::GatewayReboot {
                    site,
                    start_s,
                    end_s,
                } if site == parent => Some((i, start_s, end_s)),
                _ => None,
            })
            .collect();

        // Gateway CPU capacity scales with its device count (perfect
        // balancing, mirroring the partitioner's count-balanced rows).
        let relay_capacity = topo.counts[parent] as f64 * cfg.duration_s;
        for (r, h) in crossing {
            let mut next: Vec<InFlight> = Vec::new();
            for flight in std::mem::take(&mut traffic[r]) {
                let InFlight {
                    node,
                    edge,
                    value,
                    produced_at: t,
                } = flight;
                report.leaves[r].hop_elements_sent[h] += 1;
                let wire_bytes = value.wire_size();
                if !ch.try_deliver(wire_bytes) {
                    if sink.enabled() {
                        sink.record(TraceEvent::EdgeElement {
                            site: child,
                            edge,
                            wire_bytes,
                            delivered: false,
                        });
                    }
                    continue;
                }
                // A fading window on this uplink adds an independent
                // loss on top of the channel's congestion model.
                if let Some(&(pi, _, _, loss_prob)) =
                    lossy.iter().find(|&&(_, ws, we, _)| t >= ws && t < we)
                {
                    if frng.gen::<f64>() < loss_prob {
                        report.outages[pi].elements_dropped += 1;
                        report.edge_outage_dropped[child] += 1;
                        if sink.enabled() {
                            sink.record(TraceEvent::EdgeElement {
                                site: child,
                                edge,
                                wire_bytes,
                                delivered: false,
                            });
                        }
                        continue;
                    }
                    report.outages[pi].elements_delivered += 1;
                }
                report.leaves[r].hop_elements_delivered[h] += 1;
                if sink.enabled() {
                    sink.record(TraceEvent::EdgeElement {
                        site: child,
                        edge,
                        wire_bytes,
                        delivered: true,
                    });
                }
                // A rebooting gateway loses everything that arrives
                // inside its window.
                if let Some(&(pi, _, _)) = reboots.iter().find(|&&(_, ws, we)| t >= ws && t < we) {
                    report.outages[pi].elements_dropped += 1;
                    report.site_outage_dropped[parent] += 1;
                    report.leaves[r].hop_elements_dropped[h] += 1;
                    continue;
                }
                // The gateway has a CPU too: once it has burned its whole
                // capacity of busy time it is saturated, and further
                // arrivals are dropped instead of forwarded for free. (The
                // root's CPU is not modelled: no budget, no cost samples.)
                let at_root = parent == 0;
                if !at_root && site_busy[parent] >= relay_capacity {
                    report.leaves[r].hop_elements_dropped[h] += 1;
                    report.site_elements_dropped[parent] += 1;
                    continue;
                }
                let costs = sink.enabled() && !at_root;
                let cascade = execs[r][h].deliver(graph, node, edge, &value, costs);
                report.leaves[r].sink_arrivals += cascade.sink_arrivals;
                if at_root {
                    debug_assert!(
                        cascade.forwards.is_empty(),
                        "data may not flow back into the network (single-crossing restriction)"
                    );
                } else {
                    for &(op, cpu_s) in &cascade.op_costs {
                        sink.record(TraceEvent::OperatorCost {
                            site: parent,
                            op,
                            cpu_s,
                        });
                    }
                    let next_hop = topo.uplink[parent].expect("gateway has an uplink");
                    let tx_cpu = cascade
                        .forwards
                        .iter()
                        .map(|(_, fv)| {
                            next_hop.format.packets_for(fv.wire_size()) as f64
                                * cfg.per_packet_cpu_s
                        })
                        .sum::<f64>();
                    site_busy[parent] += cascade.cpu_seconds + tx_cpu;
                    next.extend(InFlight::all(node, t, cascade.forwards));
                }
                for &(pi, ws, we) in &reboots {
                    if t < ws || t >= we {
                        report.outages[pi].elements_delivered += 1;
                    }
                }
            }
            traffic[r] = next;
        }
        report.edge_packet_delivery_ratio[child] = ch.packet_delivery_ratio();
        if sink.enabled() {
            sink.record(TraceEvent::EdgeSummary {
                site: child,
                offered_bytes_per_sec: offered,
                delivery_ratio: report.edge_packet_delivery_ratio[child],
            });
        }
    }

    for (s, &busy) in site_busy.iter().enumerate() {
        report.site_cpu_utilization[s] = (busy / (topo.counts[s] as f64 * cfg.duration_s)).min(1.0);
        if sink.enabled() {
            sink.record(TraceEvent::SiteBusy {
                site: s,
                busy_fraction: report.site_cpu_utilization[s],
            });
        }
    }
    report.sink_arrivals = report.leaves.iter().map(|l| l.sink_arrivals).sum();
    if sink.enabled() {
        for o in &report.outages {
            sink.record(TraceEvent::Outage {
                site: o.site,
                start_s: o.window.0,
                end_s: o.window.1,
                dropped: o.elements_dropped,
                delivered: o.elements_delivered,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder, Value};

    /// src -> squeeze (2x reducer, configurable cost) -> sink
    fn pipeline(cost: u64) -> (Graph, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let squeeze = b.transform(
            "squeeze",
            Box::new(FnWork(move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter().loop_scope(cost, |m| m.int(cost));
                cx.emit(Value::VecI16(w.iter().step_by(2).copied().collect()));
            })),
            src,
        );
        b.exit_namespace();
        b.sink("out", squeeze);
        let g = b.finish().unwrap();
        (g, src.0, squeeze.0)
    }

    fn trace(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::VecI16(vec![i as i16; 100])).collect()
    }

    fn feeds(src: OperatorId, rate_hz: f64) -> Vec<SourceFeed> {
        vec![SourceFeed {
            source: src,
            trace: trace(50),
            rate_hz,
        }]
    }

    /// What [`simulate_tiered_reference`] reports, per hop and per relay.
    struct TieredReference {
        events_offered: u64,
        events_processed: u64,
        hop_elements_sent: Vec<u64>,
        hop_elements_delivered: Vec<u64>,
        hop_offered_load_bytes_per_sec: Vec<f64>,
        hop_packet_delivery_ratio: Vec<f64>,
        node_cpu_utilization: f64,
        relay_cpu_utilization: Vec<f64>,
        relay_elements_dropped: Vec<u64>,
        sink_arrivals: u64,
    }

    impl TieredReference {
        /// Input processing × every hop's delivery × every relay's
        /// processed share.
        fn goodput_ratio(&self) -> f64 {
            let ratio = |num: u64, den: u64| {
                if den == 0 {
                    1.0
                } else {
                    num as f64 / den as f64
                }
            };
            (0..self.hop_elements_sent.len())
                .map(|h| ratio(self.hop_elements_delivered[h], self.hop_elements_sent[h]))
                .product::<f64>()
                * (0..self.relay_elements_dropped.len())
                    .map(|r| {
                        let delivered = self.hop_elements_delivered[r];
                        ratio(delivered - self.relay_elements_dropped[r], delivered)
                    })
                    .product::<f64>()
                * ratio(self.events_processed, self.events_offered)
        }
    }

    /// The reference the tree simulator is pinned against: the original
    /// straight-line chain simulator. `n_nodes` motes run
    /// `tier_ops[0]`, each later tier is a [`SiteExecutor`] hosting
    /// `tier_ops[t]`, the final one the server; `channels[h]` (seeded
    /// `cfg.seed + h`) carries hop `h`, one hop after the other.
    fn simulate_tiered_reference(
        graph: &Graph,
        tier_ops: &[HashSet<OperatorId>],
        feeds: &[SourceFeed],
        platforms: &[Platform],
        channels: &[ChannelParams],
        n_nodes: usize,
        cfg: &SimulationConfig,
    ) -> TieredReference {
        let k = tier_ops.len();
        let np = run_node_pass_failing(
            graph,
            &tier_ops[0],
            feeds,
            &platforms[0],
            &channels[0],
            n_nodes,
            cfg,
            &[],
            0,
            &mut NullSink,
        );

        // `tiers[h]` receives hop `h`: relays for tiers 1..k−1, then the
        // server.
        let mut tiers: Vec<SiteExecutor> = (1..k)
            .map(|t| SiteExecutor::new(graph, &tier_ops[t], n_nodes, platforms[t].clone(), None))
            .collect();

        let mut report = TieredReference {
            events_offered: np.events_offered,
            events_processed: np.events_processed,
            hop_elements_sent: vec![0; k - 1],
            hop_elements_delivered: vec![0; k - 1],
            hop_offered_load_bytes_per_sec: vec![0.0; k - 1],
            hop_packet_delivery_ratio: vec![1.0; k - 1],
            node_cpu_utilization: (np.busy_total / (n_nodes as f64 * cfg.duration_s)).min(1.0),
            relay_cpu_utilization: vec![0.0; k - 2],
            relay_elements_dropped: vec![0; k - 2],
            sink_arrivals: 0,
        };

        let mut traffic = np.sends;
        for h in 0..k - 1 {
            let offered = traffic
                .iter()
                .map(|f| channels[h].format.on_air_bytes(f.value.wire_size()) as f64)
                .sum::<f64>()
                / cfg.duration_s;
            report.hop_offered_load_bytes_per_sec[h] = offered;
            let mut ch = Channel::new(channels[h], cfg.seed.wrapping_add(h as u64));
            ch.set_offered_load(offered);

            let mut next: Vec<InFlight> = Vec::new();
            let mut relay_busy = 0.0f64;
            for f in &traffic {
                report.hop_elements_sent[h] += 1;
                if !ch.try_deliver(f.value.wire_size()) {
                    continue;
                }
                report.hop_elements_delivered[h] += 1;
                if h + 1 == k - 1 {
                    report.sink_arrivals += tiers[h]
                        .deliver(graph, f.node, f.edge, &f.value, false)
                        .sink_arrivals;
                } else {
                    // A relay that has burned a full duration of busy
                    // time is saturated: further arrivals are dropped.
                    if relay_busy >= cfg.duration_s {
                        report.relay_elements_dropped[h] += 1;
                        continue;
                    }
                    let cascade = tiers[h].deliver(graph, f.node, f.edge, &f.value, false);
                    let tx_cpu = cascade
                        .forwards
                        .iter()
                        .map(|(_, fv)| {
                            channels[h + 1].format.packets_for(fv.wire_size()) as f64
                                * cfg.per_packet_cpu_s
                        })
                        .sum::<f64>();
                    relay_busy += cascade.cpu_seconds + tx_cpu;
                    next.extend(InFlight::all(f.node, f.produced_at, cascade.forwards));
                }
            }
            report.hop_packet_delivery_ratio[h] = ch.packet_delivery_ratio();
            if h + 1 < k - 1 {
                report.relay_cpu_utilization[h] = (relay_busy / cfg.duration_s).min(1.0);
            }
            traffic = next;
        }

        report
    }

    /// Run the reference and the tree simulator on the same chain of
    /// `n_nodes` motes and hold the tree to the reference: counters
    /// exactly, ratios to 1e-12.
    fn assert_tree_equals_reference(
        g: &Graph,
        below_root: &[HashSet<OperatorId>],
        feeds: Vec<SourceFeed>,
        platforms: &[Platform],
        channels: &[ChannelParams],
        n_nodes: usize,
        cfg: &SimulationConfig,
    ) {
        let k = platforms.len();
        let route = LeafRoute::chain(g, below_root, feeds);
        let tiered = simulate_tiered_reference(
            g,
            &route.site_ops,
            &route.feeds,
            platforms,
            channels,
            n_nodes,
            cfg,
        );
        let topo = TreeTopology::chain(platforms, channels, n_nodes);
        let tree = simulate_deployment_tree(g, &topo, &[route], cfg);
        let leaf = &tree.leaves[0];
        assert_eq!(leaf.events_offered, tiered.events_offered);
        assert_eq!(leaf.events_processed, tiered.events_processed);
        assert_eq!(leaf.hop_elements_sent, tiered.hop_elements_sent);
        assert_eq!(leaf.hop_elements_delivered, tiered.hop_elements_delivered);
        assert_eq!(
            leaf.hop_elements_dropped[..k - 2],
            tiered.relay_elements_dropped[..]
        );
        assert_eq!(tree.sink_arrivals, tiered.sink_arrivals);
        assert!(
            (tree.site_cpu_utilization[k - 1] - tiered.node_cpu_utilization).abs() < 1e-12,
            "leaf CPU"
        );
        for h in 0..k - 1 {
            // Tier `h` is site `k − 1 − h`; hop `h` is its uplink.
            let site = k - 1 - h;
            assert!(
                (tree.edge_offered_load_bytes_per_sec[site]
                    - tiered.hop_offered_load_bytes_per_sec[h])
                    .abs()
                    < 1e-9
            );
            assert!(
                (tree.edge_packet_delivery_ratio[site] - tiered.hop_packet_delivery_ratio[h]).abs()
                    < 1e-12
            );
            if h >= 1 {
                assert!(
                    (tree.site_cpu_utilization[site] - tiered.relay_cpu_utilization[h - 1]).abs()
                        < 1e-12,
                    "relay CPU"
                );
            }
        }
        assert!((leaf.goodput_ratio() - tiered.goodput_ratio()).abs() < 1e-12);
        assert!((tree.goodput_ratio() - tiered.goodput_ratio()).abs() < 1e-12);
    }

    #[test]
    fn path_tree_equals_tiered_simulation_exactly() {
        let (g, src, squeeze) = pipeline(200);
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 11)
        };
        assert_tree_equals_reference(
            &g,
            &[[src].into_iter().collect(), [squeeze].into_iter().collect()],
            feeds(src, 10.0),
            &[
                Platform::tmote_sky(),
                Platform::gumstix(),
                Platform::server(),
            ],
            &[ChannelParams::mote(), ChannelParams::wifi(50_000.0)],
            3,
            &cfg,
        );
    }

    #[test]
    fn two_site_star_equals_tiered_simulation_exactly() {
        // The paper's flat N-motes-one-channel testbed is the k = 2 chain.
        let (g, src, squeeze) = pipeline(500);
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 11)
        };
        assert_tree_equals_reference(
            &g,
            &[[src, squeeze].into_iter().collect()],
            feeds(src, 10.0),
            &[Platform::tmote_sky(), Platform::server()],
            &[ChannelParams::mote()],
            2,
            &cfg,
        );
    }

    #[test]
    fn saturated_gateway_collapses_only_its_own_subtree() {
        // Two sibling gateways under the server; the heavy reducer runs at
        // each gateway. Gateway A is a TMote-class box that cannot keep
        // up; gateway B is a Gumstix with headroom. Only A's subtree may
        // lose goodput.
        let (g, src, squeeze) = pipeline(2_500_000);
        let node: HashSet<_> = [src].into_iter().collect();
        let relay: HashSet<_> = [squeeze].into_iter().collect();
        let server: HashSet<_> = g
            .operator_ids()
            .filter(|id| !node.contains(id) && !relay.contains(id))
            .collect();
        let wifi = ChannelParams::wifi(1e6);
        let topo = TreeTopology {
            parent: vec![None, Some(0), Some(0), Some(1), Some(2)],
            platforms: vec![
                Platform::server(),
                Platform::tmote_sky(), // gw A: drowns in the reducer
                Platform::gumstix(),   // gw B: shrugs it off
                Platform::gumstix(),   // motes A (cheap source)
                Platform::gumstix(),   // motes B
            ],
            counts: vec![1, 1, 1, 1, 1],
            uplink: vec![None, Some(wifi), Some(wifi), Some(wifi), Some(wifi)],
        };
        let mk_route = |leaf: usize, gw: usize| LeafRoute {
            path: vec![leaf, gw, 0],
            site_ops: vec![node.clone(), relay.clone(), server.clone()],
            feeds: feeds(src, 20.0),
        };
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 23)
        };
        let r = simulate_deployment_tree(&g, &topo, &[mk_route(3, 1), mk_route(4, 2)], &cfg);
        let (a, b) = (&r.leaves[0], &r.leaves[1]);
        assert!(
            a.goodput_ratio() < 0.2,
            "saturated gateway A must shed most of its subtree's data: {}",
            a.goodput_ratio()
        );
        assert!(
            b.goodput_ratio() > 0.8,
            "sibling B has headroom: {}",
            b.goodput_ratio()
        );
        assert!(r.site_elements_dropped[1] > 0);
        assert_eq!(r.site_elements_dropped[2], 0);
        assert!(r.site_cpu_utilization[1] >= 0.99);
        assert!(r.site_cpu_utilization[2] < 0.5);
    }

    #[test]
    fn shared_gateway_accumulates_busy_time_across_routes() {
        // One gateway serving two leaf classes: each class alone fits
        // (~0.072 s per element on the 4 MHz TMote gateway, 100 elements
        // in 10 s), together they saturate it — the busy-time budget is
        // shared.
        let (g, src, squeeze) = pipeline(250_000);
        let node: HashSet<_> = [src].into_iter().collect();
        let relay: HashSet<_> = [squeeze].into_iter().collect();
        let server: HashSet<_> = g
            .operator_ids()
            .filter(|id| !node.contains(id) && !relay.contains(id))
            .collect();
        let wifi = ChannelParams::wifi(1e6);
        let mk_topo = |n_leaves: usize| {
            let mut parent = vec![None, Some(0)];
            let mut platforms = vec![Platform::server(), Platform::tmote_sky()];
            let mut counts = vec![1, 1];
            let mut uplink = vec![None, Some(wifi)];
            for _ in 0..n_leaves {
                parent.push(Some(1));
                platforms.push(Platform::gumstix());
                counts.push(1);
                uplink.push(Some(wifi));
            }
            TreeTopology {
                parent,
                platforms,
                counts,
                uplink,
            }
        };
        let mk_route = |leaf: usize| LeafRoute {
            path: vec![leaf, 1, 0],
            site_ops: vec![node.clone(), relay.clone(), server.clone()],
            feeds: feeds(src, 10.0),
        };
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 29)
        };
        let one = simulate_deployment_tree(&g, &mk_topo(1), &[mk_route(2)], &cfg);
        assert_eq!(
            one.site_elements_dropped[1], 0,
            "one class alone fits the gateway"
        );
        let two = simulate_deployment_tree(&g, &mk_topo(2), &[mk_route(2), mk_route(3)], &cfg);
        assert!(
            two.site_elements_dropped[1] > 0,
            "two classes must overrun the shared gateway CPU"
        );
        assert!(two.site_cpu_utilization[1] >= 0.99);
    }

    /// Chain server <- gateway <- motes with roomy links and a light
    /// program, plus the route running source-only on the motes.
    fn light_chain(
        n_nodes: usize,
        rate_hz: f64,
    ) -> (Graph, TreeTopology, LeafRoute, SimulationConfig) {
        let (g, src, squeeze) = pipeline(200);
        let node: HashSet<_> = [src].into_iter().collect();
        let relay: HashSet<_> = [squeeze].into_iter().collect();
        let server: HashSet<_> = g
            .operator_ids()
            .filter(|id| !node.contains(id) && !relay.contains(id))
            .collect();
        let platforms = [
            Platform::tmote_sky(),
            Platform::gumstix(),
            Platform::server(),
        ];
        let channels = [ChannelParams::wifi(1e6), ChannelParams::wifi(1e6)];
        let topo = TreeTopology::chain(&platforms, &channels, n_nodes);
        let route = LeafRoute {
            path: vec![2, 1, 0],
            site_ops: vec![node, relay, server],
            feeds: feeds(src, rate_hz),
        };
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(n_nodes, 17)
        };
        (g, topo, route, cfg)
    }

    #[test]
    fn empty_failure_plan_is_byte_identical() {
        let (g, topo, route, cfg) = light_chain(2, 10.0);
        let bare = simulate_deployment_tree(&g, &topo, std::slice::from_ref(&route), &cfg);
        let planned = simulate_deployment_tree_traced(
            &g,
            &topo,
            &[route],
            &cfg,
            &FailurePlan {
                failures: vec![],
                seed: 999, // an unused failure seed must not matter
            },
            &mut NullSink,
        );
        assert_eq!(bare, planned);
        assert_eq!(bare.stats(), planned.stats());
    }

    #[test]
    fn mote_death_silences_the_tail() {
        let (g, topo, route, cfg) = light_chain(1, 10.0);
        let plan = FailurePlan {
            failures: vec![Failure::MoteDeath {
                leaf: 2,
                node: 0,
                after_events: 10,
            }],
            seed: 0,
        };
        let r = simulate_deployment_tree_traced(&g, &topo, &[route], &cfg, &plan, &mut NullSink);
        let leaf = &r.leaves[0];
        assert_eq!(leaf.events_offered, 100);
        assert_eq!(leaf.events_processed, 10, "the node dies after 10 events");
        assert_eq!(r.site_outage_dropped[2], 90);
        let o = &r.outages[0];
        assert_eq!(
            (o.site, o.elements_dropped, o.elements_delivered),
            (2, 90, 10)
        );
        assert!(
            (o.window.0 - 1.0).abs() < 1e-9,
            "the 11th event arrives at t = 1.0 s, got {}",
            o.window.0
        );
        assert!(leaf.goodput_ratio() < 0.15);
        assert_eq!(r.stats().outage_dropped, 90);
    }

    #[test]
    fn gateway_reboot_drops_only_the_window() {
        let (g, topo, route, cfg) = light_chain(1, 10.0);
        let baseline = simulate_deployment_tree(&g, &topo, std::slice::from_ref(&route), &cfg);
        let plan = FailurePlan {
            failures: vec![Failure::GatewayReboot {
                site: 1,
                start_s: 2.0,
                end_s: 4.0,
            }],
            seed: 0,
        };
        let r = simulate_deployment_tree_traced(&g, &topo, &[route], &cfg, &plan, &mut NullSink);
        // The channel's congestion losses on the leaf uplink are
        // untouched (same seeds, same offered load); the reboot only
        // thins what the gateway forwards to later hops.
        assert_eq!(
            r.leaves[0].hop_elements_delivered[0],
            baseline.leaves[0].hop_elements_delivered[0]
        );
        // A ~2 s window of a 10 s run at a steady rate loses about a
        // fifth of the gateway's traffic.
        let o = &r.outages[0];
        assert!(o.elements_dropped > 0, "the window must drop something");
        assert!(o.elements_delivered > 2 * o.elements_dropped);
        assert_eq!(r.site_outage_dropped[1], o.elements_dropped);
        assert_eq!(r.site_elements_dropped[1], 0, "reboot drops are outages");
        assert!(r.goodput_ratio() < baseline.goodput_ratio());
        assert_eq!(
            r.stats().saturation_dropped,
            0,
            "no saturation in a light run"
        );
    }

    #[test]
    fn fading_uplink_adds_losses_only_in_its_window() {
        let (g, topo, route, cfg) = light_chain(1, 10.0);
        let baseline = simulate_deployment_tree(&g, &topo, std::slice::from_ref(&route), &cfg);
        let plan = FailurePlan {
            failures: vec![Failure::LossyUplink {
                site: 2,
                start_s: 0.0,
                end_s: 5.0,
                loss_prob: 1.0,
            }],
            seed: 42,
        };
        let r = simulate_deployment_tree_traced(&g, &topo, &[route], &cfg, &plan, &mut NullSink);
        let o = &r.outages[0];
        assert!(o.elements_dropped > 0);
        assert_eq!(o.elements_delivered, 0, "loss_prob 1.0 spares nothing");
        assert_eq!(r.edge_outage_dropped[2], o.elements_dropped);
        assert!(
            r.leaves[0].hop_delivery_ratio(0) < 0.6 * baseline.leaves[0].hop_delivery_ratio(0),
            "half the run fades to nothing"
        );
        let stats = r.stats();
        assert_eq!(stats.outage_dropped, o.elements_dropped);
        // The leaves keep producing through the fade: first-hop
        // submissions match the failure-free run exactly.
        assert_eq!(
            r.leaves[0].hop_elements_sent[0],
            baseline.leaves[0].hop_elements_sent[0]
        );
    }

    #[test]
    #[should_panic(expected = "must sit in exactly one site_ops[t]")]
    fn a_route_that_places_an_operator_twice_or_nowhere_is_rejected() {
        let (g, topo, route, cfg) = light_chain(1, 10.0);
        let squeeze = *route.site_ops[1].iter().next().unwrap();
        // Nowhere: no site of the route is asked to run `squeeze`.
        let mut nowhere = route.clone();
        nowhere.site_ops[1].clear();
        let run = |route: LeafRoute| simulate_deployment_tree(&g, &topo, &[route], &cfg);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(nowhere)));
        assert!(caught.is_err(), "an unplaced operator must be rejected");
        // Twice: at the gateway and again at the root.
        let mut twice = route;
        twice.site_ops[2].insert(squeeze);
        run(twice);
    }

    #[test]
    fn shared_root_edge_carries_both_routes() {
        // Two leaf classes whose routes share one congested mote channel
        // into the server: the channel sees the sum of both loads.
        let (g, src, _sq) = pipeline(10);
        let node: HashSet<_> = g
            .operator_ids()
            .filter(|id| {
                let k = g.spec(*id).kind;
                k != wishbone_dataflow::OperatorKind::Sink
            })
            .collect();
        let server: HashSet<_> = g.operator_ids().filter(|id| !node.contains(id)).collect();
        // server <- gateway <- {motes-a, motes-b}; the gateway uplink is
        // the paper's 6 kB/s mote channel, each leaf uplink is roomy.
        let topo = TreeTopology {
            parent: vec![None, Some(0), Some(1), Some(1)],
            platforms: vec![
                Platform::server(),
                Platform::tmote_sky(),
                Platform::gumstix(),
                Platform::gumstix(),
            ],
            counts: vec![1, 1, 1, 1],
            uplink: vec![
                None,
                Some(ChannelParams::mote()),
                Some(ChannelParams::wifi(1e6)),
                Some(ChannelParams::wifi(1e6)),
            ],
        };
        let mk_route = |leaf: usize, rate: f64| LeafRoute {
            path: vec![leaf, 1, 0],
            site_ops: vec![node.clone(), HashSet::new(), server.clone()],
            feeds: feeds(src, rate),
        };
        let cfg = SimulationConfig {
            duration_s: 10.0,
            ..SimulationConfig::motes(1, 31)
        };
        let solo = simulate_deployment_tree(&g, &topo, &[mk_route(2, 20.0)], &cfg);
        let both =
            simulate_deployment_tree(&g, &topo, &[mk_route(2, 20.0), mk_route(3, 20.0)], &cfg);
        assert!(
            both.edge_offered_load_bytes_per_sec[1] > 1.9 * solo.edge_offered_load_bytes_per_sec[1],
            "shared edge must see both classes' load"
        );
        assert!(
            both.leaves[0].hop_delivery_ratio(1) < solo.leaves[0].hop_delivery_ratio(1),
            "congestion from the sibling class must hurt route A's shared hop"
        );
    }
}
