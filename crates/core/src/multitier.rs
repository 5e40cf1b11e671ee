//! Tiered partitioning graphs: the per-leaf chain view behind k-way
//! monotone cuts (mote → gateway → server).
//!
//! The paper's §9 sketches hierarchies beyond the single node/server cut
//! ("the server would need to be engineered to deal with receiving results
//! from the network at various stages of partial processing"). Every leaf
//! of a [`Deployment`](crate::topology::Deployment) sees its root path as
//! such a chain: each operator is assigned a tier `t ∈ {0, …, k−1}`,
//! jointly optimizing all `k − 1` cut frontiers in one ILP. This module
//! builds that chain's weighted graph ([`build_tiered_graph`]) and runs
//! the chain-sound §4.1 merge on it ([`preprocess_tiered`]).
//!
//! The encoding uses monotone indicator variables
//! `y_u^b = 1 ⇔ tier(u) ≤ b` with unit-coefficient precedence rows — the
//! same ≈2-nonzeros-per-row shape the sparse revised simplex backend was
//! built for, just `k − 1` times wider. Each tier gets a CPU budget on
//! its own platform's cycle model, and each link (tier `b` → `b+1`)
//! carries the bandwidth of every edge whose endpoints straddle it, priced
//! with *that* hop's radio framing — relays store-and-forward traffic
//! that merely passes through them.
//!
//! For `k = 2` the chain is provably identical to the paper's binary
//! restricted encoding (kept as a dev-only oracle in `wishbone_oracle`):
//! same variables, same rows, same coefficients, in the same order — the
//! differential parity tests (`tests/end_to_end_tiered.rs`,
//! `tests/proptest_multitier.rs`) pin that anchor on both simplex
//! backends.

use std::collections::{HashMap, HashSet};

use wishbone_dataflow::{EdgeId, Graph, OperatorId};
use wishbone_ilp::is_exact_zero;
use wishbone_net::ChannelParams;
use wishbone_profile::{GraphProfile, Platform};

use crate::cost_graph::{pin_analysis, Mode, Pin, PinError};
use crate::encodings::TierObjective;

/// A vertex of the tiered partitioning graph: one operator (or a merged
/// class) with a CPU cost *per tier platform*.
#[derive(Debug, Clone)]
pub struct TVertex {
    /// The underlying dataflow operators.
    pub ops: Vec<OperatorId>,
    /// CPU fraction consumed on each tier's platform at the reference
    /// rate (length `k`).
    pub cpu_cost: Vec<f64>,
    /// Placement constraint: [`Pin::Node`] = tier 0, [`Pin::Server`] =
    /// tier `k − 1`.
    pub pin: Pin,
}

/// An edge of the tiered partitioning graph with an on-air bandwidth *per
/// link* (each hop frames packets with its own radio).
#[derive(Debug, Clone)]
pub struct TEdge {
    /// Source vertex index.
    pub src: usize,
    /// Destination vertex index.
    pub dst: usize,
    /// On-air bytes/second if carried over link `b` (length `k − 1`).
    pub bandwidth: Vec<f64>,
    /// The dataflow edges aggregated into this partition edge.
    pub graph_edges: Vec<EdgeId>,
}

/// The weighted DAG handed to the k-way encoding.
#[derive(Debug, Clone)]
pub struct TieredGraph {
    /// Number of tiers `k ≥ 2`.
    pub tiers: usize,
    /// Vertices.
    pub vertices: Vec<TVertex>,
    /// Edges.
    pub edges: Vec<TEdge>,
}

impl TieredGraph {
    /// Expand a per-vertex tier assignment into per-operator tiers,
    /// indexed by `OperatorId.0`.
    pub fn op_tiers(&self, vertex_tiers: &[usize], n_ops: usize) -> Vec<usize> {
        let mut tiers = vec![self.tiers - 1; n_ops];
        for (v, vert) in self.vertices.iter().enumerate() {
            for &op in &vert.ops {
                tiers[op.0] = vertex_tiers[v];
            }
        }
        tiers
    }
}

/// Build the tiered partitioning graph for a chain of candidate platforms:
/// per-tier CPU fractions and per-link on-air bandwidths, at
/// `rate_multiplier` times the profile's reference rate.
pub fn build_tiered_graph(
    graph: &Graph,
    profile: &GraphProfile,
    platforms: &[Platform],
    mode: Mode,
    rate_multiplier: f64,
) -> Result<TieredGraph, PinError> {
    let k = platforms.len();
    assert!(k >= 2, "a chain needs at least two tiers");
    let pins = pin_analysis(graph, mode)?;
    let vertices = graph
        .operator_ids()
        .map(|id| TVertex {
            ops: vec![id],
            cpu_cost: platforms
                .iter()
                .map(|p| profile.cpu_fraction(id, p) * rate_multiplier)
                .collect(),
            pin: pins[id.0],
        })
        .collect();
    let edges = graph
        .edge_ids()
        .map(|eid| {
            let e = graph.edge(eid);
            TEdge {
                src: e.src.0,
                dst: e.dst.0,
                // Link b is forwarded by tier b, so it wears tier b's
                // packet framing.
                bandwidth: platforms[..k - 1]
                    .iter()
                    .map(|p| profile.edge_on_air_bandwidth(eid, p) * rate_multiplier)
                    .collect(),
                graph_edges: vec![eid],
            }
        })
        .collect();
    Ok(TieredGraph {
        tiers: k,
        vertices,
        edges,
    })
}

/// Union-find over vertex indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Combine two pin states; `Err` names `witness` on node/server conflict.
fn combine_pins(a: Pin, b: Pin, witness: OperatorId) -> Result<Pin, PinError> {
    match (a, b) {
        (Pin::Movable, p) | (p, Pin::Movable) => Ok(p),
        (x, y) if x == y => Ok(x),
        _ => Err(PinError::Conflict(witness)),
    }
}

/// Result of the tiered §4.1 merge.
#[derive(Debug, Clone)]
pub struct TieredPreprocessResult {
    /// The merged graph.
    pub graph: TieredGraph,
    /// Vertex count before merging.
    pub vertices_before: usize,
    /// Vertex count after merging.
    pub vertices_after: usize,
}

/// The §4.1 merge generalized to a chain. A movable single-output vertex
/// `v` merges with its downstream consumer only when *both* halves of the
/// dominance argument survive the generalization:
///
/// * **bandwidth**: `v` is data-expanding or data-neutral under **every**
///   link's on-air measure (different hops frame packets differently, so
///   an operator can reduce on-air bytes on one radio and expand them on
///   another; moving a cut above `v` must help on every boundary it could
///   sit on);
/// * **CPU**: gluing `v` to its consumer may force `v` onto any later
///   tier, which is free only where that tier cannot charge for it — for
///   every tier `t ≥ 1`, either `v` costs nothing there
///   (`cpu_cost[t] == 0`) or tier `t` is unconstrained (`α_t = 0` and an
///   infinite budget). The binary §4.1 argument silently relies on this:
///   its downstream side is the server with "infinite computational
///   power". A budgeted gateway breaks it — merging could overload the
///   middle tier and flip a feasible instance to infeasible.
///
/// For `k = 2` with a free final tier this is exactly the paper's binary
/// merge (the dev-only oracle `wishbone_oracle::preprocess` delegates
/// here).
pub fn preprocess_tiered(
    tg: &TieredGraph,
    obj: &TierObjective,
) -> Result<TieredPreprocessResult, PinError> {
    assert_eq!(obj.tiers(), tg.tiers, "objective tier count mismatch");
    let n = tg.vertices.len();
    let links = tg.tiers - 1;
    let mut dsu = Dsu::new(n);

    // Per-link per-vertex input/output bandwidth sums.
    let mut in_bw = vec![vec![0.0f64; n]; links];
    let mut out_bw = vec![vec![0.0f64; n]; links];
    for e in &tg.edges {
        for (b, &r) in e.bandwidth.iter().enumerate() {
            out_bw[b][e.src] += r;
            in_bw[b][e.dst] += r;
        }
    }

    // Tiers that may charge `v` for being moved onto them.
    let charging_tiers: Vec<usize> = (1..tg.tiers)
        .filter(|&t| !is_exact_zero(obj.alpha[t]) || obj.cpu_budget[t].is_finite())
        .collect();

    let mut out_deg = vec![0usize; n];
    for e in &tg.edges {
        out_deg[e.src] += 1;
    }
    for (v, vert) in tg.vertices.iter().enumerate() {
        if vert.pin != Pin::Movable || out_deg[v] != 1 {
            continue;
        }
        let safe_on_every_link =
            (0..links).all(|b| out_bw[b][v] + 1e-12 >= in_bw[b][v] && out_bw[b][v] > 0.0);
        let free_on_every_charging_tier = charging_tiers
            .iter()
            .all(|&t| is_exact_zero(vert.cpu_cost[t]));
        if safe_on_every_link && free_on_every_charging_tier {
            for e in tg.edges.iter().filter(|e| e.src == v) {
                dsu.union(v, e.dst);
            }
        }
    }

    // Build the quotient. Merging can create cycles in it (a path
    // between two merged vertices through an unmerged one); the
    // single-crossing constraints force such intermediate vertices onto
    // the same side anyway, so collapse every strongly connected
    // component. The condensation of a graph is a DAG, so one pass of
    // that and one rebuild of the quotient is all it takes.
    let (mut class_of, mut classes) = quotient(&mut dsu, n);
    let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); classes.len()];
    for e in &tg.edges {
        let (cs, cd) = (class_of[&dsu.find(e.src)], class_of[&dsu.find(e.dst)]);
        if cs != cd {
            adj[cs].insert(cd);
        }
    }
    let cycles = cyclic_sccs(&adj);
    if !cycles.is_empty() {
        for scc in &cycles {
            let mut members = scc.iter().flat_map(|&c| classes[c].iter().copied());
            let first = members.next().expect("SCC is non-empty");
            for v in members {
                dsu.union(first, v);
            }
        }
        (class_of, classes) = quotient(&mut dsu, n);
    }

    let m = classes.len();
    let mut vertices: Vec<TVertex> = Vec::with_capacity(m);
    for members in &classes {
        let mut ops = Vec::new();
        let mut cpu = vec![0.0f64; tg.tiers];
        let mut pin = Pin::Movable;
        for &v in members {
            let vert = &tg.vertices[v];
            ops.extend(vert.ops.iter().copied());
            for (acc, &c) in cpu.iter_mut().zip(&vert.cpu_cost) {
                *acc += c;
            }
            pin = combine_pins(
                pin,
                vert.pin,
                vert.ops.first().copied().unwrap_or(OperatorId(0)),
            )?;
        }
        ops.sort_unstable();
        vertices.push(TVertex {
            ops,
            cpu_cost: cpu,
            pin,
        });
    }
    let mut agg: HashMap<(usize, usize), TEdge> = HashMap::new();
    for e in &tg.edges {
        let (cs, cd) = (class_of[&dsu.find(e.src)], class_of[&dsu.find(e.dst)]);
        if cs == cd {
            continue;
        }
        let entry = agg.entry((cs, cd)).or_insert(TEdge {
            src: cs,
            dst: cd,
            bandwidth: vec![0.0; links],
            graph_edges: Vec::new(),
        });
        for (acc, &r) in entry.bandwidth.iter_mut().zip(&e.bandwidth) {
            *acc += r;
        }
        entry.graph_edges.extend(e.graph_edges.iter().copied());
    }
    let mut edges: Vec<TEdge> = agg.into_values().collect();
    edges.sort_by_key(|e| (e.src, e.dst));
    Ok(TieredPreprocessResult {
        graph: TieredGraph {
            tiers: tg.tiers,
            vertices,
            edges,
        },
        vertices_before: n,
        vertices_after: m,
    })
}

/// The classes of `dsu` over vertices `0..n`, numbered by their first
/// vertex with members in vertex order (so every sum over a class runs
/// in vertex order), and the class of each root.
fn quotient(dsu: &mut Dsu, n: usize) -> (HashMap<usize, usize>, Vec<Vec<usize>>) {
    let mut class_of: HashMap<usize, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        let root = dsu.find(v);
        let c = *class_of.entry(root).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[c].push(v);
    }
    (class_of, classes)
}

/// Every non-trivial strongly connected component of the quotient graph
/// (iterative Tarjan, one pass); empty when the graph is a DAG.
fn cyclic_sccs(adj: &[HashSet<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // Iterative DFS state: a vertex and its unvisited neighbours.
        let mut call = vec![(start, adj[start].iter())];
        while let Some((v, neighbours)) = call.last_mut() {
            let v = *v;
            if index[v] == usize::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = neighbours.next() {
                if index[w] == usize::MAX {
                    call.push((w, adj[w].iter()));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            // v finished.
            call.pop();
            if low[v] == index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = stack.pop().expect("stack non-empty");
                    on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                if scc.len() > 1 {
                    sccs.push(scc);
                }
            }
            if let Some(&(p, _)) = call.last() {
                low[p] = low[p].min(low[v]);
            }
        }
    }
    sccs
}

/// One link (the uplink from tier `b` towards tier `b+1`).
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Bandwidth weight of this link in the objective.
    pub beta: f64,
    /// On-air bandwidth budget, bytes/second
    /// (`f64::INFINITY` = unconstrained).
    pub net_budget: f64,
}

impl LinkSpec {
    /// The paper's evaluation uplink for a site on `platform`: β = 1,
    /// budgeted at the platform radio's goodput.
    pub fn for_platform(platform: &Platform) -> LinkSpec {
        LinkSpec {
            beta: 1.0,
            net_budget: platform.radio.goodput_bytes_per_sec,
        }
    }

    /// Derive a link budget from a [`ChannelParams`] radio model: budget
    /// the channel at `utilization` of its saturation capacity (the §7.3.1
    /// network profile keeps the budget below the congestion cliff).
    pub fn from_channel(params: &ChannelParams, utilization: f64) -> LinkSpec {
        assert!(utilization > 0.0);
        LinkSpec {
            beta: 1.0,
            net_budget: params.capacity_bytes_per_sec * utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{
        max_sustainable_rate_deployment, partition_deployment, Deployment, DeploymentConfig,
        PreparedDeployment, Site,
    };
    use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder, Value};
    use wishbone_profile::{profile as run_profile, SourceTrace};

    /// src -> heavy 4x reducer -> light 2x reducer -> sink.
    fn app() -> (Graph, OperatorId) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let heavy = b.transform(
            "heavy",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter().loop_scope(w.len() as u64, |m| {
                    m.fmul(40 * w.len() as u64);
                    m.fadd(40 * w.len() as u64);
                });
                cx.emit(Value::VecI16(w.iter().step_by(4).copied().collect()));
            })),
            src,
        );
        let light = b.transform(
            "light",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter()
                    .loop_scope(w.len() as u64, |m| m.int(w.len() as u64));
                cx.emit(Value::VecI16(w.iter().step_by(2).copied().collect()));
            })),
            heavy,
        );
        b.exit_namespace();
        b.sink("out", light);
        (b.finish().unwrap(), src.0)
    }

    fn profiled() -> (Graph, GraphProfile) {
        let (mut g, src) = app();
        let t = SourceTrace {
            source: src,
            elements: (0..30)
                .map(|i| Value::VecI16(vec![i as i16; 256]))
                .collect(),
            rate_hz: 20.0,
        };
        let prof = run_profile(&mut g, &[t]).unwrap();
        (g, prof)
    }

    #[test]
    fn monotone_rows_enforce_tier_order_along_edges() {
        let (g, prof) = profiled();
        let dep = Deployment::chain(&[
            Platform::tmote_sky(),
            Platform::iphone(),
            Platform::server(),
        ]);
        let part = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default().at_rate(0.2))
            .expect("feasible");
        let leaf = &part.leaves[0];
        assert_eq!(leaf.path.len(), 3);
        for eid in g.edge_ids() {
            let e = g.edge(eid);
            let ts = leaf.position_of(e.src).unwrap();
            let td = leaf.position_of(e.dst).unwrap();
            assert!(ts <= td, "edge {eid:?} goes backwards: {ts} -> {td}");
        }
        // Budgets respected on every tier that has one.
        for (t, &site) in leaf.path.iter().enumerate() {
            let budget = dep.site(site).cpu_budget;
            if budget.is_finite() {
                assert!(
                    leaf.predicted_cpu[t] <= budget + 1e-9,
                    "tier {t} cpu {} over budget {budget}",
                    leaf.predicted_cpu[t],
                );
            }
        }
    }

    #[test]
    fn prepared_multitier_matches_one_shot() {
        let (g, prof) = profiled();
        let dep = Deployment::chain(&[
            Platform::tmote_sky(),
            Platform::gumstix(),
            Platform::server(),
        ]);
        let cfg = DeploymentConfig::default();
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
        for rate in [0.05, 0.2, 1.0, 4.0] {
            let a = prep.solve_at(rate);
            let b = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(rate));
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.leaves[0].site_ops, b.leaves[0].site_ops, "rate {rate}");
                    assert!(
                        (a.objective - b.objective).abs() < 1e-6 * (1.0 + b.objective.abs()),
                        "rate {rate}: {} vs {}",
                        a.objective,
                        b.objective
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "rate {rate}"),
                (a, b) => panic!("rate {rate}: prepared {a:?} vs one-shot {b:?}"),
            }
        }
        assert_eq!(prep.encodes(), 1);
        assert_eq!(prep.solves(), 4);
    }

    #[test]
    fn three_tier_rate_at_least_two_tier() {
        // A phone relay can only help: every 2-tier solution is a 3-tier
        // solution with an empty middle (the phone's uplink budget dwarfs
        // the mote's, so pass-through traffic always fits).
        let (g, prof) = profiled();
        let mote = Platform::tmote_sky();
        let cfg = DeploymentConfig::default();
        let two = max_sustainable_rate_deployment(
            &g,
            &prof,
            &Deployment::chain(&[mote.clone(), Platform::server()]),
            &cfg,
            64.0,
            0.01,
        )
        .unwrap()
        .expect("feasible");
        let three = max_sustainable_rate_deployment(
            &g,
            &prof,
            &Deployment::chain(&[mote, Platform::iphone(), Platform::server()]),
            &cfg,
            64.0,
            0.01,
        )
        .unwrap()
        .expect("feasible");
        assert!(
            three.rate >= two.rate * (1.0 - 0.02),
            "3-tier {} vs 2-tier {}",
            three.rate,
            two.rate
        );
        assert_eq!(three.encodes, 1);
        assert!(three.evaluations > 1);
    }

    #[test]
    fn infeasible_chain_returns_none_from_rate_search() {
        let (g, prof) = profiled();
        let dep = Deployment::star([(
            Site::new("mote", &Platform::tmote_sky()).with_cpu_budget(0.0),
            LinkSpec {
                beta: 1.0,
                net_budget: 0.0,
            },
        )]);
        assert!(max_sustainable_rate_deployment(
            &g,
            &prof,
            &dep,
            &DeploymentConfig::default(),
            8.0,
            0.01
        )
        .unwrap()
        .is_none());
    }

    /// No tiered graph built from a dataflow DAG reaches the SCC collapse
    /// (a merged class is an in-tree, and only its root has edges out), so
    /// pin it on a hand-made graph: two separate cycles, every vertex
    /// data-reducing so that nothing else merges, collapse in one pass.
    #[test]
    fn every_cycle_of_the_quotient_collapses_in_one_pass() {
        let edge = |id: usize, src: usize, dst: usize, bw: f64| TEdge {
            src,
            dst,
            bandwidth: vec![bw],
            graph_edges: vec![EdgeId(id)],
        };
        let tg = TieredGraph {
            tiers: 2,
            vertices: (0..6)
                .map(|v| TVertex {
                    ops: vec![OperatorId(v)],
                    cpu_cost: vec![v as f64, 0.0],
                    pin: Pin::Movable,
                })
                .collect(),
            // {3, 0} and {4, 1, 2} are the cycles; 5 hangs off the second.
            edges: vec![
                edge(0, 3, 0, 2.0),
                edge(1, 0, 3, 1.0),
                edge(2, 3, 4, 5.0),
                edge(3, 4, 1, 4.0),
                edge(4, 1, 2, 3.0),
                edge(5, 2, 4, 5.0),
                edge(6, 2, 5, 1.0),
            ],
        };
        let obj = TierObjective::bandwidth_only(vec![1.0, f64::INFINITY], vec![1e12]);
        let merged = preprocess_tiered(&tg, &obj).expect("no pins to conflict");
        assert_eq!((merged.vertices_before, merged.vertices_after), (6, 3));
        let classes: Vec<(Vec<usize>, f64)> = merged
            .graph
            .vertices
            .iter()
            .map(|v| (v.ops.iter().map(|op| op.0).collect(), v.cpu_cost[0]))
            .collect();
        // Classes are numbered by their first vertex.
        assert_eq!(
            classes,
            [(vec![0, 3], 3.0), (vec![1, 2, 4], 7.0), (vec![5], 5.0)]
        );
        let edges: Vec<(usize, usize, f64, &[EdgeId])> = merged
            .graph
            .edges
            .iter()
            .map(|e| (e.src, e.dst, e.bandwidth[0], &e.graph_edges[..]))
            .collect();
        assert_eq!(
            edges,
            [(0, 1, 5.0, &[EdgeId(2)][..]), (1, 2, 1.0, &[EdgeId(6)][..])]
        );
    }

    #[test]
    fn link_spec_from_channel_budgets_below_saturation() {
        let ch = ChannelParams::mote();
        let l = LinkSpec::from_channel(&ch, 0.5);
        assert!((l.net_budget - 3_000.0).abs() < 1e-9);
        assert_eq!(l.beta, 1.0);
    }
}
