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
//! For `k = 2` the chain is provably identical to the binary restricted
//! encoding: same variables, same rows, same coefficients, in the same
//! order — the differential parity tests (`tests/end_to_end_tiered.rs`,
//! `tests/proptest_multitier.rs`) pin that anchor on both simplex
//! backends.

use std::collections::{HashMap, HashSet};

use wishbone_dataflow::{EdgeId, Graph, OperatorId};
use wishbone_ilp::is_exact_zero;
use wishbone_net::ChannelParams;
use wishbone_profile::{GraphProfile, Platform};

use crate::cost_graph::{pin_analysis, Mode, PartitionGraph, Pin, PinError};
use crate::encodings::TierObjective;
use crate::preprocess::{combine_pins, find_cycle_scc, Dsu};

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
    /// Lift a binary [`PartitionGraph`] into a 2-tier graph (tier-1 CPU
    /// costs are zero: the paper's infinitely powerful server).
    pub fn from_binary(pg: &PartitionGraph) -> TieredGraph {
        TieredGraph {
            tiers: 2,
            vertices: pg
                .vertices
                .iter()
                .map(|v| TVertex {
                    ops: v.ops.clone(),
                    cpu_cost: vec![v.cpu_cost, 0.0],
                    pin: v.pin,
                })
                .collect(),
            edges: pg
                .edges
                .iter()
                .map(|e| TEdge {
                    src: e.src,
                    dst: e.dst,
                    bandwidth: vec![e.bandwidth],
                    graph_edges: e.graph_edges.clone(),
                })
                .collect(),
        }
    }

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
/// For `k = 2` with a free final tier this is exactly
/// [`crate::preprocess::preprocess`] (which now delegates here).
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

    // Build the quotient, collapsing SCCs until acyclic (mirrors the
    // binary preprocess, with vector weights).
    loop {
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

        let m = classes.len();
        let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); m];
        for e in &tg.edges {
            let (cs, cd) = (class_of[&dsu.find(e.src)], class_of[&dsu.find(e.dst)]);
            if cs != cd {
                adj[cs].insert(cd);
            }
        }

        match find_cycle_scc(m, &adj) {
            Some(scc) => {
                let mut members = scc.iter().flat_map(|&c| classes[c].iter().copied());
                let first = members.next().expect("SCC is non-empty");
                for v in members {
                    dsu.union(first, v);
                }
            }
            None => {
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
                return Ok(TieredPreprocessResult {
                    graph: TieredGraph {
                        tiers: tg.tiers,
                        vertices,
                        edges,
                    },
                    vertices_before: n,
                    vertices_after: m,
                });
            }
        }
    }
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
    use crate::encodings::{encode, encode_multitier, Encoding, ObjectiveConfig};
    use crate::partitioner::PartitionError;
    use crate::topology::{
        max_sustainable_rate_deployment, partition_deployment, Deployment, DeploymentConfig,
        PreparedDeployment, Site,
    };
    use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder, Value};
    use wishbone_ilp::{IlpOptions, SolveError, SolverBackend};
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

    /// What [`binary_oracle`] computed.
    #[derive(Debug)]
    struct BinaryCut {
        node_ops: HashSet<OperatorId>,
        cut_edges: Vec<EdgeId>,
        objective: f64,
        problem_size: (usize, usize),
        merge_stats: (usize, usize),
    }

    /// The binary pipeline spelled out on the standalone oracles: partition
    /// graph → §4.1 merge → restricted encoding → branch-and-bound.
    fn binary_oracle(
        g: &Graph,
        prof: &GraphProfile,
        platform: &Platform,
        rate: f64,
        backend: SolverBackend,
    ) -> Result<BinaryCut, PartitionError> {
        let pg0 =
            crate::cost_graph::build_partition_graph(g, prof, platform, Mode::Permissive, rate)?;
        let merged = crate::preprocess::preprocess(&pg0)?;
        let ep = encode(
            &merged.graph,
            Encoding::Restricted,
            &ObjectiveConfig {
                alpha: 0.0,
                beta: 1.0,
                cpu_budget: platform.cpu_budget_fraction,
                net_budget: platform.radio.goodput_bytes_per_sec,
            },
        );
        let opts = IlpOptions {
            backend,
            ..IlpOptions::default()
        };
        let sol = ep.problem.solve_ilp(&opts).map_err(|e| match e {
            SolveError::Infeasible => PartitionError::Infeasible,
            e => PartitionError::Solver(e),
        })?;
        let node_ops = merged.graph.expand(&ep.decode(&sol.values));
        let cut_edges = g
            .edge_ids()
            .filter(|&eid| {
                let e = g.edge(eid);
                node_ops.contains(&e.src) && !node_ops.contains(&e.dst)
            })
            .collect();
        Ok(BinaryCut {
            node_ops,
            cut_edges,
            objective: sol.objective,
            problem_size: (ep.problem.num_vars(), ep.problem.num_constraints()),
            merge_stats: (pg0.vertices.len(), merged.vertices_after),
        })
    }

    #[test]
    fn two_tier_parity_with_binary_partitioner() {
        let (g, prof) = profiled();
        let mote = Platform::tmote_sky();
        let dep = Deployment::star([(Site::new("mote", &mote), LinkSpec::for_platform(&mote))]);
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            for rate in [0.02, 0.1, 0.5] {
                let mut cfg = DeploymentConfig::default().at_rate(rate);
                cfg.ilp.backend = backend;
                let a = binary_oracle(&g, &prof, &mote, rate, backend);
                let b = partition_deployment(&g, &prof, &dep, &cfg);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        let leaf = &b.leaves[0];
                        assert_eq!(a.node_ops, leaf.site_ops[0], "rate {rate} {backend:?}");
                        assert_eq!(
                            g.operator_count() - a.node_ops.len(),
                            leaf.site_ops[1].len()
                        );
                        assert_eq!(a.cut_edges, leaf.link_cut_edges[0]);
                        assert!(
                            (a.objective - b.objective).abs() < 1e-9 * (1.0 + a.objective.abs()),
                            "objectives {} vs {}",
                            a.objective,
                            b.objective
                        );
                        let cpu: f64 = g
                            .operator_ids()
                            .filter(|id| a.node_ops.contains(id))
                            .map(|id| prof.cpu_fraction(id, &mote) * rate)
                            .sum();
                        let net: f64 = a
                            .cut_edges
                            .iter()
                            .map(|&e| prof.edge_on_air_bandwidth(e, &mote) * rate)
                            .sum();
                        assert!((cpu - leaf.predicted_cpu[0]).abs() < 1e-12);
                        assert!((net - leaf.predicted_net[0]).abs() < 1e-12);
                        assert_eq!(a.problem_size, b.problem_size, "identical ILP shape");
                        assert_eq!(a.merge_stats, b.merge_stats, "identical merge");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "rate {rate} {backend:?}"),
                    (a, b) => panic!("rate {rate} {backend:?}: binary {a:?} vs star {b:?}"),
                }
            }
        }
    }

    /// Synthetic 3-tier chain where the gateway is the only place the
    /// heavy reducer fits: tier 1 must absorb it.
    fn synthetic_3tier() -> TieredGraph {
        TieredGraph {
            tiers: 3,
            vertices: vec![
                TVertex {
                    ops: vec![OperatorId(0)],
                    cpu_cost: vec![0.1, 0.01, 0.0],
                    pin: Pin::Node,
                },
                TVertex {
                    ops: vec![OperatorId(1)],
                    cpu_cost: vec![0.9, 0.1, 0.0],
                    pin: Pin::Movable,
                },
                TVertex {
                    ops: vec![OperatorId(2)],
                    cpu_cost: vec![0.0, 0.0, 0.0],
                    pin: Pin::Server,
                },
            ],
            edges: vec![
                TEdge {
                    src: 0,
                    dst: 1,
                    bandwidth: vec![100.0, 100.0],
                    graph_edges: vec![],
                },
                TEdge {
                    src: 1,
                    dst: 2,
                    bandwidth: vec![10.0, 10.0],
                    graph_edges: vec![],
                },
            ],
        }
    }

    fn solve_tiers(tg: &TieredGraph, obj: &TierObjective) -> Option<(Vec<usize>, f64)> {
        let ep = encode_multitier(tg, obj);
        ep.problem
            .solve_ilp(&IlpOptions::default())
            .ok()
            .map(|s| (ep.decode(&s.values), s.objective + ep.objective_offset))
    }

    #[test]
    fn gateway_absorbs_work_the_mote_cannot_hold() {
        let tg = synthetic_3tier();
        // Mote budget 0.5 rejects the 0.9 reducer; gateway budget 1.0
        // accepts its 0.1 incarnation. Optimal: reducer on tier 1
        // (objective 100 + 10 = 110, vs all-server 100 + 100 = 200).
        let obj = TierObjective::bandwidth_only(
            vec![0.5, 1.0, f64::INFINITY],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let (tiers, objective) = solve_tiers(&tg, &obj).expect("feasible");
        assert_eq!(tiers, vec![0, 1, 2]);
        assert!((objective - 110.0).abs() < 1e-6, "objective {objective}");
    }

    #[test]
    fn gateway_cpu_budget_pushes_work_to_the_server() {
        let tg = synthetic_3tier();
        let obj = TierObjective::bandwidth_only(
            vec![0.5, 0.05, f64::INFINITY],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let (tiers, objective) = solve_tiers(&tg, &obj).expect("feasible");
        assert_eq!(tiers, vec![0, 2, 2], "0.05 gateway budget rejects 0.1");
        assert!((objective - 200.0).abs() < 1e-6);
    }

    #[test]
    fn link_budget_binds_per_hop() {
        let mut tg = synthetic_3tier();
        // Make the mote able to hold the reducer so the first hop can be
        // the cheap 10 B/s edge.
        tg.vertices[1].cpu_cost[0] = 0.2;
        // Link 1 budget below 10 B/s: nothing may cross to the server —
        // but the sink is pinned there, so even the residual 10 B/s flow
        // must cross, making the instance infeasible.
        let obj =
            TierObjective::bandwidth_only(vec![1.0, 1.0, f64::INFINITY], vec![f64::INFINITY, 5.0]);
        assert!(solve_tiers(&tg, &obj).is_none(), "5 B/s hop-1 cap");
        // Budget 15 admits the reduced stream.
        let obj =
            TierObjective::bandwidth_only(vec![1.0, 1.0, f64::INFINITY], vec![f64::INFINITY, 15.0]);
        let (tiers, _) = solve_tiers(&tg, &obj).expect("feasible");
        assert!(tiers[1] <= 1, "reducer stays inside the network");
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
    fn tiered_preprocess_reduces_to_binary_on_two_tiers() {
        let (g, prof) = profiled();
        let mote = Platform::tmote_sky();
        let pg = crate::cost_graph::build_partition_graph(&g, &prof, &mote, Mode::Permissive, 1.0)
            .unwrap();
        let binary = crate::preprocess::preprocess(&pg).unwrap();
        let tg = build_tiered_graph(
            &g,
            &prof,
            &[mote.clone(), Platform::server()],
            Mode::Permissive,
            1.0,
        )
        .unwrap();
        let obj = TierObjective::bandwidth_only(vec![1.0, f64::INFINITY], vec![1e9]);
        let tiered = preprocess_tiered(&tg, &obj).unwrap();
        assert_eq!(binary.vertices_after, tiered.vertices_after);
        for (bv, tv) in binary.graph.vertices.iter().zip(&tiered.graph.vertices) {
            assert_eq!(bv.ops, tv.ops);
            assert!((bv.cpu_cost - tv.cpu_cost[0]).abs() < 1e-12);
            assert_eq!(bv.pin, tv.pin);
        }
        for (be, te) in binary.graph.edges.iter().zip(&tiered.graph.edges) {
            assert_eq!((be.src, be.dst), (te.src, te.dst));
            assert!((be.bandwidth - te.bandwidth[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn tiered_merge_never_worsens_the_optimum_under_gateway_budgets() {
        // The regression the sound merge rule exists for: a data-neutral
        // op `v` that is cheap on the mote but *expensive on the gateway*
        // feeds a heavy op `w`. Gluing v to w (the naive bandwidth-only
        // rule) would weld v's gateway cost onto w and push both to the
        // server (objective 200); the true optimum keeps v on the mote
        // and w on the gateway (objective 110).
        let tg = TieredGraph {
            tiers: 3,
            vertices: vec![
                TVertex {
                    ops: vec![OperatorId(0)],
                    cpu_cost: vec![0.05, 0.01, 0.0],
                    pin: Pin::Node,
                },
                TVertex {
                    ops: vec![OperatorId(1)], // v: neutral, gateway-heavy
                    cpu_cost: vec![0.1, 0.5, 0.0],
                    pin: Pin::Movable,
                },
                TVertex {
                    ops: vec![OperatorId(2)], // w: mote-impossible
                    cpu_cost: vec![2.0, 0.4, 0.0],
                    pin: Pin::Movable,
                },
                TVertex {
                    ops: vec![OperatorId(3)],
                    cpu_cost: vec![0.0, 0.0, 0.0],
                    pin: Pin::Server,
                },
            ],
            edges: vec![
                TEdge {
                    src: 0,
                    dst: 1,
                    bandwidth: vec![100.0, 100.0],
                    graph_edges: vec![],
                },
                TEdge {
                    src: 1,
                    dst: 2,
                    bandwidth: vec![100.0, 100.0], // v is data-neutral
                    graph_edges: vec![],
                },
                TEdge {
                    src: 2,
                    dst: 3,
                    bandwidth: vec![10.0, 10.0],
                    graph_edges: vec![],
                },
            ],
        };
        let obj = TierObjective::bandwidth_only(
            vec![0.2, 0.6, f64::INFINITY],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let (_, unmerged) = solve_tiers(&tg, &obj).expect("unmerged feasible");
        assert!((unmerged - 110.0).abs() < 1e-6, "optimum {unmerged}");
        let merged = preprocess_tiered(&tg, &obj).unwrap();
        let (_, merged_obj) = solve_tiers(&merged.graph, &obj).expect("merged stays feasible");
        assert!(
            (merged_obj - unmerged).abs() < 1e-6,
            "merge changed the optimum: {unmerged} -> {merged_obj}"
        );
        // Sanity for the rule itself: v must not have been glued to w
        // (its gateway cost is nonzero and the gateway budget is finite).
        assert!(merged
            .graph
            .vertices
            .iter()
            .all(|vert| !(vert.ops.contains(&OperatorId(1)) && vert.ops.contains(&OperatorId(2)))));
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

    #[test]
    fn link_spec_from_channel_budgets_below_saturation() {
        let ch = ChannelParams::mote();
        let l = LinkSpec::from_channel(&ch, 0.5);
        assert!((l.net_budget - 3_000.0).abs() < 1e-9);
        assert_eq!(l.beta, 1.0);
    }
}
