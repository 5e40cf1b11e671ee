//! The k-way monotone-cut encoding of one chain (§9 "hierarchies": mote →
//! gateway → server), kept as the row-for-row oracle of
//! [`wishbone_core::encode_deployment`] on path deployments.

use std::collections::BTreeSet;

use wishbone_core::encodings::CpuRow;
use wishbone_core::{Pin, TierObjective, TieredGraph};
use wishbone_ilp::{is_exact_zero, Problem, Sense, VarId};

/// An encoded k-tier partitioning ILP plus the variable map to decode it.
///
/// The encoding assigns each vertex `u` a tier `t(u) ∈ {0, …, k−1}` via
/// `k − 1` **monotone indicator variables** `y_u^b = 1 ⇔ t(u) ≤ b`:
///
/// * monotonicity rows `y_u^{b+1} − y_u^b ≥ 0` (an operator at or before
///   boundary `b` is also at or before boundary `b+1`) — unit-coefficient,
///   two-nonzero rows, upper-triangular in the boundary-major variable
///   order, exactly the structure the sparse backend's singleton-peel LU
///   preorder factors fill-free;
/// * per-edge precedence `y_u^b − y_v^b ≥ 0` for every boundary (data
///   flows strictly towards the server: `t(u) ≤ t(v)`), the k-way
///   generalization of the restricted encoding's eq. 6;
/// * tier-`t` CPU load `Σ_u c_u^t (y_u^t − y_u^{t−1}) ≤ C_t` with the
///   conventions `y^{−1} = 0`, `y^{k−1} = 1`;
/// * link-`b` bandwidth `Σ_{(u,v)} r_{uv}^b (y_u^b − y_v^b) ≤ N_b` — an
///   edge is carried over link `b` exactly when `t(u) ≤ b < t(v)`, i.e.
///   relays store-and-forward traffic that crosses them.
///
/// For `k = 2` the encoding degenerates, row for row and coefficient for
/// coefficient, into the restricted binary encoding (`y^0 = f`).
///
/// A graph whose [`TopClasses`](wishbone_core::TopClasses) are not empty
/// gets one top indicator `y^{k−2}` per class instead of per vertex: its
/// CPU costs and top-link net bandwidth are its members' summed, its
/// precedence rows run once per pair of classes, and `y_vars[k−2][v]`
/// names vertex `v`'s class variable.
#[derive(Debug)]
pub struct EncodedMultiTier {
    /// The integer program.
    pub problem: Problem,
    /// `y_vars[b][v]` is the indicator "vertex `v` sits at tier ≤ `b`"
    /// (`k − 1` boundaries × `|V|` vertices).
    pub y_vars: Vec<Vec<VarId>>,
    /// Number of tiers `k`.
    pub tiers: usize,
    /// CPU-budget row per tier (`None` when the budget is infinite or the
    /// row would be empty).
    pub cpu_rows: Vec<Option<CpuRow>>,
    /// Link-budget row per link (`None` when infinite/empty).
    pub net_rows: Vec<Option<usize>>,
    /// Constant objective term at unit rate: the last tier's CPU cost is
    /// `Σ c (1 − y)`, whose `α_{k−1}·Σ c` constant the ILP cannot see.
    /// Add `offset × rate` to the solver objective to report true cost.
    pub objective_offset: f64,
}

impl EncodedMultiTier {
    /// Decode a solver assignment into the tier index of every vertex.
    pub fn decode(&self, values: &[f64]) -> Vec<usize> {
        let n = self.y_vars.first().map_or(0, Vec::len);
        (0..n)
            .map(|v| {
                self.y_vars
                    .iter()
                    .position(|b| values[b[v].0] > 0.5)
                    .unwrap_or(self.tiers - 1)
            })
            .collect()
    }
}

/// Build the k-way monotone-cut ILP for `tg` under `obj`.
///
/// `k = tg.tiers` must match `obj.tiers()` and be at least 2. Vertices
/// pinned [`Pin::Node`] are fixed to tier 0, [`Pin::Server`] to tier
/// `k − 1`; movable vertices may take any tier.
pub fn encode_multitier(tg: &TieredGraph, obj: &TierObjective) -> EncodedMultiTier {
    let k = tg.tiers;
    assert!(k >= 2, "a chain needs at least two tiers");
    assert_eq!(obj.tiers(), k, "objective tier count mismatch");
    assert_eq!(obj.beta.len(), k - 1);
    assert_eq!(obj.cpu_budget.len(), k);
    assert_eq!(obj.net_budget.len(), k - 1);

    let n = tg.vertices.len();
    let mut p = Problem::new();

    // Per-link per-vertex net coefficients: link b's load is
    // Σ (y_u^b − y_v^b)·r^b, i.e. coefficient (Σ_out r^b − Σ_in r^b) on
    // y_v^b (accumulated in edge order, mirroring the binary encoding).
    let mut net_coeff = vec![vec![0.0f64; n]; k - 1];
    for e in &tg.edges {
        for (b, &r) in e.bandwidth.iter().enumerate() {
            net_coeff[b][e.src] += r;
            net_coeff[b][e.dst] -= r;
        }
    }

    // The top boundary's classes, when the merge made any: each class's
    // CPU costs and top-link net coefficient, summed over its members in
    // vertex order and over the edges between classes in edge order, and
    // which vertex is each class's first member.
    let top = k - 2;
    let shared = !tg.top.of.is_empty();
    let class_of = &tg.top.of;
    let classes = tg.top.pin.len();
    let mut class_cpu = vec![vec![0.0f64; k]; classes];
    let mut class_net = vec![0.0f64; classes];
    let mut first_member = vec![false; n];
    if shared {
        let mut seen = vec![false; classes];
        for (v, vert) in tg.vertices.iter().enumerate() {
            let c = class_of[v];
            first_member[v] = !seen[c];
            seen[c] = true;
            for (acc, &x) in class_cpu[c].iter_mut().zip(&vert.cpu_cost) {
                *acc += x;
            }
        }
        for e in &tg.edges {
            let (cs, cd) = (class_of[e.src], class_of[e.dst]);
            if cs != cd {
                class_net[cs] += e.bandwidth[top];
                class_net[cd] -= e.bandwidth[top];
            }
        }
    }
    let bounds = |pin: Pin| match pin {
        Pin::Movable => (0.0, 1.0),
        Pin::Node => (1.0, 1.0),   // tier 0: every y is 1
        Pin::Server => (0.0, 0.0), // tier k−1: every y is 0
    };

    // Variables, boundary-major (boundary 0 first, so k = 2 reproduces the
    // binary encoding's VarIds exactly). Objective coefficient of y_u^b:
    // α_b·c_u^b − α_{b+1}·c_u^{b+1} + β_b·net_coeff_b (tier b's CPU gains
    // y^b, tier b+1's loses it).
    let cost = |b: usize, cpu: &[f64], net: f64| {
        let mut c = obj.alpha[b] * cpu[b] + obj.beta[b] * net;
        if !is_exact_zero(obj.alpha[b + 1]) {
            c -= obj.alpha[b + 1] * cpu[b + 1];
        }
        c
    };
    let mut class_vars: Vec<VarId> = Vec::new();
    let y_vars: Vec<Vec<VarId>> = (0..k - 1)
        .map(|b| {
            if shared && b == top {
                class_vars = (0..classes)
                    .map(|c| {
                        let (lo, hi) = bounds(tg.top.pin[c]);
                        p.add_var(lo, hi, cost(b, &class_cpu[c], class_net[c]), true)
                    })
                    .collect();
                return class_of.iter().map(|&c| class_vars[c]).collect();
            }
            tg.vertices
                .iter()
                .enumerate()
                .map(|(v, vert)| {
                    let (lo, hi) = bounds(vert.pin);
                    p.add_var(lo, hi, cost(b, &vert.cpu_cost, net_coeff[b][v]), true)
                })
                .collect()
        })
        .collect();

    // Monotonicity: y_u^{b+1} − y_u^b ≥ 0 (absent for k = 2).
    for b in 0..k.saturating_sub(2) {
        for (&y_next, &y_cur) in y_vars[b + 1].iter().zip(&y_vars[b]) {
            p.add_constraint(&[(y_next, 1.0), (y_cur, -1.0)], Sense::Ge, 0.0);
        }
    }

    // Precedence per edge per boundary: y_u^b − y_v^b ≥ 0; at a shared top
    // boundary once per ordered pair of distinct classes, in pair order.
    for (b, y_b) in y_vars.iter().enumerate() {
        if shared && b == top {
            let pairs: BTreeSet<(usize, usize)> = tg
                .edges
                .iter()
                .map(|e| (class_of[e.src], class_of[e.dst]))
                .filter(|(cs, cd)| cs != cd)
                .collect();
            for (cs, cd) in pairs {
                p.add_constraint(
                    &[(class_vars[cs], 1.0), (class_vars[cd], -1.0)],
                    Sense::Ge,
                    0.0,
                );
            }
            continue;
        }
        for e in &tg.edges {
            p.add_constraint(&[(y_b[e.src], 1.0), (y_b[e.dst], -1.0)], Sense::Ge, 0.0);
        }
    }

    // CPU budget per tier. A class's term sits where its first member's
    // would.
    let mut cpu_rows: Vec<Option<CpuRow>> = vec![None; k];
    for (t, row_slot) in cpu_rows.iter_mut().enumerate() {
        if !obj.cpu_budget[t].is_finite() {
            continue;
        }
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let mut shift = 0.0f64;
        for (v, vert) in tg.vertices.iter().enumerate() {
            let c = vert.cpu_cost[t];
            let mut push = |b: usize, sign: f64| {
                if shared && b == top {
                    let cc = class_cpu[class_of[v]][t];
                    if first_member[v] && !is_exact_zero(cc) {
                        terms.push((y_vars[b][v], sign * cc));
                    }
                } else if !is_exact_zero(c) {
                    terms.push((y_vars[b][v], sign * c));
                }
            };
            if t < k - 1 {
                push(t, 1.0);
            }
            if t > 0 {
                push(t - 1, -1.0);
            }
            if t == k - 1 && !is_exact_zero(c) {
                shift += c; // Σ c·(1 − y): constant folded into the rhs
            }
        }
        if terms.is_empty() {
            continue;
        }
        *row_slot = Some(CpuRow {
            row: p.num_constraints(),
            shift,
        });
        p.add_constraint(&terms, Sense::Le, obj.cpu_budget[t] - shift);
    }

    // Bandwidth budget per link.
    let mut net_rows: Vec<Option<usize>> = vec![None; k - 1];
    for (b, row_slot) in net_rows.iter_mut().enumerate() {
        if !obj.net_budget[b].is_finite() {
            continue;
        }
        let terms: Vec<(VarId, f64)> = if shared && b == top {
            (0..classes)
                .filter(|&c| !is_exact_zero(class_net[c]))
                .map(|c| (class_vars[c], class_net[c]))
                .collect()
        } else {
            net_coeff[b]
                .iter()
                .enumerate()
                .filter(|(_, &c)| !is_exact_zero(c))
                .map(|(v, &c)| (y_vars[b][v], c))
                .collect()
        };
        if terms.is_empty() {
            continue;
        }
        *row_slot = Some(p.num_constraints());
        p.add_constraint(&terms, Sense::Le, obj.net_budget[b]);
    }

    let objective_offset: f64 = if !is_exact_zero(obj.alpha[k - 1]) {
        obj.alpha[k - 1]
            * tg.vertices
                .iter()
                .map(|vert| vert.cpu_cost[k - 1])
                .sum::<f64>()
    } else {
        0.0
    };

    EncodedMultiTier {
        problem: p,
        y_vars,
        tiers: k,
        cpu_rows,
        net_rows,
        objective_offset,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost_graph::build_partition_graph;
    use crate::encodings::{encode, Encoding, ObjectiveConfig};
    use crate::preprocess::preprocess;
    use std::collections::HashSet;
    use wishbone_core::{
        build_tiered_graph, partition_deployment, preprocess_tiered, Deployment, DeploymentConfig,
        LinkSpec, Mode, PartitionError, Site, TEdge, TVertex,
    };
    use wishbone_dataflow::{EdgeId, ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value};
    use wishbone_ilp::{solve_ilp, IlpOptions, SolveError, SolverBackend};
    use wishbone_profile::{profile as run_profile, GraphProfile, Platform, SourceTrace};

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

    /// The profiled three-stage app (shared with `crate::topology`'s test).
    pub(crate) fn profiled() -> (Graph, GraphProfile) {
        let (g, src) = app();
        let t = SourceTrace {
            source: src,
            elements: (0..30)
                .map(|i| Value::VecI16(vec![i as i16; 256]))
                .collect(),
            rate_hz: 20.0,
        };
        let prof = run_profile(&g, &[t]).unwrap();
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
        let pg0 = build_partition_graph(g, prof, platform, Mode::Permissive, rate)?;
        let merged = preprocess(&pg0)?;
        let ep = encode(
            &merged.graph,
            Encoding::Restricted,
            &ObjectiveConfig {
                alpha: 0.0,
                beta: 1.0,
                cpu_budget: 1.0,
                net_budget: platform.radio.goodput_bytes_per_sec,
            },
        );
        let opts = IlpOptions {
            backend,
            ..IlpOptions::default()
        };
        let sol = solve_ilp(&ep.problem, &opts).map_err(|e| match e {
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
                        let mut node_list: Vec<OperatorId> = a.node_ops.iter().copied().collect();
                        node_list.sort_unstable();
                        assert_eq!(node_list, leaf.site_ops[0], "rate {rate} {backend:?}");
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
            top: Default::default(),
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
        solve_ilp(&ep.problem, &IlpOptions::default())
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
    fn tiered_preprocess_reduces_to_binary_on_two_tiers() {
        let (g, prof) = profiled();
        let mote = Platform::tmote_sky();
        let pg = build_partition_graph(&g, &prof, &mote, Mode::Permissive, 1.0).unwrap();
        let binary = preprocess(&pg).unwrap();
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
            top: Default::default(),
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
}
