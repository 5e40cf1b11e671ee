//! Tiered partitioning graphs: the per-leaf chain view behind k-way
//! monotone cuts (mote → gateway → server).
//!
//! The paper's §9 sketches hierarchies beyond the single node/server cut
//! ("the server would need to be engineered to deal with receiving results
//! from the network at various stages of partial processing"). Every leaf
//! of a [`Deployment`](crate::topology::Deployment) sees its root path as
//! such a chain: each operator is assigned a tier `t ∈ {0, …, k−1}`,
//! jointly optimizing all `k − 1` cut frontiers in one ILP. This module
//! weighs that chain's graph and runs the chain-sound §4.1 merge on it.
//!
//! **One merge, two ways in.** The merge reads one private flat table,
//! `ChainTable`: per vertex a pin, `k` CPU costs and its sole successor
//! (when it has exactly one out-edge), per edge its endpoints and `k − 1`
//! on-air bandwidths, and CSR lists of the operators and dataflow edges
//! behind them — a handful of `Vec`s, nothing allocated per operator.
//! [`PreparedDeployment`](crate::topology::PreparedDeployment) fills it
//! straight from the dataflow graph (pins once, costs once per leaf) and
//! materialises only the *merged* [`TieredGraph`]; the public
//! [`build_tiered_graph`] and [`preprocess_tiered`] are adapters onto the
//! same table and the same merge. The merge runs in O(V + E): the
//! sole-successor pass makes one `union` per mergeable vertex, classes are
//! numbered through a `Vec` indexed by union-find root, and cross-class
//! edges are grouped by a stable two-pass counting sort on
//! `(src class, dst class)` — which is also the quotient's adjacency for
//! the cycle check — so every sum runs in vertex or edge order and the
//! output is a pure function of the input, bit for bit. The dev-only
//! `wishbone_oracle::preprocess_tiered_reference` keeps the hashed,
//! quadratic original as the differential reference
//! (`tests/proptest_multitier.rs`).
//!
//! **One pricing.** `ChainTable::price` is the only place in `core` that
//! asks the profile for a price (`cpu_fraction`, `edge_on_air_bandwidth`).
//! Everything downstream reads the merged graph it produces: the merge's
//! dominance test, the encoder's budget rows and objective, the
//! multilevel cut, and the per-solve decode of a placement into per-site
//! operators, cut edges and predicted loads. A prediction is therefore a
//! budget row's own left-hand side, and a prepared instance needs neither
//! the graph nor the profile after it is built (`xtask lint`'s
//! `one-pricing` rule).
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

use wishbone_dataflow::{EdgeId, Graph, OperatorId};
use wishbone_ilp::is_exact_zero;
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
/// `rate_multiplier` times the profile's reference rate — the unmerged
/// `ChainTable` of `graph`, materialised.
pub fn build_tiered_graph(
    graph: &Graph,
    profile: &GraphProfile,
    platforms: &[Platform],
    mode: Mode,
    rate_multiplier: f64,
) -> Result<TieredGraph, PinError> {
    assert!(platforms.len() >= 2, "a chain needs at least two tiers");
    let mut table = ChainTable::from_graph(graph, mode)?;
    let platforms: Vec<&Platform> = platforms.iter().collect();
    table.price(profile, &platforms, rate_multiplier);
    Ok(table.to_tiered())
}

/// The unmerged chain graph as flat arrays — the one input of
/// [`ChainTable::merge`]. Vertex `v`'s CPU costs are
/// `cpu[v·k .. (v+1)·k]` and its operators `ops[op_start[v] ..
/// op_start[v+1]]`; edge `e`'s bandwidths are `bw[e·(k−1) .. (e+1)·(k−1)]`
/// and its dataflow edges `graph_edges[ge_start[e] .. ge_start[e+1]]`.
pub(crate) struct ChainTable {
    tiers: usize,
    pin: Vec<Pin>,
    /// Each vertex's one out-edge target, `None` unless its out-degree is
    /// exactly 1 (only such a vertex may merge downstream).
    succ: Vec<Option<usize>>,
    cpu: Vec<f64>,
    op_start: Vec<usize>,
    ops: Vec<OperatorId>,
    src: Vec<usize>,
    dst: Vec<usize>,
    bw: Vec<f64>,
    ge_start: Vec<usize>,
    graph_edges: Vec<EdgeId>,
}

impl ChainTable {
    /// The structure of `graph` — one vertex per operator, one edge per
    /// stream, pins under `mode` — with no costs yet ([`price`](Self::price)
    /// adds them). Every leaf of a deployment shares it.
    pub(crate) fn from_graph(graph: &Graph, mode: Mode) -> Result<ChainTable, PinError> {
        let pin = pin_analysis(graph, mode)?;
        let (n, m) = (graph.operator_count(), graph.edge_count());
        let (src, dst): (Vec<usize>, Vec<usize>) = graph
            .edge_ids()
            .map(|eid| {
                let e = graph.edge(eid);
                (e.src.0, e.dst.0)
            })
            .unzip();
        Ok(ChainTable {
            tiers: 0,
            succ: sole_successors(n, &src, &dst),
            pin,
            cpu: Vec::new(),
            op_start: (0..=n).collect(),
            ops: graph.operator_ids().collect(),
            src,
            dst,
            bw: Vec::new(),
            ge_start: (0..=m).collect(),
            graph_edges: graph.edge_ids().collect(),
        })
    }

    /// Weigh a [`from_graph`](Self::from_graph) table for the chain
    /// `platforms` (innermost first) at `rate_multiplier` times the
    /// profile's reference rate, replacing any earlier pricing.
    pub(crate) fn price(
        &mut self,
        profile: &GraphProfile,
        platforms: &[&Platform],
        rate_multiplier: f64,
    ) {
        let k = platforms.len();
        self.tiers = k;
        self.cpu.clear();
        for &op in &self.ops {
            self.cpu.extend(
                platforms
                    .iter()
                    .map(|p| profile.cpu_fraction(op, p) * rate_multiplier),
            );
        }
        self.bw.clear();
        for &eid in &self.graph_edges {
            // Link b is forwarded by tier b, so it wears tier b's packet
            // framing.
            self.bw.extend(
                platforms[..k - 1]
                    .iter()
                    .map(|p| profile.edge_on_air_bandwidth(eid, p) * rate_multiplier),
            );
        }
    }

    /// Flatten a public [`TieredGraph`].
    fn from_tiered(tg: &TieredGraph) -> ChainTable {
        let (k, links) = (tg.tiers, tg.tiers - 1);
        let mut table = ChainTable {
            tiers: k,
            pin: Vec::with_capacity(tg.vertices.len()),
            succ: Vec::new(),
            cpu: Vec::with_capacity(tg.vertices.len() * k),
            op_start: vec![0],
            ops: Vec::new(),
            src: Vec::with_capacity(tg.edges.len()),
            dst: Vec::with_capacity(tg.edges.len()),
            bw: Vec::with_capacity(tg.edges.len() * links),
            ge_start: vec![0],
            graph_edges: Vec::new(),
        };
        for v in &tg.vertices {
            assert_eq!(v.cpu_cost.len(), k, "one CPU cost per tier");
            table.pin.push(v.pin);
            table.cpu.extend_from_slice(&v.cpu_cost);
            table.ops.extend_from_slice(&v.ops);
            table.op_start.push(table.ops.len());
        }
        for e in &tg.edges {
            assert_eq!(e.bandwidth.len(), links, "one bandwidth per link");
            table.src.push(e.src);
            table.dst.push(e.dst);
            table.bw.extend_from_slice(&e.bandwidth);
            table.graph_edges.extend_from_slice(&e.graph_edges);
            table.ge_start.push(table.graph_edges.len());
        }
        table.succ = sole_successors(tg.vertices.len(), &table.src, &table.dst);
        table
    }

    /// Materialise the table as a [`TieredGraph`], one vertex per table
    /// vertex.
    fn to_tiered(&self) -> TieredGraph {
        TieredGraph {
            tiers: self.tiers,
            vertices: (0..self.pin.len())
                .map(|v| TVertex {
                    ops: self.ops_of(v).to_vec(),
                    cpu_cost: self.cpu_of(v).to_vec(),
                    pin: self.pin[v],
                })
                .collect(),
            edges: (0..self.src.len())
                .map(|e| TEdge {
                    src: self.src[e],
                    dst: self.dst[e],
                    bandwidth: self.bw_of(e).to_vec(),
                    graph_edges: self.graph_edges_of(e).to_vec(),
                })
                .collect(),
        }
    }

    /// The §4.1 merge of this table under `obj` (see [`preprocess_tiered`]
    /// for the rule and why it is sound on a chain), materialising only
    /// the merged graph.
    pub(crate) fn merge(&self, obj: &TierObjective) -> Result<TieredPreprocessResult, PinError> {
        let k = self.tiers;
        assert_eq!(obj.tiers(), k, "objective tier count mismatch");
        let (n, links) = (self.pin.len(), k - 1);

        // Per-vertex per-link input/output bandwidth sums, in edge order.
        let mut in_bw = vec![0.0f64; n * links];
        let mut out_bw = vec![0.0f64; n * links];
        for (e, (&s, &d)) in self.src.iter().zip(&self.dst).enumerate() {
            for (b, &r) in self.bw_of(e).iter().enumerate() {
                out_bw[s * links + b] += r;
                in_bw[d * links + b] += r;
            }
        }

        // Tiers that may charge `v` for being moved onto them.
        let charging_tiers: Vec<usize> = (1..k)
            .filter(|&t| !is_exact_zero(obj.alpha[t]) || obj.cpu_budget[t].is_finite())
            .collect();

        let mut dsu = Dsu::new(n);
        for (v, &succ) in self.succ.iter().enumerate() {
            let Some(succ) = succ else { continue };
            if self.pin[v] != Pin::Movable {
                continue;
            }
            let (ins, outs) = (
                &in_bw[v * links..(v + 1) * links],
                &out_bw[v * links..(v + 1) * links],
            );
            let safe_on_every_link = outs
                .iter()
                .zip(ins)
                .all(|(&out, &inp)| out + 1e-12 >= inp && out > 0.0);
            let free_on_every_charging_tier = charging_tiers
                .iter()
                .all(|&t| is_exact_zero(self.cpu_of(v)[t]));
            if safe_on_every_link && free_on_every_charging_tier {
                dsu.union(v, succ);
            }
        }

        // Merging can create cycles in the quotient (a path between two
        // merged vertices through an unmerged one); the single-crossing
        // constraints force such intermediate vertices onto the same side
        // anyway, so collapse every strongly connected component. The
        // condensation of a graph is a DAG, so one pass of that and one
        // rebuild of the quotient is all it takes. (No table built from a
        // dataflow DAG gets here: a merged class is an in-tree, and only
        // its root has edges out.)
        let mut classes = Quotient::of(&mut dsu);
        let mut cross = self.cross_edges(&classes);
        let (adj_start, adj) = classes.adjacency(&cross, &self.src, &self.dst);
        let cycles = cyclic_sccs(&adj_start, &adj);
        if !cycles.is_empty() {
            for scc in &cycles {
                let first = classes.first[scc[0]];
                for &c in &scc[1..] {
                    dsu.union(first, classes.first[c]);
                }
            }
            classes = Quotient::of(&mut dsu);
            cross = self.cross_edges(&classes);
        }

        // Sums and pins per class, members in vertex order; a pin conflict
        // names the first conflicting member of the lowest class.
        let c = classes.first.len();
        let mut cpu = vec![0.0f64; c * k];
        let mut pins = vec![Ok(Pin::Movable); c];
        let mut op_count = vec![0usize; c];
        for (v, &cv) in classes.of.iter().enumerate() {
            for (acc, &x) in cpu[cv * k..(cv + 1) * k].iter_mut().zip(self.cpu_of(v)) {
                *acc += x;
            }
            let ops = self.ops_of(v);
            if let Ok(pin) = pins[cv] {
                pins[cv] = combine_pins(
                    pin,
                    self.pin[v],
                    ops.first().copied().unwrap_or(OperatorId(0)),
                );
            }
            op_count[cv] += ops.len();
        }
        let mut vertices: Vec<TVertex> = Vec::with_capacity(c);
        for (cv, (pin, count)) in pins.into_iter().zip(op_count).enumerate() {
            vertices.push(TVertex {
                ops: Vec::with_capacity(count),
                cpu_cost: cpu[cv * k..(cv + 1) * k].to_vec(),
                pin: pin?,
            });
        }
        for (v, &cv) in classes.of.iter().enumerate() {
            vertices[cv].ops.extend_from_slice(self.ops_of(v));
        }
        for vert in &mut vertices {
            vert.ops.sort_unstable();
        }

        // One partition edge per run of equal (src class, dst class) in
        // the sorted cross-class edges, summed in edge order.
        let mut edges: Vec<TEdge> = Vec::new();
        for &e in &cross {
            let (cs, cd) = (classes.of[self.src[e]], classes.of[self.dst[e]]);
            if edges
                .last()
                .is_none_or(|last| (last.src, last.dst) != (cs, cd))
            {
                edges.push(TEdge {
                    src: cs,
                    dst: cd,
                    bandwidth: vec![0.0; links],
                    graph_edges: Vec::new(),
                });
            }
            let agg = edges.last_mut().expect("pushed above");
            for (acc, &r) in agg.bandwidth.iter_mut().zip(self.bw_of(e)) {
                *acc += r;
            }
            agg.graph_edges.extend_from_slice(self.graph_edges_of(e));
        }
        Ok(TieredPreprocessResult {
            graph: TieredGraph {
                tiers: k,
                vertices,
                edges,
            },
            vertices_before: n,
            vertices_after: c,
        })
    }

    fn ops_of(&self, v: usize) -> &[OperatorId] {
        &self.ops[self.op_start[v]..self.op_start[v + 1]]
    }

    fn cpu_of(&self, v: usize) -> &[f64] {
        &self.cpu[v * self.tiers..(v + 1) * self.tiers]
    }

    fn bw_of(&self, e: usize) -> &[f64] {
        let links = self.tiers - 1;
        &self.bw[e * links..(e + 1) * links]
    }

    fn graph_edges_of(&self, e: usize) -> &[EdgeId] {
        &self.graph_edges[self.ge_start[e]..self.ge_start[e + 1]]
    }

    /// The edges joining two different classes, sorted by
    /// `(src class, dst class)` with ties in edge order (a stable
    /// two-pass counting sort: by destination, then by source).
    fn cross_edges(&self, classes: &Quotient) -> Vec<usize> {
        let c = classes.first.len();
        let (src_class, dst_class) = (
            |e: usize| classes.of[self.src[e]],
            |e: usize| classes.of[self.dst[e]],
        );
        let cross: Vec<usize> = (0..self.src.len())
            .filter(|&e| src_class(e) != dst_class(e))
            .collect();
        counting_sort(&counting_sort(&cross, c, dst_class), c, src_class)
    }
}

/// Each vertex's one out-edge target, `None` unless its out-degree is
/// exactly 1.
fn sole_successors(n: usize, src: &[usize], dst: &[usize]) -> Vec<Option<usize>> {
    let mut out_deg = vec![0usize; n];
    let mut succ = vec![None; n];
    for (&s, &d) in src.iter().zip(dst) {
        out_deg[s] += 1;
        succ[s] = Some(d);
    }
    for (succ, deg) in succ.iter_mut().zip(out_deg) {
        if deg != 1 {
            *succ = None;
        }
    }
    succ
}

/// Stable counting sort of `items` by `key(item) < buckets`.
fn counting_sort(items: &[usize], buckets: usize, key: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut next = vec![0usize; buckets + 1];
    for &i in items {
        next[key(i) + 1] += 1;
    }
    for b in 0..buckets {
        next[b + 1] += next[b];
    }
    let mut out = vec![0usize; items.len()];
    for &i in items {
        let slot = &mut next[key(i)];
        out[*slot] = i;
        *slot += 1;
    }
    out
}

/// Union-find over vertex indices (path halving: iterative, so a long
/// pipeline's merged run cannot overflow the stack).
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The classes of a [`Dsu`], numbered by their first vertex (so every sum
/// over a class in vertex order is a sum in class-member order).
struct Quotient {
    /// Class of each vertex.
    of: Vec<usize>,
    /// First (lowest) vertex of each class.
    first: Vec<usize>,
}

impl Quotient {
    fn of(dsu: &mut Dsu) -> Quotient {
        let n = dsu.parent.len();
        let mut class_of_root = vec![usize::MAX; n];
        let mut q = Quotient {
            of: Vec::with_capacity(n),
            first: Vec::new(),
        };
        for v in 0..n {
            let root = dsu.find(v);
            if class_of_root[root] == usize::MAX {
                class_of_root[root] = q.first.len();
                q.first.push(v);
            }
            q.of.push(class_of_root[root]);
        }
        q
    }

    /// The quotient graph as CSR (`adj[start[c] .. start[c+1]]` are the
    /// classes `c` has edges to), read off `cross` — the sorted
    /// cross-class edges of [`ChainTable::cross_edges`].
    fn adjacency(&self, cross: &[usize], src: &[usize], dst: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut start = vec![0usize; self.first.len() + 1];
        for &e in cross {
            start[self.of[src[e]] + 1] += 1;
        }
        for c in 0..self.first.len() {
            start[c + 1] += start[c];
        }
        (start, cross.iter().map(|&e| self.of[dst[e]]).collect())
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
/// merge. An adapter: `tg` is flattened into the one `ChainTable` the
/// prepare path fills directly, and merged by the one merge, in
/// O(V + E).
pub fn preprocess_tiered(
    tg: &TieredGraph,
    obj: &TierObjective,
) -> Result<TieredPreprocessResult, PinError> {
    ChainTable::from_tiered(tg).merge(obj)
}

/// Every non-trivial strongly connected component of the quotient graph
/// in CSR form (iterative Tarjan, one pass); empty when it is a DAG.
fn cyclic_sccs(start: &[usize], adj: &[usize]) -> Vec<Vec<usize>> {
    let n = start.len() - 1;
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();
    // Iterative DFS state: a vertex and the position of its next
    // unvisited neighbour in `adj`.
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push((root, start[root]));
        while let Some(top) = call.last_mut() {
            let v = top.0;
            if index[v] == usize::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if top.1 < start[v + 1] {
                let w = adj[top.1];
                top.1 += 1;
                if index[w] == usize::MAX {
                    call.push((w, start[w]));
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
}
