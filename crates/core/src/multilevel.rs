//! Multilevel coarsen–partition–refine placement heuristic.
//!
//! The exact branch-and-bound path discovers feasibility and optimality
//! together, and near the paper's Figure-6 cliff that couples badly: a
//! tight-gateway forest can burn its whole node budget without ever
//! finding one integer point (the PR-5 incumbent-starvation defect).
//! This module supplies the standard cure from the graph-partitioning
//! literature — a multilevel combinatorial heuristic in the METIS mold,
//! adapted to Wishbone's *monotone tiered cut*:
//!
//! 1. **Coarsen** each leaf's post-merge quotient graph by heavy-edge
//!    matching on the profiled data rates: the heaviest streams are
//!    contracted first, so the coarse graph's cuts avoid them by
//!    construction. Contraction only pairs vertices whose tier intervals
//!    (from pins, propagated through precedence) intersect, so every
//!    coarse vertex still has a legal tier. This phase happens **at most
//!    once per prepared instance**, the first time a search asks for a
//!    seed (`CutHierarchy::build`): it reads the merged leaf graphs —
//!    pins, per-tier CPU costs, per-link edge bandwidths — and each
//!    leaf's path, and never a device count, a budget, a weight or a
//!    rate, so no rate probe and no
//!    [`DeploymentDelta`](crate::topology::DeploymentDelta) can stale it.
//! 2. **Cut** the coarsest graphs greedily: start from the two trivial
//!    monotone cuts (everything as low / as high as pins allow) and
//!    repair budget overloads by single-tier moves that maximally reduce
//!    normalized overload.
//! 3. **Refine and uncoarsen** in lockstep across all leaves: a
//!    KL/FM-style pass makes the best single-tier move available —
//!    tolerating bounded non-improving stretches, rolling back to the
//!    best state seen — then each leaf projects one level finer and the
//!    pass repeats with progressively finer moves.
//!
//! Phases 2 and 3 are what a solve pays (`CutHierarchy::cut`): counts,
//! budgets, weights and the rate enter there and only there.
//!
//! Every move is *monotone-aware*: a move rounds a whole tier per (leaf,
//! operator), never a fractional indicator, and is generated only if it
//! keeps per-edge precedence `t(u) ≤ t(v)`, per-site count-weighted CPU
//! budgets, and per-uplink bandwidth budgets intact — so the emitted
//! placement is integer-feasible for
//! [`encode_deployment`](crate::encodings::encode_deployment) *by
//! construction*. Callers double-check that contract against the encoded
//! problem ([`Problem::is_feasible`](wishbone_ilp::Problem::is_feasible))
//! and, under `debug_assertions`, against the `wishbone-audit`
//! assignment auditor.
//!
//! The heuristic has one caller ([`crate::topology`]): it seeds exact
//! branch-and-bound's incumbent when the search asks for one — once it is
//! stuck, a few node LPs with no incumbent or its budget spent, with no
//! placement to start from — restoring fast discovery on near-cliff
//! forests. Capped at its root node
//! (`ilp.max_nodes = 1`), that search is the bounded-time answer — an
//! integral root LP, or else this cut — certified against the root LP
//! bound ([`DeploymentPartition::certified_gap`](crate::topology::DeploymentPartition::certified_gap)).

use crate::encodings::{DeploymentObjective, LeafChain};

/// Relative slack kept under every budget row when the heuristic tests a
/// move: safely inside the solver's own `1e-6` integer-feasibility
/// tolerance, so a placement accepted here never fails the encoded
/// problem's check on floating-point noise.
const BUDGET_SLACK: f64 = 1e-9;

/// Coarsening stops once a leaf graph has this few vertices (or no
/// contractible edge remains).
const COARSEST: usize = 8;

/// Hard cap on coarsening levels per leaf (a doubling cascade reaches it
/// only past ~10⁶ vertices).
const MAX_LEVELS: usize = 24;

/// Per-pass cap on non-improving moves an FM pass may chain before it
/// rolls back to the best state seen.
const STALL_CAP: usize = 12;

/// Per-pass cap on how many times one (leaf, vertex) may move.
const MOVE_CAP: u8 = 4;

/// A tier-per-vertex placement produced by [`approx_cut`], with the
/// search effort that produced it.
#[derive(Debug, Clone)]
pub struct ApproxCut {
    /// Tier (root-path position) of every vertex, per leaf, in
    /// [`LeafChain`] order — the same shape
    /// [`EncodedDeployment::decode`](crate::encodings::EncodedDeployment::decode)
    /// returns.
    pub tiers: Vec<Vec<usize>>,
    /// True cost of the placement at the requested rate:
    /// `rate · (Σ_s α_s·cpu_s + Σ_s β_s·net_s)`, the same frame as
    /// [`DeploymentPartition::objective`](crate::topology::DeploymentPartition::objective)
    /// (the encoded problem's objective plus its constant offset).
    pub objective: f64,
    /// Single-tier moves applied across repair and refinement.
    pub moves: u64,
}

/// One leaf graph at one coarsening level, stored flat — a handful of
/// arrays per level, whatever the vertex count, so a hierarchy kept for
/// the life of a prepared instance costs little beyond its payload.
struct CLevel {
    /// Tiers `k` of the leaf's path.
    k: usize,
    /// CPU cost of vertex `v` on tier `t`: `cpu[v * k + t]`.
    cpu: Vec<f64>,
    /// Tightest legal tier interval `[lo, hi]` per vertex (pins propagated
    /// through precedence, intersected over merged members).
    span: Vec<[u32; 2]>,
    /// Merged directed edges `[src, dst]` (no self-loops; parallel edges
    /// summed).
    ends: Vec<[u32; 2]>,
    /// On-air bytes/second of edge `e` if carried over link `b`:
    /// `bw[e * (k − 1) + b]`.
    bw: Vec<f64>,
    /// Outgoing, then incoming, edge indices per vertex, ascending, as two
    /// CSR tables in one array ([`adjacency`]).
    adj: Vec<u32>,
    /// Map from the next-finer level's vertices to this level's (empty
    /// for the finest level).
    map: Vec<u32>,
}

impl CLevel {
    fn vertices(&self) -> usize {
        self.span.len()
    }

    fn lo(&self, v: usize) -> usize {
        self.span[v][0] as usize
    }

    fn hi(&self, v: usize) -> usize {
        self.span[v][1] as usize
    }

    fn src(&self, e: u32) -> usize {
        self.ends[e as usize][0] as usize
    }

    fn dst(&self, e: u32) -> usize {
        self.ends[e as usize][1] as usize
    }

    fn cpu(&self, v: usize, t: usize) -> f64 {
        self.cpu[v * self.k + t]
    }

    fn bw(&self, e: u32, b: usize) -> f64 {
        self.bw[e as usize * (self.k - 1) + b]
    }

    /// Edges listed at row `row` of `adj`'s offset header.
    fn adj_row(&self, row: usize) -> &[u32] {
        &self.adj[self.adj[row] as usize..self.adj[row + 1] as usize]
    }

    fn out(&self, v: usize) -> &[u32] {
        self.adj_row(v)
    }

    fn inc(&self, v: usize) -> &[u32] {
        self.adj_row(self.vertices() + 1 + v)
    }
}

/// Tier-interval fixpoint: push `lo` forward and `hi` backward along
/// every edge until stable. Works on contracted graphs too (contraction
/// can create directed cycles, which simply force tier equality around
/// the cycle). Returns `false` on an empty interval — no legal tier
/// assignment exists at this level.
fn propagate_bounds(span: &mut [[u32; 2]], ends: &[[u32; 2]]) -> bool {
    loop {
        let mut changed = false;
        for &[s, d] in ends {
            let (s, d) = (s as usize, d as usize);
            if span[s][0] > span[d][0] {
                span[d][0] = span[s][0];
                changed = true;
            }
            if span[d][1] < span[s][1] {
                span[s][1] = span[d][1];
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    span.iter().all(|[lo, hi]| lo <= hi)
}

/// Out- and in-adjacency of `n` vertices in one array: a header of two
/// `n + 1`-entry offset rows (by source, then by destination), each
/// delimiting its vertices' edge indices — ascending within a vertex —
/// in the body that follows.
fn adjacency(n: usize, ends: &[[u32; 2]]) -> Vec<u32> {
    let header = 2 * (n + 1);
    let mut adj = vec![0u32; header + 2 * ends.len()];
    for side in 0..2 {
        let row = side * (n + 1);
        for e in ends {
            adj[row + e[side] as usize + 1] += 1;
        }
        adj[row] = (header + side * ends.len()) as u32;
        for v in 0..n {
            adj[row + v + 1] += adj[row + v];
        }
        let mut next = adj[row..row + n].to_vec();
        for (e, ends) in ends.iter().enumerate() {
            let slot = &mut next[ends[side] as usize];
            adj[*slot as usize] = e as u32;
            *slot += 1;
        }
    }
    adj
}

/// Build the finest [`CLevel`] of one leaf from its (merged) chain graph.
fn finest_level(leaf: &LeafChain<'_>) -> Option<CLevel> {
    let k = leaf.graph.tiers;
    let n = leaf.graph.vertices.len();
    assert!(
        2 * (n + 1 + leaf.graph.edges.len()) <= u32::MAX as usize,
        "a leaf graph and its adjacency array are indexed by u32"
    );
    let top = k as u32 - 1;
    let vertices = &leaf.graph.vertices;
    let mut span: Vec<[u32; 2]> = vertices
        .iter()
        .map(|vert| match vert.pin {
            crate::cost_graph::Pin::Node => [0, 0],
            crate::cost_graph::Pin::Server => [top, top],
            crate::cost_graph::Pin::Movable => [0, top],
        })
        .collect();
    let edges = &leaf.graph.edges;
    let ends: Vec<[u32; 2]> = edges.iter().map(|e| [e.src as u32, e.dst as u32]).collect();
    if !propagate_bounds(&mut span, &ends) {
        return None;
    }
    Some(CLevel {
        k,
        cpu: vertices.iter().flat_map(|v| &v.cpu_cost).copied().collect(),
        span,
        bw: edges.iter().flat_map(|e| &e.bandwidth).copied().collect(),
        adj: adjacency(n, &ends),
        ends,
        map: Vec::new(),
    })
}

/// One heavy-edge-matching contraction of `fine`. Returns `None` when no
/// edge can be contracted (coarsening has converged) or the contracted
/// graph has no legal tier assignment (stop at the finer level).
fn coarsen(fine: &CLevel) -> Option<CLevel> {
    const FREE: u32 = u32::MAX;
    let (n, k) = (fine.vertices(), fine.k);
    // Heaviest total data rate first; index order breaks ties so the
    // matching is deterministic.
    let edges = fine.ends.len();
    let weight: Vec<f64> = (0..edges)
        .map(|e| fine.bw[e * (k - 1)..(e + 1) * (k - 1)].iter().sum())
        .collect();
    let mut order: Vec<u32> = (0..edges as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        weight[b as usize]
            .partial_cmp(&weight[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut mate = vec![FREE; n];
    let mut pairs = 0usize;
    for &e in &order {
        let (u, v) = (fine.src(e), fine.dst(e));
        if u == v || mate[u] != FREE || mate[v] != FREE {
            continue;
        }
        // Contraction forces t(u) = t(v): legal only on intersecting
        // tier intervals.
        if fine.lo(u).max(fine.lo(v)) > fine.hi(u).min(fine.hi(v)) {
            continue;
        }
        mate[u] = v as u32;
        mate[v] = u as u32;
        pairs += 1;
    }
    if pairs == 0 {
        return None;
    }

    // Coarse ids in fine-vertex order: the lower endpoint of each pair
    // names the merged vertex.
    let mut map = vec![FREE; n];
    let mut next = 0u32;
    for v in 0..n {
        if map[v] != FREE {
            continue;
        }
        map[v] = next;
        if mate[v] != FREE {
            map[mate[v] as usize] = next;
        }
        next += 1;
    }
    let coarse_n = next as usize;

    let mut cpu = vec![0.0f64; coarse_n * k];
    let mut span = vec![[0u32, u32::MAX]; coarse_n];
    for (v, &c) in map.iter().enumerate() {
        let c = c as usize;
        for (acc, &fine_cpu) in cpu[c * k..(c + 1) * k]
            .iter_mut()
            .zip(&fine.cpu[v * k..(v + 1) * k])
        {
            *acc += fine_cpu;
        }
        let [lo, hi] = fine.span[v];
        span[c] = [span[c][0].max(lo), span[c][1].min(hi)];
    }

    // Merge parallel coarse edges; drop internalized ones. Sorted by
    // (coarse src, coarse dst, fine edge), so each merged edge sums its
    // members in fine-edge order.
    let mut crossing: Vec<([u32; 2], u32)> = (0..edges as u32)
        .map(|e| ([map[fine.src(e)], map[fine.dst(e)]], e))
        .filter(|([cs, cd], _)| cs != cd)
        .collect();
    crossing.sort_unstable();
    let (mut ends, mut bw) = (Vec::new(), Vec::new());
    for &(coarse, e) in &crossing {
        if ends.last() != Some(&coarse) {
            ends.push(coarse);
            bw.resize(bw.len() + k - 1, 0.0f64);
        }
        let at = bw.len() - (k - 1);
        for (b, acc) in bw[at..].iter_mut().enumerate() {
            *acc += fine.bw(e, b);
        }
    }
    // Kept for the life of a prepared instance: drop the growth slack.
    ends.shrink_to_fit();
    bw.shrink_to_fit();
    if !propagate_bounds(&mut span, &ends) {
        return None;
    }
    Some(CLevel {
        k,
        cpu,
        span,
        bw,
        adj: adjacency(coarse_n, &ends),
        ends,
        map,
    })
}

/// The joint placement state across all leaves: per-site loads at unit
/// rate, plus the knobs to price and legalize single-tier moves.
#[derive(Clone)]
struct State<'a> {
    obj: &'a DeploymentObjective,
    rate: f64,
    /// Per-leaf: path (site per position, in the hierarchy) and device
    /// count.
    leaves: &'a [LeafLevels],
    counts: &'a [f64],
    /// Current tier per (leaf, vertex) at each leaf's *current* level.
    tiers: Vec<Vec<usize>>,
    /// Per-site aggregate per-device CPU load at unit rate.
    cpu: Vec<f64>,
    /// Per-site aggregate uplink load at unit rate (root entries 0).
    net: Vec<f64>,
    moves: u64,
}

/// A candidate single-tier move of one (leaf, vertex).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Move {
    leaf: usize,
    v: usize,
    /// `+1` towards the root, `−1` towards the mote.
    dir: isize,
    /// Site losing CPU, site gaining CPU, and their load deltas.
    cpu_from: (usize, f64),
    cpu_to: (usize, f64),
    /// Uplink site whose load changes, and by how much.
    net_at: (usize, f64),
}

/// The two directions a vertex can move, in scan order.
const DIRS: [isize; 2] = [1, -1];

impl<'a> State<'a> {
    fn new(
        leaves: &'a [LeafLevels],
        counts: &'a [f64],
        obj: &'a DeploymentObjective,
        rate: f64,
        levels: &[&CLevel],
        tiers: Vec<Vec<usize>>,
    ) -> State<'a> {
        let n_sites = obj.alpha.len();
        let mut st = State {
            obj,
            rate,
            leaves,
            counts,
            tiers,
            cpu: vec![0.0; n_sites],
            net: vec![0.0; n_sites],
            moves: 0,
        };
        st.recompute_loads(levels);
        st
    }

    fn recompute_loads(&mut self, levels: &[&CLevel]) {
        self.cpu.iter_mut().for_each(|x| *x = 0.0);
        self.net.iter_mut().for_each(|x| *x = 0.0);
        for (l, lev) in levels.iter().enumerate() {
            let count = self.counts[l];
            let path = &self.leaves[l].path;
            let tiers = &self.tiers[l];
            for (v, &t) in tiers.iter().enumerate() {
                let s = path[t];
                self.cpu[s] += count / self.obj.count[s] * lev.cpu(v, t);
            }
            for e in 0..lev.ends.len() as u32 {
                let (ts, td) = (tiers[lev.src(e)], tiers[lev.dst(e)]);
                for (b, &site) in path.iter().enumerate().take(td).skip(ts) {
                    self.net[site] += count * lev.bw(e, b);
                }
            }
        }
    }

    /// True cost of the current placement.
    fn objective(&self) -> f64 {
        let cpu: f64 = self
            .cpu
            .iter()
            .zip(&self.obj.alpha)
            .map(|(&c, &a)| a * c)
            .sum();
        let net: f64 = self
            .net
            .iter()
            .zip(&self.obj.beta)
            .map(|(&n, &b)| b * n)
            .sum();
        self.rate * (cpu + net)
    }

    /// Normalized total budget overload (0 = feasible).
    fn violation(&self) -> f64 {
        let mut v = 0.0;
        for s in 0..self.cpu.len() {
            v += overload(self.cpu[s] * self.rate, self.obj.cpu_budget[s]);
            v += overload(self.net[s] * self.rate, self.obj.net_budget[s]);
        }
        v
    }

    /// Generate the move of `(leaf, v)` one tier in `dir`, if it stays
    /// inside tier bounds and edge precedence. Budget feasibility is the
    /// caller's policy (repair tolerates overloads; refine must not).
    /// Reads the tiers of `v` and of its in- and out-neighbours, and
    /// nothing else that a move changes.
    fn candidate(&self, levels: &[&CLevel], leaf: usize, v: usize, dir: isize) -> Option<Move> {
        let lev = levels[leaf];
        let tiers = &self.tiers[leaf];
        let t = tiers[v];
        let nt = t.checked_add_signed(dir)?;
        if nt < lev.lo(v) || nt > lev.hi(v) {
            return None;
        }
        let path = &self.leaves[leaf].path;
        let count = self.counts[leaf];
        // Precedence, and the single uplink boundary whose crossings flip.
        let b = if dir > 0 { t } else { nt };
        let mut net_delta = 0.0;
        if dir > 0 {
            for &e in lev.out(v) {
                if tiers[lev.dst(e)] < nt {
                    return None;
                }
                net_delta -= count * lev.bw(e, b);
            }
            for &e in lev.inc(v) {
                debug_assert!(tiers[lev.src(e)] <= t);
                net_delta += count * lev.bw(e, b);
            }
        } else {
            for &e in lev.inc(v) {
                if tiers[lev.src(e)] > nt {
                    return None;
                }
                net_delta -= count * lev.bw(e, b);
            }
            for &e in lev.out(v) {
                debug_assert!(tiers[lev.dst(e)] >= t);
                net_delta += count * lev.bw(e, b);
            }
        }
        let (sf, st_) = (path[t], path[nt]);
        Some(Move {
            leaf,
            v,
            dir,
            cpu_from: (sf, -(count / self.obj.count[sf]) * lev.cpu(v, t)),
            cpu_to: (st_, count / self.obj.count[st_] * lev.cpu(v, nt)),
            net_at: (path[b], net_delta),
        })
    }

    /// Objective change if `m` were applied.
    fn objective_delta(&self, m: &Move) -> f64 {
        self.rate
            * (self.obj.alpha[m.cpu_from.0] * m.cpu_from.1
                + self.obj.alpha[m.cpu_to.0] * m.cpu_to.1
                + self.obj.beta[m.net_at.0] * m.net_at.1)
    }

    /// Violation change if `m` were applied.
    fn violation_delta(&self, m: &Move) -> f64 {
        let cpu = |s: usize, delta: f64| {
            let before = overload(self.cpu[s] * self.rate, self.obj.cpu_budget[s]);
            let after = overload((self.cpu[s] + delta) * self.rate, self.obj.cpu_budget[s]);
            after - before
        };
        // CPU terms may hit the same site twice (a move within one
        // site's row is impossible — adjacent path positions are
        // distinct sites — but stay general).
        let mut d = 0.0;
        if m.cpu_from.0 == m.cpu_to.0 {
            d += cpu(m.cpu_from.0, m.cpu_from.1 + m.cpu_to.1);
        } else {
            d += cpu(m.cpu_from.0, m.cpu_from.1);
            d += cpu(m.cpu_to.0, m.cpu_to.1);
        }
        let (s, delta) = m.net_at;
        let before = overload(self.net[s] * self.rate, self.obj.net_budget[s]);
        let after = overload((self.net[s] + delta) * self.rate, self.obj.net_budget[s]);
        d + after - before
    }

    /// Would applying `m` keep every touched budget inside its slack?
    fn stays_feasible(&self, m: &Move) -> bool {
        let ok_cpu = |s: usize, delta: f64| {
            within((self.cpu[s] + delta) * self.rate, self.obj.cpu_budget[s])
        };
        let cpu_ok = if m.cpu_from.0 == m.cpu_to.0 {
            ok_cpu(m.cpu_from.0, m.cpu_from.1 + m.cpu_to.1)
        } else {
            ok_cpu(m.cpu_from.0, m.cpu_from.1) && ok_cpu(m.cpu_to.0, m.cpu_to.1)
        };
        cpu_ok
            && within(
                (self.net[m.net_at.0] + m.net_at.1) * self.rate,
                self.obj.net_budget[m.net_at.0],
            )
    }

    fn apply(&mut self, m: &Move) {
        self.cpu[m.cpu_from.0] += m.cpu_from.1;
        self.cpu[m.cpu_to.0] += m.cpu_to.1;
        self.net[m.net_at.0] += m.net_at.1;
        let t = &mut self.tiers[m.leaf][m.v];
        *t = t
            .checked_add_signed(m.dir)
            .expect("candidate() validated the move");
        self.moves += 1;
    }
}

fn overload(load: f64, budget: f64) -> f64 {
    if budget.is_infinite() {
        return 0.0;
    }
    ((load - budget) / (1.0 + budget.abs())).max(0.0)
}

fn within(load: f64, budget: f64) -> bool {
    budget.is_infinite() || load <= budget + BUDGET_SLACK * (1.0 + budget.abs())
}

/// Greedy budget repair: while any budget is overloaded, apply the legal
/// move with the best (violation, objective) improvement. Fails (returns
/// `false`) when no strictly violation-reducing move exists.
fn repair(st: &mut State<'_>, levels: &[&CLevel]) -> bool {
    let total: usize = st.tiers.iter().map(Vec::len).sum();
    let mut budget = 16 * total.max(1) * st.obj.alpha.len().max(2);
    while st.violation() > 0.0 {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        let mut best: Option<(f64, f64, Move)> = None;
        for leaf in 0..st.tiers.len() {
            for v in 0..st.tiers[leaf].len() {
                for dir in DIRS {
                    let Some(m) = st.candidate(levels, leaf, v, dir) else {
                        continue;
                    };
                    let dv = st.violation_delta(&m);
                    if dv >= -1e-15 {
                        continue;
                    }
                    let dobj = st.objective_delta(&m);
                    if best.as_ref().is_none_or(|(bv, bo, _)| {
                        dv < *bv - 1e-15 || (dv <= *bv + 1e-15 && dobj < *bo)
                    }) {
                        best = Some((dv, dobj, m));
                    }
                }
            }
        }
        match best {
            Some((_, _, m)) => st.apply(&m),
            None => return false,
        }
    }
    true
}

/// What [`refine`] keeps between moves, allocated once per cut and reused
/// across passes and levels. All three tables are flat over (leaf,
/// vertex), each leaf's block starting at its [`LeafLevels::offset`] and
/// sized for its finest level; a coarser level uses a prefix.
struct FmTables {
    /// Per direction of [`DIRS`]: the legal move and its objective delta,
    /// `None` where tier bounds or precedence forbid it. An entry depends
    /// only on what [`State::candidate`] reads, so a move of `v` stales
    /// `v`'s and its neighbours' entries and no others.
    cand: Vec<[Option<(f64, Move)>; 2]>,
    /// Moves made this pass.
    moved: Vec<u8>,
    /// The best placement seen this pass.
    best_tiers: Vec<usize>,
}

impl FmTables {
    fn new(vertices: usize) -> FmTables {
        FmTables {
            cand: vec![[None; 2]; vertices],
            moved: vec![0; vertices],
            best_tiers: vec![0; vertices],
        }
    }

    /// Record `tiers` as the best placement seen.
    fn remember(&mut self, st: &State<'_>) {
        for (leaf, tiers) in st.leaves.iter().zip(&st.tiers) {
            self.best_tiers[leaf.offset..leaf.offset + tiers.len()].copy_from_slice(tiers);
        }
    }

    /// Re-derive both entries of `(leaf, v)`, stored at `at`.
    fn price(&mut self, st: &State<'_>, levels: &[&CLevel], at: usize, leaf: usize, v: usize) {
        self.cand[at] = DIRS.map(|dir| {
            let m = st.candidate(levels, leaf, v, dir)?;
            Some((st.objective_delta(&m), m))
        });
    }
}

/// KL/FM-style refinement: repeated passes of best-gain single-tier
/// moves. A pass may chain up to [`STALL_CAP`] non-improving moves (each
/// vertex moving at most [`MOVE_CAP`] times) before rolling back to the
/// best placement it saw; refinement stops when a whole pass fails to
/// improve the objective.
///
/// The candidate of every (leaf, vertex, direction) is priced once per
/// pass and again only after a move in its neighbourhood; each step then
/// scans the table in (leaf, vertex, direction) order for the first
/// strictly best entry that [`State::stays_feasible`] under the loads as
/// they stand — the order, the tie-break and the answer of a full rescan
/// (pinned against one in the tests below).
fn refine(st: &mut State<'_>, levels: &[&CLevel], fm: &mut FmTables) {
    let leaves = st.leaves;
    let offset = |leaf: usize| leaves[leaf].offset;
    loop {
        let mut improved = false;
        let mut best_obj = st.objective();
        let mut stalled = 0usize;
        fm.remember(st);
        for (leaf, tiers) in st.tiers.iter().enumerate() {
            let at = offset(leaf);
            fm.moved[at..at + tiers.len()].fill(0);
            for v in 0..tiers.len() {
                fm.price(st, levels, at + v, leaf, v);
            }
        }
        loop {
            let mut best: Option<(f64, Move)> = None;
            for (leaf, tiers) in st.tiers.iter().enumerate() {
                let at = offset(leaf);
                let block = at..at + tiers.len();
                for (cand, &moved) in fm.cand[block.clone()].iter().zip(&fm.moved[block]) {
                    if moved >= MOVE_CAP {
                        continue;
                    }
                    for (d, m) in cand.iter().flatten() {
                        if best.as_ref().is_none_or(|(bd, _)| d < bd) && st.stays_feasible(m) {
                            best = Some((*d, *m));
                        }
                    }
                }
            }
            let Some((d, m)) = best else { break };
            if d >= 0.0 && stalled >= STALL_CAP {
                break;
            }
            st.apply(&m);
            let (lev, at) = (levels[m.leaf], offset(m.leaf));
            fm.moved[at + m.v] += 1;
            fm.price(st, levels, at + m.v, m.leaf, m.v);
            for &e in lev.out(m.v) {
                fm.price(st, levels, at + lev.dst(e), m.leaf, lev.dst(e));
            }
            for &e in lev.inc(m.v) {
                fm.price(st, levels, at + lev.src(e), m.leaf, lev.src(e));
            }
            let obj = st.objective();
            if obj < best_obj - 1e-12 * (1.0 + best_obj.abs()) {
                best_obj = obj;
                fm.remember(st);
                stalled = 0;
                improved = true;
            } else {
                stalled += 1;
            }
        }
        // Roll back to the best placement seen this pass.
        for (leaf, tiers) in st.tiers.iter_mut().enumerate() {
            let block = offset(leaf)..offset(leaf) + tiers.len();
            tiers.copy_from_slice(&fm.best_tiers[block]);
        }
        st.recompute_loads(levels);
        if !improved {
            break;
        }
    }
}

/// One leaf's share of a [`CutHierarchy`].
struct LeafLevels {
    /// Site index at each path position, leaf first.
    path: Vec<usize>,
    /// The finest level, then each contraction of the one before it.
    levels: Vec<CLevel>,
    /// Start of this leaf's block in a cut's flat per-vertex tables
    /// ([`FmTables`]): the finest-level vertices of the leaves before it.
    offset: usize,
}

/// Phase 1 of the heuristic, kept: every leaf's finest level and the
/// heavy-edge-matching stack above it, plus the leaf's path. Built at
/// most once per prepared instance, on the first demand for a seed, from
/// the merged leaf graphs; nothing in it
/// depends on a device count, a budget, a weight or a rate, so one
/// hierarchy serves every [`cut`](Self::cut) asked of the same
/// application on the same tree.
pub(crate) struct CutHierarchy {
    leaves: Vec<LeafLevels>,
    /// Finest-level vertices, all leaves together.
    vertices: usize,
}

impl CutHierarchy {
    /// Coarsen each leaf independently. `None` when there is no leaf, or
    /// a leaf's pins leave some vertex no legal tier — no cut exists
    /// then, whatever the budgets.
    pub(crate) fn build(chains: &[LeafChain<'_>]) -> Option<CutHierarchy> {
        if chains.is_empty() {
            return None;
        }
        let mut leaves = Vec::with_capacity(chains.len());
        let mut vertices = 0;
        for chain in chains {
            let mut levels = vec![finest_level(chain)?];
            while levels.len() < MAX_LEVELS {
                let top = levels.last().expect("non-empty stack");
                if top.vertices() <= COARSEST {
                    break;
                }
                match coarsen(top) {
                    Some(next) => levels.push(next),
                    None => break,
                }
            }
            levels.shrink_to_fit();
            let offset = vertices;
            vertices += levels[0].vertices();
            leaves.push(LeafLevels {
                path: chain.path.clone(),
                levels,
                offset,
            });
        }
        Some(CutHierarchy { leaves, vertices })
    }

    /// Every leaf's coarsest level.
    fn coarsest(&self) -> Vec<usize> {
        self.leaves.iter().map(|l| l.levels.len() - 1).collect()
    }

    /// Each leaf's level `cur[leaf]`.
    fn view(&self, cur: &[usize]) -> Vec<&CLevel> {
        self.leaves
            .iter()
            .zip(cur)
            .map(|(l, &i)| &l.levels[i])
            .collect()
    }

    /// Phase 2: greedy cut at each leaf's coarsest level. Two trivial
    /// monotone starts; keep the best repairable one.
    fn greedy_start<'a>(
        &'a self,
        counts: &'a [f64],
        obj: &'a DeploymentObjective,
        rate: f64,
        coarsest: &[&CLevel],
    ) -> State<'a> {
        let start = |pick_hi: bool| {
            let tiers = coarsest
                .iter()
                .map(|lev| {
                    let bound = usize::from(pick_hi);
                    lev.span.iter().map(|s| s[bound] as usize).collect()
                })
                .collect();
            let mut st = State::new(&self.leaves, counts, obj, rate, coarsest, tiers);
            // A coarsest-level repair may fail even on feasible instances
            // (contraction locks vertices together), so an overloaded
            // state survives here: finer levels re-attempt repair with
            // more freedom.
            repair(&mut st, coarsest);
            st
        };
        let (low, high) = (start(false), start(true));
        // Prefer the lower-violation start, objective as the tie-break.
        let (lv, hv) = (low.violation(), high.violation());
        if hv < lv - 1e-15 || (hv <= lv + 1e-15 && high.objective() < low.objective()) {
            high
        } else {
            low
        }
    }

    /// Project every leaf not yet at its finest level one level finer.
    /// `false` once all are there.
    fn uncoarsen(&self, st: &mut State<'_>, cur: &mut [usize]) -> bool {
        if cur.iter().all(|&i| i == 0) {
            return false;
        }
        for (l, i) in cur.iter_mut().enumerate() {
            if *i == 0 {
                continue;
            }
            let coarse = &st.tiers[l];
            st.tiers[l] = self.leaves[l].levels[*i]
                .map
                .iter()
                .map(|&c| coarse[c as usize])
                .collect();
            *i -= 1;
        }
        st.recompute_loads(&self.view(cur));
        true
    }

    /// Phases 2 and 3 on the kept hierarchy: greedy cut, then repair,
    /// refine and project down to the finest graphs.
    ///
    /// `counts` is each leaf's device count in build order (a removed
    /// leaf class is `0`), `obj` exactly what
    /// [`encode_deployment`](crate::encodings::encode_deployment)
    /// consumes, `rate` the global input-rate multiplier the budgets are
    /// tested at. Returns `None` when the heuristic cannot reach a
    /// budget-feasible placement — the instance may still be exactly
    /// feasible, so callers fall back to the exact path or report an
    /// unproven probe, never infeasibility.
    pub(crate) fn cut(
        &self,
        counts: &[f64],
        obj: &DeploymentObjective,
        rate: f64,
    ) -> Option<ApproxCut> {
        assert!(rate > 0.0, "rate multiplier must be positive");
        assert_eq!(counts.len(), self.leaves.len(), "one count per leaf");
        let mut cur = self.coarsest();
        let mut st = self.greedy_start(counts, obj, rate, &self.view(&cur));

        // Phase 3, in lockstep down to the finest graphs. Only a
        // feasible state is refined (FM moves preserve feasibility);
        // feasibility itself is demanded only of the finest placement.
        let mut fm = FmTables::new(self.vertices);
        loop {
            let view = self.view(&cur);
            repair(&mut st, &view);
            if st.violation() <= 0.0 {
                refine(&mut st, &view, &mut fm);
            }
            if !self.uncoarsen(&mut st, &mut cur) {
                break;
            }
        }
        if st.violation() > 0.0 {
            return None;
        }

        Some(ApproxCut {
            objective: st.objective(),
            moves: st.moves,
            tiers: st.tiers,
        })
    }
}

/// Compute a feasible monotone tiered placement for a prepared
/// deployment instance — multilevel coarsening, greedy cut, and
/// monotone-aware FM refinement, jointly across all leaf classes.
///
/// `leaves` and `obj` are exactly what
/// [`encode_deployment`](crate::encodings::encode_deployment) consumes
/// (a removed leaf class is expressed as `count = 0`); `rate` is the
/// global input-rate multiplier the budgets are tested at. Returns
/// `None` when the heuristic cannot reach a budget-feasible placement —
/// the instance may still be exactly feasible, so callers fall back to
/// the exact path or report an unproven probe, never infeasibility.
///
/// One-shot: the coarsening hierarchy is built, cut once and dropped.
/// [`PreparedDeployment`](crate::topology::PreparedDeployment) builds it
/// on a search's first demand for a seed and cuts it at every later one.
pub fn approx_cut(
    leaves: &[LeafChain<'_>],
    obj: &DeploymentObjective,
    rate: f64,
) -> Option<ApproxCut> {
    assert!(rate > 0.0, "rate multiplier must be positive");
    let counts: Vec<f64> = leaves.iter().map(|l| l.count).collect();
    CutHierarchy::build(leaves)?.cut(&counts, obj, rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_graph::Pin;
    use crate::encodings::encode_deployment;
    use crate::multitier::{TEdge, TVertex, TieredGraph};
    use proptest::prelude::*;
    use wishbone_ilp::{solve_ilp, IlpOptions};

    /// A k-tier chain of `n` vertices: Node-pinned source, Server-pinned
    /// sink, movable middle. Each vertex halves the stream's bandwidth
    /// and costs progressively less CPU on stronger tiers.
    fn chain(n: usize, k: usize) -> TieredGraph {
        let vertices = (0..n)
            .map(|v| TVertex {
                ops: vec![],
                cpu_cost: (0..k)
                    .map(|t| 0.08 / (1.0 + t as f64) * (1.0 + (v % 3) as f64))
                    .collect(),
                pin: if v == 0 {
                    Pin::Node
                } else if v == n - 1 {
                    Pin::Server
                } else {
                    Pin::Movable
                },
            })
            .collect();
        let edges = (0..n - 1)
            .map(|v| TEdge {
                src: v,
                dst: v + 1,
                bandwidth: vec![400.0 / (1u64 << (v % 8).min(8)) as f64; k - 1],
                graph_edges: vec![],
            })
            .collect();
        TieredGraph {
            tiers: k,
            vertices,
            edges,
        }
    }

    fn path_objective(k: usize, cpu: Vec<f64>, net: Vec<f64>) -> DeploymentObjective {
        DeploymentObjective {
            alpha: vec![0.0; k],
            cpu_budget: cpu,
            count: vec![1.0; k],
            beta: (0..k).map(|s| if s < k - 1 { 1.0 } else { 0.0 }).collect(),
            net_budget: net,
            row_order: (0..k).collect(),
        }
    }

    /// The cut's own objective accounting must agree with the encoded
    /// problem's, and the emitted placement must be integer-feasible.
    #[test]
    fn cut_is_feasible_and_frames_match() {
        let tg = chain(12, 3);
        let leaves = [LeafChain {
            graph: &tg,
            path: vec![0, 1, 2],
            count: 1.0,
        }];
        let obj = path_objective(
            3,
            vec![0.5, 1.0, f64::INFINITY],
            vec![600.0, 600.0, f64::INFINITY],
        );
        let cut = approx_cut(&leaves, &obj, 1.0).expect("roomy budgets");
        let ep = encode_deployment(&leaves, &obj);
        let mut y = vec![0.0; ep.problem.num_vars()];
        for (b, row) in ep.y_vars[0].iter().enumerate() {
            for (v, &var) in row.iter().enumerate() {
                if cut.tiers[0][v] <= b {
                    y[var.0] = 1.0;
                }
            }
        }
        assert!(ep.problem.is_feasible(&y, 1e-6), "feasible by construction");
        let encoded_cost = ep.problem.objective_value(&y) + ep.objective_offset;
        assert!(
            (cut.objective - encoded_cost).abs() < 1e-9 * (1.0 + encoded_cost.abs()),
            "direct {} vs encoded {}",
            cut.objective,
            encoded_cost
        );
    }

    /// On a chain the heuristic should land within a few percent of the
    /// exact optimum (here: exactly, the instance is easy).
    #[test]
    fn cut_is_near_optimal_on_a_chain() {
        let tg = chain(12, 3);
        let leaves = [LeafChain {
            graph: &tg,
            path: vec![0, 1, 2],
            count: 1.0,
        }];
        let obj = path_objective(
            3,
            vec![0.4, 0.8, f64::INFINITY],
            vec![500.0, 500.0, f64::INFINITY],
        );
        let cut = approx_cut(&leaves, &obj, 1.0).expect("feasible");
        let ep = encode_deployment(&leaves, &obj);
        let exact = solve_ilp(&ep.problem, &IlpOptions::default()).expect("exact");
        let exact_cost = exact.objective + ep.objective_offset;
        assert!(
            cut.objective >= exact_cost - 1e-9,
            "heuristic cannot beat the optimum"
        );
        assert!(
            (cut.objective - exact_cost) / exact_cost.abs().max(1e-12) <= 0.025,
            "approx {} vs exact {}",
            cut.objective,
            exact_cost
        );
    }

    /// Two leaf classes through one gateway: the shared CPU row must be
    /// priced jointly, and the cut must respect it.
    #[test]
    fn forest_shares_gateway_budgets() {
        let (ta, tb) = (chain(8, 3), chain(6, 3));
        // Sites: 0 = server, 1 = gateway, 2 and 3 = mote classes.
        let leaves = [
            LeafChain {
                graph: &ta,
                path: vec![2, 1, 0],
                count: 4.0,
            },
            LeafChain {
                graph: &tb,
                path: vec![3, 1, 0],
                count: 2.0,
            },
        ];
        let obj = DeploymentObjective {
            alpha: vec![0.0; 4],
            cpu_budget: vec![f64::INFINITY, 1.0, 0.6, 0.6],
            count: vec![1.0, 1.0, 4.0, 2.0],
            beta: vec![0.0, 1.0, 1.0, 1.0],
            net_budget: vec![f64::INFINITY, 2500.0, 3000.0, 3000.0],
            row_order: vec![2, 3, 1, 0],
        };
        let cut = approx_cut(&leaves, &obj, 1.0).expect("feasible forest");
        let ep = encode_deployment(&leaves, &obj);
        let mut y = vec![0.0; ep.problem.num_vars()];
        for (l, leaf) in ep.y_vars.iter().enumerate() {
            for (b, row) in leaf.iter().enumerate() {
                for (v, &var) in row.iter().enumerate() {
                    if cut.tiers[l][v] <= b {
                        y[var.0] = 1.0;
                    }
                }
            }
        }
        assert!(ep.problem.is_feasible(&y, 1e-6), "joint rows respected");
    }

    /// Budgets nothing fits under: the heuristic reports failure rather
    /// than emitting an overloaded placement.
    #[test]
    fn hopeless_budgets_return_none() {
        let tg = chain(8, 3);
        let leaves = [LeafChain {
            graph: &tg,
            path: vec![0, 1, 2],
            count: 1.0,
        }];
        // The Node-pinned source alone exceeds the mote CPU budget.
        let obj = path_objective(3, vec![0.01, 0.01, f64::INFINITY], vec![1.0, 1.0, 1.0]);
        assert!(approx_cut(&leaves, &obj, 1.0).is_none());
    }

    /// The FM refinement [`refine`] replaced, kept as its reference:
    /// every step re-derives every (leaf, vertex, direction) through
    /// `candidate()`.
    fn refine_rescan(st: &mut State<'_>, levels: &[&CLevel]) {
        loop {
            let mut improved = false;
            let mut best_tiers = st.tiers.clone();
            let mut best_obj = st.objective();
            let mut stalled = 0usize;
            let mut moved: std::collections::HashMap<(usize, usize), u8> =
                std::collections::HashMap::new();
            loop {
                let mut best: Option<(f64, Move)> = None;
                for leaf in 0..st.tiers.len() {
                    for v in 0..st.tiers[leaf].len() {
                        if moved.get(&(leaf, v)).copied().unwrap_or(0) >= MOVE_CAP {
                            continue;
                        }
                        for dir in DIRS {
                            let Some(m) = st.candidate(levels, leaf, v, dir) else {
                                continue;
                            };
                            if !st.stays_feasible(&m) {
                                continue;
                            }
                            let d = st.objective_delta(&m);
                            if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                                best = Some((d, m));
                            }
                        }
                    }
                }
                let Some((d, m)) = best else { break };
                if d >= 0.0 && stalled >= STALL_CAP {
                    break;
                }
                st.apply(&m);
                *moved.entry((m.leaf, m.v)).or_insert(0) += 1;
                let obj = st.objective();
                if obj < best_obj - 1e-12 * (1.0 + best_obj.abs()) {
                    best_obj = obj;
                    best_tiers = st.tiers.clone();
                    stalled = 0;
                    improved = true;
                } else {
                    stalled += 1;
                }
            }
            st.tiers = best_tiers;
            st.recompute_loads(levels);
            if !improved {
                break;
            }
        }
    }

    /// Walk `h` the way [`CutHierarchy::cut`] does, refining every level
    /// with both refiners from the same state and holding the table-driven
    /// one to the rescan: same tiers, same objective bits, same move
    /// count, same loads. Returns the moves the two agreed on.
    fn refiners_agree(
        h: &CutHierarchy,
        counts: &[f64],
        obj: &DeploymentObjective,
        rate: f64,
    ) -> u64 {
        let mut cur = h.coarsest();
        let mut st = h.greedy_start(counts, obj, rate, &h.view(&cur));
        let mut fm = FmTables::new(h.vertices);
        let mut refined = 0;
        loop {
            let view = h.view(&cur);
            repair(&mut st, &view);
            if st.violation() <= 0.0 {
                let before = st.moves;
                let mut reference = st.clone();
                refine_rescan(&mut reference, &view);
                refine(&mut st, &view, &mut fm);
                assert_eq!(st.tiers, reference.tiers, "levels {cur:?}");
                assert_eq!(st.objective().to_bits(), reference.objective().to_bits());
                assert_eq!(st.moves, reference.moves, "levels {cur:?}");
                let bits = |loads: &[f64]| loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&st.cpu), bits(&reference.cpu));
                assert_eq!(bits(&st.net), bits(&reference.net));
                refined += st.moves - before;
            }
            if !h.uncoarsen(&mut st, &mut cur) {
                return refined;
            }
        }
    }

    /// A pinned DAG of 3–47 vertices over `k` tiers: vertex `v ≥ 1` hangs
    /// off one or two of the four vertices before it; the first is
    /// Node-pinned, the last Server-pinned, and a few near either end
    /// carry the matching pin too.
    fn dag_strategy(k: usize) -> impl Strategy<Value = TieredGraph> {
        let vertex = (
            0.002f64..0.05,
            1usize..5,
            0usize..5,
            20.0f64..800.0,
            0usize..30,
        );
        prop::collection::vec(vertex, 3..48).prop_map(move |spec| {
            let n = spec.len();
            let mut edges = Vec::new();
            for (v, &(_, back, also, bw, _)) in spec.iter().enumerate().skip(1) {
                let first = v - back.min(v);
                let second = v - also.min(v);
                for src in [Some(first), (also > 0 && second != first).then_some(second)] {
                    edges.extend(src.map(|src| TEdge {
                        src,
                        dst: v,
                        bandwidth: (0..k - 1).map(|b| bw * (1.0 + 0.3 * b as f64)).collect(),
                        graph_edges: vec![],
                    }));
                }
            }
            let vertices = spec
                .iter()
                .enumerate()
                .map(|(v, &(cpu, _, _, _, pin))| TVertex {
                    ops: vec![],
                    cpu_cost: (0..k).map(|t| cpu / (1.0 + 2.0 * t as f64)).collect(),
                    pin: match pin {
                        _ if v == 0 => Pin::Node,
                        _ if v == n - 1 => Pin::Server,
                        0 if v < n / 3 => Pin::Node,
                        1 if v > 2 * n / 3 => Pin::Server,
                        _ => Pin::Movable,
                    },
                })
                .collect();
            TieredGraph {
                tiers: k,
                vertices,
                edges,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random pinned DAG forests, one to three leaf classes sharing
        /// the interior of a k-site path, budgets scaled from starved to
        /// roomy: wherever a level is refined at all, the candidate table
        /// picks the moves a full rescan picks.
        #[test]
        fn table_driven_refine_is_the_full_rescan(
            (k, graphs) in (2usize..5)
                .prop_flat_map(|k| (Just(k), prop::collection::vec(dag_strategy(k), 1..4))),
            device_counts in prop::collection::vec(1usize..5, 3),
            alphas in prop::collection::vec(0.0f64..10.0, 8),
            picks in prop::collection::vec(0.0f64..1.0, 16),
            roomy in 0.0f64..1.0,
            rate in 0.2f64..2.5,
        ) {
            // Sites: 0 = root, 1..k−1 the shared interior (root side
            // first), then one leaf site per class.
            let n_sites = k - 1 + graphs.len();
            let leaves: Vec<LeafChain<'_>> = graphs
                .iter()
                .enumerate()
                .map(|(l, graph)| LeafChain {
                    graph,
                    path: std::iter::once(k - 1 + l).chain((0..k - 1).rev()).collect(),
                    count: device_counts[l] as f64,
                })
                .collect();
            let mut count = vec![1.0; n_sites];
            for (l, leaf) in leaves.iter().enumerate() {
                count[k - 1 + l] = leaf.count;
            }
            let obj = DeploymentObjective {
                // A third of the sites price CPU, so CPU and uplink gains trade off.
                alpha: (0..n_sites).map(|s| if s % 3 == 1 { alphas[s] } else { 0.0 }).collect(),
                cpu_budget: (0..n_sites)
                    .map(|s| if s == 0 { f64::INFINITY } else { 0.3 + 6.0 * roomy * picks[s] })
                    .collect(),
                count,
                beta: (0..n_sites).map(|s| if s == 0 { 0.0 } else { 0.5 + picks[8 + s] }).collect(),
                net_budget: (0..n_sites)
                    .map(|s| match s {
                        0 => f64::INFINITY,
                        _ if picks[s] > 0.8 => f64::INFINITY,
                        _ => 800.0 + 60_000.0 * roomy * picks[8 + s],
                    })
                    .collect(),
                row_order: (0..n_sites).rev().collect(),
            };
            let counts: Vec<f64> = leaves.iter().map(|l| l.count).collect();
            let h = CutHierarchy::build(&leaves).expect("end pins leave every vertex a tier");
            refiners_agree(&h, &counts, &obj, rate);
            // The walk above is the cut: same placement, feasible or not.
            let cut = h.cut(&counts, &obj, rate);
            let one_shot = approx_cut(&leaves, &obj, rate);
            prop_assert_eq!(cut.is_some(), one_shot.is_some());
            if let (Some(a), Some(b)) = (cut, one_shot) {
                prop_assert_eq!(a.tiers, b.tiers);
                prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                prop_assert_eq!(a.moves, b.moves);
            }
        }
    }

    /// The proptest above must not pass by never refining: on the roomy
    /// 3-tier chain both refiners do real work, and agree on it.
    #[test]
    fn refiners_agree_on_moves_that_happen() {
        let tg = chain(40, 3);
        let leaves = [LeafChain {
            graph: &tg,
            path: vec![0, 1, 2],
            count: 1.0,
        }];
        let obj = path_objective(
            3,
            vec![0.5, 1.0, f64::INFINITY],
            vec![600.0, 600.0, f64::INFINITY],
        );
        let h = CutHierarchy::build(&leaves).expect("a chain has a legal tiering");
        assert!(h.coarsest()[0] > 0, "40 vertices coarsen at least once");
        assert!(refiners_agree(&h, &[1.0], &obj, 1.0) > 0);
    }
}
