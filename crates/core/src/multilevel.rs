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
//!    coarse vertex still has a legal tier.
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
//! The heuristic is wired in twice ([`crate::topology`]): as the
//! incumbent seed for exact branch-and-bound (restoring sub-second
//! discovery on near-cliff forests) and as the standalone anytime engine
//! behind [`DeploymentConfig::approx`](crate::topology::DeploymentConfig::approx),
//! which certifies its placement against the root LP bound.

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
const MOVE_CAP: usize = 4;

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
    /// Coarsening levels built, summed over leaves.
    pub levels: usize,
    /// Single-tier moves applied across repair and refinement.
    pub moves: u64,
}

/// One leaf graph at one coarsening level.
struct CLevel {
    /// Per-vertex CPU cost per tier (length `k` each).
    cpu: Vec<Vec<f64>>,
    /// Tightest legal tier interval per vertex (pins propagated through
    /// precedence, intersected over merged members).
    lo: Vec<usize>,
    hi: Vec<usize>,
    /// Merged directed edges (no self-loops; parallel edges summed).
    edges: Vec<CEdge>,
    /// Outgoing / incoming edge indices per vertex.
    out: Vec<Vec<usize>>,
    inc: Vec<Vec<usize>>,
    /// Map from the next-finer level's vertices to this level's
    /// (`None` for the finest level).
    map: Option<Vec<usize>>,
}

struct CEdge {
    src: usize,
    dst: usize,
    /// On-air bytes/second if carried over link `b` (length `k − 1`).
    bw: Vec<f64>,
}

/// Tier-interval fixpoint: push `lo` forward and `hi` backward along
/// every edge until stable. Works on contracted graphs too (contraction
/// can create directed cycles, which simply force tier equality around
/// the cycle). Returns `false` on an empty interval — no legal tier
/// assignment exists at this level.
fn propagate_bounds(lo: &mut [usize], hi: &mut [usize], edges: &[CEdge]) -> bool {
    loop {
        let mut changed = false;
        for e in edges {
            if lo[e.src] > lo[e.dst] {
                lo[e.dst] = lo[e.src];
                changed = true;
            }
            if hi[e.dst] < hi[e.src] {
                hi[e.src] = hi[e.dst];
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    lo.iter().zip(hi.iter()).all(|(l, h)| l <= h)
}

/// Build the finest [`CLevel`] of one leaf from its (merged) chain graph.
fn finest_level(leaf: &LeafChain<'_>) -> Option<CLevel> {
    let k = leaf.graph.tiers;
    let n = leaf.graph.vertices.len();
    let mut lo = vec![0usize; n];
    let mut hi = vec![k - 1; n];
    for (v, vert) in leaf.graph.vertices.iter().enumerate() {
        match vert.pin {
            crate::cost_graph::Pin::Node => hi[v] = 0,
            crate::cost_graph::Pin::Server => lo[v] = k - 1,
            crate::cost_graph::Pin::Movable => {}
        }
    }
    let edges: Vec<CEdge> = leaf
        .graph
        .edges
        .iter()
        .map(|e| CEdge {
            src: e.src,
            dst: e.dst,
            bw: e.bandwidth.clone(),
        })
        .collect();
    if !propagate_bounds(&mut lo, &mut hi, &edges) {
        return None;
    }
    let (out, inc) = adjacency(n, &edges);
    Some(CLevel {
        cpu: leaf
            .graph
            .vertices
            .iter()
            .map(|v| v.cpu_cost.clone())
            .collect(),
        lo,
        hi,
        edges,
        out,
        inc,
        map: None,
    })
}

fn adjacency(n: usize, edges: &[CEdge]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut out = vec![Vec::new(); n];
    let mut inc = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        out[e.src].push(i);
        inc[e.dst].push(i);
    }
    (out, inc)
}

/// One heavy-edge-matching contraction of `fine`. Returns `None` when no
/// edge can be contracted (coarsening has converged) or the contracted
/// graph has no legal tier assignment (stop at the finer level).
fn coarsen(fine: &CLevel) -> Option<CLevel> {
    let n = fine.lo.len();
    // Heaviest total data rate first; index order breaks ties so the
    // matching is deterministic.
    let mut order: Vec<usize> = (0..fine.edges.len()).collect();
    order.sort_by(|&a, &b| {
        let (wa, wb) = (
            fine.edges[a].bw.iter().sum::<f64>(),
            fine.edges[b].bw.iter().sum::<f64>(),
        );
        wb.partial_cmp(&wa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut mate = vec![usize::MAX; n];
    let mut pairs = 0usize;
    for &i in &order {
        let e = &fine.edges[i];
        let (u, v) = (e.src, e.dst);
        if u == v || mate[u] != usize::MAX || mate[v] != usize::MAX {
            continue;
        }
        // Contraction forces t(u) = t(v): legal only on intersecting
        // tier intervals.
        if fine.lo[u].max(fine.lo[v]) > fine.hi[u].min(fine.hi[v]) {
            continue;
        }
        mate[u] = v;
        mate[v] = u;
        pairs += 1;
    }
    if pairs == 0 {
        return None;
    }

    // Coarse ids in fine-vertex order: the lower endpoint of each pair
    // names the merged vertex.
    let mut map = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        if map[v] != usize::MAX {
            continue;
        }
        map[v] = next;
        if mate[v] != usize::MAX {
            map[mate[v]] = next;
        }
        next += 1;
    }

    let k = fine.cpu.first().map_or(0, Vec::len);
    let mut cpu = vec![vec![0.0f64; k]; next];
    let mut lo = vec![0usize; next];
    let mut hi = vec![usize::MAX; next];
    for (v, &c) in map.iter().enumerate() {
        for (t, acc) in cpu[c].iter_mut().enumerate() {
            *acc += fine.cpu[v][t];
        }
        lo[c] = lo[c].max(fine.lo[v]);
        hi[c] = hi[c].min(fine.hi[v]);
    }

    // Merge parallel coarse edges; drop internalized ones.
    let mut merged: std::collections::HashMap<(usize, usize), Vec<f64>> =
        std::collections::HashMap::new();
    for e in &fine.edges {
        let (cs, cd) = (map[e.src], map[e.dst]);
        if cs == cd {
            continue;
        }
        let bw = merged.entry((cs, cd)).or_insert_with(|| vec![0.0; k - 1]);
        for (b, acc) in bw.iter_mut().enumerate() {
            *acc += e.bw[b];
        }
    }
    let mut keys: Vec<(usize, usize)> = merged.keys().copied().collect();
    keys.sort_unstable();
    let edges: Vec<CEdge> = keys
        .into_iter()
        .map(|(src, dst)| CEdge {
            src,
            dst,
            bw: merged.remove(&(src, dst)).unwrap_or_default(),
        })
        .collect();
    if !propagate_bounds(&mut lo, &mut hi, &edges) {
        return None;
    }
    let (out, inc) = adjacency(next, &edges);
    Some(CLevel {
        cpu,
        lo,
        hi,
        edges,
        out,
        inc,
        map: Some(map),
    })
}

/// The joint placement state across all leaves: per-site loads at unit
/// rate, plus the knobs to price and legalize single-tier moves.
struct State<'a> {
    obj: &'a DeploymentObjective,
    rate: f64,
    /// Per-leaf: path (site per position) and device count.
    paths: Vec<&'a [usize]>,
    counts: Vec<f64>,
    /// Current tier per (leaf, vertex) at each leaf's *current* level.
    tiers: Vec<Vec<usize>>,
    /// Per-site aggregate per-device CPU load at unit rate.
    cpu: Vec<f64>,
    /// Per-site aggregate uplink load at unit rate (root entries 0).
    net: Vec<f64>,
    moves: u64,
}

/// A candidate single-tier move of one (leaf, vertex).
#[derive(Clone, Copy)]
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

impl<'a> State<'a> {
    fn new(
        obj: &'a DeploymentObjective,
        rate: f64,
        paths: Vec<&'a [usize]>,
        counts: Vec<f64>,
        levels: &[&CLevel],
        tiers: Vec<Vec<usize>>,
    ) -> State<'a> {
        let n_sites = obj.alpha.len();
        let mut st = State {
            obj,
            rate,
            paths,
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
            let path = self.paths[l];
            for (v, &t) in self.tiers[l].iter().enumerate() {
                let s = path[t];
                self.cpu[s] += count / self.obj.count[s] * lev.cpu[v][t];
            }
            for e in &lev.edges {
                let (ts, td) = (self.tiers[l][e.src], self.tiers[l][e.dst]);
                for (b, &site) in path.iter().enumerate().take(td).skip(ts) {
                    self.net[site] += count * e.bw[b];
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
    fn candidate(&self, levels: &[&CLevel], leaf: usize, v: usize, dir: isize) -> Option<Move> {
        let lev = levels[leaf];
        let t = self.tiers[leaf][v];
        let nt = t.checked_add_signed(dir)?;
        if nt < lev.lo[v] || nt > lev.hi[v] {
            return None;
        }
        let path = self.paths[leaf];
        let count = self.counts[leaf];
        // Precedence, and the single uplink boundary whose crossings flip.
        let b = if dir > 0 { t } else { nt };
        let mut net_delta = 0.0;
        if dir > 0 {
            for &i in &lev.out[v] {
                if self.tiers[leaf][lev.edges[i].dst] < nt {
                    return None;
                }
                net_delta -= count * lev.edges[i].bw[b];
            }
            for &i in &lev.inc[v] {
                debug_assert!(self.tiers[leaf][lev.edges[i].src] <= t);
                net_delta += count * lev.edges[i].bw[b];
            }
        } else {
            for &i in &lev.inc[v] {
                if self.tiers[leaf][lev.edges[i].src] > nt {
                    return None;
                }
                net_delta -= count * lev.edges[i].bw[b];
            }
            for &i in &lev.out[v] {
                debug_assert!(self.tiers[leaf][lev.edges[i].dst] >= t);
                net_delta += count * lev.edges[i].bw[b];
            }
        }
        let (sf, st_) = (path[t], path[nt]);
        Some(Move {
            leaf,
            v,
            dir,
            cpu_from: (sf, -(count / self.obj.count[sf]) * lev.cpu[v][t]),
            cpu_to: (st_, count / self.obj.count[st_] * lev.cpu[v][nt]),
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
        let mut d = 0.0;
        // CPU terms may hit the same site twice (a move within one
        // site's row is impossible — adjacent path positions are
        // distinct sites — but stay general).
        let mut cpu_d: Vec<(usize, f64)> = vec![m.cpu_from, m.cpu_to];
        if m.cpu_from.0 == m.cpu_to.0 {
            cpu_d = vec![(m.cpu_from.0, m.cpu_from.1 + m.cpu_to.1)];
        }
        for (s, delta) in cpu_d {
            let before = overload(self.cpu[s] * self.rate, self.obj.cpu_budget[s]);
            let after = overload((self.cpu[s] + delta) * self.rate, self.obj.cpu_budget[s]);
            d += after - before;
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
                for dir in [1isize, -1] {
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

/// KL/FM-style refinement: repeated passes of best-gain single-tier
/// moves. A pass may chain up to [`STALL_CAP`] non-improving moves (each
/// vertex moving at most [`MOVE_CAP`] times) before rolling back to the
/// best placement it saw; refinement stops when a whole pass fails to
/// improve the objective.
fn refine(st: &mut State<'_>, levels: &[&CLevel]) {
    loop {
        let mut improved = false;
        let mut best_tiers = st.tiers.clone();
        let mut best_obj = st.objective();
        let mut stalled = 0usize;
        let mut moved: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        loop {
            let mut best: Option<(f64, Move)> = None;
            for leaf in 0..st.tiers.len() {
                for v in 0..st.tiers[leaf].len() {
                    if moved.get(&(leaf, v)).copied().unwrap_or(0) >= MOVE_CAP {
                        continue;
                    }
                    for dir in [1isize, -1] {
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
        // Roll back to the best placement seen this pass.
        st.tiers = best_tiers;
        st.recompute_loads(levels);
        if !improved {
            break;
        }
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
pub fn approx_cut(
    leaves: &[LeafChain<'_>],
    obj: &DeploymentObjective,
    rate: f64,
) -> Option<ApproxCut> {
    assert!(rate > 0.0, "rate multiplier must be positive");
    if leaves.is_empty() {
        return None;
    }

    // Phase 1: coarsen each leaf independently.
    let mut levels: Vec<Vec<CLevel>> = Vec::with_capacity(leaves.len());
    for leaf in leaves {
        let mut stack = vec![finest_level(leaf)?];
        while stack.len() < MAX_LEVELS {
            let top = stack.last().expect("non-empty stack");
            if top.lo.len() <= COARSEST {
                break;
            }
            match coarsen(top) {
                Some(next) => stack.push(next),
                None => break,
            }
        }
        levels.push(stack);
    }
    let total_levels: usize = levels.iter().map(Vec::len).sum();

    let paths: Vec<&[usize]> = leaves.iter().map(|l| l.path.as_slice()).collect();
    let counts: Vec<f64> = leaves.iter().map(|l| l.count).collect();

    // Phase 2: greedy cut at each leaf's coarsest level. Two trivial
    // monotone starts; keep the best repairable one.
    let coarsest: Vec<&CLevel> = levels
        .iter()
        .map(|s| s.last().expect("at least the finest level"))
        .collect();
    let start = |pick_hi: bool| -> Vec<Vec<usize>> {
        coarsest
            .iter()
            .map(|lev| {
                if pick_hi {
                    lev.hi.clone()
                } else {
                    lev.lo.clone()
                }
            })
            .collect()
    };
    let mut best: Option<State<'_>> = None;
    for pick_hi in [false, true] {
        let mut st = State::new(
            obj,
            rate,
            paths.clone(),
            counts.clone(),
            &coarsest,
            start(pick_hi),
        );
        // A coarsest-level repair may fail even on feasible instances
        // (contraction locks vertices together), so an overloaded state
        // survives here: finer levels re-attempt repair with more
        // freedom. Prefer the lower-violation start, objective as the
        // tie-break.
        repair(&mut st, &coarsest);
        let better = best.as_ref().is_none_or(|b| {
            let (bv, sv) = (b.violation(), st.violation());
            sv < bv - 1e-15 || (sv <= bv + 1e-15 && st.objective() < b.objective())
        });
        if better {
            best = Some(st);
        }
    }
    let mut st = best?;

    // Phase 3: repair and refine, then project every leaf one level
    // finer and repeat, in lockstep, down to the finest graphs. Only a
    // feasible state is refined (FM moves preserve feasibility);
    // feasibility itself is demanded only of the finest placement.
    let mut cur: Vec<usize> = levels.iter().map(|s| s.len() - 1).collect();
    loop {
        let view: Vec<&CLevel> = levels.iter().zip(&cur).map(|(s, &i)| &s[i]).collect();
        repair(&mut st, &view);
        if st.violation() <= 0.0 {
            refine(&mut st, &view);
        }
        if cur.iter().all(|&i| i == 0) {
            break;
        }
        for (l, i) in cur.iter_mut().enumerate() {
            if *i == 0 {
                continue;
            }
            let map = levels[l][*i]
                .map
                .as_ref()
                .expect("coarse levels carry a projection map");
            st.tiers[l] = map.iter().map(|&c| st.tiers[l][c]).collect();
            *i -= 1;
        }
        let view: Vec<&CLevel> = levels.iter().zip(&cur).map(|(s, &i)| &s[i]).collect();
        st.recompute_loads(&view);
    }
    if st.violation() > 0.0 {
        return None;
    }

    Some(ApproxCut {
        objective: st.objective(),
        moves: st.moves,
        levels: total_levels,
        tiers: st.tiers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_graph::Pin;
    use crate::encodings::encode_deployment;
    use crate::multitier::{TEdge, TVertex, TieredGraph};
    use wishbone_ilp::IlpOptions;

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
        let exact = ep.problem.solve_ilp(&IlpOptions::default()).expect("exact");
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
}
