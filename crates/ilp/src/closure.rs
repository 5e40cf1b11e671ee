//! The closure relaxation: a problem's difference rows alone, solved
//! exactly by one minimum cut.
//!
//! A row `y_a − y_b ≥ 0` over `[0, 1]` variables says "`b` chosen ⇒ `a`
//! chosen". A problem made of such rows and nothing else is a
//! minimum-weight closure problem (Picard 1976): its LP is integral and
//! one s–t minimum cut solves it. Wishbone's partition encoding is such
//! rows plus at most two budget rows per site, so the closure is the
//! encoding with its budget rows dropped — a relaxation, and, whenever
//! its optimum happens to hold the dropped rows, the ILP's optimum.
//!
//! The network: a variable with cost `c < 0` hangs off the source with
//! capacity `−c`, one with `c > 0` feeds the sink with capacity `c`, a
//! variable pinned to `1` (`0`) is joined to the source (sink) by an
//! infinite arc, and every difference row is an infinite arc `b → a`.
//! The terminal arcs are kept as per-variable capacities, not arcs.
//! The source side of a cut is the set of variables at `1`, and its
//! capacity is the closure's cost less `Σ_{c<0} c`. [`solve_closure_in`]
//! finds a maximum flow in two steps. A forward pass first pushes along
//! the infinite difference arcs alone, which need no level graph: from
//! each fed variable in turn, depth first, to every variable that still
//! feeds the sink. On the partition encodings it places most of the flow
//! (81 % on the EEG forest). Dinic's phases then finish on the residual
//! network, rerouting along reverse arcs where the pass sent one
//! variable's supply to a demand another needed. The last phase's search
//! returns the **source-minimal** minimum cut — the vertices the residual
//! network still reaches from the source — which is the same for every
//! maximum flow, so among equally cheap closures the answer is the one
//! with the fewest variables at `1`, whatever order the flow was found
//! in.
//!
//! The same min-cut bounds a dropped row. With that row's own
//! coefficients as the costs, the closure optimum is the least value its
//! left-hand side takes over the closure polytope: its *floor*.
//! [`row_floor_in`] returns the floor as a [`Refutation`] — the row plus
//! every difference row weighted by the max flow it carries, which is
//! the min-cut's LP dual — so where the floor is above the row's
//! right-hand side, that certificate proves that no placement holds it.

use crate::num::is_exact_zero;
use crate::problem::{Constraint, Problem, Sense};
use crate::refutation::Refutation;
use crate::workspace::SimplexWorkspace;

/// What [`solve_closure_in`] proved besides the assignment it wrote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosureCut {
    /// `Σ cost·y` of the closure: the optimum of the problem's LP with
    /// every side row dropped.
    pub objective: f64,
    /// Rows that are not difference rows and so were dropped: the caller
    /// must check them against the assignment itself.
    pub side_rows: usize,
    /// Dinic's phases (level graphs that reached the sink) after the
    /// forward pass: a count that repeats on any host, so a guard can pin
    /// how much of the flow the pass left.
    pub phases: u32,
}

/// One arc of the max-flow network.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    head: u32,
    /// Index of the reverse arc.
    rev: u32,
    /// Residual capacity.
    cap: f64,
}

/// The max-flow network's buffers, kept in a [`SimplexWorkspace`] so a
/// reused workspace computes a closure without allocating. The source
/// and sink are implicit: each variable's arc from the source is its
/// `supply`, its arc to the sink its `demand` (residual capacities both),
/// and only the difference rows are arcs.
#[derive(Debug, Default)]
pub(crate) struct ClosureScratch {
    supply: Vec<f64>,
    demand: Vec<f64>,
    /// The difference rows' `(a, b)` pairs, in row order.
    pairs: Vec<(u32, u32)>,
    /// Arcs of node `u` are `arcs[start[u]..start[u + 1]]`.
    start: Vec<u32>,
    arcs: Vec<Edge>,
    /// BFS level from the source's arcs; `u32::MAX` is unreached. The
    /// forward pass keeps its node marks here first.
    level: Vec<u32>,
    /// The current-arc pointer per node, of the forward pass and then of
    /// each Dinic phase (the fill pointer while the network is built).
    cursor: Vec<u32>,
    queue: Vec<u32>,
    /// Arcs of the augmenting path under construction.
    path: Vec<u32>,
    /// [`row_floor_in`]'s costs and closure, dense per variable.
    row_cost: Vec<f64>,
    row_values: Vec<f64>,
}

/// Is row `c` a difference row `y_a − y_b ≥ 0`? Returns `(a, b)`.
fn difference_row(c: &Constraint) -> Option<(usize, usize)> {
    // The encoder writes these coefficients as exact literals.
    let unit = |a: f64, b: f64| a == 1.0 && b == -1.0; // audit:allow(float-eq): exact ±1 literals
    match c.terms[..] {
        [(a, pa), (b, pb)] if c.sense == Sense::Ge && is_exact_zero(c.rhs) && unit(pa, pb) => {
            Some((a.0, b.0))
        }
        _ => None,
    }
}

/// Solve the closure relaxation of `problem` under objective `cost` (one
/// entry per variable; a caller passes the problem's own costs, or ones
/// it rescales uniformly) and write its source-minimal optimum into
/// `values` as `0.0` / `1.0`.
///
/// `None` — with `values` unspecified — when the closure does not apply
/// or is not certified: a variable bounded other than `[0, 1]`, `[1, 1]`
/// or `[0, 0]`, a non-finite cost, pins that no closure can honour (an
/// infinite path from source to sink), or a maximum flow and the capacity
/// of the cut it leaves that differ by more than `1e-9` relative. That
/// pair is the answer's certificate: a flow bounds every cut from below,
/// so a cut whose capacity meets it is minimum.
///
/// The workspace lends only scratch buffers: no simplex state is read or
/// changed, so a retained basis stays warm.
pub fn solve_closure_in(
    problem: &Problem,
    cost: &[f64],
    ws: &mut SimplexWorkspace,
    values: &mut Vec<f64>,
) -> Option<ClosureCut> {
    let n = problem.num_vars();
    assert_eq!(cost.len(), n, "one cost per variable");
    let w = &mut ws.closure;

    // The terminal arcs: a pin is an infinite one. Every node starts
    // unvisited by the forward pass.
    let (mut total, inf) = (0.0f64, f64::INFINITY);
    w.supply.clear();
    w.demand.clear();
    w.level.clear();
    for ((&lo, &up), &c) in problem.lower.iter().zip(&problem.upper).zip(cost) {
        let (pinned_in, pinned_out) = (lo == 1.0, is_exact_zero(up)); // audit:allow(float-eq): exact 0 / 1 bounds
        let binary = (is_exact_zero(lo) || pinned_in) && (pinned_out || up == 1.0); // audit:allow(float-eq): exact 0 / 1 bounds
        if !binary || !c.is_finite() {
            return None;
        }
        total += c.abs();
        w.supply.push(if pinned_in { inf } else { (-c).max(0.0) });
        w.demand.push(if pinned_out { inf } else { c.max(0.0) });
        w.level.push(UNVISITED);
    }

    // The difference arcs `b → a`, CSR by tail: collect the rows' pairs
    // and count each node's arcs (a reverse arc lives at its forward
    // arc's head), then place every pair.
    crate::workspace::refill(&mut w.start, n + 1, 0);
    w.pairs.clear();
    for (a, b) in problem.constraints.iter().filter_map(difference_row) {
        w.start[b + 1] += 1;
        w.start[a + 1] += 1;
        w.pairs.push((a as u32, b as u32));
    }
    for u in 0..n {
        w.start[u + 1] += w.start[u];
    }
    crate::workspace::refill(&mut w.arcs, w.start[n] as usize, Edge::default());
    w.cursor.clear();
    w.cursor.extend_from_slice(&w.start[..n]);
    for &(a, b) in &w.pairs {
        let (fwd, bwd) = (w.cursor[b as usize], w.cursor[a as usize]);
        w.cursor[b as usize] += 1;
        w.cursor[a as usize] += 1;
        w.arcs[fwd as usize] = Edge {
            head: a,
            rev: bwd,
            cap: inf,
        };
        w.arcs[bwd as usize] = Edge {
            head: b,
            rev: fwd,
            cap: 0.0,
        };
    }
    let side_rows = problem.constraints.len() - w.pairs.len();

    // Residuals at or below this are spent: roundoff left by subtracting
    // one path's flow from several capacities must not keep one alive.
    let eps = total * 1e-14;
    w.cursor.clear();
    w.cursor.extend_from_slice(&w.start[..n]);
    let (mut flow, mut phases) = (forward_pass(w, eps)?, 0u32);
    while let Some(sink_level) = reach_levels(w, eps) {
        w.cursor.clear();
        w.cursor.extend_from_slice(&w.start[..n]);
        flow += blocking_flow(w, sink_level, eps);
        phases += 1;
        if flow.is_infinite() {
            return None;
        }
    }

    // The last BFS found the residual network's reach: the source-minimal
    // minimum cut. An infinite arc never crosses it (its residual stays
    // infinite, so its head is reached too), so its capacity is that of
    // the terminal arcs it cuts: the source's to each cost `c < 0` left
    // out, the sink's from each `c > 0` taken.
    values.clear();
    let (mut cut, mut objective) = (0.0f64, 0.0f64);
    for (v, &c) in cost.iter().enumerate() {
        let taken = w.level[v] != u32::MAX;
        values.push(if taken { 1.0 } else { 0.0 });
        if taken {
            objective += c;
        }
        if taken == (c > 0.0) {
            cut += c.abs();
        }
    }
    let certified = (cut - flow).abs() <= 1e-9 * cut.abs().max(flow.abs());
    certified.then_some(ClosureCut {
        objective,
        side_rows,
        phases,
    })
}

/// The floor of `≤` row `row` over the closure polytope (the problem's
/// difference rows and variable bounds, every other row dropped): the
/// least value of the row's left-hand side there, as the [`Refutation`]
/// that proves it. The combination is the row (multiplier `1`) plus each
/// difference row `y_a − y_b ≥ 0` at minus the max flow on its arc
/// `b → a`, read off the residual network of one min-cut with the row's
/// coefficients as the costs. That flow is the cut's LP dual, so the
/// certificate's [`box_min`](Refutation::box_min), which [`Refutation`]
/// recomputes with its own arithmetic, is the floor; and the polytope is
/// integral, so no placement's left-hand side is below it. The
/// certificate refutes a right-hand side `b` ([`Refutation::refutes`])
/// when the floor clears `b` by the row tolerance per unit of multiplier.
/// It reads no right-hand side but the row's own and the difference rows'
/// zeros, so the other side rows' right-hand sides do not matter.
///
/// `None` where [`solve_closure_in`] gives no answer, and when `row` is
/// not a `≤` row (every budget row is one). The workspace lends scratch
/// buffers only, as there.
pub fn row_floor_in(
    problem: &Problem,
    row: usize,
    ws: &mut SimplexWorkspace,
) -> Option<Refutation> {
    let side = problem.constraint(row);
    if side.sense != Sense::Le {
        return None;
    }
    let n = problem.num_vars();
    let (mut cost, mut values) = (
        std::mem::take(&mut ws.closure.row_cost),
        std::mem::take(&mut ws.closure.row_values),
    );
    crate::workspace::refill(&mut cost, n, 0.0);
    for &(v, a) in &side.terms {
        cost[v.0] += a;
    }
    let cut = solve_closure_in(problem, &cost, ws, &mut values);
    let w = &mut ws.closure;
    (w.row_cost, w.row_values) = (cost, values);
    cut?;

    // Replay the network's arc placement: pair `(a, b)`'s reverse arc sits
    // at `a`'s fill pointer, and its residual is the flow on `b → a`.
    w.cursor.clear();
    w.cursor.extend_from_slice(&w.start[..n]);
    let multipliers = problem.constraints.iter().enumerate().filter_map(|(i, c)| {
        if i == row {
            return Some((i, 1.0));
        }
        let (a, b) = difference_row(c)?;
        w.cursor[b] += 1;
        let reverse = w.cursor[a] as usize;
        w.cursor[a] += 1;
        Some((i, -w.arcs[reverse].cap))
    });
    Some(Refutation::combine(problem, multipliers, 1.0))
}

/// The forward pass's node marks in `level`: a node is unvisited until a
/// search enters it, on the path while the search stands on or beyond it,
/// and dead once the search backs out of it — every arc out of it led to
/// a dead node or back onto the path, so no later search enters it.
const UNVISITED: u32 = 0;
const ON_PATH: u32 = 1;
const DEAD: u32 = 2;

/// Push flow along the forward difference arcs alone — the arcs whose
/// residual is still infinite, so no push saturates one and a path needs
/// no bottleneck but its ends' — before Dinic's first phase: from each
/// fed node in turn, depth first, `min(supply, demand)` to each node that
/// still feeds the sink. Each node's cursor is kept from one source to
/// the next, and a dead node is never entered again, so the pass is
/// linear in the arcs plus the pushes. Returns the flow pushed; `None`
/// when a pinned-in node reaches a pinned-out one. What the pass misses
/// (a demand behind a dead node or a standing path, or one that needs a
/// reverse arc) the phases find.
fn forward_pass(w: &mut ClosureScratch, eps: f64) -> Option<f64> {
    let mut pushed = 0.0;
    for src in 0..w.supply.len() {
        if w.supply[src] <= eps || w.level[src] != UNVISITED {
            continue;
        }
        w.path.clear();
        w.level[src] = ON_PATH;
        let mut u = src;
        loop {
            if w.demand[u] > eps {
                let flow = w.supply[src].min(w.demand[u]);
                if flow.is_infinite() {
                    return None;
                }
                w.supply[src] -= flow;
                w.demand[u] -= flow;
                // A forward arc's residual stays infinite.
                for &a in &w.path {
                    let rev = w.arcs[a as usize].rev as usize;
                    w.arcs[rev].cap += flow;
                }
                pushed += flow;
                if w.supply[src] <= eps {
                    break;
                }
            }
            let end = w.start[u + 1];
            while w.cursor[u] < end {
                let a = w.arcs[w.cursor[u] as usize];
                if a.cap.is_infinite() && w.level[a.head as usize] == UNVISITED {
                    break;
                }
                w.cursor[u] += 1;
            }
            if w.cursor[u] < end {
                w.path.push(w.cursor[u]);
                u = w.arcs[w.cursor[u] as usize].head as usize;
                w.level[u] = ON_PATH;
            } else {
                w.level[u] = DEAD;
                let Some(a) = w.path.pop() else { break };
                u = w.arcs[w.arcs[a as usize].rev as usize].head as usize;
                w.cursor[u] += 1;
            }
        }
        // The source ran dry with a path standing: a later source may
        // enter its nodes again, each at the arc it stood on.
        if w.level[src] == ON_PATH {
            w.level[src] = UNVISITED;
        }
        for &a in &w.path {
            w.level[w.arcs[a as usize].head as usize] = UNVISITED;
        }
    }
    Some(pushed)
}

/// BFS levels over residuals above `eps`, from every node the source
/// still feeds (level 0). The sink's level — one past the nearest node
/// that still feeds it, where the search stops: the level graph below it
/// is complete — or `None` when it is out of reach, and `level` marks the
/// residual network's whole reach.
fn reach_levels(w: &mut ClosureScratch, eps: f64) -> Option<u32> {
    let n = w.supply.len();
    crate::workspace::refill(&mut w.level, n, u32::MAX);
    w.queue.clear();
    for v in 0..n {
        if w.supply[v] > eps {
            w.level[v] = 0;
            w.queue.push(v as u32);
        }
    }
    let mut next = 0;
    while let Some(&u) = w.queue.get(next) {
        next += 1;
        let u = u as usize;
        if w.demand[u] > eps {
            return Some(w.level[u] + 1);
        }
        for a in &w.arcs[w.start[u] as usize..w.start[u + 1] as usize] {
            let v = a.head as usize;
            if a.cap > eps && w.level[v] == u32::MAX {
                w.level[v] = w.level[u] + 1;
                w.queue.push(v as u32);
            }
        }
    }
    None
}

/// A blocking flow of the level graph below `sink_level`, found depth
/// first from each fed node in turn with the current-arc pointers: the
/// flow pushed, infinite when an infinite path joins source and sink.
/// After each augmenting path the search resumes from the tail of that
/// path's first spent arc; a dead end leaves the level graph.
fn blocking_flow(w: &mut ClosureScratch, sink_level: u32, eps: f64) -> f64 {
    let mut pushed = 0.0;
    for src in 0..w.supply.len() {
        if w.level[src] != 0 {
            continue;
        }
        w.path.clear();
        while w.supply[src] > eps {
            let u = w
                .path
                .last()
                .map_or(src, |&a| w.arcs[a as usize].head as usize);
            if w.demand[u] > eps {
                let along = w.path.iter().map(|&a| w.arcs[a as usize].cap);
                let bottleneck = along.fold(w.supply[src].min(w.demand[u]), f64::min);
                if bottleneck.is_infinite() {
                    return bottleneck;
                }
                w.supply[src] -= bottleneck;
                w.demand[u] -= bottleneck;
                for &a in &w.path {
                    let arc = &mut w.arcs[a as usize];
                    arc.cap -= bottleneck;
                    let rev = arc.rev as usize;
                    w.arcs[rev].cap += bottleneck;
                }
                pushed += bottleneck;
                let first_spent = w.path.iter().position(|&a| w.arcs[a as usize].cap <= eps);
                if let Some(at) = first_spent {
                    w.path.truncate(at);
                }
                continue;
            }
            let (end, next) = (w.start[u + 1], w.level[u] + 1);
            while w.cursor[u] < end {
                let a = w.arcs[w.cursor[u] as usize];
                let v = a.head as usize;
                if a.cap > eps && w.level[v] == next && next < sink_level {
                    break;
                }
                w.cursor[u] += 1;
            }
            if w.cursor[u] < end {
                w.path.push(w.cursor[u]);
            } else {
                // Dead end: drop `u` from the level graph and step back.
                w.level[u] = u32::MAX;
                let Some(a) = w.path.pop() else { break };
                let tail = w.arcs[w.arcs[a as usize].rev as usize].head as usize;
                w.cursor[tail] += 1;
            }
        }
    }
    pushed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarId;

    fn costs(p: &Problem) -> Vec<f64> {
        (0..p.num_vars())
            .map(|j| p.objective_coeff(VarId(j)))
            .collect()
    }

    /// A three-operator chain `a ⇐ b ⇐ c` (`c` chosen needs `b`, `b`
    /// needs `a`) with one side row: the closure drops the side row, and
    /// among the two optimal closures takes the smaller.
    #[test]
    fn a_chain_closes_to_its_cheapest_and_smallest_prefix() {
        let mut p = Problem::new();
        let a = p.add_binary(2.0);
        let b = p.add_binary(-2.0);
        let c = p.add_binary(-1.0);
        p.add_constraint(&[(a, 1.0), (b, -1.0)], Sense::Ge, 0.0);
        p.add_constraint(&[(b, 1.0), (c, -1.0)], Sense::Ge, 0.0);
        p.add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], Sense::Le, 1.0);
        let (mut ws, mut values) = (SimplexWorkspace::new(), Vec::new());
        let cut = solve_closure_in(&p, &costs(&p), &mut ws, &mut values).expect("applies");
        assert_eq!(values, [1.0, 1.0, 1.0]);
        assert_eq!(cut.objective, -1.0);
        assert_eq!(cut.side_rows, 1);

        // At `c`'s cost 0, ∅, {a, b} and {a, b, c} tie: the
        // source-minimal cut chooses nothing.
        p.set_objective_coeff(c, 0.0);
        let cut = solve_closure_in(&p, &costs(&p), &mut ws, &mut values).expect("applies");
        assert_eq!(
            (values.as_slice(), cut.objective),
            (&[0.0, 0.0, 0.0][..], 0.0)
        );
    }

    /// A pinned source `x0` ⇐ `x1` ⇐ `x2` and a side row
    /// `3·x0 + 5·x1 − 4·x2 ≤ b`: its floor over the closure is 3 (at
    /// `(1, 0, 0)`), where the box alone reaches −1 (at `(1, 0, 1)`). The
    /// certificate is the row plus the flow 4 on `x1 − x2 ≥ 0`, its box
    /// minimum is the min-cut's objective, and it refutes `b` exactly when
    /// the floor clears `b` by the margin, `1e-6` per unit of multiplier.
    #[test]
    fn a_side_rows_floor_is_its_min_cut_with_the_flow_as_multipliers() {
        let mut p = Problem::new();
        let x0 = p.add_var(1.0, 1.0, 0.0, true);
        let x1 = p.add_binary(0.0);
        let x2 = p.add_binary(0.0);
        p.add_constraint(&[(x0, 1.0), (x1, -1.0)], Sense::Ge, 0.0);
        p.add_constraint(&[(x1, 1.0), (x2, -1.0)], Sense::Ge, 0.0);
        p.add_constraint(&[(x0, 3.0), (x1, 5.0), (x2, -4.0)], Sense::Le, 2.0);
        let (mut ws, mut values) = (SimplexWorkspace::new(), Vec::new());
        let cut = solve_closure_in(&p, &[3.0, 5.0, -4.0], &mut ws, &mut values).expect("applies");
        assert_eq!(
            (cut.objective, values.as_slice()),
            (3.0, &[1.0, 0.0, 0.0][..])
        );

        let floor = row_floor_in(&p, 2, &mut ws).expect("a certified cut");
        assert!((floor.box_min() - cut.objective).abs() <= 1e-9);
        assert_eq!(floor.rows(), &[(1, -4.0), (2, 1.0)]);
        // Σ|w| = 5: the floor refutes `b` below 3 − 5e-6.
        let at = |b: f64| floor.refutes(|i| if i == 2 { b } else { 0.0 });
        assert!(at(2.0) && at(3.0 - 1e-5));
        assert!(!at(3.0 - 1e-6) && !at(3.0));
        // A difference row (a `≥` row) has no floor to give.
        assert_eq!(row_floor_in(&p, 0, &mut ws), None);
    }

    /// Two fed variables `s1`, `s2` (cost −1 each) and two sinks `d1`,
    /// `d2` (cost +1 each): `s1` needs both, `s2` needs `d1`. The forward
    /// pass spends `s1`'s supply on `d1`, which `s2` needed too, and stops
    /// with `s2` still fed: one finishing phase reroutes `s1` to `d2`
    /// along `d1`'s reverse arc. ∅, `{s2, d1}` and all four tie at 0; the
    /// source-minimal cut takes nothing.
    #[test]
    fn the_finishing_phase_reroutes_what_the_forward_pass_misplaced() {
        let mut p = Problem::new();
        let s1 = p.add_binary(-1.0);
        let s2 = p.add_binary(-1.0);
        let d1 = p.add_binary(1.0);
        let d2 = p.add_binary(1.0);
        p.add_constraint(&[(d1, 1.0), (s1, -1.0)], Sense::Ge, 0.0);
        p.add_constraint(&[(d2, 1.0), (s1, -1.0)], Sense::Ge, 0.0);
        p.add_constraint(&[(d1, 1.0), (s2, -1.0)], Sense::Ge, 0.0);
        let (mut ws, mut values) = (SimplexWorkspace::new(), Vec::new());
        let cut = solve_closure_in(&p, &costs(&p), &mut ws, &mut values).expect("applies");
        assert_eq!(values, [0.0; 4]);
        assert_eq!((cut.objective, cut.phases), (0.0, 1));
    }

    /// A pinned-in `x` that needs `d` (cost 1), and `y` (cost 2), which
    /// needs a pinned-out `z`: the forward pass feeds `d` and `y` and then
    /// meets the infinite path `x → y → z`, which no closure honours.
    #[test]
    fn the_forward_pass_refuses_an_infinite_path() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, 1.0, 0.0, true);
        let y = p.add_binary(2.0);
        let d = p.add_binary(1.0);
        let z = p.add_var(0.0, 0.0, 0.0, true);
        p.add_constraint(&[(d, 1.0), (x, -1.0)], Sense::Ge, 0.0);
        p.add_constraint(&[(y, 1.0), (x, -1.0)], Sense::Ge, 0.0);
        p.add_constraint(&[(z, 1.0), (y, -1.0)], Sense::Ge, 0.0);
        let (mut ws, mut values) = (SimplexWorkspace::new(), Vec::new());
        assert_eq!(solve_closure_in(&p, &costs(&p), &mut ws, &mut values), None);
    }

    /// Pins are infinite terminal arcs; pins no closure honours, and
    /// bounds other than binary ones, are no answer.
    #[test]
    fn pins_bind_and_conflicting_pins_or_wide_bounds_refuse() {
        let mut p = Problem::new();
        let a = p.add_var(0.0, 0.0, -5.0, true);
        let b = p.add_var(1.0, 1.0, 3.0, true);
        let c = p.add_binary(1.0);
        p.add_constraint(&[(c, 1.0), (b, -1.0)], Sense::Ge, 0.0);
        let (mut ws, mut values) = (SimplexWorkspace::new(), Vec::new());
        let cut = solve_closure_in(&p, &costs(&p), &mut ws, &mut values).expect("applies");
        assert_eq!(
            (values.as_slice(), cut.objective),
            (&[0.0, 1.0, 1.0][..], 4.0)
        );

        p.add_constraint(&[(a, 1.0), (c, -1.0)], Sense::Ge, 0.0);
        assert_eq!(solve_closure_in(&p, &costs(&p), &mut ws, &mut values), None);

        let mut q = Problem::new();
        let _ = q.add_var(0.0, 2.0, -1.0, true);
        assert_eq!(solve_closure_in(&q, &costs(&q), &mut ws, &mut values), None);
    }
}
