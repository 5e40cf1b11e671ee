//! Branch and bound over the LP relaxation.
//!
//! The paper's Figure 6 distinguishes the time at which lp_solve *discovers*
//! the optimal solution from the (much longer) time needed to *prove* its
//! optimality; [`IlpStats`] records both, plus every incumbent improvement,
//! so the benchmark harness can regenerate the CDF. The paper also suggests
//! terminating early using "an approximate lower bound ... based on
//! estimating how close we are to the optimal solution" — that is the
//! [`IlpOptions::rel_gap`] knob.
//!
//! Three things make the search fast (cf. lp_solve's own architecture):
//!
//! * every node's LP reuses one [`SimplexWorkspace`] — each re-enters
//!   **warm** from the last optimal basis and a short dual-simplex pass
//!   repairs (or refutes) feasibility, instead of paying a full tableau
//!   build + phase 1 from the artificial basis. The root is no exception:
//!   in a workspace that last solved the same constraint matrix (the
//!   previous probe of a rate search) it re-enters from that solve's
//!   basis, and starts cold only in a workspace that holds nothing usable;
//! * [`presolve`](crate::presolve()) runs before the root LP (bailing
//!   `Infeasible` with zero simplex iterations when bound propagation
//!   proves it) and a single-pass activity check discards hopeless
//!   children before they reach the simplex. The root gets that check
//!   only when presolve stopped short of its fixpoint: a settled
//!   presolve's last pass already ran it on the root's very bounds;
//! * open nodes live in a **best-first** [`BinaryHeap`] keyed by the
//!   parent's LP bound, so the global lower bound tightens monotonically
//!   and a limit-hit return carries a meaningful [`IlpStats::final_gap`].
//!
//! An incumbent comes from one of two places and no other: a caller's
//! seed and a node LP whose optimum is integral, each adopted only if,
//! its integer entries rounded, it holds every row (a node whose rounding
//! breaks one branches again). A seed is either eager —
//! [`IlpOptions::warm_solution`], adopted before the first node — or
//! asked for on demand ([`solve_ilp_seeded_in`]) only once the search is
//! stuck: it has solved a fixed small number of node LPs (three) and
//! holds no incumbent, or its budget ran out before it held one. A
//! search whose plunge reaches an integral node LP by then never asks,
//! which is every fleet-sized search: computing a seed costs more than
//! the node it would save. There is no rounding or repair heuristic
//! inside the search, so a run that is given no seed holds no integer
//! point until its plunge reaches one.
//!
//! A search's fixed cost is kept to its pivots: the root bound vectors
//! and every child's are taken from spares the [`SimplexWorkspace`]
//! keeps between searches, and a cold root LP factors its diagonal slack
//! basis directly (see `lu.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::presolve::{presolve, quick_infeasible, PresolveOutcome};
use crate::problem::{Problem, SolveError};
use crate::simplex::{default_iteration_limit, solve_lp_in};
use crate::workspace::{SimplexWorkspace, SolverBackend};

/// Tolerance for deciding a relaxation value is integral.
const INT_TOL: f64 = 1e-6;

/// Row tolerance of the one rule that adopts an incumbent, a seed or an
/// integral node LP's point, once its integer entries are rounded.
const ROW_TOL: f64 = 1e-6;

/// Node LPs a search solves with no incumbent before it asks for the
/// on-demand seed of [`solve_ilp_seeded_in`]: a search still holding none
/// after this many is stuck. Chosen by count: across the test suite, the
/// paper's figures and the benchmark's smoke run, a fleet-sized search
/// (15–24 rows) that is never seeded finds its first integral node LP at
/// node 2 or 3, so none of them asks, while the starved 8-channel ward,
/// whose unseeded search finds none in 20 nodes, is seeded at node 3.
const SEED_AFTER_NODES: u64 = 3;

/// Options controlling the branch-and-bound search; each field says who
/// sets it (`xtask lint`'s `config-surface` rule counts them). Presolve
/// and the per-node activity fast-fail always run.
#[derive(Debug, Clone)]
pub struct IlpOptions {
    /// Stop when `(incumbent - bound) / max(|incumbent|, 1)` falls below
    /// this. `0.0` proves optimality exactly (the default, like lp_solve).
    /// Kept, with `time_limit`: the `eeg_partition`, `tiered_eeg` and
    /// `forest_eeg` examples bound their sweeps with the two.
    pub rel_gap: f64,
    /// Abort after exploring this many nodes (best incumbent is returned,
    /// flagged unproven). Kept: the budget that repeats on any host.
    pub max_nodes: u64,
    /// Wall-clock budget; same unproven-return behaviour as `max_nodes`.
    pub time_limit: Option<Duration>,
    /// A known integer-feasible assignment adopted as the initial
    /// incumbent/cutoff when it checks out feasible, so the tree is pruned
    /// from the first node. Besides an integral node LP, the only other
    /// incumbent is a seed asked for on demand ([`solve_ilp_seeded_in`]),
    /// and only by a search that is stuck. Kept: a rate search hands each
    /// probe the previous one's placement, which costs nothing to offer; a
    /// first probe leaves the multilevel cut to be asked for on demand
    /// instead, which a search that is not stuck never does.
    pub warm_solution: Option<Vec<f64>>,
    /// Which simplex backend solves the node LPs, handed to every
    /// [`solve_lp_in`] of the search — the one LP switch: the sparse
    /// revised method (the default, at every problem size), which
    /// re-enters each LP warm from the workspace's retained basis when it
    /// can, or, when a caller names [`SolverBackend::Dense`], the
    /// reference tableau, which solves every node LP cold — which is how
    /// the differential tests and the benchmark's answer check compare
    /// the two. Kept: `benchmark/` names it.
    pub backend: SolverBackend,
}

impl Default for IlpOptions {
    fn default() -> Self {
        IlpOptions {
            rel_gap: 0.0,
            max_nodes: 1_000_000,
            time_limit: None,
            warm_solution: None,
            backend: SolverBackend::Sparse,
        }
    }
}

/// Span-style wall-clock breakdown of one solve, seconds, every phase
/// timed by [`solve_ilp_in`] itself. Encoding is the caller's and is not
/// here: a prepared instance that encodes once reports that cost once.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Root bound propagation (presolve).
    pub presolve_s: f64,
    /// Taking a seed: computing it (an on-demand seed's closure, the
    /// multilevel cut in a prepared instance), checking it and adopting
    /// it, wherever it is taken. A seed asked for after a node LP is
    /// taken inside the node loop, so that part is in `nodes_s` too.
    /// Exactly zero when no seed was offered or asked for.
    pub warm_start_s: f64,
    /// The node loop: every LP solve, branching, and heap bookkeeping.
    pub nodes_s: f64,
    /// The root node's LP relaxation alone (a part of `nodes_s`): with
    /// most solves closing in one to three nodes, this is the bucket the
    /// wall clock usually sits in.
    pub root_lp_s: f64,
}

/// Search statistics, including the discover-vs-prove timeline (Fig 6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IlpStats {
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub nodes: u64,
    /// Total simplex iterations across all nodes.
    pub simplex_iterations: u64,
    /// Node LPs re-entered from the retained basis of the shared workspace
    /// (always 0 on the reference tableau).
    pub warm_starts: u64,
    /// Node LPs built from scratch: the root when the workspace held no
    /// basis for this constraint matrix, plus any warm fallback — and on
    /// the reference tableau, every node.
    pub cold_starts: u64,
    /// Dual-simplex iterations across all nodes, on the sparse backend
    /// only: warm repairs of re-bounded children and dual-first cold
    /// starts. Counts abandoned attempts too, so with
    /// `primal_iterations` it sums to at least `simplex_iterations`.
    pub dual_iterations: u64,
    /// Primal-simplex iterations across all nodes (both phases, bound
    /// flips included).
    pub primal_iterations: u64,
    /// LU factorizations of the sparse backend's basis across all nodes
    /// (loads and warm re-entries included); zero on the dense backend.
    pub refactorizations: u64,
    /// Every improving incumbent, in the order found: the elapsed time,
    /// the number of node LPs solved by then (0 for an eager seed; the
    /// node's own index for an integral node LP), and its objective value.
    pub incumbents: Vec<(Duration, u64, f64)>,
    /// Elapsed time when the search first held an incumbent within
    /// floating-point noise (1e-6 relative) of the final best — the
    /// "discover" curve of Fig 6. Later epsilon-scale refinements between
    /// alternative optima do not move this.
    pub time_to_best: Duration,
    /// Total solve time (for a proven run, the time to *prove* optimality).
    pub total_time: Duration,
    /// True if the search space was exhausted (or closed within `rel_gap`).
    pub proved: bool,
    /// Relative gap between the incumbent and the open tree's bound at
    /// termination (nodes pruned within `rel_gap` count in
    /// [`IlpStats::best_bound`], not here).
    pub final_gap: f64,
    /// True if the node or wall-clock budget ran out before the tree was
    /// exhausted. Combined with an `Err(IterationLimit)` result this is
    /// the *timed-out-without-incumbent* signal: the probe proved
    /// nothing, and [`IlpStats::best_bound`] is all it learned.
    pub timed_out: bool,
    /// Lower bound on the optimal objective at termination: the open
    /// tree's (the best-first heap top, merged with an interrupted plunge
    /// child) and that of every node [`IlpOptions::rel_gap`] pruned, capped
    /// at the incumbent. `None` when the search ended before any node LP
    /// bounded the tree, or when infeasibility was proved outright. For a
    /// run proved with `rel_gap == 0` this equals the incumbent objective.
    pub best_bound: Option<f64>,
    /// True if a seed — [`IlpOptions::warm_solution`] or one asked for on
    /// demand ([`solve_ilp_seeded_in`]) — checked out feasible and was
    /// adopted as an incumbent.
    pub seeded: bool,
    /// Wall-clock breakdown of the solve by phase.
    pub phase_times: PhaseTimes,
}

/// An integer-feasible solution. Its search statistics are the
/// [`IlpStats`] that [`solve_ilp_in`] returns beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// Objective of the best integer-feasible assignment found.
    pub objective: f64,
    /// The assignment (integer variables are exact integers).
    pub values: Vec<f64>,
}

struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// LP bound inherited from the parent (pruning and ordering key).
    parent_bound: f64,
    depth: u32,
}

// Best-first ordering: `BinaryHeap` pops its *greatest* element, so
// "greater" means "explore sooner" — the smaller parent bound, breaking
// ties towards the deeper node (a dive-flavoured tie-break that reaches
// integer-feasible leaves, and thus the first incumbent, sooner).
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .parent_bound
            .total_cmp(&self.parent_bound)
            .then(self.depth.cmp(&other.depth))
    }
}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Node {}

/// Solve `problem` to integer optimality (or within `opts` limits) using a
/// throwaway workspace. Repeated solves of same-shaped problems, and a
/// caller that wants the search statistics, should use [`solve_ilp_in`]
/// with a caller-owned [`SimplexWorkspace`].
pub fn solve_ilp(problem: &Problem, opts: &IlpOptions) -> Result<IlpSolution, SolveError> {
    let mut ws = SimplexWorkspace::new();
    solve_ilp_in(problem, opts, &mut ws).0
}

/// Solve `problem` inside a reusable workspace, returning the statistics
/// alongside the result — the search's one report — so failed runs
/// (notably presolve-proven infeasibility, where `stats.nodes == 0`) are
/// observable too.
///
/// On [`SolverBackend::Sparse`] the root LP is warm-started like any
/// other node when `ws` retains a basis for this problem's matrix (see
/// [`solve_lp_in`]); call [`SimplexWorkspace::invalidate`] first for an
/// answer that does not depend on what `ws` solved before.
pub fn solve_ilp_in(
    problem: &Problem,
    opts: &IlpOptions,
    ws: &mut SimplexWorkspace,
) -> (Result<IlpSolution, SolveError>, IlpStats) {
    solve_ilp_seeded_in(problem, opts, ws, || None)
}

/// [`solve_ilp_in`] with a seed the search asks for only when it is
/// stuck. `seed` is called at most once, and only while no incumbent is
/// held: at the first fractional node LP from the third one on, before
/// it branches, or — if the search stops on its node
/// or time budget before that — at the stop, so a search cut short
/// before its root still returns the seed. At a stop, an adopted seed
/// that prunes every open node closes the tree: the search is proved. A
/// search that reaches an integral node LP within its first three nodes
/// (an integral root included), or that runs out of nodes to explore
/// first, never calls it. What it returns is checked and adopted exactly
/// like [`IlpOptions::warm_solution`], which, when set, is still adopted
/// before the first node.
pub fn solve_ilp_seeded_in(
    problem: &Problem,
    opts: &IlpOptions,
    ws: &mut SimplexWorkspace,
    seed: impl FnOnce() -> Option<Vec<f64>>,
) -> (Result<IlpSolution, SolveError>, IlpStats) {
    let start = Instant::now();
    ws.reset_counters();

    let mut stats = IlpStats::default();
    // Node bounds come from the workspace's spares and go back to them.
    let mut spare = std::mem::take(&mut ws.spare_bounds);
    let mut root_lower = take_bounds(&mut spare, &problem.lower);
    let mut root_upper = take_bounds(&mut spare, &problem.upper);
    let presolve_start = Instant::now();
    let outcome = presolve(problem, &mut root_lower, &mut root_upper);
    stats.phase_times.presolve_s = presolve_start.elapsed().as_secs_f64();
    // A settled presolve has just checked every row on the root's bounds.
    let mut root_checked = match outcome {
        PresolveOutcome::Feasible { settled, .. } => settled,
        PresolveOutcome::Infeasible => {
            spare.extend([root_lower, root_upper]);
            ws.spare_bounds = spare;
            stats.proved = true;
            stats.total_time = start.elapsed();
            return (Err(SolveError::Infeasible), stats);
        }
    };

    let iter_limit = default_iteration_limit(problem);

    let mut incumbent = opts
        .warm_solution
        .as_ref()
        .and_then(|eager| adopt_seed(problem, || Some(eager.clone()), start, &mut stats));
    let mut seed = Some(seed);

    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    // One child of the just-solved node is explored immediately
    // (depth-first "plunge"), the sibling parked in the best-first heap.
    // Plunging is what finds integer-feasible incumbents fast (the Fig 6
    // discover-time curve) and what keeps consecutive LPs one bound change
    // apart, so the warm-started dual repair needs only a pivot or two;
    // the heap drives the *proof*, popping the globally weakest bound so
    // the residual gap tightens monotonically.
    let mut plunge: Option<Node> = Some(Node {
        lower: root_lower,
        upper: root_upper,
        parent_bound: f64::NEG_INFINITY,
        depth: 0,
    });
    let mut hit_limit = false;
    let mut fatal: Option<SolveError> = None;
    // The least bound of a node pruned by the relative gap alone: its
    // subtree may hold a better optimum, so it bounds `best_bound`.
    let mut gap_pruned = f64::INFINITY;

    let node_loop_t = Instant::now();
    loop {
        // An exhausted tree is a finished search, even when its last
        // node was also the last one the budget allowed.
        if plunge.is_none() && heap.is_empty() {
            break;
        }
        if stats.nodes >= opts.max_nodes {
            hit_limit = true;
            break;
        }
        if let Some(tl) = opts.time_limit {
            if start.elapsed() >= tl {
                hit_limit = true;
                break;
            }
        }
        let node = match plunge.take() {
            Some(n) => {
                // The plunge child is pruned like any node; on prune, fall
                // back to the heap on the next pass.
                if let Some((inc_obj, _)) = &incumbent {
                    if n.parent_bound >= inc_obj - gap_slack(*inc_obj, opts.rel_gap) {
                        note_gap_pruned(&mut gap_pruned, n.parent_bound, *inc_obj);
                        give_bounds(&mut spare, n);
                        continue;
                    }
                }
                n
            }
            None => {
                // Best-first makes the heap top the global lower bound
                // over the open tree: once it crosses the incumbent's
                // gap-adjusted cutoff, every open node is pruned at once
                // and optimality (within rel_gap) is proved.
                let top_bound = heap
                    .peek()
                    .map(|n| n.parent_bound)
                    .expect("no plunge child, so the heap is not empty");
                if let Some((inc_obj, _)) = &incumbent {
                    if top_bound >= inc_obj - gap_slack(*inc_obj, opts.rel_gap) {
                        break;
                    }
                }
                heap.pop().expect("peek succeeded")
            }
        };

        // Activity fast-fail: hopeless children never reach the simplex.
        let checked = std::mem::take(&mut root_checked);
        if !checked && quick_infeasible(problem, &node.lower, &node.upper) {
            give_bounds(&mut spare, node);
            continue;
        }

        stats.nodes += 1;
        let root_lp_t = (stats.nodes == 1).then(Instant::now);
        let lp = solve_lp_in(
            problem,
            &node.lower,
            &node.upper,
            iter_limit,
            ws,
            opts.backend,
        );
        if let Some(t) = root_lp_t {
            stats.phase_times.root_lp_s = t.elapsed().as_secs_f64();
        }
        let lp = match lp {
            Ok(lp) => lp,
            Err(SolveError::Infeasible) => {
                give_bounds(&mut spare, node);
                continue;
            }
            Err(e) => {
                fatal = Some(e);
                break;
            }
        };
        stats.simplex_iterations += lp.iterations;

        if incumbent.is_none()
            && stats.nodes >= SEED_AFTER_NODES
            && pick_branch_var(problem, &lp.values).is_some()
        {
            if let Some(seed) = seed.take() {
                incumbent = adopt_seed(problem, seed, start, &mut stats);
            }
        }
        if let Some((inc_obj, _)) = &incumbent {
            if lp.objective >= inc_obj - gap_slack(*inc_obj, opts.rel_gap) {
                note_gap_pruned(&mut gap_pruned, lp.objective, *inc_obj);
                give_bounds(&mut spare, node);
                continue; // bound prune
            }
        }

        // An integral point is rounded and, like a seed, kept only if it
        // holds every row; else the node branches on the variable the
        // rounding moved furthest, or is dropped if none can be split.
        // Even an unmoved point is checked: an LP point can break a row
        // of ~1e3 by more than 1e-6 within its own 1e-9 tolerances.
        let branch = match pick_branch_var(problem, &lp.values) {
            Some(j) => Some((j, lp.values[j])),
            None => {
                let mut vals = lp.values;
                let furthest = round_integers(problem, &mut vals, &node.lower, &node.upper);
                if problem.is_feasible(&vals, ROW_TOL) {
                    let obj = problem.objective_value(&vals);
                    let improves = incumbent
                        .as_ref()
                        .is_none_or(|(best, _)| obj < best - 1e-12);
                    if improves {
                        stats.incumbents.push((start.elapsed(), stats.nodes, obj));
                        incumbent = Some((obj, vals));
                        // A better incumbent retires every open node above
                        // the new cutoff; dropping them eagerly keeps the
                        // best-first heap's memory proportional to the
                        // nodes that can still matter.
                        let cutoff = obj - gap_slack(obj, opts.rel_gap);
                        heap.retain(|n| {
                            let open = n.parent_bound < cutoff;
                            if !open {
                                note_gap_pruned(&mut gap_pruned, n.parent_bound, obj);
                            }
                            open
                        });
                    }
                    None
                } else {
                    furthest
                }
            }
        };
        match branch {
            None => give_bounds(&mut spare, node),
            Some((j, x)) => {
                let floor = x.floor();
                let ceil = x.ceil();
                // Down child: x_j <= floor; Up child: x_j >= ceil.
                let mut down = Node {
                    lower: take_bounds(&mut spare, &node.lower),
                    upper: take_bounds(&mut spare, &node.upper),
                    parent_bound: lp.objective,
                    depth: node.depth + 1,
                };
                down.upper[j] = floor.min(down.upper[j]);
                let mut up = Node {
                    lower: node.lower,
                    upper: node.upper,
                    parent_bound: lp.objective,
                    depth: node.depth + 1,
                };
                up.lower[j] = ceil.max(up.lower[j]);
                // Dive towards the nearer integer (the same rule the LIFO
                // search used); the sibling waits in the heap.
                if x - floor <= 0.5 {
                    heap.push(up);
                    plunge = Some(down);
                } else {
                    heap.push(down);
                    plunge = Some(up);
                }
            }
        }
    }

    stats.phase_times.nodes_s = node_loop_t.elapsed().as_secs_f64();
    if hit_limit && incumbent.is_none() {
        if let Some(seed) = seed.take() {
            incumbent = adopt_seed(problem, seed, start, &mut stats);
        }
        // The open nodes were branched with no cutoff: a seed that
        // prunes every one of them has closed the tree after all.
        if let Some((inc_obj, _)) = &incumbent {
            let cutoff = inc_obj - gap_slack(*inc_obj, opts.rel_gap);
            heap.retain(|n| {
                let open = n.parent_bound < cutoff;
                if !open {
                    note_gap_pruned(&mut gap_pruned, n.parent_bound, *inc_obj);
                }
                open
            });
            if plunge.as_ref().is_some_and(|n| n.parent_bound >= cutoff) {
                let n = plunge.take().expect("checked above");
                note_gap_pruned(&mut gap_pruned, n.parent_bound, *inc_obj);
            }
            hit_limit = !heap.is_empty() || plunge.is_some();
        }
    }
    stats.warm_starts = ws.warm_starts();
    stats.cold_starts = ws.cold_starts();
    stats.dual_iterations = ws.dual_iterations();
    stats.primal_iterations = ws.primal_iterations();
    stats.refactorizations = ws.refactorizations();
    stats.total_time = start.elapsed();
    stats.timed_out = hit_limit;

    // The heap top is the residual lower bound over the open tree
    // (best-first keeps it the minimum); an interrupted plunge child is
    // open too.
    let open_bound = heap
        .peek()
        .map(|n| n.parent_bound)
        .unwrap_or(f64::INFINITY)
        .min(
            plunge
                .as_ref()
                .map(|n| n.parent_bound)
                .unwrap_or(f64::INFINITY),
        );
    for n in heap.into_iter().chain(plunge) {
        give_bounds(&mut spare, n);
    }
    ws.spare_bounds = spare;

    if let Some(e) = fatal {
        return (Err(e), stats);
    }

    let result = match incumbent {
        Some((obj, values)) => {
            stats.proved = !hit_limit;
            let discover_tol = 1e-6 * obj.abs().max(1.0);
            stats.time_to_best = stats
                .incumbents
                .iter()
                .find(|&&(_, _, o)| o <= obj + discover_tol)
                .map(|&(t, _, _)| t)
                .unwrap_or_default();
            stats.final_gap = if open_bound < obj {
                (obj - open_bound) / obj.abs().max(1.0)
            } else {
                0.0
            };
            let lower = open_bound.min(gap_pruned).min(obj);
            stats.best_bound = lower.is_finite().then_some(lower);
            Ok(IlpSolution {
                objective: obj,
                values,
            })
        }
        None => {
            if hit_limit {
                // Timed out with no integer point: neither feasibility nor
                // infeasibility is proved. All the search learned is the
                // open-tree bound, carried in the stats so callers (e.g. a
                // rate search) can report "unproven" instead of reading
                // this as plain infeasibility.
                stats.best_bound = open_bound.is_finite().then_some(open_bound);
                Err(SolveError::IterationLimit)
            } else {
                stats.proved = true;
                Err(SolveError::Infeasible)
            }
        }
    };
    (result, stats)
}

/// Take the seed `seed` computes: round its integer entries and adopt it
/// as the incumbent when it checks out feasible, recording it in
/// `stats.incumbents` and setting `stats.seeded`. The time spent, `seed`
/// itself included, is added to `warm_start_s`.
fn adopt_seed(
    problem: &Problem,
    seed: impl FnOnce() -> Option<Vec<f64>>,
    start: Instant,
    stats: &mut IlpStats,
) -> Option<(f64, Vec<f64>)> {
    let t = Instant::now();
    let adopted = seed()
        .filter(|vals| vals.len() == problem.num_vars())
        .and_then(|mut vals| {
            round_integers(problem, &mut vals, &problem.lower, &problem.upper);
            problem.is_feasible(&vals, ROW_TOL).then(|| {
                let obj = problem.objective_value(&vals);
                stats.incumbents.push((start.elapsed(), stats.nodes, obj));
                stats.seeded = true;
                (obj, vals)
            })
        });
    stats.phase_times.warm_start_s += t.elapsed().as_secs_f64();
    adopted
}

/// Spare bound vectors a workspace keeps between searches: enough for a
/// small search's whole tree, and a bound on what a large one leaves
/// behind.
const SPARE_BOUNDS: usize = 8;

/// A copy of `bounds` in a spare vector, or a new one when none is left.
fn take_bounds(spare: &mut Vec<Vec<f64>>, bounds: &[f64]) -> Vec<f64> {
    let mut v = spare.pop().unwrap_or_default();
    v.clear();
    v.extend_from_slice(bounds);
    v
}

/// Keep a finished node's bound vectors as spares, up to [`SPARE_BOUNDS`].
fn give_bounds(spare: &mut Vec<Vec<f64>>, node: Node) {
    for v in [node.lower, node.upper] {
        if spare.len() < SPARE_BOUNDS {
            spare.push(v);
        }
    }
}

/// Absolute part of the pruning slack: a node bounded within it of the
/// incumbent cannot beat it beyond floating-point noise.
const PRUNE_TOL: f64 = 1e-9;

/// Absolute slack implied by the relative-gap termination rule.
fn gap_slack(incumbent: f64, rel_gap: f64) -> f64 {
    PRUNE_TOL + rel_gap * incumbent.abs().max(1.0)
}

/// Record the bound of a node pruned against `incumbent` when only the
/// relative gap, not the noise tolerance, pruned it.
fn note_gap_pruned(gap_pruned: &mut f64, bound: f64, incumbent: f64) {
    if bound < incumbent - PRUNE_TOL {
        *gap_pruned = gap_pruned.min(bound);
    }
}

/// Round `x`'s integer entries in place. Returns the one that moved
/// furthest, with its value before rounding, among those a branch can
/// split: `[lower, upper]` holds both integers around it (so never a
/// fixed one).
fn round_integers(
    problem: &Problem,
    x: &mut [f64],
    lower: &[f64],
    upper: &[f64],
) -> Option<(usize, f64)> {
    let mut furthest: Option<(usize, f64, f64)> = None; // (j, x_j, moved)
    for (j, v) in x.iter_mut().enumerate() {
        if !problem.integer[j] {
            continue;
        }
        let (value, rounded) = (*v, v.round());
        let moved = (value - rounded).abs();
        let splits = lower[j] <= value.floor() && value.ceil() <= upper[j];
        if moved > 0.0 && splits && furthest.is_none_or(|(_, _, m)| moved > m) {
            furthest = Some((j, value, moved));
        }
        *v = rounded;
    }
    furthest.map(|(j, value, _)| (j, value))
}

/// The integer variable whose relaxation value sits closest to a half
/// (the lowest-indexed one on a tie); `None` when `x` is integral.
fn pick_branch_var(problem: &Problem, x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (j, &v) in x.iter().enumerate() {
        if !problem.integer[j] {
            continue;
        }
        let frac = (v - v.round()).abs();
        if frac <= INT_TOL {
            continue;
        }
        let dist = (v - v.floor() - 0.5).abs(); // 0 = most fractional
        if best.is_none_or(|(_, d)| dist < d) {
            best = Some((j, dist));
        }
    }
    best.map(|(j, _)| j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense, VarId};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Solve in a fresh workspace: the solution and the search's report.
    fn solved(p: &Problem, opts: &IlpOptions) -> (IlpSolution, IlpStats) {
        let (r, stats) = solve_ilp_in(p, opts, &mut SimplexWorkspace::new());
        (r.unwrap(), stats)
    }

    #[test]
    fn knapsack_small() {
        // max 10x0 + 13x1 + 4x2 + 8x3, weights 3,4,2,3 <= 7 (binary).
        // Best: x0 + x1 = 23 (weight exactly 7).
        let mut p = Problem::new();
        let vals = [10.0, 13.0, 4.0, 8.0];
        let wts = [3.0, 4.0, 2.0, 3.0];
        let vars: Vec<_> = vals.iter().map(|&v| p.add_binary(-v)).collect();
        let row: Vec<_> = vars.iter().zip(wts).map(|(&v, w)| (v, w)).collect();
        p.add_constraint(&row, Sense::Le, 7.0);
        let (s, stats) = solved(&p, &IlpOptions::default());
        assert_close(s.objective, -23.0);
        assert_close(s.values[0], 1.0);
        assert_close(s.values[1], 1.0);
        assert!(stats.proved);
    }

    #[test]
    fn lp_integral_solution_needs_no_branching() {
        let mut p = Problem::new();
        let x = p.add_binary(-1.0);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 1.0);
        let (s, stats) = solved(&p, &IlpOptions::default());
        assert_close(s.objective, -1.0);
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn infeasible_ilp() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        assert_eq!(
            solve_ilp(&p, &IlpOptions::default()),
            Err(SolveError::Infeasible)
        );
        // Presolve proves this one before any LP is built.
        let mut ws = SimplexWorkspace::new();
        let (r, stats) = solve_ilp_in(&p, &IlpOptions::default(), &mut ws);
        assert_eq!(r, Err(SolveError::Infeasible));
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.simplex_iterations, 0);
        assert!(stats.proved);
    }

    #[test]
    fn general_integers() {
        // min -x - y, x,y integer in [0, 3.7], x + y <= 5.2  => 5 total.
        let mut p = Problem::new();
        let x = p.add_var(0.0, 3.7, -1.0, true);
        let y = p.add_var(0.0, 3.7, -1.0, true);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 5.2);
        let s = solve_ilp(&p, &IlpOptions::default()).unwrap();
        assert_close(s.objective, -5.0);
        let sum = s.values[0] + s.values[1];
        assert_close(sum, 5.0);
    }

    #[test]
    fn mixed_integer() {
        // x binary, y continuous in [0, 10]: min -(5x + y), y <= 2 + 3x.
        // x=1 => y<=5 => obj -10.
        let mut p = Problem::new();
        let x = p.add_binary(-5.0);
        let y = p.add_var(0.0, 10.0, -1.0, false);
        p.add_constraint(&[(y, 1.0), (x, -3.0)], Sense::Le, 2.0);
        let s = solve_ilp(&p, &IlpOptions::default()).unwrap();
        assert_close(s.objective, -10.0);
        assert_close(s.values[0], 1.0);
        assert_close(s.values[1], 5.0);
    }

    #[test]
    fn node_limit_returns_unproven_incumbent() {
        // A 12-item knapsack forces some branching; with a 2-node budget we
        // should either get an unproven incumbent or an error, never a
        // "proved" flag.
        let mut p = Problem::new();
        let n = 12;
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_binary(-((i % 5 + 1) as f64) - 0.37))
            .collect();
        let row: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i % 3 + 1) as f64))
            .collect();
        p.add_constraint(&row, Sense::Le, 6.5);
        let opts = IlpOptions {
            max_nodes: 2,
            ..Default::default()
        };
        match solve_ilp_in(&p, &opts, &mut SimplexWorkspace::new()) {
            (Ok(_), stats) => assert!(!stats.proved),
            (Err(SolveError::IterationLimit), _) => {}
            (Err(e), _) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn a_one_node_search_whose_root_is_integral_is_proved() {
        // The root LP is the optimum: the last node the budget allows
        // closes the tree, so the search finished rather than ran out.
        let mut p = Problem::new();
        let x = p.add_binary(-1.0);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 1.0);
        let opts = IlpOptions {
            max_nodes: 1,
            ..Default::default()
        };
        let mut ws = SimplexWorkspace::new();
        let (result, stats) = solve_ilp_in(&p, &opts, &mut ws);
        let s = result.expect("integral root");
        assert_close(s.objective, -1.0);
        assert_eq!(stats.nodes, 1);
        assert!(stats.proved);
        assert!(!stats.timed_out);
        assert_close(stats.best_bound.expect("proved bound"), -1.0);
    }

    #[test]
    fn a_one_node_search_whose_root_lp_is_infeasible_proves_infeasibility() {
        // Every pair of x, y, z covers 1, so 2(x + y + z) >= 3, yet the
        // sum is capped at 1.4. No single row tightens a bound, so
        // presolve cannot refute it; the root LP does.
        let mut p = Problem::new();
        let v: Vec<_> = (0..3).map(|_| p.add_binary(1.0)).collect();
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            p.add_constraint(&[(v[a], 1.0), (v[b], 1.0)], Sense::Ge, 1.0);
        }
        p.add_constraint(&[(v[0], 1.0), (v[1], 1.0), (v[2], 1.0)], Sense::Le, 1.4);
        let mut ws = SimplexWorkspace::new();
        for max_nodes in [1, IlpOptions::default().max_nodes] {
            let opts = IlpOptions {
                max_nodes,
                ..Default::default()
            };
            let (result, stats) = solve_ilp_in(&p, &opts, &mut ws);
            assert_eq!(result, Err(SolveError::Infeasible), "max_nodes {max_nodes}");
            assert_eq!(stats.nodes, 1, "the root LP, not presolve, refutes it");
            assert!(stats.proved);
            assert!(!stats.timed_out);
        }
        let dense = IlpOptions {
            backend: SolverBackend::Dense,
            ..Default::default()
        };
        let (result, stats) = solve_ilp_in(&p, &dense, &mut ws);
        assert_eq!(result, Err(SolveError::Infeasible));
        assert_eq!(
            stats.nodes, 1,
            "the reference tableau refutes the root LP too"
        );
    }

    #[test]
    fn a_node_point_whose_rounding_breaks_a_row_is_no_incumbent() {
        // min −10y s.t. 1700y ≤ 1699.9999983: presolve keeps y ≤ 1, the
        // LP sits at y = 1 − 1e-9, within INT_TOL of 1, but y = 1 breaks
        // the row by 1.7e-6, more than the 1e-6 a seed is held to.
        let mut p = Problem::new();
        let y = p.add_binary(-10.0);
        p.add_constraint(&[(y, 1700.0)], Sense::Le, 1_699.999_998_3);
        for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
            let opts = IlpOptions {
                backend,
                ..Default::default()
            };
            let (s, stats) = solved(&p, &opts);
            assert_eq!(s.values, [0.0], "{backend:?}");
            assert_eq!(s.objective, 0.0, "{backend:?}");
            assert!(p.is_feasible(&s.values, 1e-6));
            assert!(stats.proved, "{backend:?}");
        }
    }

    /// Two implication chains `a_{i+1} ≥ a_i + 1`, `b_{i+1} ≥ b_i + 1`
    /// of `len` links from `a_0, b_0 ≥ 1`, capped by `a_len + b_len ≤
    /// 2·len + 1` — infeasible, since each end is at least `len + 1`.
    /// The cap comes first and each chain's links run from its end
    /// back, so a pass carries the lower bounds one link further: the
    /// cap row sees both ends at `len + 1` only after pass `len`.
    fn capped_chains(len: usize) -> Problem {
        let mut p = Problem::new();
        let mut chain = || -> Vec<VarId> {
            (0..=len)
                .map(|i| p.add_var(if i == 0 { 1.0 } else { 0.0 }, f64::INFINITY, 0.0, false))
                .collect()
        };
        let (a, b) = (chain(), chain());
        let cap = (2 * len + 1) as f64;
        p.add_constraint(&[(a[len], 1.0), (b[len], 1.0)], Sense::Le, cap);
        for x in [&a, &b] {
            for i in (0..len).rev() {
                p.add_constraint(&[(x[i], 1.0), (x[i + 1], -1.0)], Sense::Le, -1.0);
            }
        }
        p
    }

    #[test]
    fn a_presolve_stopped_by_its_pass_cap_leaves_the_root_fast_fail_on() {
        use crate::presolve::{presolve, MAX_PASSES};
        let run = |p: &Problem| presolve(p, &mut p.lower.clone(), &mut p.upper.clone());
        // One link shorter, the last pass refutes it itself.
        assert_eq!(
            run(&capped_chains(MAX_PASSES - 1)),
            PresolveOutcome::Infeasible
        );
        // At the cap, the last pass lifts both ends after the cap row
        // was checked: presolve stops unsettled on a box whose cap row
        // is already violated, and only the root's activity check sees
        // it — no LP is solved.
        let p = capped_chains(MAX_PASSES);
        assert!(matches!(
            run(&p),
            PresolveOutcome::Feasible { settled: false, .. }
        ));
        let mut ws = SimplexWorkspace::new();
        let (result, stats) = solve_ilp_in(&p, &IlpOptions::default(), &mut ws);
        assert_eq!(result, Err(SolveError::Infeasible));
        assert_eq!(stats.nodes, 0, "the root fast-fail refuted it");
        assert!(stats.proved);
    }

    #[test]
    fn timeout_without_incumbent_carries_best_bound() {
        // min x + y + z s.t. 2x + 2y + 2z >= 3 over binaries: the root
        // LP is fractional at 1.5, so one node cannot produce an
        // incumbent, and bound propagation cannot crack it (any two
        // variables cover the row, so no bound tightens). The limit-hit
        // return must be distinguishable from proven infeasibility:
        // timed_out set, proved unset, and the open-tree bound (1.5
        // after the root branches) reported.
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(1.0);
        let z = p.add_binary(1.0);
        p.add_constraint(&[(x, 2.0), (y, 2.0), (z, 2.0)], Sense::Ge, 3.0);
        let opts = IlpOptions {
            max_nodes: 1,
            ..Default::default()
        };
        let mut ws = SimplexWorkspace::new();
        let (result, stats) = solve_ilp_in(&p, &opts, &mut ws);
        assert_eq!(result, Err(SolveError::IterationLimit));
        assert!(stats.timed_out, "limit hit must be flagged");
        assert!(!stats.proved);
        let bound = stats.best_bound.expect("root LP bounded the tree");
        assert!((bound - 1.5).abs() < 1e-6, "open bound {bound}");
        // The same instance without the limit solves fine — the timeout
        // signal never fires on a completed search.
        let (full, full_stats) = solve_ilp_in(&p, &IlpOptions::default(), &mut ws);
        let full = full.expect("feasible");
        assert!(!full_stats.timed_out);
        assert!(full_stats.proved);
        assert_close(full.objective, 2.0);
        assert_close(full_stats.best_bound.expect("proved bound"), 2.0);
    }

    #[test]
    fn an_unseeded_search_has_no_incumbent_before_its_first_integral_lp() {
        // min -5x - 4y - 3z, 4x + 3y + 2z <= 4 over binaries. The root LP
        // takes z whole and y at 2/3 (objective -17/3); its floor, z
        // alone, is feasible — but an incumbent is a seed or an integral
        // node LP, never a rounded one, so one node proves nothing.
        let mut p = Problem::new();
        let x = p.add_binary(-5.0);
        let y = p.add_binary(-4.0);
        let z = p.add_binary(-3.0);
        p.add_constraint(&[(x, 4.0), (y, 3.0), (z, 2.0)], Sense::Le, 4.0);
        let one_node = IlpOptions {
            max_nodes: 1,
            ..Default::default()
        };
        let mut ws = SimplexWorkspace::new();
        let (result, stats) = solve_ilp_in(&p, &one_node, &mut ws);
        assert_eq!(result, Err(SolveError::IterationLimit));
        assert!(stats.timed_out);
        assert!(!stats.proved);
        assert!(stats.incumbents.is_empty());
        assert_close(
            stats.best_bound.expect("root LP bounded the tree"),
            -17.0 / 3.0,
        );
        // Seeded with that same floored point, the one node returns it.
        let seeded = IlpOptions {
            warm_solution: Some(vec![0.0, 0.0, 1.0]),
            ..one_node
        };
        let (result, stats) = solve_ilp_in(&p, &seeded, &mut ws);
        let s = result.expect("the seed is an incumbent");
        assert!(stats.seeded);
        assert!(!stats.proved);
        assert_close(s.objective, -3.0);
        assert_eq!(stats.incumbents.len(), 1);
    }

    #[test]
    fn an_on_demand_seed_is_asked_for_only_by_a_stuck_search_or_a_stop() {
        // A knapsack whose unseeded search meets its first integral node
        // LP at node 8: stuck, it asks once, after node
        // `SEED_AFTER_NODES`, and the seed is the incumbent from there.
        let mut stuck = Problem::new();
        let items: Vec<_> = [5.0, 4.0, 3.0, 7.0, 2.0]
            .iter()
            .map(|&c| (stuck.add_binary(-c), c + 0.5))
            .collect();
        stuck.add_constraint(&items, Sense::Le, 7.3);
        let mut ws = SimplexWorkspace::new();
        let (unseeded, plain) = solve_ilp_in(&stuck, &IlpOptions::default(), &mut ws);
        assert_eq!(
            plain.incumbents[0].1, 8,
            "the unseeded search's first incumbent"
        );
        let mut asked = 0;
        let seed = || {
            asked += 1;
            Some(vec![0.0; 5])
        };
        let (result, stats) = solve_ilp_seeded_in(&stuck, &IlpOptions::default(), &mut ws, seed);
        assert_eq!(asked, 1, "a stuck search asks once");
        assert!(stats.seeded && stats.proved);
        assert_eq!(stats.incumbents[0].1, SEED_AFTER_NODES);
        assert_close(result.unwrap().objective, unseeded.unwrap().objective);

        // A fractional root whose plunge lands on an integral node LP at
        // once is not stuck: min −x − y, x + y ≤ 1.5 over binaries.
        let mut quick = Problem::new();
        let (x, y) = (quick.add_binary(-1.0), quick.add_binary(-1.0));
        quick.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 1.5);
        let never = || -> Option<Vec<f64>> { panic!("no seed is needed") };
        let (result, stats) = solve_ilp_seeded_in(&quick, &IlpOptions::default(), &mut ws, never);
        assert_close(result.unwrap().objective, -1.0);
        assert!(stats.nodes > 1 && !stats.seeded);
        assert_eq!(stats.incumbents[0].1, 2, "the root was fractional");

        // Stopped by its budget before it is stuck, a search asks at the
        // stop: the knapsack of the test above, one node.
        let mut p = Problem::new();
        let x = p.add_binary(-5.0);
        let y = p.add_binary(-4.0);
        let z = p.add_binary(-3.0);
        p.add_constraint(&[(x, 4.0), (y, 3.0), (z, 2.0)], Sense::Le, 4.0);
        let one_node = IlpOptions {
            max_nodes: 1,
            ..Default::default()
        };
        let mut asked = 0;
        let seed = || {
            asked += 1;
            Some(vec![0.0, 0.0, 1.0])
        };
        let (result, stats) = solve_ilp_seeded_in(&p, &one_node, &mut ws, seed);
        assert_eq!(asked, 1, "a stop with no incumbent asks once");
        assert_close(result.expect("the seed is an incumbent").objective, -3.0);
        assert!(stats.seeded && !stats.proved);
        assert_eq!(stats.nodes, 1);

        // Stopped before its root, the search asks at the stop.
        let no_time = IlpOptions {
            time_limit: Some(Duration::ZERO),
            ..Default::default()
        };
        let mut asked = 0;
        let seed = || {
            asked += 1;
            Some(vec![0.0, 0.0, 1.0])
        };
        let (result, stats) = solve_ilp_seeded_in(&p, &no_time, &mut ws, seed);
        assert_eq!((asked, stats.nodes), (1, 0));
        assert!(result.is_ok() && stats.seeded && stats.timed_out);

        // An eager seed is held before the root, so nothing is asked;
        // neither is it by an integral root LP, nor by an infeasible one.
        let eager = IlpOptions {
            warm_solution: Some(vec![0.0, 1.0, 0.0]),
            ..one_node
        };
        let never = || -> Option<Vec<f64>> { panic!("no seed is needed") };
        let (result, stats) = solve_ilp_seeded_in(&p, &eager, &mut ws, never);
        assert_close(result.expect("the eager seed").objective, -4.0);
        assert!(stats.seeded);
        let mut integral = Problem::new();
        let x = integral.add_binary(-1.0);
        integral.add_constraint(&[(x, 1.0)], Sense::Le, 1.0);
        let (result, stats) = solve_ilp_seeded_in(&integral, &one_node, &mut ws, never);
        assert!(result.is_ok() && stats.proved && !stats.seeded);
        let mut infeasible = Problem::new();
        let v: Vec<_> = (0..3).map(|_| infeasible.add_binary(1.0)).collect();
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            infeasible.add_constraint(&[(v[a], 1.0), (v[b], 1.0)], Sense::Ge, 1.0);
        }
        let all: Vec<_> = v.iter().map(|&x| (x, 1.0)).collect();
        infeasible.add_constraint(&all, Sense::Le, 1.4);
        let (result, _) = solve_ilp_seeded_in(&infeasible, &one_node, &mut ws, never);
        assert_eq!(result, Err(SolveError::Infeasible));
    }

    #[test]
    fn a_seed_taken_at_a_stop_that_prunes_every_open_node_closes_the_tree() {
        // min x + y + z, 2x + 2y + 2z ≥ 3 over binaries: the root LP is
        // 1.5 and fractional. Stopped after it, the search takes the seed
        // (1, 1, 0), objective 2; within a 50 % gap it prunes both open
        // children, bound 1.5, so the search is finished, not cut short.
        let mut p = Problem::new();
        let v: Vec<_> = (0..3).map(|_| p.add_binary(1.0)).collect();
        p.add_constraint(&[(v[0], 2.0), (v[1], 2.0), (v[2], 2.0)], Sense::Ge, 3.0);
        let opts = IlpOptions {
            max_nodes: 1,
            rel_gap: 0.5,
            ..Default::default()
        };
        let seed = || Some(vec![1.0, 1.0, 0.0]);
        let mut ws = SimplexWorkspace::new();
        let (result, stats) = solve_ilp_seeded_in(&p, &opts, &mut ws, seed);
        assert_close(result.expect("the seed").objective, 2.0);
        assert!(stats.seeded && stats.proved && !stats.timed_out);
        assert_close(stats.best_bound.expect("the pruned children's bound"), 1.5);
        // Within no gap it prunes nothing: the search was cut short.
        let exact = IlpOptions {
            rel_gap: 0.0,
            ..opts
        };
        let (result, stats) = solve_ilp_seeded_in(&p, &exact, &mut ws, seed);
        assert_close(result.expect("the seed").objective, 2.0);
        assert!(stats.seeded && !stats.proved && stats.timed_out);
        assert_close(stats.best_bound.expect("the open children's bound"), 1.5);
    }

    #[test]
    fn adopted_warm_solution_is_flagged_seeded() {
        let mut p = Problem::new();
        let vals = [10.0, 13.0, 4.0, 8.0];
        let wts = [3.0, 4.0, 2.0, 3.0];
        let vars: Vec<_> = vals.iter().map(|&v| p.add_binary(-v)).collect();
        let row: Vec<_> = vars.iter().zip(wts).map(|(&v, w)| (v, w)).collect();
        p.add_constraint(&row, Sense::Le, 7.0);
        let opts = IlpOptions {
            warm_solution: Some(vec![0.0, 0.0, 1.0, 1.0]),
            ..Default::default()
        };
        let mut ws = SimplexWorkspace::new();
        let (result, stats) = solve_ilp_in(&p, &opts, &mut ws);
        let s = result.expect("feasible");
        assert!(stats.seeded, "feasible warm solution must seed the search");
        assert_close(s.objective, -23.0);
        // The seed is the first recorded incumbent.
        assert_close(stats.incumbents[0].2, -12.0);
        // An infeasible seed is ignored, not adopted.
        let bad = IlpOptions {
            warm_solution: Some(vec![1.0, 1.0, 1.0, 1.0]),
            ..Default::default()
        };
        let (_, stats) = solve_ilp_in(&p, &bad, &mut ws);
        assert!(!stats.seeded);
    }

    #[test]
    fn incumbent_timeline_is_monotone() {
        let mut p = Problem::new();
        let vars: Vec<_> = (0..10)
            .map(|i| p.add_binary(-(1.0 + (i as f64) * 0.3)))
            .collect();
        let row: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&row, Sense::Le, 4.0);
        let (_, stats) = solved(&p, &IlpOptions::default());
        for w in stats.incumbents.windows(2) {
            assert!(w[1].2 < w[0].2, "objectives must strictly improve");
            assert!(w[1].0 >= w[0].0, "times must be nondecreasing");
            assert!(w[1].1 >= w[0].1, "node indices must be nondecreasing");
        }
        assert!(stats.time_to_best <= stats.total_time);
    }

    #[test]
    fn warm_starts_are_recorded_and_agree_with_cold() {
        // A knapsack that needs branching: the default (warm) search must
        // report warm starts and match the reference tableau's all-cold
        // search exactly.
        let mut p = Problem::new();
        let vars: Vec<_> = (0..10)
            .map(|i| p.add_binary(-((i * 3 % 7) as f64 + 1.21)))
            .collect();
        let row: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i % 4 + 1) as f64 + 0.5))
            .collect();
        p.add_constraint(&row, Sense::Le, 9.7);
        let (warm, warm_stats) = solved(&p, &IlpOptions::default());
        let (cold, cold_stats) = solved(
            &p,
            &IlpOptions {
                backend: SolverBackend::Dense,
                ..Default::default()
            },
        );
        assert_close(warm.objective, cold.objective);
        assert!(warm_stats.nodes > 1, "instance must branch");
        assert!(warm_stats.warm_starts > 0, "children must re-enter warm");
        assert_eq!(cold_stats.warm_starts, 0);
        assert_eq!(cold_stats.cold_starts, cold_stats.nodes);
    }

    #[test]
    fn warm_incumbent_seed_prunes_from_the_start() {
        // Seed the known optimum of a small knapsack: the search must
        // accept it and still prove optimality.
        let mut p = Problem::new();
        let vals = [10.0, 13.0, 4.0, 8.0];
        let wts = [3.0, 4.0, 2.0, 3.0];
        let vars: Vec<_> = vals.iter().map(|&v| p.add_binary(-v)).collect();
        let row: Vec<_> = vars.iter().zip(wts).map(|(&v, w)| (v, w)).collect();
        p.add_constraint(&row, Sense::Le, 7.0);
        let opts = IlpOptions {
            warm_solution: Some(vec![1.0, 1.0, 0.0, 0.0]),
            ..Default::default()
        };
        let (s, stats) = solved(&p, &opts);
        assert_close(s.objective, -23.0);
        assert!(stats.proved);
        assert_eq!(
            stats.incumbents.first().map(|&(_, _, o)| o),
            Some(-23.0),
            "seed adopted as the first incumbent"
        );
    }

    #[test]
    fn infeasible_warm_seed_is_ignored() {
        let mut p = Problem::new();
        let x = p.add_binary(-1.0);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 0.0);
        let opts = IlpOptions {
            warm_solution: Some(vec![1.0]), // violates the constraint
            ..Default::default()
        };
        let s = solve_ilp(&p, &opts).unwrap();
        assert_close(s.objective, 0.0);
    }
}
