//! The two binary ILP encodings of §4.2.1.
//!
//! **General** (equations 1–5): binary placement variables `f_v` plus two
//! continuous edge variables `e_uv, e'_uv ≥ 0` with
//! `f_u − f_v + e_uv ≥ 0` and `f_v − f_u + e'_uv ≥ 0`, so `e_uv + e'_uv`
//! is 1 exactly when the edge is cut. Supports back-and-forth
//! communication: `2|E| + |V|` variables, `4|E| + |V| + 1` constraints.
//!
//! **Restricted** (equations 6–7): with data flowing across the network at
//! most once, all edges can be oriented towards the server and
//! `f_u − f_v ≥ 0` per edge makes the cut bandwidth a *linear* function
//! `Σ (f_u − f_v)·r_uv` — only `|V|` variables and `|E| + |V| + 1`
//! constraints. This is the formulation Wishbone's prototype uses, and
//! what [`wishbone_core::encode_deployment`] must emit, bit for bit, for
//! a one-leaf star.

use wishbone_core::Pin;
use wishbone_ilp::{is_exact_zero, Problem, Sense, VarId};

use crate::cost_graph::PartitionGraph;

/// Which ILP formulation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// Single network crossing, oriented edges (§4.2.1 eq. 6–7).
    #[default]
    Restricted,
    /// Edge-variable formulation permitting back-and-forth flows
    /// (§4.2.1 eq. 3–5).
    General,
}

/// Objective and budgets: minimize `α·cpu + β·net` s.t. `cpu ≤ C`,
/// `net ≤ N` (§4, "Cost here is defined as a linear combination of CPU and
/// network usage, α·CPU + β·Net, which can be a proxy for energy usage").
#[derive(Debug, Clone, Copy)]
pub struct ObjectiveConfig {
    /// CPU weight in the objective.
    pub alpha: f64,
    /// Network weight in the objective.
    pub beta: f64,
    /// CPU budget `C` (fraction of the node CPU, 1.0 = fully utilized).
    pub cpu_budget: f64,
    /// Network budget `N` (on-air bytes/second at the tree root).
    pub net_budget: f64,
}

impl ObjectiveConfig {
    /// The paper's evaluation setting: "minimize network bandwidth subject
    /// to not exceeding CPU capacity (α = 0, β = 1)".
    pub fn bandwidth_only(cpu_budget: f64, net_budget: f64) -> Self {
        ObjectiveConfig {
            alpha: 0.0,
            beta: 1.0,
            cpu_budget,
            net_budget,
        }
    }
}

/// An encoded partitioning ILP plus the variable map needed to decode.
#[derive(Debug)]
pub struct EncodedProblem {
    /// The integer program.
    pub problem: Problem,
    /// `f` variable of each partition-graph vertex.
    pub f_vars: Vec<VarId>,
    /// Which encoding produced it.
    pub encoding: Encoding,
    /// Constraint index of the CPU-budget row (`Σ c·f ≤ C`), if emitted.
    /// Recorded so a prepared problem can be re-targeted at a new input
    /// rate by rewriting one right-hand side instead of re-encoding.
    pub cpu_row: Option<usize>,
    /// Constraint index of the network-budget row (`net ≤ N`), if emitted.
    pub net_row: Option<usize>,
}

impl EncodedProblem {
    /// Decode a solver assignment into the set of node-side vertex indices.
    pub fn decode(&self, values: &[f64]) -> std::collections::HashSet<usize> {
        self.f_vars
            .iter()
            .enumerate()
            .filter(|(_, v)| values[v.0] > 0.5)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Build the ILP for `pg` under `enc` and `obj`.
pub fn encode(pg: &PartitionGraph, enc: Encoding, obj: &ObjectiveConfig) -> EncodedProblem {
    match enc {
        Encoding::Restricted => encode_restricted(pg, obj),
        Encoding::General => encode_general(pg, obj),
    }
}

fn f_bounds(pin: Pin) -> (f64, f64) {
    match pin {
        Pin::Movable => (0.0, 1.0),
        Pin::Node => (1.0, 1.0),   // (∀u ∈ S) f_u = 1
        Pin::Server => (0.0, 0.0), // (∀v ∈ T) f_v = 0
    }
}

fn encode_restricted(pg: &PartitionGraph, obj: &ObjectiveConfig) -> EncodedProblem {
    let mut p = Problem::new();

    // net = Σ_(u,v) (f_u − f_v)·r_uv  expands to per-vertex coefficients
    // (Σ_out r − Σ_in r); the objective for f_v is α·c_v + β·(that).
    let n = pg.vertices.len();
    let mut net_coeff = vec![0.0f64; n];
    for e in &pg.edges {
        net_coeff[e.src] += e.bandwidth;
        net_coeff[e.dst] -= e.bandwidth;
    }

    let f_vars: Vec<VarId> = pg
        .vertices
        .iter()
        .enumerate()
        .map(|(v, vert)| {
            let (lo, hi) = f_bounds(vert.pin);
            let c = obj.alpha * vert.cpu_cost + obj.beta * net_coeff[v];
            p.add_var(lo, hi, c, true)
        })
        .collect();

    // (6): f_u − f_v ≥ 0 per edge.
    for e in &pg.edges {
        p.add_constraint(
            &[(f_vars[e.src], 1.0), (f_vars[e.dst], -1.0)],
            Sense::Ge,
            0.0,
        );
    }
    // (2): cpu ≤ C. An infinite budget is no constraint: the row is
    // omitted (matching the multitier encoding, which keeps the k = 2
    // case row-for-row identical even for unconstrained tiers).
    let cpu_row: Vec<(VarId, f64)> = pg
        .vertices
        .iter()
        .enumerate()
        .filter(|(_, vert)| !is_exact_zero(vert.cpu_cost))
        .map(|(v, vert)| (f_vars[v], vert.cpu_cost))
        .collect();
    let mut cpu_row_idx = None;
    if !cpu_row.is_empty() && obj.cpu_budget.is_finite() {
        cpu_row_idx = Some(p.num_constraints());
        p.add_constraint(&cpu_row, Sense::Le, obj.cpu_budget);
    }
    // (4) with (7): net ≤ N.
    let net_row: Vec<(VarId, f64)> = net_coeff
        .iter()
        .enumerate()
        .filter(|(_, &c)| !is_exact_zero(c))
        .map(|(v, &c)| (f_vars[v], c))
        .collect();
    let mut net_row_idx = None;
    if !net_row.is_empty() && obj.net_budget.is_finite() {
        net_row_idx = Some(p.num_constraints());
        p.add_constraint(&net_row, Sense::Le, obj.net_budget);
    }

    EncodedProblem {
        problem: p,
        f_vars,
        encoding: Encoding::Restricted,
        cpu_row: cpu_row_idx,
        net_row: net_row_idx,
    }
}

fn encode_general(pg: &PartitionGraph, obj: &ObjectiveConfig) -> EncodedProblem {
    let mut p = Problem::new();

    let f_vars: Vec<VarId> = pg
        .vertices
        .iter()
        .map(|vert| {
            let (lo, hi) = f_bounds(vert.pin);
            p.add_var(lo, hi, obj.alpha * vert.cpu_cost, true)
        })
        .collect();

    // Two continuous edge variables per edge, each carrying β·r in the
    // objective; at an optimum e + e' = 1 iff the edge is cut.
    let mut net_row: Vec<(VarId, f64)> = Vec::with_capacity(2 * pg.edges.len());
    for e in &pg.edges {
        let euv = p.add_var(0.0, f64::INFINITY, obj.beta * e.bandwidth, false);
        let epv = p.add_var(0.0, f64::INFINITY, obj.beta * e.bandwidth, false);
        // (3): f_u − f_v + e_uv ≥ 0  and  f_v − f_u + e'_uv ≥ 0.
        p.add_constraint(
            &[(f_vars[e.src], 1.0), (f_vars[e.dst], -1.0), (euv, 1.0)],
            Sense::Ge,
            0.0,
        );
        p.add_constraint(
            &[(f_vars[e.dst], 1.0), (f_vars[e.src], -1.0), (epv, 1.0)],
            Sense::Ge,
            0.0,
        );
        net_row.push((euv, e.bandwidth));
        net_row.push((epv, e.bandwidth));
    }

    // (2): cpu ≤ C (omitted when unconstrained, as in the restricted
    // encoding).
    let cpu_row: Vec<(VarId, f64)> = pg
        .vertices
        .iter()
        .enumerate()
        .filter(|(_, vert)| !is_exact_zero(vert.cpu_cost))
        .map(|(v, vert)| (f_vars[v], vert.cpu_cost))
        .collect();
    let mut cpu_row_idx = None;
    if !cpu_row.is_empty() && obj.cpu_budget.is_finite() {
        cpu_row_idx = Some(p.num_constraints());
        p.add_constraint(&cpu_row, Sense::Le, obj.cpu_budget);
    }
    // (4): net ≤ N.
    let mut net_row_idx = None;
    if !net_row.is_empty() && obj.net_budget.is_finite() {
        net_row_idx = Some(p.num_constraints());
        p.add_constraint(&net_row, Sense::Le, obj.net_budget);
    }

    EncodedProblem {
        problem: p,
        f_vars,
        encoding: Encoding::General,
        cpu_row: cpu_row_idx,
        net_row: net_row_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_graph::{PEdge, PVertex};
    use crate::multitier::encode_multitier;
    use crate::preprocess::tiered_from_binary;
    use std::collections::HashSet;
    use wishbone_core::TierObjective;
    use wishbone_ilp::{solve_ilp, IlpOptions};

    fn chain(bws: &[f64], cpus: &[f64]) -> PartitionGraph {
        // v0 (Node) -> v1 ... -> vn (Server); bws[i] is the edge out of vi.
        let n = cpus.len();
        assert_eq!(bws.len(), n - 1);
        let vertices = (0..n)
            .map(|i| PVertex {
                ops: vec![wishbone_dataflow::OperatorId(i)],
                cpu_cost: cpus[i],
                pin: if i == 0 {
                    Pin::Node
                } else if i == n - 1 {
                    Pin::Server
                } else {
                    Pin::Movable
                },
            })
            .collect();
        let edges = (0..n - 1)
            .map(|i| PEdge {
                src: i,
                dst: i + 1,
                bandwidth: bws[i],
                graph_edges: vec![],
            })
            .collect();
        PartitionGraph { vertices, edges }
    }

    fn solve(pg: &PartitionGraph, enc: Encoding, obj: &ObjectiveConfig) -> HashSet<usize> {
        let ep = encode(pg, enc, obj);
        let sol = solve_ilp(&ep.problem, &IlpOptions::default()).expect("solvable");
        ep.decode(&sol.values)
    }

    #[test]
    fn restricted_picks_min_bandwidth_cut_within_budget() {
        // Chain with reducing bandwidths 100, 40, 5; cpu 0.1 each stage.
        // With cpu budget 0.35 the whole movable prefix fits: cut at 5.
        let pg = chain(&[100.0, 40.0, 5.0], &[0.1, 0.1, 0.1, 0.0]);
        let obj = ObjectiveConfig::bandwidth_only(0.35, 1e9);
        let node = solve(&pg, Encoding::Restricted, &obj);
        assert_eq!(node, [0, 1, 2].into_iter().collect());
        // With budget 0.25 only one movable stage fits: cut at 40.
        let obj = ObjectiveConfig::bandwidth_only(0.25, 1e9);
        let node = solve(&pg, Encoding::Restricted, &obj);
        assert_eq!(node, [0, 1].into_iter().collect());
        // With budget 0.15 nothing extra fits: cut at 100.
        let obj = ObjectiveConfig::bandwidth_only(0.15, 1e9);
        let node = solve(&pg, Encoding::Restricted, &obj);
        assert_eq!(node, [0].into_iter().collect());
    }

    #[test]
    fn general_matches_restricted_on_dags() {
        let pg = chain(&[100.0, 40.0, 5.0], &[0.1, 0.1, 0.1, 0.0]);
        for budget in [0.15, 0.25, 0.35] {
            let obj = ObjectiveConfig::bandwidth_only(budget, 1e9);
            let a = solve(&pg, Encoding::Restricted, &obj);
            let b = solve(&pg, Encoding::General, &obj);
            assert_eq!(a, b, "budget {budget}");
        }
    }

    #[test]
    fn encoding_sizes_match_paper_formulas() {
        let pg = chain(&[100.0, 40.0, 5.0], &[0.1, 0.1, 0.1, 0.0]);
        let (v, e) = (4usize, 3usize);
        let r = encode(
            &pg,
            Encoding::Restricted,
            &ObjectiveConfig::bandwidth_only(1.0, 1e9),
        );
        assert_eq!(r.problem.num_vars(), v);
        assert!(r.problem.num_constraints() <= e + 2); // |E| + cpu + net
        let g = encode(
            &pg,
            Encoding::General,
            &ObjectiveConfig::bandwidth_only(1.0, 1e9),
        );
        assert_eq!(g.problem.num_vars(), v + 2 * e); // |V| + 2|E|
        assert!(g.problem.num_constraints() <= 2 * e + 2);
        // Only |V| variables are integer in both encodings.
        for p in [&r.problem, &g.problem] {
            let integer = (0..p.num_vars()).filter(|&j| p.is_integer(VarId(j)));
            assert_eq!(integer.count(), v);
        }
    }

    #[test]
    fn infinite_budgets_omit_rows_in_every_encoding() {
        let pg = chain(&[100.0, 40.0, 5.0], &[0.1, 0.1, 0.1, 0.0]);
        let obj = ObjectiveConfig {
            alpha: 0.0,
            beta: 1.0,
            cpu_budget: f64::INFINITY,
            net_budget: f64::INFINITY,
        };
        for enc in [Encoding::Restricted, Encoding::General] {
            let ep = encode(&pg, enc, &obj);
            assert!(ep.cpu_row.is_none(), "{enc:?} must omit an ∞ cpu row");
            assert!(ep.net_row.is_none(), "{enc:?} must omit an ∞ net row");
        }
        // The k = 2 parity contract holds even for unconstrained budgets:
        // same rows as the restricted encoding, none of them budget rows.
        let r = encode(&pg, Encoding::Restricted, &obj);
        let t = encode_multitier(
            &tiered_from_binary(&pg),
            &TierObjective {
                alpha: vec![0.0, 0.0],
                cpu_budget: vec![f64::INFINITY, f64::INFINITY],
                beta: vec![1.0],
                net_budget: vec![f64::INFINITY],
            },
        );
        assert_eq!(r.problem.num_vars(), t.problem.num_vars());
        assert_eq!(r.problem.num_constraints(), t.problem.num_constraints());
    }

    #[test]
    fn cpu_budget_infeasible_when_pinned_ops_exceed_it() {
        let mut pg = chain(&[10.0], &[0.9, 0.0]);
        pg.vertices[0].cpu_cost = 0.9; // pinned source needs 90% CPU
        let obj = ObjectiveConfig::bandwidth_only(0.5, 1e9);
        let ep = encode(&pg, Encoding::Restricted, &obj);
        assert!(solve_ilp(&ep.problem, &IlpOptions::default()).is_err());
    }

    #[test]
    fn net_budget_binds() {
        // Cutting at the cheap edge needs cpu 0.2; net budget below 100
        // forbids the all-server cut even though cpu would prefer it.
        let pg = chain(&[100.0, 5.0], &[0.1, 0.1, 0.0]);
        let obj = ObjectiveConfig {
            alpha: 1.0,
            beta: 0.0,
            cpu_budget: 1.0,
            net_budget: 50.0,
        };
        let node = solve(&pg, Encoding::Restricted, &obj);
        assert_eq!(
            node,
            [0, 1].into_iter().collect(),
            "forced past the 100-byte edge"
        );
    }

    #[test]
    fn alpha_beta_tradeoff() {
        // Moving v1 to the node costs cpu 0.5 and saves bandwidth 60.
        let pg = chain(&[100.0, 40.0], &[0.1, 0.5, 0.0]);
        // Pure bandwidth: take it.
        let node = solve(
            &pg,
            Encoding::Restricted,
            &ObjectiveConfig::bandwidth_only(1.0, 1e9),
        );
        assert!(node.contains(&1));
        // Heavy CPU weight: leave it on the server.
        let obj = ObjectiveConfig {
            alpha: 1000.0,
            beta: 1.0,
            cpu_budget: 1.0,
            net_budget: 1e9,
        };
        let node = solve(&pg, Encoding::Restricted, &obj);
        assert!(!node.contains(&1));
    }
}
