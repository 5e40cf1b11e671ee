//! The one ILP encoding: coupled monotone cuts over a deployment tree.
//!
//! Every leaf class of a [`Deployment`](crate::topology::Deployment)
//! assigns each operator a position on its root path via monotone
//! indicator variables `y_u^b = 1 ⇔ position(u) ≤ b`; sites couple the
//! classes through one CPU row and one uplink row each
//! ([`encode_deployment`]). The paper's §4.2.1 *restricted* formulation
//! (eq. 6–7: `f_u − f_v ≥ 0` per edge, cut bandwidth linear in `f`) is
//! the one-leaf, two-site case of it — `y^0 = f` — and a k-tier chain is
//! the one-leaf path. Both of those shapes survive as standalone encoders
//! in the dev-only `wishbone_oracle` crate, where the parity suites pin
//! this encoder to them bit for bit.

use wishbone_ilp::{is_exact_zero, Problem, Sense, VarId};

use crate::cost_graph::Pin;
use crate::multitier::TieredGraph;

/// Per-tier / per-link objective weights and budgets of one leaf's
/// root path seen as a chain — what the per-leaf §4.1 merge
/// ([`crate::multitier::preprocess_tiered`]) reasons about.
///
/// `alpha`/`cpu_budget` have one entry per tier (CPU weight and budget on
/// that tier's platform; `f64::INFINITY` omits the budget row), while
/// `beta`/`net_budget` have one entry per *link* — the uplink from tier
/// `b` to tier `b+1`.
#[derive(Debug, Clone)]
pub struct TierObjective {
    /// CPU weight per tier (length `k`).
    pub alpha: Vec<f64>,
    /// CPU budget per tier (length `k`; `INFINITY` = unconstrained).
    pub cpu_budget: Vec<f64>,
    /// Bandwidth weight per link (length `k − 1`).
    pub beta: Vec<f64>,
    /// Bandwidth budget per link, bytes/second (length `k − 1`;
    /// `INFINITY` = unconstrained).
    pub net_budget: Vec<f64>,
}

impl TierObjective {
    /// The paper's evaluation setting generalized to a chain: minimize the
    /// sum of all link bandwidths subject to every tier's CPU budget and
    /// every link's bandwidth budget (α = 0 per tier, β = 1 per link).
    pub fn bandwidth_only(cpu_budgets: Vec<f64>, net_budgets: Vec<f64>) -> Self {
        assert_eq!(cpu_budgets.len(), net_budgets.len() + 1);
        TierObjective {
            alpha: vec![0.0; cpu_budgets.len()],
            beta: vec![1.0; net_budgets.len()],
            cpu_budget: cpu_budgets,
            net_budget: net_budgets,
        }
    }

    /// Number of tiers.
    pub fn tiers(&self) -> usize {
        self.alpha.len()
    }
}

/// A CPU-budget row of the encoding, kept so prepared problems can be
/// re-targeted at a new input rate in place.
#[derive(Debug, Clone, Copy)]
pub struct CpuRow {
    /// Constraint index within the problem.
    pub row: usize,
    /// Unit-rate constant already folded into the right-hand side. The
    /// last tier's row is `Σ c·(1 − y) ≤ C`, stored as
    /// `−Σ c·y ≤ C − Σ c`; re-targeting at rate `r` must set the rhs to
    /// `C/r − shift`, not `C/r`.
    pub shift: f64,
}

/// One leaf class of a tree deployment, ready to encode: the (merged)
/// chain graph along the leaf's root path, plus the site index at every
/// path position and the leaf's device count.
///
/// Each leaf class runs its own instance of the program along its own
/// mote → gateway → … → server path; what couples the classes is the
/// *sites*: a gateway's CPU row and uplink row sum the contributions of
/// every leaf class routed through it.
#[derive(Debug, Clone)]
pub struct LeafChain<'g> {
    /// The leaf's chain graph (tiers = `path.len()`), built over the
    /// path's platforms and optionally merged by
    /// [`crate::multitier::preprocess_tiered`]. Borrowed: the encoder
    /// only reads it, and [`EncodedDeployment`] retains nothing from it.
    pub graph: &'g TieredGraph,
    /// Site index at each path position, leaf first, root last.
    pub path: Vec<usize>,
    /// Device count of the leaf class.
    pub count: f64,
}

/// Per-site weights, budgets, and counts of a tree deployment, indexed by
/// site. `beta`/`net_budget` describe each non-root site's *uplink* (the
/// tree edge towards its parent); the root entries are ignored.
#[derive(Debug, Clone)]
pub struct DeploymentObjective {
    /// CPU weight per site.
    pub alpha: Vec<f64>,
    /// CPU budget per site, as a fraction of one device's CPU
    /// (`INFINITY` = unconstrained).
    pub cpu_budget: Vec<f64>,
    /// Device count per site (≥ 1; leaf counts multiply the traffic and
    /// relay load offered upward, interior counts divide it — a site's
    /// row measures the per-device load of its busiest representative
    /// under perfect balancing).
    pub count: Vec<f64>,
    /// Uplink bandwidth weight per site (root entry unused).
    pub beta: Vec<f64>,
    /// Uplink bandwidth budget per site, aggregate on-air bytes/second
    /// across the whole subtree (root entry unused; `INFINITY` omits the
    /// row).
    pub net_budget: Vec<f64>,
    /// Canonical row-emission order of sites: depth-descending, index
    /// ascending. For a path deployment this is leaf → … → root, which is
    /// what makes the encoding row-for-row identical to the chain oracle
    /// (`wishbone_oracle::encode_multitier`).
    pub row_order: Vec<usize>,
}

/// An encoded tree-deployment ILP plus the variable map to decode it.
///
/// Each leaf class assigns every vertex `u` of its chain graph a path
/// position `t(u) ∈ {0, …, k−1}` via `k − 1` **monotone indicator
/// variables** `y_u^b = 1 ⇔ t(u) ≤ b`:
///
/// * monotonicity rows `y_u^{b+1} − y_u^b ≥ 0` — unit-coefficient,
///   two-nonzero rows, upper-triangular in the boundary-major variable
///   order, exactly the structure the sparse backend's singleton-peel LU
///   preorder factors fill-free;
/// * per-edge precedence `y_u^b − y_v^b ≥ 0` for every boundary (data
///   flows strictly towards the root: `t(u) ≤ t(v)`), the k-way
///   generalization of §4.2.1 eq. 6;
/// * per **site** one CPU row `Σ_u c_u^t (y_u^t − y_u^{t−1}) ≤ C_t` (with
///   `y^{−1} = 0`, `y^{k−1} = 1`) and one uplink row
///   `Σ_{(u,v)} r_{uv}^b (y_u^b − y_v^b) ≤ N_b` — an edge is carried over
///   hop `b` exactly when `t(u) ≤ b < t(v)`, relays store-and-forward —
///   each summing every leaf class routed through the site, weighted by
///   device counts.
///
/// With a single leaf the encoding degenerates — row for row, bit for
/// bit — into the chain oracle `wishbone_oracle::encode_multitier` (and
/// thus, for a 2-site star, into the paper's binary restricted encoding,
/// `y^0 = f`), which is the differential parity anchor pinned by
/// `tests/proptest_deployment.rs`.
#[derive(Debug)]
pub struct EncodedDeployment {
    /// The integer program.
    pub problem: Problem,
    /// `y_vars[l][b][v]`: indicator "leaf `l`'s vertex `v` sits at path
    /// position ≤ `b`".
    pub y_vars: Vec<Vec<Vec<VarId>>>,
    /// CPU-budget row per site (`None` when infinite or empty), with the
    /// folded root-row constant for in-place rate re-targeting.
    pub cpu_rows: Vec<Option<CpuRow>>,
    /// Uplink-budget row per site (`None` for the root and for
    /// infinite/empty budgets).
    pub net_rows: Vec<Option<usize>>,
    /// Constant objective term at unit rate (root CPU charged at
    /// `α_root`), invisible to the solver.
    pub objective_offset: f64,
}

impl EncodedDeployment {
    /// Recompute every count-, weight-, and budget-dependent coefficient
    /// of this encoding in place — [`encode_deployment`]'s own arithmetic
    /// (`Coefficients`), written through [`Problem::rewrite_constraint`]
    /// and [`Problem::set_objective_coeff`] so variable and row indices
    /// stay stable and a branch-and-bound incumbent warm start survives.
    /// Each budget row's terms are rewritten into that row's own storage,
    /// so once every row has held its longest form a rescale allocates
    /// only its per-leaf bandwidth tables.
    ///
    /// `leaves` must have the structure this encoding was built from
    /// (same chain graphs, same paths); device counts and `obj` entries
    /// may differ. A removed leaf class is expressed as `count = 0.0`,
    /// which zeroes its traffic in every shared CPU and uplink row; its
    /// indicator block stays in the problem with zero weight. Budget
    /// finiteness must match the original encoding — a budget row cannot
    /// be added or removed in place (callers flipping a budget between
    /// finite and infinite must re-encode).
    pub fn rescale_in_place(&mut self, leaves: &[LeafChain<'_>], obj: &DeploymentObjective) {
        let co = Coefficients::new(leaves, obj);
        assert_eq!(leaves.len(), self.y_vars.len(), "leaf set must match");
        for (leaf, y_l) in leaves.iter().zip(&self.y_vars) {
            assert_eq!(y_l.len(), leaf.path.len() - 1, "path drift");
            assert!(leaf.count >= 0.0);
        }

        for (l, y_l) in self.y_vars.iter().enumerate() {
            for (b, y_b) in y_l.iter().enumerate() {
                for (v, &y) in y_b.iter().enumerate() {
                    self.problem.set_objective_coeff(y, co.y_cost(l, b, v));
                }
            }
        }

        // A budget row whose every contribution vanished (all crossing
        // classes removed) keeps one zero-weight term so it stays a
        // well-formed, trivially slack row. Rescale-only: the encoder
        // omits an empty row instead.
        let y_vars = &self.y_vars;
        let or_placeholder = |terms: &mut Vec<(VarId, f64)>, s: usize| {
            if terms.is_empty() {
                let (l, t) = co
                    .crossing(s)
                    .next()
                    .expect("an encoded row has a crossing leaf");
                terms.push((y_vars[l][t.min(leaves[l].path.len() - 2)][0], 0.0));
            }
        };
        for s in 0..obj.alpha.len() {
            if let Some(CpuRow { row, .. }) = self.cpu_rows[s] {
                let budget = obj.cpu_budget[s];
                assert!(
                    budget.is_finite(),
                    "site {s}: cannot drop a CPU row in place"
                );
                let mut shift = 0.0;
                self.problem
                    .rewrite_constraint(row, Sense::Le, budget, |terms| {
                        shift = co.cpu_row(y_vars, s, terms);
                        or_placeholder(terms, s);
                    });
                self.problem.set_rhs(row, budget - shift);
                self.cpu_rows[s] = Some(CpuRow { row, shift });
            }
            if let Some(row) = self.net_rows[s] {
                let budget = obj.net_budget[s];
                assert!(
                    budget.is_finite(),
                    "site {s}: cannot drop an uplink row in place"
                );
                self.problem
                    .rewrite_constraint(row, Sense::Le, budget, |terms| {
                        co.net_row(y_vars, s, terms);
                        or_placeholder(terms, s);
                    });
            }
        }
        self.objective_offset = co.root_cpu_offset();

        #[cfg(debug_assertions)]
        crate::audit::audit_deployment(self).assert_no_errors("rescale_in_place");
    }

    /// Decode a solver assignment into per-leaf vertex path positions.
    pub fn decode(&self, values: &[f64]) -> Vec<Vec<usize>> {
        (0..self.y_vars.len())
            .map(|l| {
                let mut tiers = Vec::new();
                self.decode_leaf_into(l, values, &mut tiers);
                tiers
            })
            .collect()
    }

    /// Leaf `l`'s vertex path positions under `values`, pushed onto
    /// `tiers` — [`decode`](Self::decode) of one leaf, into a caller's
    /// buffer.
    pub(crate) fn decode_leaf_into(&self, l: usize, values: &[f64], tiers: &mut Vec<usize>) {
        let leaf = &self.y_vars[l];
        let n = leaf.first().map_or(0, Vec::len);
        let k = leaf.len() + 1;
        tiers.extend((0..n).map(|v| {
            leaf.iter()
                .position(|b| values[b[v].0] > 0.5)
                .unwrap_or(k - 1)
        }));
    }
}

/// The count-, weight- and budget-dependent arithmetic of the encoding,
/// stated once: [`encode_deployment`] `add_var`s / `add_constraint`s what
/// [`EncodedDeployment::rescale_in_place`] `set_objective_coeff`s /
/// `replace_constraint`s, so the two agree bit for bit by construction.
struct Coefficients<'a, 'g> {
    leaves: &'a [LeafChain<'g>],
    obj: &'a DeploymentObjective,
    /// [`leaf_net`] of every leaf.
    net: Vec<Vec<f64>>,
}

/// `net[b·n + v]` (`n` vertices): the net bandwidth vertex `v` of `leaf`
/// adds to hop `b` when it sits at or below it (leaf-local, unscaled —
/// counts are applied at the point of use so a count of 1 reproduces the
/// chain encoding bit for bit).
fn leaf_net(leaf: &LeafChain<'_>) -> Vec<f64> {
    let (k, n) = (leaf.path.len(), leaf.graph.vertices.len());
    assert_eq!(
        leaf.graph.tiers, k,
        "a leaf's chain graph spans its whole path"
    );
    assert!(k >= 2, "a leaf path needs at least two sites");
    let mut nc = vec![0.0f64; (k - 1) * n];
    for e in &leaf.graph.edges {
        for (b, &r) in e.bandwidth.iter().enumerate() {
            nc[b * n + e.src] += r;
            nc[b * n + e.dst] -= r;
        }
    }
    nc
}

impl<'a, 'g> Coefficients<'a, 'g> {
    fn new(leaves: &'a [LeafChain<'g>], obj: &'a DeploymentObjective) -> Self {
        let n_sites = obj.alpha.len();
        assert_eq!(obj.cpu_budget.len(), n_sites);
        assert_eq!(obj.count.len(), n_sites);
        assert_eq!(obj.beta.len(), n_sites);
        assert_eq!(obj.net_budget.len(), n_sites);
        let net = leaves.iter().map(leaf_net).collect();
        Coefficients { leaves, obj, net }
    }

    /// Leaf `l`'s per-vertex net bandwidth on hop `b` ([`leaf_net`]).
    fn hop_net(&self, l: usize, b: usize) -> &[f64] {
        let n = self.leaves[l].graph.vertices.len();
        &self.net[l][b * n..(b + 1) * n]
    }

    /// Leaf classes routed through site `s`: `(leaf, position of s on
    /// its path)`.
    fn crossing(&self, s: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let at = move |leaf: &LeafChain<'_>| leaf.path.iter().position(|&site| site == s);
        self.leaves
            .iter()
            .enumerate()
            .filter_map(move |(l, leaf)| Some((l, at(leaf)?)))
    }

    /// Objective coefficient of `y_u^b` (vertex `v` of leaf `l`): site(b)'s
    /// CPU gains `u`, site(b+1)'s loses it, and the uplink of site(b)
    /// carries `u`'s net coefficient.
    fn y_cost(&self, l: usize, b: usize, v: usize) -> f64 {
        let (leaf, obj) = (&self.leaves[l], self.obj);
        let (sb, sb1) = (leaf.path[b], leaf.path[b + 1]);
        let cpu = &leaf.graph.vertices[v].cpu_cost;
        let mut c = obj.alpha[sb] * (leaf.count / obj.count[sb] * cpu[b])
            + obj.beta[sb] * (leaf.count * self.hop_net(l, b)[v]);
        if !is_exact_zero(obj.alpha[sb1]) {
            c -= obj.alpha[sb1] * (leaf.count / obj.count[sb1] * cpu[b + 1]);
        }
        c
    }

    /// Site `s`'s CPU row `Σ_u c_u^t (y_u^t − y_u^{t−1})` over every leaf
    /// class crossing it, pushed onto `terms`, and the constant the root
    /// position's `y^{k−1} = 1` contributes ([`CpuRow::shift`]).
    fn cpu_row(&self, y_vars: &[Vec<Vec<VarId>>], s: usize, terms: &mut Vec<(VarId, f64)>) -> f64 {
        let mut shift = 0.0f64;
        for (l, t) in self.crossing(s) {
            let leaf = &self.leaves[l];
            let k = leaf.path.len();
            let scale = leaf.count / self.obj.count[s];
            for (v, vert) in leaf.graph.vertices.iter().enumerate() {
                let c = scale * vert.cpu_cost[t];
                if is_exact_zero(c) {
                    continue;
                }
                if t < k - 1 {
                    terms.push((y_vars[l][t][v], c));
                } else {
                    shift += c;
                }
                if t > 0 {
                    terms.push((y_vars[l][t - 1][v], -c));
                }
            }
        }
        shift
    }

    /// Non-root site `s`'s uplink row, pushed onto `terms`: the aggregate
    /// on-air load of every leaf class whose path crosses that tree edge.
    fn net_row(&self, y_vars: &[Vec<Vec<VarId>>], s: usize, terms: &mut Vec<(VarId, f64)>) {
        for (l, b) in self.crossing(s) {
            let leaf = &self.leaves[l];
            debug_assert!(b < leaf.path.len() - 1, "non-root site at root position");
            for (&y, &nc) in y_vars[l][b].iter().zip(self.hop_net(l, b)) {
                let c = leaf.count * nc;
                if !is_exact_zero(c) {
                    terms.push((y, c));
                }
            }
        }
    }

    /// Root CPU cost is `Σ c·(1 − y)`: its constant is invisible to the
    /// solver and reported via [`EncodedDeployment::objective_offset`]
    /// (per leaf, count-scaled).
    fn root_cpu_offset(&self) -> f64 {
        let mut offset = 0.0f64;
        for leaf in self.leaves {
            let (k, root) = (leaf.path.len(), *leaf.path.last().expect("non-empty path"));
            let alpha = self.obj.alpha[root];
            if !is_exact_zero(alpha) {
                let scale = leaf.count / self.obj.count[root];
                let cpu = leaf
                    .graph
                    .vertices
                    .iter()
                    .map(|v| scale * v.cpu_cost[k - 1]);
                offset += alpha * cpu.sum::<f64>();
            }
        }
        offset
    }
}

/// Build the coupled monotone-cut ILP for a tree deployment.
///
/// Every element of `leaves` contributes its own block of indicator
/// variables and monotonicity/precedence rows; CPU and uplink budget rows
/// are emitted **per site** in `obj.row_order`, summing all leaf classes
/// that cross the site. Coefficients are scaled by device counts: a leaf
/// with `count` devices offers `count ×` its per-device traffic to every
/// uplink it crosses, and `count / count_site ×` its per-device CPU to
/// every interior site (perfect balancing across the site's devices).
pub fn encode_deployment(leaves: &[LeafChain<'_>], obj: &DeploymentObjective) -> EncodedDeployment {
    let n_sites = obj.alpha.len();
    assert!(!leaves.is_empty(), "a deployment needs at least one leaf");
    assert_eq!(obj.row_order.len(), n_sites);
    assert!(leaves.iter().all(|leaf| leaf.count > 0.0));
    let co = Coefficients::new(leaves, obj);

    let mut p = Problem::new();

    // Variables: leaf-major, boundary-major, vertex within — so a single
    // leaf reproduces the chain oracle's VarIds exactly.
    let mut y_vars: Vec<Vec<Vec<VarId>>> = Vec::with_capacity(leaves.len());
    for (l, leaf) in leaves.iter().enumerate() {
        let y_l = (0..leaf.path.len() - 1).map(|b| {
            let y_b = leaf.graph.vertices.iter().enumerate().map(|(v, vert)| {
                let (lo, hi) = match vert.pin {
                    Pin::Movable => (0.0, 1.0),
                    Pin::Node => (1.0, 1.0),
                    Pin::Server => (0.0, 0.0),
                };
                p.add_var(lo, hi, co.y_cost(l, b, v), true)
            });
            y_b.collect()
        });
        y_vars.push(y_l.collect());
    }

    // Per-leaf structural rows: monotonicity y^{b+1} ≥ y^b, then edge
    // precedence y_u^b ≥ y_v^b per boundary.
    for (l, leaf) in leaves.iter().enumerate() {
        let k = leaf.path.len();
        for b in 0..k.saturating_sub(2) {
            for (&y_next, &y_cur) in y_vars[l][b + 1].iter().zip(&y_vars[l][b]) {
                p.add_constraint(&[(y_next, 1.0), (y_cur, -1.0)], Sense::Ge, 0.0);
            }
        }
        for y_b in &y_vars[l] {
            for e in &leaf.graph.edges {
                p.add_constraint(&[(y_b[e.src], 1.0), (y_b[e.dst], -1.0)], Sense::Ge, 0.0);
            }
        }
    }

    // CPU budget per site, coupling every leaf class that crosses it.
    let mut cpu_rows: Vec<Option<CpuRow>> = vec![None; n_sites];
    let mut terms = Vec::new();
    for &s in &obj.row_order {
        if !obj.cpu_budget[s].is_finite() {
            continue;
        }
        terms.clear();
        let shift = co.cpu_row(&y_vars, s, &mut terms);
        if !terms.is_empty() {
            let row = p.num_constraints();
            cpu_rows[s] = Some(CpuRow { row, shift });
            p.add_constraint(&terms, Sense::Le, obj.cpu_budget[s] - shift);
        }
    }

    // Uplink budget per non-root site.
    let root = *leaves[0].path.last().expect("non-empty path");
    let mut net_rows: Vec<Option<usize>> = vec![None; n_sites];
    for &s in &obj.row_order {
        if s == root || !obj.net_budget[s].is_finite() {
            continue;
        }
        terms.clear();
        co.net_row(&y_vars, s, &mut terms);
        if !terms.is_empty() {
            net_rows[s] = Some(p.num_constraints());
            p.add_constraint(&terms, Sense::Le, obj.net_budget[s]);
        }
    }

    let ep = EncodedDeployment {
        problem: p,
        y_vars,
        cpu_rows,
        net_rows,
        objective_offset: co.root_cpu_offset(),
    };
    #[cfg(debug_assertions)]
    crate::audit::audit_deployment(&ep).assert_no_errors("encode_deployment");
    ep
}
