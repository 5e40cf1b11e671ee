//! Topology-first deployments: one `Deployment` tree is the only
//! partitioning shape.
//!
//! The paper's §9 sketches heterogeneous deployments ("run the
//! partitioning algorithm once for each type of node") and hierarchies
//! beyond one node/server cut. Both are the same object here: a
//! [`Deployment`] is a rooted tree of [`Site`]s — each site a platform, a
//! device count, and a CPU budget; each tree edge an uplink [`LinkSpec`]
//! with its own radio framing (the child site's) and bandwidth budget.
//! Every *leaf* site runs its own instance of the program, partitioned
//! along its root path; interior sites (gateways) and tree edges are
//! **shared**, so one joint ILP prices a gateway's CPU and uplink across
//! every mote class routed through it.
//!
//! The paper's shapes are constructors, each pinned by differential
//! parity tests against the standalone encoders of the dev-only
//! `wishbone_oracle` crate:
//!
//! * [`Deployment::star`] with one leaf is the binary node/server cut —
//!   `wishbone_oracle::encode`'s restricted encoding, bit for bit;
//! * [`Deployment::star`] with *n* heterogeneous leaves is §9's mixed
//!   network, decoupling into one binary ILP per leaf;
//! * [`Deployment::chain`] is a k-tier path —
//!   `wishbone_oracle::encode_multitier` row for row;
//! * a genuine tree (many motes per gateway, many gateways per server,
//!   each gateway with its own uplink budget) is built with
//!   [`Deployment::new`] + [`Deployment::attach`].
//!
//! [`PreparedDeployment`] prices the program, runs the per-leaf §4.1
//! merge, and encodes **once**; every rate probe rescales the prepared
//! ILP in place on one reused [`SimplexWorkspace`], seeding
//! branch-and-bound with the previous incumbent, and decodes its answer
//! from the same merged leaf graphs the budget rows were written from;
//! [`max_sustainable_rate_deployment`] runs §4.3 on top of it.

use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use wishbone_dataflow::{EdgeId, Graph, OperatorId};
use wishbone_ilp::{solve_ilp_in, IlpOptions, IlpStats, SimplexWorkspace, SolveError, VarId};
use wishbone_profile::{GraphProfile, Platform};

use crate::cost_graph::{Mode, PinError};
use crate::encodings::{
    encode_deployment, DeploymentObjective, EncodedDeployment, LeafChain, TierObjective,
};
use crate::multilevel::CutHierarchy;
use crate::multitier::{ChainTable, LinkSpec};

/// Index of a [`Site`] within its [`Deployment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub usize);

/// One node of the deployment tree: a class of identical devices.
#[derive(Debug, Clone)]
pub struct Site {
    /// Human-readable name (reporting, DOT cluster labels).
    pub name: String,
    /// Platform cost model of this site's devices.
    pub platform: Platform,
    /// Number of physical devices at this site (leaf counts multiply the
    /// traffic and relay load offered upward; interior counts divide it —
    /// perfect balancing across the site's devices).
    pub count: usize,
    /// CPU weight of this site in the objective.
    pub alpha: f64,
    /// CPU budget as a fraction of one device's CPU
    /// (`f64::INFINITY` = unconstrained, e.g. the backend server).
    pub cpu_budget: f64,
    /// Per-leaf input-rate factor relative to the profile's reference
    /// rate, multiplied with the global rate at solve time (meaningful on
    /// leaf sites: §9's mixed networks run each node class at its own
    /// rate).
    pub rate_factor: f64,
}

impl Site {
    /// A budgeted site on `platform` (count 1, `α = 0`, the platform's
    /// CPU budget, unit rate).
    pub fn new(name: impl Into<String>, platform: &Platform) -> Self {
        Site {
            name: name.into(),
            platform: platform.clone(),
            count: 1,
            alpha: 0.0,
            cpu_budget: platform.cpu_budget_fraction,
            rate_factor: 1.0,
        }
    }

    /// An unconstrained site (the paper's server with "infinite
    /// computational power": no CPU row).
    pub fn server(name: impl Into<String>, platform: &Platform) -> Self {
        Site {
            cpu_budget: f64::INFINITY,
            ..Site::new(name, platform)
        }
    }

    /// Override the device count (builder style).
    pub fn with_count(mut self, count: usize) -> Self {
        assert!(count >= 1, "a site needs at least one device");
        self.count = count;
        self
    }

    /// Override the CPU budget (builder style).
    pub fn with_cpu_budget(mut self, cpu_budget: f64) -> Self {
        self.cpu_budget = cpu_budget;
        self
    }

    /// Override the CPU objective weight (builder style).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Override the per-leaf rate factor (builder style).
    pub fn at_rate(mut self, rate_factor: f64) -> Self {
        assert!(rate_factor > 0.0);
        self.rate_factor = rate_factor;
        self
    }

    /// Derate the CPU budget by the platform's measured OS-overhead factor
    /// (scheduling, packet handling — everything the additive profile
    /// model omits). This is the "automated approach to determining these
    /// scaling factors" the paper's §7.3 calls for after observing 11.5%
    /// predicted vs 15% measured CPU.
    pub fn with_measured_overheads(mut self) -> Self {
        self.cpu_budget /= self.platform.os_overhead;
        self
    }
}

/// A rooted tree of [`Site`]s. The root is the backend server; every
/// other site has a parent and an uplink [`LinkSpec`] describing the tree
/// edge towards it. Leaves host the program's sources.
#[derive(Debug, Clone)]
pub struct Deployment {
    sites: Vec<Site>,
    parent: Vec<Option<SiteId>>,
    uplink: Vec<Option<LinkSpec>>,
}

impl Deployment {
    /// A deployment consisting only of its root.
    pub fn new(root: Site) -> Self {
        Deployment {
            sites: vec![root],
            parent: vec![None],
            uplink: vec![None],
        }
    }

    /// The root site (always index 0).
    pub fn root(&self) -> SiteId {
        SiteId(0)
    }

    /// Attach `site` under `parent` with the given uplink; returns the
    /// new site's id. Acyclicity holds by construction (the parent must
    /// already exist).
    pub fn attach(&mut self, parent: SiteId, site: Site, uplink: LinkSpec) -> SiteId {
        assert!(parent.0 < self.sites.len(), "unknown parent site");
        let id = SiteId(self.sites.len());
        self.sites.push(site);
        self.parent.push(Some(parent));
        self.uplink.push(Some(uplink));
        id
    }

    /// A star: an unconstrained server root with one leaf class per
    /// `(site, uplink)` item. One leaf is the paper's binary node/server
    /// cut; *n* heterogeneous leaves are §9's mixed network.
    pub fn star(leaves: impl IntoIterator<Item = (Site, LinkSpec)>) -> Self {
        let mut dep = Deployment::new(Site::server("server", &Platform::server()));
        let root = dep.root();
        for (site, uplink) in leaves {
            dep.attach(root, site, uplink);
        }
        dep
    }

    /// A path: `platforms` innermost-first, every non-final platform
    /// budgeted at its own CPU fraction and radio goodput, the final
    /// platform an unconstrained server (the paper's evaluation setting
    /// generalized to a chain: α = 0, β = 1 on every link).
    pub fn chain(platforms: &[Platform]) -> Self {
        assert!(platforms.len() >= 2, "a chain needs at least two sites");
        let k = platforms.len();
        let mut dep = Deployment::new(Site::server(
            platforms[k - 1].name.clone(),
            &platforms[k - 1],
        ));
        let mut parent = dep.root();
        for p in platforms[..k - 1].iter().rev() {
            parent = dep.attach(
                parent,
                Site::new(p.name.clone(), p),
                LinkSpec::for_platform(p),
            );
        }
        dep
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Always false: a deployment owns at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The site behind `id`.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0]
    }

    /// Parent of `id` (`None` for the root).
    pub fn parent(&self, id: SiteId) -> Option<SiteId> {
        self.parent[id.0]
    }

    /// Uplink of `id` (`None` for the root).
    pub fn uplink(&self, id: SiteId) -> Option<&LinkSpec> {
        self.uplink[id.0].as_ref()
    }

    /// All site ids, root first.
    pub fn site_ids(&self) -> impl Iterator<Item = SiteId> {
        (0..self.sites.len()).map(SiteId)
    }

    /// Children of `id`, in insertion order.
    pub fn children(&self, id: SiteId) -> Vec<SiteId> {
        self.parent
            .iter()
            .enumerate()
            .filter(|&(_, p)| *p == Some(id))
            .map(|(i, _)| SiteId(i))
            .collect()
    }

    /// Leaf sites (no children), in insertion order. Each leaf runs one
    /// instance of the program.
    pub fn leaves(&self) -> Vec<SiteId> {
        let mut has_child = vec![false; self.sites.len()];
        for p in self.parent.iter().flatten() {
            has_child[p.0] = true;
        }
        (0..self.sites.len())
            .filter(|&i| !has_child[i])
            .map(SiteId)
            .collect()
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: SiteId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent[cur.0] {
            d += 1;
            cur = p;
        }
        d
    }

    /// The root path of `id`: `id`, its parent, …, the root.
    pub fn path(&self, id: SiteId) -> Vec<SiteId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent[cur.0] {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Canonical row-emission order: depth descending, index ascending —
    /// for a path deployment exactly leaf → … → root, which anchors the
    /// row-for-row parity with the chain encodings.
    pub fn site_order(&self) -> Vec<SiteId> {
        let mut order: Vec<SiteId> = self.site_ids().collect();
        order.sort_by_key(|&s| (std::cmp::Reverse(self.depth(s)), s.0));
        order
    }

    fn validate(&self) {
        assert!(
            self.sites.len() >= 2,
            "a deployment needs at least one leaf under the root"
        );
        assert!(
            !self.leaves().contains(&self.root()),
            "the root cannot be a leaf"
        );
        for s in &self.sites {
            assert!(s.count >= 1, "site {:?} has no devices", s.name);
        }
    }

    /// The per-site objective handed to the encoder, priced under
    /// `robustness`.
    ///
    /// [`RobustnessMode::SingleGatewayFailure`] re-prices every interior
    /// site with `count ≥ 2`: CPU denominators drop to `count − 1` (the
    /// site's traffic rebalanced onto the survivors of one device
    /// failure) and the uplink budget scales by `(count − 1)/count` (one
    /// device's share of aggregate uplink capacity gone). Budget
    /// *finiteness* is untouched, and the §4.1 merge reads only
    /// finiteness — so nominal and robust pricings share one merged
    /// graph and one encoding structure.
    fn objective_with(&self, robustness: RobustnessMode) -> DeploymentObjective {
        let mut obj = DeploymentObjective {
            alpha: self.sites.iter().map(|s| s.alpha).collect(),
            cpu_budget: self.sites.iter().map(|s| s.cpu_budget).collect(),
            count: self.sites.iter().map(|s| s.count as f64).collect(),
            beta: self
                .uplink
                .iter()
                .map(|u| u.map_or(0.0, |l| l.beta))
                .collect(),
            net_budget: self
                .uplink
                .iter()
                .map(|u| u.map_or(f64::INFINITY, |l| l.net_budget))
                .collect(),
            row_order: self.site_order().iter().map(|s| s.0).collect(),
        };
        if robustness == RobustnessMode::SingleGatewayFailure {
            let root = self.root();
            let leaves = self.leaves();
            for (i, s) in self.sites.iter().enumerate() {
                let interior = SiteId(i) != root && !leaves.contains(&SiteId(i));
                if interior && s.count >= 2 {
                    let c = s.count as f64;
                    obj.count[i] = c - 1.0;
                    obj.net_budget[i] *= (c - 1.0) / c;
                }
            }
        }
        obj
    }

    /// The chain view of one leaf's root path, as a [`TierObjective`]
    /// (what the per-leaf §4.1 merge reasons about).
    fn leaf_objective(&self, leaf: SiteId) -> TierObjective {
        let path = self.path(leaf);
        TierObjective {
            alpha: path.iter().map(|&s| self.sites[s.0].alpha).collect(),
            cpu_budget: path.iter().map(|&s| self.sites[s.0].cpu_budget).collect(),
            beta: path[..path.len() - 1]
                .iter()
                .map(|&s| self.uplink[s.0].expect("non-root site has an uplink").beta)
                .collect(),
            net_budget: path[..path.len() - 1]
                .iter()
                .map(|&s| {
                    self.uplink[s.0]
                        .expect("non-root site has an uplink")
                        .net_budget
                })
                .collect(),
        }
    }
}

/// Failure-robustness pricing applied when the deployment objective is
/// built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RobustnessMode {
    /// Price every site at its nominal device count and uplink budget.
    #[default]
    Nominal,
    /// Price every interior (gateway) site as if one of its devices had
    /// already failed: CPU rows divide by `count − 1` and uplink rows
    /// keep `(count − 1)/count` of their budget, so the optimal
    /// partition stays feasible when any single gateway device dies and
    /// its load rebalances onto the survivors. An interior site with a
    /// single device stays at nominal pricing — losing the only gateway
    /// severs the subtree, which no placement can compensate.
    SingleGatewayFailure,
}

/// Solver-side configuration of [`partition_deployment`] — the topology
/// itself lives in [`Deployment`]. (The simulation-side sibling is
/// `wishbone_runtime::SimulationConfig`.)
///
/// Each field says why it is one (`xtask lint`'s `config-surface` rule
/// counts them); a behaviour with one value in use is not. The §4.1
/// merge always runs, and exact branch-and-bound always starts from the
/// multilevel heuristic's cut when no warmer start exists — feasibility
/// is *discovered* by the heuristic in milliseconds and merely *proved*
/// optimal by the exact search (the near-cliff fix).
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Stateful-relocation mode (§2.1.1). Kept: conservative and
    /// permissive are the paper's own two behaviours.
    pub mode: Mode,
    /// Global input-rate multiplier relative to the profile's reference
    /// rate (composed with each leaf site's `rate_factor`). Kept: every
    /// one-shot caller solves at its own rate.
    pub rate_multiplier: f64,
    /// Failure-robustness pricing of the budget rows. Kept: it prices a
    /// different problem (the fault-tolerant partitioning line in
    /// PAPERS.md), not a tuning of the nominal one.
    pub robustness: RobustnessMode,
    /// Branch-and-bound options (backend selection included).
    pub ilp: IlpOptions,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            mode: Mode::Permissive,
            rate_multiplier: 1.0,
            robustness: RobustnessMode::Nominal,
            ilp: IlpOptions::default(),
        }
    }
}

impl DeploymentConfig {
    /// Override the rate multiplier (builder style).
    pub fn at_rate(mut self, rate_multiplier: f64) -> Self {
        self.rate_multiplier = rate_multiplier;
        self
    }

    /// Override the robustness pricing (builder style).
    pub fn with_robustness(mut self, robustness: RobustnessMode) -> Self {
        self.robustness = robustness;
        self
    }

    /// Returns `self` unchanged. There is one placement engine, exact
    /// branch-and-bound seeded by the multilevel cut, and every placement
    /// carries its [`DeploymentPartition::certified_gap`]; this builder
    /// stays only because `benchmark/` names it. A bounded-time answer is
    /// `ilp.max_nodes = 1` on a fresh instance: the seed (or an integral
    /// root LP) with its distance from the root bound.
    pub fn approx(self) -> Self {
        self
    }
}

/// One incremental topology change, applied by
/// [`PreparedDeployment::apply_delta`] without rebuilding graphs,
/// re-running the merge, or re-encoding the ILP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeploymentDelta {
    /// Re-provision a leaf class to `count` devices (≥ 1). Also revives
    /// a leaf previously taken out of service by
    /// [`DeploymentDelta::RemoveLeaf`].
    SetLeafCount {
        /// The leaf site to re-provision.
        leaf: SiteId,
        /// New device count (must be ≥ 1).
        count: usize,
    },
    /// Re-budget a site's per-device CPU. The new budget must be on the
    /// same side of infinity as the old one — a budget row cannot be
    /// added or dropped in place (re-prepare for that).
    SetCpuBudget {
        /// The site whose CPU budget changes.
        site: SiteId,
        /// New per-device CPU budget.
        cpu_budget: f64,
    },
    /// Re-budget a site's uplink (aggregate on-air bytes/second toward
    /// its parent). The new budget must be on the same side of infinity
    /// as the old one — a budget row cannot be added or dropped in place
    /// (re-prepare for that) — and the site must not be the root (the
    /// root has no uplink).
    SetNetBudget {
        /// The site whose uplink budget changes.
        site: SiteId,
        /// New aggregate uplink budget, bytes/second.
        net_budget: f64,
    },
    /// Take a leaf class out of service: its routed traffic is zeroed in
    /// every shared CPU and uplink row while its indicator block idles
    /// in the encoding, ready for revival by
    /// [`DeploymentDelta::SetLeafCount`].
    RemoveLeaf {
        /// The leaf site to remove.
        leaf: SiteId,
    },
}

/// One leaf class's share of a computed [`DeploymentPartition`]: where
/// each operator of that leaf's program instance runs along its root
/// path, and what crosses each hop.
#[derive(Debug, Clone)]
pub struct LeafPartition {
    /// The leaf site.
    pub leaf: SiteId,
    /// The leaf's root path (leaf first, root last).
    pub path: Vec<SiteId>,
    /// Operators assigned to each path position.
    pub site_ops: Vec<HashSet<OperatorId>>,
    /// Dataflow edges carried over each hop (length `path.len() − 1`).
    /// An edge whose endpoints are several positions apart appears on
    /// every hop it crosses: relays store-and-forward it.
    pub link_cut_edges: Vec<Vec<EdgeId>>,
    /// Predicted per-device CPU fraction at each path position, at this
    /// leaf's effective rate.
    pub predicted_cpu: Vec<f64>,
    /// Predicted per-device on-air bytes/second over each hop.
    pub predicted_net: Vec<f64>,
}

impl LeafPartition {
    /// Path position of `op`, if it exists in the program.
    pub fn position_of(&self, op: OperatorId) -> Option<usize> {
        self.site_ops.iter().position(|s| s.contains(&op))
    }
}

/// A computed tree-deployment partition.
#[derive(Debug, Clone)]
pub struct DeploymentPartition {
    /// Per-leaf placements, in [`Deployment::leaves`] order.
    pub leaves: Vec<LeafPartition>,
    /// Aggregate per-device CPU fraction per site (the budget-row view:
    /// every leaf class through the site, count-balanced).
    pub site_cpu: Vec<f64>,
    /// Aggregate on-air bytes/second over each site's uplink (0 for the
    /// root).
    pub link_net: Vec<f64>,
    /// Objective value `Σ_s α_s·cpu_s + Σ_e β_e·net_e` over the merged
    /// graphs.
    pub objective: f64,
    /// Solver statistics.
    pub ilp_stats: IlpStats,
    /// ILP size actually solved: (variables, constraints).
    pub problem_size: (usize, usize),
    /// Summed per-leaf chain-graph vertices before and after the merge.
    pub merge_stats: (usize, usize),
    /// Certified relative optimality gap, `Some` on every placement:
    /// `(objective − bound) / |objective|` clamped at 0, where `bound` is
    /// branch-and-bound's [`IlpStats::best_bound`] — an *upper* bound on
    /// the true distance from optimal (the ILP optimum sits between the
    /// bound and this placement). `0` for a proved optimum, at most
    /// `ilp.rel_gap` when the gap closed the search, and the placement's
    /// distance from the open tree's bound when the node or time budget
    /// ran out (from the root LP under `ilp.max_nodes = 1`).
    pub certified_gap: Option<f64>,
}

impl DeploymentPartition {
    /// The placement of the leaf class rooted at `leaf`.
    pub fn leaf(&self, leaf: SiteId) -> Option<&LeafPartition> {
        self.leaves.iter().find(|l| l.leaf == leaf)
    }

    /// Operators hosted at `site` for at least one leaf class.
    pub fn ops_at(&self, site: SiteId) -> HashSet<OperatorId> {
        let mut ops = HashSet::new();
        for leaf in &self.leaves {
            if let Some(pos) = leaf.path.iter().position(|&s| s == site) {
                ops.extend(leaf.site_ops[pos].iter().copied());
            }
        }
        ops
    }
}

/// Partitioning failures.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// Pinning conflict (program cannot satisfy single-crossing placement).
    Pin(PinError),
    /// No partition satisfies the CPU/network budgets — the program does
    /// not "fit"; callers typically fall back to the §4.3 rate search.
    Infeasible,
    /// The branch-and-bound node/time budget ran out before *any*
    /// integer placement was found: the solve proved neither feasibility
    /// nor infeasibility. `best_bound` is the lower bound on the optimal
    /// objective the truncated search established, when it got far
    /// enough to have one. Distinct from [`PartitionError::Infeasible`]
    /// so rate searches report an unproven range instead of silently
    /// shrinking the feasible one.
    Unproven {
        /// Lower bound on the optimal objective from the open tree
        /// (offset-adjusted to the same frame as reported objectives).
        best_bound: Option<f64>,
    },
    /// Solver failure (iteration limits / numerical trouble).
    Solver(SolveError),
    /// The requested rate multiplier is not a finite positive number, so
    /// there is no instance to solve (a NaN, zero, negative or infinite
    /// rate would only poison the objective and budget rows).
    InvalidRate {
        /// The offending rate, as given.
        rate: f64,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Pin(e) => write!(f, "pinning: {e}"),
            PartitionError::Infeasible => {
                write!(
                    f,
                    "no feasible partition within the CPU and network budgets"
                )
            }
            PartitionError::Unproven { best_bound } => {
                write!(
                    f,
                    "search budget exhausted before any integer placement was found"
                )?;
                if let Some(b) = best_bound {
                    write!(f, " (objective lower bound {b})")?;
                }
                Ok(())
            }
            PartitionError::Solver(e) => write!(f, "solver: {e}"),
            PartitionError::InvalidRate { rate } => {
                write!(f, "rate multiplier {rate} is not finite and positive")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<PinError> for PartitionError {
    fn from(e: PinError) -> Self {
        PartitionError::Pin(e)
    }
}

/// Compute the optimal placement of `graph` over `dep`'s topology.
///
/// One-shot convenience over [`PreparedDeployment`]; callers probing many
/// rates should prepare once and call
/// [`solve_at`](PreparedDeployment::solve_at) per rate.
pub fn partition_deployment(
    graph: &Graph,
    profile: &GraphProfile,
    dep: &Deployment,
    cfg: &DeploymentConfig,
) -> Result<DeploymentPartition, PartitionError> {
    let mut prep = PreparedDeployment::new(graph, profile, dep, cfg)?;
    prep.solve_at(cfg.rate_multiplier)
}

/// Per-leaf prepared state: the merged chain graph and its path. The
/// graph's costs are priced along the path at the leaf's `rate_factor`,
/// so they are the budget rows' coefficients per unit of global rate.
struct PreparedLeaf {
    leaf: SiteId,
    path: Vec<SiteId>,
    /// `path` as the site indices a [`LeafChain`] carries.
    path_indices: Vec<usize>,
    graph: crate::multitier::TieredGraph,
}

/// Every leaf's device count in `dep`, a removed leaf's as `0`.
fn leaf_counts<'l>(
    leaves: &'l [PreparedLeaf],
    removed: &'l [bool],
    dep: &'l Deployment,
) -> impl Iterator<Item = f64> + 'l {
    leaves.iter().zip(removed).map(|(l, &gone)| {
        if gone {
            0.0
        } else {
            dep.sites[l.leaf.0].count as f64
        }
    })
}

/// The leaf-chain view of a preparation, as [`encode_deployment`] and the
/// multilevel hierarchy consume it: every leaf at its
/// [`leaf_counts`] count.
fn leaf_chains<'l>(
    leaves: &'l [PreparedLeaf],
    removed: &[bool],
    dep: &Deployment,
) -> Vec<LeafChain<'l>> {
    leaves
        .iter()
        .zip(leaf_counts(leaves, removed, dep))
        .map(|(l, count)| LeafChain {
            graph: &l.graph,
            path: l.path_indices.clone(),
            count,
        })
        .collect()
}

/// A deployment instance prepared for repeated solves at varying input
/// rates. The paper's evaluation asks thousands of questions of the
/// *same* application (2100 lp_solve runs for Fig 6; a binary search per
/// platform for §4.3), and only the input-rate multiplier — a uniform
/// scale on every profiled cost — changes between them. So graph build,
/// per-leaf merge, and encoding happen once; every probe rescales the
/// prepared ILP in place (objective × rate, budget right-hand sides ÷
/// rate) on one reused [`SimplexWorkspace`]. The multilevel heuristic's
/// coarsening of the merged leaf graphs ([`crate::multilevel`], phase 1)
/// is part of that one-time build too: it reads pins, per-tier CPU costs
/// and per-link bandwidths, never a count, a budget or the rate, so it is
/// kept for the life of the instance, no delta or probe can stale it, and
/// — unlike the two things below — keeping it cannot change any answer: a
/// cut of the kept hierarchy is bit for bit the cut of a freshly built one.
///
/// The instance keeps nothing of its caller's: the graph and profile are
/// read while it prepares and never again. What it keeps is the deployment
/// (plus applied deltas), the configuration, each leaf's path and merged
/// graph, the encoding and the hierarchy. The merged graphs are the only
/// priced view of the program: the budget rows are written from their
/// costs, and every solve decodes its per-site operators, cut edges and
/// predicted loads from them too, so a prediction is a budget row's own
/// left-hand side (up to summation order) rather than a second pricing
/// that has to agree with it. The lifetime parameter is a marker only.
///
/// Two things are kept from one [`solve_at`](Self::solve_at) to the next:
/// the last placement, which seeds branch-and-bound as its first
/// incumbent, and — in the instance's own workspace only — the last
/// simplex basis. A retarget scales the objective uniformly and moves a
/// handful of budget right-hand sides, so that basis is still dual
/// feasible and the next root LP costs a few dual pivots instead of a
/// solve from the slack basis, whatever the instance's size (only the
/// reference tableau, when `cfg.ilp.backend` names it, cannot follow a
/// changed right-hand side and re-enters warm only at a repeated rate).
/// Verdicts and optimal values never depend on this; which of several
/// equally cheap placements comes back can.
/// [`reset_warm_start`](Self::reset_warm_start) drops both, and
/// [`apply_delta`](Self::apply_delta) rewrites budget rows, which makes
/// the next root LP a cold start by itself.
pub struct PreparedDeployment<'a> {
    _marker: PhantomData<&'a ()>,
    dep: Deployment,
    cfg: DeploymentConfig,
    leaves: Vec<PreparedLeaf>,
    /// The multilevel heuristic's coarsening of `leaves`' graphs — `None`
    /// when some leaf's pins admit no placement at all. Deltas edit
    /// counts and budgets, never a leaf graph, so it is never rebuilt.
    hierarchy: Option<CutHierarchy>,
    /// Per-leaf out-of-service flags, [`Deployment::leaves`] order
    /// ([`DeploymentDelta::RemoveLeaf`]).
    removed: Vec<bool>,
    /// The objective the encoding currently carries — the stored
    /// topology priced under `cfg.robustness`, refreshed by
    /// [`apply_delta`](Self::apply_delta).
    obj: DeploymentObjective,
    vertices_before: usize,
    vertices_after: usize,
    ep: EncodedDeployment,
    base_objective: Vec<f64>,
    workspace: SimplexWorkspace,
    encodes: u32,
    solves: u32,
    last_values: Option<Vec<f64>>,
    /// Wall-clock cost of the one-time build (pricing, §4.1 merge,
    /// encoding, coarsening).
    encode_s: f64,
}

impl<'a> PreparedDeployment<'a> {
    /// Price every leaf's chain graph, merge, encode, and coarsen — once.
    /// `graph` and `profile` are read here and not kept.
    /// `cfg.rate_multiplier` is ignored here; pass the rate to
    /// [`solve_at`](PreparedDeployment::solve_at).
    pub fn new(
        graph: &Graph,
        profile: &GraphProfile,
        dep: &Deployment,
        cfg: &DeploymentConfig,
    ) -> Result<Self, PartitionError> {
        dep.validate();
        let encode_t = Instant::now();
        // One flat table for every leaf: pins and structure once, costs
        // re-priced per root path; only merged graphs are materialised.
        let mut table = ChainTable::from_graph(graph, cfg.mode)?;
        let mut leaves = Vec::new();
        let mut vertices_before = 0;
        let mut vertices_after = 0;
        for leaf in dep.leaves() {
            let path = dep.path(leaf);
            let platforms: Vec<&Platform> = path.iter().map(|&s| &dep.site(s).platform).collect();
            table.price(profile, &platforms, dep.site(leaf).rate_factor);
            let merged = table.merge(&dep.leaf_objective(leaf))?;
            vertices_before += merged.vertices_before;
            vertices_after += merged.vertices_after;
            leaves.push(PreparedLeaf {
                leaf,
                path_indices: path.iter().map(|s| s.0).collect(),
                path,
                graph: merged.graph,
            });
        }

        let removed = vec![false; leaves.len()];
        let obj = dep.objective_with(cfg.robustness);
        let chains = leaf_chains(&leaves, &removed, dep);
        let ep = encode_deployment(&chains, &obj);
        let hierarchy = CutHierarchy::build(&chains);
        let base_objective: Vec<f64> = (0..ep.problem.num_vars())
            .map(|j| ep.problem.objective_coeff(VarId(j)))
            .collect();
        Ok(PreparedDeployment {
            _marker: PhantomData,
            dep: dep.clone(),
            cfg: cfg.clone(),
            removed,
            obj,
            leaves,
            hierarchy,
            vertices_before,
            vertices_after,
            ep,
            base_objective,
            workspace: SimplexWorkspace::new(),
            encodes: 1,
            solves: 0,
            last_values: None,
            encode_s: encode_t.elapsed().as_secs_f64(),
        })
    }

    /// [`new`](Self::new) over `Arc`-held inputs, as a `'static` instance
    /// (the prepared instance holds neither; a cache keyed by their
    /// addresses must keep them alive itself, as the fleet's does).
    pub fn new_shared(
        graph: Arc<Graph>,
        profile: Arc<GraphProfile>,
        dep: &Deployment,
        cfg: &DeploymentConfig,
    ) -> Result<PreparedDeployment<'static>, PartitionError> {
        PreparedDeployment::new(&graph, &profile, dep, cfg)
    }

    /// Apply a batch of topology deltas in place: mutate the stored
    /// topology, rewrite every count- and budget-dependent coefficient
    /// of the prepared ILP through index-stable row surgery
    /// (`EncodedDeployment::rescale_in_place`), and keep the previous
    /// incumbent as a warm start. No graph rebuild, no §4.1 merge, no
    /// re-encode — `encodes()` stays 1. The next
    /// [`solve_at`](Self::solve_at) is equivalent to a cold
    /// [`new`](Self::new) on the edited deployment (pinned by proptest)
    /// at a fraction of the cost.
    pub fn apply_delta(&mut self, deltas: &[DeploymentDelta]) {
        let leaf_ordinal = |leaves: &[PreparedLeaf], leaf: SiteId| {
            leaves
                .iter()
                .position(|l| l.leaf == leaf)
                .unwrap_or_else(|| panic!("site {:?} is not a leaf of this deployment", leaf))
        };
        for d in deltas {
            match *d {
                DeploymentDelta::SetLeafCount { leaf, count } => {
                    let ord = leaf_ordinal(&self.leaves, leaf);
                    assert!(count >= 1, "use RemoveLeaf to take a class out of service");
                    self.dep.sites[leaf.0].count = count;
                    self.removed[ord] = false;
                }
                DeploymentDelta::SetCpuBudget { site, cpu_budget } => {
                    assert!(site.0 < self.dep.len(), "unknown site {site:?}");
                    let old = self.dep.sites[site.0].cpu_budget;
                    assert_eq!(
                        cpu_budget.is_finite(),
                        old.is_finite(),
                        "a CPU budget row cannot be added or dropped in place"
                    );
                    self.dep.sites[site.0].cpu_budget = cpu_budget;
                }
                DeploymentDelta::SetNetBudget { site, net_budget } => {
                    assert!(site.0 < self.dep.len(), "unknown site {site:?}");
                    let link = self.dep.uplink[site.0]
                        .as_mut()
                        .unwrap_or_else(|| panic!("site {site:?} is the root: it has no uplink"));
                    assert_eq!(
                        net_budget.is_finite(),
                        link.net_budget.is_finite(),
                        "an uplink budget row cannot be added or dropped in place"
                    );
                    link.net_budget = net_budget;
                }
                DeploymentDelta::RemoveLeaf { leaf } => {
                    let ord = leaf_ordinal(&self.leaves, leaf);
                    self.removed[ord] = true;
                }
            }
        }
        self.obj = self.dep.objective_with(self.cfg.robustness);
        let chains = leaf_chains(&self.leaves, &self.removed, &self.dep);
        self.ep.rescale_in_place(&chains, &self.obj);
        self.base_objective = (0..self.ep.problem.num_vars())
            .map(|j| self.ep.problem.objective_coeff(VarId(j)))
            .collect();
    }

    /// How many times the ILP has been encoded (always 1).
    pub fn encodes(&self) -> u32 {
        self.encodes
    }

    /// The deployment this instance currently encodes: the topology it
    /// was prepared with plus every applied delta. The fleet service
    /// diffs an incoming request against this to derive the delta batch
    /// that morphs the cached encoding in place.
    pub fn deployment(&self) -> &Deployment {
        &self.dep
    }

    /// The configuration this instance was prepared with
    /// (`rate_multiplier` is ignored; rates are per-solve).
    pub fn config(&self) -> &DeploymentConfig {
        &self.cfg
    }

    /// Drop warm-start state carried over from previous solves: the last
    /// incumbent, and the basis retained in the instance's own workspace.
    /// The next [`solve_at`](Self::solve_at) then runs exactly like the
    /// first solve of a freshly prepared instance — branch-and-bound
    /// keeps a seeded incumbent on objective ties, and a warm root LP can
    /// land on a different optimal vertex, so either could steer
    /// tie-breaking toward a different (equally optimal) placement. The
    /// fleet service calls this between requests so cache hits stay
    /// bit-identical to serial one-shot solves.
    pub fn reset_warm_start(&mut self) {
        self.last_values = None;
        self.workspace.invalidate();
    }

    /// Wall-clock cost of the one-time build (pricing, merge, encoding,
    /// coarsening), seconds. Paid once per instance; no solve reports it.
    pub fn encode_seconds(&self) -> f64 {
        self.encode_s
    }

    /// How many rate probes this instance has solved.
    pub fn solves(&self) -> u32 {
        self.solves
    }

    /// ILP size: (variables, constraints).
    pub fn problem_size(&self) -> (usize, usize) {
        (
            self.ep.problem.num_vars(),
            self.ep.problem.num_constraints(),
        )
    }

    /// The encoded problem at the most recent rate (diagnostics and
    /// benches; solves go through [`solve_at`](Self::solve_at)).
    pub fn problem(&self) -> &wishbone_ilp::Problem {
        &self.ep.problem
    }

    /// The full encoding with its variable and row maps — read-only,
    /// for audits that pin the current budget rows (e.g. via
    /// [`crate::audit::deployment_spec`]) before deltas or a
    /// differently-priced re-encode could drift them.
    pub fn encoded(&self) -> &crate::encodings::EncodedDeployment {
        &self.ep
    }

    /// Statically audit the encoded ILP — structure, conditioning, and
    /// infeasibility pre-certificates — without a simplex iteration.
    /// Reflects the problem as currently rescaled (rate re-targeting
    /// rewrites objective and budget right-hand sides in place, which
    /// never changes the structure the auditor checks).
    pub fn audit(&self) -> wishbone_audit::AuditReport {
        crate::audit::audit_deployment(&self.ep)
    }

    /// Rescale the prepared ILP in place for a probe at `rate`:
    /// objective × rate, budget right-hand sides ÷ rate (with each CPU
    /// row's folded root constant re-applied).
    fn retarget(&mut self, rate: f64) {
        for (j, &base) in self.base_objective.iter().enumerate() {
            self.ep.problem.set_objective_coeff(VarId(j), base * rate);
        }
        for (s, row) in self.ep.cpu_rows.iter().enumerate() {
            if let Some(cr) = row {
                self.ep
                    .problem
                    .set_rhs(cr.row, self.obj.cpu_budget[s] / rate - cr.shift);
            }
        }
        for (s, row) in self.ep.net_rows.iter().enumerate() {
            if let Some(r) = row {
                self.ep.problem.set_rhs(*r, self.obj.net_budget[s] / rate);
            }
        }
    }

    /// Expand a per-leaf tier assignment into the encoding's full
    /// indicator vector (`y[l][b][v] = 1 ⇔ tier ≤ b`).
    fn y_values(&self, tiers: &[Vec<usize>]) -> Vec<f64> {
        let mut values = vec![0.0f64; self.ep.problem.num_vars()];
        for (l, leaf) in self.ep.y_vars.iter().enumerate() {
            for (b, row) in leaf.iter().enumerate() {
                for (v, &var) in row.iter().enumerate() {
                    if tiers[l][v] <= b {
                        values[var.0] = 1.0;
                    }
                }
            }
        }
        values
    }

    /// Run the multilevel heuristic on the current instance and return
    /// its cut as an encoding-level assignment, verified against the
    /// (already retargeted) encoded problem — branch-and-bound's seed.
    /// `None` when the heuristic finds no budget-feasible placement.
    fn seed_values(&self, rate: f64) -> Option<Vec<f64>> {
        let counts: Vec<f64> = leaf_counts(&self.leaves, &self.removed, &self.dep).collect();
        let cut = self.hierarchy.as_ref()?.cut(&counts, &self.obj, rate)?;
        let values = self.y_values(&cut.tiers);
        if !self.ep.problem.is_feasible(&values, 1e-6) {
            debug_assert!(
                false,
                "multilevel cut broke its feasible-by-construction contract"
            );
            return None;
        }
        #[cfg(debug_assertions)]
        {
            let spec = crate::audit::deployment_spec(&self.ep);
            let report = wishbone_audit::audit_assignment(&self.ep.problem, &spec, &values);
            report.assert_no_errors("multilevel cut assignment");
        }
        Some(values)
    }

    /// Solve the prepared instance at `rate` (a global multiplier on the
    /// profile's reference input rate, composed with each leaf's
    /// `rate_factor`), in the instance's own workspace. From the second
    /// call on the root LP re-enters from the basis the previous call
    /// left there (see the type-level docs for what that does and does
    /// not change about the answer).
    pub fn solve_at(&mut self, rate: f64) -> Result<DeploymentPartition, PartitionError> {
        self.solve_in(rate, None)
    }

    /// [`solve_at`](Self::solve_at) inside a caller-owned workspace
    /// arena. The arena is pure scratch memory: it is invalidated on
    /// entry, so the root LP always starts cold and results are
    /// bit-identical whichever arena is passed, whatever it solved last —
    /// this very instance included. Only the instance's own workspace
    /// ever carries a basis from one solve to the next. A fleet worker
    /// keeps **one** long-lived arena and solves every cached shape's
    /// instance in it, instead of every cache entry growing its own.
    pub fn solve_at_in(
        &mut self,
        rate: f64,
        ws: &mut SimplexWorkspace,
    ) -> Result<DeploymentPartition, PartitionError> {
        ws.invalidate();
        self.solve_in(rate, Some(ws))
    }

    /// Retarget to `rate` and solve in `arena` — the instance's own
    /// workspace when `None` — as it stands: warm at the root when it
    /// retains a basis of this instance's current matrix.
    fn solve_in(
        &mut self,
        rate: f64,
        arena: Option<&mut SimplexWorkspace>,
    ) -> Result<DeploymentPartition, PartitionError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(PartitionError::InvalidRate { rate });
        }
        self.solves += 1;
        self.retarget(rate);

        let mut opts = self.cfg.ilp.clone();
        if opts.warm_solution.is_none() {
            opts.warm_solution = self.last_values.clone();
        }
        if opts.warm_solution.is_none() {
            opts.warm_solution = self.seed_values(rate);
        }
        let ws = arena.unwrap_or(&mut self.workspace);
        let (result, stats) = solve_ilp_in(&self.ep.problem, &opts, ws);
        let offset = self.ep.objective_offset * rate;
        let sol = match result {
            Ok(s) => s,
            Err(SolveError::Infeasible) => return Err(PartitionError::Infeasible),
            Err(SolveError::IterationLimit) if stats.timed_out => {
                // Hit the node/time budget with no incumbent: the probe
                // is unproven, not infeasible.
                return Err(PartitionError::Unproven {
                    best_bound: stats.best_bound.map(|b| b + offset),
                });
            }
            Err(e) => return Err(PartitionError::Solver(e)),
        };
        self.last_values = Some(sol.values.clone());
        let objective = sol.objective + offset;
        let certified_gap = sol.stats.best_bound.map(|bound| {
            ((objective - (bound + offset)) / objective.abs().max(f64::EPSILON)).max(0.0)
        });
        Ok(self.decode_partition(&sol.values, rate, objective, sol.stats, certified_gap))
    }

    /// Decode an encoding-level assignment into the public
    /// [`DeploymentPartition`] view: per-leaf placements, per-hop cut
    /// edges, and aggregate per-site loads — all read off the merged leaf
    /// graphs, whose costs are the budget rows' coefficients.
    fn decode_partition(
        &self,
        values: &[f64],
        rate: f64,
        objective: f64,
        ilp_stats: IlpStats,
        certified_gap: Option<f64>,
    ) -> DeploymentPartition {
        let decoded = self.ep.decode(values);
        let mut leaves = Vec::with_capacity(self.leaves.len());
        for (prep, tier) in self.leaves.iter().zip(&decoded) {
            let (k, graph) = (prep.path.len(), &prep.graph);
            // Sums run in vertex and edge order, never over the hash sets,
            // so identical solves report identical bits (the fleet parity
            // suite compares these vectors bit for bit with serial solves).
            let mut tier_count = vec![0usize; k];
            let mut predicted_cpu = vec![0.0f64; k];
            for (vert, &t) in graph.vertices.iter().zip(tier) {
                tier_count[t] += vert.ops.len();
                predicted_cpu[t] += vert.cpu_cost[t];
            }
            let mut site_ops: Vec<HashSet<OperatorId>> = tier_count
                .iter()
                .map(|&c| HashSet::with_capacity(c))
                .collect();
            for (vert, &t) in graph.vertices.iter().zip(tier) {
                site_ops[t].extend(&vert.ops);
            }
            let mut link_cut_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); k - 1];
            let mut predicted_net = vec![0.0f64; k - 1];
            for e in &graph.edges {
                for b in tier[e.src]..tier[e.dst] {
                    link_cut_edges[b].extend_from_slice(&e.graph_edges);
                    predicted_net[b] += e.bandwidth[b];
                }
            }
            for cut in &mut link_cut_edges {
                cut.sort_unstable();
            }
            for load in predicted_cpu.iter_mut().chain(&mut predicted_net) {
                *load *= rate;
            }
            leaves.push(LeafPartition {
                leaf: prep.leaf,
                path: prep.path.clone(),
                site_ops,
                link_cut_edges,
                predicted_cpu,
                predicted_net,
            });
        }

        // Aggregate per-site and per-uplink loads (the budget-row view).
        let n_sites = self.dep.len();
        let mut site_cpu = vec![0.0f64; n_sites];
        let mut link_net = vec![0.0f64; n_sites];
        let counts = leaf_counts(&self.leaves, &self.removed, &self.dep);
        for (leaf, count) in leaves.iter().zip(counts) {
            // A removed leaf still reports its (per-device) placement but
            // routes no traffic, so it contributes nothing here.
            for (t, &s) in leaf.path.iter().enumerate() {
                site_cpu[s.0] += leaf.predicted_cpu[t] * count / self.dep.site(s).count as f64;
                if t < leaf.path.len() - 1 {
                    link_net[s.0] += leaf.predicted_net[t] * count;
                }
            }
        }

        DeploymentPartition {
            leaves,
            site_cpu,
            link_net,
            objective,
            ilp_stats,
            problem_size: (
                self.ep.problem.num_vars(),
                self.ep.problem.num_constraints(),
            ),
            merge_stats: (self.vertices_before, self.vertices_after),
            certified_gap,
        }
    }
}

/// Result of the topology-aware §4.3 rate search.
#[derive(Debug, Clone)]
pub struct DeploymentRateResult {
    /// Highest feasible global rate multiplier found.
    pub rate: f64,
    /// The optimal placement at that rate.
    pub partition: DeploymentPartition,
    /// ILP solves consumed.
    pub evaluations: u32,
    /// Encodings performed — always 1 (probes rescale in place).
    pub encodes: u32,
    /// The lowest probed rate whose solve timed out without proving
    /// anything — when `Some`, [`DeploymentRateResult::rate`] is only a
    /// proven lower bound on the sustainable rate (see
    /// [`crate::rate_search::UnprovenRate`]).
    pub unproven: Option<crate::rate_search::UnprovenRate>,
}

/// Binary-search the maximum sustainable global rate multiplier of a
/// deployment in `(0, hi_limit]` to relative precision `tol` — §4.3's
/// floor / doubling / bisection schedule (`search_max_rate`), every probe
/// a [`PreparedDeployment::solve_at`] on one prepared instance: one
/// encode, each root LP re-entering from the previous probe's basis.
///
/// Returns `None` if the deployment is infeasible even at vanishingly
/// small rates; solver errors propagate.
pub fn max_sustainable_rate_deployment(
    graph: &Graph,
    profile: &GraphProfile,
    dep: &Deployment,
    cfg: &DeploymentConfig,
    hi_limit: f64,
    tol: f64,
) -> Result<Option<DeploymentRateResult>, PartitionError> {
    let mut prep = PreparedDeployment::new(graph, profile, dep, cfg)?;
    let found = crate::rate_search::search_max_rate(|rate| prep.solve_at(rate), hi_limit, tol)?;
    Ok(found.map(|f| DeploymentRateResult {
        rate: f.rate,
        partition: f.best,
        evaluations: f.evaluations,
        encodes: prep.encodes(),
        unproven: f.unproven,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multitier::{build_tiered_graph, preprocess_tiered, TieredGraph};
    use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder, IdentityWork, OperatorSpec, Value};
    use wishbone_ilp::SolverBackend;
    use wishbone_profile::{profile as run_profile, SourceTrace};

    /// Compile-time `Send` audit: the fleet service moves prepared
    /// instances into worker threads and keeps them in a long-lived
    /// cache, so everything a `PreparedDeployment` holds — merged leaf
    /// graphs, encoded problem, hierarchy and simplex workspace — must
    /// cross thread boundaries. A regression here (an `Rc`, a `Cell`)
    /// fails to compile rather than failing at runtime.
    #[test]
    fn prepared_deployment_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PreparedDeployment<'static>>();
        assert_send::<Deployment>();
        assert_send::<DeploymentConfig>();
        assert_send::<DeploymentDelta>();
        assert_send::<DeploymentPartition>();
        assert_send::<crate::shape::ShapeKey>();
        // Requests carry `Arc<Graph>` / `Arc<GraphProfile>` to the worker
        // that prepares them, which needs both `Sync` (work functions
        // included).
        fn assert_sync<T: Sync>() {}
        assert_sync::<Graph>();
        assert_sync::<GraphProfile>();
    }

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

    /// A forest: server <- {gw_a <- motes_a, gw_b <- motes_b}.
    fn forest(uplink_a: f64, uplink_b: f64) -> Deployment {
        let mut dep = Deployment::new(Site::server("server", &Platform::server()));
        let root = dep.root();
        let gw_a = dep.attach(
            root,
            Site::new("gw-a", &Platform::iphone()),
            LinkSpec {
                beta: 1.0,
                net_budget: uplink_a,
            },
        );
        let gw_b = dep.attach(
            root,
            Site::new("gw-b", &Platform::iphone()),
            LinkSpec {
                beta: 1.0,
                net_budget: uplink_b,
            },
        );
        let mote = Platform::tmote_sky();
        for (gw, name) in [(gw_a, "motes-a"), (gw_b, "motes-b")] {
            dep.attach(
                gw,
                Site::new(name, &mote),
                LinkSpec {
                    beta: 1.0,
                    net_budget: mote.radio.goodput_bytes_per_sec,
                },
            );
        }
        dep
    }

    /// src → costly neutral stage → heavy 4x reducer → {free neutral,
    /// stateful neutral} → neutral join → sink: a neutral run, a fan-out,
    /// a fan-in, and a stage `Mode::Conservative` pins.
    fn merge_app() -> (Graph, GraphProfile) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let scale = b.transform(
            "scale",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter()
                    .loop_scope(w.len() as u64, |m| m.int(w.len() as u64));
                cx.emit(Value::VecI16(w.to_vec()));
            })),
            src,
        );
        let heavy = b.transform(
            "heavy",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter()
                    .loop_scope(w.len() as u64, |m| m.fmul(40 * w.len() as u64));
                cx.emit(Value::VecI16(w.iter().step_by(4).copied().collect()));
            })),
            scale,
        );
        let free = b.transform("free", Box::new(IdentityWork), heavy);
        let held = b.stateful_transform("held", Box::new(IdentityWork), heavy);
        let join = b.operator(
            OperatorSpec::transform("join"),
            Box::new(IdentityWork),
            &[free, held],
        );
        b.exit_namespace();
        b.sink("out", join);
        let mut g = b.finish().unwrap();
        let t = SourceTrace {
            source: src.0,
            elements: (0..30)
                .map(|i| Value::VecI16(vec![i as i16; 256]))
                .collect(),
            rate_hz: 20.0,
        };
        let prof = run_profile(&mut g, &[t]).unwrap();
        (g, prof)
    }

    /// The prepare path fills the flat table straight from the dataflow
    /// graph; the public adapters build the unmerged graph and merge it.
    /// Both must be the one merge: the same leaf graphs, bit for bit, and
    /// the same merge counts.
    #[test]
    fn prepared_leaf_graphs_are_the_public_build_then_merge() {
        let bits = |tg: &TieredGraph| {
            let f = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let vertices: Vec<_> = tg
                .vertices
                .iter()
                .map(|v| (v.ops.clone(), f(&v.cpu_cost), v.pin))
                .collect();
            let edges: Vec<_> = tg
                .edges
                .iter()
                .map(|e| (e.src, e.dst, f(&e.bandwidth), e.graph_edges.clone()))
                .collect();
            (tg.tiers, vertices, edges)
        };
        let (g, prof) = merge_app();
        let mote = Platform::tmote_sky();
        // A gateway that charges (α > 0) and one that does not.
        let mut charged = forest(1e5, 1e6);
        charged.sites[1].alpha = 0.5;
        let star = Deployment::star([
            (
                Site::new("motes", &mote).at_rate(0.05),
                LinkSpec::for_platform(&mote),
            ),
            (
                Site::new("gumstix", &Platform::gumstix()),
                LinkSpec::for_platform(&Platform::gumstix()),
            ),
        ]);
        let chain = Deployment::chain(&[mote.clone(), Platform::iphone(), Platform::server()]);
        let mut merged_any = false;
        for dep in [forest(1e5, 1e6), charged, star, chain] {
            for mode in [Mode::Permissive, Mode::Conservative] {
                let cfg = DeploymentConfig {
                    mode,
                    ..DeploymentConfig::default()
                };
                let prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
                let (mut before, mut after) = (0, 0);
                for leaf in &prep.leaves {
                    let platforms: Vec<Platform> = leaf
                        .path
                        .iter()
                        .map(|&s| dep.site(s).platform.clone())
                        .collect();
                    let rate_factor = dep.site(leaf.leaf).rate_factor;
                    let built =
                        build_tiered_graph(&g, &prof, &platforms, mode, rate_factor).unwrap();
                    let merged = preprocess_tiered(&built, &dep.leaf_objective(leaf.leaf)).unwrap();
                    assert_eq!(bits(&leaf.graph), bits(&merged.graph), "{mode:?}");
                    before += merged.vertices_before;
                    after += merged.vertices_after;
                }
                assert_eq!((prep.vertices_before, prep.vertices_after), (before, after));
                merged_any |= after < before;
            }
        }
        assert!(merged_any, "the fixture must exercise the merge");
    }

    #[test]
    fn tree_structure_helpers() {
        let dep = forest(1e5, 1e5);
        assert_eq!(dep.len(), 5);
        assert_eq!(dep.leaves(), vec![SiteId(3), SiteId(4)]);
        assert_eq!(dep.path(SiteId(3)), vec![SiteId(3), SiteId(1), SiteId(0)]);
        assert_eq!(dep.depth(SiteId(3)), 2);
        assert_eq!(dep.children(dep.root()), vec![SiteId(1), SiteId(2)]);
        // Row order: deepest first, index ascending.
        assert_eq!(
            dep.site_order(),
            vec![SiteId(3), SiteId(4), SiteId(1), SiteId(2), SiteId(0)]
        );
    }

    #[test]
    fn symmetric_forest_decouples() {
        let (g, prof) = profiled();
        // Generous gateways: both subtrees place identically (the joint
        // problem decouples) and every uplink budget holds.
        let dep = forest(1e6, 1e6);
        let part = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default().at_rate(0.2))
            .expect("feasible");
        assert_eq!(part.leaves.len(), 2);
        assert_eq!(part.leaves[0].site_ops, part.leaves[1].site_ops);
        for (s, &net) in part.link_net.iter().enumerate() {
            if let Some(l) = dep.uplink(SiteId(s)) {
                assert!(
                    net <= l.net_budget + 1e-9,
                    "site {s} uplink {net} over {}",
                    l.net_budget
                );
            }
        }
    }

    #[test]
    fn shared_gateway_cpu_row_couples_leaf_classes() {
        // Two mote classes behind ONE gateway whose CPU budget fits
        // hosting the pipeline for exactly one class: the joint ILP must
        // give the gateway to one class and push the other's work to the
        // server. Solving each class alone cannot express this — per-class
        // solves would both claim the gateway.
        let (g, prof) = profiled();
        let phone = Platform::iphone();
        let mote = Platform::tmote_sky();
        let rate = 0.2;
        let (heavy, light) = (OperatorId(1), OperatorId(2));
        let heavy_gw = prof.cpu_fraction(heavy, &phone) * rate;
        let light_gw = prof.cpu_fraction(light, &phone) * rate;
        assert!(heavy_gw > light_gw, "the 40x flop stage dominates");
        let one_class = heavy_gw + light_gw;

        let mut dep = Deployment::new(Site::server("server", &Platform::server()));
        let root = dep.root();
        let gw = dep.attach(
            root,
            Site::new("gw", &phone).with_cpu_budget(1.5 * one_class),
            LinkSpec {
                beta: 1.0,
                net_budget: 1e12,
            },
        );
        // Motes can only afford their pinned source.
        let src_cost = prof.cpu_fraction(OperatorId(0), &mote) * rate;
        for name in ["motes-a", "motes-b"] {
            dep.attach(
                gw,
                Site::new(name, &mote).with_cpu_budget(1.0001 * src_cost),
                LinkSpec {
                    beta: 1.0,
                    net_budget: 1e12,
                },
            );
        }
        let part =
            partition_deployment(&g, &prof, &dep, &DeploymentConfig::default().at_rate(rate))
                .expect("feasible: the server catches whatever the gateway cannot");
        let hosted: Vec<bool> = part
            .leaves
            .iter()
            .map(|l| l.site_ops[1].contains(&heavy))
            .collect();
        assert_eq!(
            hosted.iter().filter(|&&h| h).count(),
            1,
            "exactly one class fits its heavy stage on the shared gateway: {hosted:?}"
        );
        let budget = dep.site(gw).cpu_budget;
        assert!(
            part.site_cpu[gw.0] <= budget + 1e-9,
            "gateway cpu {} over shared budget {budget}",
            part.site_cpu[gw.0]
        );
    }

    #[test]
    fn leaf_counts_scale_shared_rows() {
        let (g, prof) = profiled();
        // One gateway, one leaf class with 4 motes: the gateway uplink
        // must carry 4x the per-device traffic.
        let mut dep = Deployment::new(Site::server("server", &Platform::server()));
        let root = dep.root();
        let gw = dep.attach(
            root,
            Site::new("gw", &Platform::iphone()),
            LinkSpec {
                beta: 1.0,
                net_budget: 1e6,
            },
        );
        let mote = Platform::tmote_sky();
        dep.attach(
            gw,
            Site::new("motes", &mote).with_count(4),
            LinkSpec {
                beta: 1.0,
                net_budget: 4.0 * mote.radio.goodput_bytes_per_sec,
            },
        );
        let part = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default().at_rate(0.2))
            .expect("feasible");
        let leaf = &part.leaves[0];
        assert!(
            (part.link_net[gw.0] - 4.0 * leaf.predicted_net[1]).abs() < 1e-9,
            "gateway uplink must aggregate all 4 motes"
        );
        assert!((part.link_net[2] - 4.0 * leaf.predicted_net[0]).abs() < 1e-9);
    }

    #[test]
    fn rate_search_is_limited_by_the_weakest_gateway() {
        let (g, prof) = profiled();
        let cfg = DeploymentConfig::default();
        let strong =
            max_sustainable_rate_deployment(&g, &prof, &forest(1e6, 1e6), &cfg, 64.0, 0.01)
                .unwrap()
                .expect("feasible");
        // Starve gateway A far below what its subtree needs even fully
        // reduced: the whole deployment's max rate drops.
        let weak = max_sustainable_rate_deployment(&g, &prof, &forest(20.0, 1e6), &cfg, 64.0, 0.01)
            .unwrap()
            .expect("feasible at low rates");
        assert!(
            weak.rate < strong.rate,
            "weak {} vs strong {}",
            weak.rate,
            strong.rate
        );
        assert_eq!(weak.encodes, 1);
    }

    #[test]
    fn prepared_deployment_matches_one_shot() {
        let (g, prof) = profiled();
        let dep = forest(1e5, 1e6);
        let cfg = DeploymentConfig::default();
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
        for rate in [0.05, 0.2, 1.0, 4.0] {
            let a = prep.solve_at(rate);
            let b = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(rate));
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    for (la, lb) in a.leaves.iter().zip(&b.leaves) {
                        assert_eq!(la.site_ops, lb.site_ops, "rate {rate}");
                    }
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
    fn per_leaf_rate_factors_mirror_mixed_classes() {
        let (g, prof) = profiled();
        // Star: two leaf classes at different rates directly under the
        // server — the joint solve must reproduce §9's "run the
        // partitioning algorithm once for each type of node".
        let mote = Platform::tmote_sky();
        let strong = Platform::gumstix();
        let classes = [
            (
                Site::new("motes", &mote).at_rate(0.05),
                LinkSpec::for_platform(&mote),
            ),
            (
                Site::new("microservers", &strong),
                LinkSpec::for_platform(&strong),
            ),
        ];
        let cfg = DeploymentConfig::default();
        let part = partition_deployment(&g, &prof, &Deployment::star(classes.clone()), &cfg)
            .expect("feasible");
        for (leaf, class) in part.leaves.iter().zip(classes) {
            let alone = partition_deployment(&g, &prof, &Deployment::star([class]), &cfg).unwrap();
            assert_eq!(leaf.site_ops[0], alone.leaves[0].site_ops[0]);
        }
    }

    #[test]
    fn star_classes_get_different_physical_partitions() {
        let (g, prof) = profiled();
        let weak = Platform::tmote_sky();
        let strong = Platform::gumstix();
        // Each uplink row aggregates its class's devices, so a class of
        // `n` nodes each allowed the platform's goodput budgets `n` times
        // that.
        let class = |name: &str, p: &Platform, count: usize| {
            let link = LinkSpec::for_platform(p);
            (
                Site::new(name, p).with_count(count),
                LinkSpec {
                    net_budget: link.net_budget * count as f64,
                    ..link
                },
            )
        };
        let (motes, uplink) = class("motes", &weak, 10);
        let dep = Deployment::star([
            (motes.at_rate(0.05), uplink),
            class("microservers", &strong, 2),
        ]);
        let part = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap();
        assert_eq!(part.leaves.len(), 2);
        // The strong class runs at 20x the rate and still fits everything;
        // the weak class may or may not carry the heavy stage — but the
        // strong class must carry at least as much as the weak one.
        let (weak_ops, strong_ops) = (&part.leaves[0].site_ops[0], &part.leaves[1].site_ops[0]);
        assert!(strong_ops.len() >= weak_ops.len());
        assert!(part.leaves.iter().all(|l| !l.link_cut_edges[0].is_empty()));
        // The server-side union covers everything any class leaves behind.
        let union = part.ops_at(dep.root());
        for id in g.operator_ids() {
            if !weak_ops.contains(&id) || !strong_ops.contains(&id) {
                assert!(union.contains(&id));
            }
        }
        assert!(part.link_net.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn one_leaf_star_is_the_hand_built_two_site_deployment() {
        let (g, prof) = profiled();
        let p = Platform::gumstix();
        let star = Deployment::star([(Site::new("node", &p), LinkSpec::for_platform(&p))]);
        let mut built = Deployment::new(Site::server("server", &Platform::server()));
        built.attach(
            built.root(),
            Site::new("node", &p),
            LinkSpec::for_platform(&p),
        );
        let cfg = DeploymentConfig::default();
        let a = partition_deployment(&g, &prof, &star, &cfg).unwrap();
        let b = partition_deployment(&g, &prof, &built, &cfg).unwrap();
        assert_eq!(a.leaves[0].path, vec![SiteId(1), SiteId(0)]);
        assert_eq!(a.leaves[0].site_ops, b.leaves[0].site_ops);
        assert_eq!(a.leaves[0].link_cut_edges, b.leaves[0].link_cut_edges);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }

    #[test]
    fn solve_at_in_runs_in_the_callers_arena_on_the_configured_backend() {
        let (g, prof) = profiled();
        let rate = 0.2;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let assert_same = |a: &DeploymentPartition, b: &DeploymentPartition, what: &str| {
            for (la, lb) in a.leaves.iter().zip(&b.leaves) {
                assert_eq!(la.site_ops, lb.site_ops, "{what}");
            }
            assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{what}");
            assert_eq!(bits(&a.site_cpu), bits(&b.site_cpu), "{what}");
            assert_eq!(bits(&a.link_net), bits(&b.link_net), "{what}");
            assert_eq!(
                a.certified_gap.map(f64::to_bits),
                b.certified_gap.map(f64::to_bits),
                "{what}"
            );
            // Not just the same answer: the same route to it.
            let (sa, sb) = (&a.ilp_stats, &b.ilp_stats);
            assert_eq!(
                (sa.warm_starts, sa.cold_starts, sa.simplex_iterations),
                (sb.warm_starts, sb.cold_starts, sb.simplex_iterations),
                "{what}"
            );
        };
        let mut cfg = DeploymentConfig::default();
        // Both backends: the sparse one could follow the retarget below
        // from a retained basis, the dense one the repeat.
        for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
            cfg.ilp.backend = backend;
            let prepare = || PreparedDeployment::new(&g, &prof, &forest(1e5, 1e6), &cfg).unwrap();
            let fresh = prepare()
                .solve_at_in(rate, &mut SimplexWorkspace::new())
                .expect("feasible");
            assert_eq!(fresh.ilp_stats.warm_starts, 0, "a fresh arena has no basis");

            // An arena that last solved a different shape must not leak
            // into the placement or the certificate.
            let mut used = SimplexWorkspace::new();
            let chain = Deployment::chain(&[Platform::tmote_sky(), Platform::server()]);
            PreparedDeployment::new(&g, &prof, &chain, &DeploymentConfig::default())
                .unwrap()
                .solve_at_in(0.05, &mut used)
                .expect("chain feasible");
            let mut prep = prepare();
            let reused = prep.solve_at_in(rate, &mut used).expect("feasible");
            assert_same(&fresh, &reused, "after another shape");

            // Nor one that last solved this very instance, whose basis
            // `solve_lp_in` would happily re-enter from: only the
            // instance's own workspace carries a basis over.
            prep.solve_at_in(1.5 * rate, &mut used).expect("feasible");
            prep.reset_warm_start();
            let again = prep.solve_at_in(rate, &mut used).expect("feasible");
            assert_same(&fresh, &again, "after the same instance");

            // The search ran on the backend the stats report.
            assert_eq!(used.backend(), backend);
            assert_eq!(again.ilp_stats.backend, backend);
        }
    }

    #[test]
    fn every_placement_carries_its_certified_gap() {
        // Whichever workspace it ran in. A placement that is not proved
        // optimal is certified against its search's bound by the
        // root-capped tests in `tests/approx_nearcliff.rs`.
        let (g, prof) = profiled();
        let dep = forest(1e5, 1e6);
        let cfg = DeploymentConfig::default();
        let mut own = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
        let mut arena = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
        let mut ws = SimplexWorkspace::new();
        for rate in [0.05, 0.1, 0.2, 0.3] {
            let a = own.solve_at(rate).expect("feasible");
            let b = arena.solve_at_in(rate, &mut ws).expect("feasible");
            for p in [a, b] {
                let gap = p.certified_gap.expect("every Ok carries one");
                assert!(p.ilp_stats.proved, "rel_gap 0, uncapped");
                assert_eq!(gap.to_bits(), 0.0f64.to_bits(), "a proved optimum");
            }
        }
    }

    #[test]
    fn apply_delta_matches_cold_rebuild() {
        let (g, prof) = profiled();
        let cfg = DeploymentConfig::default();
        let rate = 0.2;
        let dep = forest(1e5, 1e6);
        let mut warm = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
        warm.solve_at(rate).expect("baseline feasible");

        // Re-provision motes-a to 5 devices and tighten gw-a's CPU.
        let new_budget = 0.5 * dep.site(SiteId(1)).cpu_budget;
        warm.apply_delta(&[
            DeploymentDelta::SetLeafCount {
                leaf: SiteId(3),
                count: 5,
            },
            DeploymentDelta::SetCpuBudget {
                site: SiteId(1),
                cpu_budget: new_budget,
            },
        ]);
        let a = warm.solve_at(rate).expect("edited deployment feasible");

        let mut cold_dep = forest(1e5, 1e6);
        cold_dep.sites[3].count = 5;
        cold_dep.sites[1].cpu_budget = new_budget;
        let mut cold = PreparedDeployment::new(&g, &prof, &cold_dep, &cfg).unwrap();
        let b = cold.solve_at(rate).expect("cold rebuild feasible");

        assert_eq!(warm.encodes(), 1, "deltas must not re-encode");
        assert_eq!(warm.problem_size(), cold.problem_size());
        for (la, lb) in a.leaves.iter().zip(&b.leaves) {
            assert_eq!(la.site_ops, lb.site_ops);
        }
        assert!(
            (a.objective - b.objective).abs() < 1e-9 * (1.0 + b.objective.abs()),
            "warm {} vs cold {}",
            a.objective,
            b.objective
        );
        // Aggregates sum over hash sets, so allow summation-order noise.
        for (x, y) in a.site_cpu.iter().zip(&b.site_cpu) {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()));
        }
        for (x, y) in a.link_net.iter().zip(&b.link_net) {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn remove_leaf_zeroes_routed_classes_and_revives() {
        let (g, prof) = profiled();
        let cfg = DeploymentConfig::default();
        let rate = 0.2;
        let dep = forest(1e5, 1e6);
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
        let before = prep.solve_at(rate).expect("baseline feasible");

        prep.apply_delta(&[DeploymentDelta::RemoveLeaf { leaf: SiteId(3) }]);
        let gone = prep.solve_at(rate).expect("still feasible");
        assert_eq!(gone.site_cpu[1], 0.0, "gw-a hosts no routed class");
        assert_eq!(gone.link_net[1], 0.0, "gw-a uplink is silent");
        assert_eq!(gone.link_net[3], 0.0, "motes-a uplink is silent");
        assert_eq!(
            gone.leaves[1].site_ops, before.leaves[1].site_ops,
            "ward B is untouched by ward A's removal"
        );

        prep.apply_delta(&[DeploymentDelta::SetLeafCount {
            leaf: SiteId(3),
            count: 1,
        }]);
        let back = prep.solve_at(rate).expect("revived deployment feasible");
        assert_eq!(prep.encodes(), 1);
        for (la, lb) in back.leaves.iter().zip(&before.leaves) {
            assert_eq!(la.site_ops, lb.site_ops, "revival restores the baseline");
        }
        assert!((back.objective - before.objective).abs() < 1e-9 * (1.0 + before.objective.abs()));
    }

    #[test]
    fn robust_pricing_survives_any_single_gateway_failure() {
        let (g, prof) = profiled();
        let rate = 0.2;
        // One ward: gw with 3 devices relaying 6 motes that can only
        // afford their pinned source. The gateway CPU budget fits the
        // pipeline balanced across 3 devices but not across 2 — nominal
        // pricing parks work on the gateway that a single failure
        // overloads; robust pricing must not.
        let phone = Platform::iphone();
        let mote = Platform::tmote_sky();
        let one_class: f64 = [OperatorId(1), OperatorId(2)]
            .iter()
            .map(|&op| prof.cpu_fraction(op, &phone) * rate)
            .sum();
        let src_cost = prof.cpu_fraction(OperatorId(0), &mote) * rate;
        let mut dep = Deployment::new(Site::server("server", &Platform::server()));
        let root = dep.root();
        // 6 leaf devices over 3 gateways: per-device load is 2x a class;
        // over 2 survivors it is 3x. Budget between the two.
        let gw = dep.attach(
            root,
            Site::new("gw", &phone)
                .with_count(3)
                .with_cpu_budget(2.5 * one_class),
            LinkSpec {
                beta: 1.0,
                net_budget: 1e6,
            },
        );
        dep.attach(
            gw,
            Site::new("motes", &mote)
                .with_count(6)
                .with_cpu_budget(1.0001 * src_cost),
            LinkSpec {
                beta: 1.0,
                net_budget: 1e12,
            },
        );

        let nominal =
            partition_deployment(&g, &prof, &dep, &DeploymentConfig::default().at_rate(rate))
                .expect("nominal feasible");
        let robust = partition_deployment(
            &g,
            &prof,
            &dep,
            &DeploymentConfig::default()
                .at_rate(rate)
                .with_robustness(RobustnessMode::SingleGatewayFailure),
        )
        .expect("robust feasible");

        // Nominal pricing uses the gateway; with one of 3 devices gone
        // the survivors' per-device CPU exceeds the budget.
        let (c, budget) = (3.0, dep.site(SiteId(1)).cpu_budget);
        assert!(
            nominal.site_cpu[1] * c / (c - 1.0) > budget + 1e-9,
            "nominal placement must be fragile for this test to bite: {} vs {budget}",
            nominal.site_cpu[1] * c / (c - 1.0)
        );
        // The robust placement stays within every failed-over budget row.
        assert!(robust.site_cpu[1] * c / (c - 1.0) <= budget + 1e-9);
        let uplink = dep.uplink(SiteId(1)).unwrap().net_budget;
        assert!(robust.link_net[1] <= uplink * (c - 1.0) / c + 1e-9);
    }
}
