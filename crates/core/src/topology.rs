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
//! branch-and-bound with the previous incumbent (or, with none, the
//! multilevel cut, on demand), and decodes its answer
//! from the same merged leaf graphs the budget rows were written from;
//! [`max_sustainable_rate_deployment`] runs §4.3 on top of it, answering a
//! probe from the last proved placement while that still fits, and from
//! the last root LP refutation while that still refutes.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use wishbone_dataflow::{EdgeId, Graph, OperatorId, OP_CLASSES};
use wishbone_ilp::{
    solve_ilp_seeded_in, IlpOptions, IlpStats, Refutation, SimplexWorkspace, SolveError, VarId,
};
use wishbone_profile::{GraphProfile, Platform};

use crate::cost_graph::{Mode, PinError};
use crate::encodings::{
    encode_deployment, CpuRow, DeploymentObjective, EncodedDeployment, LeafChain, TierObjective,
};
use crate::multilevel::CutHierarchy;
use crate::multitier::{ChainTable, LinkSpec, TieredGraph};
use crate::shape::{leaf_key, LeafKey};

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
    /// A budgeted site on `platform` (count 1, `α = 0`, CPU budget 1.0 —
    /// the paper's "allow the CPU to be fully utilized but not
    /// over-utilized" — and unit rate).
    pub fn new(name: impl Into<String>, platform: &Platform) -> Self {
        Site {
            name: name.into(),
            platform: platform.clone(),
            count: 1,
            alpha: 0.0,
            cpu_budget: 1.0,
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
    /// predicted vs 15% measured CPU. An overhead that is not finite and
    /// positive is no factor: a site carrying one is
    /// [`PartitionError::InvalidPlatform`], not an unlimited budget.
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

    /// Whether `id` has no children.
    pub(crate) fn is_leaf(&self, id: SiteId) -> bool {
        !self.parent.contains(&Some(id))
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

    /// Refuse a deployment the solver cannot price. One with no site
    /// under the root is [`PartitionError::NoLeaf`]: the root would be
    /// its only leaf, and there is no source to partition. A device
    /// count of zero
    /// ([`Site::count`] is a public field) is
    /// [`PartitionError::InvalidCount`] naming that site: there is no
    /// device to run its operators on. A NaN or `−∞` CPU budget at a
    /// site, or uplink budget over its uplink, is
    /// [`PartitionError::InvalidBudget`]: the §4.1 merge, the encoder and
    /// [`shape_key`](crate::shape_key) read a budget only through
    /// `is_finite()`, so either would otherwise solve as "no limit".
    /// `+∞` is no limit; a finite budget is a row, and a zero or negative
    /// one fits no placement ([`PartitionError::Infeasible`]). A
    /// [`Site::rate_factor`] that is not finite and positive is
    /// [`PartitionError::InvalidRateFactor`], and a [`Site::alpha`] or
    /// uplink [`LinkSpec::beta`] that is not finite and non-negative is
    /// [`PartitionError::InvalidWeight`]: both multiply into every
    /// objective coefficient and (the rate factor) every budget row, so a
    /// NaN, infinite or negative one would solve to a NaN or negative
    /// objective. A [`Site::platform`] that cannot price is
    /// [`PartitionError::InvalidPlatform`].
    pub fn check_sites(&self) -> Result<(), PartitionError> {
        if self.sites.len() < 2 {
            return Err(PartitionError::NoLeaf);
        }
        for id in self.site_ids() {
            let site = self.site(id);
            if site.count == 0 {
                return Err(PartitionError::InvalidCount { site: id });
            }
            let uplink = self.uplink(id);
            let net = uplink.map_or(f64::INFINITY, |l| l.net_budget);
            if !is_budget(site.cpu_budget) || !is_budget(net) {
                return Err(PartitionError::InvalidBudget { site: id });
            }
            if !(site.rate_factor.is_finite() && site.rate_factor > 0.0) {
                return Err(PartitionError::InvalidRateFactor { site: id });
            }
            let beta = uplink.map_or(0.0, |l| l.beta);
            if !is_weight(site.alpha) || !is_weight(beta) {
                return Err(PartitionError::InvalidWeight { site: id });
            }
            if !can_price(&site.platform) {
                return Err(PartitionError::InvalidPlatform { site: id });
            }
        }
        Ok(())
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
            alpha: Vec::new(),
            cpu_budget: Vec::new(),
            count: Vec::new(),
            beta: Vec::new(),
            net_budget: Vec::new(),
            row_order: self.site_order().iter().map(|s| s.0).collect(),
        };
        self.reprice_objective(&mut obj, robustness);
        obj
    }

    /// Rewrite `obj`'s weights, budgets and counts from this deployment
    /// in place, as [`objective_with`](Self::objective_with) prices them.
    /// Its row order is the tree's, which no delta moves, so it is kept.
    fn reprice_objective(&self, obj: &mut DeploymentObjective, robustness: RobustnessMode) {
        let (sites, uplinks) = (&self.sites, &self.uplink);
        obj.alpha.clear();
        obj.alpha.extend(sites.iter().map(|s| s.alpha));
        obj.cpu_budget.clear();
        obj.cpu_budget.extend(sites.iter().map(|s| s.cpu_budget));
        obj.count.clear();
        obj.count.extend(sites.iter().map(|s| s.count as f64));
        obj.beta.clear();
        obj.beta
            .extend(uplinks.iter().map(|u| u.map_or(0.0, |l| l.beta)));
        obj.net_budget.clear();
        obj.net_budget.extend(
            uplinks
                .iter()
                .map(|u| u.map_or(f64::INFINITY, |l| l.net_budget)),
        );
        if robustness == RobustnessMode::SingleGatewayFailure {
            let root = self.root();
            for (i, s) in self.sites.iter().enumerate() {
                let interior = SiteId(i) != root && !self.is_leaf(SiteId(i));
                if interior && s.count >= 2 {
                    let c = s.count as f64;
                    obj.count[i] = c - 1.0;
                    obj.net_budget[i] *= (c - 1.0) / c;
                }
            }
        }
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
/// merge always runs, and exact branch-and-bound with no warmer start
/// asks for the multilevel heuristic's cut whenever its root LP is
/// fractional — near a cliff, feasibility is *discovered* by the
/// heuristic in milliseconds and merely *proved* optimal by the exact
/// search (the near-cliff fix); an integral root LP needs no seed.
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
    /// branch-and-bound seeded on demand by the multilevel cut, and every
    /// placement carries its [`DeploymentPartition::certified_gap`]; this
    /// builder stays only because `benchmark/` names it. A bounded-time
    /// answer is `ilp.max_nodes = 1` on a fresh instance: an integral root
    /// LP, or else the seed with its distance from the root bound.
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
    /// Operators assigned to each path position, each list sorted
    /// strictly ascending. Together the lists hold every operator of the
    /// program exactly once.
    pub site_ops: Vec<Vec<OperatorId>>,
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
    /// Path position of `op`, if it exists in the program: a binary
    /// search of each position's sorted list.
    pub fn position_of(&self, op: OperatorId) -> Option<usize> {
        self.site_ops
            .iter()
            .position(|ops| ops.binary_search(&op).is_ok())
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

    /// Operators hosted at `site` for at least one leaf class, sorted
    /// ascending, each once.
    pub fn ops_at(&self, site: SiteId) -> Vec<OperatorId> {
        let mut ops = Vec::new();
        for leaf in &self.leaves {
            if let Some(pos) = leaf.path.iter().position(|&s| s == site) {
                ops.extend_from_slice(&leaf.site_ops[pos]);
            }
        }
        ops.sort_unstable();
        ops.dedup();
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
    /// A rate search's relative precision is not a finite positive
    /// number: with a zero or NaN one the bisection has no end.
    InvalidTolerance {
        /// The offending tolerance, as given.
        tol: f64,
    },
    /// A CPU budget of `site`, or the budget of its uplink, is NaN or
    /// `−∞` ([`Deployment::check_sites`]): not a limit, and not "no
    /// limit" either, which is `+∞`.
    InvalidBudget {
        /// The site whose CPU or uplink budget is invalid.
        site: SiteId,
    },
    /// The rate factor of `site` is not finite and positive
    /// ([`Deployment::check_sites`]).
    InvalidRateFactor {
        /// The site whose rate factor is invalid.
        site: SiteId,
    },
    /// The CPU weight of `site`, or the bandwidth weight of its uplink, is
    /// not finite and non-negative ([`Deployment::check_sites`]).
    InvalidWeight {
        /// The site whose CPU or uplink weight is invalid.
        site: SiteId,
    },
    /// The platform of `site` cannot price ([`Deployment::check_sites`]):
    /// its [`Platform::effective_hz`] is not finite and positive or a
    /// cycle cost not finite and non-negative (either prices operators to
    /// NaN or negative CPU), its `os_overhead` is not finite and positive
    /// (a zero one turns every budget [`Site::with_measured_overheads`]
    /// derates into `+∞`, no limit at all), or its
    /// `radio.format.max_payload` is zero (no edge can be framed).
    InvalidPlatform {
        /// The site whose platform is invalid.
        site: SiteId,
    },
    /// The deployment has no site under its root, so the root would be
    /// its only leaf ([`Deployment::check_sites`]).
    NoLeaf,
    /// `site` has a device count of zero ([`Deployment::check_sites`]).
    /// A class out of service is a removed leaf
    /// ([`DeploymentDelta::RemoveLeaf`]), not an empty one.
    InvalidCount {
        /// The site with no devices.
        site: SiteId,
    },
    /// `cfg.ilp.rel_gap` is NaN or negative. Every bound prune compares
    /// against the incumbent plus that gap, so with a NaN none fires and
    /// with a negative one nothing inside the gap does: the search would
    /// run the tree out. `+∞` is legal: it stops at the first placement,
    /// whose certified gap stays honest.
    InvalidGap {
        /// The offending gap, as given.
        rel_gap: f64,
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
            PartitionError::InvalidTolerance { tol } => {
                write!(f, "rate search tolerance {tol} is not finite and positive")
            }
            PartitionError::InvalidBudget { site } => {
                write!(f, "site {site:?} has a NaN or -inf CPU or uplink budget")
            }
            PartitionError::InvalidRateFactor { site } => {
                write!(
                    f,
                    "site {site:?} has a rate factor that is not finite and positive"
                )
            }
            PartitionError::InvalidWeight { site } => {
                write!(
                    f,
                    "site {site:?} has a CPU or uplink weight that is not finite and non-negative"
                )
            }
            PartitionError::InvalidPlatform { site } => {
                write!(f, "site {site:?} has a platform that cannot price")
            }
            PartitionError::NoLeaf => {
                write!(f, "the deployment has no leaf under its root")
            }
            PartitionError::InvalidCount { site } => {
                write!(f, "site {site:?} has no devices")
            }
            PartitionError::InvalidGap { rel_gap } => {
                write!(f, "relative gap {rel_gap} is NaN or negative")
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
/// The graph is shared with every leaf, of this instance or another
/// prepared from the same [`LeafGraphs`], whose leaf key is equal.
struct PreparedLeaf {
    leaf: SiteId,
    path: Vec<SiteId>,
    /// `path` as the site indices a [`LeafChain`] carries.
    path_indices: Vec<usize>,
    graph: Arc<TieredGraph>,
}

/// Priced, merged leaf graphs shared by content: a memo from a leaf's
/// key to its merged chain graph, which
/// [`PreparedDeployment::new_in`] reads and fills.
///
/// A leaf's graph is a pure function of the program (graph and profile
/// content, `profile.duration_s`, the pin `Mode`), the platforms on its
/// root path, its `rate_factor`, and which tiers above it may charge CPU
/// (`α ≠ 0` or a finite budget). The key holds exactly those; uplink
/// weights and budgets, CPU budget values, counts, robustness and solver
/// options stay out, because neither the pricing nor the §4.1 merge reads
/// them. So a hit is bit for bit the graph a fresh price and merge would
/// build. Like a shape key, a leaf key names content, not addresses: an
/// entry keeps no graph or profile alive, and the memo may be dropped
/// whenever its owner likes (the fleet's `ShapeCache` keeps one for its
/// life, beside its prepared instances).
#[derive(Default)]
pub struct LeafGraphs {
    merged: HashMap<LeafKey, Arc<TieredGraph>>,
}

impl LeafGraphs {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct leaf keys merged so far.
    pub fn len(&self) -> usize {
        self.merged.len()
    }

    /// Whether nothing has been merged yet.
    pub fn is_empty(&self) -> bool {
        self.merged.is_empty()
    }
}

/// A memo miss: price the leaf whose root path is `path` and merge it.
/// `table` is the call's unpriced chain table, built from `graph` on its
/// first miss and re-priced for every later one — the only place the
/// prepare path builds a table or runs the merge (`xtask lint`'s
/// `one-merge` rule).
fn merge_leaf(
    table: &mut Option<ChainTable>,
    graph: &Graph,
    profile: &GraphProfile,
    dep: &Deployment,
    path: &[SiteId],
    mode: Mode,
) -> Result<TieredGraph, PinError> {
    let table = match table {
        Some(table) => table,
        None => table.insert(ChainTable::from_graph(graph, mode)?),
    };
    let platforms: Vec<&Platform> = path.iter().map(|&s| &dep.site(s).platform).collect();
    table.price(profile, &platforms, dep.site(path[0]).rate_factor);
    Ok(table.merge(&dep.leaf_objective(path[0]))?.graph)
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
/// multilevel heuristic consume it: every leaf at its [`leaf_counts`]
/// count.
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

/// Expand a per-leaf tier assignment into `ep`'s full indicator vector
/// (`y[l][b][v] = 1 ⇔ tier ≤ b`).
fn y_values(ep: &EncodedDeployment, tiers: &[Vec<usize>]) -> Vec<f64> {
    let mut values = vec![0.0f64; ep.problem.num_vars()];
    for (l, leaf) in ep.y_vars.iter().enumerate() {
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

/// Branch-and-bound's seed: the multilevel heuristic's cut of a prepared
/// instance at `rate` — its leaf chains `chains`, objective `obj` — as an
/// assignment of `ep`, verified against the (already retargeted) encoded
/// problem. `None` when the heuristic finds no budget-feasible placement.
/// The first call builds the instance's hierarchy into `hierarchy`; every
/// later one cuts the kept one. The fields come apart rather than as a
/// `PreparedDeployment`, so a search can lend them while it holds the
/// instance's workspace.
fn seed_values(
    hierarchy: &mut Option<Option<CutHierarchy>>,
    chains: &[LeafChain<'_>],
    obj: &DeploymentObjective,
    ep: &EncodedDeployment,
    rate: f64,
) -> Option<Vec<f64>> {
    let hierarchy = hierarchy.get_or_insert_with(|| CutHierarchy::build(chains));
    let counts: Vec<f64> = chains.iter().map(|c| c.count).collect();
    let cut = hierarchy.as_ref()?.cut(&counts, obj, rate)?;
    let values = y_values(ep, &cut.tiers);
    if !ep.problem.is_feasible(&values, 1e-6) {
        debug_assert!(
            false,
            "multilevel cut broke its feasible-by-construction contract"
        );
        return None;
    }
    #[cfg(debug_assertions)]
    {
        let spec = crate::audit::deployment_spec(ep);
        let report = wishbone_audit::audit_assignment(&ep.problem, &spec, &values);
        report.assert_no_errors("multilevel cut assignment");
    }
    Some(values)
}

/// A deployment instance prepared for repeated solves at varying input
/// rates. The paper's evaluation asks thousands of questions of the
/// *same* application (2100 lp_solve runs for Fig 6; a binary search per
/// platform for §4.3), and only the input-rate multiplier — a uniform
/// scale on every profiled cost — changes between them. So pricing,
/// per-leaf merge, and encoding happen once (and the first two not even
/// that for a leaf whose key a [`LeafGraphs`] memo already holds: see
/// [`new_in`](Self::new_in)); every probe rescales the
/// prepared ILP in place (objective × rate, budget right-hand sides ÷
/// rate) on one reused [`SimplexWorkspace`]. The multilevel heuristic's
/// coarsening of the merged leaf graphs ([`crate::multilevel`], phase 1)
/// is built at most once too, on first demand: the first time a search
/// asks for a seed, which it does only with no placement to start from
/// and once it is stuck — three node LPs with no incumbent, or its budget
/// spent with none (an instance whose searches all reach an integral node
/// LP sooner, every fleet shape's, never builds it). It reads pins,
/// per-tier CPU costs and per-link
/// bandwidths, never a count, a budget or the rate, so once built it is
/// kept for the life of the instance, no delta or probe can stale it, and
/// — unlike the two things below — keeping it, or building it after some
/// deltas rather than before, cannot change any answer: a cut of the kept
/// hierarchy is bit for bit the cut of a freshly built one.
///
/// The instance keeps nothing of its caller's: the graph and profile are
/// read while it prepares and never again. What it keeps is the deployment
/// (plus applied deltas), the configuration, each leaf's path and merged
/// graph (shared, read-only, with every leaf of equal key prepared from
/// the same memo), the encoding and, once built, the hierarchy. The
/// merged graphs are the only priced view of the program: the budget rows
/// are written from their costs, and every solve decodes its per-site
/// operators, cut edges and predicted loads from them too, so a
/// prediction is a budget row's own left-hand side (up to summation
/// order) rather than a second pricing that has to agree with it. The
/// lifetime parameter is a marker only.
///
/// Two things are kept from one [`solve_at`](Self::solve_at) to the next:
/// the last placement, which seeds branch-and-bound as its first
/// incumbent (and answers [`max_sustainable_rate_deployment`]'s probes
/// while it still fits), and — in the instance's own workspace only — the
/// last simplex basis. A retarget scales the objective uniformly and moves a
/// handful of budget right-hand sides, so that basis is still dual
/// feasible and the next root LP costs a few dual pivots instead of a
/// solve from the slack basis, whatever the instance's size (the
/// reference tableau, when `cfg.ilp.backend` names it, keeps no basis:
/// it solves every LP cold).
/// Verdicts and optimal values never depend on this; which of several
/// equally cheap placements comes back can. A third thing serves
/// [`max_sustainable_rate_deployment`]'s probes alone: the last root LP
/// [`Refutation`], which answers a probe `Infeasible` while it still
/// refutes the probe's budget right-hand sides. It is a checked proof, so
/// it changes no verdict either.
/// [`reset_warm_start`](Self::reset_warm_start) drops all three, and
/// [`apply_delta`](Self::apply_delta) drops the refutation (it belongs to
/// the rows it combines) and rewrites budget rows, which makes the next
/// root LP a cold start by itself.
///
/// A solve's fixed cost, which is what a fleet cache hit pays, is kept
/// to the search's own pivots: [`apply_delta`](Self::apply_delta)
/// rewrites the objective and every budget row into their existing
/// storage, a retarget writes coefficients and right-hand sides in place,
/// a cold root LP factors its slack basis directly, and the decode's
/// per-vertex scratch is the instance's. What a response owns is
/// allocated for it; little else is.
pub struct PreparedDeployment<'a> {
    _marker: PhantomData<&'a ()>,
    dep: Deployment,
    cfg: DeploymentConfig,
    leaves: Vec<PreparedLeaf>,
    /// The multilevel heuristic's coarsening of `leaves`' graphs, built by
    /// the first [`seed_values`] call and kept — `None` until then, and
    /// `Some(None)` when some leaf's pins admit no placement at all.
    /// Deltas edit counts and budgets, never a leaf graph, so it is never
    /// rebuilt.
    hierarchy: Option<Option<CutHierarchy>>,
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
    last: Option<Placement>,
    /// The last root LP refutation a search kept
    /// ([`IlpStats::refutation`]).
    refutation: Option<Refutation>,
    /// Wall-clock cost of the one-time build: encoding, plus pricing and
    /// the §4.1 merge for each leaf the memo did not hold.
    encode_s: f64,
    /// Decode scratch, reused by every solve: a leaf's vertex path
    /// positions, then its per-position operator counts.
    decode_scratch: Vec<usize>,
}

/// The placement of the last branch-and-bound run, as the instance keeps
/// it between solves.
struct Placement {
    /// The encoding-level assignment (the next solve's seed).
    values: Vec<f64>,
    /// The rate it was solved at.
    rate: f64,
    /// Its objective at `rate`, offset included.
    objective: f64,
    stats: IlpStats,
    certified_gap: Option<f64>,
}

impl<'a> PreparedDeployment<'a> {
    /// Price every leaf's chain graph, merge and encode — once.
    /// [`new_in`](Self::new_in) with a fresh [`LeafGraphs`], so leaves of
    /// this deployment with equal keys (the forest's two wards) still
    /// share one price and merge. The multilevel hierarchy is not built
    /// here but on a search's first demand for a seed. `graph` and
    /// `profile` are read here and not kept. `cfg.rate_multiplier` is
    /// ignored here; pass the rate to
    /// [`solve_at`](PreparedDeployment::solve_at). A NaN or negative
    /// `cfg.ilp.rel_gap` is [`PartitionError::InvalidGap`].
    pub fn new(
        graph: &Graph,
        profile: &GraphProfile,
        dep: &Deployment,
        cfg: &DeploymentConfig,
    ) -> Result<Self, PartitionError> {
        Self::new_in(graph, profile, dep, cfg, &mut LeafGraphs::new())
    }

    /// [`new`](Self::new), taking each leaf's merged graph from `memo`
    /// when a leaf with an equal key was merged before and adding the
    /// ones it merges. Only a leaf with a new key is priced and merged,
    /// and the graph's chain table is built only if some leaf is; the
    /// encoding is always this call's own. The instance is bit for bit
    /// the one a cold [`new`](Self::new) prepares, whatever `memo` holds
    /// (see [`LeafGraphs`]).
    pub fn new_in(
        graph: &Graph,
        profile: &GraphProfile,
        dep: &Deployment,
        cfg: &DeploymentConfig,
        memo: &mut LeafGraphs,
    ) -> Result<Self, PartitionError> {
        dep.check_sites()?;
        let rel_gap = cfg.ilp.rel_gap;
        if rel_gap.is_nan() || rel_gap < 0.0 {
            return Err(PartitionError::InvalidGap { rel_gap });
        }
        let encode_t = Instant::now();
        // One flat table for the call's misses: pins and structure once,
        // costs re-priced per root path; only merged graphs are
        // materialised.
        let mut table = None;
        let mut leaves = Vec::new();
        let mut vertices_after = 0;
        for leaf in dep.leaves() {
            let path = dep.path(leaf);
            let merged = match memo.merged.entry(leaf_key(graph, profile, dep, &path, cfg)) {
                Entry::Occupied(hit) => Arc::clone(hit.get()),
                Entry::Vacant(miss) => {
                    let merged = merge_leaf(&mut table, graph, profile, dep, &path, cfg.mode)?;
                    Arc::clone(miss.insert(Arc::new(merged)))
                }
            };
            vertices_after += merged.vertices.len();
            leaves.push(PreparedLeaf {
                leaf,
                path_indices: path.iter().map(|s| s.0).collect(),
                path,
                graph: merged,
            });
        }
        let vertices_before = leaves.len() * graph.operator_count();

        let removed = vec![false; leaves.len()];
        let obj = dep.objective_with(cfg.robustness);
        let chains = leaf_chains(&leaves, &removed, dep);
        let ep = encode_deployment(&chains, &obj);
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
            hierarchy: None,
            vertices_before,
            vertices_after,
            ep,
            base_objective,
            workspace: SimplexWorkspace::new(),
            encodes: 1,
            solves: 0,
            last: None,
            refutation: None,
            encode_s: encode_t.elapsed().as_secs_f64(),
            decode_scratch: Vec::new(),
        })
    }

    /// [`new`](Self::new) over `Arc`-held inputs, as a `'static` instance.
    /// The instance holds neither input, and a cache keyed by
    /// [`shape_key`](crate::shape_key) need not either: the key holds the
    /// inputs' content fingerprints, not their addresses.
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
                    assert!(
                        is_budget(cpu_budget),
                        "CPU budget {cpu_budget} is not a budget"
                    );
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
                    assert!(
                        is_budget(net_budget),
                        "uplink budget {net_budget} is not a budget"
                    );
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
        self.refutation = None;
        self.dep
            .reprice_objective(&mut self.obj, self.cfg.robustness);
        let chains = leaf_chains(&self.leaves, &self.removed, &self.dep);
        self.ep.rescale_in_place(&chains, &self.obj);
        let problem = &self.ep.problem;
        self.base_objective.clear();
        self.base_objective
            .extend((0..problem.num_vars()).map(|j| problem.objective_coeff(VarId(j))));
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
    /// incumbent, the last refutation, and the basis retained in the
    /// instance's own workspace.
    /// The next [`solve_at`](Self::solve_at) then runs exactly like the
    /// first solve of a freshly prepared instance — branch-and-bound
    /// keeps a seeded incumbent on objective ties, and a warm root LP can
    /// land on a different optimal vertex, so either could steer
    /// tie-breaking toward a different (equally optimal) placement. The
    /// fleet service calls this between requests so cache hits stay
    /// bit-identical to serial one-shot solves.
    pub fn reset_warm_start(&mut self) {
        self.last = None;
        self.refutation = None;
        self.workspace.invalidate();
    }

    /// Wall-clock cost of the one-time build, seconds: the encoding, plus
    /// pricing and merge for each leaf whose key the [`LeafGraphs`] memo
    /// of [`new_in`](Self::new_in) did not hold (every leaf under
    /// [`new`](Self::new), up to leaves of equal key). Paid once per
    /// instance; no solve reports it. The multilevel
    /// hierarchy, built on a search's first demand for a seed, is in that
    /// search's `warm_start_s` instead.
    pub fn encode_seconds(&self) -> f64 {
        self.encode_s
    }

    /// How many branch-and-bound runs this instance has made: one per
    /// [`solve_at`](Self::solve_at) / [`solve_at_in`](Self::solve_at_in)
    /// at a valid rate.
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
        let EncodedDeployment {
            problem,
            cpu_rows,
            net_rows,
            ..
        } = &mut self.ep;
        for (j, &base) in self.base_objective.iter().enumerate() {
            problem.set_objective_coeff(VarId(j), base * rate);
        }
        for (row, rhs) in budget_rhs(cpu_rows, net_rows, &self.obj, rate) {
            problem.set_rhs(row, rhs);
        }
    }

    /// [`budget_rhs`] of this instance at `rate`.
    fn budget_rhs(&self, rate: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        budget_rhs(&self.ep.cpu_rows, &self.ep.net_rows, &self.obj, rate)
    }

    /// Does `values` hold every budget row at `rate`? Exactly, with no
    /// solver tolerance: a placement that is over a budget by any margin
    /// is left to branch-and-bound.
    fn fits(&self, values: &[f64], rate: f64) -> bool {
        self.budget_rhs(rate).all(|(row, rhs)| {
            let terms = &self.ep.problem.constraint(row).terms;
            terms.iter().map(|&(v, a)| a * values[v.0]).sum::<f64>() <= rhs
        })
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
        self.search(rate, arena)?;
        Ok(self.decode_last())
    }

    /// One probe of the §4.3 search at `rate`, answered without a solve
    /// when the last placement settles it: it was proved at a rate no
    /// higher than this one and still fits every budget row here. Budgets
    /// only tighten as the rate grows while the objective scales
    /// uniformly, so that placement is then optimal here too (within the
    /// same relative gap) and a branch-and-bound run would only re-prove
    /// it. Failing that, `Infeasible` without a solve when the last
    /// refutation still refutes this rate's budgets. Otherwise one
    /// [`search`](Self::search).
    fn probe(&mut self, rate: f64) -> Result<(), PartitionError> {
        check_rate(rate)?;
        match &self.last {
            Some(last)
                if last.stats.proved && last.rate <= rate && self.fits(&last.values, rate) =>
            {
                Ok(())
            }
            _ if self.refuted_at(rate) => Err(PartitionError::Infeasible),
            _ => self.search(rate, None),
        }
    }

    /// Does the last refutation still refute the problem at `rate`? Only
    /// the budget rows' right-hand sides move with the rate, and each only
    /// shrinks as it grows, so one refuted probe refutes every higher one
    /// and any lower one whose budgets it still clears.
    fn refuted_at(&self, rate: f64) -> bool {
        let Some(refutation) = &self.refutation else {
            return false;
        };
        let budgets: Vec<(usize, f64)> = self.budget_rhs(rate).collect();
        refutation.refutes(|row| match budgets.iter().find(|&&(r, _)| r == row) {
            Some(&(_, rhs)) => rhs,
            None => self.ep.problem.constraint(row).rhs,
        })
    }

    /// Carry the last placement to `rate` without a solve, where it is
    /// known optimal (a proved placement that still fits a higher rate
    /// is, see [`probe`](Self::probe)): retarget, and price its objective
    /// as a solve seeded with it would.
    fn reprice_last(&mut self, rate: f64) {
        self.retarget(rate);
        let offset = self.ep.objective_offset * rate;
        let last = self
            .last
            .as_mut()
            .expect("a feasible probe kept a placement");
        last.objective = self.ep.problem.objective_value(&last.values) + offset;
        last.rate = rate;
    }

    /// Retarget to `rate` and run branch-and-bound in `arena` (see
    /// [`solve_in`](Self::solve_in)), keeping its placement as the
    /// instance's last.
    fn search(
        &mut self,
        rate: f64,
        arena: Option<&mut SimplexWorkspace>,
    ) -> Result<(), PartitionError> {
        check_rate(rate)?;
        self.solves += 1;
        self.retarget(rate);

        let mut opts = self.cfg.ilp.clone();
        if opts.warm_solution.is_none() {
            opts.warm_solution = self.last.as_ref().map(|last| last.values.clone());
        }
        // With no placement to start from, the multilevel cut is asked for
        // on demand. The closure borrows the fields the seed reads, apart
        // from the workspace the search holds.
        let unseeded = opts.warm_solution.is_none();
        let (hierarchy, ep, obj) = (&mut self.hierarchy, &self.ep, &self.obj);
        let (leaves, removed, dep) = (&self.leaves, &self.removed, &self.dep);
        let seed = || {
            let chains = unseeded.then(|| leaf_chains(leaves, removed, dep))?;
            seed_values(hierarchy, &chains, obj, ep, rate)
        };
        let ws = arena.unwrap_or(&mut self.workspace);
        let (result, mut stats) = solve_ilp_seeded_in(&ep.problem, &opts, ws, seed);
        if let Some(refutation) = stats.refutation.take() {
            self.refutation = Some(refutation);
        }
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
        let objective = sol.objective + offset;
        let certified_gap = stats.best_bound.map(|bound| {
            ((objective - (bound + offset)) / objective.abs().max(f64::EPSILON)).max(0.0)
        });
        self.last = Some(Placement {
            values: sol.values,
            rate,
            objective,
            stats,
            certified_gap,
        });
        Ok(())
    }

    /// Decode the last placement into the public [`DeploymentPartition`]
    /// view: per-leaf placements, per-hop cut edges, and aggregate
    /// per-site loads — all read off the merged leaf graphs, whose costs
    /// are the budget rows' coefficients.
    fn decode_last(&mut self) -> DeploymentPartition {
        let last = self.last.as_ref().expect("a search kept a placement");
        let (values, rate) = (&last.values, last.rate);
        let mut leaves = Vec::with_capacity(self.leaves.len());
        for (l, prep) in self.leaves.iter().enumerate() {
            let (k, graph) = (prep.path.len(), &prep.graph);
            // Each vertex's path position, then each position's operator
            // count, in the instance's scratch: the response owns neither.
            let scratch = &mut self.decode_scratch;
            scratch.clear();
            self.ep.decode_leaf_into(l, values, scratch);
            let n = scratch.len();
            scratch.resize(n + k, 0);
            let (tier, tier_count) = scratch.split_at_mut(n);
            // Sums run in vertex and edge order, so identical solves report
            // identical bits (the fleet parity suite compares these vectors
            // bit for bit with serial solves); each position's operator list
            // is filled in vertex order and then sorted, so it is canonical.
            let mut predicted_cpu = vec![0.0f64; k];
            for (vert, &t) in graph.vertices.iter().zip(&*tier) {
                tier_count[t] += vert.ops.len();
                predicted_cpu[t] += vert.cpu_cost[t];
            }
            let mut site_ops: Vec<Vec<OperatorId>> =
                tier_count.iter().map(|&c| Vec::with_capacity(c)).collect();
            for (vert, &t) in graph.vertices.iter().zip(&*tier) {
                site_ops[t].extend_from_slice(&vert.ops);
            }
            for ops in &mut site_ops {
                ops.sort_unstable();
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
            objective: last.objective,
            ilp_stats: last.stats.clone(),
            problem_size: (
                self.ep.problem.num_vars(),
                self.ep.problem.num_constraints(),
            ),
            merge_stats: (self.vertices_before, self.vertices_after),
            certified_gap: last.certified_gap,
        }
    }
}

/// Every budget row with its right-hand side at `rate`: `C/r − shift` for
/// a CPU row, `B/r` for an uplink row. Their terms do not depend on the
/// rate.
fn budget_rhs<'e>(
    cpu_rows: &'e [Option<CpuRow>],
    net_rows: &'e [Option<usize>],
    obj: &'e DeploymentObjective,
    rate: f64,
) -> impl Iterator<Item = (usize, f64)> + 'e {
    let cpu = (cpu_rows.iter().zip(&obj.cpu_budget))
        .filter_map(move |(row, &c)| row.map(|cr| (cr.row, c / rate - cr.shift)));
    let net = (net_rows.iter().zip(&obj.net_budget))
        .filter_map(move |(row, &b)| row.map(|r| (r, b / rate)));
    cpu.chain(net)
}

/// Whether `budget` is one: finite (a row) or `+∞` (no row).
fn is_budget(budget: f64) -> bool {
    budget.is_finite() || budget == f64::INFINITY
}

/// An objective weight: finite and non-negative.
fn is_weight(weight: f64) -> bool {
    weight.is_finite() && weight >= 0.0
}

/// A platform that prices every operator to a finite, non-negative CPU
/// cost, derates a budget by a finite positive OS overhead, and frames
/// every edge into at least one packet.
fn can_price(platform: &Platform) -> bool {
    let hz = platform.effective_hz();
    let costs_ok = OP_CLASSES
        .iter()
        .all(|&c| is_weight(platform.cycle_costs.cost(c)));
    let overhead = platform.os_overhead;
    hz.is_finite()
        && hz > 0.0
        && costs_ok
        && overhead.is_finite()
        && overhead > 0.0
        && platform.radio.format.max_payload > 0
}

/// A rate multiplier is a finite positive number, or there is no instance
/// to solve.
pub(crate) fn check_rate(rate: f64) -> Result<(), PartitionError> {
    if rate.is_finite() && rate > 0.0 {
        Ok(())
    } else {
        Err(PartitionError::InvalidRate { rate })
    }
}

/// Result of the topology-aware §4.3 rate search.
#[derive(Debug, Clone)]
pub struct DeploymentRateResult {
    /// Highest feasible global rate multiplier found.
    pub rate: f64,
    /// The optimal placement at that rate, decoded there. Its `ilp_stats`
    /// and `certified_gap` are those of the solve that proved it, which
    /// may have run at a lower rate: a proved placement that still fits a
    /// higher rate is optimal there too, so it is not solved again.
    pub partition: DeploymentPartition,
    /// Probes of the §4.3 schedule.
    pub evaluations: u32,
    /// Branch-and-bound runs: the probes that neither the last proved
    /// placement nor the last root LP refutation answered. No run is
    /// added at `rate` itself.
    pub solves: u32,
    /// The probed rates a root LP [`Refutation`] answered `Infeasible`
    /// with no branch-and-bound run, in probe order (always empty on the
    /// reference tableau, which reports none).
    pub refuted: Vec<f64>,
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
/// floor / doubling / bisection schedule (`search_max_rate`) on one
/// prepared instance: one encode, and each probe answered by the last
/// proved placement, when it still fits the probe's budgets (it is then
/// optimal there too), else by the last root LP refutation, when it still
/// refutes them, or else solved by branch-and-bound with its root LP
/// re-entering from the last solve's basis. The placement that made the
/// found rate feasible is decoded there, not solved again.
///
/// `hi_limit` must be a finite positive rate
/// ([`PartitionError::InvalidRate`]) and `tol` a finite positive relative
/// precision ([`PartitionError::InvalidTolerance`]); a `tol` below what
/// an `f64` resolves ends the bisection where the midpoint stops moving.
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
    let mut refuted = Vec::new();
    let found = crate::rate_search::search_max_rate(
        |rate| {
            let solves = prep.solves();
            let verdict = prep.probe(rate);
            if prep.solves() == solves && verdict == Err(PartitionError::Infeasible) {
                refuted.push(rate);
            }
            verdict
        },
        hi_limit,
        tol,
    )?;
    let Some(found) = found else {
        return Ok(None);
    };
    // The found rate's probe was either solved, or answered by a
    // placement proved at a lower rate that is optimal at the found rate
    // too: price it there instead of proving it again.
    prep.reprice_last(found.rate);
    Ok(Some(DeploymentRateResult {
        rate: found.rate,
        partition: prep.decode_last(),
        evaluations: found.evaluations,
        solves: prep.solves(),
        encodes: prep.encodes(),
        unproven: found.unproven,
        refuted,
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
        let g = b.finish().unwrap();
        let t = SourceTrace {
            source: src.0,
            elements: (0..30)
                .map(|i| Value::VecI16(vec![i as i16; 256]))
                .collect(),
            rate_hz: 20.0,
        };
        let prof = run_profile(&g, &[t]).unwrap();
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
        let (g, prof, dep, rate) = shared_gateway();
        let heavy = OperatorId(1);
        let gw = SiteId(1);
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

    /// Two mote classes behind one gateway (site 1) whose CPU budget fits
    /// the pipeline of one class, at the rate returned; each mote affords
    /// only its pinned source.
    fn shared_gateway() -> (Graph, GraphProfile, Deployment, f64) {
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
        assert_eq!(gw, SiteId(1));
        (g, prof, dep, rate)
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

    /// A probe is answered without a solve only by a placement proved at
    /// a rate no higher than the probe's that still fits its budgets —
    /// up to the last representable margin on both sides of its ceiling.
    #[test]
    fn a_probe_reuses_only_a_proved_placement_below_its_ceiling() {
        let (g, prof) = profiled();
        let dep = forest(1e5, 1e6);
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &DeploymentConfig::default())
            .expect("pins ok");
        let r0 = 0.05;
        prep.probe(r0).expect("feasible");
        assert_eq!(prep.solves(), 1);
        // Lower rates loosen every budget, but the placement need not stay
        // optimal there: solve.
        prep.probe(r0 / 2.0).expect("feasible");
        assert_eq!(
            prep.solves(),
            2,
            "a probe below the proof's rate must solve"
        );

        // The placement's ceiling: the rate at which its tightest budget
        // row is exactly consumed (loads are linear in the rate).
        let p = prep.decode_last();
        let mut ceiling = f64::INFINITY;
        for s in 0..dep.len() {
            let site = SiteId(s);
            ceiling = ceiling.min(dep.site(site).cpu_budget * (r0 / 2.0) / p.site_cpu[s]);
            if let Some(link) = dep.uplink(site) {
                ceiling = ceiling.min(link.net_budget * (r0 / 2.0) / p.link_net[s]);
            }
        }
        assert!(ceiling.is_finite() && ceiling > r0, "ceiling {ceiling}");
        prep.probe(ceiling * (1.0 - 1e-9))
            .expect("the placement fits");
        assert_eq!(prep.solves(), 2, "a fitting proved placement answers");
        let _ = prep.probe(ceiling * (1.0 + 1e-9));
        assert_eq!(
            prep.solves(),
            3,
            "a placement over a budget row must not answer"
        );

        // An unproven placement answers nothing: a search stopped before
        // its first node returns the multilevel seed, unproved.
        let mut cfg = DeploymentConfig::default();
        cfg.ilp.time_limit = Some(std::time::Duration::ZERO);
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).expect("pins ok");
        prep.probe(r0).expect("the seed is feasible");
        let last = prep.last.as_ref().expect("kept");
        assert!(!last.stats.proved);
        assert!(prep.fits(&last.values, 1.01 * r0));
        prep.probe(1.01 * r0).expect("feasible");
        assert_eq!(prep.solves(), 2, "an unproven placement must not answer");
    }

    /// The benchmark of record's two-ward 4-channel EEG forest: four caps
    /// per ward on their own CPU budget, ward-a's backhaul starved to
    /// 500 B/s. Its cliff is one the root LP refutes, not presolve.
    fn eeg_forest() -> (Graph, GraphProfile, Deployment) {
        let (graph, prof) = eeg_app(4);
        let (mote, phone) = (Platform::tmote_sky(), Platform::iphone());
        let mut dep = Deployment::new(Site::server("server", &Platform::server()));
        let root = dep.root();
        for (gw, ward, backhaul) in [("gw-a", "ward-a", 500.0), ("gw-b", "ward-b", 4e5)] {
            let link = LinkSpec {
                beta: 1.0,
                net_budget: backhaul,
            };
            let gw = dep.attach(root, Site::new(gw, &phone), link);
            let caps = Site::new(ward, &mote).with_count(4);
            let radio = LinkSpec {
                beta: 1.0,
                net_budget: 4.0 * mote.radio.goodput_bytes_per_sec,
            };
            dep.attach(gw, caps, radio);
        }
        (graph, prof, dep)
    }

    /// The profiled EEG app of `channels` channels.
    fn eeg_app(channels: usize) -> (Graph, GraphProfile) {
        let app = wishbone_apps::build_eeg_app(wishbone_apps::EegParams {
            n_channels: channels,
            ..Default::default()
        });
        let traces = app.traces(4, 1..3, 7);
        let prof = run_profile(&app.graph, &traces).unwrap();
        (app.graph, prof)
    }

    /// Two 4-mote wards of `channels`-channel EEG caps behind two
    /// gateways, gw-a on CPU budget `gw_budget` and backhaul `backhaul_a`,
    /// gw-b on backhaul `backhaul_b`. Sites: 0 = server, 1 = gw-a,
    /// 2 = gw-b, 3 = ward-a, 4 = ward-b.
    fn wards(
        channels: usize,
        backhaul_a: f64,
        backhaul_b: f64,
        gw_budget: f64,
    ) -> (Graph, GraphProfile, Deployment) {
        let (graph, prof) = eeg_app(channels);
        let (mote, phone) = (Platform::tmote_sky(), Platform::iphone());
        let mut dep = Deployment::new(Site::server("server", &Platform::server()));
        let root = dep.root();
        let link = |net_budget: f64| LinkSpec {
            beta: 1.0,
            net_budget,
        };
        let gw_a = Site::new("gw-a", &phone).with_cpu_budget(gw_budget);
        let gw_a = dep.attach(root, gw_a, link(backhaul_a));
        let gw_b = dep.attach(root, Site::new("gw-b", &phone), link(backhaul_b));
        let radio = link(4.0 * mote.radio.goodput_bytes_per_sec);
        dep.attach(gw_a, Site::new("ward-a", &mote).with_count(4), radio);
        dep.attach(gw_b, Site::new("ward-b", &mote).with_count(4), radio);
        (graph, prof, dep)
    }

    /// The multilevel hierarchy is built on a search's first demand for a
    /// seed — once it is stuck — and then kept. On the shared gateway the
    /// root LP is fractional but the second node LP is integral: that
    /// search is not stuck, asks for nothing and builds nothing. On the
    /// starved 8-channel ward a root-capped search's root LP is integral
    /// at ×3.3 and fractional at ×3.5: the first never asks for a seed;
    /// the second is stopped by its budget with no incumbent, so it builds
    /// the hierarchy and adopts its cut. Nothing after that builds
    /// another, which the test sees by swapping the kept hierarchy for one
    /// that admits no cut — any rebuild would overwrite it.
    #[test]
    fn the_hierarchy_is_built_once_by_the_first_stuck_search() {
        let (g, prof, dep, rate) = shared_gateway();
        let cfg = DeploymentConfig::default();
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).expect("pins ok");
        let part = prep.solve_at(rate).expect("feasible");
        let (_, first_node, _) = part.ilp_stats.incumbents[0];
        assert!(part.ilp_stats.nodes > 1 && !part.ilp_stats.seeded);
        assert_eq!(first_node, 2, "a fractional root, then an integral node LP");
        assert!(
            prep.hierarchy.is_none(),
            "a search that is not stuck builds nothing"
        );

        let (g, prof, dep) = wards(8, 800.0, 1_500.0, 0.25);
        let mut cfg = DeploymentConfig::default();
        cfg.ilp.max_nodes = 1;
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).expect("pins ok");
        assert!(prep.hierarchy.is_none(), "preparing must not build it");

        let integral = prep.solve_at(3.3).expect("the root LP is integral");
        assert!(integral.ilp_stats.proved && !integral.ilp_stats.seeded);
        assert!(
            prep.hierarchy.is_none(),
            "an integral root LP must not ask for a seed, so nothing is built"
        );

        prep.reset_warm_start();
        let seeded = prep.solve_at(3.5).expect("the seed is a placement");
        assert!(seeded.ilp_stats.seeded && !seeded.ilp_stats.proved);
        assert!(matches!(prep.hierarchy, Some(Some(_))), "built once");

        // Keep instead a hierarchy that admits no cut.
        let built = prep.hierarchy.replace(None);
        let unproven = |prep: &mut PreparedDeployment| {
            prep.reset_warm_start();
            let verdict = prep.solve_at(3.5);
            assert!(
                matches!(verdict, Err(PartitionError::Unproven { .. })),
                "the kept hierarchy, not a rebuilt one, must be cut"
            );
            assert!(matches!(prep.hierarchy, Some(None)), "rebuilt");
        };
        unproven(&mut prep);
        prep.apply_delta(&[DeploymentDelta::SetNetBudget {
            site: SiteId(1),
            net_budget: 800.0,
        }]);
        assert!(matches!(prep.hierarchy, Some(None)), "rebuilt by a delta");
        unproven(&mut prep);

        prep.hierarchy = built;
        prep.reset_warm_start();
        let again = prep.solve_at(3.5).expect("the seed is a placement");
        assert_eq!(again.objective.to_bits(), seeded.objective.to_bits());
        assert_eq!(prep.encodes(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// The hierarchy reads nothing a delta edits, so one built late —
        /// after any run of deltas, a removed leaf read as count 0
        /// included — and kept through more of them cuts bit for bit like
        /// a one-shot `approx_cut` of the same leaf chains, at every rate.
        /// The first `first_cut` steps run before anything is built.
        #[test]
        fn a_kept_hierarchy_cuts_like_a_fresh_one_across_rates_and_deltas(
            count in 1usize..7,
            gw_budget in 0.05f64..0.8,
            backhaul in 300.0f64..4000.0,
            picked_rates in proptest::collection::vec(0.1f64..3.3, 2),
            first_cut in 0usize..6,
        ) {
            let (g, prof, dep) = wards(4, 500.0, 400_000.0, 0.5);
            let mut prep = PreparedDeployment::new(&g, &prof, &dep, &DeploymentConfig::default())
                .expect("pins ok");
            let rates = [&[0.25, 3.15][..], &picked_rates[..]].concat();
            let steps = [
                None,
                Some(DeploymentDelta::SetLeafCount { leaf: SiteId(3), count }),
                Some(DeploymentDelta::SetCpuBudget { site: SiteId(1), cpu_budget: gw_budget }),
                Some(DeploymentDelta::SetNetBudget { site: SiteId(1), net_budget: backhaul }),
                Some(DeploymentDelta::RemoveLeaf { leaf: SiteId(4) }),
                Some(DeploymentDelta::SetLeafCount { leaf: SiteId(4), count: 4 }),
            ];
            let bits = |values: Vec<f64>| -> Vec<u64> { values.into_iter().map(f64::to_bits).collect() };
            for (step, delta) in steps.iter().enumerate() {
                prep.apply_delta(delta.as_slice());
                proptest::prop_assert_eq!(
                    prep.hierarchy.is_some(),
                    step > first_cut,
                    "built by the first cut and kept, at step {}", step
                );
                if step < first_cut {
                    continue;
                }
                for (i, &rate) in rates.iter().enumerate() {
                    prep.retarget(rate);
                    let chains = leaf_chains(&prep.leaves, &prep.removed, &prep.dep);
                    let fresh = crate::multilevel::approx_cut(&chains, &prep.obj, rate)
                        .map(|cut| bits(y_values(&prep.ep, &cut.tiers)));
                    let kept = seed_values(&mut prep.hierarchy, &chains, &prep.obj, &prep.ep, rate)
                        .map(bits);
                    proptest::prop_assert!(
                        i > 0 || kept.is_some(),
                        "x0.25 is placeable after {:?}", delta
                    );
                    proptest::prop_assert_eq!(kept, fresh, "after {:?} at x{}", delta, rate);
                }
            }
            proptest::prop_assert_eq!(prep.encodes(), 1);
        }
    }

    /// A probe is answered `Infeasible` without a solve only by a
    /// refutation that still refutes its budgets — up to the last
    /// representable margin on both sides of its threshold — and a delta
    /// or a reset drops the refutation.
    #[test]
    fn a_probe_is_refuted_only_past_the_refutations_threshold() {
        let (g, prof, dep) = eeg_forest();
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &DeploymentConfig::default())
            .expect("pins ok");
        prep.probe(0.05).expect("feasible");
        let past = 4.0;
        assert_eq!(prep.probe(past), Err(PartitionError::Infeasible));
        assert_eq!(prep.solves(), 2);
        let refutation = prep
            .refutation
            .clone()
            .expect("the sparse dual refuted the root");

        // Σ w·b(r) = a + c/r, since only the budget rows move (`C/r − shift`,
        // `B/r`); it refutes while below the box minimum less 1e-6·Σ|w|.
        let combined = |rate: f64| -> f64 {
            let budgets: Vec<(usize, f64)> = prep.budget_rhs(rate).collect();
            let rhs = |row: usize| match budgets.iter().find(|&&(r, _)| r == row) {
                Some(&(_, b)) => b,
                None => prep.ep.problem.constraint(row).rhs,
            };
            refutation.rows().iter().map(|&(row, w)| w * rhs(row)).sum()
        };
        let c = 2.0 * (combined(1.0) - combined(2.0));
        let a = combined(1.0) - c;
        let weight: f64 = refutation.rows().iter().map(|&(_, w)| w.abs()).sum();
        let threshold = c / (refutation.box_min() - 1e-6 * weight - a);
        assert!(
            threshold.is_finite() && threshold > 0.05 && threshold < past,
            "threshold {threshold}"
        );
        let placement = prep.last.as_ref().map(|l| l.values.clone()).expect("kept");
        assert!(
            !prep.fits(&placement, threshold * (1.0 - 1e-9)),
            "the placement must not answer below the threshold"
        );

        assert_eq!(
            prep.probe(threshold * (1.0 + 1e-9)),
            Err(PartitionError::Infeasible)
        );
        assert_eq!(prep.solves(), 2, "a refutation that still refutes answers");
        let _ = prep.probe(threshold * (1.0 - 1e-9));
        assert_eq!(
            prep.solves(),
            3,
            "a refutation short of its margin must not"
        );

        // It belongs to the rows it combines: a delta drops it, even one
        // that rewrites a budget to its own value; so does a reset.
        assert!(prep.refutation.is_some());
        prep.apply_delta(&[DeploymentDelta::SetNetBudget {
            site: SiteId(1),
            net_budget: 500.0,
        }]);
        assert!(prep.refutation.is_none(), "apply_delta must drop it");
        assert_eq!(prep.probe(past), Err(PartitionError::Infeasible));
        assert!(prep.refutation.is_some());
        prep.reset_warm_start();
        assert!(prep.refutation.is_none(), "reset_warm_start must drop it");
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
        // from a retained basis; the dense one solves every LP cold.
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

            // The search ran on the backend it was asked for, as its
            // counters show: only the sparse method factorizes a basis
            // or re-enters warm.
            let s = &again.ilp_stats;
            match backend {
                SolverBackend::Dense => assert_eq!((s.refactorizations, s.warm_starts), (0, 0)),
                SolverBackend::Sparse => assert!(s.refactorizations > 0, "{s:?}"),
            }
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
        // Aggregates are compared to 1e-9 relative, as the objectives are.
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
