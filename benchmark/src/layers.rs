//! The partitioner's pipeline re-assembled from its *public* layer
//! functions, so the traced run can put a span around each layer without
//! touching the library: `build_tiered_graph` → `preprocess_tiered` →
//! `encode_deployment` → `approx_cut` → `solve_ilp_in`. The objectives
//! the library derives privately are rebuilt here from `Deployment`'s
//! public accessors (nominal pricing only — no workload uses the robust
//! mode).

use wishbone::core::{
    build_tiered_graph, preprocess_tiered, Deployment, DeploymentConfig, DeploymentObjective,
    EncodedDeployment, LeafChain, SiteId, TierObjective, TieredGraph,
};
use wishbone::dataflow::Graph;
use wishbone::profile::{GraphProfile, Platform};

use crate::span::Tracer;

/// One leaf class's merged chain graph along its root path.
pub struct LeafGraph {
    pub leaf: SiteId,
    pub path: Vec<SiteId>,
    pub graph: TieredGraph,
}

/// Every leaf's merged graph, with the §4.1 merge's before/after sizes.
pub struct Merged {
    pub leaves: Vec<LeafGraph>,
    pub vertices_before: usize,
    pub vertices_after: usize,
}

/// The chain view of one leaf's root path.
pub fn leaf_objective(dep: &Deployment, leaf: SiteId) -> TierObjective {
    let path = dep.path(leaf);
    let hops = &path[..path.len() - 1];
    let link = |s: &SiteId| *dep.uplink(*s).expect("a non-root site has an uplink");
    TierObjective {
        alpha: path.iter().map(|&s| dep.site(s).alpha).collect(),
        cpu_budget: path.iter().map(|&s| dep.site(s).cpu_budget).collect(),
        beta: hops.iter().map(|s| link(s).beta).collect(),
        net_budget: hops.iter().map(|s| link(s).net_budget).collect(),
    }
}

/// The per-site objective `encode_deployment` consumes, at nominal
/// pricing.
pub fn deployment_objective(dep: &Deployment) -> DeploymentObjective {
    let sites = || dep.site_ids().map(|s| dep.site(s));
    let links = || dep.site_ids().map(|s| dep.uplink(s));
    DeploymentObjective {
        alpha: sites().map(|s| s.alpha).collect(),
        cpu_budget: sites().map(|s| s.cpu_budget).collect(),
        count: sites().map(|s| s.count as f64).collect(),
        beta: links().map(|u| u.map_or(0.0, |l| l.beta)).collect(),
        net_budget: links()
            .map(|u| u.map_or(f64::INFINITY, |l| l.net_budget))
            .collect(),
        row_order: dep.site_order().iter().map(|s| s.0).collect(),
    }
}

/// Build and merge every leaf's chain graph, one `core.graph.build` and
/// one `core.merge` span per leaf (probe spans when `probe`).
pub fn build_and_merge(
    graph: &Graph,
    profile: &GraphProfile,
    dep: &Deployment,
    cfg: &DeploymentConfig,
    tr: &mut Tracer,
    probe: bool,
) -> Merged {
    let mut out = Merged {
        leaves: Vec::new(),
        vertices_before: 0,
        vertices_after: 0,
    };
    for leaf in dep.leaves() {
        let path = dep.path(leaf);
        let platforms: Vec<Platform> = path.iter().map(|&s| dep.site(s).platform.clone()).collect();
        let rate_factor = dep.site(leaf).rate_factor;
        let objective = leaf_objective(dep, leaf);

        let s = tr.open("core.graph.build", probe);
        let built = build_tiered_graph(graph, profile, &platforms, cfg.mode, rate_factor)
            .expect("the benchmark's apps have no pin conflicts");
        tr.exit(s);
        tr.count(s, "vertices", built.vertices.len() as f64);
        out.vertices_before += built.vertices.len();

        let s = tr.open("core.merge", probe);
        let merged = preprocess_tiered(&built, &objective)
            .expect("the benchmark's apps have no pin conflicts");
        tr.exit(s);
        tr.count(s, "vertices_after", merged.vertices_after as f64);
        out.vertices_after += merged.vertices_after;

        out.leaves.push(LeafGraph {
            leaf,
            path,
            graph: merged.graph,
        });
    }
    out
}

/// The leaf-chain view `encode_deployment` and `approx_cut` consume, at
/// `dep`'s current leaf counts.
pub fn chains<'g>(merged: &'g Merged, dep: &Deployment) -> Vec<LeafChain<'g>> {
    merged
        .leaves
        .iter()
        .map(|l| LeafChain {
            graph: &l.graph,
            path: l.path.iter().map(|s| s.0).collect(),
            count: dep.site(l.leaf).count as f64,
        })
        .collect()
}

/// Expand a per-leaf tier assignment into the encoding's indicator vector
/// (`y[l][b][v] = 1 ⇔ tier ≤ b`) — the warm solution the library seeds
/// branch-and-bound with.
pub fn y_values(ep: &EncodedDeployment, tiers: &[Vec<usize>]) -> Vec<f64> {
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
