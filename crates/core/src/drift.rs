//! Map a detected profile drift onto the standing encoding's in-place
//! rescale path.
//!
//! When a [`DriftReport`] says an operator runs `f×` hotter than the
//! [`GraphProfile`](wishbone_profile::GraphProfile) the cut was priced
//! on, every site hosting that operator effectively has `1/f` of the CPU
//! the solver believed in; when it says an edge's elements got `f×`
//! bigger, every uplink relaying that edge effectively has `1/f` of the
//! radio budget. [`drift_to_deltas`] turns both observations into
//! [`DeploymentDelta::SetCpuBudget`] / [`DeploymentDelta::SetNetBudget`]
//! rewrites, which
//! [`PreparedDeployment::apply_delta`](crate::PreparedDeployment::apply_delta)
//! absorbs as index-stable row surgery on the standing ILP — no graph
//! rebuild, no merge, no re-encode — so the warm re-solve that follows
//! costs milliseconds (the `drift_resolve` bench group measures it).

use wishbone_trace::DriftReport;

use crate::topology::{Deployment, DeploymentDelta, DeploymentPartition, SiteId};

/// Translate a drift report into in-place deployment deltas against the
/// partition the drift was measured under.
///
/// Per drifted operator, every site hosting it (in any leaf class's
/// placement) takes the operator's inflation ratio; a site hit by
/// several drifted operators takes the **largest** ratio — shrinking the
/// whole budget by the worst single inflation over-corrects for the
/// non-drifted operators sharing the site, which is the conservative
/// direction (the re-solve sheds load it maybe could have kept, never
/// keeps load it cannot carry). A uniform speedup (ratio < 1) relaxes
/// the budget symmetrically.
///
/// Edge drift maps symmetrically onto the uplinks: every hop relaying a
/// drifted edge (any leaf class, any path position — relays included,
/// per `link_cut_edges`) takes the edge's size-inflation ratio, worst
/// ratio per uplink, and its aggregate radio budget shrinks by it via
/// [`DeploymentDelta::SetNetBudget`] — the in-place uplink rescale that
/// used to require a full re-prepare.
///
/// Sites with an infinite CPU budget (the server) and uplinks with an
/// infinite radio budget are skipped: they have no budget row to
/// rescale, and more observed load there is free by assumption.
///
/// A drift whose ratio is not finite and positive — a live EWMA of 0 s
/// or 0 bytes reads as ratio 0 — is skipped too: dividing a budget by it
/// is no budget at all. A site or uplink that no other drift names keeps
/// its old budget, which is the conservative direction again: the
/// re-solve never trusts a speedup it could not measure.
pub fn drift_to_deltas(
    report: &DriftReport,
    dep: &Deployment,
    part: &DeploymentPartition,
) -> Vec<DeploymentDelta> {
    let mut worst_ratio: Vec<Option<f64>> = vec![None; dep.len()];
    let is_ratio = |r: f64| r.is_finite() && r > 0.0;
    for od in report.operators.iter().filter(|od| is_ratio(od.ratio)) {
        for leaf in &part.leaves {
            let Some(pos) = leaf.position_of(od.op) else {
                continue;
            };
            let site = leaf.path[pos];
            let w = &mut worst_ratio[site.0];
            *w = Some(w.map_or(od.ratio, |r: f64| r.max(od.ratio)));
        }
    }
    // Uplink of `path[hop]` carries every edge in `link_cut_edges[hop]`.
    let mut worst_edge_ratio: Vec<Option<f64>> = vec![None; dep.len()];
    for ed in report.edges.iter().filter(|ed| is_ratio(ed.ratio)) {
        for leaf in &part.leaves {
            for (hop, carried) in leaf.link_cut_edges.iter().enumerate() {
                if !carried.contains(&ed.edge) {
                    continue;
                }
                let site = leaf.path[hop];
                let w = &mut worst_edge_ratio[site.0];
                *w = Some(w.map_or(ed.ratio, |r: f64| r.max(ed.ratio)));
            }
        }
    }
    let cpu = worst_ratio.iter().enumerate().filter_map(|(s, ratio)| {
        let ratio = (*ratio)?;
        let old = dep.site(SiteId(s)).cpu_budget;
        if !old.is_finite() {
            return None;
        }
        Some(DeploymentDelta::SetCpuBudget {
            site: SiteId(s),
            cpu_budget: old / ratio,
        })
    });
    let net = worst_edge_ratio
        .iter()
        .enumerate()
        .filter_map(|(s, ratio)| {
            let ratio = (*ratio)?;
            let old = dep.uplink(SiteId(s))?.net_budget;
            if !old.is_finite() {
                return None;
            }
            Some(DeploymentDelta::SetNetBudget {
                site: SiteId(s),
                net_budget: old / ratio,
            })
        });
    cpu.chain(net).collect()
}
