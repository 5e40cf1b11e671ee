//! Shape keys: what makes two deployment requests *the same prepared
//! instance* up to an in-place rescale.
//!
//! The fleet premise (paper §7, Wiselib in PAPERS.md) is that a small
//! set of program shapes recurs across a fleet at different counts and
//! budgets. [`PreparedDeployment`](crate::topology::PreparedDeployment)
//! already exploits that temporally — encode once, rescale per probe —
//! and [`ShapeKey`] exploits it spatially: two requests with equal keys
//! are guaranteed to be reachable from one another through
//! [`DeploymentDelta`] batches alone, so a cache of prepared instances
//! keyed by shape answers both with one encoding.
//!
//! The key therefore captures **everything the encoding bakes in** —
//! graph and profile identity, tree structure, per-site platform cost
//! models, objective weights, rate factors, interior device counts,
//! budget *finiteness* (the §4.1 merge and the encoder read whether a
//! budget row exists, never its value), and every solver knob — and
//! **excludes exactly the three delta-reachable quantities**: leaf
//! device counts ([`DeploymentDelta::SetLeafCount`]), finite CPU budget
//! values ([`DeploymentDelta::SetCpuBudget`]), and finite uplink budget
//! values ([`DeploymentDelta::SetNetBudget`]). The global
//! `rate_multiplier` is excluded too: it is a per-solve argument, not
//! part of the encoding.
//!
//! Graph and profile enter the key by *pointer identity*, not content:
//! fleet requests carry `Arc<Graph>` / `Arc<GraphProfile>`, so equal
//! pointers imply equal contents. A prepared instance keeps neither
//! input, so a map keyed by `ShapeKey` must keep them alive itself: the
//! fleet's `ShapeCache` stores each request's two `Arc`s in the entry
//! beside its prepared instance, so the addresses cannot be freed and
//! reused (no ABA) for as long as the key is in the map. Two structurally
//! identical graphs in different allocations miss the cache —
//! conservative, never wrong.

use wishbone_dataflow::Graph;
use wishbone_profile::{GraphProfile, Platform};

use crate::topology::{Deployment, DeploymentConfig, DeploymentDelta, PlacementEngine};

/// An exact structural fingerprint of a deployment request, excluding
/// leaf counts, finite budget values, and the solve rate. Equal keys ⇒
/// the two requests' encodings are reachable from one another via
/// [`deltas_between`] (pinned by proptest). Stored verbatim (a word
/// vector, not a digest), so key equality is content equality — a hash
/// collision can degrade the cache, never corrupt it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    words: Vec<u64>,
}

impl ShapeKey {
    /// The fingerprint length in 64-bit words (diagnostics).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the fingerprint is empty (never, for a valid key).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Word-vector builder: every pushed quantity lands verbatim in the key.
struct KeyWriter {
    words: Vec<u64>,
}

impl KeyWriter {
    fn u(&mut self, v: u64) {
        self.words.push(v);
    }

    fn f(&mut self, v: f64) {
        self.words.push(v.to_bits());
    }

    fn b(&mut self, v: bool) {
        self.words.push(u64::from(v));
    }

    /// FNV-1a over a string: names fold to one word instead of growing
    /// the key with the deployment's label lengths.
    fn s(&mut self, v: &str) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in v.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.words.push(h);
    }
}

fn platform_words(w: &mut KeyWriter, p: &Platform) {
    w.s(&p.name);
    w.f(p.clock_hz);
    w.f(p.cycle_costs.int_alu);
    w.f(p.cycle_costs.int_mul);
    w.f(p.cycle_costs.float_add);
    w.f(p.cycle_costs.float_mul);
    w.f(p.cycle_costs.float_div);
    w.f(p.cycle_costs.sqrt);
    w.f(p.cycle_costs.transcendental);
    w.f(p.cycle_costs.mem);
    w.f(p.cycle_costs.branch);
    w.f(p.cycle_costs.call);
    w.f(p.interp_penalty);
    w.f(p.dvfs_derate);
    w.f(p.os_overhead);
    w.f(p.cpu_budget_fraction);
    w.f(p.radio.goodput_bytes_per_sec);
    w.u(p.radio.max_payload as u64);
    w.u(p.radio.per_packet_overhead as u64);
    w.f(p.radio.baseline_loss);
}

fn config_words(w: &mut KeyWriter, cfg: &DeploymentConfig) {
    // Both structs are destructured without `..`: a field added to either
    // is a compile error here until it is keyed (or ignored by name), so
    // two configs that differ in it cannot share a cache entry.
    let DeploymentConfig {
        mode,
        // A per-solve argument, not part of the encoding (module doc).
        rate_multiplier: _,
        robustness,
        engine,
        ilp,
    } = cfg;
    let wishbone_ilp::IlpOptions {
        rel_gap,
        max_nodes,
        time_limit,
        warm_lp,
        warm_solution,
        backend,
    } = ilp;
    w.u(match mode {
        crate::cost_graph::Mode::Conservative => 0,
        crate::cost_graph::Mode::Permissive => 1,
    });
    w.u(match robustness {
        crate::topology::RobustnessMode::Nominal => 0,
        crate::topology::RobustnessMode::SingleGatewayFailure => 1,
    });
    w.u(match engine {
        PlacementEngine::Exact => 0,
        PlacementEngine::Approx => 1,
    });
    w.f(*rel_gap);
    w.u(*max_nodes);
    w.u(time_limit.map_or(u64::MAX, |d| d.as_nanos() as u64));
    w.b(*warm_lp);
    w.u(*backend as u64);
    // A caller-supplied warm solution steers tie-breaking, so two
    // requests differing in it must not share a cache entry.
    match warm_solution {
        None => w.u(0),
        Some(vals) => {
            w.u(1 + vals.len() as u64);
            for v in vals {
                w.f(*v);
            }
        }
    }
}

/// Compute the [`ShapeKey`] of one request. Cheap relative to preparing
/// the instance: no graph build, no merge, no encode — a linear pass
/// over the deployment tree and the config.
pub fn shape_key(
    graph: &Graph,
    profile: &GraphProfile,
    dep: &Deployment,
    cfg: &DeploymentConfig,
) -> ShapeKey {
    let mut w = KeyWriter {
        words: Vec::with_capacity(16 + 26 * dep.len()),
    };
    w.u(graph as *const Graph as u64);
    w.u(profile as *const GraphProfile as u64);
    config_words(&mut w, cfg);

    w.u(dep.len() as u64);
    for id in dep.site_ids() {
        let site = dep.site(id);
        let is_leaf = dep.children(id).is_empty();
        w.u(dep.parent(id).map_or(u64::MAX, |p| p.0 as u64));
        w.b(is_leaf);
        platform_words(&mut w, &site.platform);
        w.f(site.alpha);
        w.f(site.rate_factor);
        // Budget *values* ride SetCpuBudget / SetNetBudget; finiteness
        // decides whether the row exists at all, which no delta can
        // change.
        w.b(site.cpu_budget.is_finite());
        // Interior counts have no delta (SetLeafCount is leaves-only),
        // so they are part of the shape; leaf counts are the cache's
        // whole point and stay out.
        if !is_leaf {
            w.u(site.count as u64);
        }
        match dep.uplink(id) {
            None => w.u(u64::MAX),
            Some(link) => {
                w.f(link.beta);
                w.b(link.net_budget.is_finite());
            }
        }
    }
    ShapeKey { words: w.words }
}

/// The delta batch that morphs `from` into `to`, assuming equal
/// [`ShapeKey`]s (checked with `debug_assert!` on structure): one
/// [`DeploymentDelta::SetLeafCount`] per differing leaf count, one
/// [`DeploymentDelta::SetCpuBudget`] per differing CPU budget, one
/// [`DeploymentDelta::SetNetBudget`] per differing uplink budget.
/// Returns an empty batch when the deployments already agree — the
/// fleet skips the rescale entirely in that case.
pub fn deltas_between(from: &Deployment, to: &Deployment) -> Vec<DeploymentDelta> {
    debug_assert_eq!(from.len(), to.len(), "deltas_between requires equal shapes");
    let mut deltas = Vec::new();
    for id in to.site_ids() {
        let a = from.site(id);
        let b = to.site(id);
        let is_leaf = to.children(id).is_empty();
        if is_leaf && a.count != b.count {
            deltas.push(DeploymentDelta::SetLeafCount {
                leaf: id,
                count: b.count,
            });
        }
        debug_assert!(
            is_leaf || a.count == b.count,
            "interior counts are shape, not delta"
        );
        // Bit comparison, not numeric: the goal is "same encoding
        // coefficients", and distinct bit patterns (e.g. ±0.0) may
        // round differently downstream.
        if a.cpu_budget.to_bits() != b.cpu_budget.to_bits() {
            deltas.push(DeploymentDelta::SetCpuBudget {
                site: id,
                cpu_budget: b.cpu_budget,
            });
        }
        if let (Some(la), Some(lb)) = (from.uplink(id), to.uplink(id)) {
            if la.net_budget.to_bits() != lb.net_budget.to_bits() {
                deltas.push(DeploymentDelta::SetNetBudget {
                    site: id,
                    net_budget: lb.net_budget,
                });
            }
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multitier::LinkSpec;
    use crate::topology::{Site, SiteId};
    use wishbone_dataflow::{GraphBuilder, Value};
    use wishbone_profile::{profile as run_profile, SourceTrace};

    /// Minimal profiled graph: the key only reads addresses from these,
    /// but they must be real instances.
    fn profiled() -> (Graph, GraphProfile) {
        let mut b = GraphBuilder::new();
        let src = b.source("src");
        b.sink("out", src);
        let mut g = b.finish().unwrap();
        let t = SourceTrace {
            source: src.0,
            elements: (0..4).map(|i| Value::VecI16(vec![i as i16; 8])).collect(),
            rate_hz: 10.0,
        };
        let prof = run_profile(&mut g, &[t]).unwrap();
        (g, prof)
    }

    fn two_tier(count: usize, cpu: f64, net: f64) -> Deployment {
        let server = Platform::server();
        let mote = Platform::tmote_sky();
        let mut dep = Deployment::new(Site::server("srv", &server));
        dep.attach(
            SiteId(0),
            Site::new("motes", &mote)
                .with_count(count)
                .with_cpu_budget(cpu),
            LinkSpec {
                beta: 1.0,
                net_budget: net,
            },
        );
        dep
    }

    #[test]
    fn counts_and_budget_values_are_not_shape() {
        let (g, p) = profiled();
        let cfg = DeploymentConfig::default();
        let a = two_tier(4, 0.8, 60.0);
        let b = two_tier(9, 0.5, 45.0);
        assert_eq!(shape_key(&g, &p, &a, &cfg), shape_key(&g, &p, &b, &cfg));
        let deltas = deltas_between(&a, &b);
        assert_eq!(deltas.len(), 3);
    }

    #[test]
    fn finiteness_beta_and_identity_are_shape() {
        let (g, p) = profiled();
        let (g2, _p2) = profiled();
        let cfg = DeploymentConfig::default();
        let a = two_tier(4, 0.8, 60.0);
        let key = |d: &Deployment| shape_key(&g, &p, d, &cfg);

        let unbudgeted = two_tier(4, 0.8, f64::INFINITY);
        assert_ne!(key(&a), key(&unbudgeted), "budget finiteness is shape");

        let mut heavier = two_tier(4, 0.8, 60.0);
        heavier.attach(
            SiteId(0),
            Site::new("more", &Platform::tmote_sky()).with_cpu_budget(0.8),
            LinkSpec {
                beta: 2.0,
                net_budget: 60.0,
            },
        );
        assert_ne!(key(&a), key(&heavier), "structure is shape");

        assert_ne!(
            shape_key(&g, &p, &a, &cfg),
            shape_key(&g2, &p, &a, &cfg),
            "graph identity is shape"
        );
    }

    #[test]
    fn every_config_field_but_the_rate_is_shape() {
        use crate::cost_graph::Mode;
        use crate::topology::RobustnessMode;
        use std::time::Duration;
        use wishbone_ilp::SolverBackend;

        let (g, p) = profiled();
        let dep = two_tier(4, 0.8, 60.0);
        let key = |cfg: &DeploymentConfig| shape_key(&g, &p, &dep, cfg);
        let base = DeploymentConfig::default();

        // One field at a time, moved off its default.
        type Vary = fn(&mut DeploymentConfig);
        let varied: [(&str, Vary); 9] = [
            ("mode", |c| c.mode = Mode::Conservative),
            ("robustness", |c| {
                c.robustness = RobustnessMode::SingleGatewayFailure
            }),
            ("engine", |c| c.engine = PlacementEngine::Approx),
            ("rel_gap", |c| c.ilp.rel_gap = 0.01),
            ("max_nodes", |c| c.ilp.max_nodes = 20),
            ("time_limit", |c| {
                c.ilp.time_limit = Some(Duration::from_secs(2))
            }),
            ("warm_lp", |c| c.ilp.warm_lp = false),
            ("warm_solution", |c| c.ilp.warm_solution = Some(vec![1.0])),
            ("backend", |c| c.ilp.backend = SolverBackend::Dense),
        ];
        for (field, vary) in varied {
            let mut cfg = base.clone();
            vary(&mut cfg);
            assert_ne!(key(&base), key(&cfg), "`{field}` alone must change the key");
        }
        assert_eq!(
            key(&base),
            key(&base.clone().at_rate(2.5)),
            "the rate is a per-solve argument, not shape"
        );
    }
}
