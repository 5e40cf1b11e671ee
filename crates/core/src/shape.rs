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
//! Graph and profile enter the key by *content*: each contributes its
//! [`Fingerprint`] (`Graph::fingerprint`, `GraphProfile::fingerprint` —
//! the words of what the pin analysis, the table build and the pricing
//! read, computed once per object), and the profile's public
//! `duration_s` is keyed afresh. Two requests that load one app into two
//! allocations therefore share a key, and a key says what the app is,
//! not where it lives: a map keyed by `ShapeKey` holds its values and
//! nothing else, and may drop an entry whenever it likes.

use wishbone_dataflow::{Fingerprint, Graph};
use wishbone_net::PacketFormat;
use wishbone_profile::{CycleCosts, GraphProfile, Platform, RadioModel};

use crate::multitier::LinkSpec;
use crate::topology::{Deployment, DeploymentConfig, DeploymentDelta, Site, SiteId};

/// An exact structural fingerprint of a deployment request, excluding
/// leaf counts, finite budget values, and the solve rate. Equal keys ⇒
/// the two requests' encodings are reachable from one another via
/// [`deltas_between`] (pinned by proptest). Stored verbatim (words, not a
/// digest), so key equality is content equality — a hash collision can
/// degrade the cache, never corrupt it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    graph: Fingerprint,
    profile: Fingerprint,
    words: Vec<u64>,
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
}

// The cost-model structs below, like `DeploymentConfig` and `Site`, are
// destructured without `..`: a field added to any of them is a compile
// error here until it is keyed (or ignored by name), so two requests that
// differ in it cannot share a cache entry.

fn platform_words(w: &mut KeyWriter, p: &Platform) {
    let Platform {
        // A label: nothing the encoding reads.
        name: _,
        clock_hz,
        cycle_costs,
        interp_penalty,
        dvfs_derate,
        os_overhead,
        radio,
    } = p;
    let CycleCosts {
        int_alu,
        int_mul,
        float_add,
        float_mul,
        float_div,
        sqrt,
        transcendental,
        mem,
        branch,
        call,
    } = cycle_costs;
    let RadioModel {
        goodput_bytes_per_sec,
        format,
    } = radio;
    let PacketFormat {
        max_payload,
        per_packet_overhead,
    } = format;
    for v in [
        clock_hz,
        int_alu,
        int_mul,
        float_add,
        float_mul,
        float_div,
        sqrt,
        transcendental,
        mem,
        branch,
        call,
        interp_penalty,
        dvfs_derate,
        os_overhead,
        goodput_bytes_per_sec,
    ] {
        w.f(*v);
    }
    w.u(*max_payload as u64);
    w.u(*per_packet_overhead as u64);
}

fn mode_word(w: &mut KeyWriter, mode: &crate::cost_graph::Mode) {
    w.u(match mode {
        crate::cost_graph::Mode::Conservative => 0,
        crate::cost_graph::Mode::Permissive => 1,
    });
}

fn config_words(w: &mut KeyWriter, cfg: &DeploymentConfig) {
    let DeploymentConfig {
        mode,
        // A per-solve argument, not part of the encoding (module doc).
        rate_multiplier: _,
        robustness,
        ilp,
    } = cfg;
    let wishbone_ilp::IlpOptions {
        rel_gap,
        max_nodes,
        time_limit,
        warm_solution,
        backend,
    } = ilp;
    mode_word(w, mode);
    w.u(match robustness {
        crate::topology::RobustnessMode::Nominal => 0,
        crate::topology::RobustnessMode::SingleGatewayFailure => 1,
    });
    w.f(*rel_gap);
    w.u(*max_nodes);
    w.u(time_limit.map_or(u64::MAX, |d| d.as_nanos() as u64));
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
/// over the deployment tree and the config (the two fingerprints are
/// computed on an object's first key and shared after).
pub fn shape_key(
    graph: &Graph,
    profile: &GraphProfile,
    dep: &Deployment,
    cfg: &DeploymentConfig,
) -> ShapeKey {
    let mut w = KeyWriter {
        words: Vec::with_capacity(16 + 26 * dep.len()),
    };
    w.f(profile.duration_s);
    config_words(&mut w, cfg);

    w.u(dep.len() as u64);
    for id in dep.site_ids() {
        let Site {
            // A label: nothing the encoding reads.
            name: _,
            platform,
            count,
            alpha,
            // Budget *values* ride SetCpuBudget / SetNetBudget; finiteness
            // decides whether the row exists at all, which no delta can
            // change.
            cpu_budget,
            rate_factor,
        } = dep.site(id);
        let is_leaf = dep.children(id).is_empty();
        w.u(dep.parent(id).map_or(u64::MAX, |p| p.0 as u64));
        w.b(is_leaf);
        platform_words(&mut w, platform);
        w.f(*alpha);
        w.f(*rate_factor);
        w.b(cpu_budget.is_finite());
        // Interior counts have no delta (SetLeafCount is leaves-only),
        // so they are part of the shape; leaf counts are the cache's
        // whole point and stay out.
        if !is_leaf {
            w.u(*count as u64);
        }
        match dep.uplink(id) {
            None => w.u(u64::MAX),
            Some(LinkSpec { beta, net_budget }) => {
                w.f(*beta);
                w.b(net_budget.is_finite());
            }
        }
    }
    ShapeKey {
        graph: graph.fingerprint().clone(),
        profile: profile.fingerprint().clone(),
        words: w.words,
    }
}

/// The content key of one leaf's priced, merged chain graph: everything
/// the table build, the pricing and the §4.1 merge read, and nothing
/// else. Equal keys ⇒ bit-identical merged graphs, so a memo keyed by it
/// (`topology::LeafGraphs`) prices and merges each key once — across the
/// leaves of one deployment (the forest's two wards share one) and, in
/// the fleet, across requests that differ only in what the merge does not
/// read: uplink weights and budgets, CPU budget values, counts,
/// robustness and solver options.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct LeafKey {
    graph: Fingerprint,
    profile: Fingerprint,
    words: Vec<u64>,
}

/// The [`LeafKey`] of the leaf whose root path is `path` (leaf first,
/// root last) in `dep`, under `cfg`. It holds the graph's and the
/// profile's fingerprints, `profile.duration_s`, the pin `Mode`, every
/// path site's platform, the leaf's `rate_factor`, and per tier `t ≥ 1`
/// whether that tier may charge a merged vertex
/// (`multitier::charges`: `α_t ≠ 0` or a finite budget).
/// The same exhaustive destructuring as [`shape_key`]: a field added to
/// `Site`, `LinkSpec` or `DeploymentConfig` is a compile error here until
/// it is keyed or named as unread.
pub(crate) fn leaf_key(
    graph: &Graph,
    profile: &GraphProfile,
    dep: &Deployment,
    path: &[SiteId],
    cfg: &DeploymentConfig,
) -> LeafKey {
    let DeploymentConfig {
        // The pin analysis reads it.
        mode,
        // Per-solve, and the objective's: none of the three read them.
        rate_multiplier: _,
        robustness: _,
        ilp: _,
    } = cfg;
    let mut w = KeyWriter {
        words: Vec::with_capacity(3 + 18 * path.len()),
    };
    w.f(profile.duration_s);
    mode_word(&mut w, mode);
    w.u(path.len() as u64);
    for (tier, &id) in path.iter().enumerate() {
        let Site {
            name: _,
            platform,
            // Counts and budget values scale rows of the encoding, never a
            // leaf graph's costs.
            count: _,
            alpha,
            cpu_budget,
            rate_factor,
        } = dep.site(id);
        platform_words(&mut w, platform);
        if tier == 0 {
            // The pricing's rate; the merge never charges the leaf's tier.
            w.f(*rate_factor);
        } else {
            w.b(crate::multitier::charges(*alpha, *cpu_budget));
        }
        // The uplink's weight and budget are the encoder's, not the merge's.
        if let Some(LinkSpec {
            beta: _,
            net_budget: _,
        }) = dep.uplink(id)
        {}
    }
    LeafKey {
        graph: graph.fingerprint().clone(),
        profile: profile.fingerprint().clone(),
        words: w.words,
    }
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
    use crate::topology::SiteId;
    use wishbone_dataflow::{GraphBuilder, Value};
    use wishbone_profile::{profile as run_profile, SourceTrace};

    /// Minimal profiled graph: a source straight into a sink.
    fn profiled() -> (Graph, GraphProfile) {
        profiled_at(8)
    }

    /// The same graph, profiled on elements of `width` samples.
    fn profiled_at(width: usize) -> (Graph, GraphProfile) {
        let mut b = GraphBuilder::new();
        let src = b.source("src");
        b.sink("out", src);
        let g = b.finish().unwrap();
        let t = SourceTrace {
            source: src.0,
            elements: (0..4)
                .map(|i| Value::VecI16(vec![i as i16; width]))
                .collect(),
            rate_hz: 10.0,
        };
        let prof = run_profile(&g, &[t]).unwrap();
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

        let (g2, p2) = profiled();
        assert_eq!(
            key(&a),
            shape_key(&g2, &p2, &a, &cfg),
            "a second allocation of one app is the same app"
        );
        let (_, wider) = profiled_at(9);
        assert_ne!(key(&a), shape_key(&g, &wider, &a, &cfg), "profile bytes");
        let mut slower = p.clone();
        slower.duration_s *= 2.0;
        assert_ne!(key(&a), shape_key(&g, &slower, &a, &cfg), "duration");
    }

    #[test]
    fn every_platform_field_but_the_name_is_shape() {
        let (g, p) = profiled();
        let cfg = DeploymentConfig::default();
        let key = |mote: &Platform| {
            let dep = Deployment::star([(
                Site::new("motes", mote),
                LinkSpec::for_platform(&Platform::tmote_sky()),
            )]);
            shape_key(&g, &p, &dep, &cfg)
        };
        let base = Platform::tmote_sky();

        // One field at a time, moved off the mote's value.
        type Vary = fn(&mut Platform);
        let varied: [(&str, Vary); 17] = [
            ("clock_hz", |p| p.clock_hz *= 2.0),
            ("int_alu", |p| p.cycle_costs.int_alu += 1.0),
            ("int_mul", |p| p.cycle_costs.int_mul += 1.0),
            ("float_add", |p| p.cycle_costs.float_add += 1.0),
            ("float_mul", |p| p.cycle_costs.float_mul += 1.0),
            ("float_div", |p| p.cycle_costs.float_div += 1.0),
            ("sqrt", |p| p.cycle_costs.sqrt += 1.0),
            ("transcendental", |p| p.cycle_costs.transcendental += 1.0),
            ("mem", |p| p.cycle_costs.mem += 1.0),
            ("branch", |p| p.cycle_costs.branch += 1.0),
            ("call", |p| p.cycle_costs.call += 1.0),
            ("interp_penalty", |p| p.interp_penalty += 1.0),
            ("dvfs_derate", |p| p.dvfs_derate /= 2.0),
            ("os_overhead", |p| p.os_overhead += 1.0),
            ("goodput", |p| p.radio.goodput_bytes_per_sec *= 2.0),
            ("max_payload", |p| p.radio.format.max_payload += 1),
            ("per_packet_overhead", |p| {
                p.radio.format.per_packet_overhead += 1
            }),
        ];
        for (field, vary) in varied {
            let mut platform = base.clone();
            vary(&mut platform);
            assert_ne!(
                key(&base),
                key(&platform),
                "`{field}` alone must change the key"
            );
        }
        let renamed = Platform {
            name: "renamed".into(),
            ..base.clone()
        };
        assert_eq!(key(&base), key(&renamed), "the name is a label, not shape");
    }

    /// The sites and uplinks of a mote → gateway → server chain.
    #[derive(Clone)]
    struct Chain {
        leaf: Site,
        gw: Site,
        srv: Site,
        leaf_up: LinkSpec,
        gw_up: LinkSpec,
    }

    impl Chain {
        /// Motes under a budgeted N80 gateway.
        fn new() -> Self {
            let mote = Platform::tmote_sky();
            Chain {
                leaf: Site::new("motes", &mote).with_count(3),
                gw: Site::new("gw", &Platform::nokia_n80()).with_cpu_budget(0.5),
                srv: Site::server("srv", &Platform::server()),
                leaf_up: LinkSpec::for_platform(&mote),
                gw_up: LinkSpec {
                    beta: 1.0,
                    net_budget: 4000.0,
                },
            }
        }

        /// The deployment, and its leaf's root path.
        fn build(&self) -> (Deployment, Vec<SiteId>) {
            let mut dep = Deployment::new(self.srv.clone());
            let gw = dep.attach(dep.root(), self.gw.clone(), self.gw_up);
            let leaf = dep.attach(gw, self.leaf.clone(), self.leaf_up);
            let path = dep.path(leaf);
            (dep, path)
        }
    }

    /// What the pricing and the §4.1 merge read splits the leaf-graph
    /// memo; what they do not read shares it.
    #[test]
    fn a_leaf_key_holds_what_price_and_merge_read_and_nothing_else() {
        use crate::cost_graph::Mode;
        use crate::topology::RobustnessMode;
        use std::time::Duration;
        use wishbone_ilp::SolverBackend;

        let (g, p) = profiled();
        let cfg = DeploymentConfig::default();
        let key_of = |chain: &Chain, cfg: &DeploymentConfig| {
            let (dep, path) = chain.build();
            leaf_key(&g, &p, &dep, &path, cfg)
        };
        let base = Chain::new();
        let base_key = key_of(&base, &cfg);
        type Vary = fn(&mut Chain);

        // Every platform field the pricing reads, on the leaf and on the
        // tiers above it; the leaf's rate factor; each tier's charging
        // bit, flipped by its weight or by its budget's finiteness.
        let split: [(&str, Vary); 19] = [
            ("clock_hz", |c| c.leaf.platform.clock_hz *= 2.0),
            ("int_alu", |c| c.leaf.platform.cycle_costs.int_alu += 1.0),
            ("int_mul", |c| c.leaf.platform.cycle_costs.int_mul += 1.0),
            ("float_add", |c| c.gw.platform.cycle_costs.float_add += 1.0),
            ("float_mul", |c| c.gw.platform.cycle_costs.float_mul += 1.0),
            ("float_div", |c| {
                c.leaf.platform.cycle_costs.float_div += 1.0
            }),
            ("sqrt", |c| c.srv.platform.cycle_costs.sqrt += 1.0),
            ("transcendental", |c| {
                c.leaf.platform.cycle_costs.transcendental += 1.0
            }),
            ("mem", |c| c.gw.platform.cycle_costs.mem += 1.0),
            ("branch", |c| c.leaf.platform.cycle_costs.branch += 1.0),
            ("call", |c| c.gw.platform.cycle_costs.call += 1.0),
            ("interp_penalty", |c| c.gw.platform.interp_penalty += 1.0),
            ("dvfs_derate", |c| c.leaf.platform.dvfs_derate /= 2.0),
            ("max_payload", |c| {
                c.leaf.platform.radio.format.max_payload += 1
            }),
            ("per_packet_overhead", |c| {
                c.gw.platform.radio.format.per_packet_overhead += 1
            }),
            ("rate_factor", |c| c.leaf.rate_factor = 0.5),
            ("gateway budget finite -> inf", |c| {
                c.gw.cpu_budget = f64::INFINITY
            }),
            ("server alpha 0 -> 0.25", |c| c.srv.alpha = 0.25),
            ("server budget inf -> finite", |c| c.srv.cpu_budget = 2.0),
        ];
        for (what, vary) in split {
            let mut chain = base.clone();
            vary(&mut chain);
            assert_ne!(
                base_key,
                key_of(&chain, &cfg),
                "`{what}` alone must split the memo"
            );
        }
        // A weight flips the bit only where the budget does not set it.
        let mut free = base.clone();
        free.gw.cpu_budget = f64::INFINITY;
        let mut weighted = free.clone();
        weighted.gw.alpha = 1.0;
        assert_ne!(
            key_of(&free, &cfg),
            key_of(&weighted, &cfg),
            "gateway alpha 0 -> 1"
        );
        let conservative = DeploymentConfig {
            mode: Mode::Conservative,
            ..cfg.clone()
        };
        assert_ne!(base_key, key_of(&base, &conservative), "the pin mode");
        let (dep, path) = base.build();
        let mut slower = p.clone();
        slower.duration_s *= 2.0;
        assert_ne!(
            base_key,
            leaf_key(&g, &slower, &dep, &path, &cfg),
            "duration"
        );
        let (_, wider) = profiled_at(9);
        assert_ne!(
            base_key,
            leaf_key(&g, &wider, &dep, &path, &cfg),
            "profile content"
        );
        let longer = {
            let mut b = GraphBuilder::new();
            let src = b.source("src");
            let mid = b.transform("mid", Box::new(wishbone_dataflow::IdentityWork), src);
            b.sink("out", mid);
            b.finish().unwrap()
        };
        assert_ne!(
            base_key,
            leaf_key(&longer, &p, &dep, &path, &cfg),
            "graph content"
        );

        // Uplink weights and budgets, CPU budget values, counts, the
        // leaf's own weight and budget (the merge never charges tier 0),
        // an interior rate factor, names: none of them reach a leaf graph.
        let shared: [(&str, Vary); 10] = [
            ("uplink beta", |c| c.gw_up.beta = 3.0),
            ("uplink budget value", |c| c.leaf_up.net_budget = 17.0),
            ("uplink budget finiteness", |c| {
                c.gw_up.net_budget = f64::INFINITY
            }),
            ("gateway budget value", |c| c.gw.cpu_budget = 0.75),
            ("leaf count", |c| c.leaf.count = 9),
            ("interior count", |c| c.gw.count = 4),
            ("leaf alpha", |c| c.leaf.alpha = 5.0),
            ("leaf budget finiteness", |c| {
                c.leaf.cpu_budget = f64::INFINITY
            }),
            ("interior rate factor", |c| c.gw.rate_factor = 3.0),
            ("names", |c| {
                c.leaf.name = "other".into();
                c.gw.platform.name = "relabelled".into();
            }),
        ];
        for (what, vary) in shared {
            let mut chain = base.clone();
            vary(&mut chain);
            assert_eq!(
                base_key,
                key_of(&chain, &cfg),
                "`{what}` must share the memo"
            );
        }
        // A charging tier's weight value: non-zero to another non-zero.
        let (mut one, mut two) = (base.clone(), base.clone());
        (one.gw.alpha, two.gw.alpha) = (1.0, 2.0);
        assert_eq!(
            key_of(&one, &cfg),
            key_of(&two, &cfg),
            "a non-zero alpha's value"
        );

        type VaryCfg = fn(&mut DeploymentConfig);
        let options: [(&str, VaryCfg); 7] = [
            ("robustness", |c| {
                c.robustness = RobustnessMode::SingleGatewayFailure
            }),
            ("rel_gap", |c| c.ilp.rel_gap = 0.01),
            ("max_nodes", |c| c.ilp.max_nodes = 20),
            ("time_limit", |c| {
                c.ilp.time_limit = Some(Duration::from_secs(2))
            }),
            ("warm_solution", |c| c.ilp.warm_solution = Some(vec![1.0])),
            ("backend", |c| c.ilp.backend = SolverBackend::Dense),
            ("rate_multiplier", |c| c.rate_multiplier = 4.0),
        ];
        for (what, vary) in options {
            let mut other = cfg.clone();
            vary(&mut other);
            assert_eq!(
                base_key,
                key_of(&base, &other),
                "`{what}` must share the memo"
            );
        }
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
        let varied: [(&str, Vary); 7] = [
            ("mode", |c| c.mode = Mode::Conservative),
            ("robustness", |c| {
                c.robustness = RobustnessMode::SingleGatewayFailure
            }),
            ("rel_gap", |c| c.ilp.rel_gap = 0.01),
            ("max_nodes", |c| c.ilp.max_nodes = 20),
            ("time_limit", |c| {
                c.ilp.time_limit = Some(Duration::from_secs(2))
            }),
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
