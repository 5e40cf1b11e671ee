//! A prepared instance whose leaf graphs come from a warm memo is the
//! instance a cold `PreparedDeployment::new` prepares, bit for bit.
//!
//! `PreparedDeployment::new_in` takes each leaf's priced, merged chain
//! graph from a `LeafGraphs` memo keyed by what the pricing and the §4.1
//! merge read. Each case warms a memo with one request and then prepares a
//! second from it; the two share every leaf key and differ in everything
//! the key leaves out — uplink weights and budgets, CPU weight and budget
//! values (each interior tier keeps whether it charges: `α ≠ 0` or a
//! finite budget), the leaves' own weights and budgets, leaf and interior
//! counts, robustness and solver options. The second instance must take
//! every leaf from the memo and match a cold `new` on every coefficient,
//! right-hand side and bound, and on the solved placement.

use std::sync::Arc;

use proptest::prelude::*;

use wishbone::core::{LeafGraphs, PreparedDeployment};
use wishbone::prelude::*;

#[path = "common/fleet.rs"]
#[allow(dead_code)] // the load generators are `fleet_parity.rs`'s
mod fleet;
#[path = "common/identity.rs"]
mod identity;
use identity::problems_identical;

type App = (Arc<Graph>, Arc<GraphProfile>);

thread_local! {
    /// Two fleet pipelines (as `fleet_parity.rs` builds them) and the
    /// 4-channel EEG app of the benchmark forest, profiled once.
    static APPS: [App; 3] = {
        let pipeline = |variant: usize| {
            let stage = |s: usize| ((600 + 400 * variant as u64) * (s as u64 + 1), 2 + s);
            fleet::pipeline(2 + variant, stage, 12, 96)
        };
        let eeg = build_eeg_app(EegParams {
            n_channels: 4,
            ..Default::default()
        });
        let traces = eeg.traces(4, 1..3, 7);
        let prof = profile(&eeg.graph, &traces).expect("profiling succeeds");
        [pipeline(0), pipeline(1), (Arc::new(eeg.graph), Arc::new(prof))]
    };
}

/// Uniform draws in `[0, 1)`, consumed in order.
struct Draws(std::vec::IntoIter<f64>);

impl Draws {
    fn u(&mut self) -> f64 {
        self.0.next().expect("a case draws enough values")
    }

    /// `lo + (hi − lo)·u`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.u()
    }

    /// One of `n` choices.
    fn pick(&mut self, n: usize) -> usize {
        ((self.u() * n as f64) as usize).min(n - 1)
    }

    /// An uplink: any weight, a finite or infinite byte budget.
    fn uplink(&mut self) -> LinkSpec {
        let beta = self.range(0.1, 4.0);
        let net_budget = if self.u() < 0.2 {
            f64::INFINITY
        } else {
            self.range(200.0, 60_000.0)
        };
        LinkSpec { beta, net_budget }
    }

    /// An interior site whose charging bit is `charging`'s: bit 0 a
    /// non-zero weight, bit 1 a finite budget, values and count drawn.
    fn interior(&mut self, name: &str, platform: &Platform, charging: u8) -> Site {
        let alpha = self.range(0.05, 2.0);
        let budget = self.range(0.05, 1.5);
        Site::new(name, platform)
            .with_alpha(if charging & 1 == 1 { alpha } else { 0.0 })
            .with_cpu_budget(if charging & 2 == 2 {
                budget
            } else {
                f64::INFINITY
            })
            .with_count(1 + self.pick(3))
    }

    /// A leaf of motes: its weight, budget (finite or not) and count are
    /// all free, since the merge never charges the leaf's own tier.
    fn leaf(&mut self, name: &str) -> Site {
        let alpha = if self.u() < 0.5 { 0.0 } else { self.u() };
        let budget = if self.u() < 0.3 {
            f64::INFINITY
        } else {
            self.range(0.2, 1.2)
        };
        Site::new(name, &Platform::tmote_sky())
            .with_alpha(alpha)
            .with_cpu_budget(budget)
            .with_count(1 + self.pick(4))
    }

    /// Robustness and solver options.
    fn config(&mut self, dense: bool) -> DeploymentConfig {
        let mut cfg = DeploymentConfig::default();
        if self.u() < 0.5 {
            cfg.robustness = RobustnessMode::SingleGatewayFailure;
        }
        cfg.ilp.rel_gap = [0.0, 0.01, 0.05][self.pick(3)];
        cfg.ilp.max_nodes = [1, 50, cfg.ilp.max_nodes][self.pick(3)];
        if dense && self.u() < 0.5 {
            cfg.ilp.backend = SolverBackend::Dense;
        }
        cfg
    }
}

/// A pipeline request: motes → gateway (→ relay) → server, the
/// interior tiers' charging bits fixed by `charging`.
fn pipeline_dep(d: &mut Draws, deep: bool, charging: &[u8]) -> Deployment {
    let phone = Platform::nokia_n80();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let mut parent = dep.root();
    if deep {
        let relay = d.interior("relay", &phone, charging[1]);
        let up = d.uplink();
        parent = dep.attach(parent, relay, up);
    }
    let gw = d.interior("gw", &phone, charging[0]);
    let up = d.uplink();
    let gw = dep.attach(parent, gw, up);
    let motes = d.leaf("motes");
    let up = d.uplink();
    dep.attach(gw, motes, up);
    dep
}

/// The two-ward EEG forest: each ward's motes behind its own iPhone
/// gateway.
fn forest_dep(d: &mut Draws, charging: &[u8]) -> Deployment {
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    for (ward, &bits) in ["a", "b"].iter().zip(charging) {
        let gw = d.interior(&format!("gw-{ward}"), &phone, bits);
        let up = d.uplink();
        let gw = dep.attach(root, gw, up);
        let motes = d.leaf(&format!("ward-{ward}"));
        let up = d.uplink();
        dep.attach(gw, motes, up);
    }
    dep
}

/// Everything a caller can read off a placement, floats by bit pattern.
fn assert_partitions_identical(
    a: &DeploymentPartition,
    b: &DeploymentPartition,
) -> Result<(), TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    prop_assert_eq!(bits(&a.site_cpu), bits(&b.site_cpu));
    prop_assert_eq!(bits(&a.link_net), bits(&b.link_net));
    prop_assert_eq!(a.merge_stats, b.merge_stats);
    prop_assert_eq!(a.problem_size, b.problem_size);
    prop_assert_eq!(
        a.certified_gap.map(f64::to_bits),
        b.certified_gap.map(f64::to_bits)
    );
    prop_assert_eq!(a.ilp_stats.nodes, b.ilp_stats.nodes);
    prop_assert_eq!(a.leaves.len(), b.leaves.len());
    for (la, lb) in a.leaves.iter().zip(&b.leaves) {
        prop_assert_eq!(&la.path, &lb.path);
        prop_assert_eq!(&la.site_ops, &lb.site_ops);
        prop_assert_eq!(&la.link_cut_edges, &lb.link_cut_edges);
        prop_assert_eq!(bits(&la.predicted_cpu), bits(&lb.predicted_cpu));
        prop_assert_eq!(bits(&la.predicted_net), bits(&lb.predicted_net));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn a_warm_memo_prepares_what_a_cold_new_prepares(
        app in 0usize..3,
        deep in any::<bool>(),
        charging in prop::collection::vec(0u8..4, 2),
        warm in prop::collection::vec(0.0f64..1.0, 40),
        target in prop::collection::vec(0.0f64..1.0, 40),
        rate_exp in -3.0f64..1.5,
    ) {
        let (graph, prof) = APPS.with(|apps| apps[app].clone());
        let request = |draws: Vec<f64>| {
            let mut d = Draws(draws.into_iter());
            let dep = if app < 2 {
                pipeline_dep(&mut d, deep, &charging)
            } else {
                forest_dep(&mut d, &charging)
            };
            // The reference tableau on the pipelines only: it solves every
            // LP cold, minutes on the forest in a debug build.
            (dep, d.config(app < 2))
        };
        let (warm_dep, warm_cfg) = request(warm);
        let (dep, cfg) = request(target);

        let mut memo = LeafGraphs::new();
        PreparedDeployment::new_in(&graph, &prof, &warm_dep, &warm_cfg, &mut memo)
            .expect("the apps pin cleanly");
        let merged = memo.len();
        if app == 2 {
            // The wards share a platform chain: one key unless their
            // gateways differ in whether they charge.
            let charges = |bits: u8| bits != 0;
            prop_assert_eq!(merged, 1 + usize::from(charges(charging[0]) != charges(charging[1])));
        }
        let mut hot = PreparedDeployment::new_in(&graph, &prof, &dep, &cfg, &mut memo)
            .expect("the apps pin cleanly");
        prop_assert_eq!(memo.len(), merged, "every leaf must come from the memo");
        let mut cold = PreparedDeployment::new(&graph, &prof, &dep, &cfg)
            .expect("the apps pin cleanly");
        problems_identical(hot.problem(), cold.problem()).map_err(TestCaseError::fail)?;

        let rate = rate_exp.exp2();
        match (hot.solve_at(rate), cold.solve_at(rate)) {
            (Ok(a), Ok(b)) => assert_partitions_identical(&a, &b)?,
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "verdicts differ: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
        problems_identical(hot.problem(), cold.problem()).map_err(TestCaseError::fail)?;
    }
}
