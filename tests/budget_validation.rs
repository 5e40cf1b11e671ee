//! A budget that is not one is refused, not read as "no limit"; a site
//! with no devices is refused, not a panic.
//!
//! The §4.1 merge, the encoder and `shape_key` read a budget only through
//! `is_finite()`: a finite budget is a row, anything else is none. So a
//! NaN (or `−∞`) CPU or uplink budget would solve as unbudgeted, and on a
//! fleet hit it would share its `ShapeKey` with a `+∞` entry and ride in
//! as a budget delta. Both paths answer `PartitionError::InvalidBudget`
//! instead. `+∞` stays "no limit", and a zero or negative budget is a row
//! that no placement fits.
//!
//! `Site::count` is a public field, so a request can name a site with
//! zero devices. Leaf counts are not shape either: on a fleet hit such a
//! request would become a count-0 delta. Every path answers
//! `PartitionError::InvalidCount` before it reaches an assert.
//!
//! `Deployment::new(root)` with nothing attached is a deployment too, and
//! its root would be its only leaf: there is no source to partition.
//! Every path answers `PartitionError::NoLeaf`, and a fleet worker that
//! is handed one answers it and stays up for the requests behind it.
//!
//! `Site::rate_factor`, `Site::alpha` and `LinkSpec::beta` are public
//! fields as well, and each multiplies into objective coefficients (the
//! rate factor into every budget row too): a NaN one would solve to a NaN
//! objective, a negative one to a negative objective, an infinite rate
//! factor to a rate search answering ×2.4e-7. Every path answers
//! `PartitionError::InvalidRateFactor` for a rate factor that is not
//! finite and positive, and `PartitionError::InvalidWeight` for a weight
//! that is not finite and non-negative.
//!
//! `Site::platform` is public data as well, and pricing reads it: every
//! operator's CPU cost is its cycle count over `effective_hz()`, every
//! cut edge's on-air bytes are framed by `radio.format`. A zero or NaN
//! clock, or a NaN cycle cost, would price to a NaN objective, a
//! negative DVFS derate to negative CPU costs, and a zero payload per
//! packet would divide by zero in a fleet worker; a zero OS overhead
//! turns a CPU budget that `Site::with_measured_overheads` derates into
//! `+∞`. Every path answers `PartitionError::InvalidPlatform`.
//!
//! `IlpOptions::rel_gap` is a public field too. Branch-and-bound prunes a
//! node whose bound is within that gap of the incumbent, so a NaN gap
//! prunes nothing and a negative one prunes nothing inside it: the search
//! runs the tree out. Every path answers `PartitionError::InvalidGap`;
//! `+∞` stops at the first placement and certifies its gap honestly.

use std::sync::Arc;

use wishbone::core::{PartitionError, PreparedDeployment};
use wishbone::fleet::ShapeCache;
use wishbone::ilp::SimplexWorkspace;
use wishbone::prelude::*;

/// The 2-channel EEG app, profiled.
fn eeg2() -> (Arc<Graph>, Arc<GraphProfile>) {
    let app = build_eeg_app(EegParams {
        n_channels: 2,
        ..EegParams::default()
    });
    let traces = app.traces(6, 2..4, 3);
    let prof = profile(&app.graph, &traces).unwrap();
    (Arc::new(app.graph), Arc::new(prof))
}

/// One TMote leaf under the server, with the given CPU and uplink budgets.
fn star(cpu_budget: f64, net_budget: f64) -> Deployment {
    let mote = Platform::tmote_sky();
    Deployment::star([(
        Site::new("mote", &mote).with_cpu_budget(cpu_budget),
        LinkSpec {
            net_budget,
            ..LinkSpec::for_platform(&mote)
        },
    )])
}

/// Every one-shot path (partition, prepare, rate search) on `dep`.
fn one_shot(g: &Graph, prof: &GraphProfile, dep: &Deployment) -> [Option<PartitionError>; 3] {
    let cfg = DeploymentConfig::default();
    [
        partition_deployment(g, prof, dep, &cfg).err(),
        PreparedDeployment::new(g, prof, dep, &cfg).err(),
        max_sustainable_rate_deployment(g, prof, dep, &cfg, 4.0, 0.01).err(),
    ]
}

/// The mote's CPU budget (`cpu`) or its uplink's, set to `bad`; the
/// other `+∞`.
fn star_with(cpu: bool, bad: f64) -> Deployment {
    match cpu {
        true => star(bad, f64::INFINITY),
        false => star(f64::INFINITY, bad),
    }
}

/// Partition, prepare and the rate search all refuse a NaN or `−∞` CPU
/// (`cpu`) or uplink budget with the mote's id.
fn assert_refused_one_shot(cpu: bool) {
    let (g, prof) = eeg2();
    let mote = star(1.0, 1.0).leaves()[0];
    let refused = Some(PartitionError::InvalidBudget { site: mote });
    for bad in [f64::NAN, f64::NEG_INFINITY] {
        let got = one_shot(&g, &prof, &star_with(cpu, bad));
        assert_eq!(got, [(); 3].map(|_| refused.clone()), "budget {bad}");
    }
}

#[test]
fn a_nan_cpu_budget_is_refused_one_shot() {
    assert_refused_one_shot(true);
}

#[test]
fn a_nan_net_budget_is_refused_one_shot() {
    assert_refused_one_shot(false);
}

#[test]
fn an_infinite_budget_is_no_limit_and_a_nonpositive_one_fits_nothing() {
    let (g, prof) = eeg2();
    let cfg = DeploymentConfig::default();
    let unlimited = star(f64::INFINITY, f64::INFINITY);
    let free = partition_deployment(&g, &prof, &unlimited, &cfg).expect("no budget binds");
    assert!(free.ilp_stats.proved);
    assert_eq!(free.objective.to_bits(), 9.0f64.to_bits());
    // Budgets too large to bind give the same placement as no budgets.
    let roomy = partition_deployment(&g, &prof, &star(1e6, 1e9), &cfg).expect("fits");
    assert_eq!(roomy.objective.to_bits(), free.objective.to_bits());
    assert_eq!(roomy.leaves[0].site_ops, free.leaves[0].site_ops);
    for tight in [0.0, -0.0, -1.0] {
        for dep in [star(tight, f64::INFINITY), star(f64::INFINITY, tight)] {
            let got = partition_deployment(&g, &prof, &dep, &cfg);
            assert_eq!(
                got.err(),
                Some(PartitionError::Infeasible),
                "budget {tight}"
            );
        }
    }
}

/// A NaN CPU (`cpu`) or uplink budget keys like `+∞`, so it would reach
/// a `+∞` entry as a budget delta; it is refused, and the entry still
/// answers the next `+∞` request with the same bits.
fn assert_refused_on_a_hit(cpu: bool) {
    let (g, prof) = eeg2();
    let cfg = DeploymentConfig::default();
    let request = |id: u64, deployment: Deployment| FleetRequest {
        id,
        graph: Arc::clone(&g),
        profile: Arc::clone(&prof),
        deployment,
        config: cfg.clone(),
        rate: 1.0,
    };
    let key = |req: &FleetRequest| shape_key(&req.graph, &req.profile, &req.deployment, &cfg);
    let mote = star(1.0, 1.0).leaves()[0];
    let mut cache = ShapeCache::new();
    let mut ws = SimplexWorkspace::new();
    let unlimited = request(0, star(f64::INFINITY, f64::INFINITY));
    let (hit, first) = cache.serve(&unlimited, key(&unlimited), &mut ws, true);
    let first = first.expect("no budget binds");
    assert!(!hit);
    let nan = request(1, star_with(cpu, f64::NAN));
    assert_eq!(key(&nan), key(&unlimited));
    let (_, got) = cache.serve(&nan, key(&nan), &mut ws, true);
    assert_eq!(
        got.err(),
        Some(PartitionError::InvalidBudget { site: mote })
    );
    let again = request(2, star(f64::INFINITY, f64::INFINITY));
    let (hit, second) = cache.serve(&again, key(&again), &mut ws, true);
    let second = second.expect("no budget binds");
    assert!(hit);
    assert_eq!(cache.len(), 1);
    assert_eq!(second.objective.to_bits(), first.objective.to_bits());
    assert_eq!(second.leaves[0].site_ops, first.leaves[0].site_ops);
}

#[test]
fn a_nan_cpu_budget_is_refused_on_a_fleet_hit() {
    assert_refused_on_a_hit(true);
}

#[test]
fn a_nan_net_budget_is_refused_on_a_fleet_hit() {
    assert_refused_on_a_hit(false);
}

/// The instance itself refuses such a budget as a delta: `apply_delta`
/// asserts (a caller that builds deltas by hand skipped the request
/// check that `ShapeCache::serve` makes).
#[test]
#[should_panic(expected = "is not a budget")]
fn a_nan_budget_delta_is_a_broken_caller() {
    let (g, prof) = eeg2();
    let dep = star(f64::INFINITY, f64::INFINITY);
    let cfg = DeploymentConfig::default();
    let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).expect("no budget to refuse");
    prep.apply_delta(&[DeploymentDelta::SetCpuBudget {
        site: dep.leaves()[0],
        cpu_budget: f64::NAN,
    }]);
}

/// One TMote leaf under the server, no budgets, `count` devices (set on
/// the public field, past `Site::with_count`'s assert).
fn star_of(count: usize) -> Deployment {
    let mote = Platform::tmote_sky();
    let mut site = Site::new("m", &mote);
    site.count = count;
    Deployment::star([(site, LinkSpec::for_platform(&mote))])
}

/// A fleet request for `app` on `star_of(count)`.
fn count_request(app: &(Arc<Graph>, Arc<GraphProfile>), id: u64, count: usize) -> FleetRequest {
    FleetRequest {
        id,
        graph: Arc::clone(&app.0),
        profile: Arc::clone(&app.1),
        deployment: star_of(count),
        config: DeploymentConfig::default(),
        rate: 1.0,
    }
}

fn key_of(req: &FleetRequest) -> ShapeKey {
    shape_key(&req.graph, &req.profile, &req.deployment, &req.config)
}

#[test]
fn a_zero_device_count_is_refused_one_shot() {
    let (g, prof) = eeg2();
    let empty = star_of(0);
    let refused = Some(PartitionError::InvalidCount {
        site: empty.leaves()[0],
    });
    assert_eq!(
        one_shot(&g, &prof, &empty),
        [(); 3].map(|_| refused.clone())
    );
}

#[test]
fn a_zero_device_count_is_refused_on_a_fleet_miss() {
    let app = eeg2();
    let req = count_request(&app, 0, 0);
    let mut cache = ShapeCache::new();
    let mut ws = SimplexWorkspace::new();
    let (hit, got) = cache.serve(&req, key_of(&req), &mut ws, true);
    assert!(!hit);
    assert_eq!(
        got.err(),
        Some(PartitionError::InvalidCount {
            site: req.deployment.leaves()[0]
        })
    );
    assert!(cache.is_empty(), "nothing was prepared");
    // And through the service: the worker answers and stays up.
    let (responses, _) = run_batch(
        2,
        vec![count_request(&app, 1, 0), count_request(&app, 2, 1)],
    );
    assert!(matches!(
        responses[0].result,
        Err(PartitionError::InvalidCount { .. })
    ));
    assert!(responses[1].result.is_ok());
}

#[test]
fn a_zero_device_count_is_refused_on_a_fleet_hit() {
    let app = eeg2();
    let mut cache = ShapeCache::new();
    let mut ws = SimplexWorkspace::new();
    let one = count_request(&app, 0, 1);
    let (hit, first) = cache.serve(&one, key_of(&one), &mut ws, true);
    let first = first.expect("one device fits");
    assert!(!hit);
    // Leaf counts are not shape: the empty leaf keys like the entry.
    let empty = count_request(&app, 1, 0);
    assert_eq!(key_of(&empty), key_of(&one));
    let (_, got) = cache.serve(&empty, key_of(&empty), &mut ws, true);
    assert_eq!(
        got.err(),
        Some(PartitionError::InvalidCount {
            site: empty.deployment.leaves()[0]
        })
    );
    // The entry was not touched: the next request hits it, same bits.
    let again = count_request(&app, 2, 1);
    let (hit, second) = cache.serve(&again, key_of(&again), &mut ws, true);
    let second = second.expect("one device fits");
    assert!(hit);
    assert_eq!(cache.len(), 1);
    assert_eq!(second.objective.to_bits(), first.objective.to_bits());
    assert_eq!(second.leaves[0].site_ops, first.leaves[0].site_ops);
}

/// The server alone: a root with no site attached under it.
fn no_leaf() -> Deployment {
    Deployment::new(Site::server("srv", &Platform::server()))
}

#[test]
fn a_deployment_with_no_leaf_is_refused_one_shot() {
    let (g, prof) = eeg2();
    assert_eq!(
        one_shot(&g, &prof, &no_leaf()),
        [(); 3].map(|_| Some(PartitionError::NoLeaf))
    );
}

#[test]
fn a_deployment_with_no_leaf_is_refused_by_the_fleet() {
    let app = eeg2();
    let bad = FleetRequest {
        deployment: no_leaf(),
        ..count_request(&app, 0, 1)
    };
    let mut cache = ShapeCache::new();
    let (hit, got) = cache.serve(&bad, key_of(&bad), &mut SimplexWorkspace::new(), true);
    assert!(!hit);
    assert_eq!(got.err(), Some(PartitionError::NoLeaf));
    assert!(cache.is_empty(), "nothing was prepared");
    // Through a two-worker service: the bad request gets its error, its
    // neighbour its placement, and the batch returns.
    let (responses, stats) = run_batch(2, vec![bad, count_request(&app, 1, 1)]);
    assert_eq!(
        responses[0].result.as_ref().err(),
        Some(&PartitionError::NoLeaf)
    );
    assert!(responses[1].result.is_ok());
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.distinct_shapes, 1, "only the neighbour is cached");
}

/// The default config with `ilp.rel_gap` set to `rel_gap`.
fn gap_config(rel_gap: f64) -> DeploymentConfig {
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.rel_gap = rel_gap;
    cfg
}

/// `got` is exactly `InvalidGap` carrying `rel_gap`'s bits.
fn assert_invalid_gap<T>(got: Result<T, PartitionError>, rel_gap: f64) {
    match got.err() {
        Some(PartitionError::InvalidGap { rel_gap: g }) => {
            assert_eq!(g.to_bits(), rel_gap.to_bits())
        }
        other => panic!("gap {rel_gap}: expected InvalidGap, got {other:?}"),
    }
}

const BAD_GAPS: [f64; 3] = [f64::NAN, -0.01, f64::NEG_INFINITY];

#[test]
fn a_nan_or_negative_gap_is_refused_one_shot() {
    let (g, prof) = eeg2();
    let dep = star(1.0, f64::INFINITY);
    for bad in BAD_GAPS {
        let cfg = gap_config(bad);
        assert_invalid_gap(partition_deployment(&g, &prof, &dep, &cfg), bad);
        assert_invalid_gap(PreparedDeployment::new(&g, &prof, &dep, &cfg), bad);
        assert_invalid_gap(
            max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 4.0, 0.01),
            bad,
        );
    }
}

#[test]
fn an_infinite_gap_stops_at_a_placement_whose_certificate_holds() {
    let (g, prof) = eeg2();
    let dep = star(0.02, f64::INFINITY);
    let exact = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default())
        .expect("the mote fits part of the app");
    let first = partition_deployment(&g, &prof, &dep, &gap_config(f64::INFINITY))
        .expect("+inf is a legal gap");
    let gap = first.certified_gap.expect("every placement is certified");
    assert!(gap.is_finite() && gap >= 0.0, "certified gap {gap}");
    let bound = first.objective - gap * first.objective.abs();
    assert!(exact.objective >= bound - 1e-9 * (1.0 + bound.abs()));
    assert!(exact.objective <= first.objective + 1e-9 * (1.0 + first.objective.abs()));
}

#[test]
fn a_nan_or_negative_gap_is_refused_by_the_fleet_and_caches_nothing() {
    let (g, prof) = eeg2();
    let request = |id: u64, cfg: DeploymentConfig| FleetRequest {
        id,
        graph: Arc::clone(&g),
        profile: Arc::clone(&prof),
        deployment: star(1.0, f64::INFINITY),
        config: cfg,
        rate: 1.0,
    };
    let good = request(9, DeploymentConfig::default());
    for bad in BAD_GAPS {
        let mut cache = ShapeCache::new();
        let mut ws = SimplexWorkspace::new();
        let req = request(0, gap_config(bad));
        let (hit, got) = cache.serve(&req, key_of(&req), &mut ws, true);
        assert!(!hit);
        assert_invalid_gap(got, bad);
        assert!(cache.is_empty(), "nothing was prepared");
        let (hit, next) = cache.serve(&good, key_of(&good), &mut ws, true);
        assert!(!hit && next.is_ok(), "the next request is answered");

        let (responses, stats) = run_batch(2, vec![req, request(1, DeploymentConfig::default())]);
        assert_invalid_gap(responses[0].result.clone(), bad);
        assert!(responses[1].result.is_ok());
        assert_eq!(stats.errors, 1);
    }
}

/// One TMote leaf under the server with its platform's budgets, and its
/// rate factor, CPU weight and uplink weight set on the public fields,
/// past `Site::at_rate`'s assert.
fn weighted_star(rate_factor: f64, alpha: f64, beta: f64) -> Deployment {
    let mote = Platform::tmote_sky();
    let mut site = Site::new("mote", &mote);
    site.rate_factor = rate_factor;
    site.alpha = alpha;
    Deployment::star([(
        site,
        LinkSpec {
            beta,
            ..LinkSpec::for_platform(&mote)
        },
    )])
}

/// Every hostile rate factor, CPU weight and uplink weight, each on an
/// otherwise legal star, with the error that names the mote.
fn hostile_stars() -> Vec<(Deployment, PartitionError)> {
    let site = weighted_star(1.0, 0.0, 1.0).leaves()[0];
    let mut cases = Vec::new();
    for bad in [f64::NAN, 0.0, -0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
        let refused = PartitionError::InvalidRateFactor { site };
        cases.push((weighted_star(bad, 0.0, 1.0), refused));
    }
    for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
        let refused = PartitionError::InvalidWeight { site };
        cases.push((weighted_star(1.0, bad, 1.0), refused.clone()));
        cases.push((weighted_star(1.0, 0.0, bad), refused));
    }
    cases
}

#[test]
fn a_hostile_rate_factor_or_weight_is_refused_one_shot() {
    let (g, prof) = eeg2();
    for (dep, refused) in hostile_stars() {
        assert_eq!(
            one_shot(&g, &prof, &dep),
            [(); 3].map(|_| Some(refused.clone())),
            "{refused:?}"
        );
    }
    // Zero weights and a small rate factor are legal.
    let cfg = DeploymentConfig::default();
    let free = partition_deployment(&g, &prof, &weighted_star(1e-3, 0.0, 0.0), &cfg)
        .expect("zero weights price nothing");
    assert_eq!(free.objective.to_bits(), 0.0f64.to_bits());
}

#[test]
fn a_hostile_rate_factor_or_weight_is_refused_by_the_fleet_and_caches_nothing() {
    let (g, prof) = eeg2();
    let request = |id: u64, deployment: Deployment| FleetRequest {
        id,
        graph: Arc::clone(&g),
        profile: Arc::clone(&prof),
        deployment,
        config: DeploymentConfig::default(),
        rate: 1.0,
    };
    let good = request(9, weighted_star(1.0, 0.0, 1.0));
    for (dep, refused) in hostile_stars() {
        let mut cache = ShapeCache::new();
        let mut ws = SimplexWorkspace::new();
        let req = request(0, dep);
        let (hit, got) = cache.serve(&req, key_of(&req), &mut ws, true);
        assert!(!hit);
        assert_eq!(got.err(), Some(refused.clone()));
        assert!(cache.is_empty(), "nothing was prepared");
        let (hit, next) = cache.serve(&good, key_of(&good), &mut ws, true);
        assert!(!hit && next.is_ok(), "the next request is answered");

        let good = request(1, weighted_star(1.0, 0.0, 1.0));
        let (responses, stats) = run_batch(2, vec![req, good]);
        assert_eq!(responses[0].result.clone().err(), Some(refused));
        assert!(responses[1].result.is_ok());
        assert_eq!(stats.errors, 1);
    }
}

/// One TMote leaf under the server, the mote's platform changed by
/// `vary`.
fn platform_star(vary: fn(&mut Platform)) -> Deployment {
    let mut mote = Platform::tmote_sky();
    vary(&mut mote);
    Deployment::star([(Site::new("mote", &mote), LinkSpec::for_platform(&mote))])
}

/// Every hostile platform field pricing reads, each on an otherwise
/// legal star.
fn hostile_platforms() -> Vec<(&'static str, Deployment)> {
    type Vary = fn(&mut Platform);
    let varied: [(&str, Vary); 8] = [
        ("max_payload 0", |p| p.radio.format.max_payload = 0),
        ("clock_hz 0", |p| p.clock_hz = 0.0),
        ("clock_hz NaN", |p| p.clock_hz = f64::NAN),
        ("interp_penalty 0", |p| p.interp_penalty = 0.0),
        ("dvfs_derate -1", |p| p.dvfs_derate = -1.0),
        ("int_alu NaN", |p| p.cycle_costs.int_alu = f64::NAN),
        ("float_mul -1", |p| p.cycle_costs.float_mul = -1.0),
        ("transcendental inf", |p| {
            p.cycle_costs.transcendental = f64::INFINITY
        }),
    ];
    varied
        .into_iter()
        .map(|(what, vary)| (what, platform_star(vary)))
        .collect()
}

#[test]
fn a_platform_that_cannot_price_is_refused_one_shot() {
    let (g, prof) = eeg2();
    for (what, dep) in hostile_platforms() {
        let refused = Some(PartitionError::InvalidPlatform {
            site: dep.leaves()[0],
        });
        assert_eq!(
            one_shot(&g, &prof, &dep),
            [(); 3].map(|_| refused.clone()),
            "{what}"
        );
    }
    // A zero cycle cost prices its class free, which is legal.
    let free = platform_star(|p| p.cycle_costs.transcendental = 0.0);
    partition_deployment(&g, &prof, &free, &DeploymentConfig::default())
        .expect("a zero cycle cost prices");
}

#[test]
fn a_platform_that_cannot_price_is_refused_by_the_fleet_and_caches_nothing() {
    let (g, prof) = eeg2();
    let request = |id: u64, deployment: Deployment| FleetRequest {
        id,
        graph: Arc::clone(&g),
        profile: Arc::clone(&prof),
        deployment,
        config: DeploymentConfig::default(),
        rate: 1.0,
    };
    for (what, dep) in hostile_platforms() {
        let refused = PartitionError::InvalidPlatform {
            site: dep.leaves()[0],
        };
        let req = request(0, dep);
        let mut cache = ShapeCache::new();
        let (hit, got) = cache.serve(&req, key_of(&req), &mut SimplexWorkspace::new(), true);
        assert!(!hit);
        assert_eq!(got.err(), Some(refused.clone()), "{what}");
        assert!(cache.is_empty(), "nothing was prepared: {what}");
        // Through a two-worker service: the bad request gets its error,
        // its neighbour its placement, and the batch returns.
        let good = request(1, platform_star(|_| {}));
        let (responses, stats) = run_batch(2, vec![req, good]);
        assert_eq!(responses[0].result.clone().err(), Some(refused), "{what}");
        assert!(responses[1].result.is_ok(), "{what}");
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.distinct_shapes, 1, "only the neighbour is cached");
    }
}

/// A star whose mote's platform carries OS overhead `overhead`, its CPU
/// budget derated by it as §7.3 prescribes.
fn derated_star(overhead: f64) -> Deployment {
    let mut mote = Platform::tmote_sky();
    mote.os_overhead = overhead;
    let site = Site::new("mote", &mote).with_measured_overheads();
    Deployment::star([(site, LinkSpec::for_platform(&mote))])
}

/// `Site::with_measured_overheads` divides the CPU budget by the
/// platform's OS overhead, so a zero overhead turned the mote's 1.0
/// budget into `+∞` — no limit, solved as such — a negative one into a
/// negative budget and an infinite one into a zero budget. An overhead
/// that is not finite and positive is a platform that cannot price, on
/// every path. (A NaN one derates to a NaN budget, which the budget check
/// before it refuses.)
#[test]
fn a_zero_os_overhead_is_refused_not_read_as_no_budget() {
    let (g, prof) = eeg2();
    let cfg = DeploymentConfig::default();
    let nan = derated_star(f64::NAN);
    assert_eq!(
        partition_deployment(&g, &prof, &nan, &cfg).err(),
        Some(PartitionError::InvalidBudget {
            site: nan.leaves()[0]
        })
    );
    for overhead in [0.0, -1.0, f64::INFINITY] {
        let dep = derated_star(overhead);
        let refused = PartitionError::InvalidPlatform {
            site: dep.leaves()[0],
        };
        assert_eq!(
            partition_deployment(&g, &prof, &dep, &cfg).err(),
            Some(refused.clone()),
            "os_overhead {overhead}"
        );
        let req = FleetRequest {
            id: 0,
            graph: Arc::clone(&g),
            profile: Arc::clone(&prof),
            deployment: dep,
            config: cfg.clone(),
            rate: 1.0,
        };
        let mut cache = ShapeCache::new();
        let (hit, got) = cache.serve(&req, key_of(&req), &mut SimplexWorkspace::new(), true);
        assert!(!hit && cache.is_empty(), "os_overhead {overhead}");
        assert_eq!(got.err(), Some(refused), "os_overhead {overhead}");
    }
    // A measured overhead derates the budget and partitions.
    let part = partition_deployment(&g, &prof, &derated_star(1.15), &cfg)
        .expect("a measured overhead prices");
    assert!(part.site_cpu[part.leaves[0].leaf.0] <= 1.0 / 1.15 + 1e-9);
}
