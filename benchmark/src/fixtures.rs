//! The instances the six workloads run on, and the seeded generators of
//! the fleet request mix. Everything here is *input*: the library under
//! test receives only what these functions build.

use std::collections::HashSet;
use std::sync::Arc;

use wishbone::core::{Deployment, DeploymentConfig, LinkSpec, Site};
use wishbone::dataflow::{ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value};
use wishbone::fleet::FleetRequest;
use wishbone::net::ChannelParams;
use wishbone::prelude::{build_eeg_app, EegParams};
use wishbone::profile::{profile, GraphProfile, Platform, SourceTrace};
use wishbone::runtime::{LeafRoute, SimulationConfig, SourceFeed, TreeTopology};

/// SplitMix64: the request generators' only source of randomness, so a
/// seed names one request list on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A profiled application: the graph, its profile, and how long each of
/// the two set-up layers took (`apps.build_ms`, `profile.profile_ms`).
pub struct ProfiledApp {
    pub graph: Graph,
    pub profile: GraphProfile,
    pub build_s: f64,
    pub profile_s: f64,
}

/// The EEG seizure-detection app at `channels` montage channels,
/// profiled on the `solver_criterion` traces (4 windows, seizure in 1..3,
/// seed 7).
pub fn eeg_app(channels: usize) -> ProfiledApp {
    let t = std::time::Instant::now();
    let mut app = build_eeg_app(EegParams {
        n_channels: channels,
        ..Default::default()
    });
    let build_s = t.elapsed().as_secs_f64();
    let traces = app.traces(4, 1..3, 7);
    let t = std::time::Instant::now();
    let profile = profile(&mut app.graph, &traces).expect("the EEG app profiles cleanly");
    ProfiledApp {
        graph: app.graph,
        profile,
        build_s,
        profile_s: t.elapsed().as_secs_f64(),
    }
}

/// Workload 1's topology: mote → phone → server.
pub fn eeg_chain() -> Deployment {
    Deployment::chain(&[
        Platform::tmote_sky(),
        Platform::iphone(),
        Platform::server(),
    ])
}

/// Workloads 2–3's topology: two wards of four caps behind two gateways
/// with asymmetric backhauls (500 B/s and 400 kB/s) — the tight forest of
/// `tests/approx_nearcliff.rs` (feasibility cliff at rate ×3.1614).
pub fn eeg_forest() -> Deployment {
    let count = 4;
    let mote = Platform::tmote_sky();
    let phone = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let ward_uplink = LinkSpec {
        beta: 1.0,
        net_budget: count as f64 * mote.radio.goodput_bytes_per_sec,
    };
    for (name, backhaul) in [("a", 500.0), ("b", 400_000.0)] {
        let gw = dep.attach(
            root,
            Site::new(format!("gw-{name}"), &phone),
            LinkSpec {
                beta: 1.0,
                net_budget: backhaul,
            },
        );
        dep.attach(
            gw,
            Site::new(format!("ward-{name}"), &mote).with_count(count),
            ward_uplink,
        );
    }
    dep
}

/// Rates of the approximate sweep: eight points from far below the cliff
/// to just under it.
pub const SWEEP_RATES: [f64; 8] = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.15];

/// Rate-search parameters of workload 2.
pub const RATE_HI_LIMIT: f64 = 64.0;
pub const RATE_TOL: f64 = 0.005;

// ---------------------------------------------------------------- fleet

/// The `fleet_scaling` pipeline: mostly data-neutral stages with a
/// reducing stage every 128th operator, so the §4.1 merge collapses the
/// ILP to a handful of vertices while build + merge + encode walk the
/// whole graph.
fn pipeline_app(variant: usize) -> (Graph, OperatorId) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for s in 0..384 + 96 * variant {
        let cost = 200 + 100 * variant as u64 + 40 * (s as u64 % 9);
        let keep = if s % 128 == 127 { 3 } else { 1 };
        prev = b.transform(
            format!("stage{s}"),
            Box::new(FnWork(move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().expect("pipeline stages carry i16 windows");
                cx.meter().loop_scope(cost, |m| {
                    m.int(cost);
                    m.fadd(cost / 2);
                });
                cx.emit(Value::VecI16(w.iter().step_by(keep).copied().collect()));
            })),
            prev,
        );
    }
    b.exit_namespace();
    b.sink("out", prev);
    (b.finish().expect("the pipeline is a valid graph"), src.0)
}

/// One shared, profiled pipeline (384 or 480 stages).
pub struct FleetApp {
    pub graph: Arc<Graph>,
    pub profile: Arc<GraphProfile>,
    pub build_s: f64,
    pub profile_s: f64,
}

pub fn fleet_app(variant: usize) -> FleetApp {
    let t = std::time::Instant::now();
    let (mut g, src) = pipeline_app(variant);
    let build_s = t.elapsed().as_secs_f64();
    let trace = SourceTrace {
        source: src,
        elements: (0..16)
            .map(|i| Value::VecI16(vec![i as i16; 128]))
            .collect(),
        rate_hz: 25.0,
    };
    let t = std::time::Instant::now();
    let prof = profile(&mut g, &[trace]).expect("the pipeline profiles cleanly");
    FleetApp {
        graph: Arc::new(g),
        profile: Arc::new(prof),
        build_s,
        profile_s: t.elapsed().as_secs_f64(),
    }
}

/// The request domain: 8 shapes × 4 leaf counts × 4 uplink budgets × 4
/// rates.
pub const FLEET_SHAPES: usize = 8;
pub const FLEET_COUNTS: [usize; 4] = [1, 2, 3, 4];
pub const FLEET_BUDGETS: [f64; 4] = [32_000.0, 64_000.0, 128_000.0, 256_000.0];
pub const FLEET_RATES: [f64; 4] = [0.05, 0.1, 0.2, 0.35];
const FLEET_BETAS: [f64; 2] = [1.0, 2.5];

/// One point of the request domain, before it is turned into a
/// [`FleetRequest`]. `beta` is the gateway (and relay) uplink weight:
/// one of two values on `fleet_hits`, unique per request on
/// `fleet_misses`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    pub shape: usize,
    pub count: usize,
    pub budget: f64,
    pub rate: f64,
    pub beta: f64,
}

impl RequestSpec {
    pub fn app(&self) -> usize {
        self.shape >> 2
    }

    pub fn deep(&self) -> bool {
        self.shape & 2 != 0
    }
}

/// `n` request specs drawn from the domain by `seed`. With
/// `distinct_beta` every request carries its own uplink weight (a value
/// no other request of the list has), so every request is its own shape.
pub fn request_specs(seed: u64, n: usize, distinct_beta: bool) -> Vec<RequestSpec> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let shape = rng.pick(FLEET_SHAPES);
            let beta = if distinct_beta {
                1.0 + (i as f64 + 1.0) / 4096.0
            } else {
                FLEET_BETAS[shape & 1]
            };
            RequestSpec {
                shape,
                count: FLEET_COUNTS[rng.pick(4)],
                budget: FLEET_BUDGETS[rng.pick(4)],
                rate: FLEET_RATES[rng.pick(4)],
                beta,
            }
        })
        .collect()
}

/// The fleet topology: server ← (relay ←) gateway ← motes. Interior
/// sites are unbudgeted so the merge may collapse the pipeline; the
/// per-request knobs are the leaf count and the gateway uplink's finite
/// byte budget, both reachable by a delta.
pub fn fleet_deployment(spec: &RequestSpec) -> Deployment {
    let phone = Platform::nokia_n80();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let mut parent = dep.root();
    if spec.deep() {
        parent = dep.attach(
            parent,
            Site::server("relay", &phone),
            LinkSpec {
                beta: spec.beta,
                net_budget: f64::INFINITY,
            },
        );
    }
    let gw = dep.attach(
        parent,
        Site::server("gw", &phone),
        LinkSpec {
            beta: spec.beta,
            net_budget: spec.budget,
        },
    );
    dep.attach(
        gw,
        Site::new("motes", &Platform::tmote_sky()).with_count(spec.count),
        LinkSpec {
            beta: 1.0,
            net_budget: f64::INFINITY,
        },
    );
    dep
}

/// Turn specs into requests over the two shared apps, under `cfg`.
pub fn fleet_requests(
    specs: &[RequestSpec],
    apps: &[FleetApp; 2],
    cfg: &DeploymentConfig,
) -> Vec<FleetRequest> {
    specs
        .iter()
        .enumerate()
        .map(|(id, spec)| {
            let app = &apps[spec.app()];
            FleetRequest {
                id: id as u64,
                graph: Arc::clone(&app.graph),
                profile: Arc::clone(&app.profile),
                deployment: fleet_deployment(spec),
                config: cfg.clone(),
                rate: spec.rate,
            }
        })
        .collect()
}

// ------------------------------------------------------------ simulator

/// Workload 6's instance: the starved forest of `tests/observability.rs`
/// (caps host only their sources, gw-a's backhaul is 100 B/s), run for
/// `duration_s` simulated seconds with channel seed `seed`.
pub struct SimFixture {
    pub graph: Graph,
    pub topo: TreeTopology,
    pub routes: Vec<LeafRoute>,
    pub cfg: SimulationConfig,
    pub build_s: f64,
    pub profile_s: f64,
}

pub fn starved_forest(seed: u64, duration_s: f64) -> SimFixture {
    let t = std::time::Instant::now();
    let mut app = build_eeg_app(EegParams {
        n_channels: 2,
        ..Default::default()
    });
    let build_s = t.elapsed().as_secs_f64();
    let traces = app.traces(8, 3..6, 5);
    let t = std::time::Instant::now();
    profile(&mut app.graph, &traces).expect("the EEG app profiles cleanly");
    let profile_s = t.elapsed().as_secs_f64();

    let mote = Platform::tmote_sky();
    let relay = Platform::iphone();
    let topo = TreeTopology {
        parent: vec![None, Some(0), Some(0), Some(1), Some(2)],
        platforms: vec![Platform::server(), relay.clone(), relay, mote.clone(), mote],
        counts: vec![1, 1, 1, 4, 4],
        uplink: vec![
            None,
            Some(ChannelParams::wifi(100.0)),
            Some(ChannelParams::wifi(400_000.0)),
            Some(ChannelParams::wifi(1_000_000.0)),
            Some(ChannelParams::wifi(1_000_000.0)),
        ],
    };
    let feeds: Vec<SourceFeed> = app
        .sources
        .iter()
        .zip(&traces)
        .map(|(&src, t)| SourceFeed {
            source: src,
            trace: t.elements.clone(),
            rate_hz: t.rate_hz,
        })
        .collect();
    let sources: HashSet<OperatorId> = app.sources.iter().copied().collect();
    let rest: HashSet<OperatorId> = app
        .graph
        .operator_ids()
        .filter(|id| !sources.contains(id))
        .collect();
    let routes = vec![
        LeafRoute {
            path: vec![3, 1, 0],
            site_ops: vec![sources.clone(), HashSet::new(), rest.clone()],
            feeds: feeds.clone(),
        },
        LeafRoute {
            path: vec![4, 2, 0],
            site_ops: vec![sources, HashSet::new(), rest],
            feeds,
        },
    ];
    let cfg = SimulationConfig {
        duration_s,
        rate_multiplier: 1.0,
        ..SimulationConfig::motes(1, seed)
    };
    SimFixture {
        graph: app.graph,
        topo,
        routes,
        cfg,
        build_s,
        profile_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone::core::shape_key;

    #[test]
    fn the_same_seed_gives_the_same_request_list() {
        for distinct in [false, true] {
            assert_eq!(
                request_specs(42, 500, distinct),
                request_specs(42, 500, distinct)
            );
        }
        assert_ne!(request_specs(42, 500, false), request_specs(43, 500, false));
    }

    #[test]
    fn any_seed_stays_inside_the_domain() {
        for seed in [0, 1, 7, u64::MAX, 0xdead_beef] {
            for spec in request_specs(seed, 2_000, false) {
                assert!(spec.shape < FLEET_SHAPES);
                assert!(FLEET_COUNTS.contains(&spec.count));
                assert!(FLEET_BUDGETS.contains(&spec.budget));
                assert!(FLEET_RATES.contains(&spec.rate));
                assert!(FLEET_BETAS.contains(&spec.beta));
            }
        }
    }

    #[test]
    fn a_long_list_visits_the_whole_domain() {
        let specs = request_specs(7, 10_000, false);
        let mut seen = std::collections::HashSet::new();
        for s in &specs {
            seen.insert((s.shape, s.count, s.budget.to_bits(), s.rate.to_bits()));
        }
        assert_eq!(seen.len(), FLEET_SHAPES * 4 * 4 * 4);
    }

    #[test]
    fn hits_have_eight_shape_keys_and_misses_one_per_request() {
        let apps = [fleet_app(0), fleet_app(1)];
        let cfg = DeploymentConfig::default();
        let keys = |distinct: bool, n: usize| {
            fleet_requests(&request_specs(7, n, distinct), &apps, &cfg)
                .iter()
                .map(|r| shape_key(&r.graph, &r.profile, &r.deployment, &r.config))
                .collect::<HashSet<_>>()
                .len()
        };
        assert_eq!(keys(false, 1_000), FLEET_SHAPES);
        assert_eq!(keys(true, 1_000), 1_000);
    }
}
