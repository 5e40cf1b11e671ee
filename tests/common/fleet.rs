//! Fleet fixtures shared by `fleet_parity.rs` (bit-identity and the
//! fleet's count guards) and `perf_ratios.rs` (cache leverage and worker
//! scaling): a deterministic PRNG, a reducing pipeline app, and the
//! 300-request load whose counts the guards pin.

use std::sync::Arc;

use wishbone::core::{Deployment, DeploymentConfig, LinkSpec, Site};
use wishbone::dataflow::{ExecCtx, FnWork, Graph, Value};
use wishbone::prelude::{profile, FleetRequest, GraphBuilder, GraphProfile, Platform, SourceTrace};

/// Tiny deterministic PRNG — no vendored `rand` in tier-1 tests.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    pub fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A profiled `stages`-long mote pipeline: stage `s` costs and keeps
/// every `keep`-th sample as `stage(s) = (cost, keep)` says, and the
/// source trace is `elements` windows of `len` samples at 25 Hz.
pub fn pipeline(
    stages: usize,
    stage: impl Fn(usize) -> (u64, usize),
    elements: usize,
    len: usize,
) -> (Arc<Graph>, Arc<GraphProfile>) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for s in 0..stages {
        let (cost, keep) = stage(s);
        prev = b.transform(
            format!("stage{s}"),
            Box::new(FnWork(move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
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
    let g = b.finish().unwrap();
    let trace = SourceTrace {
        source: src.0,
        elements: (0..elements)
            .map(|i| Value::VecI16(vec![i as i16; len]))
            .collect(),
        rate_hz: 25.0,
    };
    let prof = profile(&g, &[trace]).expect("fixture graphs profile cleanly");
    (Arc::new(g), Arc::new(prof))
}

/// The two apps of [`load`]: long pipelines of mostly data-neutral
/// stages with a 3× reducer every 128th. The §4.1 merge collapses each
/// neutral run, so the ILP stays a handful of vertices while a miss's
/// encode walks the whole graph — the work the shape cache avoids.
pub fn load_apps() -> [(Arc<Graph>, Arc<GraphProfile>); 2] {
    [0u64, 1].map(|variant| {
        let stage = |s: usize| {
            let cost = 200 + 100 * variant + 40 * (s as u64 % 9);
            (cost, if s % 128 == 127 { 3 } else { 1 })
        };
        pipeline(384 + 96 * variant as usize, stage, 16, 128)
    })
}

/// Interior sites are unbudgeted (`Site::server`: no CPU charge), so
/// the merge may collapse the neutral runs; the per-request knobs are
/// the leaf count and the gateway uplink's finite byte budget, both
/// delta-reachable (`SetLeafCount` / `SetNetBudget`).
fn load_dep(deep: bool, beta: f64, count: usize, uplink_budget: f64) -> Deployment {
    let phone = Platform::nokia_n80();
    let mote = Platform::tmote_sky();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let mut parent = dep.root();
    if deep {
        parent = dep.attach(
            parent,
            Site::server("relay", &phone),
            LinkSpec {
                beta,
                net_budget: f64::INFINITY,
            },
        );
    }
    let gw = dep.attach(
        parent,
        Site::server("gw", &phone),
        LinkSpec {
            beta,
            net_budget: uplink_budget,
        },
    );
    dep.attach(
        gw,
        Site::new("motes", &mote).with_count(count),
        LinkSpec {
            beta: 1.0,
            net_budget: f64::INFINITY,
        },
    );
    dep
}

/// `n` requests over 8 shapes (2 apps × 2 depths × 2 uplink betas), with
/// per-request counts, uplink budgets (32k–256k B/s) and rates riding the
/// delta path, at a fleet operator's 1 % optimality gap. Deterministic
/// in `n`.
pub fn load(n: usize, apps: &[(Arc<Graph>, Arc<GraphProfile>)]) -> Vec<FleetRequest> {
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.rel_gap = 0.01;
    let mut rng = Lcg(0xf1ee_7000 + n as u64);
    (0..n)
        .map(|id| {
            let shape = rng.pick(8);
            let (graph, prof) = &apps[shape / 4];
            let (deep, beta) = (shape % 4 >= 2, [1.0, 2.5][shape % 2]);
            let count = 1 + rng.pick(4);
            let uplink_budget = [32_000.0, 64_000.0, 128_000.0, 256_000.0][rng.pick(4)];
            let rate = [0.05, 0.1, 0.2, 0.35][rng.pick(4)];
            FleetRequest {
                id: id as u64,
                graph: Arc::clone(graph),
                profile: Arc::clone(prof),
                deployment: load_dep(deep, beta, count, uplink_budget),
                config: cfg.clone(),
                rate,
            }
        })
        .collect()
}
