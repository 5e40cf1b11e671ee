//! Fleet-service determinism suite (PR 10 acceptance): a shuffled
//! 200-request batch answered through the sharded, shape-cached
//! [`FleetServer`] must be **bit-identical** — objectives, placements,
//! and predicted load vectors — to answering each request with a serial
//! one-shot [`partition_deployment`], at every worker count. Cache hits
//! must not leak state: a request served by a warm `PreparedDeployment`
//! that has already answered different counts, budgets, and rates has to
//! produce the same bits as a cold encode.
//!
//! Everything here is deterministic by construction (a fixed LCG drives
//! the shuffle and the parameter draws), so a failure is a real
//! state-leak bug, not flake.

use std::sync::Arc;

use wishbone::core::{
    partition_deployment, Deployment, DeploymentConfig, DeploymentPartition, LinkSpec,
    PartitionError, Site,
};
use wishbone::dataflow::{ExecCtx, FnWork, Graph, Value};
use wishbone::prelude::{
    profile, run_batch, FleetRequest, FleetServer, GraphBuilder, GraphProfile, Platform,
    SourceTrace,
};

/// Tiny deterministic PRNG — no vendored `rand` in tier-1 tests.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A small reducing pipeline; `variant` perturbs costs and decimation so
/// the two graphs encode differently (distinct shapes, not just distinct
/// pointers).
fn mk_app(variant: usize) -> (Graph, wishbone::dataflow::OperatorId) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for s in 0..2 + variant {
        let cost = (600 + 400 * variant as u64) * (s as u64 + 1);
        let keep = 2 + s;
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
    (b.finish().unwrap(), src.0)
}

fn profiled(variant: usize) -> (Arc<Graph>, Arc<GraphProfile>) {
    let (mut g, src) = mk_app(variant);
    let trace = SourceTrace {
        source: src,
        elements: (0..12).map(|i| Value::VecI16(vec![i as i16; 96])).collect(),
        rate_hz: 25.0,
    };
    let prof = profile(&mut g, &[trace]).expect("fixture graphs profile cleanly");
    (Arc::new(g), Arc::new(prof))
}

/// `deep == false`: root → gateway → motes (star). `deep == true`: an
/// extra relay tier between root and gateway. `beta` prices the
/// gateway-to-root uplink and is part of the shape; `count` and the
/// gateway CPU budget are the delta-reachable per-request knobs.
fn mk_dep(deep: bool, beta: f64, count: usize, gw_budget: f64) -> Deployment {
    let phone = Platform::nokia_n80();
    let mote = Platform::tmote_sky();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let mut parent = dep.root();
    if deep {
        parent = dep.attach(
            parent,
            Site::new("relay", &phone),
            LinkSpec {
                beta,
                net_budget: f64::INFINITY,
            },
        );
    }
    let gw = dep.attach(
        parent,
        Site::new("gw", &phone).with_cpu_budget(gw_budget),
        LinkSpec {
            beta,
            net_budget: 4000.0,
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

fn assert_partitions_bit_identical(
    ctx: &str,
    fleet: &Result<DeploymentPartition, PartitionError>,
    serial: &Result<DeploymentPartition, PartitionError>,
) {
    match (fleet, serial) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.objective.to_bits(),
                b.objective.to_bits(),
                "{ctx}: objective diverged ({} vs {})",
                a.objective,
                b.objective
            );
            assert_eq!(a.leaves.len(), b.leaves.len(), "{ctx}: leaf count");
            for (la, lb) in a.leaves.iter().zip(&b.leaves) {
                assert_eq!(la.site_ops, lb.site_ops, "{ctx}: placement diverged");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&la.predicted_cpu),
                    bits(&lb.predicted_cpu),
                    "{ctx}: predicted CPU diverged"
                );
                assert_eq!(
                    bits(&la.predicted_net),
                    bits(&lb.predicted_net),
                    "{ctx}: predicted net diverged"
                );
            }
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!(
            "{ctx}: feasibility diverged: fleet {:?} vs serial {:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

/// The PR-10 oracle anchor: shuffled batch through 1, 2, and 8 workers,
/// every response bit-identical to the serial one-shot answer.
#[test]
fn fleet_batch_matches_serial_one_shot() {
    // 8 distinct shapes: 2 graphs × 2 tree depths × 2 uplink betas. The
    // graph/profile Arcs are shared across every request of a shape —
    // exactly how a fleet client would hold them.
    let apps = [profiled(0), profiled(1)];
    let shapes: Vec<(usize, bool, f64)> = [0usize, 1]
        .iter()
        .flat_map(|&g| {
            [false, true]
                .iter()
                .flat_map(move |&deep| [1.0f64, 2.5].iter().map(move |&beta| (g, deep, beta)))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(shapes.len(), 8);

    // 200 requests, parameters drawn and then shuffled by a fixed LCG —
    // same-shape requests land adjacent and far apart, with different
    // counts, budgets, and rates in between, so cache hits are served
    // from instances mutated by unrelated requests.
    let mut rng = Lcg(0x5eed_1009);
    let mut params: Vec<(usize, usize, f64, f64)> = (0..200)
        .map(|_| {
            let shape = rng.pick(shapes.len());
            let count = 1 + rng.pick(4);
            let gw_budget = [0.05, 0.1, 0.2, 0.4][rng.pick(4)];
            let rate = [0.05, 0.1, 0.2, 0.35][rng.pick(4)];
            (shape, count, gw_budget, rate)
        })
        .collect();
    for i in (1..params.len()).rev() {
        params.swap(i, rng.pick(i + 1));
    }

    let cfg = DeploymentConfig::default();
    let mk_request = |id: u64, &(shape, count, gw_budget, rate): &(usize, usize, f64, f64)| {
        let (graph_idx, deep, beta) = shapes[shape];
        let (graph, prof) = &apps[graph_idx];
        FleetRequest {
            id,
            graph: Arc::clone(graph),
            profile: Arc::clone(prof),
            deployment: mk_dep(deep, beta, count, gw_budget),
            config: cfg.clone(),
            rate,
        }
    };

    // Serial oracle: a fresh encode per request, no shared state at all.
    let serial: Vec<Result<DeploymentPartition, PartitionError>> = params
        .iter()
        .map(|&(shape, count, gw_budget, rate)| {
            let (graph_idx, deep, beta) = shapes[shape];
            let (graph, prof) = &apps[graph_idx];
            partition_deployment(
                graph,
                prof,
                &mk_dep(deep, beta, count, gw_budget),
                &cfg.clone().at_rate(rate),
            )
        })
        .collect();

    for workers in [1usize, 2, 8] {
        let requests: Vec<FleetRequest> = params
            .iter()
            .enumerate()
            .map(|(i, p)| mk_request(i as u64, p))
            .collect();
        let (responses, stats) = run_batch(workers, requests);
        assert_eq!(responses.len(), params.len());
        assert_eq!(stats.requests, params.len() as u64);
        assert_eq!(stats.distinct_shapes, 8, "{workers} workers: shape census");
        // ≤ 8 shapes can need at most 8 encodes; everything else must
        // ride `apply_delta` on a cached instance.
        assert_eq!(
            stats.cache_misses, 8,
            "{workers} workers: every shape encodes exactly once"
        );
        assert_eq!(stats.cache_hits, params.len() as u64 - 8);
        assert_eq!(stats.encodes_avoided, params.len() as u64 - 8);
        for (resp, oracle) in responses.iter().zip(&serial) {
            assert_partitions_bit_identical(
                &format!("{workers} workers, request {}", resp.id),
                &resp.result,
                oracle,
            );
        }
    }
}

/// A request whose rate is not a finite positive number is answered
/// with a typed error; the worker that drew it lives on, serves the
/// shape's next request from the same cache entry bit-identically to a
/// serial solve, and the pool shuts down cleanly. (A panic in the worker
/// thread instead kills `recv` on its `expect` with one worker and blocks
/// it forever with several.)
#[test]
fn a_bad_rate_gets_a_typed_error_and_the_worker_lives_on() {
    let (graph, prof) = profiled(0);
    let cfg = DeploymentConfig::default();
    let rates = [0.1, f64::NAN, 0.2];
    let mut server = FleetServer::new(2);
    for (i, &rate) in rates.iter().enumerate() {
        server.submit(FleetRequest {
            id: i as u64,
            graph: Arc::clone(&graph),
            profile: Arc::clone(&prof),
            deployment: mk_dep(false, 1.0, 2, 0.2),
            config: cfg.clone(),
            rate,
        });
    }
    let mut responses = server.drain();
    responses.sort_by_key(|r| r.id);
    assert_eq!(responses.len(), 3);
    assert!(
        matches!(responses[1].result, Err(PartitionError::InvalidRate { rate }) if rate.is_nan()),
        "{:?}",
        responses[1].result
    );
    for i in [0, 2] {
        let dep = mk_dep(false, 1.0, 2, 0.2);
        let serial = partition_deployment(&graph, &prof, &dep, &cfg.clone().at_rate(rates[i]));
        assert!(serial.is_ok());
        assert_partitions_bit_identical(&format!("request {i}"), &responses[i].result, &serial);
    }
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.errors), (3, 1));

    // Zero, negative and infinite rates are refused the same way, one-shot
    // (`0 × ∞` would otherwise reach the simplex as NaN coefficients).
    for rate in [0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
        let dep = mk_dep(false, 1.0, 2, 0.2);
        let got = partition_deployment(&graph, &prof, &dep, &cfg.clone().at_rate(rate));
        assert_eq!(got.err(), Some(PartitionError::InvalidRate { rate }));
    }
}
