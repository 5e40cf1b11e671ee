//! Fleet-service scaling bench (PR 10): batches of partitioning
//! requests over a small set of distinct *shapes* pushed through
//! [`wishbone_fleet::run_batch`], measuring
//!
//! * **cache leverage** — the same batch through the fleet's per-worker
//!   [`ShapeCache`](wishbone_fleet::ShapeCache) vs a plain loop of
//!   one-shot [`partition_deployment`] calls. With ≤ 8 shapes behind
//!   1 000 requests, the cached arm encodes 8 times and rides
//!   `apply_delta` rescales for the other 992; the cold arm re-encodes
//!   every request.
//! * **worker scaling** — the cached batch at 1/2/4/8 workers.
//!   Workers share nothing (sharded queues, per-worker caches and
//!   arenas), so the ceiling is `min(workers, shapes-per-shard ×
//!   shards, cores)`; on a single-core host the numbers are recorded
//!   but a speedup assertion would only measure the scheduler.
//!
//! Modes (custom harness, flags pass straight through):
//!
//! * `cargo bench --bench fleet_scaling` — the `fleet_scaling` criterion
//!   group: the batch wall clock of every arm (1k and 10k requests, every
//!   worker count, cold vs cached), repeated and printed as
//!   `median [q1 q3]` by the same stand-in that times `solver_criterion`;
//! * `... -- --json` — the same run, after which those records are merged
//!   into the repo-root `BENCH_solver.json` under a `fleet_scaling`
//!   header (`solver_criterion`'s lines there are kept). Per-request
//!   latency is the benchmark of record's `fleet_hits` / `fleet_misses`;
//! * `... -- --smoke` — a seconds-scale CI run asserting the cache
//!   contract: encodes == shapes ≪ requests, cached throughput ≥ 1.6×
//!   cold, ≤ 8 simplex iterations per cached request with a nonzero
//!   factorization count (the sparse backend's signature), ≤ 1.84
//!   branch-and-bound nodes per cached request, and (only when the host
//!   actually has ≥ 8 cores) 8-worker throughput ≥ 3× 1-worker.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{BenchmarkId, Criterion};
use wishbone_bench::merge_bench_json;
use wishbone_core::{partition_deployment, Deployment, DeploymentConfig, LinkSpec, Site};
use wishbone_dataflow::{ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value};
use wishbone_fleet::{run_batch, FleetRequest, FleetStats};
use wishbone_profile::{profile, GraphProfile, Platform, SourceTrace};

/// Tiny deterministic PRNG (no vendored `rand` in the hot loop).
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

/// A long pipeline of mostly data-neutral stages with a reducing stage
/// every 128th operator: the §4.1 merge collapses each neutral run onto
/// its downstream cut candidate, so the ILP stays a handful of
/// vertices while the per-request *encode* (profile lookups, per-leaf
/// tiered build, merge, problem assembly) walks the whole graph — the
/// work the shape cache exists to avoid, and the workload the paper's
/// merge is built for.
fn mk_app(variant: usize) -> (Graph, OperatorId) {
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
        elements: (0..16)
            .map(|i| Value::VecI16(vec![i as i16; 128]))
            .collect(),
        rate_hz: 25.0,
    };
    let prof = profile(&mut g, &[trace]).expect("fixture graphs profile cleanly");
    (Arc::new(g), Arc::new(prof))
}

/// Interior sites are deliberately *unbudgeted* (`α = 0`, infinite CPU):
/// that keeps every interior tier uncharged, so the §4.1 merge may
/// collapse the neutral runs of [`mk_app`] and the ILP stays small while
/// the encode stays proportional to the full graph. The per-request
/// knobs are the leaf count and the gateway uplink's *finite* byte
/// budget — both delta-reachable (`SetLeafCount` / `SetNetBudget`).
fn mk_dep(deep: bool, beta: f64, count: usize, uplink_budget: f64) -> Deployment {
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

/// `n` requests over 8 distinct shapes (2 graphs × 2 depths × 2 betas),
/// with per-request counts, budgets, and rates riding the delta path.
fn mk_requests(n: usize, apps: &[(Arc<Graph>, Arc<GraphProfile>)]) -> Vec<FleetRequest> {
    let shapes: Vec<(usize, bool, f64)> = [0usize, 1]
        .iter()
        .flat_map(|&g| {
            [false, true]
                .iter()
                .flat_map(move |&deep| [1.0f64, 2.5].iter().map(move |&beta| (g, deep, beta)))
                .collect::<Vec<_>>()
        })
        .collect();
    // A fleet operator's config: a 1% optimality gap — the
    // gap prunes the optimality-proof tail of warm re-solves without
    // touching the cache mechanics under test.
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.rel_gap = 0.01;
    let mut rng = Lcg(0xf1ee_7000 + n as u64);
    (0..n)
        .map(|id| {
            let (graph_idx, deep, beta) = shapes[rng.pick(shapes.len())];
            let (graph, prof) = &apps[graph_idx];
            let count = 1 + rng.pick(4);
            let uplink_budget = [32_000.0, 64_000.0, 128_000.0, 256_000.0][rng.pick(4)];
            let rate = [0.05, 0.1, 0.2, 0.35][rng.pick(4)];
            FleetRequest {
                id: id as u64,
                graph: Arc::clone(graph),
                profile: Arc::clone(prof),
                deployment: mk_dep(deep, beta, count, uplink_budget),
                config: cfg.clone(),
                rate,
            }
        })
        .collect()
}

/// The batch runner: one batch through a fleet of `workers`, its wall
/// clock (requests are built by the caller, outside it), the fleet's
/// stats and the branch-and-bound nodes its responses report.
fn run_arm(workers: usize, requests: Vec<FleetRequest>) -> (Duration, FleetStats, u64) {
    let start = Instant::now();
    let (responses, stats) = run_batch(workers, requests);
    let wall = start.elapsed();
    assert_eq!(stats.errors, 0, "fixture requests all solve");
    assert_eq!(responses.len() as u64, stats.requests);
    let nodes = responses
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|p| p.ilp_stats.nodes)
        .sum();
    (wall, stats, nodes)
}

/// The cold baseline: every request prepared from scratch and solved
/// one-shot on this thread — what a service with no shape cache pays.
fn run_cold(requests: &[FleetRequest]) -> Duration {
    let start = Instant::now();
    for req in requests {
        let cfg = req.config.clone().at_rate(req.rate);
        partition_deployment(&req.graph, &req.profile, &req.deployment, &cfg)
            .expect("fixture requests all solve");
    }
    start.elapsed()
}

struct Arm {
    name: String,
    total_s: f64,
    stats: FleetStats,
    nodes: u64,
}

fn arm(name: &str, workers: usize, n: usize, apps: &[(Arc<Graph>, Arc<GraphProfile>)]) -> Arm {
    let (wall, stats, nodes) = run_arm(workers, mk_requests(n, apps));
    let a = Arm {
        name: name.to_string(),
        total_s: wall.as_secs_f64(),
        stats,
        nodes,
    };
    println!(
        "{:28} {:7.0} req/s  p50 {:8.3}ms  p99 {:8.3}ms  encodes {:4}  hits {:5}",
        a.name,
        n as f64 / a.total_s,
        a.stats.p50_s() * 1e3,
        a.stats.p99_s() * 1e3,
        a.stats.cache_misses,
        a.stats.cache_hits,
    );
    a
}

/// The smoke's floor on cached over cold throughput (see `smoke`).
const LEVERAGE_FLOOR: f64 = 1.6;

/// CI smoke: seconds-scale, asserts the cache contract and — only where
/// the host can express it — worker scaling.
fn smoke() {
    let apps = [profiled(0), profiled(1)];
    let n = 300;

    // Best-of-two per arm: single-core CI hosts jitter by tens of
    // percent, and the leverage floor below is an acceptance threshold,
    // not a statistics exercise (1.96x – 2.88x over 33 runs on a
    // 2-vCPU shared host; the floor is the lowest of them less a sixth,
    // rounded down). It fell from 3x when a miss stopped building the
    // unmerged graph: the cold arm is a loop of misses, and it got
    // faster (3,300 – 4,100 → 9,700 – 12,600 req/s), not the cache slower.
    let cold = || {
        let wall = run_cold(&mk_requests(n, &apps)).as_secs_f64();
        println!("{:28} {:7.0} req/s", "smoke_cold", n as f64 / wall);
        wall
    };
    let cold_s = cold().min(cold());
    let cached = arm("smoke_cached_w1", 1, n, &apps);
    let w1 = arm("smoke_cached_w1_rerun", 1, n, &apps);

    // Cache contract: every shape encodes exactly once, everything else
    // is an in-place rescale.
    assert_eq!(cached.stats.distinct_shapes, 8);
    assert_eq!(
        cached.stats.cache_misses, 8,
        "8 shapes must cost exactly 8 encodes"
    );
    assert_eq!(cached.stats.cache_hits, n as u64 - 8);
    assert_eq!(cached.stats.encodes_avoided, n as u64 - 8);

    let leverage = cold_s / cached.total_s.min(w1.total_s);
    println!("cache leverage: {leverage:.2}x (acceptance floor {LEVERAGE_FLOOR}x)");
    assert!(
        leverage >= LEVERAGE_FLOOR,
        "shape cache must beat per-request encodes by >= {LEVERAGE_FLOOR}x, got {leverage:.2}x"
    );

    // Count guard (counts repeat exactly on any host): the fleet runs
    // the sparse backend, dual-first — a handful of pivots per request
    // on these few-dozen-row encodings, where the reference tableau's
    // two-phase primal needs tens and factorizes nothing. A request
    // factorizes once, at its cold root: its branch-and-bound children
    // re-enter warm on the LU they find.
    let s = &cached.stats;
    let iters_per_req = (s.dual_iterations + s.primal_iterations) as f64 / s.requests as f64;
    println!(
        "simplex work: {iters_per_req:.1} iterations / request (ceiling 8), {} factorizations \
         (ceiling {})",
        s.refactorizations, s.requests
    );
    assert!(
        iters_per_req <= 8.0 && s.refactorizations > 0,
        "the fleet must solve on the sparse backend: {iters_per_req:.1} iterations / request, \
         {} factorizations",
        s.refactorizations
    );
    assert!(
        s.refactorizations <= s.requests,
        "the fleet factorized {} times for {} requests: a warm re-entry refactorized",
        s.refactorizations,
        s.requests
    );
    // A node costs its LP and nothing else (no per-node heuristic), so
    // nodes × iterations is the whole search: 1.47 nodes per request
    // measured, ceiling that + 25 %.
    let nodes_per_req = cached.nodes as f64 / s.requests as f64;
    println!("search work: {nodes_per_req:.2} B&B nodes / request (ceiling 1.84)");
    assert!(
        nodes_per_req <= 1.84,
        "the fleet's search trees grew: {nodes_per_req:.2} B&B nodes / request"
    );

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let w8 = arm("smoke_cached_w8", 8, n, &apps);
    let speedup = w1.total_s / w8.total_s;
    println!("8-worker speedup: {speedup:.2}x on {cores} cores");
    if cores >= 8 {
        assert!(
            speedup >= 3.0,
            "8 workers on {cores} cores must be >= 3x one worker, got {speedup:.2}x"
        );
    } else {
        // Sharded workers cannot beat the core count; on a small host
        // this arm only checks that oversubscription is not pathological.
        println!("(host has {cores} cores: recording, not asserting, the scaling floor)");
    }
}

/// The full table: 1k and 10k requests, cold baseline, cached at every
/// worker count — each arm's batch wall clock, five samples.
fn fleet_scaling(c: &mut Criterion) {
    let apps = [profiled(0), profiled(1)];
    let mut group = c.benchmark_group("fleet_scaling");
    group.sample_size(5);
    for (tag, n) in [("1k", 1_000usize), ("10k", 10_000)] {
        // Cold baseline at 1k only: 10k fresh encodes measure nothing new.
        if n == 1_000 {
            group.bench_function(BenchmarkId::new(tag, "cold_w1"), |b| {
                b.iter_custom(|iters| (0..iters).map(|_| run_cold(&mk_requests(n, &apps))).sum())
            });
        }
        for workers in [1usize, 2, 4, 8] {
            group.bench_function(BenchmarkId::new(tag, format!("cached_w{workers}")), |b| {
                b.iter_custom(|iters| {
                    (0..iters)
                        .map(|_| {
                            let (wall, stats, _) = run_arm(workers, mk_requests(n, &apps));
                            // Shapes shard deterministically, so each encodes
                            // exactly once fleet-wide at every worker count.
                            assert_eq!(stats.cache_misses, stats.distinct_shapes);
                            wall
                        })
                        .sum()
                })
            });
        }
    }
    group.finish();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let mut timed = Criterion::default();
    fleet_scaling(&mut timed);
    if args.iter().any(|a| a == "--json") {
        merge_bench_json("fleet_scaling", &timed);
    }
}
