//! The wall-clock guards: four ratios of two timings taken on the same
//! host in the same run, so the host's speed cancels. One `#[test]`, so
//! no other test in this binary shares the CPU with the timed arms.
//!
//! The bounds were calibrated on optimized builds; an unoptimized build
//! times its debug assertions instead, so the test runs only in release
//! (`cargo test --release --test perf_ratios`).

use std::time::Instant;

use wishbone::dataflow::{ExecCtx, FnWork, GraphBuilder, Value};
use wishbone::prelude::*;

#[path = "common/fleet.rs"]
mod fleet;
#[path = "common/forest.rs"]
mod forest;

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// A `stages`-long pipeline between a mote source and a server sink:
/// data-neutral stages with a 3× reducer every 128th. The §4.1 merge
/// collapses every neutral run, so the merged ILP grows with the
/// reducers alone while the build and the merge see every stage.
fn pipeline_app(stages: usize) -> (wishbone::dataflow::Graph, GraphProfile) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for s in 0..stages {
        let keep = if s % 128 == 127 { 3 } else { 1 };
        let cost = 100 + 20 * (s as u64 % 7);
        prev = b.transform(
            format!("stage{s}"),
            Box::new(FnWork(move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().expect("the pipeline carries i16 windows");
                cx.meter().loop_scope(cost, |m| m.int(cost));
                cx.emit(Value::VecI16(w.iter().step_by(keep).copied().collect()));
            })),
            prev,
        );
    }
    b.exit_namespace();
    b.sink("out", prev);
    let mut graph = b.finish().expect("a pipeline is a DAG");
    let trace = SourceTrace {
        source: src.0,
        elements: (0..4).map(|i| Value::VecI16(vec![i as i16; 64])).collect(),
        rate_hz: 10.0,
    };
    // The profiler delivers each emission depth first, a stack frame per
    // stage: give a 16k-stage cascade the room.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            let prof = profile(&mut graph, &[trace]).expect("profiling succeeds");
            (graph, prof)
        })
        .expect("spawn the profiling thread")
        .join()
        .expect("profiling succeeds")
}

/// Ceiling on prepare time at 16k stages over 1k: measured 9.9×–23.5×
/// over six runs of the linear merge, 178× under the quadratic out-edge
/// scan it replaced, both on a 2-vCPU Xeon; twice the highest linear
/// reading.
const PREPARE_RATIO_CEILING: f64 = 48.0;

/// Floor on shape-cached over cold fleet throughput: 1.96× – 2.88× over
/// 33 runs on a 2-vCPU shared host; the lowest less a sixth, rounded down.
const LEVERAGE_FLOOR: f64 = 1.6;

#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratios are calibrated on optimized builds"
)]
#[test]
fn wall_clock_ratios_hold() {
    // Prepare is linear in the pipeline's length: `PreparedDeployment::new`
    // (build, §4.1 merge, encode, coarsening) at 16× the stages costs
    // ≈ 16× the time, best of five per side.
    let mote = Platform::tmote_sky();
    let dep = Deployment::star([(Site::new("mote", &mote), LinkSpec::for_platform(&mote))]);
    let cfg = DeploymentConfig::default();
    let prepare = |stages: usize| {
        let (graph, prof) = pipeline_app(stages);
        let once = || {
            PreparedDeployment::new(&graph, &prof, &dep, &cfg).expect("pins ok");
        };
        (0..5).map(|_| secs(once)).fold(f64::INFINITY, f64::min)
    };
    let ratio = prepare(16_000) / prepare(1_000);
    println!("prepare 16k : 1k stages = {ratio:.1}x (ceiling {PREPARE_RATIO_CEILING}x)");
    assert!(
        ratio <= PREPARE_RATIO_CEILING,
        "prepare grew superlinearly: {ratio:.1}x for 16x the stages"
    );

    // The shape cache: 300 requests over 8 shapes through one cached
    // worker against a plain loop of one-shot `partition_deployment`
    // calls, best of two per arm (a shared host jitters by tens of
    // percent).
    let apps = fleet::load_apps();
    let n = 300;
    let cold = || {
        let requests = fleet::load(n, &apps);
        secs(|| {
            for req in &requests {
                let cfg = req.config.clone().at_rate(req.rate);
                partition_deployment(&req.graph, &req.profile, &req.deployment, &cfg)
                    .expect("the load all solves");
            }
        })
    };
    let batch = |workers: usize| {
        let requests = fleet::load(n, &apps);
        secs(|| assert_eq!(run_batch(workers, requests).1.errors, 0))
    };
    let cold = cold().min(cold());
    let (w1, w1_rerun) = (batch(1), batch(1));
    let leverage = cold / w1.min(w1_rerun);
    println!("cache leverage {leverage:.2}x (floor {LEVERAGE_FLOOR}x)");
    assert!(
        leverage >= LEVERAGE_FLOOR,
        "the shape cache must beat per-request encodes by >= {LEVERAGE_FLOOR}x, got \
         {leverage:.2}x"
    );

    // Workers share nothing, so 8 of them reach 3× one where there are 8
    // cores to run on; a smaller host cannot express the floor.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let speedup = w1_rerun / batch(8);
    println!("8-worker speedup {speedup:.2}x on {cores} cores");
    if cores >= 8 {
        assert!(
            speedup >= 3.0,
            "8 workers on {cores} cores must be >= 3x one worker, got {speedup:.2}x"
        );
    }

    // Tracing off is free: the traced entry point with a `NullSink` costs
    // what the untraced one does, min of seven each, within 5 % plus 2 ms
    // of scheduling slack.
    let (graph, topo, routes, cfg) = forest::starved_forest();
    let (mut untraced, mut null) = (f64::INFINITY, f64::INFINITY);
    let plan = FailurePlan::default();
    for _ in 0..7 {
        untraced = untraced.min(secs(|| {
            simulate_deployment_tree(&graph, &topo, &routes, &cfg);
        }));
        null = null.min(secs(|| {
            simulate_deployment_tree_traced(&graph, &topo, &routes, &cfg, &plan, &mut NullSink);
        }));
    }
    println!(
        "null-sink overhead {:+.1}% ({:.3} ms untraced, so the 2 ms slack is {:.1}x it)",
        (null / untraced - 1.0) * 100.0,
        untraced * 1e3,
        2e-3 / untraced
    );
    assert!(
        null <= untraced * 1.05 + 2e-3,
        "NullSink tracing is not free: {null}s vs {untraced}s untraced"
    );
}
