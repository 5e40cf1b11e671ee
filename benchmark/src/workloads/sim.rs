//! Workload 6: the tree simulator, no solver anywhere.

use std::time::Instant;

use wishbone::runtime::{
    simulate_deployment_tree, simulate_deployment_tree_traced, FailurePlan, TreeDeploymentReport,
};
use wishbone::trace::{MemorySink, NullSink};

use super::{Expected, Metrics, OpLog, SetupLayers, Workload, DEFAULT_SEED, REL_TOL};
use crate::fixtures::{self, SimFixture};
use crate::span::{Tracer, OP};
use crate::stats::median;

/// Simulated seconds per op.
const SIM_SECONDS: f64 = 600.0;
/// Ops per timed chunk (one op is ~40 ms).
const CHUNK: usize = 2;

/// The part of a report the check compares: delivered share and the
/// event/element tallies.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    goodput_ratio: f64,
    events_offered: u64,
    events_processed: u64,
    sink_arrivals: u64,
}

impl Outcome {
    fn of(report: &TreeDeploymentReport) -> Self {
        let stats = report.stats();
        Outcome {
            goodput_ratio: report.goodput_ratio(),
            events_offered: stats.events_offered,
            events_processed: stats.events_processed,
            sink_arrivals: stats.sink_arrivals,
        }
    }
}

pub struct Sim {
    fx: SimFixture,
    /// `expected.json`'s answer at the default seed; at any other seed
    /// the check degrades to "every op equals the first".
    reference: Option<(f64, u64)>,
    first: Option<Outcome>,
    memory_sink_events: usize,
}

impl Sim {
    pub fn new(seed: u64) -> Self {
        let expected = Expected::load();
        Sim {
            fx: fixtures::starved_forest(seed, SIM_SECONDS),
            reference: (seed == DEFAULT_SEED)
                .then_some((expected.sim_goodput_ratio, expected.sim_events_offered)),
            first: None,
            memory_sink_events: 0,
        }
    }
}

/// Compare one op's report against the reference (when the seed has one)
/// and against the first op's.
fn check(
    report: &TreeDeploymentReport,
    reference: Option<(f64, u64)>,
    first: &mut Option<Outcome>,
    log: &mut OpLog,
) {
    let outcome = Outcome::of(report);
    log.ratio_max = log.ratio_max.max(1.0);
    if let Some((goodput, offered)) = reference {
        log.fail_unless((outcome.goodput_ratio / goodput - 1.0).abs() <= REL_TOL);
        log.fail_unless(outcome.events_offered == offered);
    }
    let first = first.get_or_insert_with(|| outcome.clone());
    log.fail_unless(*first == outcome);
}

impl Workload for Sim {
    fn setup_layers(&self) -> SetupLayers {
        SetupLayers {
            build_s: self.fx.build_s,
            profile_s: self.fx.profile_s,
            ops_profiled: self.fx.graph.operator_count(),
        }
    }

    fn run_chunk(&mut self, log: &mut OpLog) {
        for _ in 0..CHUNK {
            let t = Instant::now();
            let report = simulate_deployment_tree(
                &self.fx.graph,
                &self.fx.topo,
                &self.fx.routes,
                &self.fx.cfg,
            );
            log.raw_ns.push(t.elapsed().as_nanos() as f64);
            check(&report, self.reference, &mut self.first, log);
        }
    }

    fn verify(&mut self, _log: &mut OpLog) -> String {
        match self.reference {
            Some(_) => "every op's goodput_ratio and events_offered against expected.json, and \
                        every op identical to the first"
                .into(),
            None => "non-default seed: expected.json does not apply, so only that every op is \
                     identical to the first"
                .into(),
        }
    }

    fn traced_chunk(&mut self, tr: &mut Tracer, log: &mut OpLog) {
        let fx = &self.fx;
        for _ in 0..CHUNK {
            let op = tr.enter(OP);
            let s = tr.enter("runtime.simulate");
            let report = simulate_deployment_tree(&fx.graph, &fx.topo, &fx.routes, &fx.cfg);
            tr.exit(s);
            let stats = report.stats();
            tr.count(s, "events_offered", stats.events_offered as f64);

            // What turning telemetry on costs: the traced entry point
            // with the null sink (must be free) and with a buffering one.
            let plan = FailurePlan::default();
            let s = tr.enter_probe("trace.null_sink");
            let off = simulate_deployment_tree_traced(
                &fx.graph,
                &fx.topo,
                &fx.routes,
                &fx.cfg,
                &plan,
                &mut NullSink,
            );
            tr.exit(s);
            let mut sink = MemorySink::new();
            let s = tr.enter_probe("trace.memory_sink");
            let on = simulate_deployment_tree_traced(
                &fx.graph, &fx.topo, &fx.routes, &fx.cfg, &plan, &mut sink,
            );
            tr.exit(s);
            tr.exit(op);

            self.memory_sink_events = sink.len();
            log.fail_unless(Outcome::of(&off) == Outcome::of(&report));
            log.fail_unless(Outcome::of(&on) == Outcome::of(&report));
            check(&report, self.reference, &mut self.first, log);
        }
    }

    fn layer_metrics(&mut self, tr: &Tracer, m: &mut Metrics) {
        let Some(first) = &self.first else {
            return;
        };
        let sim_ms = median(&tr.per_op_ms("runtime.simulate"));
        m.insert("runtime.sim_s_per_wall_s", SIM_SECONDS / (sim_ms / 1e3));
        m.insert(
            "runtime.events_per_s",
            first.events_offered as f64 / (sim_ms / 1e3),
        );
        m.insert("runtime.events_offered", first.events_offered as f64);
        m.insert("runtime.goodput_ratio", first.goodput_ratio);
        m.insert(
            "trace.null_sink_ratio",
            median(&tr.per_op_ms("trace.null_sink")) / sim_ms,
        );
        m.insert(
            "trace.memory_sink_ratio",
            median(&tr.per_op_ms("trace.memory_sink")) / sim_ms,
        );
        m.insert(
            "trace.events_per_sim_s",
            self.memory_sink_events as f64 / SIM_SECONDS,
        );
    }
}

/// Workload 6's reference answer at the default seed.
pub fn write_expected(out: &mut String) {
    let fx = fixtures::starved_forest(DEFAULT_SEED, SIM_SECONDS);
    let report = simulate_deployment_tree(&fx.graph, &fx.topo, &fx.routes, &fx.cfg);
    out.push_str(&format!(
        "  \"sim.goodput_ratio\": {},\n  \"sim.events_offered\": {}\n",
        report.goodput_ratio(),
        report.stats().events_offered
    ));
}
