//! The six workloads. Each one knows how to set itself up from a seed,
//! run a chunk of timed ops (checking every answer after the clock has
//! stopped), verify what needs work outside the timed window, and replay
//! a chunk as spans around the layers' public functions.

mod fleet;
mod sim;
mod solver;

use std::collections::BTreeMap;

use crate::json;
use crate::span::Tracer;

/// Seed used when `--seed` is not given. Workload 6's reference answers
/// in `expected.json` were generated at this seed.
pub const DEFAULT_SEED: u64 = 7;

/// Relative tolerance of every objective comparison.
pub const REL_TOL: f64 = 1e-6;

/// A workload's identity: its name (as in `BENCHMARK.json`), what one op
/// is, and the percentile its latency tail is fixed at.
pub struct Spec {
    pub name: &'static str,
    pub op: &'static str,
    pub tail_percentile: f64,
    /// Ops a measured window holds at most — several times what
    /// `run_seconds` yields on the defining host.
    pub max_samples: usize,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "chain_eeg22_cold",
        op: "one cold partition_deployment of the 22-channel EEG app on a mote-phone-server chain",
        tail_percentile: 75.0,
        max_samples: 1024,
    },
    Spec {
        name: "forest_eeg4_rate_search",
        op: "one max_sustainable_rate_deployment on the two-ward 4-channel EEG forest",
        tail_percentile: 75.0,
        max_samples: 1024,
    },
    Spec {
        name: "forest_eeg4_approx_sweep",
        op: "prepare the forest with the approximate engine and solve_at eight rates",
        tail_percentile: 75.0,
        max_samples: 1024,
    },
    Spec {
        name: "fleet_hits",
        op: "one request served by shape_key + ShapeCache::serve from a warm cache",
        tail_percentile: 99.0,
        max_samples: 1_000_000,
    },
    Spec {
        name: "fleet_misses",
        op: "one request served by shape_key + ShapeCache::serve, every request a new shape",
        tail_percentile: 99.0,
        max_samples: 200_000,
    },
    Spec {
        name: "sim_forest_600s",
        op: "one simulate_deployment_tree of 600 simulated seconds of the starved EEG forest",
        tail_percentile: 90.0,
        max_samples: 4096,
    },
];

/// What one chunk of ops produced.
#[derive(Default)]
pub struct OpLog {
    /// Raw wall-clock latency of every op of the chunk, nanoseconds.
    pub raw_ns: Vec<f64>,
    /// Ops that errored, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Highest `objective / reference optimum` seen (1 for an exact
    /// answer).
    pub ratio_max: f64,
}

impl OpLog {
    /// Record one op's objective against its reference; an objective
    /// *below* a proven optimum, or beyond `slack` above it, is a wrong
    /// answer.
    pub fn check_objective(&mut self, objective: f64, reference: f64, slack: f64) {
        let ratio = objective / reference;
        self.ratio_max = self.ratio_max.max(ratio);
        if !(ratio >= 1.0 - REL_TOL && ratio <= 1.0 + slack) {
            self.failed += 1;
        }
    }

    pub fn fail_unless(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }
}

/// Layer metrics by name; what a workload does not produce reads 0.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What the set-up layers cost (`apps.*`, `profile.*`).
pub struct SetupLayers {
    pub build_s: f64,
    pub profile_s: f64,
    pub ops_profiled: usize,
}

pub trait Workload {
    fn setup_layers(&self) -> SetupLayers;

    /// Run one chunk of ops — at least tens of milliseconds of work, so
    /// the calibration that brackets it stays a small share — timing each
    /// op alone and checking its answer after its clock has stopped.
    fn run_chunk(&mut self, log: &mut OpLog);

    /// Checks that need work outside the timed window (dense re-solves).
    /// Returns a line saying what was checked.
    fn verify(&mut self, log: &mut OpLog) -> String;

    /// Replay one chunk as spans around the layers' public functions,
    /// checking answers as [`run_chunk`](Self::run_chunk) does.
    fn traced_chunk(&mut self, tr: &mut Tracer, log: &mut OpLog);

    /// Layer metrics beyond what the span ledger gives (counts read off
    /// the program's public statistics, the threaded server burst, …).
    /// Runs after the traced window; may do untimed work of its own.
    fn layer_metrics(&mut self, tr: &Tracer, m: &mut Metrics);
}

/// Set a workload up from a seed: everything before the first timed op,
/// one warm-up chunk included. `None` for an unknown name.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let mut w: Box<dyn Workload> = match name {
        "chain_eeg22_cold" => Box::new(solver::ChainCold::new()),
        "forest_eeg4_rate_search" => Box::new(solver::RateSearch::new()),
        "forest_eeg4_approx_sweep" => Box::new(solver::ApproxSweep::new()),
        "fleet_hits" => Box::new(fleet::Fleet::new(seed, fleet::Mode::Hits)),
        "fleet_misses" => Box::new(fleet::Fleet::new(seed, fleet::Mode::Misses)),
        "sim_forest_600s" => Box::new(sim::Sim::new(seed)),
        _ => return None,
    };
    w.run_chunk(&mut OpLog::default());
    Some(w)
}

/// The independent reference answers of `expected.json`, generated once
/// with `SolverBackend::Dense` forced (`--write-expected`).
pub struct Expected {
    pub chain_objective: f64,
    pub rate: f64,
    pub rate_evaluations: u32,
    pub rate_encodes: u32,
    pub rate_objective: f64,
    pub sweep_optima: Vec<f64>,
    pub sim_goodput_ratio: f64,
    pub sim_events_offered: u64,
}

impl Expected {
    pub fn load() -> Expected {
        let doc = json::parse(include_str!("../../expected.json"))
            .expect("benchmark/expected.json is valid JSON");
        let num = |key: &str| {
            doc.get(key)
                .and_then(json::Value::as_f64)
                .unwrap_or_else(|| panic!("benchmark/expected.json lacks a number `{key}`"))
        };
        Expected {
            chain_objective: num("chain_eeg22.objective"),
            rate: num("rate_search.rate"),
            rate_evaluations: num("rate_search.evaluations") as u32,
            rate_encodes: num("rate_search.encodes") as u32,
            rate_objective: num("rate_search.objective"),
            sweep_optima: doc
                .get("approx_sweep.optima")
                .and_then(json::Value::as_arr)
                .expect("benchmark/expected.json lacks `approx_sweep.optima`")
                .iter()
                .filter_map(json::Value::as_f64)
                .collect(),
            sim_goodput_ratio: num("sim.goodput_ratio"),
            sim_events_offered: num("sim.events_offered") as u64,
        }
    }
}

/// Regenerate `expected.json`'s content with the dense backend forced.
pub fn write_expected() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"generated_with\": {},\n",
        json::quoted("SolverBackend::Dense forced; --write-expected")
    ));
    out.push_str(&format!("  \"seed\": {DEFAULT_SEED},\n"));
    solver::write_expected(&mut out);
    sim::write_expected(&mut out);
    out.push_str("}\n");
    out
}
