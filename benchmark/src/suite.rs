//! Every workload, each run in a child process of its own (so
//! `peak_rss_mb` is per workload): the full set, the smoke set, and the
//! A/A `--repeat-check`.

use std::collections::BTreeMap;
use std::process::Command;

use crate::contract::{Contract, MetricDef};
use crate::json::{self, Value};
use crate::provenance;
use crate::stats::{self, median};
use crate::workloads::SPECS;

/// Layer metrics that are counts of work done, not times: two runs of
/// the same code at the same seed must agree on them exactly.
pub const EXACT_COUNTS: [&str; 24] = [
    "profile.ops_profiled",
    "core.graph.vertices",
    "core.merge.vertices_after",
    "core.merge.reduction_ratio",
    "core.encode.vars",
    "core.encode.rows",
    "core.multilevel.cut_gap",
    "core.multilevel.certified_gap_max",
    "core.shape.deltas_per_req",
    "core.rate_search.probes",
    "core.rate_search.encodes",
    "core.rate_search.infeasible_probes",
    "ilp.presolve.fastfail_share",
    "ilp.root_lp.iters",
    "ilp.bb.nodes_per_op",
    "ilp.bb.simplex_iters_per_op",
    "ilp.bb.warm_share",
    "ilp.bb.seeded_share",
    "fleet.hit_share",
    "fleet.encodes",
    "fleet.errors",
    "runtime.events_offered",
    "runtime.goodput_ratio",
    "trace.events_per_sim_s",
];

/// The traced run's share of the untraced run's length: the ledger reports
/// medians of layer times and counts off the first op, and needs fewer ops
/// than a tail percentile does.
const TRACED_LENGTH: f64 = 0.25;

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// One workload's untraced and traced results.
#[derive(Default)]
struct WorkloadResult {
    untraced: Option<ChildResult>,
    traced: Option<ChildResult>,
}

type SetResult = BTreeMap<&'static str, WorkloadResult>;

/// Run one workload in a child process, passing its output through, and
/// parse the result line it ends with.
fn run_child(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before it returns.
    let out = cmd.output().map_err(|e| format!("starting {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let doc = json::parse(last)
        .map_err(|e| format!("{name}: no result line ({e}); exit status {}", out.status))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or(format!("{name}: result line lacks `metrics`"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let whole = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: whole("attempted"),
        failed: whole("failed"),
        metrics,
    })
}

/// Run every workload: untraced (unless `traced_only`), then traced at a
/// quarter of the length (unless `smoke`). Returns the results and whether every answer was
/// right.
fn run_set(seed: u64, seconds: f64, smoke: bool, traced_only: bool) -> (SetResult, bool) {
    let mut set = SetResult::new();
    let mut ok = true;
    for spec in &SPECS {
        let mut result = WorkloadResult::default();
        for trace in [false, true] {
            if (trace && smoke) || (!trace && traced_only) {
                continue;
            }
            let seconds = if trace {
                seconds * TRACED_LENGTH
            } else {
                seconds
            };
            match run_child(spec.name, seed, seconds, trace, smoke) {
                Ok(r) => {
                    if !r.correct {
                        eprintln!(
                            "WRONG ANSWER: {} ({}): {} of {} ops failed",
                            spec.name,
                            if trace { "traced" } else { "untraced" },
                            r.failed,
                            r.attempted
                        );
                        ok = false;
                    }
                    *(if trace {
                        &mut result.traced
                    } else {
                        &mut result.untraced
                    }) = Some(r);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
        set.insert(spec.name, result);
    }
    (set, ok)
}

fn metrics_json(defs: &[MetricDef], r: &ChildResult) -> String {
    let body: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let v = r.metrics.get(&d.name)?;
            Some(json::metric(&d.name, *v, &d.unit))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result document: provenance header first, then every workload.
fn result_json(set: &SetResult, seed: u64, seconds: f64, contract: &Contract) -> String {
    let calib = |key: &str| -> Vec<f64> {
        set.values()
            .filter_map(|w| w.traced.as_ref()?.metrics.get(key).copied())
            .collect()
    };
    let mut out = format!(
        "{{\n  \"provenance\": {},\n  \"workloads\": {{\n",
        provenance::header(
            seed,
            seconds,
            seconds * TRACED_LENGTH,
            median(&calib("harness.calib_ms_p50")),
            median(&calib("harness.calib_iqr_ratio")),
        )
    );
    let mut first = true;
    for spec in &SPECS {
        let Some(w) = set.get(spec.name) else {
            continue;
        };
        if !std::mem::replace(&mut first, false) {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {}: {{\"tail_percentile\": {}",
            json::quoted(spec.name),
            json::number(spec.tail_percentile)
        ));
        for (key, defs, r) in [
            ("end_to_end", &contract.end_to_end, &w.untraced),
            ("per_layer", &contract.per_layer, &w.traced),
        ] {
            if let Some(r) = r {
                out.push_str(&format!(
                    ", \"{key}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                     \"failed_share\": {}, \"metrics\": {}}}",
                    r.correct,
                    r.attempted,
                    r.failed,
                    json::number(r.failed as f64 / r.attempted.max(1) as f64),
                    metrics_json(defs, r)
                ));
            }
        }
        out.push('}');
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Run every workload once and write `benchmark/out/result.json`.
pub fn run_all(
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced_only: bool,
    contract: &Contract,
) -> bool {
    let (set, ok) = run_set(seed, seconds, smoke, traced_only);
    let doc = result_json(&set, seed, seconds, contract);
    let path = std::path::Path::new("benchmark/out/result.json");
    let written =
        std::fs::create_dir_all("benchmark/out").and_then(|()| std::fs::write(path, &doc));
    match written {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            return false;
        }
    }
    if ok {
        println!("every answer checked and correct");
    }
    ok
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = if def.higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// A/A: two full sets back to back. Prints, per workload and metric, the
/// relative difference beside its bound; fails when an end-to-end metric
/// disagrees beyond its bound (in either direction — both sets are the
/// same code), when a count metric differs at all, or when any answer is
/// wrong.
pub fn repeat_check(seed: u64, seconds: f64, contract: &Contract) -> bool {
    let (a, ok_a) = run_set(seed, seconds, false, false);
    let (b, ok_b) = run_set(seed, seconds, false, false);
    let mut ok = ok_a && ok_b;
    println!("\nrepeat check (A/A), seed {seed}, {seconds} s per run");
    println!(
        "{:26} {:30} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for spec in &SPECS {
        let (Some(wa), Some(wb)) = (a.get(spec.name), b.get(spec.name)) else {
            continue;
        };
        if let (Some(ra), Some(rb)) = (&wa.untraced, &wb.untraced) {
            for def in &contract.end_to_end {
                let (Some(&x), Some(&y)) = (ra.metrics.get(&def.name), rb.metrics.get(&def.name))
                else {
                    continue;
                };
                let diff = worse_by(def, x, y).abs().max(worse_by(def, y, x).abs());
                let bound = def.bound.unwrap_or(0.0);
                let verdict = if diff <= bound { "" } else { "  BEYOND BOUND" };
                println!(
                    "{:26} {:30} {x:>14.6} {y:>14.6} {:>8.2}% {:>8.4}%{verdict}",
                    spec.name,
                    def.name,
                    diff * 100.0,
                    bound * 100.0
                );
                ok &= diff <= bound;
            }
        }
        if let (Some(ra), Some(rb)) = (&wa.traced, &wb.traced) {
            for name in EXACT_COUNTS {
                let (Some(&x), Some(&y)) = (ra.metrics.get(name), rb.metrics.get(name)) else {
                    continue;
                };
                if x.to_bits() != y.to_bits() {
                    println!(
                        "{:26} {name:30} {x:>14.6} {y:>14.6}   COUNT DIFFERS",
                        spec.name
                    );
                    ok = false;
                }
            }
        }
    }
    // The noise floor a later claim has to clear.
    let spread = |key: &str| {
        let v: Vec<f64> = [&a, &b]
            .iter()
            .flat_map(|s| s.values())
            .filter_map(|w| w.traced.as_ref()?.metrics.get(key).copied())
            .collect();
        (median(&v), stats::iqr_ratio(&v))
    };
    let (calib_ms, calib_spread) = spread("harness.calib_ms_p50");
    println!(
        "calibration kernel: median {calib_ms:.4} ms across the {} traced runs, quartile spread {:.2}%",
        2 * SPECS.len(),
        calib_spread * 100.0
    );
    println!(
        "repeat check {}: every end-to-end metric within its bound and every count identical{}",
        if ok { "PASSED" } else { "FAILED" },
        if ok { "" } else { " — NOT" }
    );
    ok
}
