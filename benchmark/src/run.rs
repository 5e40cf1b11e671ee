//! One workload, in this process: set-up (several times, for `setup_s`),
//! the measured window — untraced for the end-to-end metrics, or the
//! traced replay for the per-layer ledger — the checks, and the result
//! line.

use std::time::Instant;

use crate::calib::{self, Calibrator};
use crate::contract::{Contract, MetricDef};
use crate::json;
use crate::provenance;
use crate::span::Tracer;
use crate::stats::{self, median};
use crate::workloads::{self, Metrics, OpLog, Spec, Workload, SPECS};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Set-ups per run: at least this many, until they have taken this long
/// in all, and never more than the cap.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;
/// Spans written to `benchmark/out/trace-<workload>.jsonl` at most.
const TRACE_FILE_MAX_SPANS: usize = 50_000;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| json::metric(&m.name, m.value, &m.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The per-op latencies of a measured window, milliseconds.
struct Window {
    /// Host-normalised. Allocated *and touched* in full before the first
    /// op, so the harness's own share of `peak_rss_mb` is the same
    /// however many ops a run completes; the window ends early if it
    /// fills.
    norm_ms: Vec<f64>,
    len: usize,
    /// Raw, kept only by the traced run (for `harness.raw_*`).
    raw_ms: Option<Vec<f64>>,
    /// Ops per host-normalised second of every chunk. `ops_per_s` is the
    /// median of these, so that a burst of interference on the host —
    /// seconds long on the defining one — costs the chunks it covers and
    /// not the run.
    chunk_ops_per_s: Vec<f64>,
    log: OpLog,
}

impl Window {
    fn new(capacity: usize, keep_raw: bool) -> Self {
        Window {
            norm_ms: vec![0.0; capacity],
            len: 0,
            raw_ms: keep_raw.then(Vec::new),
            chunk_ops_per_s: Vec::new(),
            log: OpLog::default(),
        }
    }

    /// Fold one chunk in, scaled by the calibrations around it.
    fn absorb(&mut self, chunk: OpLog, scale: f64) {
        let chunk_s = chunk.raw_ns.iter().sum::<f64>() * scale / 1e9;
        self.chunk_ops_per_s
            .push(chunk.raw_ns.len() as f64 / chunk_s);
        for &ns in chunk.raw_ns.iter().take(self.norm_ms.len() - self.len) {
            self.norm_ms[self.len] = ns * scale / 1e6;
            self.len += 1;
            if let Some(raw) = &mut self.raw_ms {
                raw.push(ns / 1e6);
            }
        }
        self.log.failed += chunk.failed;
        self.log.ratio_max = self.log.ratio_max.max(chunk.ratio_max);
    }

    fn is_full(&self) -> bool {
        self.len == self.norm_ms.len()
    }

    fn samples(&self) -> &[f64] {
        &self.norm_ms[..self.len]
    }
}

/// Set the workload up repeatedly; returns the last instance and every
/// set-up's host-normalised duration, seconds.
fn set_up(
    name: &str,
    opts: &Options,
    contract: &Contract,
    cal: &mut Calibrator,
) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut total = 0.0;
    let mut before = cal.measure();
    loop {
        let t = Instant::now();
        let w = workloads::setup(name, opts.seed).ok_or_else(|| {
            format!(
                "unknown workload `{name}`; BENCHMARK.json names: {}",
                contract.workloads.join(", ")
            )
        })?;
        let raw = t.elapsed().as_secs_f64();
        let after = cal.measure();
        times.push(raw * calib::scale(before, after));
        total += raw;
        before = after;
        let enough = times.len() >= SETUP_MIN_REPS && total >= SETUP_MIN_SECONDS;
        if opts.smoke || enough || times.len() >= SETUP_MAX_REPS {
            return Ok((w, times));
        }
        // One instance alive at a time, so `peak_rss_mb` is one
        // instance's.
        drop(w);
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn spec_of(name: &str) -> &'static Spec {
    SPECS
        .iter()
        .find(|s| s.name == name)
        .expect("set-up accepted the name")
}

pub fn run(name: &str, opts: &Options, contract: &Contract) -> Result<RunResult, String> {
    let mut cal = Calibrator::new();
    let (mut w, setup_s) = set_up(name, opts, contract, &mut cal)?;
    let spec = spec_of(name);
    println!("workload {name}: op = {}", spec.op);
    println!(
        "  seed {}, {} s {}, {} set-up(s)",
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" },
        setup_s.len()
    );

    let (values, attempted, failed, defs) = if opts.trace {
        let (m, attempted, failed) = traced(spec, w.as_mut(), opts, &mut cal)?;
        let values: Vec<f64> = contract
            .per_layer
            .iter()
            .map(|d| m.get(d.name.as_str()).copied().unwrap_or(0.0))
            .collect();
        (values, attempted, failed, &contract.per_layer)
    } else {
        let (m, attempted, failed) = untraced(spec, w.as_mut(), opts, &mut cal, &setup_s);
        let values = contract
            .end_to_end
            .iter()
            .map(|d| {
                m.get(d.name.as_str())
                    .copied()
                    .ok_or_else(|| format!("the harness does not measure `{}`", d.name))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        (values, attempted, failed, &contract.end_to_end)
    };

    let metrics: Vec<Metric> = defs
        .iter()
        .zip(values)
        .map(|(d, value): (&MetricDef, f64)| Metric {
            name: d.name.clone(),
            value,
            unit: d.unit.clone(),
        })
        .collect();
    for m in &metrics {
        println!("  {:38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted {attempted}, failed {failed} (failed_share {:.6})",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "  provenance: {}",
        provenance::header(
            opts.seed,
            opts.seconds,
            opts.seconds,
            median(&cal.history_ns) / 1e6,
            stats::iqr_ratio(&cal.history_ns),
        )
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}

/// The end-to-end run: chunks of timed ops, a calibration between every
/// two, until `seconds` have passed.
fn untraced(
    spec: &Spec,
    w: &mut dyn Workload,
    opts: &Options,
    cal: &mut Calibrator,
    setup_s: &[f64],
) -> (Metrics, u64, u64) {
    let mut win = Window::new(spec.max_samples, false);
    let start = Instant::now();
    let mut before = cal.measure();
    loop {
        let mut chunk = OpLog::default();
        w.run_chunk(&mut chunk);
        let after = cal.measure();
        win.absorb(chunk, calib::scale(before, after));
        before = after;
        if start.elapsed().as_secs_f64() >= opts.seconds || win.is_full() {
            break;
        }
    }
    let rss = peak_rss_mb();
    let note = w.verify(&mut win.log);
    println!("  checked: {note}");

    let n = win.len;
    let mut sorted = win.samples().to_vec();
    stats::sort(&mut sorted);
    let ladder: Vec<String> = stats::TAIL_LADDER
        .iter()
        .map(|&p| {
            format!(
                "p{p} {:.6} ({} beyond)",
                stats::percentile(&sorted, p),
                stats::samples_beyond(n, p)
            )
        })
        .collect();
    println!("  latency_ms over {n} samples: {}", ladder.join(", "));
    let beyond = stats::samples_beyond(n, spec.tail_percentile);
    if beyond < stats::MIN_BEYOND {
        println!(
            "  note: the tail (p{}) has {beyond} samples beyond it, fewer than {}; the highest \
             percentile this run supports is {}",
            spec.tail_percentile,
            stats::MIN_BEYOND,
            stats::highest_tail(n).map_or("none".to_string(), |p| format!("p{p}"))
        );
    }
    let mut m = Metrics::new();
    m.insert("setup_s", median(setup_s));
    m.insert("ops_per_s", median(&win.chunk_ops_per_s));
    m.insert("latency_ms_p50", stats::percentile(&sorted, 50.0));
    m.insert("objective_ratio_max", win.log.ratio_max);
    m.insert("peak_rss_mb", rss);
    (m, n as u64, win.log.failed)
}

/// The traced run: alternately one untraced chunk (the yardstick for the
/// tracing overhead) and one chunk replayed as spans, a calibration
/// between every two.
fn traced(
    spec: &Spec,
    w: &mut dyn Workload,
    opts: &Options,
    cal: &mut Calibrator,
) -> Result<(Metrics, u64, u64), String> {
    let mut tr = Tracer::new();
    let mut plain = Window::new(spec.max_samples, true);
    let mut replay = OpLog::default();
    let start = Instant::now();
    let mut before = cal.measure();
    loop {
        let mut chunk = OpLog::default();
        w.run_chunk(&mut chunk);
        let mid = cal.measure();
        plain.absorb(chunk, calib::scale(before, mid));

        let first_op = tr.ops();
        w.traced_chunk(&mut tr, &mut replay);
        let after = cal.measure();
        tr.set_scale_from(first_op, calib::scale(mid, after));
        before = after;
        if start.elapsed().as_secs_f64() >= opts.seconds || plain.is_full() {
            break;
        }
    }
    let note = w.verify(&mut plain.log);
    println!("  checked: {note}");

    let mut m = Metrics::new();
    ledger_metrics(&tr, &mut m);
    let layers = w.setup_layers();
    m.insert("apps.build_ms", layers.build_s * 1e3);
    m.insert("profile.profile_ms", layers.profile_s * 1e3);
    m.insert("profile.ops_profiled", layers.ops_profiled as f64);
    w.layer_metrics(&tr, &mut m);

    // The noise floor and provenance of every number above.
    let ops: Vec<(f64, f64)> = tr.op_durations_ms();
    let traced_ms = median(&ops.iter().map(|o| o.0).collect::<Vec<_>>());
    let plain_p50 = median(plain.samples());
    let covered_ms = median(&ops.iter().map(|o| o.0 * o.1).collect::<Vec<_>>());
    m.insert("harness.trace_overhead_ratio", traced_ms / plain_p50);
    m.insert("harness.ledger_share_of_p50", covered_ms / plain_p50);
    m.insert("harness.calib_ms_p50", median(&cal.history_ns) / 1e6);
    m.insert("harness.calib_iqr_ratio", stats::iqr_ratio(&cal.history_ns));
    let raw_ms = plain.raw_ms.as_deref().unwrap_or(&[]);
    m.insert(
        "harness.raw_ops_per_s",
        raw_ms.len() as f64 / (raw_ms.iter().sum::<f64>() / 1e3),
    );
    m.insert("harness.raw_latency_ms_p50", median(raw_ms));
    let mut sorted = plain.samples().to_vec();
    stats::sort(&mut sorted);
    m.insert(
        "harness.latency_ms_tail",
        stats::percentile(&sorted, spec.tail_percentile),
    );
    m.insert("host.nproc", provenance::nproc() as f64);

    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{}.jsonl", spec.name));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| tr.write_jsonl(&mut std::io::BufWriter::new(f), TRACE_FILE_MAX_SPANS))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "  {} spans over {} ops; the first {} written to {}",
        tr.spans().len(),
        ops.len(),
        tr.spans().len().min(TRACE_FILE_MAX_SPANS),
        path.display()
    );

    let attempted = plain.len as u64 + ops.len() as u64;
    let failed = plain.log.failed + replay.failed;
    Ok((m, attempted, failed))
}

/// Layer metrics read straight off the span ledger: the median, over
/// ops, of each layer's self time, and the counts taken at the same
/// boundaries on the first op (counts repeat exactly; times do not).
fn ledger_metrics(tr: &Tracer, m: &mut Metrics) {
    for (metric, span) in [
        ("core.graph.build_ms", "core.graph.build"),
        ("core.merge.ms", "core.merge"),
        ("core.encode.ms", "core.encode"),
        ("core.prepare.ms", "core.prepare"),
        ("core.multilevel.cut_ms", "core.multilevel.cut"),
    ] {
        m.insert(metric, median(&tr.per_op_ms(span)));
    }
    // Per call, not per op: an op may solve more than once.
    m.insert("core.solve.ms", median(&tr.each_ms("core.solve")));
    m.insert("ilp.root_lp.ms", median(&tr.each_ms("ilp.root_lp")));
    m.insert("ilp.presolve.ms", median(&tr.each_ms("ilp.presolve")));

    let before = tr.first_op_sum("core.graph.build", "vertices");
    let after = tr.first_op_sum("core.merge", "vertices_after");
    m.insert("core.graph.vertices", before);
    m.insert("core.merge.vertices_after", after);
    if before > 0.0 {
        m.insert("core.merge.reduction_ratio", 1.0 - after / before);
    }
    let encoded = if tr.first_op_sum("core.encode", "vars") > 0.0 {
        "core.encode"
    } else {
        "core.prepare"
    };
    m.insert("core.encode.vars", tr.first_op_sum(encoded, "vars"));
    m.insert("core.encode.rows", tr.first_op_sum(encoded, "rows"));
    m.insert("ilp.root_lp.iters", tr.first_op_sum("ilp.root_lp", "iters"));
}
