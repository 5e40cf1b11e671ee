//! # wishbone-bench
//!
//! Shared harness utilities for the figure-regeneration benches. Each
//! `benches/figN_*.rs` target (custom harness, run via `cargo bench`)
//! rebuilds one figure of the paper's evaluation and prints the series the
//! paper plots; `EXPERIMENTS.md` records the paper-vs-measured comparison.

#![forbid(unsafe_code)]

use std::time::Duration;

/// Print a table header.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    let row = cols
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{row}");
    println!("{}", "-".repeat(15 * cols.len()));
}

/// Print one row of mixed string/number cells.
pub fn row(cells: &[String]) {
    let line = cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{line}");
}

/// Format a float compactly.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a duration in seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Empirical CDF: returns `(value, percentile)` pairs for the given
/// percentile grid, matching the paper's Fig 6 presentation.
pub fn cdf(samples: &mut [f64], percentiles: &[f64]) -> Vec<(f64, f64)> {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentiles
        .iter()
        .map(|&p| {
            let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
            (samples[idx], p)
        })
        .collect()
}

/// Environment-variable override for experiment sizes, so CI-scale runs
/// stay fast while full-scale runs match the paper.
pub fn env_size(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Geometric series of `n` rate multipliers between `lo` and `hi`.
pub fn geometric_rates(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi > lo);
    let step = (hi / lo).powf(1.0 / (n as f64 - 1.0));
    (0..n).map(|i| lo * step.powi(i as i32)).collect()
}

/// Linear series of `n` rate multipliers between `lo` and `hi` (the paper
/// "linearly varying the data rate" for Fig 6).
pub fn linear_rates(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n as f64 - 1.0))
        .collect()
}

/// One `BENCH_solver.json` record: the schema `solver_criterion -- --json`
/// and `fleet_scaling -- --json` share.
pub struct BenchRecord {
    /// Record name, unique within the file.
    pub bench: String,
    /// Median wall clock of the measured runs, nanoseconds.
    pub median_ns: u128,
    /// Branch-and-bound nodes of one run (encodes, for the fleet records).
    pub nodes: u64,
    /// Warm-started node LPs of one run (cache hits, for the fleet records).
    pub warm_starts: u64,
}

/// `existing` (the text of a `BENCH_solver.json`, possibly empty) with
/// `records` merged in: a record already present under the same `bench`
/// name is replaced where it stands, new names are appended, and every
/// other record is kept as it was — so each bench binary refreshes only
/// the records it regenerates.
pub fn merge_bench_records(existing: &str, records: &[BenchRecord]) -> String {
    let render = |r: &BenchRecord| {
        format!(
            "{{\"bench\": \"{}\", \"median_ns\": {}, \"nodes\": {}, \"warm_starts\": {}}}",
            r.bench, r.median_ns, r.nodes, r.warm_starts
        )
    };
    let mut placed = vec![false; records.len()];
    let mut lines: Vec<String> = existing
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{'))
        .map(|l| {
            let name = l
                .split("\"bench\": \"")
                .nth(1)
                .and_then(|rest| rest.split('"').next());
            match records.iter().position(|r| Some(r.bench.as_str()) == name) {
                Some(i) => {
                    placed[i] = true;
                    render(&records[i])
                }
                None => l.to_string(),
            }
        })
        .collect();
    lines.extend(
        records
            .iter()
            .zip(&placed)
            .filter(|(_, &placed)| !placed)
            .map(|(r, _)| render(r)),
    );
    let body: Vec<String> = lines.iter().map(|l| format!("  {l}")).collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

/// [`merge_bench_records`] applied to `BENCH_solver.json` at the
/// repository root (two directories above this crate).
pub fn merge_bench_json(records: &[BenchRecord]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, merge_bench_records(&existing, records)).expect("write BENCH_solver.json");
    println!("merged {} records into {path}", records.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_replaces_in_place_appends_new_names_and_keeps_the_rest() {
        let rec = |bench: &str, median_ns| BenchRecord {
            bench: bench.into(),
            median_ns,
            nodes: 1,
            warm_starts: 0,
        };
        let file = |records: &[(&str, u128)]| {
            let lines: Vec<String> = records
                .iter()
                .map(|(bench, ns)| {
                    format!(
                        "  {{\"bench\": \"{bench}\", \"median_ns\": {ns}, \"nodes\": 1, \
                         \"warm_starts\": 0}}"
                    )
                })
                .collect();
            format!("[\n{}\n]\n", lines.join(",\n"))
        };
        let first = merge_bench_records("", &[rec("a", 1), rec("fleet_x", 2), rec("b", 3)]);
        assert_eq!(first, file(&[("a", 1), ("fleet_x", 2), ("b", 3)]));
        // A run that regenerates `b` and adds `c` leaves `a` and the
        // fleet record alone, and the order of what was there.
        let second = merge_bench_records(&first, &[rec("c", 5), rec("b", 4)]);
        assert_eq!(
            second,
            file(&[("a", 1), ("fleet_x", 2), ("b", 4), ("c", 5)])
        );
        // Merging what is already there changes nothing.
        assert_eq!(merge_bench_records(&second, &[rec("a", 1)]), second);
    }

    #[test]
    fn cdf_percentiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let c = cdf(&mut xs, &[0.0, 50.0, 100.0]);
        assert_eq!(c[0].0, 1.0);
        assert!((c[1].0 - 50.0).abs() <= 1.0);
        assert_eq!(c[2].0, 100.0);
    }

    #[test]
    fn rate_grids() {
        let g = geometric_rates(0.1, 10.0, 5);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[4] - 10.0).abs() < 1e-9);
        let l = linear_rates(1.0, 3.0, 3);
        assert_eq!(l, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.5), "1234"); // round-half-to-even
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.234), "1.234");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn env_size_parses() {
        std::env::set_var("WISHBONE_TEST_SIZE_X", "17");
        assert_eq!(env_size("WISHBONE_TEST_SIZE_X", 3), 17);
        assert_eq!(env_size("WISHBONE_TEST_SIZE_MISSING", 3), 3);
    }
}
