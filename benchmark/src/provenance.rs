//! Where, when and on what a result was measured: the ROADMAP's "numbers
//! need provenance" invariant, made mechanical. Every result JSON starts
//! with this header.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::calib::CALIB_NOMINAL_NS;
use crate::json;

/// First line of `cmd`'s standard output, or `"unknown"`.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from seconds since the epoch (proleptic
/// Gregorian; Howard Hinnant's `civil_from_days`).
pub fn iso8601(unix_s: u64) -> String {
    let days = (unix_s / 86_400) as i64;
    let secs = unix_s % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        secs % 3600 / 60,
        secs % 60
    )
}

/// The header, as a JSON object. `calib_ms_p50` / `calib_iqr_ratio` are
/// this process's own calibration measurements.
pub fn header(
    seed: u64,
    seconds: f64,
    traced_seconds: f64,
    calib_ms_p50: f64,
    calib_iqr_ratio: f64,
) -> String {
    let git_rev = first_line("git", &["rev-parse", "HEAD"]);
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty());
    let start = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let fields = [
        ("host_nproc", nproc().to_string()),
        ("host_cpu_model", json::quoted(&cpu_model())),
        (
            "host_kernel",
            json::quoted(&read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", json::quoted(&first_line("rustc", &["--version"]))),
        ("git_rev", json::quoted(&git_rev)),
        (
            "git_dirty",
            dirty.map_or("null".to_string(), |d| d.to_string()),
        ),
        ("seed", seed.to_string()),
        ("run_seconds", json::number(seconds)),
        ("traced_run_seconds", json::number(traced_seconds)),
        ("calib_nominal_ms", json::number(CALIB_NOMINAL_NS / 1e6)),
        ("calib_ms_p50", json::number(calib_ms_p50)),
        ("calib_iqr_ratio", json::number(calib_iqr_ratio)),
        ("wall_clock_start", json::quoted(&iso8601(start))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::quoted(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_from_the_epoch() {
        assert_eq!(iso8601(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso8601(1_790_726_399), "2026-09-29T23:59:59Z");
    }

    #[test]
    fn the_header_is_json_with_every_field() {
        let v = json::parse(&header(7, 15.0, 15.0, 1.02, 0.03)).unwrap();
        for key in [
            "host_nproc",
            "host_cpu_model",
            "host_kernel",
            "rustc",
            "git_rev",
            "git_dirty",
            "seed",
            "run_seconds",
            "traced_run_seconds",
            "calib_nominal_ms",
            "calib_ms_p50",
            "calib_iqr_ratio",
            "wall_clock_start",
        ] {
            assert!(v.get(key).is_some(), "header lacks {key}");
        }
        assert_eq!(v.get("seed").and_then(json::Value::as_f64), Some(7.0));
    }
}
