//! # wishbone-bench
//!
//! What the three bench targets share. One evaluation target,
//! `benches/repro.rs`, rebuilds every figure of the paper's evaluation,
//! prints the series the paper plots and ends with the table of the
//! paper's [`Claims`] it checked — its stdout is the checked-in
//! `REPRO.md`. Two timing targets, `solver_criterion` and `fleet_scaling`,
//! run criterion groups; this crate is the one writer of their
//! `BENCH_solver.json` ([`merge_bench_json`]).

#![forbid(unsafe_code)]

use std::process::Command;

use criterion::{Criterion, Summary};

/// Open one table of `REPRO.md`: a `##` heading, then the column row of
/// a markdown table (cells padded, so the source reads as a table too).
pub fn header(title: &str, cols: &[&str]) {
    println!("\n## {title}\n");
    row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    row(&vec![format!("{}:", "-".repeat(13)); cols.len()]);
}

/// Print one row of mixed string/number cells.
pub fn row(cells: &[String]) {
    let cells: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("| {} |", cells.join(" | "));
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

/// How a claim came out. `Differs` is a measured, explained disagreement
/// with the paper: listed under its own heading, it does not fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    Differs,
}

/// One statement of the paper's evaluation, checked against this repo.
#[derive(Debug)]
struct Claim {
    id: &'static str,
    section: &'static str,
    paper: &'static str,
    ours: String,
    verdict: Verdict,
}

/// The claim list of one evaluation run. Every claim is recorded whether
/// or not an earlier one failed; the list is rendered once, at the end.
#[derive(Debug, Default)]
pub struct Claims {
    /// Where in the paper the claims recorded next are made.
    pub section: &'static str,
    list: Vec<Claim>,
}

impl Claims {
    fn push(&mut self, id: &'static str, paper: &'static str, ours: String, verdict: Verdict) {
        self.list.push(Claim {
            id,
            section: self.section,
            paper,
            ours,
            verdict,
        });
    }

    /// Record claim `id` — the paper says `paper`, this run measured
    /// `ours` — as `PASS` iff `holds`, else `FAIL`.
    pub fn check(&mut self, id: &'static str, paper: &'static str, ours: String, holds: bool) {
        let verdict = if holds { Verdict::Pass } else { Verdict::Fail };
        self.push(id, paper, ours, verdict);
    }

    /// Record a known difference: `ours` says what was measured instead of
    /// `paper` and why. Rendered as `DIFFERS`; never fails the run.
    pub fn differs(&mut self, id: &'static str, paper: &'static str, ours: String) {
        self.push(id, paper, ours, Verdict::Differs);
    }

    fn count(&self, verdict: Verdict) -> usize {
        self.list.iter().filter(|c| c.verdict == verdict).count()
    }

    /// How many claims failed: the evaluation target exits nonzero iff
    /// this is.
    pub fn failed(&self) -> usize {
        self.count(Verdict::Fail)
    }

    /// The claims as markdown, a pure function of the list: every `PASS` /
    /// `FAIL` row in the order recorded, then the `DIFFERS` rows under
    /// their own heading, then one summary line.
    pub fn render(&self) -> String {
        const HEAD: &str =
            "| verdict | claim | paper | the paper says | ours |\n|---|---|---|---|---|\n";
        let rows = |differs: bool| -> String {
            let wanted = |c: &&Claim| (c.verdict == Verdict::Differs) == differs;
            let line = |c: &Claim| {
                let verdict = format!("{:?}", c.verdict).to_uppercase();
                let (id, section, paper, ours) = (c.id, c.section, c.paper, &c.ours);
                format!("| {verdict} | `{id}` | {section} | {paper} | {ours} |\n")
            };
            self.list.iter().filter(wanted).map(line).collect()
        };
        let mut out = format!("\n## Claims\n\n{HEAD}{}", rows(false));
        if self.count(Verdict::Differs) > 0 {
            out += &format!("\n## Known differences\n\n{HEAD}{}", rows(true));
        }
        out += &format!(
            "\n{} claims: {} PASS, {} FAIL, {} DIFFERS\n",
            self.list.len(),
            self.count(Verdict::Pass),
            self.count(Verdict::Fail),
            self.count(Verdict::Differs)
        );
        out
    }
}

/// One line of `BENCH_solver.json`: a JSON object that leads with its
/// `bench` name. Built here and nowhere else, from what the `criterion`
/// stand-in sampled ([`BenchRecord::timed`]) or from the host
/// ([`BenchRecord::header`]) — a bench target hands
/// [`merge_bench_json`] its `Criterion` and never sees one.
struct BenchRecord {
    bench: String,
    fields: String,
}

impl BenchRecord {
    /// The record of one `group/id` the stand-in timed.
    fn timed(s: &Summary) -> Self {
        BenchRecord {
            bench: s.id.clone(),
            fields: format!(
                "\"median_ns\": {}, \"q1_ns\": {}, \"q3_ns\": {}, \"samples\": {}",
                s.median.as_nanos(),
                s.q1.as_nanos(),
                s.q3.as_nanos(),
                s.samples
            ),
        }
    }

    /// The provenance header of the bench binary `writer`: where and on
    /// what its records were taken, and the largest sample count among
    /// them (each record states its own).
    fn header(writer: &str, host: &Host, samples: usize) -> Self {
        BenchRecord {
            bench: writer.to_string(),
            fields: format!(
                "\"host\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"rev\": \"{}\", \
                 \"samples\": {samples}",
                host.cpu, host.nproc, host.rustc, host.rev
            ),
        }
    }

    fn render(&self) -> String {
        format!("{{\"bench\": \"{}\", {}}}", self.bench, self.fields)
    }
}

/// What a header record says about the machine and the tree.
struct Host {
    cpu: String,
    nproc: usize,
    rustc: String,
    rev: String,
}

impl Host {
    /// Ask the machine; anything it will not say reads `"unknown"`.
    fn detect() -> Self {
        let run = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
        };
        // The values land between double quotes in a hand-rolled JSON line.
        let clean = |text: Option<String>| match text.as_deref().map(str::trim) {
            Some(t) if !t.is_empty() => t.replace(['"', '\\'], ""),
            _ => "unknown".to_string(),
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                let model = info.lines().find(|l| l.starts_with("model name"))?;
                Some(model.split_once(':')?.1.to_string())
            });
        Host {
            cpu: clean(cpu),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: clean(run("rustc", &["--version"])),
            rev: clean(run("git", &["describe", "--always", "--dirty"])),
        }
    }
}

/// `existing` (the text of a `BENCH_solver.json`, possibly empty) with
/// `records` merged in: a record already present under the same `bench`
/// name is replaced where it stands, new names are appended, and every
/// other record is kept as it was — so each bench binary refreshes only
/// its own header and the records it regenerates. That includes a record
/// whose group or id no longer exists: it is kept forever, so deleting or
/// renaming a group means deleting its lines from the file by hand.
fn merge_bench_records(existing: &str, records: &[BenchRecord]) -> String {
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
                    records[i].render()
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
            .map(|(r, _)| r.render()),
    );
    let body: Vec<String> = lines.iter().map(|l| format!("  {l}")).collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

/// `writer`'s header followed by one record per `group/id` that `c`
/// timed, in run order.
fn records_of(writer: &str, host: &Host, c: &Criterion) -> Vec<BenchRecord> {
    let samples = c.records().iter().map(|s| s.samples).max().unwrap_or(0);
    std::iter::once(BenchRecord::header(writer, host, samples))
        .chain(c.records().iter().map(BenchRecord::timed))
        .collect()
}

/// Merge everything `c` timed, under a fresh header for the bench binary
/// `writer`, into `BENCH_solver.json` at the repository root (two
/// directories above this crate): a line already there under the same
/// `bench` name is replaced where it stands, the rest — the other
/// writer's header and records — is kept.
pub fn merge_bench_json(writer: &str, c: &Criterion) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let records = records_of(writer, &Host::detect(), c);
    std::fs::write(path, merge_bench_records(&existing, &records))
        .expect("write BENCH_solver.json");
    println!("merged {} records into {path}", records.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn merging_replaces_in_place_appends_new_names_and_keeps_the_rest() {
        let rec = |bench: &str, us: u64| {
            let t = Duration::from_micros(us);
            BenchRecord::timed(&Summary::of(bench, vec![t, 2 * t, 3 * t]))
        };
        let line = |bench: &str, us: u64| {
            format!(
                "{{\"bench\": \"{bench}\", \"median_ns\": {}, \"q1_ns\": {}, \"q3_ns\": {}, \
                 \"samples\": 3}}",
                2000 * us,
                1500 * us,
                2500 * us
            )
        };
        let file = |lines: &[String]| {
            let body: Vec<String> = lines.iter().map(|l| format!("  {l}")).collect();
            format!("[\n{}\n]\n", body.join(",\n"))
        };
        let first = merge_bench_records("", &[rec("g/a", 1), rec("fleet/x", 2), rec("g/b", 3)]);
        assert_eq!(
            first,
            file(&[line("g/a", 1), line("fleet/x", 2), line("g/b", 3)])
        );
        // A run that regenerates `g/b` and adds `g/c` leaves `g/a` and the
        // fleet record alone, and the order of what was there.
        let second = merge_bench_records(&first, &[rec("g/c", 5), rec("g/b", 4)]);
        assert_eq!(
            second,
            file(&[
                line("g/a", 1),
                line("fleet/x", 2),
                line("g/b", 4),
                line("g/c", 5)
            ])
        );
        // Merging what is already there changes nothing.
        assert_eq!(merge_bench_records(&second, &[rec("g/a", 1)]), second);
    }

    #[test]
    fn each_writer_keeps_its_header_and_records_across_the_others_merge() {
        let host = |rev: &str| Host {
            cpu: "Some CPU @ 2.10GHz".into(),
            nproc: 2,
            rustc: "rustc 1.0.0".into(),
            rev: rev.into(),
        };
        let timed = |group: &str, sample_size: usize| {
            let mut c = Criterion::default().sample_size(sample_size);
            let mut g = c.benchmark_group(group);
            g.bench_function("a", |b| b.iter_custom(|_| Duration::from_micros(1)));
            g.bench_function("b", |b| b.iter_custom(|_| Duration::from_micros(2)));
            g.finish();
            c
        };
        let names = |text: &str| -> Vec<String> {
            let quoted = |l: &str| l.split('"').nth(3).expect("a bench name").to_string();
            text.lines()
                .filter(|l| l.contains("bench"))
                .map(quoted)
                .collect()
        };
        let solver = records_of("solver_criterion", &host("aaa"), &timed("solver", 4));
        let fleet = records_of("fleet_scaling", &host("bbb"), &timed("fleet", 2));
        let both = merge_bench_records(&merge_bench_records("", &solver), &fleet);
        let layout = [
            "solver_criterion",
            "solver/a",
            "solver/b",
            "fleet_scaling",
            "fleet/a",
            "fleet/b",
        ];
        assert_eq!(names(&both), layout);
        let header = "  {\"bench\": \"solver_criterion\", \"host\": \"Some CPU @ 2.10GHz\", \
                      \"nproc\": 2, \"rustc\": \"rustc 1.0.0\", \"rev\": \"aaa\", \"samples\": 4},";
        assert_eq!(both.lines().nth(1), Some(header));

        // The solver binary runs again at a new rev: its header and records
        // are replaced where they stand, the fleet's lines are untouched.
        let again = records_of("solver_criterion", &host("ccc"), &timed("solver", 6));
        let merged = merge_bench_records(&both, &again);
        assert_eq!(names(&merged), layout);
        let changed: Vec<usize> = (both.lines().zip(merged.lines()).enumerate())
            .filter(|(_, (old, new))| old != new)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(changed, [1, 2, 3], "the solver header and its two records");
        assert!(merged
            .lines()
            .nth(1)
            .is_some_and(|l| l.contains("\"rev\": \"ccc\"")));
        // Detection never fails: what the machine will not say is "unknown".
        let here = Host::detect();
        assert!(here.nproc >= 1 && !here.cpu.is_empty() && !here.rustc.is_empty());
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

    /// Three claims under two sections: one passes, the second fails, and
    /// the third — recorded after the failure — passes.
    fn claims_with_a_failure() -> Claims {
        let mut claims = Claims {
            section: "§7 Fig 9",
            ..Claims::default()
        };
        claims.check("fig9/first", "ten percent", "50.5%".into(), true);
        claims.check("fig9/broken", "peaks at cut 4", "cut 7".into(), false);
        claims.section = "§7.3";
        claims.check("validation/after", "0.77", "0.76".into(), true);
        claims
    }

    #[test]
    fn a_failing_claim_is_rendered_in_full_and_the_ones_after_it_still_are() {
        let claims = claims_with_a_failure();
        let text = claims.render();
        let failed = "| FAIL | `fig9/broken` | §7 Fig 9 | peaks at cut 4 | cut 7 |\n";
        let after = "| PASS | `validation/after` | §7.3 | 0.77 | 0.76 |\n";
        assert!(text.contains(failed), "{text}");
        assert!(
            text.find(failed) < text.find(after),
            "recorded order:\n{text}"
        );
        assert!(text.ends_with("\n3 claims: 2 PASS, 1 FAIL, 0 DIFFERS\n"));
        assert_eq!(claims.failed(), 1);
        assert!(!text.contains("Known differences"));
    }

    #[test]
    fn a_known_difference_is_listed_under_its_own_heading_and_fails_nothing() {
        let mut claims = Claims {
            section: "§7.3",
            ..Claims::default()
        };
        claims.differs("validation/overshoots", "the best cut", "0.75 of it".into());
        claims.check("validation/after", "0.77", "0.76".into(), true);
        assert_eq!(claims.failed(), 0);
        let text = claims.render();
        let (checked, known) = text
            .split_once("\n## Known differences\n")
            .expect("its own heading");
        let differs = "| DIFFERS | `validation/overshoots` | §7.3 | the best cut | 0.75 of it |\n";
        assert!(known.contains(differs) && !checked.contains("DIFFERS |"));
        assert!(checked.contains("| PASS | `validation/after` |") && !known.contains("PASS |"));
        assert!(text.ends_with("\n2 claims: 1 PASS, 0 FAIL, 1 DIFFERS\n"));
    }

    #[test]
    fn rendering_is_a_pure_function_of_the_claims() {
        let (a, b) = (claims_with_a_failure(), claims_with_a_failure());
        assert_eq!(a.render(), a.render());
        assert_eq!(a.render(), b.render());
        assert_eq!(
            Claims::default().render().lines().last(),
            Some("0 claims: 0 PASS, 0 FAIL, 0 DIFFERS")
        );
    }
}
