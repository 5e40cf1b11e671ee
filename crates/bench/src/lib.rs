//! # wishbone-bench
//!
//! What the one bench target shares. `benches/repro.rs` rebuilds every
//! figure of the paper's evaluation, prints the series the paper plots
//! and ends with the table of the paper's [`Claims`] it checked — its
//! stdout is the checked-in `REPRO.md`.

#![forbid(unsafe_code)]

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

#[cfg(test)]
mod tests {
    use super::*;

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
