//! `cargo run -p xtask -- lint` — repo-specific invariants clippy
//! cannot express, enforced by plain text scanning (offline, no
//! registry deps, no proc macros):
//!
//! 1. **no-unwrap** — `.unwrap()` is banned in the solver hot paths
//!    (`crates/ilp/src/{simplex,revised,lu,branch_bound}.rs`); a panic
//!    there must document its invariant via `.expect("...")`.
//! 2. **float-eq** — raw `f64` `==`/`!=` against a float literal is
//!    banned in `crates/ilp/src` and `crates/core/src`; intended
//!    exact-zero tests go through `wishbone_ilp::is_exact_zero`, whose
//!    one definition site carries the `audit:allow(float-eq)` marker.
//! 3. **pub-docs** — every `pub` item in `crates/ilp/src` and
//!    `crates/core/src` carries a doc comment, including items in
//!    private modules `#[warn(missing_docs)]` cannot see.
//! 4. **oracle-anchors** — the differential-oracle encoders
//!    (`encode_multitier`, the binary `Encoding::Restricted` path, the
//!    `SolverBackend::Dense` tableau) must stay referenced from tests,
//!    so they cannot be silently deleted out from under the parity
//!    suite.
//! 5. **entry-points** — `crates/core/src` and `crates/runtime/src` expose
//!    one partitioning path and one simulator: a `pub fn` named
//!    `partition*`, `max_sustainable_rate*` or `simulate_*` outside
//!    [`ENTRY_POINTS`] is a second path growing back.
//!
//! Test modules are exempt from rules 1–3 and 5: by repo convention
//! `#[cfg(test)] mod tests` is the tail of each file, so scanning
//! stops at the first `#[cfg(test)]` line. A site may opt out of a
//! rule with a trailing `// audit:allow(<rule>): <reason>` comment.
//!
//! Exit status is nonzero iff any violation is found, which is what
//! gates CI.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files where `.unwrap()` would panic inside the simplex /
/// branch-and-bound inner loops — or, for the fleet service, take a
/// whole worker thread (and every shape sharded onto it) down with one
/// bad request.
const HOT_PATHS: [&str; 6] = [
    "crates/ilp/src/simplex.rs",
    "crates/ilp/src/revised.rs",
    "crates/ilp/src/lu.rs",
    "crates/ilp/src/sparse.rs",
    "crates/ilp/src/branch_bound.rs",
    "crates/fleet/src/lib.rs",
];

/// Directories whose sources are held to the float-eq and pub-docs
/// rules (the solver and the encoders — where a silent float bug costs
/// the most).
const LINTED_DIRS: [&str; 3] = ["crates/ilp/src", "crates/core/src", "crates/fleet/src"];

/// `(needle, why it must survive)` — each must appear in at least one
/// test file.
const ORACLE_ANCHORS: [(&str, &str); 6] = [
    (
        "encode_multitier",
        "the k-way chain encoder is the parity oracle for deployments",
    ),
    (
        "Encoding::Restricted",
        "the binary restricted encoder anchors the k = 2 parity chain",
    ),
    (
        "SolverBackend::Dense",
        "the dense tableau is the differential oracle for the sparse backend",
    ),
    (
        "PlacementEngine::Approx",
        "the multilevel heuristic's certificates are pinned against the exact ILP",
    ),
    (
        "NullSink::NULL",
        "the trace off path must stay pinned by the zero-overhead byte-identical test",
    ),
    (
        "fleet_batch_matches_serial_one_shot",
        "fleet cache hits must stay bit-identical to serial one-shot solves",
    ),
];

/// Directories held to the entry-points rule.
const ENTRY_POINT_DIRS: [&str; 2] = ["crates/core/src", "crates/runtime/src"];

/// Name prefixes that mark a partitioning / rate-search / simulation
/// entry point.
const ENTRY_POINT_PREFIXES: [&str; 3] = ["partition", "max_sustainable_rate", "simulate_"];

/// The one partitioning path and the one simulator (plus its traced
/// form): every other shape is a `Deployment` / `TreeTopology`
/// constructor, every other behaviour a config field.
const ENTRY_POINTS: [&str; 4] = [
    "partition_deployment",
    "max_sustainable_rate_deployment",
    "simulate_deployment_tree",
    "simulate_deployment_tree_traced",
];

struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // xtask lives at <root>/xtask; its manifest dir's parent is the root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level below the repo root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut violations: Vec<Violation> = Vec::new();

    for rel in HOT_PATHS {
        check_no_unwrap(&root, rel, &mut violations);
    }
    for dir in LINTED_DIRS {
        for file in rust_sources(&root.join(dir)) {
            check_float_eq(&root, &file, &mut violations);
            check_pub_docs(&root, &file, &mut violations);
        }
    }
    check_oracle_anchors(&root, &mut violations);
    for dir in ENTRY_POINT_DIRS {
        for file in rust_sources(&root.join(dir)) {
            check_entry_points(&root, &file, &mut violations);
        }
    }

    if violations.is_empty() {
        println!(
            "xtask lint: clean ({} hot-path files, {} linted dirs, {} anchors)",
            HOT_PATHS.len(),
            LINTED_DIRS.len(),
            ORACLE_ANCHORS.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// The non-test prefix of a source file: by repo convention the
/// `#[cfg(test)] mod tests` block is the file tail, so everything from
/// the first `#[cfg(test)]` on is test code.
fn non_test_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"))
        .map(|(i, l)| (i + 1, l))
}

fn allowed(line: &str, rule: &str) -> bool {
    line.contains(&format!("audit:allow({rule})"))
}

/// Strip string literals and `//` comments so operators inside them
/// don't trip the scanners. Not a full lexer: it handles the escapes
/// that actually occur in this repo's sources.
fn strip_strings_and_comments(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        if in_char {
            match c {
                '\\' => {
                    chars.next();
                }
                '\'' => in_char = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            // A lifetime tick is followed by an identifier char and no
            // closing quote nearby; treating only quoted single chars
            // as char literals keeps lifetimes intact.
            '\'' => {
                let mut look = chars.clone();
                let payload = look.next();
                let is_char_lit = match payload {
                    Some('\\') => true,
                    Some(_) => look.next() == Some('\''),
                    None => false,
                };
                if is_char_lit {
                    in_char = true;
                } else {
                    out.push(c);
                }
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn check_no_unwrap(root: &Path, rel: &str, violations: &mut Vec<Violation>) {
    let path = root.join(rel);
    let Ok(text) = std::fs::read_to_string(&path) else {
        violations.push(Violation {
            file: path,
            line: 0,
            rule: "no-unwrap",
            message: "hot-path file is missing (update xtask if it moved)".to_string(),
        });
        return;
    };
    for (line_no, line) in non_test_lines(&text) {
        if allowed(line, "unwrap") {
            continue;
        }
        if strip_strings_and_comments(line).contains(".unwrap()") {
            violations.push(Violation {
                file: PathBuf::from(rel),
                line: line_no,
                rule: "no-unwrap",
                message: "solver hot path: use .expect(\"<invariant>\") so a panic \
                          names the violated invariant"
                    .to_string(),
            });
        }
    }
}

/// Does `token` look like a float literal (`0.0`, `1e-9`, `2.5f64`)?
fn is_float_literal(token: &str) -> bool {
    let t = token
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.') {
        return false;
    }
    // Distinguish 1.0 / 1e-9 from integer literals like 10.
    (t.contains('.') || t.contains(['e', 'E'])) && t.parse::<f64>().is_ok()
}

fn check_float_eq(root: &Path, path: &Path, violations: &mut Vec<Violation>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    for (line_no, raw) in non_test_lines(&text) {
        if allowed(raw, "float-eq") {
            continue;
        }
        let line = strip_strings_and_comments(raw);
        for op in ["==", "!="] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(op) {
                let at = from + pos;
                from = at + op.len();
                let left = line[..at]
                    .rsplit(|c: char| c.is_whitespace() || "([{,;&|".contains(c))
                    .next()
                    .unwrap_or("");
                let right = line[at + op.len()..]
                    .trim_start()
                    .split(|c: char| c.is_whitespace() || ")]},;&|".contains(c))
                    .next()
                    .unwrap_or("");
                if is_float_literal(left) || is_float_literal(right) {
                    violations.push(Violation {
                        file: rel.clone(),
                        line: line_no,
                        rule: "float-eq",
                        message: format!(
                            "raw float {op} comparison — use wishbone_ilp::is_exact_zero \
                             for exact-zero tests or an explicit epsilon, or annotate \
                             `// audit:allow(float-eq): <reason>`"
                        ),
                    });
                    break;
                }
            }
        }
    }
}

/// Is this trimmed line the start of a `pub` item that needs docs?
fn pub_item_name(trimmed: &str) -> Option<&str> {
    if !trimmed.starts_with("pub ") {
        return None; // pub(crate)/pub(super) are not public API
    }
    let rest = &trimmed[4..];
    // Out-of-line modules (`pub mod x;`) carry their docs as the module
    // file's own `//!` header, which rustdoc accepts.
    if rest.starts_with("mod ") && trimmed.ends_with(';') {
        return None;
    }
    for kw in [
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "mod ",
        "const ",
        "static ",
        "type ",
        "unsafe fn ",
    ] {
        if let Some(after) = rest.strip_prefix(kw) {
            let name: &str = after
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("");
            if !name.is_empty() {
                return Some(name);
            }
        }
    }
    None // `pub use` re-exports inherit their target's docs
}

fn check_pub_docs(root: &Path, path: &Path, violations: &mut Vec<Violation>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    let lines: Vec<&str> = text.lines().collect();
    let test_start = lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());
    for i in 0..test_start {
        let trimmed = lines[i].trim_start();
        if allowed(lines[i], "pub-docs") {
            continue;
        }
        let Some(name) = pub_item_name(trimmed) else {
            continue;
        };
        // Walk upward over attributes/derives to the nearest comment.
        let mut j = i;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let above = lines[j].trim_start();
            if above.starts_with("#[") || above.starts_with(')') || above.starts_with(']') {
                continue; // attribute (possibly multi-line) — keep walking
            }
            documented = above.starts_with("///") || above.starts_with("/**");
            break;
        }
        if !documented {
            violations.push(Violation {
                file: rel.clone(),
                line: i + 1,
                rule: "pub-docs",
                message: format!("public item `{name}` has no doc comment"),
            });
        }
    }
}

fn check_entry_points(root: &Path, path: &Path, violations: &mut Vec<Violation>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    for (line_no, line) in non_test_lines(&text) {
        let trimmed = line.trim_start();
        if !trimmed.starts_with("pub fn ") || allowed(line, "entry-points") {
            continue;
        }
        let Some(name) = pub_item_name(trimmed) else {
            continue;
        };
        if ENTRY_POINT_PREFIXES.iter().any(|p| name.starts_with(p)) && !ENTRY_POINTS.contains(&name)
        {
            violations.push(Violation {
                file: rel.clone(),
                line: line_no,
                rule: "entry-points",
                message: format!(
                    "`{name}` is a second partitioning/simulation entry point — make the \
                     shape a `Deployment`/`TreeTopology` constructor or the behaviour a \
                     config field of the one path ({})",
                    ENTRY_POINTS.join(", ")
                ),
            });
        }
    }
}

fn check_oracle_anchors(root: &Path, violations: &mut Vec<Violation>) {
    // Test corpus: the workspace-level tests/ plus every crate's tests/.
    let mut test_files = rust_sources(&root.join("tests"));
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            test_files.extend(rust_sources(&entry.path().join("tests")));
        }
    }
    let corpus: String = test_files
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .collect();
    for (needle, why) in ORACLE_ANCHORS {
        if !corpus.contains(needle) {
            violations.push(Violation {
                file: PathBuf::from("tests/"),
                line: 0,
                rule: "oracle-anchors",
                message: format!(
                    "no test references `{needle}` — {why}; the parity suite no \
                     longer pins it"
                ),
            });
        }
    }
}
