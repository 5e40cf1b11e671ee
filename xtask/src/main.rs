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
//! 6. **oracle-dev-only** — production compiles one graph model, one
//!    merge, one encoder: no `Cargo.toml` outside `crates/bench` names
//!    `wishbone-oracle` under `[dependencies]`, and `crates/core/src`
//!    declares no free `pub fn encode*` but `encode_deployment` and none of
//!    the binary world's type names ([`ORACLE_ONLY_IDENTS`]).
//!
//! 7. **no-env-knobs** — the shipped crates and the bench tooling
//!    ([`NO_ENV_DIRS`]) read no environment variable (`std::env::var`,
//!    `env::var_os`, `env::vars`): a pricing rule, a tolerance, a sweep
//!    size or any other behaviour selected by the environment is a knob
//!    no signature shows, and it breaks the fleet's "a response is a
//!    function of (shape, request)" contract.
//!
//! 8. **reference-backend-by-request** — no production call reaches the
//!    dense tableau: non-test code in [`SHIPPED_SOLVER_CALLERS`] never
//!    names `SolverBackend::Dense` (a config word hashes the
//!    discriminant instead), and inside `crates/ilp/src` only
//!    [`REFERENCE_BACKEND_HOMES`] do — the enum and the dispatch. The
//!    reference runs when a test, a bench or the benchmark's answer check
//!    asks for it by name, and for no other reason.
//!
//! 9. **bench-one-timer** — the `criterion` stand-in is the only
//!    micro-bench timer and its groups the only instance list: nothing
//!    under [`BENCH_TARGETS`] names `BenchRecord` or defines `fn measure` /
//!    `fn emit_json` (rule 7 covers a variable that would select one).
//!    `BENCH_solver.json` records are built from the stand-in's samples in
//!    `crates/bench/src/lib.rs` and nowhere else.
//!
//! 10. **one-executor** — the simulator runs every site through one
//!     depth-first cascade: outside tests, [`RUNTIME_SRC`] declares
//!     exactly one `pub struct *Executor` and exactly one
//!     `pub struct *Cascade`. A second of either is a per-platform copy of
//!     the cascade growing back; what differs between a mote, a gateway
//!     and the server is a field of the one.
//!
//! 11. **config-surface** — a behaviour is a config field only when
//!     shipped callers need different values: the structs of
//!     [`CONFIG_SURFACE`] declare exactly their counted number of `pub`
//!     fields (one more comes with its callers named in its doc comment
//!     and the count bumped in the same diff), and [`FLEET_SRC`] declares
//!     no `pub struct *Config` — a fleet's one parameter is its worker
//!     count.
//!
//! 12. **one-repro** — the paper's evaluation is one target whose stdout
//!     is the checked-in `REPRO.md`: [`BENCH_MANIFEST`] declares exactly
//!     the three `[[bench]]` targets of [`THE_BENCH_TARGETS`] (`repro`
//!     and the two timing targets), and no file under [`BENCH_TARGETS`]
//!     is named `fig*` or `validation_*` — a figure put back as its own
//!     binary is a fixture and an assert list growing back beside the
//!     claim list.
//!
//! 13. **one-coarsening** — the multilevel seed coarsens once per prepared
//!     instance: outside tests, [`COARSENING_FNS`] are called from
//!     [`THE_COARSENER`] in [`THE_HEURISTIC`] and nowhere else in
//!     `crates/core/src`, and [`PER_SOLVE_PATH`] never calls the one-shot
//!     [`ONE_SHOT_CUT`] — either would be the per-solve path growing its
//!     rebuild of a rate-independent hierarchy back.
//!
//! 14. **one-merge** — the §4.1 merge has one body, fed by two ways in:
//!     outside tests, `crates/core/src` defines [`THE_MERGE`] exactly once,
//!     in [`THE_MERGE_HOME`], calls its [`MERGE_HELPERS`] from that body
//!     only, and [`PER_SOLVE_PATH`] never calls the public
//!     [`MERGE_ADAPTERS`] — the prepare path fills the flat table itself,
//!     and going through the adapters would build the unmerged graph the
//!     table exists to skip.
//!
//! 15. **one-pricing** — the profile prices the program once: outside
//!     tests, [`PRICES`] are called in `crates/core/src` from
//!     [`THE_PRICING_HOME`] only (the merge, the encoder, the multilevel
//!     cut and the decode all read the merged graphs it prices), and
//!     [`PER_SOLVE_PATH`] declares no struct or enum that holds one of
//!     [`CALLER_INPUTS`] — a prepared instance keeping its caller's graph
//!     or profile is the second, per-solve pricing growing back.
//!
//! Test modules are exempt from rules 1–3, 5–11 and 13–15: by repo convention
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
/// rules (the solver, the encoders and their oracles — where a silent
/// float bug costs the most).
const LINTED_DIRS: [&str; 4] = [
    "crates/ilp/src",
    "crates/core/src",
    "crates/fleet/src",
    "crates/oracle/src",
];

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

/// The dev-only oracle crate, and the one manifest that may depend on it
/// outside `[dev-dependencies]` (the bench tooling crate, which nothing
/// in the facade's dependency graph reaches).
const ORACLE_CRATE: &str = "wishbone-oracle";
const ORACLE_DEPENDENT: &str = "crates/bench/Cargo.toml";

/// Where the one encoder lives, and its name.
const CORE_SRC: &str = "crates/core/src";
const THE_ENCODER: &str = "encode_deployment";

/// Type names of the binary world that left `crates/core/src` for the
/// oracle crate; one of them in core's code (doc comments may point at
/// `wishbone_oracle`) is the second graph model or encoder growing back.
const ORACLE_ONLY_IDENTS: [&str; 4] = [
    "PartitionGraph",
    "ObjectiveConfig",
    "EncodedProblem",
    "EncodedMultiTier",
];

/// Directories held to the no-env-knobs rule: every crate the facade
/// ships, and the bench tooling (its switches are `--smoke` / `--json`
/// on the command line; a sweep size is a constant in its target).
const NO_ENV_DIRS: [&str; 10] = [
    "crates/ilp/src",
    "crates/core/src",
    "crates/runtime/src",
    "crates/fleet/src",
    "crates/net/src",
    "crates/dataflow/src",
    "crates/profile/src",
    "crates/trace/src",
    "crates/bench/src",
    "crates/bench/benches",
];

/// Shipped code that configures or drives the solver (rule 8), plus the
/// solver crate itself.
const SHIPPED_SOLVER_CALLERS: [&str; 7] = [
    "crates/ilp/src",
    "crates/core/src",
    "crates/fleet/src",
    "crates/runtime/src",
    "crates/net/src",
    "crates/trace/src",
    "src",
];

/// The reference tableau's variant, and the two files that may name it
/// outside tests: where the enum is declared and where a solve is
/// dispatched on it.
const REFERENCE_BACKEND: &str = "SolverBackend::Dense";
const REFERENCE_BACKEND_HOMES: [&str; 2] =
    ["crates/ilp/src/workspace.rs", "crates/ilp/src/simplex.rs"];

/// Where the bench targets live (rule 9), and what a second timer or a
/// second record list growing back in one of them would have to name.
const BENCH_TARGETS: &str = "crates/bench/benches";
const SECOND_TIMER_NEEDLES: [&str; 3] = ["BenchRecord", "fn measure", "fn emit_json"];

/// The bench crate's manifest and the only `[[bench]]` targets it may
/// declare (rule 12), and how a per-figure target put back would be named.
const BENCH_MANIFEST: &str = ORACLE_DEPENDENT;
const THE_BENCH_TARGETS: [&str; 3] = ["repro", "solver_criterion", "fleet_scaling"];
const PER_FIGURE_PREFIXES: [&str; 2] = ["fig", "validation_"];

/// Where the simulator lives (rule 10), and the name suffixes of which
/// it declares exactly one `pub struct` each.
const RUNTIME_SRC: &str = "crates/runtime/src";
const ONE_OF_EACH: [&str; 2] = ["Executor", "Cascade"];

/// The option structs (rule 11): file, name, counted `pub` fields. And
/// the crate that has none.
const CONFIG_SURFACE: [(&str, &str, usize); 2] = [
    ("crates/core/src/topology.rs", "DeploymentConfig", 5),
    ("crates/ilp/src/branch_bound.rs", "IlpOptions", 6),
];
const FLEET_SRC: &str = "crates/fleet/src";

/// The multilevel heuristic's file (rule 13), its two hierarchy-building
/// functions, the one function that may call them, and the per-solve
/// file that must cut the kept hierarchy instead of the one-shot entry.
const THE_HEURISTIC: &str = "crates/core/src/multilevel.rs";
const COARSENING_FNS: [&str; 2] = ["finest_level", "coarsen"];
const THE_COARSENER: &str = "build";
const PER_SOLVE_PATH: &str = "crates/core/src/topology.rs";
const ONE_SHOT_CUT: &str = "approx_cut";

/// The one §4.1 merge (rule 14): its file, its body's name
/// (`ChainTable::merge`), the helpers only that body calls, and the public
/// adapters onto it that the prepare path must not take.
const THE_MERGE_HOME: &str = "crates/core/src/multitier.rs";
const THE_MERGE: &str = "merge";
const MERGE_HELPERS: [&str; 2] = ["cross_edges", "cyclic_sccs"];
const MERGE_ADAPTERS: [&str; 2] = ["build_tiered_graph", "preprocess_tiered"];

/// The one pricing (rule 15): the file that may ask the profile for
/// prices, the two per-operator / per-edge prices, and the caller's inputs
/// no per-solve type may hold.
const THE_PRICING_HOME: &str = "crates/core/src/multitier.rs";
const PRICES: [&str; 2] = ["cpu_fraction", "edge_on_air_bandwidth"];
const CALLER_INPUTS: [&str; 3] = ["Graph", "GraphProfile", "InputHandle"];

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

    for manifest in manifests(&root) {
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            let rel = manifest.strip_prefix(&root).unwrap_or(&manifest);
            check_oracle_dependency(rel, &text, &mut violations);
        }
    }
    scan(&root, &[CORE_SRC], check_oracle_leak, &mut violations);
    scan(&root, &NO_ENV_DIRS, check_env_knobs, &mut violations);
    scan(
        &root,
        &SHIPPED_SOLVER_CALLERS,
        check_reference_backend,
        &mut violations,
    );
    scan(
        &root,
        &[BENCH_TARGETS],
        check_bench_one_timer,
        &mut violations,
    );
    // A manifest that is gone reads as empty: all three targets are then missing.
    let bench_manifest = std::fs::read_to_string(root.join(BENCH_MANIFEST)).unwrap_or_default();
    let bench_files: Vec<PathBuf> = rust_sources(&root.join(BENCH_TARGETS))
        .iter()
        .map(|file| file.strip_prefix(&root).unwrap_or(file).to_path_buf())
        .collect();
    check_one_repro(&bench_manifest, &bench_files, &mut violations);
    check_one_executor(&sources_under(&root, RUNTIME_SRC), &mut violations);
    for (file, _, _) in CONFIG_SURFACE {
        // A file that is gone reads as empty: its struct is then missing.
        let text = std::fs::read_to_string(root.join(file)).unwrap_or_default();
        check_config_surface(Path::new(file), &text, &mut violations);
    }
    scan(&root, &[FLEET_SRC], check_config_surface, &mut violations);
    scan(&root, &[CORE_SRC], check_one_coarsening, &mut violations);
    check_one_merge(&sources_under(&root, CORE_SRC), &mut violations);
    scan(&root, &[CORE_SRC], check_one_pricing, &mut violations);

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

/// Run a per-file rule over every source under `dirs`, handing it the
/// repo-relative path and the file's text.
fn scan(
    root: &Path,
    dirs: &[&str],
    check: fn(&Path, &str, &mut Vec<Violation>),
    violations: &mut Vec<Violation>,
) {
    for dir in dirs {
        for file in rust_sources(&root.join(dir)) {
            if let Ok(text) = std::fs::read_to_string(&file) {
                check(file.strip_prefix(root).unwrap_or(&file), &text, violations);
            }
        }
    }
}

/// Every source under `dir` with its repo-relative path, for the rules
/// that look across files.
fn sources_under(root: &Path, dir: &str) -> Vec<(PathBuf, String)> {
    rust_sources(&root.join(dir))
        .into_iter()
        .filter_map(|file| {
            let text = std::fs::read_to_string(&file).ok()?;
            Some((file.strip_prefix(root).unwrap_or(&file).to_path_buf(), text))
        })
        .collect()
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

/// Every package manifest of the repo: the root, each `crates/*` and
/// `vendor/*` member, `xtask`, and the stand-alone `benchmark/` package.
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![
        root.to_path_buf(),
        root.join("xtask"),
        root.join("benchmark"),
    ];
    for group in ["crates", "vendor"] {
        if let Ok(entries) = std::fs::read_dir(root.join(group)) {
            dirs.extend(entries.flatten().map(|e| e.path()));
        }
    }
    let mut out: Vec<PathBuf> = dirs
        .into_iter()
        .map(|d| d.join("Cargo.toml"))
        .filter(|m| m.is_file())
        .collect();
    out.sort();
    out
}

/// Rule 6, manifest half: `wishbone-oracle` may appear under
/// `[dev-dependencies]` anywhere, under `[dependencies]` (or a
/// `[build-dependencies]` / `[target.*.dependencies]` table) only in
/// [`ORACLE_DEPENDENT`].
fn check_oracle_dependency(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    if rel == Path::new(ORACLE_DEPENDENT) {
        return;
    }
    let mut flag = |line: usize| {
        violations.push(Violation {
            file: rel.to_path_buf(),
            line,
            rule: "oracle-dev-only",
            message: format!(
                "`{ORACLE_CRATE}` outside [dev-dependencies] — the oracles are dev-only; \
                 production compiles one encoder"
            ),
        })
    };
    // Is this `[table]` name a non-dev dependency table?
    let ships = |table: &str| {
        let last = table.rsplit('.').next().unwrap_or(table);
        last == "dependencies" || last == "build-dependencies"
    };
    let mut in_shipping_table = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(table) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            // `[dependencies.wishbone-oracle]` names the crate in the header.
            match table
                .strip_suffix(ORACLE_CRATE)
                .and_then(|t| t.strip_suffix('.'))
            {
                Some(parent) if ships(parent) => flag(i + 1),
                _ => {}
            }
            in_shipping_table = ships(table);
        } else if in_shipping_table
            && line
                .strip_prefix(ORACLE_CRATE)
                .is_some_and(|rest| rest.trim_start().starts_with(['=', '.']))
        {
            flag(i + 1);
        }
    }
}

/// Does `line` contain `ident` as a whole identifier?
fn mentions_ident(line: &str, ident: &str) -> bool {
    let is_ident_char = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(ident).any(|(at, _)| {
        !line[..at].ends_with(is_ident_char) && !line[at + ident.len()..].starts_with(is_ident_char)
    })
}

/// Rule 6, source half, over one `crates/core/src` file: the only free
/// `pub fn encode` / `encode_*` is [`THE_ENCODER`], and no code names a
/// type of [`ORACLE_ONLY_IDENTS`].
fn check_oracle_leak(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    for (line_no, raw) in non_test_lines(text) {
        if allowed(raw, "oracle-dev-only") {
            continue;
        }
        let mut flag = |message: String| {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: line_no,
                rule: "oracle-dev-only",
                message,
            })
        };
        // Encoders are free functions; `PreparedDeployment::encodes()` and
        // friends are indented methods.
        if let Some(name) = pub_item_name(raw).filter(|_| raw.starts_with("pub fn ")) {
            if (name == "encode" || name.starts_with("encode_")) && name != THE_ENCODER {
                flag(format!(
                    "`{name}` is a second encoder in `{CORE_SRC}` — `{THE_ENCODER}` is the \
                     only one production compiles; oracles live in `crates/oracle`"
                ));
            }
        }
        let code = strip_strings_and_comments(raw);
        for ident in ORACLE_ONLY_IDENTS {
            if mentions_ident(&code, ident) {
                flag(format!(
                    "`{ident}` belongs to the dev-only `crates/oracle`, not `{CORE_SRC}`"
                ));
            }
        }
    }
}

/// Rule 7 over one shipped source file: no runtime read of the process
/// environment (`env::var`, `env::var_os`, `env::vars`, `env::vars_os` —
/// the compile-time `env!` macro is not one).
fn check_env_knobs(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    for (line_no, raw) in non_test_lines(text) {
        if allowed(raw, "no-env-knobs") {
            continue;
        }
        if strip_strings_and_comments(raw).contains("env::var") {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: line_no,
                rule: "no-env-knobs",
                message: "a shipped crate reads the environment — behaviour selected there \
                          is a hidden knob; make it an argument or a config field"
                    .to_string(),
            });
        }
    }
}

/// Rule 8 over one shipped source file: outside
/// [`REFERENCE_BACKEND_HOMES`], non-test code does not name the reference
/// backend (doc comments may).
fn check_reference_backend(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    if REFERENCE_BACKEND_HOMES.iter().any(|h| rel == Path::new(h)) {
        return;
    }
    for (line_no, raw) in non_test_lines(text) {
        if allowed(raw, "reference-backend-by-request") {
            continue;
        }
        if strip_strings_and_comments(raw).contains(REFERENCE_BACKEND) {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: line_no,
                rule: "reference-backend-by-request",
                message: format!(
                    "shipped code names `{REFERENCE_BACKEND}` — the dense tableau is the \
                     tests' reference and runs only when a caller asks for it; production \
                     solves on the sparse backend at every size"
                ),
            });
        }
    }
}

/// Rule 9 over one bench target: `BenchRecord` anywhere in code, or a
/// `fn measure` / `fn emit_json` definition.
fn check_bench_one_timer(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    for (line_no, raw) in non_test_lines(text) {
        if allowed(raw, "bench-one-timer") {
            continue;
        }
        let code = strip_strings_and_comments(raw);
        let Some(needle) = SECOND_TIMER_NEEDLES
            .iter()
            .find(|needle| mentions_ident(&code, needle))
        else {
            continue;
        };
        violations.push(Violation {
            file: rel.to_path_buf(),
            line: line_no,
            rule: "bench-one-timer",
            message: format!(
                "a bench target has `{needle}` — time the instance in a criterion group and \
                 let `wishbone_bench::merge_bench_json` write what the group measured; \
                 `--smoke` and `--json` are the only switches"
            ),
        });
    }
}

/// Rule 12: `manifest` (the text of [`BENCH_MANIFEST`]) declares exactly
/// [`THE_BENCH_TARGETS`], and none of `files` (the sources under
/// [`BENCH_TARGETS`]) is named like a per-figure target.
fn check_one_repro(manifest: &str, files: &[PathBuf], violations: &mut Vec<Violation>) {
    let mut flag = |file: &Path, line: usize, message: String| {
        violations.push(Violation {
            file: file.to_path_buf(),
            line,
            rule: "one-repro",
            message,
        })
    };
    let mut declared: Vec<&str> = Vec::new();
    let mut in_bench = false;
    for (i, raw) in manifest.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
            continue;
        }
        let key_value = line.split_once('=').map(|(k, v)| (k.trim(), v.trim()));
        let Some(("name", value)) = key_value.filter(|_| in_bench) else {
            continue;
        };
        let name = value.trim_matches('"');
        if !THE_BENCH_TARGETS.contains(&name) || declared.contains(&name) {
            let message = format!(
                "`[[bench]]` target `{name}` — the bench crate has exactly the targets \
                 {THE_BENCH_TARGETS:?}; a figure or validation experiment is a function of \
                 `repro.rs` and its asserts are claims on the one list"
            );
            flag(Path::new(BENCH_MANIFEST), i + 1, message);
        }
        declared.push(name);
    }
    for missing in THE_BENCH_TARGETS.iter().filter(|t| !declared.contains(t)) {
        let message = format!("`[[bench]]` target `{missing}` is not declared");
        flag(Path::new(BENCH_MANIFEST), 1, message);
    }
    for file in files {
        let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if PER_FIGURE_PREFIXES.iter().any(|p| stem.starts_with(p)) {
            let message = format!(
                "a per-figure bench source — fold `{stem}` into `repro.rs`, whose stdout is \
                 `REPRO.md`"
            );
            flag(file, 1, message);
        }
    }
}

/// The name a line declares as a `pub struct`, if it does.
fn pub_struct_name(raw: &str) -> Option<&str> {
    let decl = raw.trim_start();
    pub_item_name(decl).filter(|_| decl.starts_with("pub struct "))
}

/// Rule 10 over the sources of [`RUNTIME_SRC`] (repo-relative path, text):
/// for each suffix of [`ONE_OF_EACH`], exactly one non-test `pub struct`
/// whose name ends in it.
fn check_one_executor(sources: &[(PathBuf, String)], violations: &mut Vec<Violation>) {
    for suffix in ONE_OF_EACH {
        let mut decls = sources.iter().flat_map(|(rel, text)| {
            non_test_lines(text).filter_map(move |(line_no, raw)| {
                let name = pub_struct_name(raw).filter(|name| name.ends_with(suffix))?;
                (!allowed(raw, "one-executor")).then_some((rel, line_no, name))
            })
        });
        let Some((_, _, first)) = decls.next() else {
            violations.push(Violation {
                file: PathBuf::from(RUNTIME_SRC),
                line: 0,
                rule: "one-executor",
                message: format!("no `pub struct *{suffix}` — the one site executor is gone"),
            });
            continue;
        };
        for (rel, line_no, name) in decls {
            violations.push(Violation {
                file: rel.clone(),
                line: line_no,
                rule: "one-executor",
                message: format!(
                    "`{name}` is a second `*{suffix}` beside `{first}` — sites differ by what \
                     they host and whether they have a task model, not by a copy of the cascade"
                ),
            });
        }
    }
}

/// Rule 11 over one source file: a struct of [`CONFIG_SURFACE`] declares
/// its counted number of `pub` fields in the file the table names, and a
/// file under [`FLEET_SRC`] declares no `pub struct *Config`.
fn check_config_surface(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    let mut found = Vec::new();
    for (_, name, counted) in CONFIG_SURFACE.iter().filter(|s| rel == Path::new(s.0)) {
        let mut lines =
            non_test_lines(text).skip_while(|(_, raw)| pub_struct_name(raw) != Some(name));
        let decl_line = lines.next().map_or(0, |(line_no, _)| line_no);
        let fields = lines
            .take_while(|(_, raw)| !raw.starts_with('}'))
            .filter(|(_, raw)| raw.trim_start().starts_with("pub "))
            .count();
        if fields != *counted {
            found.push((
                decl_line,
                format!(
                    "`{name}` declares {fields} `pub` fields, {counted} are counted — a new \
                     field names the shipped callers that need different values and bumps \
                     the count; one nothing sets is a constant"
                ),
            ));
        }
    }
    if rel.starts_with(FLEET_SRC) {
        let configs = non_test_lines(text).filter(|(_, raw)| !allowed(raw, "config-surface"));
        found.extend(configs.filter_map(|(line_no, raw)| {
            let name = pub_struct_name(raw).filter(|name| name.ends_with("Config"))?;
            let fix = "a fleet's one parameter is its worker count — `FleetServer::new`";
            Some((line_no, format!("`{name}`: {fix}")))
        }));
    }
    violations.extend(found.into_iter().map(|(line, message)| Violation {
        file: rel.to_path_buf(),
        line,
        rule: "config-surface",
        message,
    }));
}

/// Does `code` call `name` — `name(` as a whole identifier, not its own
/// `fn name(` definition?
fn calls(code: &str, name: &str) -> bool {
    let is_ident_char = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(name).any(|(at, _)| {
        let (before, after) = (&code[..at], &code[at + name.len()..]);
        !before.ends_with(is_ident_char)
            && after.starts_with('(')
            && !before.trim_end().ends_with("fn")
    })
}

/// Rule 13 over one `crates/core/src` file: [`COARSENING_FNS`] are called
/// only inside a `fn` named [`THE_COARSENER`] of [`THE_HEURISTIC`], and
/// [`PER_SOLVE_PATH`] does not call [`ONE_SHOT_CUT`].
fn check_one_coarsening(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    let is_ident_char = |c: &char| c.is_alphanumeric() || *c == '_';
    let mut current_fn = String::new();
    for (line_no, raw) in non_test_lines(text) {
        let code = strip_strings_and_comments(raw);
        if let Some((_, name)) = code.split_once("fn ") {
            current_fn = name.chars().take_while(is_ident_char).collect();
        }
        if allowed(raw, "one-coarsening") {
            continue;
        }
        let mut flag = |message: String| {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: line_no,
                rule: "one-coarsening",
                message,
            })
        };
        let in_the_coarsener = rel == Path::new(THE_HEURISTIC) && current_fn == THE_COARSENER;
        for name in COARSENING_FNS {
            if calls(&code, name) && !in_the_coarsener {
                flag(format!(
                    "`{name}(` outside `CutHierarchy::{THE_COARSENER}` — the hierarchy reads no                      count, budget or rate and is built once per prepared instance; cut the                      kept one"
                ));
            }
        }
        if rel == Path::new(PER_SOLVE_PATH) && calls(&code, ONE_SHOT_CUT) {
            flag(format!(
                "`{ONE_SHOT_CUT}(` on the per-solve path rebuilds the hierarchy at every                  solve — `PreparedDeployment` cuts the `CutHierarchy` it built at preparation"
            ));
        }
    }
}

/// Rule 14 over `crates/core/src`: one definition of [`THE_MERGE`], in
/// [`THE_MERGE_HOME`]; [`MERGE_HELPERS`] called from inside it only; no
/// [`MERGE_ADAPTERS`] call in [`PER_SOLVE_PATH`].
fn check_one_merge(sources: &[(PathBuf, String)], violations: &mut Vec<Violation>) {
    let is_ident_char = |c: &char| c.is_alphanumeric() || *c == '_';
    let mut definitions: Vec<(PathBuf, usize)> = Vec::new();
    for (rel, text) in sources {
        let mut current_fn = String::new();
        for (line_no, raw) in non_test_lines(text) {
            let code = strip_strings_and_comments(raw);
            if let Some((_, name)) = code.split_once("fn ") {
                current_fn = name.chars().take_while(is_ident_char).collect();
            }
            if allowed(raw, "one-merge") {
                continue;
            }
            if code.contains("fn ") && current_fn == THE_MERGE {
                definitions.push((rel.clone(), line_no));
            }
            let mut flag = |message: String| {
                violations.push(Violation {
                    file: rel.clone(),
                    line: line_no,
                    rule: "one-merge",
                    message,
                })
            };
            let in_the_merge = rel == Path::new(THE_MERGE_HOME) && current_fn == THE_MERGE;
            for name in MERGE_HELPERS {
                if calls(&code, name) && !in_the_merge {
                    flag(format!(
                        "`{name}(` outside `ChainTable::{THE_MERGE}` — a second merge body \
                         growing beside the one"
                    ));
                }
            }
            if rel == Path::new(PER_SOLVE_PATH) {
                for name in MERGE_ADAPTERS {
                    if calls(&code, name) {
                        flag(format!(
                            "`{name}(` on the prepare path builds the unmerged graph — fill \
                             the flat `ChainTable` and merge it"
                        ));
                    }
                }
            }
        }
    }
    let home = definitions
        .iter()
        .position(|(rel, _)| rel == Path::new(THE_MERGE_HOME));
    if home.is_none() {
        violations.push(Violation {
            file: PathBuf::from(THE_MERGE_HOME),
            line: 0,
            rule: "one-merge",
            message: format!("no `fn {THE_MERGE}` — the §4.1 merge body is gone"),
        });
    }
    for (i, (file, line)) in definitions.into_iter().enumerate() {
        if Some(i) != home {
            violations.push(Violation {
                file,
                line,
                rule: "one-merge",
                message: format!("a second `fn {THE_MERGE}` — the §4.1 merge has one body"),
            });
        }
    }
}

/// Rule 15 over one `crates/core/src` file: no [`PRICES`] call outside
/// [`THE_PRICING_HOME`], and in [`PER_SOLVE_PATH`] no struct or enum whose
/// declaration or body names one of [`CALLER_INPUTS`].
fn check_one_pricing(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    // Brace depth, and the depth at which an open struct / enum body closes.
    let (mut depth, mut body): (usize, Option<usize>) = (0, None);
    for (line_no, raw) in non_test_lines(text) {
        let code = strip_strings_and_comments(raw);
        let declares = mentions_ident(&code, "struct") || mentions_ident(&code, "enum");
        if declares && body.is_none() && code.contains('{') {
            body = Some(depth);
        }
        let in_type = declares || body.is_some();
        depth = (depth + code.matches('{').count()).saturating_sub(code.matches('}').count());
        if body.is_some_and(|open| depth <= open) {
            body = None;
        }
        if allowed(raw, "one-pricing") {
            continue;
        }
        let mut flag = |message: String| {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: line_no,
                rule: "one-pricing",
                message,
            })
        };
        if rel != Path::new(THE_PRICING_HOME) {
            for name in PRICES.iter().filter(|name| calls(&code, name)) {
                flag(format!(
                    "`{name}(` outside `{THE_PRICING_HOME}` — the merged leaf graphs carry the \
                     one pricing; read their costs"
                ));
            }
        }
        if rel == Path::new(PER_SOLVE_PATH) && in_type {
            for ident in CALLER_INPUTS
                .iter()
                .filter(|ident| mentions_ident(&code, ident))
            {
                flag(format!(
                    "a type in `{PER_SOLVE_PATH}` holds `{ident}` — a prepared instance reads \
                     its caller's inputs while it prepares and keeps nothing of theirs"
                ));
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn leaks(source: &str) -> Vec<String> {
        let mut v = Vec::new();
        check_oracle_leak(Path::new("crates/core/src/encodings.rs"), source, &mut v);
        assert!(v.iter().all(|x| x.rule == "oracle-dev-only"));
        v.iter()
            .map(|x| format!("{}: {}", x.line, x.message))
            .collect()
    }

    fn bad_deps(manifest: &str, toml: &str) -> Vec<usize> {
        let mut v = Vec::new();
        check_oracle_dependency(Path::new(manifest), toml, &mut v);
        v.iter().map(|x| x.line).collect()
    }

    #[test]
    fn oracle_dev_only_fires_on_an_encoder_put_back_into_core() {
        let source = "\
/// Build the k-way monotone-cut ILP.
pub fn encode_multitier(tg: &TieredGraph, obj: &TierObjective) -> EncodedMultiTier {
    todo!()
}
";
        let found = leaks(source);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("2: `encode_multitier` is a second encoder"));
        assert!(found[1].starts_with("2: `EncodedMultiTier` belongs to the dev-only"));
    }

    #[test]
    fn oracle_dev_only_passes_the_one_encoder_docs_and_test_tails() {
        let source = "\
/// Degenerates into `wishbone_oracle::encode_multitier` / `EncodedMultiTier`.
pub fn encode_deployment(leaves: &[LeafChain<'_>]) -> EncodedDeployment {
    let not_a_type = \"PartitionGraph\"; // nor here: ObjectiveConfig
    let my_PartitionGraph_like = 0;
    todo!()
}
fn encode_helper() {}
impl PreparedDeployment<'_> {
    pub fn encodes(&self) -> u32 { 1 }
    pub fn encode_seconds(&self) -> f64 { 0.0 }
}
#[cfg(test)]
mod tests {
    pub fn encode_anything(pg: &PartitionGraph) {}
}
";
        assert_eq!(leaks(source), Vec::<String>::new());
        assert_eq!(
            leaks("use crate::cost_graph::{PartitionGraph, Pin};").len(),
            1
        );
    }

    #[test]
    fn no_env_knobs_fires_on_runtime_reads_outside_tests() {
        let source = "\
use std::env;
/// Leaving-row rule.
fn pricing() -> bool {
    std::env::var(\"WISHBONE_PRICING\").is_ok() // line 4
        || env::var_os(\"WISHBONE_DSE\").is_some()
}
const ROOT: &str = env!(\"CARGO_MANIFEST_DIR\");
// std::env::var in a comment, and \"env::var\" in a string
fn quoted() -> &'static str { \"env::var\" }
fn allowed() { let _ = std::env::vars(); } // audit:allow(no-env-knobs): demo
#[cfg(test)]
mod tests {
    fn t() { std::env::var(\"X\").ok(); }
}
";
        let mut v = Vec::new();
        check_env_knobs(Path::new("crates/ilp/src/revised.rs"), source, &mut v);
        assert!(v.iter().all(|x| x.rule == "no-env-knobs"));
        assert_eq!(v.iter().map(|x| x.line).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn bench_one_timer_fires_on_a_second_timer_or_record_list_put_back() {
        let source = "\
use wishbone_bench::{merge_bench_json, BenchRecord}; // line 1
/// Median wall-clock of `reps` runs of `f` (a doc comment may say measure).
fn measure(reps: usize, mut f: impl FnMut()) -> u128 { 0 } // line 3
fn emit_json(reps: usize) { // line 4
    records.push(BenchRecord { bench: name, median_ns }); // line 5
}
fn main() {
    let json = std::env::var_os(\"WISHBONE_BENCH_JSON\").is_some(); // line 8
    fn remeasure() {} fn measure_all() {} let s = \"fn measure, BenchRecord\";
    merge_bench_json(\"solver_criterion\", &timed); // WISHBONE_BENCH_JSON is gone
    let old = legacy::BenchRecord::new(); // audit:allow(bench-one-timer): demo
}
";
        let mut v = Vec::new();
        let target = Path::new("crates/bench/benches/solver_criterion.rs");
        check_bench_one_timer(target, source, &mut v);
        assert!(v.iter().all(|x| x.rule == "bench-one-timer"));
        let found: Vec<(usize, &str)> = v
            .iter()
            .map(|x| (x.line, x.message.split(" — ").next().unwrap_or("")))
            .collect();
        assert_eq!(
            found,
            [
                (1, "a bench target has `BenchRecord`"),
                (3, "a bench target has `fn measure`"),
                (4, "a bench target has `fn emit_json`"),
                (5, "a bench target has `BenchRecord`"),
            ]
        );
        // The variable on line 8 is rule 7's, now that it scans here too.
        let mut v = Vec::new();
        check_env_knobs(target, source, &mut v);
        assert_eq!(v.iter().map(|x| x.line).collect::<Vec<_>>(), vec![8]);
    }

    #[test]
    fn one_repro_fires_on_a_per_figure_target_put_back() {
        let manifest = |names: &[&str]| -> String {
            let target = |n: &&str| format!("[[bench]]\nname = \"{n}\"\nharness = false\n\n");
            let head = "[package]\nname = \"wishbone-bench\"\n\n[dependencies]\n\n";
            head.to_string() + &names.iter().map(target).collect::<String>()
        };
        let files = |names: &[&str]| -> Vec<PathBuf> {
            let path = |n: &&str| Path::new(BENCH_TARGETS).join(format!("{n}.rs"));
            names.iter().map(path).collect()
        };
        let found = |names: &[&str]| {
            let mut v = Vec::new();
            check_one_repro(&manifest(names), &files(names), &mut v);
            assert!(v.iter().all(|x| x.rule == "one-repro"));
            v.iter()
                .map(|x| (x.file.to_string_lossy().into_owned(), x.line))
                .collect::<Vec<_>>()
        };
        assert_eq!(found(&THE_BENCH_TARGETS), []);
        // Fig 9 and the validation target put back as their own binaries:
        // two manifest entries (lines 15 and 19) and two source files.
        let put_back = [
            "repro",
            "solver_criterion",
            "fig9_single_mote_goodput",
            "validation_predictions",
            "fleet_scaling",
        ];
        assert_eq!(
            found(&put_back),
            [
                (BENCH_MANIFEST.to_string(), 15),
                (BENCH_MANIFEST.to_string(), 19),
                (
                    "crates/bench/benches/fig9_single_mote_goodput.rs".to_string(),
                    1
                ),
                (
                    "crates/bench/benches/validation_predictions.rs".to_string(),
                    1
                ),
            ]
        );
        // `repro` itself deleted, or declared twice: not three targets either.
        assert_eq!(
            found(&["solver_criterion", "fleet_scaling"]),
            [(BENCH_MANIFEST.to_string(), 1)]
        );
        let mut v = Vec::new();
        let twice = manifest(&["repro", "repro", "solver_criterion", "fleet_scaling"]);
        check_one_repro(&twice, &files(&THE_BENCH_TARGETS), &mut v);
        assert_eq!(v.len(), 1);
        // The committed manifest and directory are clean.
        let manifest = std::fs::read_to_string(repo_root().join(BENCH_MANIFEST)).unwrap();
        let files = rust_sources(&repo_root().join(BENCH_TARGETS));
        let mut v = Vec::new();
        check_one_repro(&manifest, &files, &mut v);
        assert!(
            v.is_empty(),
            "{}",
            v.iter().map(|x| x.to_string()).collect::<String>()
        );
    }

    #[test]
    fn config_surface_fires_on_a_field_or_a_fleet_config_put_back() {
        let found = |file: &str, source: &str| {
            let mut v = Vec::new();
            check_config_surface(Path::new(file), source, &mut v);
            assert!(v.iter().all(|x| x.rule == "config-surface"));
            v.iter().map(|x| x.line).collect::<Vec<_>>()
        };
        let options = "\
/// Options controlling the search.
pub struct IlpOptions { // line 2
    /// Gap.
    pub rel_gap: f64,
    pub max_nodes: u64,
    pub time_limit: Option<Duration>,
    pub warm_lp: bool,
    pub warm_solution: Option<Vec<f64>>,
    pub backend: SolverBackend,
}
pub struct IlpStats { pub nodes: u64, }
";
        let ilp = "crates/ilp/src/branch_bound.rs";
        assert_eq!(found(ilp, options), vec![]);
        assert_eq!(
            found(
                ilp,
                &options.replace("    /// Gap.", "    pub presolve: bool,")
            ),
            vec![2]
        );
        assert_eq!(found(ilp, "pub struct IlpStats;"), vec![0]);

        let fleet = "\
pub struct FleetServer { txs: Vec<Tx> }
pub struct FleetConfig { pub workers: usize } // line 2
pub struct ConfigReport; // `Config` is not its suffix
pub struct OldConfig; // audit:allow(config-surface): demo
#[cfg(test)]
mod tests {
    pub struct TestConfig;
}
";
        assert_eq!(found("crates/fleet/src/lib.rs", fleet), vec![2]);
        assert_eq!(found("crates/core/src/shape.rs", fleet), vec![]);
    }

    #[test]
    fn one_coarsening_fires_on_a_per_solve_rebuild_put_back() {
        let lines = |file: &str, source: &str| {
            let mut v = Vec::new();
            check_one_coarsening(Path::new(file), source, &mut v);
            assert!(v.iter().all(|x| x.rule == "one-coarsening"));
            v.iter().map(|x| x.line).collect::<Vec<_>>()
        };
        let kept = "\
fn finest_level(leaf: &LeafChain<'_>) -> Option<CLevel> { None }
/// Calls `coarsen(top)` until it converges — in a doc comment, fine.
fn coarsen(fine: &CLevel) -> Option<CLevel> { None }
impl CutHierarchy {
    pub(crate) fn build(leaves: &[LeafChain<'_>]) -> Option<CutHierarchy> {
        let mut stack = vec![finest_level(leaf)?];
        match coarsen(top) {
        }
    }
    pub(crate) fn cut(&self, counts: &[f64]) -> Option<ApproxCut> { None }
}
pub fn approx_cut(leaves: &[LeafChain<'_>]) -> Option<ApproxCut> {
    CutHierarchy::build(leaves)?.cut(&counts, obj, rate)
}
#[cfg(test)]
mod tests {
    fn t() { let _ = coarsen(&finest_level(&leaf).unwrap()); }
}
";
        assert_eq!(lines(THE_HEURISTIC, kept), Vec::<usize>::new());
        // The parent's `approx_cut`: a hierarchy per call.
        let rebuilt = kept.replace(
            "    CutHierarchy::build(leaves)?.cut(&counts, obj, rate)",
            "    let mut stack = vec![finest_level(leaf)?]; // line 13\n    \
             while let Some(next) = coarsen(stack.last()?) { stack.push(next); }\n    \
             let fine = recoarsen(top); // another name\n    \
             let old = coarsen(top); // audit:allow(one-coarsening): demo",
        );
        assert_eq!(lines(THE_HEURISTIC, &rebuilt), vec![13, 14]);
        // A `build` elsewhere in core is not the coarsener.
        assert_eq!(lines("crates/core/src/shape.rs", kept), vec![6, 7]);

        let per_solve = "\
use crate::multilevel::{approx_cut, CutHierarchy};
fn approx_values(&self, rate: f64) -> Option<(Vec<f64>, f64)> {
    let cut = crate::multilevel::approx_cut(&chains, &self.obj, rate)?; // line 3
    report.assert_no_errors(\"approx_cut(..) assignment\");
}
#[cfg(test)]
mod tests {
    fn t() { let _ = approx_cut(&chains, &obj, 1.0); }
}
";
        assert_eq!(lines(PER_SOLVE_PATH, per_solve), vec![3]);
        assert_eq!(
            lines("crates/core/src/drift.rs", per_solve),
            Vec::<usize>::new()
        );
        // The committed core is clean.
        let mut v = Vec::new();
        scan(&repo_root(), &[CORE_SRC], check_one_coarsening, &mut v);
        assert!(
            v.is_empty(),
            "{}",
            v.iter().map(|x| x.to_string()).collect::<String>()
        );
    }

    #[test]
    fn one_merge_fires_on_a_second_merge_or_the_unmerged_graph_put_back() {
        let found = |sources: &[(&str, &str)]| {
            let sources: Vec<(PathBuf, String)> = sources
                .iter()
                .map(|&(rel, text)| (PathBuf::from(rel), text.to_string()))
                .collect();
            let mut v = Vec::new();
            check_one_merge(&sources, &mut v);
            assert!(v.iter().all(|x| x.rule == "one-merge"));
            v.iter()
                .map(|x| (x.file.display().to_string(), x.line))
                .collect::<Vec<_>>()
        };
        let kept = "\
pub fn build_tiered_graph(graph: &Graph) -> TieredGraph { ChainTable::from_graph(graph).to_tiered() }
impl ChainTable {
    pub(crate) fn merge(&self, obj: &TierObjective) -> TieredPreprocessResult {
        let cross = self.cross_edges(&classes);
        let cycles = cyclic_sccs(&start, &adj);
    }
    fn cross_edges(&self, classes: &Quotient) -> Vec<usize> { vec![] }
}
/// Calls `cyclic_sccs(..)` — in a doc comment, fine.
pub fn preprocess_tiered(tg: &TieredGraph) -> TieredPreprocessResult {
    ChainTable::from_tiered(tg).merge(obj)
}
fn cyclic_sccs(start: &[usize], adj: &[usize]) -> Vec<Vec<usize>> { vec![] }
#[cfg(test)]
mod tests {
    fn merge(tg: &TieredGraph) { let _ = cyclic_sccs(&[0], &[]); }
}
";
        let prepare = "\
fn build(graph: &Graph) -> Result<Self, PartitionError> {
    let mut table = ChainTable::from_graph(&graph, cfg.mode)?;
    let merged = table.merge(&dep.leaf_objective(leaf))?;
}
#[cfg(test)]
mod tests {
    fn t() { let _ = preprocess_tiered(&build_tiered_graph(&g), &obj); }
}
";
        let (home, topology) = (THE_MERGE_HOME, PER_SOLVE_PATH);
        assert_eq!(found(&[(home, kept), (topology, prepare)]), vec![]);

        // The parent's prepare path: the unmerged graph, then the adapter.
        let unmerged = prepare.replace(
            "    let merged = table.merge(&dep.leaf_objective(leaf))?;",
            "    let tg0 = build_tiered_graph(&graph, &profile, &platforms)?; // line 3\n    \
             let merged = preprocess_tiered(&tg0, &dep.leaf_objective(leaf))?;",
        );
        assert_eq!(
            found(&[(home, kept), (topology, &unmerged)]),
            vec![(topology.to_string(), 3), (topology.to_string(), 4)]
        );
        // A second body beside the one: its own definition, and the
        // helpers called from outside `ChainTable::merge`.
        let second = "\
fn merge(tg: &TieredGraph) -> TieredPreprocessResult { // line 1
    let cycles = cyclic_sccs(&start, &adj);
    let old = cyclic_sccs(&start, &adj); // audit:allow(one-merge): demo
}
";
        assert_eq!(
            found(&[(home, kept), ("crates/core/src/shape.rs", second)]),
            vec![
                ("crates/core/src/shape.rs".to_string(), 2),
                ("crates/core/src/shape.rs".to_string(), 1),
            ]
        );
        // No body at all.
        assert_eq!(found(&[(topology, prepare)]), vec![(home.to_string(), 0)]);
        // The committed core is clean.
        let mut v = Vec::new();
        check_one_merge(&sources_under(&repo_root(), CORE_SRC), &mut v);
        assert!(
            v.is_empty(),
            "{}",
            v.iter().map(|x| x.to_string()).collect::<String>()
        );
    }

    #[test]
    fn one_pricing_fires_on_a_second_pricing_or_a_kept_input_put_back() {
        let lines = |file: &str, source: &str| {
            let mut v = Vec::new();
            check_one_pricing(Path::new(file), source, &mut v);
            assert!(v.iter().all(|x| x.rule == "one-pricing"));
            v.iter().map(|x| x.line).collect::<Vec<_>>()
        };
        let kept = "\
/// Per-leaf state: a `Graph`'s merged view (a doc comment may say so).
struct PreparedLeaf {
    path: Vec<SiteId>,
    graph: crate::multitier::TieredGraph,
}
pub struct PreparedDeployment<'a> {
    _marker: PhantomData<&'a ()>,
    leaves: Vec<PreparedLeaf>,
}
impl<'a> PreparedDeployment<'a> {
    pub fn new(graph: &Graph, profile: &GraphProfile) -> Result<Self, PartitionError> {
        table.price(profile, &platforms, rate_factor);
        Ok(PreparedDeployment { _marker: PhantomData, leaves })
    }
    fn decode_partition(&self, values: &[f64], rate: f64) -> DeploymentPartition {
        predicted_cpu[t] += vert.cpu_cost[t];
    }
}
#[cfg(test)]
mod tests {
    struct Fixture { graph: Graph }
    fn t() { let _ = prof.cpu_fraction(op, &phone); }
}
";
        assert_eq!(lines(PER_SOLVE_PATH, kept), Vec::<usize>::new());
        // The parent's instance: the inputs kept, the decode pricing again.
        let parent = kept
            .replace(
                "    _marker: PhantomData<&'a ()>,",
                "    graph: InputHandle<'a, Graph>, // line 7\n    \
                 profile: InputHandle<'a, GraphProfile>,",
            )
            .replace(
                "        predicted_cpu[t] += vert.cpu_cost[t];",
                "        predicted_cpu[t] += self.profile.cpu_fraction(id, platform) * rate;",
            )
            .replace(
                "#[cfg(test)]",
                "enum InputHandle<'a, T> { // line 20\n    Borrowed(&'a T),\n}\n\
                 struct Inputs(Arc<Graph>); // line 23\n#[cfg(test)]",
            );
        assert_eq!(lines(PER_SOLVE_PATH, &parent), vec![7, 7, 8, 8, 17, 20, 23]);
        // Only the instance's file is held to the field half; every core
        // file but the pricing home to the call half.
        let pricing = "\
fn price(&mut self, profile: &GraphProfile, platforms: &[&Platform]) {
    self.cpu.extend(platforms.iter().map(|p| profile.cpu_fraction(op, p)));
    let bw = profile.edge_on_air_bandwidth(eid, p); // audit:allow(one-pricing): demo
    let link = profile.edge_on_air_bandwidth(eid, p);
}
struct Table { graph: Graph }
";
        assert_eq!(lines(THE_PRICING_HOME, pricing), Vec::<usize>::new());
        assert_eq!(lines("crates/core/src/multilevel.rs", pricing), vec![2, 4]);
        // The committed core is clean.
        let mut v = Vec::new();
        scan(&repo_root(), &[CORE_SRC], check_one_pricing, &mut v);
        assert!(
            v.is_empty(),
            "{}",
            v.iter().map(|x| x.to_string()).collect::<String>()
        );
    }

    #[test]
    fn one_executor_fires_on_a_per_platform_copy_put_back_and_on_none() {
        let exec = "\
/// Result of pushing one element through a site.
pub struct Cascade { pub cpu_seconds: f64 }
/// Executes the operators placed at one site.
pub struct SiteExecutor { hosted: Vec<bool> }
pub(crate) struct ScratchExecutor; // crate-private: not a second door
pub struct ExecutorConfig; // `Executor` is not its suffix
#[cfg(test)]
mod tests {
    pub struct FakeExecutor;
}
";
        let copy = "\
/// Result of delivering one element to a relay tier.
pub struct RelayCascade { pub cpu_seconds: f64 } // line 2
pub struct LegacyCascade; // audit:allow(one-executor): demo
    pub struct RelayExecutor { hosted: Vec<bool> } // line 4
";
        let found = |sources: &[(&str, &str)]| {
            let sources: Vec<(PathBuf, String)> = sources
                .iter()
                .map(|&(rel, text)| (PathBuf::from(rel), text.to_string()))
                .collect();
            let mut v = Vec::new();
            check_one_executor(&sources, &mut v);
            assert!(v.iter().all(|x| x.rule == "one-executor"));
            v.iter()
                .map(|x| (x.file.display().to_string(), x.line))
                .collect::<Vec<_>>()
        };
        let (exec_rs, tree_rs) = ("crates/runtime/src/exec.rs", "crates/runtime/src/tree.rs");
        assert_eq!(found(&[(exec_rs, exec)]), vec![]);
        assert_eq!(
            found(&[(exec_rs, exec), (tree_rs, copy)]),
            vec![(tree_rs.to_string(), 4), (tree_rs.to_string(), 2)]
        );
        assert_eq!(
            found(&[(tree_rs, "pub fn simulate_deployment_tree() {}")]),
            vec![(RUNTIME_SRC.to_string(), 0), (RUNTIME_SRC.to_string(), 0)]
        );
    }

    #[test]
    fn reference_backend_by_request_fires_on_a_size_rule_put_back() {
        let source = "\
/// Falls back to [`SolverBackend::Dense`] — in a doc comment, fine.
fn pick(rows: usize) -> SolverBackend {
    if rows < 64 { SolverBackend::Dense } else { SolverBackend::Sparse } // line 3
}
fn word(cfg: &DeploymentConfig) -> u64 { cfg.ilp.backend as u64 }
fn label() -> &'static str { \"SolverBackend::Dense\" }
const ORACLE: SolverBackend = SolverBackend::Dense; // audit:allow(reference-backend-by-request): demo
#[cfg(test)]
mod tests {
    fn t() { let _ = SolverBackend::Dense; }
}
";
        let lines = |file: &str| {
            let mut v = Vec::new();
            check_reference_backend(Path::new(file), source, &mut v);
            assert!(v.iter().all(|x| x.rule == "reference-backend-by-request"));
            v.iter().map(|x| x.line).collect::<Vec<_>>()
        };
        assert_eq!(lines("crates/core/src/topology.rs"), vec![3]);
        assert_eq!(lines("crates/ilp/src/branch_bound.rs"), vec![3]);
        for home in REFERENCE_BACKEND_HOMES {
            assert_eq!(lines(home), Vec::<usize>::new());
        }
    }

    #[test]
    fn oracle_dev_only_reads_manifest_tables() {
        let dev = "[dependencies]\nwishbone-core = { path = \"crates/core\" }\n\n\
                   [dev-dependencies]\nwishbone-oracle = { path = \"crates/oracle\" }\n";
        assert_eq!(bad_deps("Cargo.toml", dev), Vec::<usize>::new());
        let shipped = "[package]\nname = \"wishbone-fleet\"\n\n[dependencies]\n\
                       wishbone-oracle = { path = \"../oracle\" } # no\n";
        assert_eq!(bad_deps("crates/fleet/Cargo.toml", shipped), vec![5]);
        assert_eq!(bad_deps(ORACLE_DEPENDENT, shipped), Vec::<usize>::new());
        for header in [
            "[dependencies.wishbone-oracle]",
            "[target.'cfg(unix)'.dependencies]\nwishbone-oracle.path = \"../oracle\"",
            "[build-dependencies]\nwishbone-oracle = \"*\"",
        ] {
            assert_eq!(
                bad_deps("crates/core/Cargo.toml", header).len(),
                1,
                "{header}"
            );
        }
        // The oracle's own manifest names itself only under [package].
        let own = "[package]\nname = \"wishbone-oracle\"\n\n[dependencies]\n\
                   wishbone-core = { path = \"../core\" }\n";
        assert_eq!(
            bad_deps("crates/oracle/Cargo.toml", own),
            Vec::<usize>::new()
        );
    }
}
