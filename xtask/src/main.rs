//! `cargo run -p xtask -- lint` — repo-specific invariants clippy
//! cannot express, enforced by plain text scanning (offline, no
//! registry deps, no proc macros).
//!
//! Most rules are rows of two tables, each run by one scanner:
//! [`CONFINE`] (in a scope, a text, identifier or call appears only in
//! its homes) and [`CENSUS`] (in a scope, the declarations matching a
//! pattern are only the listed names, or exactly a count of them). A
//! row's `why` is its reason and what a violation prints. A new
//! invariant is one more row, and the row self-tests generate an
//! offending line for every row, so a row that cannot fire fails
//! `cargo test -p xtask` with no new test code.
//!
//! The rules that parse something else are hand-written, each in its
//! own `check_*`: `float-eq`, `pub-docs`, `oracle-anchors`,
//! `oracle-dev-only`'s manifest half, `one-repro`, `config-surface`'s
//! field counts and `one-pricing`'s held inputs.
//!
//! Every rule but `oracle-anchors` (which reads the tests) and the two
//! manifest readers skips test modules: by repo convention
//! `#[cfg(test)] mod tests` is the tail of each file, so scanning stops
//! at the first `#[cfg(test)]` line. A site may opt out of a rule with a
//! trailing `// audit:allow(<rule>): <reason>` comment.
//!
//! Exit status is nonzero iff any violation is found, which is what
//! gates CI.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const CORE_SRC: &str = "crates/core/src";
const RUNTIME_SRC: &str = "crates/runtime/src";
/// The prepared instance: the per-solve path.
const PER_SOLVE_PATH: &str = "crates/core/src/topology.rs";
/// The one §4.1 merge and the one pricing.
const MULTITIER: &str = "crates/core/src/multitier.rs";
/// The one encoder.
const ENCODER: &str = "crates/core/src/encodings.rs";
/// The platform cost models.
const PLATFORM: &str = "crates/profile/src/platform.rs";

/// What a [`Confine`] row looks for in a line's code (string literals and
/// `//` comments stripped).
#[derive(Clone, Copy)]
enum Needle {
    /// The text, anywhere.
    Text(&'static str),
    /// The text with no identifier character on either side.
    Ident(&'static str),
    /// A call `name(` — not the `fn name(` that defines it.
    Call(&'static str),
    /// The identifier inside the arguments of an assertion macro
    /// (`assert!`, `assert_eq!`, `debug_assert!`, …), on any of its lines.
    InAssert(&'static str),
}
use Needle::{Call, Ident, InAssert, Text};

/// Where a [`Confine`] row's needles may appear.
enum Home {
    File(&'static str),
    /// Inside the `fn` of that name in that file.
    Fn(&'static str, &'static str),
}

/// Outside tests, in `scope` (files, or directories scanned recursively),
/// `needles` appear only in `homes`.
struct Confine {
    rule: &'static str,
    scope: &'static [&'static str],
    needles: &'static [Needle],
    homes: &'static [Home],
    /// The violation's message; `{}` is the needle that matched.
    why: &'static str,
}

/// The declarations a [`Census`] row counts.
enum Decl {
    /// Any `fn`, at any visibility and indentation.
    Fn,
    /// A `pub fn` at any indentation, methods included.
    PubFn,
    /// An unindented `pub fn`: a free function.
    FreePubFn,
    /// A `pub struct` at any indentation.
    PubStruct,
}

enum Expect {
    /// No matching name outside this list.
    Only(&'static [&'static str]),
    /// Exactly this many declarations per pattern.
    Exactly(usize),
}

/// Outside tests, in `scope`, the `decl`s whose names match one of
/// `names` (a `*` at either end is a wildcard) are as `expect` says.
struct Census {
    rule: &'static str,
    scope: &'static [&'static str],
    decl: Decl,
    names: &'static [&'static str],
    expect: Expect,
    /// The message at a declaration too many; `{}` is its name.
    why: &'static str,
}

#[rustfmt::skip]
const CONFINE: [Confine; 23] = [
    Confine {
        rule: "no-unwrap",
        // The simplex / branch-and-bound inner loops, and the fleet service,
        // where one bad request would take a worker (and its shapes) down.
        scope: &["crates/ilp/src/simplex.rs", "crates/ilp/src/revised.rs", "crates/ilp/src/lu.rs",
                 "crates/ilp/src/sparse.rs", "crates/ilp/src/branch_bound.rs",
                 "crates/fleet/src/lib.rs"],
        needles: &[Text(".unwrap()")], homes: &[],
        why: "solver hot path: use .expect(\"<invariant>\") so a panic names the violated \
              invariant",
    },
    Confine {
        rule: "no-env-knobs",
        // Every crate the facade ships, and the bench tooling (a sweep size
        // is a constant in its target). The compile-time `env!` is not a
        // read.
        scope: &["crates/ilp/src", CORE_SRC, RUNTIME_SRC, "crates/fleet/src", "crates/net/src",
                 "crates/dataflow/src", "crates/profile/src", "crates/trace/src",
                 "crates/bench/src", BENCH_TARGETS],
        needles: &[Text("env::var")], homes: &[],
        why: "a shipped crate reads the environment — behaviour selected there is a hidden \
              knob that breaks \"a response is a function of (shape, request)\"; make it an \
              argument or a config field",
    },
    Confine {
        rule: "reference-backend-by-request",
        // Shipped code that configures or drives the solver, and the solver;
        // the homes declare the enum and dispatch on it.
        scope: &["crates/ilp/src", CORE_SRC, "crates/fleet/src", RUNTIME_SRC, "crates/net/src",
                 "crates/trace/src", "src"],
        needles: &[Text("SolverBackend::Dense")],
        homes: &[Home::File("crates/ilp/src/workspace.rs"),
                 Home::File("crates/ilp/src/simplex.rs")],
        why: "shipped code names `{}` — the dense tableau is the tests' reference and runs \
              only when a caller asks for it; production solves on the sparse backend at \
              every size",
    },
    Confine {
        rule: "one-lp-switch",
        // The solver and the shipped code that configures it: the backend
        // is `IlpOptions::backend`, an argument of every LP solve.
        scope: &["crates/ilp/src", CORE_SRC, "crates/fleet/src"],
        needles: &[Text("set_backend("), Ident("warm_lp"), Ident("allow_warm")], homes: &[],
        why: "`{}` — the LP backend is one switch, `IlpOptions::backend`, handed to every \
              `solve_lp_in` as an argument: a workspace holds no backend, and a cold sparse LP \
              is `SimplexWorkspace::invalidate` before the call",
    },
    Confine {
        rule: "oracle-dev-only",
        // The binary world's types, moved to the oracle crate: one in core
        // is a second graph model or encoder growing back.
        scope: &[CORE_SRC],
        needles: &[Ident("PartitionGraph"), Ident("ObjectiveConfig"), Ident("EncodedProblem"),
                   Ident("EncodedMultiTier")],
        homes: &[],
        why: "`{}` belongs to the dev-only `crates/oracle`, not `crates/core/src`",
    },
    Confine {
        rule: "one-coarsening", scope: &[CORE_SRC],
        needles: &[Call("finest_level"), Call("coarsen")],
        homes: &[Home::Fn("crates/core/src/multilevel.rs", "build")],
        why: "`{}` outside `CutHierarchy::build` — the hierarchy reads no count, budget or \
              rate and is built at most once per prepared instance; cut the kept one",
    },
    Confine {
        rule: "one-coarsening", scope: &[PER_SOLVE_PATH],
        needles: &[Call("approx_cut")], homes: &[],
        why: "`{}` on the per-solve path rebuilds the hierarchy at every solve — \
              `PreparedDeployment` cuts the `CutHierarchy` it built on first demand",
    },
    Confine {
        rule: "one-coarsening", scope: &[CORE_SRC],
        needles: &[Call("CutHierarchy::build")],
        homes: &[Home::Fn(PER_SOLVE_PATH, "seed_values"),
                 Home::Fn("crates/core/src/multilevel.rs", "approx_cut")],
        why: "`{}` outside the lazy `seed_values` — a prepared instance builds its hierarchy \
              on a search's first demand for a seed, never in `new` or `apply_delta` (the \
              one-shot `approx_cut` builds its own)",
    },
    Confine {
        rule: "one-merge", scope: &[CORE_SRC],
        needles: &[Ident("fn merge")], homes: &[Home::File(MULTITIER)],
        why: "a second `{}` — the §4.1 merge has one body",
    },
    Confine {
        rule: "one-merge", scope: &[CORE_SRC],
        needles: &[Call("cross_edges"), Call("cyclic_sccs"), Call("top_classes")],
        homes: &[Home::Fn(MULTITIER, "merge")],
        why: "`{}` outside `ChainTable::merge` — a second merge body growing beside the one",
    },
    Confine {
        rule: "one-merge", scope: &[CORE_SRC],
        needles: &[Ident("TopClasses")],
        homes: &[Home::File(MULTITIER), Home::File("crates/core/src/lib.rs")],
        why: "`{}` outside `crates/core/src/multitier.rs` — the top boundary's classes are built \
              by `ChainTable::merge` alone; read a merged graph's `top`, never derive it",
    },
    Confine {
        rule: "one-merge", scope: &[ENCODER],
        needles: &[Ident("HashMap"), Ident("HashSet"), Ident("BTreeMap"), Ident("BTreeSet")],
        homes: &[],
        why: "`{}` in the encoder — the merge groups the top classes and their precedence \
              edges (`TopClasses`); the encoder hashes nothing",
    },
    Confine {
        rule: "one-merge", scope: &[PER_SOLVE_PATH],
        needles: &[Call("build_tiered_graph"), Call("preprocess_tiered")], homes: &[],
        why: "`{}` on the prepare path builds the unmerged graph — fill the flat `ChainTable` \
              and merge it",
    },
    Confine {
        rule: "one-merge", scope: &[PER_SOLVE_PATH],
        needles: &[Text("ChainTable::from_graph("), Text(".merge(")],
        homes: &[Home::Fn(PER_SOLVE_PATH, "merge_leaf")],
        why: "`{}` outside `merge_leaf` — the prepare path prices and merges a leaf only on a \
              `LeafGraphs` miss; look its key up first",
    },
    Confine {
        rule: "one-pricing", scope: &[CORE_SRC],
        needles: &[Call("cpu_fraction"), Call("edge_on_air_bandwidth"), Call("cpu_fractions"),
                   Call("edge_on_air_bandwidths")],
        homes: &[Home::File(MULTITIER)],
        why: "`{}` outside `crates/core/src/multitier.rs` — the merged leaf graphs carry the \
              one pricing; read their costs",
    },
    Confine {
        rule: "one-probe-path", scope: &[CORE_SRC],
        needles: &[Text(".refuted_at(")],
        homes: &[Home::Fn(PER_SOLVE_PATH, "settle_or_search")],
        why: "`{}` outside `PreparedDeployment::settle_or_search` — a kept refutation answers a \
              rate only through the one settle-or-search step that `solve_at` and the rate \
              search share, and `solve_at_in` never takes it",
    },
    Confine {
        rule: "one-probe-path", scope: &[CORE_SRC],
        needles: &[Text(".answers_at(")],
        homes: &[Home::Fn(PER_SOLVE_PATH, "closure_answers")],
        why: "`{}` outside `PreparedDeployment::closure_answers` — a placement answers without \
              branch-and-bound only as the closure optimum (the one check that `search` and \
              `settle_or_search` both take first, so `solve_at` and `solve_at_in` share it)",
    },
    Confine {
        rule: "one-probe-path", scope: &[CORE_SRC, "crates/fleet/src"],
        needles: &[Call("row_floor_in")],
        homes: &[Home::Fn(PER_SOLVE_PATH, "settle_or_search")],
        why: "`{}` outside `PreparedDeployment::settle_or_search` — a budget row's floor \
              refutes a rate past the closure ceiling only on the settle-or-search step that \
              `solve_at` and the rate search share; `search`, and so `solve_at_in` and every \
              fleet solve, never pays for a floor",
    },
    Confine {
        rule: "address-identity", scope: &[CORE_SRC, "crates/fleet/src"],
        needles: &[Text("as *const")], homes: &[],
        why: "`{}` — a key that names an address makes every holder co-own the allocation; \
              key on the content fingerprint (`Graph::fingerprint`, \
              `GraphProfile::fingerprint`) instead",
    },
    Confine {
        rule: "flat-placement", scope: &[CORE_SRC],
        needles: &[Text("HashSet<OperatorId>"), Text("HashSet::<OperatorId>")], homes: &[],
        why: "`{}` in `crates/core/src` — a placement's per-site operators are sorted \
              `Vec<OperatorId>` lists that the decode fills in one pass and sorts; a hashed \
              placement is the decode's largest cost growing back",
    },
    Confine {
        rule: "window-kernel", scope: &["crates/dsp/src", "crates/apps/src"],
        needles: &[Call("step")], homes: &[Home::Fn("crates/dsp/src/fir.rs", "filter_window")],
        why: "`{}` outside `FirFilter::filter_window`'s debug reference — a work function \
              filters a whole window in the kernel's one pass, which is held bit for bit to the \
              per-sample loop",
    },
    Confine {
        rule: "one-prototype",
        // The shipped crates that define, build, run or replicate work
        // functions.
        scope: &["crates/dataflow/src", "crates/dsp/src", "crates/apps/src", "crates/profile/src",
                 RUNTIME_SRC, CORE_SRC, "crates/fleet/src", "src"],
        needles: &[Ident("clone_fresh"), Call("run_operator")], homes: &[],
        why: "`{}` — a graph's work functions are prototypes that nothing runs: run an \
              instance set from `Graph::instantiate_work`, and replicate an operator by \
              deriving `Clone`",
    },
    Confine {
        rule: "counts-not-seconds",
        // Every test directory; the homes time a time feature or hold the
        // wall-clock ratios that are calibrated on optimized builds.
        scope: &["tests", "crates/dataflow/tests", "crates/dsp/tests", "crates/ilp/tests",
                 "crates/net/tests", "crates/profile/tests"],
        needles: &[InAssert("elapsed"), InAssert("Duration")],
        homes: &[Home::File("tests/perf_ratios.rs"),
                 Home::Fn("crates/ilp/tests/stress_ilp.rs", "time_limit_is_respected")],
        why: "`{}` in an assertion — a test bounds a count (nodes, iterations, pivots), which \
              repeats on any host, not seconds, which a loaded host stretches",
    },
];

#[rustfmt::skip]
const CENSUS: [Census; 6] = [
    Census {
        rule: "entry-points", scope: &[CORE_SRC, RUNTIME_SRC],
        decl: Decl::PubFn, names: &["partition*", "max_sustainable_rate*", "simulate_*"],
        expect: Expect::Only(&["partition_deployment", "max_sustainable_rate_deployment",
                               "simulate_deployment_tree", "simulate_deployment_tree_traced"]),
        why: "`{}` is a second partitioning/simulation entry point — make the shape a \
              `Deployment`/`TreeTopology` constructor or the behaviour a config field of the \
              one path",
    },
    Census {
        rule: "oracle-dev-only", scope: &[CORE_SRC],
        decl: Decl::FreePubFn, names: &["encode", "encode_*"],
        expect: Expect::Only(&["encode_deployment"]),
        why: "`{}` is a second encoder in `crates/core/src` — `encode_deployment` is the only \
              one production compiles; oracles live in `crates/oracle`",
    },
    Census {
        rule: "one-executor", scope: &[RUNTIME_SRC],
        decl: Decl::PubStruct, names: &["*Executor", "*Cascade"],
        expect: Expect::Exactly(1),
        why: "`{}` is a second site executor — sites differ by what they host and whether they \
              have a task model, not by a copy of the cascade",
    },
    Census {
        rule: "config-surface", scope: &["crates/fleet/src"],
        decl: Decl::PubStruct, names: &["*Config"],
        expect: Expect::Only(&[]),
        why: "`{}`: a fleet's one parameter is its worker count — `FleetServer::new`",
    },
    Census {
        rule: "one-merge", scope: &[MULTITIER],
        decl: Decl::Fn, names: &["merge"],
        expect: Expect::Exactly(1),
        why: "a second `fn {}` — the §4.1 merge has one body",
    },
    Census {
        rule: "one-solve-spelling", scope: &["crates/ilp/src"],
        decl: Decl::PubFn, names: &["solve_ilp", "solve_lp"],
        expect: Expect::Exactly(1),
        why: "a second `pub fn {}` — a solve has one spelling, the free function \
              `wishbone_ilp::{}`",
    },
];

/// Directories held to `float-eq` and `pub-docs` (the solver, the
/// encoders and their oracles — where a silent float bug costs the most).
#[rustfmt::skip]
const LINTED_DIRS: [&str; 4] = ["crates/ilp/src", CORE_SRC, "crates/fleet/src", "crates/oracle/src"];

/// `(needle, why it must survive)` — each must appear in at least one
/// test file.
#[rustfmt::skip]
const ORACLE_ANCHORS: [(&str, &str); 7] = [
    ("encode_multitier", "the k-way chain encoder is the parity oracle for deployments"),
    ("Encoding::Restricted", "the binary restricted encoder anchors the k = 2 parity chain"),
    ("SolverBackend::Dense", "the dense tableau is the differential oracle for the sparse backend"),
    ("approx_certificate_holds_near_the_cliff_on_both_backends",
     "a root-capped placement's certificate is pinned against the exact ILP and the root LP"),
    ("null_sink_traced_run_is_byte_identical",
     "the trace off path must stay pinned by the zero-overhead byte-identical test"),
    ("fleet_batch_matches_serial_one_shot",
     "fleet cache hits must stay bit-identical to serial one-shot solves"),
    ("fir_window_kernel_equals_the_per_sample_loop",
     "the FIR window kernel is pinned bit for bit to the per-sample `FirFilter::step`"),
];

/// The dev-only oracle crate. The bench tooling crate, which nothing in
/// the facade's dependency graph reaches, is the one manifest that may
/// depend on it outside `[dev-dependencies]`; it declares exactly
/// [`THE_BENCH_TARGETS`], whose sources are under [`BENCH_TARGETS`].
const ORACLE_CRATE: &str = "wishbone-oracle";
const BENCH_MANIFEST: &str = "crates/bench/Cargo.toml";
const BENCH_TARGETS: &str = "crates/bench/benches";
const THE_BENCH_TARGETS: [&str; 1] = ["repro"];

/// The option and model structs: file, name, counted `pub` fields. A
/// behaviour is a field only when shipped callers need different values
/// (a platform fact only when some platform differs in it and something
/// reads it); one more comes with its callers named in its doc and the
/// count bumped.
const CONFIG_SURFACE: [(&str, &str, usize); 5] = [
    (PER_SOLVE_PATH, "DeploymentConfig", 4),
    ("crates/ilp/src/branch_bound.rs", "IlpOptions", 5),
    (PLATFORM, "Platform", 7),
    (PLATFORM, "RadioModel", 2),
    ("crates/runtime/src/deployment.rs", "SimulationConfig", 5),
];

/// The caller's inputs no type of [`PER_SOLVE_PATH`] may hold: a
/// prepared instance keeping its caller's graph or profile is the
/// second, per-solve pricing growing back.
const CALLER_INPUTS: [&str; 3] = ["Graph", "GraphProfile", "InputHandle"];

struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl Violation {
    fn new(file: &Path, line: usize, rule: &'static str, message: String) -> Self {
        let file = file.to_path_buf();
        Violation {
            file,
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (file, line, rule) = (self.file.display(), self.line, self.rule);
        write!(f, "{file}:{line}: [{rule}] {}", self.message)
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
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
    let mut violations = missing_files(&root);
    violations.extend(lint_sources(&repo_sources(&root)));
    for manifest in manifests(&root) {
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            let rel = manifest.strip_prefix(&root).unwrap_or(&manifest);
            check_oracle_dependency(rel, &text, &mut violations);
        }
    }
    // A manifest that is gone reads as empty: `repro` is then missing.
    let bench_manifest = std::fs::read_to_string(root.join(BENCH_MANIFEST)).unwrap_or_default();
    let bench_files: Vec<PathBuf> = rust_sources(&root.join(BENCH_TARGETS))
        .iter()
        .map(|file| file.strip_prefix(&root).unwrap_or(file).to_path_buf())
        .collect();
    check_one_repro(&bench_manifest, &bench_files, &mut violations);
    check_oracle_anchors(&test_corpus(&root), &mut violations);

    if violations.is_empty() {
        let (confine, census, anchors) = (CONFINE.len(), CENSUS.len(), ORACLE_ANCHORS.len());
        println!(
            "xtask lint: clean ({confine} confine rows, {census} census rows, {anchors} anchors)"
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

/// Every rule that reads Rust source, over `sources` (repo-relative
/// path, text), in file and line order.
fn lint_sources(sources: &[(PathBuf, String)]) -> Vec<Violation> {
    let files: Vec<(&Path, Vec<CodeLine>)> = sources
        .iter()
        .map(|(rel, text)| (rel.as_path(), code_lines(text)))
        .collect();
    let mut out = Vec::new();
    for row in &CENSUS {
        census(row, &files, &mut out);
    }
    for (rel, lines) in &files {
        for row in &CONFINE {
            confine(row, rel, lines, &mut out);
        }
        if in_scope(rel, &LINTED_DIRS) {
            check_float_eq(rel, lines, &mut out);
            check_pub_docs(rel, lines, &mut out);
        }
        if *rel == Path::new(PER_SOLVE_PATH) {
            check_held_inputs(rel, lines, &mut out);
        }
        check_field_counts(rel, lines, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Every source some rule reads (the scopes of both tables,
/// [`LINTED_DIRS`] and [`CONFIG_SURFACE`]'s files), by repo-relative
/// path, in path order.
fn repo_sources(root: &Path) -> Vec<(PathBuf, String)> {
    let scopes = CONFINE.iter().flat_map(|row| row.scope);
    let scopes = scopes.chain(CENSUS.iter().flat_map(|row| row.scope));
    let surface = CONFIG_SURFACE.iter().map(|(file, _, _)| file);
    let files: BTreeSet<PathBuf> = scopes
        .chain(&LINTED_DIRS)
        .chain(surface)
        .flat_map(|scope| rust_sources(&root.join(scope)))
        .collect();
    let read = |file: PathBuf| Some((file.strip_prefix(root).ok()?.into(), read_text(&file)?));
    files.into_iter().filter_map(read).collect()
}

fn read_text(path: &Path) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// A file named by a confine row's scope or by [`CONFIG_SURFACE`] that is
/// gone: its rule would otherwise pass by reading nothing.
fn missing_files(root: &Path) -> Vec<Violation> {
    let rows = CONFINE.iter();
    let named = rows.flat_map(|row| row.scope.iter().map(|f| (row.rule, *f)));
    let named = named.chain(CONFIG_SURFACE.map(|(file, _, _)| ("config-surface", file)));
    let missing = named.filter(|(_, file)| file.ends_with(".rs") && !root.join(file).is_file());
    let message = "file is missing (update xtask if it moved)";
    let flag = |(rule, file)| Violation::new(Path::new(file), 0, rule, message.to_string());
    missing.map(flag).collect()
}

/// Every `.rs` file at or under `path`, recursively, in sorted order.
fn rust_sources(path: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(path) else {
        // A file (itself, if Rust source) or nothing (then it fails to read).
        let rust = Some(path.to_path_buf()).filter(|p| p.extension().is_some_and(|e| e == "rs"));
        return rust.into_iter().collect();
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    entries.iter().flat_map(|p| rust_sources(p)).collect()
}

fn in_scope(rel: &Path, scope: &[&str]) -> bool {
    scope.iter().any(|s| rel.starts_with(s))
}

/// A non-test source line, as every rule reads it.
struct CodeLine<'a> {
    no: usize,
    raw: &'a str,
    /// The line with string literals and `//` comments stripped.
    code: String,
    /// The `fn` the line is in: the last one declared at or above it.
    in_fn: String,
    /// Whether some of the line's code is an argument of an assertion
    /// macro ([`InAssert`]).
    in_assert: bool,
}

/// The non-test prefix of a source file: by repo convention the
/// `#[cfg(test)] mod tests` block is the file tail, so everything from
/// the first `#[cfg(test)]` on is test code.
fn code_lines(text: &str) -> Vec<CodeLine<'_>> {
    let mut in_fn = String::new();
    // Open parentheses of the assertion macro call being read (0: none).
    let mut assert_depth = 0usize;
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .enumerate()
        .map(|(i, raw)| {
            let code = strip_strings_and_comments(raw);
            if let Some((_, name)) = code.split_once("fn ") {
                in_fn = ident_prefix(name).to_string();
            }
            let in_fn = in_fn.clone();
            let in_assert = track_assert(&code, &mut assert_depth);
            CodeLine {
                no: i + 1,
                raw,
                code,
                in_fn,
                in_assert,
            }
        })
        .collect()
}

/// Advance `depth`, the open parentheses of an assertion macro's call,
/// over one line of `code`; whether any of the line is inside one. An
/// assertion macro is an identifier containing `assert` followed by `!(`.
fn track_assert(code: &str, depth: &mut usize) -> bool {
    let mut inside = *depth > 0;
    let mut rest = code;
    while !rest.is_empty() {
        if *depth == 0 {
            let Some(at) = rest.find("assert") else {
                break;
            };
            // What follows the identifier the match is in.
            let after = &rest[at..];
            let after = &after[ident_prefix(after).len()..];
            match after.strip_prefix("!(") {
                Some(args) => {
                    inside = true;
                    *depth = 1;
                    rest = args;
                }
                None => rest = after,
            }
            continue;
        }
        let Some(at) = rest.find(['(', ')']) else {
            break;
        };
        if rest[at..].starts_with('(') {
            *depth += 1;
        } else {
            *depth -= 1;
        }
        rest = &rest[at + 1..];
    }
    inside
}

fn allowed(line: &str, rule: &str) -> bool {
    line.contains(&format!("audit:allow({rule})"))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier `s` starts with (empty if none).
fn ident_prefix(s: &str) -> &str {
    &s[..s.find(|c| !is_ident_char(c)).unwrap_or(s.len())]
}

/// Strip string literals and `//` comments so operators inside them
/// don't trip the scanners. Not a full lexer: it handles the escapes
/// that actually occur in this repo's sources.
fn strip_strings_and_comments(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    // The quote that closes the string or char literal being skipped.
    let mut open: Option<char> = None;
    while let Some(c) = chars.next() {
        if let Some(quote) = open {
            if c == '\\' {
                chars.next();
            } else if c == quote {
                open = None;
            }
            continue;
        }
        match c {
            '"' => open = Some('"'),
            // A lifetime tick is followed by an identifier char and no
            // closing quote nearby; treating only quoted single chars
            // as char literals keeps lifetimes intact.
            '\'' => {
                let mut look = chars.clone();
                let is_char_lit = match look.next() {
                    Some('\\') => true,
                    Some(_) => look.next() == Some('\''),
                    None => false,
                };
                if is_char_lit {
                    open = Some('\'');
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

/// Does `line` contain `ident` as a whole identifier?
fn mentions_ident(line: &str, ident: &str) -> bool {
    line.match_indices(ident).any(|(at, _)| {
        !line[..at].ends_with(is_ident_char) && !line[at + ident.len()..].starts_with(is_ident_char)
    })
}

/// Does `code` call `name` — `name(` as a whole identifier, not its own
/// `fn name(` definition?
fn calls(code: &str, name: &str) -> bool {
    code.match_indices(name).any(|(at, _)| {
        let (before, after) = (&code[..at], &code[at + name.len()..]);
        !before.ends_with(is_ident_char)
            && after.starts_with('(')
            && !before.trim_end().ends_with("fn")
    })
}

impl Needle {
    fn found_in(self, line: &CodeLine) -> bool {
        let code = line.code.as_str();
        match self {
            Text(text) => code.contains(text),
            Ident(ident) => mentions_ident(code, ident),
            Call(name) => calls(code, name),
            InAssert(ident) => line.in_assert && mentions_ident(code, ident),
        }
    }

    /// How a message names the needle.
    fn shown(self) -> String {
        match self {
            Text(text) | Ident(text) | InAssert(text) => text.to_string(),
            Call(name) => format!("{name}("),
        }
    }
}

impl Home {
    fn holds(&self, rel: &Path, in_fn: &str) -> bool {
        match *self {
            Home::File(file) => rel == Path::new(file),
            Home::Fn(file, name) => rel == Path::new(file) && in_fn == name,
        }
    }
}

impl Decl {
    /// The name `line` declares, if it is this kind of declaration.
    fn name<'a>(&self, line: &'a CodeLine) -> Option<&'a str> {
        let (head, keyword) = match self {
            Decl::Fn => return line.code.contains("fn ").then_some(line.in_fn.as_str()),
            Decl::PubFn => (line.raw.trim_start(), "pub fn "),
            Decl::FreePubFn => (line.raw, "pub fn "),
            Decl::PubStruct => (line.raw.trim_start(), "pub struct "),
        };
        Some(ident_prefix(head.strip_prefix(keyword)?)).filter(|name| !name.is_empty())
    }
}

/// Does `name` match `pattern` (a `*` at either end is a wildcard)?
fn matches(pattern: &str, name: &str) -> bool {
    match (pattern.strip_prefix('*'), pattern.strip_suffix('*')) {
        (Some(suffix), _) => name.ends_with(suffix),
        (_, Some(prefix)) => name.starts_with(prefix),
        _ => name == pattern,
    }
}

/// The confine scanner: every needle of `row` on a line of `rel` outside
/// the row's homes.
fn confine(row: &Confine, rel: &Path, lines: &[CodeLine], out: &mut Vec<Violation>) {
    if !in_scope(rel, row.scope) {
        return;
    }
    for line in lines {
        if allowed(line.raw, row.rule) || row.homes.iter().any(|h| h.holds(rel, &line.in_fn)) {
            continue;
        }
        for needle in row.needles.iter().filter(|n| n.found_in(line)) {
            let message = row.why.replace("{}", &needle.shown());
            out.push(Violation::new(rel, line.no, row.rule, message));
        }
    }
}

/// The census scanner: `row`'s declarations over `files`, each one past
/// what the row expects flagged where it is, and each count short of
/// [`Expect::Exactly`] at line 0 of the row's first scope entry.
fn census(row: &Census, files: &[(&Path, Vec<CodeLine>)], out: &mut Vec<Violation>) {
    let mut seen = vec![0; row.names.len()];
    for (rel, lines) in files.iter().filter(|(rel, _)| in_scope(rel, row.scope)) {
        let lines = lines.iter().filter(|line| !allowed(line.raw, row.rule));
        for (no, name) in lines.filter_map(|line| Some((line.no, row.decl.name(line)?))) {
            let Some(pattern) = row.names.iter().position(|p| matches(p, name)) else {
                continue;
            };
            seen[pattern] += 1;
            let extra = match row.expect {
                Expect::Only(names) => !names.contains(&name),
                Expect::Exactly(n) => seen[pattern] > n,
            };
            if extra {
                let message = row.why.replace("{}", name);
                out.push(Violation::new(rel, no, row.rule, message));
            }
        }
    }
    if let Expect::Exactly(n) = row.expect {
        for (pattern, count) in row.names.iter().zip(seen).filter(|(_, c)| *c < n) {
            let message = format!("{count} `{pattern}` declared, {n} expected");
            let file = Path::new(row.scope[0]);
            out.push(Violation::new(file, 0, row.rule, message));
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

fn check_float_eq(rel: &Path, lines: &[CodeLine], out: &mut Vec<Violation>) {
    for CodeLine { no, raw, code, .. } in lines {
        if allowed(raw, "float-eq") {
            continue;
        }
        for op in ["==", "!="] {
            let mut from = 0;
            while let Some(pos) = code[from..].find(op) {
                let at = from + pos;
                from = at + op.len();
                let left = code[..at]
                    .trim_end()
                    .rsplit(|c: char| c.is_whitespace() || "([{,;&|".contains(c))
                    .next()
                    .unwrap_or("");
                let right = code[at + op.len()..]
                    .trim_start()
                    .split(|c: char| c.is_whitespace() || ")]},;&|".contains(c))
                    .next()
                    .unwrap_or("");
                if is_float_literal(left) || is_float_literal(right) {
                    let message = format!(
                        "raw float {op} comparison — use wishbone_ilp::is_exact_zero for \
                         exact-zero tests or an explicit epsilon, or annotate \
                         `// audit:allow(float-eq): <reason>`"
                    );
                    out.push(Violation::new(rel, *no, "float-eq", message));
                    break;
                }
            }
        }
    }
}

/// Is this trimmed line the start of a `pub` item that needs docs?
fn pub_item_name(trimmed: &str) -> Option<&str> {
    // pub(crate)/pub(super) are not public API.
    let rest = trimmed.strip_prefix("pub ")?;
    // Out-of-line modules (`pub mod x;`) carry their docs as the module
    // file's own `//!` header, which rustdoc accepts.
    if rest.starts_with("mod ") && trimmed.ends_with(';') {
        return None;
    }
    // `pub use` re-exports inherit their target's docs.
    let mut items = "fn|unsafe fn|struct|enum|trait|mod|const|static|type".split('|');
    let after = |kw: &str| rest.strip_prefix(kw)?.strip_prefix(' ');
    Some(ident_prefix(items.find_map(after)?)).filter(|name| !name.is_empty())
}

fn check_pub_docs(rel: &Path, lines: &[CodeLine], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if allowed(line.raw, "pub-docs") {
            continue;
        }
        let Some(name) = pub_item_name(line.raw.trim_start()) else {
            continue;
        };
        // Walk upward over attributes (possibly multi-line) to the nearest
        // comment.
        let is_attr = |l: &str| l.starts_with("#[") || l.starts_with(')') || l.starts_with(']');
        let mut above = lines[..i].iter().rev().map(|l| l.raw.trim_start());
        let above = above.find(|l| !is_attr(l));
        if !above.is_some_and(|a| a.starts_with("///") || a.starts_with("/**")) {
            let message = format!("public item `{name}` has no doc comment");
            out.push(Violation::new(rel, line.no, "pub-docs", message));
        }
    }
}

/// `config-surface`, counted half: each struct of [`CONFIG_SURFACE`]
/// declares its counted number of `pub` fields in the file it names.
fn check_field_counts(rel: &Path, lines: &[CodeLine], out: &mut Vec<Violation>) {
    for (_, name, counted) in CONFIG_SURFACE.iter().filter(|s| rel == Path::new(s.0)) {
        let mut rest = lines
            .iter()
            .skip_while(|l| Decl::PubStruct.name(l) != Some(name));
        let decl_line = rest.next().map_or(0, |line| line.no);
        let fields = rest
            .take_while(|line| !line.raw.starts_with('}'))
            .filter(|line| line.raw.trim_start().starts_with("pub "))
            .count();
        if fields != *counted {
            let message = format!(
                "`{name}` declares {fields} `pub` fields, {counted} are counted — a new field \
                 names the shipped callers that need different values and bumps the count; one \
                 nothing sets is a constant"
            );
            out.push(Violation::new(rel, decl_line, "config-surface", message));
        }
    }
}

/// `one-pricing`, held half: no struct or enum of [`PER_SOLVE_PATH`] names
/// one of [`CALLER_INPUTS`] in its declaration or body.
fn check_held_inputs(rel: &Path, lines: &[CodeLine], out: &mut Vec<Violation>) {
    // Brace depth, and the depth at which an open struct / enum body closes.
    let (mut depth, mut body): (usize, Option<usize>) = (0, None);
    for CodeLine { no, raw, code, .. } in lines {
        let declares = mentions_ident(code, "struct") || mentions_ident(code, "enum");
        if declares && body.is_none() && code.contains('{') {
            body = Some(depth);
        }
        let in_type = declares || body.is_some();
        depth = (depth + code.matches('{').count()).saturating_sub(code.matches('}').count());
        if body.is_some_and(|open| depth <= open) {
            body = None;
        }
        if !in_type || allowed(raw, "one-pricing") {
            continue;
        }
        for ident in CALLER_INPUTS.iter().filter(|i| mentions_ident(code, i)) {
            let message = format!(
                "a type in `{PER_SOLVE_PATH}` holds `{ident}` — a prepared instance reads its \
                 caller's inputs while it prepares and keeps nothing of theirs"
            );
            out.push(Violation::new(rel, *no, "one-pricing", message));
        }
    }
}

/// Every package manifest of the repo: the root, each `crates/*` and
/// `vendor/*` member, `xtask`, and the stand-alone `benchmark/` package.
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = ["", "xtask", "benchmark"].map(|d| root.join(d)).into();
    for group in ["crates", "vendor"] {
        let members = std::fs::read_dir(root.join(group)).into_iter().flatten();
        dirs.extend(members.flatten().map(|e| e.path()));
    }
    let mut out: Vec<PathBuf> = dirs.iter().map(|d| d.join("Cargo.toml")).collect();
    out.retain(|m| m.is_file());
    out.sort();
    out
}

/// `oracle-dev-only`, manifest half: `wishbone-oracle` may appear under
/// `[dev-dependencies]` anywhere, under `[dependencies]` (or a
/// `[build-dependencies]` / `[target.*.dependencies]` table) only in
/// [`BENCH_MANIFEST`].
fn check_oracle_dependency(rel: &Path, text: &str, violations: &mut Vec<Violation>) {
    if rel == Path::new(BENCH_MANIFEST) {
        return;
    }
    let mut flag = |line: usize| {
        let message = format!(
            "`{ORACLE_CRATE}` outside [dev-dependencies] — the oracles are dev-only; \
             production compiles one encoder"
        );
        violations.push(Violation::new(rel, line, "oracle-dev-only", message))
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

/// `one-repro`: `manifest` (the text of [`BENCH_MANIFEST`]) declares
/// exactly [`THE_BENCH_TARGETS`], and none of `files` (the sources under
/// [`BENCH_TARGETS`]) is named like a per-figure target — a figure put
/// back as its own binary is a fixture and an assert list growing back
/// beside the claim list.
fn check_one_repro(manifest: &str, files: &[PathBuf], violations: &mut Vec<Violation>) {
    let mut flag = |file: &Path, line: usize, message: String| {
        violations.push(Violation::new(file, line, "one-repro", message))
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
        if stem.starts_with("fig") || stem.starts_with("validation_") {
            let message = format!(
                "a per-figure bench source — fold `{stem}` into `repro.rs`, whose stdout is \
                 `REPRO.md`"
            );
            flag(file, 1, message);
        }
    }
}

/// The test corpus: the workspace-level `tests/` plus every crate's.
fn test_corpus(root: &Path) -> String {
    let crates = std::fs::read_dir(root.join("crates")).into_iter().flatten();
    let crates = crates.flatten().map(|e| e.path().join("tests"));
    let dirs = std::iter::once(root.join("tests")).chain(crates);
    let files = dirs.flat_map(|dir| rust_sources(&dir));
    files.filter_map(|file| read_text(&file)).collect()
}

/// `oracle-anchors`: every needle of [`ORACLE_ANCHORS`] appears in the
/// test `corpus`, so the oracle it names cannot be deleted out from
/// under the parity suite.
fn check_oracle_anchors(corpus: &str, violations: &mut Vec<Violation>) {
    for (needle, why) in ORACLE_ANCHORS {
        if !corpus.contains(needle) {
            let message = format!(
                "no test references `{needle}` — {why}; the parity suite no longer pins it"
            );
            let tests = Path::new("tests/");
            violations.push(Violation::new(tests, 0, "oracle-anchors", message));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every violation of `rule` over in-memory `(path, text)` sources.
    fn violations(rule: &str, sources: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<(PathBuf, String)> = sources
            .iter()
            .map(|&(rel, text)| (PathBuf::from(rel), text.to_string()))
            .collect();
        let mut v = lint_sources(&sources);
        v.retain(|x| x.rule == rule);
        v
    }

    /// The `(file, line)` of every violation of `rule` over `sources`.
    fn found(rule: &str, sources: &[(&str, &str)]) -> Vec<(String, usize)> {
        let v = violations(rule, sources).into_iter();
        v.map(|x| (x.file.display().to_string(), x.line)).collect()
    }

    /// The lines of every violation of `rule` in one source file.
    fn lines(rule: &str, file: &str, source: &str) -> Vec<usize> {
        found(rule, &[(file, source)])
            .into_iter()
            .map(|(_, line)| line)
            .collect()
    }

    /// `rule` holds on the committed sources.
    fn assert_repo_clean(rule: &str) {
        let mut v = lint_sources(&repo_sources(&repo_root()));
        v.retain(|x| x.rule == rule);
        let report: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        assert!(v.is_empty(), "{}", report.join("\n"));
    }

    fn leaks(source: &str) -> Vec<String> {
        let v = violations(
            "oracle-dev-only",
            &[("crates/core/src/encodings.rs", source)],
        );
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
        assert_eq!(
            lines("no-env-knobs", "crates/ilp/src/revised.rs", source),
            vec![4, 5]
        );
        // The bench target is in scope too.
        assert_eq!(
            lines("no-env-knobs", "crates/bench/benches/repro.rs", source),
            vec![4, 5]
        );
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
        // Fig 9 and the validation target put back as their own binaries,
        // and a timing target declared again: three manifest entries
        // (lines 11, 15 and 19) and the two per-figure source files.
        let put_back = [
            "repro",
            "fig9_single_mote_goodput",
            "validation_predictions",
            "solver_criterion",
        ];
        assert_eq!(
            found(&put_back),
            [
                (BENCH_MANIFEST.to_string(), 11),
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
        // `repro` itself deleted, or declared twice.
        assert_eq!(found(&[]), [(BENCH_MANIFEST.to_string(), 1)]);
        let mut v = Vec::new();
        check_one_repro(&manifest(&["repro", "repro"]), &files(&["repro"]), &mut v);
        assert_eq!(v.len(), 1);
        // The committed manifest and directory are clean.
        let manifest = std::fs::read_to_string(repo_root().join(BENCH_MANIFEST)).unwrap();
        let files = rust_sources(&repo_root().join(BENCH_TARGETS));
        let mut v = Vec::new();
        check_one_repro(&manifest, &files, &mut v);
        assert!(v.is_empty(), "{}", v[0]);
    }

    #[test]
    fn config_surface_fires_on_a_field_or_a_fleet_config_put_back() {
        let found = |file: &str, source: &str| lines("config-surface", file, source);
        let options = "\
/// Options controlling the search.
pub struct IlpOptions { // line 2
    /// Gap.
    pub rel_gap: f64,
    pub max_nodes: u64,
    pub time_limit: Option<Duration>,
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
    fn config_surface_fires_on_an_unread_platform_field_put_back() {
        let found = |source: &str| lines("config-surface", PLATFORM, source);
        let models = "\
/// Radio.
pub struct RadioModel { // line 2
    pub goodput_bytes_per_sec: f64,
    pub format: PacketFormat,
}
/// A target platform.
pub struct Platform { // line 7
    pub name: String,
    pub clock_hz: f64,
    pub cycle_costs: CycleCosts,
    pub interp_penalty: f64,
    pub dvfs_derate: f64,
    pub os_overhead: f64,
    pub radio: RadioModel,
}
";
        assert_eq!(found(models), vec![]);
        let budget = "    pub os_overhead: f64,\n    pub cpu_budget_fraction: f64,";
        assert_eq!(
            found(&models.replace("    pub os_overhead: f64,", budget)),
            vec![7]
        );
        let loss = "    pub format: PacketFormat,\n    pub baseline_loss: f64,";
        assert_eq!(
            found(&models.replace("    pub format: PacketFormat,", loss)),
            vec![2]
        );
        // Every counted file is read from the repo, so the committed
        // structs are checked too.
        let read = repo_sources(&repo_root());
        for (file, _, _) in CONFIG_SURFACE {
            assert!(read.iter().any(|(rel, _)| rel == Path::new(file)), "{file}");
        }
        assert_repo_clean("config-surface");
    }

    #[test]
    fn config_surface_fires_on_a_simulator_node_count_put_back() {
        let found =
            |source: &str| lines("config-surface", "crates/runtime/src/deployment.rs", source);
        let config = "\
/// One simulated run.
pub struct SimulationConfig { // line 2
    pub duration_s: f64,
    pub rate_multiplier: f64,
    pub seed: u64,
    pub task_model: TaskModel,
    pub per_packet_cpu_s: f64,
}
";
        assert_eq!(found(config), vec![]);
        let count = "    pub n_nodes: usize,\n    pub duration_s: f64,";
        assert_eq!(
            found(&config.replace("    pub duration_s: f64,", count)),
            vec![2]
        );
    }

    #[test]
    fn one_prototype_fires_on_a_replication_contract_put_back() {
        let source = "\
pub trait WorkFn: Send + Sync {
    fn process(&mut self, port: usize, input: &Value, cx: &mut ExecCtx);
    fn clone_fresh(&self) -> Box<dyn WorkFn>; // line 3
}
impl Graph {
    pub fn run_operator(&mut self, id: OperatorId) -> Vec<Value> { todo!() }
    pub fn instantiate_work(&self) -> Vec<Option<Box<dyn WorkFn>>> {
        self.work.iter().map(|w| w.as_ref().map(|w| w.clone_fresh())).collect() // line 8
    }
}
fn run_cascade(graph: &mut Graph, op: OperatorId) {
    let outputs = graph.run_operator(op); // line 12
    // no clone_fresh here, nor a \"run_operator(\" in a string
    let clone_freshness = 0;
}
#[cfg(test)]
mod tests {
    fn fresh(w: &dyn WorkFn) { let _ = w.clone_fresh(); }
}
";
        for file in [
            "crates/dataflow/src/graph.rs",
            "crates/dsp/src/ops.rs",
            "crates/profile/src/profiler.rs",
        ] {
            assert_eq!(lines("one-prototype", file, source), vec![3, 8, 12]);
        }
        assert_eq!(
            lines("one-prototype", "crates/ilp/src/revised.rs", source),
            Vec::<usize>::new()
        );
        assert_repo_clean("one-prototype");
    }

    #[test]
    fn window_kernel_fires_on_a_per_sample_fir_put_back() {
        let source = "\
impl WorkFn for FirWindowOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let out: Vec<f32> = w.iter().map(|&x| self.filter.step(x, cx.meter())).collect(); // line 3
        let even: Vec<f32> = w.iter().step_by(2).copied().collect();
    }
}
/// One `step(x)` per sample, in a doc comment: fine.
pub fn step(&mut self, x: f32, meter: &mut Meter) -> f32 { todo!() }
#[cfg(test)]
mod tests {
    fn reference() { let _ = f.step(1.0, &mut m); }
}
";
        let lines = |file: &str, source: &str| lines("window-kernel", file, source);
        assert_eq!(lines("crates/dsp/src/ops.rs", source), vec![3]);
        assert_eq!(lines("crates/apps/src/eeg.rs", source), vec![3]);
        assert_eq!(
            lines("crates/runtime/src/exec.rs", source),
            Vec::<usize>::new()
        );
        // The debug reference inside the kernel is the one home.
        let home = source.replace("fn process(", "fn filter_window(");
        assert_eq!(lines("crates/dsp/src/fir.rs", &home), Vec::<usize>::new());
        assert_eq!(lines("crates/dsp/src/fir.rs", source), vec![3]);
        assert_repo_clean("window-kernel");
    }

    #[test]
    fn one_coarsening_fires_on_a_per_solve_rebuild_put_back() {
        let lines = |file: &str, source: &str| lines("one-coarsening", file, source);
        const THE_HEURISTIC: &str = "crates/core/src/multilevel.rs";
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
        // A `build` elsewhere in core is not the coarsener, and an
        // `approx_cut` elsewhere is not the one-shot form's home.
        assert_eq!(lines("crates/core/src/shape.rs", kept), vec![6, 7, 13]);

        let per_solve = "\
use crate::multilevel::{approx_cut, CutHierarchy};
fn seed_values(&self, rate: f64) -> Option<Vec<f64>> {
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

        // The parent's eager build in `new`, put back beside the lazy one.
        let lazy = "\
impl<'a> PreparedDeployment<'a> {
    pub fn new(graph: &Graph) -> Result<Self, PartitionError> {
        let ep = encode_deployment(&chains, &obj);
        let hierarchy = CutHierarchy::build(&chains); // line 4
        Ok(PreparedDeployment { hierarchy: Some(hierarchy) })
    }
    pub fn apply_delta(&mut self, deltas: &[DeploymentDelta]) {
        self.hierarchy = Some(CutHierarchy::build(&chains)); // line 8
    }
}
/// Built by `CutHierarchy::build(chains)` on first demand — in a doc comment, fine.
fn seed_values(hierarchy: &mut Option<Option<CutHierarchy>>) -> Option<Vec<f64>> {
    let hierarchy = hierarchy.get_or_insert_with(|| CutHierarchy::build(chains));
}
#[cfg(test)]
mod tests {
    fn t() { let _ = CutHierarchy::build(&chains); }
}
";
        assert_eq!(lines(PER_SOLVE_PATH, lazy), vec![4, 8]);
        assert_eq!(lines("crates/core/src/shape.rs", lazy), vec![4, 8, 13]);
        assert_repo_clean("one-coarsening");
    }

    #[test]
    fn one_merge_fires_on_a_second_merge_or_the_unmerged_graph_put_back() {
        let found = |sources: &[(&str, &str)]| found("one-merge", sources);
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
fn new_in(graph: &Graph, memo: &mut LeafGraphs) -> Result<Self, PartitionError> {
    let graph = memo.merged.get(&key).map_or_else(|| merge_leaf(&mut table, graph), Ok)?;
}
fn merge_leaf(table: &mut Option<ChainTable>, graph: &Graph) -> Result<TieredGraph, PinError> {
    let table = table.insert(ChainTable::from_graph(graph, mode)?);
    Ok(table.merge(&dep.leaf_objective(path[0]))?.graph)
}
#[cfg(test)]
mod tests {
    fn t() { let _ = preprocess_tiered(&build_tiered_graph(&g), &obj); }
}
";
        let (home, topology) = (MULTITIER, PER_SOLVE_PATH);
        assert_eq!(found(&[(home, kept), (topology, prepare)]), vec![]);

        // The unmerged graph, then the adapter, on the memo miss.
        let unmerged = prepare.replace(
            "    Ok(table.merge(&dep.leaf_objective(path[0]))?.graph)",
            "    let tg0 = build_tiered_graph(&graph, &profile, &platforms)?; // line 6\n    \
             Ok(preprocess_tiered(&tg0, &dep.leaf_objective(path[0]))?.graph)",
        );
        assert_eq!(
            found(&[(home, kept), (topology, &unmerged)]),
            vec![(topology.to_string(), 6), (topology.to_string(), 7)]
        );
        // An unmemoized prepare path: the table built and merged in `new`
        // itself, beside (or instead of) the memo lookup.
        let unmemoized = prepare.replace(
            "    let graph = memo.merged.get(&key).map_or_else(|| merge_leaf(&mut table, graph), Ok)?;",
            "    let mut table = ChainTable::from_graph(graph, cfg.mode)?; // line 2\n    \
             let graph = table.merge(&dep.leaf_objective(leaf))?.graph;",
        );
        assert_eq!(
            found(&[(home, kept), (topology, &unmemoized)]),
            vec![(topology.to_string(), 2), (topology.to_string(), 3)]
        );
        let in_new = unmemoized.replace("fn new_in(", "pub fn new(");
        assert_eq!(
            found(&[(home, kept), (topology, &in_new)]),
            vec![(topology.to_string(), 2), (topology.to_string(), 3)]
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
                ("crates/core/src/shape.rs".to_string(), 1),
                ("crates/core/src/shape.rs".to_string(), 2),
            ]
        );
        // No body at all.
        assert_eq!(found(&[(topology, prepare)]), vec![(home.to_string(), 0)]);
        assert_repo_clean("one-merge");
    }

    #[test]
    fn one_merge_fires_on_a_top_class_derivation_put_back_in_the_encoder() {
        let found = |source: &str| -> Vec<usize> {
            let v = found("one-merge", &[(ENCODER, source)]).into_iter();
            v.filter(|(file, _)| file == ENCODER)
                .map(|(_, line)| line)
                .collect()
        };
        let reads = "\
/// One variable per class of the merge's `TopClasses` — in a doc comment, fine.
pub fn encode_deployment(leaves: &[LeafChain<'_>], obj: &DeploymentObjective) -> EncodedDeployment {
    let units = g.units(b).map(|(_, u)| p.add_var(lo, hi, co.y_cost(l, b, u), true));
    let y_b = g.top.of.iter().map(|&c| units[c]).collect();
    for e in leaf.graph.precedence_edges(b) {}
}
";
        assert_eq!(found(reads), Vec::<usize>::new());
        // The encoder grouping the top boundary itself, by hashing, and
        // building the classes the merge should have.
        let derives = "\
use std::collections::HashMap; // line 1
pub fn encode_deployment(leaves: &[LeafChain<'_>], obj: &DeploymentObjective) -> EncodedDeployment {
    let mut pairs: HashMap<(usize, usize), usize> = HashMap::new(); // line 3
    let top = TopClasses { of, pin, edges: pairs.into_values().collect() }; // line 4
    let joined = top_classes(&g.vertices, &g.edges, joins); // line 5
}
";
        assert_eq!(found(derives), vec![1, 3, 4, 5]);
        assert_repo_clean("one-merge");
    }

    #[test]
    fn one_pricing_fires_on_a_second_pricing_or_a_kept_input_put_back() {
        let lines = |file: &str, source: &str| lines("one-pricing", file, source);
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
        assert_eq!(lines(MULTITIER, pricing), Vec::<usize>::new());
        assert_eq!(lines("crates/core/src/multilevel.rs", pricing), vec![2, 4]);
        assert_repo_clean("one-pricing");
    }

    #[test]
    fn one_pricing_fires_on_a_batched_pricing_put_back_on_the_solve_path() {
        let lines = |file: &str, source: &str| lines("one-pricing", file, source);
        let batched = "\
fn price(&mut self, profile: &GraphProfile, platforms: &[&Platform], rate: f64) {
    profile.cpu_fractions(platforms, rate, &mut self.cpu);
    profile.edge_on_air_bandwidths(&platforms[..k - 1], rate, &mut self.bw);
}
";
        assert_eq!(lines(MULTITIER, batched), Vec::<usize>::new());
        // The prepared instance re-pricing a leaf per solve.
        let put_back = "\
fn decode_last(&self, profile: &GraphProfile, platforms: &[&Platform], rate: f64) {
    let mut cpu = Vec::new();
    profile.cpu_fractions(platforms, rate, &mut cpu);
    let mut bw = Vec::new();
    profile.edge_on_air_bandwidths(platforms, rate, &mut bw);
    profile.edge_on_air_bandwidths(platforms, rate, &mut bw); // audit:allow(one-pricing): demo
}
";
        assert_eq!(lines(PER_SOLVE_PATH, put_back), vec![3, 5]);
        // The definitions are not calls.
        let defs = "pub fn cpu_fractions(&self) {}\npub fn edge_on_air_bandwidths(&self) {}\n";
        assert_eq!(lines(PER_SOLVE_PATH, defs), Vec::<usize>::new());
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
        let found = |sources: &[(&str, &str)]| found("one-executor", sources);
        let (exec_rs, tree_rs) = ("crates/runtime/src/exec.rs", "crates/runtime/src/tree.rs");
        assert_eq!(found(&[(exec_rs, exec)]), vec![]);
        assert_eq!(
            found(&[(exec_rs, exec), (tree_rs, copy)]),
            vec![(tree_rs.to_string(), 2), (tree_rs.to_string(), 4)]
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
        let lines = |file: &str| lines("reference-backend-by-request", file, source);
        assert_eq!(lines("crates/core/src/topology.rs"), vec![3]);
        assert_eq!(lines("crates/ilp/src/branch_bound.rs"), vec![3]);
        for home in ["crates/ilp/src/workspace.rs", "crates/ilp/src/simplex.rs"] {
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
        assert_eq!(bad_deps(BENCH_MANIFEST, shipped), Vec::<usize>::new());
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

    #[test]
    fn no_unwrap_fires_in_a_hot_path_only() {
        let source = "\
fn pivot(x: Option<f64>) -> f64 {
    let a = x.unwrap(); // line 2
    let b = x.expect(\"the basis entry is set\");
    let s = \".unwrap()\"; // x.unwrap() in a comment
    x.unwrap_or(0.0)
}
fn old() { x.unwrap(); } // audit:allow(no-unwrap): demo
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        assert_eq!(lines("no-unwrap", "crates/ilp/src/lu.rs", source), vec![2]);
        assert_eq!(
            lines("no-unwrap", "crates/ilp/src/presolve.rs", source),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn float_eq_fires_on_a_raw_comparison_with_a_float_literal() {
        let source = "\
fn f(x: f64, n: usize) -> bool {
    if x == 0.0 { return true; } // line 2
    if x != 1e-9f64 { return true; } // line 3
    if 1e-9 != x { return true; } // line 4: the literal on the left
    if n == 10 || x == y { return false; }
    let s = \"x == 0.0\"; // x == 0.0
    x == 0.0 // audit:allow(float-eq): demo
}
#[cfg(test)]
mod tests {
    fn t() { assert!(x == 1.5); }
}
";
        assert_eq!(
            lines("float-eq", "crates/core/src/drift.rs", source),
            vec![2, 3, 4]
        );
        assert_eq!(
            lines("float-eq", "crates/runtime/src/tree.rs", source),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn pub_docs_fires_on_an_undocumented_public_item() {
        let source = "\
/// Documented.
pub fn documented() {}
pub fn bare() {} // line 3
/// Documented above an attribute.
#[derive(Debug)]
pub struct Attributed;
pub(crate) fn internal() {}
pub mod out_of_line;
pub use crate::x::Y;
pub unsafe fn raw() {} // line 10
pub fn waived() {} // audit:allow(pub-docs): demo
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
        assert_eq!(
            lines("pub-docs", "crates/ilp/src/num.rs", source),
            vec![3, 10]
        );
        assert_eq!(
            lines("pub-docs", "crates/net/src/lib.rs", source),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn entry_points_fires_on_a_second_partitioning_or_simulation_path() {
        let source = "\
/// The one path.
pub fn partition_deployment() {}
pub fn partition_star() {} // line 3
impl Sim {
    pub fn simulate_tiered(&self) {} // line 5
}
fn partition_helper() {}
pub fn max_sustainable_rate_binary() {} // audit:allow(entry-points): demo
#[cfg(test)]
mod tests {
    pub fn partition_fixture() {}
}
";
        let core = "crates/core/src/topology.rs";
        assert_eq!(lines("entry-points", core, source), vec![3, 5]);
        assert_eq!(
            lines("entry-points", "crates/fleet/src/lib.rs", source),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn oracle_anchors_fires_on_an_oracle_no_test_names() {
        let corpus: String = ORACLE_ANCHORS
            .iter()
            .map(|(n, _)| format!("{n}\n"))
            .collect();
        let mut v = Vec::new();
        check_oracle_anchors(&corpus, &mut v);
        assert!(v.is_empty(), "{}", v[0]);
        let renamed = corpus.replace("null_sink_traced_run", "null_sink_run");
        check_oracle_anchors(&renamed, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("oracle-anchors", 0));
        let needle = "`null_sink_traced_run_is_byte_identical`";
        assert!(v[0].message.contains(needle), "{}", v[0]);
        // The committed tests name every anchor.
        let mut v = Vec::new();
        check_oracle_anchors(&test_corpus(&repo_root()), &mut v);
        assert!(v.is_empty(), "{}", v[0]);
    }

    /// A file of `scope` entry `entry`: the entry itself, or a new one
    /// under the directory it names.
    fn file_in(entry: &str) -> String {
        match entry.ends_with(".rs") {
            true => entry.to_string(),
            false => format!("{entry}/probe.rs"),
        }
    }

    fn confine_lines(row: &Confine, file: &str, source: &str) -> Vec<usize> {
        let mut v = Vec::new();
        confine(row, Path::new(file), &code_lines(source), &mut v);
        v.iter().map(|x| x.line).collect()
    }

    #[test]
    fn every_confine_row_fires_outside_its_homes_and_not_in_them() {
        for row in &CONFINE {
            for needle in row.needles {
                let code = match *needle {
                    Text(text) | Ident(text) => format!("    let _ = {text};"),
                    Call(name) => format!("    let _ = {name}(x);"),
                    InAssert(ident) => format!("    assert!(x < {ident});"),
                };
                let context = format!("{} `{}` in", row.rule, needle.shown());
                let outside = |host: &str| format!("fn {host}() {{\n{code}\n}}\n");
                let homes: Vec<&str> = row
                    .homes
                    .iter()
                    .map(|h| match *h {
                        Home::File(file) | Home::Fn(file, _) => file,
                    })
                    .collect();
                let mut fired = 0;
                for entry in row.scope.iter().filter(|e| !homes.contains(e)) {
                    let file = file_in(entry);
                    assert_eq!(
                        confine_lines(row, &file, &outside("probe")),
                        [2],
                        "{context} {file}"
                    );
                    fired += 1;
                }
                for home in row.homes {
                    let (file, host) = match *home {
                        Home::File(file) => (file, "probe"),
                        Home::Fn(file, name) => (file, name),
                    };
                    assert_eq!(
                        confine_lines(row, file, &outside(host)),
                        [],
                        "{context} {file}"
                    );
                    if let Home::Fn(..) = home {
                        // The same file outside that fn is not a home.
                        assert_eq!(
                            confine_lines(row, file, &outside("probe")),
                            [2],
                            "{context}"
                        );
                        fired += 1;
                    }
                }
                assert!(fired > 0, "{context}: nowhere outside the homes");
                let allowed =
                    outside("probe").replace(";\n", &format!("; // audit:allow({})\n", row.rule));
                assert_eq!(confine_lines(row, &file_in(row.scope[0]), &allowed), []);
            }
        }
    }

    #[test]
    fn counts_not_seconds_fires_on_a_wall_clock_assert_put_back() {
        // The stress chain's bound as it was, a time feature's bound, and
        // timings only printed: only the first is flagged, on both of its
        // assertion lines that read the clock.
        let stress = "\
fn chain_of_500_solves_quickly_and_correctly() {
    let start = std::time::Instant::now();
    let sol = solve_ilp(&p, &IlpOptions::default()).expect(\"solvable\");
    assert!(
        start.elapsed().as_secs_f64() < 30.0,
        \"took {:?}\",
        start.elapsed()
    );
    assert!(p.is_feasible(&sol.values, 1e-6));
}
fn time_limit_is_respected() {
    let opts = IlpOptions { time_limit: Some(Duration::from_millis(50)), ..Default::default() };
    assert!(start.elapsed().as_secs_f64() < 10.0, \"took {:?}\", start.elapsed());
}
fn probe() {
    let took = start.elapsed();
    println!(\"{:?} {:?}\", took, Duration::from_secs(1));
}
";
        let file = "crates/ilp/tests/stress_ilp.rs";
        assert_eq!(lines("counts-not-seconds", file, stress), vec![5, 7]);
        // The near-cliff pin as it was: a one-line `Duration` bound.
        let nearcliff = "\
fn seeded_search_finds_an_incumbent_fast_near_the_cliff() {
    assert!(first_at < Duration::from_secs(1), \"took {first_at:?}\");
    assert!(first_node <= SEED_DUE_AT_NODE);
}
";
        let file = "tests/approx_nearcliff.rs";
        assert_eq!(lines("counts-not-seconds", file, nearcliff), vec![2]);
        assert_eq!(
            lines("counts-not-seconds", "tests/perf_ratios.rs", nearcliff),
            Vec::<usize>::new()
        );
        assert_repo_clean("counts-not-seconds");
    }

    #[test]
    fn address_identity_fires_on_an_address_key_put_back() {
        let key = "\
pub fn shape_key(graph: &Graph, profile: &GraphProfile) -> ShapeKey {
    let mut w = KeyWriter { words: Vec::new() };
    ShapeKey { graph: graph.fingerprint().clone(), profile: profile.fingerprint().clone() }
}
";
        assert_eq!(
            lines("address-identity", "crates/core/src/shape.rs", key),
            Vec::<usize>::new()
        );
        let parent = key.replace(
            "    let mut w = KeyWriter { words: Vec::new() };",
            "    w.u(graph as *const Graph as u64);",
        );
        for file in ["crates/core/src/shape.rs", "crates/fleet/src/lib.rs"] {
            assert_eq!(lines("address-identity", file, &parent), vec![2]);
        }
        assert_repo_clean("address-identity");
    }

    #[test]
    fn one_lp_switch_fires_on_a_backend_setter_put_back() {
        let workspace = "\
impl SimplexWorkspace {
    pub fn invalidate(&mut self) { self.warm_ready = false; }
    pub fn set_backend(&mut self, backend: SolverBackend) { // line 3
        self.backend = backend;
    }
}
pub fn solve_lp_in(ws: &mut SimplexWorkspace, allow_warm: bool) {} // line 7
fn search(ws: &mut SimplexWorkspace, opts: &IlpOptions) {
    ws.set_backend(opts.backend); // line 9
    let warm = opts.warm_lp; // line 10
    // no set_backend( here, nor a \"warm_lp\" in a string
}
#[cfg(test)]
mod tests {
    fn reference(ws: &mut SimplexWorkspace) { ws.set_backend(SolverBackend::Dense); }
}
";
        for file in [
            "crates/ilp/src/workspace.rs",
            "crates/core/src/topology.rs",
            "crates/fleet/src/lib.rs",
        ] {
            assert_eq!(lines("one-lp-switch", file, workspace), vec![3, 7, 9, 10]);
        }
        assert_eq!(
            lines("one-lp-switch", "crates/runtime/src/exec.rs", workspace),
            Vec::<usize>::new()
        );
        assert_repo_clean("one-lp-switch");
    }

    /// `.answers_at(` is at home only in the one closure check,
    /// `closure_answers`, so a copy in `settle_or_search` (line 3) or
    /// `probe` (line 9) fires; a `.refuted_at(` fires anywhere but
    /// `settle_or_search`, `closure_answers` included (line 17); so does
    /// a `row_floor_in(` (line 18), and in the fleet it fires everywhere
    /// (lines 5 and 18).
    #[test]
    fn one_probe_path_fires_on_a_second_copy_of_the_check() {
        let source = "\
impl PreparedDeployment {
    fn settle_or_search(&mut self, rate: f64) -> Result<(), PartitionError> {
        let kept = self.closures.last().is_some_and(|c| c.answers_at(self.budget_rhs(rate))); // line 3
        if self.refuted_at(rate) {}
        let floor = row_floor_in(&self.ep.problem, row, ws);
    }
    fn probe(&mut self, rate: f64) -> Result<(), PartitionError> {
        match self.closures.last() {
            Some(c) if c.answers_at(self.budget_rhs(rate)) => Ok(()), // line 9
            _ if self.refuted_at(rate) => Err(PartitionError::Infeasible), // line 10
            // a c.answers_at( in a comment, and \".refuted_at(\" in a string
            _ => self.search(rate, None),
        }
    }
    fn closure_answers(&mut self, rate: f64, arena: Option<&mut SimplexWorkspace>) -> bool {
        if self.closures[0].answers_at(self.budget_rhs(rate)) {}
        if self.refuted_at(rate) {} // line 17
        let floor = row_floor_in(&self.ep.problem, row, ws); // line 18
    }
}
#[cfg(test)]
mod tests {
    fn reference(c: &Closure) -> bool { c.answers_at(std::iter::empty()) }
}
";
        let file = "crates/core/src/topology.rs";
        assert_eq!(
            lines("one-probe-path", file, source),
            vec![3, 9, 10, 17, 18]
        );
        assert_eq!(
            lines("one-probe-path", "crates/core/src/rate_search.rs", source),
            vec![3, 4, 5, 9, 10, 16, 17, 18]
        );
        assert_eq!(
            lines("one-probe-path", "crates/fleet/src/lib.rs", source),
            vec![5, 18]
        );
        assert_repo_clean("one-probe-path");
    }

    #[test]
    fn flat_placement_fires_on_a_hashed_placement_put_back() {
        let source = "\
use std::collections::HashSet;
pub struct LeafPartition {
    pub site_ops: Vec<HashSet<OperatorId>>, // line 3
    pub link_cut_edges: Vec<Vec<EdgeId>>,
}
fn decode(k: usize) -> Vec<HashSet<SiteId>> {
    let sets = vec![HashSet::<OperatorId>::new(); k]; // line 7
    // a Vec<HashSet<OperatorId>> in a comment, and \"HashSet<OperatorId>\" in a string
    let ops: Vec<OperatorId> = Vec::new();
    todo!()
}
#[cfg(test)]
mod tests {
    fn reference() -> HashSet<OperatorId> { todo!() }
}
";
        assert_eq!(
            lines("flat-placement", "crates/core/src/topology.rs", source),
            vec![3, 7]
        );
        assert_eq!(
            lines("flat-placement", "crates/runtime/src/tree.rs", source),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn every_row_names_paths_that_exist() {
        let homes = CONFINE.iter().flat_map(|row| row.homes).map(|h| match *h {
            Home::File(file) | Home::Fn(file, _) => file,
        });
        let scopes = CONFINE.iter().flat_map(|row| row.scope);
        let scopes = scopes.chain(CENSUS.iter().flat_map(|row| row.scope));
        for path in scopes.copied().chain(homes) {
            assert!(repo_root().join(path).exists(), "{path}");
        }
    }

    #[test]
    fn every_census_row_fires_on_one_declaration_too_many_and_one_too_few() {
        for row in &CENSUS {
            let file = file_in(row.scope[0]);
            let decl = |name: &str| match row.decl {
                Decl::Fn => format!("    fn {name}() {{}}"),
                Decl::PubFn | Decl::FreePubFn => format!("pub fn {name}() {{}}"),
                Decl::PubStruct => format!("pub struct {name};"),
            };
            let lines_of = |names: &[String]| {
                let source: String = names.iter().map(|n| decl(n) + "\n").collect();
                let mut v = Vec::new();
                census(row, &[(Path::new(&file), code_lines(&source))], &mut v);
                assert!(v.iter().all(|x| x.rule == row.rule));
                v.iter().map(|x| x.line).collect::<Vec<_>>()
            };
            // A name each pattern matches, `i` telling several apart.
            let sample = |pattern: &str, i: usize| pattern.replace('*', &format!("Probe{i}"));
            match row.expect {
                Expect::Only(names) => {
                    let mut decls: Vec<String> = names.iter().map(|n| n.to_string()).collect();
                    assert!(names
                        .iter()
                        .all(|n| row.names.iter().any(|p| matches(p, n))));
                    assert_eq!(lines_of(&decls), [], "{}", row.rule);
                    for pattern in row.names {
                        decls.push(sample(pattern, 0));
                        assert_eq!(lines_of(&decls), [decls.len()], "{} {pattern}", row.rule);
                        decls.pop();
                    }
                    // An `Only` row lists what may be declared; one too few
                    // is a listed name going away, which it lets pass.
                    if let Some(listed) = decls.pop() {
                        assert_eq!(lines_of(&decls), [], "{} without {listed}", row.rule);
                    }
                }
                Expect::Exactly(n) => {
                    let exact: Vec<String> = row
                        .names
                        .iter()
                        .flat_map(|p| (0..n).map(|i| sample(p, i)))
                        .collect();
                    assert_eq!(lines_of(&exact), [], "{}", row.rule);
                    for (k, pattern) in row.names.iter().enumerate() {
                        let mut more = exact.clone();
                        more.push(sample(pattern, n));
                        assert_eq!(lines_of(&more), [more.len()], "{} {pattern}", row.rule);
                        let mut fewer = exact.clone();
                        fewer.remove(k * n);
                        assert_eq!(lines_of(&fewer), [0], "{} {pattern}", row.rule);
                    }
                }
            }
        }
    }

    #[test]
    fn every_row_message_reads_without_a_double_space() {
        let mut messages: Vec<String> = CONFINE
            .iter()
            .flat_map(|row| {
                row.needles
                    .iter()
                    .map(|n| row.why.replace("{}", &n.shown()))
            })
            .collect();
        messages.extend(CENSUS.iter().map(|row| row.why.replace("{}", "Probe")));
        for message in messages {
            assert!(!message.contains("  "), "{message}");
            assert!(!message.contains("{}"), "{message}");
        }
    }
}
