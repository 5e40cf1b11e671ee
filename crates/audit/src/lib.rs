//! # wishbone-audit
//!
//! Static analysis for encoded Wishbone ILPs. The partitioner's
//! correctness story rests on three generations of encoders kept alive
//! as bit-for-bit oracles, but a malformed monotonicity block or a
//! mis-scaled budget row is only caught if a differential test happens
//! to trip on it. This crate checks the *structure* of a
//! [`Problem`] before it hits the simplex — zero solver iterations —
//! and returns a structured [`AuditReport`].
//!
//! Two entry points:
//!
//! - [`audit_problem`] runs the encoding-agnostic checks any LP should
//!   pass: no empty or duplicate rows, no dangling columns, finite
//!   values, sane per-row conditioning. Proving a model infeasible is
//!   `wishbone_ilp::presolve`'s job, which runs before every root LP.
//! - [`audit_model`] additionally takes a [`ModelSpec`] describing what
//!   the encoder *meant* — its monotone-indicator blocks and registered
//!   budget rows — and verifies every row of the problem is accounted
//!   for: monotonicity rows present for every `(boundary, vertex)`
//!   pair, precedence rows well-formed, budget rows `≤` with finite
//!   rhs, uplink rows telescoping to zero, and nothing else.
//!
//! Severity semantics: `Error` means an invariant every well-formed
//! Wishbone encoding satisfies is violated (the encoder has a bug);
//! `Warn` covers conditions that are legitimate on some inputs, such as
//! a wide coefficient range. The `debug_assertions` hooks in
//! `wishbone-core` assert only that no `Error` is present.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;

pub use report::{AuditCode, AuditReport, Diagnostic, Severity};

use std::collections::{HashMap, HashSet};
use wishbone_ilp::{Problem, Sense};

/// A row's nonzero coefficients may span at most this ratio before the
/// dynamic-range warning fires.
pub const DYNAMIC_RANGE_LIMIT: f64 = 1e8;
/// Coefficients smaller than this fraction of the row's largest are
/// flagged as pivot risks.
pub const TINY_COEFF_RATIO: f64 = 1e-9;
/// A rhs larger than this multiple of the row's largest coefficient is
/// flagged as a scale mismatch.
pub const RHS_SCALE_LIMIT: f64 = 1e9;
/// Relative tolerance for the uplink-row telescoping check: the
/// coefficients of a conserved net row must sum to zero within this
/// fraction of their absolute sum.
pub const CONSERVATION_TOL: f64 = 1e-6;

/// One monotone-indicator block: the `y_v^b` grid of a single leaf
/// class (or the `f` vector of a binary encoding, which is a one-
/// boundary block).
///
/// `columns[b][v]` is the variable index of the indicator "vertex `v`
/// sits at path position ≤ `b`". Every row of the grid must have the
/// same length. Only the last boundary's cells may share a column — one
/// indicator for a class of vertices that the encoding holds equal
/// there — and a shared column must appear in exactly its members'
/// monotonicity rows.
#[derive(Debug, Clone)]
pub struct IndicatorBlock {
    /// Boundary-major indicator grid.
    pub columns: Vec<Vec<usize>>,
}

/// An exact snapshot of one budget row's intended contents, compared
/// bitwise (coefficient and rhs bit patterns) by [`audit_model`].
///
/// Pinning lets an encoder freeze the *numbers* of its most delicate
/// rows — robustness-priced `count − 1` budgets, delta-rescaled
/// coefficients — so any later in-place surgery that silently re-prices
/// them is flagged as [`AuditCode::PinnedRowDrift`], not waved through
/// as a structurally valid budget row.
#[derive(Debug, Clone)]
pub struct PinnedRow {
    /// Constraint index the snapshot pins.
    pub row: usize,
    /// Expected `(column, coefficient)` terms. Order-insensitive; the
    /// coefficients themselves are compared bit for bit.
    pub terms: Vec<(usize, f64)>,
    /// Expected right-hand side, compared bit for bit.
    pub rhs: f64,
}

/// What the encoder claims about its output: which columns are
/// placement indicators (grouped into per-leaf monotone blocks) and
/// which rows are budget rows. [`audit_model`] verifies the problem
/// against this and flags anything unexplained.
#[derive(Debug, Clone, Default)]
pub struct ModelSpec {
    /// Monotone-indicator blocks, one per leaf class.
    pub blocks: Vec<IndicatorBlock>,
    /// Constraint indices of CPU-budget rows (one per site/tier).
    pub cpu_rows: Vec<usize>,
    /// Constraint indices of uplink/net-budget rows (one per tree edge
    /// or link).
    pub net_rows: Vec<usize>,
    /// Net rows telescope: their coefficients are per-vertex
    /// `Σ_out r − Σ_in r` flow deltas and must sum to ~0. True for every
    /// indicator-variable encoding; false for the general edge-variable
    /// encoding, whose net row is a positive sum over edge variables.
    pub conserved_net: bool,
    /// Allow the general encoding's 3-term `f_u − f_v + e ≥ 0` rows
    /// (and net rows over continuous edge columns instead of
    /// indicators).
    pub general_edge_rows: bool,
    /// Exact-value snapshots of budget rows to hold the problem to
    /// (empty = no pinning).
    pub pinned_rows: Vec<PinnedRow>,
}

/// Encoding-agnostic audit: structural hygiene and numeric
/// conditioning. See the crate docs for the check list.
pub fn audit_problem(problem: &Problem) -> AuditReport {
    let mut report = AuditReport::default();
    generic_checks(problem, &[], &mut report);
    report
}

/// Full audit: everything [`audit_problem`] checks, plus verification
/// that the problem matches the encoder's [`ModelSpec`] — every row
/// classified, every required monotonicity row present, budget rows
/// well-formed.
pub fn audit_model(problem: &Problem, spec: &ModelSpec) -> AuditReport {
    let mut report = AuditReport::default();
    let budget_rows: Vec<usize> = spec
        .cpu_rows
        .iter()
        .chain(&spec.net_rows)
        .copied()
        .collect();
    generic_checks(problem, &budget_rows, &mut report);
    if let Some(columns) = validate_spec(problem, spec, &mut report) {
        structural_checks(problem, spec, &columns, &mut report);
    }
    check_pinned_rows(problem, spec, &mut report);
    report
}

/// Relative feasibility tolerance for [`audit_assignment`], matching
/// the solver's own integer-feasibility check.
pub const ASSIGNMENT_TOL: f64 = 1e-6;

/// Assignment-level feasibility audit: verify that a *proposed
/// placement* (a full variable assignment, e.g. the y-vector an
/// approximate partitioner emits) really is integer-feasible for the
/// encoded problem, and structurally sane for the spec's indicator
/// blocks.
///
/// Where [`audit_model`] checks the *model* an encoder built,
/// `audit_assignment` checks a *point* a heuristic claims lies inside
/// it — the static half of the "feasible by construction" contract:
///
/// * every indicator column holds a (near-)integral 0/1 value
///   ([`AuditCode::FractionalIndicator`] otherwise);
/// * every block's per-vertex staircase is monotone, `y^{b+1} ≥ y^b`,
///   so the assignment decodes to a well-defined tier per vertex
///   ([`AuditCode::NonMonotoneAssignment`]);
/// * every variable bound and every constraint row of the problem holds
///   within [`ASSIGNMENT_TOL`] ([`AuditCode::AssignmentInfeasible`],
///   reported per offending row with the concrete activity and rhs).
///
/// All findings are `Error`-severity: a producer that claims
/// feasibility by construction has a bug if any of them fire.
pub fn audit_assignment(problem: &Problem, spec: &ModelSpec, values: &[f64]) -> AuditReport {
    let mut report = AuditReport::default();
    if values.len() != problem.num_vars() {
        report.push(
            AuditCode::AssignmentInfeasible,
            Severity::Error,
            None,
            None,
            format!(
                "assignment has {} values for {} variables",
                values.len(),
                problem.num_vars()
            ),
        );
        return report;
    }

    // Indicator integrality and per-block staircases.
    for (bi, block) in spec.blocks.iter().enumerate() {
        for (b, row) in block.columns.iter().enumerate() {
            for (v, &col) in row.iter().enumerate() {
                let Some(&x) = values.get(col) else { continue };
                // A rounded value outside {0, 1} is caught by the bound
                // check below; fractional is caught here.
                if (x - x.round()).abs() > ASSIGNMENT_TOL {
                    report.push(
                        AuditCode::FractionalIndicator,
                        Severity::Error,
                        None,
                        Some(col),
                        format!("block {bi} boundary {b} vertex {v}: indicator value {x}"),
                    );
                }
            }
        }
        for b in 0..block.columns.len().saturating_sub(1) {
            let (lo, hi) = (&block.columns[b], &block.columns[b + 1]);
            for (v, (&cl, &ch)) in lo.iter().zip(hi.iter()).enumerate() {
                let (Some(&xl), Some(&xh)) = (values.get(cl), values.get(ch)) else {
                    continue;
                };
                if xh < xl - ASSIGNMENT_TOL {
                    report.push(
                        AuditCode::NonMonotoneAssignment,
                        Severity::Error,
                        None,
                        Some(ch),
                        format!("block {bi} vertex {v}: y^{} = {xh} < y^{b} = {xl}", b + 1),
                    );
                }
            }
        }
    }

    // Variable bounds.
    let lower = problem.lower_bounds();
    let upper = problem.upper_bounds();
    for (j, &x) in values.iter().enumerate() {
        if x < lower[j] - ASSIGNMENT_TOL || x > upper[j] + ASSIGNMENT_TOL {
            report.push(
                AuditCode::AssignmentInfeasible,
                Severity::Error,
                None,
                Some(j),
                format!("value {x} outside bounds [{}, {}]", lower[j], upper[j]),
            );
        }
    }

    // Every constraint row, with the concrete activity in the message.
    for row in 0..problem.num_constraints() {
        let c = problem.constraint(row);
        let activity: f64 = c.terms.iter().map(|&(v, a)| a * values[v.0]).sum();
        let tol = ASSIGNMENT_TOL * (1.0 + c.rhs.abs());
        let violated = match c.sense {
            Sense::Le => activity > c.rhs + tol,
            Sense::Ge => activity < c.rhs - tol,
            Sense::Eq => (activity - c.rhs).abs() > tol,
        };
        if violated {
            report.push(
                AuditCode::AssignmentInfeasible,
                Severity::Error,
                Some(row),
                None,
                format!(
                    "row activity {activity} violates {:?} {} by {:e}",
                    c.sense,
                    c.rhs,
                    (activity - c.rhs).abs()
                ),
            );
        }
    }
    report
}

/// Hold every pinned budget row to its registered snapshot, bit for
/// bit. Term order is canonicalized by column; coefficient and rhs
/// values are compared via their bit patterns, so even a
/// sign-preserving ULP drift is caught.
fn check_pinned_rows(problem: &Problem, spec: &ModelSpec, report: &mut AuditReport) {
    let m = problem.num_constraints();
    for pin in &spec.pinned_rows {
        if pin.row >= m {
            report.push(
                AuditCode::InvalidSpec,
                Severity::Error,
                Some(pin.row),
                None,
                format!("pinned row index out of range ({m} rows)"),
            );
            continue;
        }
        let canonical = |terms: &[(usize, f64)]| {
            let mut t: Vec<(usize, u64)> = terms.iter().map(|&(v, a)| (v, a.to_bits())).collect();
            t.sort_unstable();
            t
        };
        let c = problem.constraint(pin.row);
        let actual: Vec<(usize, f64)> = c.terms.iter().map(|&(v, a)| (v.0, a)).collect();
        if canonical(&actual) != canonical(&pin.terms) {
            report.push(
                AuditCode::PinnedRowDrift,
                Severity::Error,
                Some(pin.row),
                None,
                format!(
                    "row coefficients drifted from their pinned snapshot \
                     (pinned {} terms, found {})",
                    pin.terms.len(),
                    c.terms.len()
                ),
            );
        }
        if c.rhs.to_bits() != pin.rhs.to_bits() {
            report.push(
                AuditCode::PinnedRowDrift,
                Severity::Error,
                Some(pin.row),
                None,
                format!("rhs {} drifted from its pinned snapshot {}", c.rhs, pin.rhs),
            );
        }
    }
}

/// Where one indicator column sits inside its spec: `(block, boundary,
/// vertex)`.
type Cell = (usize, usize, usize);

/// The spec's indicator columns, as [`validate_spec`] found them.
struct Columns {
    /// The cell each column was first registered at.
    cells: HashMap<usize, Cell>,
    /// `(column, vertex)` for each later cell of a shared last-boundary
    /// column: the vertices whose monotonicity rows it may appear in,
    /// beside its first cell's.
    shared: HashSet<(usize, usize)>,
}

/// Duplicate-row fingerprint: sorted `(column, coefficient bits)` terms,
/// a sense tag, and the rhs bits.
type RowKey = (Vec<(usize, u64)>, u8, u64);

/// Check the spec itself is consistent with the problem; on success
/// return its [`Columns`]. A broken spec is an encoder wiring
/// bug ([`AuditCode::InvalidSpec`], `Error`) and structural checks are
/// skipped to avoid cascading nonsense.
fn validate_spec(problem: &Problem, spec: &ModelSpec, report: &mut AuditReport) -> Option<Columns> {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let mut ok = true;
    let mut cells: HashMap<usize, Cell> = HashMap::new();
    let mut shared: HashSet<(usize, usize)> = HashSet::new();
    for (bi, block) in spec.blocks.iter().enumerate() {
        let width = block.columns.first().map_or(0, Vec::len);
        let last = block.columns.len().saturating_sub(1);
        for (b, row) in block.columns.iter().enumerate() {
            if row.len() != width {
                report.push(
                    AuditCode::InvalidSpec,
                    Severity::Error,
                    None,
                    None,
                    format!(
                        "block {bi} boundary {b} has {} columns, expected {width}",
                        row.len()
                    ),
                );
                ok = false;
            }
            for (v, &col) in row.iter().enumerate() {
                if col >= n {
                    report.push(
                        AuditCode::InvalidSpec,
                        Severity::Error,
                        None,
                        Some(col),
                        format!("block {bi} boundary {b} vertex {v}: column out of range"),
                    );
                    ok = false;
                } else if let Some(&prev) = cells.get(&col) {
                    if (prev.0, prev.1, b) == (bi, last, last) {
                        shared.insert((col, v));
                        continue;
                    }
                    report.push(
                        AuditCode::InvalidSpec,
                        Severity::Error,
                        None,
                        Some(col),
                        format!(
                            "column registered twice: cells {prev:?} and {:?}",
                            (bi, b, v)
                        ),
                    );
                    ok = false;
                } else {
                    cells.insert(col, (bi, b, v));
                }
            }
        }
    }
    let mut seen_rows: HashMap<usize, &'static str> = HashMap::new();
    for (kind, rows) in [("cpu", &spec.cpu_rows), ("net", &spec.net_rows)] {
        for &row in rows {
            if row >= m {
                report.push(
                    AuditCode::InvalidSpec,
                    Severity::Error,
                    Some(row),
                    None,
                    format!("{kind} budget row index out of range ({m} rows)"),
                );
                ok = false;
            } else if let Some(prev) = seen_rows.insert(row, kind) {
                report.push(
                    AuditCode::InvalidSpec,
                    Severity::Error,
                    Some(row),
                    None,
                    format!("row registered as both {prev} and {kind} budget"),
                );
                ok = false;
            }
        }
    }
    ok.then_some(Columns { cells, shared })
}

fn generic_checks(problem: &Problem, budget_rows: &[usize], report: &mut AuditReport) {
    use wishbone_ilp::VarId;
    let n = problem.num_vars();
    let m = problem.num_constraints();

    // Column-level: non-finite objective entries, dangling columns.
    let mut used = vec![false; n];
    for row in 0..m {
        for &(v, _) in &problem.constraint(row).terms {
            used[v.0] = true;
        }
    }
    for (j, &col_used) in used.iter().enumerate() {
        let obj = problem.objective_coeff(VarId(j));
        if obj.is_nan() || obj.is_infinite() {
            report.push(
                AuditCode::NonFiniteValue,
                Severity::Error,
                None,
                Some(j),
                format!("objective coefficient is {obj}"),
            );
        }
        let (lo, hi) = (problem.lower_bounds()[j], problem.upper_bounds()[j]);
        if lo.is_nan() || hi.is_nan() || lo.is_infinite() {
            report.push(
                AuditCode::NonFiniteValue,
                Severity::Error,
                None,
                Some(j),
                format!("bounds [{lo}, {hi}] are not a finite-below interval"),
            );
        }
        if !col_used && obj == 0.0 && lo < hi {
            report.push(
                AuditCode::DanglingColumn,
                Severity::Warn,
                None,
                Some(j),
                "column appears in no constraint and carries no objective weight".to_string(),
            );
        }
    }

    // Row-level hygiene and conditioning.
    let mut row_keys: HashMap<RowKey, usize> = HashMap::new();
    for row in 0..m {
        let c = problem.constraint(row);
        if c.rhs.is_nan() || c.rhs.is_infinite() {
            report.push(
                AuditCode::NonFiniteValue,
                Severity::Error,
                Some(row),
                None,
                format!("rhs is {}", c.rhs),
            );
        }
        if c.terms.is_empty() {
            report.push(
                AuditCode::EmptyRow,
                Severity::Error,
                Some(row),
                None,
                "constraint has no terms".to_string(),
            );
            continue;
        }
        let mut seen_cols: HashMap<usize, f64> = HashMap::new();
        let mut amax = 0.0f64;
        let mut amin = f64::INFINITY;
        for &(v, a) in &c.terms {
            if a.is_nan() || a.is_infinite() {
                report.push(
                    AuditCode::NonFiniteValue,
                    Severity::Error,
                    Some(row),
                    Some(v.0),
                    format!("coefficient is {a}"),
                );
                continue;
            }
            if let Some(prev) = seen_cols.insert(v.0, a) {
                report.push(
                    AuditCode::DuplicateTerm,
                    Severity::Warn,
                    Some(row),
                    Some(v.0),
                    format!("column appears twice (coefficients {prev} and {a})"),
                );
            }
            let mag = a.abs();
            if mag > 0.0 {
                amax = amax.max(mag);
                amin = amin.min(mag);
            } else {
                report.push(
                    AuditCode::TinyCoefficient,
                    Severity::Warn,
                    Some(row),
                    Some(v.0),
                    "exact-zero coefficient stored instead of filtered".to_string(),
                );
            }
        }
        if amax > 0.0 && amax / amin > DYNAMIC_RANGE_LIMIT {
            report.push(
                AuditCode::CoefficientRange,
                Severity::Warn,
                Some(row),
                None,
                format!(
                    "coefficient magnitudes span [{amin:.3e}, {amax:.3e}] \
                     ({:.1e}x > {DYNAMIC_RANGE_LIMIT:.0e} limit)",
                    amax / amin
                ),
            );
        }
        if amax > 0.0 && amin < TINY_COEFF_RATIO * amax {
            report.push(
                AuditCode::TinyCoefficient,
                Severity::Warn,
                Some(row),
                None,
                format!("smallest coefficient {amin:.3e} is a pivot risk next to {amax:.3e}"),
            );
        }
        if amax > 0.0 && c.rhs.is_finite() && c.rhs != 0.0 && c.rhs.abs() > RHS_SCALE_LIMIT * amax {
            report.push(
                AuditCode::RhsScaleMismatch,
                Severity::Warn,
                Some(row),
                None,
                format!(
                    "rhs {:.3e} dwarfs the largest coefficient {amax:.3e}",
                    c.rhs
                ),
            );
        }

        // Duplicate-row detection over a canonical key.
        let mut key_terms: Vec<(usize, u64)> =
            c.terms.iter().map(|&(v, a)| (v.0, a.to_bits())).collect();
        key_terms.sort_unstable();
        let sense_tag = match c.sense {
            Sense::Le => 0u8,
            Sense::Ge => 1,
            Sense::Eq => 2,
        };
        let key = (key_terms, sense_tag, c.rhs.to_bits());
        if let Some(&first) = row_keys.get(&key) {
            let is_budget = budget_rows.contains(&row) || budget_rows.contains(&first);
            report.push(
                AuditCode::DuplicateRow,
                if is_budget {
                    Severity::Error
                } else {
                    Severity::Warn
                },
                Some(row),
                None,
                format!(
                    "identical to row {first}{}",
                    if is_budget {
                        " — a budget row must be unique (duplicating one doubles nothing \
                         but hides a lost row elsewhere)"
                    } else {
                        ""
                    }
                ),
            );
        } else {
            row_keys.insert(key, row);
        }
    }
}

fn structural_checks(
    problem: &Problem,
    spec: &ModelSpec,
    columns: &Columns,
    report: &mut AuditReport,
) {
    use wishbone_ilp::VarId;
    let cells = &columns.cells;
    let n = problem.num_vars();
    let m = problem.num_constraints();

    // Indicator columns: integer with {0, 1} bounds (pinned vertices are
    // fixed at 0 or 1, still within the lattice). Integer columns
    // outside every block have no business in a Wishbone encoding.
    for j in 0..n {
        let (lo, hi) = (problem.lower_bounds()[j], problem.upper_bounds()[j]);
        if let Some(&(bi, b, v)) = cells.get(&j) {
            if !problem.is_integer(VarId(j)) {
                report.push(
                    AuditCode::NonBinaryIndicator,
                    Severity::Error,
                    None,
                    Some(j),
                    format!("indicator (block {bi}, boundary {b}, vertex {v}) is continuous"),
                );
            }
            let binary = |x: f64| x == 0.0 || x == 1.0;
            if !binary(lo) || !binary(hi) {
                report.push(
                    AuditCode::NonBinaryIndicator,
                    Severity::Error,
                    None,
                    Some(j),
                    format!(
                        "indicator (block {bi}, boundary {b}, vertex {v}) has bounds \
                         [{lo}, {hi}], expected a sub-interval of {{0, 1}}"
                    ),
                );
            }
        } else if problem.is_integer(VarId(j)) {
            report.push(
                AuditCode::StrayIntegerColumn,
                Severity::Error,
                None,
                Some(j),
                "integer column is not registered in any indicator block".to_string(),
            );
        }
    }

    // Classify every row: registered budget row, monotonicity,
    // precedence, or (if allowed) general edge row. Anything else is an
    // encoder bug.
    let cpu_rows: Vec<usize> = spec.cpu_rows.clone();
    let net_rows: Vec<usize> = spec.net_rows.clone();
    let mut mono_seen: HashMap<(usize, usize, usize), usize> = HashMap::new();
    for row in 0..m {
        if cpu_rows.contains(&row) {
            check_budget_row(problem, row, cells, false, spec, report);
            continue;
        }
        if net_rows.contains(&row) {
            check_budget_row(problem, row, cells, true, spec, report);
            continue;
        }
        classify_structural_row(problem, row, columns, spec, &mut mono_seen, report);
    }

    // Every (boundary, vertex) pair of every multi-boundary block needs
    // its monotonicity row, or a k ≥ 3 cut can become non-monotone.
    for (bi, block) in spec.blocks.iter().enumerate() {
        let boundaries = block.columns.len();
        for b in 0..boundaries.saturating_sub(1) {
            for v in 0..block.columns[b].len() {
                if !mono_seen.contains_key(&(bi, b, v)) {
                    report.push(
                        AuditCode::MissingMonotonicityRow,
                        Severity::Error,
                        None,
                        Some(block.columns[b + 1][v]),
                        format!(
                            "no row enforces y[{}][{v}] ≥ y[{b}][{v}] in block {bi}",
                            b + 1
                        ),
                    );
                }
            }
        }
    }
}

fn check_budget_row(
    problem: &Problem,
    row: usize,
    cells: &HashMap<usize, Cell>,
    is_net: bool,
    spec: &ModelSpec,
    report: &mut AuditReport,
) {
    let c = problem.constraint(row);
    let kind = if is_net { "uplink" } else { "CPU" };
    if c.sense != Sense::Le || !c.rhs.is_finite() || c.terms.is_empty() {
        report.push(
            AuditCode::BadBudgetRow,
            Severity::Error,
            Some(row),
            None,
            format!(
                "{kind} budget row must be a non-empty ≤ with finite rhs \
                 (got {:?} with rhs {} over {} terms)",
                c.sense,
                c.rhs,
                c.terms.len()
            ),
        );
        return;
    }
    // The general encoding's net row lives on continuous edge columns;
    // every other budget row is a combination of indicators.
    let expect_indicators = !(is_net && spec.general_edge_rows);
    for &(v, _) in &c.terms {
        let on_indicator = cells.contains_key(&v.0);
        if expect_indicators != on_indicator {
            report.push(
                AuditCode::BadBudgetRow,
                Severity::Error,
                Some(row),
                Some(v.0),
                format!(
                    "{kind} budget row touches {} column",
                    if on_indicator {
                        "an indicator"
                    } else {
                        "a non-indicator"
                    }
                ),
            );
        } else if !expect_indicators && problem.is_integer(v) {
            report.push(
                AuditCode::BadBudgetRow,
                Severity::Error,
                Some(row),
                Some(v.0),
                format!("{kind} budget row touches an integer edge column"),
            );
        }
    }
    if is_net && spec.conserved_net {
        let sum: f64 = c.terms.iter().map(|&(_, a)| a).sum();
        let abs_sum: f64 = c.terms.iter().map(|&(_, a)| a.abs()).sum();
        if abs_sum > 0.0 && sum.abs() > CONSERVATION_TOL * abs_sum {
            report.push(
                AuditCode::UnbalancedUplinkRow,
                Severity::Error,
                Some(row),
                None,
                format!(
                    "uplink coefficients sum to {sum:.6e} (|Σ| = {:.3e} of Σ|a| = \
                     {abs_sum:.6e}) — transmit/receive rates no longer telescope; \
                     a term was flipped or dropped",
                    sum.abs() / abs_sum
                ),
            );
        }
    }
}

fn classify_structural_row(
    problem: &Problem,
    row: usize,
    columns: &Columns,
    spec: &ModelSpec,
    mono_seen: &mut HashMap<(usize, usize, usize), usize>,
    report: &mut AuditReport,
) {
    let (c, cells) = (problem.constraint(row), &columns.cells);
    let unknown = |report: &mut AuditReport, why: &str| {
        report.push(
            AuditCode::UnknownRow,
            Severity::Error,
            Some(row),
            None,
            format!("row is not a registered budget row and {why}"),
        );
    };
    if c.sense != Sense::Ge || c.rhs != 0.0 {
        unknown(
            report,
            &format!(
                "structural rows are ≥ 0 (got {:?} with rhs {})",
                c.sense, c.rhs
            ),
        );
        return;
    }
    match c.terms[..] {
        [(u, pa), (v, na)] => {
            // Monotonicity y[b+1][w] − y[b][w] ≥ 0 or precedence
            // y[b][src] − y[b][dst] ≥ 0: a ±1 pair inside one block.
            let (pos, neg) = if pa == 1.0 && na == -1.0 {
                (u.0, v.0)
            } else if pa == -1.0 && na == 1.0 {
                (v.0, u.0)
            } else {
                unknown(report, "its two coefficients are not the ±1 pair");
                return;
            };
            let (Some(&(pb, pbound, pv)), Some(&(nb, nbound, nv))) =
                (cells.get(&pos), cells.get(&neg))
            else {
                unknown(report, "it touches a column outside every indicator block");
                return;
            };
            if pb != nb {
                unknown(report, "it couples two different leaf-class blocks");
            } else if pbound == nbound + 1 && (pv == nv || columns.shared.contains(&(pos, nv))) {
                mono_seen.insert((pb, nbound, nv), row);
            } else if pbound == nbound {
                // Precedence along an edge at this boundary; edges are
                // the encoder's business, any pair is structurally fine.
            } else {
                unknown(
                    report,
                    &format!(
                        "it relates boundary {pbound} vertex {pv} to boundary \
                         {nbound} vertex {nv}, which is neither a monotonicity \
                         nor a precedence shape"
                    ),
                );
            }
        }
        [(a, ca), (b, cb), (d, cd)] if spec.general_edge_rows => {
            // General encoding (3): f_u − f_v + e ≥ 0. Two +1 terms
            // (one indicator, one continuous edge var) and one −1
            // indicator.
            let terms = [(a, ca), (b, cb), (d, cd)];
            let plus: Vec<usize> = terms
                .iter()
                .filter(|&&(_, w)| w == 1.0)
                .map(|&(x, _)| x.0)
                .collect();
            let minus: Vec<usize> = terms
                .iter()
                .filter(|&&(_, w)| w == -1.0)
                .map(|&(x, _)| x.0)
                .collect();
            if plus.len() != 2 || minus.len() != 1 {
                unknown(report, "its three coefficients are not {+1, +1, −1}");
                return;
            }
            let edge_cols: Vec<usize> = plus
                .iter()
                .copied()
                .filter(|x| !cells.contains_key(x))
                .collect();
            let ok = cells.contains_key(&minus[0])
                && edge_cols.len() == 1
                && !problem.is_integer(wishbone_ilp::VarId(edge_cols[0]));
            if !ok {
                unknown(
                    report,
                    "it does not match f_u − f_v + e ≥ 0 (one continuous edge \
                     column, two indicators)",
                );
            }
        }
        _ => unknown(
            report,
            &format!("its {}-term shape matches no known row kind", c.terms.len()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_ilp::{Problem, Sense};

    /// A well-formed 2-boundary block over 3 chain vertices with cpu +
    /// net rows, mirroring a k = 3 multitier encoding.
    fn good_model() -> (Problem, ModelSpec) {
        let mut p = Problem::new();
        let y: Vec<Vec<_>> = (0..2)
            .map(|_| (0..3).map(|_| p.add_binary(0.5)).collect())
            .collect();
        // Monotonicity y[1][v] − y[0][v] ≥ 0.
        for (hi, lo) in y[1].iter().zip(&y[0]) {
            p.add_constraint(&[(*hi, 1.0), (*lo, -1.0)], Sense::Ge, 0.0);
        }
        // Precedence along the chain 0 → 1 → 2 at both boundaries.
        for row in &y {
            for e in 0..2 {
                p.add_constraint(&[(row[e], 1.0), (row[e + 1], -1.0)], Sense::Ge, 0.0);
            }
        }
        let cpu = p.num_constraints();
        p.add_constraint(&[(y[0][0], 0.3), (y[0][1], 0.4)], Sense::Le, 0.9);
        let net = p.num_constraints();
        // Telescoping flow deltas: +10, (−10 + 4) = −6, −4.
        p.add_constraint(
            &[(y[0][0], 10.0), (y[0][1], -6.0), (y[0][2], -4.0)],
            Sense::Le,
            25.0,
        );
        let spec = ModelSpec {
            blocks: vec![IndicatorBlock {
                columns: y
                    .iter()
                    .map(|row| row.iter().map(|v| v.0).collect())
                    .collect(),
            }],
            cpu_rows: vec![cpu],
            net_rows: vec![net],
            conserved_net: true,
            general_edge_rows: false,
            pinned_rows: vec![],
        };
        (p, spec)
    }

    #[test]
    fn clean_model_audits_clean() {
        let (p, spec) = good_model();
        let report = audit_model(&p, &spec);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn empty_row_is_an_error() {
        let mut p = Problem::new();
        let _x = p.add_binary(1.0);
        p.add_constraint(&[], Sense::Le, 1.0);
        let report = audit_problem(&p);
        assert!(report.has_code(AuditCode::EmptyRow));
        assert!(report.has_errors());
    }

    #[test]
    fn duplicate_budget_row_is_an_error_plain_duplicate_a_warning() {
        let (mut p, spec) = good_model();
        let net = spec.net_rows[0];
        let dup = p.constraint(net).clone();
        p.add_constraint(&dup.terms, dup.sense, dup.rhs);
        let report = audit_model(&p, &spec);
        assert!(
            report.errors().any(|d| d.code == AuditCode::DuplicateRow),
            "{report}"
        );

        // The same duplication of a *precedence* row only warns.
        let (mut p, spec) = good_model();
        let dup = p.constraint(3).clone();
        p.add_constraint(&dup.terms, dup.sense, dup.rhs);
        let report = audit_model(&p, &spec);
        assert!(report.has_code(AuditCode::DuplicateRow));
        assert!(
            !report.errors().any(|d| d.code == AuditCode::DuplicateRow),
            "{report}"
        );
    }

    #[test]
    fn dangling_column_warns() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 1.0, false);
        let _dangling = p.add_var(0.0, 1.0, 0.0, false);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 1.0);
        let report = audit_problem(&p);
        assert!(report.has_code(AuditCode::DanglingColumn));
        assert!(!report.has_errors());
    }

    #[test]
    fn missing_monotonicity_row_is_detected() {
        let (mut p, spec) = good_model();
        // Overwrite the vertex-1 monotonicity row (index 1) in place so
        // budget-row indices stay valid.
        let y11 = spec.blocks[0].columns[1][1];
        p.replace_constraint(1, &[(wishbone_ilp::VarId(y11), 1.0)], Sense::Ge, 0.0);
        let report = audit_model(&p, &spec);
        assert!(
            report
                .errors()
                .any(|d| d.code == AuditCode::MissingMonotonicityRow),
            "{report}"
        );
    }

    /// `good_model` with vertices 1 and 2 sharing one top column: their
    /// two monotonicity rows, one precedence row at the top boundary.
    fn shared_top_model() -> (Problem, ModelSpec) {
        let mut p = Problem::new();
        let low: Vec<_> = (0..3).map(|_| p.add_binary(0.5)).collect();
        let top = [p.add_binary(0.5), p.add_binary(0.5)];
        let high = [top[0], top[1], top[1]];
        for (hi, lo) in high.iter().zip(&low) {
            p.add_constraint(&[(*hi, 1.0), (*lo, -1.0)], Sense::Ge, 0.0);
        }
        for e in 0..2 {
            p.add_constraint(&[(low[e], 1.0), (low[e + 1], -1.0)], Sense::Ge, 0.0);
        }
        p.add_constraint(&[(top[0], 1.0), (top[1], -1.0)], Sense::Ge, 0.0);
        let spec = ModelSpec {
            blocks: vec![IndicatorBlock {
                columns: vec![
                    low.iter().map(|v| v.0).collect(),
                    high.iter().map(|v| v.0).collect(),
                ],
            }],
            conserved_net: true,
            ..ModelSpec::default()
        };
        (p, spec)
    }

    #[test]
    fn a_shared_top_column_sits_in_exactly_its_members_monotonicity_rows() {
        let (p, spec) = shared_top_model();
        let report = audit_model(&p, &spec);
        assert!(!report.has_errors(), "{report}");

        // A member without its row.
        let mut missing = p.clone();
        let top1 = wishbone_ilp::VarId(spec.blocks[0].columns[1][2]);
        missing.replace_constraint(2, &[(top1, 1.0)], Sense::Ge, 0.0);
        let report = audit_model(&missing, &spec);
        assert!(
            report.has_code(AuditCode::MissingMonotonicityRow),
            "{report}"
        );

        // A non-member's row: vertex 0's lower indicator under the class
        // column of vertices 1 and 2.
        let mut stray = p.clone();
        let low0 = wishbone_ilp::VarId(spec.blocks[0].columns[0][0]);
        stray.replace_constraint(0, &[(top1, 1.0), (low0, -1.0)], Sense::Ge, 0.0);
        let report = audit_model(&stray, &spec);
        assert!(report.has_code(AuditCode::UnknownRow), "{report}");

        // Only the last boundary may share.
        let mut low_shared = spec.clone();
        low_shared.blocks[0].columns[0][2] = low_shared.blocks[0].columns[0][1];
        let report = audit_model(&p, &low_shared);
        assert!(report.has_code(AuditCode::InvalidSpec), "{report}");
    }

    #[test]
    fn sign_flipped_uplink_coefficient_is_detected() {
        let (mut p, spec) = good_model();
        let net = spec.net_rows[0];
        let mut terms = p.constraint(net).terms.clone();
        terms[0].1 = -terms[0].1;
        let (sense, rhs) = (p.constraint(net).sense, p.constraint(net).rhs);
        p.replace_constraint(net, &terms, sense, rhs);
        let report = audit_model(&p, &spec);
        assert!(
            report
                .errors()
                .any(|d| d.code == AuditCode::UnbalancedUplinkRow && d.row == Some(net)),
            "{report}"
        );
    }

    #[test]
    fn non_binary_indicator_and_stray_integer_are_errors() {
        let mut p = Problem::new();
        let y = p.add_var(0.0, 2.0, 1.0, true); // bounds exceed {0, 1}
        let _stray = p.add_var(0.0, 1.0, 1.0, true);
        p.add_constraint(&[(y, 1.0)], Sense::Le, 1.0);
        let spec = ModelSpec {
            blocks: vec![IndicatorBlock {
                columns: vec![vec![y.0]],
            }],
            cpu_rows: vec![0],
            net_rows: vec![],
            conserved_net: true,
            general_edge_rows: false,
            pinned_rows: vec![],
        };
        let report = audit_model(&p, &spec);
        assert!(
            report
                .errors()
                .any(|d| d.code == AuditCode::NonBinaryIndicator),
            "{report}"
        );
        assert!(
            report
                .errors()
                .any(|d| d.code == AuditCode::StrayIntegerColumn),
            "{report}"
        );
    }

    #[test]
    fn unknown_row_is_an_error() {
        let (mut p, spec) = good_model();
        let y00 = spec.blocks[0].columns[0][0];
        // A ≥ row with a coefficient outside ±1 matches nothing.
        p.add_constraint(&[(wishbone_ilp::VarId(y00), 2.0)], Sense::Ge, 0.0);
        let report = audit_model(&p, &spec);
        assert!(
            report.errors().any(|d| d.code == AuditCode::UnknownRow),
            "{report}"
        );
    }

    #[test]
    fn conditioning_warnings_fire() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 1.0, false);
        let y = p.add_var(0.0, 1.0, 1.0, false);
        p.add_constraint(&[(x, 1e9), (y, 1e-3)], Sense::Le, 1e9);
        p.add_constraint(&[(x, 1.0)], Sense::Le, 1e12);
        let report = audit_problem(&p);
        assert!(report.has_code(AuditCode::CoefficientRange));
        assert!(report.has_code(AuditCode::RhsScaleMismatch));
        assert!(!report.has_errors());
    }

    #[test]
    fn invalid_spec_short_circuits_structural_checks() {
        let (p, mut spec) = good_model();
        spec.cpu_rows.push(999);
        let report = audit_model(&p, &spec);
        assert!(
            report.errors().any(|d| d.code == AuditCode::InvalidSpec),
            "{report}"
        );
        // Structural findings are suppressed; generic ones remain.
        assert!(!report.has_code(AuditCode::UnknownRow));
    }

    #[test]
    fn pinned_row_drift_is_detected_bit_for_bit() {
        let (mut p, mut spec) = good_model();
        let cpu = spec.cpu_rows[0];
        let snapshot = p.constraint(cpu).clone();
        spec.pinned_rows = vec![PinnedRow {
            row: cpu,
            terms: snapshot.terms.iter().map(|&(v, a)| (v.0, a)).collect(),
            rhs: snapshot.rhs,
        }];
        assert!(!audit_model(&p, &spec).has_errors());

        // Re-price one coefficient by a relative 1e-12 — structurally
        // still a perfect budget row, but the pin catches it.
        let mut terms = snapshot.terms.clone();
        terms[0].1 *= 1.0 + 1e-12;
        p.replace_constraint(cpu, &terms, snapshot.sense, snapshot.rhs);
        let report = audit_model(&p, &spec);
        assert!(
            report
                .errors()
                .any(|d| d.code == AuditCode::PinnedRowDrift && d.row == Some(cpu)),
            "{report}"
        );

        // Rhs drift alone is caught too.
        p.replace_constraint(cpu, &snapshot.terms, snapshot.sense, snapshot.rhs * 0.5);
        let report = audit_model(&p, &spec);
        assert!(
            report.errors().any(|d| d.code == AuditCode::PinnedRowDrift),
            "{report}"
        );

        // An out-of-range pin is a spec bug, not drift.
        spec.pinned_rows[0].row = 999;
        assert!(audit_model(&p, &spec)
            .errors()
            .any(|d| d.code == AuditCode::InvalidSpec));
    }

    #[test]
    fn report_display_lists_findings() {
        let (p, spec) = good_model();
        let clean = audit_model(&p, &spec);
        assert!(format!("{clean}").contains("clean"));
        let mut p2 = Problem::new();
        let _ = p2.add_binary(1.0);
        p2.add_constraint(&[], Sense::Le, 0.0);
        let dirty = audit_problem(&p2);
        let text = format!("{dirty}");
        assert!(
            text.contains("error") && text.contains("EmptyRow"),
            "{text}"
        );
    }

    #[test]
    fn feasible_assignment_audits_clean() {
        let (p, spec) = good_model();
        // Tiers t = [0, 1, 2]: y^0 = [1,0,0], y^1 = [1,1,0] — monotone,
        // precedence-legal, cpu 0.3 ≤ 0.9, net 10 ≤ 25.
        let values = [1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        let report = audit_assignment(&p, &spec, &values);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn fractional_indicator_is_flagged() {
        let (p, spec) = good_model();
        let values = [1.0, 0.0, 0.0, 1.0, 0.5, 0.0];
        let report = audit_assignment(&p, &spec, &values);
        assert!(report.has_code(AuditCode::FractionalIndicator), "{report}");
        assert!(report.has_errors());
    }

    #[test]
    fn broken_staircase_is_flagged() {
        let (p, spec) = good_model();
        // Vertex 0 claims tier ≤ 0 but not tier ≤ 1: y^1 < y^0.
        let values = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let report = audit_assignment(&p, &spec, &values);
        assert!(
            report.has_code(AuditCode::NonMonotoneAssignment),
            "{report}"
        );
        // The monotonicity *row* is violated too.
        assert!(report.has_code(AuditCode::AssignmentInfeasible), "{report}");
    }

    #[test]
    fn violated_budget_row_is_flagged() {
        let (p, spec) = good_model();
        // Integral and monotone, but breaks the chain precedence rows
        // (vertex 1 placed below vertex 0).
        let values = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        let report = audit_assignment(&p, &spec, &values);
        assert!(report.has_code(AuditCode::AssignmentInfeasible), "{report}");
        assert!(
            report
                .errors()
                .any(|d| d.code == AuditCode::AssignmentInfeasible && d.row.is_some()),
            "{report}"
        );
    }

    #[test]
    fn out_of_bounds_value_is_flagged() {
        let (p, spec) = good_model();
        let values = [2.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        let report = audit_assignment(&p, &spec, &values);
        assert!(
            report
                .errors()
                .any(|d| d.code == AuditCode::AssignmentInfeasible && d.column == Some(0)),
            "{report}"
        );
    }

    #[test]
    fn wrong_length_assignment_is_flagged() {
        let (p, spec) = good_model();
        let report = audit_assignment(&p, &spec, &[1.0, 0.0]);
        assert!(report.has_code(AuditCode::AssignmentInfeasible), "{report}");
        assert_eq!(report.diagnostics.len(), 1);
    }
}
