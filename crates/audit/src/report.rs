//! Diagnostic types shared by every audit pass.

use std::fmt;

/// How bad a diagnostic is.
///
/// The encoder hooks (and CI smokes) gate on [`Severity::Error`] only:
/// an `Error` means the model violates an invariant every well-formed
/// Wishbone encoding satisfies, so the encoder that produced it has a
/// bug. `Warn` flags conditions that are legitimate on some inputs
/// (e.g. a provably infeasible model during a rate search probing past
/// the sustainable rate) but deserve a look when unexpected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational observation; never gates anything.
    Info,
    /// Suspicious but possible on legitimate inputs.
    Warn,
    /// Invariant violation: the encoder that emitted this model is wrong.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Machine-readable class of a diagnostic. One code maps to exactly one
/// check, so tests can assert on the *kind* of corruption detected
/// without string-matching messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditCode {
    /// A coefficient, bound, rhs, or objective entry is NaN or ±∞ where
    /// a finite value is required.
    NonFiniteValue,
    /// A constraint row has no terms.
    EmptyRow,
    /// A row references the same column twice.
    DuplicateTerm,
    /// Two rows are exactly identical (terms, sense, rhs).
    DuplicateRow,
    /// A column appears in no row and has no objective weight but is
    /// not fixed by its bounds — it can never matter to the solve.
    DanglingColumn,
    /// An integer column's bounds are not `{0, 1}` (all Wishbone
    /// placement indicators are binary).
    NonBinaryIndicator,
    /// An integer column is not registered in any indicator block.
    StrayIntegerColumn,
    /// A `y_v^{b+1} − y_v^b ≥ 0` monotonicity row the spec requires is
    /// missing (k ≥ 3 cuts could become non-monotone).
    MissingMonotonicityRow,
    /// A row matches no recognized shape: not a registered budget row,
    /// not a monotonicity/precedence row over indicator columns.
    UnknownRow,
    /// A registered CPU/uplink budget row is malformed (wrong sense,
    /// empty, non-finite or negative-infinite rhs, or touching
    /// non-indicator columns).
    BadBudgetRow,
    /// A registered uplink (net) row's coefficients do not telescope to
    /// ~0: transmit/receive rates no longer cancel along the chain, the
    /// signature of a sign-flipped or dropped term.
    UnbalancedUplinkRow,
    /// A row's nonzero coefficients span more than ~8 orders of
    /// magnitude — pivoting on the small ones amplifies roundoff.
    CoefficientRange,
    /// A row stores a coefficient vastly smaller than its largest — an
    /// exact-zero that should have been filtered, or a pivot-risk term.
    TinyCoefficient,
    /// A row's rhs is out of all proportion to its coefficients.
    RhsScaleMismatch,
    /// Row-singleton bound propagation proves the model infeasible
    /// without a single simplex iteration.
    ProvablyInfeasible,
    /// The [`ModelSpec`](crate::ModelSpec) itself is inconsistent with
    /// the problem (out-of-range column/row indices, overlapping
    /// registrations) — an encoder wiring bug, not a model property.
    InvalidSpec,
    /// A budget row pinned by the spec no longer carries the exact
    /// coefficients or rhs it was registered with — an in-place rescale
    /// re-priced the row against the encoder's declared intent (e.g. a
    /// robust `count − 1` row silently re-priced at full count).
    PinnedRowDrift,
    /// A proposed assignment's indicator column is not (near-)integral
    /// 0/1 — the placement it claims to encode does not exist.
    FractionalIndicator,
    /// A proposed assignment breaks a block's `y^{b+1} ≥ y^b` staircase:
    /// the per-vertex tier it implies is not well-defined.
    NonMonotoneAssignment,
    /// A proposed assignment violates a variable bound or constraint row
    /// of the problem — it is not the integer-feasible placement its
    /// producer (e.g. the multilevel heuristic seeding branch-and-bound)
    /// claims by construction.
    AssignmentInfeasible,
}

impl fmt::Display for AuditCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Debug names are stable, kebab-free identifiers: fine for logs.
        write!(f, "{self:?}")
    }
}

/// One finding: what, how bad, and where.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: AuditCode,
    /// How bad it is.
    pub severity: Severity,
    /// Offending constraint row, if the finding is row-scoped.
    pub row: Option<usize>,
    /// Offending column (variable index), if column-scoped.
    pub column: Option<usize>,
    /// Human-readable explanation with the concrete numbers.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.severity, self.code)?;
        if let Some(r) = self.row {
            write!(f, " row {r}")?;
        }
        if let Some(c) = self.column {
            write!(f, " col {c}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything an audit pass found, in emission order.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// All findings, in the order the checks emitted them.
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// No findings at all (not even `Info`).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Does any finding have [`Severity::Error`]?
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// All `Error`-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// All `Warn`-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// `true` iff some finding carries `code` (at any severity).
    pub fn has_code(&self, code: AuditCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// One-line count summary, e.g. `2 errors, 1 warning, 0 info`.
    pub fn summary(&self) -> String {
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let info = self.diagnostics.len() - errors - warnings;
        format!("{errors} errors, {warnings} warnings, {info} info")
    }

    /// The self-audit hook encoders call on their own output under
    /// `debug_assertions`: panic if the model carries any
    /// `Error`-severity diagnostic, naming the `encoder` that emitted it.
    /// `Warn` findings (e.g. a provably infeasible rate-search probe)
    /// pass through.
    pub fn assert_no_errors(&self, encoder: &str) {
        assert!(
            !self.has_errors(),
            "{encoder} emitted a model the static auditor rejects:\n{self}"
        );
    }

    pub(crate) fn push(
        &mut self,
        code: AuditCode,
        severity: Severity,
        row: Option<usize>,
        column: Option<usize>,
        message: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            row,
            column,
            message,
        });
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean (no diagnostics)");
        }
        writeln!(f, "audit: {}", self.summary())?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}
