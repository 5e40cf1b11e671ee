//! Problem definition: variables, bounds, linear constraints, objective.
//!
//! Wishbone formulates partitioning as an integer linear program
//! (§4.2.1). lp_solve — the solver the paper uses — is branch-and-bound
//! over Simplex; this crate implements the same architecture from scratch
//! because the offline crate set contains no LP solver.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Problem`] matrix stamps; `0` is reserved for the empty
/// problem. `Relaxed`: the value publishes no other data, it only has to
/// be unique.
static NEXT_MATRIX_STAMP: AtomicU64 = AtomicU64::new(1);

/// Index of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// One sparse linear constraint.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse terms `(variable, coefficient)`.
    pub terms: Vec<(VarId, f64)>,
    /// Relation between the linear form and `rhs`.
    pub sense: Sense,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// A linear (or mixed-integer linear) minimization problem.
///
/// ```
/// use wishbone_ilp::{solve_ilp, Problem, Sense};
/// let mut p = Problem::new();
/// let x = p.add_var(0.0, 1.0, -1.0, true); // binary, maximize x
/// let y = p.add_var(0.0, 1.0, -1.0, true);
/// p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
/// let sol = solve_ilp(&p, &Default::default()).unwrap();
/// assert!((sol.objective - (-1.0)).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) objective: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) integer: Vec<bool>,
    pub(crate) constraints: Vec<Constraint>,
    /// Process-unique identity of everything a simplex basis is tied to:
    /// the variable set and every row's terms and sense. Each mutator of
    /// those draws a new value; [`set_rhs`](Problem::set_rhs) and
    /// [`set_objective_coeff`](Problem::set_objective_coeff) do not, and
    /// a clone shares its original's until either side is mutated. Equal
    /// stamps therefore mean equal matrices, which is what lets a
    /// [`SimplexWorkspace`](crate::SimplexWorkspace) re-enter from a
    /// retained basis without comparing coefficients.
    pub(crate) matrix_stamp: u64,
}

impl Problem {
    /// Empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with bounds `[lower, upper]` (use
    /// `f64::INFINITY` for an unbounded-above variable), objective
    /// coefficient `obj` (minimization), and integrality flag.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64, integer: bool) -> VarId {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(lower <= upper, "lower bound {lower} exceeds upper {upper}");
        self.renew_matrix_stamp();
        let id = VarId(self.objective.len());
        self.objective.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        self.integer.push(integer);
        id
    }

    /// Shorthand for a `{0, 1}` decision variable.
    pub fn add_binary(&mut self, obj: f64) -> VarId {
        self.add_var(0.0, 1.0, obj, true)
    }

    /// Add one constraint.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], sense: Sense, rhs: f64) {
        for &(v, _) in terms {
            assert!(
                v.0 < self.objective.len(),
                "constraint references unknown variable"
            );
        }
        self.renew_matrix_stamp();
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            sense,
            rhs,
        });
    }

    fn renew_matrix_stamp(&mut self) {
        self.matrix_stamp = NEXT_MATRIX_STAMP.fetch_add(1, Ordering::Relaxed);
    }

    /// Objective coefficient of `v` (minimization).
    pub fn objective_coeff(&self, v: VarId) -> f64 {
        self.objective[v.0]
    }

    /// Overwrite the objective coefficient of `v` (minimization). Used to
    /// rescale a prepared problem in place — e.g. Wishbone's rate search
    /// multiplying every profiled cost by a new rate — without re-encoding.
    /// A workspace that solved this problem before may still re-enter
    /// from its retained basis afterwards: any basis stays a valid start
    /// under new costs.
    pub fn set_objective_coeff(&mut self, v: VarId, obj: f64) {
        self.objective[v.0] = obj;
    }

    /// Overwrite the right-hand side of constraint `row` (the companion of
    /// [`set_objective_coeff`](Problem::set_objective_coeff) for budget
    /// rows: `Σ c·f ≤ C/rate` is the rate-scaled `Σ rc·f ≤ C`). Like an
    /// objective change this keeps a retained basis usable — the sparse
    /// backend rereads the right-hand sides on every warm entry; the
    /// dense tableau has them baked in and starts cold instead.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        self.constraints[row].rhs = rhs;
    }

    /// Overwrite constraint `row` in place, keeping every other row's
    /// index stable. Removing a row instead would shift all later
    /// indices and stale any recorded budget-row positions, so in-place
    /// replacement is how the audit mutation tests seed a corrupted
    /// model (and how a caller would neutralize a row: replace it with
    /// a vacuous one). The row's terms may change, so the next solve of
    /// this problem in any workspace starts cold.
    pub fn replace_constraint(
        &mut self,
        row: usize,
        terms: &[(VarId, f64)],
        sense: Sense,
        rhs: f64,
    ) {
        self.rewrite_constraint(row, sense, rhs, |row_terms| {
            row_terms.extend_from_slice(terms)
        });
    }

    /// [`replace_constraint`](Problem::replace_constraint) into the row's
    /// own storage: `fill` receives the row's terms emptied, with their
    /// capacity kept, and pushes the new ones. A caller that rewrites the
    /// same rows again and again (a cached encoding morphed to each
    /// request's counts and budgets) allocates nothing once every row has
    /// held its longest form. The matrix stamp renews as it does there.
    pub fn rewrite_constraint(
        &mut self,
        row: usize,
        sense: Sense,
        rhs: f64,
        fill: impl FnOnce(&mut Vec<(VarId, f64)>),
    ) {
        assert!(row < self.constraints.len(), "no constraint at row {row}");
        self.renew_matrix_stamp();
        let n = self.objective.len();
        let c = &mut self.constraints[row];
        c.terms.clear();
        fill(&mut c.terms);
        for &(v, _) in &c.terms {
            assert!(v.0 < n, "constraint references unknown variable");
        }
        c.sense = sense;
        c.rhs = rhs;
    }

    /// Lower bounds of all variables (indexed by `VarId`). Useful with
    /// [`solve_lp_in`](crate::solve_lp_in), whose per-call bound slices
    /// default to these.
    pub fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bounds of all variables (indexed by `VarId`).
    pub fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraint at `row`, exactly as encoded (terms in insertion
    /// order). This is what the row-level differential parity tests
    /// compare: two encoders agree iff every row matches term for term.
    pub fn constraint(&self, row: usize) -> &Constraint {
        &self.constraints[row]
    }

    /// Is `v` an integer variable?
    pub fn is_integer(&self, v: VarId) -> bool {
        self.integer[v.0]
    }

    /// Objective value of a candidate assignment.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Does `x` satisfy every bound and constraint within `tol`?
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for ((&xi, &lo), &up) in x.iter().zip(&self.lower).zip(&self.upper) {
            if xi < lo - tol || xi > up + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v.0]).sum();
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Why a solve failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective can be driven to `-∞`.
    Unbounded,
    /// The simplex iteration limit was exceeded (numerical trouble).
    IterationLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "problem is unbounded"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solution of an LP relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Variable assignment.
    pub values: Vec<f64>,
    /// Simplex iterations used (both phases).
    pub iterations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_checks_bounds_and_constraints() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 2.0, 1.0, false);
        let y = p.add_var(0.0, 2.0, 1.0, false);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 3.0);
        p.add_constraint(&[(x, 1.0)], Sense::Ge, 0.5);
        assert!(p.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[3.0, 1.0], 1e-9)); // bound violated
        assert!(!p.is_feasible(&[2.0, 2.0], 1e-9)); // Le violated
        assert!(!p.is_feasible(&[0.0, 1.0], 1e-9)); // Ge violated
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value() {
        let mut p = Problem::new();
        let _ = p.add_var(0.0, 1.0, 2.0, false);
        let _ = p.add_var(0.0, 1.0, -3.0, false);
        assert!((p.objective_value(&[1.0, 1.0]) - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn matrix_stamp_follows_the_matrix_and_nothing_else() {
        let (a, b) = (Problem::new(), Problem::new());
        assert_eq!(a.matrix_stamp, b.matrix_stamp, "empty matrices are equal");

        let build = || {
            let mut p = Problem::new();
            let x = p.add_var(0.0, 4.0, -1.0, false);
            let y = p.add_var(0.0, 4.0, -1.0, false);
            p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
            (p, x, y)
        };
        let (mut p, x, y) = build();
        let (q, ..) = build();
        assert_ne!(
            p.matrix_stamp, q.matrix_stamp,
            "separately built problems never share a stamp, equal or not"
        );

        // What a retarget touches keeps the stamp …
        let stamp = p.matrix_stamp;
        p.set_rhs(0, 2.0);
        p.set_objective_coeff(x, -3.0);
        assert_eq!(p.matrix_stamp, stamp);

        // … a clone shares it until either side's matrix changes …
        let mut c = p.clone();
        assert_eq!(c.matrix_stamp, stamp);
        c.set_rhs(0, 1.0);
        assert_eq!(c.matrix_stamp, stamp);
        c.replace_constraint(0, &[(x, 3.0), (y, 1.0)], Sense::Le, 4.0);
        assert_ne!(c.matrix_stamp, stamp);
        assert_eq!(p.matrix_stamp, stamp, "the original is untouched");

        // … and every matrix mutator renews it.
        let mut seen = vec![stamp, c.matrix_stamp];
        p.replace_constraint(0, &[(x, 1.0), (y, 1.0)], Sense::Le, 2.0);
        seen.push(p.matrix_stamp);
        p.add_constraint(&[(x, 1.0)], Sense::Ge, 0.0);
        seen.push(p.matrix_stamp);
        let _ = p.add_var(0.0, 1.0, 0.0, true);
        seen.push(p.matrix_stamp);
        let _ = p.add_binary(0.0);
        seen.push(p.matrix_stamp);
        let distinct: std::collections::BTreeSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "stamps {seen:?}");
    }

    #[test]
    #[should_panic(expected = "exceeds upper")]
    fn inverted_bounds_panic() {
        let mut p = Problem::new();
        let _ = p.add_var(1.0, 0.0, 0.0, false);
    }
}
