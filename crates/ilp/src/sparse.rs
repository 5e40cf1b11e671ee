//! Compressed-sparse-column (CSC) storage for the revised simplex.
//!
//! Wishbone's partitioning LPs are extremely sparse — a precedence row
//! `f_u − f_v ≥ 0` has two nonzeros, the budget rows one nonzero per
//! vertex — so the constraint matrix holds ≈2 nonzeros per row while the
//! dense tableau stores (and streams, every pivot) `m × n` floats. The
//! revised simplex only ever needs two views of the matrix: a *column*
//! (to FTRAN an entering variable or scatter a nonbasic contribution) and
//! a *column dot a dense vector* (to price reduced costs against the
//! duals). CSC serves both in `O(nnz(column))`.
//!
//! The dual simplex needs a third view: a *row* of the structural and
//! slack columns, so the pivot row `ρᵀ·A` can be scattered from the few
//! nonzero rows of `ρ` instead of dotted against every column.
//! [`CsrMatrix`] is that row-major copy, with `u32` indices — it exists
//! beside the CSC arrays for the whole solve, so its footprint counts.
//!
//! Both are rebuilt on every cold load — `O(nnz)`, a rounding error
//! next to a single simplex iteration — so they never go stale against
//! the `Problem` the way a retained factorization could.

use crate::problem::{Problem, Sense};

/// A read-only CSC matrix over the simplex's full column space:
/// structural variables, then one slack per inequality row, then one
/// (signed) artificial per row — the same column layout the dense
/// tableau uses, so basis/status bookkeeping is backend-agnostic. The
/// dual-first start needs no artificials and loads none.
#[derive(Debug, Default)]
pub(crate) struct CscMatrix {
    m: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
    /// Fill cursors of [`load`](CscMatrix::load), kept for the next one.
    cursor: Vec<usize>,
}

impl CscMatrix {
    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn cols(&self) -> usize {
        self.col_ptr.len().saturating_sub(1)
    }

    /// Stored entries (duplicates from repeated constraint terms count).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Column `j` as parallel `(rows, values)` slices.
    pub(crate) fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// `aⱼ · v` for a dense `v` indexed by row. Hot in pricing (called
    /// once per nonbasic column per iteration), hence inlined — the
    /// column ranges read sequentially and `v` stays cache-resident.
    #[inline]
    pub(crate) fn col_dot(&self, j: usize, v: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&i, &a)| a * v[i]).sum()
    }

    /// `out += scale · aⱼ` for a dense `out` indexed by row.
    pub(crate) fn axpy_col(&self, j: usize, scale: f64, out: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&i, &a) in rows.iter().zip(vals) {
            out[i] += scale * a;
        }
    }

    /// Rebuild from `problem`, with `art_sign[i]` the ±1 coefficient of
    /// row `i`'s artificial column (chosen by the loader so the
    /// artificial's starting value is nonnegative) — or an empty slice
    /// for no artificial columns at all. Reuses every buffer.
    pub(crate) fn load(&mut self, problem: &Problem, art_sign: &[f64]) {
        let m = problem.num_constraints();
        let n_structural = problem.num_vars();
        self.m = m;

        // Structural columns: counting pass, prefix sums, cursor fill.
        let nnz_structural: usize = problem.constraints.iter().map(|c| c.terms.len()).sum();
        let n_slack = problem
            .constraints
            .iter()
            .filter(|c| c.sense != Sense::Eq)
            .count();
        self.col_ptr.clear();
        self.col_ptr.resize(n_structural + 1, 0);
        for c in &problem.constraints {
            for &(v, _) in &c.terms {
                self.col_ptr[v.0 + 1] += 1;
            }
        }
        for j in 0..n_structural {
            let prev = self.col_ptr[j];
            self.col_ptr[j + 1] += prev;
        }
        self.row_idx.clear();
        self.row_idx.resize(nnz_structural, 0);
        self.values.clear();
        self.values.resize(nnz_structural, 0.0);
        let cursor = &mut self.cursor;
        cursor.clear();
        cursor.extend_from_slice(&self.col_ptr[..n_structural]);
        for (i, c) in problem.constraints.iter().enumerate() {
            for &(v, a) in &c.terms {
                let pos = cursor[v.0];
                cursor[v.0] += 1;
                self.row_idx[pos] = i;
                self.values[pos] = a;
            }
        }

        // Slack columns (one per inequality, in row order), then signed
        // artificial columns (one per row).
        self.col_ptr.reserve(n_slack + m);
        for (i, c) in problem.constraints.iter().enumerate() {
            let coef = match c.sense {
                Sense::Le => 1.0,
                Sense::Ge => -1.0,
                Sense::Eq => continue,
            };
            self.row_idx.push(i);
            self.values.push(coef);
            self.col_ptr.push(self.row_idx.len());
        }
        for (i, &sign) in art_sign.iter().enumerate() {
            self.row_idx.push(i);
            self.values.push(sign);
            self.col_ptr.push(self.row_idx.len());
        }
    }
}

/// Row-major copy of the structural and slack columns (artificials are
/// never priced by the dual simplex, so they are left out). Column
/// indices are `u32` and follow the [`CscMatrix`] layout; duplicate terms
/// of a constraint stay separate entries, which a scatter sums.
#[derive(Debug, Default)]
pub(crate) struct CsrMatrix {
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Row `i` as parallel `(columns, values)` slices.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Rebuild from `problem`. Reuses every buffer.
    pub(crate) fn load(&mut self, problem: &Problem) {
        let nnz: usize = problem.constraints.iter().map(|c| c.terms.len() + 1).sum();
        assert!(
            u32::try_from(nnz + problem.num_vars()).is_ok(),
            "constraint matrix exceeds the u32 index space"
        );
        self.row_ptr.clear();
        self.col_idx.clear();
        self.values.clear();
        self.col_idx.reserve(nnz);
        self.values.reserve(nnz);
        self.row_ptr.push(0);
        let mut slack_col = problem.num_vars() as u32;
        for c in &problem.constraints {
            for &(v, a) in &c.terms {
                self.col_idx.push(v.0 as u32);
                self.values.push(a);
            }
            let coef = match c.sense {
                Sense::Le => Some(1.0),
                Sense::Ge => Some(-1.0),
                Sense::Eq => None,
            };
            if let Some(coef) = coef {
                self.col_idx.push(slack_col);
                self.values.push(coef);
                slack_col += 1;
            }
            self.row_ptr.push(self.col_idx.len() as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    fn sample() -> (Problem, Vec<f64>) {
        // x + 2y <= 4 ; x - y >= 1 ; x + y = 3
        let mut p = Problem::new();
        let x = p.add_var(0.0, 10.0, 1.0, false);
        let y = p.add_var(0.0, 10.0, 1.0, false);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Sense::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Sense::Ge, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Eq, 3.0);
        (p, vec![1.0, -1.0, 1.0])
    }

    #[test]
    fn layout_matches_dense_column_order() {
        let (p, signs) = sample();
        let mut a = CscMatrix::default();
        a.load(&p, &signs);
        // 2 structural + 2 slack (rows 0, 1) + 3 artificial.
        assert_eq!(a.cols(), 7);
        assert_eq!(a.rows(), 3);
        // Column x hits all three rows with coefficient 1.
        let (rows, vals) = a.col(0);
        assert_eq!(rows, &[0, 1, 2]);
        assert_eq!(vals, &[1.0, 1.0, 1.0]);
        // Slack of the Ge row is -1 in row 1.
        let (rows, vals) = a.col(3);
        assert_eq!(rows, &[1]);
        assert_eq!(vals, &[-1.0]);
        // Artificial of row 1 carries the provided sign.
        let (rows, vals) = a.col(5);
        assert_eq!(rows, &[1]);
        assert_eq!(vals, &[-1.0]);
    }

    #[test]
    fn dot_and_axpy_agree_with_dense_math() {
        let (p, signs) = sample();
        let mut a = CscMatrix::default();
        a.load(&p, &signs);
        let v = [2.0, 3.0, 5.0];
        // y column: [2, -1, 1] · [2, 3, 5] = 4 - 3 + 5 = 6.
        assert!((a.col_dot(1, &v) - 6.0).abs() < 1e-12);
        let mut out = [0.0; 3];
        a.axpy_col(1, 2.0, &mut out);
        assert_eq!(out, [4.0, -2.0, 2.0]);
    }

    #[test]
    fn row_major_copy_matches_the_columns() {
        let (p, signs) = sample();
        let mut a = CscMatrix::default();
        a.load(&p, &signs);
        let mut r = CsrMatrix::default();
        r.load(&p);
        r.load(&p); // reload reuses buffers and must not accumulate
                    // Every row entry is an entry of the matching column, and the
                    // counts agree once the artificial columns are set aside.
        let mut entries = 0;
        for i in 0..a.rows() {
            let (cols, vals) = r.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let (rows, cvals) = a.col(j as usize);
                assert!(rows.iter().zip(cvals).any(|(&ri, &cv)| ri == i && cv == v));
                entries += 1;
            }
        }
        assert_eq!(entries, a.nnz() - a.rows());
        // Row 1 is `x − y ≥ 1`: its slack is column 3 with coefficient −1.
        assert_eq!(r.row(1), (&[0u32, 1, 3][..], &[1.0, -1.0, -1.0][..]));
        // The equality row has no slack.
        assert_eq!(r.row(2).0, &[0u32, 1]);
    }

    #[test]
    fn reload_reuses_buffers() {
        let (p, signs) = sample();
        let mut a = CscMatrix::default();
        a.load(&p, &signs);
        let nnz = a.nnz();
        a.load(&p, &signs);
        assert_eq!(a.nnz(), nnz);
        assert_eq!(a.cols(), 7);
    }
}
