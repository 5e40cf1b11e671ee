//! Bit-level problem identity, shared by the parity suites
//! (`proptest_deployment.rs`, `proptest_leaf_memo.rs`,
//! `proptest_top_merge.rs`, `end_to_end_deployment.rs`).

use wishbone::ilp::{Problem, VarId};

/// `Ok` iff `a` and `b` have the same variables (bounds, integrality,
/// objective bits) and the same rows (terms in order, sense, rhs bits);
/// otherwise the first difference. Floats compare by `f64::to_bits`.
pub fn problems_identical(a: &Problem, b: &Problem) -> Result<(), String> {
    macro_rules! same {
        ($x:expr, $y:expr, $($what:tt)+) => {
            let (x, y) = ($x, $y);
            if x != y {
                return Err(format!("{}: {x:?} vs {y:?}", format!($($what)+)));
            }
        };
    }
    same!(a.num_vars(), b.num_vars(), "variable count");
    same!(a.num_constraints(), b.num_constraints(), "row count");
    for j in 0..a.num_vars() {
        let v = VarId(j);
        let var = |p: &Problem| {
            (
                p.objective_coeff(v).to_bits(),
                p.lower_bounds()[j].to_bits(),
                p.upper_bounds()[j].to_bits(),
                p.is_integer(v),
            )
        };
        same!(
            var(a),
            var(b),
            "var {j} (objective, lower, upper bits, integer)"
        );
    }
    for i in 0..a.num_constraints() {
        let (ca, cb) = (a.constraint(i), b.constraint(i));
        same!(ca.sense, cb.sense, "sense of row {i}");
        same!(ca.rhs.to_bits(), cb.rhs.to_bits(), "rhs bits of row {i}");
        same!(ca.terms.len(), cb.terms.len(), "terms of row {i}");
        for (n, (ta, tb)) in ca.terms.iter().zip(&cb.terms).enumerate() {
            let bits = |t: &(VarId, f64)| (t.0, t.1.to_bits());
            same!(
                bits(ta),
                bits(tb),
                "term {n} (variable, coefficient bits) of row {i}"
            );
        }
    }
    Ok(())
}
