//! LU factorization of the simplex basis, with eta-file updates.
//!
//! The revised simplex never forms `B⁻¹`; it answers two questions per
//! iteration — `B·w = a` (**FTRAN**: the entering column in the basis
//! frame) and `Bᵀ·y = c` (**BTRAN**: the duals, or a single tableau
//! row) — against a factorization `P·B = L·U` built by left-looking
//! Gaussian elimination with scaled partial pivoting (candidates compare
//! relative to the largest entry of their row). On Wishbone's ≈2-nonzero
//! rows `L` and `U` stay nearly as sparse as `B` itself, so both solves
//! are `O(nnz)` instead of the dense tableau's `O(m·n)` pivot.
//!
//! Basis changes do not refactorize: each pivot appends a product-form
//! **eta** (the entering column in the old basis frame), applied after
//! `L·U` on FTRAN and before it (transposed, in reverse) on BTRAN. Once
//! the eta file holds more than [`ETA_NNZ_FACTOR`]` · m` nonzeros the
//! caller refactorizes from scratch, which both caps the update work and
//! discards accumulated roundoff — the drift bound the regression tests
//! pin. The eta file is one flat arena ([`EtaFile`]: `u32` positions,
//! `f64` values, a pointer per eta), indexed by basis position as it
//! grows and reused across refactorizations.
//!
//! Two solves are **hypersparse** — their cost follows the nonzeros they
//! produce, not `m` and not the length of the eta file:
//!
//! * [`ftran_sparse`](LuFactors::ftran_sparse) of an entering column:
//!   `L` and `U` are stored by column, which is already the push form an
//!   FTRAN wants; only the *order* of the pending steps was `O(m)`;
//! * [`btran_unit`](LuFactors::btran_unit) of `e_r`, the dual simplex's
//!   pivot row: a BTRAN pushes along *rows* of `U` and `L`, so row-wise
//!   copies of both factors are built (lazily, once per factorization,
//!   `u32` indices) and the unit vector is propagated through them.
//!
//! Both apply only the etas that can act on their vector (Hall and
//! McKinnon's hyper-sparsity, 2005): the file lists, per basis position,
//! the etas that pivot there and the etas that read it, and a skipped eta
//! is an exact no-op of the full walk. (A file no longer than the
//! vector's live set — a fleet-sized LP's one or two etas — is walked
//! whole: there is nothing to skip.) Both keep their pending factor
//! steps and etas in bitsets and walk them with `trailing_zeros` /
//! `leading_zeros`: steps and etas come out in exactly the order the
//! dense loops visit them (so both are bit-identical to the dense solves,
//! which debug builds check eta pass by eta pass), and no scratch is
//! zero-filled per call — every buffer is returned to all-zero by the
//! walk that consumed it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::num::is_exact_zero;
use crate::sparse::CscMatrix;

/// Refactorize once the eta file holds more than this many nonzeros per
/// basis row — the only trigger. Entering columns on chain-structured
/// bases densify (the inverse of a bidiagonal matrix is full); budgeting
/// total eta nonzeros keeps the update cost at a small constant times the
/// factorization cost regardless of fill, and bounds the drift a cycle
/// accumulates.
///
/// There is no cap on the eta *count*: the sparse passes visit only the
/// etas that can act on their vector, so a long file of short etas costs
/// what its reachable part costs. Under dual steepest edge the etas stay
/// short (≈6 nonzeros on the 22-channel chain), and a 128-eta cap ended
/// every cycle there — 14 factorizations in its root LP's 1,717 pivots,
/// against the load's one under this budget alone. The drift pins
/// (`lu_drift_stays_bounded_over_100_plus_pivots`,
/// `drift_bounded_through_warm_resolves_too`) hold without a cap.
pub(crate) const ETA_NNZ_FACTOR: usize = 4;

/// Pivots smaller than this during factorization mean the basis is
/// numerically singular and the caller must recover (cold restart).
const SINGULAR_TOL: f64 = 1e-10;

/// A pivot row prescribed by the singleton peel is accepted while it is
/// at least this fraction of the column's largest candidate (threshold
/// partial pivoting).
const PEEL_PIVOT_THRESHOLD: f64 = 0.1;

/// Rows with more basis entries than this (or than `m / 32`, if larger)
/// are left out of the singleton peel: counting them would hide every
/// singleton among the columns that cross them — on Wishbone's
/// encodings all of the structural ones, each of which carries a
/// coefficient in its site's budget rows — and leave hundreds of columns
/// to general elimination, which fills `U` to several times the basis.
/// Left out, they only collect `L` multipliers and whatever fill there
/// is, and are pivoted last, by magnitude.
const DENSE_ROW_MIN: usize = 16;

/// Entries below this are dropped when harvesting an eta column.
const ETA_DROP_TOL: f64 = 1e-13;

/// End of an eta-file index list.
const NONE: u32 = u32::MAX;

/// The eta file: every product-form update since the last
/// factorization, in one flat arena. Eta `k` is the entering column
/// `α = B⁻¹·a_e` at the moment of its pivot, split into the pivot element
/// `pivot[k]` at basis position `r[k]` and the off-pivot nonzeros
/// `idx/val[ptr[k]..ptr[k + 1]]`. Indices are *basis positions*.
///
/// The file is indexed by position as it grows, so the sparse passes
/// visit only the etas that can act on their vector: `ft_*` lists, per
/// position, the etas that pivot there (what FTRAN needs: an eta acts iff
/// its pivot position is live), and `bt_*` the etas that pivot there *or*
/// carry an entry there (what BTRAN needs: an eta acts iff a position it
/// reads is live). Both are linked lists threaded through flat arrays, a
/// head per position and a link per node, newest eta first.
#[derive(Debug, Default)]
pub(crate) struct EtaFile {
    r: Vec<u32>,
    pivot: Vec<f64>,
    ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f64>,
    /// Per position: the newest eta pivoting there (`NONE`: none).
    ft_head: Vec<u32>,
    /// Per eta: the next older eta pivoting at the same position.
    ft_next: Vec<u32>,
    /// Per position: the newest node of an eta pivoting or holding an
    /// entry there; per node, its eta and the next older node.
    bt_head: Vec<u32>,
    bt_eta: Vec<u32>,
    bt_next: Vec<u32>,
    /// The etas a sparse pass has yet to apply, one bit per eta, grown a
    /// word per 64 etas. All zero between passes.
    pending: Vec<u64>,
}

impl EtaFile {
    /// Empty the file for an `m`-row basis. The arena's nonzero budget is
    /// reserved once (a no-op after the first load of that size); the
    /// per-eta arrays and the pending bitset grow only as etas arrive.
    /// The budget is checked *after* a push, so the arena can overshoot
    /// it by one column.
    fn reset(&mut self, m: usize) {
        self.r.clear();
        self.pivot.clear();
        self.ptr.clear();
        self.idx.clear();
        self.val.clear();
        let budget = (ETA_NNZ_FACTOR + 1) * m.max(8);
        self.idx.reserve(budget);
        self.val.reserve(budget);
        self.ptr.push(0);
        self.ft_head.clear();
        self.ft_head.resize(m, NONE);
        self.ft_next.clear();
        self.bt_head.clear();
        self.bt_head.resize(m, NONE);
        self.bt_eta.clear();
        self.bt_next.clear();
        self.pending.clear();
    }

    /// Number of etas on file.
    fn len(&self) -> usize {
        self.r.len()
    }

    /// Stored nonzeros, pivots included (the refactorization budget).
    fn nnz(&self) -> usize {
        self.idx.len() + self.r.len()
    }

    /// Off-pivot entries of eta `k`.
    #[inline]
    fn entries(&self, k: usize) -> (&[u32], &[f64]) {
        let lo = self.ptr[k] as usize;
        let hi = self.ptr[k + 1] as usize;
        (&self.idx[lo..hi], &self.val[lo..hi])
    }

    /// Harvest an eta pivoting at position `r` from a sparse column: only
    /// the positions listed in `live` are meaningful (the rest of `alpha`
    /// is stale storage).
    fn push(&mut self, r: usize, alpha: &[f64], live: &[usize]) {
        let k = self.len() as u32;
        for &i in live {
            if i != r && alpha[i].abs() > ETA_DROP_TOL {
                self.idx.push(i as u32);
                self.val.push(alpha[i]);
                self.link_btran(i, k);
            }
        }
        self.r.push(r as u32);
        self.pivot.push(alpha[r]);
        self.ptr.push(self.idx.len() as u32);
        self.ft_next.push(self.ft_head[r]);
        self.ft_head[r] = k;
        self.link_btran(r, k);
        if k.is_multiple_of(64) {
            self.pending.push(0);
        }
    }

    /// List eta `k` under position `i` for BTRAN.
    fn link_btran(&mut self, i: usize, k: u32) {
        self.bt_eta.push(k);
        self.bt_next.push(self.bt_head[i]);
        self.bt_head[i] = (self.bt_next.len() - 1) as u32;
    }

    /// FTRAN update: replace the dense `w` by `E_k⁻¹·…·E_1⁻¹·w`.
    fn apply_ftran(&self, w: &mut [f64]) {
        for k in 0..self.len() {
            let r = self.r[k] as usize;
            let wr = w[r] / self.pivot[k];
            if !is_exact_zero(wr) {
                let (idx, val) = self.entries(k);
                for (&i, &a) in idx.iter().zip(val) {
                    w[i as usize] -= a * wr;
                }
            }
            w[r] = wr;
        }
    }

    /// FTRAN update on a stamped sparse column, walking the whole file:
    /// positions outside the current-epoch stamp set are zero by contract
    /// (their storage is stale); any position an eta touches joins the
    /// set.
    fn apply_ftran_stamped(
        &self,
        w: &mut [f64],
        stamp: &mut [u64],
        epoch: u64,
        nnz: &mut Vec<usize>,
    ) {
        for k in 0..self.len() {
            let r = self.r[k] as usize;
            let live_r = stamp[r] == epoch;
            let wr = if live_r { w[r] / self.pivot[k] } else { 0.0 };
            if !is_exact_zero(wr) {
                let (idx, val) = self.entries(k);
                for (&i, &a) in idx.iter().zip(val) {
                    let i = i as usize;
                    if stamp[i] != epoch {
                        stamp[i] = epoch;
                        w[i] = 0.0;
                        nnz.push(i);
                    }
                    w[i] -= a * wr;
                }
            }
            if !live_r {
                stamp[r] = epoch;
                nnz.push(r);
            }
            w[r] = wr;
        }
    }

    /// [`apply_ftran_stamped`](EtaFile::apply_ftran_stamped), visiting
    /// only the etas that can act: `nnz[from..]` lists the stamped
    /// positions, and any position an eta writes joins both.
    ///
    /// Hypersparse: an eta whose pivot position is zero is a no-op of the
    /// full walk, so only the etas pivoting at a live position are
    /// applied — seeded from the live set, and when an eta makes a
    /// position live, that position's later etas join. They run in file
    /// order (an ascending bitset walk) on the same values, so every live
    /// position ends bit-identical to the full walk; a skipped eta's pivot
    /// position stays unstamped instead of being stamped with a zero. A
    /// file no longer than the live set is walked whole: seeding alone
    /// would read at least as many list heads as that walk visits etas.
    fn apply_ftran_sparse(
        &mut self,
        w: &mut [f64],
        stamp: &mut [u64],
        epoch: u64,
        nnz: &mut Vec<usize>,
        from: usize,
    ) {
        if self.len() <= nnz.len() - from {
            self.apply_ftran_stamped(w, stamp, epoch, nnz);
            return;
        }
        let full = cfg!(debug_assertions).then(|| {
            let mut full = vec![0.0; w.len()];
            for &i in &nnz[from..] {
                full[i] = w[i];
            }
            self.apply_ftran(&mut full);
            full
        });
        for &i in &nnz[from..] {
            let mut k = self.ft_head[i];
            while k != NONE {
                set_bit(&mut self.pending, k as usize);
                k = self.ft_next[k as usize];
            }
        }
        let mut next = 0;
        while let Some(k) = next_bit(&self.pending, next) {
            clear_bit(&mut self.pending, k);
            next = k + 1;
            let r = self.r[k] as usize;
            let wr = w[r] / self.pivot[k];
            if !is_exact_zero(wr) {
                let lo = self.ptr[k] as usize;
                let hi = self.ptr[k + 1] as usize;
                for e in lo..hi {
                    let i = self.idx[e] as usize;
                    if stamp[i] != epoch {
                        stamp[i] = epoch;
                        w[i] = 0.0;
                        nnz.push(i);
                        // Its etas after this one can act now.
                        let mut k2 = self.ft_head[i];
                        while k2 != NONE && k2 as usize > k {
                            set_bit(&mut self.pending, k2 as usize);
                            k2 = self.ft_next[k2 as usize];
                        }
                    }
                    w[i] -= self.val[e] * wr;
                }
            }
            w[r] = wr;
        }
        if let Some(full) = full {
            for (i, &want) in full.iter().enumerate() {
                let got = if stamp[i] == epoch { w[i] } else { 0.0 };
                debug_assert_eq!(
                    (got + 0.0).to_bits(),
                    (want + 0.0).to_bits(),
                    "sparse vs full eta FTRAN at position {i}"
                );
            }
        }
    }

    /// BTRAN update: replace `c` by `E_1⁻ᵀ·…·E_k⁻ᵀ·c` (newest eta first,
    /// applied before the base `LᵀUᵀ` solve), walking the whole file. An
    /// eta only ever changes its own pivot position; one that turns it
    /// from zero to nonzero is appended to `live` when the caller tracks
    /// the pattern of `c`.
    fn apply_btran(&self, c: &mut [f64], mut live: Option<&mut Vec<u32>>) {
        for k in (0..self.len()).rev() {
            let r = self.r[k] as usize;
            let was = c[r];
            let mut v = was;
            let (idx, val) = self.entries(k);
            for (&i, &a) in idx.iter().zip(val) {
                v -= a * c[i as usize];
            }
            c[r] = v / self.pivot[k];
            if let Some(live) = live.as_mut() {
                if is_exact_zero(was) && !is_exact_zero(v) {
                    live.push(self.r[k]);
                }
            }
        }
    }

    /// [`apply_btran`](EtaFile::apply_btran) on a `c` that is zero outside
    /// the positions in `live`, tracking its pattern there (a position
    /// that cancels to zero and comes back is listed twice).
    ///
    /// Hypersparse: an eta that reads only zeros is a no-op of the full
    /// walk, so only the etas listed under a live position are applied —
    /// seeded from `live`, and when an eta makes its pivot position live,
    /// the earlier etas listed there join. They run newest first (a
    /// descending bitset walk) on the same values, so every nonzero ends
    /// bit-identical to the full walk. A file no longer than `live` is
    /// walked whole, as in
    /// [`apply_ftran_sparse`](EtaFile::apply_ftran_sparse).
    fn apply_btran_sparse(&mut self, c: &mut [f64], live: &mut Vec<u32>) {
        if self.len() <= live.len() {
            self.apply_btran(c, Some(live));
            return;
        }
        let full = cfg!(debug_assertions).then(|| {
            let mut full = c.to_vec();
            self.apply_btran(&mut full, None);
            full
        });
        for &i in live.iter() {
            let mut node = self.bt_head[i as usize];
            while node != NONE {
                set_bit(&mut self.pending, self.bt_eta[node as usize] as usize);
                node = self.bt_next[node as usize];
            }
        }
        let mut top = self.pending.len() - 1;
        while let Some(k) = pop_top_bit(&mut self.pending, &mut top) {
            let r = self.r[k] as usize;
            let was = c[r];
            let mut v = was;
            let (idx, val) = self.entries(k);
            for (&i, &a) in idx.iter().zip(val) {
                v -= a * c[i as usize];
            }
            c[r] = v / self.pivot[k];
            if is_exact_zero(was) && !is_exact_zero(v) {
                live.push(r as u32);
                // The etas before this one that read position `r`.
                let mut node = self.bt_head[r];
                while node != NONE {
                    let k2 = self.bt_eta[node as usize] as usize;
                    if k2 < k {
                        set_bit(&mut self.pending, k2);
                    }
                    node = self.bt_next[node as usize];
                }
            }
        }
        if let Some(full) = full {
            for (i, (&got, &want)) in c.iter().zip(&full).enumerate() {
                debug_assert_eq!(
                    (got + 0.0).to_bits(),
                    (want + 0.0).to_bits(),
                    "sparse vs full eta BTRAN at position {i}"
                );
            }
        }
    }
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1u64 << (i & 63);
}

#[inline]
fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1u64 << (i & 63));
}

/// The lowest set bit at index `from` or above (the ascending walk:
/// bits stay set, the caller moves `from` past each one it takes).
#[inline]
fn next_bit(bits: &[u64], from: usize) -> Option<usize> {
    let mut wi = from >> 6;
    let mut word = *bits.get(wi)? & (!0u64 << (from & 63));
    while word == 0 {
        wi += 1;
        word = *bits.get(wi)?;
    }
    Some((wi << 6) + word.trailing_zeros() as usize)
}

/// Clear and return the highest set bit (the descending walk). `top` is
/// the caller's cursor: no bit is set in any word above it, which holds
/// while new bits are only ever set below the one just taken.
#[inline]
fn pop_top_bit(bits: &mut [u64], top: &mut usize) -> Option<usize> {
    loop {
        let word = bits[*top];
        if word != 0 {
            let b = 63 - word.leading_zeros() as usize;
            bits[*top] = word & !(1u64 << b);
            return Some((*top << 6) + b);
        }
        *top = top.checked_sub(1)?;
    }
}

/// `P_r·B·P_c = L·U`: a row permutation from scaled partial pivoting plus a
/// *column* permutation from a singleton-peel preorder. `L` is
/// unit-lower-triangular, stored by factor step as `(original_row,
/// multiplier)` pairs; `U` is stored by factor step as `(factor_step,
/// value)` pairs above a separate diagonal.
///
/// The column preorder is what keeps the factors sparse: a simplex basis
/// arrives in pivot-scrambled order, and factoring chain-structured
/// columns out of order cascades fill through `U` (`O(m²)` on Wishbone's
/// precedence chains). Peeling column singletons — repeatedly factoring
/// any column with exactly one unpivoted row, the standard LP "crash
/// triangularization" — reorders the basis so the peeled prefix factors
/// with **zero fill** in `U`; the few dense budget rows stay out of the
/// peel's counts (see [`DENSE_ROW_MIN`]), so a peeled column's entries in
/// them are its `L` multipliers, and only the residual bump (typically
/// one column per tight budget row) pays for general elimination.
#[derive(Debug, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// `prow[s]` = original row chosen as the pivot of factor step `s`.
    prow: Vec<usize>,
    /// `pcol[s]` = basis position factored at step `s`.
    pcol: Vec<usize>,
    /// `ppos[i]` = factor step of original row `i` (`usize::MAX` while
    /// unpivoted during factorization).
    ppos: Vec<usize>,
    // L and U stored flat (CSC-style, one range per factor step) — tight
    // sequential loops in the hot solves instead of a pointer chase per
    // step through nested Vecs.
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    u_ptr: Vec<usize>,
    u_steps: Vec<usize>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// Dense scratch indexed by original row, zeroed between uses.
    work: Vec<f64>,
    /// Dense scratch indexed by factor step (BTRAN intermediate). All
    /// zero between solves.
    zwork: Vec<f64>,
    /// The eta file of the basis changes since `factorize`.
    etas: EtaFile,
    /// Row-wise copies of `U` and `L` for the push-form BTRAN, built on
    /// the first [`btran_unit`](LuFactors::btran_unit) after a
    /// factorization (`rowwise_ready`). `ur_*`: row `t` of `U` as
    /// `(later step, value)`; `lr_*`: the `L` multipliers sitting in the
    /// pivot row of step `t`, as `(earlier step, value)`; `cstep[k]` =
    /// factor step of basis position `k` (the inverse of `pcol`).
    rowwise_ready: bool,
    ur_ptr: Vec<u32>,
    ur_steps: Vec<u32>,
    ur_vals: Vec<f64>,
    lr_ptr: Vec<u32>,
    lr_steps: Vec<u32>,
    lr_vals: Vec<f64>,
    cstep: Vec<u32>,
    /// Pending factor steps of the hypersparse solves, one bit per step.
    /// All zero between solves.
    bits: Vec<u64>,
    /// `btran_unit`'s right-hand side by basis position, and the
    /// positions of it that went nonzero. All zero / empty between solves.
    cwork: Vec<f64>,
    clive: Vec<u32>,
    /// Pending factor steps whose rows went nonzero during the current
    /// column's elimination (min-heap: elimination must run in factor
    /// order). Keeping it sparse is what makes factorization `O(flops)`
    /// instead of `O(m²)` on these ≈2-nonzero-per-row bases.
    pending: BinaryHeap<Reverse<usize>>,
    /// Unpivoted rows that went nonzero (pivot candidates / L entries).
    cand: Vec<usize>,
    /// Pivoted rows hit by the current column (fast path, see below).
    hit: Vec<usize>,
    /// Cursor scratch for the row-map counting sort.
    row_cursor: Vec<usize>,
    // Singleton-peel scratch (all reused across factorizations).
    peel_count: Vec<usize>,
    peel_done: Vec<bool>,
    row_used: Vec<bool>,
    row_ptr: Vec<usize>,
    row_elems: Vec<usize>,
    peel_stack: Vec<usize>,
    /// `pivot_hint[s]` = the sparse row the singleton peel prescribed as
    /// the pivot of factor step `s` (`u32::MAX`: none, pivot by
    /// magnitude).
    pivot_hint: Vec<u32>,
    /// `row_max[i]` = the largest `|a|` the basis holds in original row
    /// `i`: pivot candidates are compared *relative to their rows*
    /// (scaled partial pivoting), so a budget row whose coefficients run
    /// to the thousands does not outbid a ±1 precedence row for every
    /// column that crosses it — which would thread that row's
    /// right-hand side through the multipliers of the whole basis.
    row_max: Vec<f64>,
}

impl LuFactors {
    /// Factorize the basis `B = [a_{basis[0]} … a_{basis[m-1]}]` drawn
    /// from `matrix`. Returns `false` on a numerically singular basis.
    /// Reuses every buffer across refactorizations.
    pub(crate) fn factorize(&mut self, matrix: &CscMatrix, basis: &[usize]) -> bool {
        let m = matrix.rows();
        debug_assert_eq!(basis.len(), m);
        self.etas.reset(m);
        self.m = m;
        self.rowwise_ready = false;
        self.bits.clear();
        self.bits.resize(m.div_ceil(64), 0);
        self.cwork.clear();
        self.cwork.resize(m, 0.0);
        self.clive.clear();
        self.prow.clear();
        self.ppos.clear();
        self.ppos.resize(m, usize::MAX);
        self.u_diag.clear();
        self.u_diag.resize(m, 0.0);
        self.work.clear();
        self.work.resize(m, 0.0);
        self.zwork.clear();
        self.zwork.resize(m, 0.0);
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_steps.clear();
        self.u_vals.clear();

        self.peel_order(matrix, basis);

        for s in 0..m {
            let k = self.pcol[s];
            // Scatter basis column k, tracking which rows went nonzero:
            // already-pivoted rows await elimination, unpivoted rows are
            // pivot candidates.
            self.pending.clear();
            self.cand.clear();
            self.hit.clear();
            let (rows, vals) = matrix.col(basis[k]);
            let no_fill_yet = self.l_rows.is_empty();
            for (&i, &a) in rows.iter().zip(vals) {
                let was = self.work[i];
                self.work[i] = was + a; // duplicate terms accumulate
                if is_exact_zero(was) {
                    if self.ppos[i] == usize::MAX {
                        self.cand.push(i);
                    } else if no_fill_yet {
                        self.hit.push(i);
                    } else {
                        self.pending.push(Reverse(self.ppos[i]));
                    }
                }
            }
            if no_fill_yet {
                // Fast path: every `L` column so far is empty (true for
                // the whole singleton-peel prefix, i.e. usually the whole
                // basis), so elimination cannot create fill and order is
                // irrelevant — pivoted entries drop straight into `U`.
                for idx in 0..self.hit.len() {
                    let i = self.hit[idx];
                    let v = self.work[i];
                    if !is_exact_zero(v) {
                        self.work[i] = 0.0;
                        self.u_steps.push(self.ppos[i]);
                        self.u_vals.push(v);
                    }
                }
            }
            // Eliminate — a sparse forward solve `L·y = P·a` visiting only
            // the rows that are actually nonzero. Fill from an L column
            // can only land on rows pivoted *later* (or not yet), so the
            // increasing-position (min-heap) pop order is a valid
            // elimination order.
            while let Some(Reverse(t)) = self.pending.pop() {
                let v = self.work[self.prow[t]];
                if is_exact_zero(v) {
                    continue; // duplicate queue entry, already consumed
                }
                self.work[self.prow[t]] = 0.0;
                self.u_steps.push(t);
                self.u_vals.push(v);
                for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                    let i = self.l_rows[idx];
                    let was = self.work[i];
                    self.work[i] = was - self.l_vals[idx] * v;
                    if is_exact_zero(was) {
                        if self.ppos[i] == usize::MAX {
                            self.cand.push(i);
                        } else {
                            self.pending.push(Reverse(self.ppos[i]));
                        }
                    }
                }
            }
            // Scaled partial pivoting over the candidate rows: each
            // candidate counts relative to the largest entry of its row.
            // (A candidate row holds an entry of this column or of an
            // earlier one, so its `row_max` is positive.)
            let mut ipiv = usize::MAX;
            let mut best = 0.0f64;
            for &i in &self.cand {
                let v = self.work[i].abs() / self.row_max[i];
                if v > best {
                    best = v;
                    ipiv = i;
                }
            }
            if best < SINGULAR_TOL {
                // Leave scratch clean for the next attempt.
                for &i in &self.cand {
                    self.work[i] = 0.0;
                }
                return false;
            }
            // The row the singleton peel prescribed wins over the largest
            // candidate (a dense-row entry of the same column) while it
            // is within the usual threshold of it, so row-relative
            // multipliers stay ≤ 1/PEEL_PIVOT_THRESHOLD.
            let hint = self.pivot_hint[s] as usize;
            if hint < m
                && self.ppos[hint] == usize::MAX
                && self.work[hint].abs() >= PEEL_PIVOT_THRESHOLD * best * self.row_max[hint]
            {
                ipiv = hint;
            }
            let piv = self.work[ipiv];
            self.work[ipiv] = 0.0;
            self.u_diag[s] = piv;
            self.prow.push(ipiv);
            self.ppos[ipiv] = s;
            for idx in 0..self.cand.len() {
                let i = self.cand[idx];
                let v = self.work[i];
                // Zero-valued or duplicate candidates drop out here.
                if !is_exact_zero(v) {
                    self.l_rows.push(i);
                    self.l_vals.push(v / piv);
                    self.work[i] = 0.0;
                }
            }
            self.l_ptr.push(self.l_rows.len());
            self.u_ptr.push(self.u_steps.len());
        }
        true
    }

    /// Factor the diagonal ±1 basis every cold load starts from: basis
    /// position `k` holds a unit column — a slack or an artificial —
    /// whose one entry, ±1, sits in row `k`. `O(m)`, with no peel and no
    /// elimination: the factors are exactly the ones
    /// [`factorize`](LuFactors::factorize) builds on such a basis (its
    /// peel pops the singletons last position first, so step `s` pivots
    /// position and row `m − 1 − s` on the column's own entry, with empty
    /// `L` and `U`), so every solve after it is bit for bit the same.
    /// Debug builds check that on every call, FTRAN and BTRAN of each unit
    /// vector against a `factorize` of the same basis.
    pub(crate) fn factorize_diagonal(&mut self, matrix: &CscMatrix, basis: &[usize]) {
        let m = matrix.rows();
        debug_assert_eq!(basis.len(), m);
        self.etas.reset(m);
        self.m = m;
        self.rowwise_ready = false;
        self.bits.clear();
        self.bits.resize(m.div_ceil(64), 0);
        self.cwork.clear();
        self.cwork.resize(m, 0.0);
        self.clive.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        self.zwork.clear();
        self.zwork.resize(m, 0.0);
        self.l_ptr.clear();
        self.l_ptr.resize(m + 1, 0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.u_ptr.clear();
        self.u_ptr.resize(m + 1, 0);
        self.u_steps.clear();
        self.u_vals.clear();
        self.prow.clear();
        self.pcol.clear();
        self.pivot_hint.clear();
        self.u_diag.clear();
        for k in (0..m).rev() {
            let (rows, vals) = matrix.col(basis[k]);
            debug_assert!(
                rows == [k] && vals[0].abs() == 1.0, // audit:allow(float-eq): ±1 exactly
                "basis position {k} is not a unit column in row {k}"
            );
            self.prow.push(k);
            self.pcol.push(k);
            self.pivot_hint.push(k as u32);
            self.u_diag.push(vals[0]);
        }
        // Row `i` is pivoted at step `m − 1 − i`.
        self.ppos.clear();
        self.ppos.extend((0..m).rev());
        #[cfg(debug_assertions)]
        self.assert_same_solves_as_factorize(matrix, basis);
    }

    /// Debug builds: FTRAN of every unit column and BTRAN of every unit
    /// row through these factors equal, bit for bit, the same solves
    /// through a [`factorize`](LuFactors::factorize) of `basis`.
    #[cfg(debug_assertions)]
    fn assert_same_solves_as_factorize(&mut self, matrix: &CscMatrix, basis: &[usize]) {
        let m = self.m;
        let mut reference = LuFactors::default();
        assert!(reference.factorize(matrix, basis), "a ±1 diagonal basis");
        let mut w = vec![0.0; m];
        let mut stamp = vec![0u64; m];
        let (mut out, mut nnz) = (vec![0.0; m], Vec::new());
        let (mut y, mut y_nnz) = (vec![0.0; m], Vec::new());
        let mut solves = |lu: &mut LuFactors, i: usize| {
            nnz.clear();
            w[i] = 1.0;
            lu.ftran_sparse(
                &mut w,
                std::iter::once(i),
                &mut out,
                &mut stamp,
                i as u64 + 1,
                &mut nnz,
            );
            let ftran: Vec<(usize, u64)> = nnz.iter().map(|&k| (k, out[k].to_bits())).collect();
            y_nnz.clear();
            lu.btran_unit(i, &mut y, &mut y_nnz);
            let btran: Vec<(u32, u64)> = y_nnz
                .iter()
                .map(|&r| (r, std::mem::take(&mut y[r as usize]).to_bits()))
                .collect();
            (ftran, btran)
        };
        for i in 0..m {
            let (ours, theirs) = (solves(self, i), solves(&mut reference, i));
            assert_eq!(
                ours, theirs,
                "unit vector {i}: the diagonal factor solves differently"
            );
        }
    }

    /// Compute the factor-order column permutation `pcol` by peeling
    /// column singletons: any basis column with exactly one entry in a
    /// still-unpivoted *sparse* row pivots there (`pivot_hint`), and every
    /// column it uncovers afterwards is peeled the same way. Dense rows
    /// (see [`DENSE_ROW_MIN`]) are not counted: a peeled column's entries
    /// in them become `L` multipliers, and all the fill elimination can
    /// then cause lands in those few rows. Leftover "bump" columns (no
    /// singleton available — e.g. the columns that close the dense
    /// budget rows) are appended in basis order for the general
    /// elimination above. `O(nnz)`.
    ///
    /// One exception runs before the peel: a basic **unit column** (a
    /// slack) whose only entry lies in a dense row pivots on that row,
    /// first. Its row sits the peel out, so without the rule the slack
    /// would reach the bump in basis order, and a structural bump column
    /// factored before it could take the row — threading an "unlimited"
    /// budget row's 1e12 right-hand side through the structural's `x_B`
    /// (see `a_vacuous_huge_budget_row_does_not_leak_into_the_answer`).
    /// Pivoted first, the slack owns its row and the structurals' entries
    /// there land in `U`, where they never multiply that row's `b`.
    fn peel_order(&mut self, matrix: &CscMatrix, basis: &[usize]) {
        let m = self.m;
        self.pcol.clear();
        self.pivot_hint.clear();
        self.pivot_hint.resize(m, u32::MAX);
        self.peel_count.clear();
        self.peel_done.clear();
        self.peel_done.resize(m, false);
        self.row_used.clear();
        self.row_used.resize(m, false);
        self.peel_stack.clear();

        // Row → containing-columns map, counting-sort flat.
        self.row_ptr.clear();
        self.row_ptr.resize(m + 1, 0);
        self.row_max.clear();
        self.row_max.resize(m, 0.0);
        let mut nnz = 0;
        for &j in basis {
            let (rows, vals) = matrix.col(j);
            for (&i, &a) in rows.iter().zip(vals) {
                self.row_ptr[i + 1] += 1;
                self.row_max[i] = self.row_max[i].max(a.abs());
            }
            nnz += rows.len();
        }
        let dense = DENSE_ROW_MIN.max(m / 32);
        for i in 0..m {
            // A dense row sits the peel out, as if already pivoted.
            self.row_used[i] = self.row_ptr[i + 1] > dense;
            let prev = self.row_ptr[i];
            self.row_ptr[i + 1] += prev;
        }
        self.row_elems.clear();
        self.row_elems.resize(nnz, 0);
        self.row_cursor.clear();
        self.row_cursor.extend_from_slice(&self.row_ptr[..m]);
        for (k, &j) in basis.iter().enumerate() {
            let (rows, _) = matrix.col(j);
            let mut sparse_rows = 0;
            for &i in rows {
                self.row_elems[self.row_cursor[i]] = k;
                self.row_cursor[i] += 1;
                sparse_rows += usize::from(!self.row_used[i]);
            }
            self.peel_count.push(sparse_rows);
            if sparse_rows == 1 {
                self.peel_stack.push(k);
            }
            // Unit column in a dense row: it takes that row before the
            // peel (its count is 0, so the peel never visits it).
            if let &[i] = rows {
                if self.row_used[i] {
                    self.peel_done[k] = true;
                    self.pivot_hint[self.pcol.len()] = i as u32;
                    self.pcol.push(k);
                }
            }
        }
        while let Some(k) = self.peel_stack.pop() {
            if self.peel_done[k] || self.peel_count[k] != 1 {
                continue;
            }
            let (rows, vals) = matrix.col(basis[k]);
            let mut row = usize::MAX;
            let mut val = 0.0;
            for (&i, &a) in rows.iter().zip(vals) {
                if !self.row_used[i] {
                    row = i;
                    val = a;
                }
            }
            if row == usize::MAX || val.abs() < SINGULAR_TOL {
                continue; // tiny pivot: leave it for the bump
            }
            self.peel_done[k] = true;
            self.row_used[row] = true;
            self.pivot_hint[self.pcol.len()] = row as u32;
            self.pcol.push(k);
            for idx in self.row_ptr[row]..self.row_ptr[row + 1] {
                let k2 = self.row_elems[idx];
                if !self.peel_done[k2] {
                    self.peel_count[k2] -= 1;
                    if self.peel_count[k2] == 1 {
                        self.peel_stack.push(k2);
                    }
                }
            }
        }
        for k in 0..m {
            if !self.peel_done[k] {
                self.pcol.push(k);
            }
        }
    }

    /// The original row basis position `k` pivoted on in the last
    /// factorization.
    #[cfg(test)]
    pub(crate) fn pivot_row_of(&self, k: usize) -> usize {
        let s = self.pcol.iter().position(|&p| p == k).expect("k factored");
        self.prow[s]
    }

    /// The basis positions the last factorization left to general
    /// elimination — the bump: no singleton peel or unit-column rule
    /// prescribed their row.
    #[cfg(test)]
    pub(crate) fn bump_positions(&self) -> Vec<usize> {
        (0..self.m)
            .filter(|&s| self.pivot_hint[s] == u32::MAX)
            .map(|s| self.pcol[s])
            .collect()
    }

    /// Append the update for a pivot at basis position `r` whose entering
    /// column is `alpha` (live positions in `live`).
    pub(crate) fn push_eta(&mut self, r: usize, alpha: &[f64], live: &[usize]) {
        self.etas.push(r, alpha, live);
    }

    /// Time to refactorize? The eta file has outgrown its nonzero budget.
    pub(crate) fn due_for_refactor(&self) -> bool {
        self.etas.nnz() > ETA_NNZ_FACTOR * self.m.max(8)
    }

    /// FTRAN: solve `B·x = w` for the current basis (factors, then the
    /// eta file), where `w` arrives dense, indexed by original row, and
    /// is consumed (zeroed). `out[k]` receives the solution by basis
    /// position; every position is written (dense).
    pub(crate) fn ftran(&self, w: &mut [f64], out: &mut [f64]) {
        // Forward: L·y = P_r·w.
        for t in 0..self.m {
            let v = w[self.prow[t]];
            if !is_exact_zero(v) {
                for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                    w[self.l_rows[idx]] -= self.l_vals[idx] * v;
                }
            }
        }
        // Backward: U·x' = y, consuming w; x'[s] is the value of the
        // basis position factored at step s.
        for s in (0..self.m).rev() {
            let num = w[self.prow[s]];
            if is_exact_zero(num) {
                out[self.pcol[s]] = 0.0;
                continue;
            }
            w[self.prow[s]] = 0.0;
            let xk = num / self.u_diag[s];
            out[self.pcol[s]] = xk;
            for idx in self.u_ptr[s]..self.u_ptr[s + 1] {
                w[self.prow[self.u_steps[idx]]] -= self.u_vals[idx] * xk;
            }
        }
        self.etas.apply_ftran(out);
    }

    /// Hypersparse FTRAN of a column whose nonzero rows are `seeds`
    /// (duplicates allowed): the same forward and backward passes as
    /// [`ftran`](LuFactors::ftran), visiting only the factor steps that
    /// can be nonzero, in the same order, so the values are bit-identical
    /// to the dense solve. Only the nonzero result positions are written,
    /// each pushed onto `nnz` and stamped with `epoch` — stale `out`
    /// entries at unstamped positions are the caller's contract to never
    /// read. This keeps every consumer of a sparse entering column
    /// `O(nnz(α))` instead of `O(m)`.
    pub(crate) fn ftran_sparse(
        &mut self,
        w: &mut [f64],
        seeds: impl Iterator<Item = usize>,
        out: &mut [f64],
        stamp: &mut [u64],
        epoch: u64,
        nnz: &mut Vec<usize>,
    ) {
        let from = nnz.len();
        let mut any = false;
        for i in seeds {
            set_bit(&mut self.bits, self.ppos[i]);
            any = true;
        }
        if !any {
            return; // a zero column — the only kind a rowless problem has
        }
        if !self.l_rows.is_empty() {
            // Forward, ascending; an `L` column only reaches rows pivoted
            // later, so new bits land above the cursor. The bits stay set
            // for the backward pass.
            let mut from = 0;
            while let Some(t) = next_bit(&self.bits, from) {
                from = t + 1;
                let v = w[self.prow[t]];
                if is_exact_zero(v) {
                    continue;
                }
                for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                    let i = self.l_rows[idx];
                    w[i] -= self.l_vals[idx] * v;
                    set_bit(&mut self.bits, self.ppos[i]);
                }
            }
        }
        // Backward, descending, clearing the bits; a `U` column only
        // reaches earlier steps.
        let mut top = self.bits.len() - 1;
        while let Some(s) = pop_top_bit(&mut self.bits, &mut top) {
            let num = w[self.prow[s]];
            if is_exact_zero(num) {
                continue;
            }
            w[self.prow[s]] = 0.0;
            let xk = num / self.u_diag[s];
            let k = self.pcol[s];
            out[k] = xk;
            stamp[k] = epoch;
            nnz.push(k);
            for idx in self.u_ptr[s]..self.u_ptr[s + 1] {
                let t = self.u_steps[idx];
                w[self.prow[t]] -= self.u_vals[idx] * xk;
                set_bit(&mut self.bits, t);
            }
        }
        self.etas.apply_ftran_sparse(out, stamp, epoch, nnz, from);
    }

    /// BTRAN: solve `Bᵀ·y = c` for the current basis (eta file in
    /// reverse, then the factors) with `c` dense, indexed by basis
    /// position and consumed as scratch. `y` receives the solution by
    /// original row.
    pub(crate) fn btran(&mut self, c: &mut [f64], y: &mut [f64]) {
        self.etas.apply_btran(c, None);
        // Uᵀ·z = P_c·c by forward substitution into the step-indexed
        // scratch.
        for s in 0..self.m {
            let mut v = c[self.pcol[s]];
            for idx in self.u_ptr[s]..self.u_ptr[s + 1] {
                v -= self.u_vals[idx] * self.zwork[self.u_steps[idx]];
            }
            self.zwork[s] = if is_exact_zero(v) {
                0.0
            } else {
                v / self.u_diag[s]
            };
        }
        // Lᵀ·(P_r·y) = z by backward substitution onto original rows.
        for s in (0..self.m).rev() {
            let mut v = self.zwork[s];
            self.zwork[s] = 0.0;
            for idx in self.l_ptr[s]..self.l_ptr[s + 1] {
                v -= self.l_vals[idx] * y[self.l_rows[idx]];
            }
            y[self.prow[s]] = v;
        }
    }

    /// Hypersparse BTRAN of the unit vector `e_r` (`r` a basis position):
    /// row `r` of `B⁻¹`, the dual simplex's `ρ`. `y` is indexed by
    /// original row and must be all zero on entry; its nonzeros are
    /// written and their rows appended to `y_nnz`.
    ///
    /// The eta file is applied hypersparse: a dot product only for the
    /// etas that read a nonzero of the right-hand side, which starts as
    /// one position (see [`EtaFile`]). The factors are solved in push
    /// form over their row-wise copies: `Uᵀ` ascending, then `Lᵀ`
    /// descending over the same bitset of pending steps.
    pub(crate) fn btran_unit(&mut self, r: usize, y: &mut [f64], y_nnz: &mut Vec<u32>) {
        if !self.rowwise_ready {
            self.build_rowwise();
        }
        self.cwork[r] = 1.0;
        self.clive.push(r as u32);
        self.etas
            .apply_btran_sparse(&mut self.cwork, &mut self.clive);
        // `clive` may list a position twice (a value cancelled to zero
        // and came back); the first visit consumes it.
        for idx in 0..self.clive.len() {
            let k = self.clive[idx] as usize;
            let v = self.cwork[k];
            if !is_exact_zero(v) {
                self.cwork[k] = 0.0;
                let s = self.cstep[k] as usize;
                self.zwork[s] = v;
                set_bit(&mut self.bits, s);
            }
        }
        self.clive.clear();
        // Uᵀ·z = P_c·c, ascending: row `s` of `U` pushes `z[s]` onto
        // later steps only. The bits stay set for the second pass.
        let mut from = 0;
        while let Some(s) = next_bit(&self.bits, from) {
            from = s + 1;
            let v = self.zwork[s];
            if is_exact_zero(v) {
                continue;
            }
            let z = v / self.u_diag[s];
            self.zwork[s] = z;
            for idx in self.ur_ptr[s] as usize..self.ur_ptr[s + 1] as usize {
                let t = self.ur_steps[idx] as usize;
                self.zwork[t] -= self.ur_vals[idx] * z;
                set_bit(&mut self.bits, t);
            }
        }
        // Lᵀ·(P_r·y) = z, descending: the multipliers in the pivot row
        // of step `s` push `y[s]` onto earlier steps only.
        let mut top = self.bits.len() - 1;
        while let Some(s) = pop_top_bit(&mut self.bits, &mut top) {
            let v = self.zwork[s];
            if is_exact_zero(v) {
                continue;
            }
            self.zwork[s] = 0.0;
            y[self.prow[s]] = v;
            y_nnz.push(self.prow[s] as u32);
            for idx in self.lr_ptr[s] as usize..self.lr_ptr[s + 1] as usize {
                let t = self.lr_steps[idx] as usize;
                self.zwork[t] -= self.lr_vals[idx] * v;
                set_bit(&mut self.bits, t);
            }
        }
    }

    /// Transpose the column-wise factors into the row-wise copies
    /// `btran_unit` pushes along (counting sort, `O(nnz(L) + nnz(U))`).
    fn build_rowwise(&mut self) {
        let m = self.m;
        assert!(
            u32::try_from(m.max(self.u_steps.len()).max(self.l_rows.len())).is_ok(),
            "basis factors exceed the u32 index space"
        );
        self.cstep.clear();
        self.cstep.resize(m, 0);
        for (s, &k) in self.pcol.iter().enumerate() {
            self.cstep[k] = s as u32;
        }
        // U: column `s` holds `(t, U[t][s])`; row `t` collects `(s, ·)`.
        self.ur_ptr.clear();
        self.ur_ptr.resize(m + 1, 0);
        for &t in &self.u_steps {
            self.ur_ptr[t + 1] += 1;
        }
        // L: column `s` holds `(row i, L[i][s])`; the row pivoted at step
        // `t = ppos[i]` collects `(s, ·)`.
        self.lr_ptr.clear();
        self.lr_ptr.resize(m + 1, 0);
        for &i in &self.l_rows {
            self.lr_ptr[self.ppos[i] + 1] += 1;
        }
        for t in 0..m {
            self.ur_ptr[t + 1] += self.ur_ptr[t];
            self.lr_ptr[t + 1] += self.lr_ptr[t];
        }
        self.ur_steps.clear();
        self.ur_steps.resize(self.u_steps.len(), 0);
        self.ur_vals.clear();
        self.ur_vals.resize(self.u_steps.len(), 0.0);
        self.lr_steps.clear();
        self.lr_steps.resize(self.l_rows.len(), 0);
        self.lr_vals.clear();
        self.lr_vals.resize(self.l_rows.len(), 0.0);
        // Fill with the row pointers as cursors, then shift them back.
        for s in 0..m {
            for idx in self.u_ptr[s]..self.u_ptr[s + 1] {
                let t = self.u_steps[idx];
                let at = self.ur_ptr[t] as usize;
                self.ur_steps[at] = s as u32;
                self.ur_vals[at] = self.u_vals[idx];
                self.ur_ptr[t] += 1;
            }
            for idx in self.l_ptr[s]..self.l_ptr[s + 1] {
                let t = self.ppos[self.l_rows[idx]];
                let at = self.lr_ptr[t] as usize;
                self.lr_steps[at] = s as u32;
                self.lr_vals[at] = self.l_vals[idx];
                self.lr_ptr[t] += 1;
            }
        }
        for t in (0..m).rev() {
            self.ur_ptr[t + 1] = self.ur_ptr[t];
            self.lr_ptr[t + 1] = self.lr_ptr[t];
        }
        self.ur_ptr[0] = 0;
        self.lr_ptr[0] = 0;
        self.rowwise_ready = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense};
    use proptest::test_runner::TestRng;

    /// Dense multiply `B·x` for checking, columns drawn from `matrix`.
    fn mat_vec(matrix: &CscMatrix, basis: &[usize], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; matrix.rows()];
        for (k, &j) in basis.iter().enumerate() {
            matrix.axpy_col(j, x[k], &mut out);
        }
        out
    }

    fn chain_matrix(n: usize) -> CscMatrix {
        // The Wishbone shape: precedence rows x_i - x_{i+1} >= 0 plus a
        // budget row, slacks and artificials appended.
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n).map(|_| p.add_var(0.0, 1.0, -1.0, false)).collect();
        for w in vars.windows(2) {
            p.add_constraint(&[(w[0], 1.0), (w[1], -1.0)], Sense::Ge, 0.0);
        }
        let row: Vec<_> = vars.iter().map(|&v| (v, 0.3)).collect();
        p.add_constraint(&row, Sense::Le, 1.0);
        let m = p.num_constraints();
        let mut a = CscMatrix::default();
        a.load(&p, &vec![1.0; m]);
        a
    }

    #[test]
    fn ftran_btran_invert_a_structural_basis() {
        let a = chain_matrix(6);
        let m = a.rows();
        // Mix structural and slack columns into the basis.
        let basis: Vec<usize> = (0..m).map(|i| if i % 2 == 0 { i } else { 6 + i }).collect();
        let mut lu = LuFactors::default();
        assert!(lu.factorize(&a, &basis));

        let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 2.0).collect();
        let mut w = rhs.clone();
        let mut x = vec![0.0; m];
        lu.ftran(&mut w, &mut x);
        assert!(w.iter().all(|&v| v == 0.0), "scratch must come back clean");
        let bx = mat_vec(&a, &basis, &x);
        for (got, want) in bx.iter().zip(&rhs) {
            assert!((got - want).abs() < 1e-9, "B·x = {got} vs rhs {want}");
        }

        // BTRAN: check Bᵀ·y = c against an explicit transpose-multiply.
        let c: Vec<f64> = (0..m).map(|i| 1.0 + i as f64 * 0.5).collect();
        let mut cin = c.clone();
        let mut y = vec![0.0; m];
        lu.btran(&mut cin, &mut y);
        for (k, &j) in basis.iter().enumerate() {
            let bty = a.col_dot(j, &y);
            assert!((bty - c[k]).abs() < 1e-9, "col {k}: {bty} vs {}", c[k]);
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        let a = chain_matrix(4);
        // Repeat a column: structurally singular.
        let basis: Vec<usize> = vec![0, 0, 1, 2];
        let mut lu = LuFactors::default();
        assert!(!lu.factorize(&a, &basis));
        // The factors must remain usable after a failure + good basis.
        let good: Vec<usize> = (0..a.rows()).map(|i| 6 + i).collect(); // artificials... slacks first
        assert!(lu.factorize(&a, &good));
    }

    /// FTRAN column `j` of `a` through `lu` (factors and eta file) into a
    /// dense vector by basis position.
    fn ftran_col(lu: &LuFactors, a: &CscMatrix, j: usize) -> Vec<f64> {
        let mut w = vec![0.0; a.rows()];
        a.axpy_col(j, 1.0, &mut w);
        let mut alpha = vec![0.0; a.rows()];
        lu.ftran(&mut w, &mut alpha);
        alpha
    }

    #[test]
    fn eta_updates_track_a_basis_change() {
        let a = chain_matrix(5);
        let m = a.rows();
        let basis: Vec<usize> = (0..m).map(|i| 5 + i).collect(); // the slack basis
        let mut lu = LuFactors::default();
        assert!(lu.factorize(&a, &basis));

        // Bring structural column 2 into basis position 1.
        let entering = 2usize;
        let alpha = ftran_col(&lu, &a, entering);
        let live: Vec<usize> = (0..m).collect();
        lu.push_eta(1, &alpha, &live);
        let mut new_basis = basis.clone();
        new_basis[1] = entering;

        // FTRAN through (LU, eta) must match a fresh factorization.
        let rhs: Vec<f64> = (0..m).map(|i| 1.0 + i as f64).collect();
        let mut w1 = rhs.clone();
        let mut x1 = vec![0.0; m];
        lu.ftran(&mut w1, &mut x1);

        let mut lu2 = LuFactors::default();
        assert!(lu2.factorize(&a, &new_basis));
        let mut w2 = rhs.clone();
        let mut x2 = vec![0.0; m];
        lu2.ftran(&mut w2, &mut x2);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-9, "eta ftran {u} vs refactor {v}");
        }

        // Same for BTRAN: eta first (reverse order), then base solve.
        let c: Vec<f64> = (0..m).map(|i| (i as f64) * 0.25 - 0.5).collect();
        let mut c1 = c.clone();
        let mut y1 = vec![0.0; m];
        lu.btran(&mut c1, &mut y1);
        let mut c2 = c.clone();
        let mut y2 = vec![0.0; m];
        lu2.btran(&mut c2, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-9, "eta btran {u} vs refactor {v}");
        }
    }

    /// `btran_unit(r)` against the dense BTRAN of `e_r`, every position,
    /// to 1e-12 — and every scratch buffer back to all-zero afterwards.
    fn assert_unit_rows_match_dense(lu: &mut LuFactors, what: &str) {
        let m = lu.m;
        let mut y = vec![0.0; m];
        let mut y_nnz: Vec<u32> = Vec::new();
        for r in 0..m {
            let mut c = vec![0.0; m];
            c[r] = 1.0;
            let mut dense = vec![0.0; m];
            lu.btran(&mut c, &mut dense);

            lu.btran_unit(r, &mut y, &mut y_nnz);
            for (i, (&got, &want)) in y.iter().zip(&dense).enumerate() {
                assert!(
                    (got - want).abs() < 1e-12,
                    "{what}: row {r} of B⁻¹, entry {i}: sparse {got} vs dense {want}"
                );
            }
            // The listed rows are exactly where `y` may be nonzero.
            for &i in &y_nnz {
                y[i as usize] = 0.0;
            }
            y_nnz.clear();
            assert!(y.iter().all(|&v| v == 0.0), "{what}: unlisted nonzero");
            assert!(lu.zwork.iter().all(|&v| v == 0.0), "{what}: zwork dirty");
            assert!(lu.cwork.iter().all(|&v| v == 0.0), "{what}: cwork dirty");
            assert!(lu.bits.iter().all(|&w| w == 0), "{what}: bits dirty");
        }
    }

    #[test]
    fn hypersparse_btran_row_matches_dense_through_etas_and_a_refactor() {
        // A chain long enough for 134 etas on one factorization — far past
        // the point where the file outgrows its nonzero budget (56 etas:
        // these entering columns densify) — a budget row so `U` has a
        // dense column, and a basis that mixes structural and slack
        // columns so `L` is not empty.
        let etas = 134;
        let n = etas + 20;
        let a = chain_matrix(n);
        let m = a.rows();
        let mut basis: Vec<usize> = (0..m).map(|i| n + i).collect();
        let mut lu = LuFactors::default();
        assert!(lu.factorize(&a, &basis));
        assert_unit_rows_match_dense(&mut lu, "slack basis");

        // Pivot structural columns in one by one: the first replaces the
        // budget row's slack (so the budget row joins the bump and `L`
        // fills in at the refactor), the rest go where their FTRANed
        // column is largest (never singular).
        let mut alpha = vec![0.0; m];
        let mut stamp = vec![0u64; m];
        let mut live: Vec<usize> = Vec::new();
        let mut w = vec![0.0; m];
        let mut in_basis = vec![false; m];
        let mut due = false;
        for entering in 0..etas {
            let pivots = entering; // one structural column enters per pivot
            let epoch = pivots as u64 + 1;
            let (rows, _) = a.col(entering);
            a.axpy_col(entering, 1.0, &mut w);
            live.clear();
            lu.ftran_sparse(
                &mut w,
                rows.iter().copied(),
                &mut alpha,
                &mut stamp,
                epoch,
                &mut live,
            );
            assert!(w.iter().all(|&v| v == 0.0), "ftran_sparse must consume w");
            // The hypersparse FTRAN is the dense one, bit for bit.
            let dense = ftran_col(&lu, &a, entering);
            for k in 0..m {
                let sparse = if stamp[k] == epoch { alpha[k] } else { 0.0 };
                assert_eq!(
                    sparse.to_bits(),
                    (dense[k] + 0.0).to_bits(),
                    "ftran pos {k}"
                );
            }
            let r = if pivots == 0 {
                m - 1
            } else {
                live.iter()
                    .copied()
                    .filter(|&k| !in_basis[k])
                    .max_by(|&x, &y| alpha[x].abs().total_cmp(&alpha[y].abs()))
                    .expect("a structural column reaches some slack position")
            };
            lu.push_eta(r, &alpha, &live);
            basis[r] = entering;
            in_basis[r] = true;
            let just_due = !due && lu.due_for_refactor();
            if pivots % 9 == 0 || just_due {
                assert_unit_rows_match_dense(&mut lu, &format!("after {} etas", pivots + 1));
            }
            due |= just_due;
        }
        assert!(due, "the eta file outgrows its nonzero budget");
        assert_eq!(lu.etas.len(), etas);

        // Refactorize the mixed basis: the eta file empties, the row-wise
        // factors are rebuilt, and `L` now carries real multipliers.
        assert!(lu.factorize(&a, &basis));
        assert_eq!(lu.etas.len(), 0);
        assert!(!lu.l_rows.is_empty(), "the instance must exercise `L`");
        assert_unit_rows_match_dense(&mut lu, "after the refactor");
        // And once more with a few etas on top of the non-trivial factors.
        for entering in etas..etas + 5 {
            let alpha = ftran_col(&lu, &a, entering);
            let live: Vec<usize> = (0..m).collect();
            let r = (0..m)
                .filter(|&k| !in_basis[k])
                .max_by(|&x, &y| alpha[x].abs().total_cmp(&alpha[y].abs()))
                .expect("a free position remains");
            lu.push_eta(r, &alpha, &live);
            basis[r] = entering;
            in_basis[r] = true;
        }
        assert_unit_rows_match_dense(&mut lu, "etas over a refactored basis");
    }

    /// A random sparse problem's matrix: `n` structural columns of one to
    /// three entries in random rows, two dense "budget" rows that about
    /// half the columns cross, magnitudes in [0.5, 2] of either sign, and
    /// a slack column per row (columns `n..n + m`).
    fn random_matrix(rng: &mut TestRng, m: usize, n: usize) -> CscMatrix {
        let value = |rng: &mut TestRng| {
            let v = 0.5 + 1.5 * (rng.next_u64() % 1024) as f64 / 1023.0;
            if rng.next_u64().is_multiple_of(2) {
                v
            } else {
                -v
            }
        };
        let mut p = Problem::new();
        let mut rows: Vec<Vec<(crate::VarId, f64)>> = vec![Vec::new(); m];
        for _ in 0..n {
            let v = p.add_var(0.0, 1.0, 0.0, false);
            for _ in 0..1 + rng.next_u64() % 3 {
                let i = 2 + (rng.next_u64() % (m as u64 - 2)) as usize;
                rows[i].push((v, value(rng)));
            }
            for row in &mut rows[..2] {
                if rng.next_u64().is_multiple_of(2) {
                    row.push((v, value(rng)));
                }
            }
        }
        for row in &rows {
            p.add_constraint(row, Sense::Le, 1.0);
        }
        let mut a = CscMatrix::default();
        a.load(&p, &[]);
        a
    }

    #[test]
    fn hypersparse_eta_passes_equal_the_full_walks_on_random_bases() {
        // Each case: a random sparse basis (the slack basis after a run of
        // random pivots, refactorized), then random pivots through more
        // than one refactorization cycle. At every pivot the hypersparse
        // FTRAN must equal the dense one, and the hypersparse eta BTRAN of
        // a random `e_r` the full walk, bit for bit, on every position;
        // and `btran_unit` must equal the dense BTRAN of `e_r` — to 1e-12,
        // since its factor solves push along rows where the dense one
        // pulls, a different summation order.
        for case in 0..48u64 {
            let mut rng = TestRng::for_case("hypersparse_eta_passes", case);
            let m = 20 + (rng.next_u64() % 60) as usize;
            let n = 2 * m;
            let a = random_matrix(&mut rng, m, n);
            let mut basis: Vec<usize> = (n..n + m).collect();
            let mut basic = vec![false; n + m];
            for &j in &basis {
                basic[j] = true;
            }
            let mut lu = LuFactors::default();
            assert!(lu.factorize(&a, &basis), "case {case}: slack basis");
            let mut alpha = vec![0.0; m];
            let mut stamp = vec![0u64; m];
            let mut live: Vec<usize> = Vec::new();
            let mut w = vec![0.0; m];
            let mut epoch = 0;
            // Cycle 0 builds the random basis from the slack basis, cycle 1
            // runs on it to the nonzero budget, and cycle 2 is cut short
            // halfway.
            let mut cycle = 0;
            let mut pivots_in_cycle = 0;
            let mut first_cycle = 0;
            while cycle < 2 || pivots_in_cycle < first_cycle / 2 {
                let e = loop {
                    let j = (rng.next_u64() % (n + m) as u64) as usize;
                    if !basic[j] {
                        break j;
                    }
                };
                epoch += 1;
                a.axpy_col(e, 1.0, &mut w);
                live.clear();
                lu.ftran_sparse(
                    &mut w,
                    a.col(e).0.iter().copied(),
                    &mut alpha,
                    &mut stamp,
                    epoch,
                    &mut live,
                );
                let dense = ftran_col(&lu, &a, e);
                for (k, &want) in dense.iter().enumerate() {
                    let got = if stamp[k] == epoch { alpha[k] } else { 0.0 };
                    assert_eq!(
                        (got + 0.0).to_bits(),
                        (want + 0.0).to_bits(),
                        "case {case}, cycle {cycle}, pivot {pivots_in_cycle}: \
                         FTRAN of column {e} at position {k}"
                    );
                }
                let r = (rng.next_u64() % m as u64) as usize;
                let mut c = vec![0.0; m];
                c[r] = 1.0;
                let mut full = c.clone();
                lu.etas.apply_btran(&mut full, None);
                let mut c_live = vec![r as u32];
                lu.etas.apply_btran_sparse(&mut c, &mut c_live);
                for (k, (&got, &want)) in c.iter().zip(&full).enumerate() {
                    assert_eq!(
                        (got + 0.0).to_bits(),
                        (want + 0.0).to_bits(),
                        "case {case}, cycle {cycle}, pivot {pivots_in_cycle}: \
                         eta BTRAN of e_{r} at position {k}"
                    );
                    assert!(
                        got == 0.0 || c_live.contains(&(k as u32)),
                        "case {case}: unlisted nonzero at {k}"
                    );
                }
                assert!(lu.etas.pending.iter().all(|&b| b == 0), "pending dirty");
                if pivots_in_cycle % 7 == 0 {
                    assert_unit_rows_match_dense(
                        &mut lu,
                        &format!("case {case}, cycle {cycle}, pivot {pivots_in_cycle}"),
                    );
                }
                // Leave from a random position whose entry is within 10×
                // of the column's largest, so the basis stays well posed.
                let big = live.iter().map(|&k| alpha[k].abs()).fold(0.0, f64::max);
                let ok: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&k| alpha[k].abs() >= 0.1 * big)
                    .collect();
                let r = ok[(rng.next_u64() % ok.len() as u64) as usize];
                lu.push_eta(r, &alpha, &live);
                basic[basis[r]] = false;
                basic[e] = true;
                basis[r] = e;
                pivots_in_cycle += 1;
                if lu.due_for_refactor() {
                    if cycle == 1 {
                        first_cycle = pivots_in_cycle;
                    }
                    assert!(lu.factorize(&a, &basis), "case {case}: refactor");
                    cycle += 1;
                    pivots_in_cycle = 0;
                }
            }
            assert!(first_cycle > 1, "case {case}: a cycle of several etas");
        }
    }
}
