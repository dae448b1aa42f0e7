//! Sparse LU factorisation (Gilbert–Peierls, left-looking, partial
//! pivoting) with a symbolic/numeric split for cheap refactorisation.
//!
//! This is the direct solver behind every thermal solve in the toolkit. The
//! algorithm factors one column at a time: the nonzero pattern of
//! `L⁻¹·A(:,j)` is discovered by a depth-first search over the graph of the
//! already-computed columns of `L` (Gilbert & Peierls, 1988), then the
//! numeric values follow in one topologically-ordered pass — total work
//! proportional to arithmetic operations, independent of `n`.
//!
//! Columns are pre-ordered with reverse Cuthill–McKee by default, which for
//! the lattice-structured matrices of the thermal model keeps the factors
//! essentially banded.
//!
//! # Envelope storage
//!
//! Once the pivot sequence is known, rows are numbered by the step that
//! pivoted them, and in that *pivot space* each factor column is stored as
//! one contiguous row range: `L(:,j)` holds rows `j+1..=l_last(j)` and
//! `U(:,j)` holds rows `u_first(j)..j`, the outermost rows of the exact
//! Gilbert–Peierls pattern. Rows inside an extent that the exact pattern
//! lacks are stored as exact zeros. No entry carries a row index: two
//! column-pointer arrays describe the whole layout, shared through an
//! `Arc` by a [`SymbolicLu`] and every [`LuFactors`] built over it. The
//! triangular solves and the refactorisation then run every update as one
//! contiguous `x[a..b] -= v[..]·t`, which the compiler vectorises, and each
//! fuses two columns' updates into one pass over its dense vector (see
//! [Paired columns](#paired-columns)). Under RCM the thermal operators'
//! factors are banded, so the envelope stores only a few to a few tens of
//! percent more entries than the exact pattern ([`SymbolicLu::exact_nnz`]
//! against [`SymbolicLu::nnz_l`] + [`SymbolicLu::nnz_u`]).
//!
//! The padding leaves every result bit-identical to an index-per-entry
//! layout for finite inputs. Each kernel visits the columns in the same
//! order as it would over the exact pattern, and every update is a separate
//! multiply and subtract (`a - l·t`, never a fused multiply-add), so each
//! exact entry receives the same subtractions in the same order; fusing two
//! columns' updates into one pass interleaves them per entry without
//! reordering any entry's own subtractions. A padded slot always holds a
//! zero: a row outside the exact pattern of a column is never reached by a
//! nonzero update (it would then belong to the pattern), so it stays `+0`,
//! and an update through a padded slot subtracts `±0`, which leaves any
//! nonzero value as it was. A zero multiplier skips its column in both
//! layouts. The only bits the padding can touch are the sign of an entry
//! that is exactly zero, which no later step turns into a nonzero
//! difference.
//!
//! # Paired columns
//!
//! Both envelope kernels, the refactorisation sweep and the pair of
//! triangular solves, apply two pivot columns per pass over their dense
//! vector, so each pass streams the vector once for two columns' updates.
//! The sweep's elimination of one column and the forward solve share one
//! routine: column `k`'s update of row `k + 1` lands first, because it
//! completes `k + 1`'s multiplier, then each lower row takes `k`'s update
//! and then `k + 1`'s. The sweep moves each multiplier into `U`; the solve
//! keeps it in its vector. The backward solve is the mirror: column `j`
//! updates row `j - 1` first, then each row above takes `j`'s update and
//! then `j - 1`'s. A zero multiplier still skips its column, and an odd
//! count leaves its last column to a pass of its own.
//!
//! # Two builds, one result
//!
//! On x86-64 each kernel body is compiled twice from the same source: for
//! the baseline, and with AVX2 enabled (private module `dispatch`, the
//! crate's only `unsafe` code); other targets compile it once. Each call
//! runs the AVX2 build when the CPU reports AVX2 and the baseline build
//! otherwise; no option selects the build. AVX2 widens the vectorised updates from two slots to four, and
//! nothing else changes: neither build fuses a multiply-add or reorders a
//! reduction, so every slot receives the same multiply, then subtract, in
//! the same order, and the results are identical with or without AVX2.
//!
//! # Symbolic/numeric split
//!
//! The RC networks this crate serves have a sparsity pattern fixed at model
//! construction; only the *values* change between operating points (flow
//! rates, transient time steps, two-phase sweeps). A [`SymbolicLu`]
//! captures the column ordering, pivot sequence and envelope of one
//! analysis, together with the rows of `A` mapped to pivot steps, and
//! [`SymbolicLu::refactor`] replays only the numeric sweep over that frozen
//! layout — the same trick 3D-ICE gets from SuperLU's
//! `SamePattern_SameRowPerm` path. The sweep is left-looking: column `j`
//! scatters `A(:,j)` into a dense pivot-space column, then applies `L(:,k)`
//! for every `k` of its `U` extent in ascending order, which is a valid
//! elimination order, two columns per pass (see
//! [Paired columns](#paired-columns)). A refactorisation skips the DFS
//! *and* the pivot search, so it is valid only while the frozen pivot
//! sequence remains numerically acceptable; a pivot-growth guard detects
//! degradation and reports [`SparseError::UnstablePivot`] so callers can
//! fall back to a fresh pivoting factorisation.
//!
//! # Analysis: two routes to one result
//!
//! [`analyse`] is the entry point for a pattern's first factorisation. It
//! returns the Gilbert–Peierls analysis of the matrix and the numeric
//! sweep's values over that analysis, so a fresh factorisation carries
//! exactly the bits every later refactorisation of the same values would.
//! It reaches that result by one of two routes:
//!
//! * **Diagonal pivots, margin-checked.** It first assumes the diagonal
//!   pivot sequence `p = q`. With the pivots fixed, column `j`'s pattern
//!   is the rows of `A(:,q[j])` closed under the patterns of the earlier
//!   `L` columns they reach, so a structural pass that ORs one byte flag
//!   per envelope slot, in ascending column order, lays out the exact
//!   envelope with no DFS and no values. The sweep then runs once over it
//!   with one extra guard: a column passes only when its diagonal beats
//!   every other candidate pivot below it by the relative margin
//!   `DIAGONAL_MARGIN` (2⁻²⁰). Partial pivoting picks the largest
//!   candidate, and the sweep's candidates differ from Gilbert–Peierls'
//!   only by the rounding of a different, equally valid, elimination
//!   order, which is orders of magnitude below that margin unless a pivot
//!   cancels catastrophically. So when every column passes, Gilbert–Peierls
//!   would have pivoted on the same diagonal, its analysis (ordering,
//!   pivots, envelope, exact count) equals the one laid out here, and the
//!   sweep's values are those a refactorisation over that analysis
//!   computes.
//!   Diagonally dominant thermal operators pass with room to spare: the
//!   liquid-cooled stacks' smallest relative margin is about 0.46.
//! * **Pivot search.** A column that misses its diagonal, fails the guard,
//!   or meets a vanishing pivot or a non-finite value sends the whole
//!   matrix to [`factor_with_symbolic`] (Gilbert–Peierls) followed by the
//!   sweep, and its errors are Gilbert–Peierls' errors.
//!
//! [`factor`], [`factor_with_ordering`] and [`factor_with_symbolic`] always
//! pivot and return Gilbert–Peierls' own values, which callers outside the
//! thermal operator caches (the multigrid coarse level, the hydraulic
//! network solver) rely on bit for bit.

use std::ops::Range;
use std::sync::Arc;

use crate::csc::CscMatrix;
use crate::ordering::{reverse_cuthill_mckee, Permutation};
use crate::SparseError;

/// Absolute pivot magnitude below which a column is declared singular.
const PIVOT_TINY: f64 = 1e-300;

/// Largest tolerated `max|L(:,j)|` during a refactorisation. A fresh
/// partial-pivoting factorisation keeps every multiplier at or below one;
/// replaying a frozen pivot sequence lets multipliers grow, and growth
/// beyond this bound costs enough of the 52-bit mantissa that the caller
/// should re-pivot instead.
const MAX_PIVOT_GROWTH: f64 = 1e8;

/// Relative margin (2⁻²⁰) by which a column's diagonal must beat every
/// other candidate pivot for [`analyse`] to keep the diagonal pivot
/// sequence: far above the rounding by which two elimination orders can
/// disagree, far below what diagonally dominant operators show.
const DIAGONAL_MARGIN: f64 = 1.0 / 1_048_576.0;

/// Column pre-ordering strategy for [`factor_with_ordering`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnOrdering {
    /// Factor the matrix in its natural column order.
    Natural,
    /// Reverse Cuthill–McKee on the symmetrised pattern (default).
    #[default]
    Rcm,
}

/// The pivot-space envelope layout of one factorisation, shared by its
/// [`SymbolicLu`] and every [`LuFactors`] over it.
#[derive(Debug, PartialEq, Eq)]
struct Envelope {
    n: usize,
    /// `L(:,j)` is stored at `l_ptr[j]..l_ptr[j + 1]` and holds pivot
    /// rows `j + 1..j + 1 + len`.
    l_ptr: Vec<usize>,
    /// `U(:,j)` is stored at `u_ptr[j]..u_ptr[j + 1]` and holds pivot
    /// rows `j - len..j`.
    u_ptr: Vec<usize>,
    /// `p[j]` = original row pivoted at step `j`.
    p: Vec<usize>,
    /// Column permutation (`q.old_of(j)` = original column factored at `j`).
    q: Permutation,
    /// Entries of the exact L and U patterns, U's diagonal included.
    exact_nnz: usize,
}

impl Envelope {
    /// Value slots of `L(:,j)`; its rows start at `j + 1`.
    fn l_col(&self, j: usize) -> Range<usize> {
        self.l_ptr[j]..self.l_ptr[j + 1]
    }

    /// Value slots of `U(:,j)`; its rows end at `j - 1`.
    fn u_col(&self, j: usize) -> Range<usize> {
        self.u_ptr[j]..self.u_ptr[j + 1]
    }

    fn nnz_l(&self) -> usize {
        self.l_ptr[self.n]
    }

    fn nnz_u(&self) -> usize {
        self.u_ptr[self.n] + self.n
    }
}

/// `dst -= src·t`, slot by slot: a multiply, then a subtract, never a
/// fused multiply-add, so each slot rounds exactly as an index-per-entry
/// update of the same entry would.
#[inline(always)]
fn sub_scaled(dst: &mut [f64], src: &[f64], t: f64) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d -= s * t;
    }
}

/// `dst -= a·ta`, then `dst -= b·tb`, in one pass over `dst`: each slot
/// takes `a`'s subtraction before `b`'s, exactly as two
/// [`sub_scaled`] passes would leave it. `a` and `b` both start at
/// `dst[0]` and may differ in length.
#[inline(always)]
fn sub_scaled_pair(dst: &mut [f64], a: &[f64], ta: f64, b: &[f64], tb: f64) {
    let both = a.len().min(b.len());
    let (dst_both, dst_tail) = dst.split_at_mut(both);
    for ((d, &sa), &sb) in dst_both.iter_mut().zip(&a[..both]).zip(&b[..both]) {
        *d -= sa * ta;
        *d -= sb * tb;
    }
    // At most one of the tails is nonempty.
    sub_scaled(dst_tail, &a[both..], ta);
    sub_scaled(dst_tail, &b[both..], tb);
}

/// The mirror of [`sub_scaled_pair`] for the backward pass: `a` and `b`
/// both end at `dst`'s end and may differ in length; each slot takes
/// `a`'s subtraction before `b`'s.
#[inline(always)]
fn sub_scaled_pair_back(dst: &mut [f64], a: &[f64], ta: f64, b: &[f64], tb: f64) {
    let (both, reach) = (a.len().min(b.len()), a.len().max(b.len()));
    let at = dst.len() - reach;
    let (dst_head, dst_both) = dst[at..].split_at_mut(reach - both);
    for ((d, &sa), &sb) in dst_both
        .iter_mut()
        .zip(&a[a.len() - both..])
        .zip(&b[b.len() - both..])
    {
        *d -= sa * ta;
        *d -= sb * tb;
    }
    // At most one of the heads is nonempty, and it spans `dst_head`.
    sub_scaled(dst_head, &a[..a.len() - both], ta);
    sub_scaled(dst_head, &b[..b.len() - both], tb);
}

/// Forward elimination through the pivot columns `cols` of `L` in the
/// dense pivot-space column `x`, two columns per pass: column `k`'s
/// update of row `k + 1` lands first, because it completes `k + 1`'s
/// multiplier, then each lower row takes `k`'s update and then
/// `k + 1`'s. A zero multiplier skips its column, and an odd range
/// leaves its last column to a pass of its own.
///
/// `multiplier(k, &mut x[k])` reads column `k`'s multiplier once row `k`
/// is final: the refactorisation sweep moves it into `U`, the forward
/// solve keeps it in `x`.
#[inline(always)]
fn eliminate_forward(
    env: &Envelope,
    l_vals: &[f64],
    x: &mut [f64],
    cols: Range<usize>,
    mut multiplier: impl FnMut(usize, &mut f64) -> f64,
) {
    let mut k = cols.start;
    while k + 1 < cols.end {
        let xk = multiplier(k, &mut x[k]);
        let lk_below = match l_vals[env.l_col(k)].split_first() {
            Some((&l, below)) if xk != 0.0 => {
                x[k + 1] -= l * xk;
                below
            }
            _ => &[],
        };
        let xk1 = multiplier(k + 1, &mut x[k + 1]);
        let lk1 = if xk1 != 0.0 {
            &l_vals[env.l_col(k + 1)]
        } else {
            &[]
        };
        // Both columns' remaining rows start at k + 2.
        sub_scaled_pair(&mut x[k + 2..], lk_below, xk, lk1, xk1);
        k += 2;
    }
    if k < cols.end {
        let xk = multiplier(k, &mut x[k]);
        if xk != 0.0 {
            let l = &l_vals[env.l_col(k)];
            sub_scaled(&mut x[k + 1..k + 1 + l.len()], l, xk);
        }
    }
}

/// The AVX2 entries of the two envelope kernels and their dispatchers
/// (module docs, *Two builds, one result*). A kernel body is one
/// `#[inline(always)]` function ([`SymbolicLu::sweep_kernel`],
/// [`LuFactors::substitute`]) whose helpers are `#[inline(always)]` too,
/// so it compiles into its dispatcher as the baseline build and into its
/// entry, every loop included, as the AVX2 build. Only `avx2` is
/// enabled: no `fma`, so no multiply-add can fuse.
#[allow(unsafe_code)]
mod dispatch {
    use super::{LuFactors, SparseError, SymbolicLu};

    /// [`SymbolicLu::sweep_kernel`], as its AVX2 build where the CPU has
    /// AVX2.
    pub(super) fn sweep(
        sym: &SymbolicLu,
        a_vals: &[f64],
        f: &mut LuFactors,
        x: &mut [f64],
        diagonal_margin: bool,
    ) -> Result<(), SparseError> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reported AVX2, the one feature
            // `sweep_avx2` enables.
            return unsafe { sweep_avx2(sym, a_vals, f, x, diagonal_margin) };
        }
        sym.sweep_kernel(a_vals, f, x, diagonal_margin)
    }

    /// [`SymbolicLu::sweep_kernel`] built with AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_avx2(
        sym: &SymbolicLu,
        a_vals: &[f64],
        f: &mut LuFactors,
        x: &mut [f64],
        diagonal_margin: bool,
    ) -> Result<(), SparseError> {
        sym.sweep_kernel(a_vals, f, x, diagonal_margin)
    }

    /// [`LuFactors::substitute`], as its AVX2 build where the CPU has
    /// AVX2.
    pub(super) fn substitute(f: &LuFactors, y: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reported AVX2, the one feature
            // `substitute_avx2` enables.
            return unsafe { substitute_avx2(f, y) };
        }
        f.substitute(y);
    }

    /// [`LuFactors::substitute`] built with AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn substitute_avx2(f: &LuFactors, y: &mut [f64]) {
        f.substitute(y);
    }
}

/// The result of a sparse LU factorisation: `P·A·Q = L·U`.
///
/// `L` has an implicit unit diagonal and `U`'s diagonal is held
/// separately; both are stored in the pivot-space envelope layout of the
/// [module docs](self), whose shape is shared with the [`SymbolicLu`] it
/// belongs to, so a factor object owns only its values. Use
/// [`LuFactors::solve`] to solve `A·x = b`.
#[derive(Debug, Clone)]
pub struct LuFactors {
    env: Arc<Envelope>,
    l_vals: Vec<f64>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
}

/// Factors a square matrix with the default (RCM) column pre-ordering.
///
/// # Errors
///
/// Returns [`SparseError::Shape`] if `a` is not square and
/// [`SparseError::Singular`] if a pivot vanishes.
pub fn factor(a: &CscMatrix) -> Result<LuFactors, SparseError> {
    factor_with_ordering(a, ColumnOrdering::Rcm)
}

/// Factors a square matrix with an explicit column ordering choice.
///
/// # Errors
///
/// See [`factor`].
pub fn factor_with_ordering(
    a: &CscMatrix,
    ordering: ColumnOrdering,
) -> Result<LuFactors, SparseError> {
    factor_ordered(a, column_order(a, ordering)?)
}

/// The column pre-ordering of a square matrix.
fn column_order(a: &CscMatrix, ordering: ColumnOrdering) -> Result<Permutation, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::Shape {
            detail: format!(
                "LU requires a square matrix, got {}x{}",
                a.nrows(),
                a.ncols()
            ),
        });
    }
    Ok(match ordering {
        ColumnOrdering::Natural => Permutation::identity(a.nrows()),
        ColumnOrdering::Rcm => reverse_cuthill_mckee(a),
    })
}

/// Gilbert–Peierls with partial pivoting over the column order `q`.
fn factor_ordered(a: &CscMatrix, q: Permutation) -> Result<LuFactors, SparseError> {
    let n = a.nrows();

    // The exact factors, with L in original row indices: rows get their
    // pivot step only as the factorisation reaches them, so the DFS works
    // in original rows and the envelope is laid out once at the end.
    let mut l_colptr = Vec::with_capacity(n + 1);
    let mut l_rows: Vec<usize> = Vec::new();
    let mut l_vals: Vec<f64> = Vec::new();
    let mut u_colptr = Vec::with_capacity(n + 1);
    let mut u_rows: Vec<usize> = Vec::new();
    let mut u_vals: Vec<f64> = Vec::new();
    let mut u_diag = vec![0.0; n];
    let mut p = vec![usize::MAX; n];
    // pinv[original row] = pivot step, or MAX if not yet pivoted.
    let mut pinv = vec![usize::MAX; n];

    // Workspaces.
    let mut x = vec![0.0f64; n];
    let mut mark = vec![usize::MAX; n];
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    // DFS stack of (node, next-child cursor).
    let mut stack: Vec<(usize, usize)> = Vec::with_capacity(64);

    l_colptr.push(0);
    u_colptr.push(0);

    for jj in 0..n {
        let col = q.old_of(jj);
        topo.clear();

        // ---- Symbolic: pattern of x = L⁻¹ A(:,col) by DFS over L's graph.
        for (seed, _) in a.col_iter(col) {
            if mark[seed] == jj {
                continue;
            }
            mark[seed] = jj;
            stack.push((seed, 0));
            while let Some(top) = stack.len().checked_sub(1) {
                let (node, cursor) = stack[top];
                let piv_col = pinv[node];
                let mut next_child = None;
                if piv_col != usize::MAX {
                    let lo = l_colptr[piv_col];
                    let hi = l_colptr[piv_col + 1];
                    let mut cur = cursor;
                    while lo + cur < hi {
                        let child = l_rows[lo + cur];
                        cur += 1;
                        if mark[child] != jj {
                            next_child = Some(child);
                            break;
                        }
                    }
                    stack[top].1 = cur;
                }
                match next_child {
                    Some(child) => {
                        mark[child] = jj;
                        stack.push((child, 0));
                    }
                    None => {
                        stack.pop();
                        topo.push(node);
                    }
                }
            }
        }

        // ---- Numeric: scatter A(:,col), then eliminate in topological order.
        for (r, v) in a.col_iter(col) {
            x[r] = v;
        }
        for &i in topo.iter().rev() {
            let piv_col = pinv[i];
            if piv_col == usize::MAX {
                continue;
            }
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for k in l_colptr[piv_col]..l_colptr[piv_col + 1] {
                x[l_rows[k]] -= l_vals[k] * xi;
            }
        }

        // ---- Pivot selection among not-yet-pivoted pattern rows.
        let mut ipiv = usize::MAX;
        let mut best = 0.0f64;
        for &i in &topo {
            if pinv[i] == usize::MAX {
                let cand = x[i].abs();
                if cand > best {
                    best = cand;
                    ipiv = i;
                }
            }
        }
        if ipiv == usize::MAX || best < PIVOT_TINY {
            // Clean workspace before bailing out.
            for &i in &topo {
                x[i] = 0.0;
            }
            return Err(SparseError::Singular { column: col });
        }
        let d = x[ipiv];
        u_diag[jj] = d;
        pinv[ipiv] = jj;
        p[jj] = ipiv;

        // ---- Emit U (pivoted pattern rows) and L (remaining rows).
        // Exact zeros are kept: the stored pattern must equal the full
        // symbolic reach set so a later refactorisation over the frozen
        // pattern stays valid even where values cancelled here.
        for &i in &topo {
            let piv_col = pinv[i];
            if i == ipiv {
                // diagonal handled above
            } else if piv_col != usize::MAX && piv_col < jj {
                u_rows.push(piv_col);
                u_vals.push(x[i]);
            } else {
                l_rows.push(i);
                l_vals.push(x[i] / d);
            }
            x[i] = 0.0;
        }
        l_colptr.push(l_rows.len());
        u_colptr.push(u_rows.len());
    }

    // ---- Lay the exact factors out in the envelope. Every row is pivoted
    // now, so L's rows become pivot steps like U's already are; each
    // column's extent reaches its outermost row, and the values land in
    // their row's slot unchanged.
    for r in &mut l_rows {
        *r = pinv[*r];
    }
    let mut l_ptr = Vec::with_capacity(n + 1);
    let mut u_ptr = Vec::with_capacity(n + 1);
    l_ptr.push(0);
    u_ptr.push(0);
    for j in 0..n {
        let l_last = l_rows[l_colptr[j]..l_colptr[j + 1]]
            .iter()
            .copied()
            .max()
            .unwrap_or(j);
        let u_first = u_rows[u_colptr[j]..u_colptr[j + 1]]
            .iter()
            .copied()
            .min()
            .unwrap_or(j);
        l_ptr.push(l_ptr[j] + l_last - j);
        u_ptr.push(u_ptr[j] + j - u_first);
    }
    let mut f = LuFactors::zeroed(Arc::new(Envelope {
        n,
        exact_nnz: l_rows.len() + u_rows.len() + n,
        l_ptr,
        u_ptr,
        p,
        q,
    }));
    f.u_diag = u_diag;
    let env = &*f.env;
    for j in 0..n {
        let l = &mut f.l_vals[env.l_col(j)];
        for k in l_colptr[j]..l_colptr[j + 1] {
            l[l_rows[k] - (j + 1)] = l_vals[k];
        }
        let u = &mut f.u_vals[env.u_col(j)];
        let u_first = j - u.len();
        for k in u_colptr[j]..u_colptr[j + 1] {
            u[u_rows[k] - u_first] = u_vals[k];
        }
    }
    Ok(f)
}

/// Factors `a` with Gilbert–Peierls and captures the symbolic analysis
/// for later numeric refactorisations over the same sparsity pattern.
///
/// The factors are the pivoting factorisation's own values, which differ
/// from a refactorisation of the same matrix in the last bits wherever
/// the two elimination orders round differently. [`analyse`] returns the
/// same analysis with the refactorisation's values, usually without the
/// pivot search.
///
/// # Errors
///
/// See [`factor`].
pub fn factor_with_symbolic(
    a: &CscMatrix,
    ordering: ColumnOrdering,
) -> Result<(LuFactors, SymbolicLu), SparseError> {
    let factors = factor_with_ordering(a, ordering)?;
    let symbolic = SymbolicLu::capture(&factors, a);
    Ok((factors, symbolic))
}

/// Analyses `a` for the refactorisations to come: the symbolic analysis a
/// Gilbert–Peierls factorisation captures ([`factor_with_symbolic`]), and
/// the values of the numeric sweep ([`SymbolicLu::refactor`]) of `a` over
/// it — the pivoting factorisation's own values only if that sweep errors.
///
/// When every column's diagonal beats the other candidate pivots by a
/// fixed relative margin, the analysis is laid out by a structural pass
/// and the margin-checked sweep, with no pivot search; any other matrix
/// takes the pivoting route. Both routes return the same result (see the
/// [module docs](self)).
///
/// # Errors
///
/// Those of [`factor_with_symbolic`]: [`SparseError::Shape`] if `a` is not
/// square and [`SparseError::Singular`] if a pivot vanishes.
pub fn analyse(
    a: &CscMatrix,
    ordering: ColumnOrdering,
) -> Result<(LuFactors, SymbolicLu), SparseError> {
    let q = column_order(a, ordering)?;
    if let Some(analysed) = analyse_diagonal(a, &q) {
        return Ok(analysed);
    }
    let factors = factor_ordered(a, q)?;
    let symbolic = SymbolicLu::capture(&factors, a);
    let mut swept = symbolic.allocate_factors();
    // The sweep cannot degrade (pivot growth is judged against the pivots
    // just chosen for this very matrix), but if it ever errors, keep the
    // pivoting factorisation's values.
    let factors = match symbolic.refactor_into(a, &mut swept) {
        Ok(()) => swept,
        Err(_) => factors,
    };
    Ok((factors, symbolic))
}

/// The margin-checked route of [`analyse`]: the diagonal pivot sequence's
/// analysis and sweep, or `None` when some column misses its diagonal,
/// fails the margin, or meets a vanishing pivot or a non-finite value.
fn analyse_diagonal(a: &CscMatrix, q: &Permutation) -> Option<(LuFactors, SymbolicLu)> {
    let symbolic = SymbolicLu::diagonal(a, q)?;
    let mut factors = symbolic.allocate_factors();
    let mut x = vec![0.0; symbolic.n()];
    dispatch::sweep(&symbolic, a.values(), &mut factors, &mut x, true).ok()?;
    Some((factors, symbolic))
}

/// The reusable symbolic half of a sparse LU factorisation: column
/// ordering, pivot sequence and the envelope layout of the factors, frozen
/// from one analysis ([`analyse`] or [`factor_with_symbolic`]; both yield
/// the Gilbert–Peierls pivot sequence and envelope).
///
/// A `SymbolicLu` is valid for any matrix with *exactly* the sparsity
/// pattern of the matrix it was captured from (values free to change); the
/// pattern is checked on every [`SymbolicLu::refactor`] call. The rows of
/// that pattern are kept mapped to pivot steps, so the numeric sweep
/// scatters each column straight into pivot space and needs no DFS.
///
/// Two analyses compare equal when they hold the same ordering, pivot
/// sequence, envelope, exact entry count and pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicLu {
    env: Arc<Envelope>,
    /// Pattern of the factored matrix, for validity checking.
    a_colptr: Vec<usize>,
    a_rows: Vec<usize>,
    /// `a_steps[k]` = pivot step of row `a_rows[k]`.
    a_steps: Vec<usize>,
}

impl SymbolicLu {
    /// Extracts the symbolic analysis from a completed factorisation of
    /// `a`.
    fn capture(f: &LuFactors, a: &CscMatrix) -> Self {
        let mut pinv = vec![0; f.env.n];
        for (step, &row) in f.env.p.iter().enumerate() {
            pinv[row] = step;
        }
        SymbolicLu {
            env: Arc::clone(&f.env),
            a_colptr: a.col_ptr().to_vec(),
            a_rows: a.row_idx().to_vec(),
            a_steps: a.row_idx().iter().map(|&r| pinv[r]).collect(),
        }
    }

    /// The analysis of the diagonal pivot sequence `p = q`, laid out by a
    /// structural pass with no values, or `None` when some column's
    /// pattern misses its own diagonal.
    ///
    /// With the pivots fixed, column `j`'s pattern is the pivot rows of
    /// `A(:,q[j])` closed under the `L` patterns of the earlier columns it
    /// reaches — what Gilbert–Peierls' depth-first search finds. `L`
    /// patterns reach only later rows, so one ascending pass closes it:
    /// each reached column ORs its flags, one byte per `L` envelope slot,
    /// into the column's reach.
    fn diagonal(a: &CscMatrix, q: &Permutation) -> Option<SymbolicLu> {
        let n = a.nrows();
        let a_steps: Vec<usize> = a.row_idx().iter().map(|&r| q.new_of(r)).collect();
        let mut reach = vec![0u8; n];
        // The finished columns' exact L patterns, laid out like L's values.
        let mut l_flags: Vec<u8> = Vec::new();
        let mut l_ptr = Vec::with_capacity(n + 1);
        let mut u_ptr = Vec::with_capacity(n + 1);
        l_ptr.push(0);
        u_ptr.push(0);
        let mut exact_nnz = 0;
        for j in 0..n {
            let col = q.old_of(j);
            let (mut first, mut last) = (j, j);
            for &step in &a_steps[a.col_ptr()[col]..a.col_ptr()[col + 1]] {
                reach[step] = 1;
                first = first.min(step);
                last = last.max(step);
            }
            for k in first..j {
                if reach[k] != 0 {
                    let flags = &l_flags[l_ptr[k]..l_ptr[k + 1]];
                    for (r, &flag) in reach[k + 1..k + 1 + flags.len()].iter_mut().zip(flags) {
                        *r |= flag;
                    }
                    last = last.max(k + flags.len());
                }
            }
            if reach[j] == 0 {
                return None;
            }
            let pattern = &mut reach[first..=last];
            exact_nnz += pattern.iter().map(|&flag| usize::from(flag)).sum::<usize>();
            l_flags.extend_from_slice(&pattern[j + 1 - first..]);
            l_ptr.push(l_flags.len());
            u_ptr.push(u_ptr[j] + j - first);
            pattern.fill(0);
        }
        Some(SymbolicLu {
            env: Arc::new(Envelope {
                n,
                l_ptr,
                u_ptr,
                p: (0..n).map(|j| q.old_of(j)).collect(),
                q: q.clone(),
                exact_nnz,
            }),
            a_colptr: a.col_ptr().to_vec(),
            a_rows: a.row_idx().to_vec(),
            a_steps,
        })
    }

    /// Dimension of the analysed matrix.
    pub fn n(&self) -> usize {
        self.env.n
    }

    /// Stored entries of `L` (implicit unit diagonal excluded): the
    /// envelope, padding included.
    pub fn nnz_l(&self) -> usize {
        self.env.nnz_l()
    }

    /// Stored entries of `U` (diagonal included): the envelope, padding
    /// included.
    pub fn nnz_u(&self) -> usize {
        self.env.nnz_u()
    }

    /// Entries of the exact Gilbert–Peierls `L` and `U` patterns (`U`'s
    /// diagonal included) — what an index-per-entry layout would store.
    /// `nnz_l() + nnz_u()` over this is the envelope's padding ratio.
    pub fn exact_nnz(&self) -> usize {
        self.env.exact_nnz
    }

    /// Allocates a factor object shaped for this pattern, ready for
    /// [`SymbolicLu::refactor_into`].
    pub fn allocate_factors(&self) -> LuFactors {
        LuFactors::zeroed(Arc::clone(&self.env))
    }

    /// Numerically refactors `a` over the frozen pattern into a fresh
    /// factor object. See [`SymbolicLu::refactor_into`] for the conditions.
    ///
    /// # Errors
    ///
    /// See [`SymbolicLu::refactor_into`].
    pub fn refactor(&self, a: &CscMatrix) -> Result<LuFactors, SparseError> {
        let mut f = self.allocate_factors();
        self.refactor_into(a, &mut f)?;
        Ok(f)
    }

    /// Numerically refactors `a` into `f`, reusing `f`'s allocations.
    ///
    /// `f` is an allocation donor: any factor object with this pattern's
    /// array shapes works (one from [`SymbolicLu::allocate_factors`], a
    /// previous refactorisation, or a fresh [`factor`] of the same
    /// matrix), and it takes this symbolic object's layout.
    ///
    /// # Errors
    ///
    /// * [`SparseError::Shape`] — `a`'s sparsity pattern differs from the
    ///   analysed one, or `f`'s array shapes do not match.
    /// * [`SparseError::Singular`] — a frozen pivot vanished.
    /// * [`SparseError::UnstablePivot`] — multiplier growth beyond the
    ///   stability bound; the caller should run a fresh pivoting
    ///   [`factor`].
    pub fn refactor_into(&self, a: &CscMatrix, f: &mut LuFactors) -> Result<(), SparseError> {
        let mut x = vec![0.0f64; self.n()];
        self.refactor_into_with(a, f, &mut x)
    }

    /// [`SymbolicLu::refactor_into`] with a caller-owned dense scratch
    /// column, so a warm solver loop performs no heap allocation at all.
    ///
    /// `x` is resized to `n` if needed and left zeroed on return (success
    /// or error), so the same buffer can be passed to every call.
    ///
    /// # Errors
    ///
    /// See [`SymbolicLu::refactor_into`].
    pub fn refactor_into_with(
        &self,
        a: &CscMatrix,
        f: &mut LuFactors,
        x: &mut Vec<f64>,
    ) -> Result<(), SparseError> {
        let env = &*self.env;
        let n = env.n;
        // The scratch column must start zeroed, and the documented
        // invariant is that it comes back sized-to-`n` and zeroed on
        // *every* exit path — including the shape-check early returns
        // below — so warm loops can hand the same buffer back blindly.
        x.clear();
        x.resize(n, 0.0);
        if a.col_ptr() != self.a_colptr.as_slice() || a.row_idx() != self.a_rows.as_slice() {
            return Err(SparseError::Shape {
                detail: format!(
                    "refactor pattern mismatch: symbolic analysis is for a \
                     {n}x{n} matrix with {nnz} stored entries in a fixed \
                     pattern; pass a matrix with the identical pattern or \
                     re-run the full factorisation",
                    nnz = self.a_rows.len(),
                ),
            });
        }
        if f.n() != n || f.nnz_l() != env.nnz_l() || f.nnz_u() != env.nnz_u() {
            return Err(SparseError::Shape {
                detail: "refactor target does not match this pattern's array shapes".into(),
            });
        }
        f.env = Arc::clone(&self.env);
        dispatch::sweep(self, a.values(), f, x, false)
    }

    /// The left-looking numeric sweep of `a_vals` (on this analysis'
    /// pattern) into `f`, which must have this layout, in the zeroed
    /// length-`n` column `x`, left zeroed on every exit. Callers reach it
    /// through [`dispatch::sweep`].
    ///
    /// With `diagonal_margin`, a column also fails unless its pivot beats
    /// every other entry below it by [`DIAGONAL_MARGIN`], a non-finite
    /// entry included: the guard [`analyse`] accepts the diagonal pivot
    /// sequence with. It fails as [`SparseError::UnstablePivot`].
    #[inline(always)]
    fn sweep_kernel(
        &self,
        a_vals: &[f64],
        f: &mut LuFactors,
        x: &mut [f64],
        diagonal_margin: bool,
    ) -> Result<(), SparseError> {
        let env = &*self.env;
        for jj in 0..env.n {
            let col = env.q.old_of(jj);
            for k in self.a_colptr[col]..self.a_colptr[col + 1] {
                x[self.a_steps[k]] = a_vals[k];
            }
            // Eliminate with the frozen pivot sequence, ascending through
            // the U extent (a topological order), moving each multiplier
            // into U; padded rows hold zero and skip their column.
            let u = &mut f.u_vals[env.u_col(jj)];
            let u_first = jj - u.len();
            eliminate_forward(env, &f.l_vals, x, u_first..jj, |k, xk| {
                let t = std::mem::take(xk);
                u[k - u_first] = t;
                t
            });
            let d = std::mem::take(&mut x[jj]);
            let l_slots = env.l_col(jj);
            let below = &mut x[jj + 1..jj + 1 + l_slots.len()];
            let colmax = below.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if !d.is_finite() || d.abs() <= PIVOT_TINY {
                x.fill(0.0);
                return Err(SparseError::Singular { column: col });
            }
            let beaten = diagonal_margin && {
                let limit = d.abs() * (1.0 - DIAGONAL_MARGIN);
                !below.iter().all(|v| v.abs() < limit)
            };
            if colmax > MAX_PIVOT_GROWTH * d.abs() || beaten {
                x.fill(0.0);
                return Err(SparseError::UnstablePivot {
                    column: col,
                    growth: colmax / d.abs(),
                });
            }
            f.u_diag[jj] = d;
            let inv_d = 1.0 / d;
            for (lv, xr) in f.l_vals[l_slots].iter_mut().zip(below) {
                *lv = std::mem::take(xr) * inv_d;
            }
        }
        Ok(())
    }
}

/// Reusable scratch for [`LuFactors::solve_with`]: the dense pivot-space
/// vector the in-place triangular solve works in, kept across calls so a
/// warm solver loop performs zero heap allocation.
///
/// One workspace serves factorisations of any size — the buffer grows to
/// the largest `n` seen and then stays. [`SolveWorkspace::grows`] counts how
/// often it actually had to reallocate, which is the observable that lets
/// callers *assert* their hot path is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    y: Vec<f64>,
    grows: u64,
}

impl SolveWorkspace {
    /// Creates an empty workspace (the buffer grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for systems of dimension `n`, so even
    /// the first solve allocates nothing.
    pub fn with_dimension(n: usize) -> Self {
        SolveWorkspace {
            y: vec![0.0; n],
            grows: 0,
        }
    }

    /// Number of times the buffer had to reallocate since construction. A
    /// warm loop must keep this constant.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Sizes the buffer to `n`, counting real reallocations. Every solve
    /// overwrites it completely (the right-hand side is gathered into it),
    /// so a warm call — length already `n` — does no work here at all.
    fn ensure(&mut self, n: usize) {
        if self.y.capacity() < n {
            self.grows += 1;
        }
        if self.y.len() != n {
            self.y.clear();
            self.y.resize(n, 0.0);
        }
    }
}

impl LuFactors {
    /// All-zero factors laid out in `env`.
    fn zeroed(env: Arc<Envelope>) -> Self {
        LuFactors {
            l_vals: vec![0.0; env.l_ptr[env.n]],
            u_vals: vec![0.0; env.u_ptr[env.n]],
            u_diag: vec![0.0; env.n],
            env,
        }
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.env.n
    }

    /// Stored entries in `L` (excluding the implicit unit diagonal): the
    /// envelope, padding included.
    pub fn nnz_l(&self) -> usize {
        self.l_vals.len()
    }

    /// Stored entries in `U` (including the diagonal): the envelope,
    /// padding included.
    pub fn nnz_u(&self) -> usize {
        self.u_vals.len() + self.u_diag.len()
    }

    /// Solves `A·x = b` using the computed factors.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Shape`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0f64; self.n()];
        self.solve_with(&mut ws, b, &mut x)?;
        Ok(x)
    }

    /// Allocation-free solve: `A·x = b` using caller-owned scratch. The
    /// solution (in original ordering, permutation applied) overwrites `x`
    /// completely; `b` is untouched. After the workspace has warmed to this
    /// dimension, the call performs no heap allocation.
    ///
    /// The right-hand side is gathered into pivot order, the forward and
    /// backward sweeps run in place in the workspace's one buffer, and the
    /// result is scattered back through the column permutation.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Shape`] if `b.len() != n` or `x.len() != n`.
    pub fn solve_with(
        &self,
        ws: &mut SolveWorkspace,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<(), SparseError> {
        let env = &*self.env;
        let n = env.n;
        if b.len() != n || x.len() != n {
            return Err(SparseError::Shape {
                detail: format!(
                    "rhs length {} / solution length {} != {n}",
                    b.len(),
                    x.len(),
                ),
            });
        }
        ws.ensure(n);
        let y = &mut ws.y;
        for (yj, &row) in y.iter_mut().zip(&env.p) {
            *yj = b[row];
        }
        dispatch::substitute(self, y);
        env.q.scatter_into(y, x);
        Ok(())
    }

    /// The forward and backward substitution of
    /// [`LuFactors::solve_with`], in place in the pivot-space vector `y`
    /// (length `n`). Callers reach it through [`dispatch::substitute`].
    ///
    /// Both passes apply two columns per pass. The forward pass is
    /// [`eliminate_forward`] over every column of `L`, keeping each
    /// multiplier in `y`. The backward pass mirrors it: column `j`
    /// divides row `j` by its pivot and updates row `j - 1` first, because
    /// that completes `j - 1`'s value, then each row above `j - 1` takes
    /// `j`'s update and then `j - 1`'s; both columns' remaining rows end
    /// at `j - 2`. A zero value skips its column, and with `n` odd,
    /// column 0, which has no `U` entries, is left to its division.
    #[inline(always)]
    fn substitute(&self, y: &mut [f64]) {
        let env = &*self.env;
        // Forward: y = L⁻¹ P b.
        eliminate_forward(env, &self.l_vals, y, 0..env.n, |_, yk| *yk);
        // Backward: y = U⁻¹ y.
        let mut j = env.n;
        while j >= 2 {
            let (hi, lo) = (j - 1, j - 2);
            let yh = y[hi] / self.u_diag[hi];
            y[hi] = yh;
            let uh_above = match self.u_vals[env.u_col(hi)].split_last() {
                Some((&u, above)) if yh != 0.0 => {
                    y[lo] -= u * yh;
                    above
                }
                _ => &[],
            };
            let yl = y[lo] / self.u_diag[lo];
            y[lo] = yl;
            let ul = if yl != 0.0 {
                &self.u_vals[env.u_col(lo)]
            } else {
                &[]
            };
            sub_scaled_pair_back(&mut y[..lo], uh_above, yh, ul, yl);
            j -= 2;
        }
        if j == 1 {
            y[0] /= self.u_diag[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::triplet::TripletMatrix;

    fn residual_inf(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn identity_solve() {
        let a = CscMatrix::identity(5);
        let f = factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = f.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn diagonal_solve() {
        let a = CscMatrix::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[2.0, 4.0, 8.0]);
        let f = factor(&a).unwrap();
        let x = f.solve(&[2.0, 4.0, 8.0]).unwrap();
        for v in &x {
            assert!((v - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn permutation_matrix_requires_pivoting() {
        // A = anti-diagonal: needs row swaps everywhere.
        let a = CscMatrix::from_triplets(3, 3, &[2, 1, 0], &[0, 1, 2], &[1.0, 1.0, 1.0]);
        let f = factor(&a).unwrap();
        let x = f.solve(&[5.0, 7.0, 9.0]).unwrap();
        assert!((x[2] - 5.0).abs() < 1e-14);
        assert!((x[1] - 7.0).abs() < 1e-14);
        assert!((x[0] - 9.0).abs() < 1e-14);
    }

    #[test]
    fn laplacian_with_leak_matches_dense() {
        // 1D conduction chain with a conductance to ambient at one end:
        // nonsingular, the canonical thermal-model structure.
        let n = 12;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(i, i + 1, 1.0 + i as f64 * 0.1);
        }
        t.push(0, 0, 0.5); // sink to ambient
        let a = t.to_csc();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.5).collect();

        let dense_rows = a.to_dense();
        let dref: Vec<&[f64]> = dense_rows.iter().map(|r| r.as_slice()).collect();
        let oracle = DenseMatrix::from_rows(&dref).unwrap().solve(&b).unwrap();

        for ord in [ColumnOrdering::Natural, ColumnOrdering::Rcm] {
            let f = factor_with_ordering(&a, ord).unwrap();
            let x = f.solve(&b).unwrap();
            for (u, v) in x.iter().zip(&oracle) {
                assert!((u - v).abs() < 1e-10, "{ord:?}: {u} vs {v}");
            }
            assert!(residual_inf(&a, &x, &b) < 1e-10);
        }
    }

    #[test]
    fn nonsymmetric_advection_like_system() {
        // Conduction chain plus one-directional (upwind) coupling — the
        // exact structure the micro-channel model produces.
        let n = 10;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0);
        }
        for i in 0..n - 1 {
            t.push(i, i + 1, -1.0); // conduction (symmetric part)
            t.push(i + 1, i, -1.0);
            t.push(i + 1, i, -0.8); // advection: downstream depends on upstream
        }
        let a = t.to_csc();
        let b = vec![1.0; n];
        let f = factor(&a).unwrap();
        let x = f.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-11);
    }

    #[test]
    fn singular_matrix_detected() {
        // Rank-deficient: column 2 is zero.
        let a = CscMatrix::from_triplets(3, 3, &[0, 1], &[0, 1], &[1.0, 1.0]);
        assert!(matches!(factor(&a), Err(SparseError::Singular { .. })));
    }

    #[test]
    fn pure_laplacian_is_singular() {
        // No path to ambient: floating thermal network, singular G.
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..3 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        assert!(factor(&t.to_csc()).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = CscMatrix::from_triplets(2, 3, &[0], &[0], &[1.0]);
        assert!(matches!(factor(&a), Err(SparseError::Shape { .. })));
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let f = factor(&CscMatrix::identity(3)).unwrap();
        assert!(f.solve(&[1.0, 2.0]).is_err());
    }

    /// The advection-like grid operator used across the refactor tests.
    fn grid_with_advection(scale: f64) -> CscMatrix {
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0 * scale + 0.05);
        }
        for i in 0..n - 1 {
            t.stamp_conductance(i, i + 1, scale);
            t.push(i + 1, i, -0.6 * scale);
        }
        t.to_csc()
    }

    #[test]
    fn refactor_matches_fresh_factor_on_new_values() {
        let a0 = grid_with_advection(1.0);
        let (_, sym) = factor_with_symbolic(&a0, ColumnOrdering::Rcm).unwrap();
        for scale in [0.3, 1.0, 2.5, 7.0] {
            let a = grid_with_advection(scale);
            let re = sym.refactor(&a).unwrap();
            let fresh = factor(&a).unwrap();
            let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.31).cos()).collect();
            let x_re = re.solve(&b).unwrap();
            let x_fresh = fresh.solve(&b).unwrap();
            for (u, v) in x_re.iter().zip(&x_fresh) {
                assert!((u - v).abs() < 1e-11, "scale {scale}: {u} vs {v}");
            }
            assert!(residual_inf(&a, &x_re, &b) < 1e-10);
        }
    }

    #[test]
    fn refactor_into_reuses_allocations() {
        let a0 = grid_with_advection(1.0);
        let (mut f, sym) = factor_with_symbolic(&a0, ColumnOrdering::Rcm).unwrap();
        let a = grid_with_advection(4.0);
        sym.refactor_into(&a, &mut f).unwrap();
        let b = vec![1.0; a.nrows()];
        let x = f.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn refactor_rejects_foreign_pattern() {
        let a0 = grid_with_advection(1.0);
        let (_, sym) = factor_with_symbolic(&a0, ColumnOrdering::Rcm).unwrap();
        // Same size, different pattern.
        let other = CscMatrix::identity(a0.nrows());
        assert!(matches!(
            sym.refactor(&other),
            Err(SparseError::Shape { .. })
        ));
    }

    #[test]
    fn refactor_detects_degenerate_pivot() {
        // Factor a well-pivoted 2x2, then hand it values that make the
        // frozen pivot catastrophically small relative to its column.
        let a0 =
            CscMatrix::from_triplets(2, 2, &[0, 1, 0, 1], &[0, 0, 1, 1], &[4.0, 1.0, 1.0, 4.0]);
        let (_, sym) = factor_with_symbolic(&a0, ColumnOrdering::Natural).unwrap();
        let bad =
            CscMatrix::from_triplets(2, 2, &[0, 1, 0, 1], &[0, 0, 1, 1], &[1e-12, 1.0, 1.0, 4.0]);
        match sym.refactor(&bad) {
            Err(SparseError::UnstablePivot { growth, .. }) => {
                assert!(growth > MAX_PIVOT_GROWTH);
            }
            other => panic!("expected UnstablePivot, got {other:?}"),
        }
        // The fallback path: a fresh pivoting factorisation handles it.
        let f = factor(&bad).unwrap();
        let x = f.solve(&[1.0, 1.0]).unwrap();
        assert!(residual_inf(&bad, &x, &[1.0, 1.0]) < 1e-9);
    }

    #[test]
    fn refactor_flags_singular_values() {
        let a0 = CscMatrix::from_triplets(2, 2, &[0, 1], &[0, 1], &[1.0, 1.0]);
        let (_, sym) = factor_with_symbolic(&a0, ColumnOrdering::Natural).unwrap();
        let sing = CscMatrix::from_triplets(2, 2, &[0, 1], &[0, 1], &[1.0, 0.0]);
        assert!(matches!(
            sym.refactor(&sing),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn symbolic_reports_pattern_sizes() {
        let a = grid_with_advection(1.0);
        let (f, sym) = factor_with_symbolic(&a, ColumnOrdering::Rcm).unwrap();
        assert_eq!(sym.n(), a.nrows());
        assert_eq!(sym.nnz_l(), f.nnz_l());
        assert_eq!(sym.nnz_u(), f.nnz_u());
        assert!(sym.exact_nnz() >= a.nrows());
        assert!(sym.exact_nnz() <= sym.nnz_l() + sym.nnz_u());
    }

    /// An arrow matrix in natural order: column 0 of `L` and row 0 of `U`
    /// reach the last row and column, so the envelope pads every row in
    /// between with stored zeros.
    fn arrow(n: usize, scale: f64) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 * scale + i as f64 * 0.1);
        }
        for i in 1..n - 1 {
            t.push(i, i + 1, -0.5 * scale);
        }
        t.push(n - 1, 0, -scale);
        t.push(0, n - 1, -0.7);
        t.to_csc()
    }

    #[test]
    fn envelope_padding_holds_zeros_and_solves_exactly() {
        let a0 = arrow(9, 1.0);
        let (mut f, sym) = factor_with_symbolic(&a0, ColumnOrdering::Natural).unwrap();
        assert!(
            sym.nnz_l() + sym.nnz_u() > sym.exact_nnz(),
            "the arrow's envelope must pad"
        );
        let mut scratch = Vec::new();
        for scale in [1.0, 0.6, 3.0] {
            let a = arrow(9, scale);
            sym.refactor_into_with(&a, &mut f, &mut scratch).unwrap();
            assert!(scratch.iter().all(|&v| v == 0.0), "scratch left zeroed");
            let b: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).sin() + 0.2).collect();
            let x = f.solve(&b).unwrap();
            assert!(residual_inf(&a, &x, &b) < 1e-12, "scale {scale}");
            // A fresh pivoting factorisation of the same values solves to
            // the same answer through its own padded layout.
            let fresh = factor_with_ordering(&a, ColumnOrdering::Natural).unwrap();
            let y = fresh.solve(&b).unwrap();
            for (u, v) in x.iter().zip(&y) {
                assert!((u - v).abs() < 1e-13, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn refactor_rejects_a_target_of_another_shape() {
        let (_, sym) = factor_with_symbolic(&arrow(9, 1.0), ColumnOrdering::Natural).unwrap();
        let mut other = factor(&grid_with_advection(1.0)).unwrap();
        assert!(matches!(
            sym.refactor_into(&arrow(9, 2.0), &mut other),
            Err(SparseError::Shape { .. })
        ));
    }

    #[test]
    fn solve_with_matches_solve_bitwise() {
        let a = grid_with_advection(1.7);
        let f = factor(&a).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.13).sin()).collect();
        let expect = f.solve(&b).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0; a.nrows()];
        f.solve_with(&mut ws, &b, &mut x).unwrap();
        assert_eq!(x, expect, "in-place solve must be the identical bits");
        // Wrong shapes are rejected, not panicked on.
        assert!(f.solve_with(&mut ws, &b[1..], &mut x).is_err());
        let mut short = vec![0.0; a.nrows() - 1];
        assert!(f.solve_with(&mut ws, &b, &mut short).is_err());
    }

    #[test]
    fn solve_workspace_is_allocation_free_when_warm() {
        let a = grid_with_advection(2.0);
        let f = factor(&a).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0; a.nrows()];
        let b = vec![1.0; a.nrows()];
        f.solve_with(&mut ws, &b, &mut x).unwrap();
        let warm = ws.grows();
        assert!(warm >= 1, "first use must grow the buffers");
        for _ in 0..100 {
            f.solve_with(&mut ws, &b, &mut x).unwrap();
        }
        assert_eq!(ws.grows(), warm, "warm solves must never reallocate");
        // Pre-sized workspaces never grow at all.
        let mut pre = SolveWorkspace::with_dimension(a.nrows());
        f.solve_with(&mut pre, &b, &mut x).unwrap();
        assert_eq!(pre.grows(), 0);
    }

    #[test]
    fn refactor_into_with_reuses_scratch_and_rezeroes_on_error() {
        let a0 = grid_with_advection(1.0);
        let (mut f, sym) = factor_with_symbolic(&a0, ColumnOrdering::Rcm).unwrap();
        let mut scratch = Vec::new();
        for scale in [0.5, 2.0, 6.0] {
            let a = grid_with_advection(scale);
            sym.refactor_into_with(&a, &mut f, &mut scratch).unwrap();
            let b = vec![1.0; a.nrows()];
            let x = f.solve(&b).unwrap();
            assert!(residual_inf(&a, &x, &b) < 1e-10, "scale {scale}");
            assert!(scratch.iter().all(|&v| v == 0.0), "scratch left zeroed");
        }
        // Error path: scratch comes back zeroed too.
        let a0 =
            CscMatrix::from_triplets(2, 2, &[0, 1, 0, 1], &[0, 0, 1, 1], &[4.0, 1.0, 1.0, 4.0]);
        let (mut f, sym) = factor_with_symbolic(&a0, ColumnOrdering::Natural).unwrap();
        let bad =
            CscMatrix::from_triplets(2, 2, &[0, 1, 0, 1], &[0, 0, 1, 1], &[1e-12, 1.0, 1.0, 4.0]);
        let mut scratch = vec![7.0; 2];
        assert!(sym.refactor_into_with(&bad, &mut f, &mut scratch).is_err());
        assert!(scratch.iter().all(|&v| v == 0.0));
    }

    fn value_bits(f: &LuFactors) -> Vec<u64> {
        f.l_vals
            .iter()
            .chain(&f.u_vals)
            .chain(&f.u_diag)
            .map(|v| v.to_bits())
            .collect()
    }

    /// Asserts that `a` takes `analyse`'s margin-checked route and that it
    /// returns Gilbert–Peierls' analysis with the sweep's values over it.
    fn assert_diagonal_route(a: &CscMatrix, ordering: ColumnOrdering) {
        let q = column_order(a, ordering).unwrap();
        let (f, sym) = analyse_diagonal(a, &q).expect("the diagonal pivots pass the margin");
        let (_, pivoted) = factor_with_symbolic(a, ordering).unwrap();
        assert_eq!(sym, pivoted, "{ordering:?}");
        assert!(Arc::ptr_eq(&f.env, &sym.env));
        assert_eq!(value_bits(&f), value_bits(&pivoted.refactor(a).unwrap()));
        let (g, analysed) = analyse(a, ordering).unwrap();
        assert_eq!(analysed, pivoted);
        assert_eq!(value_bits(&g), value_bits(&f));
    }

    /// Asserts that `a` misses the margin-checked route and that `analyse`
    /// still returns Gilbert–Peierls' analysis and the sweep over it.
    fn assert_pivot_search(a: &CscMatrix, ordering: ColumnOrdering) {
        let q = column_order(a, ordering).unwrap();
        assert!(analyse_diagonal(a, &q).is_none(), "{ordering:?}");
        let (g, analysed) = analyse(a, ordering).unwrap();
        let (_, pivoted) = factor_with_symbolic(a, ordering).unwrap();
        assert_eq!(analysed, pivoted);
        assert_eq!(value_bits(&g), value_bits(&pivoted.refactor(a).unwrap()));
    }

    #[test]
    fn analyse_keeps_dominant_diagonal_pivots() {
        for ordering in [ColumnOrdering::Natural, ColumnOrdering::Rcm] {
            assert_diagonal_route(&grid_with_advection(1.0), ordering);
            assert_diagonal_route(&arrow(9, 1.0), ordering);
            assert_diagonal_route(&CscMatrix::identity(4), ordering);
        }
        let empty = CscMatrix::from_triplets(0, 0, &[], &[], &[]);
        assert_diagonal_route(&empty, ColumnOrdering::Rcm);
    }

    /// A matrix shaped like the compact thermal model's operator of a
    /// `tiers`-tier stack on a 12×12 grid: two solid layers a tier with
    /// 5-point lateral and vertical conduction, and between tiers either a
    /// coolant cavity (cells convecting to the solids on both sides and
    /// advecting upwind along +x, silicon walls conducting straight
    /// across) or, air-cooled, nothing but a lumped sink node under every
    /// cell of the top layer. A transient operator adds capacitance over
    /// the time step on the diagonal.
    fn stack_operator(tiers: usize, liquid: bool, transient: bool) -> CscMatrix {
        let (nx, ny) = (12, 12);
        let cells = nx * ny;
        let mut solid = Vec::new();
        for tier in 0..tiers {
            if liquid && tier > 0 {
                solid.push(false);
            }
            solid.extend([true, true]);
        }
        let layers = solid.len();
        let n = layers * cells + usize::from(!liquid);
        let node = |z: usize, iy: usize, ix: usize| z * cells + iy * nx + ix;
        let mut t = TripletMatrix::new(n, n);
        for (z, &is_solid) in solid.iter().enumerate() {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = node(z, iy, ix);
                    if is_solid {
                        if ix + 1 < nx {
                            t.stamp_conductance(i, node(z, iy, ix + 1), 6.5e-3);
                        }
                        if iy + 1 < ny {
                            t.stamp_conductance(i, node(z, iy + 1, ix), 6.5e-3);
                        }
                        if z + 1 < layers && solid[z + 1] {
                            t.stamp_conductance(i, node(z + 1, iy, ix), 2.6);
                        }
                    } else {
                        t.stamp_conductance(i, node(z - 1, iy, ix), 2e-2);
                        t.stamp_conductance(i, node(z + 1, iy, ix), 2e-2);
                        t.stamp_conductance(node(z - 1, iy, ix), node(z + 1, iy, ix), 0.5);
                        t.push(i, i, 0.12);
                        if ix > 0 {
                            t.push(i, node(z, iy, ix - 1), -0.12);
                        }
                    }
                    if transient {
                        t.push(i, i, 3.2e-4);
                    }
                }
            }
        }
        if !liquid {
            let sink = n - 1;
            for i in (layers - 1) * cells..layers * cells {
                t.stamp_conductance(i, sink, 5.0);
            }
            t.push(sink, sink, 1.0);
            if transient {
                t.push(sink, sink, 0.5);
            }
        }
        t.to_csc()
    }

    #[test]
    fn analyse_keeps_the_diagonal_pivots_of_stack_shaped_operators() {
        for tiers in [2, 4] {
            for transient in [false, true] {
                assert_diagonal_route(&stack_operator(tiers, true, transient), ColumnOrdering::Rcm);
            }
            assert_diagonal_route(&stack_operator(tiers, false, true), ColumnOrdering::Rcm);
            // Steady and air-cooled, heat leaves only through the sink, so
            // a column eliminated before it sums to zero; one left with a
            // single neighbour ties its diagonal in exact arithmetic, and
            // rounding would decide the pivot. The guard sends it to the
            // pivot search.
            assert_pivot_search(&stack_operator(tiers, false, false), ColumnOrdering::Rcm);
        }
    }

    /// Which builds [`dispatch`] compares with the baseline bodies on
    /// this host.
    fn compared_builds() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return "the AVX2 builds against the baseline builds";
        }
        "the baseline builds against themselves (this host runs no AVX2 build)"
    }

    /// A random sparse matrix with about four off-diagonal entries a row
    /// (xorshift from `seed`), strictly diagonally dominant by rows only,
    /// so partial pivoting may leave the diagonal.
    fn random_dominant(n: usize, seed: u64) -> CscMatrix {
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = TripletMatrix::new(n, n);
        let mut row_abs = vec![0.0f64; n];
        for _ in 0..4 * n {
            let (r, c) = (next() as usize % n, next() as usize % n);
            if r != c {
                let v = (next() % 2001) as f64 / 1000.0 - 1.0;
                t.push(r, c, v);
                row_abs[r] += v.abs();
            }
        }
        for (r, s) in row_abs.into_iter().enumerate() {
            t.push(r, r, s + 0.5);
        }
        t.to_csc()
    }

    #[test]
    fn dispatched_kernels_match_the_baseline_bodies_bitwise() {
        let mut matrices = Vec::new();
        for tiers in [2, 4] {
            for liquid in [false, true] {
                for transient in [false, true] {
                    matrices.push(stack_operator(tiers, liquid, transient));
                }
            }
        }
        matrices.extend([(37, 1), (64, 2), (101, 3)].map(|(n, seed)| random_dominant(n, seed)));
        for (m, a) in matrices.iter().enumerate() {
            let n = a.nrows();
            let (_, sym) = factor_with_symbolic(a, ColumnOrdering::Rcm).unwrap();
            let mut x = vec![0.0; n];
            for margin in [false, true] {
                let mut base = sym.allocate_factors();
                let base_swept = sym.sweep_kernel(a.values(), &mut base, &mut x, margin);
                let mut built = sym.allocate_factors();
                let built_swept = dispatch::sweep(&sym, a.values(), &mut built, &mut x, margin);
                assert_eq!(built_swept, base_swept, "matrix {m}, margin {margin}");
                assert_eq!(value_bits(&built), value_bits(&base), "matrix {m}");
            }
            let f = sym.refactor(a).unwrap();
            let dense: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            let unit: Vec<f64> = (0..n).map(|i| f64::from(i == n / 3)).collect();
            let gapped: Vec<f64> = dense
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % 3 == 0 { 0.0 } else { v })
                .collect();
            for rhs in [dense, unit, gapped] {
                let mut base = rhs.clone();
                f.substitute(&mut base);
                let mut built = rhs;
                dispatch::substitute(&f, &mut built);
                let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&built), bits(&base), "matrix {m}");
            }
        }
        eprintln!(
            "envelope kernels over {} matrices: compared {}",
            matrices.len(),
            compared_builds()
        );
    }

    #[test]
    fn analyse_searches_pivots_off_the_diagonal() {
        // A missing diagonal: the anti-diagonal permutation.
        let anti = CscMatrix::from_triplets(3, 3, &[2, 1, 0], &[0, 1, 2], &[1.0, 1.0, 1.0]);
        // A diagonal beaten below it: a row-swapped dominant matrix.
        let swapped =
            CscMatrix::from_triplets(2, 2, &[0, 1, 0, 1], &[0, 0, 1, 1], &[1.0, 4.0, 4.0, 1.0]);
        // Diagonals that win, but by less than the margin: partial
        // pivoting keeps them, the margin-checked route does not.
        let tie = 1.0 - DIAGONAL_MARGIN / 2.0;
        let close =
            CscMatrix::from_triplets(2, 2, &[0, 1, 0, 1], &[0, 0, 1, 1], &[1.0, tie, tie, 1.0]);
        // A non-finite entry below the diagonal.
        let nan = CscMatrix::from_triplets(
            2,
            2,
            &[0, 1, 0, 1],
            &[0, 0, 1, 1],
            &[4.0, f64::NAN, 1.0, 4.0],
        );
        for ordering in [ColumnOrdering::Natural, ColumnOrdering::Rcm] {
            for a in [&anti, &swapped, &close] {
                assert_pivot_search(a, ordering);
            }
            let q = column_order(&nan, ordering).unwrap();
            assert!(analyse_diagonal(&nan, &q).is_none());
        }
    }

    #[test]
    fn analyse_fails_as_the_pivoting_factorisation_does() {
        let singular = CscMatrix::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[1.0, 0.0, 2.0]);
        let rank_deficient = CscMatrix::from_triplets(3, 3, &[0, 1], &[0, 1], &[1.0, 1.0]);
        let wide = CscMatrix::from_triplets(2, 3, &[0], &[0], &[1.0]);
        for a in [&singular, &rank_deficient, &wide] {
            for ordering in [ColumnOrdering::Natural, ColumnOrdering::Rcm] {
                let got = analyse(a, ordering).map(|_| ()).unwrap_err();
                let want = factor_with_symbolic(a, ordering).map(|_| ()).unwrap_err();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn grid_laplacian_2d_many_rhs() {
        // 2D 8x8 grid with sink: solve for several right-hand sides and
        // verify residuals.
        let (nx, ny) = (8, 8);
        let n = nx * ny;
        let mut t = TripletMatrix::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    t.stamp_conductance(i, i + 1, 1.0);
                }
                if y + 1 < ny {
                    t.stamp_conductance(i, i + nx, 2.0);
                }
                t.push(i, i, 0.05); // distributed sink
            }
        }
        let a = t.to_csc();
        let f = factor(&a).unwrap();
        for k in 0..4 {
            let b: Vec<f64> = (0..n).map(|i| ((i + k) as f64 * 0.37).cos()).collect();
            let x = f.solve(&b).unwrap();
            assert!(residual_inf(&a, &x, &b) < 1e-9);
        }
    }
}
