//! Property-based tests for the sparse substrate: the LU and iterative
//! solvers are checked against the dense oracle on randomly generated,
//! well-conditioned systems with random sparsity, the envelope-stored
//! LU against an index-per-entry oracle bit for bit, and `lu::analyse`
//! against Gilbert–Peierls on both of its routes.

use cmosaic_sparse::{
    bicgstab_into, lu, BicgstabOptions, BicgstabSummary, CscMatrix, DenseMatrix,
    IterativeWorkspace, Preconditioner, SolveWorkspace, SparseError, TripletMatrix,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The index-per-entry sparse LU that the envelope layout replaced, kept
/// as a bit-identity oracle: every stored entry carries its own row index
/// (`L` in original rows, `U` in pivot steps), and both the triangular
/// solve and the left-looking refactorisation scatter through it.
mod index_per_entry {
    use cmosaic_sparse::lu::ColumnOrdering;
    use cmosaic_sparse::ordering::{reverse_cuthill_mckee, Permutation};
    use cmosaic_sparse::{CscMatrix, SparseError};

    const PIVOT_TINY: f64 = 1e-300;
    const MAX_PIVOT_GROWTH: f64 = 1e8;
    const DIAGONAL_MARGIN: f64 = 1.0 / 1_048_576.0;

    pub struct Lu {
        n: usize,
        l_colptr: Vec<usize>,
        l_rows: Vec<usize>,
        l_vals: Vec<f64>,
        u_colptr: Vec<usize>,
        u_rows: Vec<usize>,
        u_vals: Vec<f64>,
        u_diag: Vec<f64>,
        p: Vec<usize>,
        q: Permutation,
    }

    /// Gilbert–Peierls with partial pivoting; panics on a singular column.
    pub fn factor(a: &CscMatrix, ordering: ColumnOrdering) -> Lu {
        let n = a.nrows();
        let q = match ordering {
            ColumnOrdering::Natural => Permutation::identity(n),
            ColumnOrdering::Rcm => reverse_cuthill_mckee(a),
        };
        let (mut l_colptr, mut l_rows, mut l_vals) = (vec![0], Vec::new(), Vec::new());
        let (mut u_colptr, mut u_rows, mut u_vals) = (vec![0], Vec::new(), Vec::new());
        let mut u_diag = vec![0.0; n];
        let mut p = vec![usize::MAX; n];
        let mut pinv = vec![usize::MAX; n];
        let mut x = vec![0.0f64; n];
        let mut mark = vec![usize::MAX; n];
        let mut topo: Vec<usize> = Vec::new();
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for jj in 0..n {
            let col = q.old_of(jj);
            topo.clear();
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
                        let (lo, hi) = (l_colptr[piv_col], l_colptr[piv_col + 1]);
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
            for (r, v) in a.col_iter(col) {
                x[r] = v;
            }
            for &i in topo.iter().rev() {
                let piv_col = pinv[i];
                if piv_col == usize::MAX || x[i] == 0.0 {
                    continue;
                }
                let xi = x[i];
                for k in l_colptr[piv_col]..l_colptr[piv_col + 1] {
                    x[l_rows[k]] -= l_vals[k] * xi;
                }
            }
            let mut ipiv = usize::MAX;
            let mut best = 0.0f64;
            for &i in &topo {
                if pinv[i] == usize::MAX && x[i].abs() > best {
                    best = x[i].abs();
                    ipiv = i;
                }
            }
            assert!(ipiv != usize::MAX && best >= PIVOT_TINY, "singular");
            let d = x[ipiv];
            u_diag[jj] = d;
            pinv[ipiv] = jj;
            p[jj] = ipiv;
            for &i in &topo {
                let piv_col = pinv[i];
                if i == ipiv {
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
        Lu {
            n,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            u_diag,
            p,
            q,
        }
    }

    impl Lu {
        /// Forward then backward substitution, scattering through the
        /// stored row indices.
        pub fn solve(&self, b: &[f64]) -> Vec<f64> {
            self.q.scatter(&self.backward(self.forward(b)))
        }

        /// Forward substitution, `L⁻¹·P·b` in pivot order: entry `j` is
        /// column `j`'s multiplier.
        pub fn forward(&self, b: &[f64]) -> Vec<f64> {
            let mut w = b.to_vec();
            let mut y = vec![0.0; self.n];
            for j in 0..self.n {
                let t = w[self.p[j]];
                y[j] = t;
                if t != 0.0 {
                    for k in self.l_colptr[j]..self.l_colptr[j + 1] {
                        w[self.l_rows[k]] -= self.l_vals[k] * t;
                    }
                }
            }
            y
        }

        /// Backward substitution of a forward result, `U⁻¹·y` in pivot
        /// order: entry `j` is column `j`'s multiplier.
        pub fn backward(&self, mut y: Vec<f64>) -> Vec<f64> {
            for j in (0..self.n).rev() {
                let yj = y[j] / self.u_diag[j];
                y[j] = yj;
                if yj != 0.0 {
                    for k in self.u_colptr[j]..self.u_colptr[j + 1] {
                        y[self.u_rows[k]] -= self.u_vals[k] * yj;
                    }
                }
            }
            y
        }

        /// The left-looking numeric sweep of `a` over this factorisation's
        /// frozen pattern and pivots, U columns in ascending pivot order,
        /// with the same pivot guards; with `margin`, also the guard of
        /// `lu::analyse`'s diagonal route.
        pub fn refactor(&self, a: &CscMatrix, margin: bool) -> Result<Lu, SparseError> {
            let mut u_rows = self.u_rows.clone();
            for j in 0..self.n {
                u_rows[self.u_colptr[j]..self.u_colptr[j + 1]].sort_unstable();
            }
            let mut f = Lu {
                n: self.n,
                l_colptr: self.l_colptr.clone(),
                l_rows: self.l_rows.clone(),
                l_vals: vec![0.0; self.l_vals.len()],
                u_colptr: self.u_colptr.clone(),
                u_rows,
                u_vals: vec![0.0; self.u_vals.len()],
                u_diag: vec![0.0; self.n],
                p: self.p.clone(),
                q: self.q.clone(),
            };
            let mut x = vec![0.0f64; self.n];
            for jj in 0..self.n {
                let col = f.q.old_of(jj);
                for (r, v) in a.col_iter(col) {
                    x[r] = v;
                }
                for t in f.u_colptr[jj]..f.u_colptr[jj + 1] {
                    let k = f.u_rows[t];
                    let xk = x[f.p[k]];
                    f.u_vals[t] = xk;
                    x[f.p[k]] = 0.0;
                    if xk != 0.0 {
                        for s in f.l_colptr[k]..f.l_colptr[k + 1] {
                            x[f.l_rows[s]] -= f.l_vals[s] * xk;
                        }
                    }
                }
                let d = x[f.p[jj]];
                x[f.p[jj]] = 0.0;
                let (lo, hi) = (f.l_colptr[jj], f.l_colptr[jj + 1]);
                let mut colmax = 0.0f64;
                for &r in &f.l_rows[lo..hi] {
                    colmax = colmax.max(x[r].abs());
                }
                if !d.is_finite() || d.abs() <= PIVOT_TINY {
                    return Err(SparseError::Singular { column: col });
                }
                let limit = d.abs() * (1.0 - DIAGONAL_MARGIN);
                let beaten = margin && !f.l_rows[lo..hi].iter().all(|&r| x[r].abs() < limit);
                if colmax > MAX_PIVOT_GROWTH * d.abs() || beaten {
                    return Err(SparseError::UnstablePivot {
                        column: col,
                        growth: colmax / d.abs(),
                    });
                }
                f.u_diag[jj] = d;
                let inv_d = 1.0 / d;
                for s in lo..hi {
                    let r = f.l_rows[s];
                    f.l_vals[s] = x[r] * inv_d;
                    x[r] = 0.0;
                }
            }
            Ok(f)
        }
    }

    /// One pivot column's envelope extents and multipliers.
    pub struct Extent {
        /// Length of `L(:,j)`'s envelope, rows `j + 1..=l_last`.
        pub l_len: usize,
        /// First row of `U(:,j)`'s envelope.
        pub u_first: usize,
        /// `U(:,j)`'s entries as (pivot row, multiplier); a row of the
        /// envelope missing here is a padded slot, whose multiplier is 0.
        pub u: Vec<(usize, f64)>,
    }

    impl Extent {
        pub fn multiplier(&self, k: usize) -> f64 {
            self.u.iter().find(|e| e.0 == k).map_or(0.0, |e| e.1)
        }
    }

    impl Lu {
        /// Every pivot column's [`Extent`].
        pub fn extents(&self) -> Vec<Extent> {
            let mut pinv = vec![0; self.n];
            for (step, &row) in self.p.iter().enumerate() {
                pinv[row] = step;
            }
            (0..self.n)
                .map(|j| {
                    let l_rows = &self.l_rows[self.l_colptr[j]..self.l_colptr[j + 1]];
                    let l_len = l_rows.iter().map(|&r| pinv[r] - j).max().unwrap_or(0);
                    let range = self.u_colptr[j]..self.u_colptr[j + 1];
                    let u: Vec<(usize, f64)> = self.u_rows[range.clone()]
                        .iter()
                        .copied()
                        .zip(self.u_vals[range].iter().copied())
                        .collect();
                    let u_first = u.iter().map(|&(k, _)| k).min().unwrap_or(j);
                    Extent { l_len, u_first, u }
                })
                .collect()
        }
    }

    /// Whether `lu::analyse` keeps the diagonal pivots of the nonsingular
    /// `a`: Gilbert–Peierls pivots on the diagonal, and every pivot of the
    /// sweep over its pattern beats the entries below it by the margin.
    pub fn keeps_diagonal_pivots(a: &CscMatrix, ordering: ColumnOrdering) -> bool {
        let f = factor(a, ordering);
        (0..f.n).all(|j| f.p[j] == f.q.old_of(j)) && f.refactor(a, true).is_ok()
    }
}

/// Strategy: a random sparse nonsymmetric matrix of size 2..=40 with about
/// three off-diagonal entries a row, strictly diagonally dominant by rows
/// only (so partial pivoting still picks off-diagonal rows), given twice
/// with independent values over the one pattern, plus a right-hand side.
/// Sparse enough that the factors' envelopes hold padded rows.
fn dominant_pattern_pair() -> impl Strategy<Value = (CscMatrix, CscMatrix, Vec<f64>)> {
    (2usize..=40)
        .prop_flat_map(|n| {
            let entries =
                proptest::collection::vec((0..n, 0..n, -1.0f64..1.0, -1.0f64..1.0), 0..3 * n);
            let margins = proptest::collection::vec((0.05f64..2.0, 0.05f64..2.0), n..=n);
            let rhs = proptest::collection::vec(-10.0f64..10.0, n..=n);
            (Just(n), entries, margins, rhs)
        })
        .prop_map(|(n, entries, margins, rhs)| {
            let build = |pick: fn(&(usize, usize, f64, f64)) -> f64,
                         margin: fn(&(f64, f64)) -> f64| {
                let mut t = TripletMatrix::new(n, n);
                let mut row_abs = vec![0.0f64; n];
                for e in entries.iter().filter(|e| e.0 != e.1) {
                    t.push(e.0, e.1, pick(e));
                    row_abs[e.0] += pick(e).abs();
                }
                for (r, (s, m)) in row_abs.iter().zip(&margins).enumerate() {
                    t.push(r, r, s + margin(m));
                }
                t.to_csc()
            };
            let a1 = build(|e| e.2, |m| m.0);
            let a2 = build(|e| e.3, |m| m.1);
            (a1, a2, rhs)
        })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

const ORDERINGS: [lu::ColumnOrdering; 2] = [lu::ColumnOrdering::Natural, lu::ColumnOrdering::Rcm];

/// Strategy: a random square, strictly diagonally dominant sparse matrix of
/// size 2..=24 with ~25% fill, plus a random right-hand side.
fn dominant_system() -> impl Strategy<Value = (CscMatrix, Vec<f64>)> {
    (2usize..=24)
        .prop_flat_map(|n| {
            let entries =
                proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..(n * n / 4).max(1));
            let rhs = proptest::collection::vec(-10.0f64..10.0, n..=n);
            (Just(n), entries, rhs)
        })
        .prop_map(|(n, entries, rhs)| {
            let mut t = TripletMatrix::new(n, n);
            let mut row_abs = vec![0.0f64; n];
            for &(r, c, v) in &entries {
                if r != c {
                    t.push(r, c, v);
                    row_abs[r] += v.abs();
                }
            }
            // Strict diagonal dominance guarantees nonsingularity and keeps
            // the condition number moderate.
            for (r, &s) in row_abs.iter().enumerate() {
                t.push(r, r, s + 1.0);
            }
            (t.to_csc(), rhs)
        })
}

/// Strategy: a thermal-like 2D grid operator — a symmetric conduction
/// Laplacian, a one-directional (upwind) advection coupling along +x and a
/// distributed sink to ambient — with random dimensions and coefficient
/// scales, plus a random non-negative power-like right-hand side. This is
/// exactly the diagonally-dominant nonsymmetric structure the thermal
/// model assembles.
fn thermal_like_system() -> impl Strategy<Value = (CscMatrix, Vec<f64>)> {
    (
        2usize..=7,
        2usize..=7,
        0.2f64..4.0,
        0.0f64..2.0,
        0.02f64..0.5,
    )
        .prop_flat_map(|(nx, ny, g, adv, sink)| {
            let n = nx * ny;
            let rhs = proptest::collection::vec(0.0f64..10.0, n..=n);
            (Just((nx, ny, g, adv, sink)), rhs)
        })
        .prop_map(|((nx, ny, g, adv, sink), rhs)| {
            let n = nx * ny;
            let mut t = TripletMatrix::new(n, n);
            for y in 0..ny {
                for x in 0..nx {
                    let i = y * nx + x;
                    if x + 1 < nx {
                        t.stamp_conductance(i, i + 1, g);
                    }
                    if y + 1 < ny {
                        t.stamp_conductance(i, i + nx, 0.7 * g);
                    }
                    // Upwind advection: this cell's balance gains mdot*cp
                    // on the diagonal and couples to the upstream cell
                    // only.
                    if x > 0 {
                        t.push(i, i, adv);
                        t.push(i, i - 1, -adv);
                    }
                    t.push(i, i, sink); // distributed sink to ambient
                }
            }
            (t.to_csc(), rhs)
        })
}

/// Strategy: a matrix from [`dominant_system`] with its rows shuffled, so
/// partial pivoting has to leave the diagonal wherever a row moved.
fn shuffled_dominant_matrix() -> impl Strategy<Value = CscMatrix> {
    dominant_system()
        .prop_flat_map(|(a, _)| {
            let n = a.nrows();
            (Just(a), proptest::collection::vec(0u32..1 << 30, n..=n))
        })
        .prop_map(|(a, keys)| {
            let n = a.nrows();
            let mut moved_to: Vec<usize> = (0..n).collect();
            moved_to.sort_by_key(|&r| keys[r]);
            let mut t = TripletMatrix::new(n, n);
            for c in 0..n {
                for (r, v) in a.col_iter(c) {
                    t.push(moved_to[r], c, v);
                }
            }
            t.to_csc()
        })
}

/// `lu::analyse` returns Gilbert–Peierls' analysis (`factor_with_symbolic`)
/// and the sweep's factors over it, bit for bit, and Gilbert–Peierls'
/// errors — on thermal-like and row-dominant matrices, most of which keep
/// their diagonal pivots, on row-shuffled ones that must leave them, and
/// on ones with a zeroed column. Counts the route of each analysis with
/// the index-per-entry oracle (`cargo test -- --nocapture` prints them)
/// and requires both.
#[test]
fn analyse_matches_the_pivoting_analysis_on_both_routes() {
    let mut rng = TestRng::for_test("analyse_matches_the_pivoting_analysis_on_both_routes");
    let (thermal, pairs) = (thermal_like_system(), dominant_pattern_pair());
    let shuffled = shuffled_dominant_matrix();
    let (mut diagonal, mut searched, mut singular) = (0, 0, 0);
    let cases = 192;
    for case in 0..cases {
        let mut a = match case % 3 {
            0 => thermal.new_value(&mut rng).0,
            1 => pairs.new_value(&mut rng).0,
            _ => shuffled.new_value(&mut rng),
        };
        if case % 8 == 7 {
            let zeroed = case % a.ncols();
            let vals: Vec<f64> = (0..a.ncols())
                .flat_map(|c| {
                    a.col_iter(c)
                        .map(move |(_, v)| if c == zeroed { 0.0 } else { v })
                })
                .collect();
            let slots: Vec<usize> = (0..vals.len()).collect();
            a.update_values(&slots, &vals);
        }
        for ordering in ORDERINGS {
            let context = format!("case {case}, {ordering:?}");
            match (
                lu::analyse(&a, ordering),
                lu::factor_with_symbolic(&a, ordering),
            ) {
                (Ok((f, sym)), Ok((_, pivoted))) => {
                    assert_eq!(sym, pivoted, "{context}");
                    let swept = pivoted.refactor(&a).unwrap();
                    assert_eq!(format!("{f:?}"), format!("{swept:?}"), "{context}");
                    if index_per_entry::keeps_diagonal_pivots(&a, ordering) {
                        diagonal += 1;
                    } else {
                        searched += 1;
                    }
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "{context}");
                    singular += 1;
                }
                (got, want) => panic!(
                    "{context}: analyse {:?} vs factor_with_symbolic {:?}",
                    got.err(),
                    want.err()
                ),
            }
        }
    }
    eprintln!(
        "lu::analyse over {} analyses: {diagonal} kept the diagonal pivots, \
         {searched} searched for pivots, {singular} failed as singular",
        2 * cases
    );
    assert!(
        diagonal > 0 && searched > 0 && singular > 0,
        "both routes and the error path must run"
    );
}

/// Jacobi preconditioning, `z = D⁻¹·r`: a deterministic preconditioner
/// for exercising BiCGSTAB's preconditioned branches.
#[derive(Clone)]
struct Jacobi(Vec<f64>);

impl Jacobi {
    /// `None` when a diagonal entry is zero.
    fn new(a: &CscMatrix) -> Option<Jacobi> {
        let d = a.diagonal();
        d.iter()
            .all(|&d| d != 0.0)
            .then(|| Jacobi(d.iter().map(|d| 1.0 / d).collect()))
    }
}

impl Preconditioner for Jacobi {
    fn n(&self) -> usize {
        self.0.len()
    }

    fn apply_into(&mut self, r: &[f64], z: &mut Vec<f64>) -> Result<(), SparseError> {
        z.clear();
        z.extend(r.iter().zip(&self.0).map(|(r, d)| r * d));
        Ok(())
    }
}

/// A fresh-workspace BiCGSTAB solve from the zero guess, Jacobi
/// preconditioned or bare.
fn fresh_bicgstab(
    a: &CscMatrix,
    b: &[f64],
    jacobi: bool,
) -> Result<(Vec<f64>, BicgstabSummary), SparseError> {
    let mut m = if jacobi { Jacobi::new(a) } else { None };
    let mut x = vec![0.0; a.nrows()];
    let options = BicgstabOptions::default();
    let summary = bicgstab_into(
        a,
        b,
        m.as_mut(),
        &options,
        &mut IterativeWorkspace::new(),
        &mut x,
    )?;
    Ok((x, summary))
}

fn dense_oracle(a: &CscMatrix, b: &[f64]) -> Vec<f64> {
    let rows = a.to_dense();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    DenseMatrix::from_rows(&refs).unwrap().solve(b).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_matches_dense_oracle((a, b) in dominant_system()) {
        let f = lu::factor(&a).unwrap();
        let x = f.solve(&b).unwrap();
        let oracle = dense_oracle(&a, &b);
        for (u, v) in x.iter().zip(&oracle) {
            prop_assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn lu_residual_is_tiny((a, b) in dominant_system()) {
        let f = lu::factor(&a).unwrap();
        let x = f.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (u, v) in ax.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-9, "residual {u} vs {v}");
        }
    }

    #[test]
    fn natural_and_rcm_orderings_agree((a, b) in dominant_system()) {
        let x_nat = lu::factor_with_ordering(&a, lu::ColumnOrdering::Natural)
            .unwrap()
            .solve(&b)
            .unwrap();
        let x_rcm = lu::factor_with_ordering(&a, lu::ColumnOrdering::Rcm)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (u, v) in x_nat.iter().zip(&x_rcm) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn bicgstab_agrees_with_lu((a, b) in dominant_system()) {
        let direct = lu::factor(&a).unwrap().solve(&b).unwrap();
        match fresh_bicgstab(&a, &b, true) {
            Ok((x, _)) => {
                for (u, v) in x.iter().zip(&direct) {
                    prop_assert!((u - v).abs() < 1e-5, "{u} vs {v}");
                }
            }
            // Breakdown is a legitimate BiCGSTAB outcome on unlucky
            // systems; the caller falls back to the direct solver.
            Err(cmosaic_sparse::SparseError::Breakdown { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// BiCGSTAB — preconditioned and bare — must agree with the direct LU
    /// on every thermal-like operator. These systems are diagonally
    /// dominant and well conditioned, so breakdown is *not* an acceptable
    /// outcome here (unlike the fully random systems above): both solver
    /// configurations must converge.
    #[test]
    fn bicgstab_cross_validates_lu_on_thermal_like_operators(
        (a, b) in thermal_like_system(),
    ) {
        let direct = lu::factor(&a).unwrap().solve(&b).unwrap();
        for jacobi in [true, false] {
            let (x, out) = match fresh_bicgstab(&a, &b, jacobi) {
                Ok(o) => o,
                Err(e) => return Err(TestCaseError::fail(
                    format!("{} solve failed: {e}", if jacobi { "Jacobi" } else { "bare" }),
                )),
            };
            prop_assert!(out.residual < 1e-9, "residual {}", out.residual);
            for (u, v) in x.iter().zip(&direct) {
                prop_assert!((u - v).abs() < 1e-6 * (1.0 + v.abs()), "{u} vs {v}");
            }
        }
    }

    /// A numeric refactorisation over the frozen pattern must agree with a
    /// fresh pivoting factorisation for any perturbation of the values.
    #[test]
    fn refactor_matches_fresh_factor(
        (a, b) in dominant_system(),
        perturb in proptest::collection::vec(0.2f64..5.0, 64),
    ) {
        let (_, sym) = lu::factor_with_symbolic(&a, lu::ColumnOrdering::Rcm).unwrap();
        // Same pattern, perturbed values (scaling preserves the diagonal
        // dominance that keeps the frozen pivot order stable).
        let vals: Vec<f64> = a
            .values()
            .iter()
            .enumerate()
            .map(|(k, v)| v * perturb[k % perturb.len()])
            .collect();
        let a2 = {
            let mut c = a.clone();
            let ident: Vec<usize> = (0..a.nnz()).collect();
            c.update_values(&ident, &vals);
            c
        };
        let re = sym.refactor(&a2).unwrap();
        let fresh = lu::factor(&a2).unwrap();
        let x_re = re.solve(&b).unwrap();
        let x_fresh = fresh.solve(&b).unwrap();
        for (u, v) in x_re.iter().zip(&x_fresh) {
            prop_assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    /// When a frozen pivot degenerates, the refactorisation must refuse
    /// (singular or unstable-pivot) rather than return garbage — and the
    /// fresh-factorisation fallback must recover a valid solve.
    #[test]
    fn refactor_fallback_on_degenerate_pivot(
        (a, b) in dominant_system(),
        column_seed in 0usize..1024,
    ) {
        let (_, sym) = lu::factor_with_symbolic(&a, lu::ColumnOrdering::Rcm).unwrap();
        let n = a.nrows();
        // Crush the diagonal entry of one column to break the frozen
        // pivot. (The first pivot of the sequence is the one guaranteed to
        // notice a vanished diagonal in a dominant system.)
        let col = column_seed % n;
        let mut vals = a.values().to_vec();
        let mut crushed = false;
        for (k, v) in vals.iter_mut().enumerate() {
            let (lo, hi) = (a.col_ptr()[col], a.col_ptr()[col + 1]);
            if (lo..hi).contains(&k) && a.row_idx()[k] == col {
                *v *= 1e-14;
                crushed = true;
            }
        }
        prop_assert!(crushed, "dominant system always has a diagonal");
        let a2 = {
            let mut c = a.clone();
            let ident: Vec<usize> = (0..a.nnz()).collect();
            c.update_values(&ident, &vals);
            c
        };
        // Crushing a diagonal can leave the matrix itself near-singular, so
        // residuals must be judged relative to ‖A‖·‖x‖ — the backward-error
        // criterion a pivoting factorisation actually guarantees.
        let rel_residual = |x: &[f64]| {
            let amax = a2.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let xinf = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let binf = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let scale = (amax * xinf * n as f64).max(binf).max(1.0);
            a2.matvec(x)
                .iter()
                .zip(&b)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0f64, f64::max)
                / scale
        };
        match sym.refactor(&a2) {
            Ok(re) => {
                // The frozen sequence survived: backward error bounded by
                // the tolerated pivot growth (1e8) times machine epsilon.
                let x = re.solve(&b).unwrap();
                let r = rel_residual(&x);
                prop_assert!(r < 1e-6, "refactor relative residual {r}");
            }
            Err(SparseError::UnstablePivot { .. } | SparseError::Singular { .. }) => {
                // Fallback path: a fresh pivoting factorisation handles the
                // same values with a clean backward error.
                let fresh = lu::factor(&a2).unwrap();
                let x = fresh.solve(&b).unwrap();
                let r = rel_residual(&x);
                prop_assert!(r < 1e-10, "fallback relative residual {r}");
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// The triplet→CSC scatter map reproduces `to_csc` for any value
    /// rewrite of the same pattern.
    #[test]
    fn scatter_map_update_matches_fresh_conversion(
        entries in proptest::collection::vec((0usize..12, 0usize..12, -3.0f64..3.0), 1..80),
        scale in -2.0f64..2.0,
    ) {
        let mut t = TripletMatrix::new(12, 12);
        for &(r, c, v) in &entries {
            t.push(r, c, v);
        }
        let (mut csc, map) = t.to_csc_with_map();
        for v in t.values_mut() {
            *v *= scale;
        }
        csc.update_values(&map, t.values());
        prop_assert_eq!(csc, t.to_csc());
    }

    #[test]
    fn matvec_linearity((a, b) in dominant_system()) {
        let two_b: Vec<f64> = b.iter().map(|v| 2.0 * v).collect();
        let y1 = a.matvec(&b);
        let y2 = a.matvec(&two_b);
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((2.0 * u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_is_involutive((a, _b) in dominant_system()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// A pivoting factorisation stored in the envelope solves to exactly
    /// the bits of the index-per-entry factors and solve.
    #[test]
    fn envelope_factor_and_solve_match_index_per_entry_bitwise(
        (a, _a2, b) in dominant_pattern_pair(),
    ) {
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0; a.nrows()];
        for ordering in ORDERINGS {
            let f = lu::factor_with_ordering(&a, ordering).unwrap();
            f.solve_with(&mut ws, &b, &mut x).unwrap();
            let oracle = index_per_entry::factor(&a, ordering).solve(&b);
            prop_assert!(bits(&x) == bits(&oracle), "{ordering:?}: {x:?} vs {oracle:?}");
        }
    }

    /// The envelope refactorisation — of the analysed matrix itself, then
    /// of new values on its pattern, into one reused factor object —
    /// reproduces the index-per-entry left-looking sweep bit for bit,
    /// guards included.
    #[test]
    fn envelope_refactor_matches_index_per_entry_sweep_bitwise(
        (a, a2, b) in dominant_pattern_pair(),
    ) {
        let mut ws = SolveWorkspace::new();
        let mut scratch = Vec::new();
        let mut x = vec![0.0; a.nrows()];
        for ordering in ORDERINGS {
            let (mut f, sym) = lu::factor_with_symbolic(&a, ordering).unwrap();
            let pivoted = index_per_entry::factor(&a, ordering);
            for m in [&a, &a2] {
                let swept = sym.refactor_into_with(m, &mut f, &mut scratch);
                prop_assert!(scratch.iter().all(|&v| v == 0.0), "scratch left zeroed");
                match (swept, pivoted.refactor(m, false)) {
                    (Ok(()), Ok(oracle)) => {
                        f.solve_with(&mut ws, &b, &mut x).unwrap();
                        let want = oracle.solve(&b);
                        prop_assert!(bits(&x) == bits(&want), "{ordering:?}: {x:?} vs {want:?}");
                    }
                    (Err(e), Err(oracle)) => prop_assert_eq!(e, oracle),
                    (got, want) => prop_assert!(
                        false,
                        "{ordering:?}: envelope {got:?} vs index-per-entry {:?}",
                        want.err()
                    ),
                }
            }
        }
    }
}

/// Edges of a paired column update, counted over the pairs of one pass:
/// an odd number of columns (one left unpaired), a zero multiplier at the
/// first or at the second column of a pair (the first column updates the
/// second's row before the second's multiplier is read), and, with both
/// multipliers nonzero, the first column's remaining update shorter or
/// longer than the second's.
#[derive(Debug, Default)]
struct PairEdges {
    odd: usize,
    zero_first: usize,
    zero_second: usize,
    shorter: usize,
    longer: usize,
}

impl PairEdges {
    /// Counts one pair: whether each multiplier is nonzero, the length of
    /// the first column's update past the second's row, and the length of
    /// the second's.
    fn pair(&mut self, first: bool, second: bool, first_rest: usize, second_len: usize) {
        match (first, second) {
            (false, true) => self.zero_first += 1,
            (true, false) => self.zero_second += 1,
            (true, true) => {
                self.shorter += usize::from(first_rest < second_len);
                self.longer += usize::from(first_rest > second_len);
            }
            (false, false) => {}
        }
    }

    /// The refactorisation sweep's pairs: columns `k` and `k + 1` of each
    /// `U` extent, ascending.
    fn count_sweep(&mut self, f: &index_per_entry::Lu) {
        let extents = f.extents();
        for (j, e) in extents.iter().enumerate() {
            self.odd += (j - e.u_first) % 2;
            for k in (e.u_first..j.saturating_sub(1)).step_by(2) {
                self.pair(
                    e.multiplier(k) != 0.0,
                    e.multiplier(k + 1) != 0.0,
                    extents[k].l_len.saturating_sub(1),
                    extents[k + 1].l_len,
                );
            }
        }
    }

    /// The forward solve's pairs, columns `k` and `k + 1` of `L` from
    /// column 0 up, with the multipliers `y` of [`index_per_entry::Lu::forward`].
    fn count_forward(&mut self, f: &index_per_entry::Lu, y: &[f64]) {
        let extents = f.extents();
        self.odd += y.len() % 2;
        for k in (0..y.len().saturating_sub(1)).step_by(2) {
            self.pair(
                y[k] != 0.0,
                y[k + 1] != 0.0,
                extents[k].l_len.saturating_sub(1),
                extents[k + 1].l_len,
            );
        }
    }

    /// The backward solve's pairs, columns `j` and `j - 1` of `U` from
    /// column `n - 1` down, with the multipliers `z` of
    /// [`index_per_entry::Lu::backward`].
    fn count_backward(&mut self, f: &index_per_entry::Lu, z: &[f64]) {
        let extents = f.extents();
        let u_len = |j: usize| j - extents[j].u_first;
        self.odd += z.len() % 2;
        for j in (1..z.len()).rev().step_by(2) {
            self.pair(
                z[j] != 0.0,
                z[j - 1] != 0.0,
                u_len(j).saturating_sub(1),
                u_len(j - 1),
            );
        }
    }

    /// Panics unless every edge occurred.
    fn assert_every_edge(&self, pass: &str) {
        let PairEdges {
            odd,
            zero_first,
            zero_second,
            shorter,
            longer,
        } = *self;
        assert!(
            odd > 0 && zero_first > 0 && zero_second > 0 && shorter > 0 && longer > 0,
            "every edge of the {pass} pairing must occur: {self:?}"
        );
    }
}

/// The refactorisation sweep applies pivot columns two per pass; on
/// random sparse matrices, some with exact zeros written over their
/// entries, it reproduces the index-per-entry sweep bit for bit, guards
/// included. Requires every edge of the pairing to occur.
#[test]
fn paired_sweep_matches_the_index_per_entry_sweep_on_its_edges() {
    let mut rng = TestRng::for_test("paired_sweep_matches_the_index_per_entry_sweep_on_its_edges");
    let (pairs, dominant) = (dominant_pattern_pair(), dominant_system());
    let mut edges = PairEdges::default();
    let mut ws = SolveWorkspace::new();
    let mut scratch = Vec::new();
    for case in 0..160 {
        let (a, mut a2, b) = if case % 2 == 0 {
            pairs.new_value(&mut rng)
        } else {
            let (a, b) = dominant.new_value(&mut rng);
            (a.clone(), a, b)
        };
        // Exact zeros over every third off-diagonal entry of the second
        // matrix: zero multipliers on the pattern, not only in padding.
        let vals: Vec<f64> = (0..a2.ncols())
            .flat_map(|c| {
                a2.col_iter(c)
                    .enumerate()
                    .map(move |(i, (r, v))| if r != c && i % 3 == case % 3 { 0.0 } else { v })
            })
            .collect();
        let slots: Vec<usize> = (0..vals.len()).collect();
        a2.update_values(&slots, &vals);
        let n = a.nrows();
        let unit: Vec<f64> = (0..n)
            .map(|i| if i == case % n { 1.0 } else { 0.0 })
            .collect();
        for ordering in ORDERINGS {
            let context = format!("case {case}, {ordering:?}");
            let (mut f, sym) = lu::factor_with_symbolic(&a, ordering).unwrap();
            let pivoted = index_per_entry::factor(&a, ordering);
            for m in [&a, &a2] {
                match (
                    sym.refactor_into_with(m, &mut f, &mut scratch),
                    pivoted.refactor(m, false),
                ) {
                    (Ok(()), Ok(oracle)) => {
                        edges.count_sweep(&oracle);
                        let mut x = vec![0.0; n];
                        for rhs in [&b, &unit] {
                            f.solve_with(&mut ws, rhs, &mut x).unwrap();
                            assert_eq!(bits(&x), bits(&oracle.solve(rhs)), "{context}");
                        }
                    }
                    (Err(e), Err(oracle)) => assert_eq!(e, oracle, "{context}"),
                    (got, want) => panic!(
                        "{context}: envelope {got:?} vs index-per-entry {want:?}",
                        want = want.err()
                    ),
                }
            }
        }
    }
    eprintln!("paired sweep edges: {edges:?}");
    edges.assert_every_edge("sweep");
}

/// Both triangular solves apply two columns per pass (the forward one
/// `k` and `k + 1` upwards, the backward one `j` and `j - 1` downwards);
/// on random sparse matrices and right-hand sides with exact zeros,
/// `solve_with` reproduces the index-per-entry solve bit for bit.
/// Requires every edge of each pass's pairing to occur.
#[test]
fn paired_solves_match_the_index_per_entry_solve_on_their_edges() {
    let mut rng = TestRng::for_test("paired_solves_match_the_index_per_entry_solve_on_their_edges");
    let (pairs, dominant) = (dominant_pattern_pair(), dominant_system());
    let (mut forward, mut backward) = (PairEdges::default(), PairEdges::default());
    let mut ws = SolveWorkspace::new();
    for case in 0..160 {
        let (a, b) = if case % 2 == 0 {
            let (a, _, b) = pairs.new_value(&mut rng);
            (a, b)
        } else {
            dominant.new_value(&mut rng)
        };
        let n = a.nrows();
        let unit: Vec<f64> = (0..n)
            .map(|i| if i == case % n { 1.0 } else { 0.0 })
            .collect();
        let gapped: Vec<f64> = b
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 3 == case % 3 { 0.0 } else { v })
            .collect();
        let mut x = vec![0.0; n];
        for ordering in ORDERINGS {
            let context = format!("case {case}, {ordering:?}");
            let f = lu::factor_with_ordering(&a, ordering).unwrap();
            let oracle = index_per_entry::factor(&a, ordering);
            for rhs in [&b, &unit, &gapped] {
                f.solve_with(&mut ws, rhs, &mut x).unwrap();
                assert_eq!(bits(&x), bits(&oracle.solve(rhs)), "{context}");
                let y = oracle.forward(rhs);
                forward.count_forward(&oracle, &y);
                backward.count_backward(&oracle, &oracle.backward(y));
            }
        }
    }
    eprintln!("paired solve edges: forward {forward:?}, backward {backward:?}");
    forward.assert_every_edge("forward solve");
    backward.assert_every_edge("backward solve");
}

/// BiCGSTAB as it was written before its reductions rode the vector
/// updates: each of the eight inner products and norms of an iteration
/// is a pass of its own, summed by `Iterator::sum`.
mod unfused {
    use cmosaic_sparse::{
        BicgstabOptions, BicgstabSummary, LinearOperator, Preconditioner, SparseError,
    };

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn norm2(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    fn residual<A: LinearOperator>(a: &A, x: &[f64], b: &[f64], bnorm: f64) -> f64 {
        let mut t = vec![0.0; b.len()];
        a.matvec_into(x, &mut t);
        let mut sq = 0.0;
        for (u, v) in t.iter().zip(b) {
            let d = u - v;
            sq += d * d;
        }
        sq.sqrt() / bnorm
    }

    fn precondition<M: Preconditioner>(m: &mut Option<&mut M>, r: &[f64], z: &mut Vec<f64>) {
        match m {
            Some(m) => m.apply_into(r, z).unwrap(),
            None => {
                z.clear();
                z.extend_from_slice(r);
            }
        }
    }

    pub fn bicgstab_into<A: LinearOperator, M: Preconditioner>(
        a: &A,
        b: &[f64],
        mut precond: Option<&mut M>,
        options: &BicgstabOptions,
        x: &mut [f64],
    ) -> Result<BicgstabSummary, SparseError> {
        const EPS: f64 = f64::EPSILON;
        let n = b.len();
        let done = |iterations, residual| {
            Ok(BicgstabSummary {
                iterations,
                residual,
            })
        };
        let bnorm = norm2(b);
        if bnorm == 0.0 {
            x.fill(0.0);
            return done(0, 0.0);
        }
        let a_scale = a.max_abs();
        let (mut r, mut v, mut p, mut s, mut t) = (
            vec![0.0; n],
            vec![0.0; n],
            vec![0.0; n],
            vec![0.0; n],
            vec![0.0; n],
        );
        let (mut p_hat, mut s_hat) = (Vec::new(), Vec::new());
        x.fill(0.0);
        r.copy_from_slice(b);
        let r0 = b.to_vec();
        let r0_norm = bnorm;
        let mut r_norm = bnorm;
        let (mut rho, mut alpha, mut omega) = (1.0f64, 1.0f64, 1.0f64);
        for it in 1..=options.max_iterations {
            let rho_new = dot(&r0, &r);
            if rho_new.abs() <= EPS * r0_norm * r_norm {
                return Err(SparseError::Breakdown { iteration: it });
            }
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            for ((p, &r), &v) in p.iter_mut().zip(&r).zip(&v) {
                *p = r + beta * (*p - omega * v);
            }
            precondition(&mut precond, &p, &mut p_hat);
            a.matvec_into(&p_hat, &mut v);
            let denom = dot(&r0, &v);
            let v_norm = norm2(&v);
            if denom.abs() <= EPS * r0_norm * v_norm {
                return Err(SparseError::Breakdown { iteration: it });
            }
            alpha = rho / denom;
            for ((s, &r), &v) in s.iter_mut().zip(&r).zip(&v) {
                *s = r - alpha * v;
            }
            let s_norm = norm2(&s);
            if s_norm / bnorm < options.tolerance {
                for (xi, &ph) in x.iter_mut().zip(&p_hat) {
                    *xi += alpha * ph;
                }
                return done(it, residual(a, x, b, bnorm));
            }
            precondition(&mut precond, &s, &mut s_hat);
            let s_hat_norm = norm2(&s_hat);
            a.matvec_into(&s_hat, &mut t);
            let tt = dot(&t, &t);
            if tt.sqrt() <= EPS * a_scale * s_hat_norm {
                return Err(SparseError::Breakdown { iteration: it });
            }
            let ts = dot(&t, &s);
            if ts.abs() <= EPS * tt.sqrt() * s_norm {
                return Err(SparseError::Breakdown { iteration: it });
            }
            omega = ts / tt;
            for i in 0..n {
                x[i] += alpha * p_hat[i] + omega * s_hat[i];
                r[i] = s[i] - omega * t[i];
            }
            r_norm = norm2(&r);
            if r_norm / bnorm < options.tolerance {
                return done(it, residual(a, x, b, bnorm));
            }
        }
        Err(SparseError::NoConvergence {
            iterations: options.max_iterations,
            residual: residual(a, x, b, bnorm),
        })
    }
}

/// Runs the fused solver and the unfused one over the same stale `x`
/// contents and requires the same `x` bits, iteration count, residual
/// bits and error.
fn assert_bicgstab_matches_unfused(a: &CscMatrix, b: &[f64], stale: &[f64], context: &str) {
    let outcome = |r: Result<BicgstabSummary, SparseError>| {
        r.map(|s| (s.iterations, s.residual.to_bits()))
            .map_err(|e| format!("{e:?}"))
    };
    let mut ws = IterativeWorkspace::new();
    for max_iterations in [2000, 3, 2] {
        let options = BicgstabOptions {
            max_iterations,
            ..Default::default()
        };
        // Jacobi cannot be built over a zero diagonal; such a matrix runs
        // bare only.
        let preconditioners = std::iter::once(None).chain(Jacobi::new(a).map(Some));
        for m in preconditioners {
            let preconditioned = m.is_some();
            let (mut m, mut m_ref) = (m.clone(), m);
            let (mut x, mut x_ref) = (stale.to_vec(), stale.to_vec());
            let got = bicgstab_into(a, b, m.as_mut(), &options, &mut ws, &mut x);
            let want = unfused::bicgstab_into(a, b, m_ref.as_mut(), &options, &mut x_ref);
            let context = format!("{context}, cap {max_iterations}, Jacobi {preconditioned}");
            assert_eq!(outcome(got), outcome(want), "{context}");
            assert_eq!(bits(&x), bits(&x_ref), "{context}");
        }
    }
}

#[test]
fn bicgstab_breakdown_matches_the_unfused_loop() {
    // r̃·v = 0 on the first iteration of the bare solve: a swap matrix
    // maps r = e₀ to v = e₁.
    let mut t = TripletMatrix::new(2, 2);
    t.push(0, 1, 1.0);
    t.push(1, 0, 1.0);
    let a = t.to_csc();
    let mut x = vec![0.0; 2];
    let bare = unfused::bicgstab_into(
        &a,
        &[1.0, 0.0],
        None::<&mut Jacobi>,
        &BicgstabOptions::default(),
        &mut x,
    );
    assert_eq!(bare, Err(SparseError::Breakdown { iteration: 1 }));
    assert_bicgstab_matches_unfused(&a, &[1.0, 0.0], &[0.0, 0.0], "swap matrix");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused BiCGSTAB loop returns the unfused loop's bits, with and
    /// without a preconditioner, converged or not, whatever `x` held.
    #[test]
    fn bicgstab_into_matches_the_unfused_loop_bitwise(
        (a, b) in dominant_system(),
        (t, tb) in thermal_like_system(),
        guess in proptest::collection::vec(-5.0f64..5.0, 24),
    ) {
        assert_bicgstab_matches_unfused(&a, &b, &guess[..a.nrows()], "dominant");
        let g: Vec<f64> = (0..t.nrows()).map(|i| guess[i % guess.len()]).collect();
        assert_bicgstab_matches_unfused(&t, &tb, &g, "thermal-like");
    }
}
