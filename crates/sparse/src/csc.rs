//! Compressed sparse column storage.

/// A sparse matrix in compressed sparse column (CSC) format.
///
/// Entries within each column are sorted by row index and unique. CSC is the
/// natural layout for the left-looking LU factorisation in [`crate::lu`].
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// Column pointers, length `ncols + 1`.
    col_ptr: Vec<usize>,
    /// Row indices, length `nnz`.
    row_idx: Vec<usize>,
    /// Values, length `nnz`.
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from coordinate triplets, summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if the triplet arrays have different lengths or contain
    /// out-of-bounds indices.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[usize],
        cols: &[usize],
        vals: &[f64],
    ) -> Self {
        assert_eq!(rows.len(), cols.len(), "triplet arrays must match");
        assert_eq!(rows.len(), vals.len(), "triplet arrays must match");

        // Count entries per column.
        let mut counts = vec![0usize; ncols + 1];
        for (&r, &c) in rows.iter().zip(cols) {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of bounds");
            counts[c + 1] += 1;
        }
        for c in 0..ncols {
            counts[c + 1] += counts[c];
        }
        let col_ptr_raw = counts.clone();

        // Scatter into place (unsorted within column).
        let mut next = col_ptr_raw.clone();
        let mut row_idx = vec![0usize; rows.len()];
        let mut values = vec![0.0f64; rows.len()];
        for ((&r, &c), &v) in rows.iter().zip(cols).zip(vals) {
            let slot = next[c];
            row_idx[slot] = r;
            values[slot] = v;
            next[c] += 1;
        }

        // Sort each column by row and accumulate duplicates.
        let mut out_col_ptr = vec![0usize; ncols + 1];
        let mut out_rows = Vec::with_capacity(rows.len());
        let mut out_vals = Vec::with_capacity(rows.len());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for c in 0..ncols {
            scratch.clear();
            for k in col_ptr_raw[c]..col_ptr_raw[c + 1] {
                scratch.push((row_idx[k], values[k]));
            }
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut iter = scratch.iter().copied();
            if let Some((mut cur_row, mut cur_val)) = iter.next() {
                for (r, v) in iter {
                    if r == cur_row {
                        cur_val += v;
                    } else {
                        out_rows.push(cur_row);
                        out_vals.push(cur_val);
                        cur_row = r;
                        cur_val = v;
                    }
                }
                out_rows.push(cur_row);
                out_vals.push(cur_val);
            }
            out_col_ptr[c + 1] = out_rows.len();
        }

        CscMatrix {
            nrows,
            ncols,
            col_ptr: out_col_ptr,
            row_idx: out_rows,
            values: out_vals,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array (length `ncols + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array (length `nnz`).
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Value array (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterator over the `(row, value)` entries of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols`.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(row, col)`, or `0.0` if the entry is not stored.
    ///
    /// Binary search within the column — O(log nnz_col).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let lo = self.col_ptr[col];
        let hi = self.col_ptr[col + 1];
        match self.row_idx[lo..hi].binary_search(&row) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Overwrites the stored values by re-accumulating `vals` through the
    /// scatter `map` produced by
    /// [`TripletMatrix::to_csc_with_map`](crate::TripletMatrix::to_csc_with_map):
    /// value slot `map[k]` receives the sum of every `vals[k]` mapped to
    /// it. The sparsity pattern is untouched, so any
    /// [`SymbolicLu`](crate::SymbolicLu) captured from this matrix stays
    /// valid — this is the O(nnz) half of an incremental re-assembly.
    ///
    /// # Panics
    ///
    /// Panics if `map` and `vals` differ in length or a map entry is out
    /// of range.
    pub fn update_values(&mut self, map: &[usize], vals: &[f64]) {
        assert_eq!(map.len(), vals.len(), "scatter map/value length mismatch");
        self.values.iter_mut().for_each(|v| *v = 0.0);
        for (&slot, &v) in map.iter().zip(vals) {
            self.values[slot] += v;
        }
    }

    /// `true` when `other` has exactly this matrix's sparsity pattern
    /// (dimensions, column pointers and row indices; values free to
    /// differ). This is the validity condition for reusing a
    /// [`SymbolicLu`](crate::SymbolicLu) captured from one matrix on
    /// another.
    pub fn same_pattern(&self, other: &CscMatrix) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.col_ptr == other.col_ptr
            && self.row_idx == other.row_idx
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-owned buffer: `y = A·x`,
    /// overwriting `y` completely. Bit-identical to [`CscMatrix::matvec`]
    /// without the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec_into: x dimension mismatch");
        assert_eq!(y.len(), self.nrows, "matvec_into: y dimension mismatch");
        y.fill(0.0);
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                y[self.row_idx[k]] += self.values[k] * xc;
            }
        }
    }

    /// The main diagonal as a dense vector (zeros for missing entries).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> CscMatrix {
        let mut rows = Vec::with_capacity(self.nnz());
        let mut cols = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for c in 0..self.ncols {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                rows.push(c);
                cols.push(self.row_idx[k]);
                vals.push(self.values[k]);
            }
        }
        CscMatrix::from_triplets(self.ncols, self.nrows, &rows, &cols, &vals)
    }

    /// Dense copy (row-major, rows × cols) — intended for tests and small
    /// matrices only.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        #[allow(clippy::needless_range_loop)] // `c` indexes the inner vecs, not a slice to iterate
        for c in 0..self.ncols {
            for (r, v) in self.col_iter(c) {
                d[r][c] = v;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        CscMatrix::from_triplets(
            3,
            3,
            &[0, 2, 1, 0, 2],
            &[0, 0, 1, 2, 2],
            &[1.0, 4.0, 3.0, 2.0, 5.0],
        )
    }

    #[test]
    fn same_pattern_ignores_values_only() {
        let a = sample();
        let mut b = sample();
        assert!(a.same_pattern(&b));
        // Different values, same pattern.
        b.update_values(&[0, 1, 2, 3, 4], &[9.0, 8.0, 7.0, 6.0, 5.0]);
        assert!(a.same_pattern(&b));
        // Different pattern (extra entry).
        let c = CscMatrix::from_triplets(
            3,
            3,
            &[0, 2, 1, 0, 2, 1],
            &[0, 0, 1, 2, 2, 0],
            &[1.0, 4.0, 3.0, 2.0, 5.0, 1.0],
        );
        assert!(!a.same_pattern(&c));
        // Different dimensions.
        assert!(!a.same_pattern(&CscMatrix::identity(3)));
        assert!(!a.same_pattern(&CscMatrix::identity(4)));
    }

    #[test]
    fn construction_sorts_and_indexes() {
        let a = sample();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(2, 2), 5.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let y = a.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn identity_is_identity() {
        let i = CscMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x.to_vec());
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(sample().diagonal(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn empty_columns_are_fine() {
        let a = CscMatrix::from_triplets(3, 3, &[0], &[0], &[7.0]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.col_iter(1).count(), 0);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![7.0, 0.0, 0.0]);
    }
}
