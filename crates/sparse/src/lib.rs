//! Sparse linear algebra substrate for the `cmosaic` thermal toolkit.
//!
//! The compact thermal model of 3D-ICE (paper ref. \[17]) reduces a 3D chip
//! stack with inter-tier micro-channels to a large, sparse, *nonsymmetric*
//! system of equations: conduction contributes a symmetric Laplacian-like
//! structure, while coolant advection couples each fluid cell to its
//! *upstream* neighbour only. The original tool links SuperLU; this crate is
//! our from-scratch replacement:
//!
//! * [`TripletMatrix`] — coordinate-format builder with duplicate
//!   accumulation (the natural output of RC-network assembly).
//! * [`CscMatrix`] — compressed sparse column storage with matrix–vector
//!   products and structure queries.
//! * [`LuFactors`] — Gilbert–Peierls left-looking sparse LU with partial
//!   pivoting ([`lu::factor`]), the workhorse direct solver, and
//!   [`lu::analyse`], which keeps a dominant diagonal's pivots without the
//!   pivot search and returns the same analysis.
//! * [`SymbolicLu`] — the reusable symbolic half of a factorisation,
//!   enabling cheap numeric refactorisation (below).
//! * [`ordering`] — reverse Cuthill–McKee bandwidth reduction used as a
//!   fill-reducing column pre-ordering.
//! * [`bicgstab`] — BiCGSTAB with a caller-owned [`Preconditioner`]:
//!   the Krylov half of the multigrid solver backend for fine grids where
//!   direct-LU fill is a burden. Breakdown detection is scale-relative
//!   (see the module docs) and [`bicgstab_into`] performs zero heap
//!   allocation once its [`IterativeWorkspace`] is warm — the iterative
//!   counterpart of [`LuFactors::solve_with`] + [`SolveWorkspace`].
//! * [`operator`] — the [`LinearOperator`] / [`Preconditioner`] traits
//!   that [`bicgstab_into`] is generic over, so the Krylov loop runs
//!   unchanged against an assembled [`CscMatrix`] or a matrix-free
//!   stencil operator supplied by a downstream crate.
//! * [`multigrid`] — a seeded, deterministic geometric V-cycle
//!   [`Multigrid`] preconditioner (full-weighting restriction, bilinear
//!   prolongation, damped-Jacobi smoothing, direct-LU coarse solve) for
//!   structured-grid operators, giving (near-)resolution-independent
//!   BiCGSTAB iteration counts.
//! * [`dense`] — small dense LU used by tests as an oracle.
//!
//! # Operator and preconditioner contracts
//!
//! [`LinearOperator::matvec_into`] must fully overwrite its output, be
//! allocation-free once warm, and — for two representations of the same
//! matrix to be interchangeable mid-run — produce **bit-identical**
//! results, which pins the accumulation order (see the trait docs). It
//! must also map a `+0` vector to `+0` in every row, so a multigrid
//! smoothing pass from a zero iterate can skip the product.
//! [`Preconditioner::apply_into`] must be a pure function of the residual
//! (its `&mut self` is scratch, not state), so a preconditioned solve is
//! reproducible bit-for-bit across repeats; it may hand the result back
//! in a different allocation of the same length. A preconditioner that cannot
//! be *built* (a singular multigrid coarse operator) fails at
//! construction, never mid-solve; failures mid-solve surface as
//! [`SparseError::Breakdown`]/[`SparseError::NoConvergence`] and callers
//! (the thermal crate's backend ladder) fall back to the direct solver.
//!
//! # Symbolic/numeric split
//!
//! RC-network operators have a sparsity pattern fixed at model
//! construction; only values change between operating points. Like 3D-ICE,
//! which links SuperLU precisely to reuse one symbolic analysis across a
//! transient run (`SamePattern_SameRowPerm`), this crate splits the direct
//! solver: [`lu::analyse`] (or [`lu::factor_with_symbolic`], which always
//! searches for pivots) performs one full factorisation and freezes the
//! column ordering, pivot sequence and factor layout in a [`SymbolicLu`];
//! [`SymbolicLu::refactor`] (or [`SymbolicLu::refactor_into`] for
//! allocation reuse) then replays only the numeric sweep — no DFS, no
//! pivot search — for any matrix with the *identical* pattern.
//!
//! **Factor layout.** Rows are numbered by the step that pivoted them,
//! and each column of `L` and `U` is stored as one contiguous row range —
//! its envelope — whose shape the [`SymbolicLu`] shares with every
//! [`LuFactors`] over it. No entry carries a row index; rows inside a
//! range that the exact pattern lacks hold stored zeros. The
//! refactorisation and both triangular solves therefore run every update
//! as a contiguous `x[a..b] -= v·t`, with results bit-identical to an
//! index-per-entry layout for finite inputs (the argument is in the
//! [`lu`] module docs).
//!
//! **When refactorisation is valid.** The frozen pivot sequence was chosen
//! for the values seen at analysis time. It remains numerically sound
//! while value changes preserve the character of the matrix (the RC
//! operators stay diagonally dominant M-matrix-like for every flow rate
//! and Δt, so in practice it always holds). It is *invalid* — and rejected
//! — when the new matrix has a different sparsity pattern, and it is
//! *unsafe* when the new values make a frozen pivot relatively tiny: the
//! multiplier-growth guard detects that case and returns
//! [`SparseError::UnstablePivot`], at which point the caller must run a
//! fresh pivoting [`lu::factor`] (callers in this workspace do so
//! automatically and re-capture the symbolic object).
//!
//! Pair the split with [`TripletMatrix::to_csc_with_map`] +
//! [`CscMatrix::update_values`] so a new operating point costs one O(nnz)
//! value rewrite and one numeric sweep — no re-assembly, no conversion,
//! no symbolic work.
//!
//! # Example
//!
//! ```
//! use cmosaic_sparse::{TripletMatrix, lu};
//!
//! # fn main() -> Result<(), cmosaic_sparse::SparseError> {
//! // 2x2 system: [[4, 1], [2, 5]] · x = [9, 12]  =>  x = [11/6, 5/3].
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 2.0);
//! t.push(1, 1, 5.0);
//! let a = t.to_csc();
//! let f = lu::factor(&a)?;
//! let x = f.solve(&[9.0, 12.0])?;
//! assert!((x[0] - 11.0 / 6.0).abs() < 1e-12);
//! assert!((x[1] - 5.0 / 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bicgstab;
pub mod csc;
pub mod dense;
pub mod lu;
pub mod multigrid;
pub mod operator;
pub mod ordering;
pub mod triplet;

pub use bicgstab::{bicgstab_into, BicgstabOptions, BicgstabSummary, IterativeWorkspace};
pub use csc::CscMatrix;
pub use dense::DenseMatrix;
pub use lu::{LuFactors, SolveWorkspace, SymbolicLu};
pub use multigrid::{GridShape, Multigrid, MultigridOptions, MultigridStats};
pub use operator::{LinearOperator, Preconditioner};
pub use triplet::TripletMatrix;

use std::error::Error;
use std::fmt;

/// Errors produced by the sparse solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A matrix dimension or index was inconsistent.
    Shape {
        /// Explanation of the mismatch.
        detail: String,
    },
    /// The matrix is numerically singular (no acceptable pivot at a column).
    Singular {
        /// Column at which factorisation broke down.
        column: usize,
    },
    /// A numeric refactorisation over a frozen pivot sequence saw
    /// multiplier growth beyond the stability bound; the caller should
    /// fall back to a fresh pivoting factorisation.
    UnstablePivot {
        /// Column at which the frozen pivot degraded.
        column: usize,
        /// Largest multiplier magnitude observed in that column.
        growth: f64,
    },
    /// An iterative solver failed to reach the requested tolerance.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Relative residual at the final iterate.
        residual: f64,
    },
    /// Numerical breakdown (division by a vanishing inner product) in an
    /// iterative method.
    Breakdown {
        /// Iteration at which breakdown occurred.
        iteration: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::Shape { detail } => write!(f, "shape mismatch: {detail}"),
            SparseError::Singular { column } => {
                write!(f, "matrix is singular at column {column}")
            }
            SparseError::UnstablePivot { column, growth } => write!(
                f,
                "refactorisation unstable at column {column} \
                 (multiplier growth {growth:.3e}); re-pivot with a full factorisation"
            ),
            SparseError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            SparseError::Breakdown { iteration } => {
                write!(f, "numerical breakdown at iteration {iteration}")
            }
        }
    }
}

impl Error for SparseError {}

/// Euclidean norm of a vector: the square root of the left fold
/// `((−0 + v₀²) + v₁²) + …` in ascending index order.
///
/// The fold's start and order are part of the bits: BiCGSTAB's fused
/// loops accumulate `‖v‖²`, `‖s‖²` and `‖r‖²` the same way, element by
/// element, so they return what this function returns. Starting from
/// `−0.0` (the identity of `+`) is also where `Iterator::sum` starts.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().fold(-0.0, |acc, x| acc + x * x).sqrt()
}

/// Dot product of two equal-length vectors: the left fold
/// `((−0 + a₀·b₀) + a₁·b₁) + …` in ascending index order, each product
/// rounded before it is added.
///
/// As for [`norm2`], the fold is part of the bits, and BiCGSTAB's fused
/// loops reproduce it for every inner product they carry. Its `−0.0`
/// start keeps a product's sign where every term is a signed zero:
/// `dot(&[-0.0], &[1.0])` is `−0.0`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).fold(-0.0, |acc, (x, y)| acc + x * y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_dot() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert!((dot(&[1.0, 2.0], &[3.0, 4.0]) - 11.0).abs() < 1e-15);
    }

    #[test]
    fn folds_match_iterator_sum_bitwise() {
        let sum_dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let sum_norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            // Mixed magnitudes, subnormal products included, so any other
            // summation order would round differently.
            unit * [1e-160, 1.0, 1e3][(state % 3) as usize]
        };
        for len in [0, 1, 2, 3, 7, 64, 257] {
            for _ in 0..8 {
                let a: Vec<f64> = (0..len).map(|_| draw()).collect();
                let b: Vec<f64> = (0..len).map(|_| draw()).collect();
                assert_eq!(dot(&a, &b).to_bits(), sum_dot(&a, &b).to_bits());
                assert_eq!(norm2(&a).to_bits(), sum_norm(&a).to_bits());
            }
        }
        // Signed zeros: a fold from +0.0 would return +0.0 for each.
        let zeros = [-0.0, 0.0];
        for &x in &zeros {
            for &y in &[-1.0, -0.0, 0.0, 1.0] {
                for &w in &zeros {
                    let (a, b) = ([x, w], [y, 1.0]);
                    assert_eq!(dot(&a, &b).to_bits(), sum_dot(&a, &b).to_bits());
                    assert_eq!(
                        dot(&a[..1], &b[..1]).to_bits(),
                        sum_dot(&a[..1], &b[..1]).to_bits()
                    );
                }
            }
        }
        assert_eq!(dot(&[-0.0], &[1.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            dot(&[-0.0, -0.0], &[1.0, 2.0]).to_bits(),
            (-0.0f64).to_bits()
        );
        // Squares are never −0.0, so only the empty norm shows the start.
        assert_eq!(norm2(&[]).to_bits(), sum_norm(&[]).to_bits());
    }

    #[test]
    fn error_types_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
        assert!(SparseError::Singular { column: 3 }
            .to_string()
            .contains('3'));
    }
}
