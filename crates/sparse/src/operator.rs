//! Operator and preconditioner abstractions for the iterative solvers.
//!
//! [`bicgstab_into`](crate::bicgstab_into) is generic over these two
//! traits so the same Krylov loop runs against an assembled
//! [`CscMatrix`] or a matrix-free stencil form (the thermal crate's
//! `StencilOperator`), and against any preconditioner, such as the
//! geometric [`Multigrid`](crate::Multigrid).
//!
//! # Contracts
//!
//! * [`LinearOperator::matvec_into`] must fully overwrite `y` and, once
//!   warm, perform **zero heap allocation** — it sits on the innermost
//!   solver path.
//! * Two operators representing the same matrix must produce
//!   **bit-identical** `matvec_into` results for the Krylov trajectory to
//!   be reproducible across representations; implementations therefore
//!   document their accumulation order.
//! * [`LinearOperator::max_abs`] is the operator scale used by the
//!   scale-relative breakdown guards; it must equal the maximum absolute
//!   value over the *stored/emitted* entries (the same fold a CSC form
//!   would compute over its value array).
//! * `matvec_into` of a vector that is `+0` in every entry must return
//!   `+0` in every row. Finite coefficients give this when each row's
//!   sum starts at `+0` (a sum is `−0` only when both operands are);
//!   [`CscMatrix`] skips zero columns outright. A smoothing pass from a
//!   `+0` iterate relies on it to skip the product
//!   ([`LinearOperator::smooth_pass_from_zero`]).
//! * [`Preconditioner::apply_into`] takes `&mut self` so implementations
//!   may use internal scratch (the multigrid level buffers); applying the
//!   preconditioner twice to the same residual must still produce
//!   identical results — the mutation is scratch, not state.

use crate::csc::CscMatrix;
use crate::SparseError;

/// A linear operator `A` that can be applied to a dense vector.
///
/// Implemented by [`CscMatrix`] (assembled form) and by matrix-free
/// stencil operators in downstream crates.
pub trait LinearOperator {
    /// Number of rows of the operator.
    fn nrows(&self) -> usize;

    /// Number of columns of the operator.
    fn ncols(&self) -> usize;

    /// `y = A·x`, fully overwriting `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols()` or `y.len() != nrows()` (programmer
    /// error, mirroring [`CscMatrix::matvec_into`]).
    fn matvec_into(&self, x: &[f64], y: &mut [f64]);

    /// Maximum absolute value over the operator's stored entries — the
    /// operator scale used by scale-relative breakdown tests.
    fn max_abs(&self) -> f64;

    /// One relaxation pass of the multigrid smoother: the damped Jacobi
    /// update `x ← x + ω·D⁻¹·(b − A·x)`, computing `A·x` into `scratch`,
    /// followed by the operator's own [`LinearOperator::relax_after_jacobi`].
    /// `inv_diag` holds the reciprocal operator diagonal.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the operator dimension
    /// (programmer error, as in [`LinearOperator::matvec_into`]).
    fn smooth_pass(
        &self,
        x: &mut [f64],
        b: &[f64],
        inv_diag: &[f64],
        omega: f64,
        scratch: &mut [f64],
    ) {
        self.matvec_into(x, scratch);
        damped_jacobi(x, b, inv_diag, omega, Some(scratch));
        self.relax_after_jacobi(x, b, inv_diag);
    }

    /// [`LinearOperator::smooth_pass`] from the iterate that is `+0` in
    /// every entry, whatever `x` holds on entry, which it overwrites.
    ///
    /// It skips the product: by the [module contract](self) `A·(+0)` is
    /// `+0` in every row and `b − (+0)` is `b`, so the Jacobi update
    /// writes `x = +0 + ω·D⁻¹·b` (the `+0` start keeps a `−0` step from
    /// surviving), and the result equals `x.fill(0.0)` followed by
    /// `smooth_pass`, bit for bit. The multigrid V-cycle takes this pass
    /// wherever its iterate starts from zero.
    ///
    /// # Panics
    ///
    /// As [`LinearOperator::smooth_pass`].
    fn smooth_pass_from_zero(&self, x: &mut [f64], b: &[f64], inv_diag: &[f64], omega: f64) {
        damped_jacobi(x, b, inv_diag, omega, None);
        self.relax_after_jacobi(x, b, inv_diag);
    }

    /// The operator's own relaxation after the Jacobi update of a
    /// smoothing pass; none by default.
    ///
    /// Operators may exploit their structure here (the thermal stencil
    /// chases advection chains downstream with a Gauss–Seidel
    /// substitution), provided the whole pass remains a deterministic,
    /// allocation-free function of `(x, b)` that is linear in both — the
    /// properties the V-cycle's [`Preconditioner`] contract rests on.
    fn relax_after_jacobi(&self, x: &mut [f64], b: &[f64], inv_diag: &[f64]) {
        let _ = (x, b, inv_diag);
    }
}

/// The damped-Jacobi update of a smoothing pass, the one copy every
/// operator shares: `x ← x + ω·d·(b − a)` given the product `a = A·x`, or,
/// from a `+0` iterate (`ax` is `None`), `x ← +0 + ω·d·b`.
fn damped_jacobi(x: &mut [f64], b: &[f64], inv_diag: &[f64], omega: f64, ax: Option<&[f64]>) {
    assert_eq!(x.len(), b.len(), "smoothing pass: b dimension mismatch");
    assert_eq!(
        x.len(),
        inv_diag.len(),
        "smoothing pass: diagonal dimension mismatch"
    );
    match ax {
        Some(ax) => {
            for (((xi, &bi), &di), &ai) in x.iter_mut().zip(b).zip(inv_diag).zip(ax) {
                *xi += omega * di * (bi - ai);
            }
        }
        None => {
            for ((xi, &bi), &di) in x.iter_mut().zip(b).zip(inv_diag) {
                *xi = 0.0 + omega * di * bi;
            }
        }
    }
}

impl LinearOperator for CscMatrix {
    fn nrows(&self) -> usize {
        CscMatrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        CscMatrix::ncols(self)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        CscMatrix::matvec_into(self, x, y);
    }

    fn max_abs(&self) -> f64 {
        self.values().iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

/// A preconditioner `M` approximating `A⁻¹`, applied as `z = M⁻¹·r`.
///
/// Takes `&mut self` so implementations may keep internal scratch (the
/// multigrid V-cycle's per-level buffers); the application must still be
/// a pure function of `r` — repeated applies on the same residual return
/// identical bits.
pub trait Preconditioner {
    /// Dimension of the preconditioned system.
    fn n(&self) -> usize;

    /// Applies the preconditioner: `z = M⁻¹·r`, overwriting `z`
    /// completely (resized to `n`). `z` may come back as a different
    /// allocation of length `n`: an implementation may hand out a buffer
    /// of its own and keep the caller's as scratch (the multigrid V-cycle
    /// returns its finest iterate that way). Once `z` and the internal
    /// scratch have warmed to this dimension the call performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Shape`] if `r.len() != n`.
    fn apply_into(&mut self, r: &[f64], z: &mut Vec<f64>) -> Result<(), SparseError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn small() -> CscMatrix {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 4.0);
        t.push(1, 1, -5.0);
        t.push(2, 2, 3.0);
        t.push(1, 0, -1.5);
        t.push(0, 2, 2.0);
        t.to_csc()
    }

    #[test]
    fn csc_trait_impl_matches_inherent_methods() {
        let a = small();
        let x = [1.0, 2.0, -3.0];
        let mut y_trait = [0.0; 3];
        let mut y_inherent = [0.0; 3];
        LinearOperator::matvec_into(&a, &x, &mut y_trait);
        CscMatrix::matvec_into(&a, &x, &mut y_inherent);
        assert_eq!(y_trait, y_inherent);
        assert_eq!(LinearOperator::nrows(&a), 3);
        assert_eq!(LinearOperator::ncols(&a), 3);
        assert_eq!(a.max_abs(), 5.0, "largest |entry| regardless of sign");
    }
}
