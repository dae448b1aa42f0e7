//! BiCGSTAB iterative solver over a caller-owned preconditioner.
//!
//! The Krylov half of the thermal crate's multigrid solver backend, for
//! fine grids where direct-LU fill would be a burden. [`bicgstab_into`]
//! takes caller-owned [`IterativeWorkspace`] scratch, a caller-owned (and
//! therefore cacheable) [`Preconditioner`] such as the geometric
//! [`Multigrid`](crate::Multigrid), and writes the solution into a
//! caller-owned slice. Once the workspace has warmed to the system
//! dimension a call performs **zero heap allocation** — the same
//! contract as [`LuFactors::solve_with`](crate::LuFactors::solve_with),
//! observable through [`IterativeWorkspace::grows`].
//!
//! # Breakdown detection is scale-relative
//!
//! BiCGSTAB breaks down when an inner product it must divide by vanishes
//! (`ρ = r̃·r`, `r̃·v`, `t·t`, `ω`). "Vanishes" is meaningful only relative
//! to the magnitudes of the vectors involved: an absolute threshold both
//! fires falsely on well-conditioned systems whose entries simply live at
//! a tiny magnitude (a system scaled by 1e-160 has `ρ ~ 1e-320`) and
//! misses true breakdowns at large scale. Every guard here therefore
//! compares against `ε · ‖u‖·‖v‖` of the vectors entering the product —
//! the cosine of the angle between them dropping to round-off — which is
//! invariant under any uniform rescaling of `A` and `b` that stays inside
//! the normal floating-point range.

use crate::operator::{LinearOperator, Preconditioner};
use crate::{dot, norm2, SparseError};

/// Relative breakdown threshold: an inner product smaller than
/// `BREAKDOWN_REL · ‖u‖·‖v‖` means the vectors are orthogonal to machine
/// precision.
const BREAKDOWN_REL: f64 = f64::EPSILON;

/// Options controlling the BiCGSTAB iteration.
#[derive(Debug, Clone)]
pub struct BicgstabOptions {
    /// Relative residual tolerance (‖r‖/‖b‖).
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// When set, [`bicgstab_into`] starts from the incoming contents of
    /// `x` instead of the zero guess (`r = b − A·x`), and may return in
    /// zero iterations if the guess already meets the tolerance.
    ///
    /// **Determinism contract:** off (the default), every solve of the
    /// same `(A, b)` is bit-identical regardless of history. On, the
    /// trajectory depends on the incoming guess — runs are still
    /// deterministic for a fixed solve sequence, but results are no
    /// longer independent of prior solves. Leave off where bit-stable
    /// reports are required.
    pub warm_start: bool,
}

impl Default for BicgstabOptions {
    fn default() -> Self {
        BicgstabOptions {
            tolerance: 1e-10,
            max_iterations: 2000,
            warm_start: false,
        }
    }
}

/// Convergence report from [`bicgstab_into`] (the solution lands in the
/// caller's buffer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BicgstabSummary {
    /// Iterations used.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Caller-owned scratch for [`bicgstab_into`]: the eight dense working
/// vectors one BiCGSTAB iteration needs, kept across calls so a warm
/// solver loop performs zero heap allocation.
///
/// One workspace serves systems of any size — the buffers grow to the
/// largest `n` seen and then stay. [`IterativeWorkspace::grows`] counts
/// how often a buffer actually had to reallocate, the observable behind
/// the zero-allocation contract (mirroring
/// [`SolveWorkspace`](crate::SolveWorkspace)).
#[derive(Debug, Clone, Default)]
pub struct IterativeWorkspace {
    r: Vec<f64>,
    r0: Vec<f64>,
    v: Vec<f64>,
    p: Vec<f64>,
    p_hat: Vec<f64>,
    s: Vec<f64>,
    s_hat: Vec<f64>,
    t: Vec<f64>,
    grows: u64,
}

impl IterativeWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for systems of dimension `n`, so even
    /// the first solve allocates nothing.
    pub fn with_dimension(n: usize) -> Self {
        IterativeWorkspace {
            r: vec![0.0; n],
            r0: vec![0.0; n],
            v: vec![0.0; n],
            p: vec![0.0; n],
            p_hat: vec![0.0; n],
            s: vec![0.0; n],
            s_hat: vec![0.0; n],
            t: vec![0.0; n],
            grows: 0,
        }
    }

    /// Number of times a buffer had to reallocate since construction. A
    /// warm loop must keep this constant.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Sizes every buffer to `n`, counting real reallocations. All
    /// buffers are fully (re)initialised by the solve itself.
    fn ensure(&mut self, n: usize) {
        let bufs = [
            &mut self.r,
            &mut self.r0,
            &mut self.v,
            &mut self.p,
            &mut self.p_hat,
            &mut self.s,
            &mut self.s_hat,
            &mut self.t,
        ];
        let mut grew = false;
        for b in bufs {
            if b.capacity() < n {
                grew = true;
            }
            if b.len() != n {
                b.clear();
                b.resize(n, 0.0);
            }
        }
        if grew {
            self.grows += 1;
        }
    }
}

/// Solves `A·x = b` by BiCGSTAB with a caller-owned preconditioner and
/// workspace, writing the solution into `x`.
///
/// Generic over the [`LinearOperator`] being solved (an assembled
/// [`CscMatrix`](crate::CscMatrix) or a matrix-free stencil form) and the
/// [`Preconditioner`] applied (such as [`Multigrid`](crate::Multigrid)),
/// or unpreconditioned when `precond` is `None`.
///
/// By default `x` is fully overwritten — the iteration starts from the
/// zero guess, so the result is independent of `x`'s incoming contents.
/// With [`BicgstabOptions::warm_start`] set, `x`'s incoming contents are
/// the initial guess instead; see the field docs for the determinism
/// trade-off.
///
/// `precond` is applied as-is — build it once per operator and reuse it
/// across every solve of that operator. Once `ws` has warmed to dimension
/// `n` the call performs zero heap allocation
/// ([`IterativeWorkspace::grows`] stays flat).
///
/// # Errors
///
/// * [`SparseError::Shape`] — non-square `A`, mismatched `b`/`x`, or a
///   preconditioner of the wrong dimension.
/// * [`SparseError::NoConvergence`] — iteration cap reached.
/// * [`SparseError::Breakdown`] — a scale-relative vanishing inner
///   product (see the [module docs](self)); fall back to the direct
///   solver.
pub fn bicgstab_into<A, M>(
    a: &A,
    b: &[f64],
    precond: Option<&mut M>,
    options: &BicgstabOptions,
    ws: &mut IterativeWorkspace,
    x: &mut [f64],
) -> Result<BicgstabSummary, SparseError>
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    if a.nrows() != a.ncols() {
        return Err(SparseError::Shape {
            detail: format!(
                "BiCGSTAB requires square matrix, got {}x{}",
                a.nrows(),
                a.ncols()
            ),
        });
    }
    let n = a.nrows();
    if b.len() != n || x.len() != n {
        return Err(SparseError::Shape {
            detail: format!(
                "rhs length {} / solution length {} != {n}",
                b.len(),
                x.len()
            ),
        });
    }
    let mut precond = precond;
    if let Some(m) = &precond {
        if m.n() != n {
            return Err(SparseError::Shape {
                detail: format!("preconditioner dimension {} != {n}", m.n()),
            });
        }
    }

    let bnorm = norm2(b);
    if bnorm == 0.0 {
        x.fill(0.0);
        return Ok(BicgstabSummary {
            iterations: 0,
            residual: 0.0,
        });
    }

    // Scale of the operator, the reference for the `t = A·ŝ` vanishing
    // test below (‖t‖ must be judged against ‖A‖·‖ŝ‖, not ‖ŝ‖ alone).
    let a_scale = a.max_abs();

    ws.ensure(n);
    let r0_norm;
    let mut r_norm;
    if options.warm_start {
        // r = b − A·x from the caller-supplied guess. Everything below is
        // unchanged; a zero incoming x reproduces the cold path exactly
        // (r = b bit-for-bit, and ‖r₀‖ = ‖b‖ through the same `norm2`).
        a.matvec_into(x, &mut ws.t);
        for (ri, (&bi, &ti)) in ws.r.iter_mut().zip(b.iter().zip(&ws.t)) {
            *ri = bi - ti;
        }
        ws.r0.copy_from_slice(&ws.r);
        r0_norm = norm2(&ws.r0);
        r_norm = r0_norm;
        if r_norm / bnorm < options.tolerance {
            let res = relative_residual_into(a, x, b, bnorm, &mut ws.t);
            return Ok(BicgstabSummary {
                iterations: 0,
                residual: res,
            });
        }
    } else {
        x.fill(0.0);
        ws.r.copy_from_slice(b); // r = b - A·0
        ws.r0.copy_from_slice(b);
        r0_norm = bnorm;
        r_norm = bnorm;
    }
    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    ws.v.fill(0.0);
    ws.p.fill(0.0);

    // The eight inner products and norms of an iteration ride five passes:
    // each accumulator is the left fold from −0.0 in ascending index that
    // [`dot`] and [`norm2`] compute, so fusing passes moves no bit. The
    // next iteration's ρ = r̃·r and ‖r‖² accumulate inside the x/r update.
    let mut rho_next = dot(&ws.r0, &ws.r);
    for it in 1..=options.max_iterations {
        let rho_new = rho_next;
        // ρ → 0 relative to ‖r̃‖·‖r‖: the shadow residual has become
        // orthogonal to the residual.
        if rho_new.abs() <= BREAKDOWN_REL * r0_norm * r_norm {
            return Err(SparseError::Breakdown { iteration: it });
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for ((p, &r), &v) in ws.p.iter_mut().zip(&ws.r).zip(&ws.v) {
            *p = r + beta * (*p - omega * v);
        }
        apply_precond(precond.as_deref_mut(), &ws.p, &mut ws.p_hat)?;
        a.matvec_into(&ws.p_hat, &mut ws.v);
        let (mut denom, mut v_sq) = (-0.0, -0.0);
        for (&r0, &v) in ws.r0.iter().zip(&ws.v) {
            denom += r0 * v;
            v_sq += v * v;
        }
        let v_norm = v_sq.sqrt();
        if denom.abs() <= BREAKDOWN_REL * r0_norm * v_norm {
            return Err(SparseError::Breakdown { iteration: it });
        }
        alpha = rho / denom;
        let mut s_sq = -0.0;
        for ((s, &r), &v) in ws.s.iter_mut().zip(&ws.r).zip(&ws.v) {
            *s = r - alpha * v;
            s_sq += *s * *s;
        }
        let s_norm = s_sq.sqrt();
        if s_norm / bnorm < options.tolerance {
            for (xi, &ph) in x.iter_mut().zip(&ws.p_hat) {
                *xi += alpha * ph;
            }
            let res = relative_residual_into(a, x, b, bnorm, &mut ws.t);
            return Ok(BicgstabSummary {
                iterations: it,
                residual: res,
            });
        }
        apply_precond(precond.as_deref_mut(), &ws.s, &mut ws.s_hat)?;
        let s_hat_norm = norm2(&ws.s_hat);
        a.matvec_into(&ws.s_hat, &mut ws.t);
        let (mut tt, mut ts) = (-0.0, -0.0);
        for (&t, &s) in ws.t.iter().zip(&ws.s) {
            tt += t * t;
            ts += t * s;
        }
        // ‖t‖ ≤ ε·‖A‖·‖ŝ‖: A·ŝ has vanished relative to what the operator
        // scale says it should be — ŝ sits in A's numerical null space.
        if tt.sqrt() <= BREAKDOWN_REL * a_scale * s_hat_norm {
            return Err(SparseError::Breakdown { iteration: it });
        }
        // t ⊥ s to machine precision makes ω ≈ 0 and the next β divide
        // by round-off.
        if ts.abs() <= BREAKDOWN_REL * tt.sqrt() * s_norm {
            return Err(SparseError::Breakdown { iteration: it });
        }
        omega = ts / tt;
        let mut r_sq = -0.0;
        rho_next = -0.0;
        let hats = ws.p_hat.iter().zip(&ws.s_hat);
        let rst = ws.r.iter_mut().zip(ws.s.iter().zip(&ws.t));
        for (((xi, (&ph, &sh)), (r, (&s, &t))), &r0) in x.iter_mut().zip(hats).zip(rst).zip(&ws.r0)
        {
            *xi += alpha * ph + omega * sh;
            *r = s - omega * t;
            rho_next += r0 * *r;
            r_sq += *r * *r;
        }
        r_norm = r_sq.sqrt();
        if r_norm / bnorm < options.tolerance {
            let res = relative_residual_into(a, x, b, bnorm, &mut ws.t);
            return Ok(BicgstabSummary {
                iterations: it,
                residual: res,
            });
        }
    }

    let res = relative_residual_into(a, x, b, bnorm, &mut ws.t);
    Err(SparseError::NoConvergence {
        iterations: options.max_iterations,
        residual: res,
    })
}

/// `z = M⁻¹·r`, or a plain copy when unpreconditioned.
fn apply_precond<M: Preconditioner + ?Sized>(
    m: Option<&mut M>,
    r: &[f64],
    z: &mut Vec<f64>,
) -> Result<(), SparseError> {
    match m {
        Some(m) => m.apply_into(r, z),
        None => {
            z.clear();
            z.extend_from_slice(r);
            Ok(())
        }
    }
}

/// ‖A·x − b‖ / ‖b‖ computed through a caller-owned scratch vector.
fn relative_residual_into<A: LinearOperator + ?Sized>(
    a: &A,
    x: &[f64],
    b: &[f64],
    bnorm: f64,
    scratch: &mut [f64],
) -> f64 {
    a.matvec_into(x, scratch);
    let mut sq = 0.0;
    for (u, v) in scratch.iter().zip(b) {
        let d = u - v;
        sq += d * d;
    }
    sq.sqrt() / bnorm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::CscMatrix;
    use crate::lu;
    use crate::multigrid::{GridShape, Multigrid, MultigridOptions};
    use crate::triplet::TripletMatrix;

    /// Test-local Jacobi preconditioner `z = D⁻¹·r`: deterministic, and
    /// enough to exercise the preconditioned branches of the loop.
    struct Jacobi(Vec<f64>);

    impl Jacobi {
        fn new(a: &CscMatrix) -> Jacobi {
            Jacobi(a.diagonal().iter().map(|d| 1.0 / d).collect())
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

    /// A fresh-workspace solve from the zero guess, Jacobi-preconditioned
    /// or bare.
    fn solve(
        a: &CscMatrix,
        b: &[f64],
        opts: &BicgstabOptions,
        jacobi: bool,
    ) -> Result<(Vec<f64>, BicgstabSummary), SparseError> {
        let mut m = jacobi.then(|| Jacobi::new(a));
        let mut x = vec![0.0; a.nrows()];
        let summary = bicgstab_into(
            a,
            b,
            m.as_mut(),
            opts,
            &mut IterativeWorkspace::new(),
            &mut x,
        )?;
        Ok((x, summary))
    }

    fn grid_with_sink_scaled(nx: usize, ny: usize, scale: f64) -> CscMatrix {
        grid_with_leak_scaled(nx, ny, 0.02, scale)
    }

    fn grid_with_leak_scaled(nx: usize, ny: usize, leak: f64, scale: f64) -> CscMatrix {
        let n = nx * ny;
        let mut t = TripletMatrix::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    t.stamp_conductance(i, i + 1, 1.3 * scale);
                }
                if y + 1 < ny {
                    t.stamp_conductance(i, i + nx, 0.7 * scale);
                }
                t.push(i, i, leak * scale);
            }
        }
        t.to_csc()
    }

    fn grid_with_sink(nx: usize, ny: usize) -> CscMatrix {
        grid_with_sink_scaled(nx, ny, 1.0)
    }

    #[test]
    fn matches_direct_solver_on_spd_grid() {
        let a = grid_with_sink(12, 9);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) * 0.1 + 0.5).collect();
        let direct = lu::factor(&a).unwrap().solve(&b).unwrap();
        let (x, out) = solve(&a, &b, &BicgstabOptions::default(), true).unwrap();
        for (u, v) in x.iter().zip(&direct) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
        assert!(out.residual < 1e-9);
    }

    #[test]
    fn handles_nonsymmetric_advection() {
        let n = 50;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
        }
        for i in 0..n - 1 {
            t.push(i + 1, i, -2.0); // upwind coupling
            t.push(i, i + 1, -0.5);
        }
        let a = t.to_csc();
        let b = vec![1.0; n];
        let direct = lu::factor(&a).unwrap().solve(&b).unwrap();
        let (x, _) = solve(&a, &b, &BicgstabOptions::default(), true).unwrap();
        for (u, v) in x.iter().zip(&direct) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn unpreconditioned_still_converges_on_small_systems() {
        let a = grid_with_sink(5, 5);
        let b = vec![1.0; a.nrows()];
        let (_, out) = solve(&a, &b, &BicgstabOptions::default(), false).unwrap();
        assert!(out.residual < 1e-9);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = grid_with_sink(4, 4);
        let (x, out) = solve(&a, &[0.0; 16], &BicgstabOptions::default(), true).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_reported() {
        let a = grid_with_sink(10, 10);
        // A non-eigenvector right-hand side (all-ones is an exact
        // eigenvector of this operator and converges in one step).
        let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.61).sin() + 2.0).collect();
        let opts = BicgstabOptions {
            tolerance: 1e-14,
            max_iterations: 1,
            warm_start: false,
        };
        assert!(matches!(
            solve(&a, &b, &opts, false),
            Err(SparseError::NoConvergence { .. })
        ));
    }

    #[test]
    fn shape_errors() {
        let opts = BicgstabOptions::default();
        let mut ws = IterativeWorkspace::new();
        let rect = CscMatrix::from_triplets(2, 3, &[0], &[0], &[1.0]);
        let mut x2 = vec![0.0; 2];
        assert!(matches!(
            bicgstab_into(
                &rect,
                &[1.0, 1.0],
                None::<&mut Jacobi>,
                &opts,
                &mut ws,
                &mut x2
            ),
            Err(SparseError::Shape { .. })
        ));
        // The right-hand side, x and the preconditioner dimension are
        // checked too.
        let a = grid_with_sink(3, 3);
        let mut x = vec![0.0; 9];
        assert!(bicgstab_into(&a, &[1.0; 4], None::<&mut Jacobi>, &opts, &mut ws, &mut x).is_err());
        let mut short = vec![0.0; 4];
        assert!(bicgstab_into(
            &a,
            &[1.0; 9],
            None::<&mut Jacobi>,
            &opts,
            &mut ws,
            &mut short
        )
        .is_err());
        let mut wrong_m = Jacobi::new(&grid_with_sink(2, 2));
        assert!(matches!(
            bicgstab_into(&a, &[1.0; 9], Some(&mut wrong_m), &opts, &mut ws, &mut x),
            Err(SparseError::Shape { .. })
        ));
    }

    #[test]
    fn presized_workspace_and_stale_x_match_a_fresh_solve_bitwise() {
        let a = grid_with_sink(8, 7);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos() + 1.1).collect();
        let opts = BicgstabOptions::default();
        let (fresh, fresh_summary) = solve(&a, &b, &opts, true).unwrap();
        let mut m = Jacobi::new(&a);
        let mut ws = IterativeWorkspace::with_dimension(n);
        let mut x = vec![7.0; n]; // stale contents must not matter
        let summary = bicgstab_into(&a, &b, Some(&mut m), &opts, &mut ws, &mut x).unwrap();
        assert_eq!(x, fresh, "identical bits from either workspace");
        assert_eq!(summary, fresh_summary);
        assert_eq!(ws.grows(), 0, "pre-sized workspace never grows");
    }

    #[test]
    fn warm_workspace_never_regrows() {
        let a = grid_with_sink(9, 9);
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut m = Jacobi::new(&a);
        let opts = BicgstabOptions::default();
        let mut ws = IterativeWorkspace::new();
        let mut x = vec![0.0; n];
        bicgstab_into(&a, &b, Some(&mut m), &opts, &mut ws, &mut x).unwrap();
        let warm = ws.grows();
        assert!(warm >= 1, "first use must grow the buffers");
        for _ in 0..20 {
            bicgstab_into(&a, &b, Some(&mut m), &opts, &mut ws, &mut x).unwrap();
        }
        assert_eq!(ws.grows(), warm, "warm solves must never reallocate");
    }

    #[test]
    fn warm_start_from_zero_guess_matches_cold_path_bitwise() {
        // The determinism contract's boundary case: a zero incoming guess
        // under warm_start reproduces the cold path exactly.
        let a = grid_with_sink(8, 7);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.2).collect();
        let mut m = Jacobi::new(&a);
        let cold = BicgstabOptions::default();
        let warm = BicgstabOptions {
            warm_start: true,
            ..Default::default()
        };
        let mut ws = IterativeWorkspace::new();
        let mut x_cold = vec![3.0; n];
        let s_cold = bicgstab_into(&a, &b, Some(&mut m), &cold, &mut ws, &mut x_cold).unwrap();
        let mut x_warm = vec![0.0; n];
        let s_warm = bicgstab_into(&a, &b, Some(&mut m), &warm, &mut ws, &mut x_warm).unwrap();
        assert_eq!(x_cold, x_warm, "zero guess must reproduce the cold bits");
        assert_eq!(s_cold, s_warm);
    }

    #[test]
    fn warm_start_from_converged_guess_exits_in_zero_iterations() {
        let a = grid_with_sink(8, 7);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos() + 1.1).collect();
        let mut m = Jacobi::new(&a);
        let opts = BicgstabOptions {
            warm_start: true,
            ..Default::default()
        };
        let mut ws = IterativeWorkspace::new();
        let mut x = vec![0.0; n];
        let first = bicgstab_into(&a, &b, Some(&mut m), &opts, &mut ws, &mut x).unwrap();
        assert!(first.iterations > 0);
        // Re-solving from the converged solution is (near-)free: either the
        // guess already meets the tolerance (0 iterations) or one cleanup
        // iteration closes the gap between recursive and true residual.
        let again = bicgstab_into(&a, &b, Some(&mut m), &opts, &mut ws, &mut x).unwrap();
        assert!(
            again.iterations <= 1,
            "warm restart took {} iterations",
            again.iterations
        );
    }

    #[test]
    fn tiny_magnitude_system_converges_without_false_breakdown() {
        // Regression: the breakdown guards used to compare |rho|, |r̃·v|,
        // t·t and |omega| against an absolute 1e-300. A well-conditioned
        // system uniformly scaled by 1e-160 has rho = dot(r0, r) ~ 1e-320
        // and tripped the rho guard on the very first iteration; the
        // scale-relative guards must sail through. (At this scale the
        // squares inside `norm2` graze the subnormal-flush floor, which
        // caps the *certifiable* accuracy at a few percent — hence the
        // loose tolerance here; the companion test below checks full
        // accuracy one decade of headroom up.) The preconditioner is a
        // two-level multigrid over CSC levels, the 5×4 coarse level
        // re-discretised with the cell-area scaling (leak ×4), as the
        // thermal backend's is. It takes two iterations: the first passes
        // every guard, the second the rho and r̃·v guards once more, with
        // rho shrunk further into the subnormals by the residual. (Jacobi
        // needs enough iterations for those inner products to lose every
        // significant bit, a true breakdown at iteration 14, before the
        // residual reaches 1e-3.)
        let scale = 1e-160;
        let a = grid_with_sink_scaled(10, 8, scale);
        let n = a.nrows();
        let b: Vec<f64> = (0..n)
            .map(|i| (((i * 5 % 11) as f64) * 0.2 + 0.4) * scale)
            .collect();
        let opts = BicgstabOptions {
            tolerance: 1e-3,
            ..Default::default()
        };
        let shape = GridShape {
            nx: 10,
            ny: 8,
            nz: 1,
            extra: 0,
        };
        let coarse = grid_with_leak_scaled(5, 4, 0.08, scale);
        let mut m = Multigrid::new(
            vec![(a.clone(), shape, a.diagonal())],
            &coarse,
            None,
            MultigridOptions::default(),
        )
        .unwrap();
        let mut x = vec![0.0; n];
        let mut ws = IterativeWorkspace::new();
        let summary = bicgstab_into(&a, &b, Some(&mut m), &opts, &mut ws, &mut x)
            .expect("tiny-magnitude system must not break down");
        assert!(summary.iterations >= 2, "{summary:?}");
        // x is scale-free (A and b carry the same factor): compare against
        // the unscaled direct solve, loosely (see above).
        let a1 = grid_with_sink_scaled(10, 8, 1.0);
        let b1: Vec<f64> = b.iter().map(|v| v / scale).collect();
        let direct = lu::factor(&a1).unwrap().solve(&b1).unwrap();
        for (u, v) in x.iter().zip(&direct) {
            assert!(u.is_finite());
            assert!((u - v).abs() < 0.15 * v.abs().max(1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn tiny_magnitude_system_converges_to_full_tolerance() {
        // One decade of subnormal headroom up from the extreme case above,
        // the default 1e-10 tolerance is reachable and the solution must
        // match the direct solve tightly. The old absolute guards failed
        // here too (rho falls through 1e-300 mid-convergence).
        let scale = 1e-150;
        let a = grid_with_sink_scaled(10, 8, scale);
        let n = a.nrows();
        let b: Vec<f64> = (0..n)
            .map(|i| (((i * 5 % 11) as f64) * 0.2 + 0.4) * scale)
            .collect();
        let (x, out) = solve(&a, &b, &BicgstabOptions::default(), true)
            .expect("tiny-magnitude system must not break down");
        assert!(out.residual < 1e-9, "residual {}", out.residual);
        let a1 = grid_with_sink_scaled(10, 8, 1.0);
        let b1: Vec<f64> = b.iter().map(|v| v / scale).collect();
        let direct = lu::factor(&a1).unwrap().solve(&b1).unwrap();
        for (u, v) in x.iter().zip(&direct) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn unpreconditioned_tiny_magnitude_system_also_converges() {
        // Without a preconditioner to restore magnitudes, the iteration's
        // intermediates live at scale² and scale³, so the usable range is
        // narrower — 1e-80 keeps every inner product representable while
        // still sitting far below any plausible absolute threshold.
        let scale = 1e-80;
        let a = grid_with_sink_scaled(5, 5, scale);
        let b: Vec<f64> = (0..a.nrows()).map(|i| (1.0 + i as f64) * scale).collect();
        let (_, out) =
            solve(&a, &b, &BicgstabOptions::default(), false).expect("no false breakdown");
        assert!(out.residual < 1e-9);
    }
}
