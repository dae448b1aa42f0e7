//! Geometric multigrid preconditioner for structured-grid operators.
//!
//! A [`Multigrid`] runs V-cycles over a caller-supplied hierarchy of
//! [`LinearOperator`] levels living on nested cell-centered grids
//! ([`GridShape`]): damped-Jacobi smoothing on every level, followed by
//! any relaxation of the operator's own ([`LinearOperator::smooth_pass`]),
//! aggregation (full-weighting) restriction of the residual, cell-centered
//! bilinear prolongation of the correction, and a small direct-LU coarse
//! solve reusing the existing [`SymbolicLu`] machinery. Implemented against the
//! [`Preconditioner`] trait, which is what [`crate::bicgstab_into`] takes.
//!
//! # Why geometric, and who builds the hierarchy
//!
//! The thermal operators live on a structured per-tier grid with a fixed
//! stencil; re-discretising the physics on a 2×-coarser grid is exact and
//! O(n), so the *caller* owns coarsening (it knows the physics) and this
//! module owns the cycle (it knows the numerics). Coarsening halves the
//! in-plane dimensions only — layers and trailing lumped nodes (the heat
//! sink) pass through every level unchanged.
//!
//! # Determinism
//!
//! The cycle contains no randomness and every loop runs in a fixed order,
//! so an apply is a pure function of the residual vector and the
//! construction inputs: repeated applies return bit-identical results,
//! independent of thread count. This is the contract
//! [`Preconditioner::apply_into`] requires.
//!
//! # Passes from a zero iterate
//!
//! Every apply starts level 0 from `+0`, and every descent starts the
//! coarser level from `+0`. The first pre-smoothing pass of such a level
//! runs [`LinearOperator::smooth_pass_from_zero`], which skips the
//! product `A·(+0)` and overwrites the whole iterate, so no buffer is
//! zeroed beforehand; only a level without pre-smoothing zeroes its
//! iterate, because its residual reads it. Level 0 reads the caller's
//! residual in place, and the result leaves by swapping the caller's
//! buffer with level 0's iterate. Each step leaves every bit as the
//! zero-filled pass computes it (see the operator contract).
//!
//! # Transfer-operator conventions
//!
//! Residuals in an RC thermal network are *extensive* (watts), so
//! restriction **sums** the four fine children of each coarse cell —
//! consistent with coarse couplings re-discretised for 4× the cell area.
//! Prolongation interpolates the (intensive) correction bilinearly with
//! weights 3/4 and 1/4 per axis, clamped at boundaries; trailing lumped
//! nodes restrict and prolongate by injection.

use std::sync::Arc;

use crate::csc::CscMatrix;
use crate::lu::{self, ColumnOrdering, LuFactors, SolveWorkspace, SymbolicLu};
use crate::operator::{LinearOperator, Preconditioner};
use crate::SparseError;

/// Cell-centered structured-grid shape of one multigrid level:
/// `nz` tiers of `nx × ny` cells plus `extra` trailing lumped nodes
/// (heat-sink node), for `nx·ny·nz + extra` unknowns, cells numbered
/// `z·nx·ny + y·nx + x` with the lumped nodes last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridShape {
    /// Cells along x within each tier.
    pub nx: usize,
    /// Cells along y within each tier.
    pub ny: usize,
    /// Number of tiers (never coarsened).
    pub nz: usize,
    /// Trailing lumped nodes (never coarsened).
    pub extra: usize,
}

impl GridShape {
    /// Total number of unknowns on this level.
    pub fn n(&self) -> usize {
        self.nx * self.ny * self.nz + self.extra
    }

    /// Number of grid cells (excluding the trailing lumped nodes).
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// The 2×-coarser in-plane shape, or `None` when either in-plane
    /// dimension is odd or would drop below one cell.
    pub fn coarsened(&self) -> Option<GridShape> {
        if self.nx < 2 || self.ny < 2 || !self.nx.is_multiple_of(2) || !self.ny.is_multiple_of(2) {
            return None;
        }
        Some(GridShape {
            nx: self.nx / 2,
            ny: self.ny / 2,
            nz: self.nz,
            extra: self.extra,
        })
    }
}

/// Tuning knobs for the V-cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridOptions {
    /// Smoothing sweeps before restriction on each level.
    pub pre_sweeps: usize,
    /// Smoothing sweeps after prolongation on each level.
    pub post_sweeps: usize,
    /// Jacobi damping factor ω in `x ← x + ω·D⁻¹·(b − A·x)`.
    pub damping: f64,
    /// V-cycles per preconditioner application.
    pub cycles: usize,
}

impl Default for MultigridOptions {
    fn default() -> Self {
        MultigridOptions {
            pre_sweeps: 1,
            post_sweeps: 1,
            damping: 0.8,
            cycles: 1,
        }
    }
}

/// Cumulative work counters, drained with [`Multigrid::take_stats`] so a
/// caller can attribute V-cycle work to individual solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultigridStats {
    /// V-cycles executed.
    pub cycles: u64,
    /// Smoothing sweeps across all levels.
    pub smooth_sweeps: u64,
    /// Direct solves on the coarsest level.
    pub coarse_solves: u64,
}

/// One smoothed level of the hierarchy.
#[derive(Debug, Clone)]
struct MgLevel<A> {
    op: A,
    shape: GridShape,
    inv_diag: Vec<f64>,
    x: Vec<f64>,
    /// The restricted residual this level solves against; empty on
    /// level 0, which reads the caller's residual in place.
    b: Vec<f64>,
    r: Vec<f64>,
}

/// Geometric V-cycle preconditioner over a caller-built operator
/// hierarchy; see the [module docs](self) for the scheme and contracts.
///
/// Apply it through [`Preconditioner::apply_into`]; applies are
/// allocation-free once the output buffer is warm (the level scratch and
/// the coarse [`SolveWorkspace`] are pre-sized at construction).
#[derive(Debug, Clone)]
pub struct Multigrid<A> {
    levels: Vec<MgLevel<A>>,
    coarse_shape: GridShape,
    coarse_factors: LuFactors,
    coarse_symbolic: Arc<SymbolicLu>,
    coarse_ws: SolveWorkspace,
    coarse_x: Vec<f64>,
    coarse_b: Vec<f64>,
    options: MultigridOptions,
    stats: MultigridStats,
}

impl<A: LinearOperator> Multigrid<A> {
    /// Builds a multigrid preconditioner from smoothed levels (finest
    /// first, each exactly the in-plane coarsening of its predecessor)
    /// plus the assembled coarsest-level operator, which is LU-factored
    /// here.
    ///
    /// `levels` entries are `(operator, shape, diagonal)`; the diagonal
    /// drives the Jacobi smoother. `coarse_symbolic` is an optional
    /// symbolic factorisation captured from a previous build on the same
    /// coarse pattern (an operating-point refresh): when valid it turns
    /// the coarse factorisation into a numeric-only
    /// [`SymbolicLu::refactor`]; when stale or unstable the build falls
    /// back to a fresh pivoting factorisation transparently. Retrieve the
    /// current symbolic with [`Multigrid::coarse_symbolic`] for reuse.
    ///
    /// # Errors
    ///
    /// * [`SparseError::Shape`] — empty `levels`, an operator/shape/
    ///   diagonal dimension mismatch, a level that is not the coarsening
    ///   of its predecessor, or a coarse operator of the wrong dimension.
    /// * [`SparseError::Singular`] — a zero or non-finite smoother
    ///   diagonal entry, or a singular coarse operator.
    pub fn new(
        levels: Vec<(A, GridShape, Vec<f64>)>,
        coarse_op: &CscMatrix,
        coarse_symbolic: Option<Arc<SymbolicLu>>,
        options: MultigridOptions,
    ) -> Result<Self, SparseError> {
        if levels.is_empty() {
            return Err(SparseError::Shape {
                detail: "multigrid needs at least one smoothed level".into(),
            });
        }
        let mut built = Vec::with_capacity(levels.len());
        let mut expected: Option<GridShape> = None;
        for (op, shape, diag) in levels {
            let n = shape.n();
            if op.nrows() != n || op.ncols() != n || diag.len() != n {
                return Err(SparseError::Shape {
                    detail: format!(
                        "multigrid level: operator {}x{} / diagonal {} vs shape {n}",
                        op.nrows(),
                        op.ncols(),
                        diag.len()
                    ),
                });
            }
            if let Some(want) = expected {
                if shape != want {
                    return Err(SparseError::Shape {
                        detail: format!("multigrid level shape {shape:?}, expected {want:?}"),
                    });
                }
            }
            expected = Some(shape.coarsened().ok_or_else(|| SparseError::Shape {
                detail: format!("multigrid level shape {shape:?} cannot coarsen further"),
            })?);
            let mut inv_diag = Vec::with_capacity(n);
            for (i, &d) in diag.iter().enumerate() {
                if d == 0.0 || !d.is_finite() {
                    return Err(SparseError::Singular { column: i });
                }
                inv_diag.push(1.0 / d);
            }
            let b = if built.is_empty() {
                Vec::new()
            } else {
                vec![0.0; n]
            };
            built.push(MgLevel {
                op,
                shape,
                inv_diag,
                x: vec![0.0; n],
                b,
                r: vec![0.0; n],
            });
        }
        let coarse_shape = expected.expect("levels nonempty");
        let nc = coarse_shape.n();
        if coarse_op.nrows() != nc || coarse_op.ncols() != nc {
            return Err(SparseError::Shape {
                detail: format!(
                    "coarse operator {}x{} vs coarse shape {nc}",
                    coarse_op.nrows(),
                    coarse_op.ncols()
                ),
            });
        }
        // Numeric-only refactorisation through a donated symbolic when it
        // still fits; silently fall back to a fresh pivoting
        // factorisation when it does not (different pattern or degraded
        // pivots) — the preconditioner must never be *wrong*, only
        // occasionally slower to build.
        let (coarse_factors, coarse_symbolic) = match coarse_symbolic {
            Some(sym) if sym.n() == nc => match sym.refactor(coarse_op) {
                Ok(f) => (f, sym),
                Err(SparseError::Singular { column }) => {
                    return Err(SparseError::Singular { column })
                }
                Err(_) => {
                    let (f, s) = lu::factor_with_symbolic(coarse_op, ColumnOrdering::Rcm)?;
                    (f, Arc::new(s))
                }
            },
            _ => {
                let (f, s) = lu::factor_with_symbolic(coarse_op, ColumnOrdering::Rcm)?;
                (f, Arc::new(s))
            }
        };
        Ok(Multigrid {
            levels: built,
            coarse_shape,
            coarse_factors,
            coarse_symbolic,
            coarse_ws: SolveWorkspace::with_dimension(nc),
            coarse_x: vec![0.0; nc],
            coarse_b: vec![0.0; nc],
            options,
            stats: MultigridStats::default(),
        })
    }

    /// Number of smoothed levels (the direct-solved coarsest level not
    /// included).
    pub fn smoothed_levels(&self) -> usize {
        self.levels.len()
    }

    /// Shape of the direct-solved coarsest level.
    pub fn coarse_shape(&self) -> GridShape {
        self.coarse_shape
    }

    /// The symbolic factorisation of the coarsest operator — cache it and
    /// donate it to the next [`Multigrid::new`] on the same `(stack,
    /// grid)` so operating-point refreshes skip the symbolic LU work.
    pub fn coarse_symbolic(&self) -> Arc<SymbolicLu> {
        Arc::clone(&self.coarse_symbolic)
    }

    /// Returns the work counters accumulated since the last call and
    /// resets them to zero.
    pub fn take_stats(&mut self) -> MultigridStats {
        std::mem::take(&mut self.stats)
    }

    /// `sweeps` smoothing passes on level `l` against `b`, through the
    /// operator's [`LinearOperator::smooth_pass`]. With `zero`, the
    /// iterate is `+0` everywhere whatever its buffer holds: the first
    /// pass starts from `+0` without the product
    /// ([`LinearOperator::smooth_pass_from_zero`]), or, with no pass to
    /// overwrite it, the buffer is zeroed for the residual that reads it.
    fn smooth(&mut self, l: usize, b: &[f64], sweeps: usize, zero: bool) {
        let omega = self.options.damping;
        let lev = &mut self.levels[l];
        if zero && sweeps == 0 {
            lev.x.fill(0.0);
        }
        for sweep in 0..sweeps {
            if zero && sweep == 0 {
                lev.op
                    .smooth_pass_from_zero(&mut lev.x, b, &lev.inv_diag, omega);
            } else {
                lev.op
                    .smooth_pass(&mut lev.x, b, &lev.inv_diag, omega, &mut lev.r);
            }
            self.stats.smooth_sweeps += 1;
        }
    }

    /// One V-cycle starting at level `l` (level 0 = finest) against `b`,
    /// refining `levels[l].x` in place, or from `+0` when `zero`.
    fn v_cycle(&mut self, l: usize, b: &[f64], zero: bool) {
        self.smooth(l, b, self.options.pre_sweeps, zero);
        // Residual r = b − A·x on this level.
        {
            let lev = &mut self.levels[l];
            lev.op.matvec_into(&lev.x, &mut lev.r);
            for (r, &b) in lev.r.iter_mut().zip(b) {
                *r = b - *r;
            }
        }
        if l + 1 < self.levels.len() {
            // The coarser level's right-hand side leaves the hierarchy (a
            // move, not a copy) while its cycle borrows it.
            let mut bc = std::mem::take(&mut self.levels[l + 1].b);
            let (fine, rest) = self.levels.split_at(l + 1);
            restrict(fine[l].shape, &fine[l].r, rest[0].shape, &mut bc);
            self.v_cycle(l + 1, &bc, true);
            self.levels[l + 1].b = bc;
            let (fine, rest) = self.levels.split_at_mut(l + 1);
            prolong_add(rest[0].shape, &rest[0].x, fine[l].shape, &mut fine[l].x);
        } else {
            let fine = &self.levels[l];
            restrict(fine.shape, &fine.r, self.coarse_shape, &mut self.coarse_b);
            self.coarse_factors
                .solve_with(&mut self.coarse_ws, &self.coarse_b, &mut self.coarse_x)
                .expect("coarse dimensions validated at construction");
            self.stats.coarse_solves += 1;
            let fine = &mut self.levels[l];
            prolong_add(self.coarse_shape, &self.coarse_x, fine.shape, &mut fine.x);
        }
        self.smooth(l, b, self.options.post_sweeps, false);
    }
}

impl<A: LinearOperator> Preconditioner for Multigrid<A> {
    fn n(&self) -> usize {
        self.levels[0].shape.n()
    }

    /// Runs the configured V-cycles on `r` from a `+0` start and returns
    /// the result by swapping `z` (resized to `n`) with level 0's
    /// iterate, so `z` comes back as a different allocation; the caller's
    /// buffer becomes the next apply's iterate, whose contents never
    /// matter.
    fn apply_into(&mut self, r: &[f64], z: &mut Vec<f64>) -> Result<(), SparseError> {
        let n = self.n();
        if r.len() != n {
            return Err(SparseError::Shape {
                detail: format!("multigrid apply: vector length {} != {n}", r.len()),
            });
        }
        for cycle in 0..self.options.cycles {
            self.v_cycle(0, r, cycle == 0);
            self.stats.cycles += 1;
        }
        if self.options.cycles == 0 {
            self.levels[0].x.fill(0.0);
        }
        z.resize(n, 0.0);
        std::mem::swap(z, &mut self.levels[0].x);
        Ok(())
    }
}

/// Aggregation (full-weighting) restriction of an extensive residual:
/// each coarse cell receives the **sum** of its four fine children;
/// trailing lumped nodes are injected.
fn restrict(fine: GridShape, rf: &[f64], coarse: GridShape, rc: &mut [f64]) {
    debug_assert_eq!(Some(coarse), fine.coarsened());
    debug_assert_eq!(rf.len(), fine.n());
    debug_assert_eq!(rc.len(), coarse.n());
    let (rf, rf_extra) = rf.split_at(fine.cells());
    let (rc, rc_extra) = rc.split_at_mut(coarse.cells());
    // Fine rows pair up across the whole stack: coarse row `j` (of any
    // tier) gathers fine rows `2j` and `2j + 1`.
    for (crow, pair) in rc
        .chunks_exact_mut(coarse.nx)
        .zip(rf.chunks_exact(2 * fine.nx))
    {
        let (f0, f1) = pair.split_at(fine.nx);
        for ((c, a), b) in crow
            .iter_mut()
            .zip(f0.chunks_exact(2))
            .zip(f1.chunks_exact(2))
        {
            *c = (a[0] + a[1]) + (b[0] + b[1]);
        }
    }
    rc_extra.copy_from_slice(rf_extra);
}

/// Weight pair for cell-centered bilinear interpolation along one axis:
/// fine cell `i` interpolates between coarse cell `i/2` (weight 3/4) and
/// its nearer neighbour (weight 1/4), clamped at the boundary.
fn axis_neighbors(i: usize, cn: usize) -> (usize, usize) {
    let main = i / 2;
    let side = if i.is_multiple_of(2) {
        main.saturating_sub(1)
    } else {
        (main + 1).min(cn - 1)
    };
    (main, side)
}

/// Cell-centered bilinear prolongation, *added* into the fine vector
/// (coarse-grid correction); trailing lumped nodes are injected.
fn prolong_add(coarse: GridShape, xc: &[f64], fine: GridShape, xf: &mut [f64]) {
    debug_assert_eq!(Some(coarse), fine.coarsened());
    debug_assert_eq!(xc.len(), coarse.n());
    debug_assert_eq!(xf.len(), fine.n());
    let cnx = coarse.nx;
    let (xc, xc_extra) = xc.split_at(coarse.cells());
    let (xf, xf_extra) = xf.split_at_mut(fine.cells());
    for (cplane, fplane) in xc
        .chunks_exact(cnx * coarse.ny)
        .zip(xf.chunks_exact_mut(fine.nx * fine.ny))
    {
        for (fy, frow) in fplane.chunks_exact_mut(fine.nx).enumerate() {
            let (ym, ys) = axis_neighbors(fy, coarse.ny);
            prolong_row(&cplane[ym * cnx..][..cnx], &cplane[ys * cnx..][..cnx], frow);
        }
    }
    for (f, &c) in xf_extra.iter_mut().zip(xc_extra) {
        *f += c;
    }
}

/// Adds one fine row of the bilinear prolongation: `main` is the coarse
/// row nearest in y (weight 3/4), `side` its clamped y-neighbour (1/4),
/// and fine cell `i` weighs coarse cells `i/2` and its clamped nearer
/// x-neighbour the same way ([`axis_neighbors`]).
fn prolong_row(main: &[f64], side: &[f64], frow: &mut [f64]) {
    const W_MAIN: f64 = 0.75;
    const W_SIDE: f64 = 0.25;
    let interp = |mm: f64, ms: f64, sm: f64, ss: f64| {
        W_MAIN * (W_MAIN * mm + W_SIDE * ms) + W_SIDE * (W_MAIN * sm + W_SIDE * ss)
    };
    let last = main.len() - 1;
    // The two edge cells clamp their x-neighbour to themselves.
    frow[0] += interp(main[0], main[0], side[0], side[0]);
    frow[2 * last + 1] += interp(main[last], main[last], side[last], side[last]);
    // Even fine cell 2k (k ≥ 1) leans on coarse k − 1, odd fine cell
    // 2k + 1 (k < last) on coarse k + 1.
    for ((f, m), s) in frow[2..]
        .chunks_exact_mut(2)
        .zip(main.windows(2))
        .zip(side.windows(2))
    {
        f[0] += interp(m[1], m[0], s[1], s[0]);
    }
    for ((f, m), s) in frow
        .chunks_exact_mut(2)
        .zip(main.windows(2))
        .zip(side.windows(2))
    {
        f[1] += interp(m[0], m[1], s[0], s[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::{bicgstab_into, BicgstabOptions, IterativeWorkspace};
    use crate::lu::SolveWorkspace;
    use crate::triplet::TripletMatrix;

    /// 2D 5-point Poisson-with-sink operator on an nx×ny grid (single
    /// tier, no lumped nodes), plus its shape and diagonal.
    fn poisson(
        nx: usize,
        ny: usize,
        gx: f64,
        gy: f64,
        leak: f64,
    ) -> (CscMatrix, GridShape, Vec<f64>) {
        let n = nx * ny;
        let mut t = TripletMatrix::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    t.stamp_conductance(i, i + 1, gx);
                }
                if y + 1 < ny {
                    t.stamp_conductance(i, i + nx, gy);
                }
                t.push(i, i, leak);
            }
        }
        let a = t.to_csc();
        let shape = GridShape {
            nx,
            ny,
            nz: 1,
            extra: 0,
        };
        let diag = a.diagonal();
        (a, shape, diag)
    }

    /// Two-level hierarchy for a Poisson problem, coarse level
    /// re-discretised with the cell-area scaling the thermal crate uses
    /// (lateral conductances unchanged, leak ×4).
    fn two_level(nx: usize, ny: usize) -> (CscMatrix, Multigrid<CscMatrix>) {
        let (fine, fshape, fdiag) = poisson(nx, ny, 1.3, 0.7, 0.05);
        let (coarse, _, _) = poisson(nx / 2, ny / 2, 1.3, 0.7, 0.2);
        let mg = Multigrid::new(
            vec![(fine.clone(), fshape, fdiag)],
            &coarse,
            None,
            MultigridOptions::default(),
        )
        .unwrap();
        (fine, mg)
    }

    #[test]
    fn restriction_sums_children_and_injects_extras() {
        let fine = GridShape {
            nx: 4,
            ny: 2,
            nz: 1,
            extra: 1,
        };
        let coarse = fine.coarsened().unwrap();
        let rf: Vec<f64> = (1..=9).map(|v| v as f64).collect(); // 8 cells + 1 extra
        let mut rc = vec![0.0; coarse.n()];
        restrict(fine, &rf, coarse, &mut rc);
        // Children of coarse (0,0): fine 1,2,5,6; coarse (1,0): 3,4,7,8.
        assert_eq!(rc, vec![14.0, 22.0, 9.0]);
    }

    #[test]
    fn prolongation_is_exact_for_constants() {
        // Constant coarse corrections must prolongate to the same
        // constant (the boundary-clamped weights sum to one everywhere).
        let fine = GridShape {
            nx: 8,
            ny: 6,
            nz: 2,
            extra: 1,
        };
        let coarse = fine.coarsened().unwrap();
        let xc = vec![3.5; coarse.n()];
        let mut xf = vec![1.0; fine.n()];
        prolong_add(coarse, &xc, fine, &mut xf);
        for &v in &xf {
            assert!((v - 4.5).abs() < 1e-14, "{v}");
        }
    }

    /// Restriction as it was written before the line kernels: indexed
    /// per coarse cell.
    fn reference_restrict(fine: GridShape, rf: &[f64], coarse: GridShape, rc: &mut [f64]) {
        let (fnx, fny) = (fine.nx, fine.ny);
        let (cnx, cny) = (coarse.nx, coarse.ny);
        for z in 0..fine.nz {
            let fz = z * fnx * fny;
            let cz = z * cnx * cny;
            for cy in 0..cny {
                let f0 = fz + (2 * cy) * fnx;
                let f1 = fz + (2 * cy + 1) * fnx;
                let c0 = cz + cy * cnx;
                for cx in 0..cnx {
                    let fx = 2 * cx;
                    rc[c0 + cx] = (rf[f0 + fx] + rf[f0 + fx + 1]) + (rf[f1 + fx] + rf[f1 + fx + 1]);
                }
            }
        }
        for e in 0..fine.extra {
            rc[coarse.cells() + e] = rf[fine.cells() + e];
        }
    }

    /// Prolongation as it was written before the line kernels: indexed
    /// per fine cell through [`axis_neighbors`].
    fn reference_prolong_add(coarse: GridShape, xc: &[f64], fine: GridShape, xf: &mut [f64]) {
        let (fnx, fny) = (fine.nx, fine.ny);
        let (cnx, cny) = (coarse.nx, coarse.ny);
        for z in 0..fine.nz {
            let fz = z * fnx * fny;
            let cz = z * cnx * cny;
            for fy in 0..fny {
                let (ym, ys) = axis_neighbors(fy, cny);
                let row_m = cz + ym * cnx;
                let row_s = cz + ys * cnx;
                for fx in 0..fnx {
                    let (xm, xs) = axis_neighbors(fx, cnx);
                    let v = 0.75 * (0.75 * xc[row_m + xm] + 0.25 * xc[row_m + xs])
                        + 0.25 * (0.75 * xc[row_s + xm] + 0.25 * xc[row_s + xs]);
                    xf[fz + fy * fnx + fx] += v;
                }
            }
        }
        for e in 0..fine.extra {
            xf[fine.cells() + e] += xc[coarse.cells() + e];
        }
    }

    #[test]
    fn grid_transfers_match_the_per_cell_loops_bitwise() {
        let mut state = 0x9e37_79b9_u64;
        let mut draw = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3
        };
        // Coarse shapes one cell wide, one cell high, both, and ordinary
        // ones, with and without trailing lumped nodes.
        for (nx, ny, nz, extra) in [
            (2, 2, 1, 0),
            (2, 6, 2, 1),
            (6, 2, 3, 2),
            (2, 2, 4, 1),
            (4, 4, 1, 0),
            (8, 6, 3, 2),
            (10, 4, 2, 1),
        ] {
            let fine = GridShape { nx, ny, nz, extra };
            let coarse = fine.coarsened().expect("even shape");
            let rf: Vec<f64> = (0..fine.n()).map(|_| draw()).collect();
            let mut rc = vec![f64::NAN; coarse.n()];
            let mut expect = vec![f64::NAN; coarse.n()];
            restrict(fine, &rf, coarse, &mut rc);
            reference_restrict(fine, &rf, coarse, &mut expect);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rc), bits(&expect), "restrict {fine:?}");

            let xc: Vec<f64> = (0..coarse.n()).map(|_| draw()).collect();
            let mut xf: Vec<f64> = (0..fine.n()).map(|_| draw()).collect();
            let mut expect = xf.clone();
            prolong_add(coarse, &xc, fine, &mut xf);
            reference_prolong_add(coarse, &xc, fine, &mut expect);
            assert_eq!(bits(&xf), bits(&expect), "prolong_add {fine:?}");
        }
    }

    /// Three smoothed levels over a Poisson problem plus the direct coarse
    /// level, so a cycle descends twice before its coarse solve.
    fn three_level(options: MultigridOptions) -> Multigrid<CscMatrix> {
        let levels = [(16, 8, 0.05), (8, 4, 0.2), (4, 2, 0.8)]
            .into_iter()
            .map(|(nx, ny, leak)| poisson(nx, ny, 1.3, 0.7, leak))
            .collect();
        let (coarse, _, _) = poisson(2, 1, 1.3, 0.7, 3.2);
        Multigrid::new(levels, &coarse, None, options).unwrap()
    }

    /// A residual mixing ordinary values with ±0 and subnormals.
    fn residual(n: usize, seed: u64) -> Vec<f64> {
        const SPECIALS: [f64; 4] = [0.0, -0.0, 5e-324, -2.5e-310];
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 20.0;
                if i % 5 == 0 {
                    SPECIALS[(state >> 60) as usize % SPECIALS.len()]
                } else {
                    v
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The V-cycle as it was written before its passes from a zero
    /// iterate: level 0 copies the residual into a right-hand side of its
    /// own, every iterate is zero-filled before it is smoothed, every
    /// smoothing pass forms `A·x` and its damped-Jacobi update (the trait
    /// default then), and the result is copied out.
    fn reference_apply(mg: &Multigrid<CscMatrix>, r: &[f64]) -> Vec<f64> {
        let mut bufs: Vec<[Vec<f64>; 3]> = mg
            .levels
            .iter()
            .map(|l| std::array::from_fn(|_| vec![0.0; l.shape.n()]))
            .collect();
        bufs[0][1].copy_from_slice(r);
        let mut coarse = [
            vec![0.0; mg.coarse_shape.n()],
            vec![0.0; mg.coarse_shape.n()],
        ];
        let mut ws = SolveWorkspace::new();
        for _ in 0..mg.options.cycles {
            reference_cycle(mg, &mut bufs, &mut coarse, &mut ws, 0);
        }
        bufs[0][0].clone()
    }

    fn reference_cycle(
        mg: &Multigrid<CscMatrix>,
        bufs: &mut [[Vec<f64>; 3]],
        coarse: &mut [Vec<f64>; 2],
        ws: &mut SolveWorkspace,
        l: usize,
    ) {
        let lev = &mg.levels[l];
        let smooth = |[x, b, r]: &mut [Vec<f64>; 3], sweeps: usize| {
            for _ in 0..sweeps {
                lev.op.matvec_into(x, r);
                for (((xi, &bi), &di), &ai) in x.iter_mut().zip(&*b).zip(&lev.inv_diag).zip(&*r) {
                    *xi += mg.options.damping * di * (bi - ai);
                }
            }
        };
        smooth(&mut bufs[l], mg.options.pre_sweeps);
        let [x, b, r] = &mut bufs[l];
        lev.op.matvec_into(x, r);
        for (ri, &bi) in r.iter_mut().zip(&*b) {
            *ri = bi - *ri;
        }
        if l + 1 < mg.levels.len() {
            let (fine, rest) = bufs.split_at_mut(l + 1);
            let next = &mg.levels[l + 1];
            restrict(lev.shape, &fine[l][2], next.shape, &mut rest[0][1]);
            rest[0][0].fill(0.0);
            reference_cycle(mg, bufs, coarse, ws, l + 1);
            let (fine, rest) = bufs.split_at_mut(l + 1);
            prolong_add(next.shape, &rest[0][0], lev.shape, &mut fine[l][0]);
        } else {
            let [cx, cb] = coarse;
            restrict(lev.shape, &bufs[l][2], mg.coarse_shape, cb);
            mg.coarse_factors.solve_with(ws, cb, cx).unwrap();
            prolong_add(mg.coarse_shape, cx, lev.shape, &mut bufs[l][0]);
        }
        smooth(&mut bufs[l], mg.options.post_sweeps);
    }

    #[test]
    fn smoothing_from_zero_matches_a_zero_filled_pass_bitwise() {
        let mg = three_level(MultigridOptions::default());
        for (l, lev) in mg.levels.iter().enumerate() {
            let n = lev.shape.n();
            for (seed, omega) in [(1, 0.8), (2, 1.0), (3, 0.55)] {
                let b = residual(n, seed + 10 * l as u64);
                let mut expect = vec![0.0; n];
                let mut scratch = vec![f64::NAN; n];
                lev.op
                    .smooth_pass(&mut expect, &b, &lev.inv_diag, omega, &mut scratch);
                // Stale contents, NaN included, must not leak through.
                let mut x: Vec<f64> = residual(n, 99).iter().map(|v| v / 0.0).collect();
                lev.op
                    .smooth_pass_from_zero(&mut x, &b, &lev.inv_diag, omega);
                assert_eq!(bits(&x), bits(&expect), "level {l}, ω = {omega}");
            }
        }
    }

    #[test]
    fn apply_matches_the_zero_filled_v_cycle_bitwise() {
        let variants = [
            MultigridOptions::default(),
            // The second cycle starts from a nonzero iterate.
            MultigridOptions {
                cycles: 2,
                ..Default::default()
            },
            // Without pre-smoothing the residual reads the zero iterate.
            MultigridOptions {
                pre_sweeps: 0,
                ..Default::default()
            },
            MultigridOptions {
                pre_sweeps: 0,
                post_sweeps: 2,
                cycles: 2,
                ..Default::default()
            },
            MultigridOptions {
                pre_sweeps: 2,
                post_sweeps: 0,
                damping: 0.6,
                cycles: 3,
            },
            MultigridOptions {
                cycles: 0,
                ..Default::default()
            },
        ];
        for options in variants {
            let mut mg = three_level(options);
            let n = Preconditioner::n(&mg);
            // The caller's buffer arrives empty, short, of length n and
            // longer, with stale contents; each result has length n.
            let mut zs = [
                Vec::new(),
                vec![f64::NAN; n / 2],
                vec![f64::NAN; n],
                vec![-7.0; n + 5],
            ];
            for round in 0..2 {
                for (case, z) in zs.iter_mut().enumerate() {
                    let r = residual(n, (round * 4 + case) as u64);
                    mg.apply_into(&r, z).unwrap();
                    assert_eq!(
                        bits(z),
                        bits(&reference_apply(&mg, &r)),
                        "{options:?}, buffer {case}, round {round}"
                    );
                }
            }
            // Warm, the caller's buffer and level 0's iterate trade
            // places on every apply; neither is reallocated.
            let mut z = Vec::new();
            let r = residual(n, 7);
            mg.apply_into(&r, &mut z).unwrap();
            let warm = [z.as_ptr(), mg.levels[0].x.as_ptr()];
            for _ in 0..4 {
                mg.apply_into(&r, &mut z).unwrap();
                assert!(warm.contains(&z.as_ptr()) && warm.contains(&mg.levels[0].x.as_ptr()));
                assert_eq!((z.len(), mg.levels[0].x.len()), (n, n));
            }
        }
    }

    #[test]
    fn apply_is_deterministic_and_allocation_free_once_warm() {
        let (_, mut mg) = two_level(16, 12);
        let n = Preconditioner::n(&mg);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin() + 0.3).collect();
        let mut z1 = Vec::new();
        mg.apply_into(&r, &mut z1).unwrap();
        let mut z2 = Vec::with_capacity(n);
        mg.apply_into(&r, &mut z2).unwrap();
        assert_eq!(z1, z2, "repeat applies must be bit-identical");
        let cap = z2.capacity();
        for _ in 0..5 {
            mg.apply_into(&r, &mut z2).unwrap();
        }
        assert_eq!(z2.capacity(), cap, "warm applies must not reallocate");
        assert_eq!(z1, z2, "state leaks across applies");
        let stats = mg.take_stats();
        assert_eq!(stats.cycles, 7);
        assert_eq!(stats.coarse_solves, 7);
        assert_eq!(stats.smooth_sweeps, 14);
        assert_eq!(mg.take_stats(), MultigridStats::default());
    }

    #[test]
    fn one_v_cycle_contracts_the_error() {
        // The V-cycle must reduce the residual of A·z = r substantially
        // in a single application — the property that makes it a useful
        // preconditioner at all.
        let (a, mut mg) = two_level(32, 32);
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) * 0.1 + 0.2).collect();
        let mut z = Vec::new();
        mg.apply_into(&r, &mut z).unwrap();
        let az = a.matvec(&z);
        let num: f64 = az
            .iter()
            .zip(&r)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let den: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(num / den < 0.5, "V-cycle residual ratio {}", num / den);
    }

    #[test]
    fn preconditions_bicgstab_with_flat_iteration_growth() {
        // The headline property: MG-preconditioned BiCGSTAB iteration
        // counts barely grow when the grid is refined 2× per axis.
        let mut iters = Vec::new();
        for s in [16usize, 32, 64] {
            let (a, mut mg) = two_level(s, s);
            let n = a.nrows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() + 1.5).collect();
            let mut ws = IterativeWorkspace::new();
            let mut x = vec![0.0; n];
            let summary = bicgstab_into(
                &a,
                &b,
                Some(&mut mg),
                &BicgstabOptions::default(),
                &mut ws,
                &mut x,
            )
            .unwrap();
            assert!(summary.residual < 1e-9);
            iters.push(summary.iterations as f64);
        }
        assert!(
            iters[2] <= 1.5 * iters[0],
            "iterations not resolution-independent: {iters:?}"
        );
    }

    #[test]
    fn shape_and_hierarchy_validation() {
        let (fine, fshape, fdiag) = poisson(8, 8, 1.0, 1.0, 0.1);
        let (coarse, _, _) = poisson(4, 4, 1.0, 1.0, 0.4);
        // Wrong coarse dimension.
        let (too_small, _, _) = poisson(2, 2, 1.0, 1.0, 1.0);
        assert!(matches!(
            Multigrid::new(
                vec![(fine.clone(), fshape, fdiag.clone())],
                &too_small,
                None,
                MultigridOptions::default(),
            ),
            Err(SparseError::Shape { .. })
        ));
        // Odd in-plane dimension cannot coarsen.
        let (odd, odd_shape, odd_diag) = poisson(7, 8, 1.0, 1.0, 0.1);
        assert!(matches!(
            Multigrid::new(
                vec![(odd, odd_shape, odd_diag)],
                &coarse,
                None,
                MultigridOptions::default(),
            ),
            Err(SparseError::Shape { .. })
        ));
        // Zero smoother diagonal is singular.
        let mut bad_diag = fdiag.clone();
        bad_diag[5] = 0.0;
        assert!(matches!(
            Multigrid::new(
                vec![(fine.clone(), fshape, bad_diag)],
                &coarse,
                None,
                MultigridOptions::default(),
            ),
            Err(SparseError::Singular { column: 5 })
        ));
        // Mismatched apply length.
        let mut mg = Multigrid::new(
            vec![(fine, fshape, fdiag)],
            &coarse,
            None,
            MultigridOptions::default(),
        )
        .unwrap();
        let mut z = Vec::new();
        assert!(matches!(
            mg.apply_into(&[1.0; 3], &mut z),
            Err(SparseError::Shape { .. })
        ));
    }

    #[test]
    fn donated_symbolic_is_reused_and_stale_symbolic_falls_back() {
        let (fine, fshape, fdiag) = poisson(8, 8, 1.0, 1.0, 0.1);
        let (coarse, _, _) = poisson(4, 4, 1.0, 1.0, 0.4);
        let mg1 = Multigrid::new(
            vec![(fine.clone(), fshape, fdiag.clone())],
            &coarse,
            None,
            MultigridOptions::default(),
        )
        .unwrap();
        let sym = mg1.coarse_symbolic();
        // Same pattern: the donated symbolic is kept.
        let mg2 = Multigrid::new(
            vec![(fine.clone(), fshape, fdiag.clone())],
            &coarse,
            Some(Arc::clone(&sym)),
            MultigridOptions::default(),
        )
        .unwrap();
        assert!(Arc::ptr_eq(&sym, &mg2.coarse_symbolic()));
        // Wrong-dimension symbolic: silently replaced, same results.
        let (big_fine, big_shape, big_diag) = poisson(16, 16, 1.0, 1.0, 0.1);
        let (big_coarse, _, _) = poisson(8, 8, 1.0, 1.0, 0.4);
        let mg3 = Multigrid::new(
            vec![(big_fine, big_shape, big_diag)],
            &big_coarse,
            Some(sym.clone()),
            MultigridOptions::default(),
        )
        .unwrap();
        assert!(!Arc::ptr_eq(&sym, &mg3.coarse_symbolic()));
    }
}
