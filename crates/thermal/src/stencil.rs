//! Matrix-free stencil form of the compact thermal operator.
//!
//! A [`StencilOperator`] stores the RC-network operator of one operating
//! point as a handful of per-layer scalars (lateral conductances,
//! advection coefficient, capacitance-over-Δt diagonal shift), per
//! interface couplings, cavity wall-skip conductances and an optional
//! lumped heat-sink node — O(nz) numbers instead of O(n·nnz/row) assembled
//! storage — and applies `y = A·x` directly from the grid geometry.
//!
//! # Bit-identity contract
//!
//! [`StencilOperator::matvec_into`] and the assembled form returned by
//! [`StencilOperator::assemble`] produce **bit-identical** products. Both
//! read one per-layer term list, built once in [`StencilOperator::new`]:
//! the entries every row of a layer holds, in ascending column order
//! (wall skip and interface below, y−1, x−1, diagonal, x+1, y+1,
//! interface and wall skip above, sink).
//!
//! `matvec_into` is a row gather. Each `(layer, y-row)` line of the output
//! starts at `+0.0` and receives its terms in that order, one contiguous
//! slice pass per term, so each row adds its products in ascending column
//! order. `assemble` emits the same terms as triplets;
//! `CscMatrix::from_triplets` sorts each column by row, which leaves the
//! assembled arrays exactly as a column-by-column emission would. Its
//! `CscMatrix::matvec_into` scatters columns in ascending order, so it
//! delivers every row's products in the same ascending column order,
//! starting from the same `+0.0`: each output element gets the same
//! multiplications and additions in the same order (multiply, then add,
//! never a fused multiply-add).
//!
//! The scatter skips a column whose `x` entry is ±0; the gather does not.
//! That changes no bits. Every coefficient is finite, so a skipped product
//! is ±0. Adding ±0 to a nonzero, infinite or NaN accumulator returns the
//! accumulator, and an accumulator that starts at `+0.0` never becomes
//! `−0.0` (in round-to-nearest a sum is `−0.0` only when both operands
//! are), so `+0.0 + (±0.0)` stays `+0.0`. (A NaN row is NaN in both forms;
//! Rust leaves the sign and payload of a NaN result unspecified.)
//!
//! This is the [`LinearOperator`] interchangeability contract the
//! iterative solvers rely on when a solve mixes representations (e.g. a
//! matrix-free fine level over an assembled direct-LU fallback).
//!
//! A coefficient that is exactly `0.0` is *structurally absent*: the term
//! list omits it, so the two forms agree on sparsity as well as on bits,
//! and a zero coefficient never meets an infinite or NaN entry of `x`.
//!
//! # Layer taxonomy
//!
//! * [`StencilLayerKind::Solid`] — lateral x/y conduction, vertical
//!   coupling through the interfaces, no advection.
//! * [`StencilLayerKind::Cavity`] — a liquid micro-channel layer: upwind
//!   advection along +x (each cell couples to its upstream neighbour
//!   only — the structurally *nonsymmetric* part of the operator),
//!   vertical convective coupling through the interfaces, no lateral
//!   conduction.
//! * [`StencilLayerKind::DirichletCavity`] — a two-phase cavity pinned at
//!   saturation temperature: its rows are exact identity rows (`T = T_sat`
//!   moves to the right-hand side), while neighbouring solid rows still
//!   couple *into* the cavity column through one-sided interface
//!   conductances.
//!
//! # Coarsening
//!
//! [`StencilOperator::coarsen`] re-discretises the same physics on the
//! 2×-coarser in-plane grid ([`GridShape::coarsened`]), the exact-physics
//! hierarchy builder for the geometric multigrid preconditioner: lateral
//! conductances are invariant under uniform 2× in-plane coarsening
//! (`k·(2Δy)·t/(2Δx) = k·Δy·t/Δx`), area-proportional couplings
//! (interfaces, wall skips, per-cell capacitance, sink spreading) scale
//! ×4, the advection coefficient (∝ channel count × Δy) scales ×2, and
//! the lumped sink node passes through unchanged.

use std::ops::Range;

use cmosaic_sparse::{CscMatrix, GridShape, LinearOperator};

/// Physical role of one layer of a [`StencilOperator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilLayerKind {
    /// Conducting solid: lateral + vertical conduction, no advection.
    Solid,
    /// Single-phase coolant cavity: upwind advection along +x plus
    /// vertical convective coupling; no lateral conduction.
    Cavity,
    /// Two-phase cavity pinned at saturation temperature: identity rows,
    /// with one-sided couplings from the neighbouring solid rows.
    DirichletCavity,
}

/// Per-layer stencil coefficients (all conductances in W/K).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilLayer {
    /// What the layer is; constrains which coefficients may be nonzero
    /// (see [`StencilOperator::new`]).
    pub kind: StencilLayerKind,
    /// Lateral conductance between x-neighbours.
    pub gx: f64,
    /// Lateral conductance between y-neighbours.
    pub gy: f64,
    /// Upwind advection coefficient: `+adv` on the diagonal, `-adv` to
    /// the upstream (x−1) neighbour; inlet cells carry the upstream term
    /// on the right-hand side instead.
    pub adv: f64,
    /// Extra diagonal term per cell — the backward-Euler `C/Δt` shift
    /// (zero for steady-state operators).
    pub diag_extra: f64,
}

/// Vertical coupling across one interface, between layers `z` and `z+1`.
///
/// Stored one-sided so Dirichlet cavities fall out naturally: the matrix
/// entry `a[z+1·plane, z·plane] = -lower` (how strongly the *upper* row
/// couples down into the lower column) and `a[z·plane, z+1·plane] =
/// -upper`. Symmetric conduction/convection sets `lower == upper`; a
/// Dirichlet cavity zeroes the component pointing *out of* its own row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilInterface {
    /// Conductance carried by the upper layer's row toward the lower
    /// layer (column-`z` entry).
    pub lower: f64,
    /// Conductance carried by the lower layer's row toward the upper
    /// layer (column-`z+1` entry).
    pub upper: f64,
}

impl StencilInterface {
    /// A symmetric interface coupling of conductance `g`.
    pub fn symmetric(g: f64) -> Self {
        StencilInterface { lower: g, upper: g }
    }
}

/// The lumped heat-sink node terminating the stack (always the last
/// unknown).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilSink {
    /// Spreading conductance from each top-layer cell to the sink node.
    pub g_top: f64,
    /// Sink-to-ambient conductance (its ambient product lives in the
    /// model's right-hand side, not in the operator).
    pub lumped: f64,
    /// Sink `C/Δt` diagonal shift for transient operators.
    pub diag_extra: f64,
}

/// Which column a [`Term::Shift`] of row `r = (z, iy, ix)` reads, with
/// `nxy = nx·ny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// `r − k·nxy`: the same cell `k` layers down (`k = 1` across the
    /// interface, `k = 2` through a cavity's walls).
    Down(usize),
    /// `r − nx`, for rows with `iy > 0`.
    South,
    /// `r − 1`, for rows with `ix > 0`.
    West,
    /// `r + 1`, for rows with `ix + 1 < nx`.
    East,
    /// `r + nx`, for rows with `iy + 1 < ny`.
    North,
    /// `r + k·nxy`: the same cell `k` layers up.
    Up(usize),
}

impl Reach {
    /// For the line of rows starting at global row `row` (y-row `iy` of
    /// its layer): the in-line range of rows that have this neighbour, and
    /// the column the first of them reads. Empty when the line has none.
    fn span(self, shape: GridShape, row: usize, iy: usize) -> (Range<usize>, usize) {
        let GridShape { nx, ny, .. } = shape;
        let nxy = nx * ny;
        match self {
            Reach::Down(k) => (0..nx, row - k * nxy),
            Reach::South if iy > 0 => (0..nx, row - nx),
            Reach::West => (1..nx, row),
            Reach::East => (0..nx - 1, row + 1),
            Reach::North if iy + 1 < ny => (0..nx, row + nx),
            Reach::South | Reach::North => (0..0, row),
            Reach::Up(k) => (0..nx, row + k * nxy),
        }
    }
}

/// Upwind chains the cavity Gauss–Seidel sweep advances together per x
/// step (see `StencilOperator::cavity_sweep`).
const CHANNELS: usize = 4;

/// One term of every row of a layer: the matrix entry's value and the
/// column it multiplies.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Term {
    /// `coef·x[col]` with the column given by the [`Reach`].
    Shift(Reach, f64),
    /// `diag[r]·x[r]`, from the precomputed diagonal.
    Diag,
    /// `coef·x[sink]`: the spreading term of a top-layer row.
    Sink(f64),
}

/// Matrix-free structured-grid thermal operator; see the
/// [module docs](self) for the representation, the bit-identity contract
/// with [`StencilOperator::assemble`], and the coarsening rules.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilOperator {
    shape: GridShape,
    layers: Vec<StencilLayer>,
    interfaces: Vec<StencilInterface>,
    walls: Vec<f64>,
    sink: Option<StencilSink>,
    /// Precomputed diagonal (length `shape.n()`), shared verbatim by
    /// `matvec_into` and `assemble` so the two forms cannot disagree on
    /// the one entry built from many terms.
    diag: Vec<f64>,
    /// Per-layer term lists in ascending column order, the one
    /// description of the matrix that `matvec_into` and `assemble` both
    /// read.
    terms: Vec<Vec<Term>>,
}

impl StencilOperator {
    /// Builds the operator and precomputes its diagonal and per-layer
    /// term lists.
    ///
    /// `walls[z]` is the conduction skip *through the walls of cavity
    /// `z`*, coupling layers `z-1` and `z+1` directly; boundary entries
    /// (`walls[0]`, `walls[nz-1]`) must be zero since they have no pair
    /// of neighbours to couple.
    ///
    /// # Panics
    ///
    /// Panics when the inputs are inconsistent (programmer error — the
    /// thermal model constructs these from validated geometry):
    /// `layers`/`interfaces`/`walls` lengths not `nz`/`nz-1`/`nz`,
    /// `shape.extra` disagreeing with `sink.is_some()`, a non-finite or
    /// negative coefficient, a nonzero boundary wall entry, or a
    /// coefficient forbidden by the layer kind ([`Solid`] with advection,
    /// [`Cavity`] with lateral conduction, [`DirichletCavity`] with any
    /// nonzero coefficient).
    ///
    /// [`Solid`]: StencilLayerKind::Solid
    /// [`Cavity`]: StencilLayerKind::Cavity
    /// [`DirichletCavity`]: StencilLayerKind::DirichletCavity
    pub fn new(
        shape: GridShape,
        layers: Vec<StencilLayer>,
        interfaces: Vec<StencilInterface>,
        walls: Vec<f64>,
        sink: Option<StencilSink>,
    ) -> Self {
        let nz = shape.nz;
        assert!(nz >= 1 && shape.nx >= 1 && shape.ny >= 1, "empty grid");
        assert_eq!(layers.len(), nz, "one StencilLayer per tier");
        assert_eq!(
            interfaces.len(),
            nz - 1,
            "one StencilInterface per adjacent layer pair"
        );
        assert_eq!(walls.len(), nz, "one wall-skip conductance per tier");
        assert_eq!(
            shape.extra,
            usize::from(sink.is_some()),
            "shape.extra must count exactly the sink node"
        );
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        for (z, l) in layers.iter().enumerate() {
            assert!(
                ok(l.gx) && ok(l.gy) && ok(l.adv) && ok(l.diag_extra),
                "layer {z}: non-finite or negative coefficient"
            );
            match l.kind {
                StencilLayerKind::Solid => {
                    assert!(l.adv == 0.0, "layer {z}: solid layers do not advect")
                }
                StencilLayerKind::Cavity => assert!(
                    l.gx == 0.0 && l.gy == 0.0,
                    "layer {z}: cavities have no lateral conduction"
                ),
                StencilLayerKind::DirichletCavity => assert!(
                    l.gx == 0.0 && l.gy == 0.0 && l.adv == 0.0 && l.diag_extra == 0.0,
                    "layer {z}: Dirichlet rows are identity rows"
                ),
            }
        }
        for (z, i) in interfaces.iter().enumerate() {
            assert!(
                ok(i.lower) && ok(i.upper),
                "interface {z}: non-finite or negative coupling"
            );
        }
        for (z, &w) in walls.iter().enumerate() {
            assert!(ok(w), "wall {z}: non-finite or negative conductance");
            assert!(
                w == 0.0 || (z >= 1 && z + 1 < nz),
                "wall {z}: boundary layers have no pair of neighbours to skip-couple"
            );
        }
        if let Some(s) = &sink {
            assert!(
                ok(s.g_top) && ok(s.lumped) && ok(s.diag_extra),
                "sink: non-finite or negative coefficient"
            );
        }

        let mut op = StencilOperator {
            shape,
            layers,
            interfaces,
            walls,
            sink,
            diag: vec![0.0; shape.n()],
            terms: Vec::new(),
        };
        op.compute_diagonal();
        op.terms = op.build_terms();
        op
    }

    /// Rebuilds `self.diag` from the current coefficients.
    fn compute_diagonal(&mut self) {
        let GridShape { nx, ny, nz, .. } = self.shape;
        let mut c = 0usize;
        for (z, layer) in self.layers.iter().enumerate() {
            for iy in 0..ny {
                for ix in 0..nx {
                    self.diag[c] = if layer.kind == StencilLayerKind::DirichletCavity {
                        1.0
                    } else {
                        let x_nb = u32::from(ix > 0) + u32::from(ix + 1 < nx);
                        let y_nb = u32::from(iy > 0) + u32::from(iy + 1 < ny);
                        let mut d = layer.diag_extra
                            + layer.adv
                            + layer.gx * f64::from(x_nb)
                            + layer.gy * f64::from(y_nb);
                        if z >= 1 {
                            d += self.interfaces[z - 1].lower;
                        }
                        if z + 1 < nz {
                            d += self.interfaces[z].upper;
                        }
                        if z >= 2 {
                            d += self.walls[z - 1];
                        }
                        if z + 2 < nz {
                            d += self.walls[z + 1];
                        }
                        if z + 1 == nz {
                            if let Some(s) = &self.sink {
                                d += s.g_top;
                            }
                        }
                        d
                    };
                    c += 1;
                }
            }
        }
        if let Some(s) = &self.sink {
            self.diag[c] = s.lumped + s.diag_extra + (nx * ny) as f64 * s.g_top;
        }
    }

    /// The structured-grid shape this operator lives on.
    pub fn shape(&self) -> GridShape {
        self.shape
    }

    /// The precomputed main diagonal (length `shape.n()`) — what the
    /// multigrid Jacobi smoother consumes.
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// Per-layer coefficients, bottom tier first.
    pub fn layers(&self) -> &[StencilLayer] {
        &self.layers
    }

    /// Per-interface vertical couplings (`nz - 1` entries).
    pub fn interfaces(&self) -> &[StencilInterface] {
        &self.interfaces
    }

    /// Cavity wall-skip conductances (`nz` entries, boundaries zero).
    pub fn walls(&self) -> &[f64] {
        &self.walls
    }

    /// The lumped sink node, when present.
    pub fn sink(&self) -> Option<&StencilSink> {
        self.sink.as_ref()
    }

    /// The term list of every layer's rows, in ascending column order.
    /// A coefficient that is exactly zero is structurally absent and gets
    /// no term.
    fn build_terms(&self) -> Vec<Vec<Term>> {
        fn shift(terms: &mut Vec<Term>, reach: Reach, g: f64) {
            if g != 0.0 {
                terms.push(Term::Shift(reach, -g));
            }
        }
        let nz = self.shape.nz;
        let mut all = Vec::with_capacity(nz);
        for (z, layer) in self.layers.iter().enumerate() {
            let mut t = Vec::new();
            if z >= 2 {
                shift(&mut t, Reach::Down(2), self.walls[z - 1]);
            }
            if z >= 1 {
                shift(&mut t, Reach::Down(1), self.interfaces[z - 1].lower);
            }
            shift(&mut t, Reach::South, layer.gy);
            // At most one of gx/adv is nonzero (enforced per kind), so this
            // is lateral conduction on solid layers and the upwind term on
            // cavity layers.
            shift(&mut t, Reach::West, layer.gx + layer.adv);
            t.push(Term::Diag);
            shift(&mut t, Reach::East, layer.gx);
            shift(&mut t, Reach::North, layer.gy);
            if z + 1 < nz {
                shift(&mut t, Reach::Up(1), self.interfaces[z].upper);
            }
            if z + 2 < nz {
                shift(&mut t, Reach::Up(2), self.walls[z + 1]);
            }
            match self.sink {
                Some(s) if z + 1 == nz && s.g_top != 0.0 => t.push(Term::Sink(-s.g_top)),
                _ => {}
            }
            all.push(t);
        }
        all
    }

    /// `y = A·x`, fully overwriting `y`, with zero heap allocation —
    /// bit-identical to `assemble().matvec_into(x, y)` (see the
    /// [module docs](self)). Each `(layer, y-row)` line of `y` is
    /// gathered as one contiguous slice pass per term.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differs from `shape.n()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.shape.n();
        assert_eq!(x.len(), n, "matvec_into: x dimension mismatch");
        assert_eq!(y.len(), n, "matvec_into: y dimension mismatch");
        let GridShape { nx, ny, .. } = self.shape;
        let cells = self.shape.cells();
        for (z, terms) in self.terms.iter().enumerate() {
            for iy in 0..ny {
                let row = (z * ny + iy) * nx;
                let out = &mut y[row..row + nx];
                out.fill(0.0);
                for &term in terms {
                    match term {
                        Term::Shift(reach, g) => {
                            let (ixs, col) = reach.span(self.shape, row, iy);
                            for (o, &v) in out[ixs].iter_mut().zip(&x[col..]) {
                                *o += g * v;
                            }
                        }
                        Term::Diag => {
                            let diag = &self.diag[row..row + nx];
                            for ((o, &d), &v) in out.iter_mut().zip(diag).zip(&x[row..]) {
                                *o += d * v;
                            }
                        }
                        Term::Sink(g) => {
                            let p = g * x[cells];
                            for o in out.iter_mut() {
                                *o += p;
                            }
                        }
                    }
                }
            }
        }
        if let Some(s) = &self.sink {
            // The sink row: every top-layer cell column, then the sink's
            // own diagonal.
            let mut acc = 0.0;
            if s.g_top != 0.0 {
                let g = -s.g_top;
                for &v in &x[cells - nx * ny..cells] {
                    acc += g * v;
                }
            }
            y[cells] = acc + self.diag[cells] * x[cells];
        }
    }

    /// Assembles the operator into CSC form from the same term list as
    /// [`Self::matvec_into`]: the result's `matvec_into` is bit-identical
    /// to the stencil's, and its pattern is the exact structural sparsity
    /// (no explicit zeros).
    pub fn assemble(&self) -> CscMatrix {
        let GridShape { nx, ny, .. } = self.shape;
        let n = self.shape.n();
        let cells = self.shape.cells();
        let mut rows: Vec<usize> = Vec::new();
        let mut cols: Vec<usize> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut emit = |r: usize, c: usize, v: f64| {
            rows.push(r);
            cols.push(c);
            vals.push(v);
        };
        for (z, terms) in self.terms.iter().enumerate() {
            for iy in 0..ny {
                let row = (z * ny + iy) * nx;
                for ix in 0..nx {
                    for &term in terms {
                        match term {
                            Term::Shift(reach, g) => {
                                let (ixs, col) = reach.span(self.shape, row, iy);
                                if ixs.contains(&ix) {
                                    emit(row + ix, col + ix - ixs.start, g);
                                }
                            }
                            Term::Diag => emit(row + ix, row + ix, self.diag[row + ix]),
                            Term::Sink(g) => emit(row + ix, cells, g),
                        }
                    }
                }
            }
        }
        if let Some(s) = &self.sink {
            if s.g_top != 0.0 {
                for c in cells - nx * ny..cells {
                    emit(cells, c, -s.g_top);
                }
            }
            emit(cells, cells, self.diag[cells]);
        }
        CscMatrix::from_triplets(n, n, &rows, &cols, &vals)
    }

    /// The downstream Gauss–Seidel substitution of a smoothing pass
    /// ([`LinearOperator::relax_after_jacobi`]) over cavity layer `z`:
    /// each cell, in ascending x along its channel, takes its full row
    /// solution `x[c] = (b[c] − Σ_offdiag)/diag` given the current
    /// vertical neighbours. Cavity rows have no lateral conduction, so the
    /// off-diagonals are the upstream advective neighbour (already updated
    /// this sweep — the Gauss–Seidel part), the vertical couplings, any
    /// wall skips and the sink spreading term, added in that order.
    ///
    /// Channels (y-rows) are independent chains; [`CHANNELS`] of them
    /// advance together per x step so their dependent sums overlap. Every
    /// cell still gets the same sum in the same order.
    fn cavity_sweep(&self, z: usize, adv: f64, x: &mut [f64], b: &[f64], inv_diag: &[f64]) {
        let GridShape { nx, ny, nz, .. } = self.shape;
        let nxy = nx * ny;
        let sink = self
            .sink
            .filter(|_| z + 1 == nz)
            .map(|s| s.g_top * x[self.shape.cells()]);
        let (below, rest) = x.split_at_mut(z * nxy);
        let (plane, above) = rest.split_at_mut(nxy);
        let wall_lo = (z >= 2 && self.walls[z - 1] != 0.0)
            .then(|| (self.walls[z - 1], &below[(z - 2) * nxy..(z - 1) * nxy]));
        let iface_lo = (z >= 1).then(|| (self.interfaces[z - 1].lower, &below[(z - 1) * nxy..]));
        let iface_hi = (z + 1 < nz).then(|| (self.interfaces[z].upper, &above[..nxy]));
        let wall_hi = (z + 2 < nz && self.walls[z + 1] != 0.0)
            .then(|| (self.walls[z + 1], &above[nxy..2 * nxy]));
        let b = &b[z * nxy..(z + 1) * nxy];
        let inv = &inv_diag[z * nxy..(z + 1) * nxy];
        for first in (0..ny).step_by(CHANNELS) {
            let channels = first..(first + CHANNELS).min(ny);
            for ix in 0..nx {
                for iy in channels.clone() {
                    let c = iy * nx + ix;
                    let mut s = b[c];
                    if ix > 0 {
                        s += adv * plane[c - 1];
                    }
                    if let Some((w, v)) = wall_lo {
                        s += w * v[c];
                    }
                    if let Some((g, v)) = iface_lo {
                        s += g * v[c];
                    }
                    if let Some((g, v)) = iface_hi {
                        s += g * v[c];
                    }
                    if let Some((w, v)) = wall_hi {
                        s += w * v[c];
                    }
                    if let Some(p) = sink {
                        s += p;
                    }
                    plane[c] = s * inv[c];
                }
            }
        }
    }

    /// Re-discretises the operator on the 2×-coarser in-plane grid, or
    /// `None` when the shape cannot coarsen ([`GridShape::coarsened`]).
    /// See the [module docs](self) for the scaling rules.
    pub fn coarsen(&self) -> Option<StencilOperator> {
        let shape = self.shape.coarsened()?;
        let layers = self
            .layers
            .iter()
            .map(|l| StencilLayer {
                kind: l.kind,
                gx: l.gx,
                gy: l.gy,
                adv: 2.0 * l.adv,
                diag_extra: 4.0 * l.diag_extra,
            })
            .collect();
        let interfaces = self
            .interfaces
            .iter()
            .map(|i| StencilInterface {
                lower: 4.0 * i.lower,
                upper: 4.0 * i.upper,
            })
            .collect();
        let walls = self.walls.iter().map(|&w| 4.0 * w).collect();
        let sink = self.sink.map(|s| StencilSink {
            g_top: 4.0 * s.g_top,
            lumped: s.lumped,
            diag_extra: s.diag_extra,
        });
        Some(StencilOperator::new(shape, layers, interfaces, walls, sink))
    }
}

impl LinearOperator for StencilOperator {
    fn nrows(&self) -> usize {
        self.shape.n()
    }

    fn ncols(&self) -> usize {
        self.shape.n()
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        StencilOperator::matvec_into(self, x, y);
    }

    /// Maximum absolute value over the *emitted* entries — bit-identical
    /// to `LinearOperator::max_abs` of [`Self::assemble`]'s result: the
    /// diagonal array plus each structurally present coefficient class
    /// (lateral/advective terms exist only when the grid spans more than
    /// one cell along the axis; boundary walls are zero by construction).
    fn max_abs(&self) -> f64 {
        let mut m = self.diag.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for layer in &self.layers {
            if self.shape.nx > 1 {
                m = m.max(layer.gx.abs()).max(layer.adv.abs());
            }
            if self.shape.ny > 1 {
                m = m.max(layer.gy.abs());
            }
        }
        for i in &self.interfaces {
            m = m.max(i.lower.abs()).max(i.upper.abs());
        }
        for &w in &self.walls {
            m = m.max(w.abs());
        }
        if let Some(s) = &self.sink {
            m = m.max(s.g_top.abs());
        }
        m
    }

    /// One downstream Gauss–Seidel substitution along each advecting
    /// cavity channel after the damped-Jacobi update, in ascending-x order
    /// so the substitution solves the upwind advection chain *exactly*
    /// given the current vertical neighbours. Point Jacobi alone moves
    /// advective error only one cell upstream per sweep, making V-cycle
    /// convergence degrade ∝ nx on liquid-cooled stacks; the flow-ordered
    /// pass restores resolution-independent smoothing while remaining a
    /// deterministic, allocation-free linear function of `(x, b)` (fixed
    /// traversal order, no branches on values).
    fn relax_after_jacobi(&self, x: &mut [f64], b: &[f64], inv_diag: &[f64]) {
        for (z, layer) in self.layers.iter().enumerate() {
            // Only Cavity layers carry advection (enforced in `new`);
            // Dirichlet rows are identity rows the Jacobi pass already
            // solved exactly.
            if layer.adv != 0.0 {
                self.cavity_sweep(z, layer.adv, x, b, inv_diag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG over (-1, 1) — the crate has no dev-dependency
    /// on a property-testing framework, so randomized coverage is seeded
    /// and reproducible by construction.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (*state >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * unit - 1.0
    }

    fn solid(g: f64, extra: f64) -> StencilLayer {
        StencilLayer {
            kind: StencilLayerKind::Solid,
            gx: g,
            gy: 0.8 * g,
            adv: 0.0,
            diag_extra: extra,
        }
    }

    fn cavity(adv: f64) -> StencilLayer {
        StencilLayer {
            kind: StencilLayerKind::Cavity,
            gx: 0.0,
            gy: 0.0,
            adv,
            diag_extra: 0.0,
        }
    }

    fn dirichlet() -> StencilLayer {
        StencilLayer {
            kind: StencilLayerKind::DirichletCavity,
            gx: 0.0,
            gy: 0.0,
            adv: 0.0,
            diag_extra: 0.0,
        }
    }

    /// A 4-tier liquid-cooled stack slice: solid / cavity / solid / solid
    /// with a wall skip through the cavity and a lumped sink on top.
    fn liquid_stack(nx: usize, ny: usize, transient: bool) -> StencilOperator {
        let extra = if transient { 2.5e-3 } else { 0.0 };
        StencilOperator::new(
            GridShape {
                nx,
                ny,
                nz: 4,
                extra: 1,
            },
            vec![
                solid(1.7, extra),
                cavity(0.45),
                solid(2.1, 1.3 * extra),
                solid(0.9, 0.7 * extra),
            ],
            vec![
                StencilInterface::symmetric(0.31),
                StencilInterface::symmetric(0.27),
                StencilInterface::symmetric(1.9),
            ],
            vec![0.0, 0.12, 0.0, 0.0],
            Some(StencilSink {
                g_top: 3.4,
                lumped: 11.0,
                diag_extra: if transient { 0.8 } else { 0.0 },
            }),
        )
    }

    /// A stack whose cavity is a Dirichlet (two-phase) layer: one-sided
    /// interface couplings into the cavity column, identity cavity rows.
    fn dirichlet_stack(nx: usize, ny: usize) -> StencilOperator {
        StencilOperator::new(
            GridShape {
                nx,
                ny,
                nz: 3,
                extra: 1,
            },
            vec![solid(1.1, 0.0), dirichlet(), solid(1.4, 0.0)],
            vec![
                StencilInterface {
                    lower: 0.0,
                    upper: 0.62,
                },
                StencilInterface {
                    lower: 0.55,
                    upper: 0.0,
                },
            ],
            vec![0.0, 0.09, 0.0],
            Some(StencilSink {
                g_top: 2.2,
                lumped: 7.5,
                diag_extra: 0.0,
            }),
        )
    }

    /// Draws a test vector with exact zeros sprinkled in (every fifth
    /// entry, plus one negative zero) to exercise the column-skip
    /// predicate both forms share.
    fn seeded_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut x: Vec<f64> = (0..n).map(|_| lcg(&mut state)).collect();
        for (i, v) in x.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = 0.0;
            }
        }
        if n > 3 {
            x[3] = -0.0;
        }
        x
    }

    fn assert_bitwise_matvec(op: &StencilOperator, seed: u64) {
        let a = op.assemble();
        let n = op.shape().n();
        assert_eq!(a.nrows(), n);
        let x = seeded_vector(n, seed);
        let mut y_stencil = vec![f64::NAN; n];
        let mut y_csc = vec![f64::NAN; n];
        op.matvec_into(&x, &mut y_stencil);
        a.matvec_into(&x, &mut y_csc);
        for (i, (s, c)) in y_stencil.iter().zip(&y_csc).enumerate() {
            assert_eq!(
                s.to_bits(),
                c.to_bits(),
                "row {i}: stencil {s:e} != assembled {c:e}"
            );
        }
    }

    #[test]
    fn matvec_is_bit_identical_to_assembled_csc() {
        for (i, op) in [
            liquid_stack(5, 3, false),
            liquid_stack(5, 3, true),
            liquid_stack(1, 4, true), // nx == 1: no lateral-x, no advection entries
            liquid_stack(6, 1, false), // ny == 1: no lateral-y entries
            dirichlet_stack(4, 3),
        ]
        .iter()
        .enumerate()
        {
            for seed in [1u64, 77, 2026] {
                assert_bitwise_matvec(op, seed + i as u64);
            }
        }
    }

    #[test]
    fn max_abs_is_bit_identical_to_assembled_fold() {
        for op in [
            liquid_stack(5, 3, true),
            liquid_stack(1, 4, false),
            liquid_stack(6, 1, true),
            dirichlet_stack(4, 3),
        ] {
            let a = op.assemble();
            assert_eq!(
                LinearOperator::max_abs(&op).to_bits(),
                LinearOperator::max_abs(&a).to_bits()
            );
        }
    }

    #[test]
    fn assembled_structure_matches_the_physics() {
        let op = liquid_stack(4, 3, false);
        let a = op.assemble();
        let nxy = 12;
        // Cavity layer (z = 1): upwind advection couples cell (1,0,1) to
        // its upstream neighbour only — structurally nonsymmetric.
        let c = nxy + 1;
        assert_eq!(a.get(c, c - 1), -0.45, "downstream row, upstream column");
        assert_eq!(a.get(c - 1, c), 0.0, "no reverse advective coupling");
        // No lateral conduction within the cavity.
        assert_eq!(a.get(c, c + 4), 0.0);
        // Wall skip through the cavity couples z=0 and z=2 directly.
        assert_eq!(a.get(1, 1 + 2 * nxy), -0.12);
        assert_eq!(a.get(1 + 2 * nxy, 1), -0.12);
        // Sink: every top-layer cell couples symmetrically to the last
        // node.
        let s = op.shape().cells();
        let top0 = 3 * nxy;
        assert_eq!(a.get(s, top0), -3.4);
        assert_eq!(a.get(top0, s), -3.4);
        assert_eq!(a.get(s, s), 11.0 + 12.0 * 3.4);
        // Solid lateral conduction is symmetric.
        assert_eq!(a.get(0, 1), -1.7);
        assert_eq!(a.get(1, 0), -1.7);
    }

    #[test]
    fn dirichlet_rows_are_identity_with_one_sided_couplings() {
        let op = dirichlet_stack(4, 3);
        let a = op.assemble();
        let nxy = 12;
        for cell in nxy..2 * nxy {
            // The cavity row is exactly [0.. 1 ..0].
            for col in 0..a.ncols() {
                let expect = if col == cell { 1.0 } else { 0.0 };
                assert_eq!(a.get(cell, col), expect, "row {cell}, col {col}");
            }
            // ...while the neighbouring solid rows still reach in.
            assert_eq!(a.get(cell - nxy, cell), -0.62, "below couples into cavity");
            assert_eq!(a.get(cell + nxy, cell), -0.55, "above couples into cavity");
        }
    }

    #[test]
    fn row_sums_reduce_to_source_and_storage_terms() {
        // A·1: conduction/convection terms cancel per row, leaving the
        // C/Δt shifts, the advective inlet excess, and the sink's
        // ambient-side conductance.
        let op = liquid_stack(4, 3, true);
        let n = op.shape().n();
        let ones = vec![1.0; n];
        let mut y = vec![0.0; n];
        op.matvec_into(&ones, &mut y);
        let nxy = 12;
        let layers = op.layers();
        for (c, &v) in y.iter().enumerate().take(op.shape().cells()) {
            let z = c / nxy;
            let ix = c % 4;
            let mut expect = layers[z].diag_extra;
            if layers[z].kind == StencilLayerKind::Cavity && ix == 0 {
                expect += layers[z].adv; // inlet upstream term lives on the RHS
            }
            assert!(
                (v - expect).abs() <= 1e-12 * op.max_abs(),
                "row {c}: got {v}, expected {expect}"
            );
        }
        let sink = op.sink().unwrap();
        assert!((y[n - 1] - (sink.lumped + sink.diag_extra)).abs() <= 1e-12 * op.max_abs());
    }

    #[test]
    fn coarsening_rescales_couplings_for_the_quadrupled_cell_area() {
        let fine = liquid_stack(8, 6, true);
        let coarse = fine.coarsen().expect("8x6 coarsens");
        assert_eq!(
            coarse.shape(),
            GridShape {
                nx: 4,
                ny: 3,
                nz: 4,
                extra: 1
            }
        );
        for (f, c) in fine.layers().iter().zip(coarse.layers()) {
            assert_eq!(c.kind, f.kind);
            assert_eq!(c.gx, f.gx, "lateral conductance is scale-invariant");
            assert_eq!(c.gy, f.gy);
            assert_eq!(c.adv, 2.0 * f.adv, "advection scales with channel count");
            assert_eq!(
                c.diag_extra,
                4.0 * f.diag_extra,
                "capacitance scales with area"
            );
        }
        for (f, c) in fine.interfaces().iter().zip(coarse.interfaces()) {
            assert_eq!(c.lower, 4.0 * f.lower);
            assert_eq!(c.upper, 4.0 * f.upper);
        }
        for (f, c) in fine.walls().iter().zip(coarse.walls()) {
            assert_eq!(*c, 4.0 * f);
        }
        let (fs, cs) = (fine.sink().unwrap(), coarse.sink().unwrap());
        assert_eq!(cs.g_top, 4.0 * fs.g_top);
        assert_eq!(cs.lumped, fs.lumped, "the lumped node does not coarsen");
        assert_eq!(cs.diag_extra, fs.diag_extra);
        // The coarse operator keeps the bit-identity contract too.
        assert_bitwise_matvec(&coarse, 11);
        // Coarsening stops once an in-plane dimension turns odd.
        assert!(coarse.coarsen().is_none(), "4x3 has an odd axis");
    }

    #[test]
    fn coarsen_refuses_odd_or_degenerate_shapes() {
        assert!(liquid_stack(5, 4, false).coarsen().is_none(), "odd nx");
        assert!(liquid_stack(4, 3, false).coarsen().is_none(), "odd ny");
        assert!(liquid_stack(1, 4, false).coarsen().is_none(), "nx below 2");
    }

    #[test]
    fn constant_diag_shift_moves_rows_uniformly() {
        // Transient vs steady operators differ exactly by C/Δt on the
        // diagonal: A_t·x − A_s·x == diag_extra·x per row.
        let steady = liquid_stack(4, 3, false);
        let transient = liquid_stack(4, 3, true);
        let n = steady.shape().n();
        let x = seeded_vector(n, 5);
        let mut ys = vec![0.0; n];
        let mut yt = vec![0.0; n];
        steady.matvec_into(&x, &mut ys);
        transient.matvec_into(&x, &mut yt);
        let nxy = 12;
        for c in 0..steady.shape().cells() {
            let extra = transient.layers()[c / nxy].diag_extra;
            assert!(
                ((yt[c] - ys[c]) - extra * x[c]).abs() <= 1e-12 * transient.max_abs(),
                "cell {c}"
            );
        }
    }

    /// Uniform draw from `0..k`.
    fn pick(state: &mut u64, k: usize) -> usize {
        ((lcg(state) + 1.0) * 0.5 * k as f64) as usize % k
    }

    /// A conductance in (0, 2), or an exact zero one time in four.
    fn coef(state: &mut u64) -> f64 {
        if pick(state, 4) == 0 {
            0.0
        } else {
            1.0 + lcg(state)
        }
    }

    /// An operator of random shape (nx, ny in 1..=9, nz in 1..=6), random
    /// layer kinds and random coefficients with exact zeros, wall skips
    /// on interior layers and a sink half of the time.
    fn random_operator(state: &mut u64) -> StencilOperator {
        let nx = 1 + pick(state, 9);
        let ny = 1 + pick(state, 9);
        let nz = 1 + pick(state, 6);
        let with_sink = pick(state, 2) == 1;
        let layers = (0..nz)
            .map(|_| match pick(state, 3) {
                0 => StencilLayer {
                    kind: StencilLayerKind::Solid,
                    gx: coef(state),
                    gy: coef(state),
                    adv: 0.0,
                    diag_extra: coef(state),
                },
                1 => StencilLayer {
                    adv: coef(state),
                    diag_extra: coef(state),
                    ..cavity(0.0)
                },
                _ => dirichlet(),
            })
            .collect();
        let interfaces = (1..nz)
            .map(|_| StencilInterface {
                lower: coef(state),
                upper: coef(state),
            })
            .collect();
        let walls = (0..nz)
            .map(|z| {
                if z >= 1 && z + 1 < nz {
                    coef(state)
                } else {
                    0.0
                }
            })
            .collect();
        let sink = with_sink.then(|| StencilSink {
            g_top: coef(state),
            lumped: coef(state),
            diag_extra: coef(state),
        });
        StencilOperator::new(
            GridShape {
                nx,
                ny,
                nz,
                extra: usize::from(with_sink),
            },
            layers,
            interfaces,
            walls,
            sink,
        )
    }

    /// A vector mixing ordinary values with every class of IEEE special
    /// the products must carry through: ±0, NaN, ±∞, subnormals.
    fn hostile_vector(n: usize, state: &mut u64) -> Vec<f64> {
        const SPECIALS: [f64; 8] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -2.5e-310,
            f64::MIN_POSITIVE,
        ];
        (0..n)
            .map(|_| {
                if pick(state, 3) == 0 {
                    SPECIALS[pick(state, SPECIALS.len())]
                } else {
                    lcg(state) * 1e3
                }
            })
            .collect()
    }

    #[test]
    fn random_operators_match_their_assembled_form_on_ieee_specials() {
        let mut state = 0x5eed_u64;
        for case in 0..300 {
            let op = random_operator(&mut state);
            let a = op.assemble();
            let n = op.shape().n();
            for _ in 0..4 {
                let x = hostile_vector(n, &mut state);
                let mut y_stencil = vec![1.0; n];
                let mut y_csc = vec![-1.0; n];
                op.matvec_into(&x, &mut y_stencil);
                a.matvec_into(&x, &mut y_csc);
                for (i, (s, c)) in y_stencil.iter().zip(&y_csc).enumerate() {
                    // Rust leaves the sign and payload of a NaN result
                    // unspecified (an operation on two different NaNs may
                    // return either), so NaN rows must agree on being
                    // NaN; every other row agrees bit for bit.
                    assert!(
                        s.to_bits() == c.to_bits() || (s.is_nan() && c.is_nan()),
                        "case {case} {:?}, row {i}: stencil {s:e} != assembled {c:e}",
                        op.shape()
                    );
                }
            }
        }
    }

    /// A smoothing pass from a `+0` iterate skips the product and ignores
    /// the iterate's stale contents, and still equals a zero-filled
    /// iterate's full pass bit for bit: on random operators (random
    /// kinds, exact-zero coefficients) and right-hand sides holding ±0
    /// and subnormals.
    #[test]
    fn smoothing_from_zero_matches_a_zero_filled_pass_bitwise() {
        let mut state = 0x5e7_2e20_u64;
        for case in 0..300 {
            let op = random_operator(&mut state);
            let n = op.shape().n();
            let inv_diag: Vec<f64> = op.diagonal().iter().map(|d| 1.0 / d).collect();
            for _ in 0..3 {
                let b: Vec<f64> = hostile_vector(n, &mut state)
                    .into_iter()
                    .map(|v| if v.is_finite() { v } else { -0.0 })
                    .collect();
                let mut expect = vec![0.0; n];
                op.smooth_pass(&mut expect, &b, &inv_diag, 0.8, &mut vec![0.0; n]);
                let mut x = hostile_vector(n, &mut state);
                op.smooth_pass_from_zero(&mut x, &b, &inv_diag, 0.8);
                for (i, (u, v)) in x.iter().zip(&expect).enumerate() {
                    // A zero diagonal (random operators have some) makes
                    // ∞·0 = NaN, whose sign Rust leaves unspecified.
                    assert!(
                        u.to_bits() == v.to_bits() || (u.is_nan() && v.is_nan()),
                        "case {case} {:?}, entry {i}: {u:e} vs {v:e}",
                        op.shape()
                    );
                }
            }
        }
    }

    /// The smoother as it was written before the line kernels: the
    /// assembled product, an indexed Jacobi update, and a per-cell
    /// Gauss–Seidel substitution along each cavity channel.
    fn reference_smooth(
        op: &StencilOperator,
        x: &mut [f64],
        b: &[f64],
        inv_diag: &[f64],
        omega: f64,
    ) {
        let mut scratch = vec![0.0; x.len()];
        op.assemble().matvec_into(x, &mut scratch);
        for i in 0..x.len() {
            x[i] += omega * inv_diag[i] * (b[i] - scratch[i]);
        }
        let GridShape { nx, ny, nz, .. } = op.shape();
        let nxy = nx * ny;
        for (z, layer) in op.layers().iter().enumerate() {
            if layer.adv == 0.0 {
                continue;
            }
            for iy in 0..ny {
                for ix in 0..nx {
                    let c = z * nxy + iy * nx + ix;
                    let mut s = b[c];
                    if ix > 0 {
                        s += layer.adv * x[c - 1];
                    }
                    if z >= 2 {
                        let w = op.walls()[z - 1];
                        if w != 0.0 {
                            s += w * x[c - 2 * nxy];
                        }
                    }
                    if z >= 1 {
                        s += op.interfaces()[z - 1].lower * x[c - nxy];
                    }
                    if z + 1 < nz {
                        s += op.interfaces()[z].upper * x[c + nxy];
                    }
                    if z + 2 < nz {
                        let w = op.walls()[z + 1];
                        if w != 0.0 {
                            s += w * x[c + 2 * nxy];
                        }
                    }
                    if z + 1 == nz {
                        if let Some(sk) = op.sink() {
                            s += sk.g_top * x[op.shape().cells()];
                        }
                    }
                    x[c] = s * inv_diag[c];
                }
            }
        }
    }

    /// Two advecting cavities, one of them on top under the sink, with
    /// wall skips through both.
    fn multi_cavity_stack(nx: usize, ny: usize) -> StencilOperator {
        StencilOperator::new(
            GridShape {
                nx,
                ny,
                nz: 5,
                extra: 1,
            },
            vec![
                solid(1.3, 0.02),
                cavity(0.7),
                solid(0.8, 0.01),
                solid(1.9, 0.0),
                cavity(1.1),
            ],
            vec![
                StencilInterface::symmetric(0.4),
                StencilInterface::symmetric(0.35),
                StencilInterface::symmetric(2.2),
                StencilInterface::symmetric(0.5),
            ],
            vec![0.0, 0.15, 0.0, 0.21, 0.0],
            Some(StencilSink {
                g_top: 1.6,
                lumped: 4.0,
                diag_extra: 0.3,
            }),
        )
    }

    #[test]
    fn smooth_pass_matches_the_per_cell_smoother_bitwise() {
        let mut ops = Vec::new();
        for (nx, ny) in [(6, 5), (1, 4), (7, 1), (1, 1)] {
            ops.push(liquid_stack(nx, ny, true));
            ops.push(dirichlet_stack(nx, ny));
            ops.push(multi_cavity_stack(nx, ny));
        }
        let mut state = 0xc0ffee_u64;
        ops.extend((0..100).map(|_| random_operator(&mut state)));
        for (case, op) in ops.iter().enumerate() {
            let n = op.shape().n();
            // Zero diagonals (possible in random operators) give infinite
            // inverses; both smoothers must still agree bit for bit.
            let inv_diag: Vec<f64> = op.diagonal().iter().map(|d| 1.0 / d).collect();
            let b = seeded_vector(n, case as u64);
            let mut x = seeded_vector(n, 1000 + case as u64);
            let mut expect = x.clone();
            let mut scratch = vec![0.0; n];
            for _ in 0..3 {
                op.smooth_pass(&mut x, &b, &inv_diag, 0.8, &mut scratch);
                reference_smooth(op, &mut expect, &b, &inv_diag, 0.8);
                for (i, (u, v)) in x.iter().zip(&expect).enumerate() {
                    assert_eq!(
                        u.to_bits(),
                        v.to_bits(),
                        "case {case} {:?}, entry {i}: {u:e} vs {v:e}",
                        op.shape()
                    );
                }
            }
        }
    }
}
