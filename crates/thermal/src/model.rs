//! The compact thermal model itself: RC-network assembly and solvers.
//!
//! # Solver architecture: one symbolic analysis, many numeric sweeps
//!
//! The sparsity pattern of the RC network is fixed by (stack, grid): flow
//! rates, transient time steps and two-phase fixed-point sweeps change only
//! matrix *values*. The model therefore assembles the flow-independent
//! conduction/capacitance skeleton exactly once (`OperatorSkeleton`),
//! keeps a triplet→CSC scatter map so each new operating point is an
//! O(nnz) value rewrite into the existing CSC, and runs exactly one full
//! pivoting factorisation per configuration — every later operator is
//! produced by [`SymbolicLu`] numeric refactorisation (with an automatic
//! re-pivoting fallback if the frozen pivot sequence degrades). The
//! [`SolverStats`] counters expose which path each solve took.

use std::sync::Arc;

use cmosaic_floorplan::stack::{CavitySpec, HeatSinkSpec, LayerKind, Stack3d};
use cmosaic_floorplan::GridSpec;
use cmosaic_hydraulics::duct::ChannelGeometry;
use cmosaic_hydraulics::LiquidProperties;
use cmosaic_materials::units::{Kelvin, Pressure, VolumetricFlow};
use cmosaic_sparse::{
    bicgstab_into, lu, BicgstabOptions, CscMatrix, GridShape, IterativeWorkspace, LuFactors,
    Multigrid, MultigridOptions, SolveWorkspace, SparseError, SymbolicLu, TripletMatrix,
};

use crate::cache::LruCache;
use crate::field::TemperatureField;
use crate::params::{AdvectionScheme, Coolant, SolverBackend, ThermalParams, TwoPhaseCoolant};
use crate::stencil::{
    StencilInterface, StencilLayer, StencilLayerKind, StencilOperator, StencilSink,
};
use crate::ThermalError;

/// Bound on each operator cache (steady and transient separately): a
/// continuously-modulating controller visits unboundedly many operating
/// points, and evicted operators cost only a cheap refactorisation to
/// rebuild.
const OPERATOR_CACHE_CAPACITY: usize = 8;

/// Multigrid coarsening floor: levels keep descending while the current
/// level has at least this many in-plane cells, so the direct-solved
/// coarsest level stays trivially small without over-deepening the
/// hierarchy on already-small grids (which always get at least one
/// smoothed level when the grid can coarsen at all).
const MG_COARSEN_FLOOR: usize = 64;

/// Per-layer data derived from the stack description.
#[derive(Debug, Clone)]
enum LayerModel {
    Solid {
        conductivity: f64,
        volumetric_heat_capacity: f64,
    },
    Cavity {
        spec: CavitySpec,
    },
}

/// The multigrid half of a cached operator: the matrix-free fine-level
/// stencil (BiCGSTAB matvecs run straight off the grid geometry — the
/// fine operator is never assembled) and the geometric V-cycle
/// preconditioner built over its coarsening hierarchy.
#[derive(Debug, Clone)]
struct MgOperator {
    stencil: StencilOperator,
    mg: Multigrid<StencilOperator>,
}

/// One factorised/preconditioned operator at one exact operating point.
///
/// Under [`SolverBackend::DirectLu`], `factors` is always present and
/// `mg` absent. Under [`SolverBackend::IterativeMg`], `mg` is present
/// and `factors` starts out `None` — the expensive LU is built lazily,
/// only if a solve at this operating point ever has to fall back to the
/// direct path; the first fallback also *retires* the multigrid half
/// (set back to `None`), so later solves at this operating point go
/// straight to the cached factors instead of re-running a doomed
/// iteration.
#[derive(Debug, Clone)]
struct CachedOperator {
    factors: Option<LuFactors>,
    mg: Option<MgOperator>,
    /// Flow-dependent constant RHS (advection inlet terms, sink ambient).
    rhs_base: Vec<f64>,
}

/// Exact-bit cache key of one factorised operator.
///
/// Steady operators use the [`OperatorKey::STEADY_DT`] sentinel (an IEEE
/// NaN payload no validated Δt can produce); transient keys embed the
/// exact Δt bit pattern. Because both coordinates are raw bit patterns of
/// validated-finite positive quantities, two nearby-but-distinct flow
/// rates or time steps can never alias one cache slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OperatorKey {
    flow_bits: u64,
    dt_bits: u64,
}

impl OperatorKey {
    /// Sentinel Δt of steady-state operators: the all-ones pattern is a
    /// NaN, and Δt is validated finite and positive before keying.
    const STEADY_DT: u64 = u64::MAX;

    fn steady(flow_bits: u64) -> Self {
        OperatorKey {
            flow_bits,
            dt_bits: Self::STEADY_DT,
        }
    }

    fn transient(flow_bits: u64, dt: f64) -> Self {
        debug_assert!(dt.is_finite() && dt > 0.0, "dt validated before keying");
        OperatorKey {
            flow_bits,
            dt_bits: dt.to_bits(),
        }
    }
}

/// Persistent per-model scratch: operator values, right-hand side, the
/// transient ping-pong state buffer, the dense refactorisation column and
/// the triangular-solve workspace. Taken out of the model (`mem::take`)
/// for the duration of each solve so the borrow checker sees it as
/// disjoint from the caches, then put back — the buffers warm up once and
/// are reused for every subsequent operating point.
#[derive(Debug, Default)]
struct ModelWorkspace {
    /// Triplet-ordered operator values (skeleton baseline + dynamic tail).
    vals: Vec<f64>,
    /// Right-hand side under assembly.
    rhs: Vec<f64>,
    /// Solution target of transient steps, swapped with the model state.
    next_state: Vec<f64>,
    /// Dense scratch column for numeric refactorisations.
    refactor_scratch: Vec<f64>,
    /// Forward/backward triangular-solve scratch.
    lu: SolveWorkspace,
    /// BiCGSTAB scratch of the multigrid backend.
    iter: IterativeWorkspace,
    /// Buffer (re)allocations since the last drain into `SolverStats`.
    grows: u64,
}

/// Copies `src` into `dst` reusing `dst`'s capacity, counting real
/// reallocations into `grows`.
fn copy_into(dst: &mut Vec<f64>, src: &[f64], grows: &mut u64) {
    if dst.capacity() < src.len() {
        *grows += 1;
    }
    dst.clear();
    dst.extend_from_slice(src);
}

/// Sizes `v` to `n` reusing capacity, counting real reallocations. Only
/// for buffers the consumer overwrites completely (the transient solution
/// target): a warm call — length already `n` — skips the zero-fill.
fn ensure_len(v: &mut Vec<f64>, n: usize, grows: &mut u64) {
    if v.capacity() < n {
        *grows += 1;
    }
    if v.len() != n {
        v.clear();
        v.resize(n, 0.0);
    }
}

/// Counters for the solver paths a model has taken (diagnostics).
///
/// A healthy model shows `full_factorizations == 1` per sparsity pattern it
/// owns (one for the single-phase operator, one for the two-phase operator
/// if used) with everything else served by `refactorizations`;
/// `pivot_fallbacks` counts refactorisations that degraded and triggered a
/// fresh analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Full factorisations (symbolic + numeric): each [`lu::analyse`] of
    /// a fresh pattern, whichever of its two routes (margin-checked
    /// diagonal pivots or the pivot search) ran, so the count does not
    /// depend on the route, plus the pivoting factorisation behind a
    /// multigrid breakdown fallback.
    pub full_factorizations: u64,
    /// Numeric-only refactorisations over a frozen pattern.
    pub refactorizations: u64,
    /// Refactorisations aborted for pivot growth, repaired by a full
    /// factorisation (already counted in `full_factorizations`).
    pub pivot_fallbacks: u64,
    /// O(nnz) value rewrites of an existing CSC operator.
    pub value_updates: u64,
    /// Linear solves completed entirely inside the persistent workspace
    /// (no per-solve heap allocation).
    pub in_place_solves: u64,
    /// Times a persistent workspace buffer had to (re)allocate. A warm
    /// hot path keeps this counter flat — the assertion behind the
    /// zero-allocation contract.
    pub workspace_grows: u64,
    /// Symbolic analyses adopted from a [`SharedAnalysis`] donor instead
    /// of being captured by a local full factorisation.
    pub adopted_symbolics: u64,
    /// Solves served by BiCGSTAB under [`SolverBackend::IterativeMg`].
    pub iterative_solves: u64,
    /// Total BiCGSTAB iterations across those solves (diagnosing
    /// preconditioner quality and the direct-vs-iterative crossover).
    pub iterative_iterations: u64,
    /// Times the multigrid backend handed an operator to the direct
    /// path: BiCGSTAB breakdown, non-convergence, or a hierarchy that
    /// could not be built (odd in-plane grid dimensions, singular coarse
    /// operator). Each event retires that cached operator to direct
    /// solves for the rest of its cache lifetime, so the counter advances
    /// once per retirement, not once per subsequent solve. A healthy
    /// diagonally-dominant model keeps this at zero.
    pub iterative_fallbacks: u64,
    /// Always zero: no backend refreshes an ILU(0) preconditioner any
    /// more. The field stays so that readers of these counters keep
    /// compiling.
    pub ilu_refreshes: u64,
    /// Multigrid V-cycles applied under [`SolverBackend::IterativeMg`].
    pub mg_cycles: u64,
    /// Damped-Jacobi smoother sweeps across all V-cycle levels.
    pub mg_smooth_sweeps: u64,
    /// Direct solves on the multigrid coarsest level.
    pub mg_coarse_solves: u64,
}

/// Occupancy and eviction statistics of the bounded operator caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached steady-state operators.
    pub steady_entries: usize,
    /// Cached transient (per-Δt) operators.
    pub transient_entries: usize,
    /// Steady operators evicted since construction.
    pub steady_evictions: u64,
    /// Transient operators evicted since construction.
    pub transient_evictions: u64,
    /// Per-cache capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Total live cached operators across both caches.
    pub fn entries(&self) -> usize {
        self.steady_entries + self.transient_entries
    }

    /// Total evictions across both caches.
    pub fn evictions(&self) -> u64 {
        self.steady_evictions + self.transient_evictions
    }
}

/// Everything the operator sparsity pattern depends on: grid dimensions
/// and the layer-kind sequence fix the node graph; the sink adds a node;
/// the advection scheme and coolant phase select which dynamic couplings
/// exist. Two models with equal signatures assemble identical skeleton
/// patterns, so one frozen [`SymbolicLu`] serves both.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternSignature {
    nx: usize,
    ny: usize,
    /// `0` = solid layer, `1` = cavity layer, bottom-up.
    layer_kinds: Vec<u8>,
    n_tiers: usize,
    has_sink: bool,
    upwind: bool,
    two_phase: bool,
}

/// A cheap-to-clone, thread-safe snapshot of one model's frozen symbolic
/// LU analyses, for sharing the single full pivoting factorisation of a
/// (stack, grid) pattern across every same-pattern model of a batch
/// sweep.
///
/// Obtain one from a model that has solved at least once
/// ([`ThermalModel::export_analysis`]) and hand it to fresh same-pattern
/// models ([`ThermalModel::adopt_analysis`]) *before* their first solve:
/// adopters then skip their own full factorisation entirely and go
/// straight to numeric refactorisation. Adoption is always safe — the
/// refactorisation path verifies the sparsity pattern exactly and falls
/// back to a local full factorisation on any mismatch.
#[derive(Debug, Clone)]
pub struct SharedAnalysis {
    signature: PatternSignature,
    single: Option<Arc<SymbolicLu>>,
    two_phase: Option<Arc<SymbolicLu>>,
}

impl SharedAnalysis {
    /// The pattern signature the analyses were captured under.
    pub fn signature(&self) -> &PatternSignature {
        &self.signature
    }
}

/// One sparsity pattern's worth of reusable solver state: the assembled
/// CSC operator (values rewritten per operating point), the triplet→CSC
/// scatter map, the flow-independent baseline values/RHS, and the frozen
/// symbolic analysis shared by every factorisation of this pattern.
#[derive(Debug, Clone)]
struct OperatorSkeleton {
    csc: CscMatrix,
    /// `map[k]` = CSC value slot of triplet entry `k`.
    map: Vec<usize>,
    /// Triplet-ordered values of the static (flow-independent) entries;
    /// dynamic slots are zero.
    base_vals: Vec<f64>,
    /// RHS contributions of the static entries (sink ambient).
    base_rhs: Vec<f64>,
    /// Triplet index of node `i`'s explicit capacitance-diagonal slot is
    /// `diag_start + i`; `None` for patterns with no transient use.
    diag_start: Option<usize>,
    /// First triplet index of the operating-point-dependent tail.
    dyn_start: usize,
    /// Frozen symbolic analysis; `None` until the first factorisation (or
    /// adoption from a [`SharedAnalysis`]). `Arc`-shared so a batch of
    /// same-pattern models pays for exactly one pivoting factorisation.
    symbolic: Option<Arc<SymbolicLu>>,
    /// `true` while `symbolic` came from a donor rather than a local
    /// factorisation — a pattern mismatch then falls back to a fresh
    /// factorisation instead of surfacing as an error.
    adopted: bool,
}

impl OperatorSkeleton {
    /// Builds the skeleton around a fully-pushed pattern triplet.
    fn new(
        tri: &TripletMatrix,
        base_rhs: Vec<f64>,
        diag_start: Option<usize>,
        dyn_start: usize,
    ) -> Self {
        let (csc, map) = tri.to_csc_with_map();
        OperatorSkeleton {
            csc,
            map,
            base_vals: tri.values().to_vec(),
            base_rhs,
            diag_start,
            dyn_start,
            symbolic: None,
            adopted: false,
        }
    }

    /// Rewrites the operator values and factorises into `target`, reusing
    /// `target`'s allocations when its shapes already match the frozen
    /// pattern: a numeric refactorisation whenever an analysis exists,
    /// with automatic fallback to (and capture of) a fresh
    /// [`lu::analyse`] on pivot-growth degradation — or on a pattern
    /// mismatch of an *adopted* analysis, which makes adoption always
    /// safe.
    ///
    /// A fresh analysis keeps the refactorisation sweep's values over the
    /// analysis it captured, not a pivoting factorisation's, so analysis
    /// donation is bit-neutral: a donor's operator is bitwise what any
    /// adopter computes, and every run is a pure function of its inputs
    /// regardless of sharing.
    fn factorize_into(
        &mut self,
        vals: &[f64],
        target: &mut Option<LuFactors>,
        stats: &mut SolverStats,
        scratch: &mut Vec<f64>,
    ) -> Result<(), SparseError> {
        self.csc.update_values(&self.map, vals);
        stats.value_updates += 1;
        let a = &self.csc;
        // Both paths below size `scratch` to n (the refactorisation
        // internally, the fresh analysis for the refactorisations to come);
        // account for its growth here so `workspace_grows` covers every
        // persistent buffer, as its documentation promises.
        if scratch.capacity() < a.nrows() {
            stats.workspace_grows += 1;
        }
        if let Some(sym) = &self.symbolic {
            let shapes_fit = target.as_ref().is_some_and(|f| {
                f.n() == sym.n() && f.nnz_l() == sym.nnz_l() && f.nnz_u() == sym.nnz_u()
            });
            if !shapes_fit {
                *target = Some(sym.allocate_factors());
            }
            let f = target.as_mut().expect("just ensured");
            match sym.refactor_into_with(a, f, scratch) {
                Ok(()) => {
                    stats.refactorizations += 1;
                    return Ok(());
                }
                Err(SparseError::UnstablePivot { .. }) => {
                    stats.pivot_fallbacks += 1;
                }
                Err(SparseError::Shape { .. }) if self.adopted => {
                    // The donor's signature matched but its pattern does
                    // not: discard the adoption and re-analyse locally.
                }
                Err(e) => return Err(e),
            }
        }
        let (factors, sym) = lu::analyse(a, lu::ColumnOrdering::Rcm)?;
        stats.full_factorizations += 1;
        // The analysis sweeps in a column of its own; size the scratch the
        // refactorisations to come sweep in.
        scratch.resize(a.nrows(), 0.0);
        *target = Some(factors);
        self.symbolic = Some(Arc::new(sym));
        self.adopted = false;
        Ok(())
    }
}

/// The compact transient thermal model of one 3D stack.
///
/// See the [crate docs](crate) for the discretisation; construct with
/// [`ThermalModel::new`], set a flow rate for liquid-cooled stacks, then
/// call [`ThermalModel::steady_state`] or [`ThermalModel::step`].
#[derive(Debug)]
pub struct ThermalModel {
    grid: GridSpec,
    params: ThermalParams,
    width: f64,
    height: f64,
    dx: f64,
    dy: f64,
    layers: Vec<LayerModel>,
    thicknesses: Vec<f64>,
    source_layers: Vec<usize>,
    sink: Option<HeatSinkSpec>,
    coolant: LiquidProperties,
    n_cells: usize,
    n_nodes: usize,
    flow: VolumetricFlow,
    state: Vec<f64>,
    capacitance: Vec<f64>,
    steady_cache: LruCache<OperatorKey, CachedOperator>,
    transient_cache: LruCache<OperatorKey, CachedOperator>,
    /// Shared pattern/symbolic state of the single-phase operator.
    skeleton: Option<OperatorSkeleton>,
    /// Shared pattern/symbolic state of the two-phase (Dirichlet-fluid)
    /// operator, which has a different sparsity pattern.
    tp_skeleton: Option<OperatorSkeleton>,
    /// Persistent factor object of the two-phase fixed-point sweeps,
    /// reused across sweeps and solves via `refactor_into`.
    tp_factors: Option<LuFactors>,
    /// Frozen symbolic analysis of the multigrid *coarsest* level,
    /// donated to every subsequent hierarchy build so operating-point
    /// changes under [`SolverBackend::IterativeMg`] pay only a numeric
    /// coarse refactorisation.
    mg_coarse_symbolic: Option<Arc<SymbolicLu>>,
    /// Persistent solve/assembly scratch — the zero-allocation hot path.
    workspace: ModelWorkspace,
    stats: SolverStats,
    two_phase_summary: Option<TwoPhaseSummary>,
}

/// Aggregate state of the most recent two-phase steady solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPhaseSummary {
    /// Heat absorbed by the refrigerant, watts.
    pub heat_absorbed: f64,
    /// Worst channel-exit vapour quality across cavities.
    pub max_exit_quality: f64,
    /// Margin to the dry-out bound.
    pub dryout_margin: f64,
    /// Hottest local boiling HTC, W/m²K.
    pub peak_htc: f64,
    /// Coldest local saturation temperature (the refrigerant cools down).
    pub min_saturation: Kelvin,
}

impl ThermalModel {
    /// Builds a model for `stack` on `grid`.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::UnsupportedStack`] — adjacent cavity layers, or a
    ///   stack with neither cavities nor a sink (no heat-removal path, the
    ///   steady-state operator would be singular).
    /// * [`ThermalError::Material`] — coolant properties unavailable at the
    ///   configured inlet temperature.
    pub fn new(
        stack: &Stack3d,
        grid: GridSpec,
        params: ThermalParams,
    ) -> Result<Self, ThermalError> {
        let mut layers = Vec::with_capacity(stack.layers().len());
        let mut thicknesses = Vec::with_capacity(stack.layers().len());
        let mut source_layers = vec![usize::MAX; stack.tiers().len()];
        for (z, l) in stack.layers().iter().enumerate() {
            let lm = match &l.kind {
                LayerKind::Solid { material } => LayerModel::Solid {
                    conductivity: material.thermal_conductivity(),
                    volumetric_heat_capacity: material.volumetric_heat_capacity(),
                },
                LayerKind::Source { material, tier } => {
                    source_layers[*tier] = z;
                    LayerModel::Solid {
                        conductivity: material.thermal_conductivity(),
                        volumetric_heat_capacity: material.volumetric_heat_capacity(),
                    }
                }
                LayerKind::Cavity { spec } => LayerModel::Cavity { spec: spec.clone() },
            };
            layers.push(lm);
            thicknesses.push(l.thickness);
        }
        for w in layers.windows(2) {
            if matches!(w[0], LayerModel::Cavity { .. })
                && matches!(w[1], LayerModel::Cavity { .. })
            {
                return Err(ThermalError::UnsupportedStack {
                    detail: "two adjacent cavity layers (no solid tier between them)".into(),
                });
            }
        }
        if source_layers.contains(&usize::MAX) {
            return Err(ThermalError::UnsupportedStack {
                detail: "a tier has no source layer".into(),
            });
        }
        if !stack.is_liquid_cooled() && stack.sink().is_none() {
            return Err(ThermalError::UnsupportedStack {
                detail: "no heat-removal path (neither cavities nor a sink)".into(),
            });
        }
        let coolant = LiquidProperties::water_at(params.inlet).map_err(|e| match e {
            cmosaic_hydraulics::HydraulicsError::Material(m) => ThermalError::Material(m),
            other => ThermalError::UnsupportedStack {
                detail: other.to_string(),
            },
        })?;

        let n_cells = grid.cell_count() * layers.len();
        let has_sink = stack.sink().is_some();
        let n_nodes = n_cells + usize::from(has_sink);
        let dx = grid.cell_width(stack.width());
        let dy = grid.cell_height(stack.height());

        let mut model = ThermalModel {
            grid,
            params: params.clone(),
            width: stack.width(),
            height: stack.height(),
            dx,
            dy,
            layers,
            thicknesses,
            source_layers,
            sink: stack.sink().cloned(),
            coolant,
            n_cells,
            n_nodes,
            flow: VolumetricFlow(0.0),
            state: vec![params.initial.0; n_nodes],
            capacitance: Vec::new(),
            steady_cache: LruCache::new(OPERATOR_CACHE_CAPACITY),
            transient_cache: LruCache::new(OPERATOR_CACHE_CAPACITY),
            skeleton: None,
            tp_skeleton: None,
            tp_factors: None,
            mg_coarse_symbolic: None,
            workspace: ModelWorkspace::default(),
            stats: SolverStats::default(),
            two_phase_summary: None,
        };
        model.capacitance = model.build_capacitance();
        if model.is_two_phase() && !model.is_liquid_cooled() {
            return Err(ThermalError::UnsupportedStack {
                detail: "two-phase coolant requested on a stack without cavities".into(),
            });
        }
        Ok(model)
    }

    /// `true` when the cavities run an evaporating refrigerant (§III).
    pub fn is_two_phase(&self) -> bool {
        matches!(self.params.coolant, Coolant::TwoPhase(_))
    }

    /// Summary of the most recent two-phase solve, if any.
    pub fn two_phase_summary(&self) -> Option<&TwoPhaseSummary> {
        self.two_phase_summary.as_ref()
    }

    /// Grid specification.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// Number of tiers.
    pub fn n_tiers(&self) -> usize {
        self.source_layers.len()
    }

    /// Number of cavity layers.
    pub fn n_cavities(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l, LayerModel::Cavity { .. }))
            .count()
    }

    /// `true` when the stack has micro-channel cavities.
    pub fn is_liquid_cooled(&self) -> bool {
        self.n_cavities() > 0
    }

    /// The current per-cavity flow rate.
    pub fn flow_rate(&self) -> VolumetricFlow {
        self.flow
    }

    /// Sets the per-cavity volumetric flow rate.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidFlow`] — the stack is air-cooled, the rate
    ///   is not positive, or the per-channel operating point leaves the
    ///   laminar validity range.
    pub fn set_flow_rate(&mut self, per_cavity: VolumetricFlow) -> Result<(), ThermalError> {
        if !self.is_liquid_cooled() {
            return Err(ThermalError::InvalidFlow {
                detail: "stack has no cavities".into(),
            });
        }
        if self.is_two_phase() {
            return Err(ThermalError::InvalidFlow {
                detail: "two-phase operation fixes the mass flux in TwoPhaseCoolant".into(),
            });
        }
        if !(per_cavity.0 > 0.0 && per_cavity.0.is_finite()) {
            return Err(ThermalError::InvalidFlow {
                detail: format!("flow must be positive, got {per_cavity}"),
            });
        }
        // Validate the channel operating point up front.
        for l in &self.layers {
            if let LayerModel::Cavity { spec } = l {
                let (_, h) = self.channel_operating_point(spec, per_cavity)?;
                debug_assert!(h > 0.0);
            }
        }
        self.flow = per_cavity;
        Ok(())
    }

    /// Per-channel flow and heat-transfer coefficient for a cavity at flow
    /// `q` per cavity.
    fn channel_operating_point(
        &self,
        spec: &CavitySpec,
        q: VolumetricFlow,
    ) -> Result<(f64, f64), ThermalError> {
        let n_ch = spec.channel_count(self.height).max(1);
        let q_ch = q.0 / n_ch as f64;
        let geom =
            ChannelGeometry::new(spec.channel_width(), spec.height(), self.width).map_err(|e| {
                ThermalError::InvalidFlow {
                    detail: e.to_string(),
                }
            })?;
        let h = geom
            .heat_transfer_coefficient(q_ch, &self.coolant)
            .map_err(|e| ThermalError::InvalidFlow {
                detail: e.to_string(),
            })?;
        Ok((q_ch, h))
    }

    /// Total pressure drop across one cavity's channels at the current
    /// flow.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidFlow`] if no flow is set or the stack is
    /// air-cooled.
    pub fn cavity_pressure_drop(&self) -> Result<Pressure, ThermalError> {
        let spec = self
            .layers
            .iter()
            .find_map(|l| match l {
                LayerModel::Cavity { spec } => Some(spec),
                _ => None,
            })
            .ok_or_else(|| ThermalError::InvalidFlow {
                detail: "stack has no cavities".into(),
            })?;
        if self.flow.0 <= 0.0 {
            return Err(ThermalError::InvalidFlow {
                detail: "no flow rate set".into(),
            });
        }
        let n_ch = spec.channel_count(self.height).max(1);
        let geom =
            ChannelGeometry::new(spec.channel_width(), spec.height(), self.width).map_err(|e| {
                ThermalError::InvalidFlow {
                    detail: e.to_string(),
                }
            })?;
        geom.pressure_drop(self.flow.0 / n_ch as f64, &self.coolant)
            .map_err(|e| ThermalError::InvalidFlow {
                detail: e.to_string(),
            })
    }

    fn node(&self, z: usize, iy: usize, ix: usize) -> usize {
        z * self.grid.cell_count() + iy * self.grid.nx() + ix
    }

    fn cell_area(&self) -> f64 {
        self.dx * self.dy
    }

    fn build_capacitance(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.n_nodes];
        let a = self.cell_area();
        for (z, l) in self.layers.iter().enumerate() {
            let t = self.thicknesses[z];
            let cv = match l {
                LayerModel::Solid {
                    volumetric_heat_capacity,
                    ..
                } => *volumetric_heat_capacity,
                LayerModel::Cavity { spec } => {
                    let phi = spec.porosity();
                    phi * self.coolant.volumetric_heat_capacity()
                        + (1.0 - phi) * spec.wall().volumetric_heat_capacity()
                }
            };
            for iy in 0..self.grid.ny() {
                for ix in 0..self.grid.nx() {
                    c[self.node(z, iy, ix)] = cv * a * t;
                }
            }
        }
        if let Some(sink) = &self.sink {
            c[self.n_cells] = sink.capacitance;
        }
        c
    }

    /// Vertical half-cell conductance of a solid layer (W/K per cell, for
    /// an area fraction `frac` of the cell footprint).
    fn half_conductance(&self, z: usize, frac: f64) -> f64 {
        match &self.layers[z] {
            LayerModel::Solid { conductivity, .. } => {
                conductivity * self.cell_area() * frac / (self.thicknesses[z] / 2.0)
            }
            LayerModel::Cavity { .. } => unreachable!("half_conductance on cavity layer"),
        }
    }

    fn series(gs: &[f64]) -> f64 {
        let inv: f64 = gs.iter().map(|g| 1.0 / g).sum();
        1.0 / inv
    }

    /// Solid neighbours of cavity layer `z` (the layers its fluid cells
    /// convect to).
    fn cavity_neighbours(&self, z: usize) -> (Option<usize>, Option<usize>) {
        let below = z
            .checked_sub(1)
            .filter(|&b| matches!(self.layers[b], LayerModel::Solid { .. }));
        let above = (z + 1 < self.layers.len())
            .then_some(z + 1)
            .filter(|&a| matches!(self.layers[a], LayerModel::Solid { .. }));
        (below, above)
    }

    /// Assembles the flow-independent skeleton of the single-phase
    /// operator, exactly once per model: all static entries (conduction,
    /// wall through-paths, sink) carry their final values; one explicit
    /// capacitance-diagonal slot per node and the flow-dependent tail
    /// (convection, advection) are pushed as zero-valued placeholders for
    /// [`ThermalModel::fill_flow_values`] to rewrite.
    fn build_skeleton(&self) -> OperatorSkeleton {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let mut t = TripletMatrix::with_capacity(self.n_nodes, self.n_nodes, self.n_nodes * 10);
        let mut rhs = vec![0.0; self.n_nodes];
        let a_cell = self.cell_area();

        // Lateral conduction within solid layers.
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Solid { conductivity, .. } = l else {
                continue; // cavity layers: lateral transport is advective
            };
            let tz = self.thicknesses[z];
            let gx = conductivity * self.dy * tz / self.dx;
            let gy = conductivity * self.dx * tz / self.dy;
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = self.node(z, iy, ix);
                    if ix + 1 < nx {
                        t.stamp_conductance(i, self.node(z, iy, ix + 1), gx);
                    }
                    if iy + 1 < ny {
                        t.stamp_conductance(i, self.node(z, iy + 1, ix), gy);
                    }
                }
            }
        }

        // Vertical coupling between adjacent solid layers.
        for z in 0..self.layers.len().saturating_sub(1) {
            let below_solid = matches!(self.layers[z], LayerModel::Solid { .. });
            let above_solid = matches!(self.layers[z + 1], LayerModel::Solid { .. });
            if below_solid && above_solid {
                let g = Self::series(&[
                    self.half_conductance(z, 1.0),
                    self.half_conductance(z + 1, 1.0),
                ]);
                for iy in 0..ny {
                    for ix in 0..nx {
                        t.stamp_conductance(self.node(z, iy, ix), self.node(z + 1, iy, ix), g);
                    }
                }
            }
            // Cavity↔solid coupling is flow-dependent (below).
        }

        // Cavity silicon-wall through-paths (geometry only, static).
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Cavity { spec } = l else {
                continue;
            };
            let (below, above) = self.cavity_neighbours(z);
            if let (Some(b), Some(a)) = (below, above) {
                let phi = spec.porosity();
                let k_wall = spec.wall().thermal_conductivity();
                let g_wall = Self::series(&[
                    self.half_conductance(b, 1.0 - phi),
                    k_wall * a_cell * (1.0 - phi) / self.thicknesses[z],
                    self.half_conductance(a, 1.0 - phi),
                ]);
                for iy in 0..ny {
                    for ix in 0..nx {
                        t.stamp_conductance(self.node(b, iy, ix), self.node(a, iy, ix), g_wall);
                    }
                }
            }
        }

        // Lumped sink node.
        if let Some(sink) = &self.sink {
            let s = self.n_cells;
            let zt = self.layers.len() - 1;
            debug_assert!(matches!(self.layers[zt], LayerModel::Solid { .. }));
            for iy in 0..ny {
                for ix in 0..nx {
                    t.stamp_conductance(self.node(zt, iy, ix), s, self.half_conductance(zt, 1.0));
                }
            }
            t.push(s, s, sink.conductance);
            rhs[s] += sink.conductance * sink.ambient.0;
        }

        // One explicit diagonal slot per node: zero in steady operators,
        // C/Δt in transient ones — keeping both on the same pattern so they
        // share one symbolic analysis.
        let diag_start = t.nnz();
        for i in 0..self.n_nodes {
            t.push(i, i, 0.0);
        }

        // Flow-dependent tail: cavity convection and advection
        // placeholders, in the exact order `fill_flow_values` writes them.
        // The four conductance slots are pushed explicitly (not via
        // `stamp_conductance`) so the slot order is owned by this module
        // alongside the fill helper that rewrites it.
        let dyn_start = t.nnz();
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Cavity { .. } = l else {
                continue;
            };
            let (below, above) = self.cavity_neighbours(z);
            for iy in 0..ny {
                for ix in 0..nx {
                    let f = self.node(z, iy, ix);
                    for n in [below, above].into_iter().flatten() {
                        let ni = self.node(n, iy, ix);
                        // Conductance slot order: (f,f), (n,n), (f,n), (n,f)
                        // — must match `fill_flow_values::stamp`.
                        t.push(f, f, 0.0);
                        t.push(ni, ni, 0.0);
                        t.push(f, ni, 0.0);
                        t.push(ni, f, 0.0);
                    }
                }
            }
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = self.node(z, iy, ix);
                    t.push(i, i, 0.0);
                    if ix > 0 {
                        t.push(i, self.node(z, iy, ix - 1), 0.0);
                    }
                }
            }
        }

        OperatorSkeleton::new(&t, rhs, Some(diag_start), dyn_start)
    }

    /// Rewrites the flow-dependent tail of the triplet value vector (and
    /// the advection inlet RHS terms) for `flow` — the O(nnz) half of an
    /// operator rebuild. The write order mirrors
    /// [`ThermalModel::build_skeleton`]'s placeholder order exactly.
    fn fill_flow_values(
        &self,
        flow: VolumetricFlow,
        dyn_start: usize,
        vals: &mut [f64],
        rhs: &mut [f64],
    ) -> Result<(), ThermalError> {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let mut k = dyn_start;
        // Conductance slot order (f,f), (n,n), (f,n), (n,f) → +g, +g, −g,
        // −g; must match the placeholder pushes in `build_skeleton`.
        fn stamp(vals: &mut [f64], k: &mut usize, g: f64) {
            vals[*k] = g;
            vals[*k + 1] = g;
            vals[*k + 2] = -g;
            vals[*k + 3] = -g;
            *k += 4;
        }
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Cavity { spec } = l else {
                continue;
            };
            let (q_ch, h) = self.channel_operating_point(spec, flow)?;
            let a_eff = self.effective_wetted_area(spec, h);
            let g_conv = h * a_eff;
            let (below, above) = self.cavity_neighbours(z);
            let g_below = below.map(|b| Self::series(&[g_conv, self.half_conductance(b, 1.0)]));
            let g_above = above.map(|a| Self::series(&[g_conv, self.half_conductance(a, 1.0)]));
            for _iy in 0..ny {
                for _ix in 0..nx {
                    if let Some(g) = g_below {
                        stamp(vals, &mut k, g);
                    }
                    if let Some(g) = g_above {
                        stamp(vals, &mut k, g);
                    }
                }
            }

            // Advection along +x.
            let pitch = spec.pitch();
            let n_ch_cell = self.dy / pitch;
            let mdot_cp = self.coolant.density * q_ch * n_ch_cell * self.coolant.specific_heat;
            let coeff = match self.params.advection {
                AdvectionScheme::Upwind => mdot_cp,
                AdvectionScheme::LinearProfile => 2.0 * mdot_cp,
            };
            for iy in 0..ny {
                for ix in 0..nx {
                    vals[k] = coeff;
                    k += 1;
                    if ix > 0 {
                        vals[k] = -coeff;
                        k += 1;
                    } else {
                        rhs[self.node(z, iy, ix)] += coeff * self.params.inlet.0;
                    }
                }
            }
        }
        debug_assert_eq!(k, vals.len(), "dynamic fill must cover the whole tail");
        Ok(())
    }

    /// Exact bit pattern of the current per-cavity flow (zero for
    /// air-cooled stacks, whose operator is flow-independent).
    fn flow_bits(&self) -> u64 {
        if self.is_liquid_cooled() {
            self.flow.0.to_bits()
        } else {
            0
        }
    }

    fn steady_key(&self) -> OperatorKey {
        OperatorKey::steady(self.flow_bits())
    }

    fn transient_key(&self, dt: f64) -> OperatorKey {
        OperatorKey::transient(self.flow_bits(), dt)
    }

    /// Produces the single-phase operator values and RHS for `flow` (and,
    /// for transients, `Δt = dt`) into the workspace — an O(nnz) rewrite
    /// of the skeleton's baseline with zero allocation once warm. The
    /// skeleton must exist.
    fn operator_values_into(
        &self,
        flow: VolumetricFlow,
        dt: Option<f64>,
        ws: &mut ModelWorkspace,
    ) -> Result<(), ThermalError> {
        let skel = self.skeleton.as_ref().expect("skeleton built");
        copy_into(&mut ws.vals, &skel.base_vals, &mut ws.grows);
        copy_into(&mut ws.rhs, &skel.base_rhs, &mut ws.grows);
        if let Some(dt) = dt {
            let d0 = skel
                .diag_start
                .expect("single-phase skeleton has diagonal slots");
            for (i, &c) in self.capacitance.iter().enumerate() {
                ws.vals[d0 + i] = c / dt;
            }
        }
        self.fill_flow_values(flow, skel.dyn_start, &mut ws.vals, &mut ws.rhs)
    }

    /// Builds the matrix-free stencil form of the single-phase operator
    /// at the current flow (and, for transients, `Δt = dt`) — the exact
    /// physics of [`ThermalModel::build_skeleton`] +
    /// [`ThermalModel::fill_flow_values`] expressed per layer instead of
    /// per nonzero, so an operating-point change is an O(nz) scalar
    /// update instead of an O(nnz) value rewrite plus factorisation.
    fn build_stencil(&self, dt: Option<f64>) -> Result<StencilOperator, ThermalError> {
        let nz = self.layers.len();
        let nxy = self.grid.cell_count();
        let shape = GridShape {
            nx: self.grid.nx(),
            ny: self.grid.ny(),
            nz,
            extra: usize::from(self.sink.is_some()),
        };
        let a_cell = self.cell_area();
        let mut layers = Vec::with_capacity(nz);
        let mut interfaces = vec![StencilInterface::symmetric(0.0); nz.saturating_sub(1)];
        let mut walls = vec![0.0; nz];
        for (z, l) in self.layers.iter().enumerate() {
            // Every cell of a layer shares one capacitance value.
            let diag_extra = dt.map_or(0.0, |dt| self.capacitance[z * nxy] / dt);
            match l {
                LayerModel::Solid { conductivity, .. } => {
                    let tz = self.thicknesses[z];
                    layers.push(StencilLayer {
                        kind: StencilLayerKind::Solid,
                        gx: conductivity * self.dy * tz / self.dx,
                        gy: conductivity * self.dx * tz / self.dy,
                        adv: 0.0,
                        diag_extra,
                    });
                }
                LayerModel::Cavity { spec } => {
                    let (q_ch, h) = self.channel_operating_point(spec, self.flow)?;
                    let a_eff = self.effective_wetted_area(spec, h);
                    let g_conv = h * a_eff;
                    let (below, above) = self.cavity_neighbours(z);
                    if let Some(b) = below {
                        interfaces[z - 1] = StencilInterface::symmetric(Self::series(&[
                            g_conv,
                            self.half_conductance(b, 1.0),
                        ]));
                    }
                    if let Some(a) = above {
                        interfaces[z] = StencilInterface::symmetric(Self::series(&[
                            g_conv,
                            self.half_conductance(a, 1.0),
                        ]));
                    }
                    if let (Some(b), Some(a)) = (below, above) {
                        let phi = spec.porosity();
                        let k_wall = spec.wall().thermal_conductivity();
                        walls[z] = Self::series(&[
                            self.half_conductance(b, 1.0 - phi),
                            k_wall * a_cell * (1.0 - phi) / self.thicknesses[z],
                            self.half_conductance(a, 1.0 - phi),
                        ]);
                    }
                    let n_ch_cell = self.dy / spec.pitch();
                    let mdot_cp =
                        self.coolant.density * q_ch * n_ch_cell * self.coolant.specific_heat;
                    let adv = match self.params.advection {
                        AdvectionScheme::Upwind => mdot_cp,
                        AdvectionScheme::LinearProfile => 2.0 * mdot_cp,
                    };
                    layers.push(StencilLayer {
                        kind: StencilLayerKind::Cavity,
                        gx: 0.0,
                        gy: 0.0,
                        adv,
                        diag_extra,
                    });
                }
            }
        }
        for (z, itf) in interfaces.iter_mut().enumerate() {
            let both_solid = matches!(self.layers[z], LayerModel::Solid { .. })
                && matches!(self.layers[z + 1], LayerModel::Solid { .. });
            if both_solid {
                *itf = StencilInterface::symmetric(Self::series(&[
                    self.half_conductance(z, 1.0),
                    self.half_conductance(z + 1, 1.0),
                ]));
            }
        }
        let sink = self.sink.as_ref().map(|s| StencilSink {
            g_top: self.half_conductance(nz - 1, 1.0),
            lumped: s.conductance,
            diag_extra: dt.map_or(0.0, |dt| s.capacitance / dt),
        });
        Ok(StencilOperator::new(shape, layers, interfaces, walls, sink))
    }

    /// Flow-dependent constant RHS of the stencil operator — the sink's
    /// ambient pull plus the advection inlet terms — matching what the
    /// assembled path accumulates into `skeleton.base_rhs` and
    /// [`ThermalModel::fill_flow_values`] writes per operating point.
    fn stencil_rhs_base(&self, stencil: &StencilOperator) -> Vec<f64> {
        let mut rhs = vec![0.0; self.n_nodes];
        if let Some(sink) = &self.sink {
            rhs[self.n_cells] += sink.conductance * sink.ambient.0;
        }
        for (z, layer) in stencil.layers().iter().enumerate() {
            if layer.adv != 0.0 {
                for iy in 0..self.grid.ny() {
                    rhs[self.node(z, iy, 0)] += layer.adv * self.params.inlet.0;
                }
            }
        }
        rhs
    }

    /// Builds the multigrid flavour of a cached operator: the matrix-free
    /// fine-level stencil plus a geometric V-cycle over its coarsening
    /// hierarchy, with only the (small) coarsest level ever assembled and
    /// LU-factored — through the donated frozen symbolic analysis after
    /// the first build. Returns `Ok(None)` when the grid cannot coarsen
    /// (odd in-plane dimensions) or the coarse operator is singular; the
    /// caller then falls back to the direct path.
    fn mg_operator(&mut self, dt: Option<f64>) -> Result<Option<MgOperator>, ThermalError> {
        let stencil = self.build_stencil(dt)?;
        let mut levels = Vec::new();
        let mut cur = stencil.clone();
        while levels.is_empty() || cur.shape().nx * cur.shape().ny >= MG_COARSEN_FLOOR {
            let Some(next) = cur.coarsen() else { break };
            let shape = cur.shape();
            let diag = cur.diagonal().to_vec();
            levels.push((cur, shape, diag));
            cur = next;
        }
        if levels.is_empty() {
            return Ok(None);
        }
        let coarse = cur.assemble();
        let donated = self.mg_coarse_symbolic.take();
        match Multigrid::new(levels, &coarse, donated, MultigridOptions::default()) {
            Ok(mg) => {
                self.mg_coarse_symbolic = Some(mg.coarse_symbolic());
                Ok(Some(MgOperator { stencil, mg }))
            }
            Err(SparseError::Singular { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn check_flow_set(&self) -> Result<(), ThermalError> {
        if self.is_liquid_cooled() && self.flow.0 <= 0.0 {
            return Err(ThermalError::InvalidFlow {
                detail: "liquid-cooled stack: call set_flow_rate first".into(),
            });
        }
        Ok(())
    }

    fn ensure_steady(&mut self, ws: &mut ModelWorkspace) -> Result<(), ThermalError> {
        self.ensure_operator(self.steady_key(), None, ws)
    }

    fn ensure_transient(&mut self, dt: f64, ws: &mut ModelWorkspace) -> Result<(), ThermalError> {
        self.ensure_operator(self.transient_key(dt), Some(dt), ws)
    }

    /// Builds (or confirms) the cached operator for one exact operating
    /// point. Under [`SolverBackend::IterativeMg`] the happy path never
    /// touches the assembled skeleton at all: it builds the matrix-free
    /// stencil (O(nz) scalars per operating point) and the V-cycle
    /// hierarchy over it, deferring any LU until a solve falls back.
    /// The direct path (and a hierarchy that cannot be built) runs an
    /// O(nnz) value rewrite of the skeleton and a direct-LU
    /// factorisation.
    fn ensure_operator(
        &mut self,
        key: OperatorKey,
        dt: Option<f64>,
        ws: &mut ModelWorkspace,
    ) -> Result<(), ThermalError> {
        let cache = if dt.is_some() {
            &mut self.transient_cache
        } else {
            &mut self.steady_cache
        };
        if cache.get(&key).is_some() {
            return Ok(());
        }
        self.check_flow_set()?;
        let mut mg = None;
        if matches!(self.params.solver, SolverBackend::IterativeMg { .. }) {
            mg = self.mg_operator(dt)?;
            if mg.is_none() {
                // The hierarchy could not be built (uncoarsenable grid or
                // a singular coarse operator): this operating point runs
                // on the direct path from the start, via the skeleton.
                self.stats.iterative_fallbacks += 1;
            }
        }
        let op = match mg {
            Some(mgop) => CachedOperator {
                factors: None,
                rhs_base: self.stencil_rhs_base(&mgop.stencil),
                mg: Some(mgop),
            },
            None => {
                if self.skeleton.is_none() {
                    self.skeleton = Some(self.build_skeleton());
                }
                self.operator_values_into(self.flow, dt, ws)?;
                let mut factors = None;
                self.skeleton.as_mut().expect("just built").factorize_into(
                    &ws.vals,
                    &mut factors,
                    &mut self.stats,
                    &mut ws.refactor_scratch,
                )?;
                CachedOperator {
                    factors,
                    mg: None,
                    rhs_base: ws.rhs.clone(),
                }
            }
        };
        let cache = if dt.is_some() {
            &mut self.transient_cache
        } else {
            &mut self.steady_cache
        };
        cache.insert(key, op);
        Ok(())
    }

    /// Solves the cached operator at `key` for the RHS already assembled
    /// in `ws.rhs`, writing the solution into `dst` (fully overwritten —
    /// unless `warm_start` seeds the iteration from `dst`'s current
    /// contents).
    ///
    /// Under [`SolverBackend::IterativeMg`] this runs BiCGSTAB through the
    /// persistent workspace, preconditioned by the multigrid V-cycle over
    /// the matrix-free stencil; on `Breakdown`/`NoConvergence` it falls
    /// back to direct LU — factorising (and caching) the operator's LU on
    /// first need — and records the event in
    /// [`SolverStats::iterative_fallbacks`]. An associated function over
    /// disjoint fields so the solve can borrow the cache and the
    /// workspace side by side.
    fn solve_operator(
        cache: &mut LruCache<OperatorKey, CachedOperator>,
        backend: SolverBackend,
        warm_start: bool,
        key: OperatorKey,
        ws: &mut ModelWorkspace,
        dst: &mut [f64],
        stats: &mut SolverStats,
    ) -> Result<(), SparseError> {
        let op = cache.get_mut(&key).expect("operator ensured");
        let CachedOperator { factors, mg, .. } = op;
        if let (Some((tolerance, max_iterations)), Some(mgop)) =
            (backend.iteration_limits(), mg.as_mut())
        {
            let opts = BicgstabOptions {
                tolerance,
                max_iterations,
                warm_start,
            };
            let outcome = bicgstab_into(
                &mgop.stencil,
                &ws.rhs,
                Some(&mut mgop.mg),
                &opts,
                &mut ws.iter,
                dst,
            );
            let mg_stats = mgop.mg.take_stats();
            stats.mg_cycles += mg_stats.cycles;
            stats.mg_smooth_sweeps += mg_stats.smooth_sweeps;
            stats.mg_coarse_solves += mg_stats.coarse_solves;
            match outcome {
                Ok(summary) => {
                    stats.iterative_solves += 1;
                    stats.iterative_iterations += summary.iterations as u64;
                    return Ok(());
                }
                Err(SparseError::Breakdown { .. } | SparseError::NoConvergence { .. }) => {
                    // Automatic direct fallback. The operator is then
                    // *retired* to the direct path for the rest of its
                    // cache lifetime — re-running a doomed BiCGSTAB
                    // attempt (up to max_iterations of matvecs) before
                    // every warm repeat solve would be far slower than
                    // DirectLu with nothing but a counter as a clue. An
                    // eviction-and-rebuild gives the iteration a fresh
                    // chance. The multigrid path never built the shared
                    // skeleton, so the fallback assembles the fine
                    // stencil on the spot and pays one fresh pivoting
                    // factorisation.
                    stats.iterative_fallbacks += 1;
                    if factors.is_none() {
                        let fine = mgop.stencil.assemble();
                        let (f, _symbolic) =
                            lu::factor_with_symbolic(&fine, lu::ColumnOrdering::Rcm)?;
                        stats.full_factorizations += 1;
                        *factors = Some(f);
                    }
                    *mg = None;
                }
                Err(e) => return Err(e),
            }
        }
        let f = factors.as_ref().expect("direct factors present");
        f.solve_with(&mut ws.lu, &ws.rhs, dst)
    }

    fn scatter_powers(
        &self,
        tier_powers: &[Vec<f64>],
        rhs: &mut [f64],
    ) -> Result<(), ThermalError> {
        if tier_powers.len() != self.source_layers.len() {
            return Err(ThermalError::PowerShape {
                detail: format!(
                    "{} tier power maps supplied, stack has {} tiers",
                    tier_powers.len(),
                    self.source_layers.len()
                ),
            });
        }
        for (tier, p) in tier_powers.iter().enumerate() {
            if p.len() != self.grid.cell_count() {
                return Err(ThermalError::PowerShape {
                    detail: format!(
                        "tier {tier}: power map has {} cells, grid has {}",
                        p.len(),
                        self.grid.cell_count()
                    ),
                });
            }
            let z = self.source_layers[tier];
            let base = z * self.grid.cell_count();
            for (c, &w) in p.iter().enumerate() {
                rhs[base + c] += w;
            }
        }
        Ok(())
    }

    fn field_from_state(&self) -> TemperatureField {
        TemperatureField::new(
            self.grid.nx(),
            self.grid.ny(),
            self.layers.len(),
            self.source_layers.clone(),
            self.width,
            self.height,
            self.state.clone(),
            self.sink.is_some(),
        )
    }

    /// Overwrites `field` with the current state, reusing its buffers —
    /// the allocation-free counterpart of [`ThermalModel::current_field`].
    pub fn current_field_into(&self, field: &mut TemperatureField) {
        field.overwrite(
            self.grid.nx(),
            self.grid.ny(),
            self.layers.len(),
            &self.source_layers,
            self.width,
            self.height,
            &self.state,
            self.sink.is_some(),
        );
    }

    /// Solves for the steady-state temperature field under the given
    /// per-tier power maps (each of length `grid.cell_count()`, watts per
    /// cell) and makes it the current state.
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerShape`], [`ThermalError::InvalidFlow`] or a
    /// solver failure.
    pub fn steady_state(
        &mut self,
        tier_powers: &[Vec<f64>],
    ) -> Result<TemperatureField, ThermalError> {
        if let Coolant::TwoPhase(tp) = self.params.coolant.clone() {
            return self.steady_state_two_phase(&tp, tier_powers);
        }
        let mut ws = std::mem::take(&mut self.workspace);
        let r = self.steady_core(&mut ws, tier_powers);
        self.stats.workspace_grows += std::mem::take(&mut ws.grows);
        self.workspace = ws;
        r?;
        Ok(self.field_from_state())
    }

    /// The workspace-routed steady solve: cached operator lookup, RHS
    /// assembly and backend-selected solve without any per-call
    /// allocation.
    fn steady_core(
        &mut self,
        ws: &mut ModelWorkspace,
        tier_powers: &[Vec<f64>],
    ) -> Result<(), ThermalError> {
        self.ensure_steady(ws)?;
        let key = self.steady_key();
        {
            let op = self.steady_cache.peek(&key).expect("ensured above");
            copy_into(&mut ws.rhs, &op.rhs_base, &mut ws.grows);
        }
        self.scatter_powers(tier_powers, &mut ws.rhs)?;
        // `dst` is the model state, so an iterative warm start naturally
        // seeds from the previous steady (or transient) field.
        Self::solve_operator(
            &mut self.steady_cache,
            self.params.solver,
            self.params.warm_start,
            key,
            ws,
            &mut self.state,
            &mut self.stats,
        )?;
        self.stats.in_place_solves += 1;
        Ok(())
    }

    /// Fixed-point steady solve for an evaporating (two-phase) coolant:
    /// fluid cells are Dirichlet nodes pinned at the local saturation
    /// temperature, the boiling HTC depends on the local wall flux, and
    /// both are iterated to convergence (the `h ∝ q″^0.75` nucleate law is
    /// strongly contracting, a handful of sweeps suffice).
    fn steady_state_two_phase(
        &mut self,
        tp: &TwoPhaseCoolant,
        tier_powers: &[Vec<f64>],
    ) -> Result<TemperatureField, ThermalError> {
        let mut ws = std::mem::take(&mut self.workspace);
        let mut tp_factors = self.tp_factors.take();
        let r = self.two_phase_core(&mut ws, &mut tp_factors, tp, tier_powers);
        self.stats.workspace_grows += std::mem::take(&mut ws.grows);
        self.workspace = ws;
        self.tp_factors = tp_factors;
        r?;
        Ok(self.field_from_state())
    }

    fn two_phase_core(
        &mut self,
        ws: &mut ModelWorkspace,
        tp_factors: &mut Option<LuFactors>,
        tp: &TwoPhaseCoolant,
        tier_powers: &[Vec<f64>],
    ) -> Result<(), ThermalError> {
        let props = tp.refrigerant.properties();
        let inlet_state = props.saturation_state(tp.inlet_saturation)?;
        let nxy = self.grid.cell_count();
        let nx = self.grid.nx();
        let ny = self.grid.ny();

        // Nominal flux guess: total power over both wetted faces of all
        // cavities.
        let total_power: f64 = tier_powers.iter().flatten().sum();
        let wetted = 2.0 * self.width * self.height * self.n_cavities() as f64;
        let q_guess = (total_power / wetted).max(1.0e3);

        let mut h_map = vec![0.0f64; self.n_cells];
        let mut tsat_map = vec![tp.inlet_saturation.0; self.n_cells];
        let cavity_layers: Vec<(usize, CavitySpec)> = self
            .layers
            .iter()
            .enumerate()
            .filter_map(|(z, l)| match l {
                LayerModel::Cavity { spec } => Some((z, spec.clone())),
                _ => None,
            })
            .collect();
        for (z, spec) in &cavity_layers {
            let geom = ChannelGeometry::new(spec.channel_width(), spec.height(), self.width)
                .map_err(|e| ThermalError::InvalidFlow {
                    detail: e.to_string(),
                })?;
            let h0 = cmosaic_twophase::boiling::two_phase_htc(
                &props,
                &geom,
                &inlet_state,
                tp.inlet_quality,
                q_guess,
            )
            .map_err(|e| ThermalError::InvalidFlow {
                detail: e.to_string(),
            })?;
            for c in 0..nxy {
                h_map[z * nxy + c] = h0;
            }
        }

        let mut summary = TwoPhaseSummary {
            heat_absorbed: 0.0,
            max_exit_quality: tp.inlet_quality,
            dryout_margin: tp.dryout_quality - tp.inlet_quality,
            peak_htc: 0.0,
            min_saturation: tp.inlet_saturation,
        };

        if self.tp_skeleton.is_none() {
            self.tp_skeleton = Some(self.build_tp_skeleton());
        }
        for _sweep in 0..6 {
            self.two_phase_values_into(&h_map, &tsat_map, ws)?;
            self.tp_skeleton
                .as_mut()
                .expect("just built")
                .factorize_into(
                    &ws.vals,
                    tp_factors,
                    &mut self.stats,
                    &mut ws.refactor_scratch,
                )?;
            self.scatter_powers(tier_powers, &mut ws.rhs)?;
            let factors = tp_factors.as_ref().expect("factorised");
            factors.solve_with(&mut ws.lu, &ws.rhs, &mut self.state)?;
            self.stats.in_place_solves += 1;

            // Per-cell heat into the fluid, then re-march quality/pressure
            // and update the HTC field.
            summary.heat_absorbed = 0.0;
            summary.peak_htc = 0.0;
            summary.max_exit_quality = tp.inlet_quality;
            summary.min_saturation = tp.inlet_saturation;
            for (z, spec) in &cavity_layers {
                let geom = ChannelGeometry::new(spec.channel_width(), spec.height(), self.width)
                    .map_err(|e| ThermalError::InvalidFlow {
                        detail: e.to_string(),
                    })?;
                let n_ch_cell = self.dy / spec.pitch();
                let mdot_cell = tp.mass_flux * geom.cross_area() * n_ch_cell;
                let below = z.checked_sub(1);
                let above = (*z + 1 < self.layers.len()).then_some(z + 1);
                for iy in 0..ny {
                    let mut x_local = tp.inlet_quality;
                    let mut p_local = inlet_state.pressure;
                    for ix in 0..nx {
                        let f_idx = self.node(*z, iy, ix);
                        let t_f = self.state[f_idx];
                        // Heat flowing into this fluid cell from its solid
                        // neighbours through the convective conductances.
                        let mut q_cell = 0.0;
                        let a_eff = self.effective_wetted_area(spec, h_map[f_idx]);
                        for n in [below, above].into_iter().flatten() {
                            if !matches!(self.layers[n], LayerModel::Solid { .. }) {
                                continue;
                            }
                            let g = Self::series(&[
                                h_map[f_idx] * a_eff,
                                self.half_conductance(n, 1.0),
                            ]);
                            q_cell += g * (self.state[self.node(n, iy, ix)] - t_f);
                        }
                        summary.heat_absorbed += q_cell;

                        let local_state = props.saturation_state_at_pressure(p_local)?;
                        // Quality march.
                        let dx_len = self.dx;
                        x_local += (q_cell / (mdot_cell * local_state.h_fg)).max(0.0);
                        if x_local >= tp.dryout_quality {
                            return Err(ThermalError::Dryout {
                                cavity: *z,
                                quality: x_local,
                            });
                        }
                        // Pressure march (homogeneous model).
                        let dpdz = cmosaic_twophase::boiling::pressure_gradient(
                            &geom,
                            &local_state,
                            tp.mass_flux,
                            x_local.min(1.0),
                            0.0,
                        )
                        .map_err(|e| ThermalError::InvalidFlow {
                            detail: e.to_string(),
                        })?;
                        p_local = cmosaic_materials::units::Pressure(p_local.0 - dpdz * dx_len);
                        let tsat = props.saturation_temperature(p_local)?;
                        tsat_map[f_idx] = tsat.0;
                        if tsat.0 < summary.min_saturation.0 {
                            summary.min_saturation = tsat;
                        }
                        // HTC update from the realised flux (under-relaxed).
                        let q_flux = (q_cell / (2.0 * self.cell_area())).max(1.0e3);
                        let h_new = cmosaic_twophase::boiling::two_phase_htc(
                            &props,
                            &geom,
                            &local_state,
                            x_local.min(1.0),
                            q_flux,
                        )
                        .map_err(|e| ThermalError::InvalidFlow {
                            detail: e.to_string(),
                        })?;
                        h_map[f_idx] = 0.5 * h_map[f_idx] + 0.5 * h_new;
                        if h_map[f_idx] > summary.peak_htc {
                            summary.peak_htc = h_map[f_idx];
                        }
                        if x_local > summary.max_exit_quality {
                            summary.max_exit_quality = x_local;
                        }
                    }
                }
            }
        }
        summary.dryout_margin = tp.dryout_quality - summary.max_exit_quality;
        self.two_phase_summary = Some(summary);
        Ok(())
    }

    /// Effective wetted area per cell per side (fin-enhanced), for the
    /// current local HTC.
    fn effective_wetted_area(&self, spec: &CavitySpec, h: f64) -> f64 {
        let phi = spec.porosity();
        let hc = spec.height();
        let pitch = spec.pitch();
        let t_wall = pitch - spec.channel_width();
        let k_wall = spec.wall().thermal_conductivity();
        let m = (2.0 * h.max(1.0) / (k_wall * t_wall)).sqrt();
        let mh = m * hc / 2.0;
        let eta_fin = if mh > 1e-9 { mh.tanh() / mh } else { 1.0 };
        self.cell_area() * (phi + (hc / pitch) * eta_fin)
    }

    /// Assembles the static part of the two-phase operator once: fluid
    /// cells are Dirichlet rows (unit diagonal), solid conduction and the
    /// wall through-paths carry their final values, and the boiling-HTC-
    /// dependent one-sided couplings are zero-valued placeholders for
    /// [`ThermalModel::fill_two_phase_values`].
    fn build_tp_skeleton(&self) -> OperatorSkeleton {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let mut t = TripletMatrix::with_capacity(self.n_nodes, self.n_nodes, self.n_nodes * 8);
        let mut rhs = vec![0.0; self.n_nodes];
        let a_cell = self.cell_area();

        // Lateral conduction within solid layers (same as single-phase).
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Solid { conductivity, .. } = l else {
                continue;
            };
            let tz = self.thicknesses[z];
            let gx = conductivity * self.dy * tz / self.dx;
            let gy = conductivity * self.dx * tz / self.dy;
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = self.node(z, iy, ix);
                    if ix + 1 < nx {
                        t.stamp_conductance(i, self.node(z, iy, ix + 1), gx);
                    }
                    if iy + 1 < ny {
                        t.stamp_conductance(i, self.node(z, iy + 1, ix), gy);
                    }
                }
            }
        }

        // Solid-solid vertical coupling.
        for z in 0..self.layers.len().saturating_sub(1) {
            let below_solid = matches!(self.layers[z], LayerModel::Solid { .. });
            let above_solid = matches!(self.layers[z + 1], LayerModel::Solid { .. });
            if below_solid && above_solid {
                let g = Self::series(&[
                    self.half_conductance(z, 1.0),
                    self.half_conductance(z + 1, 1.0),
                ]);
                for iy in 0..ny {
                    for ix in 0..nx {
                        t.stamp_conductance(self.node(z, iy, ix), self.node(z + 1, iy, ix), g);
                    }
                }
            }
        }

        // Cavity layers: Dirichlet fluid rows and silicon wall paths.
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Cavity { spec } = l else {
                continue;
            };
            let phi = spec.porosity();
            let k_wall = spec.wall().thermal_conductivity();
            let (below, above) = self.cavity_neighbours(z);
            for iy in 0..ny {
                for ix in 0..nx {
                    let f = self.node(z, iy, ix);
                    // Dirichlet row: T_f = T_sat(local); the RHS value is
                    // dynamic.
                    t.push(f, f, 1.0);
                    if let (Some(b), Some(a)) = (below, above) {
                        let g_wall = Self::series(&[
                            self.half_conductance(b, 1.0 - phi),
                            k_wall * a_cell * (1.0 - phi) / self.thicknesses[z],
                            self.half_conductance(a, 1.0 - phi),
                        ]);
                        t.stamp_conductance(self.node(b, iy, ix), self.node(a, iy, ix), g_wall);
                    }
                }
            }
        }

        // Lumped sink node (unusual on a two-phase stack, but allowed).
        if let Some(sink) = &self.sink {
            let s = self.n_cells;
            let zt = self.layers.len() - 1;
            for iy in 0..ny {
                for ix in 0..nx {
                    t.stamp_conductance(self.node(zt, iy, ix), s, self.half_conductance(zt, 1.0));
                }
            }
            t.push(s, s, sink.conductance);
            rhs[s] += sink.conductance * sink.ambient.0;
        }

        // Boiling-HTC-dependent one-sided couplings, placeholder order
        // mirrored by `fill_two_phase_values`.
        let dyn_start = t.nnz();
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Cavity { .. } = l else {
                continue;
            };
            let (below, above) = self.cavity_neighbours(z);
            for iy in 0..ny {
                for ix in 0..nx {
                    let f = self.node(z, iy, ix);
                    for n in [below, above].into_iter().flatten() {
                        let ni = self.node(n, iy, ix);
                        t.push(ni, ni, 0.0);
                        t.push(ni, f, 0.0);
                    }
                }
            }
        }

        OperatorSkeleton::new(&t, rhs, None, dyn_start)
    }

    /// Produces the two-phase operator values and RHS for the given local
    /// HTC and saturation-temperature fields into the workspace — an
    /// O(nnz) rewrite per fixed-point sweep, allocation-free once warm.
    fn two_phase_values_into(
        &self,
        h_map: &[f64],
        tsat_map: &[f64],
        ws: &mut ModelWorkspace,
    ) -> Result<(), ThermalError> {
        let skel = self.tp_skeleton.as_ref().expect("two-phase skeleton built");
        copy_into(&mut ws.vals, &skel.base_vals, &mut ws.grows);
        copy_into(&mut ws.rhs, &skel.base_rhs, &mut ws.grows);
        let (vals, rhs) = (&mut ws.vals, &mut ws.rhs);
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let mut k = skel.dyn_start;
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Cavity { spec } = l else {
                continue;
            };
            let (below, above) = self.cavity_neighbours(z);
            for iy in 0..ny {
                for ix in 0..nx {
                    let f = self.node(z, iy, ix);
                    rhs[f] = tsat_map[f];
                    let a_eff = self.effective_wetted_area(spec, h_map[f]);
                    for n in [below, above].into_iter().flatten() {
                        let g = Self::series(&[h_map[f] * a_eff, self.half_conductance(n, 1.0)]);
                        vals[k] = g;
                        vals[k + 1] = -g;
                        k += 2;
                    }
                }
            }
        }
        debug_assert_eq!(k, vals.len(), "dynamic fill must cover the whole tail");
        Ok(())
    }

    /// Advances the transient state by `dt` seconds under the given power
    /// maps (backward Euler) and returns the new field.
    ///
    /// Prefer [`ThermalModel::step_into`] in tight loops: it reuses a
    /// caller-owned field buffer and, once warm, performs zero heap
    /// allocation per sub-step.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidTimestep`], plus the conditions of
    /// [`ThermalModel::steady_state`].
    pub fn step(
        &mut self,
        tier_powers: &[Vec<f64>],
        dt: f64,
    ) -> Result<TemperatureField, ThermalError> {
        self.step_in_place(tier_powers, dt)?;
        Ok(self.field_from_state())
    }

    /// Allocation-free transient step: advances the state by `dt` seconds
    /// and overwrites `field` with the result, reusing its buffers.
    ///
    /// On the warm path (operator cached, workspace and `field` sized) the
    /// whole sub-step — RHS assembly, triangular solve, state ping-pong
    /// swap, field update — touches the heap zero times;
    /// [`SolverStats::workspace_grows`] stays flat, which the tests
    /// assert.
    ///
    /// # Errors
    ///
    /// See [`ThermalModel::step`].
    pub fn step_into(
        &mut self,
        tier_powers: &[Vec<f64>],
        dt: f64,
        field: &mut TemperatureField,
    ) -> Result<(), ThermalError> {
        self.step_in_place(tier_powers, dt)?;
        self.current_field_into(field);
        Ok(())
    }

    fn step_in_place(&mut self, tier_powers: &[Vec<f64>], dt: f64) -> Result<(), ThermalError> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(ThermalError::InvalidTimestep { dt });
        }
        if self.is_two_phase() {
            return Err(ThermalError::UnsupportedStack {
                detail: "transient two-phase simulation is not supported; \
                         use steady_state (the film's thermal storage makes \
                         quasi-static analysis the conservative choice)"
                    .into(),
            });
        }
        let mut ws = std::mem::take(&mut self.workspace);
        let r = self.step_core(&mut ws, tier_powers, dt);
        self.stats.workspace_grows += std::mem::take(&mut ws.grows);
        self.workspace = ws;
        r
    }

    fn step_core(
        &mut self,
        ws: &mut ModelWorkspace,
        tier_powers: &[Vec<f64>],
        dt: f64,
    ) -> Result<(), ThermalError> {
        self.ensure_transient(dt, ws)?;
        let key = self.transient_key(dt);
        {
            let op = self.transient_cache.peek(&key).expect("ensured above");
            copy_into(&mut ws.rhs, &op.rhs_base, &mut ws.grows);
        }
        self.scatter_powers(tier_powers, &mut ws.rhs)?;
        for ((r, &c), &s) in ws.rhs.iter_mut().zip(&self.capacitance).zip(&self.state) {
            *r += c / dt * s;
        }
        ensure_len(&mut ws.next_state, self.n_nodes, &mut ws.grows);
        // The solution target is lifted out of the workspace for the call
        // (mem::take of a Vec is pointer-swap, not allocation) so the
        // solver can borrow the rest of the workspace alongside it.
        let mut next = std::mem::take(&mut ws.next_state);
        if self.params.warm_start {
            // Seed the iterative solve from the current state (the
            // ping-pong buffer otherwise holds the state of two steps
            // ago). With the flag off, BiCGSTAB overwrites `next`
            // unconditionally and stays bit-identical per solve.
            next.copy_from_slice(&self.state);
        }
        let r = Self::solve_operator(
            &mut self.transient_cache,
            self.params.solver,
            self.params.warm_start,
            key,
            ws,
            &mut next,
            &mut self.stats,
        );
        ws.next_state = next;
        r?;
        // Ping-pong: the solved buffer becomes the state, the old state
        // becomes next step's solution target.
        std::mem::swap(&mut self.state, &mut ws.next_state);
        self.stats.in_place_solves += 1;
        Ok(())
    }

    /// The current temperature field (initial temperature before any
    /// solve).
    pub fn current_field(&self) -> TemperatureField {
        self.field_from_state()
    }

    /// Resets every node to `t`.
    pub fn reset(&mut self, t: Kelvin) {
        self.state.iter_mut().for_each(|s| *s = t.0);
    }

    /// Heat carried away by the coolant in the current state, in watts
    /// (sum over cavities of `ṁ·c_p·(T_out − T_in)` per channel row). At
    /// steady state this equals the injected power — the energy-conservation
    /// check used by the tests.
    pub fn fluid_heat_removed(&self) -> f64 {
        if let Some(s) = &self.two_phase_summary {
            return s.heat_absorbed;
        }
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let mut total = 0.0;
        for (z, l) in self.layers.iter().enumerate() {
            let LayerModel::Cavity { spec } = l else {
                continue;
            };
            let n_ch = spec.channel_count(self.height).max(1);
            let q_ch = self.flow.0 / n_ch as f64;
            let n_ch_cell = self.dy / spec.pitch();
            let mdot_cp = self.coolant.density * q_ch * n_ch_cell * self.coolant.specific_heat;
            // The stamped advection operator telescopes along each row to
            // `coeff · (T_last − T_inlet)`, with `coeff` doubled under the
            // linear-profile scheme (where cell temperatures represent the
            // in/out mean rather than the outflow).
            let coeff = match self.params.advection {
                AdvectionScheme::Upwind => mdot_cp,
                AdvectionScheme::LinearProfile => 2.0 * mdot_cp,
            };
            for iy in 0..ny {
                let t_last = self.state[self.node(z, iy, nx - 1)];
                total += coeff * (t_last - self.params.inlet.0);
            }
        }
        total
    }

    /// Mean coolant outflow temperature over all cavities (the quantity a
    /// loop-level heat exchanger sees).
    pub fn fluid_outlet_mean(&self) -> Kelvin {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let mut sum = 0.0;
        let mut count = 0usize;
        for (z, l) in self.layers.iter().enumerate() {
            if !matches!(l, LayerModel::Cavity { .. }) {
                continue;
            }
            for iy in 0..ny {
                sum += self.state[self.node(z, iy, nx - 1)];
                count += 1;
            }
        }
        if count == 0 {
            self.params.inlet
        } else {
            Kelvin(sum / count as f64)
        }
    }

    /// Occupancy and eviction statistics of the bounded operator caches
    /// (diagnostics).
    pub fn cached_operators(&self) -> CacheStats {
        CacheStats {
            steady_entries: self.steady_cache.len(),
            transient_entries: self.transient_cache.len(),
            steady_evictions: self.steady_cache.evictions(),
            transient_evictions: self.transient_cache.evictions(),
            capacity: self.steady_cache.capacity(),
        }
    }

    /// Which solver paths this model has taken so far (diagnostics): full
    /// factorisations vs. numeric refactorisations vs. O(nnz) value
    /// updates, plus the workspace counters behind the zero-allocation
    /// contract.
    pub fn solver_stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.workspace_grows += self.workspace.lu.grows() + self.workspace.iter.grows();
        s
    }

    /// This model's operator-pattern signature (see [`PatternSignature`]).
    pub fn pattern_signature(&self) -> PatternSignature {
        PatternSignature {
            nx: self.grid.nx(),
            ny: self.grid.ny(),
            layer_kinds: self
                .layers
                .iter()
                .map(|l| match l {
                    LayerModel::Solid { .. } => 0,
                    LayerModel::Cavity { .. } => 1,
                })
                .collect(),
            n_tiers: self.source_layers.len(),
            has_sink: self.sink.is_some(),
            upwind: matches!(self.params.advection, AdvectionScheme::Upwind),
            two_phase: self.is_two_phase(),
        }
    }

    /// Snapshots the frozen symbolic analyses for sharing with other
    /// same-pattern models, or `None` if no factorisation has happened
    /// yet.
    pub fn export_analysis(&self) -> Option<SharedAnalysis> {
        let single = self.skeleton.as_ref().and_then(|s| s.symbolic.clone());
        let two_phase = self.tp_skeleton.as_ref().and_then(|s| s.symbolic.clone());
        if single.is_none() && two_phase.is_none() {
            return None;
        }
        Some(SharedAnalysis {
            signature: self.pattern_signature(),
            single,
            two_phase,
        })
    }

    /// Adopts a donor's frozen symbolic analyses so this model's first
    /// solve skips the full pivoting factorisation and goes straight to
    /// numeric refactorisation. Returns `true` if at least one analysis
    /// was installed (signature match and no local analysis yet).
    ///
    /// Safe against bad donors: the refactorisation path verifies the
    /// exact sparsity pattern and transparently re-pivots locally on
    /// mismatch.
    pub fn adopt_analysis(&mut self, analysis: &SharedAnalysis) -> bool {
        if analysis.signature != self.pattern_signature() {
            return false;
        }
        let mut adopted = false;
        if let Some(sym) = &analysis.single {
            if self.skeleton.is_none() {
                self.skeleton = Some(self.build_skeleton());
            }
            let skel = self.skeleton.as_mut().expect("just built");
            if skel.symbolic.is_none() && sym.n() == self.n_nodes {
                skel.symbolic = Some(Arc::clone(sym));
                skel.adopted = true;
                adopted = true;
            }
        }
        if let Some(sym) = &analysis.two_phase {
            if self.is_two_phase() {
                if self.tp_skeleton.is_none() {
                    self.tp_skeleton = Some(self.build_tp_skeleton());
                }
                let skel = self.tp_skeleton.as_mut().expect("just built");
                if skel.symbolic.is_none() && sym.n() == self.n_nodes {
                    skel.symbolic = Some(Arc::clone(sym));
                    skel.adopted = true;
                    adopted = true;
                }
            }
        }
        if adopted {
            self.stats.adopted_symbolics += 1;
        }
        adopted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TwoPhaseCoolant;
    use cmosaic_floorplan::stack::presets;

    fn grid() -> GridSpec {
        GridSpec::new(10, 10).unwrap()
    }

    fn uniform_powers(n_tiers: usize, watts_per_tier: f64, cells: usize) -> Vec<Vec<f64>> {
        (0..n_tiers)
            .map(|_| vec![watts_per_tier / cells as f64; cells])
            .collect()
    }

    #[test]
    fn air_cooled_single_tier_matches_lumped_analysis() {
        // One tier, uniform 20 W: the sink node must sit exactly at
        // ambient + P/G_sink, and the junction above it by the layer
        // resistances.
        let stack = presets::air_cooled_mpsoc(1).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        let field = m
            .steady_state(&uniform_powers(1, 20.0, g.cell_count()))
            .unwrap();
        let sink = field.sink().unwrap();
        let expected_sink = 45.0 + 20.0 / 10.0; // ambient + P/G
        assert!(
            (sink.to_celsius().0 - expected_sink).abs() < 0.05,
            "sink at {sink}, expected {expected_sink} °C"
        );
        // Junction is warmer than the sink but within the 1D estimate.
        let peak = field.max().to_celsius().0;
        assert!(peak > expected_sink);
        assert!(peak < expected_sink + 25.0, "peak {peak} too high");
    }

    #[test]
    fn liquid_cooled_conserves_energy() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(32.3))
            .unwrap();
        let total = 60.0;
        m.steady_state(&uniform_powers(2, total / 2.0, g.cell_count()))
            .unwrap();
        let removed = m.fluid_heat_removed();
        assert!(
            (removed - total).abs() < 0.01 * total,
            "fluid removes {removed} W of {total} W"
        );
    }

    #[test]
    fn both_advection_schemes_conserve_energy() {
        for scheme in [AdvectionScheme::Upwind, AdvectionScheme::LinearProfile] {
            let stack = presets::liquid_cooled_mpsoc(2).unwrap();
            let g = grid();
            let params = ThermalParams {
                advection: scheme,
                ..Default::default()
            };
            let mut m = ThermalModel::new(&stack, g, params).unwrap();
            m.set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
                .unwrap();
            m.steady_state(&uniform_powers(2, 25.0, g.cell_count()))
                .unwrap();
            let removed = m.fluid_heat_removed();
            assert!(
                (removed - 50.0).abs() < 0.6,
                "{scheme:?}: removed {removed} of 50 W"
            );
        }
    }

    #[test]
    fn caloric_rise_matches_mdot_cp() {
        // Outlet mean ≈ inlet + P/(ρ·c_p·Q_total).
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        let q = VolumetricFlow::from_ml_per_min(32.3);
        m.set_flow_rate(q).unwrap();
        let p_total = 60.0;
        m.steady_state(&uniform_powers(2, p_total / 2.0, g.cell_count()))
            .unwrap();
        let coolant = LiquidProperties::water_at(Kelvin::from_celsius(27.0)).unwrap();
        let dt_expected = p_total / (coolant.volumetric_heat_capacity() * q.0);
        let rise = m.fluid_outlet_mean().0 - Kelvin::from_celsius(27.0).0;
        assert!(
            (rise - dt_expected).abs() < 0.15 * dt_expected,
            "rise {rise} K vs caloric {dt_expected} K"
        );
    }

    #[test]
    fn more_flow_means_cooler_chip() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        let powers = uniform_powers(2, 30.0, g.cell_count());
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(10.0))
            .unwrap();
        let hot = m.steady_state(&powers).unwrap().max();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(32.3))
            .unwrap();
        let cool = m.steady_state(&powers).unwrap().max();
        assert!(cool.0 < hot.0, "{cool} !< {hot}");
    }

    #[test]
    fn more_power_means_hotter_everywhere() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
            .unwrap();
        let low = m
            .steady_state(&uniform_powers(2, 15.0, g.cell_count()))
            .unwrap();
        let high = m
            .steady_state(&uniform_powers(2, 30.0, g.cell_count()))
            .unwrap();
        for (l, h) in low.cells().iter().zip(high.cells()) {
            assert!(*h >= l - 1e-9);
        }
    }

    #[test]
    fn symmetric_power_gives_symmetric_field_across_y() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(25.0))
            .unwrap();
        let field = m
            .steady_state(&uniform_powers(2, 20.0, g.cell_count()))
            .unwrap();
        let (nx, ny) = field.grid_dims();
        let layer = field.layer(0);
        for iy in 0..ny / 2 {
            for ix in 0..nx {
                let a = layer[iy * nx + ix];
                let b = layer[(ny - 1 - iy) * nx + ix];
                assert!((a - b).abs() < 1e-6, "asymmetry at ({ix},{iy}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn temperature_rises_downstream() {
        // Under uniform power the junction temperature should increase
        // from inlet (x=0) to outlet (x=nx-1) — the single-phase signature
        // the two-phase §III contrasts against.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
            .unwrap();
        let field = m
            .steady_state(&uniform_powers(2, 30.0, g.cell_count()))
            .unwrap();
        let tier0 = field.tier(0);
        let nx = g.nx();
        let mid_row = (g.ny() / 2) * nx;
        assert!(
            tier0[mid_row + nx - 1] > tier0[mid_row] + 1.0,
            "outlet side must be warmer: {} vs {}",
            tier0[mid_row + nx - 1],
            tier0[mid_row]
        );
    }

    #[test]
    fn transient_approaches_steady_state() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(25.0))
            .unwrap();
        let powers = uniform_powers(2, 24.0, g.cell_count());
        let steady = m.steady_state(&powers).unwrap().max().0;
        // Restart cold and march.
        m.reset(Kelvin::from_celsius(27.0));
        let mut last = 0.0;
        for _ in 0..400 {
            last = m.step(&powers, 0.1).unwrap().max().0;
        }
        assert!(
            (last - steady).abs() < 0.3,
            "transient {last} K vs steady {steady} K"
        );
    }

    #[test]
    fn transient_is_monotone_under_constant_power_from_cold() {
        let stack = presets::air_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        let powers = uniform_powers(2, 30.0, g.cell_count());
        let mut prev = m.current_field().max().0;
        for _ in 0..50 {
            let now = m.step(&powers, 0.5).unwrap().max().0;
            assert!(now >= prev - 1e-9, "peak must rise monotonically");
            prev = now;
        }
    }

    #[test]
    fn four_tier_liquid_runs_cooler_than_two_tier_at_double_power() {
        // §IV.A: "the system temperature of a 4-tier 3D MPSoC is maintained
        // even lower than the 2-tier" thanks to 3 cavities vs 1.
        let g = grid();
        let mut m2 = ThermalModel::new(
            &presets::liquid_cooled_mpsoc(2).unwrap(),
            g,
            ThermalParams::default(),
        )
        .unwrap();
        let mut m4 = ThermalModel::new(
            &presets::liquid_cooled_mpsoc(4).unwrap(),
            g,
            ThermalParams::default(),
        )
        .unwrap();
        let q = VolumetricFlow::from_ml_per_min(32.3);
        m2.set_flow_rate(q).unwrap();
        m4.set_flow_rate(q).unwrap();
        let t2 = m2
            .steady_state(&uniform_powers(2, 30.0, g.cell_count()))
            .unwrap()
            .max();
        let t4 = m4
            .steady_state(&uniform_powers(4, 30.0, g.cell_count()))
            .unwrap()
            .max();
        assert!(t4.0 < t2.0, "4-tier {t4} should be cooler than 2-tier {t2}");
    }

    #[test]
    fn factorisations_are_cached_per_flow_level() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        let powers = uniform_powers(2, 10.0, g.cell_count());
        for _ in 0..3 {
            for ml in [10.0, 20.0, 32.3] {
                m.set_flow_rate(VolumetricFlow::from_ml_per_min(ml))
                    .unwrap();
                m.steady_state(&powers).unwrap();
            }
        }
        let cache = m.cached_operators();
        assert_eq!(cache.entries(), 3);
        assert_eq!(cache.evictions(), 0);
        // Revisited operating points hit the cache: three operator builds
        // total, not nine.
        assert_eq!(m.solver_stats().value_updates, 3);
    }

    #[test]
    fn one_full_factorisation_serves_every_operating_point() {
        // The tentpole invariant: exactly one full pivoting factorisation
        // per (stack, grid) configuration; every other flow rate, Δt
        // variant and cache rebuild goes through the numeric refactor +
        // value-update path.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        let powers = uniform_powers(2, 10.0, g.cell_count());
        for ml in [10.0, 14.0, 18.0, 22.0, 26.0, 32.3] {
            m.set_flow_rate(VolumetricFlow::from_ml_per_min(ml))
                .unwrap();
            m.steady_state(&powers).unwrap();
            for dt in [0.1, 0.25] {
                m.step(&powers, dt).unwrap();
            }
        }
        let s = m.solver_stats();
        assert_eq!(s.full_factorizations, 1, "{s:?}");
        assert_eq!(s.pivot_fallbacks, 0, "{s:?}");
        // 6 steady + 12 transient operators, all but the first refactored.
        assert_eq!(s.value_updates, 18, "{s:?}");
        assert_eq!(s.refactorizations, 17, "{s:?}");
    }

    #[test]
    fn operator_caches_are_bounded_with_eviction_stats() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        let powers = uniform_powers(2, 10.0, g.cell_count());
        let cap = m.cached_operators().capacity;
        let visited = cap + 4;
        for i in 0..visited {
            let ml = 10.0 + i as f64;
            m.set_flow_rate(VolumetricFlow::from_ml_per_min(ml))
                .unwrap();
            m.steady_state(&powers).unwrap();
        }
        let cache = m.cached_operators();
        assert_eq!(cache.steady_entries, cap, "cache must stay bounded");
        assert_eq!(cache.steady_evictions, (visited - cap) as u64);
        // Evicted operators rebuild through the cheap refactor path, never
        // a new full factorisation.
        assert_eq!(m.solver_stats().full_factorizations, 1);
    }

    #[test]
    fn refactored_operators_match_fresh_models() {
        // A model that has refactored its way through many operating
        // points must agree with a freshly-built model solving the same
        // point directly.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let powers = uniform_powers(2, 20.0, g.cell_count());
        let mut veteran = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        for ml in [10.0, 13.0, 17.0, 21.0, 25.0, 29.0] {
            veteran
                .set_flow_rate(VolumetricFlow::from_ml_per_min(ml))
                .unwrap();
            veteran.steady_state(&powers).unwrap();
        }
        veteran
            .set_flow_rate(VolumetricFlow::from_ml_per_min(32.3))
            .unwrap();
        let a = veteran.steady_state(&powers).unwrap();
        assert!(veteran.solver_stats().refactorizations > 0);

        let mut fresh = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        fresh
            .set_flow_rate(VolumetricFlow::from_ml_per_min(32.3))
            .unwrap();
        let b = fresh.steady_state(&powers).unwrap();
        for (u, v) in a.cells().iter().zip(b.cells()) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn two_phase_sweeps_share_one_full_factorisation() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, two_phase_params(2500.0)).unwrap();
        let powers = uniform_powers(2, 30.0, g.cell_count());
        m.steady_state(&powers).unwrap();
        m.steady_state(&powers).unwrap();
        let s = m.solver_stats();
        // 2 solves x 6 fixed-point sweeps, one full factorisation total.
        assert_eq!(s.full_factorizations, 1, "{s:?}");
        assert_eq!(s.value_updates, 12, "{s:?}");
        assert_eq!(s.refactorizations, 11, "{s:?}");
    }

    #[test]
    fn input_validation() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(4, 4).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        // Flow not set yet.
        assert!(matches!(
            m.steady_state(&uniform_powers(2, 1.0, 16)),
            Err(ThermalError::InvalidFlow { .. })
        ));
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
            .unwrap();
        // Wrong tier count / cell count.
        assert!(matches!(
            m.steady_state(&uniform_powers(1, 1.0, 16)),
            Err(ThermalError::PowerShape { .. })
        ));
        assert!(matches!(
            m.steady_state(&uniform_powers(2, 1.0, 9)),
            Err(ThermalError::PowerShape { .. })
        ));
        // Bad timestep.
        assert!(matches!(
            m.step(&uniform_powers(2, 1.0, 16), 0.0),
            Err(ThermalError::InvalidTimestep { .. })
        ));
        // Negative flow, and flow on an air-cooled stack.
        assert!(m.set_flow_rate(VolumetricFlow(-1.0)).is_err());
        let ac = presets::air_cooled_mpsoc(2).unwrap();
        let mut mac = ThermalModel::new(&ac, g, ThermalParams::default()).unwrap();
        assert!(mac
            .set_flow_rate(VolumetricFlow::from_ml_per_min(10.0))
            .is_err());
    }

    fn two_phase_params(mass_flux: f64) -> ThermalParams {
        ThermalParams {
            coolant: Coolant::TwoPhase(TwoPhaseCoolant::r134a_30c(mass_flux)),
            ..Default::default()
        }
    }

    #[test]
    fn two_phase_stack_is_near_isothermal() {
        // §III: an evaporating refrigerant absorbs heat "without an
        // increase in its temperature" — the junction field must be far
        // more uniform than the single-phase one at the same power.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let powers = uniform_powers(2, 30.0, g.cell_count());

        let mut water = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        water
            .set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
            .unwrap();
        let wf = water.steady_state(&powers).unwrap();
        let water_span =
            wf.tier_max(0).0 - wf.tier(0).iter().copied().fold(f64::INFINITY, f64::min);

        let mut tp = ThermalModel::new(&stack, g, two_phase_params(2000.0)).unwrap();
        assert!(tp.is_two_phase());
        let tf = tp.steady_state(&powers).unwrap();
        let tp_span = tf.tier_max(0).0 - tf.tier(0).iter().copied().fold(f64::INFINITY, f64::min);

        assert!(
            tp_span < water_span,
            "two-phase junction span {tp_span:.2} K must beat water {water_span:.2} K"
        );
    }

    #[test]
    fn two_phase_absorbs_all_the_power() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        // The mass flux must be sized for the duty: 60 W over 66 channels
        // of 50x100 um needs G ~ 2500 kg/m²s to stay below dry-out.
        let mut m = ThermalModel::new(&stack, g, two_phase_params(2500.0)).unwrap();
        let total = 60.0;
        m.steady_state(&uniform_powers(2, total / 2.0, g.cell_count()))
            .unwrap();
        let s = m.two_phase_summary().expect("summary recorded");
        assert!(
            (s.heat_absorbed - total).abs() < 0.02 * total,
            "refrigerant absorbs {} of {} W",
            s.heat_absorbed,
            total
        );
        assert!((m.fluid_heat_removed() - s.heat_absorbed).abs() < 1e-9);
        assert!(s.dryout_margin > 0.0);
        assert!(s.peak_htc > 1.0e3);
        // The saturation temperature falls along the channel.
        assert!(s.min_saturation.0 < Kelvin::from_celsius(30.0).0);
    }

    #[test]
    fn two_phase_dryout_is_detected() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        // Starved flow at high power must dry out.
        let mut m = ThermalModel::new(&stack, g, two_phase_params(8.0)).unwrap();
        let r = m.steady_state(&uniform_powers(2, 40.0, g.cell_count()));
        assert!(matches!(r, Err(ThermalError::Dryout { .. })), "{r:?}");
    }

    #[test]
    fn two_phase_mode_rejects_flow_and_transient_calls() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let mut m = ThermalModel::new(&stack, g, two_phase_params(300.0)).unwrap();
        assert!(m
            .set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
            .is_err());
        assert!(matches!(
            m.step(&uniform_powers(2, 1.0, 36), 0.1),
            Err(ThermalError::UnsupportedStack { .. })
        ));
        // Two-phase coolant on an air-cooled (cavity-less) stack rejected.
        let ac = presets::air_cooled_mpsoc(2).unwrap();
        assert!(ThermalModel::new(&ac, g, two_phase_params(300.0)).is_err());
    }

    #[test]
    fn two_phase_hot_spot_self_regulates() {
        // A strong hot spot on tier 0: the junction excursion above the
        // surrounding cells must be much smaller than the flux contrast
        // (the boiling HTC rises locally).
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        // The hot row alone carries ~5 W (a ~280 W/cm² cell), so the mass
        // flux must give each channel row enough latent capacity.
        let mut m = ThermalModel::new(&stack, g, two_phase_params(1600.0)).unwrap();
        let mut powers = uniform_powers(2, 8.0, g.cell_count());
        let hot = g.index(4, 4);
        powers[0][hot] += 4.0; // ~33x the background cell power
        let field = m.steady_state(&powers).unwrap();
        let tier0 = field.tier(0);
        let background = tier0[g.index(1, 1)];
        let peak = tier0[hot];
        let rise_ratio =
            (peak - Kelvin::from_celsius(30.0).0) / (background - Kelvin::from_celsius(30.0).0);
        // The hot cell carries ~65x the background cell's power; the
        // boiling HTC's q''-dependence compresses the junction-rise
        // contrast several-fold.
        assert!(
            rise_ratio < 20.0,
            "junction rise ratio {rise_ratio:.1} must stay far below the ~65x flux contrast"
        );
        // A ~280 W/cm² cell held below 110 °C by boiling alone.
        assert!(
            peak < Kelvin::from_celsius(110.0).0,
            "peak {peak} K too hot"
        );
    }

    #[test]
    fn nearby_flow_rates_never_alias_cached_operators() {
        // The cache key is the exact flow bit pattern: two flows one ULP
        // apart are different operating points and must occupy different
        // slots (and likewise for transient Δt).
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        let powers = uniform_powers(2, 10.0, g.cell_count());
        let q = VolumetricFlow::from_ml_per_min(20.0);
        let q_nearby = VolumetricFlow(f64::from_bits(q.0.to_bits() + 1));
        assert_ne!(q.0, q_nearby.0);
        m.set_flow_rate(q).unwrap();
        m.steady_state(&powers).unwrap();
        m.set_flow_rate(q_nearby).unwrap();
        m.steady_state(&powers).unwrap();
        assert_eq!(m.cached_operators().steady_entries, 2);
        assert_eq!(m.solver_stats().value_updates, 2, "no aliased cache hit");
        // Transient keys embed the exact Δt bits: same flow, two nearby
        // Δt values → two operators.
        let dt: f64 = 0.25;
        let dt_nearby = f64::from_bits(dt.to_bits() + 1);
        m.step(&powers, dt).unwrap();
        m.step(&powers, dt_nearby).unwrap();
        assert_eq!(m.cached_operators().transient_entries, 2);
        // And a steady key can never collide with a transient key for the
        // same flow.
        assert_ne!(m.steady_key(), m.transient_key(dt));
    }

    #[test]
    fn warm_transient_path_is_allocation_free() {
        // The zero-allocation contract: once the operator is cached and
        // the workspace is warm, stepping grows no buffer — every
        // sub-step is RHS assembly + triangular solve + ping-pong swap
        // inside persistent storage.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(25.0))
            .unwrap();
        let powers = uniform_powers(2, 20.0, g.cell_count());
        let mut field = m.current_field();
        // Warm-up: builds skeleton, factorises, sizes every buffer.
        m.step_into(&powers, 0.25, &mut field).unwrap();
        m.step_into(&powers, 0.25, &mut field).unwrap();
        let warm = m.solver_stats();
        for _ in 0..200 {
            m.step_into(&powers, 0.25, &mut field).unwrap();
        }
        let s = m.solver_stats();
        assert_eq!(
            s.workspace_grows, warm.workspace_grows,
            "warm sub-steps must not grow any workspace buffer: {s:?}"
        );
        assert_eq!(s.in_place_solves, warm.in_place_solves + 200);
        // The whole run still used exactly one full factorisation.
        assert_eq!(s.full_factorizations, 1);
    }

    #[test]
    fn step_into_matches_step_bitwise() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let powers = uniform_powers(2, 15.0, g.cell_count());
        let q = VolumetricFlow::from_ml_per_min(20.0);

        let mut a = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        a.set_flow_rate(q).unwrap();
        let mut b = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        b.set_flow_rate(q).unwrap();

        let mut field = b.current_field();
        for _ in 0..10 {
            let fa = a.step(&powers, 0.25).unwrap();
            b.step_into(&powers, 0.25, &mut field).unwrap();
            assert_eq!(fa.raw(), field.raw(), "identical bits, identical fields");
        }
        assert_eq!(field.grid_dims(), (6, 6));
    }

    #[test]
    fn adopted_analysis_skips_the_full_factorisation() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let powers = uniform_powers(2, 20.0, g.cell_count());

        // Donor: solves once, capturing the symbolic analysis.
        let mut donor = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        donor
            .set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
            .unwrap();
        donor.steady_state(&powers).unwrap();
        let analysis = donor.export_analysis().expect("donor factorised");

        // Adopter at a *different* operating point: zero full
        // factorisations, refactor-only.
        let mut adopter = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        assert!(adopter.adopt_analysis(&analysis));
        adopter
            .set_flow_rate(VolumetricFlow::from_ml_per_min(28.0))
            .unwrap();
        let fa = adopter.steady_state(&powers).unwrap();
        let s = adopter.solver_stats();
        assert_eq!(s.full_factorizations, 0, "{s:?}");
        assert!(s.refactorizations >= 1, "{s:?}");
        assert_eq!(s.adopted_symbolics, 1);

        // The adopted path agrees with an independent model to solver
        // round-off.
        let mut fresh = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        fresh
            .set_flow_rate(VolumetricFlow::from_ml_per_min(28.0))
            .unwrap();
        let ff = fresh.steady_state(&powers).unwrap();
        for (u, v) in fa.cells().iter().zip(ff.cells()) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }

        // A signature mismatch (different grid) refuses adoption.
        let g2 = GridSpec::new(8, 8).unwrap();
        let mut other = ThermalModel::new(&stack, g2, ThermalParams::default()).unwrap();
        assert!(!other.adopt_analysis(&analysis));
        assert_eq!(other.solver_stats().adopted_symbolics, 0);
    }

    #[test]
    fn refactorisation_scratch_growth_is_counted_once_on_either_path() {
        // A fresh model's first analysis and an adopter's first
        // refactorisation size the same buffers, the refactorisation
        // scratch included, so their growth counts agree; warm solves on
        // either path grow nothing.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let powers = uniform_powers(2, 20.0, g.cell_count());
        let model = |ml: f64| {
            let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
            m.set_flow_rate(VolumetricFlow::from_ml_per_min(ml))
                .unwrap();
            m
        };
        let mut fresh = model(20.0);
        fresh.steady_state(&powers).unwrap();
        let mut adopter = model(20.0);
        assert!(adopter.adopt_analysis(&fresh.export_analysis().unwrap()));
        adopter.steady_state(&powers).unwrap();
        let (f, a) = (fresh.solver_stats(), adopter.solver_stats());
        assert_eq!((f.full_factorizations, f.refactorizations), (1, 0), "{f:?}");
        assert_eq!((a.full_factorizations, a.refactorizations), (0, 1), "{a:?}");
        assert!(f.workspace_grows >= 1, "{f:?}");
        assert_eq!(f.workspace_grows, a.workspace_grows, "{f:?} vs {a:?}");
        for m in [&mut fresh, &mut adopter] {
            let warm = m.solver_stats();
            for ml in [24.0, 28.0, 32.0] {
                m.set_flow_rate(VolumetricFlow::from_ml_per_min(ml))
                    .unwrap();
                m.steady_state(&powers).unwrap();
            }
            let s = m.solver_stats();
            assert_eq!(s.refactorizations, warm.refactorizations + 3, "{s:?}");
            assert_eq!(s.workspace_grows, warm.workspace_grows, "{s:?}");
        }
    }

    #[test]
    fn paper_patterns_store_a_tight_lu_envelope() {
        // The direct LU stores each factor column as one contiguous row
        // range; on the four 12×12 paper patterns (2/4 tiers, air/water)
        // under RCM, the zeros that contiguity pads in stay a small
        // fraction of the exact fill.
        let g = GridSpec::new(12, 12).unwrap();
        for tiers in [2, 4] {
            for liquid in [false, true] {
                let stack = if liquid {
                    presets::liquid_cooled_mpsoc(tiers).unwrap()
                } else {
                    presets::air_cooled_mpsoc(tiers).unwrap()
                };
                let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
                if liquid {
                    m.set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
                        .unwrap();
                }
                m.step(&uniform_powers(tiers, 20.0, g.cell_count()), 0.25)
                    .unwrap();
                let sym = m.skeleton.as_ref().and_then(|s| s.symbolic.as_ref());
                let sym = sym.expect("the step factorised");
                let ratio = (sym.nnz_l() + sym.nnz_u()) as f64 / sym.exact_nnz() as f64;
                assert!(
                    (1.0..=1.25).contains(&ratio),
                    "{tiers} tiers, liquid {liquid}: stored/exact = {ratio:.3}"
                );
            }
        }
    }

    #[test]
    fn paper_patterns_analyse_to_the_pivoting_analysis() {
        // A fresh pattern's analysis is Gilbert–Peierls' own, steady and
        // transient, on the four 12×12 paper patterns, and it pivots on the
        // diagonal: it equals the analysis of the same pattern with a unit
        // diagonal and negligible off-diagonals. These are the operators
        // `lu::analyse` serves by its margin-checked route; their smallest
        // relative pivot margins run from about 4.4e-5 (air-cooled, steady)
        // to 0.46 (liquid-cooled), against a required 2^-20.
        let g = GridSpec::new(12, 12).unwrap();
        for tiers in [2, 4] {
            for liquid in [false, true] {
                let stack = if liquid {
                    presets::liquid_cooled_mpsoc(tiers).unwrap()
                } else {
                    presets::air_cooled_mpsoc(tiers).unwrap()
                };
                let powers = uniform_powers(tiers, 20.0, g.cell_count());
                for transient in [false, true] {
                    let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
                    if liquid {
                        m.set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
                            .unwrap();
                    }
                    if transient {
                        m.step(&powers, 0.25).unwrap();
                    } else {
                        m.steady_state(&powers).unwrap();
                    }
                    let skel = m.skeleton.as_ref().expect("the solve assembled");
                    let (_, pivoted) =
                        lu::factor_with_symbolic(&skel.csc, lu::ColumnOrdering::Rcm).unwrap();
                    let (_, analysed) = lu::analyse(&skel.csc, lu::ColumnOrdering::Rcm).unwrap();
                    let case = format!("{tiers} tiers, liquid {liquid}, transient {transient}");
                    assert_eq!(analysed, pivoted, "{case}");
                    let mut dominant = skel.csc.clone();
                    let values: Vec<f64> = (0..dominant.ncols())
                        .flat_map(|c| dominant.col_iter(c).map(move |(r, _)| r == c))
                        .map(|diagonal| if diagonal { 1.0 } else { 1e-9 })
                        .collect();
                    let slots: Vec<usize> = (0..values.len()).collect();
                    dominant.update_values(&slots, &values);
                    let (_, diagonal) =
                        lu::factor_with_symbolic(&dominant, lu::ColumnOrdering::Rcm).unwrap();
                    assert_eq!(analysed, diagonal, "{case}: diagonal pivots");
                    let kept = skel.symbolic.as_deref().expect("the solve factorised");
                    assert_eq!(kept, &pivoted, "{case}");
                }
            }
        }
    }

    #[test]
    fn impossible_iteration_cap_falls_back_to_direct() {
        // A zero-iteration cap can never converge: the first solve lands
        // on the direct-LU fallback, which retires the operator to the
        // direct path — one lazy factorisation, one recorded fallback,
        // and later solves skip the doomed BiCGSTAB attempt entirely.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(6, 6).unwrap();
        let params = ThermalParams {
            solver: SolverBackend::IterativeMg {
                tolerance: 1e-10,
                max_iterations: 0,
            },
            ..Default::default()
        };
        let powers = uniform_powers(2, 15.0, g.cell_count());
        let q = VolumetricFlow::from_ml_per_min(20.0);

        let mut m = ThermalModel::new(&stack, g, params).unwrap();
        m.set_flow_rate(q).unwrap();
        let fa = m.steady_state(&powers).unwrap();
        m.steady_state(&powers).unwrap();
        let s = m.solver_stats();
        assert_eq!(s.iterative_solves, 0, "{s:?}");
        assert_eq!(
            s.iterative_fallbacks, 1,
            "the operator is retired after its first fallback: {s:?}"
        );
        assert_eq!(
            s.full_factorizations, 1,
            "the fallback LU is cached after the first use: {s:?}"
        );

        let mut direct = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        direct.set_flow_rate(q).unwrap();
        let fb = direct.steady_state(&powers).unwrap();
        for (u, v) in fa.cells().iter().zip(fb.cells()) {
            assert!(
                (u - v).abs() < 1e-9,
                "fallback must match direct: {u} vs {v}"
            );
        }
    }

    #[test]
    fn iterative_two_phase_rides_the_direct_path() {
        // The two-phase fixed-point sweeps always use direct LU; selecting
        // the iterative backend must not change their behaviour.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let params = ThermalParams {
            solver: SolverBackend::multigrid(),
            ..two_phase_params(2500.0)
        };
        let mut m = ThermalModel::new(&stack, g, params).unwrap();
        let powers = uniform_powers(2, 30.0, g.cell_count());
        m.steady_state(&powers).unwrap();
        let s = m.solver_stats();
        assert_eq!(s.iterative_solves, 0, "{s:?}");
        assert_eq!(s.full_factorizations, 1, "{s:?}");
    }

    #[test]
    fn hot_spot_stays_localised() {
        // Inject power into a single cell of tier 0: the hottest junction
        // cell must be that cell.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(25.0))
            .unwrap();
        let mut powers = uniform_powers(2, 0.0, g.cell_count());
        let hot_cell = g.index(2, 5);
        powers[0][hot_cell] = 5.0;
        let field = m.steady_state(&powers).unwrap();
        let tier0 = field.tier(0);
        let (imax, _) = tier0
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty");
        assert_eq!(imax, hot_cell);
    }

    fn multigrid_params() -> ThermalParams {
        ThermalParams {
            solver: SolverBackend::multigrid(),
            ..Default::default()
        }
    }

    fn dense(a: &CscMatrix) -> Vec<f64> {
        let (nr, nc) = (a.nrows(), a.ncols());
        let mut d = vec![0.0; nr * nc];
        for c in 0..nc {
            for k in a.col_ptr()[c]..a.col_ptr()[c + 1] {
                d[a.row_idx()[k] * nc + c] += a.values()[k];
            }
        }
        d
    }

    #[test]
    fn stencil_matches_assembled_skeleton_entrywise() {
        // The matrix-free stencil and the triplet-assembled skeleton are
        // two encodings of the same physics: their assembled operators
        // must agree entry by entry (to rounding — the diagonal sums its
        // terms in a different order), for both the steady and the
        // backward-Euler transient operator, and so must the constant
        // right-hand sides (bitwise: every entry is a single product).
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let mut m = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(25.0))
            .unwrap();
        let mut ws = ModelWorkspace::default();
        m.skeleton = Some(m.build_skeleton());
        for dt in [None, Some(0.25)] {
            m.operator_values_into(m.flow, dt, &mut ws).unwrap();
            let skel = m.skeleton.as_mut().unwrap();
            skel.csc.update_values(&skel.map, &ws.vals);
            let stencil = m.build_stencil(dt).unwrap();
            let da = dense(&m.skeleton.as_ref().unwrap().csc);
            let db = dense(&stencil.assemble());
            assert_eq!(da.len(), db.len());
            for (i, (u, v)) in da.iter().zip(&db).enumerate() {
                let scale = u.abs().max(v.abs()).max(1.0);
                assert!(
                    (u - v).abs() <= 1e-12 * scale,
                    "entry {i} (dt {dt:?}): skeleton {u} vs stencil {v}"
                );
            }
            assert_eq!(
                ws.rhs,
                m.stencil_rhs_base(&stencil),
                "constant RHS must match bitwise (dt {dt:?})"
            );
        }
    }

    #[test]
    fn multigrid_backend_matches_direct_steady_state() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = grid();
        let powers = uniform_powers(2, 30.0, g.cell_count());
        let q = VolumetricFlow::from_ml_per_min(25.0);

        let mut direct = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        direct.set_flow_rate(q).unwrap();
        let fd = direct.steady_state(&powers).unwrap();

        let mut mg = ThermalModel::new(&stack, g, multigrid_params()).unwrap();
        mg.set_flow_rate(q).unwrap();
        let fm = mg.steady_state(&powers).unwrap();

        for (u, v) in fm.cells().iter().zip(fd.cells()) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
        }
        let s = mg.solver_stats();
        assert_eq!(s.iterative_solves, 1, "{s:?}");
        assert_eq!(s.iterative_fallbacks, 0, "{s:?}");
        assert_eq!(
            s.full_factorizations, 0,
            "the fine level is never assembled, let alone factorised: {s:?}"
        );
        assert_eq!(
            s.value_updates, 0,
            "the multigrid happy path never rewrites the skeleton: {s:?}"
        );
        assert!(s.mg_cycles >= 1, "{s:?}");
        assert!(s.mg_smooth_sweeps >= s.mg_cycles, "{s:?}");
        assert!(s.mg_coarse_solves >= s.mg_cycles, "{s:?}");
    }

    #[test]
    fn multigrid_backend_matches_direct_transient_march() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        let powers = uniform_powers(2, 20.0, g.cell_count());
        let q = VolumetricFlow::from_ml_per_min(25.0);

        let mut direct = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        direct.set_flow_rate(q).unwrap();
        let mut mg = ThermalModel::new(&stack, g, multigrid_params()).unwrap();
        mg.set_flow_rate(q).unwrap();

        for _ in 0..40 {
            let fd = direct.step(&powers, 0.25).unwrap();
            let fm = mg.step(&powers, 0.25).unwrap();
            for (u, v) in fm.cells().iter().zip(fd.cells()) {
                assert!((u - v).abs() < 1e-4, "{u} vs {v}");
            }
        }
        let s = mg.solver_stats();
        assert_eq!(s.iterative_solves, 40, "{s:?}");
        assert_eq!(s.iterative_fallbacks, 0, "{s:?}");
        assert_eq!(s.full_factorizations, 0, "{s:?}");
    }

    #[test]
    fn warm_multigrid_transient_path_is_allocation_free() {
        // The zero-allocation contract extends to the multigrid backend:
        // once the stencil, hierarchy and BiCGSTAB workspace are warm,
        // stepping grows no buffer.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        let mut m = ThermalModel::new(&stack, g, multigrid_params()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(25.0))
            .unwrap();
        let powers = uniform_powers(2, 20.0, g.cell_count());
        let mut field = m.current_field();
        m.step_into(&powers, 0.25, &mut field).unwrap();
        m.step_into(&powers, 0.25, &mut field).unwrap();
        let warm = m.solver_stats();
        for _ in 0..100 {
            m.step_into(&powers, 0.25, &mut field).unwrap();
        }
        let s = m.solver_stats();
        assert_eq!(
            s.workspace_grows, warm.workspace_grows,
            "warm multigrid sub-steps must not grow any workspace buffer: {s:?}"
        );
        assert_eq!(s.iterative_solves, warm.iterative_solves + 100);
        assert_eq!(s.iterative_fallbacks, 0);
    }

    #[test]
    fn multigrid_runs_are_bit_reproducible() {
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        let powers = uniform_powers(2, 25.0, g.cell_count());
        let run = || {
            let mut m = ThermalModel::new(&stack, g, multigrid_params()).unwrap();
            m.set_flow_rate(VolumetricFlow::from_ml_per_min(20.0))
                .unwrap();
            let mut out = m.steady_state(&powers).unwrap().raw().to_vec();
            for _ in 0..5 {
                out = m.step(&powers, 0.25).unwrap().raw().to_vec();
            }
            out
        };
        assert_eq!(run(), run(), "identical bits run to run");
    }

    #[test]
    fn multigrid_on_uncoarsenable_grid_falls_back_to_direct() {
        // A 7×7 in-plane grid cannot halve: the hierarchy build bails
        // out, the fallback is recorded once, and the operating point
        // runs on the direct path — matching a direct model exactly.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(7, 7).unwrap();
        let powers = uniform_powers(2, 15.0, g.cell_count());
        let q = VolumetricFlow::from_ml_per_min(20.0);

        let mut m = ThermalModel::new(&stack, g, multigrid_params()).unwrap();
        m.set_flow_rate(q).unwrap();
        let fa = m.steady_state(&powers).unwrap();
        let s = m.solver_stats();
        assert_eq!(s.iterative_solves, 0, "{s:?}");
        assert_eq!(s.iterative_fallbacks, 1, "{s:?}");
        assert_eq!(s.full_factorizations, 1, "{s:?}");
        assert_eq!(s.mg_cycles, 0, "{s:?}");

        let mut direct = ThermalModel::new(&stack, g, ThermalParams::default()).unwrap();
        direct.set_flow_rate(q).unwrap();
        let fb = direct.steady_state(&powers).unwrap();
        assert_eq!(fa.raw(), fb.raw(), "fallback rides the exact direct path");
    }

    #[test]
    fn cold_iterative_solves_are_history_independent() {
        // The determinism contract behind `warm_start: false` (the
        // default): every solve's Krylov trajectory is a pure function
        // of its operator and right-hand side, so repeating a solve
        // reproduces it bitwise regardless of what was solved before.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        let powers = uniform_powers(2, 25.0, g.cell_count());
        let other = uniform_powers(2, 10.0, g.cell_count());
        let mut m = ThermalModel::new(&stack, g, multigrid_params()).unwrap();
        m.set_flow_rate(VolumetricFlow::from_ml_per_min(22.0))
            .unwrap();
        let f1 = m.steady_state(&powers).unwrap().raw().to_vec();
        m.steady_state(&other).unwrap();
        let f2 = m.steady_state(&powers).unwrap().raw().to_vec();
        assert_eq!(f1, f2, "cold starts must not see solve history");
    }

    #[test]
    fn warm_start_cuts_iterations_and_stays_within_tolerance() {
        // Seeding each transient solve from the previous state must pay
        // off where it matters — a long march of small steps — while the
        // fields stay within the iteration tolerance of the cold runs.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let g = GridSpec::new(8, 8).unwrap();
        let powers = uniform_powers(2, 20.0, g.cell_count());
        let q = VolumetricFlow::from_ml_per_min(25.0);
        let warm_params = ThermalParams {
            warm_start: true,
            ..multigrid_params()
        };
        let mut cold = ThermalModel::new(&stack, g, multigrid_params()).unwrap();
        cold.set_flow_rate(q).unwrap();
        let mut warm = ThermalModel::new(&stack, g, warm_params).unwrap();
        warm.set_flow_rate(q).unwrap();
        for _ in 0..30 {
            let fc = cold.step(&powers, 0.25).unwrap();
            let fw = warm.step(&powers, 0.25).unwrap();
            for (u, v) in fw.cells().iter().zip(fc.cells()) {
                assert!((u - v).abs() < 1e-5, "{u} vs {v}");
            }
        }
        let sc = cold.solver_stats();
        let sw = warm.solver_stats();
        assert!(
            sw.iterative_iterations < sc.iterative_iterations,
            "warm {} vs cold {} iterations",
            sw.iterative_iterations,
            sc.iterative_iterations
        );
        assert_eq!(sw.iterative_fallbacks, 0);
    }

    #[test]
    fn multigrid_iterations_stay_flat_as_the_grid_refines() {
        // The point of the V-cycle: from 32×32 to 128×128 the BiCGSTAB
        // iteration count under multigrid preconditioning must grow by
        // at most 1.5×.
        let stack = presets::liquid_cooled_mpsoc(2).unwrap();
        let q = VolumetricFlow::from_ml_per_min(25.0);
        let iters = |n: usize| {
            let g = GridSpec::new(n, n).unwrap();
            let powers = uniform_powers(2, 30.0, g.cell_count());
            let mut m = ThermalModel::new(&stack, g, multigrid_params()).unwrap();
            m.set_flow_rate(q).unwrap();
            m.steady_state(&powers).unwrap();
            let s = m.solver_stats();
            assert_eq!(s.iterative_fallbacks, 0, "{n}x{n}: {s:?}");
            s.iterative_iterations
        };
        let mg_ratio = iters(128) as f64 / iters(32) as f64;
        assert!(
            mg_ratio <= 1.5,
            "multigrid iterations grew {mg_ratio:.2}x from 32^2 to 128^2"
        );
    }
}
