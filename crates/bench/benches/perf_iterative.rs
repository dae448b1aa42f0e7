//! **Performance** — direct-LU vs matrix-free multigrid-BiCGSTAB thermal
//! backend across grid resolution, on the 2-tier liquid-cooled stack.
//!
//! Four measurements:
//!
//! 1. *allocations*: heap allocations per warm transient sub-step under
//!    the multigrid backend (a counting global allocator observes the
//!    truth — warm BiCGSTAB iterations and V-cycles must allocate
//!    exactly zero);
//! 2. *resolution sweep*: for each grid from 16×16 to 192×192, the
//!    operator *setup* cost (first steady solve: the LU analysis vs the
//!    matrix-free stencil + coarse hierarchy) and the *warm* per-solve
//!    cost (cached operator, new right-hand side) of each backend, plus
//!    the BiCGSTAB iteration counts and the agreement of the temperature
//!    fields. The two backends' warm solves at one resolution run in
//!    interleaved batches and each reports its fastest batch, as the
//!    kernels below do. Direct LU is sampled only up to 96×96 — past
//!    that its superlinear fill makes the comparison a formality and the
//!    sweep slow;
//! 3. *per-kernel timings*: the matrix-free stencil matvec against the
//!    assembled-CSC matvec of the *same operator*, and one multigrid
//!    V-cycle, isolated from the Krylov loop. The kernels run in
//!    interleaved batches and each reports its fastest batch
//!    ([`fastest_of_batches`]), so a ratio of two of them compares the
//!    kernels on one host at one time;
//! 4. *crossover + scaling*: where multigrid wins a fresh operating
//!    point, the break-even number of solves per operating point at
//!    which direct's setup amortises, the direct-over-multigrid setup
//!    ratio, and the resolution-independence figure — the multigrid
//!    iteration-count ratio from 32×32 to 128×128, which the
//!    nightly-perf job enforces a ceiling on.
//!
//! Writes machine-readable results to `BENCH_iterative.json` at the repo
//! root. Wall-clock assertions honour `CMOSAIC_BENCH_RELAX`; the
//! deterministic asserts (zero allocations, zero fallbacks, field
//! agreement, iteration-count scaling) always apply.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::time::Instant;

use cmosaic_bench::{banner, f, fastest_of_batches, kv, section, strict_timing, Table};
use cmosaic_floorplan::stack::presets;
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::VolumetricFlow;
use cmosaic_sparse::{GridShape, Multigrid, MultigridOptions, Preconditioner};
use cmosaic_thermal::{
    SolverBackend, SolverStats, StencilInterface, StencilLayer, StencilLayerKind, StencilOperator,
    ThermalModel, ThermalParams,
};

/// Counts every heap allocation so the zero-allocation contract is
/// measured, not assumed.
struct CountingAllocator;

static ALLOCATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

struct BackendSample {
    /// Unknowns of the model (cells of every layer, plus the sink node
    /// when the stack has one).
    nodes: usize,
    setup_ms: f64,
    warm_solve_ms: f64,
    iterations_per_solve: f64,
    peak: f64,
}

/// A backend's model at one resolution, past its cold steady solve.
struct Setup {
    model: ThermalModel,
    nodes: usize,
    setup_ms: f64,
    before_warm: SolverStats,
}

/// Builds a model on `grid` with `solver` and times its cold steady
/// solve: the operator setup.
fn setup(grid: GridSpec, solver: SolverBackend, powers: &[Vec<f64>]) -> Setup {
    let stack = presets::liquid_cooled_mpsoc(2).expect("preset");
    let params = ThermalParams {
        solver,
        ..Default::default()
    };
    let mut model = ThermalModel::new(&stack, grid, params).expect("model");
    model
        .set_flow_rate(VolumetricFlow::from_ml_per_min(32.3))
        .expect("valid flow");
    let t0 = Instant::now();
    let nodes = model.steady_state(powers).expect("cold solve").raw().len();
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let before_warm = model.solver_stats();
    Setup {
        model,
        nodes,
        setup_ms,
        before_warm,
    }
}

/// One warm steady solve: cached operator, the same right-hand side.
fn warm_solve(model: &mut ThermalModel, powers: &[Vec<f64>]) {
    std::hint::black_box(model.steady_state(powers).expect("warm solve"));
}

/// Completes `s` with its warm per-solve time, its BiCGSTAB iterations
/// per warm solve, and the peak of one more warm solve.
fn finish(mut s: Setup, warm_solve_ms: f64, powers: &[Vec<f64>]) -> BackendSample {
    let after = s.model.solver_stats();
    assert_eq!(
        after.iterative_fallbacks, 0,
        "the diagonally-dominant operator must never fall back: {after:?}"
    );
    let solves = after.iterative_solves - s.before_warm.iterative_solves;
    let iterations_per_solve = if solves > 0 {
        (after.iterative_iterations - s.before_warm.iterative_iterations) as f64 / solves as f64
    } else {
        0.0
    };
    let peak = s.model.steady_state(powers).expect("warm solve").max().0;
    BackendSample {
        nodes: s.nodes,
        setup_ms: s.setup_ms,
        warm_solve_ms,
        iterations_per_solve,
        peak,
    }
}

/// Warms up a multigrid model and measures allocations and wall-clock
/// per warm transient sub-step; also returns the workspace grow count
/// and the model's number of unknowns.
fn substep_allocs(grid: GridSpec, powers: &[Vec<f64>]) -> (f64, f64, u64, usize) {
    let stack = presets::liquid_cooled_mpsoc(2).expect("preset");
    let params = ThermalParams {
        solver: SolverBackend::multigrid(),
        ..Default::default()
    };
    let mut model = ThermalModel::new(&stack, grid, params).expect("model");
    model
        .set_flow_rate(VolumetricFlow::from_ml_per_min(32.3))
        .expect("valid flow");
    let mut field = model.current_field();
    for _ in 0..3 {
        model.step_into(powers, 0.25, &mut field).expect("warm-up");
    }
    let steps = 50;
    let a0 = allocations();
    let t0 = Instant::now();
    for _ in 0..steps {
        model.step_into(powers, 0.25, &mut field).expect("solves");
        std::hint::black_box(field.raw());
    }
    let substep_ms = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;
    let allocs_per_step = (allocations() - a0) as f64 / steps as f64;
    (
        allocs_per_step,
        substep_ms,
        model.solver_stats().workspace_grows,
        field.raw().len(),
    )
}

/// A representative 5-layer liquid-cooled stencil (two advecting
/// cavities with wall skip-paths between three solid layers) for the
/// per-kernel comparisons — same sparsity physics the thermal model
/// emits, constructed directly so the kernels are isolated from model
/// bookkeeping.
fn kernel_stencil(nres: usize) -> StencilOperator {
    let shape = GridShape {
        nx: nres,
        ny: nres,
        nz: 5,
        extra: 0,
    };
    let solid = StencilLayer {
        kind: StencilLayerKind::Solid,
        gx: 1.1,
        gy: 0.9,
        adv: 0.0,
        diag_extra: 0.4,
    };
    let cavity = StencilLayer {
        kind: StencilLayerKind::Cavity,
        gx: 0.0,
        gy: 0.0,
        adv: 2.3,
        diag_extra: 0.2,
    };
    StencilOperator::new(
        shape,
        vec![solid, cavity, solid, cavity, solid],
        vec![
            StencilInterface::symmetric(1.4),
            StencilInterface::symmetric(1.4),
            StencilInterface::symmetric(1.4),
            StencilInterface::symmetric(1.4),
        ],
        vec![0.0, 0.6, 0.0, 0.6, 0.0],
        None,
    )
}

struct KernelSample {
    stencil_matvec_ms: f64,
    csc_matvec_ms: f64,
    vcycle_ms: f64,
}

/// Times the three inner kernels at one resolution: matrix-free stencil
/// matvec vs assembled-CSC matvec (bit-identical products), and one
/// multigrid V-cycle (the per-Krylov-iteration preconditioner cost).
fn kernel_sample(nres: usize) -> KernelSample {
    let stencil = kernel_stencil(nres);
    let csc = stencil.assemble();
    let n = stencil.shape().n();
    let x: Vec<f64> = (0..n).map(|i| 300.0 + (i % 17) as f64 * 0.25).collect();
    let mut y = vec![0.0; n];
    let reps = (4_000_000 / n).clamp(3, 400);

    // The products must be bit-identical — the LinearOperator contract
    // the whole matrix-free backend rests on.
    let mut ys = vec![0.0; n];
    stencil.matvec_into(&x, &mut ys);
    csc.matvec_into(&x, &mut y);
    assert_eq!(ys, y, "stencil and CSC matvec disagree at {nres}x{nres}");

    // The preconditioner apply over the model's coarsening loop (floor
    // 64 in-plane cells).
    let mut levels = Vec::new();
    let mut cur = stencil.clone();
    while levels.is_empty() || cur.shape().nx * cur.shape().ny >= 64 {
        let Some(next) = cur.coarsen() else { break };
        let shape = cur.shape();
        let diag = cur.diagonal().to_vec();
        levels.push((cur, shape, diag));
        cur = next;
    }
    let coarse = cur.assemble();
    let mut mg = Multigrid::new(levels, &coarse, None, MultigridOptions::default())
        .expect("coarsenable kernel stencil");
    let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.1).collect();
    let mut z = vec![0.0; n];

    let [stencil_s, csc_s, vcycle_s] = fastest_of_batches(
        reps,
        [
            &mut || {
                stencil.matvec_into(&x, &mut y);
                std::hint::black_box(&y);
            },
            &mut || {
                csc.matvec_into(&x, &mut ys);
                std::hint::black_box(&ys);
            },
            &mut || {
                mg.apply_into(&r, &mut z).expect("v-cycle");
                std::hint::black_box(&z);
            },
        ],
    );

    KernelSample {
        stencil_matvec_ms: stencil_s * 1e3,
        csc_matvec_ms: csc_s * 1e3,
        vcycle_ms: vcycle_s * 1e3,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    banner("Perf: direct-LU vs matrix-free multigrid across grid resolution");

    // ---- 1. Zero-allocation contract of the warm multigrid hot path.
    let grid = GridSpec::new(48, 48).expect("static dims");
    let cells = grid.cell_count();
    let powers = vec![
        vec![30.0 / cells as f64; cells],
        vec![10.0 / cells as f64; cells],
    ];
    let (mg_allocs, mg_substep_ms, mg_grows, nodes) = substep_allocs(grid, &powers);

    section(&format!(
        "warm multigrid transient sub-step (48x48 grid, {nodes} nodes)"
    ));
    kv("allocations/sub-step", f(mg_allocs, 2));
    kv("sub-step (ms)", f(mg_substep_ms, 2));
    kv("workspace grows (whole run)", mg_grows);

    // ---- 2. Resolution sweep. Direct LU only up to 96x96 (its fill
    // makes larger setups take seconds and proves nothing new).
    let resolutions = [16usize, 24, 32, 48, 64, 96, 128, 192];
    let direct_cap = 96usize;
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "grid",
        "nodes",
        "LU setup",
        "LU solve",
        "MG setup",
        "MG solve",
        "MG iters",
        "break-even",
    ]);
    for &nres in &resolutions {
        let grid = GridSpec::new(nres, nres).expect("dims");
        let cells = grid.cell_count();
        let powers = vec![
            vec![30.0 / cells as f64; cells],
            vec![10.0 / cells as f64; cells],
        ];
        let reps = (2_500 / nres).clamp(4, 50);
        let mut mg = setup(grid, SolverBackend::multigrid(), &powers);
        let (direct, mg) = if nres <= direct_cap {
            let mut d = setup(grid, SolverBackend::DirectLu, &powers);
            let [d_s, mg_s] = fastest_of_batches(
                reps,
                [&mut || warm_solve(&mut d.model, &powers), &mut || {
                    warm_solve(&mut mg.model, &powers)
                }],
            );
            (
                Some(finish(d, d_s * 1e3, &powers)),
                finish(mg, mg_s * 1e3, &powers),
            )
        } else {
            let [mg_s] = fastest_of_batches(reps, [&mut || warm_solve(&mut mg.model, &powers)]);
            (None, finish(mg, mg_s * 1e3, &powers))
        };
        // Both backends solve the same physics: agree to solver tolerance
        // where direct is sampled.
        if let Some(d) = &direct {
            assert!(
                (d.peak - mg.peak).abs() < 1e-3,
                "multigrid disagrees at {nres}x{nres}: {} vs {} K",
                d.peak,
                mg.peak
            );
        }
        // Solves per operating point at which direct's expensive setup
        // has amortised against its cheaper warm solve. Infinite (encoded
        // as -1) if the multigrid warm solve is also cheaper.
        let break_even = direct.as_ref().map(|d| {
            if mg.warm_solve_ms > d.warm_solve_ms {
                (d.setup_ms - mg.setup_ms) / (mg.warm_solve_ms - d.warm_solve_ms)
            } else {
                -1.0
            }
        });
        table.row(&[
            format!("{nres}x{nres}"),
            format!("{}", mg.nodes),
            direct
                .as_ref()
                .map_or("-".into(), |d| format!("{:.1} ms", d.setup_ms)),
            direct
                .as_ref()
                .map_or("-".into(), |d| format!("{:.2} ms", d.warm_solve_ms)),
            format!("{:.2} ms", mg.setup_ms),
            format!("{:.2} ms", mg.warm_solve_ms),
            format!("{:.0}", mg.iterations_per_solve),
            match break_even {
                Some(be) if be >= 0.0 => format!("{be:.0}"),
                _ => "-".into(),
            },
        ]);
        rows.push((nres, direct, mg, break_even));
    }
    section("resolution sweep (2-tier liquid stack, 32.3 ml/min, steady operator)");
    table.print();

    // ---- 3. Per-kernel timings, isolated from the Krylov loop.
    let kernel_resolutions = [64usize, 128, 192];
    let mut kernel_rows = Vec::new();
    let mut ktable = Table::new(&["grid", "stencil matvec", "CSC matvec", "V-cycle"]);
    for &nres in &kernel_resolutions {
        let k = kernel_sample(nres);
        ktable.row(&[
            format!("{nres}x{nres}"),
            format!("{:.3} ms", k.stencil_matvec_ms),
            format!("{:.3} ms", k.csc_matvec_ms),
            format!("{:.3} ms", k.vcycle_ms),
        ]);
        kernel_rows.push((nres, k));
    }
    section("per-kernel timings (5-layer synthetic stencil, bit-identical products)");
    ktable.print();

    // ---- 4. Crossover and scaling summary.
    let single_solve_crossover = rows
        .iter()
        .filter_map(|(n, d, m, _)| d.as_ref().map(|d| (n, d, m)))
        .find(|(_, d, m)| m.setup_ms + m.warm_solve_ms < d.setup_ms + d.warm_solve_ms)
        .map(|(n, _, _)| *n);
    section("crossover and scaling");
    match single_solve_crossover {
        Some(n) => kv(
            "multigrid wins a fresh operating point from",
            format!("{n}x{n}"),
        ),
        None => kv("multigrid wins a fresh operating point from", "never"),
    }
    let iters_at = |target: usize| {
        rows.iter()
            .find(|(n, ..)| *n == target)
            .map(|(_, _, m, _)| m.iterations_per_solve)
            .expect("resolution sampled")
    };
    // The resolution-independence figure: multigrid iterations must stay
    // essentially flat from 32^2 to 128^2.
    let mg_ratio = iters_at(128) / iters_at(32);
    kv("MG iteration ratio 32->128", f(mg_ratio, 2));
    let (_, d_big, m_big, be_big) = rows
        .iter()
        .rev()
        .find(|(_, d, ..)| d.is_some())
        .expect("a direct-sampled row");
    let d_big = d_big.as_ref().expect("filtered on Some");
    let n_big = direct_cap;
    let setup_advantage = d_big.setup_ms / m_big.setup_ms;
    kv(
        &format!("{n_big}x{n_big} setup advantage (LU/MG)"),
        f(setup_advantage, 1),
    );
    kv(
        &format!("{n_big}x{n_big} break-even solves/operating point"),
        f(be_big.unwrap_or(-1.0), 0),
    );

    // ---- Machine-readable record.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scenario\": \"direct_vs_multigrid_grid_sweep\",");
    let _ = writeln!(json, "  \"stack\": \"2-tier-liquid\",");
    let _ = writeln!(json, "  \"flow_ml_per_min\": 32.3,");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"allocs_per_warm_mg_substep\": {mg_allocs:.3},");
    for (nres, d, m, be) in &rows {
        if let Some(d) = d {
            let _ = writeln!(json, "  \"direct_setup_ms_{nres}\": {:.3},", d.setup_ms);
            let _ = writeln!(
                json,
                "  \"direct_solve_ms_{nres}\": {:.4},",
                d.warm_solve_ms
            );
        }
        let _ = writeln!(json, "  \"mg_setup_ms_{nres}\": {:.3},", m.setup_ms);
        let _ = writeln!(json, "  \"mg_solve_ms_{nres}\": {:.4},", m.warm_solve_ms);
        let _ = writeln!(
            json,
            "  \"mg_iters_{nres}\": {:.1},",
            m.iterations_per_solve
        );
        if let Some(be) = be {
            let _ = writeln!(json, "  \"break_even_solves_{nres}\": {be:.1},");
        }
    }
    for (nres, k) in &kernel_rows {
        let _ = writeln!(
            json,
            "  \"stencil_matvec_ms_{nres}\": {:.4},",
            k.stencil_matvec_ms
        );
        let _ = writeln!(json, "  \"csc_matvec_ms_{nres}\": {:.4},", k.csc_matvec_ms);
        let _ = writeln!(json, "  \"vcycle_apply_ms_{nres}\": {:.4},", k.vcycle_ms);
    }
    match single_solve_crossover {
        Some(n) => {
            let _ = writeln!(json, "  \"single_solve_crossover_n\": {n},");
        }
        None => {
            let _ = writeln!(json, "  \"single_solve_crossover_n\": null,");
        }
    }
    let _ = writeln!(json, "  \"mg_iteration_ratio_32_to_128\": {mg_ratio:.3},");
    let _ = writeln!(
        json,
        "  \"setup_advantage_at_{n_big}\": {setup_advantage:.1}"
    );
    json.push_str("}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_iterative.json");
    std::fs::write(out, &json).expect("write BENCH_iterative.json");
    section("record");
    kv("written", out);

    // ---- Hard guarantees.
    assert_eq!(
        mg_allocs, 0.0,
        "warm multigrid sub-steps must perform zero heap allocation"
    );
    // Iteration counts are deterministic, so the scaling contract holds
    // regardless of host noise.
    assert!(
        mg_ratio <= 1.5,
        "multigrid iterations must stay resolution-independent, got {mg_ratio:.2}x from 32^2 to 128^2"
    );
    // Wall-clock assertions only on a quiet dedicated machine.
    if strict_timing() {
        assert_eq!(
            single_solve_crossover,
            Some(resolutions[0]),
            "multigrid setup must beat the pivoting factorisation at every \
             measured resolution"
        );
        assert!(
            setup_advantage > 5.0,
            "the setup advantage must grow with resolution, got {setup_advantage:.1}x at {n_big}x{n_big}"
        );
    }
}
