//! **Performance** — direct-LU vs ILU(0)-BiCGSTAB vs matrix-free
//! multigrid-BiCGSTAB thermal backend across grid resolution, on the
//! 2-tier liquid-cooled stack.
//!
//! Four measurements:
//!
//! 1. *allocations*: heap allocations per warm transient sub-step under
//!    each iterative backend (a counting global allocator observes the
//!    truth — warm BiCGSTAB iterations and V-cycles must allocate
//!    exactly zero);
//! 2. *resolution sweep*: for each grid from 16×16 to 192×192, the
//!    operator *setup* cost (first steady solve: pivoting factorisation
//!    vs ILU(0) construction vs matrix-free stencil + coarse hierarchy)
//!    and the *warm* per-solve cost (cached operator, new right-hand
//!    side) of each backend, plus the BiCGSTAB iteration counts and the
//!    agreement of the temperature fields. Direct LU is sampled only up
//!    to 96×96 — past that its superlinear fill makes the comparison a
//!    formality and the sweep slow;
//! 3. *per-kernel timings*: the matrix-free stencil matvec against the
//!    assembled-CSC matvec of the *same operator*, and one multigrid
//!    V-cycle against one ILU(0) apply, isolated from the Krylov loop.
//!    The four kernels run in interleaved batches and each reports its
//!    fastest batch, so a ratio of two of them compares the kernels on
//!    one host at one time;
//! 4. *crossover + scaling*: where each iterative backend wins, the
//!    break-even number of solves per operating point at which direct's
//!    setup amortises, the multigrid setup advantage over the
//!    assembled-ILU path, and the resolution-independence figure — the
//!    multigrid iteration-count ratio from 32×32 to 128×128, which the
//!    nightly-perf job enforces a ceiling on.
//!
//! Writes machine-readable results to `BENCH_iterative.json` at the repo
//! root. Wall-clock assertions honour `CMOSAIC_BENCH_RELAX`; the
//! deterministic asserts (zero allocations, zero fallbacks, field
//! agreement, iteration-count scaling) always apply.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::time::Instant;

use cmosaic_bench::{banner, f, kv, section, strict_timing, Table};
use cmosaic_floorplan::stack::presets;
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::VolumetricFlow;
use cmosaic_sparse::{GridShape, Ilu0, Multigrid, MultigridOptions, Preconditioner};
use cmosaic_thermal::{
    SolverBackend, StencilInterface, StencilLayer, StencilLayerKind, StencilOperator, ThermalModel,
    ThermalParams,
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

/// Builds a model on `grid` with `solver`, runs one cold steady solve
/// (setup) and `warm` warm ones, and returns the timings.
fn sample(
    grid: GridSpec,
    solver: SolverBackend,
    powers: &[Vec<f64>],
    warm: usize,
) -> BackendSample {
    let stack = presets::liquid_cooled_mpsoc(2).expect("preset");
    let params = ThermalParams {
        solver,
        ..Default::default()
    };
    let mut m = ThermalModel::new(&stack, grid, params).expect("model");
    m.set_flow_rate(VolumetricFlow::from_ml_per_min(32.3))
        .expect("valid flow");
    let t0 = Instant::now();
    let nodes = m.steady_state(powers).expect("cold solve").raw().len();
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let before = m.solver_stats();
    let t1 = Instant::now();
    let mut peak = 0.0f64;
    for _ in 0..warm {
        let field = m.steady_state(powers).expect("warm solve");
        peak = field.max().0;
    }
    let warm_solve_ms = t1.elapsed().as_secs_f64() * 1e3 / warm as f64;
    let s = m.solver_stats();
    assert_eq!(
        s.iterative_fallbacks, 0,
        "the diagonally-dominant operator must never fall back: {s:?}"
    );
    let iterations_per_solve = if solver.is_iterative() {
        (s.iterative_iterations - before.iterative_iterations) as f64 / warm as f64
    } else {
        0.0
    };
    BackendSample {
        nodes,
        setup_ms,
        warm_solve_ms,
        iterations_per_solve,
        peak,
    }
}

/// Warms up a model under `solver` and measures allocations and
/// wall-clock per warm transient sub-step; also returns the workspace
/// grow count and the model's number of unknowns.
fn substep_allocs(
    solver: SolverBackend,
    grid: GridSpec,
    powers: &[Vec<f64>],
) -> (f64, f64, u64, usize) {
    let stack = presets::liquid_cooled_mpsoc(2).expect("preset");
    let params = ThermalParams {
        solver,
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
    ilu_apply_ms: f64,
}

/// Times the four inner kernels at one resolution: matrix-free stencil
/// matvec vs assembled-CSC matvec (bit-identical products), and one
/// multigrid V-cycle vs one ILU(0) apply (the per-Krylov-iteration
/// preconditioner cost).
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

    // Preconditioner applies: the model's coarsening loop (floor 64
    // in-plane cells) against ILU(0) on the assembled operator.
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
    let ilu = Ilu0::new(&csc).expect("ILU(0) on the assembled stencil");
    let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.1).collect();
    let mut z = vec![0.0; n];

    // One batch of `reps` calls per kernel, the kernels interleaved
    // batch by batch; each keeps its fastest batch (ms per call).
    const BATCHES: usize = 8;
    let mut best = [f64::INFINITY; 4];
    let mut time = |slot: usize, call: &mut dyn FnMut()| {
        call(); // warm-up
        let t = Instant::now();
        for _ in 0..reps {
            call();
        }
        best[slot] = best[slot].min(t.elapsed().as_secs_f64() * 1e3 / reps as f64);
    };
    for _ in 0..BATCHES {
        time(0, &mut || {
            stencil.matvec_into(&x, &mut y);
            std::hint::black_box(&y);
        });
        time(1, &mut || {
            csc.matvec_into(&x, &mut y);
            std::hint::black_box(&y);
        });
        time(2, &mut || {
            mg.apply_into(&r, &mut z).expect("v-cycle");
            std::hint::black_box(&z);
        });
        time(3, &mut || {
            ilu.apply_into(&r, &mut z).expect("ilu apply");
            std::hint::black_box(&z);
        });
    }
    let [stencil_matvec_ms, csc_matvec_ms, vcycle_ms, ilu_apply_ms] = best;

    KernelSample {
        stencil_matvec_ms,
        csc_matvec_ms,
        vcycle_ms,
        ilu_apply_ms,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    banner("Perf: direct-LU vs ILU(0) vs matrix-free multigrid across grid resolution");

    // ---- 1. Zero-allocation contract of both warm iterative hot paths.
    let grid = GridSpec::new(48, 48).expect("static dims");
    let cells = grid.cell_count();
    let powers = vec![
        vec![30.0 / cells as f64; cells],
        vec![10.0 / cells as f64; cells],
    ];
    let (ilu_allocs, ilu_substep_ms, ilu_grows, nodes) =
        substep_allocs(SolverBackend::iterative(), grid, &powers);
    let (mg_allocs, mg_substep_ms, mg_grows, _) =
        substep_allocs(SolverBackend::multigrid(), grid, &powers);

    section(&format!(
        "warm iterative transient sub-step (48x48 grid, {nodes} nodes)"
    ));
    kv("ILU(0) allocations/sub-step", f(ilu_allocs, 2));
    kv("ILU(0) sub-step (ms)", f(ilu_substep_ms, 2));
    kv("multigrid allocations/sub-step", f(mg_allocs, 2));
    kv("multigrid sub-step (ms)", f(mg_substep_ms, 2));
    kv(
        "workspace grows (whole run, ILU/mg)",
        format!("{ilu_grows}/{mg_grows}"),
    );

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
        "ILU setup",
        "ILU solve",
        "iters",
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
        let warm = (20_000 / nres).clamp(4, 400);
        let direct =
            (nres <= direct_cap).then(|| sample(grid, SolverBackend::DirectLu, &powers, warm));
        let iter = sample(grid, SolverBackend::iterative(), &powers, warm);
        let mg = sample(grid, SolverBackend::multigrid(), &powers, warm);
        // All backends solve the same physics: agree to solver tolerance
        // (against direct where sampled, else against each other).
        let reference = direct.as_ref().map_or(iter.peak, |d| d.peak);
        for (name, peak) in [("iterative", iter.peak), ("multigrid", mg.peak)] {
            assert!(
                (reference - peak).abs() < 1e-3,
                "{name} disagrees at {nres}x{nres}: {reference} vs {peak} K"
            );
        }
        // Solves per operating point at which direct's expensive setup
        // has amortised against its cheaper warm solve. Infinite (encoded
        // as -1) if the iterative warm solve is also cheaper.
        let break_even = direct.as_ref().map(|d| {
            if iter.warm_solve_ms > d.warm_solve_ms {
                (d.setup_ms - iter.setup_ms) / (iter.warm_solve_ms - d.warm_solve_ms)
            } else {
                -1.0
            }
        });
        table.row(&[
            format!("{nres}x{nres}"),
            format!("{}", iter.nodes),
            direct
                .as_ref()
                .map_or("-".into(), |d| format!("{:.1} ms", d.setup_ms)),
            direct
                .as_ref()
                .map_or("-".into(), |d| format!("{:.2} ms", d.warm_solve_ms)),
            format!("{:.1} ms", iter.setup_ms),
            format!("{:.2} ms", iter.warm_solve_ms),
            format!("{:.0}", iter.iterations_per_solve),
            format!("{:.2} ms", mg.setup_ms),
            format!("{:.2} ms", mg.warm_solve_ms),
            format!("{:.0}", mg.iterations_per_solve),
            match break_even {
                Some(be) if be >= 0.0 => format!("{be:.0}"),
                _ => "-".into(),
            },
        ]);
        rows.push((nres, direct, iter, mg, break_even));
    }
    section("resolution sweep (2-tier liquid stack, 32.3 ml/min, steady operator)");
    table.print();

    // ---- 3. Per-kernel timings, isolated from the Krylov loop.
    let kernel_resolutions = [64usize, 128, 192];
    let mut kernel_rows = Vec::new();
    let mut ktable = Table::new(&[
        "grid",
        "stencil matvec",
        "CSC matvec",
        "V-cycle",
        "ILU apply",
    ]);
    for &nres in &kernel_resolutions {
        let k = kernel_sample(nres);
        ktable.row(&[
            format!("{nres}x{nres}"),
            format!("{:.3} ms", k.stencil_matvec_ms),
            format!("{:.3} ms", k.csc_matvec_ms),
            format!("{:.3} ms", k.vcycle_ms),
            format!("{:.3} ms", k.ilu_apply_ms),
        ]);
        kernel_rows.push((nres, k));
    }
    section("per-kernel timings (5-layer synthetic stencil, bit-identical products)");
    ktable.print();

    // ---- 4. Crossover and scaling summary.
    let single_solve_crossover = rows
        .iter()
        .filter_map(|(n, d, i, _, _)| d.as_ref().map(|d| (n, d, i)))
        .find(|(_, d, i)| i.setup_ms + i.warm_solve_ms < d.setup_ms + d.warm_solve_ms)
        .map(|(n, _, _)| *n);
    section("crossover and scaling");
    match single_solve_crossover {
        Some(n) => kv(
            "iterative wins a fresh operating point from",
            format!("{n}x{n}"),
        ),
        None => kv("iterative wins a fresh operating point from", "never"),
    }
    let iters_at = |target: usize, mg_backend: bool| {
        rows.iter()
            .find(|(n, ..)| *n == target)
            .map(|(_, _, i, m, _)| {
                if mg_backend {
                    m.iterations_per_solve
                } else {
                    i.iterations_per_solve
                }
            })
            .expect("resolution sampled")
    };
    // The resolution-independence figure: multigrid iterations must stay
    // essentially flat from 32^2 to 128^2 while ILU(0)'s local error
    // reduction degrades.
    let mg_ratio = iters_at(128, true) / iters_at(32, true);
    let ilu_ratio = iters_at(128, false) / iters_at(32, false);
    kv("MG iteration ratio 32->128", f(mg_ratio, 2));
    kv("ILU iteration ratio 32->128", f(ilu_ratio, 2));
    let (_, d_big, i_big, _, be_big) = rows
        .iter()
        .rev()
        .find(|(_, d, ..)| d.is_some())
        .expect("a direct-sampled row");
    let d_big = d_big.as_ref().expect("filtered on Some");
    let n_big = direct_cap;
    kv(
        &format!("{n_big}x{n_big} setup advantage (LU/ILU)"),
        f(d_big.setup_ms / i_big.setup_ms, 1),
    );
    let mg_96 = rows
        .iter()
        .find(|(n, ..)| *n == direct_cap)
        .map(|(_, _, i, m, _)| i.setup_ms / m.setup_ms)
        .expect("96 sampled");
    kv(
        &format!("{n_big}x{n_big} setup advantage (ILU/MG)"),
        f(mg_96, 1),
    );
    kv(
        &format!("{n_big}x{n_big} break-even solves/operating point"),
        f(be_big.unwrap_or(-1.0), 0),
    );

    // ---- Machine-readable record.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scenario\": \"direct_vs_iterative_grid_sweep\",");
    let _ = writeln!(json, "  \"stack\": \"2-tier-liquid\",");
    let _ = writeln!(json, "  \"flow_ml_per_min\": 32.3,");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(
        json,
        "  \"allocs_per_warm_iterative_substep\": {ilu_allocs:.3},"
    );
    let _ = writeln!(json, "  \"allocs_per_warm_mg_substep\": {mg_allocs:.3},");
    for (nres, d, i, m, be) in &rows {
        if let Some(d) = d {
            let _ = writeln!(json, "  \"direct_setup_ms_{nres}\": {:.3},", d.setup_ms);
            let _ = writeln!(
                json,
                "  \"direct_solve_ms_{nres}\": {:.4},",
                d.warm_solve_ms
            );
        }
        let _ = writeln!(json, "  \"iterative_setup_ms_{nres}\": {:.3},", i.setup_ms);
        let _ = writeln!(
            json,
            "  \"iterative_solve_ms_{nres}\": {:.4},",
            i.warm_solve_ms
        );
        let _ = writeln!(
            json,
            "  \"iterative_iters_{nres}\": {:.1},",
            i.iterations_per_solve
        );
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
        let _ = writeln!(json, "  \"ilu_apply_ms_{nres}\": {:.4},", k.ilu_apply_ms);
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
    let _ = writeln!(json, "  \"ilu_iteration_ratio_32_to_128\": {ilu_ratio:.3},");
    let _ = writeln!(json, "  \"mg_setup_advantage_at_96\": {mg_96:.1},");
    let _ = writeln!(
        json,
        "  \"setup_advantage_at_{n_big}\": {:.1}",
        d_big.setup_ms / i_big.setup_ms
    );
    json.push_str("}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_iterative.json");
    std::fs::write(out, &json).expect("write BENCH_iterative.json");
    section("record");
    kv("written", out);

    // ---- Hard guarantees.
    assert_eq!(
        ilu_allocs, 0.0,
        "warm ILU(0) sub-steps must perform zero heap allocation"
    );
    assert_eq!(
        mg_allocs, 0.0,
        "warm multigrid sub-steps must perform zero heap allocation"
    );
    // Iteration counts are deterministic, so the scaling contracts hold
    // regardless of host noise: multigrid stays essentially flat while
    // ILU(0) degrades with refinement.
    assert!(
        mg_ratio <= 1.5,
        "multigrid iterations must stay resolution-independent, got {mg_ratio:.2}x from 32^2 to 128^2"
    );
    assert!(
        ilu_ratio >= 2.0,
        "ILU(0) is expected to degrade with refinement, got {ilu_ratio:.2}x from 32^2 to 128^2"
    );
    // Wall-clock assertions only on a quiet dedicated machine.
    if strict_timing() {
        assert_eq!(
            single_solve_crossover,
            Some(resolutions[0]),
            "ILU(0) setup must beat the pivoting factorisation at every \
             measured resolution"
        );
        assert!(
            d_big.setup_ms / i_big.setup_ms > 5.0,
            "the setup advantage must grow with resolution, got {:.1}x at {n_big}x{n_big}",
            d_big.setup_ms / i_big.setup_ms
        );
        assert!(
            mg_96 > 5.0,
            "the matrix-free multigrid setup must be >=5x cheaper than the \
             assembled-ILU path at {n_big}x{n_big}, got {mg_96:.1}x"
        );
    }
}
