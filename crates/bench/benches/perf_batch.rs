//! **Performance** — zero-allocation transient hot path + parallel batch
//! sweep engine, on the fig6 scenario family.
//!
//! Three measurements:
//!
//! 1. *hot path allocations*: heap allocations per transient sub-step on
//!    the warm 720-node fig6 scenario, allocating `step` API vs in-place
//!    `step_into` (a counting global allocator observes the truth — the
//!    in-place path must be exactly zero);
//! 2. *per-epoch latency*: the PR 1 fig6 flow-modulation steady loop
//!    (8-level fuzzy schedule) re-timed on the workspace-routed solve
//!    path, against the `loop_split_us_per_epoch` baseline recorded in
//!    `BENCH_lu_refactor.json`;
//! 3. *batch scaling*: the full fig6 scenario matrix (7 configurations ×
//!    4 workloads) swept by `BatchRunner` at 1/2/4/8 threads — wall
//!    clock, scaling efficiency, and the shared-analysis invariant (one
//!    full factorisation per pattern group across the whole batch).
//!
//! Writes machine-readable results to `BENCH_batch_sweep.json` at the
//! repo root. Thread scaling is only asserted when the host actually has
//! the cores (`std::thread::available_parallelism`); the numbers are
//! recorded either way, alongside the host parallelism so the record is
//! interpretable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cmosaic::batch::BatchRunner;
use cmosaic::experiments::fig6_study;
use cmosaic::fuzzy::FuzzyController;
use cmosaic_bench::{banner, f, kv, section, strict_timing};
use cmosaic_floorplan::stack::presets;
use cmosaic_floorplan::GridSpec;
use cmosaic_thermal::{ThermalModel, ThermalParams};

/// Counts every heap allocation so the zero-allocation contract is
/// measured, not assumed.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Reads one numeric field out of a flat JSON file written by an earlier
/// bench (no JSON dependency in this workspace).
fn read_json_number(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start();
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    banner("Perf: zero-allocation hot path + parallel batch sweep (fig6 family)");
    let grid = GridSpec::new(12, 12).expect("static dims");
    let stack = presets::liquid_cooled_mpsoc(2).expect("preset");
    let powers = vec![vec![30.0 / 144.0; 144], vec![10.0 / 144.0; 144]];
    let ctrl = FuzzyController::table1();

    // ---- 1. Allocations per transient sub-step, warm path.
    let mut model = ThermalModel::new(&stack, grid, ThermalParams::default()).expect("model");
    model.set_flow_rate(ctrl.level_flow(7)).expect("valid flow");
    let mut field = model.current_field();
    // Warm-up: factorise the operator, size every workspace buffer.
    for _ in 0..3 {
        model.step_into(&powers, 0.25, &mut field).expect("solves");
    }
    let steps = 400;

    let a0 = allocations();
    let t0 = Instant::now();
    for _ in 0..steps {
        let _ = std::hint::black_box(model.step(&powers, 0.25).expect("solves"));
    }
    let step_api_s = t0.elapsed().as_secs_f64() / steps as f64;
    let step_api_allocs = (allocations() - a0) as f64 / steps as f64;

    let a1 = allocations();
    let t1 = Instant::now();
    for _ in 0..steps {
        model.step_into(&powers, 0.25, &mut field).expect("solves");
        std::hint::black_box(field.raw());
    }
    let inplace_s = t1.elapsed().as_secs_f64() / steps as f64;
    let inplace_allocs = (allocations() - a1) as f64 / steps as f64;
    let warm_stats = model.solver_stats();

    section("transient sub-step (720-node fig6 operator, warm)");
    kv("allocating step API (µs)", f(step_api_s * 1e6, 1));
    kv("in-place step_into (µs)", f(inplace_s * 1e6, 1));
    kv("allocations/step, step API", f(step_api_allocs, 2));
    kv("allocations/step, step_into", f(inplace_allocs, 2));
    kv("workspace grows (whole run)", warm_stats.workspace_grows);
    kv("in-place solves", warm_stats.in_place_solves);

    // ---- 2. The PR 1 modulation loop, re-timed on the in-place path.
    let schedule: Vec<_> = [
        0usize, 1, 2, 3, 4, 4, 3, 2, 2, 3, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 5, 4, 3,
        2, 1, 1,
    ]
    .iter()
    .map(|&level| ctrl.level_flow(level))
    .collect();
    let mut loop_model = ThermalModel::new(&stack, grid, ThermalParams::default()).expect("model");
    loop_model.set_flow_rate(schedule[0]).expect("valid");
    loop_model.steady_state(&powers).expect("solves");
    // Warm every pump level so the loop measures the steady modulation
    // regime (cache hits + in-place solves), as PR 1's split path did.
    for q in &schedule {
        loop_model.set_flow_rate(*q).expect("valid");
        loop_model.steady_state(&powers).expect("solves");
    }
    let loop_iters = 6;
    let t2 = Instant::now();
    for _ in 0..loop_iters {
        for q in &schedule {
            loop_model.set_flow_rate(*q).expect("valid");
            std::hint::black_box(loop_model.steady_state(&powers).expect("solves"));
        }
    }
    let loop_s = t2.elapsed().as_secs_f64() / (loop_iters * schedule.len()) as f64;
    let baseline_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lu_refactor.json");
    let baseline_us = read_json_number(baseline_root, "loop_split_us_per_epoch");

    section("fig6 modulation loop (steady epochs, 8-level fuzzy schedule)");
    kv("in-place path per epoch (µs)", f(loop_s * 1e6, 1));
    match baseline_us {
        Some(b) => {
            kv("PR 1 split-path baseline (µs)", f(b, 1));
            kv(
                "improvement (baseline / in-place)",
                f(b / (loop_s * 1e6), 2),
            );
        }
        None => kv("PR 1 split-path baseline", "unavailable"),
    }

    // ---- 3. Batch sweep of the fig6 matrix across thread counts.
    let seconds = 40;
    let scenarios = fig6_study(seconds, 42, grid).build().expect("valid study");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let thread_counts = [1usize, 2, 4, 8];
    let mut walls = Vec::new();
    let mut reports = Vec::new();
    let mut analyses = Vec::new();
    for &threads in &thread_counts {
        let t = Instant::now();
        let runner = BatchRunner::new(threads);
        let report = runner.run_scenarios(&scenarios);
        assert!(report.all_ok(), "batch completes");
        walls.push(t.elapsed().as_secs_f64());
        reports.push(report);
        analyses.push(runner.analysis_cache_stats().misses);
    }
    let speedup8 = walls[0] / walls[3];

    section(
        format!(
            "batch sweep ({} fig6 scenarios x {seconds} s, host parallelism {host})",
            scenarios.len()
        )
        .as_str(),
    );
    for (w, &threads) in walls.iter().zip(&thread_counts) {
        let eff = walls[0] / (w * threads as f64);
        kv(
            &format!("{threads} thread(s): wall (ms) / efficiency"),
            format!("{:.0} / {:.2}", w * 1e3, eff),
        );
    }
    kv("speedup 8 vs 1 threads", f(speedup8, 2));
    kv("pattern groups", reports[0].pattern_groups);
    kv("analyses (full factorisations, whole batch)", analyses[0]);

    // Determinism across thread counts is part of the contract — verify
    // it on the full production-size matrix, not just the unit tests.
    for r in &reports[1..] {
        assert_eq!(
            reports[0].slots, r.slots,
            "batch outcomes must be bit-identical at any thread count"
        );
    }

    // ---- Machine-readable record.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scenario\": \"fig6_matrix_12x12_batch_sweep\",");
    let _ = writeln!(json, "  \"n_scenarios\": {},", scenarios.len());
    let _ = writeln!(json, "  \"seconds_per_scenario\": {seconds},");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"step_api_us\": {:.3},", step_api_s * 1e6);
    let _ = writeln!(json, "  \"step_into_us\": {:.3},", inplace_s * 1e6);
    let _ = writeln!(json, "  \"allocs_per_epoch_before\": {step_api_allocs:.3},");
    let _ = writeln!(json, "  \"allocs_per_epoch_after\": {inplace_allocs:.3},");
    let _ = writeln!(
        json,
        "  \"loop_inplace_us_per_epoch\": {:.3},",
        loop_s * 1e6
    );
    match baseline_us {
        Some(b) => {
            let _ = writeln!(json, "  \"loop_baseline_us_per_epoch\": {b:.3},");
        }
        None => {
            let _ = writeln!(json, "  \"loop_baseline_us_per_epoch\": null,");
        }
    }
    for (w, &threads) in walls.iter().zip(&thread_counts) {
        let _ = writeln!(json, "  \"wall_ms_{threads}_threads\": {:.3},", w * 1e3);
    }
    let _ = writeln!(json, "  \"speedup_8_vs_1\": {speedup8:.3},");
    let _ = writeln!(
        json,
        "  \"scaling_efficiency_8\": {:.3},",
        walls[0] / (walls[3] * 8.0)
    );
    let _ = writeln!(json, "  \"pattern_groups\": {},", reports[0].pattern_groups);
    let _ = writeln!(json, "  \"full_factorizations\": {}", analyses[0]);
    json.push_str("}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch_sweep.json");
    std::fs::write(out, &json).expect("write BENCH_batch_sweep.json");
    section("record");
    kv("written", out);

    // ---- Hard guarantees.
    assert_eq!(
        inplace_allocs, 0.0,
        "the warm step_into path must perform zero heap allocation"
    );
    for &a in &analyses {
        assert_eq!(
            a, reports[0].pattern_groups as u64,
            "shared analysis: one analysis per (stack, grid) pattern"
        );
    }
    // Wall-clock assertions only on a quiet dedicated machine (see
    // `strict_timing`); the numbers are recorded regardless.
    if strict_timing() {
        if let Some(b) = baseline_us {
            assert!(
                loop_s * 1e6 < b,
                "in-place epoch ({:.1} µs) must beat the PR 1 split-path \
                 baseline ({b:.1} µs)",
                loop_s * 1e6
            );
        }
        if host >= 8 {
            assert!(
                speedup8 >= 3.0,
                "8-thread batch must be >=3x over 1 thread on an >=8-way \
                 host, got {speedup8:.2}x"
            );
        }
    }
}
