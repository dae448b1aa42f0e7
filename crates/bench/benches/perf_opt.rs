//! **Performance** — the design-space optimizer on the fig6-style
//! "minimum pump energy meeting 85 °C" reference space.
//!
//! Three measurements:
//!
//! 1. *early-abort savings*: the exhaustive grid with the in-loop
//!    infeasibility abort vs. the same grid running every design to its
//!    full budget — epochs simulated and wall clock (the answer must be
//!    bit-identical either way);
//! 2. *evaluations-to-optimum*: exhaustive grid vs. seeded coordinate
//!    descent — how many design evaluations each strategy pays before
//!    the known optimum is in hand;
//! 3. *thread scaling*: the aborting grid at 1 vs 8 `BatchRunner`
//!    workers, with the bit-identity contract asserted on the full
//!    report.
//!
//! Writes machine-readable results to `BENCH_opt.json` at the repo root.
//! Wall-clock assertions only fire on a quiet dedicated machine (see
//! `strict_timing`); deterministic assertions (same optimum everywhere,
//! abort saves epochs, bit-identity) always apply.

use std::fmt::Write as _;
use std::time::Instant;

use cmosaic::batch::BatchRunner;
use cmosaic::optimize::{
    Constraints, CoordinateDescent, DesignAxis, DesignSpace, GridSearch, OptimizeReport, Optimizer,
};
use cmosaic::policy::PolicyKind;
use cmosaic::scenario::ScenarioSpec;
use cmosaic_bench::{banner, f, kv, section, strict_timing};
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::{Celsius, VolumetricFlow};
use cmosaic_power::trace::WorkloadKind;

const SECONDS: usize = 30;

fn space() -> DesignSpace {
    let ml = VolumetricFlow::from_ml_per_min;
    DesignSpace::new(
        ScenarioSpec::new()
            .policy(PolicyKind::LcLb)
            .workload(WorkloadKind::MaxUtilization)
            .grid(GridSpec::new(12, 12).expect("static dims"))
            .seconds(SECONDS)
            .seed(42),
    )
    .with_axis(DesignAxis::tiers([2, 4]))
    .with_axis(DesignAxis::flow_rates([
        ml(6.0),
        ml(10.0),
        ml(14.0),
        ml(20.0),
        ml(26.0),
        ml(32.3),
    ]))
}

fn optimizer<'a>(runner: &'a BatchRunner, abort: bool) -> Optimizer<'a> {
    let opt = Optimizer::new(space(), Constraints::peak_below(Celsius(85.0)), runner);
    if abort {
        opt
    } else {
        opt.without_early_abort()
    }
}

fn timed(
    opt: &Optimizer<'_>,
    strategy: &mut dyn cmosaic::optimize::SearchStrategy,
) -> (OptimizeReport, f64) {
    let t = Instant::now();
    let report = opt.run(strategy).expect("optimization completes");
    (report, t.elapsed().as_secs_f64())
}

fn main() {
    banner("Perf: design-space optimizer (grid vs adaptive, early abort, thread scaling)");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runner = BatchRunner::new(host);
    let n_designs = space().len();

    // ---- 1. Early abort on vs off, exhaustive grid. The full-budget
    // grid gets a runner of its own: on `runner` it would find every
    // analysis the aborting grid cached, and the comparison would time
    // that cache instead of the abort.
    let (grid_abort, wall_abort) = timed(&optimizer(&runner, true), &mut GridSearch);
    let (grid_full, wall_full) = timed(&optimizer(&BatchRunner::new(host), false), &mut GridSearch);
    let best = grid_abort.best.as_ref().expect("feasible design exists");

    section(&format!(
        "early abort ({n_designs} designs x {SECONDS} s, {host} workers)"
    ));
    kv(
        "epochs run (abort / full budget)",
        format!("{} / {}", grid_abort.epochs_run, grid_abort.epochs_budget),
    );
    kv(
        "early-abort savings",
        format!("{:.1} %", grid_abort.early_abort_savings() * 100.0),
    );
    kv("wall with abort (ms)", f(wall_abort * 1e3, 0));
    kv("wall without abort (ms)", f(wall_full * 1e3, 0));
    kv("optimum", &best.label);

    // ---- 2. Evaluations-to-optimum, grid vs coordinate descent.
    let (descent, wall_descent) = timed(
        &optimizer(&runner, true),
        &mut CoordinateDescent::seeded(3).restarts(2),
    );
    section("evaluations to optimum (grid vs coordinate descent)");
    kv(
        "grid evaluations / to optimum",
        format!(
            "{} / {}",
            grid_abort.n_evaluations(),
            grid_abort.evals_to_best.expect("grid finds it")
        ),
    );
    kv(
        "descent evaluations / to optimum",
        format!(
            "{} / {}",
            descent.n_evaluations(),
            descent.evals_to_best.expect("descent finds it")
        ),
    );
    kv("descent wall (ms)", f(wall_descent * 1e3, 0));

    // ---- 3. Thread scaling + bit identity on the aborting grid.
    let (serial, wall_1) = timed(&optimizer(&BatchRunner::new(1), true), &mut GridSearch);
    let (eight, wall_8) = timed(&optimizer(&BatchRunner::new(8), true), &mut GridSearch);
    let speedup8 = wall_1 / wall_8;
    section(&format!("thread scaling (host parallelism {host})"));
    kv("1 thread wall (ms)", f(wall_1 * 1e3, 0));
    kv("8 threads wall (ms)", f(wall_8 * 1e3, 0));
    kv("speedup 8 vs 1", f(speedup8, 2));

    // ---- Machine-readable record.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scenario\": \"fig6_min_pump_energy_85C_12x12\",");
    let _ = writeln!(json, "  \"n_designs\": {n_designs},");
    let _ = writeln!(json, "  \"seconds_per_design\": {SECONDS},");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(
        json,
        "  \"grid_evaluations\": {},",
        grid_abort.n_evaluations()
    );
    let _ = writeln!(
        json,
        "  \"grid_evals_to_best\": {},",
        grid_abort.evals_to_best.expect("grid finds it")
    );
    let _ = writeln!(
        json,
        "  \"descent_evaluations\": {},",
        descent.n_evaluations()
    );
    let _ = writeln!(
        json,
        "  \"descent_evals_to_best\": {},",
        descent.evals_to_best.expect("descent finds it")
    );
    let _ = writeln!(json, "  \"epochs_run_abort\": {},", grid_abort.epochs_run);
    let _ = writeln!(json, "  \"epochs_budget\": {},", grid_abort.epochs_budget);
    let _ = writeln!(
        json,
        "  \"early_abort_savings\": {:.3},",
        grid_abort.early_abort_savings()
    );
    let _ = writeln!(json, "  \"wall_ms_grid_abort\": {:.3},", wall_abort * 1e3);
    let _ = writeln!(json, "  \"wall_ms_grid_full\": {:.3},", wall_full * 1e3);
    let _ = writeln!(json, "  \"wall_ms_descent\": {:.3},", wall_descent * 1e3);
    let _ = writeln!(json, "  \"wall_ms_1_threads\": {:.3},", wall_1 * 1e3);
    let _ = writeln!(json, "  \"wall_ms_8_threads\": {:.3},", wall_8 * 1e3);
    let _ = writeln!(json, "  \"speedup_8_vs_1\": {speedup8:.3}");
    json.push_str("}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_opt.json");
    std::fs::write(out, &json).expect("write BENCH_opt.json");
    section("record");
    kv("written", out);

    // ---- Hard guarantees.
    assert!(
        grid_abort.epochs_run < grid_abort.epochs_budget,
        "the early abort must truncate infeasible designs"
    );
    assert_eq!(grid_full.epochs_run, grid_full.epochs_budget);
    assert_eq!(
        grid_abort.best, grid_full.best,
        "the abort must not change the optimum"
    );
    assert_eq!(grid_abort.front, grid_full.front);
    assert_eq!(
        serial, eight,
        "the optimize report must be bit-identical at 1 vs 8 threads"
    );
    assert_eq!(serial.best, grid_abort.best);
    assert_eq!(
        descent.best.as_ref().map(|b| &b.design),
        grid_abort.best.as_ref().map(|b| &b.design),
        "grid and descent must agree on the optimum"
    );
    assert!(descent.n_evaluations() <= grid_abort.n_evaluations());
    if strict_timing() {
        assert!(
            wall_abort < wall_full,
            "aborting grid ({:.0} ms) must beat the full-budget grid ({:.0} ms)",
            wall_abort * 1e3,
            wall_full * 1e3
        );
        if host >= 8 {
            assert!(
                speedup8 >= 2.0,
                "8-thread optimization must be >=2x over 1 thread on an >=8-way host, \
                 got {speedup8:.2}x"
            );
        }
    }
}
