//! Choosing a thermal solver backend.
//!
//! Every scenario runs on direct sparse LU by default, which is fastest
//! at the paper's grids. For fine grids — where the pivoting
//! factorisation's fill makes the first solve at each operating point
//! expensive — `ScenarioSpec::solver` switches the thermal model to
//! geometric-multigrid-preconditioned BiCGSTAB on the matrix-free stencil
//! operator (setup O(n), iteration counts resolution-independent, and the
//! fine operator is never assembled at all). It falls back to direct LU
//! automatically if an iterative solve ever breaks down
//! (`BENCH_iterative.json` has the two level on warm solves at 64², direct
//! LU ahead below and multigrid from 96²).
//!
//! This example runs the same fig6-style scenario under both backends,
//! shows they agree to solver tolerance, and sweeps the backend as a
//! `Study` axis.

use cmosaic::policy::PolicyKind;
use cmosaic::{BatchRunner, ScenarioSpec, Study};
use cmosaic_floorplan::GridSpec;
use cmosaic_power::trace::WorkloadKind;
use cmosaic_thermal::SolverBackend;

fn main() -> Result<(), cmosaic::CmosaicError> {
    let base = ScenarioSpec::new()
        .tiers(2)
        .policy(PolicyKind::LcFuzzy)
        .workload(WorkloadKind::WebServer)
        .grid(GridSpec::new(8, 8).expect("static dims"))
        .seconds(10)
        .seed(42);

    // One axis, two backends, executed as one batch.
    let report = Study::new(base)
        .over_solvers([SolverBackend::DirectLu, SolverBackend::multigrid()])
        .run(&BatchRunner::new(2))?;

    println!("backend comparison (2-tier water-cooled LC_FUZZY, 10 s):");
    for (spec, outcome) in report.iter() {
        let m = &outcome.metrics;
        let s = &outcome.solver;
        println!(
            "  {:<33} peak {:6.2} °C  chip {:7.1} J  pump {:5.1} J  \
             full-LU {}  bicgstab solves {} ({} iters)  V-cycles {}",
            spec.solver_backend().to_string(),
            m.peak_temperature.to_celsius().0,
            m.chip_energy,
            m.pump_energy,
            s.full_factorizations,
            s.iterative_solves,
            s.iterative_iterations,
            s.mg_cycles,
        );
    }

    // The backends agree on the physics to the iteration tolerance, and
    // the multigrid run ran V-cycles without ever paying for a pivoting
    // factorisation of the fine operator or falling back to one.
    let outcomes = report.outcomes();
    let (direct, mg) = (outcomes[0], outcomes[1]);
    let (dp, p) = (
        direct.metrics.peak_temperature.0,
        mg.metrics.peak_temperature.0,
    );
    assert!(
        (dp - p).abs() < 1e-4,
        "multigrid must agree: {dp} K vs {p} K"
    );
    assert_eq!(mg.solver.full_factorizations, 0, "multigrid factorised");
    assert_eq!(mg.solver.iterative_fallbacks, 0, "multigrid fell back");
    assert!(mg.solver.iterative_solves > 0);
    assert!(mg.solver.mg_cycles > 0);
    println!(
        "\nbackends agree within {:.1e} K; \
         the multigrid run used no fine-level LU factorisation",
        (dp - p).abs()
    );
    Ok(())
}
