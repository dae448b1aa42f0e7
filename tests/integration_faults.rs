//! Failure-path integration suite for the fault-tolerant batch engine:
//!
//! * a panicking scenario fails only its own slot: the other scenarios
//!   of its pattern group still adopt the group's analysis, and the
//!   batch returns a complete, partial `BatchReport`;
//! * an injected NaN at epoch `k` exhausts the retry ladder and surfaces
//!   `ScenarioError::Diverged` with the correct epoch and cell;
//! * an iterative-solver breakdown on a multigrid scenario is healed by
//!   exactly one backend demotion (multigrid→direct), a dt-gated NaN by
//!   exactly one Δt-halving, and the two together walk both rungs;
//! * a mixed batch (panicking + diverging + self-healing + healthy
//!   scenarios) is bit-identical across thread counts with the healthy
//!   aggregates intact;
//! * a checkpointed study killed partway (`with_job_limit`) resumes from
//!   its journal bit-identical to an uninterrupted run, at every job
//!   boundary.
//!
//! The thread counts exercised default to 1 and 8; CI pins them via the
//! `CMOSAIC_TEST_THREADS` environment variable (comma-separated list).

use cmosaic::{BatchRunner, FaultKind, FaultPlan, ScenarioError, ScenarioSpec, Study};
use cmosaic_floorplan::GridSpec;
use cmosaic_thermal::SolverBackend;

fn tiny_grid() -> GridSpec {
    GridSpec::new(6, 6).expect("static dims")
}

fn base_spec() -> ScenarioSpec {
    ScenarioSpec::new()
        .seconds(3)
        .thermal_dt(0.2)
        .grid(tiny_grid())
}

/// Thread counts to sweep: `CMOSAIC_TEST_THREADS` (comma-separated) or
/// the default `[1, 8]`.
fn thread_counts() -> Vec<usize> {
    match std::env::var("CMOSAIC_TEST_THREADS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CMOSAIC_TEST_THREADS is numeric"))
            .collect(),
        Err(_) => vec![1, 8],
    }
}

fn temp_journal_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "cmosaic-faults-{}-{tag}-{}.journal",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn panicking_donor_releases_its_adopters_without_deadlock() {
    // All four scenarios share one operator pattern; slot 0 is the
    // group's first scenario and panics on its very first control
    // interval. The group's analysis job only initialises it, so the
    // other three still adopt the analysis and complete.
    let mut scenarios = vec![base_spec()
        .fault_plan(FaultPlan::none().at(0, FaultKind::Panic))
        .build()
        .unwrap()];
    for seed in [1u64, 2, 3] {
        scenarios.push(base_spec().seed(seed).build().unwrap());
    }

    let mut reports = Vec::new();
    for threads in thread_counts() {
        let report = BatchRunner::new(threads).run_scenarios(&scenarios);
        assert_eq!(report.outcomes().len(), 3, "{threads} threads");
        let (index, e) = report.first_error().expect("the panic is captured");
        assert_eq!(index, 0);
        assert!(
            matches!(&e.error, ScenarioError::Panicked { .. }),
            "slot 0 carries the panic: {e}"
        );
        assert_eq!(e.recovery.attempts, 1, "panics are never retried");
        for o in report.outcomes() {
            assert_eq!(o.solver.adopted_symbolics, 1, "slot {}", o.index);
        }
        reports.push(report);
    }
    for r in &reports[1..] {
        assert_eq!(
            reports[0].slots, r.slots,
            "partial reports are bit-identical across thread counts"
        );
    }
}

#[test]
fn injected_nan_exhausts_the_ladder_and_reports_the_epoch() {
    // A plain NaN fires on every attempt regardless of backend or
    // timestep: the direct-backend ladder is attempt-as-specified plus
    // two Δt-halvings, then the divergence guard's verdict stands.
    let scenario = base_spec()
        .fault_plan(FaultPlan::none().at(2, FaultKind::Nan { cell: 7 }))
        .build()
        .unwrap();
    let report = BatchRunner::new(1).run_scenarios(&[scenario]);
    let (_, e) = report.first_error().expect("divergence is captured");
    match &e.error {
        ScenarioError::Diverged { epoch, cell, value } => {
            assert_eq!(*epoch, 2, "the guard reports the faulting epoch");
            assert_eq!(*cell, 7);
            assert!(value.is_nan());
        }
        other => panic!("expected Diverged, got {other}"),
    }
    assert_eq!(e.recovery.attempts, 3, "as-specified + two halvings");
    assert_eq!(e.recovery.backend_demotions, 0);
    assert_eq!(e.recovery.dt_halvings, 2);
}

#[test]
fn breakdown_is_healed_by_exactly_one_backend_demotion() {
    // The injected breakdown fires while the backend is iterative, so a
    // multigrid scenario demotes once, to direct LU, and clears there
    // without burning a Δt halving.
    let scenario = base_spec()
        .solver(SolverBackend::multigrid())
        .fault_plan(FaultPlan::none().at(1, FaultKind::IterativeBreakdown))
        .build()
        .unwrap();
    let report = BatchRunner::new(1).run_scenarios(&[scenario]);
    assert!(report.all_ok(), "{:?}", report.first_error());
    let outcome = report.outcomes()[0];
    assert_eq!(outcome.recovery.attempts, 2);
    assert_eq!(
        outcome.recovery.backend_demotions, 1,
        "demoted exactly once"
    );
    assert_eq!(outcome.recovery.dt_halvings, 0);
    // The demoted retry really ran direct LU: no iterative solves left.
    assert_eq!(outcome.solver.iterative_solves, 0, "{:?}", outcome.solver);
    assert_eq!(outcome.solver.mg_cycles, 0, "{:?}", outcome.solver);
    assert!(
        outcome.solver.full_factorizations >= 1,
        "{:?}",
        outcome.solver
    );
}

#[test]
fn mg_breakdown_walks_both_rungs_of_the_ladder() {
    // The ladder's rungs are one backend demotion, then Δt halvings. A
    // multigrid scenario that breaks down at epoch 1 demotes to direct
    // LU; the direct retry then hits a NaN gated on Δt > 0.15 s at the
    // same epoch, so it halves 0.2 s to 0.1 s once and clears there.
    // The walk is a per-scenario property, so it must be bit-identical
    // at every thread count.
    let scenario = base_spec()
        .solver(SolverBackend::multigrid())
        .fault_plan(FaultPlan::none().at(1, FaultKind::IterativeBreakdown).at(
            1,
            FaultKind::NanAboveDt {
                cell: 3,
                dt_above: 0.15,
            },
        ))
        .build()
        .unwrap();
    let scenarios = vec![scenario];
    let mut reports = Vec::new();
    for threads in thread_counts() {
        let report = BatchRunner::new(threads).run_scenarios(&scenarios);
        assert!(report.all_ok(), "{:?}", report.first_error());
        let outcome = report.outcomes()[0];
        assert_eq!(outcome.recovery.attempts, 3, "{threads} threads");
        assert_eq!(outcome.recovery.backend_demotions, 1, "demotion rung");
        assert_eq!(outcome.recovery.dt_halvings, 1, "Δt rung");
        // The final attempt really ran direct LU.
        assert_eq!(outcome.solver.iterative_solves, 0, "{:?}", outcome.solver);
        assert_eq!(outcome.solver.mg_cycles, 0, "{:?}", outcome.solver);
        assert!(outcome.solver.full_factorizations >= 1);
        reports.push(report);
    }
    for r in &reports[1..] {
        assert_eq!(reports[0].slots, r.slots);
    }
}

#[test]
fn mg_backend_is_bit_identical_across_thread_counts() {
    // The multigrid happy path in a mixed group layout: two mg scenarios
    // (one pattern group) interleaved with a direct pair (another).
    // Every slot must be bit-identical across thread counts, and the mg
    // slots must complete without a single fine-level factorisation or
    // fallback.
    let mk = |backend, seed| {
        base_spec()
            .policy(cmosaic::PolicyKind::LcFuzzy)
            .solver(backend)
            .seed(seed)
            .build()
            .unwrap()
    };
    let scenarios = vec![
        mk(SolverBackend::multigrid(), 1),
        mk(SolverBackend::DirectLu, 1),
        mk(SolverBackend::multigrid(), 2),
        mk(SolverBackend::DirectLu, 2),
    ];
    let mut reports = Vec::new();
    for threads in thread_counts() {
        let report = BatchRunner::new(threads).run_scenarios(&scenarios);
        assert!(report.all_ok(), "{:?}", report.first_error());
        for o in report.outcomes() {
            if o.index.is_multiple_of(2) {
                assert_eq!(o.solver.full_factorizations, 0, "mg slot {}", o.index);
                assert_eq!(o.solver.iterative_fallbacks, 0, "mg slot {}", o.index);
                assert!(o.solver.mg_cycles >= 1, "mg slot {}", o.index);
            }
        }
        // The backends agree on the physics to solver tolerance.
        let peaks: Vec<f64> = report
            .outcomes()
            .iter()
            .map(|o| o.metrics.peak_temperature.0)
            .collect();
        assert!((peaks[0] - peaks[1]).abs() < 1e-4, "{peaks:?}");
        assert!((peaks[2] - peaks[3]).abs() < 1e-4, "{peaks:?}");
        reports.push(report);
    }
    for r in &reports[1..] {
        assert_eq!(
            reports[0].slots, r.slots,
            "multigrid outcomes are thread-count invariant"
        );
    }
}

#[test]
fn dt_gated_nan_is_healed_by_one_halving() {
    // Fires while thermal_dt > 0.15: the as-specified attempt (0.2 s)
    // diverges, the first halving (0.1 s) clears it.
    let scenario = base_spec()
        .fault_plan(FaultPlan::none().at(
            1,
            FaultKind::NanAboveDt {
                cell: 3,
                dt_above: 0.15,
            },
        ))
        .build()
        .unwrap();
    let report = BatchRunner::new(1).run_scenarios(&[scenario]);
    assert!(report.all_ok(), "{:?}", report.first_error());
    let outcome = report.outcomes()[0];
    assert_eq!(outcome.recovery.attempts, 2);
    assert_eq!(outcome.recovery.backend_demotions, 0);
    assert_eq!(outcome.recovery.dt_halvings, 1, "healed by the finer step");
}

#[test]
fn mixed_batch_keeps_healthy_aggregates_and_thread_identity() {
    // One of everything: a panicking scenario, a ladder-exhausting NaN,
    // a breakdown that self-heals by demotion, and two healthy runs.
    let scenarios = vec![
        base_spec()
            .seed(1)
            .fault_plan(FaultPlan::none().at(0, FaultKind::Panic))
            .build()
            .unwrap(),
        base_spec()
            .seed(2)
            .fault_plan(FaultPlan::none().at(1, FaultKind::Nan { cell: 5 }))
            .build()
            .unwrap(),
        base_spec()
            .seed(3)
            .solver(SolverBackend::multigrid())
            .fault_plan(FaultPlan::none().at(0, FaultKind::IterativeBreakdown))
            .build()
            .unwrap(),
        base_spec().seed(4).build().unwrap(),
        base_spec().seed(5).build().unwrap(),
    ];

    let mut reports = Vec::new();
    for threads in thread_counts() {
        let report = BatchRunner::new(threads).run_scenarios(&scenarios);
        assert_eq!(report.len(), 5, "{threads} threads");
        assert!(matches!(
            &report.slots[0].as_ref().unwrap_err().error,
            ScenarioError::Panicked { .. }
        ));
        assert!(matches!(
            &report.slots[1].as_ref().unwrap_err().error,
            ScenarioError::Diverged { epoch: 1, .. }
        ));
        for i in [2usize, 3, 4] {
            let o = report.slots[i].as_ref().expect("healthy slot");
            assert!(o.metrics.peak_temperature.0.is_finite());
            assert!(o.metrics.chip_energy > 0.0);
        }
        // Aggregates span exactly the healthy slots.
        assert_eq!(report.outcomes().len(), 3);
        assert_eq!(report.errors().len(), 2);
        reports.push(report);
    }
    for r in &reports[1..] {
        assert_eq!(
            reports[0].slots, r.slots,
            "mixed-health batches are bit-identical across thread counts"
        );
    }
}

#[test]
fn resumed_study_is_bit_identical_to_uninterrupted() {
    let study = Study::new(base_spec()).over_seeds([11, 12, 13, 14]);
    for threads in thread_counts() {
        let baseline = study.run(&BatchRunner::new(threads)).unwrap();
        assert!(baseline.all_ok());

        // "Kill" the run after two jobs, then resume at this thread
        // count from the journal the partial run left behind.
        let path = temp_journal_path(&format!("t{threads}"));
        let (partial, _) = study
            .run_checkpointed(&BatchRunner::new(threads).with_job_limit(2), &path)
            .unwrap();
        assert!(partial.outcomes().len() < study.len(), "really interrupted");
        let (full, resumed) = study
            .run_checkpointed(&BatchRunner::new(threads), &path)
            .unwrap();
        assert_eq!(resumed, partial.outcomes().len());
        assert!(full.all_ok());
        assert_eq!(
            full.slots(),
            baseline.slots(),
            "{threads}-thread resume is bit-identical to the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resumed_study_with_faulty_slots_keeps_its_errors() {
    // Journaled *errors* resume too: the diverging slot is recorded on
    // the first (interrupted) pass and merged verbatim on resume.
    let study = Study::from_specs(vec![
        base_spec()
            .seed(1)
            .fault_plan(FaultPlan::none().at(0, FaultKind::Nan { cell: 2 })),
        base_spec().seed(2),
        base_spec().seed(3),
    ]);
    let baseline = study.run(&BatchRunner::new(1)).unwrap();

    let path = temp_journal_path("faulty");
    study
        .run_checkpointed(&BatchRunner::new(1).with_job_limit(2), &path)
        .unwrap();
    let (full, resumed) = study.run_checkpointed(&BatchRunner::new(1), &path).unwrap();
    assert!(resumed >= 1);
    assert_eq!(full.slots(), baseline.slots());
    assert!(matches!(
        &full.slots()[0].as_ref().unwrap_err().error,
        ScenarioError::Diverged { epoch: 0, .. }
    ));
    std::fs::remove_file(&path).ok();
}

/// Resume drill: interrupt a larger mixed-health study at every
/// possible job boundary and resume each, demanding bit-identity with
/// the uninterrupted run throughout.
#[test]
fn resumed_study_survives_interruption_at_every_boundary() {
    let mut specs: Vec<ScenarioSpec> = (1u64..=6).map(|s| base_spec().seed(s)).collect();
    // Make one slot diverge so errors cross the journal too.
    specs[2] = specs[2]
        .clone()
        .fault_plan(FaultPlan::none().at(1, FaultKind::Nan { cell: 4 }));
    let study = Study::from_specs(specs);
    let baseline = study.run(&BatchRunner::new(4)).unwrap();

    for cut in 1..study.len() {
        let path = temp_journal_path(&format!("drill{cut}"));
        study
            .run_checkpointed(&BatchRunner::new(4).with_job_limit(cut), &path)
            .unwrap();
        let (full, _) = study.run_checkpointed(&BatchRunner::new(4), &path).unwrap();
        assert_eq!(
            full.slots(),
            baseline.slots(),
            "resume after {cut} jobs diverged from the baseline"
        );
        std::fs::remove_file(&path).ok();
    }
}
