//! Integration tests of the `ScenarioSpec`/`Study` API:
//!
//! * the fig6/fig7 datasets produced through the `Study` API are
//!   bit-identical at 1 and 8 threads, with exactly one full
//!   factorisation per (stack, grid) pattern asserted via `SolverStats`;
//! * the thermal-analysis donation machinery falls back safely on a
//!   shape mismatch;
//! * continuous flow modulation exercises the bounded LRU operator
//!   caches without unbounded growth.

use cmosaic::experiments::{fig6_dataset, fig6_study, fig7_dataset};
use cmosaic::policy::PolicyKind;
use cmosaic::scenario::FlowSchedule;
use cmosaic::{BatchRunner, ScenarioSpec};
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::VolumetricFlow;
use cmosaic_power::trace::WorkloadKind;

fn tiny_grid() -> GridSpec {
    GridSpec::new(6, 6).expect("static dims")
}

const SECONDS: usize = 4;
const SEED: u64 = 7;

#[test]
fn fig6_dataset_is_bit_identical_across_threads() {
    let serial = fig6_dataset(&BatchRunner::new(1), SECONDS, SEED, tiny_grid()).unwrap();
    let parallel = fig6_dataset(&BatchRunner::new(8), SECONDS, SEED, tiny_grid()).unwrap();
    assert_eq!(
        serial, parallel,
        "fig6 rows must not depend on thread count"
    );
    // Sanity on the aggregation itself: one row per figure configuration,
    // with liquid-cooled rows free of per-core hot spots.
    assert_eq!(serial.len(), 7);
    assert!(serial
        .iter()
        .filter(|r| r.policy.is_liquid_cooled())
        .all(|r| r.hotspot_max_util_per_core == 0.0));
}

#[test]
fn fig7_dataset_is_bit_identical_across_threads() {
    let serial = fig7_dataset(&BatchRunner::new(1), SECONDS, SEED, tiny_grid()).unwrap();
    let parallel = fig7_dataset(&BatchRunner::new(8), SECONDS, SEED, tiny_grid()).unwrap();
    assert_eq!(
        serial, parallel,
        "fig7 rows must not depend on thread count"
    );
    assert_eq!(serial.len(), 7);
    let baseline = &serial[0];
    assert_eq!((baseline.tiers, baseline.policy), (2, PolicyKind::AcLb));
    assert!((baseline.system_energy_norm - 1.0).abs() < 1e-12);
}

#[test]
fn fig6_study_factorises_once_per_pattern_at_any_thread_count() {
    for threads in [1usize, 8] {
        let runner = BatchRunner::new(threads);
        let report = fig6_study(SECONDS, SEED, tiny_grid()).run(&runner).unwrap();
        // 2/4 tiers x air/liquid on one grid: four operator patterns, so
        // the runner runs exactly four analyses, and all 28 scenarios
        // ride them with no full pivoting factorisation of their own.
        assert_eq!(report.pattern_groups(), 4);
        assert_eq!(runner.analysis_cache_stats().misses, 4, "{threads} threads");
        for o in report.outcomes() {
            assert_eq!(o.solver.full_factorizations, 0, "scenario {}", o.index);
            assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
        }
        assert_eq!(report.outcomes().len(), 28);
    }
}

#[test]
fn analysis_donation_is_bit_neutral_against_standalone_runs() {
    use cmosaic::study::Study;
    // Two specs of the same operator pattern: in a shared batch both
    // adopt the one analysis the runner ran for their group.
    let spec = |seed: u64| {
        ScenarioSpec::new()
            .label(format!("seed-{seed}"))
            .grid(tiny_grid())
            .seconds(SECONDS)
            .seed(seed)
    };
    // `Scenario::run` analyses on its own; even a single-scenario batch
    // adopts, so the standalone reference runs outside the batch engine.
    let solo = |seed: u64| spec(seed).build().unwrap().run().unwrap();
    let runner = BatchRunner::new(2);
    let batch = Study::from_specs(vec![spec(1), spec(2)])
        .run(&runner)
        .unwrap();
    let outcomes = batch.outcomes();
    // The batch really exercised sharing: one analysis, and both slots
    // rode it without a pivoting factorisation of their own.
    assert_eq!(runner.analysis_cache_stats().misses, 1);
    for o in &outcomes {
        assert_eq!(o.solver.full_factorizations, 0, "slot {}", o.index);
        assert_eq!(o.solver.adopted_symbolics, 1, "slot {}", o.index);
    }
    // Adoption is bit-neutral: each slot is bitwise what a standalone,
    // self-analysing run of the same spec produces.
    assert_eq!(outcomes[0].metrics, solo(1), "slot 0 != standalone");
    assert_eq!(outcomes[1].metrics, solo(2), "slot 1 != standalone");
}

#[test]
fn adopting_a_mismatched_thermal_analysis_falls_back_safely() {
    let scenario = |grid: GridSpec| {
        ScenarioSpec::new()
            .grid(grid)
            .seconds(2)
            .seed(3)
            .build()
            .expect("valid spec")
    };
    // Donor on a 6x6 grid.
    let donor = scenario(tiny_grid());
    let mut donor_sim = donor.build_simulator().unwrap();
    donor_sim.initialize().unwrap();
    donor_sim.run(2).unwrap();
    let analysis = donor_sim
        .export_thermal_analysis()
        .expect("solved at least once");

    // Same pattern: the analysis is adopted.
    let mut twin_sim = donor.build_simulator().unwrap();
    assert!(twin_sim.adopt_thermal_analysis(&analysis));
    twin_sim.initialize().unwrap();
    twin_sim.run(2).unwrap();
    let stats = twin_sim.solver_stats();
    assert_eq!(stats.full_factorizations, 0, "{stats:?}");
    assert!(stats.adopted_symbolics >= 1, "{stats:?}");

    // Different grid => different sparsity pattern: the adoption is
    // refused, and the simulator transparently pays its own full
    // factorisation instead of corrupting the solve.
    let other = scenario(GridSpec::new(8, 8).expect("static dims"));
    let mut other_sim = other.build_simulator().unwrap();
    assert!(
        !other_sim.adopt_thermal_analysis(&analysis),
        "mismatched patterns must be rejected"
    );
    other_sim.initialize().unwrap();
    let mismatched = other_sim.run(2).unwrap();
    let stats = other_sim.solver_stats();
    assert_eq!(stats.full_factorizations, 1, "{stats:?}");
    assert_eq!(stats.adopted_symbolics, 0, "{stats:?}");
    assert_eq!(stats.pivot_fallbacks, 0, "{stats:?}");

    // And the fallback run is bit-identical to a never-adopting run.
    let mut clean_sim = other.build_simulator().unwrap();
    clean_sim.initialize().unwrap();
    assert_eq!(mismatched, clean_sim.run(2).unwrap());
}

#[test]
fn continuous_flow_modulation_stays_inside_the_bounded_operator_caches() {
    // A triangle sweep that visits a fresh flow almost every second for a
    // minute: far more distinct (flow, dt) operating points than the
    // 8-entry LRU caches hold.
    let seconds = 60;
    let scenario = ScenarioSpec::new()
        .policy(PolicyKind::LcLb)
        .flow_schedule(FlowSchedule::Sweep {
            lo: VolumetricFlow::from_ml_per_min(10.0),
            hi: VolumetricFlow::from_ml_per_min(32.3),
            period: seconds,
        })
        .grid(tiny_grid())
        .thermal_dt(0.5)
        .seconds(seconds)
        .build()
        .unwrap();
    let mut sim = scenario.build_simulator().unwrap();
    sim.initialize().unwrap();
    let m = sim.run(seconds).unwrap();
    assert!(m.chip_energy > 0.0);

    let cache = sim.cache_stats();
    assert!(
        cache.transient_evictions > 0,
        "a >8-level sweep must evict transient operators, got {cache:?}"
    );
    assert!(cache.transient_entries <= cache.capacity, "{cache:?}");
    assert!(cache.steady_entries <= cache.capacity, "{cache:?}");

    // Evictions cost refactorisations, never a new pivoting pass.
    let stats = sim.solver_stats();
    assert_eq!(stats.full_factorizations, 1, "{stats:?}");
    assert_eq!(stats.pivot_fallbacks, 0, "{stats:?}");
    assert!(
        stats.refactorizations > cache.capacity as u64,
        "every evicted operating point is rebuilt numerically: {stats:?}"
    );

    // The schedule actually modulated the pump: the mean flow sits
    // strictly inside the sweep band.
    let q = m.mean_flow.expect("liquid cooled").to_ml_per_min();
    assert!(q > 10.0 && q < 32.3, "mean swept flow {q} ml/min");
}

#[test]
fn iterative_backend_matches_the_direct_backend_on_a_fig6_cell() {
    // The acceptance test of the solver-backend tentpole: a fig6-style
    // scenario (2-tier water-cooled LC_FUZZY under the web-server
    // workload) run under multigrid BiCGSTAB must reproduce the direct-LU
    // run within the iteration tolerance — across the whole closed loop,
    // not just one solve — while never paying for a pivoting
    // factorisation and never falling back.
    use cmosaic_thermal::SolverBackend;

    let base = ScenarioSpec::new()
        .policy(PolicyKind::LcFuzzy)
        .workload(WorkloadKind::WebServer)
        .grid(tiny_grid())
        .seconds(8)
        .seed(SEED);

    let run = |spec: &ScenarioSpec| {
        let scenario = spec.build().expect("valid spec");
        let mut sim = scenario.build_simulator().expect("builds");
        sim.initialize().expect("initialises");
        let metrics = sim.run(8).expect("runs");
        (metrics, sim.solver_stats())
    };

    let (direct, direct_stats) = run(&base);
    let (iterative, iter_stats) = run(&base.clone().solver(SolverBackend::multigrid()));

    // Physics agreement to solver tolerance (1e-10 relative residual on
    // ~300 K fields leaves micro-kelvin slack; 1e-4 K is generous).
    let pd = direct.peak_temperature.0;
    let pi = iterative.peak_temperature.0;
    assert!((pd - pi).abs() < 1e-4, "peak {pd} K vs {pi} K");
    assert!(
        (direct.chip_energy - iterative.chip_energy).abs() < 1e-3 * direct.chip_energy,
        "chip energy {} vs {}",
        direct.chip_energy,
        iterative.chip_energy
    );
    assert!(
        (direct.pump_energy - iterative.pump_energy).abs() < 1e-3 * direct.pump_energy.max(1.0),
        "pump energy {} vs {}",
        direct.pump_energy,
        iterative.pump_energy
    );
    assert_eq!(
        direct.hotspot_time_per_core,
        iterative.hotspot_time_per_core
    );

    // Solver-path counters: the direct run factorises once; the multigrid
    // run factorises never and serves every solve by BiCGSTAB.
    assert_eq!(direct_stats.full_factorizations, 1, "{direct_stats:?}");
    assert_eq!(direct_stats.iterative_solves, 0, "{direct_stats:?}");
    assert_eq!(iter_stats.full_factorizations, 0, "{iter_stats:?}");
    assert!(iter_stats.iterative_solves > 0, "{iter_stats:?}");
    assert_eq!(iter_stats.iterative_fallbacks, 0, "{iter_stats:?}");

    // Each backend is independently reproducible bit for bit.
    let (iterative2, _) = run(&base.clone().solver(SolverBackend::multigrid()));
    assert_eq!(iterative, iterative2, "iterative runs are deterministic");
}
