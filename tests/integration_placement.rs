//! Integration tests of thermal-aware placement optimization:
//!
//! * property tests — every deterministic placement move (block swap,
//!   hot-spot spread, gap cavity toggle) yields a re-validated
//!   `Floorplan`/`Stack3d` with the footprint, element set and layer
//!   budget intact;
//! * seeded simulated annealing on the reference 2-tier Niagara
//!   placement space lands on the exhaustive grid's optimum after
//!   simulating well under half the space;
//! * the annealing report is bit-identical across the
//!   `CMOSAIC_TEST_THREADS` sweep, across reruns with the same seed, and
//!   on a runner whose analysis cache the grid search already filled.

use std::sync::Arc;

use cmosaic::batch::BatchRunner;
use cmosaic::optimize::{
    Constraints, DesignAxis, DesignSpace, GridSearch, OptimizeReport, Optimizer,
    SimulatedAnnealing, StackTransform,
};
use cmosaic::policy::PolicyKind;
use cmosaic::scenario::ScenarioSpec;
use cmosaic_floorplan::stack::presets;
use cmosaic_floorplan::transform::{
    gap_states, set_gap_cavity, spread_hotspots_in_tier, swap_in_tier,
};
use cmosaic_floorplan::{CavitySpec, ElementKind, GridSpec, Stack3d};
use cmosaic_materials::units::{Celsius, VolumetricFlow};
use cmosaic_power::trace::WorkloadKind;
use proptest::collection;
use proptest::prelude::*;

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

/// The invariants any placement move must preserve: footprint, tier
/// count, element sets per tier (by name), layer budget and total
/// thickness. Validation itself (overlaps, bounds, layer ordering) was
/// already re-run by `Stack3d::from_parts` — reaching this function at
/// all means the move produced a *valid* stack.
fn assert_stack_invariants(before: &Stack3d, after: &Stack3d) {
    assert_eq!(before.width(), after.width());
    assert_eq!(before.height(), after.height());
    assert_eq!(before.tiers().len(), after.tiers().len());
    assert_eq!(before.layers().len(), after.layers().len());
    assert!((before.total_thickness() - after.total_thickness()).abs() < 1e-12);
    for (b, a) in before.tiers().iter().zip(after.tiers()) {
        assert_eq!(b.elements().len(), a.elements().len());
        let mut b_names: Vec<&str> = b.elements().iter().map(|e| e.name()).collect();
        let mut a_names: Vec<&str> = a.elements().iter().map(|e| e.name()).collect();
        b_names.sort_unstable();
        a_names.sort_unstable();
        assert_eq!(b_names, a_names, "placement moves relocate, never rename");
        assert!((b.occupied_area() - a.occupied_area()).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any swap of two named blocks in any tier is a valid placement.
    #[test]
    fn any_block_swap_yields_a_valid_stack(
        a in 0usize..8,
        b in 0usize..8,
        tier in 0usize..2,
    ) {
        let stack = presets::liquid_cooled_mpsoc(2).expect("preset");
        // Tier 0 is the core tier (core0..core7), tier 1 the cache tier
        // (l2_0..l2_3): swap two blocks native to whichever tier we hit.
        let (name_a, name_b) = if tier == 0 {
            (format!("core{a}"), format!("core{b}"))
        } else {
            (format!("l2_{}", a % 4), format!("l2_{}", b % 4))
        };
        let swapped = swap_in_tier(&stack, tier, &name_a, &name_b)
            .expect("swapping existing blocks is always valid");
        assert_stack_invariants(&stack, &swapped);
        // The two blocks really trade places (identity swap allowed).
        let plan = &stack.tiers()[tier];
        let moved = &swapped.tiers()[tier];
        let rect_of = |p: &cmosaic_floorplan::Floorplan, n: &str| {
            *p.elements()[p.index_of(n).expect("present")].rect()
        };
        prop_assert_eq!(rect_of(plan, &name_a), rect_of(moved, &name_b));
    }

    /// Any hot-spot-aware spread (arbitrary non-negative weights) is a
    /// valid placement that keeps the cores on the same slot set.
    #[test]
    fn any_hotspot_spread_yields_a_valid_stack(
        weights in collection::vec(0.0f64..10.0, 8),
    ) {
        let stack = presets::liquid_cooled_mpsoc(2).expect("preset");
        let spread = spread_hotspots_in_tier(&stack, 0, ElementKind::Core, &weights)
            .expect("spreading over existing slots is always valid");
        assert_stack_invariants(&stack, &spread);
        // Cores permute over the original core slots: same rect multiset.
        let rects = |s: &Stack3d| {
            let plan = &s.tiers()[0];
            let mut r: Vec<String> = plan
                .indices_of_kind(ElementKind::Core)
                .into_iter()
                .map(|i| format!("{:?}", plan.elements()[i].rect()))
                .collect();
            r.sort_unstable();
            r
        };
        prop_assert_eq!(rects(&stack), rects(&spread));
    }

    /// Toggling any inter-tier gap off and back on round-trips the layer
    /// stack: same layer count, same total thickness, same gap states.
    #[test]
    fn any_gap_toggle_round_trips(gap in 0usize..3, tall in 0usize..2) {
        let tiers = if tall == 0 { 2 } else { 4 };
        let stack = presets::liquid_cooled_mpsoc(tiers).expect("preset");
        let gap = gap % (tiers - 1); // a valid gap for this stack height

        let bonded = set_gap_cavity(&stack, gap, None).expect("bonding a gap is valid");
        prop_assert!(!gap_states(&bonded)[gap]);
        prop_assert_eq!(bonded.layers().len(), stack.layers().len());
        let restored = set_gap_cavity(&bonded, gap, Some(CavitySpec::table1()))
            .expect("re-opening a gap is valid");
        prop_assert!(gap_states(&restored)[gap]);
        prop_assert_eq!(restored.layers().len(), stack.layers().len());
        prop_assert!(
            (restored.total_thickness() - stack.total_thickness()).abs() < 1e-12
        );
        prop_assert!((restored.silicon_area() - stack.silicon_area()).abs() < 1e-12);
    }
}

/// The reference 2-tier Niagara placement space shared with
/// `examples/optimize_placement.rs` and the `perf_placement` bench:
/// pump operating point x block placement x inter-tier channel
/// geometry, under the database workload (skewed per-core load, so
/// placement genuinely moves the peak junction temperature).
fn placement_space() -> DesignSpace {
    let ml = VolumetricFlow::from_ml_per_min;
    let base = ScenarioSpec::new()
        .policy(PolicyKind::LcLb)
        .workload(WorkloadKind::Database)
        .grid(GridSpec::new(6, 6).expect("static dims"))
        .thermal_dt(0.5)
        .tiers(2)
        .seconds(12)
        .seed(7);
    let identity: StackTransform = Arc::new(|s| Ok(s.clone()));
    let swap: StackTransform = Arc::new(|s| swap_in_tier(s, 0, "core0", "core7"));
    let spread: StackTransform = Arc::new(|s| {
        spread_hotspots_in_tier(
            s,
            0,
            ElementKind::Core,
            &[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
        )
    });
    let table1: StackTransform = Arc::new(|s| set_gap_cavity(s, 0, Some(CavitySpec::table1())));
    let wide: StackTransform = Arc::new(|s| {
        let spec = CavitySpec::new(
            0.1e-3,
            0.15e-3,
            0.1e-3,
            cmosaic_materials::solids::SolidMaterial::silicon(),
        )?;
        set_gap_cavity(s, 0, Some(spec))
    });
    DesignSpace::new(base)
        .with_axis(DesignAxis::flow_rates([
            ml(14.0),
            ml(20.0),
            ml(26.0),
            ml(32.3),
        ]))
        .with_axis(DesignAxis::stack_transforms(
            "placement",
            [
                ("as-designed", identity),
                ("swap(core0,core7)", swap),
                ("spread(core)", spread),
            ],
        ))
        .with_axis(DesignAxis::stack_transforms(
            "channel",
            [("table1 channels", table1), ("wide channels", wide)],
        ))
}

/// The annealing seed/step budget pinned by the example and bench.
const SA_SEED: u64 = 11;
const SA_STEPS: usize = 12;

fn anneal(threads: usize) -> OptimizeReport {
    Optimizer::new(
        placement_space(),
        Constraints::peak_below(Celsius(85.0)),
        &BatchRunner::new(threads),
    )
    .run(&mut SimulatedAnnealing::seeded(SA_SEED).steps(SA_STEPS))
    .expect("annealing runs")
}

#[test]
fn annealing_finds_the_grid_optimum_with_a_fraction_of_the_simulations() {
    let runner = BatchRunner::new(4);
    let optimizer = Optimizer::new(
        placement_space(),
        Constraints::peak_below(Celsius(85.0)),
        &runner,
    );
    let grid = optimizer.run(&mut GridSearch).expect("grid runs");
    let sa = optimizer
        .run(&mut SimulatedAnnealing::seeded(SA_SEED).steps(SA_STEPS))
        .expect("annealing runs");

    // Pinned optimum: all three axes are decisive. 14 ml/min overheats,
    // wide channels breach 85 C at 20 ml/min, and among the feasible
    // 20 ml/min designs the as-designed placement has the lowest peak.
    let best = grid.best.as_ref().expect("feasible designs exist");
    assert_eq!(best.label, "20.0 ml/min, as-designed, table1 channels");
    let sa_best = sa.best.as_ref().expect("annealer lands feasible");
    assert_eq!(sa_best.design, best.design, "{}", sa_best.label);

    // The annealer simulated at most 40% of the exhaustive grid — the
    // nightly perf gate's threshold, pinned here in debug as well.
    assert_eq!(grid.n_evaluations(), 24);
    assert!(
        sa.n_evaluations() * 5 <= grid.n_evaluations() * 2,
        "{} of {} distinct designs simulated",
        sa.n_evaluations(),
        grid.n_evaluations()
    );
    // Revisits were served by the memoizing evaluator, not re-simulated.
    assert!(sa.memo_hits > 0);
    assert_eq!(
        sa.eval_requests,
        SA_STEPS + 1,
        "one request per step + start"
    );
    assert!((sa.memo_hit_rate() - sa.memo_hits as f64 / sa.eval_requests as f64).abs() < 1e-12);

    // The Pareto front trades all three objectives: the wide-channel
    // designs buy silicon area back at a peak-temperature premium.
    let front = grid.front.points();
    assert!(front.len() >= 3, "a trade-off surface, not a single point");
    let areas: std::collections::BTreeSet<u64> =
        front.iter().map(|p| (p.area * 1e12) as u64).collect();
    assert!(
        areas.len() >= 2,
        "area must be a live objective on the front"
    );
    assert_eq!(
        front[0].design, best.design,
        "cheapest front point is the optimum"
    );
}

#[test]
fn annealing_after_the_grid_on_one_runner_reuses_every_analysis() {
    // The exhaustive grid leaves all six (placement, channel) patterns in
    // the runner's analysis cache; the annealing run that follows on the
    // same runner misses none of them and still reports exactly what a
    // fresh runner reports.
    let threads = thread_counts()[0];
    let runner = BatchRunner::new(threads);
    let optimizer = Optimizer::new(
        placement_space(),
        Constraints::peak_below(Celsius(85.0)),
        &runner,
    );
    optimizer.run(&mut GridSearch).expect("grid runs");
    let before = runner.analysis_cache_stats();
    assert_eq!(before.misses, 6, "{before:?}");
    let warm = optimizer
        .run(&mut SimulatedAnnealing::seeded(SA_SEED).steps(SA_STEPS))
        .expect("annealing runs");
    let after = runner.analysis_cache_stats();
    assert_eq!(after.misses, before.misses, "{after:?}");
    assert!(after.hits > before.hits, "{after:?}");
    assert_eq!(warm, anneal(threads));
}

#[test]
fn annealing_reports_are_bit_identical_across_threads_and_reruns() {
    let reports: Vec<OptimizeReport> = thread_counts().into_iter().map(anneal).collect();
    for pair in reports.windows(2) {
        assert_eq!(pair[0], pair[1], "thread count must not leak into results");
    }
    let rerun = anneal(thread_counts()[0]);
    assert_eq!(reports[0], rerun, "same seed, same trajectory");
}
