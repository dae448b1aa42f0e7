//! `design_search` — the `Optimizer` entry path: one request is one
//! `Optimizer::run` of seeded `SimulatedAnnealing` over the fig6-style
//! "minimum pump energy at 85 °C" space (tiers {2,4} × six flow rates ×
//! three pinned placement moves, LC_LB, max utilisation, 12×12, 30 s) on
//! one worker, early abort and memoisation on.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cmosaic::floorplan::transform::{spread_hotspots_in_tier, swap_in_tier};
use cmosaic::floorplan::{ElementKind, GridSpec};
use cmosaic::materials::units::{Celsius, VolumetricFlow};
use cmosaic::optimize::{
    ConstraintMonitor, Constraints, DesignAxis, DesignSpace, GridSearch, OptimizeReport, Optimizer,
    SimulatedAnnealing, StackTransform,
};
use cmosaic::power::trace::WorkloadKind;
use cmosaic::thermal::SolverStats;
use cmosaic::{BatchRunner, PolicyKind, ScenarioSpec};

use crate::common::{derived_seed, ms, push_rss, shuffle, splitmix, stream, Ctx, SetupSampler};
use crate::metrics::Outcome;
use crate::replay::{self, Res};
use crate::stats;
use crate::trace::SpanId;

/// Simulated seconds per design.
const SECONDS: usize = 30;
/// Annealing steps per search.
const STEPS: usize = 16;
/// Annealing seeds, ordered by the wall time one search with each took
/// on the reference host (cheapest first; 355–1152 ms). A run takes every
/// [`STRATA`]-th seed from an offset its `--seed` picks, in an order its
/// `--seed` shuffles: a stratified sample, so every run meets the same
/// spread of search difficulty and the median search time does not move
/// with which seeds happened to be drawn.
const SA_POOL: [u64; 63] = [
    543655, 577885, 535035, 708993, 995814, 673604, 875515, 418544, 893937, 315071, 63881, 342783,
    74679, 931016, 414266, 929842, 963069, 590567, 936744, 992947, 829709, 690616, 311454, 688867,
    407316, 573935, 888871, 836314, 858892, 25633, 616900, 368794, 283235, 326034, 407155, 65080,
    503533, 218589, 45599, 358682, 294543, 628978, 297699, 514165, 497692, 645606, 699515, 647918,
    391200, 682004, 470077, 38566, 696100, 2016, 790931, 386321, 870539, 95917, 495168, 849334,
    830903, 561225, 566462,
];
/// Strata of [`SA_POOL`]: a run's list holds every third seed (21).
const STRATA: usize = 3;

/// The annealing seed list of one run.
fn sa_seeds(seed: u64) -> Vec<u64> {
    let mut rng = stream(seed, 4);
    let offset = (splitmix(&mut rng) % STRATA as u64) as usize;
    let mut seeds: Vec<u64> = SA_POOL
        .iter()
        .skip(offset)
        .step_by(STRATA)
        .copied()
        .collect();
    shuffle(&mut seeds, &mut rng);
    seeds
}

const SPREAD_WEIGHTS: [f64; 8] = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];

fn swap(
    s: &cmosaic::floorplan::Stack3d,
) -> Result<cmosaic::floorplan::Stack3d, cmosaic::floorplan::FloorplanError> {
    swap_in_tier(s, 0, "core0", "core7")
}

fn spread(
    s: &cmosaic::floorplan::Stack3d,
) -> Result<cmosaic::floorplan::Stack3d, cmosaic::floorplan::FloorplanError> {
    spread_hotspots_in_tier(s, 0, ElementKind::Core, &SPREAD_WEIGHTS)
}

fn space(trace_seed: u64) -> Result<DesignSpace, cmosaic::CmosaicError> {
    let ml = VolumetricFlow::from_ml_per_min;
    let identity: StackTransform = Arc::new(|s| Ok(s.clone()));
    let swap: StackTransform = Arc::new(swap);
    let spread: StackTransform = Arc::new(spread);
    Ok(DesignSpace::new(
        ScenarioSpec::new()
            .policy(PolicyKind::LcLb)
            .workload(WorkloadKind::MaxUtilization)
            .grid(GridSpec::new(12, 12)?)
            .seconds(SECONDS)
            .seed(trace_seed),
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
    .with_axis(DesignAxis::stack_transforms(
        "placement",
        [
            ("as-designed", identity),
            ("swap(core0,core7)", swap),
            ("spread(core)", spread),
        ],
    )))
}

/// Checks a search against the exhaustive grid: the best design must be
/// bit-identical to the grid's evaluation of the same design.
fn matches_grid(report: &OptimizeReport, grid: &OptimizeReport) -> bool {
    report.failed == 0
        && report.best.as_ref().is_some_and(|best| {
            grid.evaluations
                .iter()
                .find(|e| e.design == best.design)
                .is_some_and(|e| e == best)
        })
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let trace_seed = derived_seed(ctx.seed, 3);
    let setup = move || {
        let s = space(trace_seed).expect("static grid");
        for p in s.points() {
            std::hint::black_box(s.spec(&p).expect("every design resolves"));
        }
    };
    let runner = BatchRunner::new(1);
    let constraints = Constraints::peak_below(Celsius(85.0));
    let optimizer = Optimizer::new(space(trace_seed)?, constraints.clone(), &runner);
    let grid = optimizer.run(&mut GridSearch)?;
    let sa_seeds = sa_seeds(ctx.seed);
    let n = sa_seeds.len();

    let mut search_ms = Vec::new();
    let mut ok = 0usize;
    let mut reports = Vec::new();
    // Whole passes over the list only: as many as fill the measured time
    // best (at least one), decided once the first pass is timed.
    let mut passes = 1;
    let setup = SetupSampler::start(ctx, 20, setup);
    let start = Instant::now();
    while search_ms.len() < passes * n {
        let i = search_ms.len();
        let seed = sa_seeds[i % n];
        let t = Instant::now();
        let result = ctx.rec.span("optimizer.run", SpanId::NONE, i as u64, |_| {
            optimizer.run(&mut SimulatedAnnealing::seeded(seed).steps(STEPS))
        });
        search_ms.push(ms(t.elapsed()));
        out.attempted += 1;
        if search_ms.len() == n {
            let ratio = ctx.seconds.as_secs_f64() / start.elapsed().as_secs_f64();
            passes = (ratio.round() as usize).max(1);
        }
        match result {
            Ok(report) => {
                if matches_grid(&report, &grid) {
                    ok += 1;
                } else {
                    out.failed += 1;
                    eprintln!("search {i} (seed {seed}) disagrees with the grid");
                }
                if ctx.traced() {
                    reports.push(report);
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("search {i} (seed {seed}): {e}");
            }
        }
    }
    setup.finish(&mut out);
    out.push("request_p50_ms", stats::median(&search_ms), search_ms.len());
    let busy_s: f64 = search_ms.iter().sum::<f64>() / 1e3;
    out.push("goodput_rps", Some(ok as f64 / busy_s), ok);
    push_rss(&mut out);
    if ctx.traced() {
        traced(ctx, &mut out, &optimizer, &constraints, &reports)?;
    }
    Ok(out)
}

/// Per-layer metrics of the searches: solver counters, each evaluated
/// design replayed once through the batch engine with the same
/// early-abort monitor and summed per search; then the 36 designs
/// replayed through the lower layers.
fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    optimizer: &Optimizer<'_>,
    constraints: &Constraints,
    reports: &[OptimizeReport],
) -> Res<()> {
    let space = optimizer.space();
    let runner = BatchRunner::new(1);
    let mut per_design: BTreeMap<Vec<usize>, SolverStats> = BTreeMap::new();
    let mut total = SolverStats::default();
    for r in reports {
        for e in &r.evaluations {
            let key = e.design.indices().to_vec();
            if !per_design.contains_key(&key) {
                let scenario = space.spec(&e.design)?.build()?;
                let (batch, _) = runner.run_scenarios_observed(&[scenario], |_, _| {
                    ConstraintMonitor::new(constraints.clone())
                });
                let outcome = batch.slots[0].as_ref().map_err(|e| e.to_string())?;
                per_design.insert(key.clone(), outcome.solver);
            }
            replay::add_stats(&mut total, &per_design[&key]);
        }
    }
    replay::push_sparse(out, &total, reports.len());
    let specs = space
        .points()
        .iter()
        .map(|p| space.spec(p))
        .collect::<Result<Vec<_>, _>>()?;
    replay::lower_layers(out, &ctx.rec, &specs)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_lists_are_seeded_strata_of_the_pool() {
        let a = sa_seeds(1);
        assert_eq!(a, sa_seeds(1));
        assert_eq!(a.len(), SA_POOL.len() / STRATA);
        // One stratum: every seed sits at the same pool offset mod STRATA.
        let offsets: Vec<usize> = a
            .iter()
            .map(|s| SA_POOL.iter().position(|p| p == s).expect("from the pool") % STRATA)
            .collect();
        assert!(offsets.iter().all(|&o| o == offsets[0]));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "no seed twice");
        assert!((2..40).any(|s| sa_seeds(s) != a), "the seed moves the list");
    }

    #[test]
    fn the_space_has_36_resolvable_designs() {
        let space = space(7).expect("static grid");
        assert_eq!(space.len(), 36);
        for p in space.points() {
            space.spec(&p).expect("every placement move applies");
        }
    }
}
