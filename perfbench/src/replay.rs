//! Traced replays of a workload's inputs through the layers every workload
//! loads: `thermal`, `power`, `policy`, `core::sim` and `core::scenario`
//! (the `sparse` counters come from the workload's own outcomes). Every
//! call sits inside a span; the per-layer metrics are medians of those
//! spans.

use std::time::{Duration, Instant};

use cmosaic::floorplan::{GridSpec, Stack3d};
use cmosaic::fuzzy::FuzzyController;
use cmosaic::materials::units::{Kelvin, VolumetricFlow};
use cmosaic::policy::{make_policy, Action, Observation};
use cmosaic::power::{BlockKind, BlockState};
use cmosaic::thermal::{SolverStats, ThermalModel, ThermalParams};
use cmosaic::{RunMetrics, Scenario, ScenarioSpec};

use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{Recorder, SpanId};

/// The benchmark's error type: any layer error, rendered.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Thermal sub-step of every replay (the scenarios' default), s.
const DT: f64 = 0.25;
/// Time each thermal measurement repeats for, after its minimum count.
const BUDGET: Duration = Duration::from_millis(250);

/// Records the median duration of the spans named `span` as `metric`,
/// in ms (`scale` 1) or µs (`scale` 1000).
pub fn push_span(out: &mut Outcome, rec: &Recorder, span: &str, metric: &'static str, scale: f64) {
    let d = rec.durations_ms(span);
    out.push(metric, stats::median(&d).map(|v| v * scale), d.len());
}

/// Adds every counter of `from` into `into`.
pub fn add_stats(into: &mut SolverStats, from: &SolverStats) {
    into.full_factorizations += from.full_factorizations;
    into.refactorizations += from.refactorizations;
    into.pivot_fallbacks += from.pivot_fallbacks;
    into.value_updates += from.value_updates;
    into.in_place_solves += from.in_place_solves;
    into.workspace_grows += from.workspace_grows;
    into.adopted_symbolics += from.adopted_symbolics;
    into.iterative_solves += from.iterative_solves;
    into.iterative_iterations += from.iterative_iterations;
    into.iterative_fallbacks += from.iterative_fallbacks;
    into.ilu_refreshes += from.ilu_refreshes;
    into.mg_cycles += from.mg_cycles;
    into.mg_smooth_sweeps += from.mg_smooth_sweeps;
    into.mg_coarse_solves += from.mg_coarse_solves;
}

/// The `sparse.*` metrics from solver counters summed over `ops`
/// operations of the workload.
pub fn push_sparse(out: &mut Outcome, total: &SolverStats, ops: usize) {
    let per_op = |v: u64| Some(v as f64 / ops.max(1) as f64);
    out.push(
        "sparse.full_factorizations",
        per_op(total.full_factorizations),
        ops,
    );
    out.push(
        "sparse.refactorizations",
        per_op(total.refactorizations),
        ops,
    );
    out.push("sparse.solves", per_op(total.in_place_solves), ops);
}

/// Every per-layer metric but the `sparse` counts, from a workload's own
/// specs: the thermal replays on its first liquid-cooled 2- and 4-tier
/// scenario, the allocator and policy on that 4-tier scenario's trace,
/// every scenario replayed epoch by epoch through the simulator, and
/// `ScenarioSpec::build` and `fingerprint` over the specs. Returns each
/// scenario's final metrics, in spec order.
pub fn lower_layers(
    out: &mut Outcome,
    rec: &Recorder,
    specs: &[ScenarioSpec],
) -> Res<Vec<RunMetrics>> {
    let scenarios = specs
        .iter()
        .map(ScenarioSpec::build)
        .collect::<Result<Vec<_>, _>>()?;
    let liquid = |tiers: usize| {
        scenarios
            .iter()
            .find(|s| s.spec().policy_kind().is_liquid_cooled() && s.stack().tiers().len() == tiers)
            .ok_or_else(|| format!("the workload has no liquid-cooled {tiers}-tier scenario"))
    };
    thermal(out, rec, liquid(2)?, Tier::T2)?;
    thermal(out, rec, liquid(4)?, Tier::T4)?;
    power_policy(out, rec, liquid(4)?)?;
    let finals = scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| replay_scenario(rec, sc, i as u64))
        .collect::<Res<Vec<_>>>()?;
    push_span(out, rec, "sim.new", "sim.new_us", 1e3);
    push_span(out, rec, "sim.initialize", "sim.initialize_ms", 1.0);
    push_span(out, rec, "sim.epoch", "sim.epoch_us", 1e3);
    scenario_layer(out, rec, specs)?;
    Ok(finals)
}

/// `scenario.build_us` and `scenario.fingerprint_us` over `specs`.
fn scenario_layer(out: &mut Outcome, rec: &Recorder, specs: &[ScenarioSpec]) -> Res<()> {
    let reps = (400 / specs.len().max(1)).clamp(1, 20);
    for rep in 0..reps {
        for (i, spec) in specs.iter().enumerate() {
            let req = (rep * specs.len() + i) as u64;
            rec.span("scenario.build", SpanId::NONE, req, |_| spec.build())?;
            std::hint::black_box(rec.span("scenario.fingerprint", SpanId::NONE, req, |_| {
                spec.fingerprint()
            }));
        }
    }
    push_span(out, rec, "scenario.build", "scenario.build_us", 1e3);
    push_span(
        out,
        rec,
        "scenario.fingerprint",
        "scenario.fingerprint_us",
        1e3,
    );
    Ok(())
}

/// Replays `scenario` (as request `req`) through `build_simulator`,
/// `initialize` and one `Simulator::run(1)` per control interval, and
/// returns its final cumulative metrics.
fn replay_scenario(rec: &Recorder, scenario: &Scenario, req: u64) -> Res<RunMetrics> {
    rec.span("replay.scenario", SpanId::NONE, req, |p| {
        let mut sim = rec.span("sim.new", p, req, |_| scenario.build_simulator())?;
        rec.span("sim.initialize", p, req, |_| sim.initialize())?;
        let mut last = None;
        for _ in 0..scenario.seconds() {
            last = Some(rec.span("sim.epoch", p, req, |_| sim.run(1))?);
        }
        Ok(last.ok_or("a scenario without epochs")?)
    })
}

/// Calls `f` with 0, 1, 2, … at least `min` times and until [`BUDGET`]
/// has passed.
fn repeat(min: u64, mut f: impl FnMut(u64) -> Res<()>) -> Res<()> {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed() < BUDGET {
        f(i)?;
        i += 1;
    }
    Ok(())
}

/// The tier count a thermal metric is named after.
#[derive(Clone, Copy)]
enum Tier {
    T2,
    T4,
}

impl Tier {
    /// Cold-solve, refactorisation and warm-step span (and metric) names.
    fn names(self) -> [&'static str; 3] {
        match self {
            Tier::T2 => [
                "thermal.cold_solve_ms.t2",
                "thermal.refactor_ms.t2",
                "thermal.warm_step_us.t2",
            ],
            Tier::T4 => [
                "thermal.cold_solve_ms.t4",
                "thermal.refactor_ms.t4",
                "thermal.warm_step_us.t4",
            ],
        }
    }
}

/// A scenario's thermal pattern (stack, grid, solver backend) under a
/// uniform power map (36 W per tier) and the fuzzy pump levels.
struct Pattern {
    stack: Stack3d,
    grid: GridSpec,
    params: ThermalParams,
    maps: Vec<Vec<f64>>,
    /// The eight pump levels of the Table I fuzzy controller, lowest first.
    levels: Vec<VolumetricFlow>,
}

impl Pattern {
    fn of(scenario: &Scenario) -> Self {
        let grid = scenario.spec().grid_spec();
        let tiers = scenario.stack().tiers().len();
        let cells = grid.cell_count();
        let fuzzy = FuzzyController::table1();
        Pattern {
            stack: scenario.stack().clone(),
            grid,
            params: ThermalParams {
                solver: scenario.spec().solver_backend(),
                ..ThermalParams::default()
            },
            maps: vec![vec![36.0 / cells as f64; cells]; tiers],
            levels: (0..fuzzy.levels()).map(|l| fuzzy.level_flow(l)).collect(),
        }
    }

    /// A fresh model at the top pump level.
    fn model(&self) -> Res<ThermalModel> {
        let mut m = ThermalModel::new(&self.stack, self.grid, self.params.clone())?;
        m.set_flow_rate(*self.levels.last().expect("eight levels"))?;
        Ok(m)
    }
}

/// `thermal.*` on the pattern of `scenario`: steady solves on fresh
/// models (one full factorisation, or one multigrid set-up, each); the
/// first sub-step after each fuzzy pump-level change (`set_flow_rate`,
/// then a refactorisation at the new operating point and the solve); and
/// warm sub-steps at a cached operating point.
fn thermal(out: &mut Outcome, rec: &Recorder, scenario: &Scenario, tier: Tier) -> Res<()> {
    let [cold, refactor, warm] = tier.names();
    let p = Pattern::of(scenario);
    repeat(5, |rep| {
        let mut m = p.model()?;
        rec.span(cold, SpanId::NONE, rep, |_| m.steady_state(&p.maps))?;
        Ok(())
    })?;
    repeat(3, |rep| {
        let mut m = p.model()?;
        m.steady_state(&p.maps)?;
        let mut field = m.current_field();
        for &q in p.levels.iter().rev().skip(1) {
            rec.span(refactor, SpanId::NONE, rep, |_| -> Res<()> {
                m.set_flow_rate(q)?;
                m.step_into(&p.maps, DT, &mut field)?;
                Ok(())
            })?;
        }
        Ok(())
    })?;
    let mut m = p.model()?;
    m.steady_state(&p.maps)?;
    let mut field = m.current_field();
    m.step_into(&p.maps, DT, &mut field)?;
    repeat(20, |rep| {
        rec.span(warm, SpanId::NONE, rep, |_| {
            m.step_into(&p.maps, DT, &mut field)
        })?;
        Ok(())
    })?;
    push_span(out, rec, cold, cold, 1.0);
    push_span(out, rec, refactor, refactor, 1.0);
    push_span(out, rec, warm, warm, 1e3);
    Ok(())
}

/// `power.tier_powers_us` and `policy.decide_us`: the scenario's
/// allocator prices every tier, and its policy decides, once per trace
/// row, in batches of 100 calls per span.
fn power_policy(out: &mut Outcome, rec: &Recorder, scenario: &Scenario) -> Res<()> {
    const BATCH: usize = 100;
    let allocator = scenario.spec().allocator_preset().build();
    let plans = scenario.stack().tiers();
    let trace = scenario.trace();
    let mut powers = Vec::new();
    let mut policy = make_policy(scenario.spec().policy_kind(), scenario.n_cores());
    let mut action = Action::default();
    let tier_of: Vec<usize> = plans
        .iter()
        .enumerate()
        .flat_map(|(t, p)| {
            let cores = p
                .elements()
                .iter()
                .filter(|e| BlockKind::from(e.kind()) == BlockKind::Core)
                .count();
            std::iter::repeat_n(t, cores)
        })
        .collect();
    for row in 0..trace.seconds() {
        let demands = trace.row(row);
        let mean = demands.iter().sum::<f64>() / demands.len() as f64;
        let states: Vec<Vec<BlockState>> = plans
            .iter()
            .map(|p| {
                p.elements()
                    .iter()
                    .map(|e| BlockState::loaded(BlockKind::from(e.kind()), mean))
                    .collect()
            })
            .collect();
        let temps: Vec<Vec<Kelvin>> = plans
            .iter()
            .map(|p| vec![Kelvin::from_celsius(55.0 + 30.0 * mean); p.elements().len()])
            .collect();
        let obs = Observation {
            demands: demands.to_vec(),
            core_temps: demands
                .iter()
                .map(|d| Kelvin::from_celsius(50.0 + 40.0 * d))
                .collect(),
            max_temp: Kelvin::from_celsius(
                50.0 + 40.0 * demands.iter().cloned().fold(0.0, f64::max),
            ),
            tier_of: tier_of.clone(),
        };
        let req = row as u64;
        rec.span(
            "power.tier_powers.batch",
            SpanId::NONE,
            req,
            |_| -> Res<()> {
                for _ in 0..BATCH {
                    for (t, plan) in plans.iter().enumerate() {
                        allocator.tier_powers_into(plan, &states[t], &temps[t], &mut powers)?;
                    }
                }
                Ok(())
            },
        )?;
        rec.span("policy.decide.batch", SpanId::NONE, req, |_| {
            for _ in 0..BATCH {
                policy.decide_into(&obs, &mut action);
            }
        });
        std::hint::black_box((&powers, &action));
    }
    // Per call: a tier_powers span covers BATCH calls per tier.
    let per_tier = (BATCH * plans.len()) as f64;
    push_span(
        out,
        rec,
        "power.tier_powers.batch",
        "power.tier_powers_us",
        1e3 / per_tier,
    );
    push_span(
        out,
        rec,
        "policy.decide.batch",
        "policy.decide_us",
        1e3 / BATCH as f64,
    );
    Ok(())
}
