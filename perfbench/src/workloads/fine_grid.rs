//! `fine_grid` — the `Scenario::run` entry path on fine grids: repeated
//! 10 s runs of 2-tier 64² and 96² and 4-tier 48² under the multigrid
//! backend with LC_FUZZY, plus one 2-tier 48² direct-LU run at LC_LB
//! (one large factorisation, then warm solves).

use std::time::Instant;

use cmosaic::floorplan::GridSpec;
use cmosaic::thermal::{SolverBackend, SolverStats};
use cmosaic::{PolicyKind, RunMetrics, Scenario, ScenarioSpec};

use crate::common::{derived_seed, push_rss, Ctx, SetupSampler, DEFAULT_SEED};
use crate::digest::metrics_digest;
use crate::metrics::Outcome;
use crate::replay::{self, Res};
use crate::stats;
use crate::trace::SpanId;

/// Simulated seconds per run.
const SECONDS: usize = 10;
/// Runs of each kind the timed phase completes at least (unless it
/// reaches twice `--seconds` first), so each kind's median run time rests
/// on several runs while ten runs of the workload still take only minutes:
/// the host's speed drifts from minute to minute, and a longer set of runs
/// spreads wider.
const MIN_RUNS: usize = 5;
/// `RunMetrics` digest of the first round (the four kinds in order) at
/// [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0x52f6_ef2d_ad02_d13a;

/// The four scenario kinds, in round order.
fn specs(trace_seed: u64) -> Result<Vec<ScenarioSpec>, cmosaic::CmosaicError> {
    let base = ScenarioSpec::new().seconds(SECONDS).seed(trace_seed);
    let mg = |tiers: usize, n: usize| -> Result<ScenarioSpec, cmosaic::CmosaicError> {
        Ok(base
            .clone()
            .tiers(tiers)
            .grid(GridSpec::new(n, n)?)
            .policy(PolicyKind::LcFuzzy)
            .solver(SolverBackend::multigrid()))
    };
    Ok(vec![
        mg(2, 64)?,
        mg(2, 96)?,
        mg(4, 48)?,
        base.clone()
            .tiers(2)
            .grid(GridSpec::new(48, 48)?)
            .policy(PolicyKind::LcLb),
    ])
}

/// One run: `Scenario::run`, or in the traced run the same three calls it
/// makes, returning the solver counters too.
fn run_one(
    ctx: &Ctx,
    scenario: &Scenario,
    req: u64,
) -> Result<(RunMetrics, Option<SolverStats>), cmosaic::CmosaicError> {
    let rec = &ctx.rec;
    rec.span("scenario.run", SpanId::NONE, req, |p| {
        if !ctx.traced() {
            return scenario.run().map(|m| (m, None));
        }
        let mut sim = scenario.build_simulator()?;
        sim.initialize()?;
        let m = rec.span("sim.run", p, req, |_| sim.run(scenario.seconds()))?;
        Ok((m, Some(sim.solver_stats())))
    })
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let trace_seed = derived_seed(ctx.seed, 2);
    let setup = move || {
        for spec in specs(trace_seed).expect("static grids") {
            std::hint::black_box(spec.build().expect("fine-grid scenario builds"));
        }
    };
    let specs = specs(trace_seed)?;
    let scenarios = specs
        .iter()
        .map(ScenarioSpec::build)
        .collect::<Result<Vec<_>, _>>()?;
    let kinds = scenarios.len();

    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    let mut first: Vec<Option<RunMetrics>> = vec![None; kinds];
    let mut stats_round = SolverStats::default();
    let mut runs = 0usize;
    let mut ok = 0usize;
    let setup = SetupSampler::start(ctx, 200, setup);
    let start = Instant::now();
    let keep_going = |runs: usize| {
        let t = start.elapsed();
        t < ctx.seconds || (runs < MIN_RUNS * kinds && t < ctx.seconds * 2)
    };
    while runs < kinds || keep_going(runs) {
        let k = runs % kinds;
        let t = Instant::now();
        let result = run_one(ctx, &scenarios[k], runs as u64);
        secs[k].push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match result {
            Ok((m, solver)) => {
                if runs < kinds {
                    if let Some(s) = solver {
                        replay::add_stats(&mut stats_round, &s);
                    }
                }
                let want = first[k].get_or_insert_with(|| m.clone());
                if m == *want {
                    ok += 1;
                } else {
                    out.failed += 1;
                    eprintln!(
                        "run {runs} ({}) differs from its first run",
                        scenarios[k].label()
                    );
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("run {runs} ({}): {e}", scenarios[k].label());
            }
        }
        runs += 1;
        if runs == kinds {
            let d = metrics_digest(first.iter().flatten());
            println!("first-round digest {d:016x} (trace seed {trace_seed})");
            if ctx.seed == DEFAULT_SEED && d != DEFAULT_DIGEST {
                out.failed += 1;
                eprintln!("first round digest {d:016x}, committed {DEFAULT_DIGEST:016x}");
            }
        }
    }
    setup.finish(&mut out);
    // One request is one round of the four kinds: the sum of the per-kind
    // median run times, and verified rounds per second of run time.
    let round_s: Option<f64> = secs.iter().map(|s| stats::median(s)).sum();
    out.push("request_p50_ms", round_s.map(|t| t * 1e3), runs);
    let busy_s: f64 = secs.iter().flatten().sum();
    out.push("goodput_rps", Some(ok as f64 / kinds as f64 / busy_s), ok);
    push_rss(&mut out);
    if ctx.traced() {
        replay::push_sparse(&mut out, &stats_round, 1);
        replay::lower_layers(&mut out, &ctx.rec, &specs)?;
    }
    Ok(out)
}
