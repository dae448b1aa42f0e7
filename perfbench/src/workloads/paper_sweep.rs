//! `paper_sweep` — the `Study` entry path: the fig6 study (28 scenarios)
//! chained with the actuation study (3), 12×12, 60 s each, run pass after
//! pass through `Study::run_checkpointed` into a fresh journal on one
//! worker.

use std::time::Instant;

use cmosaic::experiments::{actuation_study, fig6_study};
use cmosaic::floorplan::GridSpec;
use cmosaic::thermal::SolverStats;
use cmosaic::{BatchRunner, Study, StudyReport};

use crate::common::{derived_seed, ms, push_rss, Ctx, SetupSampler, DEFAULT_SEED};
use crate::digest::metrics_digest;
use crate::metrics::Outcome;
use crate::replay::{self, Res};
use crate::stats;
use crate::trace::SpanId;

/// Simulated seconds per scenario.
const SECONDS: usize = 60;
/// `RunMetrics` digest of one pass at [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0x6281_fb8a_9341_942a;

fn study(trace_seed: u64) -> Result<Study, cmosaic::CmosaicError> {
    let grid = GridSpec::new(12, 12)?;
    Ok(fig6_study(SECONDS, trace_seed, grid).chain(actuation_study(SECONDS, trace_seed, grid)))
}

fn digest(report: &StudyReport) -> u64 {
    metrics_digest(report.outcomes().into_iter().map(|o| &o.metrics))
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let trace_seed = derived_seed(ctx.seed, 1);
    let setup = move || {
        let s = study(trace_seed).expect("static grid");
        std::hint::black_box(s.build().expect("the paper study builds"));
    };
    let study = study(trace_seed)?;
    let runner = BatchRunner::new(1);
    let journal = ctx.run_dir.join("paper_sweep.journal");

    let mut pass_ms = Vec::new();
    let mut ok = 0usize;
    let mut first = None;
    let mut last = None;
    let setup = SetupSampler::start(ctx, 20, setup);
    let start = Instant::now();
    while pass_ms.is_empty() || start.elapsed() < ctx.seconds {
        let _ = std::fs::remove_file(&journal);
        let pass = pass_ms.len() as u64;
        let t = Instant::now();
        let result = ctx
            .rec
            .span("study.run_checkpointed", SpanId::NONE, pass, |_| {
                study.run_checkpointed(&runner, &journal)
            });
        pass_ms.push(ms(t.elapsed()));
        out.attempted += 1;
        match result {
            Ok((report, resumed)) => {
                let d = digest(&report);
                let want = *first.get_or_insert(d);
                if pass == 0 {
                    println!("first-pass digest {d:016x} (trace seed {trace_seed})");
                }
                let pinned = ctx.seed != DEFAULT_SEED || d == DEFAULT_DIGEST;
                if report.all_ok() && resumed == 0 && d == want && pinned {
                    ok += 1;
                } else {
                    out.failed += 1;
                    eprintln!("pass {pass}: digest {d:016x}, expected {want:016x}");
                }
                last = Some(report);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("pass {pass}: {e}");
            }
        }
    }
    setup.finish(&mut out);
    out.push("request_p50_ms", stats::median(&pass_ms), pass_ms.len());
    let busy_s: f64 = pass_ms.iter().sum::<f64>() / 1e3;
    out.push("goodput_rps", Some(ok as f64 / busy_s), ok);
    push_rss(&mut out);
    if ctx.traced() {
        let report = last.ok_or("no pass succeeded")?;
        traced(ctx, &mut out, &study, &report)?;
    }
    Ok(out)
}

/// Per-layer metrics of the pass: the solver counters of its outcomes,
/// then every scenario replayed standalone through the lower layers. The
/// replays must land on the pass's metrics bit for bit.
fn traced(ctx: &Ctx, out: &mut Outcome, study: &Study, report: &StudyReport) -> Res<()> {
    let mut total = SolverStats::default();
    for o in report.outcomes() {
        replay::add_stats(&mut total, &o.solver);
    }
    replay::push_sparse(out, &total, 1);
    let finals = replay::lower_layers(out, &ctx.rec, study.specs())?;
    for (i, (fin, slot)) in finals.iter().zip(report.slots()).enumerate() {
        if !matches!(slot, Ok(o) if *fin == o.metrics) {
            out.failed += 1;
            eprintln!("replay of scenario {i} differs from the pass");
        }
    }
    Ok(())
}
