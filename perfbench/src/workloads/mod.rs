//! The four workloads, one per entry path. Every workload reports every
//! metric `BENCHMARK.json` lists for its mode: all end-to-end metrics in
//! the untraced run, all per-layer metrics in the traced run.

mod design_search;
mod fine_grid;
mod paper_sweep;
mod serve_mix;

use crate::common::Ctx;
use crate::metrics::{self, Outcome};
use crate::replay::Res;
use crate::trace;

/// Runs `workload` and keeps exactly the catalogued metrics of this mode,
/// in catalogue order (adding the tracing overhead in the traced run). A
/// metric it could not measure counts as a failed operation.
pub fn run(workload: &str, ctx: &Ctx) -> Res<Outcome> {
    let mut out = match workload {
        "paper_sweep" => paper_sweep::run(ctx)?,
        "fine_grid" => fine_grid::run(ctx)?,
        "design_search" => design_search::run(ctx)?,
        "serve_mix" => serve_mix::run(ctx)?,
        _ => return Err(format!("unknown workload '{workload}'").into()),
    };
    if ctx.traced() {
        // Overhead: recorded spans times the measured cost of one span,
        // as a share of the traced run's wall time so far.
        let spans = ctx.rec.spans().len();
        let wall_ns = ctx.rec.elapsed_ns() as f64;
        out.push("trace.spans", Some(spans as f64), 1);
        out.push(
            "trace.overhead_pct",
            Some(100.0 * spans as f64 * trace::span_cost_ns() / wall_ns),
            spans,
        );
    }
    let measured = std::mem::take(&mut out.metrics);
    for name in metrics::names(ctx.traced()) {
        match measured.iter().find(|m| m.name == name) {
            Some(m) => out.metrics.push(m.clone()),
            None => {
                out.failed += 1;
                eprintln!("{workload}: {name} was not measured");
            }
        }
    }
    Ok(out)
}
