//! Cooling design-space exploration with the `ScenarioSpec`/`Study` API:
//! a cartesian sweep over coolants (single-phase water vs. two-phase
//! R134a), open-loop flow schedules and tier counts — a scenario family
//! the flat config plumbing could not express — with a custom per-epoch
//! [`Observer`] measuring the *spatial* extent of hot spots, which the
//! aggregate run metrics do not record.
//!
//! ```bash
//! cargo run --release --example cooling_design_space
//! ```

use cmosaic::observe::{EpochCtx, Observer};
use cmosaic::policy::PolicyKind;
use cmosaic::scenario::{CoolantChoice, FlowSchedule};
use cmosaic::{BatchRunner, ScenarioSpec, Study};
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::VolumetricFlow;
use cmosaic_power::trace::WorkloadKind;
use cmosaic_thermal::TwoPhaseCoolant;

/// Custom probe: worst spatial hot-spot extent (fraction of junction
/// cells above the threshold on the worst tier) and when it occurred —
/// per-epoch data no aggregate metric carries.
#[derive(Default)]
struct HotspotExtent {
    worst_fraction: f64,
    at_epoch: usize,
}

impl Observer for HotspotExtent {
    fn on_epoch(&mut self, ctx: &EpochCtx<'_>) {
        let threshold = ctx.threshold.to_kelvin();
        let cells_per_tier = ctx.grid.cell_count();
        for tier in 0..ctx.n_tiers() {
            let frac = ctx.field.tier_cells_above(tier, threshold) as f64 / cells_per_tier as f64;
            if frac > self.worst_fraction {
                self.worst_fraction = frac;
                self.at_epoch = ctx.epoch;
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ml = VolumetricFlow::from_ml_per_min;
    let schedules = [
        (FlowSchedule::Policy, "policy-controlled"),
        (FlowSchedule::Fixed(ml(8.0)), "fixed 8 ml/min"),
        (FlowSchedule::Fixed(ml(32.3)), "fixed 32.3 ml/min"),
        (
            FlowSchedule::Sweep {
                lo: ml(10.0),
                hi: ml(32.3),
                period: 20,
            },
            "triangle 10-32.3 ml/min",
        ),
    ];
    let schedule_name = |s: &FlowSchedule| {
        schedules
            .iter()
            .find(|(sched, _)| sched == s)
            .map_or("?", |(_, name)| *name)
    };

    // Coolant x flow-schedule x tiers, pruned of the one invalid slice:
    // a two-phase operating point fixes its mass flux, so only the
    // policy-neutral schedule survives there.
    let base = ScenarioSpec::new()
        .policy(PolicyKind::LcFuzzy)
        .workload(WorkloadKind::MaxUtilization)
        .grid(GridSpec::new(10, 10)?)
        .seconds(40)
        .seed(42);
    let study = Study::new(base)
        .over_coolants([
            CoolantChoice::Water,
            CoolantChoice::TwoPhase(TwoPhaseCoolant::r134a_30c(2800.0)),
        ])
        .over_flow_schedules(schedules.iter().map(|(s, _)| s.clone()))
        .over_tiers([2, 4])
        .retain(|s| {
            !matches!(s.coolant_choice(), CoolantChoice::TwoPhase(_))
                || s.flow_schedule_spec().is_policy()
        });

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Sweeping {} scenarios on {threads} threads (water x 4 schedules x 2 tiers, \
         plus two-phase x 2 tiers):\n",
        study.len()
    );
    let runner = BatchRunner::new(threads);
    let (report, extents) = study.run_observed(&runner, |_, _| HotspotExtent::default())?;

    println!(
        "{:<10} {:<24} {:>6} {:>9} {:>9} {:>9} {:>12}",
        "coolant", "flow schedule", "tiers", "peak °C", "chip J", "pump J", "hot extent %"
    );
    println!("{}", "-".repeat(84));
    for ((spec, outcome), extent) in report.iter().zip(&extents) {
        let extent = extent.as_ref().expect("healthy slot keeps its observer");
        let m = &outcome.metrics;
        println!(
            "{:<10} {:<24} {:>6} {:>9.1} {:>9.0} {:>9.0} {:>12}",
            spec.coolant_choice().to_string(),
            schedule_name(spec.flow_schedule_spec()),
            spec.preset_tiers().expect("preset stacks"),
            m.peak_temperature.to_celsius().0,
            m.chip_energy,
            m.pump_energy,
            if extent.worst_fraction > 0.0 {
                format!("{:.0} @{}s", extent.worst_fraction * 100.0, extent.at_epoch)
            } else {
                "none".into()
            },
        );
    }

    println!(
        "\nOne batch, {} thermal pattern groups, {} analyses \
         (one per group — every scenario adopted its group's analysis).",
        report.pattern_groups(),
        runner.analysis_cache_stats().misses
    );
    println!("Reading the table:");
    println!("  * starving the pump (8 ml/min) leaves hot spots with real spatial extent,");
    println!("    and the triangle sweep overheats whenever it dwells near its low end;");
    println!("  * the fuzzy policy matches the 32.3 ml/min worst-case design thermally");
    println!("    at a fraction of the pump energy;");
    println!("  * two-phase R134a holds the stack near saturation with zero pump-loop");
    println!("    energy in this model (the compressor loop is outside the boundary).");
    Ok(())
}
