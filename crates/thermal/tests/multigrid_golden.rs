//! Golden bit digests of the thermal model's field outputs.
//!
//! Every other solver test compares a run with a rerun or with another
//! backend to a tolerance; these pin the exact field bits of a steady
//! solve followed by transient sub-steps, so a rewrite that reorders one
//! floating-point operation anywhere fails here. The multigrid digests
//! cover the stencil matvec, the smoother, the grid transfers and the
//! BiCGSTAB updates; they were recorded before the kernels were rewritten
//! as contiguous line loops. The direct-LU digests cover the assembled
//! operator, its analysis, the refactorisation sweep and the triangular
//! solves, on the four 12×12 paper stacks; the two-phase digest covers the
//! Dirichlet-fluid operator and its fixed-point sweeps. None may move.

use cmosaic_floorplan::stack::{presets, Stack3d};
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::VolumetricFlow;
use cmosaic_thermal::{
    Coolant, SolverBackend, SolverStats, ThermalModel, ThermalParams, TwoPhaseCoolant,
};

/// FNV-1a over the little-endian bytes of every value's bit pattern.
fn fold(mut h: u64, values: &[f64]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Steady solve, then three 50 ms sub-steps at each of two flow rates, on
/// an `n × n` grid of `stack` with a non-uniform power map; returns the
/// digest of all seven fields and the model's solver counters. A
/// liquid-cooled stack runs at 24 ml/min, then at 24 and 37 ml/min; an
/// air-cooled stack has no flow to set. A two-phase model cannot step: its
/// digest is the steady field followed by the five [`TwoPhaseSummary`]
/// fields in declaration order.
///
/// [`TwoPhaseSummary`]: cmosaic_thermal::TwoPhaseSummary
fn digest(stack: &Stack3d, n: usize, params: ThermalParams) -> (u64, SolverStats) {
    let tiers = stack.tiers().len();
    let grid = GridSpec::new(n, n).expect("grid");
    let mut model = ThermalModel::new(stack, grid, params).expect("model");
    let cells = grid.cell_count();
    let powers: Vec<Vec<f64>> = (0..tiers)
        .map(|t| {
            (0..cells)
                .map(|c| (12.0 + 5.0 * t as f64 + ((c * 7 + t * 3) % 11) as f64) / cells as f64)
                .collect()
        })
        .collect();
    let single_phase_liquid = model.is_liquid_cooled() && !model.is_two_phase();
    let set_flow = |model: &mut ThermalModel, ml: f64| {
        if single_phase_liquid {
            model
                .set_flow_rate(VolumetricFlow::from_ml_per_min(ml))
                .expect("flow");
        }
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    set_flow(&mut model, 24.0);
    h = fold(h, model.steady_state(&powers).expect("steady").raw());
    if let Some(s) = model.two_phase_summary() {
        let summary = [
            s.heat_absorbed,
            s.max_exit_quality,
            s.dryout_margin,
            s.peak_htc,
            s.min_saturation.0,
        ];
        return (fold(h, &summary), model.solver_stats());
    }
    for ml in [24.0, 37.0] {
        set_flow(&mut model, ml);
        for _ in 0..3 {
            h = fold(h, model.step(&powers, 0.05).expect("sub-step").raw());
        }
    }
    (h, model.solver_stats())
}

fn liquid(tiers: usize) -> Stack3d {
    presets::liquid_cooled_mpsoc(tiers).expect("preset")
}

fn air(tiers: usize) -> Stack3d {
    presets::air_cooled_mpsoc(tiers).expect("preset")
}

/// The multigrid digest of the `tiers`-tier liquid stack, asserting that
/// every solve ran on multigrid.
fn multigrid_digest(tiers: usize, n: usize) -> u64 {
    let params = ThermalParams {
        solver: SolverBackend::multigrid(),
        ..Default::default()
    };
    let (h, s) = digest(&liquid(tiers), n, params);
    assert_eq!(s.iterative_solves, 7, "every solve ran on multigrid: {s:?}");
    assert_eq!(s.iterative_fallbacks, 0, "{s:?}");
    assert_eq!(s.full_factorizations, 0, "{s:?}");
    h
}

/// The direct-LU digest of `stack` at 12×12, asserting that one analysis
/// served every solve.
fn direct_digest(stack: &Stack3d, params: ThermalParams) -> u64 {
    let (h, s) = digest(stack, 12, params);
    assert_eq!(s.full_factorizations, 1, "{s:?}");
    assert_eq!(s.iterative_solves, 0, "{s:?}");
    h
}

#[test]
fn two_tier_32x32_multigrid_field_bits_are_pinned() {
    assert_eq!(
        multigrid_digest(2, 32),
        0x29d0_709f_92b0_90aa,
        "2-tier 32x32 digest moved"
    );
}

#[test]
fn four_tier_16x16_multigrid_field_bits_are_pinned() {
    assert_eq!(
        multigrid_digest(4, 16),
        0xe063_05ca_b504_9a09,
        "4-tier 16x16 digest moved"
    );
}

#[test]
fn liquid_cooled_12x12_direct_field_bits_are_pinned() {
    let params = ThermalParams::default;
    assert_eq!(
        direct_digest(&liquid(2), params()),
        0x70af_bd69_4f0c_7dbc,
        "2-tier liquid digest moved"
    );
    assert_eq!(
        direct_digest(&liquid(4), params()),
        0x78bb_808d_e1c4_e12a,
        "4-tier liquid digest moved"
    );
}

#[test]
fn air_cooled_12x12_direct_field_bits_are_pinned() {
    let params = ThermalParams::default;
    assert_eq!(
        direct_digest(&air(2), params()),
        0xf631_0eea_2870_16d7,
        "2-tier air digest moved"
    );
    assert_eq!(
        direct_digest(&air(4), params()),
        0xdf98_1293_d3a2_9a15,
        "4-tier air digest moved"
    );
}

#[test]
fn two_phase_12x12_field_and_summary_bits_are_pinned() {
    let params = ThermalParams {
        coolant: Coolant::TwoPhase(TwoPhaseCoolant::r134a_30c(2500.0)),
        ..Default::default()
    };
    assert_eq!(
        direct_digest(&liquid(2), params),
        0x0131_f450_a293_db8f,
        "2-tier two-phase digest moved"
    );
}
