//! Golden bit digests of the matrix-free multigrid backend.
//!
//! Every other multigrid test compares a run with a rerun or with the
//! direct backend to a tolerance; these pin the exact field bits of a
//! steady solve followed by transient sub-steps at two flow rates, so a
//! kernel rewrite that reorders one floating-point operation anywhere in
//! the stencil matvec, the smoother, the grid transfers or the BiCGSTAB
//! updates fails here. The digests were recorded before the kernels were
//! rewritten as contiguous line loops and must never move.

use cmosaic_floorplan::stack::presets;
use cmosaic_floorplan::GridSpec;
use cmosaic_materials::units::VolumetricFlow;
use cmosaic_thermal::{SolverBackend, ThermalModel, ThermalParams};

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

/// Steady solve at 24 ml/min, then three 50 ms sub-steps at each of 24
/// and 37 ml/min, on an `n × n` grid of the `tiers`-tier liquid stack with
/// a non-uniform power map; returns the digest of all seven fields.
fn digest(tiers: usize, n: usize) -> u64 {
    let stack = presets::liquid_cooled_mpsoc(tiers).expect("preset");
    let grid = GridSpec::new(n, n).expect("grid");
    let params = ThermalParams {
        solver: SolverBackend::multigrid(),
        ..Default::default()
    };
    let mut model = ThermalModel::new(&stack, grid, params).expect("model");
    let cells = grid.cell_count();
    let powers: Vec<Vec<f64>> = (0..tiers)
        .map(|t| {
            (0..cells)
                .map(|c| (12.0 + 5.0 * t as f64 + ((c * 7 + t * 3) % 11) as f64) / cells as f64)
                .collect()
        })
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325;
    model
        .set_flow_rate(VolumetricFlow::from_ml_per_min(24.0))
        .expect("flow");
    h = fold(h, model.steady_state(&powers).expect("steady").raw());
    for ml in [24.0, 37.0] {
        model
            .set_flow_rate(VolumetricFlow::from_ml_per_min(ml))
            .expect("flow");
        for _ in 0..3 {
            h = fold(h, model.step(&powers, 0.05).expect("sub-step").raw());
        }
    }
    let s = model.solver_stats();
    assert_eq!(s.iterative_solves, 7, "every solve ran on multigrid: {s:?}");
    assert_eq!(s.iterative_fallbacks, 0, "{s:?}");
    assert_eq!(s.full_factorizations, 0, "{s:?}");
    h
}

#[test]
fn two_tier_32x32_multigrid_field_bits_are_pinned() {
    assert_eq!(
        digest(2, 32),
        0x29d0_709f_92b0_90aa,
        "2-tier 32x32 digest moved"
    );
}

#[test]
fn four_tier_16x16_multigrid_field_bits_are_pinned() {
    assert_eq!(
        digest(4, 16),
        0xe063_05ca_b504_9a09,
        "4-tier 16x16 digest moved"
    );
}
