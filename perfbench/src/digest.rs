//! Bit-exact digests of simulation results, for the "every pass matches
//! the first pass" and "the default seed matches the committed digest"
//! output checks.

use cmosaic::RunMetrics;

/// Incremental FNV-1a over bytes.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one `f64` by its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.eat(&v.to_bits().to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds every field of `m` into `h` by bit pattern, in declaration order.
pub fn eat_metrics(h: &mut Fnv, m: &RunMetrics) {
    h.f64(m.hotspot_time_per_core);
    h.f64(m.hotspot_time_any);
    h.f64(m.peak_temperature.0);
    h.f64(m.chip_energy);
    h.f64(m.pump_energy);
    h.f64(m.perf_loss_mean);
    h.f64(m.perf_loss_max);
    match m.mean_flow {
        Some(q) => {
            h.eat(&[1]);
            h.f64(q.0);
        }
        None => h.eat(&[0]),
    }
    h.eat(&(m.seconds as u64).to_le_bytes());
}

/// Digest of an ordered sequence of run metrics.
pub fn metrics_digest<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> u64 {
    let mut h = Fnv::default();
    for m in runs {
        eat_metrics(&mut h, m);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmosaic::materials::units::{Kelvin, VolumetricFlow};

    fn sample() -> RunMetrics {
        RunMetrics {
            hotspot_time_per_core: 0.125,
            hotspot_time_any: 0.5,
            peak_temperature: Kelvin(350.25),
            chip_energy: 1234.5,
            pump_energy: 67.0,
            perf_loss_mean: 0.01,
            perf_loss_max: 0.02,
            mean_flow: Some(VolumetricFlow::from_ml_per_min(20.0)),
            seconds: 60,
        }
    }

    #[test]
    fn empty_digest_is_the_fnv_offset() {
        assert_eq!(metrics_digest([]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn equal_metrics_hash_equal() {
        assert_eq!(metrics_digest([&sample()]), metrics_digest([&sample()]));
    }

    #[test]
    fn every_bit_and_field_matters() {
        let base = metrics_digest([&sample()]);
        let mut m = sample();
        m.chip_energy = f64::from_bits(m.chip_energy.to_bits() + 1);
        assert_ne!(metrics_digest([&m]), base, "one ulp must change the digest");
        let mut m = sample();
        m.hotspot_time_per_core = 0.0;
        let zero = metrics_digest([&m]);
        m.hotspot_time_per_core = -0.0;
        assert_ne!(metrics_digest([&m]), zero, "signed zeros differ bitwise");
        let mut m = sample();
        m.mean_flow = None;
        assert_ne!(metrics_digest([&m]), base);
        let mut m = sample();
        m.seconds = 59;
        assert_ne!(metrics_digest([&m]), base);
    }

    #[test]
    fn order_matters() {
        let a = sample();
        let mut b = sample();
        b.pump_energy = 1.0;
        assert_ne!(metrics_digest([&a, &b]), metrics_digest([&b, &a]));
    }
}
