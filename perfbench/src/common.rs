//! Helpers shared by the workloads: the run context, seed derivation,
//! set-up timing and memory readings.

use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::Outcome;
use crate::stats;
use crate::trace::Recorder;

/// Set-up samples per `--seconds` of a batch workload's timed phase, and
/// in all for `serve_mix`; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// The seed whose first-pass digests are committed in the workloads.
pub const DEFAULT_SEED: u64 = 42;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Span recorder (disabled in the untraced run).
    pub rec: Recorder,
    /// Scratch directory inside the checkout (journals, the daemon's
    /// socket, span files), relative to the working directory.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// `true` in the traced run.
    pub fn traced(&self) -> bool {
        self.rec.enabled()
    }
}

/// SplitMix64 step: the benchmark's one source of generated inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generator stream for one purpose (`salt`) of one run seed.
pub fn stream(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xd605_bbb5_8c8a_bbfd);
    splitmix(&mut s)
}

/// A small trace/scenario seed (< 10⁶, readable in labels) for `salt`.
pub fn derived_seed(seed: u64, salt: u64) -> u64 {
    let mut s = stream(seed, salt);
    splitmix(&mut s) % 1_000_000
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(rng) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Samples a workload's set-up step on a second thread through its timed
/// phase: a sample falls due every `--seconds / SETUP_REPS`, the first half
/// an interval in, until [`SetupSampler::finish`]. So `setup_s`, their
/// median, weighs every part of the run alike, however long the
/// workload's operations last: the host's speed drifts within a run, and
/// samples taken only between multi-second passes see few of its states.
/// The batch workloads run one operation at a time, so the sampler has the
/// other core of a 2-core host to itself. A sample runs the step
/// `per_sample` times back to back and keeps the mean, so a step of
/// microseconds is not read off one timer interval. The traced run takes
/// no samples.
pub struct SetupSampler(Option<(mpsc::Sender<()>, JoinHandle<Vec<f64>>)>);

impl SetupSampler {
    /// A sampler whose schedule starts now, with the timed phase.
    pub fn start(ctx: &Ctx, per_sample: usize, mut step: impl FnMut() + Send + 'static) -> Self {
        if ctx.traced() {
            return SetupSampler(None);
        }
        let interval = ctx.seconds / SETUP_REPS as u32;
        // Dropping the sender (in `finish`, or when the workload fails)
        // stops the sampler at its next due time or at once if waiting.
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            let start = Instant::now();
            let mut samples = Vec::new();
            loop {
                let due = start + interval * (2 * samples.len() as u32 + 1) / 2;
                let wait = due.saturating_duration_since(Instant::now());
                if !matches!(stopped.recv_timeout(wait), Err(RecvTimeoutError::Timeout)) {
                    return samples;
                }
                let t = Instant::now();
                for _ in 0..per_sample {
                    step();
                }
                samples.push(t.elapsed().as_secs_f64() / per_sample as f64);
            }
        });
        SetupSampler(Some((stop, thread)))
    }

    /// Stops the sampler and records `setup_s`.
    pub fn finish(self, out: &mut Outcome) {
        if let Some((stop, thread)) = self.0 {
            drop(stop);
            let samples = thread.join().unwrap_or_default();
            out.push("setup_s", stats::median(&samples), samples.len());
        }
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Records `peak_rss_mb`.
pub fn push_rss(out: &mut Outcome) {
    out.push("peak_rss_mb", peak_rss_mb(), 1);
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        assert_eq!(stream(7, 1), stream(7, 1));
        assert_ne!(stream(7, 1), stream(7, 2));
        assert_ne!(stream(7, 1), stream(8, 1));
        assert!(derived_seed(7, 1) < 1_000_000);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed: u64| {
            let mut items: Vec<u32> = (0..20).collect();
            let mut rng = seed;
            shuffle(&mut items, &mut rng);
            items
        };
        let a = shuffled(3);
        assert_eq!(a, shuffled(3));
        assert_ne!(a, shuffled(4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }
}
