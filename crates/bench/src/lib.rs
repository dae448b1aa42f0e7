//! Shared report formatting for the figure/table regeneration benches.
//!
//! Every `[[bench]]` target in this crate is a plain `harness = false`
//! binary that recomputes one table or figure of the paper and prints the
//! same rows/series, alongside the value the paper reports. Run them all
//! with `cargo bench --workspace`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Prints a top-level banner naming the reproduced artefact.
pub fn banner(title: &str) {
    let line = "=".repeat(title.len().max(40));
    println!("\n{line}\n{title}\n{line}");
}

/// Prints a section heading.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// Prints a `label: value` line.
pub fn kv(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<44} {value}");
}

/// Prints a paper-vs-measured comparison line.
pub fn paper_vs(label: &str, paper: &str, measured: impl std::fmt::Display) {
    println!("  {label:<44} paper: {paper:<18} measured: {measured}");
}

/// A minimal fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            widths: headers.iter().map(|h| h.len()).collect(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        for (w, c) in self.widths.iter_mut().zip(cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells.to_vec());
    }

    /// Prints the table.
    pub fn print(&self) {
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("  ");
            for (c, w) in cells.iter().zip(&self.widths) {
                line.push_str(&format!("{c:<width$}  ", width = w));
            }
            println!("{}", line.trim_end());
        };
        fmt_row(&self.headers);
        let total: usize = self.widths.iter().sum::<usize>() + 2 * self.widths.len();
        println!("  {}", "-".repeat(total));
        for r in &self.rows {
            fmt_row(r);
        }
    }
}

/// Formats a float with the given precision.
pub fn f(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// `true` unless `CMOSAIC_BENCH_RELAX` is set in the environment.
///
/// The perf benches end with hard wall-clock assertions (speedup floors,
/// baseline comparisons) that are meaningful on a quiet dedicated machine
/// but flaky on shared CI runners; CI sets `CMOSAIC_BENCH_RELAX=1` so
/// record regeneration reports the numbers without a timing-dependent
/// pass/fail. Deterministic assertions (allocation counts, factorisation
/// counters, bit-identity) are never relaxed.
pub fn strict_timing() -> bool {
    std::env::var_os("CMOSAIC_BENCH_RELAX").is_none()
}

/// Times `kernels` in eight interleaved rounds and returns each kernel's
/// fastest round, in seconds per call, in kernel order.
///
/// Every round runs each kernel in turn: one untimed warm-up call, then
/// `reps` timed calls. Interleaving puts every kernel through the same
/// stretch of host load, so a ratio of two results compares them on one
/// host at one time; keeping the fastest round drops the rounds that a
/// neighbour's load or a frequency dip slowed. A single timed pass has
/// neither guard.
pub fn fastest_of_batches<const K: usize>(
    reps: usize,
    mut kernels: [&mut dyn FnMut(); K],
) -> [f64; K] {
    const ROUNDS: usize = 8;
    let mut best = [f64::INFINITY; K];
    for _ in 0..ROUNDS {
        for (kernel, best) in kernels.iter_mut().zip(&mut best) {
            kernel();
            let t = Instant::now();
            for _ in 0..reps {
                kernel();
            }
            *best = best.min(t.elapsed().as_secs_f64() / reps as f64);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.print(); // must not panic
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn fastest_of_batches_interleaves_warm_and_timed_calls() {
        let log = std::cell::RefCell::new(String::new());
        let times = fastest_of_batches(
            2,
            [&mut || log.borrow_mut().push('a'), &mut || {
                log.borrow_mut().push('b')
            }],
        );
        // Each round: one warm-up plus `reps` timed calls per kernel, in
        // kernel order.
        assert_eq!(log.into_inner(), "aaabbb".repeat(8));
        assert!(times.iter().all(|t| t.is_finite() && *t >= 0.0));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn mismatched_rows_panic() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
