#![warn(missing_docs)]
//! # dmdp-stats
//!
//! Statistics collection and reporting for the DMDP reproduction.
//!
//! The paper's evaluation reports a small set of recurring quantities:
//! IPC normalized to a baseline (geometric means over benchmark suites),
//! per-class load execution times (Figures 2–3, Tables IV–V), event rates
//! per kilo-instruction (Tables VI–VII), and energy-delay products
//! (Figure 15). This crate provides the corresponding building blocks:
//!
//! * [`Mean`] — a running arithmetic mean,
//! * [`LoadSource`] / [`LoadLatencyStats`] — the paper's load
//!   classification (direct / bypassing / delayed / predicated) with
//!   per-class latency tracking,
//! * [`geomean`] and [`mpki`] — the summary statistics the paper reports,
//! * [`Table`] — fixed-width text tables for the paper-figure views.

mod loadlat;
mod table;

pub use loadlat::{LoadLatencyStats, LoadSource};
pub use table::Table;

/// A running arithmetic mean over `u64` samples.
///
/// # Example
///
/// ```
/// use dmdp_stats::Mean;
/// let mut m = Mean::new();
/// m.add(10);
/// m.add(20);
/// assert_eq!(m.count(), 2);
/// assert_eq!(m.mean(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mean {
    sum: u64,
    count: u64,
}

impl Mean {
    /// Creates an empty mean.
    pub fn new() -> Mean {
        Mean::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn add(&mut self, sample: u64) {
        self.sum += sample;
        self.count += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another mean into this one.
    pub fn merge(&mut self, other: Mean) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Geometric mean of a sequence of positive values; returns 0.0 for an
/// empty input.
///
/// The paper summarizes per-suite speedups with geometric means
/// (e.g. "the geometric mean of the speed-up is 7.17 % (Int)").
///
/// # Panics
///
/// Panics if any value is not strictly positive.
///
/// # Example
///
/// ```
/// use dmdp_stats::geomean;
/// let g = geomean([2.0, 8.0]);
/// assert!((g - 4.0).abs() < 1e-12);
/// ```
pub fn geomean<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for v in values {
        assert!(v > 0.0, "geomean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Events per kilo-instruction, the unit of Tables VI and VII.
///
/// # Example
///
/// ```
/// use dmdp_stats::mpki;
/// assert_eq!(mpki(30, 10_000), 3.0);
/// assert_eq!(mpki(5, 0), 0.0);
/// ```
pub fn mpki(events: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        events as f64 * 1000.0 / instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(Mean::new().mean(), 0.0);
    }

    #[test]
    fn mean_accumulates_and_merges() {
        let mut a = Mean::new();
        a.add(1);
        a.add(2);
        let mut b = Mean::new();
        b.add(9);
        a.merge(b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 12);
        assert_eq!(a.mean(), 4.0);
    }

    #[test]
    fn geomean_singleton() {
        assert!((geomean([7.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_empty() {
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean([1.0, 0.0]);
    }

    #[test]
    fn mpki_scales() {
        assert_eq!(mpki(1, 1000), 1.0);
        assert_eq!(mpki(3060, 1_000_000), 3.06);
    }
}
