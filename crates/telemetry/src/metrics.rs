//! Counter, gauge and histogram primitives.
//!
//! Histograms keep raw samples (the flows instrumented here record at most
//! a few thousand per run) so percentiles are exact. Every statistic is
//! total — defined for empty and single-sample series — because exporters
//! run unconditionally at the end of a run.

/// An exact-sample histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Arithmetic mean (0.0 when empty — never a division by zero).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() as f64 / self.samples.len() as f64
        }
    }

    /// Percentile for `p` in `0..=100` by round-half-up linear rank: the
    /// sample at index `p/100 · (n − 1)` of the sorted samples, with a
    /// half index rounded up. For `[10, 20, 30, 40]`, p50 is 30 (index
    /// 1.5 rounds to 2), where the nearest-rank rule would give 20.
    /// Total: returns 0 on an empty histogram and the sample itself on a
    /// single-sample one. Values of `p` above 100 clamp to the maximum.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        // Round-half-up linear rank over [0, n-1]; integer math keeps the
        // result platform-independent for golden tests.
        let idx = (p.min(100) * (n - 1) + 50) / 100;
        sorted[idx as usize]
    }

    /// Raw samples in record order (exposed so collectors can be merged
    /// by replaying one into another).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Merges another histogram's samples into this one, preserving both
    /// record orders (self's samples first). Exact-sample representation
    /// makes merge lossless: every statistic of the merge equals the
    /// statistic of the concatenated sample set.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Deterministic summary snapshot. Sorts the samples once and derives
    /// every order statistic from the same sorted copy (the naive form
    /// re-sorted per percentile, three times per reported series).
    pub fn summary(&self) -> HistogramSummary {
        if self.samples.is_empty() {
            return HistogramSummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let rank = |p: u64| sorted[((p * (n - 1) + 50) / 100) as usize];
        HistogramSummary {
            count: n,
            sum: sorted.iter().sum(),
            min: sorted[0],
            max: sorted[n as usize - 1],
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median, by [`Histogram::percentile`]'s round-half-up linear rank.
    pub p50: u64,
    /// 95th percentile, by the same rule.
    pub p95: u64,
    /// 99th percentile, by the same rule.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(100), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn single_sample_defines_every_statistic() {
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 7.0);
        assert_eq!(h.percentile(0), 7);
        assert_eq!(h.percentile(50), 7);
        assert_eq!(h.percentile(100), 7);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn percentiles_use_the_round_half_up_linear_rank() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50] {
            h.record(v);
        }
        assert_eq!(h.percentile(0), 10);
        assert_eq!(h.percentile(50), 30);
        assert_eq!(h.percentile(100), 50);
        // p above 100 clamps instead of indexing out of range.
        assert_eq!(h.percentile(250), 50);
        assert_eq!(h.mean(), 30.0);
        // Even length: index 1.5 rounds up to 30; nearest rank gives 20.
        let mut even = Histogram::new();
        for v in [40u64, 10, 30, 20] {
            even.record(v);
        }
        assert_eq!(even.percentile(50), 30);
        assert_eq!(even.summary().p50, 30);
    }

    #[test]
    fn summary_matches_parts() {
        let mut h = Histogram::new();
        for v in [3u64, 1, 2] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 6);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
        assert_eq!(s.p50, 2);
        assert_eq!(s.p95, 3);
        assert_eq!(s.p99, 3);
    }

    #[test]
    fn empty_summary_is_total() {
        // An exporter running at the end of an idle run must see a fully
        // defined, all-zero summary — including the new p99 field.
        let s = Histogram::new().summary();
        assert_eq!(s, HistogramSummary::default());
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn single_sample_summary_pins_every_percentile() {
        let mut h = Histogram::new();
        h.record(41);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 41);
        assert_eq!((s.min, s.max), (41, 41));
        assert_eq!((s.p50, s.p95, s.p99), (41, 41, 41));
    }

    #[test]
    fn merge_is_lossless_concatenation() {
        let mut a = Histogram::new();
        for v in [5u64, 1] {
            a.record(v);
        }
        let mut b = Histogram::new();
        for v in [9u64, 3, 7] {
            b.record(v);
        }
        a.merge(&b);
        // Record order preserved: self first, then other.
        assert_eq!(a.samples(), &[5, 1, 9, 3, 7]);
        let s = a.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 25);
        assert_eq!((s.min, s.max), (1, 9));
        assert_eq!(s.p50, 5);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 5);
        // Merging into an empty histogram copies the other side.
        let mut empty = Histogram::new();
        empty.merge(&b);
        assert_eq!(empty.samples(), b.samples());
    }

    #[test]
    fn p99_on_heavy_tailed_data_uses_the_linear_rank() {
        // 99 unit samples plus one huge outlier: the linear-rank p99 over
        // n=100 lands on index (99*99+50)/100 = 98 — the last "normal"
        // sample — while p100 must surface the outlier. This pins the
        // round-half-up linear-rank rule so a platform or refactor drift
        // that switches to interpolation or to nearest rank fails loudly.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1_000_000);
        assert_eq!(h.percentile(99), 1);
        assert_eq!(h.percentile(100), 1_000_000);
        let s = h.summary();
        assert_eq!(s.p99, 1);
        assert_eq!(s.max, 1_000_000);
        // With two outliers in the tail (n=100, ranks 98 and 99), p99
        // picks the first of them: index 98.
        let mut g = Histogram::new();
        for _ in 0..98 {
            g.record(2);
        }
        g.record(500);
        g.record(1_000_000);
        assert_eq!(g.percentile(99), 500);
        assert_eq!(g.summary().p99, 500);
    }
}
