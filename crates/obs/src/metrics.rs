//! The three instrument kinds: monotone counters, saturating gauges, and
//! log2-bucketed histograms.
//!
//! All updates are relaxed atomic RMWs — instruments are safe to bump from
//! any thread with no ordering obligations, and a torn multi-field read
//! (e.g. a count observed without its sum) only skews a report, never
//! corrupts state.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: one per power of two of a `u64`, so any
/// nanosecond (or byte, or triple-count) value lands in exactly one.
pub const BUCKETS: usize = 64;

/// The bucket holding `v`: `floor(log2(v))` with 0 mapped to bucket 0.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive upper edge of bucket `i` (`2^(i+1) - 1`; the last bucket is
/// unbounded).
#[inline]
pub fn bucket_upper_edge(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// Inclusive lower edge of bucket `i` (`2^i`; bucket 0 starts at 0).
#[inline]
pub fn bucket_lower_edge(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A level that moves both ways. Decrements saturate at zero: a stray
/// extra `dec()` (the historical `connections_open` underflow hazard on the
/// parked-connection revive path) pins the gauge at 0 instead of wrapping
/// to `u64::MAX`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Increment, returning the new level — the admission-control pattern
    /// (`if gauge.inc() > watermark { shed }`) needs the post-increment
    /// value atomically, not a racy follow-up `get`.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Saturating decrement: never wraps below zero.
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed distribution: 64 relaxed bucket counters plus exact
/// count, exact sum, and a true max (so quantile estimates can be clamped
/// to an observed value instead of a bucket edge past it).
///
/// `record` and `merge_from` are both plain additions, so any interleaving
/// of records and merges across histograms reaches the same final state —
/// the property the `histogram_prop` suite pins down.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Four relaxed RMWs; no branches beyond the
    /// leading-zeros bucket math.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold another histogram's observations into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy for quantile math and rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-integer copy of a [`Histogram`], also constructible from parts
/// (e.g. buckets parsed back out of a `/v1/metrics` scrape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from bucket boundaries.
    ///
    /// Returns the upper edge of the bucket holding the rank-`ceil(q·n)`
    /// observation, clamped to the recorded max — so the estimate is always
    /// ≥ the true value and never past the true value's bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(*n);
            if cumulative >= rank {
                return bucket_upper_edge(i).min(self.max);
            }
        }
        // Bucket totals disagreeing with `count` only happens on a torn
        // live read; fall back to the max rather than a phantom edge.
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_the_u64_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..BUCKETS {
            let (lo, hi) = (bucket_lower_edge(i), bucket_upper_edge(i));
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if i > 0 {
                assert_eq!(bucket_upper_edge(i - 1) + 1, lo);
            }
        }
    }

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        assert_eq!(g.inc(), 1);
        g.dec();
        assert_eq!(g.get(), 0);
        // The regression case: one decrement too many must pin at 0, not
        // wrap to u64::MAX.
        g.dec();
        assert_eq!(g.get(), 0);
        g.set(2);
        g.dec();
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let h = Histogram::new();
        for v in [3u64, 900, 17, 0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 920);
        assert_eq!(s.max(), 900);
        assert_eq!(s.mean(), 230);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::new();
        // 90 fast observations and 10 slow ones: p50 must land in the fast
        // bucket, p99 in the slow one.
        for _ in 0..90 {
            h.record(100); // bucket 6 (64..=127)
        }
        for _ in 0..10 {
            h.record(9000); // bucket 13 (8192..=16383)
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 127);
        assert_eq!(s.p90(), 127);
        assert_eq!(s.p99(), 9000); // upper edge 16383, clamped to true max
        assert_eq!(s.quantile(1.0), 9000);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(500);
        b.record(7);
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 512);
        assert_eq!(s.max(), 500);
    }
}
