//! Metric primitives: sharded monotonic counters, gauges, and
//! power-of-two latency histograms.
//!
//! Counters and histograms shard their cells by the `exec` worker slot
//! (slot 0 for non-pool threads), exactly like `exec::Shards`: a
//! hot-path increment lands in the current worker's own cell, and reads
//! fold the cells with commutative u64 addition — so totals are
//! scheduling-independent even though cell contents are not.
//!
//! A shard is private only if no other shard shares its cache line,
//! otherwise every increment invalidates the line under the other
//! workers (false sharing). [`Counter`] therefore pads each cell to a
//! 64-byte line of its own. [`Histogram`] cells are shard-major (65
//! buckets per shard), so the same bucket of two shards already lies
//! 520 B apart, and are left unpadded.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Shard count; matches `exec::SHARD_SLOTS` so every distinct worker
/// slot below the limit gets its own cell.
const SHARDS: usize = exec::SHARD_SLOTS;

/// Cell index for the current thread: non-pool threads use slot 0, pool
/// worker `i` uses `i + 1` (mod the shard count under oversubscription).
#[inline]
fn shard_index() -> usize {
    exec::worker_index().map_or(0, |i| i + 1) % SHARDS
}

/// One counter cell on a 64-byte cache line of its own.
#[derive(Default)]
#[repr(align(64))]
struct PaddedCell(AtomicU64);

/// A monotonically increasing counter.
pub struct Counter {
    cells: Box<[PaddedCell]>,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Self {
            cells: (0..SHARDS).map(|_| PaddedCell::default()).collect(),
        }
    }

    /// A counter that lives outside any registry — for short-lived,
    /// contention-free tallies (e.g. result pairs of one query batch)
    /// that still want worker-sharded cells on the hot path.
    pub fn standalone() -> Self {
        Self::new()
    }

    /// Adds `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        self.cells[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total (folds all shards).
    pub fn value(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    pub(crate) fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A gauge: a value that can go up and down (current state, not a
/// total). Single cell — gauges are set from control paths, not hot
/// loops.
pub struct Gauge {
    cell: AtomicI64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Self {
            cell: AtomicI64::new(0),
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `dv` (may be negative).
    #[inline]
    pub fn add(&self, dv: i64) {
        self.cell.fetch_add(dv, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.set(0);
    }
}

/// Bucket count of [`Histogram`]: bucket `b` holds observations whose
/// bit length is `b` (`0` goes to bucket 0, `v > 0` to
/// `64 - v.leading_zeros()`), so the upper bound of bucket `b > 0` is
/// `2^b - 1`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket histogram over `u64` observations (typically
/// nanoseconds or launch widths) with power-of-two bucket bounds.
/// Bucket counts and the running sum are sharded like [`Counter`], so
/// totals are deterministic whenever the observations are.
pub struct Histogram {
    /// `SHARDS * HISTOGRAM_BUCKETS` cells, shard-major.
    cells: Box<[AtomicU64]>,
    sum: Counter,
}

/// Bucket index for observation `v` (its bit length: 0 for 0, else
/// `64 - leading_zeros`).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Self {
            cells: (0..SHARDS * HISTOGRAM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum: Counter::new(),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let cell = shard_index() * HISTOGRAM_BUCKETS + bucket_of(v);
        self.cells[cell].fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
    }

    /// Per-bucket counts (folded over shards).
    pub fn buckets(&self) -> Vec<u64> {
        let mut out = vec![0u64; HISTOGRAM_BUCKETS];
        for (i, c) in self.cells.iter().enumerate() {
            out[i % HISTOGRAM_BUCKETS] += c.load(Ordering::Relaxed);
        }
        out
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.value()
    }

    /// Upper-bound estimate of the `q`-quantile (see
    /// [`quantile_upper_bound`]).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_upper_bound(&self.buckets(), q)
    }

    pub(crate) fn reset(&self) {
        for c in &self.cells {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.reset();
    }
}

/// Inclusive upper bound of histogram bucket `b` (`u64::MAX` for the
/// last bucket).
pub fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Inclusive lower bound of histogram bucket `b` (`2^(b-1)` for
/// `b > 0`).
pub fn bucket_lower_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1).min(63)
    }
}

/// Upper-bound estimate of the `q`-quantile of a bucketed distribution:
/// the inclusive upper bound of the bucket holding the `⌈q·count⌉`-th
/// smallest observation (`q` clamped to `[0, 1]`; 0 for an empty
/// histogram).
///
/// Because buckets are power-of-two wide, the estimate always lies in
/// the same bucket as the true quantile — i.e. it overshoots by less
/// than 2× — which the proptest suite pins.
pub fn quantile_upper_bound(buckets: &[u64], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (b, n) in buckets.iter().enumerate() {
        cum += n;
        if cum >= rank {
            return bucket_upper_bound(b);
        }
    }
    bucket_upper_bound(buckets.len().saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_fold_shards() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counter_cells_sit_on_separate_cache_lines() {
        let c = Counter::new();
        let addr = |i: usize| std::ptr::addr_of!(c.cells[i]) as usize;
        assert!(addr(1) - addr(0) >= 64, "shards 0 and 1 share a cache line");
    }

    #[test]
    fn gauge_goes_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-25);
        assert_eq!(g.value(), -15);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        let h = Histogram::new();
        for v in [0, 1, 3, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(
            h.sum(),
            0u64.wrapping_add(1 + 3 + 1000).wrapping_add(u64::MAX)
        );
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[2], 1);
        assert_eq!(b[10], 1); // 1000 has bit length 10
        assert_eq!(b[64], 1);
    }

    #[test]
    fn quantile_upper_bounds_bracket_the_true_quantile() {
        let h = Histogram::new();
        // 100 observations: 1..=100.
        for v in 1..=100u64 {
            h.observe(v);
        }
        // True p50 = 50 (bucket 6: 32..=63); estimate = 63.
        assert_eq!(h.quantile(0.5), 63);
        // True p90 = 90 (bucket 7: 64..=127); estimate = 127.
        assert_eq!(h.quantile(0.9), 127);
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(0.0), bucket_upper_bound(bucket_of(1)));
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for b in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(b);
            let hi = bucket_upper_bound(b);
            assert!(lo <= hi, "bucket {b}");
            assert_eq!(bucket_of(lo), b.min(64), "lower bound of {b}");
            assert_eq!(bucket_of(hi), b.min(64), "upper bound of {b}");
        }
    }

    #[test]
    fn histogram_concurrent_totals_are_exact() {
        let h = Histogram::new();
        exec::with_threads(8, || {
            exec::for_each_chunk(10_000, 32, |range| {
                for i in range {
                    h.observe(i as u64 % 7);
                }
            });
        });
        assert_eq!(h.count(), 10_000);
        let expected: u64 = (0..10_000u64).map(|i| i % 7).sum();
        assert_eq!(h.sum(), expected);
    }
}
