//! Counters, gauges, and fixed-bucket histograms.
//!
//! All handles are `Arc`-shared and update through atomics, so hot paths
//! (the collectives' communication threads, the trainers' worker threads)
//! record without taking locks; the registry mutex is touched only at
//! get-or-create and snapshot time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-value-wins gauge storing an `f64` (bit-cast through `u64`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of exponential buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Fixed-bucket histogram over positive values.
///
/// Bucket 0 holds values `<= lo`; bucket `i >= 1` holds values in
/// `(lo * G^(i-1), lo * G^i]`, with `lo = 1e-7` and growth `G = 2` —
/// covering 100 ns .. ~55 s when values are seconds, the full range of
/// interest for collective-op wall times. Values above range land in the
/// last bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Sum in nanoseconds-of-value (value * 1e9, rounded), to keep an
    /// atomically-updatable integer total with enough resolution.
    sum_nanos: AtomicU64,
}

const HIST_LO: f64 = 1e-7;
const HIST_GROWTH: f64 = 2.0;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v <= HIST_LO {
            return 0;
        }
        let idx = (v / HIST_LO).log2() / HIST_GROWTH.log2();
        (idx.ceil() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Upper bound of bucket `i`.
    pub fn bucket_upper(i: usize) -> f64 {
        HIST_LO * HIST_GROWTH.powi(i as i32)
    }

    /// Records one observation (non-finite and negative values count toward
    /// `count` but land in bucket 0 with zero sum contribution).
    pub fn observe(&self, v: f64) {
        let idx = if v.is_finite() {
            Self::bucket_index(v)
        } else {
            0
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() && v > 0.0 {
            self.sum_nanos
                .fetch_add((v * 1e9).round() as u64, Ordering::Relaxed);
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// A consistent-enough copy of the bucket counts for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Per-bucket counts (see [`Histogram::bucket_upper`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the q-th observation. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_upper(i);
            }
        }
        Histogram::bucket_upper(self.buckets.len() - 1)
    }

    /// p50 estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// p95 estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// p99 estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Name-keyed registry of metric handles.
///
/// `counter`/`gauge`/`histogram` get-or-create and return `Arc` handles;
/// callers cache the handle and update it lock-free afterwards.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Get-or-create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Get-or-create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::default());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Typed snapshot of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ops");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("ops").get(), 5);
        assert_eq!(reg.snapshot().counters["ops"], 5);
    }

    #[test]
    fn gauge_basics() {
        let g = Gauge::default();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(1e-3); // 1 ms
        }
        for _ in 0..10 {
            h.observe(0.1); // 100 ms
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 must be the bucket containing 1 ms: bound within [1ms, 2ms].
        let p50 = s.p50();
        assert!((1e-3..=2.1e-3).contains(&p50), "p50={p50}");
        // p99 must cover the 100 ms tail.
        let p99 = s.p99();
        assert!((0.1..=0.21).contains(&p99), "p99={p99}");
        assert!((s.mean() - (90.0 * 1e-3 + 10.0 * 0.1) / 100.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_out_of_range() {
        let h = Histogram::default();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(1e9);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn empty_snapshot_quantiles_are_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.quantile(1.0), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_observation_dominates_every_quantile() {
        let h = Histogram::default();
        h.observe(3e-3);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        // With one observation every quantile, p99 included, resolves to the
        // upper bound of the bucket holding it: within [3ms, 6ms].
        let expected = Histogram::bucket_upper(Histogram::bucket_index(3e-3));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), expected, "q={q}");
        }
        assert!((3e-3..=6e-3).contains(&s.p99()), "p99={}", s.p99());
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let h = Histogram::default();
        h.observe(1e-3);
        let s = h.snapshot();
        assert_eq!(s.quantile(-1.0), s.quantile(0.0));
        assert_eq!(s.quantile(2.0), s.quantile(1.0));
    }

    #[test]
    fn registry_returns_same_handle() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("h");
        let b = reg.histogram("h");
        a.observe(1.0);
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn concurrent_updates() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
