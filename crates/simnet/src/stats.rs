//! Measurement primitives: online summaries, quantile estimation via
//! fixed-precision histograms, and peak/time-weighted gauges.
//!
//! All of these are allocation-light and safe to update on the simulation
//! hot path; quantiles use a log-bucketed histogram (HdrHistogram-style, two
//! decimal digits of precision) instead of storing samples.

use crate::time::{SimDuration, SimTime};

/// Streaming mean/min/max/variance over `f64` samples (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 when < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log-bucketed histogram over `u64` values (e.g. latency nanoseconds).
///
/// Buckets have ~1% relative width: value `v` maps to bucket
/// `floor(log2(v)) * SUB + sub-index`, giving bounded relative error for
/// quantile queries without storing samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

const SUB_BITS: u32 = 6; // 64 sub-buckets per power of two → <1.6% error
const SUB: u64 = 1 << SUB_BITS;

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS as u64)) - SUB;
    ((exp - SUB_BITS as u64 + 1) * SUB + sub) as usize
}

fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let exp = idx / SUB - 1 + SUB_BITS as u64;
    let sub = idx % SUB;
    (SUB + sub) << (exp - SUB_BITS as u64)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Record one value.
    #[inline]
    pub fn add(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
        if v < self.min {
            self.min = v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate quantile `q in [0, 1]` (lower bucket bound; ≤1.6% low).
    /// `quantile(1.0)` returns the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let q = q.max(0.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_low(i).max(self.min);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

/// Tracks the current and peak value of an integer gauge together with its
/// time-weighted average (e.g. queue occupancy over a run).
#[derive(Debug, Clone)]
pub struct Gauge {
    current: u64,
    peak: u64,
    weighted_sum: u128,
    last_change: SimTime,
    start: SimTime,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new(SimTime::ZERO)
    }
}

impl Gauge {
    /// Create a gauge starting at zero at time `start`.
    pub fn new(start: SimTime) -> Self {
        Gauge {
            current: 0,
            peak: 0,
            weighted_sum: 0,
            last_change: start,
            start,
        }
    }

    fn accumulate(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_change).as_nanos();
        self.weighted_sum += self.current as u128 * dt as u128;
        self.last_change = now;
    }

    /// Set the gauge to `v` at time `now`.
    pub fn set(&mut self, now: SimTime, v: u64) {
        self.accumulate(now);
        self.current = v;
        if v > self.peak {
            self.peak = v;
        }
    }

    /// Adjust the gauge by a signed delta at time `now`.
    pub fn adjust(&mut self, now: SimTime, delta: i64) {
        let v = if delta >= 0 {
            self.current.saturating_add(delta as u64)
        } else {
            self.current.saturating_sub((-delta) as u64)
        };
        self.set(now, v);
    }

    /// Current value.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Peak value seen.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Time-weighted average over `[start, now]`.
    pub fn time_weighted_mean(&mut self, now: SimTime) -> f64 {
        self.accumulate(now);
        let span = now.saturating_since(self.start).as_nanos();
        if span == 0 {
            self.current as f64
        } else {
            self.weighted_sum as f64 / span as f64
        }
    }
}

/// Windowed throughput counter: counts events per fixed window, yielding a
/// rate series (used for the throughput experiments).
#[derive(Debug, Clone)]
pub struct RateSeries {
    window: SimDuration,
    windows: Vec<u64>,
}

impl RateSeries {
    /// Create a series with the given window width.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        RateSeries {
            window,
            windows: Vec::new(),
        }
    }

    /// Record one event at `now`.
    pub fn add(&mut self, now: SimTime) {
        let idx = (now.as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0);
        }
        self.windows[idx] += 1;
    }

    /// Events per second in each window.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let w = self.window.as_secs_f64();
        self.windows.iter().map(|&c| c as f64 / w).collect()
    }

    /// Mean rate over the series, excluding the (usually partial) last window.
    pub fn steady_rate_per_sec(&self) -> f64 {
        let rates = self.rates_per_sec();
        let body = if rates.len() > 1 {
            &rates[..rates.len() - 1]
        } else {
            &rates[..]
        };
        if body.is_empty() {
            0.0
        } else {
            body.iter().sum::<f64>() / body.len() as f64
        }
    }

    /// Raw per-window counts.
    pub fn counts(&self) -> &[u64] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138).abs() < 1e-3);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_bucket_round_trip() {
        for v in [0u64, 1, 63, 64, 65, 1000, 123_456, u32::MAX as u64, 1 << 50] {
            let b = bucket_of(v);
            let low = bucket_low(b);
            assert!(low <= v, "low {low} > v {v}");
            // Relative bucket width bound.
            if v >= SUB {
                assert!((v - low) as f64 / v as f64 <= 1.0 / SUB as f64 * 2.0);
            } else {
                assert_eq!(low, v);
            }
        }
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.add(v);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.05, "p50={p50}");
        assert!((p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.05, "p99={p99}");
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..500u64 {
            a.add(v);
        }
        for v in 500..1000u64 {
            b.add(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.max(), 999);
        assert_eq!(a.min(), 0);
        let p50 = a.quantile(0.5);
        assert!((p50 as f64 - 500.0).abs() < 50.0, "p50={p50}");
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn gauge_tracks_peak_and_mean() {
        let mut g = Gauge::new(SimTime::ZERO);
        g.set(SimTime::from_secs(0), 10);
        g.set(SimTime::from_secs(1), 20); // 10 held for 1s
        g.set(SimTime::from_secs(3), 0); // 20 held for 2s
        assert_eq!(g.peak(), 20);
        // Mean over [0, 4]: (10*1 + 20*2 + 0*1) / 4 = 12.5
        let mean = g.time_weighted_mean(SimTime::from_secs(4));
        assert!((mean - 12.5).abs() < 1e-9, "mean={mean}");
    }

    #[test]
    fn gauge_adjust() {
        let mut g = Gauge::new(SimTime::ZERO);
        g.adjust(SimTime::from_secs(1), 5);
        g.adjust(SimTime::from_secs(2), -2);
        assert_eq!(g.current(), 3);
        g.adjust(SimTime::from_secs(3), -10);
        assert_eq!(g.current(), 0, "gauge saturates at zero");
    }

    #[test]
    fn rate_series() {
        let mut r = RateSeries::new(SimDuration::from_secs(1));
        for i in 0..30 {
            r.add(SimTime::from_millis(i * 100)); // 10 events/sec for 3s
        }
        let rates = r.rates_per_sec();
        assert_eq!(rates.len(), 3);
        assert!((r.steady_rate_per_sec() - 10.0).abs() < 1e-9);
    }
}
