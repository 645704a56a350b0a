//! Measurement primitive: quantile estimation via a fixed-precision
//! histogram.
//!
//! Allocation-light and safe to update on the simulation hot path: a
//! log-bucketed histogram (HdrHistogram-style, two decimal digits of
//! precision) instead of stored samples.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
