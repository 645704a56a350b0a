//! Deterministic random-number streams.
//!
//! Every stochastic decision in a simulation (loss draws, jitter, workload
//! inter-arrival times, mobility) must come from a stream derived from the
//! simulation seed, never from ambient entropy — this is what makes a replica
//! a pure function of `(config, seed)`, so a sweep reproduces every replica
//! from its seed alone, in whatever order it runs them.
//!
//! Inside one simulation the draws are split by who makes them. Each
//! directed link draws its loss and jitter from a stream of its own, derived
//! from the seed, the link's endpoints and how often the pair was connected
//! before; actors (sources, generators) share the world stream. A packet's
//! fate therefore depends only on earlier traffic over the same link.

/// splitmix64 — the standard cheap seed mixer. Used to derive independent
/// stream seeds from `(root_seed, stream_id)` without correlation.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named, seedable RNG stream.
///
/// The generator is xoshiro256++ (Blackman & Vigna), self-contained so the
/// workspace carries no external RNG dependency. Loss and jitter draws sit
/// on the per-packet hot path and need speed, not cryptographic strength —
/// xoshiro256++ gives sub-nanosecond draws with excellent statistical
/// quality for simulation purposes.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create the stream identified by `stream_id` under `root_seed`.
    pub fn derive(root_seed: u64, stream_id: u64) -> Self {
        let mixed = splitmix64(root_seed ^ splitmix64(stream_id));
        // Expand the 64-bit seed into the 256-bit state with splitmix64, the
        // initialisation Vigna recommends (never all-zero).
        let mut x = mixed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = splitmix64(x);
            *slot = x;
        }
        SimRng { s }
    }

    /// Create directly from a seed (stream id 0).
    pub fn from_seed(seed: u64) -> Self {
        Self::derive(seed, 0)
    }

    /// The raw 64-bit draw (xoshiro256++ next()).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 uniform mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire's widening-multiply mapping; the bias for simulation-sized
        // spans (≪ 2^64) is immeasurably small and determinism is what
        // matters here.
        let hi128 = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi128
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over empty domain");
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.unit()
    }

    /// Exponential draw with rate `lambda` (mean `1/lambda`), for Poisson
    /// processes. Panics if `lambda <= 0`.
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        // Inverse-CDF; guard against ln(0).
        let u = 1.0 - self.unit();
        -u.ln() / lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::derive(42, 7);
        let mut b = SimRng::derive(42, 7);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = SimRng::derive(42, 1);
        let mut b = SimRng::derive(42, 2);
        let va: Vec<u64> = (0..32).map(|_| a.range_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::from_seed(7);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::from_seed(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::from_seed(9);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::from_seed(5);
        for _ in 0..10_000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
        let mean: f64 = (0..10_000)
            .map(|_| r.range_u64(0, 1000) as f64)
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 499.5).abs() < 15.0, "mean {mean}");
    }
}
