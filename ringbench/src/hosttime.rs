//! Host-clock statistics.
//!
//! On a shared host, contention only ever *adds* time, in phases that last
//! seconds, so the median of a run's reps moves with whatever else the
//! host was doing. The gated statistic is therefore [`fast`]: the mean of
//! the fastest quarter of the reps. Median and quartiles are printed
//! beside it for information.

/// Mean of the fastest quarter (at least one) of the samples.
pub fn fast(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(4).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so that a spread computed here is
/// the spread the benchmark's driver computes. One sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(samples);
    (q3 - q1) / median.abs()
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line: {line}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_is_the_mean_of_the_fastest_quarter() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(fast(&v), 1.5);
        assert_eq!(fast(&[3.0]), 3.0);
        assert_eq!(fast(&[5.0, 4.0, 9.0]), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0]), (12.5, 30.0, 70.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn rss_is_readable_on_linux() {
        assert!(peak_rss_mb().unwrap() > 0.5);
    }
}
