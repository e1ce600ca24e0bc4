//! Sample statistics for repeated timings: median, quartiles, nearest-rank
//! percentiles, and the highest percentile a sample supports.

/// The samples in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(data, n=4)` (the default, "exclusive" one), so the
/// spread printed here matches one computed with that function.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let ld = s.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Rank (1-based) of the nearest-rank `p`-th percentile of `n` samples.
fn nearest_rank_index(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile: the smallest sample with at least
/// `p` per cent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    sorted(samples)[nearest_rank_index(samples.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank_index(n, p)
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// The highest percentile with at least [`MIN_TAIL`] samples beyond it, as
/// `(percentile, value)`: the sample with exactly ten larger ones, which is
/// the nearest-rank `100·(n−10)/n`-th percentile. `None` when the sample has
/// ten or fewer values.
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= MIN_TAIL {
        return None;
    }
    let percentile = 100.0 * (n - MIN_TAIL) as f64 / n as f64;
    Some((percentile, sorted(samples)[n - MIN_TAIL - 1]))
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self { n: samples.len(), median: median(samples), q1, q3 }
    }

    /// `n=…, q1=…, q3=…` for a report line.
    pub fn describe(&self) -> String {
        format!("n={} q1={} q3={}", self.n, significant(self.q1), significant(self.q3))
    }
}

/// A number with five significant digits, for human-readable lines.
pub fn significant(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn nearest_rank_percentiles_and_their_tails() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 50.0), 50.0);
        assert_eq!(nearest_rank(&hundred, 95.0), 95.0);
        assert_eq!(nearest_rank(&hundred, 100.0), 100.0);
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(nearest_rank(&[4.0, 2.0], 0.0), 2.0);
    }

    #[test]
    fn highest_supported_percentile_leaves_ten_samples_beyond() {
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v) = highest_supported_percentile(&two_hundred).unwrap();
        assert_eq!(p, 95.0);
        assert_eq!(v, 190.0);
        assert_eq!(two_hundred.iter().filter(|&&x| x > v).count(), MIN_TAIL);
        // The rule agrees with the nearest-rank definition at that percentile.
        assert_eq!(nearest_rank(&two_hundred, p), v);
        assert_eq!(beyond(200, p), MIN_TAIL);

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&thousand), Some((99.0, 990.0)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&eleven).unwrap().1, 1.0);
        assert_eq!(highest_supported_percentile(&[1.0; 10]), None);
    }

    #[test]
    fn significant_digits_for_report_lines() {
        assert_eq!(significant(1681.23456), "1681.2");
        assert_eq!(significant(0.0123456), "0.012346");
        assert_eq!(significant(123456.0), "123456");
        assert_eq!(significant(0.0), "0");
    }
}
