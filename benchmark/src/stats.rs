//! Slice statistics: medians, quartiles, best-quarter means, percentiles.
//!
//! Every timed metric is computed over many short slices and printed with
//! their quartiles. The quartile rule is the one Python's
//! `statistics.quantiles(values, n=4)` uses (the "exclusive" method), the
//! rule the acceptance procedure (and `aa.sh`) judges spreads by.

/// First quartile, median and third quartile of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles by the exclusive method: cut point `i` of 4 sits at rank
/// `i·(n+1)/4`, interpolated linearly and clamped to the sample. A
/// one-element sample is its own three quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can leave `i·m` below `4j` on tiny samples,
        // which extrapolates exactly as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, costs).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

/// Mean of the best quarter of a non-empty sample (at least one value).
///
/// The reference box slows by 35–45 % for seconds at a time and places a
/// process's threads well or badly for its whole life; both only ever
/// make a slice *worse*. The best quarter of many short slices estimates
/// the undisturbed program, and its mean does not hang on one freak
/// slice the way a minimum does (README, "Method").
pub fn best_quarter_mean(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best quarter of an empty sample");
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    let keep = v.len().div_ceil(4);
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted sample;
/// 0 for an empty one.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50, 60], n=4)
        //   == [17.5, 35.0, 52.5]
        let q = quartiles(&[60.0, 10.0, 50.0, 20.0, 40.0, 30.0]);
        assert_eq!((q.q1, q.median, q.q3), (17.5, 35.0, 52.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn best_quarter_takes_the_right_end() {
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(best_quarter_mean(&v, Better::Lower), 2.5);
        assert_eq!(best_quarter_mean(&v, Better::Higher), 14.5);
        // Fewer than four values: the single best.
        assert_eq!(best_quarter_mean(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(best_quarter_mean(&[3.0, 1.0, 2.0], Better::Higher), 3.0);
        // Five values: the best two.
        assert_eq!(
            best_quarter_mean(&[5.0, 4.0, 3.0, 2.0, 1.0], Better::Lower),
            1.5
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }
}
