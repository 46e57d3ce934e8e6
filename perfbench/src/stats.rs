//! Medians, quartiles and percentiles over measured samples.

/// Nearest-rank percentile of an ascending-sorted sample (`q` in (0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads printed here are the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |i: usize| {
        // Cut point i of 4 on n samples: position i*(n+1)/4, 1-based.
        let num = i * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// How a windowed stream of requests is read: the first quartile of the
/// per-window values (each already a median or a rate over thousands of
/// requests). Windows of one run hold the same work and differ only by
/// what else the machine was doing, and the sandbox this benchmark was
/// written on flips between a fast state and one about 35 % slower (a
/// fixed integer loop takes 92 ms or 125 ms) in bursts of 0.1 s to 30 s.
/// The median over windows lands on either side of that flip from run to
/// run; the calm-side quartile does so only when three windows in four
/// were disturbed, and still moves when a change slows more than a quarter
/// of the windows. Whole operations (a build, a start, a reload) are read
/// by their plain [`median`] instead.
pub fn calm_low(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no windows to read a latency from");
    quartiles(values).0
}

/// The throughput counterpart of [`calm_low`]: the third quartile.
pub fn calm_high(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no windows to read a throughput from");
    quartiles(values).1
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }

    #[test]
    fn calm_estimators_read_the_calm_side_quartile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((calm_low(&v) - 2.75).abs() < 1e-12);
        assert!((calm_high(&v) - 8.25).abs() < 1e-12);
        // One slow window in ten does not move it.
        let mut slow = vec![10.0; 10];
        slow[3] = 14.0;
        assert_eq!(calm_low(&slow), 10.0);
        assert_eq!(calm_low(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
