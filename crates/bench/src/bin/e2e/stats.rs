//! Order statistics the benchmark reports with.

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = ascending(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The host-time estimator: the 25th percentile (nearest rank) of the
/// per-pass values. Interference on a shared box only ever adds time, so
/// the low side of identical passes is the steadier estimate of what the
/// code costs; a quartile rather than the minimum keeps one lucky pass
/// from setting the number.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(&ascending(values), 0.25)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the driver's spread is their distance over the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = ascending(values);
    assert!(v.len() >= 2, "quartiles need two values");
    let ld = v.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        (v[(j - 1) as usize] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn lower_quartile_of_eight_passes_is_the_second_smallest() {
        let passes = [25.7, 24.5, 31.0, 25.1, 40.2, 24.9, 26.3, 25.0];
        assert_eq!(lower_quartile(&passes), 24.9);
        assert_eq!(lower_quartile(&[9.0]), 9.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
