//! Order statistics over latency samples and over sets of runs.

/// The `q`-quantile (0..=1) of an ascending-sorted slice, interpolating
/// linearly between the two nearest ranks.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Sorts latency samples (nanoseconds) and returns them as `f64`.
pub fn sorted_nanos(samples: &[u32]) -> Vec<f64> {
    let mut v: Vec<u32> = samples.to_vec();
    v.sort_unstable();
    v.into_iter().map(f64::from).collect()
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is how the driver measures the
/// spread of a metric over ten seeds.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values.to_vec());
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&v, 0.5), 25.0);
        assert_eq!(quantile_sorted(&v, 1.0), 40.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
