//! Order statistics of a handful of samples.

/// The three quartiles of `values`, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the one the benchmark driver uses,
/// so the spreads printed here are the spreads it will compute. The second
/// is the median. `values` needs at least two elements.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The median of `values` (at least one element).
pub fn median(values: &[f64]) -> f64 {
    if values.len() == 1 {
        values[0]
    } else {
        quartiles(values)[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        assert_eq!(quartiles(&v), [3.5, 24.0, 160.0]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
