//! Order statistics for latency samples and for run-to-run spread.

/// Fewest samples for which the 80th percentile still has ten samples
/// beyond it — the guide's rule for the highest percentile worth reporting.
pub const P80_MIN_SAMPLES: usize = 50;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (v.len() * pct as usize).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The 80th percentile, or `None` when fewer than [`P80_MIN_SAMPLES`] were
/// taken: a tail read off fewer than ten samples is not reported at all.
pub fn p80(values: &[f64]) -> Option<f64> {
    (values.len() >= P80_MIN_SAMPLES).then(|| percentile(values, 80))
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so the spread printed by `--repeat` is
/// the number the acceptance rule is stated in. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1).abs() / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p80_is_omitted_below_fifty_samples_not_faked() {
        let forty_nine: Vec<f64> = (1..=49).map(f64::from).collect();
        assert_eq!(p80(&forty_nine), None);
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        // Nearest rank: the 40th of 50, which leaves exactly ten beyond it.
        assert_eq!(p80(&fifty), Some(40.0));
        assert_eq!(fifty.iter().filter(|&&x| x > 40.0).count(), 10);
    }

    #[test]
    fn median_and_percentile_ignore_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[9.0, 7.0, 8.0, 10.0], 50), 8.0);
        assert_eq!(percentile(&[9.0, 7.0, 8.0, 10.0], 100), 10.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(5.5 / 5.5));
    }
}
