//! Order statistics for latencies and batch times.

/// The `p`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between the closest ranks (NumPy's default method). `None` when `values`
/// is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The Harrell-Davis estimate of the `p`-quantile (`0.0 < p < 1.0`): a
/// weighted mean of every order statistic, the `i`-th of `n` weighted by
/// the mass of Beta(p(n+1), (1-p)(n+1)) on `((i-1)/n, i/n]`. Where the
/// values near the quantile are few and far apart, one of them shifting
/// moves this estimate a little instead of jumping to its neighbour. The
/// weights are integrated numerically (midpoint rule) and normalised.
/// `None` when `values` is empty.
pub fn harrell_davis(values: &[f64], p: f64) -> Option<f64> {
    const STEPS: usize = 64;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let (a, b) = (p * (n + 1) as f64 - 1.0, (1.0 - p) * (n + 1) as f64 - 1.0);
    let h = 1.0 / (n * STEPS) as f64;
    let log_density = |k: usize| {
        let t = (k as f64 + 0.5) * h;
        a * t.ln() + b * (1.0 - t).ln()
    };
    // Densities relative to the largest, so none underflows to 0.
    let peak = (0..n * STEPS)
        .map(log_density)
        .fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let w: f64 = (i * STEPS..(i + 1) * STEPS)
            .map(|k| (log_density(k) - peak).exp())
            .sum();
        sum += w * x;
        total += w;
    }
    Some(sum / total)
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads printed here match the ones a Python check computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4i64;
    let len = data.len() as i64;
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, len - 1);
        // Negative after clamping for tiny inputs: then it extrapolates,
        // as Python does.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        let p90 = percentile(&v, 0.9).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn harrell_davis_weights_follow_the_beta_distribution() {
        // n = 9, p = 0.9: Beta(9, 1) has CDF x^9, so the i-th value weighs
        // (i/9)^9 - ((i-1)/9)^9.
        let v: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        let cdf = |i: f64| (i / 9.0).powi(9);
        let want: f64 = (1..=9)
            .map(f64::from)
            .map(|i| i * (cdf(i) - cdf(i - 1.0)))
            .sum();
        let got = harrell_davis(&v, 0.9).unwrap();
        assert!((got - want).abs() < 1e-4 * want, "{got} vs {want}");
        // Symmetric weights put the median of symmetric data at its centre.
        let m = harrell_davis(&v, 0.5).unwrap();
        assert!((m - 5.0).abs() < 1e-9, "{m}");
        assert_eq!(harrell_davis(&[3.0], 0.9), Some(3.0));
        assert_eq!(harrell_davis(&[], 0.9), None);
        // A shift of one value near the quantile moves it only partly.
        let mut w = v.clone();
        w[1] = 7.0; // 8 -> 7
        let moved = got - harrell_davis(&w, 0.9).unwrap();
        assert!(moved > 0.0 && moved < 1.0, "{moved}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
