//! Order statistics over latency samples.
//!
//! Everything the benchmark gates on is a median; tails are reported as
//! the median over one-second windows of each window's p99, because a
//! whole-run p99 on a shared two-core host is set by a handful of
//! scheduler stalls and does not repeat.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// The median, averaging the two middle samples of an even count (the
/// convention of Python's `statistics.median`, which the acceptance
/// harness uses on the reported values).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(samples[n / 2]),
        _ => Some((samples[n / 2 - 1] + samples[n / 2]) / 2.0),
    }
}

/// The arithmetic mean; `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Windowed p99: buckets `(at_s, value)` samples into windows of
/// `window_s` seconds by `at_s` (the request's *due* time, so a stall is
/// charged to the window it delayed), takes each window's p99, and
/// returns the median of those. Windows with fewer than `min_samples`
/// samples are skipped — a p99 needs samples beyond it to mean anything.
pub fn windowed_p99(samples: &[(f64, f64)], window_s: f64, min_samples: usize) -> Option<f64> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(at_s, v) in samples {
        windows.entry((at_s / window_s).floor().max(0.0) as u64).or_default().push(v);
    }
    let mut p99s: Vec<f64> = windows
        .into_values()
        .filter(|w| w.len() >= min_samples)
        .filter_map(|mut w| quantile(&mut w, 0.99))
        .collect();
    median(&mut p99s)
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the noise report computes the
/// same spread the acceptance harness does. Needs two samples.
pub fn quartiles(samples: &mut [f64]) -> Option<(f64, f64, f64)> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        samples[j - 1] + (samples[j] - samples[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median — the spread a metric's
/// bound is compared with.
pub fn iqr_share(samples: &mut [f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        let mut unsorted = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&mut unsorted, 0.5), Some(5.0));
        assert_eq!(quantile(&mut [7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn windowed_p99_takes_the_median_of_per_window_tails() {
        // Three one-second windows of 100 samples each: the values are
        // 1..=100 scaled by 1, 2 and 10, so the per-window p99s are 99,
        // 198 and 990 and their median is 198 — one bad second moves a
        // whole-run p99 (it would be 980), but not this.
        let mut samples = Vec::new();
        for (w, scale) in [(0.0, 1.0), (1.0, 2.0), (2.0, 10.0)] {
            for i in 1..=100 {
                samples.push((w + f64::from(i) / 200.0, f64::from(i) * scale));
            }
        }
        assert_eq!(windowed_p99(&samples, 1.0, 20), Some(198.0));
        // A window below the sample floor is ignored.
        samples.push((3.5, 1e9));
        assert_eq!(windowed_p99(&samples, 1.0, 20), Some(198.0));
        assert_eq!(windowed_p99(&[], 1.0, 20), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&mut [40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&mut [1.0]), None);
        let share = iqr_share(&mut v).unwrap();
        assert!((share - 1.0).abs() < 1e-12, "{share}");
    }
}
