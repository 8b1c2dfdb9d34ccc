//! Order statistics for latency samples.

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of all samples are less than or equal to it (rank
/// `ceil(p/100 * n)`, 1-based). `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly greater than the `p`th nearest-rank percentile —
/// the guide's rule is to report the highest percentile that still has
/// at least ten samples beyond it.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    percentile(sorted, p).map_or(0, |v| sorted.iter().filter(|&&s| s > v).count())
}

/// Median of unsorted values (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// A sorted copy (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Events per second in each consecutive whole window of `window`
/// seconds, starting at the first event; `times` are event times in
/// seconds, ascending. Empty if not even one window fits.
pub fn window_rates(times: &[f64], window: f64) -> Vec<f64> {
    let (Some(first), Some(last)) = (times.first(), times.last()) else {
        return Vec::new();
    };
    let windows = ((last - first) / window).floor() as usize;
    let mut counts = vec![0.0f64; windows];
    for t in times {
        let w = ((t - first) / window) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1.0;
        }
    }
    counts.iter().map(|c| c / window).collect()
}

/// Median over consecutive chunks of `per_window` samples (in arrival
/// order) of each chunk's `p`th nearest-rank percentile; a short tail
/// chunk is folded into the last whole one. Robust to one disturbed
/// stretch of a run, where a single pooled tail percentile is not.
pub fn windowed_percentile(samples: &[f64], per_window: usize, p: f64) -> Option<f64> {
    let windows = (samples.len() / per_window.max(1)).max(1);
    let size = samples.len() / windows;
    let per: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            percentile(&sorted(&samples[w * size..end]), p)
        })
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn windowed_statistics() {
        // one event every 1/128 s, in exact binary fractions
        let times: Vec<f64> = (0..100).map(|i| f64::from(i) / 128.0).collect();
        assert_eq!(window_rates(&times, 0.125), vec![128.0; 6]);
        assert!(window_rates(&[1.0], 0.1).is_empty());
        // one disturbed window does not move the median of window p99s
        let mut lat = vec![1.0; 3000];
        for v in &mut lat[100..140] {
            *v = 50.0;
        }
        assert_eq!(percentile(&sorted(&lat), 99.0), Some(50.0));
        assert_eq!(windowed_percentile(&lat, 1000, 99.0), Some(1.0));
        assert_eq!(windowed_percentile(&lat[..10], 1000, 50.0), Some(1.0));
    }

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(beyond(&v, 99.0), 10);
        // with fewer samples p99 has fewer than ten beyond it, so a
        // report must fall back to a lower percentile or more samples
        let short: Vec<f64> = (1..=500).map(f64::from).collect();
        assert!(beyond(&short, 99.0) < 10);
        assert!(beyond(&short, 98.0) >= 10);
    }
}
