//! Order statistics over raw samples and over scraped histogram buckets.

/// The `p`-th percentile (`p` in `[0, 100]`) of `samples` by the
/// nearest-rank rule: the smallest sample with at least `p`% of the
/// samples at or below it. `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (mean of the middle two for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A run-level statistic robust to a stall in part of the run: split
/// the samples, in the order they were taken, into `slices` consecutive
/// slices of at least `min_per_slice` samples (fewer slices when the
/// run has fewer samples), apply `stat` to each, and take the median.
/// 0 when there are no samples.
pub fn sliced(
    samples_in_order: &[f64],
    slices: usize,
    min_per_slice: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let n = samples_in_order.len();
    if n == 0 {
        return 0.0;
    }
    let k = slices.min(n / min_per_slice.max(1)).max(1);
    let per: Vec<f64> = (0..k)
        .map(|i| stat(&samples_in_order[i * n / k..(i + 1) * n / k]))
        .collect();
    median(&per).expect("at least one slice")
}

/// A histogram as scraped from a Prometheus text exposition: the
/// cumulative `_bucket` counts by upper bound `le`, plus `_sum` and
/// `_count`. Values are in the exposition's unit (seconds for the
/// `*_seconds` families).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketHist {
    /// `(le, cumulative count)`, ascending by `le`; `+Inf` excluded.
    pub buckets: Vec<(f64, f64)>,
    /// Sum of all samples.
    pub sum: f64,
    /// Number of samples.
    pub count: f64,
}

impl BucketHist {
    /// The histogram of samples recorded after `earlier` was scraped
    /// (bucket-wise difference of the cumulative counts).
    pub fn since(&self, earlier: &BucketHist) -> BucketHist {
        let before = |le: f64| {
            earlier
                .buckets
                .iter()
                .take_while(|(b, _)| *b <= le)
                .last()
                .map_or(0.0, |&(_, c)| c)
        };
        BucketHist {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, c)| (le, c - before(le)))
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }

    /// The upper bound of the bucket holding the `p`-th percentile
    /// sample (the estimate the exposition supports: at most 25% above
    /// the true value). 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0 * self.count).ceil().max(1.0);
        self.buckets
            .iter()
            .find(|&&(_, c)| c >= rank)
            .or(self.buckets.last())
            .map_or(0.0, |&(le, _)| le)
    }

    /// Mean sample (exact, from the sum). 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count <= 0.0 {
            0.0
        } else {
            self.sum / self.count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // Order of input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99.0), Some(99.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn sliced_statistic_ignores_a_stall_in_one_slice() {
        // Four slices of 100 samples at 1.0; one slice also holds a
        // burst of slow samples that dominates its own p99 and mean.
        let mut v = vec![1.0; 400];
        for x in v.iter_mut().skip(100).take(5) {
            *x = 50.0;
        }
        let p99 = |s: &[f64]| percentile(s, 99.0).unwrap_or(0.0);
        assert_eq!(p99(&v), 50.0);
        assert_eq!(sliced(&v, 4, 10, p99), 1.0);
        assert_eq!(sliced(&v, 4, 10, mean), 1.0);
        // Too few samples for more than one slice: the plain statistic.
        assert_eq!(sliced(&v[95..110], 4, 10, p99), 50.0);
        assert_eq!(sliced(&[], 4, 10, mean), 0.0);
    }

    #[test]
    fn bucket_percentiles_and_deltas() {
        let before = BucketHist {
            buckets: vec![(0.001, 10.0), (0.002, 10.0), (0.004, 10.0)],
            sum: 0.005,
            count: 10.0,
        };
        let after = BucketHist {
            buckets: vec![(0.001, 10.0), (0.002, 60.0), (0.004, 110.0)],
            sum: 0.305,
            count: 110.0,
        };
        let d = after.since(&before);
        assert_eq!(d.count, 100.0);
        assert_eq!(d.buckets, vec![(0.001, 0.0), (0.002, 50.0), (0.004, 100.0)]);
        assert_eq!(d.percentile(50.0), 0.002);
        assert_eq!(d.percentile(51.0), 0.004);
        assert_eq!(d.percentile(99.0), 0.004);
        assert!((d.mean() - 0.003).abs() < 1e-12);
        // A bucket that first appears after the baseline diffs against
        // the baseline's next-lower bucket.
        let grown = BucketHist {
            buckets: vec![(0.001, 10.0), (0.003, 12.0)],
            sum: 0.011,
            count: 12.0,
        };
        assert_eq!(
            grown.since(&before).buckets,
            vec![(0.001, 0.0), (0.003, 2.0)]
        );
        assert_eq!(BucketHist::default().percentile(99.0), 0.0);
    }
}
