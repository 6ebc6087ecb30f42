//! Order statistics: exact-rank percentiles and quartiles.

/// The exact-rank (nearest-rank) `p`-th percentile of an ascending
/// slice: the smallest sample with at least `p` % of the samples at or
/// below it. No interpolation, so the value is one that was observed.
/// `None` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Per-op latency summary. Percentiles carry their sample count: a
/// p99 over fewer than 1 000 samples has fewer than ten samples beyond
/// it and is not worth comparing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples summarised.
    pub samples: usize,
    /// Median, ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Sorts `samples` in place and summarises them.
    pub fn of(samples: &mut [u64]) -> Option<Self> {
        samples.sort_unstable();
        Some(Self {
            samples: samples.len(),
            p50_ns: percentile(samples, 50.0)?,
            p99_ns: percentile(samples, 99.0)?,
            max_ns: *samples.last()?,
        })
    }
}

/// First quartile, median and third quartile by the exclusive method —
/// the definition of Python's `statistics.quantiles(values, n=4)`,
/// which the acceptance check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([at(1), at(2), at(3)])
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark contract bounds.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentiles_with_fewer_than_100_samples_pick_observed_values() {
        // 7 samples: p99 needs rank ceil(6.93) = 7, the maximum; p50
        // needs rank ceil(3.5) = 4.
        let mut v = vec![70, 10, 40, 20, 60, 30, 50];
        let s = LatencySummary::of(&mut v).unwrap();
        assert_eq!(s.samples, 7);
        assert_eq!(s.p50_ns, 40);
        assert_eq!(s.p99_ns, 70);
        assert_eq!(s.max_ns, 70);
        // One sample is every percentile.
        assert_eq!(percentile(&[5], 99.0), Some(5));
        // Two samples: p50 is the lower (rank 1), p99 the upper.
        assert_eq!(percentile(&[5, 9], 50.0), Some(5));
        assert_eq!(percentile(&[5, 9], 99.0), Some(9));
        assert!(LatencySummary::of(&mut []).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&v), Some(1.0));
    }
}
