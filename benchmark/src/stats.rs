//! Sample statistics for host-time measurements: median, quartiles, and a
//! nearest-rank percentile that refuses to answer when too few samples lie
//! beyond it.

/// Samples a percentile must have strictly above its rank before it is
/// reported: a p99 needs at least 1000 samples, a p50 at least 20.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(samples, n=4)` default), so spreads computed here
/// match spreads computed from the printed values; `None` when empty.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(samples);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Nearest-rank `q`-percentile (`0 < q < 1`), reported only when at least
/// [`MIN_BEYOND`] samples rank above it; `None` otherwise.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile rank must lie in (0, 1)");
    let data = sorted(samples);
    let n = data.len();
    // The epsilon keeps float error from pushing an exact rank (0.99 x 1000)
    // up by one.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    (n >= rank + MIN_BEYOND).then(|| data[rank - 1])
}

/// Median, quartiles and sample count of one host-time metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let (q1, q3) = quartiles(samples)?;
        Some(Summary {
            n: samples.len(),
            median: median(samples)?,
            q1,
            q3,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=8], n=4) == [2.25, 4.5, 6.75]
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.25, 6.75)));
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.5, 7.5)));
        // Two samples clamp to the ends' interpolation: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), Some((5.0, 5.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(
            percentile(&v[..999], 0.99),
            None,
            "rank 990 of 999 has 9 beyond"
        );
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_counts_samples() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("non-empty");
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!(Summary::of(&[]).is_none());
    }
}
