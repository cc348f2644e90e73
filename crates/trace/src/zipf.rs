//! Zipf-distributed sampling over a finite universe.
//!
//! The synthetic workload generators use a Zipf law to shape how often small
//! writes revisit hot addresses: rank-1 items are revisited very frequently
//! while the tail is touched once or twice, which is exactly the structure
//! the paper's Figure 2/3 analysis measures on the MSR traces.
//!
//! The sampler precomputes the cumulative distribution once (`O(n)` memory,
//! `O(n)` setup) and inverts it with a guide table, the "indexed search" of
//! Chen & Asau (*AIIE Transactions* 6(2), 1974): `K`, the smallest power of
//! two `>= n`, equal buckets split `[0, 1)`, and `guide[j]` is the first rank
//! whose cdf is `>= j / K`. A draw `u` falls in bucket `j = floor(u * K)`,
//! and only the ranks `guide[j]..guide[j + 1]` are searched, about one step
//! on average where a binary search over all `n` ranks takes `log2 n`.
//!
//! The table returns exactly the rank the full binary search would. `u` is a
//! multiple of 2^-53 and `K` a power of two, so `u * K` and `j / K` are exact
//! and `j / K <= u < (j + 1) / K` holds without rounding. The first rank
//! whose cdf is `>= u` therefore has a cdf `>= j / K`, so it is no lower than
//! `guide[j]`; and `cdf[guide[j + 1]] >= (j + 1) / K > u`, so it is no higher
//! than `guide[j + 1]`. A search confined to that window finds it.

use rand::Rng;

/// Sampler for `Zipf(n, s)`: item `k` (0-based rank) has probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]`: the first rank whose cdf is `>= j / K`, for `j` in
    /// `0..=K` (see the module docs).
    guide: Vec<u32>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `n` does not fit `u32`, or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf universe must be non-empty");
        assert!(u32::try_from(n).is_ok(), "Zipf universe must fit u32 ranks");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against rounding leaving the last bucket slightly below 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // One pass: bucket edges and ranks both only grow. `cdf[n - 1]` is
        // 1.0, no lower than any edge, so the rank never runs off the end.
        let k = n.next_power_of_two();
        let mut rank = 0;
        let guide = (0..=k)
            .map(|j| {
                let edge = j as f64 / k as f64;
                while cdf[rank] < edge {
                    rank += 1;
                }
                rank as u32
            })
            .collect();
        Self { cdf, guide }
    }

    /// Number of ranks in the universe.
    #[inline]
    pub fn universe(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one rank in `0..universe()`; rank 0 is the hottest.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.rank_of(u)
    }

    /// The first rank whose cdf is `>= u`, searched within `u`'s guide
    /// bucket only; `u` is a draw in `[0, 1)`.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let j = (u * buckets as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k < self.cdf.len());
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let z = Zipf::new(1000, 0.99);
        let mut prev = 0.0;
        for k in 0..z.universe() {
            let c = prev + z.pmf(k);
            assert!(c >= prev);
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn samples_stay_in_universe() {
        let z = Zipf::new(17, 0.8);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 17);
        }
    }

    #[test]
    fn empirical_skew_matches_pmf() {
        let n = 50;
        let z = Zipf::new(n, 1.0);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = vec![0u64; n];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let emp0 = counts[0] as f64 / draws as f64;
        assert!((emp0 - z.pmf(0)).abs() < 0.01, "emp {emp0} vs pmf {}", z.pmf(0));
        // Heavy head: top rank should dominate the 25th rank clearly.
        assert!(counts[0] > counts[24] * 5);
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let n = 10;
        let z = Zipf::new(n, 0.0);
        for k in 0..n {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn guide_table_matches_the_full_binary_search() {
        let mut rng = SmallRng::seed_from_u64(0x6A1D);
        for n in [1, 2, 3, 50, 2_400, 6_000, 45_000] {
            for s in [0.0, 0.6, 0.8, 1.05, 4.0] {
                let z = Zipf::new(n, s);
                let full = |u: f64| z.cdf.partition_point(|&c| c < u).min(n - 1);
                let k = z.guide.len() - 1;
                assert!(k.is_power_of_two() && k >= n && k / 2 < n, "n {n}: {k} buckets");
                let edges: Vec<f64> = (0..=k).map(|j| j as f64 / k as f64).collect();
                // 0, the largest draw 1 - 2^-53, every cdf value and bucket
                // edge with both f64 neighbours, and random draws.
                let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
                for &x in z.cdf.iter().chain(&edges) {
                    us.extend([x.next_down(), x, x.next_up()]);
                }
                us.extend((0..10_000).map(|_| rng.gen::<f64>()));
                for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(z.rank_of(u), full(u), "n {n} s {s} u {u:e}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_universe_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
