//! Deterministic synthetic workload generator.
//!
//! Substitutes for the paper's six block traces (see `DESIGN.md` §2). The
//! generator reproduces the structure the paper's motivation section
//! extracts from the real traces:
//!
//! * **Small writes** (1..=8 pages) revisit a fixed set of hot 8-page extents
//!   with Zipf-skewed popularity — they are few pages each but carry most of
//!   the re-reference locality (Figure 2).
//! * **Large writes** extend sequential streams through a cold region and are
//!   rarely revisited; a small rewrite probability plus occasional reads give
//!   large-request pages the 22-37 % reuse Figure 3 reports.
//! * **Reads** target recently written extents and the hot set, producing
//!   read hits in the write buffer.
//!
//! The small/large mixture weight is solved from the profile's target mean
//! write size, so Table 2's "Wr Size" column is matched by construction.
//! Everything is driven by a seeded [`SmallRng`]; the same profile always
//! yields byte-identical traces.

use crate::profiles::WorkloadProfile;
use crate::request::{Lpn, OpType, Request, PAGE_SIZE};
use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Pages per hot extent. Small writes land inside one extent, so repeated
/// draws of the same Zipf rank re-touch the same pages.
pub const EXTENT_PAGES: u64 = 8;

/// Capacity of the recent-small-writes ring that read locality draws from.
const RECENT_SMALL_CAP: usize = 4096;
/// Capacity of the recent-large-writes ring.
const RECENT_LARGE_CAP: usize = 1024;
/// Reads sample uniformly from this many newest ring entries.
const READ_RECENCY_WINDOW: usize = 512;

/// A recently issued write extent remembered for locality-driven reads.
#[derive(Debug, Clone, Copy)]
struct Extent {
    start: Lpn,
    pages: u64,
}

/// Fixed-capacity overwrite ring; `push` evicts the oldest entry.
#[derive(Debug)]
struct Ring {
    buf: Vec<Extent>,
    cap: usize,
    next: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap), cap, next: 0 }
    }

    fn push(&mut self, e: Extent) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next += 1;
            if self.next == self.cap {
                self.next = 0;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pick uniformly among the newest `window` entries.
    fn pick_recent<R: Rng + ?Sized>(&self, rng: &mut R, window: usize) -> Option<Extent> {
        if self.buf.is_empty() {
            return None;
        }
        let n = self.buf.len();
        let w = window.min(n);
        // Entries are newest at positions (next-1, next-2, ...) once the ring
        // wrapped; before wrapping, newest are at the tail of `buf`.
        let back = rng.gen_range(0..w);
        let idx = if n < self.cap {
            n - 1 - back
        } else {
            // `back < cap`, so this is below `2 * cap`: one subtraction
            // wraps it.
            let idx = self.next + self.cap - 1 - back;
            if idx >= self.cap {
                idx - self.cap
            } else {
                idx
            }
        };
        Some(self.buf[idx])
    }
}

/// Streaming synthetic trace generator. Implements [`Iterator`] over
/// [`Request`]s; `requests` items are produced in total.
pub struct SyntheticTrace {
    profile: WorkloadProfile,
    rng: SmallRng,
    zipf: Zipf,
    /// Zipf rank -> hot extent index permutation (decorrelates popularity
    /// from address order).
    perm: Vec<u32>,
    /// Sequential write stream cursors (page offsets within the streaming
    /// region).
    streams: Vec<u64>,
    recent_small: Ring,
    recent_large: Ring,
    /// Probability a write is small (solved from the target mean size).
    p_small_write: f64,
    /// `ln(1 - q)` of the truncated-geometric small-size law (`q` is
    /// `1 / small_write_mean_pages`), computed once.
    small_ln_1mq: f64,
    /// Address distance between consecutive hot extents (see
    /// [`SyntheticTrace::hot_stride`]).
    hot_stride: u64,
    emitted: u64,
    now_ns: u64,
}

impl SyntheticTrace {
    /// Build a generator for `profile`.
    ///
    /// # Panics
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    pub fn new(profile: WorkloadProfile) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let mut rng = SmallRng::seed_from_u64(profile.seed);
        let zipf = Zipf::new(profile.hot_extents, profile.zipf_s);
        let mut perm: Vec<u32> = (0..profile.hot_extents as u32).collect();
        // Fisher-Yates shuffle.
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let streams: Vec<u64> =
            (0..profile.streams).map(|_| rng.gen_range(0..profile.streaming_pages / 2)).collect();
        let small_q = 1.0 / profile.small_write_mean_pages;
        let mean_small = truncated_geometric_mean(small_q, profile.small_write_max_pages);
        let mean_large =
            (profile.large_write_min_pages + profile.large_write_max_pages) as f64 / 2.0;
        let p_small_write = ((mean_large - profile.target_mean_write_pages)
            / (mean_large - mean_small))
            .clamp(0.0, 1.0);
        Self {
            rng,
            zipf,
            perm,
            streams,
            recent_small: Ring::new(RECENT_SMALL_CAP),
            recent_large: Ring::new(RECENT_LARGE_CAP),
            p_small_write,
            small_ln_1mq: (1.0 - small_q).ln(),
            hot_stride: profile.streaming_pages / profile.hot_extents as u64,
            emitted: 0,
            now_ns: 0,
            profile,
        }
    }

    /// Address distance between consecutive hot extents. Hot extents are
    /// embedded in the streamed region (which starts at page 0) so flash
    /// blocks mix hot small-write pages with cold streamed pages — the
    /// unevenness that makes block-granularity schemes lose cache
    /// utilization (paper §4.2.3 on BPLRU/ts_0).
    pub fn hot_stride(&self) -> u64 {
        self.hot_stride
    }

    /// Total logical footprint in pages (streaming region, which embeds the
    /// hot extents, plus the cold-read-only region).
    pub fn footprint_pages(&self) -> u64 {
        self.profile.streaming_pages + self.profile.cold_read_extra_pages
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Probability that a write is drawn from the small-size distribution
    /// (solved from the profile's target mean write size).
    pub fn p_small_write(&self) -> f64 {
        self.p_small_write
    }

    /// Generate the whole trace into a vector.
    pub fn generate_all(self) -> Vec<Request> {
        let n = self.profile.requests as usize;
        let mut v = Vec::with_capacity(n);
        v.extend(self);
        v
    }

    fn sample_small_pages(&mut self) -> u64 {
        sample_truncated_geometric(
            &mut self.rng,
            self.small_ln_1mq,
            self.profile.small_write_max_pages,
        )
    }

    fn sample_large_pages(&mut self) -> u64 {
        self.rng
            .gen_range(self.profile.large_write_min_pages..=self.profile.large_write_max_pages)
    }

    /// Pick a small-write target: a slot inside a Zipf-ranked hot extent
    /// (extents are embedded in the streaming region, one per
    /// [`Self::hot_stride`] pages).
    fn small_target(&mut self, pages: u64) -> Lpn {
        let rank = self.zipf.sample(&mut self.rng);
        let extent = self.perm[rank] as u64;
        let max_off = EXTENT_PAGES.saturating_sub(pages);
        let off = if max_off == 0 { 0 } else { self.rng.gen_range(0..=max_off) };
        extent * self.hot_stride + off
    }

    fn next_write(&mut self) -> (Lpn, u64) {
        if self.rng.gen::<f64>() < self.p_small_write {
            let pages = self.sample_small_pages();
            let start = self.small_target(pages);
            self.recent_small.push(Extent { start, pages });
            (start, pages)
        } else {
            // Large write: occasionally rewrite a recent large extent (reuse),
            // otherwise extend a sequential stream.
            if self.rng.gen::<f64>() < self.profile.p_large_rewrite && !self.recent_large.is_empty()
            {
                let e = self
                    .recent_large
                    .pick_recent(&mut self.rng, READ_RECENCY_WINDOW)
                    .expect("ring checked non-empty");
                return (e.start, e.pages);
            }
            let pages = self.sample_large_pages();
            let region = self.profile.streaming_pages;
            let s = self.rng.gen_range(0..self.streams.len());
            let jump = self.rng.gen::<f64>() < self.profile.p_stream_jump;
            let cursor = self.streams[s];
            let start = if jump || cursor + pages > region {
                self.rng.gen_range(0..region - pages)
            } else {
                cursor
            };
            // Streams are *mostly* sequential: real file layouts leave small
            // holes at 4 KB granularity, so consecutive large writes rarely
            // cover a 64-page flash block end to end. (Without this, BPLRU's
            // sequential-fill demotion fires on every stream block, which no
            // real trace produces.)
            let gap = self.rng.gen_range(0u64..=3);
            self.streams[s] = start + pages + gap;
            self.recent_large.push(Extent { start, pages });
            (start, pages)
        }
    }

    fn next_read(&mut self) -> (Lpn, u64) {
        let p = &self.profile;
        let u: f64 = self.rng.gen();
        let mut acc = p.read_recent_small;
        if u < acc {
            if let Some(e) = self.recent_small.pick_recent(&mut self.rng, READ_RECENCY_WINDOW) {
                return (e.start, e.pages);
            }
        }
        acc += p.read_hot;
        if u < acc {
            let pages = self.sample_small_pages();
            return (self.small_target(pages), pages);
        }
        acc += p.read_recent_large;
        if u < acc {
            if let Some(e) = self.recent_large.pick_recent(&mut self.rng, READ_RECENCY_WINDOW) {
                // Read a sub-range of the large extent.
                let pages = self.rng.gen_range(1..=e.pages);
                let off = self.rng.gen_range(0..=e.pages - pages);
                return (e.start + off, pages);
            }
        }
        // Cold read: uniform over the whole footprint (hot + streaming +
        // cold-read extra region), mixture-sized.
        let pages = if self.rng.gen::<f64>() < self.p_small_write {
            self.sample_small_pages()
        } else {
            self.sample_large_pages()
        };
        let span = self.footprint_pages();
        let start = self.rng.gen_range(0..span - pages);
        (start, pages)
    }

    fn advance_clock(&mut self) {
        // Exponential inter-arrival via inverse transform.
        let u: f64 = self.rng.gen();
        let dt = -(1.0 - u).ln() * self.profile.mean_interarrival_ns as f64;
        self.now_ns += (dt as u64).max(1);
    }
}

impl Iterator for SyntheticTrace {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.emitted >= self.profile.requests {
            return None;
        }
        self.emitted += 1;
        self.advance_clock();
        let is_write = self.rng.gen::<f64>() < self.profile.write_ratio;
        let (start, pages) = if is_write { self.next_write() } else { self.next_read() };
        let op = if is_write { OpType::Write } else { OpType::Read };
        Some(Request::new(self.now_ns, op, start * PAGE_SIZE, pages * PAGE_SIZE))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.profile.requests - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SyntheticTrace {}

/// Mean of the geometric distribution truncated to `1..=max` with parameter
/// `q` (success probability).
pub fn truncated_geometric_mean(q: f64, max: u64) -> f64 {
    let mut norm = 0.0;
    let mut mean = 0.0;
    let mut pmf = q;
    for s in 1..=max {
        norm += pmf;
        mean += s as f64 * pmf;
        pmf *= 1.0 - q;
    }
    mean / norm
}

/// Sample the truncated geometric distribution on `1..=max` whose success
/// probability `q` gives `ln_1mq = ln(1 - q)`.
fn sample_truncated_geometric<R: Rng + ?Sized>(rng: &mut R, ln_1mq: f64, max: u64) -> u64 {
    loop {
        let u: f64 = rng.gen();
        // `x as u64` is `x.floor() as u64` for every f64 `x`: both truncate
        // a non-negative quotient and saturate a negative one to 0. The
        // cast alone skips `floor`'s libm call.
        let s = 1 + ((1.0 - u).ln() / ln_1mq) as u64;
        if s <= max {
            return s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{hm_1, paper_profiles, proj_0, ts_0};

    fn small(profile: WorkloadProfile) -> WorkloadProfile {
        profile.scaled(0.01)
    }

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<Request> = SyntheticTrace::new(small(hm_1())).generate_all();
        let b: Vec<Request> = SyntheticTrace::new(small(hm_1())).generate_all();
        assert_eq!(a, b);
    }

    #[test]
    fn emits_exact_request_count() {
        let t = SyntheticTrace::new(small(ts_0()));
        let expect = t.profile().requests as usize;
        assert_eq!(t.count(), expect);
    }

    #[test]
    fn size_hint_is_exact() {
        let mut t = SyntheticTrace::new(small(ts_0()));
        let n = t.profile().requests as usize;
        assert_eq!(t.size_hint(), (n, Some(n)));
        t.next();
        assert_eq!(t.size_hint(), (n - 1, Some(n - 1)));
    }

    #[test]
    fn timestamps_strictly_increase() {
        let reqs = SyntheticTrace::new(small(proj_0())).generate_all();
        for w in reqs.windows(2) {
            assert!(w[1].time_ns > w[0].time_ns);
        }
    }

    #[test]
    fn write_ratio_approximates_profile() {
        for p in paper_profiles() {
            let p = p.scaled(0.02);
            let target = p.write_ratio;
            let name = p.name.clone();
            let reqs = SyntheticTrace::new(p).generate_all();
            let wr = reqs.iter().filter(|r| r.is_write()).count() as f64 / reqs.len() as f64;
            assert!(
                (wr - target).abs() < 0.02,
                "{name}: write ratio {wr:.3} vs target {target:.3}"
            );
        }
    }

    #[test]
    fn mean_write_size_approximates_table2() {
        for p in paper_profiles() {
            let p = p.scaled(0.05);
            let target = p.target_mean_write_pages;
            let name = p.name.clone();
            let reqs = SyntheticTrace::new(p).generate_all();
            let (sum, n) = reqs
                .iter()
                .filter(|r| r.is_write())
                .fold((0u64, 0u64), |(s, n), r| (s + r.page_count(), n + 1));
            let mean = sum as f64 / n as f64;
            // 15 % tolerance: the mixture solves the mean exactly in
            // expectation; finite samples wander.
            assert!(
                (mean - target).abs() / target < 0.15,
                "{name}: mean write pages {mean:.2} vs target {target:.2}"
            );
        }
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let t = SyntheticTrace::new(small(proj_0()));
        let fp = t.footprint_pages();
        for r in t {
            let last = r.start_lpn() + r.page_count() - 1;
            assert!(last < fp, "request beyond footprint: {last} >= {fp}");
        }
    }

    #[test]
    fn small_writes_land_inside_hot_extents() {
        let t = SyntheticTrace::new(small(ts_0()));
        let stride = t.hot_stride();
        let small_max = t.profile().small_write_max_pages;
        let reqs: Vec<Request> = t.collect();
        // Writes of <= small_max pages are necessarily small writes (large
        // requests have more pages by construction) and must sit entirely
        // inside one 8-page hot extent at an extent-aligned stride slot.
        let mut checked = 0;
        for r in reqs.iter().filter(|r| r.is_write() && r.page_count() <= small_max) {
            let off = r.start_lpn() % stride;
            assert!(
                off + r.page_count() <= EXTENT_PAGES,
                "small write spills out of its extent: off {off}, pages {}",
                r.page_count()
            );
            checked += 1;
        }
        assert!(checked > 100, "expected plenty of small writes, saw {checked}");
    }

    #[test]
    fn hot_pages_are_reused() {
        // The defining property of the workload: some write addresses recur
        // many times.
        let reqs = SyntheticTrace::new(small(ts_0())).generate_all();
        let mut counts = std::collections::HashMap::new();
        for r in reqs.iter().filter(|r| r.is_write()) {
            for lpn in r.lpns() {
                *counts.entry(lpn).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max >= 10, "hottest page written only {max} times");
    }

    #[test]
    fn truncated_geometric_mean_monotone_in_q() {
        let m_fast = truncated_geometric_mean(0.9, 8);
        let m_slow = truncated_geometric_mean(0.2, 8);
        assert!(m_fast < m_slow);
        assert!(m_fast >= 1.0 && m_slow <= 8.0);
    }

    #[test]
    fn truncated_geometric_samples_in_range() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let s = sample_truncated_geometric(&mut rng, 0.5f64.ln(), 8);
            assert!((1..=8).contains(&s));
        }
    }

    #[test]
    fn ring_wraps_and_picks_recent() {
        let mut ring = Ring::new(4);
        for i in 0..10u64 {
            ring.push(Extent { start: i, pages: 1 });
        }
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let e = ring.pick_recent(&mut rng, 4).unwrap();
            // Only the 4 newest survive.
            assert!(e.start >= 6);
        }
        // window=1 must return the newest entry.
        let e = ring.pick_recent(&mut rng, 1).unwrap();
        assert_eq!(e.start, 9);
    }

    #[test]
    fn p_small_write_matches_mixture_math() {
        let t = SyntheticTrace::new(hm_1().scaled(0.01));
        let p = t.profile();
        let mean_small = truncated_geometric_mean(
            1.0 / p.small_write_mean_pages,
            p.small_write_max_pages,
        );
        let mean_large = (p.large_write_min_pages + p.large_write_max_pages) as f64 / 2.0;
        let expect = (mean_large - p.target_mean_write_pages) / (mean_large - mean_small);
        assert!((t.p_small_write() - expect).abs() < 1e-12);
    }
}
