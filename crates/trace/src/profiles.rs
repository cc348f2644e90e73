//! Calibrated workload profiles standing in for the paper's six traces.
//!
//! Table 2 of the paper documents, for every trace: the request count, the
//! write ratio, the mean write size, and the fraction of frequently
//! re-accessed addresses (overall and among writes). The original traces are
//! not redistributable, so each profile below parameterizes the synthetic
//! generator in [`crate::synth`] to match those published statistics and the
//! structural property the paper's motivation section measures (Figures 2-3):
//! small writes revisit a hot set with Zipf skew, large writes are mostly
//! sequential streams that are rarely re-referenced.
//!
//! The calibration knobs:
//!
//! * `write_ratio` and `requests` are taken verbatim from Table 2.
//! * `target_mean_write_pages` is Table 2's "Wr Size" divided by 4 KB; the
//!   generator solves for the small/large mixture weight that achieves it.
//! * `hot_extents` + `zipf_s` control how concentrated small-write reuse is,
//!   which drives the "Frequent R (Wr)" column: fewer extents and a steeper
//!   exponent mean more addresses crossing the >= 3 accesses threshold.
//! * `read_*` probabilities shape read locality, which drives the overall
//!   "Frequent R" column for read-heavy traces.

use crate::request::PAGE_SIZE;
use serde::{Deserialize, Serialize};

/// All knobs of one synthetic workload. See the module docs for the mapping
/// from Table 2 columns to fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Trace name as used in the paper (e.g. `"hm_1"`).
    pub name: String,
    /// Total number of requests (Table 2 "Req #").
    pub requests: u64,
    /// Fraction of requests that are writes (Table 2 "Wr Ratio").
    pub write_ratio: f64,
    /// Target mean write size in pages (Table 2 "Wr Size" / 4 KB).
    pub target_mean_write_pages: f64,
    /// Mean of the truncated-geometric small-write size distribution (pages).
    pub small_write_mean_pages: f64,
    /// Maximum small-write size in pages.
    pub small_write_max_pages: u64,
    /// Minimum large-write size in pages (uniform distribution).
    pub large_write_min_pages: u64,
    /// Maximum large-write size in pages (uniform distribution).
    pub large_write_max_pages: u64,
    /// Number of 8-page hot extents that small writes revisit.
    pub hot_extents: usize,
    /// Zipf exponent over hot extents (higher = more skew = more reuse).
    pub zipf_s: f64,
    /// Size of the cold sequential-streaming region in pages.
    pub streaming_pages: u64,
    /// Number of concurrent sequential write streams.
    pub streams: usize,
    /// Per-large-write probability that its stream jumps to a new location.
    pub p_stream_jump: f64,
    /// Probability that a large write rewrites a recently written large extent
    /// instead of extending a stream (drives Figure 3's 22-37 % large-request
    /// reuse).
    pub p_large_rewrite: f64,
    /// Probability a read targets a recently written small extent.
    pub read_recent_small: f64,
    /// Probability a read targets the hot extent set.
    pub read_hot: f64,
    /// Probability a read targets a recently written large extent.
    pub read_recent_large: f64,
    /// Extra pages beyond the write footprint that *cold reads* roam over.
    /// Separates the read spread (drives the overall "Frequent R") from the
    /// write footprint (drives "(Wr)"): enterprise traces write a compact
    /// hot set but read across a much wider range.
    pub cold_read_extra_pages: u64,
    /// Mean exponential inter-arrival time in nanoseconds.
    pub mean_interarrival_ns: u64,
    /// PRNG seed; every profile is fully deterministic.
    pub seed: u64,
}

impl WorkloadProfile {
    /// Scale the workload by `factor` (used to shrink runs for quick tests
    /// and criterion benches). Scales the request count **and** the
    /// footprint regions together, so access-frequency structure (reuse
    /// multiplicity, Table 2's "Frequent R") stays approximately
    /// scale-invariant. Floors keep degenerate scales valid: at least 1 000
    /// requests, 50 hot extents, and a streaming region of 8 maximal large
    /// writes.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "scale must be positive");
        self.requests = ((self.requests as f64 * factor) as u64).max(1_000);
        self.hot_extents = ((self.hot_extents as f64 * factor) as usize).max(50);
        self.streaming_pages = ((self.streaming_pages as f64 * factor) as u64)
            .max(self.large_write_max_pages * 8)
            .max(self.hot_extents as u64 * 16);
        self.cold_read_extra_pages = (self.cold_read_extra_pages as f64 * factor) as u64;
        self
    }

    /// Sanity-check parameter ranges. Called by the generator constructor.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("requests must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.write_ratio) {
            return Err("write_ratio out of [0,1]".into());
        }
        if self.small_write_max_pages == 0 || self.small_write_mean_pages < 1.0 {
            return Err("small write sizes must be >= 1 page".into());
        }
        if self.large_write_min_pages > self.large_write_max_pages {
            return Err("large_write_min_pages > large_write_max_pages".into());
        }
        if self.large_write_min_pages <= self.small_write_max_pages {
            return Err("large writes must be larger than small writes".into());
        }
        // No request is longer than the largest large write (small writes
        // are shorter, checked above), and its bytes must fit `Request::len`.
        let max_pages = u64::from(u32::MAX) / PAGE_SIZE;
        if self.large_write_max_pages > max_pages {
            return Err(format!(
                "large_write_max_pages {} is above the {max_pages} pages a request's u32 byte \
                 length holds",
                self.large_write_max_pages
            ));
        }
        if self.hot_extents == 0 {
            return Err("hot_extents must be > 0".into());
        }
        if self.streaming_pages < self.large_write_max_pages * 4 {
            return Err("streaming region too small".into());
        }
        // Hot extents are embedded in the streaming region, one per
        // `streaming_pages / hot_extents` pages (see synth docs); they need
        // room not to overlap each other.
        if self.streaming_pages / (self.hot_extents as u64) < 16 {
            return Err("hot extents too dense: need streaming_pages >= 16 * hot_extents".into());
        }
        let footprint = self.streaming_pages + self.cold_read_extra_pages;
        if footprint > 32_000_000 {
            return Err("footprint exceeds the 128 GB drive's logical space".into());
        }
        if self.streams == 0 {
            return Err("streams must be > 0".into());
        }
        for (name, p) in [
            ("p_stream_jump", self.p_stream_jump),
            ("p_large_rewrite", self.p_large_rewrite),
            ("read_recent_small", self.read_recent_small),
            ("read_hot", self.read_hot),
            ("read_recent_large", self.read_recent_large),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} out of [0,1]"));
            }
        }
        if self.read_recent_small + self.read_hot + self.read_recent_large > 1.0 {
            return Err("read target probabilities exceed 1".into());
        }
        Ok(())
    }
}

/// Pages per 4 KB given a size in KB (Table 2 sizes are KB).
fn kb_to_pages(kb: f64) -> f64 {
    kb / 4.0
}

/// The six workload profiles of Table 2, in the paper's order (sorted by
/// write ratio ascending).
pub fn paper_profiles() -> Vec<WorkloadProfile> {
    vec![hm_1(), lun_1(), usr_0(), src1_2(), ts_0(), proj_0()]
}

/// Look up a paper profile by name (`hm_1`, `lun_1`, `usr_0`, `src1_2`,
/// `ts_0`, `proj_0`).
pub fn profile_by_name(name: &str) -> Option<WorkloadProfile> {
    paper_profiles().into_iter().find(|p| p.name == name)
}

/// `hm_1`: hardware-monitoring server, read-dominated (4.7 % writes),
/// 20 KB mean write, very high write-address reuse (83.9 %).
pub fn hm_1() -> WorkloadProfile {
    WorkloadProfile {
        name: "hm_1".into(),
        requests: 609_312,
        write_ratio: 0.047,
        target_mean_write_pages: kb_to_pages(20.0),
        small_write_mean_pages: 2.0,
        small_write_max_pages: 8,
        large_write_min_pages: 16,
        large_write_max_pages: 32,
        hot_extents: 800,
        zipf_s: 1.05,
        streaming_pages: 14_000,
        streams: 4,
        p_stream_jump: 0.05,
        p_large_rewrite: 0.20,
        read_recent_small: 0.25,
        read_hot: 0.35,
        read_recent_large: 0.08,
        cold_read_extra_pages: 400_000,
        mean_interarrival_ns: 992_000_000,
        seed: 0x686d_5f31,
    }
}

/// `lun_1` (2016021613-LUN0): enterprise VDI trace, 33.2 % writes, 18.6 KB
/// mean write, very low address reuse (12.4 % / 12.8 %) — a large, flat
/// working set.
pub fn lun_1() -> WorkloadProfile {
    WorkloadProfile {
        name: "lun_1".into(),
        requests: 1_894_391,
        write_ratio: 0.332,
        target_mean_write_pages: kb_to_pages(18.6),
        small_write_mean_pages: 2.0,
        small_write_max_pages: 8,
        large_write_min_pages: 16,
        large_write_max_pages: 48,
        hot_extents: 45_000,
        zipf_s: 0.60,
        streaming_pages: 6_000_000,
        streams: 8,
        p_stream_jump: 0.20,
        p_large_rewrite: 0.04,
        read_recent_small: 0.08,
        read_hot: 0.22,
        read_recent_large: 0.05,
        cold_read_extra_pages: 8_000_000,
        mean_interarrival_ns: 45_600_000,
        seed: 0x6c75_6e31,
    }
}

/// `usr_0`: user home directories, 59.6 % writes, small 10.3 KB mean write,
/// high overall reuse (52.9 %) with moderate write reuse (32.9 %).
pub fn usr_0() -> WorkloadProfile {
    WorkloadProfile {
        name: "usr_0".into(),
        requests: 2_237_889,
        write_ratio: 0.596,
        target_mean_write_pages: kb_to_pages(10.3),
        small_write_mean_pages: 1.8,
        small_write_max_pages: 8,
        large_write_min_pages: 16,
        large_write_max_pages: 40,
        hot_extents: 12_000,
        zipf_s: 1.00,
        streaming_pages: 700_000,
        streams: 6,
        p_stream_jump: 0.10,
        p_large_rewrite: 0.10,
        read_recent_small: 0.30,
        read_hot: 0.38,
        read_recent_large: 0.06,
        cold_read_extra_pages: 800_000,
        mean_interarrival_ns: 270_000_000,
        seed: 0x7573_7230,
    }
}

/// `src1_2`: source control, 74.6 % writes, largest small/large mix
/// (32.5 KB mean write), very high overall reuse (79.6 %).
pub fn src1_2() -> WorkloadProfile {
    WorkloadProfile {
        name: "src1_2".into(),
        requests: 1_907_773,
        write_ratio: 0.746,
        target_mean_write_pages: kb_to_pages(32.5),
        small_write_mean_pages: 3.0,
        small_write_max_pages: 8,
        large_write_min_pages: 24,
        large_write_max_pages: 64,
        hot_extents: 6_000,
        zipf_s: 0.95,
        streaming_pages: 3_500_000,
        streams: 6,
        p_stream_jump: 0.08,
        p_large_rewrite: 0.12,
        read_recent_small: 0.25,
        read_hot: 0.23,
        read_recent_large: 0.50,
        cold_read_extra_pages: 0,
        mean_interarrival_ns: 317_000_000,
        seed: 0x7372_6331,
    }
}

/// `ts_0`: terminal server, 82.4 % writes, tiny 8 KB mean write (nearly all
/// requests are 1-3 pages), strong write reuse (58.1 %).
pub fn ts_0() -> WorkloadProfile {
    WorkloadProfile {
        name: "ts_0".into(),
        requests: 1_801_734,
        write_ratio: 0.824,
        target_mean_write_pages: kb_to_pages(8.0),
        small_write_mean_pages: 1.7,
        small_write_max_pages: 8,
        large_write_min_pages: 16,
        large_write_max_pages: 32,
        hot_extents: 6_000,
        zipf_s: 0.80,
        streaming_pages: 250_000,
        streams: 4,
        p_stream_jump: 0.10,
        p_large_rewrite: 0.08,
        read_recent_small: 0.35,
        read_hot: 0.30,
        read_recent_large: 0.04,
        cold_read_extra_pages: 1_200_000,
        mean_interarrival_ns: 335_000_000,
        seed: 0x7473_5f30,
    }
}

/// `proj_0`: project directories, most write-intensive (87.5 %), largest
/// writes (40.9 KB mean) — considerable numbers of both small and large
/// requests, the case where the paper reports Req-block's biggest wins.
pub fn proj_0() -> WorkloadProfile {
    WorkloadProfile {
        name: "proj_0".into(),
        requests: 4_224_525,
        write_ratio: 0.875,
        target_mean_write_pages: kb_to_pages(40.9),
        small_write_mean_pages: 3.2,
        small_write_max_pages: 8,
        large_write_min_pages: 32,
        large_write_max_pages: 72,
        hot_extents: 8_000,
        zipf_s: 0.90,
        streaming_pages: 10_200_000,
        streams: 8,
        p_stream_jump: 0.06,
        p_large_rewrite: 0.20,
        read_recent_small: 0.40,
        read_hot: 0.30,
        read_recent_large: 0.25,
        cold_read_extra_pages: 1_000_000,
        mean_interarrival_ns: 143_000_000,
        seed: 0x7072_6a30,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_profiles_validate() {
        for p in paper_profiles() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn profiles_match_table2_request_counts() {
        let p = paper_profiles();
        assert_eq!(p[0].requests, 609_312);
        assert_eq!(p[1].requests, 1_894_391);
        assert_eq!(p[2].requests, 2_237_889);
        assert_eq!(p[3].requests, 1_907_773);
        assert_eq!(p[4].requests, 1_801_734);
        assert_eq!(p[5].requests, 4_224_525);
    }

    #[test]
    fn profiles_match_table2_write_ratios() {
        let ratios: Vec<f64> = paper_profiles().iter().map(|p| p.write_ratio).collect();
        assert_eq!(ratios, vec![0.047, 0.332, 0.596, 0.746, 0.824, 0.875]);
    }

    #[test]
    fn profiles_ordered_by_write_ratio() {
        let p = paper_profiles();
        for w in p.windows(2) {
            assert!(w[0].write_ratio <= w[1].write_ratio);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(profile_by_name("ts_0").unwrap().name, "ts_0");
        assert!(profile_by_name("nope").is_none());
    }

    #[test]
    fn scaled_shrinks_but_floors() {
        let p = hm_1().scaled(0.1);
        assert_eq!(p.requests, 60_931);
        let tiny = hm_1().scaled(1e-9);
        assert_eq!(tiny.requests, 1_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero() {
        let _ = hm_1().scaled(0.0);
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut p = hm_1();
        p.write_ratio = 1.5;
        assert!(p.validate().is_err());
        let mut p = hm_1();
        p.large_write_min_pages = 4; // overlaps small range
        assert!(p.validate().is_err());
        let mut p = hm_1();
        p.read_hot = 0.9;
        p.read_recent_small = 0.9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_writes_past_the_u32_length() {
        let mut p = hm_1();
        p.large_write_max_pages = 1 << 20;
        p.streaming_pages = 8 << 20;
        let err = p.validate().unwrap_err();
        assert!(err.contains("large_write_max_pages"), "{err}");
        // The largest whole-page length that fits still validates.
        p.large_write_max_pages = (1 << 20) - 1;
        p.validate().unwrap();
    }
}
