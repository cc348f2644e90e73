//! Per-request latency attribution (DESIGN.md §7.4).
//!
//! A tail request's response time is an opaque sum of waits: flush-window
//! stalls, per-chip read queue contention, GC interference, read retries.
//! This module holds the *accumulator* side of the attribution subsystem:
//! the engine decomposes every request's response into named
//! [`Component`]s whose parts **sum exactly** to the recorded response
//! time (the engine attributes each advance of the request's completion
//! horizon exactly once — a workspace proptest pins the invariant), and
//! feeds them into an [`AttrAcc`]:
//!
//! * per-component log-bucketed [`Histogram`]s plus exact totals, so a
//!   report can say "at this load point, 78 % of p99.9 is flush stall";
//! * a deterministic sampling policy — every-Kth request (seeded phase)
//!   plus an exact slowest-N reservoir — that captures full
//!   [`SpanRecord`]s for export as Chrome `trace_event` JSON
//!   (see [`crate::trace_export`]).
//!
//! Determinism: sampling depends only on `(req_id, response_ns, seed)`,
//! never on wall-clock or allocation order, so the same run samples the
//! same requests at any worker-thread count.

use crate::histogram::Histogram;

/// Number of named response-time components.
pub const COMPONENTS: usize = 7;

/// A named share of one request's response time.
///
/// The engine charges every nanosecond of response to exactly one
/// component; the variants mirror the places a request can spend time in
/// the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Time between arrival and dispatch. The current engine dispatches at
    /// arrival under every submit mode, so this is structurally zero; it is
    /// reserved so the decomposition stays stable when an admission queue
    /// lands (ROADMAP item 1).
    DispatchWait = 0,
    /// DRAM cache service: buffered writes and read hits.
    CacheService = 1,
    /// Stall waiting for an eviction flush the request's write triggered
    /// (or, in queued mode, waiting for a flush-window slot).
    FlushStall = 2,
    /// Read-miss time spent queued behind earlier operations on the target
    /// chip or channel before the sense even starts.
    ReadQueueWait = 3,
    /// Read-miss service proper: sense plus bus transfer.
    ReadService = 4,
    /// Time attributable to garbage collection occupying the chips the
    /// request needed.
    GcInterference = 5,
    /// Extra flash occupancy from fault-injected read retries.
    ReadRetry = 6,
}

impl Component {
    /// All components, in index order.
    pub const ALL: [Component; COMPONENTS] = [
        Component::DispatchWait,
        Component::CacheService,
        Component::FlushStall,
        Component::ReadQueueWait,
        Component::ReadService,
        Component::GcInterference,
        Component::ReadRetry,
    ];

    /// Stable array index of this component.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Telemetry/trace name (snake_case, stable — consumers key on it).
    pub const fn name(self) -> &'static str {
        match self {
            Component::DispatchWait => "dispatch_wait",
            Component::CacheService => "cache_service",
            Component::FlushStall => "flush_stall",
            Component::ReadQueueWait => "read_queue_wait",
            Component::ReadService => "read_service",
            Component::GcInterference => "gc_interference",
            Component::ReadRetry => "read_retry",
        }
    }
}

/// Sampling policy for full span capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrConfig {
    /// Capture every `sample_every`-th request (by id, with a seeded
    /// phase). `0` disables the every-Kth stream.
    pub sample_every: u64,
    /// Size of the exact slowest-N reservoir (`0` disables it).
    pub slowest: usize,
    /// Seed for the every-Kth phase; part of the deterministic identity of
    /// a run's sample set.
    pub seed: u64,
}

impl Default for AttrConfig {
    fn default() -> Self {
        Self { sample_every: 1_024, slowest: 16, seed: 0x7A11_F0CE_5EED }
    }
}

/// Soft cap on stored every-Kth records; a run longer than
/// `cap * sample_every` requests keeps the first `cap` and counts the rest
/// in [`AttrAcc::dropped_samples`] (the slowest-N reservoir is unaffected).
const EVERY_KTH_CAP: usize = 4_096;

/// One fully captured request lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Engine-assigned request id (submission order).
    pub req_id: u64,
    /// Arrival time, ns.
    pub start_ns: u64,
    /// Total response time, ns.
    pub response_ns: u64,
    /// Per-component share, indexed by [`Component::index`]. Sums exactly
    /// to `response_ns`.
    pub parts: [u64; COMPONENTS],
}

impl SpanRecord {
    /// Sum of the per-component parts (equals `response_ns` by the
    /// engine's exact-decomposition invariant).
    pub fn parts_sum(&self) -> u64 {
        self.parts.iter().sum()
    }
}

/// Accumulator for per-request attribution: histograms, exact totals, and
/// the deterministic sample streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrAcc {
    cfg: AttrConfig,
    /// Seeded phase of the every-Kth stream: sample when
    /// `req_id % sample_every == phase`.
    phase: u64,
    hists: [Histogram; COMPONENTS],
    response: Histogram,
    totals: [u128; COMPONENTS],
    total_response_ns: u128,
    requests: u64,
    every_kth: Vec<SpanRecord>,
    dropped_samples: u64,
    slowest: Vec<SpanRecord>,
}

impl AttrAcc {
    /// Fresh accumulator with the given sampling policy.
    pub fn new(cfg: AttrConfig) -> Self {
        let phase = if cfg.sample_every == 0 {
            0
        } else {
            // One xorshift64* step over the seed picks the phase, so two
            // runs with different seeds sample different request lanes.
            let mut x = if cfg.seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { cfg.seed };
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % cfg.sample_every
        };
        Self {
            cfg,
            phase,
            hists: std::array::from_fn(|_| Histogram::latency()),
            response: Histogram::latency(),
            totals: [0; COMPONENTS],
            total_response_ns: 0,
            requests: 0,
            every_kth: Vec::new(),
            dropped_samples: 0,
            slowest: Vec::new(),
        }
    }

    /// The sampling policy in effect.
    pub fn config(&self) -> &AttrConfig {
        &self.cfg
    }

    /// Whether the every-Kth stream selects `req_id`.
    pub fn selects_every_kth(&self, req_id: u64) -> bool {
        self.cfg.sample_every != 0 && req_id % self.cfg.sample_every == self.phase
    }

    /// Record one request's decomposition. `parts` must sum to
    /// `response_ns` (debug-asserted; the engine guarantees it by
    /// construction).
    pub fn observe(&mut self, req_id: u64, start_ns: u64, response_ns: u64, parts: [u64; COMPONENTS]) {
        debug_assert_eq!(
            parts.iter().sum::<u64>(),
            response_ns,
            "attributed parts must sum exactly to the response time"
        );
        self.requests += 1;
        self.response.record(response_ns);
        self.total_response_ns += response_ns as u128;
        for (i, &p) in parts.iter().enumerate() {
            // Component histograms only count requests that actually spent
            // time in the component — an all-zeros column would drown the
            // quantiles of rare-but-huge components like GC pauses.
            if p > 0 {
                self.hists[i].record(p);
            }
            self.totals[i] += p as u128;
        }
        if self.selects_every_kth(req_id) {
            if self.every_kth.len() < EVERY_KTH_CAP {
                self.every_kth.push(SpanRecord { req_id, start_ns, response_ns, parts });
            } else {
                self.dropped_samples += 1;
            }
        }
        if self.cfg.slowest > 0 {
            let candidate = SpanRecord { req_id, start_ns, response_ns, parts };
            if self.slowest.len() < self.cfg.slowest {
                self.slowest.push(candidate);
            } else {
                // Exact top-N: replace the current minimum when strictly
                // slower; ties keep the earlier req_id (deterministic).
                let (mi, min) = self
                    .slowest
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| (r.response_ns, std::cmp::Reverse(r.req_id)))
                    .expect("reservoir is non-empty");
                if candidate.response_ns > min.response_ns {
                    self.slowest[mi] = candidate;
                }
            }
        }
    }

    /// Number of observed requests.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Histogram of one component's nonzero shares.
    pub fn component_hist(&self, c: Component) -> &Histogram {
        &self.hists[c.index()]
    }

    /// Histogram of full response times.
    pub fn response_hist(&self) -> &Histogram {
        &self.response
    }

    /// Exact total nanoseconds charged to one component.
    pub fn total_ns(&self, c: Component) -> u128 {
        self.totals[c.index()]
    }

    /// Exact total response nanoseconds (equals the sum over components).
    pub fn total_response_ns(&self) -> u128 {
        self.total_response_ns
    }

    /// Every-Kth records, in observation order.
    pub fn every_kth(&self) -> &[SpanRecord] {
        &self.every_kth
    }

    /// Every-Kth records that did not fit under the soft cap.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped_samples
    }

    /// The slowest-N reservoir, sorted slowest-first (ties by req_id).
    pub fn slowest(&self) -> Vec<SpanRecord> {
        let mut out = self.slowest.clone();
        out.sort_by_key(|r| (std::cmp::Reverse(r.response_ns), r.req_id));
        out
    }

    /// Union of both sample streams, deduplicated by req_id and sorted by
    /// req_id — the span set the trace export renders.
    pub fn sampled_spans(&self) -> Vec<SpanRecord> {
        let mut out = self.every_kth.clone();
        out.extend(self.slowest.iter().cloned());
        out.sort_by_key(|r| r.req_id);
        out.dedup_by_key(|r| r.req_id);
        out
    }

    /// The component with the largest share of total time over the
    /// slowest-N reservoir — "what the tail is made of". Falls back to the
    /// whole-run totals when the reservoir is empty. Ties resolve to the
    /// lower component index (stable).
    pub fn dominant_tail_component(&self) -> Component {
        let mut sums = [0u128; COMPONENTS];
        if self.slowest.is_empty() {
            sums = self.totals;
        } else {
            for r in &self.slowest {
                for (s, &p) in sums.iter_mut().zip(&r.parts) {
                    *s += p as u128;
                }
            }
        }
        let mut best = Component::DispatchWait;
        let mut best_v = 0u128;
        for c in Component::ALL {
            if sums[c.index()] > best_v {
                best_v = sums[c.index()];
                best = c;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(vals: [u64; COMPONENTS]) -> [u64; COMPONENTS] {
        vals
    }

    fn observe_simple(acc: &mut AttrAcc, req_id: u64, response: u64) {
        let mut p = [0u64; COMPONENTS];
        p[Component::CacheService.index()] = response;
        acc.observe(req_id, req_id * 10, response, p);
    }

    #[test]
    fn totals_and_histograms_accumulate() {
        let mut acc = AttrAcc::new(AttrConfig::default());
        let mut p = [0u64; COMPONENTS];
        p[Component::CacheService.index()] = 100;
        p[Component::FlushStall.index()] = 900;
        acc.observe(0, 0, 1_000, p);
        assert_eq!(acc.requests(), 1);
        assert_eq!(acc.total_response_ns(), 1_000);
        assert_eq!(acc.total_ns(Component::FlushStall), 900);
        assert_eq!(acc.component_hist(Component::FlushStall).count(), 1);
        // Zero parts are not recorded into the component histogram.
        assert_eq!(acc.component_hist(Component::ReadRetry).count(), 0);
        let sum: u128 = Component::ALL.iter().map(|&c| acc.total_ns(c)).sum();
        assert_eq!(sum, acc.total_response_ns());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "sum exactly"))]
    fn mismatched_parts_are_rejected_in_debug() {
        let mut acc = AttrAcc::new(AttrConfig::default());
        let p = parts([1, 0, 0, 0, 0, 0, 0]);
        acc.observe(0, 0, 2, p);
        // Release builds skip the debug assertion; make the test pass there.
        #[cfg(debug_assertions)]
        unreachable!();
    }

    #[test]
    fn every_kth_is_seeded_and_periodic() {
        let cfg = AttrConfig { sample_every: 8, slowest: 0, seed: 7 };
        let mut acc = AttrAcc::new(cfg);
        for id in 0..64 {
            observe_simple(&mut acc, id, 1_000);
        }
        let ids: Vec<u64> = acc.every_kth().iter().map(|r| r.req_id).collect();
        assert_eq!(ids.len(), 8, "64 requests at K=8 -> 8 samples");
        for w in ids.windows(2) {
            assert_eq!(w[1] - w[0], 8, "samples every Kth request");
        }
        // Identical config -> identical selection; different seed -> (here)
        // a different phase.
        let mut again = AttrAcc::new(cfg);
        for id in 0..64 {
            observe_simple(&mut again, id, 1_000);
        }
        let again_ids: Vec<u64> = again.every_kth().iter().map(|r| r.req_id).collect();
        assert_eq!(ids, again_ids);
        let mut other = AttrAcc::new(AttrConfig { seed: 8, ..cfg });
        for id in 0..64 {
            observe_simple(&mut other, id, 1_000);
        }
        let other_ids: Vec<u64> = other.every_kth().iter().map(|r| r.req_id).collect();
        assert_ne!(ids, other_ids, "seed must move the sampling phase");
    }

    #[test]
    fn slowest_reservoir_is_exact_top_n() {
        let cfg = AttrConfig { sample_every: 0, slowest: 3, seed: 1 };
        let mut acc = AttrAcc::new(cfg);
        for (id, resp) in [(0, 50), (1, 10), (2, 99), (3, 70), (4, 99), (5, 5)] {
            observe_simple(&mut acc, id, resp);
        }
        let slow = acc.slowest();
        let got: Vec<(u64, u64)> = slow.iter().map(|r| (r.response_ns, r.req_id)).collect();
        assert_eq!(got, vec![(99, 2), (99, 4), (70, 3)]);
    }

    #[test]
    fn sampled_spans_dedup_and_sort() {
        let cfg = AttrConfig { sample_every: 2, slowest: 2, seed: 3 };
        let mut acc = AttrAcc::new(cfg);
        for id in 0..10 {
            observe_simple(&mut acc, id, 1_000 + id);
        }
        let spans = acc.sampled_spans();
        let mut ids: Vec<u64> = spans.iter().map(|r| r.req_id).collect();
        let orig = ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(orig, ids, "sampled spans must be sorted and unique");
    }

    #[test]
    fn dominant_tail_component_reads_the_reservoir() {
        let cfg = AttrConfig { sample_every: 0, slowest: 2, seed: 1 };
        let mut acc = AttrAcc::new(cfg);
        // Many fast cache-service requests, two slow GC-dominated ones.
        for id in 0..50 {
            observe_simple(&mut acc, id, 2_000);
        }
        for id in 50..52 {
            let mut p = [0u64; COMPONENTS];
            p[Component::GcInterference.index()] = 900_000;
            p[Component::ReadService.index()] = 100_000;
            acc.observe(id, 0, 1_000_000, p);
        }
        assert_eq!(acc.dominant_tail_component(), Component::GcInterference);
    }

    #[test]
    fn zero_sampling_disables_both_streams() {
        let cfg = AttrConfig { sample_every: 0, slowest: 0, seed: 1 };
        let mut acc = AttrAcc::new(cfg);
        for id in 0..100 {
            observe_simple(&mut acc, id, 500);
        }
        assert!(acc.every_kth().is_empty());
        assert!(acc.slowest().is_empty());
        assert_eq!(acc.requests(), 100);
    }
}
