//! Host layer: how requests are issued to the device.
//!
//! The host owns the submit policy ([`SubmitMode`]) and the bounded
//! outstanding-flush window that queued mode adds; everything below it —
//! accounting ([`crate::engine::Engine`]) and timing
//! ([`crate::device::Device`]) — is host-mode agnostic.
//!
//! **Byte-identity guarantee.** At the default depth of 1 the window has
//! zero capacity, every eviction flush is waited on in place, and the
//! simulator reproduces the pre-layering output bit for bit: same
//! [`Metrics`], same flash counters, same telemetry JSONL. The golden tests
//! pin this. Deeper windows change *only* which part of a flush the
//! triggering request waits for — the flush operations themselves are
//! issued on the flash timelines at the same instants at every depth, so
//! flash counters and GC behaviour are depth-invariant.
//!
//! [`Metrics`]: crate::metrics::Metrics

use crate::config::SimConfig;
use crate::device::Device;
use crate::engine::Engine;
use crate::metrics::Metrics;
use reqblock_cache::WriteBuffer;
use reqblock_flash::{FaultStats, OpCounters};
use reqblock_ftl::{FtlStats, Health};
use reqblock_obs::{NoopRecorder, Recorder};
use reqblock_trace::Request;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the host issues requests to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitMode {
    /// Up to `depth` requests overlap: a request still issues at its trace
    /// arrival time, but the eviction flushes it triggers retire
    /// asynchronously in a window of `depth - 1` background slots — the
    /// request stalls only when the window is full, and then only until
    /// the earliest outstanding flush retires. Reads on distinct chips
    /// already overlap on the timelines. `depth: 1` leaves no background
    /// slot: every eviction flush is waited on synchronously, which is the
    /// paper's evaluation model (§4) and the default.
    Queued {
        /// Outstanding-request window size (>= 1).
        depth: u32,
    },
}

impl Default for SubmitMode {
    fn default() -> Self {
        SubmitMode::Queued { depth: 1 }
    }
}

impl SubmitMode {
    /// Background-flush slots this mode admits: a depth-`d` window lets
    /// the current request overlap with `d - 1` in-flight flushes.
    pub fn window_slots(self) -> usize {
        let SubmitMode::Queued { depth } = self;
        depth.max(1) as usize - 1
    }
}

/// `sync` for the zero-slot window (depth <= 1), `qd<depth>` otherwise.
impl std::fmt::Display for SubmitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SubmitMode::Queued { depth } if depth <= 1 => write!(f, "sync"),
            SubmitMode::Queued { depth } => write!(f, "qd{depth}"),
        }
    }
}

/// The host's bounded window of in-flight eviction flushes (queued mode's
/// event order): a min-heap of retire times, pre-reserved to
/// [`SubmitMode::window_slots`] at construction, so a run performs no
/// per-flush allocation. The window never holds more than `depth - 1`
/// flushes (7 at qd8), which is why a plain binary heap is all the
/// ordering structure it needs. Zero-capacity at depth 1, where it is
/// never consulted.
///
/// A full window waits for the *earliest* outstanding flush, and
/// `retire_until` drops everything at or before `now`.
#[derive(Debug, Clone, Default)]
pub struct FlushWindow {
    slots: usize,
    /// Retire times of the in-flight flushes, earliest on top.
    inflight: BinaryHeap<Reverse<u64>>,
    /// High-water mark of `inflight.len()`.
    max_outstanding: usize,
}

impl FlushWindow {
    /// A window sized for `mode`, with its heap pre-reserved to the mode's
    /// slot count (no mid-run growth).
    pub fn new(mode: SubmitMode) -> Self {
        let slots = mode.window_slots();
        Self { slots, inflight: BinaryHeap::with_capacity(slots), max_outstanding: 0 }
    }

    /// Reset to an empty window sized for `mode`, keeping the heap's
    /// allocation. Equivalent to `FlushWindow::new(mode)`.
    pub fn reset(&mut self, mode: SubmitMode) {
        self.slots = mode.window_slots();
        self.inflight.clear();
        self.inflight.reserve(self.slots);
        self.max_outstanding = 0;
    }

    /// Background-flush slots (0 at depth 1).
    pub fn capacity(&self) -> usize {
        self.slots
    }

    /// Flushes currently in flight.
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// High-water mark of [`FlushWindow::outstanding`] over the run.
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    /// Drop every in-flight flush that has retired by `now` (event order:
    /// earliest retire time first).
    #[inline]
    pub fn retire_until(&mut self, now: u64) {
        // Split so the one-peek idle check always inlines into the
        // engine's per-request loop; the pop loop stays out of line.
        if self.inflight.peek().is_some_and(|&Reverse(t)| t <= now) {
            self.retire_due(now);
        }
    }

    /// The non-trivial tail of [`FlushWindow::retire_until`]: at least one
    /// flush is due.
    #[inline(never)]
    fn retire_due(&mut self, now: u64) {
        while self.inflight.peek().is_some_and(|&Reverse(t)| t <= now) {
            self.inflight.pop();
        }
    }

    /// Admit a flush retiring at `ready_ns`. When the window is full the
    /// host must first wait for the earliest outstanding flush; that
    /// flush's retire time is returned so the caller can charge the stall.
    /// Must not be called on a zero-capacity window.
    pub fn admit(&mut self, ready_ns: u64) -> Option<u64> {
        debug_assert!(self.slots > 0, "depth-1 hosts never admit background flushes");
        let waited = if self.inflight.len() >= self.slots {
            self.inflight.pop().map(|Reverse(t)| t)
        } else {
            None
        };
        self.inflight.push(Reverse(ready_ns));
        self.max_outstanding = self.max_outstanding.max(self.inflight.len());
        waited
    }
}

/// One simulated SSD instance: the host-facing façade over the
/// engine/device stack. Feed it requests in trace order via [`Ssd::submit`]
/// (or [`Ssd::submit_recorded`] to stream events into a [`Recorder`]);
/// collect results with the accessors afterwards.
pub struct Ssd {
    engine: Engine,
    window: FlushWindow,
}

impl Ssd {
    /// Build a fresh device per `cfg` (including its [`SubmitMode`]).
    pub fn new(cfg: SimConfig) -> Self {
        let window = FlushWindow::new(cfg.submit);
        Self { engine: Engine::new(cfg), window }
    }

    /// Reset to the fresh-device state for `cfg`, reusing the large FTL,
    /// timeline and flush-window allocations where the geometry allows.
    /// Observationally identical to `Ssd::new(cfg)` — the pooled fleet
    /// engine recycles simulator instances through this path, and
    /// `tests/fleet.rs` pins the equivalence.
    pub fn reset(&mut self, cfg: SimConfig) {
        self.window.reset(cfg.submit);
        self.engine.reset(cfg);
    }

    /// Submit one request; returns its response time in ns.
    pub fn submit(&mut self, req: &Request) -> u64 {
        self.submit_recorded(req, &mut NoopRecorder)
    }

    /// Submit one request, streaming page events, flush-wait spans and
    /// periodic samples into `rec` (see [`Engine::submit_recorded`]).
    pub fn submit_recorded<R: Recorder + ?Sized>(&mut self, req: &Request, rec: &mut R) -> u64 {
        self.engine.submit_recorded(req, rec, &mut self.window)
    }

    /// Emit the end-of-run rollup into `rec`. Runners call this
    /// automatically.
    pub fn finish_recording<R: Recorder + ?Sized>(&mut self, rec: &mut R) {
        self.engine.finish_recording(rec, &self.window)
    }

    /// Flush everything still buffered (end-of-trace).
    pub fn drain_cache(&mut self) {
        self.engine.drain_cache()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// Flash operation counters (user/GC programs, reads, erases).
    pub fn flash_counters(&self) -> &OpCounters {
        self.engine.device().flash_counters()
    }

    /// FTL/GC statistics.
    pub fn ftl_stats(&self) -> &FtlStats {
        self.engine.device().ftl_stats()
    }

    /// Reliability counters (all zero with the default zero-fault config).
    pub fn fault_stats(&self) -> &FaultStats {
        self.engine.device().fault_stats()
    }

    /// Current device health (degrades under fault injection).
    pub fn health(&self) -> Health {
        self.engine.device().health()
    }

    /// The cache policy (for occupancy queries and event counters).
    pub fn cache(&self) -> &dyn WriteBuffer {
        self.engine.device().cache()
    }

    /// Run configuration.
    pub fn config(&self) -> &SimConfig {
        self.engine.config()
    }

    /// The device layer (timing queries and component accessors).
    pub fn device(&self) -> &Device {
        self.engine.device()
    }

    /// The host flush window (queued-mode occupancy diagnostics).
    pub fn window(&self) -> &FlushWindow {
        &self.window
    }

    /// Per-request latency attribution, when [`SimConfig::attr`] is set
    /// (see [`Engine::attribution`]). Captured busy intervals for trace
    /// export are reachable through [`Ssd::device`].
    pub fn attribution(&self) -> Option<&reqblock_obs::AttrAcc> {
        self.engine.attribution()
    }

    /// Nanoseconds the given chip's busy horizon extends past `now`
    /// (diagnostics; 0 when the chip is idle at `now`).
    pub fn chip_lag_ns(&self, chip: usize, now: u64) -> i64 {
        self.engine.device().chip_free_at(chip) as i64 - now as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyKind, SampleInterval};
    use reqblock_core::ReqBlockConfig;
    use reqblock_obs::MemoryRecorder;

    fn tiny(policy: PolicyKind, cache_pages: usize) -> Ssd {
        Ssd::new(SimConfig::tiny(cache_pages, policy))
    }

    fn tiny_queued(policy: PolicyKind, cache_pages: usize, depth: u32) -> Ssd {
        Ssd::new(
            SimConfig::tiny(cache_pages, policy).with_submit(SubmitMode::Queued { depth }),
        )
    }

    #[test]
    fn buffered_write_is_fast() {
        let mut ssd = tiny(PolicyKind::Lru, 16);
        let r = ssd.submit(&Request::write_pages(0, 0, 2));
        // Two pages, no eviction: response = DRAM access time.
        assert_eq!(r, ssd.config().ssd.dram_access_ns);
        assert_eq!(ssd.metrics().write_pages, 2);
        assert_eq!(ssd.flash_counters().user_programs, 0, "no flash traffic yet");
    }

    #[test]
    fn read_hit_from_buffer_read_miss_from_flash() {
        let mut ssd = tiny(PolicyKind::Lru, 16);
        ssd.submit(&Request::write_pages(0, 0, 1));
        let hit = ssd.submit(&Request::read_pages(1000, 0, 1));
        assert_eq!(hit, ssd.config().ssd.dram_access_ns);
        let miss = ssd.submit(&Request::read_pages(2000, 50, 1));
        assert!(miss > hit, "flash read must be slower than DRAM");
        assert_eq!(ssd.metrics().read_hits, 1);
        assert_eq!(ssd.metrics().read_pages, 2);
    }

    #[test]
    fn eviction_stalls_the_triggering_write() {
        let mut ssd = tiny(PolicyKind::Lru, 4);
        for i in 0..4 {
            ssd.submit(&Request::write_pages(i, i, 1));
        }
        // The 5th write waits for the victim flush: >= transfer + program.
        let r = ssd.submit(&Request::write_pages(100, 100, 1));
        let cfg = &ssd.config().ssd;
        assert!(r >= cfg.page_transfer_ns() + cfg.program_latency_ns);
        assert_eq!(ssd.metrics().evictions, 1);
        assert_eq!(ssd.flash_counters().user_programs, 1);
    }

    #[test]
    fn flush_stall_attributed_to_dedicated_span() {
        let mut ssd = tiny(PolicyKind::Lru, 4);
        let mut rec = MemoryRecorder::default();
        for i in 0..4 {
            ssd.submit_recorded(&Request::write_pages(i, i, 1), &mut rec);
        }
        assert!(rec.span_stats("flush_wait").is_none(), "no eviction yet");
        let r = ssd.submit_recorded(&Request::write_pages(100, 100, 1), &mut rec);
        let span = rec.span_stats("flush_wait").expect("eviction must record a stall");
        assert_eq!(span.count, 1);
        assert_eq!(span.max_ns, r, "whole response is the flush wait here");
        assert_eq!(ssd.metrics().flush_stalls, 1);
        assert_eq!(ssd.metrics().flush_stall_ns, r as u128);
        // Stall accounting is recorder-independent: a fresh device replaying
        // the same requests without a recorder sees the same metrics.
        let mut plain = tiny(PolicyKind::Lru, 4);
        for i in 0..4 {
            plain.submit(&Request::write_pages(i, i, 1));
        }
        plain.submit(&Request::write_pages(100, 100, 1));
        assert_eq!(plain.metrics(), ssd.metrics());
    }

    #[test]
    fn write_hit_absorbs_without_flash_traffic() {
        let mut ssd = tiny(PolicyKind::Lru, 4);
        ssd.submit(&Request::write_pages(0, 7, 1));
        ssd.submit(&Request::write_pages(10, 7, 1));
        assert_eq!(ssd.metrics().write_hits, 1);
        assert_eq!(ssd.flash_counters().user_programs, 0);
    }

    #[test]
    fn reqblock_policy_runs_end_to_end() {
        let mut ssd = tiny(PolicyKind::ReqBlock(ReqBlockConfig::paper()), 32);
        for i in 0..20u64 {
            ssd.submit(&Request::write_pages(i * 10, (i * 3) % 64, 1 + i % 6));
        }
        for i in 0..10u64 {
            ssd.submit(&Request::read_pages(1000 + i, (i * 3) % 64, 1));
        }
        let m = ssd.metrics();
        assert_eq!(m.requests, 30);
        assert!(m.hit_ratio() > 0.0);
        assert!(ssd.cache().list_occupancy().is_some());
    }

    #[test]
    fn drain_flushes_residual_pages() {
        let mut ssd = tiny(PolicyKind::Lru, 16);
        ssd.submit(&Request::write_pages(0, 0, 5));
        assert_eq!(ssd.flash_counters().user_programs, 0);
        ssd.drain_cache();
        assert_eq!(ssd.flash_counters().user_programs, 5);
        assert_eq!(ssd.cache().len_pages(), 0);
    }

    #[test]
    fn drain_lands_after_the_last_request() {
        // The end-of-trace write-back is issued at the arrival/completion
        // horizon, not at the logical access counter: drain traffic must
        // never be backdated onto timelines the requests already used.
        let mut ssd = tiny(PolicyKind::Lru, 16);
        ssd.submit(&Request::write_pages(5_000_000, 0, 5));
        ssd.drain_cache();
        assert_eq!(ssd.flash_counters().user_programs, 5);
        assert!(ssd.device().completion_horizon_ns() > 5_000_000);
        // Every chip the drain touched now frees up after the last arrival.
        let chips = ssd.config().ssd.total_chips();
        for chip in (0..chips).filter(|&c| ssd.device().chip_free_at(c) > 0) {
            assert!(
                ssd.device().chip_free_at(chip) > 5_000_000,
                "chip {chip}: drain program backdated before the last arrival"
            );
        }
    }

    #[test]
    fn response_time_counts_from_arrival() {
        let mut ssd = tiny(PolicyKind::Lru, 16);
        // Arrival far in the future: response is still just the DRAM time.
        let r = ssd.submit(&Request::write_pages(1_000_000_000, 0, 1));
        assert_eq!(r, ssd.config().ssd.dram_access_ns);
    }

    #[test]
    fn overhead_sampling_accumulates() {
        let mut ssd = tiny(PolicyKind::Lru, 16);
        for i in 0..25u64 {
            ssd.submit(&Request::write_pages(i, i % 8, 1));
        }
        // sample_every = 10 in tiny config -> samples at req 0, 10, 20.
        assert_eq!(ssd.metrics().overhead_samples, 3);
        assert!(ssd.metrics().avg_metadata_bytes() > 0.0);
    }

    #[test]
    fn request_sampler_emits_series_on_schedule() {
        let cfg = SimConfig::tiny(16, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
            .with_sampling(SampleInterval::Requests(2));
        let mut ssd = Ssd::new(cfg);
        let mut rec = MemoryRecorder::default();
        for i in 0..5u64 {
            ssd.submit_recorded(&Request::write_pages(i, i, 1), &mut rec);
        }
        // Samples at requests 0, 2, 4.
        let hits = rec.series_points("hit_ratio");
        assert_eq!(hits.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![0, 2, 4]);
        // Req-block reports its per-list series too.
        for series in ["write_amp", "chan_util", "buf_occupancy", "free_blocks", "irl_pages"] {
            assert_eq!(rec.series_points(series).len(), 3, "{series}");
        }
    }

    #[test]
    fn sim_time_sampler_respects_interval() {
        let cfg = SimConfig::tiny(16, PolicyKind::Lru)
            .with_sampling(SampleInterval::SimTimeNs(1_000));
        let mut ssd = Ssd::new(cfg);
        let mut rec = MemoryRecorder::default();
        for t in [0u64, 100, 999, 1_500, 1_600, 3_000] {
            ssd.submit_recorded(&Request::write_pages(t, t / 100, 1), &mut rec);
        }
        let pts = rec.series_points("buf_occupancy");
        assert_eq!(pts.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![0, 1_500, 3_000]);
        // LRU has no per-list occupancy series.
        assert!(rec.series_points("irl_pages").is_empty());
    }

    #[test]
    fn disabled_recorder_skips_sampling_but_not_metrics() {
        let cfg = SimConfig::tiny(16, PolicyKind::Lru)
            .with_sampling(SampleInterval::Requests(1));
        let mut ssd = Ssd::new(cfg);
        for i in 0..5u64 {
            ssd.submit(&Request::write_pages(i, i, 1));
        }
        assert_eq!(ssd.metrics().requests, 5);
    }

    #[test]
    fn fault_rollup_recorded_only_when_faults_configured() {
        use reqblock_flash::FaultConfig;
        // Zero-fault run: no reliability keys in the rollup at all, so
        // pre-reliability telemetry is byte-identical.
        let mut plain = tiny(PolicyKind::Lru, 4);
        let mut rec = MemoryRecorder::default();
        for i in 0..20u64 {
            plain.submit_recorded(&Request::write_pages(i, i, 1), &mut rec);
        }
        plain.finish_recording(&mut rec);
        assert_eq!(rec.counter_value("fault_read_retries"), 0);
        assert!(rec.gauge_value("device_read_only").is_none());

        // Faulty run: counters and health gauge appear.
        let cfg = SimConfig::tiny(4, PolicyKind::Lru)
            .with_faults(FaultConfig::with_rates(42, 300_000, 0, 0));
        let mut ssd = Ssd::new(cfg);
        let mut rec = MemoryRecorder::default();
        for i in 0..40u64 {
            ssd.submit_recorded(&Request::write_pages(i * 1_000, i, 1), &mut rec);
        }
        for i in 0..40u64 {
            ssd.submit_recorded(&Request::read_pages(100_000 + i * 1_000, i, 1), &mut rec);
        }
        ssd.finish_recording(&mut rec);
        assert!(ssd.fault_stats().read_faults > 0, "30% read faults never fired");
        assert_eq!(rec.counter_value("fault_read_faults"), ssd.fault_stats().read_faults);
        assert_eq!(rec.counter_value("fault_read_retries"), ssd.fault_stats().read_retries);
        assert_eq!(rec.gauge_value("device_read_only"), Some(0.0));
    }

    #[test]
    fn finish_recording_rolls_up_counters_and_gauges() {
        let mut ssd = tiny(PolicyKind::ReqBlock(ReqBlockConfig::paper()), 8);
        let mut rec = MemoryRecorder::default();
        for i in 0..30u64 {
            ssd.submit_recorded(&Request::write_pages(i * 50, i * 2, 2), &mut rec);
        }
        ssd.finish_recording(&mut rec);
        assert_eq!(rec.counter_value("requests"), 30);
        assert_eq!(rec.counter_value("write_pages"), 60);
        assert_eq!(rec.counter_value("flash_user_programs"), ssd.flash_counters().user_programs);
        assert_eq!(
            rec.counter_value("cache_victim_selections"),
            ssd.cache().events().unwrap().victim_selections
        );
        assert!(rec.gauge_value("hit_ratio").is_some());
        assert!(rec.gauge_value("chan0_busy_ms").is_some());
        assert!(rec.gauge_value("avg_response_ms").unwrap() > 0.0);
    }

    #[test]
    fn sampled_utilization_never_exceeds_one() {
        // Overload: every request arrives at t = 0, so service far outruns
        // arrivals. Windowed on arrivals alone, utilization would blow past
        // 1; windowed on the completion horizon it must stay within [0, 1].
        let cfg = SimConfig::tiny(4, PolicyKind::Lru).with_sampling(SampleInterval::Requests(1));
        let mut ssd = Ssd::new(cfg);
        let mut rec = MemoryRecorder::default();
        for i in 0..64u64 {
            ssd.submit_recorded(&Request::write_pages(0, i, 1), &mut rec);
        }
        ssd.finish_recording(&mut rec);
        let samples = rec.series_points("chan_util");
        assert!(!samples.is_empty());
        assert!(samples.iter().any(|&(_, v)| v > 0.0));
        for &(t, v) in samples {
            assert!((0.0..=1.0).contains(&v), "chan_util {v} out of range at t={t}");
        }
        let final_util = rec.gauge_value("chan_util").unwrap();
        assert!((0.0..=1.0).contains(&final_util), "final chan_util {final_util}");
    }

    #[test]
    fn attribution_parts_sum_to_response_and_emit_rollup() {
        use reqblock_obs::{AttrConfig, Component};
        let cfg = SimConfig::tiny(4, PolicyKind::Lru)
            .with_attribution(AttrConfig { sample_every: 1, slowest: 4, seed: 7 });
        let mut ssd = Ssd::new(cfg);
        let mut rec = MemoryRecorder::default();
        for i in 0..24u64 {
            ssd.submit_recorded(&Request::write_pages(i * 10, i % 12, 1), &mut rec);
        }
        for i in 0..8u64 {
            ssd.submit_recorded(&Request::read_pages(10_000 + i * 10, i, 1), &mut rec);
        }
        ssd.finish_recording(&mut rec);
        let acc = ssd.attribution().expect("attr configured");
        assert_eq!(acc.requests(), 32);
        // Exact decomposition: per-component totals sum to the metrics'
        // summed response time, and every sampled span sums to its own
        // response.
        let total: u128 = Component::ALL.iter().map(|&c| acc.total_ns(c)).sum();
        assert_eq!(total, ssd.metrics().total_response_ns);
        for span in acc.sampled_spans() {
            assert_eq!(span.parts_sum(), span.response_ns, "req {}", span.req_id);
        }
        // Eviction stalls and flash misses both occurred, so both causes
        // show up in the decomposition.
        assert!(acc.total_ns(Component::FlushStall) > 0);
        assert!(acc.total_ns(Component::ReadService) > 0);
        // Rollup keys are present, with stable spelling.
        assert_eq!(
            rec.counter_value("attr_flush_stall_ns"),
            u64::try_from(acc.total_ns(Component::FlushStall)).unwrap()
        );
        assert_eq!(rec.counter_value("attr_sampled_spans"), acc.sampled_spans().len() as u64);
        assert!(rec.gauge_value("attr_p99_response_ms").is_some());
        // Busy intervals were captured lazily for trace export.
        assert!(ssd.device().busy_intervals().is_some());
    }

    #[test]
    fn attribution_keys_absent_without_config_or_recorder() {
        use reqblock_obs::AttrConfig;
        // Live recorder, no attr config: no attr_* keys, no intervals.
        let mut plain = tiny(PolicyKind::Lru, 4);
        let mut rec = MemoryRecorder::default();
        for i in 0..16u64 {
            plain.submit_recorded(&Request::write_pages(i * 10, i % 8, 1), &mut rec);
        }
        plain.finish_recording(&mut rec);
        assert_eq!(rec.counter_value("attr_cache_service_ns"), 0);
        assert!(rec.gauge_value("attr_p99_response_ms").is_none());
        assert!(plain.attribution().is_none());
        assert!(plain.device().busy_intervals().is_none());
        // Attr config but no-op recorder: the accumulator stays untouched
        // and interval capture is never switched on (the bench overhead
        // mode), while metrics match a plain run exactly.
        let cfg = SimConfig::tiny(4, PolicyKind::Lru).with_attribution(AttrConfig::default());
        let mut noop = Ssd::new(cfg);
        for i in 0..16u64 {
            noop.submit(&Request::write_pages(i * 10, i % 8, 1));
        }
        assert_eq!(noop.attribution().expect("allocated but idle").requests(), 0);
        assert!(noop.device().busy_intervals().is_none());
        assert_eq!(noop.metrics(), plain.metrics());
    }

    #[test]
    fn window_slots_per_mode() {
        assert_eq!(SubmitMode::default(), SubmitMode::Queued { depth: 1 });
        assert_eq!(SubmitMode::default().window_slots(), 0);
        assert_eq!(SubmitMode::Queued { depth: 8 }.window_slots(), 7);
        assert_eq!(SubmitMode::default().to_string(), "sync");
        assert_eq!(SubmitMode::Queued { depth: 4 }.to_string(), "qd4");
    }

    #[test]
    fn flush_window_retires_in_event_order() {
        let mut w = FlushWindow::new(SubmitMode::Queued { depth: 3 });
        assert_eq!(w.capacity(), 2);
        assert_eq!(w.admit(500), None);
        assert_eq!(w.admit(300), None, "two slots, no wait yet");
        // Full: admitting waits for the *earliest* outstanding flush (300).
        assert_eq!(w.admit(700), Some(300));
        assert_eq!(w.outstanding(), 2);
        assert_eq!(w.max_outstanding(), 2);
        // Time passes to 600: the 500-flush retires, 700 stays in flight.
        w.retire_until(600);
        assert_eq!(w.outstanding(), 1);
        assert_eq!(w.admit(800), None);
    }

    #[test]
    fn queued_mode_absorbs_flush_stalls_without_changing_flash_traffic() {
        let mut sync = tiny(PolicyKind::Lru, 4);
        let mut qd8 = tiny_queued(PolicyKind::Lru, 4, 8);
        for i in 0..64u64 {
            let req = Request::write_pages(i * 10, i % 16, 1);
            sync.submit(&req);
            qd8.submit(&req);
        }
        // Identical flash traffic: flushes are issued at the same instants
        // in every mode.
        assert_eq!(sync.flash_counters(), qd8.flash_counters());
        assert!(sync.metrics().flush_stalls > 0, "workload must evict");
        // The window absorbs stall time the synchronous host eats in full.
        assert!(qd8.metrics().flush_stall_ns < sync.metrics().flush_stall_ns);
        assert!(qd8.metrics().total_response_ns < sync.metrics().total_response_ns);
    }

    #[test]
    fn qdepth_telemetry_gated_on_queued_mode() {
        let run = |submit: SubmitMode| {
            let cfg = SimConfig::tiny(4, PolicyKind::Lru)
                .with_sampling(SampleInterval::Requests(1))
                .with_submit(submit);
            let mut ssd = Ssd::new(cfg);
            let mut rec = MemoryRecorder::default();
            for i in 0..32u64 {
                ssd.submit_recorded(&Request::write_pages(i * 10, i % 12, 1), &mut rec);
            }
            ssd.finish_recording(&mut rec);
            rec
        };
        let sync = run(SubmitMode::default());
        assert!(sync.series_points("qdepth").is_empty());
        assert!(sync.gauge_value("host_qdepth").is_none());

        let queued = run(SubmitMode::Queued { depth: 4 });
        assert!(!queued.series_points("qdepth").is_empty());
        assert_eq!(queued.gauge_value("host_qdepth"), Some(4.0));
        let hwm = queued.gauge_value("host_max_outstanding").unwrap();
        assert!((1.0..=3.0).contains(&hwm), "window of depth 4 holds at most 3, saw {hwm}");
    }
}
