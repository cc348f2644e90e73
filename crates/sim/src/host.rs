//! The simulated SSD: one object from host request to flash array.
//!
//! [`Ssd`] runs the pipeline of Figure 1 end to end. It owns the
//! [`Device`] (DRAM write buffer, FTL, flash timeline) and drives it
//! directly; it owns the host's submit policy ([`SubmitMode`]) and the
//! bounded outstanding-flush window that queued mode adds
//! ([`FlushWindow`]); and it owns everything about the run that is not
//! device state: the monotone request counter, the logical page clock
//! (Eq. 1's time base), the [`Metrics`] accumulators, the periodic
//! time-series sampler, latency attribution and the end-of-run recorder
//! rollup.
//!
//! **Byte-identity guarantee.** At the default depth of 1 the window has
//! zero capacity, every eviction flush is waited on in place, and the
//! simulator reproduces the paper's one-at-a-time model bit for bit: same
//! [`Metrics`], same flash counters, same telemetry JSONL. The golden tests
//! pin this. Deeper windows change *only* which part of a flush the
//! triggering request waits for — the flush operations themselves are
//! issued on the flash timelines at the same instants at every depth, so
//! flash counters and GC behaviour are depth-invariant.

use crate::config::{SampleInterval, SimConfig};
use crate::device::Device;
use crate::event::ChipCursors;
use crate::metrics::Metrics;
use reqblock_cache::{Access, EvictionBatch, Placement as CachePlacement, WriteBuffer};
use reqblock_flash::{FaultStats, OpCounters};
use reqblock_ftl::{FtlStats, Health, Placement as FtlPlacement};
use reqblock_obs::attr::COMPONENTS;
use reqblock_obs::{series, AttrAcc, Component, NoopRecorder, PageEvent, Recorder};
use reqblock_trace::{Lpn, OpType, Request};
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
        // per-request path; the pop loop stays out of line.
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

/// One simulated SSD instance. Feed it requests in trace order via
/// [`Ssd::submit`] (or [`Ssd::submit_recorded`] to stream events into a
/// [`Recorder`]); collect results with the accessors afterwards.
pub struct Ssd {
    cfg: SimConfig,
    device: Device,
    window: FlushWindow,
    metrics: Metrics,
    /// Logical time: pages processed so far (the time base of Eq. 1).
    logical_now: u64,
    /// Monotone request counter (request-block identity).
    req_counter: u64,
    /// Arrival time (ns) of the most recent request.
    last_arrival_ns: u64,
    /// Next request index at which the time-series sampler fires. Starts
    /// at 0 so the first request is always sampled.
    next_sample: u64,
    /// Next request id at which the metadata-overhead sampler fires;
    /// threshold compare instead of a per-request modulo.
    next_overhead_sample: u64,
    /// Reused eviction-batch collection vector: taken at the top of each
    /// request, drained batch by batch (each batch handed back to the
    /// policy via recycle after its flush), and restored at the end — no
    /// per-request or per-eviction allocation.
    evict_scratch: Vec<EvictionBatch>,
    /// NCQ-style outstanding-read ledger: per-chip FIFO rings of flash
    /// read completions the host has issued but not yet observed retire.
    /// Maintained only on instrumented queued runs (recorder enabled and a
    /// non-zero flush window) so the uninstrumented hot path and the
    /// depth-1 telemetry contract are untouched.
    read_cursors: ChipCursors,
    /// Per-request latency attribution accumulator; allocated only when
    /// [`SimConfig::attr`] is set, consulted only while the recorder is
    /// live (`rec.enabled()`), so both the no-op hot path and plain
    /// recorded runs are untouched.
    attr: Option<Box<AttrAcc>>,
    /// Whether the timeline's busy-interval capture has been switched on
    /// (lazily, at the first attributed request — a `NoopRecorder` run
    /// with attribution configured never enables it).
    intervals_on: bool,
}

impl Ssd {
    /// Build a fresh device per `cfg` (including its [`SubmitMode`]).
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            device: Device::new(&cfg),
            window: FlushWindow::new(cfg.submit),
            metrics: Metrics::default(),
            logical_now: 0,
            req_counter: 0,
            last_arrival_ns: 0,
            next_sample: 0,
            next_overhead_sample: 0,
            // A page write triggers at most one eviction decision, and even
            // degenerate policies produce a handful of batches per request.
            evict_scratch: Vec::with_capacity(4),
            read_cursors: ChipCursors::new(cfg.ssd.total_chips()),
            attr: cfg.attr.map(|a| Box::new(AttrAcc::new(a))),
            intervals_on: false,
            cfg,
        }
    }

    /// Reset to the fresh-device state for `cfg`, reusing the large FTL,
    /// timeline, flush-window, eviction-scratch and read-ledger
    /// allocations where the geometry allows. Observationally identical to
    /// `Ssd::new(cfg)` — the pooled fleet engine recycles simulator
    /// instances through this path. `tests/fleet.rs` pins the equivalence
    /// under one config, and a unit test here pins it across configs and
    /// geometries.
    pub fn reset(&mut self, cfg: SimConfig) {
        self.device.reset(&cfg);
        self.window.reset(cfg.submit);
        self.metrics.reset();
        self.logical_now = 0;
        self.req_counter = 0;
        self.last_arrival_ns = 0;
        self.next_sample = 0;
        self.next_overhead_sample = 0;
        self.evict_scratch.clear();
        self.read_cursors.reset(cfg.ssd.total_chips());
        self.attr = cfg.attr.map(|a| Box::new(AttrAcc::new(a)));
        self.intervals_on = false;
        self.cfg = cfg;
    }

    /// Submit one request; returns its response time in ns.
    pub fn submit(&mut self, req: &Request) -> u64 {
        self.submit_recorded(req, &mut NoopRecorder)
    }

    /// Submit one request, streaming page events, flush-wait spans and
    /// periodic samples into `rec`; returns its response time in ns. With a
    /// disabled recorder every per-event hook is skipped — `rec.enabled()`
    /// is consulted once per request. The recorder is a generic parameter
    /// (not `dyn`) so [`Ssd::submit`] monomorphizes with
    /// [`NoopRecorder`]: `enabled()` inlines to `false` and the optimizer
    /// removes every recording branch, leaving the uninstrumented hot path
    /// bit-identical in cost to one with no recorder argument at all.
    ///
    /// The request runs through four stages: `admit`, one buffer step per
    /// page (`buffer_write` or `read`) each followed by `settle_evictions`,
    /// and `complete`. The stages are `#[inline(always)]` so the per-page
    /// loop still compiles as one function: with plain `#[inline]`, an
    /// `hm_1` x3 replay ran 3-22 % slower in four interleaved runs on a
    /// 2-vCPU host.
    pub fn submit_recorded<R: Recorder + ?Sized>(&mut self, req: &Request, rec: &mut R) -> u64 {
        let mut p = self.admit(req, rec);
        let mut evictions = std::mem::take(&mut self.evict_scratch);
        match req.op {
            OpType::Write => {
                self.metrics.write_reqs += 1;
                for lpn in req.lpns() {
                    self.buffer_write(lpn, &mut p, &mut evictions, rec);
                    self.settle_evictions(&mut evictions, &mut p, rec);
                }
            }
            OpType::Read => {
                self.metrics.read_reqs += 1;
                for lpn in req.lpns() {
                    self.read(lpn, &mut p, &mut evictions, rec);
                    // Read-caching policies (CFLRU ablation) may evict
                    // here; same stall rules as the write path.
                    self.settle_evictions(&mut evictions, &mut p, rec);
                }
            }
        }
        self.evict_scratch = evictions;
        self.complete(p, rec)
    }

    /// Admit stage: assign the request id, count it, retire background
    /// flushes that finished before this arrival, and drain the NCQ read
    /// ledger up to it.
    #[inline(always)]
    fn admit<R: Recorder + ?Sized>(&mut self, req: &Request, rec: &R) -> InFlight {
        let on = rec.enabled();
        let at = req.time_ns;
        let req_id = self.req_counter;
        self.req_counter += 1;
        self.metrics.requests += 1;
        self.last_arrival_ns = self.last_arrival_ns.max(at);
        // Attribution is double-gated: the accumulator must be configured
        // AND the recorder live. With `NoopRecorder`, `on` is a constant
        // false and the whole decomposition (including the parts array)
        // monomorphizes away; with a live recorder but no
        // `SimConfig::attr`, every attribution branch is one dead bool
        // test and the recorded telemetry stays byte-identical.
        let attr_on = on && self.attr.is_some();
        if attr_on && !self.intervals_on {
            // First attributed request: start the trace-export interval
            // capture. Lazy so a no-op-recorder run with attribution
            // configured (the bench overhead gate) never allocates it.
            self.intervals_on = true;
            self.device.timeline.enable_interval_capture();
        }
        // Background flushes that retired before this arrival free their
        // window slots (no-op with the zero-capacity depth-1 window).
        self.window.retire_until(at);
        // The outstanding-read ledger is pure instrumentation: only kept
        // when the recorder is live *and* the window admits background
        // work (`Queued { depth >= 2 }`), so the uninstrumented hot path
        // pays nothing and depth-1 telemetry stays byte-identical.
        let track_ncq = on && self.window.capacity() > 0;
        if track_ncq {
            self.read_cursors.drain_ready(at);
        }
        InFlight {
            req_id,
            at,
            pages: req.page_count() as u32,
            on,
            attr_on,
            track_ncq,
            done: at,
            parts: [0; COMPONENTS],
        }
    }

    /// Buffer stage for one written page: one DRAM access. Whatever part
    /// of a victim flush the page forces is charged by
    /// [`Ssd::settle_evictions`] — batch evictions amortize that stall
    /// over every page they free (§4.2.2: "each eviction operation can
    /// make more available cache space"), and striped placement bounds it
    /// to about one program latency, while BPLRU's single-block flushes
    /// serialize.
    #[inline(always)]
    fn buffer_write<R: Recorder + ?Sized>(
        &mut self,
        lpn: Lpn,
        p: &mut InFlight,
        evictions: &mut Vec<EvictionBatch>,
        rec: &mut R,
    ) {
        self.logical_now += 1;
        let a = Access { lpn, req_id: p.req_id, req_pages: p.pages, now: self.logical_now };
        let hit = self.device.cache.write(&a, evictions);
        self.metrics.write_pages += 1;
        if hit {
            self.metrics.write_hits += 1;
        }
        if p.on {
            rec.page(&PageEvent {
                lpn,
                req_id: p.req_id,
                req_pages: p.pages,
                now: self.logical_now,
                is_write: true,
                hit,
            });
        }
        p.advance(p.at + self.cfg.ssd.dram_access_ns, &[], Component::CacheService);
    }

    /// Read stage for one page: a buffer hit costs one DRAM access, a miss
    /// is served from flash (and ledgered per chip when the NCQ ledger is
    /// on).
    #[inline(always)]
    fn read<R: Recorder + ?Sized>(
        &mut self,
        lpn: Lpn,
        p: &mut InFlight,
        evictions: &mut Vec<EvictionBatch>,
        rec: &mut R,
    ) {
        self.logical_now += 1;
        // Warm the FTL mapping entry behind the buffer lookup: on a miss
        // the very next load is `l2p[lpn]`.
        self.device.ftl.prefetch_lpn(lpn);
        let a = Access { lpn, req_id: p.req_id, req_pages: p.pages, now: self.logical_now };
        let hit = self.device.cache.read(&a, evictions);
        self.metrics.read_pages += 1;
        if hit {
            self.metrics.read_hits += 1;
            p.advance(p.at + self.cfg.ssd.dram_access_ns, &[], Component::CacheService);
        } else {
            // Snapshot the device's cumulative retry/GC/queue accounting
            // around the read so the miss's advance can be split by cause
            // (clamped in that order; the remainder is pure read service).
            let (retry0, gc0, wait0) = if p.attr_on {
                let o = self.device.ftl.obs();
                (o.retry_busy_ns, o.gc_busy_ns, self.device.busy().wait_ns)
            } else {
                (0, 0, 0)
            };
            let ready = self.device.ftl.read_page(lpn, p.at, &mut self.device.timeline);
            let (retry_ns, gc_ns, wait_ns) = if p.attr_on {
                let o = self.device.ftl.obs();
                (
                    saturate_u64(o.retry_busy_ns - retry0),
                    saturate_u64(o.gc_busy_ns - gc0),
                    saturate_u64(self.device.busy().wait_ns - wait0),
                )
            } else {
                (0, 0, 0)
            };
            let splits = [
                (Component::ReadRetry, retry_ns),
                (Component::GcInterference, gc_ns),
                (Component::ReadQueueWait, wait_ns),
            ];
            p.advance(ready, &splits, Component::ReadService);
            if p.track_ncq {
                // Ledger the read on the chip that served it; per-chip
                // completion times are monotone (the chip busy horizon
                // only advances), which is what keeps the cursor rings
                // FIFO.
                if let Some(chip) = self.device.ftl.chip_of_lpn(lpn) {
                    self.read_cursors.push(chip, ready);
                }
            }
        }
        if p.on {
            rec.page(&PageEvent {
                lpn,
                req_id: p.req_id,
                req_pages: p.pages,
                now: self.logical_now,
                is_write: false,
                hit,
            });
        }
    }

    /// Settle every batch the last page access evicted
    /// ([`Ssd::settle_flush`]), advance the request to what the host
    /// window makes it wait for, and hand each batch back to the policy.
    #[inline(always)]
    fn settle_evictions<R: Recorder + ?Sized>(
        &mut self,
        evictions: &mut Vec<EvictionBatch>,
        p: &mut InFlight,
        rec: &mut R,
    ) {
        if evictions.is_empty() {
            return;
        }
        for batch in evictions.drain(..) {
            let (visible, gc_ns) = self.settle_flush(&batch, p, rec);
            // Of the wait this flush added, the part the device provably
            // spent garbage-collecting is GC interference; the rest is
            // flush stall.
            p.advance(visible, &[(Component::GcInterference, gc_ns)], Component::FlushStall);
            self.device.cache.recycle(batch);
        }
    }

    /// Settle one eviction batch: flush it ([`Ssd::flush`]) and decide —
    /// via the host's flush window — how much of the flush the triggering
    /// request actually waits for. Returns the completion time visible to
    /// the request plus — when attributing — the GC busy time the flush
    /// provoked (for the caller's flush-stall vs GC-interference split;
    /// always 0 otherwise). The stall past arrival is attributed to the
    /// dedicated flush-wait span so buffer-induced stalls stay
    /// distinguishable from the device service time of the request's own
    /// pages.
    fn settle_flush<R: Recorder + ?Sized>(
        &mut self,
        batch: &EvictionBatch,
        p: &InFlight,
        rec: &mut R,
    ) -> (u64, u64) {
        let at = p.at;
        let gc_before = if p.attr_on { self.device.ftl.obs().gc_busy_ns } else { 0 };
        let Some(ready) = self.flush(batch, at) else {
            return (at, 0);
        };
        let gc_ns =
            if p.attr_on { saturate_u64(self.device.ftl.obs().gc_busy_ns - gc_before) } else { 0 };
        let visible = if self.window.capacity() == 0 {
            // Depth 1: the request waits for its own victim flush — the
            // buffered data cannot be overwritten before it is safe on
            // flash (§4.2.2).
            ready
        } else {
            // Deeper windows: the flush retires in the background. The
            // request stalls only when every window slot is occupied, and
            // then only until the *earliest* outstanding flush retires.
            self.window.admit(ready).unwrap_or(at)
        };
        let stall = visible.saturating_sub(at);
        if stall > 0 {
            self.metrics.flush_stalls += 1;
            self.metrics.flush_stall_ns += stall as u128;
            if p.on {
                rec.span("flush_wait", stall);
            }
        }
        (visible, gc_ns)
    }

    /// Account one eviction batch and write it to flash at `at`: the only
    /// flush step, shared by request-time evictions and the end-of-trace
    /// drain. A clean batch is dropped for free (`None`); a dirty one
    /// pad-reads any missing pages (BPLRU) and then programs every page
    /// per the batch's placement, returning when the flash work finishes.
    fn flush(&mut self, batch: &EvictionBatch, at: u64) -> Option<u64> {
        if !batch.dirty {
            self.metrics.clean_dropped_pages += batch.lpns.len() as u64;
            return None;
        }
        self.metrics.evictions += 1;
        self.metrics.evicted_pages += batch.lpns.len() as u64;
        self.metrics.pad_read_pages += batch.pad_reads.len() as u64;
        let Device { ftl, timeline, .. } = &mut self.device;
        let mut ready = at;
        for &lpn in &batch.pad_reads {
            ready = ready.max(ftl.read_page(lpn, at, timeline));
        }
        Some(ready.max(ftl.write_pages(&batch.lpns, ready, placement_of(batch), timeline)))
    }

    /// Complete stage: record the response, take the metadata-overhead
    /// sample when due, and — on recorded runs — feed the attribution
    /// accumulator and the periodic sampler. Returns the response in ns.
    #[inline(always)]
    fn complete<R: Recorder + ?Sized>(&mut self, p: InFlight, rec: &mut R) -> u64 {
        let response = p.done.saturating_sub(p.at);
        self.metrics.record_response(response);
        if self.cfg.overhead_sample_every > 0 && p.req_id >= self.next_overhead_sample {
            self.next_overhead_sample = p.req_id + self.cfg.overhead_sample_every;
            self.metrics.overhead_samples += 1;
            self.metrics.metadata_bytes_sum += self.cache().metadata_bytes() as u128;
            self.metrics.node_count_sum += self.cache().node_count() as u128;
        }
        if p.on {
            if p.attr_on {
                if let Some(acc) = self.attr.as_deref_mut() {
                    acc.observe(p.req_id, p.at, response, p.parts);
                }
            }
            rec.request_end(p.req_id);
            self.maybe_sample(p.req_id, rec);
        }
        response
    }

    /// Fire the periodic sampler if the configured interval has elapsed.
    fn maybe_sample<R: Recorder + ?Sized>(&mut self, req_id: u64, rec: &mut R) {
        let SampleInterval::Requests(n) = self.cfg.sampling else { return };
        if req_id < self.next_sample {
            return;
        }
        self.next_sample = req_id + n.max(1);
        self.emit_sample(req_id, rec);
    }

    /// The utilization window: how much wall-clock the run spans so far.
    /// Windowing on the *later* of the last arrival and the device's
    /// completion horizon keeps utilization within `[0, 1]` even when
    /// service outruns arrivals (busy time can never exceed the horizon).
    fn utilization_window_ns(&self) -> u64 {
        self.last_arrival_ns.max(self.device.completion_horizon_ns())
    }

    /// Snapshot the device state as one point per time series.
    fn emit_sample<R: Recorder + ?Sized>(&self, t: u64, rec: &mut R) {
        rec.sample("hit_ratio", t, self.metrics.hit_ratio());
        rec.sample("write_amp", t, self.flash_counters().write_amplification());
        rec.sample("chan_util", t, self.device.busy().channel_utilization(self.utilization_window_ns()));
        let occ = self.cache().len_pages() as f64 / self.cache().capacity_pages() as f64;
        rec.sample("buf_occupancy", t, occ);
        rec.sample("free_blocks", t, self.device.ftl.free_blocks_total() as f64);
        if !self.cfg.fault.is_inert() {
            rec.sample("bad_blocks", t, self.device.ftl.bad_blocks_total() as f64);
        }
        if self.window.capacity() > 0 {
            // Host queue occupancy exists only beyond depth 1; gating the
            // series keeps depth-1 telemetry byte-identical.
            rec.sample(series::QDEPTH, t, self.window.outstanding() as f64);
            rec.sample(series::OUTSTANDING_READS, t, self.read_cursors.outstanding() as f64);
        }
        if let Some([irl, srl, drl]) = self.cache().list_occupancy() {
            rec.sample("irl_pages", t, irl as f64);
            rec.sample("srl_pages", t, srl as f64);
            rec.sample("drl_pages", t, drl as f64);
        }
    }

    /// Emit the end-of-run rollup into `rec`: flash/FTL/cache/metric
    /// counters, final gauges, and per-channel busy time. No-op when the
    /// recorder is disabled. Runners call this automatically.
    pub fn finish_recording<R: Recorder + ?Sized>(&mut self, rec: &mut R) {
        if !rec.enabled() {
            return;
        }
        let m = &self.metrics;
        rec.counter("requests", m.requests);
        rec.counter("read_reqs", m.read_reqs);
        rec.counter("write_reqs", m.write_reqs);
        rec.counter("read_pages", m.read_pages);
        rec.counter("write_pages", m.write_pages);
        rec.counter("read_hits", m.read_hits);
        rec.counter("write_hits", m.write_hits);
        rec.counter("evictions", m.evictions);
        rec.counter("evicted_pages", m.evicted_pages);
        rec.counter("clean_dropped_pages", m.clean_dropped_pages);
        rec.counter("pad_read_pages", m.pad_read_pages);
        rec.counter("flush_stalls", m.flush_stalls);
        rec.counter("flush_stall_ns", saturate_u64(m.flush_stall_ns));

        let c = *self.flash_counters();
        rec.counter("flash_user_reads", c.user_reads);
        rec.counter("flash_user_programs", c.user_programs);
        rec.counter("flash_gc_reads", c.gc_reads);
        rec.counter("flash_gc_programs", c.gc_programs);
        rec.counter("flash_erases", c.erases);

        let f = *self.ftl_stats();
        rec.counter("gc_runs", f.gc_runs);
        rec.counter("gc_migrated_pages", f.gc_migrated_pages);
        rec.counter("gc_erased_blocks", f.gc_erased_blocks);
        rec.counter("unmapped_reads", f.unmapped_reads);
        let o = *self.device.ftl.obs();
        rec.counter("gc_busy_ns", saturate_u64(o.gc_busy_ns));
        rec.gauge("gc_max_pause_ms", o.gc_max_pause_ns as f64 / 1e6);

        // Reliability rollup: emitted only when fault injection is
        // configured, so zero-fault telemetry stays byte-identical to
        // pre-reliability-layer runs.
        if !self.cfg.fault.is_inert() || self.cfg.fault.read_only_free_floor > 0 {
            let fs = *self.fault_stats();
            rec.counter("fault_read_faults", fs.read_faults);
            rec.counter("fault_read_retries", fs.read_retries);
            rec.counter("fault_read_uncorrectable", fs.read_uncorrectable);
            rec.counter("fault_program_failures", fs.program_failures);
            rec.counter("fault_erase_failures", fs.erase_failures);
            rec.counter("bad_blocks_retired", fs.retired_blocks);
            rec.counter("remapped_pages", fs.remapped_pages);
            rec.counter("rejected_write_pages", fs.rejected_write_pages);
            rec.gauge("bad_blocks", self.device.ftl.bad_blocks_total() as f64);
            rec.gauge("device_read_only", if self.device.ftl.is_read_only() { 1.0 } else { 0.0 });
        }

        if let Some(ev) = self.cache().events() {
            rec.counter("cache_srl_upgrades", ev.srl_upgrades);
            rec.counter("cache_drl_splits", ev.drl_splits);
            rec.counter("cache_downgrade_merges", ev.downgrade_merges);
            rec.counter("cache_victim_selections", ev.victim_selections);
        }

        let busy = self.device.busy().clone();
        rec.counter("flash_waits", busy.waited_ops);
        rec.counter("flash_wait_ns", saturate_u64(busy.wait_ns));
        for (ch, &ns) in busy.channel_busy_ns.iter().enumerate() {
            rec.gauge(&format!("chan{ch}_busy_ms"), ns as f64 / 1e6);
        }
        let chips = &busy.chip_busy_ns;
        if !chips.is_empty() {
            let max = chips.iter().copied().max().unwrap_or(0);
            let mean = chips.iter().map(|&n| n as u128).sum::<u128>() as f64 / chips.len() as f64;
            rec.gauge("chip_busy_ms_max", max as f64 / 1e6);
            rec.gauge("chip_busy_ms_mean", mean / 1e6);
        }

        rec.gauge("hit_ratio", m.hit_ratio());
        rec.gauge("write_amp", c.write_amplification());
        rec.gauge("chan_util", busy.channel_utilization(self.utilization_window_ns()));
        rec.gauge(
            "buf_occupancy",
            self.cache().len_pages() as f64 / self.cache().capacity_pages() as f64,
        );
        rec.gauge("free_blocks", self.device.ftl.free_blocks_total() as f64);
        rec.gauge("avg_response_ms", m.avg_response_ms());
        rec.gauge("p99_response_ms", m.response_percentile_ms(0.99));
        rec.gauge("avg_flush_stall_ms", m.avg_flush_stall_ms());

        // Host rollup: only a window deeper than 1 has anything to report,
        // and gating it keeps depth-1 JSONL byte-identical.
        if self.window.capacity() > 0 {
            let SubmitMode::Queued { depth } = self.cfg.submit;
            rec.gauge(series::HOST_QDEPTH, depth as f64);
            rec.gauge(series::HOST_MAX_OUTSTANDING, self.window.max_outstanding() as f64);
            rec.gauge(
                series::HOST_MAX_READS_OUTSTANDING,
                self.read_cursors.max_outstanding() as f64,
            );
        }

        // Attribution rollup: emitted only when [`SimConfig::attr`] is
        // configured, so plain recorded telemetry stays byte-identical to
        // pre-attribution runs. All components are emitted (even all-zero
        // ones) so the key set is stable across policies and loads.
        if let Some(acc) = self.attr.as_deref() {
            for comp in Component::ALL {
                let h = acc.component_hist(comp);
                let name = comp.name();
                rec.counter(
                    &format!("{}{name}_ns", series::ATTR_PREFIX),
                    saturate_u64(acc.total_ns(comp)),
                );
                rec.counter(&format!("{}{name}_reqs", series::ATTR_PREFIX), h.count());
                rec.gauge(&format!("{}{name}_max_ms", series::ATTR_PREFIX), h.max() as f64 / 1e6);
            }
            rec.counter(series::ATTR_SAMPLED_SPANS, acc.sampled_spans().len() as u64);
            rec.counter("attr_dropped_samples", acc.dropped_samples());
            rec.gauge(
                series::ATTR_P99_RESPONSE_MS,
                acc.response_hist().quantile_upper(0.99).unwrap_or(0) as f64 / 1e6,
            );
        }
    }

    /// Flush everything still buffered (end-of-trace), batch by batch
    /// through the same flush step as an eviction. The flush traffic is
    /// counted in the flash counters but not in request response times; it
    /// is issued at the run's completion horizon so it lands on the
    /// timelines *after* every request has arrived and been served.
    pub fn drain_cache(&mut self) {
        let at = self.utilization_window_ns();
        for batch in self.device.cache.drain() {
            self.flush(&batch, at);
        }
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Flash operation counters (user/GC programs, reads, erases).
    pub fn flash_counters(&self) -> &OpCounters {
        self.device.timeline.counters()
    }

    /// FTL/GC statistics.
    pub fn ftl_stats(&self) -> &FtlStats {
        self.device.ftl.stats()
    }

    /// Reliability counters (all zero with the default zero-fault config).
    pub fn fault_stats(&self) -> &FaultStats {
        self.device.ftl.fault_stats()
    }

    /// Current device health (degrades under fault injection).
    pub fn health(&self) -> Health {
        self.device.ftl.health()
    }

    /// The cache policy (for occupancy queries and event counters).
    pub fn cache(&self) -> &dyn WriteBuffer {
        self.device.cache.as_dyn()
    }

    /// Run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The device: flash busy time, completion horizons and captured busy
    /// intervals.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The host flush window (queued-mode occupancy diagnostics).
    pub fn window(&self) -> &FlushWindow {
        &self.window
    }

    /// Per-request latency attribution, when [`SimConfig::attr`] is set;
    /// idle (zero requests) until a recorded run feeds it. Captured busy
    /// intervals for trace export are reachable through [`Ssd::device`].
    pub fn attribution(&self) -> Option<&AttrAcc> {
        self.attr.as_deref()
    }
}

/// Per-request state the submit stages thread through: identity, the
/// recorder gates (evaluated once per request), and the running completion
/// time with its per-component attribution.
struct InFlight {
    req_id: u64,
    /// Arrival time (ns); response times count from here.
    at: u64,
    pages: u32,
    /// The recorder is live.
    on: bool,
    /// The recorder is live and [`SimConfig::attr`] is set.
    attr_on: bool,
    /// The NCQ outstanding-read ledger is maintained for this request.
    track_ncq: bool,
    /// Completion time so far (starts at arrival).
    done: u64,
    /// Per-component shares of `done - at`; every advance of `done` is
    /// charged to exactly one component, so the parts sum to the response
    /// by construction.
    parts: [u64; COMPONENTS],
}

impl InFlight {
    /// Advance the completion time to at least `to`; when attributing,
    /// charge the advance per [`attribute_advance`].
    #[inline]
    fn advance(&mut self, to: u64, splits: &[(Component, u64)], rest: Component) {
        if self.attr_on {
            attribute_advance(&mut self.done, to, &mut self.parts, splits, rest);
        } else {
            self.done = self.done.max(to);
        }
    }
}

/// Map a batch's cache-level placement to the FTL's.
fn placement_of(batch: &EvictionBatch) -> FtlPlacement {
    match batch.placement {
        CachePlacement::Striped => FtlPlacement::Striped,
        CachePlacement::SingleBlock => FtlPlacement::SingleBlock,
    }
}

/// Clamp a u128 nanosecond total into the u64 counter domain.
fn saturate_u64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Advance `done` to at least `to`, attributing the advance delta across
/// `splits` in order (each clamped to what remains) with the remainder
/// charged to `rest`. Because every nanosecond of advance lands in exactly
/// one component, a request's parts sum exactly to its response time —
/// the invariant the workspace attribution proptest pins.
#[inline]
fn attribute_advance(
    done: &mut u64,
    to: u64,
    parts: &mut [u64; COMPONENTS],
    splits: &[(Component, u64)],
    rest: Component,
) {
    let before = *done;
    *done = before.max(to);
    let mut delta = *done - before;
    for &(c, cap) in splits {
        let take = delta.min(cap);
        parts[c.index()] += take;
        delta -= take;
    }
    parts[rest.index()] += delta;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyKind, SampleInterval};
    use reqblock_cache::policies::{BplruConfig, CflruConfig};
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
        // That flush is the only flash work so far, so at depth 1 the
        // request completes exactly at the device's completion horizon.
        assert_eq!(r, ssd.device().completion_horizon_ns() - 100);
        assert_eq!(ssd.metrics().evictions, 1);
        assert_eq!(ssd.flash_counters().user_programs, 1);
    }

    #[test]
    fn clean_evictions_are_dropped_without_flash_traffic() {
        // Read-caching CFLRU inserts read misses as clean pages: evicting
        // them programs nothing and stalls nobody.
        let policy = PolicyKind::Cflru(CflruConfig { cache_reads: true, ..CflruConfig::default() });
        let mut ssd = tiny(policy, 4);
        for i in 0..12u64 {
            ssd.submit(&Request::read_pages(i * 1_000_000, i, 1));
        }
        let m = ssd.metrics();
        assert_eq!(m.clean_dropped_pages, 8, "12 distinct misses through 4 slots");
        assert_eq!((m.evictions, m.flush_stalls, m.flush_stall_ns), (0, 0, 0));
        assert_eq!(ssd.flash_counters().user_programs, 0);
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
    fn drain_pads_and_drops_like_an_eviction() {
        // Padded BPLRU writes back whole logical blocks (8 pages on the
        // tiny device): the drain pad-reads the 7 pages the buffer lacks,
        // exactly as evicting the same block does.
        let padded = PolicyKind::Bplru(BplruConfig { page_padding: true });
        let mut drained = tiny(padded, 16);
        drained.submit(&Request::write_pages(0, 0, 1));
        drained.drain_cache();
        let mut evicted = tiny(padded, 1);
        evicted.submit(&Request::write_pages(0, 0, 1));
        evicted.submit(&Request::write_pages(1_000, 8, 1));
        for ssd in [&drained, &evicted] {
            assert_eq!(ssd.metrics().pad_read_pages, 7);
            assert_eq!(ssd.flash_counters().user_reads, 7);
            assert_eq!(ssd.flash_counters().user_programs, 8);
        }
        // Read-caching CFLRU drains its clean pages as dropped, not lost.
        let policy = PolicyKind::Cflru(CflruConfig { cache_reads: true, ..CflruConfig::default() });
        let mut ssd = tiny(policy, 4);
        ssd.submit(&Request::write_pages(0, 0, 1));
        for i in 1..4u64 {
            ssd.submit(&Request::read_pages(i * 1_000_000, i, 1));
        }
        ssd.drain_cache();
        let m = ssd.metrics();
        assert_eq!((m.evicted_pages, m.clean_dropped_pages), (1, 3));
        assert_eq!(ssd.flash_counters().user_programs, 1);
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
    fn lru_sampler_emits_no_list_series() {
        let cfg = SimConfig::tiny(16, PolicyKind::Lru).with_sampling(SampleInterval::Requests(2));
        let mut ssd = Ssd::new(cfg);
        let mut rec = MemoryRecorder::default();
        for i in 0..5u64 {
            ssd.submit_recorded(&Request::write_pages(i, i, 1), &mut rec);
        }
        assert_eq!(rec.series_points("buf_occupancy").len(), 3);
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

    #[test]
    fn reset_to_another_config_matches_a_fresh_ssd() {
        use crate::config::CacheSizeMb;
        use reqblock_flash::FaultConfig;
        use reqblock_obs::telemetry::to_jsonl;
        use reqblock_obs::AttrConfig;
        // Dirty every piece of per-run state: the queued window and read
        // ledger, attribution with lazily enabled interval capture, the
        // sampler, and fault-retired blocks.
        let dirty = SimConfig::tiny(8, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
            .with_submit(SubmitMode::Queued { depth: 8 })
            .with_attribution(AttrConfig { sample_every: 3, slowest: 4, seed: 11 })
            .with_sampling(SampleInterval::Requests(4))
            .with_faults(FaultConfig::with_rates(5, 200_000, 20_000, 0));
        let stream: Vec<Request> = (0..160u64)
            .map(|i| {
                let (at, lpn, pages) = (i * 20_000, (i * 7) % 96, 1 + i % 4);
                if i % 3 == 0 {
                    Request::read_pages(at, lpn, pages)
                } else {
                    Request::write_pages(at, lpn, pages)
                }
            })
            .collect();
        let replay = |ssd: &mut Ssd| {
            let mut rec = MemoryRecorder::default();
            for req in &stream {
                ssd.submit_recorded(req, &mut rec);
            }
            ssd.finish_recording(&mut rec);
            to_jsonl(&rec, &[])
        };
        // The FTL resets in place on the tiny geometry and rebuilds for
        // the paper one.
        let targets = [
            ("same config", dirty.clone()),
            ("depth-1 LRU", SimConfig::tiny(8, PolicyKind::Lru)),
            ("paper geometry", SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::Lru)),
        ];
        for (label, target) in targets {
            let mut reused = Ssd::new(dirty.clone());
            replay(&mut reused);
            assert!(reused.fault_stats().read_faults > 0, "faults must fire while dirtying");
            reused.reset(target.clone());
            let got = replay(&mut reused);
            let mut fresh = Ssd::new(target);
            let want = replay(&mut fresh);
            assert_eq!(reused.metrics(), fresh.metrics(), "{label}");
            assert_eq!(reused.flash_counters(), fresh.flash_counters(), "{label}");
            assert_eq!(reused.ftl_stats(), fresh.ftl_stats(), "{label}");
            assert_eq!(reused.fault_stats(), fresh.fault_stats(), "{label}");
            let (r, f) = (reused.window(), fresh.window());
            assert_eq!(r.max_outstanding(), f.max_outstanding(), "{label}");
            assert_eq!(reused.attribution(), fresh.attribution(), "{label}");
            let (r, f) = (reused.device(), fresh.device());
            assert_eq!(r.busy_intervals(), f.busy_intervals(), "{label}");
            assert_eq!(got, want, "{label}: telemetry JSONL");
        }
    }
}
