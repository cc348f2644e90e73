//! Engine layer: request identity, metrics, sampling and telemetry.
//!
//! The [`Engine`] drives the [`Device`] one request at a time and owns
//! everything *about* the run that is not device state: the monotone
//! request counter, the logical page clock (Eq. 1's time base), the
//! [`Metrics`] accumulators, the periodic time-series sampler, and the
//! end-of-run recorder rollup. It is host-mode agnostic: the caller passes
//! the host's [`FlushWindow`], and the only thing the window changes is
//! *when a flush's completion becomes visible to the triggering request* —
//! with the zero-capacity depth-1 window every flush is waited on in
//! place, reproducing the paper's model byte-for-byte.

use crate::config::{SampleInterval, SimConfig};
use crate::device::Device;
use crate::event::ChipCursors;
use crate::host::{FlushWindow, SubmitMode};
use crate::metrics::Metrics;
use reqblock_cache::{Access, EvictionBatch};
use reqblock_obs::attr::COMPONENTS;
use reqblock_obs::{series, AttrAcc, Component, PageEvent, Recorder};
use reqblock_trace::{Lpn, OpType, Request};

/// Per-run orchestration state between the host interface and the device.
pub struct Engine {
    cfg: SimConfig,
    device: Device,
    metrics: Metrics,
    /// Logical time: pages processed so far (the time base of Eq. 1).
    logical_now: u64,
    /// Monotone request counter (request-block identity).
    req_counter: u64,
    /// Arrival time (ns) of the most recent request.
    last_arrival_ns: u64,
    /// Next `t` (request index or arrival ns, per the sampling mode) at
    /// which the time-series sampler fires. Starts at 0 so the first
    /// request is always sampled.
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
    /// Whether the device's busy-interval capture has been switched on
    /// (lazily, at the first attributed request — a `NoopRecorder` run
    /// with attribution configured never enables it).
    intervals_on: bool,
}

impl Engine {
    /// Build the engine and its device per `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        let device = Device::new(&cfg);
        Self {
            device,
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

    /// Reset to the fresh state for `cfg`, reusing the device's large
    /// allocations ([`Device::reset`]) plus the eviction scratch vector and
    /// the per-chip read-cursor rings. Observationally identical to
    /// `Engine::new(cfg)`.
    pub fn reset(&mut self, cfg: SimConfig) {
        self.device.reset(&cfg);
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

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The device under this engine.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The attribution accumulator, when [`SimConfig::attr`] is set and at
    /// least one recorded request ran through it.
    pub fn attribution(&self) -> Option<&AttrAcc> {
        self.attr.as_deref()
    }

    /// Settle one eviction batch: account it, time it on the device, and
    /// decide — via the host's flush window — how much of the flush the
    /// triggering request actually waits for. Returns the completion time
    /// visible to the request plus — when attributing — the GC busy time
    /// the flush provoked (for the caller's flush-stall vs GC-interference
    /// split; always 0 otherwise). The stall past arrival is attributed to
    /// the dedicated flush-wait span so buffer-induced stalls stay
    /// distinguishable from the device service time of the request's own
    /// pages.
    fn settle_flush<R: Recorder + ?Sized>(
        &mut self,
        batch: &EvictionBatch,
        p: &InFlight,
        rec: &mut R,
        window: &mut FlushWindow,
    ) -> (u64, u64) {
        let at = p.at;
        if !batch.dirty {
            self.metrics.clean_dropped_pages += batch.lpns.len() as u64;
            return (at, 0);
        }
        self.metrics.evictions += 1;
        self.metrics.evicted_pages += batch.lpns.len() as u64;
        self.metrics.pad_read_pages += batch.pad_reads.len() as u64;
        let gc_before = if p.attr_on { self.device.ftl_obs().gc_busy_ns } else { 0 };
        let completion = self.device.flush(batch, at);
        let gc_ns =
            if p.attr_on { saturate_u64(self.device.ftl_obs().gc_busy_ns - gc_before) } else { 0 };
        let visible = if window.capacity() == 0 {
            // Depth 1: the request waits for its own victim flush — the
            // buffered data cannot be overwritten before it is safe on
            // flash (§4.2.2).
            completion.ready_ns
        } else {
            // Deeper windows: the flush retires in the background. The
            // request stalls only when every window slot is occupied, and
            // then only until the *earliest* outstanding flush retires.
            window.admit(completion.ready_ns).unwrap_or(at)
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

    /// Submit one request, streaming page events, flush-wait spans and
    /// periodic samples into `rec`. With a disabled recorder every
    /// per-event hook is skipped — `rec.enabled()` is consulted once per
    /// request. The recorder is a generic parameter (not `dyn`) so the
    /// plain submit path monomorphizes with
    /// [`reqblock_obs::NoopRecorder`]: `enabled()` inlines to `false` and
    /// the optimizer removes every recording branch, leaving the
    /// uninstrumented hot path bit-identical in cost to one with no
    /// recorder argument at all.
    ///
    /// The request runs through four stages: `admit`, one buffer step per
    /// page (`buffer_write` or `read`) each followed by `settle_evictions`,
    /// and `complete`. The stages are `#[inline(always)]` so the per-page
    /// loop still compiles as one function: with plain `#[inline]`, an
    /// `hm_1` x3 replay ran 3-22 % slower in four interleaved runs on a
    /// 2-vCPU host.
    pub fn submit_recorded<R: Recorder + ?Sized>(
        &mut self,
        req: &Request,
        rec: &mut R,
        window: &mut FlushWindow,
    ) -> u64 {
        let mut p = self.admit(req, rec, window);
        let mut evictions = std::mem::take(&mut self.evict_scratch);
        match req.op {
            OpType::Write => {
                self.metrics.write_reqs += 1;
                for lpn in req.lpns() {
                    self.buffer_write(lpn, &mut p, &mut evictions, rec);
                    self.settle_evictions(&mut evictions, &mut p, rec, window);
                }
            }
            OpType::Read => {
                self.metrics.read_reqs += 1;
                for lpn in req.lpns() {
                    self.read(lpn, &mut p, &mut evictions, rec);
                    // Read-caching policies (CFLRU ablation) may evict
                    // here; same stall rules as the write path.
                    self.settle_evictions(&mut evictions, &mut p, rec, window);
                }
            }
        }
        self.evict_scratch = evictions;
        self.complete(p, rec, window)
    }

    /// Admit stage: assign the request id, count it, retire background
    /// flushes that finished before this arrival, and drain the NCQ read
    /// ledger up to it.
    #[inline(always)]
    fn admit<R: Recorder + ?Sized>(
        &mut self,
        req: &Request,
        rec: &R,
        window: &mut FlushWindow,
    ) -> InFlight {
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
            self.device.enable_busy_intervals();
        }
        // Background flushes that retired before this arrival free their
        // window slots (no-op with the zero-capacity depth-1 window).
        window.retire_until(at);
        // The outstanding-read ledger is pure instrumentation: only kept
        // when the recorder is live *and* the window admits background
        // work (`Queued { depth >= 2 }`), so the uninstrumented hot path
        // pays nothing and depth-1 telemetry stays byte-identical.
        let track_ncq = on && window.capacity() > 0;
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
    /// [`Engine::settle_evictions`] — batch evictions amortize that stall
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
        let hit = self.device.buffer_write(&a, evictions);
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
        p.advance(p.at + self.device.dram_access_ns(), &[], Component::CacheService);
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
        self.device.prefetch_read(lpn);
        let a = Access { lpn, req_id: p.req_id, req_pages: p.pages, now: self.logical_now };
        let hit = self.device.buffer_read(&a, evictions);
        self.metrics.read_pages += 1;
        if hit {
            self.metrics.read_hits += 1;
            p.advance(p.at + self.device.dram_access_ns(), &[], Component::CacheService);
        } else {
            // Snapshot the device's cumulative retry/GC/queue accounting
            // around the read so the miss's advance can be split by cause
            // (clamped in that order; the remainder is pure read service).
            let (retry0, gc0, wait0) = if p.attr_on {
                let o = self.device.ftl_obs();
                (o.retry_busy_ns, o.gc_busy_ns, self.device.busy().wait_ns)
            } else {
                (0, 0, 0)
            };
            let c = self.device.flash_read(lpn, p.at);
            let (retry_ns, gc_ns, wait_ns) = if p.attr_on {
                let o = self.device.ftl_obs();
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
            p.advance(c.ready_ns, &splits, Component::ReadService);
            if p.track_ncq {
                // Ledger the read on the chip that served it; per-chip
                // completion times are monotone (the chip busy horizon
                // only advances), which is what keeps the cursor rings
                // FIFO.
                if let Some(chip) = self.device.chip_of_lpn(lpn) {
                    self.read_cursors.push(chip, c.ready_ns);
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
    /// ([`Engine::settle_flush`]), advance the request to what the host
    /// window makes it wait for, and hand each batch back to the policy.
    #[inline(always)]
    fn settle_evictions<R: Recorder + ?Sized>(
        &mut self,
        evictions: &mut Vec<EvictionBatch>,
        p: &mut InFlight,
        rec: &mut R,
        window: &mut FlushWindow,
    ) {
        if evictions.is_empty() {
            return;
        }
        for batch in evictions.drain(..) {
            let (visible, gc_ns) = self.settle_flush(&batch, p, rec, window);
            // Of the wait this flush added, the part the device provably
            // spent garbage-collecting is GC interference; the rest is
            // flush stall.
            p.advance(visible, &[(Component::GcInterference, gc_ns)], Component::FlushStall);
            self.device.recycle(batch);
        }
    }

    /// Complete stage: record the response, take the metadata-overhead
    /// sample when due, and — on recorded runs — feed the attribution
    /// accumulator and the periodic sampler. Returns the response in ns.
    #[inline(always)]
    fn complete<R: Recorder + ?Sized>(
        &mut self,
        p: InFlight,
        rec: &mut R,
        window: &FlushWindow,
    ) -> u64 {
        let response = p.done.saturating_sub(p.at);
        self.metrics.record_response(response);
        if self.cfg.overhead_sample_every > 0 && p.req_id >= self.next_overhead_sample {
            self.next_overhead_sample = p.req_id + self.cfg.overhead_sample_every;
            self.metrics.overhead_samples += 1;
            self.metrics.metadata_bytes_sum += self.device.cache().metadata_bytes() as u128;
            self.metrics.node_count_sum += self.device.cache().node_count() as u128;
        }
        if p.on {
            if p.attr_on {
                if let Some(acc) = self.attr.as_deref_mut() {
                    acc.observe(p.req_id, p.at, response, p.parts);
                }
            }
            rec.request_end(p.req_id);
            self.maybe_sample(p.req_id, p.at, rec, window);
        }
        response
    }

    /// Fire the periodic sampler if the configured interval has elapsed.
    fn maybe_sample<R: Recorder + ?Sized>(
        &mut self,
        req_id: u64,
        arrival_ns: u64,
        rec: &mut R,
        window: &FlushWindow,
    ) {
        let t = match self.cfg.sampling {
            SampleInterval::Off => return,
            SampleInterval::Requests(n) => {
                if req_id < self.next_sample {
                    return;
                }
                self.next_sample = req_id + n.max(1);
                req_id
            }
            SampleInterval::SimTimeNs(dt) => {
                if arrival_ns < self.next_sample {
                    return;
                }
                self.next_sample = arrival_ns + dt.max(1);
                arrival_ns
            }
        };
        self.emit_sample(t, rec, window);
    }

    /// The utilization window: how much wall-clock the run spans so far.
    /// Windowing on the *later* of the last arrival and the device's
    /// completion horizon keeps utilization within `[0, 1]` even when
    /// service outruns arrivals (busy time can never exceed the horizon).
    fn utilization_window_ns(&self) -> u64 {
        self.last_arrival_ns.max(self.device.completion_horizon_ns())
    }

    /// Snapshot the device state as one point per time series.
    fn emit_sample<R: Recorder + ?Sized>(&self, t: u64, rec: &mut R, window: &FlushWindow) {
        rec.sample("hit_ratio", t, self.metrics.hit_ratio());
        rec.sample("write_amp", t, self.device.flash_counters().write_amplification());
        rec.sample("chan_util", t, self.device.busy().channel_utilization(self.utilization_window_ns()));
        let occ = self.device.cache().len_pages() as f64 / self.device.cache().capacity_pages() as f64;
        rec.sample("buf_occupancy", t, occ);
        rec.sample("free_blocks", t, self.device.free_blocks_total() as f64);
        if !self.cfg.fault.is_inert() {
            rec.sample("bad_blocks", t, self.device.bad_blocks_total() as f64);
        }
        if window.capacity() > 0 {
            // Host queue occupancy exists only beyond depth 1; gating the
            // series keeps depth-1 telemetry byte-identical.
            rec.sample(series::QDEPTH, t, window.outstanding() as f64);
            rec.sample(series::OUTSTANDING_READS, t, self.read_cursors.outstanding() as f64);
        }
        if let Some([irl, srl, drl]) = self.device.cache().list_occupancy() {
            rec.sample("irl_pages", t, irl as f64);
            rec.sample("srl_pages", t, srl as f64);
            rec.sample("drl_pages", t, drl as f64);
        }
    }

    /// Emit the end-of-run rollup into `rec`: flash/FTL/cache/metric
    /// counters, final gauges, and per-channel busy time. No-op when the
    /// recorder is disabled. Runners call this automatically.
    pub fn finish_recording<R: Recorder + ?Sized>(&mut self, rec: &mut R, window: &FlushWindow) {
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

        let c = *self.device.flash_counters();
        rec.counter("flash_user_reads", c.user_reads);
        rec.counter("flash_user_programs", c.user_programs);
        rec.counter("flash_gc_reads", c.gc_reads);
        rec.counter("flash_gc_programs", c.gc_programs);
        rec.counter("flash_erases", c.erases);

        let f = *self.device.ftl_stats();
        rec.counter("gc_runs", f.gc_runs);
        rec.counter("gc_migrated_pages", f.gc_migrated_pages);
        rec.counter("gc_erased_blocks", f.gc_erased_blocks);
        rec.counter("unmapped_reads", f.unmapped_reads);
        let o = *self.device.ftl_obs();
        rec.counter("gc_busy_ns", saturate_u64(o.gc_busy_ns));
        rec.gauge("gc_max_pause_ms", o.gc_max_pause_ns as f64 / 1e6);

        // Reliability rollup: emitted only when fault injection is
        // configured, so zero-fault telemetry stays byte-identical to
        // pre-reliability-layer runs.
        if !self.cfg.fault.is_inert() || self.cfg.fault.read_only_free_floor > 0 {
            let fs = *self.device.fault_stats();
            rec.counter("fault_read_faults", fs.read_faults);
            rec.counter("fault_read_retries", fs.read_retries);
            rec.counter("fault_read_uncorrectable", fs.read_uncorrectable);
            rec.counter("fault_program_failures", fs.program_failures);
            rec.counter("fault_erase_failures", fs.erase_failures);
            rec.counter("bad_blocks_retired", fs.retired_blocks);
            rec.counter("remapped_pages", fs.remapped_pages);
            rec.counter("rejected_write_pages", fs.rejected_write_pages);
            rec.gauge("bad_blocks", self.device.bad_blocks_total() as f64);
            rec.gauge("device_read_only", if self.device.is_read_only() { 1.0 } else { 0.0 });
        }

        if let Some(ev) = self.device.cache().events() {
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
            self.device.cache().len_pages() as f64 / self.device.cache().capacity_pages() as f64,
        );
        rec.gauge("free_blocks", self.device.free_blocks_total() as f64);
        rec.gauge("avg_response_ms", m.avg_response_ms());
        rec.gauge("p99_response_ms", m.response_percentile_ms(0.99));
        rec.gauge("avg_flush_stall_ms", m.avg_flush_stall_ms());

        // Host-layer rollup: only a window deeper than 1 has anything to
        // report, and gating it keeps depth-1 JSONL byte-identical.
        if window.capacity() > 0 {
            let SubmitMode::Queued { depth } = self.cfg.submit;
            rec.gauge(series::HOST_QDEPTH, depth as f64);
            rec.gauge(series::HOST_MAX_OUTSTANDING, window.max_outstanding() as f64);
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

    /// Flush everything still buffered (end-of-trace). The flush traffic is
    /// counted in the flash counters but not in request response times; it
    /// is issued at the run's completion horizon so it lands on the
    /// timelines *after* every request has arrived and been served.
    pub fn drain_cache(&mut self) {
        let at = self.utilization_window_ns();
        for batch in self.device.drain_buffer() {
            if batch.dirty {
                self.metrics.evictions += 1;
                self.metrics.evicted_pages += batch.lpns.len() as u64;
                self.device.write_back(&batch, at);
            }
        }
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
