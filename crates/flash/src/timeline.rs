//! Resource timelines: when is each channel bus and each chip free?
//!
//! The simulator is trace-driven rather than event-driven: operations are
//! issued in request order, and each operation reserves its resources by
//! advancing per-resource "busy until" horizons. This is the standard
//! technique SSDsim-style simulators use for open-loop trace replay and it
//! captures the effects the paper's evaluation depends on:
//!
//! * two programs to chips on *different* channels overlap fully;
//! * two programs to the *same* chip serialize on the array;
//! * two operations on different chips of the same channel serialize only
//!   for their bus-transfer phases (the array phases overlap);
//! * a GC erase makes the chip unavailable for 15 ms, which later operations
//!   on that chip observe as queueing delay.
//!
//! Operation anatomy:
//!
//! * **read**: array sense (`read_latency`) on the chip, then bus transfer
//!   out (`page_transfer`), holding the chip until the transfer completes
//!   (data sits in the chip's page register until moved out);
//! * **program**: bus transfer in, then array program; the bus is released
//!   once the transfer is done, the chip when the program finishes;
//! * **erase**: chip only, no bus traffic.

use crate::addr::ChipId;
use crate::config::SsdConfig;
use serde::{Deserialize, Serialize};

/// Start and end of a scheduled flash operation, in simulated ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the operation began occupying its first resource.
    pub start_ns: u64,
    /// When its last resource was released (the operation's finish time).
    pub end_ns: u64,
}

/// Running totals of flash operations, split by originator so the harness
/// can report user-visible flushes (Figure 11) separately from GC traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounters {
    /// Host/user page reads.
    pub user_reads: u64,
    /// Pages programmed on behalf of cache flushes (Figure 11's write count).
    pub user_programs: u64,
    /// Pages read back during GC valid-page migration.
    pub gc_reads: u64,
    /// Pages programmed during GC valid-page migration.
    pub gc_programs: u64,
    /// Block erases.
    pub erases: u64,
}

impl OpCounters {
    /// All page programs (user + GC), the write-amplification numerator.
    pub fn total_programs(&self) -> u64 {
        self.user_programs + self.gc_programs
    }

    /// Write amplification factor; 1.0 when no GC traffic has occurred.
    pub fn write_amplification(&self) -> f64 {
        if self.user_programs == 0 {
            return 1.0;
        }
        self.total_programs() as f64 / self.user_programs as f64
    }
}

/// Always-on busy-time accounting, kept separate from [`OpCounters`] (whose
/// exact shape is pinned by golden tests). Busy horizons say when a resource
/// frees up; these say how much of the elapsed run each resource actually
/// worked — the basis of the channel-utilization time series and the
/// queueing-delay diagnostics of the observability layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusyStats {
    /// Bus-transfer time accumulated per channel, ns.
    pub channel_busy_ns: Vec<u64>,
    /// Array + register occupancy accumulated per chip, ns.
    pub chip_busy_ns: Vec<u64>,
    /// Total time operations spent queued behind busy resources (start
    /// delayed past the requested issue time), ns.
    pub wait_ns: u128,
    /// Operations that had to wait at all.
    pub waited_ops: u64,
}

impl BusyStats {
    fn new(channels: usize, chips: usize) -> Self {
        Self {
            channel_busy_ns: vec![0; channels],
            chip_busy_ns: vec![0; chips],
            wait_ns: 0,
            waited_ops: 0,
        }
    }

    fn note_wait(&mut self, requested_ns: u64, start_ns: u64) {
        let wait = start_ns.saturating_sub(requested_ns);
        if wait > 0 {
            self.wait_ns += wait as u128;
            self.waited_ops += 1;
        }
    }

    /// Sum of per-channel bus busy time, ns.
    pub fn total_channel_busy_ns(&self) -> u128 {
        self.channel_busy_ns.iter().map(|&b| b as u128).sum()
    }

    /// Sum of per-chip busy time, ns.
    pub fn total_chip_busy_ns(&self) -> u128 {
        self.chip_busy_ns.iter().map(|&b| b as u128).sum()
    }

    /// Mean channel (bus) utilization over `[0, now_ns]`; 0 when `now_ns`
    /// is 0. Can exceed 1.0 when horizons run past `now_ns` (overload).
    pub fn channel_utilization(&self, now_ns: u64) -> f64 {
        if now_ns == 0 || self.channel_busy_ns.is_empty() {
            return 0.0;
        }
        self.total_channel_busy_ns() as f64
            / (self.channel_busy_ns.len() as u128 * now_ns as u128) as f64
    }
}

/// Who issued an operation (for counter attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Host request or cache flush.
    User,
    /// Garbage-collection traffic.
    Gc,
}

/// Kind of a captured flash operation (interval labelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Page read (sense + transfer out).
    Read,
    /// Page program (transfer in + array program).
    Program,
    /// Block erase.
    Erase,
}

impl OpKind {
    /// Stable lowercase name (trace-export slice label).
    pub const fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Program => "program",
            OpKind::Erase => "erase",
        }
    }
}

/// One captured busy interval on a chip or channel track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInterval {
    /// When the resource became busy, ns.
    pub start_ns: u64,
    /// When the resource was released, ns.
    pub end_ns: u64,
    /// What occupied it.
    pub kind: OpKind,
    /// Whether GC issued the operation.
    pub gc: bool,
}

/// Per-interval capture cap per track; beyond it intervals are counted in
/// [`IntervalLog::dropped`] instead of stored (a full-scale trace would
/// otherwise hold millions of intervals nobody renders).
const TRACK_CAP: usize = 4_096;

/// Captured per-chip and per-channel busy intervals (opt-in via
/// [`FlashTimeline::enable_interval_capture`]; the plain path never
/// allocates this). Intervals on one track never overlap: the busy-horizon
/// scheduling discipline starts every operation at or after the previous
/// release of the same resource.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalLog {
    /// Intervals per chip, in schedule order (monotone start times).
    pub chip: Vec<Vec<OpInterval>>,
    /// Intervals per channel bus, in schedule order.
    pub channel: Vec<Vec<OpInterval>>,
    /// Intervals that did not fit under the per-track cap.
    pub dropped: u64,
}

impl IntervalLog {
    fn new(channels: usize, chips: usize) -> Self {
        Self { chip: vec![Vec::new(); chips], channel: vec![Vec::new(); channels], dropped: 0 }
    }

    fn push_chip(&mut self, chip: ChipId, iv: OpInterval) {
        if self.chip[chip].len() < TRACK_CAP {
            self.chip[chip].push(iv);
        } else {
            self.dropped += 1;
        }
    }

    fn push_channel(&mut self, ch: usize, iv: OpInterval) {
        if self.channel[ch].len() < TRACK_CAP {
            self.channel[ch].push(iv);
        } else {
            self.dropped += 1;
        }
    }
}

/// Per-channel and per-chip busy horizons plus operation counters.
#[derive(Debug, Clone)]
pub struct FlashTimeline {
    channel_free_ns: Vec<u64>,
    chip_free_ns: Vec<u64>,
    chips_per_channel: usize,
    /// `log2(chips_per_channel)` when it is a power of two: the chip →
    /// channel division on every operation becomes a shift.
    chan_shift: u32,
    /// Whether `chan_shift` applies (`chips_per_channel.is_power_of_two()`).
    chan_pow2: bool,
    /// Cached [`SsdConfig::page_transfer_ns`] — recomputed per call
    /// otherwise, and each operation needs it two or three times.
    xfer_ns: u64,
    counters: OpCounters,
    busy: BusyStats,
    /// Opt-in busy-interval capture (`None` on the plain path; one cold
    /// branch per operation when disabled).
    intervals: Option<Box<IntervalLog>>,
    /// Running maximum over all per-resource horizons, maintained on every
    /// scheduled operation so [`Self::horizon_ns`] is O(1) instead of a
    /// max-scan over channels + chips (it sits on the per-sample path of
    /// the utilization time series).
    horizon_ns: u64,
}

impl FlashTimeline {
    /// Fresh timeline: every resource free at t = 0.
    pub fn new(cfg: &SsdConfig) -> Self {
        Self {
            channel_free_ns: vec![0; cfg.channels],
            chip_free_ns: vec![0; cfg.total_chips()],
            chips_per_channel: cfg.chips_per_channel,
            chan_shift: cfg.chips_per_channel.trailing_zeros(),
            chan_pow2: cfg.chips_per_channel.is_power_of_two(),
            xfer_ns: cfg.page_transfer_ns(),
            counters: OpCounters::default(),
            busy: BusyStats::new(cfg.channels, cfg.total_chips()),
            intervals: None,
            horizon_ns: 0,
        }
    }

    /// Reset to the fresh state for `cfg`, reusing the per-resource horizon
    /// vectors when the geometry's channel/chip counts are unchanged.
    /// Observationally identical to `FlashTimeline::new(cfg)`; interval
    /// capture reverts to disabled (it is opt-in per run).
    pub fn reset(&mut self, cfg: &SsdConfig) {
        if self.channel_free_ns.len() == cfg.channels
            && self.chip_free_ns.len() == cfg.total_chips()
        {
            self.channel_free_ns.fill(0);
            self.chip_free_ns.fill(0);
            self.busy.channel_busy_ns.fill(0);
            self.busy.chip_busy_ns.fill(0);
            self.busy.wait_ns = 0;
            self.busy.waited_ops = 0;
        } else {
            self.channel_free_ns = vec![0; cfg.channels];
            self.chip_free_ns = vec![0; cfg.total_chips()];
            self.busy = BusyStats::new(cfg.channels, cfg.total_chips());
        }
        self.chips_per_channel = cfg.chips_per_channel;
        self.chan_shift = cfg.chips_per_channel.trailing_zeros();
        self.chan_pow2 = cfg.chips_per_channel.is_power_of_two();
        self.xfer_ns = cfg.page_transfer_ns();
        self.counters = OpCounters::default();
        self.intervals = None;
        self.horizon_ns = 0;
    }

    /// Operation counters so far.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Busy-time accounting so far.
    pub fn busy(&self) -> &BusyStats {
        &self.busy
    }

    /// Start capturing per-chip / per-channel busy intervals from this
    /// point on (idempotent; intervals already captured are kept).
    pub fn enable_interval_capture(&mut self) {
        if self.intervals.is_none() {
            self.intervals = Some(Box::new(IntervalLog::new(
                self.channel_free_ns.len(),
                self.chip_free_ns.len(),
            )));
        }
    }

    /// Captured busy intervals, when capture is enabled.
    pub fn intervals(&self) -> Option<&IntervalLog> {
        self.intervals.as_deref()
    }

    /// Earliest time `chip` can start an array operation.
    pub fn chip_free_at(&self, chip: ChipId) -> u64 {
        self.chip_free_ns[chip]
    }

    /// Channel owning `chip` (shift when the per-channel chip count is a
    /// power of two, as in every shipped geometry).
    #[inline]
    fn chan(&self, chip: ChipId) -> usize {
        if self.chan_pow2 { chip >> self.chan_shift } else { chip / self.chips_per_channel }
    }

    /// Per-chip completion horizon: when every operation already scheduled
    /// through `chip`'s pipeline (its array *and* its channel bus) has
    /// finished. This is the NCQ drain point the host engine's per-chip
    /// ready cursors key on — an operation completing at
    /// `chip_horizon_ns(chip)` is the last one outstanding on that chip.
    pub fn chip_horizon_ns(&self, chip: ChipId) -> u64 {
        self.chip_free_ns[chip].max(self.channel_free_ns[self.chan(chip)])
    }

    /// Schedule a page read on `chip` no earlier than `at`.
    pub fn read(&mut self, cfg: &SsdConfig, chip: ChipId, at: u64, origin: Origin) -> Completion {
        let ch = self.chan(chip);
        let sense_start = at.max(self.chip_free_ns[chip]);
        let sense_done = sense_start + cfg.read_latency_ns;
        let xfer_start = sense_done.max(self.channel_free_ns[ch]);
        let end = xfer_start + self.xfer_ns;
        // Chip holds the page register until the data is moved out.
        self.chip_free_ns[chip] = end;
        self.channel_free_ns[ch] = end;
        self.horizon_ns = self.horizon_ns.max(end);
        self.busy.note_wait(at, sense_start);
        self.busy.channel_busy_ns[ch] += self.xfer_ns;
        self.busy.chip_busy_ns[chip] += end - sense_start;
        match origin {
            Origin::User => self.counters.user_reads += 1,
            Origin::Gc => self.counters.gc_reads += 1,
        }
        if let Some(log) = self.intervals.as_deref_mut() {
            let gc = origin == Origin::Gc;
            log.push_chip(chip, OpInterval { start_ns: sense_start, end_ns: end, kind: OpKind::Read, gc });
            log.push_channel(ch, OpInterval { start_ns: xfer_start, end_ns: end, kind: OpKind::Read, gc });
        }
        Completion { start_ns: sense_start, end_ns: end }
    }

    /// Schedule a page program on `chip` no earlier than `at`.
    pub fn program(
        &mut self,
        cfg: &SsdConfig,
        chip: ChipId,
        at: u64,
        origin: Origin,
    ) -> Completion {
        let ch = self.chan(chip);
        // Data must be moved over the bus into the chip's register, so both
        // the bus and the chip must be free before the transfer starts.
        let xfer_start = at.max(self.channel_free_ns[ch]).max(self.chip_free_ns[chip]);
        let xfer_done = xfer_start + self.xfer_ns;
        let end = xfer_done + cfg.program_latency_ns;
        self.channel_free_ns[ch] = xfer_done; // bus released after transfer
        self.chip_free_ns[chip] = end;
        self.horizon_ns = self.horizon_ns.max(end);
        self.busy.note_wait(at, xfer_start);
        self.busy.channel_busy_ns[ch] += self.xfer_ns;
        self.busy.chip_busy_ns[chip] += end - xfer_start;
        match origin {
            Origin::User => self.counters.user_programs += 1,
            Origin::Gc => self.counters.gc_programs += 1,
        }
        if let Some(log) = self.intervals.as_deref_mut() {
            let gc = origin == Origin::Gc;
            log.push_chip(chip, OpInterval { start_ns: xfer_start, end_ns: end, kind: OpKind::Program, gc });
            log.push_channel(ch, OpInterval { start_ns: xfer_start, end_ns: xfer_done, kind: OpKind::Program, gc });
        }
        Completion { start_ns: xfer_start, end_ns: end }
    }

    /// The device-wide completion horizon: the latest instant any channel
    /// bus or chip array stays busy, i.e. when the last scheduled operation
    /// finishes. 0 on an idle device.
    ///
    /// This is the natural upper edge of a utilization window: per-resource
    /// busy time can never exceed its own horizon, so windowing
    /// [`BusyStats::channel_utilization`] on `horizon_ns().max(now)` keeps
    /// the ratio within `[0, 1]` even when service outruns arrivals.
    pub fn horizon_ns(&self) -> u64 {
        self.horizon_ns
    }

    /// Schedule a block erase on `chip` no earlier than `at`.
    pub fn erase(&mut self, cfg: &SsdConfig, chip: ChipId, at: u64) -> Completion {
        let start = at.max(self.chip_free_ns[chip]);
        let end = start + cfg.erase_latency_ns;
        self.chip_free_ns[chip] = end;
        self.horizon_ns = self.horizon_ns.max(end);
        self.busy.note_wait(at, start);
        self.busy.chip_busy_ns[chip] += cfg.erase_latency_ns;
        self.counters.erases += 1;
        if let Some(log) = self.intervals.as_deref_mut() {
            log.push_chip(chip, OpInterval { start_ns: start, end_ns: end, kind: OpKind::Erase, gc: true });
        }
        Completion { start_ns: start, end_ns: end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SsdConfig {
        SsdConfig::paper()
    }

    #[test]
    fn single_program_timing() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        let c = tl.program(&cfg, 0, 1_000, Origin::User);
        assert_eq!(c.start_ns, 1_000);
        assert_eq!(c.end_ns, 1_000 + cfg.page_transfer_ns() + cfg.program_latency_ns);
        assert_eq!(tl.counters().user_programs, 1);
    }

    #[test]
    fn single_read_timing() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        let c = tl.read(&cfg, 5, 0, Origin::User);
        assert_eq!(c.end_ns, cfg.read_latency_ns + cfg.page_transfer_ns());
        assert_eq!(tl.counters().user_reads, 1);
    }

    #[test]
    fn programs_on_different_channels_overlap() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        // Chips 0 and 2 are on channels 0 and 1.
        let a = tl.program(&cfg, 0, 0, Origin::User);
        let b = tl.program(&cfg, 2, 0, Origin::User);
        assert_eq!(a.end_ns, b.end_ns, "independent channels must run in parallel");
    }

    #[test]
    fn programs_on_same_chip_serialize_fully() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        let a = tl.program(&cfg, 0, 0, Origin::User);
        let b = tl.program(&cfg, 0, 0, Origin::User);
        assert_eq!(b.start_ns, a.end_ns, "same chip: second waits for program");
    }

    #[test]
    fn programs_on_same_channel_different_chip_pipeline() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        // Chips 0 and 1 share channel 0: the second transfer waits only for
        // the first transfer (bus), then both programs proceed in parallel.
        let a = tl.program(&cfg, 0, 0, Origin::User);
        let b = tl.program(&cfg, 1, 0, Origin::User);
        assert_eq!(b.start_ns, cfg.page_transfer_ns());
        assert_eq!(b.end_ns, a.end_ns + cfg.page_transfer_ns());
    }

    #[test]
    fn read_holds_chip_through_transfer() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        let a = tl.read(&cfg, 0, 0, Origin::User);
        // Next array op on the same chip cannot start before the data left
        // the page register.
        let b = tl.read(&cfg, 0, 0, Origin::User);
        assert_eq!(b.start_ns, a.end_ns);
    }

    #[test]
    fn erase_uses_no_bus() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        let e = tl.erase(&cfg, 0, 0);
        assert_eq!(e.end_ns, cfg.erase_latency_ns);
        // Bus of channel 0 still free: a program on chip 1 starts at t=0.
        let p = tl.program(&cfg, 1, 0, Origin::User);
        assert_eq!(p.start_ns, 0);
        assert_eq!(tl.counters().erases, 1);
    }

    #[test]
    fn erase_delays_later_ops_on_chip() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        tl.erase(&cfg, 3, 0);
        let r = tl.read(&cfg, 3, 0, Origin::Gc);
        assert_eq!(r.start_ns, cfg.erase_latency_ns);
        assert_eq!(tl.counters().gc_reads, 1);
    }

    #[test]
    fn idle_gap_respected() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        tl.program(&cfg, 0, 0, Origin::User);
        // An op requested far in the future starts exactly then.
        let late = 1_000_000_000;
        let c = tl.program(&cfg, 0, late, Origin::User);
        assert_eq!(c.start_ns, late);
    }

    #[test]
    fn counters_attribute_origin() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        tl.program(&cfg, 0, 0, Origin::User);
        tl.program(&cfg, 0, 0, Origin::Gc);
        tl.read(&cfg, 0, 0, Origin::Gc);
        let c = tl.counters();
        assert_eq!(c.user_programs, 1);
        assert_eq!(c.gc_programs, 1);
        assert_eq!(c.gc_reads, 1);
        assert_eq!(c.total_programs(), 2);
        assert!((c.write_amplification() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn write_amplification_defaults_to_one() {
        assert_eq!(OpCounters::default().write_amplification(), 1.0);
    }

    #[test]
    fn busy_stats_track_transfer_and_occupancy() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        let c = tl.program(&cfg, 0, 0, Origin::User);
        let b = tl.busy();
        assert_eq!(b.channel_busy_ns[0], cfg.page_transfer_ns());
        assert_eq!(b.chip_busy_ns[0], c.end_ns - c.start_ns);
        assert_eq!(b.wait_ns, 0, "first op on idle device never waits");
        assert_eq!(b.waited_ops, 0);
        // A second program on the same chip queues behind the first.
        let c2 = tl.program(&cfg, 0, 0, Origin::User);
        let b = tl.busy();
        assert_eq!(b.waited_ops, 1);
        assert_eq!(b.wait_ns, c2.start_ns as u128);
        assert!(b.channel_utilization(c2.end_ns) > 0.0);
        assert!(b.channel_utilization(0) == 0.0);
    }

    #[test]
    fn busy_stats_erase_charges_chip_only() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        tl.erase(&cfg, 2, 0);
        let b = tl.busy();
        assert_eq!(b.chip_busy_ns[2], cfg.erase_latency_ns);
        assert_eq!(b.total_channel_busy_ns(), 0);
        assert_eq!(b.total_chip_busy_ns(), cfg.erase_latency_ns as u128);
    }

    #[test]
    fn horizon_tracks_last_completion() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        assert_eq!(tl.horizon_ns(), 0, "idle device has no horizon");
        let a = tl.program(&cfg, 0, 0, Origin::User);
        assert_eq!(tl.horizon_ns(), a.end_ns);
        let e = tl.erase(&cfg, 5, 0);
        assert_eq!(tl.horizon_ns(), a.end_ns.max(e.end_ns));
    }

    #[test]
    fn chip_horizon_includes_channel_bus() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        // Program on chip 0 busies channel 0's bus for the transfer; chip 1
        // shares that bus, so its pipeline horizon reflects the bus even
        // though its array is idle.
        let a = tl.program(&cfg, 0, 0, Origin::User);
        assert_eq!(tl.chip_horizon_ns(0), a.end_ns);
        assert_eq!(tl.chip_horizon_ns(1), cfg.page_transfer_ns());
        // Chip 2 is on channel 1: fully idle.
        assert_eq!(tl.chip_horizon_ns(2), 0);
    }

    #[test]
    fn utilization_windowed_on_horizon_never_exceeds_one() {
        // Overload: many same-channel programs all "arrive" at t = 0, so the
        // horizon runs far past the last arrival. Windowed on the arrival
        // clock utilization would be >> 1; windowed on the horizon it must
        // stay within [0, 1].
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        for _ in 0..64 {
            tl.program(&cfg, 0, 0, Origin::User);
        }
        let last_arrival = 0;
        assert!(tl.horizon_ns() > last_arrival);
        let util = tl.busy().channel_utilization(tl.horizon_ns().max(last_arrival));
        assert!(util > 0.0);
        assert!(util <= 1.0, "horizon-windowed utilization must be <= 1, got {util}");
    }

    #[test]
    fn interval_capture_is_opt_in_and_non_overlapping() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        tl.program(&cfg, 0, 0, Origin::User);
        assert!(tl.intervals().is_none(), "capture must be opt-in");
        tl.enable_interval_capture();
        tl.program(&cfg, 0, 0, Origin::User);
        tl.read(&cfg, 0, 0, Origin::User);
        tl.read(&cfg, 1, 0, Origin::Gc);
        tl.erase(&cfg, 0, 0);
        let log = tl.intervals().unwrap();
        // Chip 0: program, read, erase — all after the uncaptured first op.
        let kinds: Vec<OpKind> = log.chip[0].iter().map(|iv| iv.kind).collect();
        assert_eq!(kinds, vec![OpKind::Program, OpKind::Read, OpKind::Erase]);
        assert!(log.chip[1][0].gc, "GC origin must be labelled");
        assert_eq!(log.dropped, 0);
        // Per-track non-overlap: each interval starts at or after the
        // previous one's end (chips and channels alike).
        for track in log.chip.iter().chain(&log.channel) {
            for w in track.windows(2) {
                assert!(w[1].start_ns >= w[0].end_ns, "overlap: {w:?}");
            }
        }
        // The channel track saw the program transfer and both read xfers.
        assert_eq!(log.channel[0].len(), 3);
    }

    #[test]
    fn reset_restores_fresh_timeline() {
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        tl.enable_interval_capture();
        tl.program(&cfg, 0, 0, Origin::User);
        tl.read(&cfg, 3, 0, Origin::Gc);
        tl.erase(&cfg, 0, 0);
        tl.reset(&cfg);
        let fresh = FlashTimeline::new(&cfg);
        assert_eq!(tl.counters(), fresh.counters());
        assert_eq!(tl.busy(), fresh.busy());
        assert_eq!(tl.horizon_ns(), 0);
        assert!(tl.intervals().is_none(), "capture is opt-in per run");
        // Identical scheduling after the reset.
        let mut tl2 = FlashTimeline::new(&cfg);
        let mut f2 = FlashTimeline::new(&cfg);
        tl2.program(&cfg, 1, 500, Origin::User);
        tl2.reset(&cfg);
        for chip in [0usize, 1, 2, 5] {
            assert_eq!(
                tl2.program(&cfg, chip, 100, Origin::User),
                f2.program(&cfg, chip, 100, Origin::User)
            );
        }
    }

    #[test]
    fn sixteen_chip_fanout_bounded_by_channels() {
        // Flushing 8 pages striped over 8 channels costs one program latency
        // plus one transfer, not eight.
        let cfg = cfg();
        let mut tl = FlashTimeline::new(&cfg);
        let mut last_end = 0;
        for ch in 0..8 {
            let chip = ch * cfg.chips_per_channel;
            last_end = last_end.max(tl.program(&cfg, chip, 0, Origin::User).end_ns);
        }
        assert_eq!(last_end, cfg.page_transfer_ns() + cfg.program_latency_ns);
    }
}
