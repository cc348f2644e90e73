//! The hardware below the host interface: DRAM write buffer, page-level
//! FTL and flash timeline.
//!
//! [`Device`] only builds and resets these three components;
//! [`Ssd`](crate::Ssd) drives them directly and does all request
//! accounting. The read accessors are the device-level views callers of
//! the simulator use: flash busy time, completion horizons and captured
//! busy intervals.

use crate::buffer::PolicyBuffer;
use crate::config::SimConfig;
use reqblock_flash::{BusyStats, FlashTimeline, IntervalLog};
use reqblock_ftl::Ftl;

/// The simulated device below the host interface: cache policy state, FTL
/// and flash timeline, built from a [`SimConfig`].
pub struct Device {
    pub(crate) cache: PolicyBuffer,
    pub(crate) ftl: Ftl,
    pub(crate) timeline: FlashTimeline,
}

impl Device {
    /// Build a fresh device per `cfg`.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        cfg.ssd.validate().expect("invalid SSD config");
        assert!(cfg.cache_pages > 0, "cache must hold at least one page");
        Self {
            cache: cfg.policy.build_buffer(cfg.cache_pages, cfg.ssd.pages_per_block),
            ftl: Ftl::with_faults(&cfg.ssd, cfg.fault.clone()),
            timeline: FlashTimeline::new(&cfg.ssd),
        }
    }

    /// Reset to the fresh-device state for `cfg`, reusing the large FTL
    /// and timeline allocations when the geometry allows
    /// ([`Ftl::try_reset`]) and rebuilding them otherwise.
    /// Observationally identical to `Device::new(cfg)`.
    pub(crate) fn reset(&mut self, cfg: &SimConfig) {
        cfg.ssd.validate().expect("invalid SSD config");
        assert!(cfg.cache_pages > 0, "cache must hold at least one page");
        self.cache = cfg.policy.build_buffer(cfg.cache_pages, cfg.ssd.pages_per_block);
        if !self.ftl.try_reset(&cfg.ssd, cfg.fault.clone()) {
            self.ftl = Ftl::with_faults(&cfg.ssd, cfg.fault.clone());
        }
        self.timeline.reset(&cfg.ssd);
    }

    /// Flash busy-time accounting.
    pub fn busy(&self) -> &BusyStats {
        self.timeline.busy()
    }

    /// The latest instant any flash resource stays busy — when the last
    /// scheduled operation completes. See [`FlashTimeline::horizon_ns`].
    pub fn completion_horizon_ns(&self) -> u64 {
        self.timeline.horizon_ns()
    }

    /// Earliest time `chip` can start an array operation (diagnostics).
    pub fn chip_free_at(&self, chip: usize) -> u64 {
        self.timeline.chip_free_at(chip)
    }

    /// Captured busy intervals, once an attributed recorded run has
    /// switched capture on (`None` otherwise).
    pub fn busy_intervals(&self) -> Option<&IntervalLog> {
        self.timeline.intervals()
    }
}
