//! Flash array substrate (SSDsim-style timing model).
//!
//! The paper evaluates Req-block on SSDsim \[26\] configured per its Table 1:
//! a 128 GB drive with 8 channels x 2 chips, 64 pages per block, 4 KB pages,
//! 75 us reads, 2 ms programs, 15 ms erases, a 10 ns/byte channel bus and a
//! 10 % GC threshold. This crate models exactly those resources:
//!
//! * [`SsdConfig`] — the Table 1 parameter set plus derived geometry.
//! * [`FlashTimeline`] — per-channel bus and per-chip array occupancy
//!   timelines; scheduling an operation returns its start/finish times and
//!   advances the busy horizons, which is how multi-channel parallelism (and
//!   BPLRU's lack of it when flushing to a single block) becomes visible in
//!   simulated response times.
//!
//! Reliability: [`fault`] adds a seeded, deterministic fault model
//! ([`FaultConfig`]/[`FaultModel`]) that the FTL consults to fail
//! reads/programs/erases with configurable fixed probabilities. The
//! default configuration is zero-fault and bit-identical to a build without
//! the layer.
//!
//! The FTL (sibling crate `reqblock-ftl`) owns block/page *state* and the
//! physical page numbering; this crate addresses chips by [`ChipId`] and
//! owns *geometry, time, and fault decisions*.

pub mod config;
pub mod fault;
pub mod timeline;

pub use config::SsdConfig;
pub use fault::{FaultConfig, FaultModel, FaultStats, MAX_READ_RETRIES, PPM_SCALE};
pub use timeline::{
    BusyStats, ChipId, Completion, FlashTimeline, IntervalLog, OpCounters, OpInterval, OpKind,
};
