//! Trace-driven SSD simulator.
//!
//! Ties the substrates together the way Figure 1 of the paper draws them:
//! host requests arrive at the HIL, write data is buffered in the DRAM
//! cache ([`reqblock_cache::WriteBuffer`]), evicted batches are flushed
//! through the page-level FTL ([`reqblock_ftl::Ftl`]) onto the multi-channel
//! flash array ([`reqblock_flash::FlashTimeline`]), and read misses fetch
//! from flash.
//!
//! Timing model (see `reqblock-flash` docs): operations reserve per-channel
//! and per-chip busy horizons; a request's response time is the completion
//! of its slowest page. Cache hits cost one DRAM access. A write that
//! triggers eviction **stalls until the victim flush completes** — the
//! buffered data cannot be overwritten before it is safe on flash — which is
//! the mechanism that translates eviction-batch placement into the response
//! time differences of the paper's Figure 8.
//!
//! One object runs the whole pipeline (DESIGN.md §7.2): [`Ssd`] owns the
//! [`Device`] (cache + FTL + flash timeline) and drives it directly, keeps
//! request identity, metrics, sampling and telemetry, and issues requests
//! per [`SubmitMode::Queued`]: an outstanding-flush window
//! ([`FlushWindow`]) of `depth - 1` background slots. The default,
//! `Queued { depth: 1 }` (displayed `sync`), has no background slot and is
//! the paper's one-at-a-time model; deeper windows drive the X5
//! queue-depth sweep.
//!
//! * [`SimConfig`]/[`PolicyKind`]/[`CacheSizeMb`] — run configuration.
//! * [`Ssd`] — the simulator (`submit` one request at a time;
//!   `submit_recorded` streams events into a [`reqblock_obs::Recorder`]).
//! * [`Metrics`] — hit/response/eviction counters (Figures 8-11).
//! * [`probes`] — figure-specific recorder consumers (Figures 2, 3).
//! * [`runner`] — whole-trace replay ([`replay`]) and the job pool behind
//!   every experiment grid ([`JobPool`]).
//! * [`fleet`] — fleet orchestration: many independent devices under a
//!   blended multi-tenant workload, with deterministic placement,
//!   per-tenant response aggregation and noisy-neighbor measurement.
//!
//! Observability: pass any [`reqblock_obs::Recorder`] to [`replay`] (or
//! [`Ssd::submit_recorded`]) to capture page events, flush-wait spans, the
//! end-of-run counter/gauge rollup, and — when [`config::SampleInterval`] is set —
//! periodic time series (hit ratio, write amplification, channel
//! utilization, buffer occupancy, free blocks, Req-block list occupancy).
//!
//! Reliability: set [`SimConfig::with_faults`] with a nonzero
//! [`FaultConfig`] to inject deterministic, seeded read/program/erase
//! failures (see `reqblock-flash`/`reqblock-ftl`). Fault counters, retired
//! bad blocks and degraded-mode state flow into the same recorder rollup
//! (`fault_*`, `bad_blocks*`, `rejected_write_pages`, `device_read_only`)
//! and into [`runner::RunResult::faults`]; zero-fault runs emit none of
//! these keys, so existing telemetry consumers see no change.

pub mod buffer;
pub mod config;
pub mod device;
pub mod event;
pub mod fleet;
pub mod host;
pub mod load;
pub mod metrics;
pub mod probes;
pub mod runner;

pub use buffer::PolicyBuffer;
pub use config::{CacheSizeMb, PolicyKind, SampleInterval, SimConfig};
pub use device::Device;
pub use event::ChipCursors;
pub use fleet::{
    device_stream, noisy_neighbor, run_fleet, run_fleet_excluding, run_fleet_reference,
    run_fleet_reference_excluding, shard_reference, DeviceStream, DeviceSummary, FleetConfig,
    FleetControl, FleetMetrics, FleetResult, NoisyNeighbor, Placement, TenantMix, TenantSpec,
    TenantStats,
};
pub use host::{FlushWindow, Ssd, SubmitMode};
pub use load::{ArrivalProcess, ArrivalTimer};
pub use reqblock_flash::{FaultConfig, FaultStats};
pub use reqblock_ftl::Health;
pub use metrics::Metrics;
pub use reqblock_flash::{IntervalLog, OpInterval, OpKind};
pub use reqblock_obs::Histogram as LatencyHistogram;
pub use reqblock_obs::{AttrAcc, AttrConfig, Component, SpanRecord};
pub use runner::{replay, run_task_pool, Job, JobPool, RunResult, Task, TraceSource};
