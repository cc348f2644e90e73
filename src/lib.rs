//! # reqblock — facade crate
//!
//! Reproduction of *"DRAM Cache Management with Request Granularity for
//! NAND-based SSDs"* (Lin et al., ICPP 2022). This crate re-exports the
//! public API of every workspace member so downstream users can depend on a
//! single crate:
//!
//! * [`trace`] — request model, MSR-Cambridge parser, synthetic workloads.
//! * [`flash`] — SSD geometry and flash timing model (SSDsim-style).
//! * [`ftl`] — page-level FTL with greedy garbage collection.
//! * [`cache`] — DRAM write-buffer framework and baseline policies.
//! * [`core`] — the paper's contribution: the Req-block policy.
//! * [`obs`] — observability: recorders, histograms, JSONL telemetry.
//! * [`sim`] — the trace-driven simulator tying everything together.
//!
//! ## Quickstart
//!
//! ```
//! use reqblock::prelude::*;
//!
//! // A scaled-down version of the paper's ts_0 workload.
//! let profile = reqblock::trace::profiles::ts_0().scaled(0.005);
//! let trace = SyntheticTrace::new(profile);
//!
//! // Simulate it through a 16 MB Req-block write buffer on the paper's SSD.
//! let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()));
//! let result = replay(&cfg, trace, &mut NoopRecorder);
//! assert!(result.metrics.hit_ratio() > 0.0);
//! ```

pub use reqblock_cache as cache;
pub use reqblock_core as core;
pub use reqblock_flash as flash;
pub use reqblock_ftl as ftl;
pub use reqblock_obs as obs;
pub use reqblock_sim as sim;
pub use reqblock_trace as trace;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use reqblock_cache::{EvictionBatch, Placement, WriteBuffer};
    pub use reqblock_core::{ReqBlock, ReqBlockConfig};
    pub use reqblock_flash::{FaultConfig, FaultStats, SsdConfig};
    pub use reqblock_obs::{MemoryRecorder, NoopRecorder, Recorder};
    pub use reqblock_sim::{replay, CacheSizeMb, PolicyKind, SampleInterval, SimConfig};
    pub use reqblock_trace::{
        paper_profiles, OpType, Request, SyntheticTrace, TraceStats, WorkloadProfile, PAGE_SIZE,
    };
}
