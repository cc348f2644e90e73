//! Observability substrate for the Req-block simulator workspace.
//!
//! Diagnosing *why* a policy wins needs dynamics over time — GC bursts,
//! channel contention, write-amplification drift — not just end-of-run
//! aggregates. This crate provides the instrumentation vocabulary the rest
//! of the workspace speaks:
//!
//! * [`Recorder`] — the sink trait. Every hook has a no-op default and
//!   [`Recorder::enabled`] defaults to `false`, so instrumented code guards
//!   its per-event calls with one cached bool and a disabled run costs
//!   nothing measurable (`scripts/ab.sh` holds the no-op hotpath replay
//!   within 2 % of the parent revision's).
//! * [`NoopRecorder`] — the disabled sink ([`Ssd::submit`]-style paths).
//! * [`MemoryRecorder`] — accumulates counters, gauges, span stats and
//!   sampled time series in `BTreeMap`s, so iteration order — and therefore
//!   the emitted telemetry — is deterministic for a deterministic run.
//! * [`Fanout`] — drives several recorders from one run (e.g. the Figure 2
//!   and Figure 3 consumers share a replay).
//! * [`Histogram`] — reusable log2-bucketed histogram (generalizes the old
//!   `sim/histogram.rs` latency histogram to runtime base/bucket counts).
//! * [`telemetry`] — deterministic JSONL rendering of a [`MemoryRecorder`]
//!   plus human-readable summary rows.
//! * [`attr`] — per-request latency attribution: named response-time
//!   [`Component`]s with per-component histograms, exact totals, and a
//!   deterministic sampling policy (every-Kth + slowest-N) capturing full
//!   [`attr::SpanRecord`]s.
//! * [`trace_export`] — Chrome `trace_event` JSON rendering of sampled
//!   spans and busy intervals (loads in Perfetto / `about:tracing`).
//! * [`rotate`] — size-rotating JSONL sink with byte-deterministic
//!   rotation points ([`RotatingSink`], file-backed [`TelemetryWriter`]).
//!
//! The crate is dependency-free (the `serde` dependency is the workspace's
//! offline marker-trait stand-in) and knows nothing about caches, FTLs or
//! flash: producers translate their events into the neutral vocabulary
//! (counter/gauge/span/sample/page).
//!
//! [`Ssd::submit`]: https://docs.rs/reqblock-sim

pub mod alloc;
pub mod attr;
pub mod histogram;
pub mod recorder;
pub mod rotate;
pub mod series;
pub mod telemetry;
pub mod trace_export;

pub use alloc::CountingAlloc;
pub use attr::{AttrAcc, AttrConfig, Component, SpanRecord};
pub use histogram::Histogram;
pub use recorder::{Fanout, MemoryRecorder, NoopRecorder, PageEvent, Recorder, SpanStats};
pub use rotate::{RotatingSink, TelemetryWriter};
pub use telemetry::{jsonl_escape, SCHEMA_VERSION};
pub use trace_export::TraceBuilder;
