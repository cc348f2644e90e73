//! The repository benchmark: four simulator workloads, end-to-end host and
//! simulated metrics from untraced runs, and a per-layer host-time ledger
//! from a separate traced run that replays each layer's captured input
//! stream through that layer's public API alone.
//!
//! The binary (`src/main.rs`) parses flags and prints; everything it
//! measures is reachable from here, so the integration tests run every
//! workload in-process at a small [`Options::scale`].
//!
//! Host time is what the simulator takes to run; simulated time is what the
//! modelled SSD would take. The model is unvalidated against real hardware
//! (the repository holds no reference measurements), so no error figure is
//! reported. Every device starts with an empty cache, as in the paper.

mod layers;
mod run;
pub mod spans;
pub mod stats;
mod workload;

pub use run::{run, Options};
pub use workload::Workload;

use reqblock_obs::CountingAlloc;
use spans::Spans;
use stats::Summary;
use std::fmt::Write as _;

/// Counts live and peak heap bytes for `peak_alloc_mib`.
#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// One metric the benchmark reports, as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` per layer.
    pub bound: Option<f64>,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by untraced runs. Host metrics are medians
/// over the run's repeats; simulated (`sim_*`) metrics repeat exactly for a
/// seed.
pub const END_TO_END: [MetricDef; 8] = [
    def("req_per_s", "req/s", "higher", Some(0.25)),
    def("setup_s", "s", "lower", Some(0.25)),
    def("peak_alloc_mib", "MiB", "lower", Some(0.05)),
    def("sim_resp_mean_ms", "ms", "lower", Some(0.1)),
    def("sim_resp_slowest1pct_mean_ms", "ms", "lower", Some(0.2)),
    def("sim_hit_ratio", "ratio", "higher", Some(0.05)),
    def("sim_flash_writes", "pages", "lower", Some(0.1)),
    def("sim_write_amp", "ratio", "lower", Some(0.1)),
];

/// Per-layer metrics, reported by traced runs (see `README.md` for the
/// end-to-end metric and workload each should move).
pub const PER_LAYER: [MetricDef; 26] = [
    def("trace.synth_ns_per_req", "ns/req", "lower", None),
    def("device.build_ms", "ms", "lower", None),
    def("device.reset_ms", "ms", "lower", None),
    def("cache.ns_per_page", "ns/page", "lower", None),
    def("cache.share", "ratio", "lower", None),
    def("cache.pages", "pages", "higher", None),
    def("cache.evictions", "count", "lower", None),
    def("cache.pages_per_eviction", "pages/eviction", "higher", None),
    def("ftl.ns_per_op", "ns/op", "lower", None),
    def("ftl.share", "ratio", "lower", None),
    def("ftl.flush_ns_per_page", "ns/page", "lower", None),
    def("ftl.read_ns_per_read", "ns/read", "lower", None),
    def("ftl.reads", "count", "lower", None),
    def("ftl.unmapped_reads", "count", "lower", None),
    def("ftl.gc_runs", "count", "lower", None),
    def("ftl.gc_migrated_per_erase", "pages/erase", "lower", None),
    def("flash.chip_util", "ratio", "lower", None),
    def("flash.wait_us_per_op", "us/op", "lower", None),
    def("event.ns_per_admit", "ns/admit", "lower", None),
    def("event.full_waits", "count", "lower", None),
    def("engine.residual_ns_per_req", "ns/req", "lower", None),
    def("engine.chunk_ms_p50", "ms", "lower", None),
    def("engine.chunk_ms_p99", "ms", "lower", None),
    def("engine.chunk_samples", "count", "higher", None),
    def("pool.speedup_2t", "x", "higher", None),
    def("bench.trace_overhead", "ratio", "lower", None),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its declaration.
    pub def: MetricDef,
    /// The reported value (the median, for host-time metrics).
    pub value: f64,
    /// Median, quartiles and sample count behind `value`, for metrics
    /// measured over repeats.
    pub summary: Option<Summary>,
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// Correctness checks that failed; empty when every check passed.
    pub failures: Vec<String>,
    /// Page operations (pages read or written) the timed replays submitted.
    pub attempted: u64,
    /// Of those, page operations the device failed: uncorrectable reads and
    /// rejected writes.
    pub failed: u64,
    /// Every metric, in declaration order.
    pub metrics: Vec<Metric>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

impl Report {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result:
    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.def.name, m.value, m.def.unit
            );
        }
        out.push_str("}}");
        out
    }
}
