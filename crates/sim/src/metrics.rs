//! Run metrics: everything the paper's Figures 8-12 report, plus response
//! tail percentiles (an extension; see [`reqblock_obs::Histogram`]).

use reqblock_obs::Histogram as LatencyHistogram;
use serde::{Deserialize, Serialize};

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Host requests processed.
    pub requests: u64,
    /// Read requests.
    pub read_reqs: u64,
    /// Write requests.
    pub write_reqs: u64,
    /// Pages accessed by reads.
    pub read_pages: u64,
    /// Pages accessed by writes.
    pub write_pages: u64,
    /// Read pages served from the buffer.
    pub read_hits: u64,
    /// Write pages absorbed by the buffer (overwrite of a cached page).
    pub write_hits: u64,
    /// Eviction operations (victim selections) performed.
    pub evictions: u64,
    /// Pages evicted across all evictions (dirty flushes).
    pub evicted_pages: u64,
    /// Clean pages dropped without flash writes (read-caching policies).
    pub clean_dropped_pages: u64,
    /// Pages read from flash for BPLRU-style padding.
    pub pad_read_pages: u64,
    /// Sum of per-request response times, ns.
    pub total_response_ns: u128,
    /// Slowest single request, ns.
    pub max_response_ns: u64,
    /// Samples of (metadata bytes, node count) for the Figure 12 averages.
    pub overhead_samples: u64,
    /// Sum of sampled metadata bytes.
    pub metadata_bytes_sum: u128,
    /// Sum of sampled node counts.
    pub node_count_sum: u128,
    /// Nanoseconds requests spent stalled waiting for eviction flushes to
    /// complete (buffer-induced stalls, as opposed to device service time
    /// of the request's own pages).
    pub flush_stall_ns: u128,
    /// Flush waits that actually stalled a request (stall > 0).
    pub flush_stalls: u64,
    /// Per-request response-time distribution (extension beyond Figure 8's
    /// means: p50/p99/max).
    pub response_hist: LatencyHistogram,
}

impl Metrics {
    /// Page-level cache hit ratio over reads and writes ("the ratio of the
    /// pages from the I/O request that is absorbed by the cache", §4.2.3).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.read_pages + self.write_pages;
        if total == 0 {
            return 0.0;
        }
        (self.read_hits + self.write_hits) as f64 / total as f64
    }

    /// Write-page hit ratio only.
    pub fn write_hit_ratio(&self) -> f64 {
        if self.write_pages == 0 {
            return 0.0;
        }
        self.write_hits as f64 / self.write_pages as f64
    }

    /// Read-page hit ratio only.
    pub fn read_hit_ratio(&self) -> f64 {
        if self.read_pages == 0 {
            return 0.0;
        }
        self.read_hits as f64 / self.read_pages as f64
    }

    /// Mean response time in milliseconds (Figure 8's unit).
    pub fn avg_response_ms(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.total_response_ns as f64 / self.requests as f64 / 1e6
    }

    /// Mean pages per eviction operation (Figure 10).
    pub fn avg_pages_per_eviction(&self) -> f64 {
        if self.evictions == 0 {
            return 0.0;
        }
        self.evicted_pages as f64 / self.evictions as f64
    }

    /// Mean sampled metadata size in bytes (Figure 12).
    pub fn avg_metadata_bytes(&self) -> f64 {
        if self.overhead_samples == 0 {
            return 0.0;
        }
        self.metadata_bytes_sum as f64 / self.overhead_samples as f64
    }

    /// Response-time percentile in milliseconds (bucketed upper bound;
    /// 0.0 for an empty run).
    pub fn response_percentile_ms(&self, q: f64) -> f64 {
        self.response_hist.quantile_upper(q).unwrap_or(0) as f64 / 1e6
    }

    /// Mean flush-induced stall per request in milliseconds. Together with
    /// [`Metrics::avg_response_ms`] this splits response time into "waiting
    /// for the buffer" vs "serving the request's own pages".
    pub fn avg_flush_stall_ms(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.flush_stall_ns as f64 / self.requests as f64 / 1e6
    }

    /// Zero every counter, keeping the response histogram's bucket
    /// allocation. Observationally identical to `Metrics::default()` —
    /// the pooled fleet engine resets metrics between devices.
    pub fn reset(&mut self) {
        let mut hist = std::mem::take(&mut self.response_hist);
        hist.reset();
        *self = Metrics { response_hist: hist, ..Metrics::default() };
    }

    /// Record one request's response time.
    pub(crate) fn record_response(&mut self, ns: u64) {
        self.total_response_ns += ns as u128;
        self.max_response_ns = self.max_response_ns.max(ns);
        self.response_hist.record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_run() {
        let m = Metrics::default();
        assert_eq!(m.hit_ratio(), 0.0);
        assert_eq!(m.avg_response_ms(), 0.0);
        assert_eq!(m.avg_pages_per_eviction(), 0.0);
        assert_eq!(m.avg_metadata_bytes(), 0.0);
    }

    #[test]
    fn hit_ratio_combines_reads_and_writes() {
        let m = Metrics {
            read_pages: 10,
            read_hits: 5,
            write_pages: 10,
            write_hits: 10,
            ..Default::default()
        };
        assert!((m.hit_ratio() - 0.75).abs() < 1e-12);
        assert!((m.read_hit_ratio() - 0.5).abs() < 1e-12);
        assert!((m.write_hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn response_accounting() {
        let mut m = Metrics { requests: 2, ..Default::default() };
        m.record_response(1_000_000);
        m.record_response(3_000_000);
        assert!((m.avg_response_ms() - 2.0).abs() < 1e-12);
        assert_eq!(m.max_response_ns, 3_000_000);
    }

    #[test]
    fn eviction_average() {
        let m = Metrics { evictions: 4, evicted_pages: 10, ..Default::default() };
        assert!((m.avg_pages_per_eviction() - 2.5).abs() < 1e-12);
    }
}
