//! Chrome `trace_event` JSON export (Perfetto / `about:tracing`).
//!
//! The attribution subsystem captures sampled request lifecycles
//! ([`crate::attr::SpanRecord`]) and the flash layer captures chip/channel
//! busy intervals; this module renders both as the Trace Event Format's
//! JSON object form — `{"traceEvents":[...]}` with complete (`"ph":"X"`)
//! slices plus metadata (`"ph":"M"`) track names — which Perfetto and
//! Chrome's `about:tracing` load directly.
//!
//! Layout conventions (the `repro why` exporter uses these; nothing here
//! enforces them): one process per domain (requests / chips / channels),
//! one thread per track (one sampled request, one chip, one channel).
//! Slices on a track must not overlap — Perfetto renders overlap as nested
//! slices, which would misread as causality. The builder sorts each
//! track's slices by start time at [`TraceBuilder::finish`]; producers are
//! responsible for not emitting overlapping intervals on one track (the
//! flash timeline's busy horizons guarantee it for chips and channels, and
//! the request exporter lays components out back-to-back). A workspace
//! smoke test re-parses the emitted JSON and asserts per-track
//! non-overlap.
//!
//! Timestamps: the format counts microseconds; simulator time is
//! nanoseconds. Values render as fixed-point `µs.nnn` strings
//! (`1234 ns` → `1.234`), so the conversion is exact and byte-deterministic
//! — no float formatting is involved.

use crate::telemetry::jsonl_escape;

/// One complete slice, ns-resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slice {
    pid: u32,
    tid: u32,
    name: String,
    cat: String,
    start_ns: u64,
    dur_ns: u64,
}

/// Builder for a Trace Event Format JSON document.
#[derive(Debug, Default, Clone)]
pub struct TraceBuilder {
    processes: Vec<(u32, String)>,
    threads: Vec<(u32, u32, String)>,
    slices: Vec<Slice>,
}

/// Exact ns → µs fixed-point rendering (`1234` → `"1.234"`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl TraceBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name a process (a top-level track group in the UI).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.processes.push((pid, name.to_string()));
    }

    /// Name a thread (one track).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.threads.push((pid, tid, name.to_string()));
    }

    /// Add one complete slice (`ph:"X"`) to a track.
    pub fn slice(&mut self, pid: u32, tid: u32, name: &str, cat: &str, start_ns: u64, dur_ns: u64) {
        self.slices.push(Slice {
            pid,
            tid,
            name: name.to_string(),
            cat: cat.to_string(),
            start_ns,
            dur_ns,
        });
    }

    /// Render the document. Slices sort by `(pid, tid, start, insertion)`
    /// so every track reads in time order; the sort is stable and inputs
    /// are deterministic, so output bytes are too.
    pub fn finish(mut self) -> String {
        self.slices.sort_by_key(|s| (s.pid, s.tid, s.start_ns));
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for (pid, name) in &self.processes {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    jsonl_escape(name)
                ),
                &mut out,
            );
        }
        for (pid, tid, name) in &self.threads {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    jsonl_escape(name)
                ),
                &mut out,
            );
        }
        for s in &self.slices {
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                     \"ts\":{},\"dur\":{}}}",
                    s.pid,
                    s.tid,
                    jsonl_escape(&s.name),
                    jsonl_escape(&s.cat),
                    us(s.start_ns),
                    us(s.dur_ns)
                ),
                &mut out,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_us_is_exact_fixed_point() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }

    #[test]
    fn document_shape_and_ordering() {
        let mut b = TraceBuilder::new();
        b.process_name(1, "requests");
        b.thread_name(1, 42, "req 42");
        // Inserted out of time order on one track; finish() sorts.
        b.slice(1, 42, "read_service", "attr", 5_000, 1_000);
        b.slice(1, 42, "cache_service", "attr", 0, 5_000);
        let json = b.finish();
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        let cache_pos = json.find("cache_service").unwrap();
        let read_pos = json.find("read_service").unwrap();
        assert!(cache_pos < read_pos, "track must read in time order");
        assert!(json.contains("\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\""));
        assert!(json.contains("\"args\":{\"name\":\"req 42\"}"));
        assert!(json.contains("\"ts\":0.000,\"dur\":5.000"));
        assert!(json.contains("\"ts\":5.000,\"dur\":1.000"));
    }

    #[test]
    fn output_is_deterministic() {
        let build = || {
            let mut b = TraceBuilder::new();
            b.process_name(2, "chips");
            for i in 0..10u32 {
                b.thread_name(2, i, &format!("chip {i}"));
                b.slice(2, i, "read", "flash", (i as u64) * 100, 40);
            }
            b.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn names_are_escaped() {
        let mut b = TraceBuilder::new();
        b.slice(1, 1, "odd\"name", "c\\at", 0, 1);
        let json = b.finish();
        assert!(json.contains("odd\\\"name"));
        assert!(json.contains("c\\\\at"));
    }

    #[test]
    fn empty_builder_is_still_valid_shape() {
        let json = TraceBuilder::new().finish();
        assert_eq!(json, "{\"traceEvents\":[\n\n]}\n");
    }
}
