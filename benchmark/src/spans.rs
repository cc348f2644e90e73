//! In-memory host-time spans for the traced run, written out once as a
//! Chrome trace-event document.

use reqblock_obs::TraceBuilder;
use std::time::Instant;

/// One timed interval of the benchmark's own work.
#[derive(Debug)]
struct Span {
    /// What ran (`setup.synth`, `cache.pass`, `e2e.chunk`, ...).
    name: &'static str,
    /// Start, ns since the recorder's epoch.
    start_ns: u64,
    /// End, ns since the recorder's epoch.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    /// Run identifier: the workload's index.
    run: u32,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder for run `run`, with its epoch at `epoch`.
    pub fn new(run: u32, epoch: Instant) -> Self {
        Self {
            epoch,
            run,
            spans: Vec::new(),
        }
    }

    /// Record a finished interval; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Close a span opened with [`Spans::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// The Chrome trace-event document: one process per run, one track,
    /// children nested inside their parent's interval; each slice's
    /// category names its parent.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut b = TraceBuilder::new();
        let pid = self.run + 1;
        b.process_name(pid, workload);
        b.thread_name(pid, 1, "benchmark");
        for s in &self.spans {
            let cat = s.parent.map_or("run", |p| self.spans[p].name);
            b.slice(pid, 1, s.name, cat, s.start_ns, s.end_ns - s.start_ns);
        }
        b.finish()
    }
}
