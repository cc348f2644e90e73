//! Per-layer replays driven only through each layer's public API.
//!
//! One pass through the cache layer ([`replay_cache`]) captures the stream
//! of FTL calls its decisions imply — read misses and dirty flushes, in
//! engine order, each issued at its request's arrival time exactly as
//! `reqblock_sim`'s engine issues them. That [`Capture`] then re-drives the
//! FTL and flash timeline alone ([`replay_ftl`]; [`replay_flushes`] for the
//! flushes without the reads) and, with the flush
//! completion times the FTL replay returns, the host flush window alone
//! ([`replay_window`]). Because the engine issues every flash operation at
//! the request's arrival, independent of response times, the isolated
//! replays reproduce the full run's counters exactly; the benchmark checks
//! that they do.

use reqblock_cache::{Access, EvictionBatch, Placement as CachePlacement};
use reqblock_flash::FlashTimeline;
use reqblock_ftl::{Ftl, Placement as FtlPlacement};
use reqblock_sim::{FlushWindow, PolicyBuffer, SubmitMode};
use reqblock_trace::{Lpn, OpType, Request};

/// Queue depth of the flush window [`replay_window`] replays (`fleet_qd8`'s
/// depth; the synchronous workloads never consult a window).
pub const WINDOW_DEPTH: u32 = 8;

/// What the cache layer decided over one replay — the counts the engine's
/// `Metrics` keep for the same decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Pages accessed (reads and writes).
    pub pages: u64,
    /// Pages served or absorbed by the cache.
    pub hits: u64,
    /// Dirty eviction batches (victim selections that reach flash).
    pub evictions: u64,
    /// Pages in dirty eviction batches.
    pub evicted_pages: u64,
    /// Pages of clean batches dropped without flash traffic.
    pub clean_dropped_pages: u64,
    /// Padding reads dirty batches ask for (BPLRU).
    pub pad_reads: u64,
}

/// Receives the FTL calls the cache layer's decisions imply.
pub trait Sink {
    /// A read page missed the cache.
    fn read_miss(&mut self, lpn: Lpn);
    /// A dirty batch was evicted by a page of the request arriving at `at`.
    fn flush(&mut self, batch: &EvictionBatch, at: u64);
    /// The current request's pages are done.
    fn end_request(&mut self);
}

/// A [`Sink`] that drops everything: the timed cache pass.
pub struct Discard;

impl Sink for Discard {
    #[inline]
    fn read_miss(&mut self, _: Lpn) {}
    #[inline]
    fn flush(&mut self, _: &EvictionBatch, _: u64) {}
    #[inline]
    fn end_request(&mut self) {}
}

/// Drive `requests` through the cache alone, in engine order: one
/// [`Access`] per page with the request's id and size and the logical page
/// clock, read misses reported before the evictions their page caused.
pub fn replay_cache<S: Sink>(
    cache: &mut PolicyBuffer,
    requests: &[Request],
    sink: &mut S,
) -> CacheCounts {
    let mut counts = CacheCounts::default();
    let mut evictions: Vec<EvictionBatch> = Vec::with_capacity(4);
    let mut now = 0u64;
    for (req_id, req) in requests.iter().enumerate() {
        let req_pages = req.page_count() as u32;
        let write = req.op == OpType::Write;
        for lpn in req.lpns() {
            now += 1;
            let a = Access {
                lpn,
                req_id: req_id as u64,
                req_pages,
                now,
            };
            let hit = if write {
                cache.write(&a, &mut evictions)
            } else {
                cache.read(&a, &mut evictions)
            };
            counts.pages += 1;
            counts.hits += u64::from(hit);
            if !write && !hit {
                sink.read_miss(lpn);
            }
            for batch in evictions.drain(..) {
                if batch.dirty {
                    counts.evictions += 1;
                    counts.evicted_pages += batch.lpns.len() as u64;
                    counts.pad_reads += batch.pad_reads.len() as u64;
                    sink.flush(&batch, req.time_ns);
                } else {
                    counts.clean_dropped_pages += batch.lpns.len() as u64;
                }
                cache.recycle(batch);
            }
        }
        sink.end_request();
    }
    counts
}

#[derive(Debug, Clone, Copy)]
enum FtlOp {
    Read(Lpn),
    /// Index into [`Capture::batches`].
    Flush(usize),
}

#[derive(Debug, Clone, Copy)]
struct Batch {
    /// Arrival of the request whose page evicted the batch.
    at: u64,
    /// Offset of the batch's pages in [`Capture::lpns`]; its pad reads
    /// follow them.
    start: usize,
    pages: usize,
    pads: usize,
    placement: FtlPlacement,
}

/// The FTL-bound stream one cache replay produced.
#[derive(Debug, Default)]
pub struct Capture {
    ops: Vec<FtlOp>,
    /// `ops[op_end[i - 1]..op_end[i]]` were issued by request `i`.
    op_end: Vec<usize>,
    /// Dirty flushes issued by requests `0..=i`.
    flush_end: Vec<usize>,
    batches: Vec<Batch>,
    lpns: Vec<Lpn>,
}

impl Capture {
    /// Dirty flushes captured.
    pub fn flushes(&self) -> usize {
        self.batches.len()
    }

    /// Issue flush `b` at its arrival as the device layer does: padding
    /// reads first (when `pad`), then the programs. Returns when it is done.
    fn flush(&self, b: usize, ftl: &mut Ftl, tl: &mut FlashTimeline, pad: bool) -> u64 {
        let batch = self.batches[b];
        let pages = &self.lpns[batch.start..batch.start + batch.pages];
        let mut done = batch.at;
        if pad {
            for &lpn in &self.lpns[batch.start + batch.pages..][..batch.pads] {
                done = done.max(ftl.read_page_completion(lpn, batch.at, tl).done_ns);
            }
        }
        let io = ftl.write_pages_completion(pages, done, batch.placement, tl);
        done.max(io.done_ns)
    }
}

impl Sink for Capture {
    fn read_miss(&mut self, lpn: Lpn) {
        self.ops.push(FtlOp::Read(lpn));
    }

    fn flush(&mut self, batch: &EvictionBatch, at: u64) {
        let start = self.lpns.len();
        self.lpns.extend_from_slice(&batch.lpns);
        self.lpns.extend_from_slice(&batch.pad_reads);
        let placement = match batch.placement {
            CachePlacement::Striped => FtlPlacement::Striped,
            CachePlacement::SingleBlock => FtlPlacement::SingleBlock,
        };
        let (pages, pads) = (batch.lpns.len(), batch.pad_reads.len());
        self.ops.push(FtlOp::Flush(self.batches.len()));
        self.batches.push(Batch {
            at,
            start,
            pages,
            pads,
            placement,
        });
    }

    fn end_request(&mut self) {
        self.op_end.push(self.ops.len());
        self.flush_end.push(self.batches.len());
    }
}

/// Re-drive a [`Capture`] through the FTL and flash timeline, each call at
/// its request's arrival like the engine's device layer. Pushes each
/// flush's completion time onto `ready`.
pub fn replay_ftl(
    ftl: &mut Ftl,
    tl: &mut FlashTimeline,
    requests: &[Request],
    cap: &Capture,
    ready: &mut Vec<u64>,
) {
    let mut start = 0;
    for (req, &end) in requests.iter().zip(&cap.op_end) {
        for &op in &cap.ops[start..end] {
            match op {
                FtlOp::Read(lpn) => {
                    ftl.read_page_completion(lpn, req.time_ns, tl);
                }
                FtlOp::Flush(b) => ready.push(cap.flush(b, ftl, tl, true)),
            }
        }
        start = end;
    }
}

/// Re-drive only the captured flushes, without read misses or padding
/// reads. Still reproduces every program, erase and GC count: GC decisions
/// depend on writes alone.
pub fn replay_flushes(ftl: &mut Ftl, tl: &mut FlashTimeline, cap: &Capture) {
    for b in 0..cap.batches.len() {
        cap.flush(b, ftl, tl, false);
    }
}

/// What the flush window did over one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounts {
    /// Flushes admitted.
    pub admits: u64,
    /// Admits that found the window full and waited for the earliest
    /// outstanding flush.
    pub full_waits: u64,
    /// Most flushes in flight at once.
    pub max_outstanding: usize,
}

/// Re-drive the captured flush stream through a depth-[`WINDOW_DEPTH`]
/// [`FlushWindow`]: one `retire_until(arrival)` per request, one
/// `admit(ready)` per dirty flush, `ready` as [`replay_ftl`] returned it.
pub fn replay_window(requests: &[Request], cap: &Capture, ready: &[u64]) -> WindowCounts {
    let mut window = FlushWindow::new(SubmitMode::Queued {
        depth: WINDOW_DEPTH,
    });
    let mut counts = WindowCounts::default();
    let mut start = 0;
    for (req, &end) in requests.iter().zip(&cap.flush_end) {
        window.retire_until(req.time_ns);
        for &r in &ready[start..end] {
            counts.full_waits += u64::from(window.admit(r).is_some());
        }
        start = end;
    }
    counts.admits = start as u64;
    counts.max_outstanding = window.max_outstanding();
    counts
}
