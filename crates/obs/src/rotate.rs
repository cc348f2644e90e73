//! Size-rotating JSONL telemetry sink (the fleet-ready writer).
//!
//! One simulated device emits one JSONL stream; a fleet-scale sweep
//! (ROADMAP item 1) emits thousands, and an unbounded single file stops
//! being a useful artifact. [`RotatingSink`] splits a line stream into
//! byte-bounded chunks at **byte-deterministic** rotation points: a line
//! rotates to a fresh chunk exactly when appending it (plus its newline)
//! would push the current non-empty chunk past `max_bytes`. The decision
//! depends only on the bytes pushed so far — never on wall-clock, flush
//! timing, or the filesystem — so the same stream always shards at the
//! same lines, and chunk contents are byte-identical across runs and
//! thread counts. Lines longer than `max_bytes` still land whole (in a
//! chunk of their own): a JSONL line is the atomic unit and is never
//! split.
//!
//! [`TelemetryWriter`] is the file-backed form: it routes a sink's chunks
//! to `<dir>/<base>.NNN.jsonl` shards.

use std::io;
use std::path::{Path, PathBuf};

/// In-memory rotating line sink with byte-deterministic rotation points.
#[derive(Debug, Clone)]
pub struct RotatingSink {
    max_bytes: usize,
    sealed: Vec<String>,
    current: String,
}

impl RotatingSink {
    /// Sink whose chunks stay at or under `max_bytes` (except for single
    /// oversized lines, which get a chunk of their own).
    pub fn new(max_bytes: usize) -> Self {
        assert!(max_bytes > 0, "rotation threshold must be positive");
        Self { max_bytes, sealed: Vec::new(), current: String::new() }
    }

    /// Append one line (a trailing `\n` is added; `line` itself must not
    /// contain one). Rotates first when the line would not fit.
    pub fn push_line(&mut self, line: &str) {
        debug_assert!(!line.contains('\n'), "push_line takes a single line");
        let incoming = line.len() + 1;
        if !self.current.is_empty() && self.current.len() + incoming > self.max_bytes {
            self.sealed.push(std::mem::take(&mut self.current));
        }
        self.current.push_str(line);
        self.current.push('\n');
    }

    /// Append every line of a JSONL document.
    pub fn push_document(&mut self, jsonl: &str) {
        for line in jsonl.lines() {
            self.push_line(line);
        }
    }

    /// Number of chunks the stream has produced so far (including the
    /// in-progress one when non-empty).
    pub fn chunk_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.current.is_empty())
    }

    /// All chunks, in order; the last one is the in-progress chunk.
    pub fn into_chunks(self) -> Vec<String> {
        let mut out = self.sealed;
        if !self.current.is_empty() {
            out.push(self.current);
        }
        out
    }
}

/// File-backed rotating telemetry writer: shards a line stream into
/// `<dir>/<base>.NNN.jsonl`.
#[derive(Debug)]
pub struct TelemetryWriter {
    dir: PathBuf,
    base: String,
    sink: RotatingSink,
}

impl TelemetryWriter {
    /// Writer for `<dir>/<base>.NNN.jsonl` shards rotating at `max_bytes`.
    pub fn new(dir: impl Into<PathBuf>, base: impl Into<String>, max_bytes: usize) -> Self {
        Self { dir: dir.into(), base: base.into(), sink: RotatingSink::new(max_bytes) }
    }

    /// Append one line (see [`RotatingSink::push_line`]).
    pub fn push_line(&mut self, line: &str) {
        self.sink.push_line(line);
    }

    /// Append every line of a JSONL document.
    pub fn push_document(&mut self, jsonl: &str) {
        self.sink.push_document(jsonl);
    }

    /// Write all shards and return their paths in order. Shards are
    /// numbered `000`, `001`, ... so lexicographic order is stream order.
    /// An error names the directory or shard it failed on.
    pub fn finish(self) -> io::Result<Vec<PathBuf>> {
        let named = |path: &Path, e: io::Error| {
            io::Error::new(e.kind(), format!("{}: {e}", path.display()))
        };
        std::fs::create_dir_all(&self.dir).map_err(|e| named(&self.dir, e))?;
        let mut paths = Vec::new();
        for (i, chunk) in self.sink.into_chunks().into_iter().enumerate() {
            let path = self.dir.join(format!("{}.{:03}.jsonl", self.base, i));
            std::fs::write(&path, chunk).map_err(|e| named(&path, e))?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// One-shot convenience: shard a complete JSONL document to
/// `<dir>/<base>.NNN.jsonl` files rotating at `max_bytes`.
pub fn write_rotated(
    dir: &Path,
    base: &str,
    max_bytes: usize,
    jsonl: &str,
) -> io::Result<Vec<PathBuf>> {
    let mut w = TelemetryWriter::new(dir, base, max_bytes);
    w.push_document(jsonl);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_points_are_byte_deterministic() {
        let run = |lines: &[&str]| {
            let mut sink = RotatingSink::new(16);
            for l in lines {
                sink.push_line(l);
            }
            sink.into_chunks()
        };
        let lines = ["aaaa", "bbbb", "cccc", "dddd", "eeee"];
        let a = run(&lines);
        let b = run(&lines);
        assert_eq!(a, b, "same stream must shard identically");
        // 16-byte chunks hold three 5-byte lines ("aaaa\n"): 3 + 2.
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], "aaaa\nbbbb\ncccc\n");
        assert_eq!(a[1], "dddd\neeee\n");
    }

    #[test]
    fn reassembled_chunks_equal_the_stream() {
        let mut sink = RotatingSink::new(10);
        let mut expect = String::new();
        for i in 0..50 {
            let line = format!("line-{i}");
            sink.push_line(&line);
            expect.push_str(&line);
            expect.push('\n');
        }
        let chunks = sink.into_chunks();
        assert!(chunks.len() > 1, "must actually rotate");
        assert!(chunks.iter().all(|c| c.len() <= 10));
        assert_eq!(chunks.concat(), expect, "no bytes lost or reordered");
    }

    #[test]
    fn oversized_lines_land_whole() {
        let mut sink = RotatingSink::new(4);
        sink.push_line("tiny");
        sink.push_line("much-longer-than-the-threshold");
        sink.push_line("x");
        let chunks = sink.into_chunks();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[1], "much-longer-than-the-threshold\n");
    }

    #[test]
    fn chunk_count_tracks_progress() {
        let mut sink = RotatingSink::new(6);
        assert_eq!(sink.chunk_count(), 0);
        sink.push_line("abcd");
        assert_eq!(sink.chunk_count(), 1);
        sink.push_line("efgh");
        assert_eq!(sink.chunk_count(), 2);
    }

    #[test]
    fn writer_emits_ordered_shards() {
        let dir = std::env::temp_dir().join("reqblock_rotate_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = TelemetryWriter::new(&dir, "dev0", 12);
        for i in 0..6 {
            w.push_line(&format!("row-{i}"));
        }
        let paths = w.finish().unwrap();
        assert_eq!(paths.len(), 3, "six 6-byte lines at 12 bytes -> 3 shards");
        assert!(paths[0].ends_with("dev0.000.jsonl"));
        assert!(paths[2].ends_with("dev0.002.jsonl"));
        let mut all = String::new();
        for p in &paths {
            all.push_str(&std::fs::read_to_string(p).unwrap());
        }
        assert_eq!(all, "row-0\nrow-1\nrow-2\nrow-3\nrow-4\nrow-5\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_rotated_roundtrips_a_document() {
        let dir = std::env::temp_dir().join("reqblock_rotate_doc_test");
        let _ = std::fs::remove_dir_all(&dir);
        let doc = "{\"type\":\"run_meta\"}\n{\"type\":\"counter\"}\n{\"type\":\"gauge\"}\n";
        let paths = write_rotated(&dir, "t", 21, doc).unwrap();
        assert!(paths.len() >= 2);
        let mut all = String::new();
        for p in &paths {
            all.push_str(&std::fs::read_to_string(p).unwrap());
        }
        assert_eq!(all, doc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "rotation threshold")]
    fn zero_threshold_rejected() {
        let _ = RotatingSink::new(0);
    }
}
