//! Parser for the MSR-Cambridge block I/O trace format.
//!
//! Five of the paper's six workloads (`hm_1`, `usr_0`, `src1_2`, `ts_0`,
//! `proj_0`) come from the MSR-Cambridge collection (Narayanan et al., "Write
//! off-loading", ACM TOS 2008). Each line of those CSV files is
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! 128166372003061629,hm,1,Read,383496192,32768,413
//! ```
//!
//! * `Timestamp` — Windows filetime (100 ns ticks since 1601-01-01),
//! * `Type` — `Read` or `Write` (case-insensitive),
//! * `Offset`/`Size` — bytes,
//! * `ResponseTime` — microseconds on the original system (ignored here).
//!
//! The parser normalizes timestamps so the first request arrives at `t = 0`
//! and converts ticks to nanoseconds. Malformed lines yield a descriptive
//! [`ParseError`] carrying the 1-based line number.

use crate::request::{OpType, Request};
use std::fmt;
use std::io::BufRead;
use std::sync::Arc;

/// Error produced while parsing an MSR trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MSR trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Number of nanoseconds per Windows filetime tick.
const NS_PER_TICK: u64 = 100;

/// Parse one CSV record (without the newline) into its raw fields. A size
/// that does not fit [`Request::len`]'s `u32`, or a byte range whose last
/// byte `offset + size - 1` overflows `u64`, is an error.
fn parse_line(line: &str, lineno: usize) -> Result<RawRecord, ParseError> {
    let err = |msg: String| ParseError { line: lineno, message: msg };
    let mut fields = line.split(',');
    let ts: u64 = fields
        .next()
        .ok_or_else(|| err("missing timestamp".into()))?
        .trim()
        .parse()
        .map_err(|e| err(format!("bad timestamp: {e}")))?;
    let _host = fields.next().ok_or_else(|| err("missing hostname".into()))?;
    let _disk = fields.next().ok_or_else(|| err("missing disk number".into()))?;
    let ty = fields.next().ok_or_else(|| err("missing op type".into()))?.trim();
    let op = if ty.eq_ignore_ascii_case("read") {
        OpType::Read
    } else if ty.eq_ignore_ascii_case("write") {
        OpType::Write
    } else {
        return Err(err(format!("unknown op type {ty:?}")));
    };
    let offset: u64 = fields
        .next()
        .ok_or_else(|| err("missing offset".into()))?
        .trim()
        .parse()
        .map_err(|e| err(format!("bad offset: {e}")))?;
    let size: u64 = fields
        .next()
        .ok_or_else(|| err("missing size".into()))?
        .trim()
        .parse()
        .map_err(|e| err(format!("bad size: {e}")))?;
    let size = u32::try_from(size).map_err(|_| {
        err(format!("size {size} is above the {} bytes a request can hold", u32::MAX))
    })?;
    if size > 0 && offset.checked_add(u64::from(size) - 1).is_none() {
        return Err(err(format!("offset {offset} + size {size} wraps past the last u64 byte")));
    }
    Ok((ts, op, offset, size))
}

/// The fields of one valid record: `(timestamp_ticks, op, offset, size)`.
type RawRecord = (u64, OpType, u64, u32);

/// The valid records of an MSR trace in file order, each with its 1-based
/// line number. Empty lines, lines starting with `#` and zero-size records
/// are skipped; a malformed line or a read error yields its
/// [`ParseError`].
struct Records<R> {
    lines: std::io::Lines<R>,
    /// Lines read so far.
    lineno: usize,
}

impl<R: BufRead> Records<R> {
    fn new(reader: R) -> Self {
        Self { lines: reader.lines(), lineno: 0 }
    }
}

impl<R: BufRead> Iterator for Records<R> {
    type Item = Result<(usize, RawRecord), ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = self.lines.next()?;
            self.lineno += 1;
            let lineno = self.lineno;
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    let message = format!("I/O error: {e}");
                    return Some(Err(ParseError { line: lineno, message }));
                }
            };
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            match parse_line(trimmed, lineno) {
                Ok(rec) if rec.3 == 0 => continue,
                rec => return Some(rec.map(|rec| (lineno, rec))),
            }
        }
    }
}

/// Parse a whole MSR-format trace into one shared slice, reading it
/// twice: `open` yields a fresh reader over the same bytes for each pass.
///
/// * Empty lines and lines starting with `#` are skipped.
/// * Zero-size requests are dropped (a handful exist in the raw traces).
/// * Timestamps are rebased so the earliest record is `t = 0` and converted
///   from 100 ns ticks to nanoseconds.
///
/// The first pass checks every line, counts the records and finds the
/// earliest timestamp; the second collects exactly that many requests
/// straight into the slice, so the trace is never staged or copied. A
/// record whose rebased timestamp does not fit in `u64` nanoseconds (a
/// span of more than `u64::MAX / 100` ticks), whose size is above
/// `u32::MAX` bytes, or whose byte range wraps past `u64::MAX` is a
/// [`ParseError`] naming its line. So is a second pass that runs out of
/// records, or meets one earlier than the earliest the first pass saw: the
/// file changed between the passes.
fn parse_twice<R: BufRead>(
    open: impl Fn() -> Result<R, ParseError>,
) -> Result<Arc<[Request]>, ParseError> {
    let (mut count, mut base) = (0, u64::MAX);
    for rec in Records::new(open()?) {
        let (_, (ts, ..)) = rec?;
        count += 1;
        base = base.min(ts);
    }
    let mut records = Records::new(open()?);
    let mut failed = None;
    // A counted range keeps the length visible to `collect`, which then
    // allocates the slice once; after an error the remaining slots are
    // filler, and the slice is dropped.
    let requests: Arc<[Request]> = (0..count)
        .map(|_| {
            if failed.is_none() {
                match rebased(&mut records, base) {
                    Ok(req) => return req,
                    Err(e) => failed = Some(e),
                }
            }
            Request { time_ns: 0, op: OpType::Read, offset: 0, len: 0 }
        })
        .collect();
    failed.map_or(Ok(requests), Err)
}

/// The next record of the second pass as a request whose timestamp is
/// rebased to `base`, the earliest timestamp of the first pass.
fn rebased<R: BufRead>(records: &mut Records<R>, base: u64) -> Result<Request, ParseError> {
    let changed = |line| ParseError { line, message: "the trace changed while it was read".into() };
    let (lineno, (ts, op, offset, len)) =
        records.next().unwrap_or_else(|| Err(changed(records.lineno + 1)))?;
    let span = ts.checked_sub(base).ok_or_else(|| changed(lineno))?;
    let time_ns = span.checked_mul(NS_PER_TICK).ok_or_else(|| ParseError {
        line: lineno,
        message: format!(
            "timestamp {ts} is {span} ticks after the earliest record; the span overflows u64 \
             nanoseconds"
        ),
    })?;
    Ok(Request { time_ns, op, offset, len })
}

/// Parse an MSR-format trace from a string (convenience for tests and small
/// embedded traces).
pub fn parse_str(s: &str) -> Result<Arc<[Request]>, ParseError> {
    parse_twice(|| Ok(s.as_bytes()))
}

/// Parse an MSR-format trace file from disk, opening it once per pass.
pub fn parse_file(path: &std::path::Path) -> Result<Arc<[Request]>, ParseError> {
    parse_twice(|| {
        let file = std::fs::File::open(path).map_err(|e| ParseError {
            line: 0,
            message: format!("cannot open {}: {e}", path.display()),
        })?;
        Ok(std::io::BufReader::new(file))
    })
}

/// One request as an MSR CSV row, without its line end: hostname/disk
/// filled with placeholders, response-time column zero, and the timestamp
/// in filetime ticks with the same truncation the parser applies.
struct Row(Request);

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.0;
        let op = match r.op {
            OpType::Read => "Read",
            OpType::Write => "Write",
        };
        write!(f, "{},synth,0,{op},{},{},0", r.time_ns / NS_PER_TICK, r.offset, r.len)
    }
}

/// Render requests in the MSR CSV format (hostname/disk filled with
/// placeholders, response-time column zero), one row per line.
/// `parse_str(write_csv(reqs))` round-trips exactly.
pub fn write_csv(requests: &[Request]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(requests.len() * 48);
    for &r in requests {
        let _ = writeln!(out, "{}", Row(r));
    }
    out
}

/// Write requests to an MSR-format CSV file, the bytes [`write_csv`]
/// renders, one row at a time through a buffer: neither the file nor, when
/// `requests` is a generator, the trace is ever held in memory.
pub fn write_file(
    path: &std::path::Path,
    requests: impl IntoIterator<Item = Request>,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in requests {
        writeln!(out, "{}", Row(r))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PAGE_SIZE;

    const SAMPLE: &str = "\
128166372003061629,hm,1,Read,383496192,32768,413
128166372016382155,hm,1,Write,2941606912,4096,4592
128166372026382245,hm,1,write,2941606912,8192,208
";

    #[test]
    fn parses_sample_records() {
        let reqs = parse_str(SAMPLE).unwrap();
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].op, OpType::Read);
        assert_eq!(reqs[0].offset, 383496192);
        assert_eq!(reqs[0].len, 32768);
        assert_eq!(reqs[0].page_count(), 32768 / PAGE_SIZE);
        assert_eq!(reqs[1].op, OpType::Write);
        // Case-insensitive op type.
        assert_eq!(reqs[2].op, OpType::Write);
    }

    #[test]
    fn timestamps_rebased_to_zero_ns() {
        let reqs = parse_str(SAMPLE).unwrap();
        assert_eq!(reqs[0].time_ns, 0);
        assert_eq!(reqs[1].time_ns, (128166372016382155u64 - 128166372003061629) * 100);
    }

    #[test]
    fn skips_comments_blank_and_zero_size() {
        let s = "# header\n\n128166372003061629,hm,1,Read,0,0,0\n128166372003061630,hm,1,Write,4096,4096,1\n";
        let reqs = parse_str(s).unwrap();
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0].is_write());
    }

    #[test]
    fn reports_line_number_on_bad_type() {
        let s = "128166372003061629,hm,1,Trim,0,4096,0\n";
        let err = parse_str(s).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("Trim"));
    }

    #[test]
    fn reports_bad_numeric_fields() {
        let err = parse_str("notanumber,hm,1,Read,0,4096,0\n").unwrap_err();
        assert!(err.message.contains("timestamp"));
        let err = parse_str("1,hm,1,Read,xyz,4096,0\n").unwrap_err();
        assert!(err.message.contains("offset"));
        let err = parse_str("1,hm,1,Read,0,xyz,0\n").unwrap_err();
        assert!(err.message.contains("size"));
    }

    #[test]
    fn reports_missing_fields() {
        let err = parse_str("1,hm,1\n").unwrap_err();
        assert!(err.message.contains("missing op type"));
    }

    #[test]
    fn timestamp_span_overflow_names_the_line() {
        let s = "18446744073709551615,h,0,Read,0,4096\n0,h,0,Read,0,4096\n";
        let err = parse_str(s).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("overflows"), "{err}");
        // The largest span that still fits parses.
        let max_ticks = u64::MAX / NS_PER_TICK;
        let reqs = parse_str(&format!("{max_ticks},h,0,Read,0,4096\n0,h,0,Read,0,4096\n")).unwrap();
        assert_eq!(reqs[0].time_ns, max_ticks * NS_PER_TICK);
    }

    #[test]
    fn size_beyond_u32_names_the_line() {
        let s = "0,h,0,Read,0,4096\n1,h,0,Write,0,4294967296\n";
        let err = parse_str(s).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("size 4294967296"), "{err}");
        // The largest length that fits parses.
        let reqs = parse_str("0,h,0,Write,0,4294967295\n").unwrap();
        assert_eq!(reqs[0].len, u32::MAX);
    }

    #[test]
    fn wrapping_byte_range_names_the_line() {
        let s = "0,h,0,Read,0,4096\n128166372003061629,h,0,Read,18446744073709551615,4096,0\n";
        let err = parse_str(s).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("wraps"), "{err}");
        // A range that ends on the last byte parses, and so does a
        // zero-size record there (it is dropped).
        let last = "0,h,0,Read,18446744073709551615";
        let reqs = parse_str(&format!("{last},1\n{last},0\n")).unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].page_count(), 1);
    }

    #[test]
    fn a_trace_that_changes_between_passes_is_an_error() {
        // The second pass meets a record earlier than the first pass's
        // earliest, or runs out of records.
        for (first, second, line) in [
            ("5,h,0,Read,0,4096\n", "1,h,0,Read,0,4096\n", 1),
            ("5,h,0,Read,0,4096\n6,h,0,Read,0,4096\n", "5,h,0,Read,0,4096\n", 2),
        ] {
            let passes = std::cell::Cell::new(0);
            let err = parse_twice(|| {
                passes.set(passes.get() + 1);
                Ok(if passes.get() == 1 { first } else { second }.as_bytes())
            })
            .unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert!(err.message.contains("changed"), "{err}");
        }
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert!(parse_str("").unwrap().is_empty());
    }

    #[test]
    fn error_display_includes_line() {
        let err = parse_str("x\n").unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("line 1"), "{shown}");
    }
}

#[cfg(test)]
mod writer_tests {
    use super::*;
    use crate::request::PAGE_SIZE;
    use crate::{profiles, SyntheticTrace};

    #[test]
    fn roundtrip_small_synthetic_trace() {
        // Timestamps must be tick-aligned to round-trip exactly; quantize
        // the way the writer does before comparing.
        let reqs: Vec<Request> = SyntheticTrace::new(profiles::ts_0().scaled(0.001))
            .map(|mut r| {
                r.time_ns = (r.time_ns / NS_PER_TICK) * NS_PER_TICK;
                r
            })
            .collect();
        let csv = write_csv(&reqs);
        let parsed = parse_str(&csv).unwrap();
        assert_eq!(parsed.len(), reqs.len());
        // The parser rebases timestamps to the earliest record.
        let base = reqs.iter().map(|r| r.time_ns).min().unwrap();
        for (orig, round) in reqs.iter().zip(parsed.iter()) {
            assert_eq!(round.op, orig.op);
            assert_eq!(round.offset, orig.offset);
            assert_eq!(round.len, orig.len);
            assert_eq!(round.time_ns, orig.time_ns - base);
        }
    }

    #[test]
    fn writer_emits_parseable_fields() {
        let reqs = vec![
            Request::write_pages(100, 5, 2),
            Request::read_pages(1_000, 0, 1),
        ];
        let csv = write_csv(&reqs);
        assert!(csv.contains(&format!("Write,{},{}", 5 * PAGE_SIZE, 2 * PAGE_SIZE)));
        assert!(csv.contains("Read,0,4096"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn write_file_then_parse_file() {
        let path = std::env::temp_dir().join("reqblock_msr_roundtrip_test.csv");
        let reqs = [Request::write_pages(0, 1, 1), Request::read_pages(200, 1, 1)];
        write_file(&path, reqs.iter().copied()).unwrap();
        let parsed = parse_file(&path).unwrap();
        assert_eq!(parsed.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
