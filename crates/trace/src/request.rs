//! Block-level I/O request model.
//!
//! A [`Request`] mirrors one line of a block trace: an arrival timestamp, an
//! operation type, and a byte range on the logical address space of the
//! device. All higher layers (cache, FTL) work on 4 KB logical pages, so the
//! request also knows how to enumerate the logical page numbers it touches.

use serde::{Deserialize, Serialize};

/// Logical page number. One page is [`PAGE_SIZE`] bytes.
pub type Lpn = u64;

/// Size of one flash page in bytes (Table 1: "Page Size 4KB").
pub const PAGE_SIZE: u64 = 4096;

/// Operation type of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpType {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

impl OpType {
    /// `true` for [`OpType::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, OpType::Write)
    }
}

/// One host I/O request.
///
/// `offset` and `len` are in bytes, exactly as they appear in block traces.
/// `len` must be non-zero for the request to touch any page, and the last
/// byte `offset + len - 1` must fit in `u64`: the MSR parser rejects a
/// record that breaks either bound and the synthetic generator never makes
/// one. `len` is a `u32` (at most 4 GiB - 1) so a request packs into 24
/// bytes; every materialized trace is a slice of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time in nanoseconds since trace start.
    pub time_ns: u64,
    /// Read or write.
    pub op: OpType,
    /// Starting byte offset on the logical device.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
}

// A field that re-pads the record grows every trace copy by a third.
const _: () = assert!(std::mem::size_of::<Request>() == 24);

impl Request {
    /// Construct a request.
    ///
    /// # Panics
    /// Panics if `len` does not fit the `u32` length field, and in debug
    /// builds if `len == 0`.
    #[inline]
    pub fn new(time_ns: u64, op: OpType, offset: u64, len: u64) -> Self {
        debug_assert!(len > 0, "zero-length request");
        let len = u32::try_from(len).expect("a request's length must fit its u32 byte count");
        Self { time_ns, op, offset, len }
    }

    /// Convenience constructor for a write covering whole pages. Panics
    /// like [`Request::new`] beyond 1 048 575 pages.
    #[inline]
    pub fn write_pages(time_ns: u64, start_lpn: Lpn, pages: u64) -> Self {
        Self::new(time_ns, OpType::Write, start_lpn * PAGE_SIZE, pages * PAGE_SIZE)
    }

    /// Convenience constructor for a read covering whole pages. Panics
    /// like [`Request::new`] beyond 1 048 575 pages.
    #[inline]
    pub fn read_pages(time_ns: u64, start_lpn: Lpn, pages: u64) -> Self {
        Self::new(time_ns, OpType::Read, start_lpn * PAGE_SIZE, pages * PAGE_SIZE)
    }

    /// First logical page touched by this request.
    #[inline]
    pub fn start_lpn(&self) -> Lpn {
        self.offset / PAGE_SIZE
    }

    /// Last logical page touched by this request: the page holding byte
    /// `offset + len - 1`. Meaningful only for a non-empty request.
    #[inline]
    pub fn last_lpn(&self) -> Lpn {
        (self.offset + (u64::from(self.len) - 1)) / PAGE_SIZE
    }

    /// Number of logical pages the byte range `[offset, offset+len)` touches.
    ///
    /// A request that straddles a page boundary touches both pages, so this
    /// is not simply `len / PAGE_SIZE`.
    #[inline]
    pub fn page_count(&self) -> u64 {
        if self.len == 0 {
            return 0;
        }
        self.last_lpn() - self.start_lpn() + 1
    }

    /// Iterator over every logical page number this request touches, in
    /// ascending order (the order Algorithm 1 of the paper walks them).
    #[inline]
    pub fn lpns(&self) -> impl Iterator<Item = Lpn> + '_ {
        let start = self.start_lpn();
        (0..self.page_count()).map(move |i| start + i)
    }

    /// `true` if this is a write request.
    #[inline]
    pub fn is_write(&self) -> bool {
        self.op.is_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_count_aligned() {
        let r = Request::new(0, OpType::Write, 0, PAGE_SIZE * 3);
        assert_eq!(r.page_count(), 3);
        assert_eq!(r.start_lpn(), 0);
    }

    #[test]
    fn page_count_sub_page() {
        let r = Request::new(0, OpType::Read, 512, 100);
        assert_eq!(r.page_count(), 1);
        assert_eq!(r.start_lpn(), 0);
    }

    #[test]
    fn page_count_straddles_boundary() {
        // 100 bytes starting 50 bytes before a page boundary -> 2 pages.
        let r = Request::new(0, OpType::Write, PAGE_SIZE - 50, 100);
        assert_eq!(r.page_count(), 2);
        assert_eq!(r.start_lpn(), 0);
        let pages: Vec<Lpn> = r.lpns().collect();
        assert_eq!(pages, vec![0, 1]);
    }

    #[test]
    fn page_count_exact_boundary_end() {
        // Ends exactly on a boundary: does not touch the next page.
        let r = Request::new(0, OpType::Write, PAGE_SIZE, PAGE_SIZE);
        assert_eq!(r.page_count(), 1);
        assert_eq!(r.start_lpn(), 1);
    }

    #[test]
    fn lpns_enumerates_ascending() {
        let r = Request::write_pages(0, 10, 4);
        let pages: Vec<Lpn> = r.lpns().collect();
        assert_eq!(pages, vec![10, 11, 12, 13]);
    }

    #[test]
    fn zero_len_touches_nothing() {
        let r = Request { time_ns: 0, op: OpType::Read, offset: 4096, len: 0 };
        assert_eq!(r.page_count(), 0);
        assert_eq!(r.lpns().count(), 0);
    }

    #[test]
    fn last_lpn_is_the_page_of_the_last_byte() {
        let r = Request::new(0, OpType::Write, PAGE_SIZE - 50, 100);
        assert_eq!(r.last_lpn(), 1);
        let r = Request::new(0, OpType::Read, u64::MAX - 9, 10);
        assert_eq!(r.last_lpn(), u64::MAX / PAGE_SIZE);
        assert_eq!(r.page_count(), 1);
    }

    #[test]
    #[should_panic(expected = "u32 byte count")]
    fn lengths_past_u32_are_refused() {
        Request::write_pages(0, 0, 1 << 20);
    }

    #[test]
    fn helpers_match_optype() {
        assert!(Request::write_pages(0, 0, 1).is_write());
        assert!(!Request::read_pages(0, 0, 1).is_write());
        assert!(OpType::Write.is_write());
        assert!(!OpType::Read.is_write());
    }
}
