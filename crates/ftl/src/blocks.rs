//! Per-chip physical block state.
//!
//! Each chip owns `blocks_per_chip` blocks. A block is either **free**
//! (erased, or never used), **active** (the chip's current append point),
//! **full** (append pointer exhausted; candidate for GC once pages turn
//! invalid), or **bad** (retired after a program/erase failure; permanently
//! out of rotation). Valid pages are tracked in a per-block `u64` bitmap,
//! which is why the simulator caps `pages_per_block` at 64 (the paper's
//! value).
//!
//! State follows the written footprint, not the chip's capacity. Blocks
//! are first opened in index order, so every block ever allocated lies
//! below an allocation watermark; only that prefix stores metadata, and
//! blocks at or above it read as fresh. Storage grows one chunk of 64
//! blocks at a time, so growth never copies a large buffer. A run that
//! writes a few hundred of a paper chip's 32 768 blocks holds a few
//! hundred blocks' state.
//!
//! The state only garbage collection reads is the chip's **GC index**: the
//! reverse map (PPN -> LPN) and the GC candidates, the full blocks with
//! invalid pages listed by invalid count ([`crate::gc`]). A chip keeps no
//! index until [`ChipBlocks::build_index`] builds it, which the FTL does
//! when the device first migrates a page; a device that never collects
//! never pays for it. From the build on, the transitions below keep the
//! index exact, and nothing else changes it; [`ChipBlocks::reset`] drops
//! it again.

use crate::gc::GcLists;
use reqblock_flash::SsdConfig;

/// Sentinel for "no page" in the translation tables: the forward map's
/// unmapped entry, and the reverse map's entry for a page not programmed
/// since its chunk materialized.
pub(crate) const UNMAPPED: u32 = u32::MAX;

/// log2 of [`CHUNK_BLOCKS`].
const CHUNK_SHIFT: u32 = 6;
/// Blocks whose metadata materializes together: 1 KiB at any page count,
/// and 16 KiB of reverse map at 64 pages per block once the GC index is
/// built.
const CHUNK_BLOCKS: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK_BLOCKS - 1;

/// Lifecycle state of a block (derived, stored for cheap assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Erased (or never used) and free for allocation.
    Free,
    /// Current append point of its chip.
    Active,
    /// All pages programmed at least once since the last erase.
    Full,
    /// Retired after a program or erase failure; never allocated, GC'd or
    /// erased again. Bad blocks permanently shrink the chip's
    /// overprovisioning.
    Bad,
}

/// Metadata of one physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Bitmap of valid pages (bit `i` = page `i` holds live data).
    pub valid: u64,
    /// Next page index to program (append pointer).
    pub next_page: u16,
    /// Number of erases this block has seen (wear).
    pub erase_count: u32,
    /// Lifecycle state.
    pub state: BlockState,
}

/// The metadata of a block never allocated since construction or reset.
const FRESH: BlockMeta =
    BlockMeta { valid: 0, next_page: 0, erase_count: 0, state: BlockState::Free };

impl BlockMeta {
    /// Number of valid pages.
    #[inline]
    pub fn valid_count(&self) -> u32 {
        self.valid.count_ones()
    }

    /// Number of invalid pages (programmed but superseded).
    #[inline]
    pub fn invalid_count(&self) -> u32 {
        self.next_page as u32 - self.valid_count()
    }
}

/// Block manager for a single chip.
#[derive(Debug, Clone)]
pub struct ChipBlocks {
    /// Metadata of blocks `0..hot`, [`CHUNK_BLOCKS`] per chunk. Entries
    /// at or past `hot` are fresh.
    // Boxed so that growing the `Vec` moves chunk pointers, not chunks.
    #[allow(clippy::vec_box)]
    meta: Vec<Box<[BlockMeta; CHUNK_BLOCKS]>>,
    /// Reverse map (PPN -> LPN) of the same chunks, `pages_per_block`
    /// entries per block; one chunk per metadata chunk while the index is
    /// built. Written when a page is programmed and left stale when it is
    /// invalidated: the valid bitmap is the liveness source of truth, and
    /// every reader consults it first. Kept, stale, across a reset.
    lpns: Vec<Box<[u32]>>,
    /// Erased blocks, popped before the watermark advances.
    free: Vec<u32>,
    /// Current append block, if one is open.
    active: Option<u32>,
    /// Blocks retired as bad (cached count; the states are authoritative).
    bad: usize,
    /// Blocks on the chip.
    blocks: u32,
    pages_per_block: u16,
    /// Allocation watermark: blocks `0..hot` have been allocated since
    /// construction or the last reset, and no other block has. Allocation
    /// pops an erased block first and otherwise opens block `hot`, and
    /// erase/retire only recycle allocated blocks, so the ever-touched set
    /// is always this prefix.
    hot: u32,
    /// The full blocks with invalid pages, by invalid count; empty while
    /// the index is unbuilt.
    gc: GcLists,
    /// Whether the GC index (`lpns` and `gc`) is built and kept exact.
    indexed: bool,
}

impl ChipBlocks {
    /// All blocks free, no active block. Allocates nothing.
    pub fn new(cfg: &SsdConfig) -> Self {
        Self {
            meta: Vec::new(),
            lpns: Vec::new(),
            free: Vec::new(),
            active: None,
            bad: 0,
            blocks: u32::try_from(cfg.blocks_per_chip()).expect("block index fits u32"),
            pages_per_block: cfg.pages_per_block as u16,
            hot: 0,
            gc: GcLists::default(),
            indexed: false,
        }
    }

    /// Return every block to the pristine state [`ChipBlocks::new`]
    /// builds: bitmaps and append pointers cleared, wear zeroed, bad
    /// blocks restored to rotation, the watermark back at block 0, so
    /// allocation replays in construction order, and the GC index
    /// unbuilt. Observationally identical to a fresh chip.
    ///
    /// O(blocks ever allocated), not O(all blocks): only the `0..hot`
    /// prefix can differ from fresh. Keeps the materialized chunks (their
    /// reverse maps go stale) and the capacity of the free list and the GC
    /// lists, so a pooled device does not allocate them again.
    pub fn reset(&mut self) {
        for chunk in &mut self.meta[..(self.hot as usize).div_ceil(CHUNK_BLOCKS)] {
            chunk.fill(FRESH);
        }
        self.free.clear();
        self.active = None;
        self.bad = 0;
        self.hot = 0;
        self.gc.clear();
        self.indexed = false;
    }

    /// Build the GC index, a no-op once it is built: give every
    /// materialized chunk its reverse-map chunk, and list every full block
    /// that holds invalid pages, in one pass over the allocated blocks'
    /// metadata. The reverse entries are the caller's to fill, one per
    /// valid page (the FTL walks its forward map, [`crate::Ftl`]); from
    /// then on the transitions keep the index exact.
    pub fn build_index(&mut self) {
        if self.indexed {
            return;
        }
        self.indexed = true;
        let chunks = self.meta.len();
        let lpns = CHUNK_BLOCKS * self.pages_per_block as usize;
        self.lpns.resize_with(chunks, || vec![UNMAPPED; lpns].into_boxed_slice());
        self.gc.size(self.pages_per_block, chunks * CHUNK_BLOCKS);
        for b in 0..self.hot {
            let meta = self.meta(b);
            let invalid = meta.invalid_count();
            if meta.state == BlockState::Full && invalid > 0 {
                self.gc.insert(b, invalid);
            }
        }
    }

    /// Is the GC index built?
    #[inline]
    pub fn index_built(&self) -> bool {
        self.indexed
    }

    /// The allocation watermark: every block ever allocated since
    /// construction (or the last [`ChipBlocks::reset`]) has index below
    /// this. Blocks at or above it are bit-for-bit fresh, which lets
    /// reset-path walks skip them wholesale.
    #[inline]
    pub fn allocated_watermark(&self) -> u32 {
        self.hot
    }

    /// Number of blocks currently free: erased blocks plus those never
    /// allocated.
    #[inline]
    pub fn free_count(&self) -> usize {
        self.free.len() + (self.blocks - self.hot) as usize
    }

    /// The active block index, if any.
    #[inline]
    pub fn active_block(&self) -> Option<u32> {
        self.active
    }

    /// The greedy GC victim: the full block with the most invalid pages,
    /// ties to the highest block number (the lexicographic max `(invalid
    /// count, block)`), or `None` when no full block holds an invalid page
    /// and GC cannot reclaim anything. Always `None` while the index is
    /// unbuilt ([`ChipBlocks::build_index`]).
    #[inline]
    pub fn greediest(&self) -> Option<u32> {
        self.gc.greediest()
    }

    /// Immutable access to a block's metadata; a block never allocated
    /// reads as fresh.
    #[inline]
    pub fn meta(&self, block: u32) -> &BlockMeta {
        if block < self.hot {
            let b = block as usize;
            &self.meta[b >> CHUNK_SHIFT][b & CHUNK_MASK]
        } else {
            assert!(block < self.blocks, "block {block} beyond a {}-block chip", self.blocks);
            &FRESH
        }
    }

    /// Mutable metadata of an allocated block.
    #[inline]
    fn meta_mut(&mut self, block: u32) -> &mut BlockMeta {
        debug_assert!(block < self.hot, "block {block} was never allocated");
        let b = block as usize;
        &mut self.meta[b >> CHUNK_SHIFT][b & CHUNK_MASK]
    }

    /// Hint that `block`'s metadata is about to be accessed. Invalidations
    /// of random old blocks are DRAM-latency-bound once the written
    /// footprint's metadata outgrows the caches; purely a cache hint, no
    /// architectural effect.
    #[inline]
    pub fn prefetch_meta(&self, block: u32) {
        #[cfg(target_arch = "x86_64")]
        if block < self.hot {
            let b = block as usize;
            let meta: *const BlockMeta = &self.meta[b >> CHUNK_SHIFT][b & CHUNK_MASK];
            // SAFETY: prefetch has no architectural effect; the pointer
            // comes from a live reference and is never dereferenced.
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    meta as *const i8,
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
    }

    /// Total number of blocks on the chip.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks as usize
    }

    /// Allocate the next free page on the chip, opening a new active block
    /// (an erased one first, else the watermark block) when needed.
    ///
    /// Returns `(block, page)` or `None` if no free block is available and
    /// the active block is exhausted (the caller must GC first).
    pub fn allocate_page(&mut self) -> Option<(u32, u16)> {
        loop {
            match self.active {
                Some(b) => {
                    let pages_per_block = self.pages_per_block;
                    let meta = self.meta_mut(b);
                    if meta.next_page < pages_per_block {
                        let page = meta.next_page;
                        meta.next_page += 1;
                        meta.valid |= 1u64 << page;
                        if meta.next_page == pages_per_block {
                            self.seal(b);
                        }
                        return Some((b, page));
                    }
                    // Defensive: an active block should have been closed when
                    // its last page was taken.
                    self.seal(b);
                }
                None => {
                    let b = match self.free.pop() {
                        Some(b) => b,
                        None => self.open_watermark()?,
                    };
                    let meta = self.meta_mut(b);
                    debug_assert_eq!(meta.state, BlockState::Free);
                    meta.state = BlockState::Active;
                    self.active = Some(b);
                }
            }
        }
    }

    /// Mark the active `block` full and close it, listing it for GC if it
    /// already holds invalid pages and the index is built.
    fn seal(&mut self, block: u32) {
        let meta = self.meta_mut(block);
        meta.state = BlockState::Full;
        let invalid = meta.invalid_count();
        self.active = None;
        if self.indexed && invalid > 0 {
            self.gc.insert(block, invalid);
        }
    }

    /// Take `block` off the GC lists if it is on one: full with invalid
    /// pages, and the index built.
    fn unlist(&mut self, block: u32) {
        let meta = self.meta(block);
        let invalid = meta.invalid_count();
        if self.indexed && meta.state == BlockState::Full && invalid > 0 {
            self.gc.remove(block, invalid);
        }
    }

    /// Advance the watermark over block `hot`, materializing its chunk
    /// (and, once the index is built, the chunk's reverse map and GC list
    /// positions) on first use; `None` once every block has been
    /// allocated.
    fn open_watermark(&mut self) -> Option<u32> {
        let b = self.hot;
        if b == self.blocks {
            return None;
        }
        if b as usize >> CHUNK_SHIFT == self.meta.len() {
            self.meta.push(Box::new([FRESH; CHUNK_BLOCKS]));
            if self.indexed {
                let lpns = CHUNK_BLOCKS * self.pages_per_block as usize;
                self.lpns.push(vec![UNMAPPED; lpns].into_boxed_slice());
                self.gc.size(self.pages_per_block, self.meta.len() * CHUNK_BLOCKS);
            }
        }
        self.hot += 1;
        Some(b)
    }

    /// Index of `(block, page)`'s reverse-map entry: `(chunk, slot)`.
    #[inline]
    fn lpn_slot(&self, block: u32, page: u16) -> (usize, usize) {
        debug_assert!(block < self.hot && page < self.pages_per_block);
        let b = block as usize;
        (b >> CHUNK_SHIFT, (b & CHUNK_MASK) * self.pages_per_block as usize + page as usize)
    }

    /// The LPN last programmed into `(block, page)` of an allocated block
    /// of a chip whose index is built. Meaningful only while the page is
    /// valid.
    #[inline]
    pub(crate) fn lpn(&self, block: u32, page: u16) -> u32 {
        debug_assert!(self.indexed, "reverse map read before the GC index was built");
        let (chunk, slot) = self.lpn_slot(block, page);
        self.lpns[chunk][slot]
    }

    /// The reverse entry of `(block, page)`, or `None` while the index is
    /// unbuilt. Meaningful only while the page is valid. Tests only.
    #[doc(hidden)]
    pub fn reverse_entry(&self, block: u32, page: u16) -> Option<u32> {
        self.indexed.then(|| self.lpn(block, page))
    }

    /// Record that `(block, page)` now holds `lpn`; a no-op while the
    /// index is unbuilt, since its build fills every valid page's entry.
    #[inline]
    pub(crate) fn set_lpn(&mut self, block: u32, page: u16, lpn: u32) {
        if self.indexed {
            let (chunk, slot) = self.lpn_slot(block, page);
            self.lpns[chunk][slot] = lpn;
        }
    }

    /// Mark `(block, page)` invalid (its LPN was overwritten or migrated);
    /// once the index is built, a full block moves up one GC list. Returns
    /// the block's new invalid count.
    #[inline]
    pub fn invalidate(&mut self, block: u32, page: u16) -> u32 {
        let indexed = self.indexed;
        let meta = self.meta_mut(block);
        debug_assert!(page < meta.next_page, "invalidating unwritten page");
        debug_assert!(meta.valid & (1u64 << page) != 0, "double invalidate");
        meta.valid &= !(1u64 << page);
        let invalid = meta.invalid_count();
        if indexed && meta.state == BlockState::Full {
            if invalid > 1 {
                self.gc.remove(block, invalid - 1);
            }
            self.gc.insert(block, invalid);
        }
        invalid
    }

    /// Blocks retired as bad so far.
    #[inline]
    pub fn bad_count(&self) -> usize {
        self.bad
    }

    /// Blocks still in rotation (total minus bad) — the denominator for
    /// overprovisioning/GC-floor math once retirements shrink the pool.
    #[inline]
    pub fn usable_count(&self) -> usize {
        self.blocks as usize - self.bad
    }

    /// Close `block` if it is the chip's current append point, so no
    /// further pages are allocated from it (pre-retirement: the caller is
    /// about to migrate data off a failing block and must not land new
    /// writes on it). The block is full from then on, and a GC candidate
    /// if it holds invalid pages.
    pub fn close_active(&mut self, block: u32) {
        if self.active == Some(block) {
            self.seal(block);
        }
    }

    /// Retire `block` as bad after a program or erase failure: it leaves
    /// the allocation rotation and the GC lists permanently (never returned
    /// to the free list). The caller must have migrated or invalidated all
    /// its valid pages first.
    pub fn retire(&mut self, block: u32) {
        if self.active == Some(block) {
            self.active = None;
        }
        self.unlist(block);
        let meta = self.meta_mut(block);
        debug_assert_ne!(meta.state, BlockState::Free, "retiring a free block");
        debug_assert_ne!(meta.state, BlockState::Bad, "double retire");
        debug_assert_eq!(meta.valid, 0, "retiring a block with live pages");
        meta.state = BlockState::Bad;
        self.bad += 1;
    }

    /// Erase `block`: clears its bitmap and append pointer, bumps wear, and
    /// returns it from the GC lists (if listed) to the free list. The
    /// block must not be active.
    pub fn erase(&mut self, block: u32) {
        debug_assert_ne!(Some(block), self.active, "erasing the active block");
        self.unlist(block);
        let meta = self.meta_mut(block);
        debug_assert_ne!(meta.state, BlockState::Free, "erasing a free block");
        debug_assert_ne!(meta.state, BlockState::Bad, "erasing a retired block");
        meta.valid = 0;
        meta.next_page = 0;
        meta.erase_count += 1;
        meta.state = BlockState::Free;
        self.free.push(block);
    }

    /// Metadata of the allocated blocks `0..hot`, in index order.
    fn allocated(&self) -> impl Iterator<Item = &BlockMeta> {
        self.meta.iter().flat_map(|chunk| chunk.iter()).take(self.hot as usize)
    }

    /// Live (valid) pages across the whole chip. O(allocated blocks); used
    /// by tests and occasional consistency checks only.
    pub fn live_pages(&self) -> u64 {
        self.allocated().map(|b| b.valid_count() as u64).sum()
    }

    /// Maximum erase count across blocks (wear ceiling).
    pub fn max_erase_count(&self) -> u32 {
        self.allocated().map(|b| b.erase_count).max().unwrap_or(0)
    }

    /// Debug-grade check that the block states partition the chip: every
    /// block is exactly one of free (on the free list, or at or above the
    /// watermark), active (the append point), full, or bad, and the free
    /// list and bad count agree with the states. Also checks each bitmap
    /// against its append pointer and the GC lists: once the index is
    /// built they hold exactly the full blocks with invalid pages, each at
    /// its count, and every materialized chunk has its reverse map; before
    /// the build they hold nothing. The reverse entries themselves need
    /// the forward map ([`crate::Ftl::check_consistency`]). O(allocated
    /// blocks); tests only.
    #[doc(hidden)]
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut listed = vec![false; self.hot as usize];
        for &b in &self.free {
            let slot = listed
                .get_mut(b as usize)
                .ok_or_else(|| format!("free block {b} at or above the watermark {}", self.hot))?;
            if std::mem::replace(slot, true) {
                return Err(format!("block {b} listed free twice"));
            }
        }
        if self.active.is_some_and(|b| b >= self.hot) {
            let (active, hot) = (self.active, self.hot);
            return Err(format!("active block {active:?} at or above the watermark {hot}"));
        }
        let (mut bad, mut candidates) = (0, 0);
        for (b, meta) in self.allocated().enumerate() {
            let programmed = meta.next_page <= self.pages_per_block
                && meta.valid.checked_shr(meta.next_page.into()).unwrap_or(0) == 0;
            let (listed, active) = (listed[b], self.active == Some(b as u32));
            let consistent = programmed
                && match meta.state {
                    BlockState::Free => listed && !active && meta.next_page == 0,
                    BlockState::Active => {
                        !listed && active && meta.next_page < self.pages_per_block
                    }
                    BlockState::Full => !listed && !active,
                    BlockState::Bad => !listed && !active && meta.valid == 0,
                };
            if !consistent {
                return Err(format!(
                    "block {b}: {:?} with next page {} and valid bits {:#x} \
                     (listed free: {listed}, active: {active})",
                    meta.state, meta.next_page, meta.valid
                ));
            }
            bad += usize::from(meta.state == BlockState::Bad);
            candidates += usize::from(meta.state == BlockState::Full && meta.invalid_count() > 0);
        }
        if bad != self.bad {
            return Err(format!("{bad} blocks are bad but {} are counted", self.bad));
        }
        if self.indexed && self.lpns.len() != self.meta.len() {
            let (lpns, meta) = (self.lpns.len(), self.meta.len());
            return Err(format!("{meta} metadata chunks but {lpns} reverse-map chunks"));
        }
        let listed = self.gc.check(self)?;
        if !self.indexed && listed != 0 {
            return Err(format!("{listed} blocks listed for GC before the index was built"));
        }
        if self.indexed && listed != candidates {
            return Err(format!(
                "{candidates} full blocks hold invalid pages but {listed} are listed for GC"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SsdConfig {
        SsdConfig::tiny() // 8 pages/block, 32 blocks/chip
    }

    #[test]
    fn allocation_fills_block_then_moves_on() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        let mut seen = Vec::new();
        for _ in 0..cfg.pages_per_block + 1 {
            seen.push(cb.allocate_page().unwrap());
        }
        let first_block = seen[0].0;
        // First 8 allocations come from one block with ascending pages.
        for (i, &(b, p)) in seen.iter().take(8).enumerate() {
            assert_eq!(b, first_block);
            assert_eq!(p as usize, i);
        }
        // Ninth allocation opens a new block at page 0.
        assert_ne!(seen[8].0, first_block);
        assert_eq!(seen[8].1, 0);
        assert_eq!(cb.meta(first_block).state, BlockState::Full);
    }

    #[test]
    fn free_count_decreases_as_blocks_open() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        assert_eq!(cb.free_count(), 32);
        cb.allocate_page().unwrap();
        assert_eq!(cb.free_count(), 31);
        // Filling the active block doesn't consume another until needed.
        for _ in 1..8 {
            cb.allocate_page().unwrap();
        }
        assert_eq!(cb.free_count(), 31);
        cb.allocate_page().unwrap();
        assert_eq!(cb.free_count(), 30);
    }

    #[test]
    fn exhaustion_returns_none() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        let total_pages = cfg.blocks_per_chip() * cfg.pages_per_block;
        for _ in 0..total_pages {
            assert!(cb.allocate_page().is_some());
        }
        assert!(cb.allocate_page().is_none());
    }

    #[test]
    fn invalidate_and_counts() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        let (b, p) = cb.allocate_page().unwrap();
        assert_eq!(cb.meta(b).valid_count(), 1);
        assert_eq!(cb.meta(b).invalid_count(), 0);
        let inv = cb.invalidate(b, p);
        assert_eq!(inv, 1);
        assert_eq!(cb.meta(b).valid_count(), 0);
    }

    #[test]
    fn erase_recycles_block() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        // Fill one block completely and invalidate all its pages.
        let mut block = None;
        for _ in 0..8 {
            let (b, p) = cb.allocate_page().unwrap();
            block = Some(b);
            cb.invalidate(b, p);
        }
        let b = block.unwrap();
        let free_before = cb.free_count();
        cb.erase(b);
        assert_eq!(cb.free_count(), free_before + 1);
        assert_eq!(cb.meta(b).erase_count, 1);
        assert_eq!(cb.meta(b).state, BlockState::Free);
        assert_eq!(cb.meta(b).next_page, 0);
    }

    #[test]
    fn live_pages_tracks_valid_bits() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        let (b0, p0) = cb.allocate_page().unwrap();
        cb.allocate_page().unwrap();
        assert_eq!(cb.live_pages(), 2);
        cb.invalidate(b0, p0);
        assert_eq!(cb.live_pages(), 1);
    }

    #[test]
    fn reset_restores_pristine_chip_via_watermark() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        assert_eq!(cb.allocated_watermark(), 0);
        // Touch a few blocks: fill two, erase one, retire none.
        let mut first = None;
        for _ in 0..2 * cfg.pages_per_block {
            let (b, p) = cb.allocate_page().unwrap();
            first.get_or_insert(b);
            cb.invalidate(b, p);
        }
        let first = first.unwrap();
        cb.erase(first);
        // Re-allocating the recycled block must not regress the watermark.
        let (b, _) = cb.allocate_page().unwrap();
        assert_eq!(b, first, "recycled block is popped first");
        let hot = cb.allocated_watermark();
        assert!(hot >= 2 && (hot as usize) < cb.block_count(), "watermark covers touched prefix");

        cb.reset();
        let fresh = ChipBlocks::new(&cfg);
        assert_eq!(cb.allocated_watermark(), 0);
        assert_eq!(cb.free_count(), fresh.free_count());
        assert_eq!(cb.active_block(), None);
        assert_eq!(cb.live_pages(), 0);
        assert_eq!(cb.max_erase_count(), 0);
        // Allocation order replays exactly like a fresh chip.
        let mut a = cb;
        let mut f = fresh;
        for _ in 0..3 * cfg.pages_per_block {
            assert_eq!(a.allocate_page(), f.allocate_page());
        }
    }

    #[test]
    fn retire_removes_block_from_rotation() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        // Fill one block and invalidate everything on it.
        let mut block = None;
        for _ in 0..8 {
            let (b, p) = cb.allocate_page().unwrap();
            block = Some(b);
            cb.invalidate(b, p);
        }
        let b = block.unwrap();
        let free_before = cb.free_count();
        cb.retire(b);
        assert_eq!(cb.meta(b).state, BlockState::Bad);
        assert_eq!(cb.bad_count(), 1);
        assert_eq!(cb.usable_count(), 31);
        // Unlike erase, retirement does not replenish the free list.
        assert_eq!(cb.free_count(), free_before);
        // Wear is preserved (the block failed; it was not erased).
        assert_eq!(cb.meta(b).erase_count, 0);
    }

    #[test]
    fn retire_active_block_clears_append_point() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        let (b, p) = cb.allocate_page().unwrap();
        assert_eq!(cb.active_block(), Some(b));
        cb.invalidate(b, p);
        cb.retire(b);
        assert_eq!(cb.active_block(), None);
        // The next allocation opens a different block.
        let (b2, _) = cb.allocate_page().unwrap();
        assert_ne!(b2, b);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn erase_of_retired_block_panics_in_debug() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        let (b, p) = cb.allocate_page().unwrap();
        cb.invalidate(b, p);
        cb.retire(b);
        cb.erase(b);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // the guard is a debug_assert
    fn double_invalidate_panics_in_debug() {
        let cfg = cfg();
        let mut cb = ChipBlocks::new(&cfg);
        let (b, p) = cb.allocate_page().unwrap();
        cb.invalidate(b, p);
        cb.invalidate(b, p);
    }
}
