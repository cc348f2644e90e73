//! Greedy GC victim selection.
//!
//! The paper's substrate (SSDsim) uses greedy garbage collection: the victim
//! is the full block with the most invalid pages. A linear scan per GC would
//! be O(blocks_per_chip) on every invocation — far too slow at the 32 768
//! blocks/chip of the paper's geometry — so we keep **lazy count buckets**
//! per chip: `buckets[c]` holds the blocks last noted with `c` invalid
//! pages, and a bitmask tracks which buckets are non-empty. Entries are
//! pushed whenever a *full* block's invalid count grows (and when a block
//! fills up with invalid pages already); on `pick` the topmost bucket is
//! scanned, stale entries (erased, active again, or count since grown) are
//! pruned in place, and the largest live block wins.
//!
//! The bucket layout exists for the hot path: `note` runs once per page
//! invalidation — the single hottest call in a write-heavy replay — and a
//! bucket append touches one cache line, where the former binary-heap
//! sift-up walked O(log n) random lines of a millions-entry arena. Victim
//! choice is unchanged: both structures return the maximum `(invalid
//! count, block)` over live full blocks, because every live full block's
//! current count always has a matching entry and stale entries never
//! validate.
//!
//! The entries follow the chip's blocks, not its write history. A note
//! that finds the same block as the newest entry one count below pops that
//! entry, which went stale the moment the count rose. Entries that go
//! stale elsewhere (another block was noted in between, or the block was
//! erased) wait for a compaction: once a chip holds more than
//! `entry_bound` of its allocation watermark, one sequential pass over
//! the allocated blocks' metadata reads each full block's invalid count,
//! and every bucket keeps only the entries `pick` would accept. Both drop
//! only entries that fail `pick`'s own test, so every pick is the one the
//! unbounded buckets made. When a compaction keeps more than half the
//! bound, the next one waits for twice what it kept, so a note costs O(1)
//! on average however little a compaction frees.

use crate::blocks::{BlockState, ChipBlocks};

/// Entries a chip's picker holds before it compacts: four per block below
/// the chip's allocation watermark, plus room for a chip that has opened
/// few blocks. A compaction leaves one entry per full block with invalid
/// pages, save a rare duplicate (a stale entry that comes back to life
/// when its block, erased and refilled, is noted at the same count
/// again), so but for those it frees three quarters of the bound or more.
pub(crate) fn entry_bound(watermark: u32) -> usize {
    4 * watermark as usize + 1024
}

/// Lazy bucket-indexed picker of the greediest GC victim on one chip.
///
/// Counts are bounded by the per-block page count, which the valid-page
/// bitmap in [`crate::blocks`] already caps at 64 — so the occupancy mask
/// is a single `u128` and the bucket table stays tiny.
#[derive(Debug, Clone, Default)]
pub struct GreedyPicker {
    /// `buckets[c]`: blocks noted while holding `c` invalid pages. May
    /// contain stale entries; `pick` and compaction prune them.
    buckets: Vec<Vec<u32>>,
    /// Bit `c` set ⇔ `buckets[c]` is non-empty.
    occupied: u128,
    /// Entries across all buckets, stale ones included.
    len: usize,
    /// Entries the last compaction kept.
    kept: usize,
}

impl GreedyPicker {
    /// Empty picker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every entry (live and stale), keeping the bucket allocations.
    /// Equivalent to a fresh picker; part of the FTL reset path.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
        self.len = 0;
        self.kept = 0;
    }

    /// Record that full `block` of `blocks` now has `invalid_count`
    /// invalid pages. Call when a full block gains an invalid page, and
    /// when a block transitions to full while already holding invalid
    /// pages.
    #[inline]
    pub fn note(&mut self, block: u32, invalid_count: u32, blocks: &ChipBlocks) {
        debug_assert!(invalid_count > 0);
        debug_assert!(invalid_count < 128, "count exceeds u128 occupancy mask");
        let c = invalid_count as usize;
        if c >= self.buckets.len() {
            self.buckets.resize_with(c + 1, Vec::new);
        }
        let below = &mut self.buckets[c - 1];
        let popped = below.last() == Some(&block);
        if popped {
            // The block's entry one count below went stale just now.
            below.pop();
            if below.is_empty() {
                self.occupied &= !(1u128 << (c - 1));
            }
        }
        self.buckets[c].push(block);
        self.occupied |= 1u128 << c;
        if !popped {
            self.len += 1;
            if self.len > self.limit(blocks.allocated_watermark()) {
                self.compact(blocks);
            }
        }
    }

    /// Pop the full block with the most invalid pages (ties to the highest
    /// block number, matching lexicographic `(count, block)` order),
    /// discarding stale entries. Returns `None` when no full block has any
    /// invalid page — i.e. GC cannot reclaim anything.
    pub fn pick(&mut self, blocks: &ChipBlocks) -> Option<u32> {
        while self.occupied != 0 {
            let c = 127 - self.occupied.leading_zeros() as usize;
            let count = c as u32;
            let bucket = &mut self.buckets[c];
            let held = bucket.len();
            // One pass: prune stale entries, track the largest live block.
            let mut best: Option<usize> = None;
            let mut i = 0;
            while i < bucket.len() {
                let block = bucket[i];
                let meta = blocks.meta(block);
                let live = meta.state == BlockState::Full
                    && meta.invalid_count() == count
                    && count > 0;
                if live {
                    if best.is_none_or(|j| bucket[j] < block) {
                        best = Some(i);
                    }
                    i += 1;
                } else {
                    // swap_remove pulls from the tail, so indices below `i`
                    // (including any recorded `best`) stay valid.
                    bucket.swap_remove(i);
                }
            }
            let victim = best.map(|j| bucket.swap_remove(j));
            self.len -= held - bucket.len();
            if bucket.is_empty() {
                self.occupied &= !(1u128 << c);
            }
            if victim.is_some() {
                return victim;
            }
        }
        None
    }

    /// Keep only the entries `pick` would accept: a full block at exactly
    /// the entry's invalid count. One sequential pass over the allocated
    /// blocks' metadata records each block's count, so filtering the
    /// buckets reads one byte per entry instead of a block's metadata.
    fn compact(&mut self, blocks: &ChipBlocks) {
        // 0 for a block no entry can match: every entry's count is positive.
        let live: Vec<u8> = blocks
            .allocated()
            .map(|meta| if meta.state == BlockState::Full { meta.invalid_count() as u8 } else { 0 })
            .collect();
        self.occupied = 0;
        self.len = 0;
        for (count, bucket) in (0u8..).zip(&mut self.buckets) {
            bucket.retain(|&b| live.get(b as usize) == Some(&count) && count > 0);
            if !bucket.is_empty() {
                self.occupied |= 1u128 << count;
            }
            self.len += bucket.len();
        }
        self.kept = self.len;
    }

    /// The entry count past which [`GreedyPicker::note`] compacts on a
    /// chip whose allocation watermark is `watermark`: [`entry_bound`], or
    /// twice what the last compaction kept if that is more.
    pub(crate) fn limit(&self, watermark: u32) -> usize {
        entry_bound(watermark).max(2 * self.kept)
    }

    /// Entries held, stale ones included.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every buffered `(block, invalid count)` entry, stale ones included;
    /// for tests and consistency checks.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..).zip(&self.buckets).flat_map(|(count, bucket)| bucket.iter().map(move |&b| (b, count)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reqblock_flash::SsdConfig;

    /// Fill one block completely and return its id.
    fn fill_one_block(cb: &mut ChipBlocks, cfg: &SsdConfig) -> u32 {
        let mut last = 0;
        for _ in 0..cfg.pages_per_block {
            last = cb.allocate_page().unwrap().0;
        }
        last
    }

    /// Invalidate `page` of full `block` and note it, as the FTL does.
    fn invalidate(p: &mut GreedyPicker, cb: &mut ChipBlocks, block: u32, page: u16) {
        let inv = cb.invalidate(block, page);
        p.note(block, inv, cb);
    }

    /// Program pages until a block seals, noting it if it already holds
    /// invalid pages, as the FTL's allocation does; the sealed block, or
    /// `None` when the chip runs out of space first.
    fn seal_next(p: &mut GreedyPicker, cb: &mut ChipBlocks) -> Option<u32> {
        loop {
            let (b, _) = cb.allocate_page()?;
            if cb.active_block().is_none() {
                let inv = cb.meta(b).invalid_count();
                if inv > 0 {
                    p.note(b, inv, cb);
                }
                return Some(b);
            }
        }
    }

    /// Would `pick` accept the entry `(block, count)`?
    fn accepted(cb: &ChipBlocks, (block, count): (u32, u32)) -> bool {
        let meta = cb.meta(block);
        meta.state == BlockState::Full && meta.invalid_count() == count && count > 0
    }

    fn sorted_entries(p: &GreedyPicker) -> Vec<(u32, u32)> {
        let mut entries: Vec<_> = p.entries().collect();
        entries.sort_unstable();
        entries
    }

    #[test]
    fn empty_picker_returns_none() {
        let cfg = SsdConfig::tiny();
        let cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        assert_eq!(p.pick(&cb), None);
    }

    #[test]
    fn picks_block_with_most_invalid() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        let b0 = fill_one_block(&mut cb, &cfg);
        let b1 = fill_one_block(&mut cb, &cfg);
        // b0: 2 invalid pages; b1: 5 invalid pages.
        for page in 0..2 {
            invalidate(&mut p, &mut cb, b0, page);
        }
        for page in 0..5 {
            invalidate(&mut p, &mut cb, b1, page);
        }
        assert_eq!(p.pick(&cb), Some(b1));
    }

    #[test]
    fn stale_entries_skipped_after_erase() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        let b = fill_one_block(&mut cb, &cfg);
        for page in 0..cfg.pages_per_block as u16 {
            invalidate(&mut p, &mut cb, b, page);
        }
        assert_eq!(p.pick(&cb), Some(b));
        cb.erase(b);
        // Any remaining entries for b are stale now.
        assert_eq!(p.pick(&cb), None);
    }

    #[test]
    fn note_pops_the_entry_it_outdates() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        let b = fill_one_block(&mut cb, &cfg);
        let other = fill_one_block(&mut cb, &cfg);
        invalidate(&mut p, &mut cb, b, 0); // entry (b, 1)
        invalidate(&mut p, &mut cb, b, 1); // pops (b, 1), pushes (b, 2)
        assert_eq!(sorted_entries(&p), [(b, 2)]);
        assert_eq!(p.len(), 1);
        // Another block noted at count 2 in between: (b, 2) is no longer
        // the newest entry of its bucket, so it stays for pick to prune.
        invalidate(&mut p, &mut cb, other, 0);
        invalidate(&mut p, &mut cb, other, 1);
        invalidate(&mut p, &mut cb, b, 2);
        assert_eq!(sorted_entries(&p), [(b, 2), (b, 3), (other, 2)]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.pick(&cb), Some(b));
        assert_eq!(p.pick(&cb), Some(other));
        assert_eq!(p.pick(&cb), None);
        assert_eq!((p.entries().count(), p.len()), (0, 0));
    }

    #[test]
    fn retired_blocks_never_picked() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        let b = fill_one_block(&mut cb, &cfg);
        for page in 0..cfg.pages_per_block as u16 {
            invalidate(&mut p, &mut cb, b, page);
        }
        cb.retire(b);
        // Entries for the now-bad block are stale: GC must skip it.
        assert_eq!(p.pick(&cb), None);
    }

    #[test]
    fn active_blocks_never_picked() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        // Allocate one page -> block is Active.
        let (b, page) = cb.allocate_page().unwrap();
        // A (buggy) caller notes an active block; pick must still skip it.
        invalidate(&mut p, &mut cb, b, page);
        assert_eq!(p.pick(&cb), None);
    }

    #[test]
    fn entries_stay_within_the_bound_of_a_churning_chip() {
        // Two full blocks noted in turn: neither note finds its own block
        // newest one count below, so every note adds an entry, and a
        // refilled block's old entries go stale without a pick.
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        let ppb = cfg.pages_per_block as u16;
        let (mut notes, mut compactions) = (0, 0);
        for _ in 0..200 {
            let pair = [fill_one_block(&mut cb, &cfg), fill_one_block(&mut cb, &cfg)];
            for page in 0..ppb {
                for &b in &pair {
                    let before = p.len();
                    invalidate(&mut p, &mut cb, b, page);
                    notes += 1;
                    compactions += usize::from(p.len() < before);
                    assert!(p.len() <= p.limit(cb.allocated_watermark()));
                }
            }
            cb.erase(pair[0]);
            cb.erase(pair[1]);
        }
        let bound = entry_bound(cb.allocated_watermark());
        assert!(notes > 2 * bound, "{notes} notes never pass the bound {bound}");
        assert!(compactions > 0, "no compaction in {notes} notes");
        // Every block was erased, so nothing a compaction kept is live.
        assert_eq!(p.limit(cb.allocated_watermark()), bound);
        assert_eq!(p.pick(&cb), None);
        assert_eq!((p.entries().count(), p.len()), (0, 0));
    }

    /// The greedy contract, spelled out: at any point, `pick` must return
    /// exactly the lexicographic max `(invalid_count, block)` over full
    /// blocks with at least one invalid page — what an O(n) scan computes.
    fn reference_victim(cb: &ChipBlocks, blocks: u32) -> Option<u32> {
        (0..blocks)
            .filter_map(|b| {
                let meta = cb.meta(b);
                (meta.state == BlockState::Full && meta.invalid_count() > 0)
                    .then(|| (meta.invalid_count(), b))
            })
            .max()
            .map(|(_, b)| b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Drive the picker exactly as the FTL does — note on each full-
        /// block invalidation, erase the victim right after a successful
        /// pick, note a block that seals with invalid pages — with an
        /// interleaved random schedule of invalidations, GC rounds,
        /// refills, churn and explicit compactions, and check every pick
        /// against the O(n) reference scan. Churn leaves stale entries
        /// faster than picks prune them, so long schedules pass the entry
        /// bound and `note` compacts on its own too.
        #[test]
        fn pick_matches_reference_scan(
            ops in proptest::collection::vec((0u8..32, any::<u16>()), 1..4000),
        ) {
            let cfg = SsdConfig::tiny();
            let mut cb = ChipBlocks::new(&cfg);
            let mut p = GreedyPicker::new();
            let nblocks = cfg.blocks_per_chip() as u32;
            // Seed: fill half the chip so there are Full blocks to chew on.
            for _ in 0..nblocks / 2 {
                fill_one_block(&mut cb, &cfg);
            }
            for (kind, arg) in ops {
                match kind {
                    0..8 => {
                        // Invalidate a still-valid page of the first full
                        // block at or after a random one.
                        let hot = cb.allocated_watermark();
                        let full = (0..hot).map(|i| (u32::from(arg) + i) % hot).find(|&b| {
                            let meta = cb.meta(b);
                            meta.state == BlockState::Full && meta.valid != 0
                        });
                        if let Some(b) = full {
                            let page = cb.meta(b).valid.trailing_zeros() as u16;
                            invalidate(&mut p, &mut cb, b, page);
                        }
                    }
                    8..18 => {
                        // GC round: pick, verify against the scan, then
                        // erase the victim like the FTL's reclaim loop does.
                        let expect = reference_victim(&cb, nblocks);
                        let got = p.pick(&cb);
                        prop_assert_eq!(got, expect);
                        if let Some(b) = got {
                            cb.erase(b);
                        }
                    }
                    18..20 => {
                        // Refill: seal one block.
                        seal_next(&mut p, &mut cb);
                    }
                    20..31 => {
                        // Churn: seal two blocks and invalidate them page
                        // by page in turn. The second block's notes pop
                        // their own entries; the first's leave one stale
                        // entry per count, which only a compaction drops.
                        let pair: Vec<u32> =
                            (0..2).map_while(|_| seal_next(&mut p, &mut cb)).collect();
                        for page in 0..cfg.pages_per_block as u16 {
                            for &b in &pair {
                                if cb.meta(b).valid & (1 << page) != 0 {
                                    invalidate(&mut p, &mut cb, b, page);
                                }
                            }
                        }
                    }
                    _ if arg % 64 == 0 => {
                        // Compaction keeps exactly the entries pick would
                        // accept, duplicates included.
                        let mut want = sorted_entries(&p);
                        want.retain(|&entry| accepted(&cb, entry));
                        p.compact(&cb);
                        prop_assert_eq!(sorted_entries(&p), want);
                    }
                    _ => {}
                }
                prop_assert_eq!(p.entries().count(), p.len());
                prop_assert!(p.len() <= p.limit(cb.allocated_watermark()));
            }
            // Drain: repeated pick+erase must consume every reclaimable
            // block in exact greedy order, then report empty.
            loop {
                let expect = reference_victim(&cb, nblocks);
                let got = p.pick(&cb);
                prop_assert_eq!(got, expect);
                match got {
                    Some(b) => cb.erase(b),
                    None => break,
                }
            }
        }
    }
}
