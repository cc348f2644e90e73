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

use crate::blocks::{BlockState, ChipBlocks};

/// Lazy bucket-indexed picker of the greediest GC victim on one chip.
///
/// Counts are bounded by the per-block page count, which the valid-page
/// bitmap in [`crate::blocks`] already caps at 64 — so the occupancy mask
/// is a single `u128` and the bucket table stays tiny.
#[derive(Debug, Clone, Default)]
pub struct GreedyPicker {
    /// `buckets[c]`: blocks noted while holding `c` invalid pages. May
    /// contain stale entries; `pick` prunes them lazily.
    buckets: Vec<Vec<u32>>,
    /// Bit `c` set ⇔ `buckets[c]` is non-empty.
    occupied: u128,
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
    }

    /// Record that full `block` now has `invalid_count` invalid pages.
    /// Call when a full block gains an invalid page, and when a block
    /// transitions to full while already holding invalid pages.
    #[inline]
    pub fn note(&mut self, block: u32, invalid_count: u32) {
        debug_assert!(invalid_count > 0);
        debug_assert!(invalid_count < 128, "count exceeds u128 occupancy mask");
        let c = invalid_count as usize;
        if c >= self.buckets.len() {
            self.buckets.resize_with(c + 1, Vec::new);
        }
        self.buckets[c].push(block);
        self.occupied |= 1u128 << c;
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
            if let Some(j) = best {
                let block = bucket[j];
                bucket.swap_remove(j);
                if bucket.is_empty() {
                    self.occupied &= !(1u128 << c);
                }
                return Some(block);
            }
            debug_assert!(bucket.is_empty());
            self.occupied &= !(1u128 << c);
        }
        None
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
            let inv = cb.invalidate(b0, page);
            p.note(b0, inv);
        }
        for page in 0..5 {
            let inv = cb.invalidate(b1, page);
            p.note(b1, inv);
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
            let inv = cb.invalidate(b, page);
            p.note(b, inv);
        }
        assert_eq!(p.pick(&cb), Some(b));
        cb.erase(b);
        // All remaining entries for b are stale now.
        assert_eq!(p.pick(&cb), None);
    }

    #[test]
    fn outdated_counts_are_discarded() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        let b = fill_one_block(&mut cb, &cfg);
        let inv = cb.invalidate(b, 0);
        p.note(b, inv); // entry (1, b)
        let inv = cb.invalidate(b, 1);
        p.note(b, inv); // entry (2, b)
        // First pick consumes the (2, b) entry.
        assert_eq!(p.pick(&cb), Some(b));
        // The (1, b) entry is now stale (count mismatch) and must be skipped.
        assert_eq!(p.pick(&cb), None);
        assert_eq!(p.entries().count(), 0);
    }

    #[test]
    fn retired_blocks_never_picked() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new();
        let b = fill_one_block(&mut cb, &cfg);
        for page in 0..cfg.pages_per_block as u16 {
            let inv = cb.invalidate(b, page);
            p.note(b, inv);
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
        let inv = cb.invalidate(b, page);
        // A (buggy) caller notes an active block; pick must still skip it.
        p.note(b, inv);
        assert_eq!(p.pick(&cb), None);
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
        /// pick — with an interleaved random schedule of invalidations and
        /// GC rounds, and check every pick against the O(n) reference scan.
        #[test]
        fn pick_matches_reference_scan(
            ops in proptest::collection::vec((0u8..8, any::<u16>()), 1..400),
        ) {
            let cfg = SsdConfig::tiny();
            let mut cb = ChipBlocks::new(&cfg);
            let mut p = GreedyPicker::new();
            let nblocks = cfg.blocks_per_chip() as u32;
            // Seed: fill half the chip so there are Full blocks to chew on.
            let filled = nblocks / 2;
            for _ in 0..filled {
                fill_one_block(&mut cb, &cfg);
            }
            let ppb = cfg.pages_per_block as u16;
            for (kind, arg) in ops {
                if kind < 6 {
                    // Invalidate a random still-valid page of a random block.
                    let b = u32::from(arg) % filled;
                    let meta = cb.meta(b);
                    if meta.state != BlockState::Full {
                        continue;
                    }
                    let Some(page) = (0..ppb).find(|&pg| meta.valid & (1 << pg) != 0)
                    else {
                        continue;
                    };
                    let inv = cb.invalidate(b, page);
                    p.note(b, inv);
                } else {
                    // GC round: pick, verify against the scan, then erase
                    // the victim like the FTL's reclaim loop does.
                    let expect = reference_victim(&cb, nblocks);
                    let got = p.pick(&cb);
                    prop_assert_eq!(got, expect);
                    if let Some(b) = got {
                        cb.erase(b);
                    }
                }
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
