//! Greedy GC victim selection.
//!
//! The paper's substrate (SSDsim) uses greedy garbage collection: the victim
//! is the full block with the most invalid pages. A scan of the chip's
//! blocks per GC round is out of the question at scale (`proj0_gc` runs
//! 45 669 rounds per replay on chips of about 10 000 blocks), so each chip
//! lists its candidates by invalid count: `lists[c]` holds exactly the full
//! blocks with `c` invalid pages, for every `c ≥ 1`, and a `u128` mask
//! tracks which lists are non-empty.
//!
//! The lists are part of the chip's GC index, which only GC reads, so they
//! do not exist until the device first migrates a page: then
//! [`ChipBlocks::build_index`] fills them in one pass over the chip's
//! block metadata (a device that never collects never builds them). From
//! the build on, [`ChipBlocks`] changes them only inside its own
//! transitions:
//! * invalidating a page of a full block moves the block from `c − 1` to
//!   `c`;
//! * sealing a block (its last page allocated, or
//!   [`ChipBlocks::close_active`]) lists it if it holds invalid pages;
//! * erase and retire unlist the block, and reset clears every list and
//!   drops the index until the next build.
//!
//! Each listed block's position in its list is kept beside it, so a move
//! is one `swap_remove` and one `push`, and no entry ever goes stale. The
//! victim, [`ChipBlocks::greediest`], is the highest block number in the
//! topmost list: the lexicographic max `(invalid count, block)` over full
//! blocks with invalid pages, which is what an O(n) scan of the chip
//! returns, whatever order the build and the moves left the lists in.

use crate::blocks::{BlockState, ChipBlocks};

/// The full blocks of one chip that hold invalid pages, listed by invalid
/// count.
///
/// Counts are bounded by the per-block page count, which the valid-page
/// bitmap in [`crate::blocks`] caps at 64, so the occupancy mask is a
/// single `u128`.
#[derive(Debug, Clone, Default)]
pub(crate) struct GcLists {
    /// `lists[c]`: the full blocks with exactly `c` invalid pages, in no
    /// particular order. `lists[0]` stays empty.
    lists: Vec<Vec<u32>>,
    /// `pos[b]`: block `b`'s index in its list, meaningful only while the
    /// block is listed. Sized by [`GcLists::size`] to cover every block
    /// that can be listed.
    pos: Vec<u32>,
    /// Bit `c` set ⇔ `lists[c]` is non-empty.
    occupied: u128,
}

impl GcLists {
    /// Unlist every block, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        for list in &mut self.lists {
            list.clear();
        }
        self.occupied = 0;
    }

    /// Make room for blocks of up to `pages_per_block` invalid pages and
    /// block numbers below `blocks`, in one resize each; never shrinks.
    pub(crate) fn size(&mut self, pages_per_block: u16, blocks: usize) {
        let lists = usize::from(pages_per_block) + 1;
        if self.lists.len() < lists {
            self.lists.resize_with(lists, Vec::new);
        }
        if self.pos.len() < blocks {
            self.pos.reserve_exact(blocks - self.pos.len());
            self.pos.resize(blocks, 0);
        }
    }

    /// List `block`, which holds `count` invalid pages; [`GcLists::size`]
    /// must have made room for both.
    #[inline]
    pub(crate) fn insert(&mut self, block: u32, count: u32) {
        debug_assert!((1..128).contains(&count), "count outside the u128 occupancy mask");
        let (b, c) = (block as usize, count as usize);
        let list = &mut self.lists[c];
        self.pos[b] = list.len() as u32;
        list.push(block);
        self.occupied |= 1u128 << c;
    }

    /// Unlist `block`, listed at `count` invalid pages.
    #[inline]
    pub(crate) fn remove(&mut self, block: u32, count: u32) {
        let c = count as usize;
        let list = &mut self.lists[c];
        let at = self.pos[block as usize] as usize;
        debug_assert_eq!(list[at], block, "block {block} is not listed at {count}");
        list.swap_remove(at);
        if let Some(&moved) = list.get(at) {
            self.pos[moved as usize] = at as u32;
        } else if list.is_empty() {
            self.occupied &= !(1u128 << c);
        }
    }

    /// The highest block number in the topmost list, or `None` when no
    /// block is listed.
    pub(crate) fn greediest(&self) -> Option<u32> {
        let top = self.occupied.checked_ilog2()?;
        self.lists[top as usize].iter().copied().max()
    }

    /// Check the lists against `blocks`: every listed block is full with
    /// exactly its list's count of invalid pages, its stored position
    /// names its slot, and the occupancy bits mark the non-empty lists.
    /// Returns the number of listed blocks.
    pub(crate) fn check(&self, blocks: &ChipBlocks) -> Result<usize, String> {
        let (mut listed, mut occupied) = (0, 0u128);
        for (count, list) in (0u32..).zip(&self.lists) {
            occupied |= u128::from(!list.is_empty()) << count;
            for (at, &b) in (0u32..).zip(list) {
                let meta = (b < blocks.allocated_watermark()).then(|| blocks.meta(b));
                if !meta.is_some_and(|m| m.state == BlockState::Full && m.invalid_count() == count)
                {
                    return Err(format!(
                        "block {b} listed for GC at {count} invalid pages: {meta:?}"
                    ));
                }
                if self.pos.get(b as usize) != Some(&at) {
                    return Err(format!(
                        "block {b} sits at {at} of GC list {count} but its position reads {:?}",
                        self.pos.get(b as usize)
                    ));
                }
            }
            listed += list.len();
        }
        if occupied != self.occupied {
            return Err(format!("GC occupancy mask {:#x}, lists {occupied:#x}", self.occupied));
        }
        Ok(listed)
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

    /// Program pages until a block seals; the sealed block, or `None` when
    /// the chip runs out of space first.
    fn seal_next(cb: &mut ChipBlocks) -> Option<u32> {
        loop {
            let (b, _) = cb.allocate_page()?;
            if cb.active_block().is_none() {
                return Some(b);
            }
        }
    }

    /// The first block at or after `from` (wrapping below the watermark)
    /// that satisfies `keep`.
    fn find(cb: &ChipBlocks, from: u16, keep: impl Fn(u32) -> bool) -> Option<u32> {
        let hot = cb.allocated_watermark();
        (0..hot).map(|i| (u32::from(from) + i) % hot).find(|&b| keep(b))
    }

    /// A chip whose GC index is built from the start.
    fn indexed_chip(cfg: &SsdConfig) -> ChipBlocks {
        let mut cb = ChipBlocks::new(cfg);
        cb.build_index();
        cb
    }

    #[test]
    fn empty_chip_has_no_victim() {
        let cfg = SsdConfig::tiny();
        assert_eq!(ChipBlocks::new(&cfg).greediest(), None);
        assert_eq!(indexed_chip(&cfg).greediest(), None);
    }

    #[test]
    fn unbuilt_chip_lists_nothing_until_its_build() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let b0 = fill_one_block(&mut cb, &cfg);
        let b1 = fill_one_block(&mut cb, &cfg);
        cb.invalidate(b0, 0);
        for page in 0..3 {
            cb.invalidate(b1, page);
        }
        assert_eq!(cb.greediest(), None, "an unbuilt chip lists no candidate");
        cb.check_consistency().unwrap();
        cb.build_index();
        assert_eq!(cb.greediest(), Some(b1));
        cb.check_consistency().unwrap();
        cb.reset();
        assert!(!cb.index_built());
        assert_eq!(cb.greediest(), None);
        cb.check_consistency().unwrap();
    }

    #[test]
    fn picks_block_with_most_invalid() {
        let cfg = SsdConfig::tiny();
        let mut cb = indexed_chip(&cfg);
        let b0 = fill_one_block(&mut cb, &cfg);
        let b1 = fill_one_block(&mut cb, &cfg);
        // b0: 2 invalid pages; b1: 5 invalid pages.
        for page in 0..2 {
            cb.invalidate(b0, page);
        }
        for page in 0..5 {
            cb.invalidate(b1, page);
        }
        assert_eq!(cb.greediest(), Some(b1));
    }

    #[test]
    fn erase_unlists_its_block() {
        let cfg = SsdConfig::tiny();
        let mut cb = indexed_chip(&cfg);
        let b = fill_one_block(&mut cb, &cfg);
        for page in 0..cfg.pages_per_block as u16 {
            cb.invalidate(b, page);
        }
        assert_eq!(cb.greediest(), Some(b));
        cb.erase(b);
        assert_eq!(cb.greediest(), None);
    }

    #[test]
    fn retired_blocks_never_picked() {
        let cfg = SsdConfig::tiny();
        let mut cb = indexed_chip(&cfg);
        let b = fill_one_block(&mut cb, &cfg);
        for page in 0..cfg.pages_per_block as u16 {
            cb.invalidate(b, page);
        }
        cb.retire(b);
        assert_eq!(cb.greediest(), None);
    }

    #[test]
    fn active_blocks_never_picked() {
        let cfg = SsdConfig::tiny();
        let mut cb = indexed_chip(&cfg);
        // Allocate one page -> block is Active.
        let (b, page) = cb.allocate_page().unwrap();
        cb.invalidate(b, page);
        assert_eq!(cb.greediest(), None);
        // Closing it seals it with its invalid page: now it is a candidate.
        cb.close_active(b);
        assert_eq!(cb.greediest(), Some(b));
    }

    /// The greedy contract, spelled out: at any point, `greediest` must
    /// return exactly the lexicographic max `(invalid_count, block)` over
    /// full blocks with at least one invalid page — what an O(n) scan
    /// computes.
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

        /// Drive the chip as the FTL does — GC picks a victim, migrates
        /// its valid pages and erases it — with an interleaved random
        /// schedule of invalidations, GC rounds, refills, churn, closed
        /// append points, retirements and one build of the index. Until
        /// the build no block is listed and GC rounds take the scan's
        /// victim; from the build on every pick must match the O(n)
        /// reference scan. The lists must stay exact after every op.
        #[test]
        fn pick_matches_reference_scan(
            ops in proptest::collection::vec((0u8..33, any::<u16>()), 1..4000),
        ) {
            let cfg = SsdConfig::tiny();
            let mut cb = ChipBlocks::new(&cfg);
            let nblocks = cfg.blocks_per_chip() as u32;
            // Seed: fill half the chip so there are Full blocks to chew on.
            for _ in 0..nblocks / 2 {
                fill_one_block(&mut cb, &cfg);
            }
            for (kind, arg) in ops {
                match kind {
                    0..8 => {
                        // Invalidate a still-valid page of the first full
                        // or active block at or after a random one.
                        let b = find(&cb, arg, |b| {
                            let meta = cb.meta(b);
                            meta.state != BlockState::Free && meta.valid != 0
                        });
                        if let Some(b) = b {
                            let page = cb.meta(b).valid.trailing_zeros() as u16;
                            cb.invalidate(b, page);
                        }
                    }
                    8..18 => {
                        // GC round: pick, check against the scan, then
                        // drop the victim's valid pages (its migration,
                        // which raises it list by list) and erase it.
                        let expect = reference_victim(&cb, nblocks);
                        let got = cb.greediest();
                        if cb.index_built() {
                            prop_assert_eq!(got, expect);
                        } else {
                            prop_assert_eq!(got, None);
                        }
                        if let Some(b) = expect {
                            let mut valid = cb.meta(b).valid;
                            while valid != 0 {
                                cb.invalidate(b, valid.trailing_zeros() as u16);
                                valid &= valid - 1;
                            }
                            cb.erase(b);
                        }
                    }
                    18..20 => {
                        // Refill: seal one block.
                        seal_next(&mut cb);
                    }
                    20..30 => {
                        // Churn: seal two blocks and invalidate them page
                        // by page in turn.
                        let pair: Vec<u32> = (0..2).map_while(|_| seal_next(&mut cb)).collect();
                        for page in 0..cfg.pages_per_block as u16 {
                            for &b in &pair {
                                if cb.meta(b).valid & (1 << page) != 0 {
                                    cb.invalidate(b, page);
                                }
                            }
                        }
                    }
                    30 => {
                        // Close the append point early, as a failing block's
                        // retirement does.
                        if let Some(b) = cb.active_block() {
                            cb.close_active(b);
                        }
                    }
                    31 => cb.build_index(),
                    _ if arg % 8 == 0 => {
                        // Retire a full or active block with no valid pages.
                        let b = find(&cb, arg, |b| {
                            let meta = cb.meta(b);
                            meta.valid == 0
                                && matches!(meta.state, BlockState::Active | BlockState::Full)
                        });
                        if let Some(b) = b {
                            cb.retire(b);
                        }
                    }
                    _ => {}
                }
                cb.check_consistency().map_err(TestCaseError::fail)?;
            }
            // Drain: repeated pick+erase must consume every reclaimable
            // block in exact greedy order, then report empty.
            cb.build_index();
            loop {
                let expect = reference_victim(&cb, nblocks);
                let got = cb.greediest();
                prop_assert_eq!(got, expect);
                match got {
                    Some(b) => cb.erase(b),
                    None => break,
                }
            }
        }
    }
}
