//! `ChipBlocks` materializes block state on first allocation; this pins it
//! to an eager reference model that stores every block's metadata up front
//! and seeds its free list `[n-1, ..., 0]`. Random sequences of allocate,
//! invalidate, erase, retire, close-active and reset on small geometries
//! must return the same `(block, page)` at every allocation and leave the
//! same counts, the same metadata for every block, untouched ones
//! included, and the same greedy GC victim.

use proptest::prelude::*;
use reqblock_flash::SsdConfig;
use reqblock_ftl::blocks::BlockMeta;
use reqblock_ftl::{BlockState, ChipBlocks};

const FRESH: BlockMeta =
    BlockMeta { valid: 0, next_page: 0, erase_count: 0, state: BlockState::Free };

/// The eager reference: a dense metadata array and a free list seeded in
/// reverse so block 0 is used first, popped from the end, pushed on erase
/// and reseeded on reset. Retirement takes a block out of rotation without
/// returning it to the list.
struct Eager {
    blocks: Vec<BlockMeta>,
    free: Vec<u32>,
    active: Option<u32>,
    bad: usize,
    watermark: u32,
    pages_per_block: u16,
}

impl Eager {
    fn new(blocks: usize, pages_per_block: u16) -> Self {
        Self {
            blocks: vec![FRESH; blocks],
            free: (0..blocks as u32).rev().collect(),
            active: None,
            bad: 0,
            watermark: 0,
            pages_per_block,
        }
    }

    fn allocate_page(&mut self) -> Option<(u32, u16)> {
        let b = match self.active {
            Some(b) => b,
            None => {
                let b = self.free.pop()?;
                self.blocks[b as usize].state = BlockState::Active;
                self.watermark = self.watermark.max(b + 1);
                self.active = Some(b);
                b
            }
        };
        let meta = &mut self.blocks[b as usize];
        let page = meta.next_page;
        meta.next_page += 1;
        meta.valid |= 1 << page;
        if meta.next_page == self.pages_per_block {
            meta.state = BlockState::Full;
            self.active = None;
        }
        Some((b, page))
    }

    fn invalidate(&mut self, block: u32, page: u16) -> u32 {
        let meta = &mut self.blocks[block as usize];
        meta.valid &= !(1 << page);
        meta.invalid_count()
    }

    fn erase(&mut self, block: u32) {
        let meta = &mut self.blocks[block as usize];
        meta.valid = 0;
        meta.next_page = 0;
        meta.erase_count += 1;
        meta.state = BlockState::Free;
        self.free.push(block);
    }

    fn retire(&mut self, block: u32) {
        if self.active == Some(block) {
            self.active = None;
        }
        self.blocks[block as usize].state = BlockState::Bad;
        self.bad += 1;
    }

    fn close_active(&mut self) {
        if let Some(b) = self.active.take() {
            self.blocks[b as usize].state = BlockState::Full;
        }
    }

    /// The greedy victim by scan: the max `(invalid count, block)` over
    /// full blocks with invalid pages.
    fn greediest(&self) -> Option<u32> {
        (0..self.blocks.len() as u32)
            .map(|b| (&self.blocks[b as usize], b))
            .filter(|(m, _)| m.state == BlockState::Full && m.invalid_count() > 0)
            .map(|(m, b)| (m.invalid_count(), b))
            .max()
            .map(|(_, b)| b)
    }

    /// The `pick`-th block (modulo the count) satisfying `keep`, if any.
    fn choose(&self, pick: u32, keep: impl Fn(&BlockMeta) -> bool) -> Option<u32> {
        let candidates: Vec<u32> =
            (0..self.blocks.len() as u32).filter(|&b| keep(&self.blocks[b as usize])).collect();
        (!candidates.is_empty()).then(|| candidates[pick as usize % candidates.len()])
    }
}

fn geometry(pages_per_block: usize, blocks: usize) -> SsdConfig {
    let mut cfg = SsdConfig::tiny();
    cfg.pages_per_block = pages_per_block;
    cfg.capacity_bytes = (blocks * cfg.total_chips() * pages_per_block) as u64 * cfg.page_size;
    cfg
}

fn assert_same(lazy: &ChipBlocks, eager: &Eager) -> Result<(), TestCaseError> {
    prop_assert_eq!(lazy.free_count(), eager.free.len());
    prop_assert_eq!(lazy.usable_count(), eager.blocks.len() - eager.bad);
    prop_assert_eq!(lazy.allocated_watermark(), eager.watermark);
    prop_assert_eq!(lazy.active_block(), eager.active);
    prop_assert_eq!(lazy.block_count(), eager.blocks.len());
    prop_assert_eq!(lazy.greediest(), eager.greediest());
    for (b, meta) in eager.blocks.iter().enumerate() {
        prop_assert_eq!(lazy.meta(b as u32), meta, "block {}", b);
    }
    lazy.check_consistency().map_err(TestCaseError::fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Block counts straddle the 64-block materialization chunk; page
    /// counts include 1 (every allocation opens a block) and 64 (a full
    /// bitmap).
    #[test]
    fn allocation_order_is_the_eager_order(
        pages_per_block in prop_oneof![Just(1usize), Just(3usize), Just(8usize), Just(64usize)],
        blocks in 1usize..140,
        ops in proptest::collection::vec((0u8..21, any::<u32>()), 1..600),
    ) {
        let cfg = geometry(pages_per_block, blocks);
        let mut lazy = ChipBlocks::new(&cfg);
        let mut eager = Eager::new(cfg.blocks_per_chip(), pages_per_block as u16);
        assert_same(&lazy, &eager)?;
        for (op, pick) in ops {
            match op {
                0..=7 => prop_assert_eq!(lazy.allocate_page(), eager.allocate_page()),
                8..=13 => {
                    let Some(b) = eager.choose(pick, |m| m.valid != 0) else { continue };
                    let valid = eager.blocks[b as usize].valid;
                    let nth = pick as usize % valid.count_ones() as usize;
                    let page = (0..64).filter(|p| valid & (1 << p) != 0).nth(nth);
                    let page = page.expect("a set bit") as u16;
                    prop_assert_eq!(lazy.invalidate(b, page), eager.invalidate(b, page));
                }
                14..=17 => {
                    let full = |m: &BlockMeta| m.state == BlockState::Full;
                    let Some(b) = eager.choose(pick, full) else { continue };
                    lazy.erase(b);
                    eager.erase(b);
                }
                18 => {
                    let retirable = |m: &BlockMeta| {
                        m.valid == 0 && matches!(m.state, BlockState::Active | BlockState::Full)
                    };
                    let Some(b) = eager.choose(pick, retirable) else { continue };
                    lazy.retire(b);
                    eager.retire(b);
                }
                19 => {
                    let Some(b) = eager.active else { continue };
                    lazy.close_active(b);
                    eager.close_active();
                }
                _ => {
                    lazy.reset();
                    eager = Eager::new(eager.blocks.len(), eager.pages_per_block);
                }
            }
            assert_same(&lazy, &eager)?;
        }
    }
}
