//! Property-based tests for the baseline policies and the slab list.
//!
//! Two kinds of properties:
//!
//! * **Universal invariants** every [`WriteBuffer`] must keep under
//!   arbitrary access sequences: occupancy never exceeds capacity, hit
//!   reporting agrees with `contains`, page conservation (inserted =
//!   evicted + resident), and `drain` empties the buffer exactly.
//! * **Model-based checks**: [`SlabList`] against `VecDeque`, and the LRU
//!   policy against a reference implementation.

use proptest::prelude::*;
use reqblock_cache::policies::{
    BplruCache, BplruConfig, CflruCache, CflruConfig, LruCache, VbbmsCache,
};
use reqblock_cache::{Access, Arena, ArenaId, EvictionBatch, FxHashMap, SlabList, WriteBuffer};
use std::collections::{HashMap, HashSet, VecDeque};

/// One step of a generated workload: (is_write, start lpn, pages).
type Step = (bool, u64, u64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (any::<bool>(), 0u64..400, 1u64..24),
        1..300,
    )
}

fn build_policies(capacity: usize) -> Vec<Box<dyn WriteBuffer>> {
    vec![
        Box::new(LruCache::new(capacity)),
        Box::new(CflruCache::new(capacity, CflruConfig::default())),
        Box::new(CflruCache::new(
            capacity,
            CflruConfig { window_fraction: 0.5, cache_reads: true },
        )),
        Box::new(BplruCache::new(capacity, 8, BplruConfig::default())),
        Box::new(BplruCache::new(capacity, 8, BplruConfig { page_padding: true })),
        Box::new(VbbmsCache::new(capacity)),
    ]
}

/// Drive one policy through the steps, checking invariants at every access.
fn drive(buf: &mut dyn WriteBuffer, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut resident: HashSet<u64> = HashSet::new();
    let mut ev: Vec<EvictionBatch> = Vec::new();
    let mut now = 0u64;
    for (req_id, &(is_write, start, pages)) in steps.iter().enumerate() {
        for i in 0..pages {
            now += 1;
            let lpn = start + i;
            let a = Access { lpn, req_id: req_id as u64, req_pages: pages as u32, now };
            ev.clear();
            let was_resident = resident.contains(&lpn);
            let hit = if is_write {
                buf.write(&a, &mut ev)
            } else {
                buf.read(&a, &mut ev)
            };
            prop_assert_eq!(
                hit,
                was_resident,
                "{}: hit report disagrees with model for lpn {}",
                buf.name(),
                lpn
            );
            for batch in &ev {
                for l in &batch.lpns {
                    // BPLRU padding writes non-resident pages too; only
                    // resident ones must leave the model.
                    resident.remove(l);
                }
            }
            if is_write {
                resident.insert(lpn);
            } else if !hit && buf.contains(lpn) {
                // Read-caching policy inserted a clean page.
                resident.insert(lpn);
            }
            prop_assert!(
                buf.len_pages() <= buf.capacity_pages(),
                "{}: over capacity",
                buf.name()
            );
            prop_assert_eq!(
                buf.len_pages(),
                resident.len(),
                "{}: occupancy disagrees with model",
                buf.name()
            );
        }
    }
    // contains() agrees with the model for every page we ever touched.
    for &(_, start, pages) in steps {
        for lpn in start..start + pages {
            prop_assert_eq!(
                buf.contains(lpn),
                resident.contains(&lpn),
                "{}: contains({}) disagrees",
                buf.name(),
                lpn
            );
        }
    }
    // Drain returns exactly the residents.
    let drained = buf.drain();
    let mut pages: Vec<u64> = drained
        .iter()
        .flat_map(|b| b.lpns.iter().copied())
        .filter(|l| resident.contains(l))
        .collect();
    pages.sort_unstable();
    pages.dedup();
    prop_assert_eq!(pages.len(), resident.len(), "{}: drain mismatch", buf.name());
    prop_assert_eq!(buf.len_pages(), 0);
    Ok(())
}

/// The indexed-removal structure mirroring reqblock-core's hot path: an
/// [`Arena`] of per-block page vectors plus an `lpn -> (block, slot)` index
/// kept exact by swap-remove slot fixup. Every operation is O(1).
#[derive(Default)]
struct IndexedBlocks {
    blocks: Arena<Vec<u64>>,
    index: FxHashMap<u64, (ArenaId, u32)>,
}

impl IndexedBlocks {
    fn create_block(&mut self) -> ArenaId {
        self.blocks.insert(Vec::new())
    }

    fn add_page(&mut self, bid: ArenaId, lpn: u64) {
        let pages = &mut self.blocks[bid];
        pages.push(lpn);
        self.index.insert(lpn, (bid, (pages.len() - 1) as u32));
    }

    fn remove_page(&mut self, lpn: u64) -> bool {
        let Some((bid, pos)) = self.index.remove(&lpn) else {
            return false;
        };
        let pages = &mut self.blocks[bid];
        pages.swap_remove(pos as usize);
        // The page that filled the hole changed slot: patch its entry.
        if let Some(&moved) = pages.get(pos as usize) {
            self.index.get_mut(&moved).expect("resident page must be indexed").1 = pos;
        }
        true
    }

    fn remove_block(&mut self, bid: ArenaId) -> Vec<u64> {
        let pages = self.blocks.remove(bid);
        for lpn in &pages {
            self.index.remove(lpn);
        }
        pages
    }
}

/// Naive model: blocks in a `HashMap` under never-reused ids, page lookup
/// by linear scan over every block's page vector.
#[derive(Default)]
struct NaiveBlocks {
    blocks: HashMap<u64, Vec<u64>>,
    next_id: u64,
}

impl NaiveBlocks {
    fn create_block(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.blocks.insert(id, Vec::new());
        id
    }

    fn remove_page(&mut self, lpn: u64) -> bool {
        for pages in self.blocks.values_mut() {
            if let Some(pos) = pages.iter().position(|&l| l == lpn) {
                pages.remove(pos);
                return true;
            }
        }
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arena-backed `(block, slot)` page index behaves exactly like a
    /// naive HashMap-of-blocks with linear-scan page lookup, and stale
    /// arena ids never resolve after their block is removed.
    #[test]
    fn indexed_page_removal_matches_linear_scan_model(
        ops in proptest::collection::vec((0u8..4, any::<u16>()), 1..400),
    ) {
        let mut fast = IndexedBlocks::default();
        let mut naive = NaiveBlocks::default();
        // Live blocks, paired across both structures.
        let mut live: Vec<(ArenaId, u64)> = Vec::new();
        let mut retired: Vec<ArenaId> = Vec::new();
        let mut next_lpn = 0u64;
        for (op, pick) in ops {
            let pick = pick as usize;
            match op {
                // Open a block.
                0 => {
                    live.push((fast.create_block(), naive.create_block()));
                }
                // Add a fresh page to a random live block.
                1 if !live.is_empty() => {
                    let (bid, nid) = live[pick % live.len()];
                    fast.add_page(bid, next_lpn);
                    naive.blocks.get_mut(&nid).unwrap().push(next_lpn);
                    next_lpn += 1;
                }
                // Remove a random page (present or not) by lpn.
                2 if next_lpn > 0 => {
                    let lpn = (pick as u64 * 31) % next_lpn;
                    prop_assert_eq!(fast.remove_page(lpn), naive.remove_page(lpn));
                }
                // Evict a random live block wholesale.
                3 if !live.is_empty() => {
                    let (bid, nid) = live.swap_remove(pick % live.len());
                    let mut got = fast.remove_block(bid);
                    let mut expect = naive.blocks.remove(&nid).unwrap();
                    got.sort_unstable();
                    expect.sort_unstable();
                    prop_assert_eq!(got, expect);
                    retired.push(bid);
                }
                _ => {}
            }
            // Same shape: block count and per-block content (as sets;
            // swap_remove vs Vec::remove order differs by design).
            prop_assert_eq!(fast.blocks.len(), naive.blocks.len());
            let mut fast_sizes: Vec<usize> =
                fast.blocks.iter().map(|(_, pages)| pages.len()).collect();
            let mut naive_sizes: Vec<usize> =
                naive.blocks.values().map(|pages| pages.len()).collect();
            fast_sizes.sort_unstable();
            naive_sizes.sort_unstable();
            prop_assert_eq!(fast_sizes, naive_sizes);
            for &(bid, nid) in &live {
                let mut got = fast.blocks[bid].clone();
                let mut expect = naive.blocks[&nid].clone();
                got.sort_unstable();
                expect.sort_unstable();
                prop_assert_eq!(got, expect);
            }
            // Index exactness: every entry points at its own page.
            prop_assert_eq!(
                fast.index.len(),
                fast.blocks.iter().map(|(_, pages)| pages.len()).sum::<usize>()
            );
            for (&lpn, &(bid, pos)) in &fast.index {
                prop_assert_eq!(fast.blocks[bid][pos as usize], lpn);
            }
            // Generational safety: retired ids stay dead even though their
            // slots may have been handed out again.
            for &stale in &retired {
                prop_assert!(fast.blocks.get(stale).is_none());
            }
        }
    }

    #[test]
    fn all_policies_maintain_invariants(steps in steps(), capacity in 8usize..96) {
        for mut buf in build_policies(capacity) {
            drive(buf.as_mut(), &steps)?;
        }
    }

    /// LRU against a reference implementation (VecDeque of lpns, MRU front).
    #[test]
    fn lru_matches_reference_model(steps in steps(), capacity in 4usize..64) {
        let mut lru = LruCache::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut ev = Vec::new();
        let mut now = 0;
        for (req_id, &(is_write, start, pages)) in steps.iter().enumerate() {
            for i in 0..pages {
                now += 1;
                let lpn = start + i;
                let a = Access { lpn, req_id: req_id as u64, req_pages: pages as u32, now };
                ev.clear();
                if is_write {
                    let hit = lru.write(&a, &mut ev);
                    if let Some(pos) = model.iter().position(|&l| l == lpn) {
                        prop_assert!(hit);
                        model.remove(pos);
                    } else {
                        prop_assert!(!hit);
                        if model.len() == capacity {
                            let victim = model.pop_back().unwrap();
                            prop_assert_eq!(&ev[0].lpns, &vec![victim]);
                        }
                    }
                    model.push_front(lpn);
                } else {
                    let hit = lru.read(&a, &mut ev);
                    if let Some(pos) = model.iter().position(|&l| l == lpn) {
                        prop_assert!(hit);
                        model.remove(pos);
                        model.push_front(lpn);
                    } else {
                        prop_assert!(!hit);
                    }
                }
            }
        }
        // Final content and order must match: drain is LRU-first.
        let drained = lru.drain();
        let pages: Vec<u64> = drained.iter().flat_map(|b| b.lpns.iter().copied()).collect();
        let expect: Vec<u64> = model.iter().rev().copied().collect();
        prop_assert_eq!(pages, expect);
    }

    /// SlabList against VecDeque under pushes, pops and moves.
    #[test]
    fn slab_list_matches_vecdeque(ops in proptest::collection::vec(0u8..6, 1..200)) {
        let mut list = SlabList::new();
        let mut handles = Vec::new();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for op in ops {
            match op {
                0 | 1 => {
                    handles.push(list.push_front(next));
                    model.push_front(next);
                    next += 1;
                }
                2 => {
                    handles.push(list.push_back(next));
                    model.push_back(next);
                    next += 1;
                }
                3 if !handles.is_empty() => {
                    let h = handles.swap_remove((next as usize * 7) % handles.len());
                    let v = list.remove(h);
                    let pos = model.iter().position(|&x| x == v).unwrap();
                    model.remove(pos);
                }
                4 if !handles.is_empty() => {
                    let h = handles[(next as usize * 13) % handles.len()];
                    let v = *list.get(h);
                    list.move_to_front(h);
                    let pos = model.iter().position(|&x| x == v).unwrap();
                    model.remove(pos);
                    model.push_front(v);
                }
                5 if !handles.is_empty() => {
                    let h = handles[(next as usize * 17) % handles.len()];
                    let v = *list.get(h);
                    list.move_to_back(h);
                    let pos = model.iter().position(|&x| x == v).unwrap();
                    model.remove(pos);
                    model.push_back(v);
                }
                _ => {}
            }
            prop_assert_eq!(list.len(), model.len());
        }
        let front_to_back: Vec<u32> = list.iter_from_front().map(|h| *list.get(h)).collect();
        let expect: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(front_to_back, expect);
        let back_to_front: Vec<u32> = list.iter_from_back().map(|h| *list.get(h)).collect();
        let expect_rev: Vec<u32> = model.iter().rev().copied().collect();
        prop_assert_eq!(back_to_front, expect_rev);
    }
}
