//! The GC index (each chip's reverse map and candidate lists) is built
//! when a device first migrates a page. This pins that laziness to an
//! eager build: one FTL builds its index right after construction and
//! after every reset, another is left to build its own, and both replay
//! the same random batches, reads and resets under the same fault
//! configs. Program and erase faults make the first migration sometimes
//! a block retirement rather than a GC round, and some runs end
//! read-only. The two must agree on every completion time and counter,
//! and from the lazy FTL's build on, on every chip's GC victim and on the
//! reverse entry of every valid page.

use proptest::prelude::*;
use reqblock_flash::{FaultConfig, FlashTimeline, SsdConfig};
use reqblock_ftl::{Ftl, Placement};

#[derive(Debug, Clone)]
enum Op {
    /// A batch of `pages` LPNs from `start`, striped or on one chip.
    Write {
        striped: bool,
        start: u64,
        pages: u64,
    },
    Read(u64),
    /// `try_reset` with a new fault config.
    Reset(FaultConfig),
}

/// Read, program and erase failure rates in ppm, each zero half the time,
/// and sometimes a read-only floor; program rates reach 20 %, which
/// retires blocks faster than GC frees them.
fn faults() -> impl Strategy<Value = FaultConfig> {
    let ppm = |max: u32| prop_oneof![Just(0u32), 1u32..max];
    (any::<u64>(), ppm(50_000), ppm(200_000), ppm(100_000), prop_oneof![Just(0usize), 1usize..6])
        .prop_map(|(seed, read, program, erase, floor)| FaultConfig {
            read_only_free_floor: floor,
            ..FaultConfig::with_rates(seed, read, program, erase)
        })
}

/// Three writes to each read, and a reset every 128 ops on average, so
/// most runs between resets write enough to reach GC.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..128, any::<bool>(), 0u64..200, 1u64..12, faults()).prop_map(
        |(kind, striped, start, pages, faults)| match kind {
            0..96 => Op::Write { striped, start, pages },
            96..127 => Op::Read(start),
            _ => Op::Reset(faults),
        },
    );
    proptest::collection::vec(op, 1..600)
}

/// The tiny SSD, or 2 chips x 23 blocks x 6 pages (neither a power of
/// two), with the LPN window the ops write into.
fn geometry() -> impl Strategy<Value = (SsdConfig, u64)> {
    let ragged =
        SsdConfig { pages_per_block: 6, capacity_bytes: 2 * 23 * 6 * 4096, ..SsdConfig::tiny() };
    prop_oneof![Just((SsdConfig::tiny(), 200)), Just((ragged, 96))]
}

fn built(ftl: &Ftl) -> bool {
    ftl.chip_blocks().iter().all(|c| c.index_built())
}

/// Everything observable the two FTLs must share, and, once the lazy one
/// is built, their GC indexes.
fn assert_agree(
    lazy: (&Ftl, &FlashTimeline),
    eager: (&Ftl, &FlashTimeline),
) -> Result<(), TestCaseError> {
    let ((lazy, lazy_tl), (eager, eager_tl)) = (lazy, eager);
    prop_assert_eq!(lazy.stats(), eager.stats());
    prop_assert_eq!(lazy.fault_stats(), eager.fault_stats());
    prop_assert_eq!(lazy_tl.counters(), eager_tl.counters());
    prop_assert_eq!(lazy.health(), eager.health());
    prop_assert!(built(eager), "the eager FTL's index was dropped");
    lazy.check_consistency().map_err(TestCaseError::fail)?;
    eager.check_consistency().map_err(TestCaseError::fail)?;
    if !built(lazy) {
        return Ok(());
    }
    for (chip, (l, e)) in lazy.chip_blocks().iter().zip(eager.chip_blocks()).enumerate() {
        prop_assert_eq!(l.greediest(), e.greediest(), "chip {}", chip);
        prop_assert_eq!(l.allocated_watermark(), e.allocated_watermark(), "chip {}", chip);
        for block in 0..l.allocated_watermark() {
            let mut valid = l.meta(block).valid;
            prop_assert_eq!(valid, e.meta(block).valid, "chip {} block {}", chip, block);
            while valid != 0 {
                let page = valid.trailing_zeros() as u16;
                valid &= valid - 1;
                let entry = l.reverse_entry(block, page);
                prop_assert!(entry.is_some());
                prop_assert_eq!(entry, e.reverse_entry(block, page), "{}:{}:{}", chip, block, page);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_and_eager_gc_index_builds_agree(
        geometry in geometry(),
        first in faults(),
        ops in ops(),
    ) {
        let (cfg, window) = geometry;
        let mut lazy = Ftl::with_faults(&cfg, first.clone());
        let mut eager = Ftl::with_faults(&cfg, first);
        eager.build_gc_index();
        let (mut lazy_tl, mut eager_tl) = (FlashTimeline::new(&cfg), FlashTimeline::new(&cfg));
        prop_assert!(!built(&lazy));
        let mut at = 0u64;
        for op in ops {
            at += 1_000_000;
            match op {
                Op::Write { striped, start, pages } => {
                    let start = start % window;
                    let lpns: Vec<u64> = (start..start + pages).collect();
                    let placement = if striped { Placement::Striped } else { Placement::SingleBlock };
                    let was_built = built(&lazy);
                    let migrated = (lazy.stats().gc_runs, lazy.fault_stats().retired_blocks);
                    let done = lazy.write_pages(&lpns, at, placement, &mut lazy_tl);
                    prop_assert_eq!(done, eager.write_pages(&lpns, at, placement, &mut eager_tl));
                    if !was_built && (lazy.stats().gc_runs, lazy.fault_stats().retired_blocks) != migrated {
                        prop_assert!(built(&lazy), "migrated without building the index");
                    }
                }
                Op::Read(lpn) => {
                    let done = lazy.read_page(lpn % window, at, &mut lazy_tl);
                    prop_assert_eq!(done, eager.read_page(lpn % window, at, &mut eager_tl));
                }
                Op::Reset(faults) => {
                    prop_assert!(lazy.try_reset(&cfg, faults.clone()));
                    prop_assert!(eager.try_reset(&cfg, faults));
                    prop_assert!(!built(&lazy), "a reset device keeps its GC index");
                    eager.build_gc_index();
                    lazy_tl.reset(&cfg);
                    eager_tl.reset(&cfg);
                    at = 0;
                }
            }
            assert_agree((&lazy, &lazy_tl), (&eager, &eager_tl))?;
        }
    }
}
