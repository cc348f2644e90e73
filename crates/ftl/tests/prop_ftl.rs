//! Property-based tests of the FTL: arbitrary write/read sequences on the
//! tiny SSD must keep the mapping tables consistent, conserve live data
//! through GC, and respect the free-block floor; on the paper device they
//! must keep both translation directions consistent across leaves and
//! through a reset.

use proptest::prelude::*;
use reqblock_flash::{FlashTimeline, SsdConfig};
use reqblock_ftl::{Ftl, Placement};

/// (placement, start lpn, batch pages) over a small logical window so
/// overwrites (and thus GC) happen often.
fn ops() -> impl Strategy<Value = Vec<(bool, u64, u64)>> {
    proptest::collection::vec((any::<bool>(), 0u64..200, 1u64..12), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mapping_stays_consistent_under_churn(ops in ops()) {
        let cfg = SsdConfig::tiny();
        let mut ftl = Ftl::new(&cfg);
        let mut tl = FlashTimeline::new(&cfg);
        let mut written = std::collections::HashSet::new();
        let mut at = 0u64;
        for (striped, start, pages) in ops {
            at += 1_000_000;
            let lpns: Vec<u64> = (start..start + pages).collect();
            let placement = if striped { Placement::Striped } else { Placement::SingleBlock };
            let done = ftl.write_pages(&lpns, at, placement, &mut tl);
            prop_assert!(done >= at);
            for l in lpns {
                written.insert(l);
            }
        }
        // Every written LPN is mapped; every mapping checks out.
        for &l in &written {
            prop_assert!(ftl.is_mapped(l), "lost mapping for {l}");
        }
        ftl.check_consistency().map_err(TestCaseError::fail)?;
        prop_assert_eq!(ftl.live_pages(), written.len() as u64);
        // GC (if it ran) never breached physics: erases only of reclaimable
        // blocks, write amplification >= 1.
        prop_assert!(tl.counters().write_amplification() >= 1.0);
        // Free floor holds unless nothing was reclaimable.
        let floor = cfg.gc_free_blocks_floor();
        for free in ftl.free_blocks_per_chip() {
            prop_assert!(free >= floor.saturating_sub(1) || ftl.stats().gc_runs == 0);
        }
    }

    #[test]
    fn reads_never_disturb_state(ops in ops(), reads in proptest::collection::vec(0u64..200, 1..50)) {
        let cfg = SsdConfig::tiny();
        let mut ftl = Ftl::new(&cfg);
        let mut tl = FlashTimeline::new(&cfg);
        let mut at = 0u64;
        for (_, start, pages) in ops {
            at += 1_000_000;
            let lpns: Vec<u64> = (start..start + pages).collect();
            ftl.write_pages(&lpns, at, Placement::Striped, &mut tl);
        }
        let live_before = ftl.live_pages();
        let programs_before = tl.counters().total_programs();
        for lpn in reads {
            at += 1_000_000;
            let done = ftl.read_page(lpn, at, &mut tl);
            prop_assert!(done > at);
        }
        prop_assert_eq!(ftl.live_pages(), live_before);
        prop_assert_eq!(tl.counters().total_programs(), programs_before);
        ftl.check_consistency().map_err(TestCaseError::fail)?;
    }
}

/// One batch of `pages` LPNs placed in one of three regions of the paper
/// device: its start, its middle, or flush against its last page.
fn paper_batch(cfg: &SsdConfig, region: u8, offset: u64, pages: u64) -> Vec<u64> {
    let total = cfg.total_pages();
    let start = match region {
        0 => offset,
        1 => total / 2 + offset,
        _ => total - pages,
    };
    (start..start + pages).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// At paper geometry (33.5 M pages, 1 024-entry forward-map leaves),
    /// batches that span several leaves, the device's last page among them,
    /// keep both translation directions consistent through churn, through
    /// `try_reset`, and through a replay on the reset FTL that must match a
    /// fresh one.
    #[test]
    fn paper_geometry_stays_consistent_across_reset(
        ops in proptest::collection::vec((0u8..3, 0u64..4096, 1u64..3000), 1..16),
    ) {
        let cfg = SsdConfig::paper();
        let last = cfg.total_pages() - 1;
        let batches: Vec<Vec<u64>> = std::iter::once((2, 0, 1500))
            .chain(ops)
            .map(|(region, offset, pages)| paper_batch(&cfg, region, offset, pages))
            .collect();
        let replay = |ftl: &mut Ftl, tl: &mut FlashTimeline| -> Vec<u64> {
            let placements = [Placement::Striped, Placement::SingleBlock];
            (0u64..)
                .zip(&batches)
                .map(|(i, lpns)| {
                    ftl.write_pages(lpns, i * 50_000_000, placements[i as usize % 2], tl)
                })
                .collect()
        };
        let written: std::collections::HashSet<u64> = batches.iter().flatten().copied().collect();

        let mut ftl = Ftl::new(&cfg);
        let mut tl = FlashTimeline::new(&cfg);
        replay(&mut ftl, &mut tl);
        prop_assert!(ftl.is_mapped(last));
        prop_assert_eq!(ftl.live_pages(), written.len() as u64);
        ftl.check_consistency().map_err(TestCaseError::fail)?;

        prop_assert!(ftl.try_reset(&cfg, Default::default()));
        prop_assert_eq!(ftl.live_pages(), 0);
        prop_assert!(!ftl.is_mapped(last));
        ftl.check_consistency().map_err(TestCaseError::fail)?;

        let mut fresh = Ftl::new(&cfg);
        let (mut tl_reset, mut tl_fresh) = (FlashTimeline::new(&cfg), FlashTimeline::new(&cfg));
        prop_assert_eq!(replay(&mut ftl, &mut tl_reset), replay(&mut fresh, &mut tl_fresh));
        prop_assert_eq!(tl_reset.counters(), tl_fresh.counters());
        prop_assert_eq!(ftl.free_blocks_per_chip(), fresh.free_blocks_per_chip());
        prop_assert_eq!(ftl.live_pages(), written.len() as u64);
        ftl.check_consistency().map_err(TestCaseError::fail)?;
    }
}
