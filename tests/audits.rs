//! Device audits inside running simulations: random request streams on a
//! pressured two-chip device, over every cache policy, fault rates and
//! queue depths, with `Ssd::check_consistency` every few submits. The
//! device holds little more than the stream's LPN window, so GC runs and,
//! under program faults, blocks retire; either builds the FTL's GC index
//! mid-run, and runs that exhaust the device end read-only. The audit
//! covers the FTL's mapping, block states and GC index on every device
//! and Req-block's lists and page index under Req-block.

use proptest::prelude::*;
use reqblock::cache::policies::{BplruConfig, CflruConfig};
use reqblock::prelude::*;
use reqblock::sim::{Health, Ssd, SubmitMode};

/// Submits between two audits.
const AUDIT_EVERY: usize = 16;

/// The paper's chip geometry on two chips of 24 blocks: 3 072 pages, for
/// a window of 2 400 LPNs.
fn pressured_device() -> SsdConfig {
    SsdConfig {
        channels: 2,
        chips_per_channel: 1,
        capacity_bytes: 2 * 24 * 64 * 4096,
        ..SsdConfig::paper()
    }
}

const WINDOW: u64 = 2_400;

fn policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Cflru(CflruConfig::default())),
        Just(PolicyKind::Bplru(BplruConfig::default())),
        Just(PolicyKind::Vbbms),
        Just(PolicyKind::ReqBlock(ReqBlockConfig::paper())),
    ]
}

/// Zero faults half the time; otherwise read, program and erase failures
/// at up to 1 %, 2 % and 5 %.
fn faults() -> impl Strategy<Value = FaultConfig> {
    let ppm = |max: u32| prop_oneof![Just(0u32), 1u32..max];
    (any::<bool>(), any::<u64>(), ppm(10_000), ppm(20_000), ppm(50_000)).prop_map(
        |(on, seed, read, program, erase)| {
            if on {
                FaultConfig::with_rates(seed, read, program, erase)
            } else {
                FaultConfig::default()
            }
        },
    )
}

/// (write, start LPN, pages) per request; three writes to each read.
fn stream() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..4, 0..WINDOW, 1u64..17), 300..1_200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn device_audits_hold_through_gc_retirement_and_read_only(
        policy in policy(),
        faults in faults(),
        depth in prop_oneof![Just(1u32), Just(2u32), Just(8u32)],
        cache_pages in prop_oneof![Just(64usize), Just(256usize)],
        stream in stream(),
    ) {
        let mut cfg = SimConfig::tiny(cache_pages, policy)
            .with_faults(faults)
            .with_submit(SubmitMode::Queued { depth });
        cfg.ssd = pressured_device();
        let mut ssd = Ssd::new(cfg);
        let mut t = 0u64;
        for (i, (kind, start, pages)) in stream.into_iter().enumerate() {
            t += 150_000;
            let pages = pages.min(WINDOW - start);
            let req = if kind == 0 {
                Request::read_pages(t, start, pages)
            } else {
                Request::write_pages(t, start, pages)
            };
            ssd.submit(&req);
            if i % AUDIT_EVERY == 0 {
                ssd.check_consistency().map_err(|e| TestCaseError::fail(format!("submit {i}: {e}")))?;
            }
        }
        ssd.drain_cache();
        ssd.check_consistency().map_err(TestCaseError::fail)?;
        if ssd.config().fault.is_inert() {
            prop_assert_eq!(ssd.health(), Health::Healthy);
        }
    }
}
