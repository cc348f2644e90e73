//! Workspace-level invariants of the latency-attribution layer
//! (DESIGN.md §7.4).
//!
//! The exact-sum contract: every nanosecond of every request's response
//! time is charged to exactly one [`Component`] — the per-component
//! totals sum to the metrics' `total_response_ns` with no slack, and
//! every sampled span's parts sum to its own response. The property
//! test drives arbitrary workloads at queue depths 1-4; the unit
//! test pins that the deterministic sampler's selection is a pure
//! function of the seeded config and the request stream, so running
//! the simulation on a different thread (or more of them) cannot
//! change which spans are captured.

use proptest::prelude::*;
use reqblock::core::ReqBlockConfig;
use reqblock::obs::{AttrConfig, Component, MemoryRecorder};
use reqblock::sim::{PolicyKind, SimConfig, SpanRecord, Ssd, SubmitMode};
use reqblock::trace::{OpType, Request};

const PAGE: u64 = 4096;

/// Arbitrary request streams: mixed reads/writes over a footprint that
/// overflows the tiny cache (24 pages) but fits the tiny flash array
/// (512 pages), with irregular arrival gaps.
fn requests() -> impl Strategy<Value = Vec<Request>> {
    proptest::collection::vec(
        (any::<bool>(), 0u64..320, 1u64..24, 0u64..150_000),
        1..300,
    )
    .prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(is_write, page, pages, gap)| {
                t += gap;
                let op = if is_write { OpType::Write } else { OpType::Read };
                Request::new(t, op, page * PAGE, pages * PAGE)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-component attributed time sums *exactly* to the summed
    /// response time, for arbitrary workloads, at queue depths 1-4 (depth
    /// 1 is the paper's synchronous model), and every captured span
    /// decomposes its own response exactly.
    #[test]
    fn attribution_sums_exactly_for_arbitrary_workloads(
        reqs in requests(),
        depth in 1u32..5,
        sample_every in 1u64..8,
    ) {
        let cfg = SimConfig::tiny(24, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
            .with_submit(SubmitMode::Queued { depth })
            .with_attribution(AttrConfig { sample_every, slowest: 8, seed: 0xA77 });
        let mut rec = MemoryRecorder::default();
        let mut ssd = Ssd::new(cfg);
        for r in &reqs {
            ssd.submit_recorded(r, &mut rec);
        }
        ssd.finish_recording(&mut rec);

        let acc = ssd.attribution().expect("attribution configured");
        prop_assert_eq!(acc.requests(), reqs.len() as u64);
        let by_component: u128 = Component::ALL.iter().map(|&c| acc.total_ns(c)).sum();
        prop_assert_eq!(by_component, ssd.metrics().total_response_ns);
        prop_assert_eq!(acc.total_response_ns(), ssd.metrics().total_response_ns);
        for span in acc.sampled_spans() {
            prop_assert_eq!(span.parts_sum(), span.response_ns);
        }
        // The rollup repeats the exact sums, component by component.
        let mut rollup: u128 = 0;
        for c in Component::ALL {
            rollup += u128::from(
                rec.counter_value(&format!("attr_{}_ns", c.name())),
            );
        }
        prop_assert_eq!(rollup, by_component);
    }
}

/// One deterministic mixed workload with real tail structure: enough
/// writes to force evictions, enough reads to miss.
fn sampled_spans_of_run() -> Vec<SpanRecord> {
    let cfg = SimConfig::tiny(24, PolicyKind::Lru)
        .with_attribution(AttrConfig { sample_every: 3, slowest: 5, seed: 0xDE7E });
    let mut ssd = Ssd::new(cfg);
    let mut rec = MemoryRecorder::default();
    for i in 0..200u64 {
        let req = if i % 3 == 0 {
            Request::read_pages(i * 1_000, (i * 7) % 320, 2)
        } else {
            Request::write_pages(i * 1_000, (i * 11) % 320, 3)
        };
        ssd.submit_recorded(&req, &mut rec);
    }
    ssd.attribution().expect("attribution configured").sampled_spans()
}

/// The sampler (every-Kth ∪ slowest-N) must select the same spans no
/// matter which thread runs the simulation or how many peers run
/// beside it — selection is seeded state, never wall clock, thread id,
/// or scheduling order.
#[test]
fn sampler_selection_is_thread_invariant() {
    let baseline = sampled_spans_of_run();
    assert!(!baseline.is_empty(), "workload must capture spans");
    let handles: Vec<_> = (0..3).map(|_| std::thread::spawn(sampled_spans_of_run)).collect();
    for h in handles {
        assert_eq!(h.join().expect("worker panicked"), baseline);
    }
}
