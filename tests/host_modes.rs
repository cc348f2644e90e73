//! Host submit-mode tests. A golden test pins one `Queued { depth: 8 }`
//! run so queued-mode timing cannot drift silently, and checks the mode's
//! core invariant: the flush window reschedules *when* stalls are charged,
//! never *what* the flash array does, so flash traffic is depth-invariant.

use reqblock::core::ReqBlockConfig;
use reqblock::obs::NoopRecorder;
use reqblock::sim::{replay, CacheSizeMb, PolicyKind, SimConfig, SubmitMode, TraceSource};
use reqblock::trace::profiles::ts_0;

/// Golden queued-mode baseline: the synchronous golden scenario
/// (`tests/golden_reqblock.rs`) re-run at depth 8. Flash traffic and
/// cache behaviour must match the synchronous pins exactly; the pinned
/// response/stall numbers are queued-mode semantics and must only change
/// with a deliberate (and documented) semantic change.
#[test]
fn queued_golden_paper_device() {
    let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
        .with_submit(SubmitMode::Queued { depth: 8 });
    let source = TraceSource::Synthetic(ts_0().scaled(0.05));
    let requests = source.requests().unwrap();
    let a = replay(&cfg, requests.iter().copied(), &mut NoopRecorder);
    let b = replay(&cfg, requests.iter().copied(), &mut NoopRecorder);
    assert_eq!(a.metrics, b.metrics, "queued mode must be deterministic");
    assert_eq!(a.flash, b.flash);

    // Depth-invariant: identical to the synchronous golden baseline.
    assert_eq!(a.flash.user_reads, 12_772);
    assert_eq!(a.flash.user_programs, 14_863);
    assert_eq!(a.flash.erases, 0);
    assert_eq!(a.metrics.evictions, 1_626);
    assert_eq!(a.metrics.evicted_pages, 14_863);
    assert_eq!(a.metrics.read_hits, 22_920);
    assert_eq!(a.metrics.write_hits, 129_568);

    // Queued-mode host timing (the synchronous run pins
    // total_response_ns = 3_551_149_040; the 7-slot window absorbs most
    // flush waits).
    assert_eq!(a.metrics.total_response_ns, 897_900_880);
    assert_eq!(a.metrics.max_response_ns, 2_081_920);
    assert_eq!(a.metrics.flush_stalls, 57);
    assert_eq!(a.metrics.flush_stall_ns, 116_990_080);
    assert!(
        a.metrics.total_response_ns < 3_551_149_040,
        "the flush window must absorb stall versus the synchronous run"
    );
}
