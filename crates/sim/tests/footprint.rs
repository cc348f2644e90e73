//! Device memory follows the written footprint, not the device's capacity.
//!
//! The paper device exposes 33.5 M logical pages, and a dense translation
//! table for it is 128 MiB. This binary counts heap bytes with
//! `CountingAlloc` as its global allocator (one test, so nothing else
//! allocates alongside it) and pins that building a paper-geometry device
//! costs almost nothing and that replaying a trace grows the heap by a few
//! bytes per programmed page. The replay never collects, so it builds no
//! GC index (reverse map and candidate lists): it grows about 12 B per
//! page, and a device that built the index anyway would grow about 17 B,
//! above the 14 B limit.

use reqblock_core::ReqBlockConfig;
use reqblock_obs::CountingAlloc;
use reqblock_sim::{CacheSizeMb, PolicyKind, SimConfig, Ssd};
use reqblock_trace::{profiles, Request, SyntheticTrace};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn device_memory_follows_the_written_footprint() {
    let trace: Vec<Request> = SyntheticTrace::new(profiles::ts_0().scaled(0.1)).collect();
    let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()));

    let before = ALLOC.current_bytes();
    ALLOC.reset_peak();
    let mut ssd = Ssd::new(cfg);
    let built = ALLOC.peak_bytes() - before;
    assert!(built < 2 << 20, "Ssd::new counted {built} bytes, limit 2 MiB");

    let live = ALLOC.current_bytes();
    for req in &trace {
        ssd.submit(req);
    }
    let programs = ssd.flash_counters().user_programs;
    let grown = ALLOC.current_bytes() - live;
    assert!(programs > 50_000, "ts_0 x0.1 programmed only {programs} pages");
    // The run never collects, so it holds no GC index: what remains is
    // the forward map's leaves, the block metadata and the cache.
    assert_eq!(ssd.ftl_stats().gc_runs, 0, "ts_0 x0.1 ran GC on the paper device");
    let per_page = grown as f64 / programs as f64;
    assert!(
        per_page < 14.0,
        "replay grew live bytes by {grown} ({per_page:.1} B per programmed page, limit 14)"
    );
}
