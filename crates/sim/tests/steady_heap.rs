//! A GC-heavy device's heap holds steady once its footprint is written.
//!
//! This binary counts heap bytes with `CountingAlloc` as its global
//! allocator (one test, so nothing else allocates alongside it). It
//! replays `proj_0` on a two-chip device sized at 1.15x the trace's write
//! footprint, the shape of the benchmark's `proj0_gc`, so GC erases cycle
//! the free pool, and then replays the same trace twice more. The later
//! passes write no new footprint, so the device's state, its GC candidate
//! lists among it (one entry per full block with invalid pages), must not
//! grow with the overwrites they make.

use reqblock_core::ReqBlockConfig;
use reqblock_obs::CountingAlloc;
use reqblock_sim::{CacheSizeMb, PolicyKind, SimConfig, Ssd};
use reqblock_trace::{profiles, Request, SyntheticTrace};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn gc_heavy_replays_hold_the_heap_steady() {
    let profile = profiles::proj_0().scaled(0.01);
    let mut cfg =
        SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()));
    let ssd = &mut cfg.ssd;
    ssd.channels = 2;
    ssd.chips_per_channel = 1;
    let block_pages = ssd.total_chips() as u64 * ssd.pages_per_block as u64;
    let footprint = profile.streaming_pages + profile.cold_read_extra_pages;
    let want_pages = (footprint as f64 * 1.15) as u64;
    ssd.capacity_bytes = want_pages.div_ceil(block_pages).max(8) * block_pages * ssd.page_size;
    let trace: Vec<Request> = SyntheticTrace::new(profile).collect();
    // Each pass arrives after the previous pass's last arrival.
    let span = trace.iter().map(|r| r.time_ns).max().unwrap() + 1;

    let mut ssd = Ssd::new(cfg);
    let replay = |ssd: &mut Ssd, pass: u64| {
        for r in &trace {
            ssd.submit(&Request { time_ns: r.time_ns + pass * span, ..*r });
        }
    };
    replay(&mut ssd, 0);
    let live = ALLOC.current_bytes();
    let erased = ssd.ftl_stats().gc_erased_blocks;
    replay(&mut ssd, 1);
    replay(&mut ssd, 2);
    let erased = ssd.ftl_stats().gc_erased_blocks - erased;
    let grown = ALLOC.current_bytes() as i64 - live as i64;
    assert!(erased > 1_000, "passes 2-3 erased only {erased} blocks");
    assert!(
        grown < 256 << 10,
        "passes 2-3 grew live bytes by {grown} over {erased} GC erases (limit 256 KiB)"
    );
}
