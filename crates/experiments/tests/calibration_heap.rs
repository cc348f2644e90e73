//! The fleet's calibration probe leaves no trace behind.
//!
//! This binary counts heap bytes with `CountingAlloc` as its global
//! allocator (one test, so nothing else allocates alongside it). No fleet
//! run replays the `ts_0` mix that `fleet_service_gap_ns` calibrates on,
//! so the probe streams it from the generator: once it returns, live
//! bytes are back within 1 MiB of where they started, at a scale where
//! the trace alone is 2 MiB or more.

use reqblock_experiments::extensions::fleet_service_gap_ns;
use reqblock_experiments::Opts;
use reqblock_obs::CountingAlloc;
use reqblock_trace::{profiles, Request};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn fleet_calibration_holds_no_trace() {
    let opts = Opts { scale: 0.06, threads: 1, ..Opts::default() };
    let trace_bytes = profiles::ts_0().scaled(opts.scale).requests as usize * size_of::<Request>();
    assert!(trace_bytes >= 2 << 20, "the ts_0 trace is only {trace_bytes} bytes");

    let before = ALLOC.current_bytes();
    let gap = fleet_service_gap_ns(&opts);
    let left = ALLOC.current_bytes() as i64 - before as i64;
    assert!(gap > 0);
    assert!(
        left.abs() < 1 << 20,
        "calibrating on a {trace_bytes}-byte trace left {left} live bytes (limit 1 MiB)"
    );
}
