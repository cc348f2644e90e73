//! Loading an MSR trace file holds the trace once.
//!
//! This binary counts heap bytes with `CountingAlloc` as its global
//! allocator (one test, so nothing else allocates alongside it) and pins
//! the peak of `shared::msr_file` — the load every `--trace-dir` replay
//! goes through — at 1.25x the slice it returns: a staged copy of the
//! records, a `Vec` that grows by doubling, or a copy into the shared
//! slice each breaks it.

use reqblock_obs::CountingAlloc;
use reqblock_trace::{msr, profiles, shared, Request, SyntheticTrace};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn loading_an_msr_file_holds_the_trace_once() {
    let path = std::env::temp_dir().join(format!("reqblock_msr_peak_{}.csv", std::process::id()));
    let written = {
        let reqs: Vec<Request> = SyntheticTrace::new(profiles::ts_0().scaled(0.1)).collect();
        msr::write_file(&path, reqs.iter().copied()).unwrap();
        reqs.len()
    };

    let before = ALLOC.current_bytes();
    ALLOC.reset_peak();
    let loaded = shared::msr_file(&path).unwrap();
    let peak = ALLOC.peak_bytes() - before;
    let _ = std::fs::remove_file(&path);

    assert_eq!(loaded.len(), written);
    let slice = std::mem::size_of_val(&loaded[..]);
    assert!(
        peak * 4 <= slice * 5,
        "loading {written} requests peaked at {peak} bytes, {:.2}x the {slice}-byte slice \
         (limit 1.25x)",
        peak as f64 / slice as f64
    );
}
