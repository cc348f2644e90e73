//! Exporting a synthetic trace holds neither the trace nor the file.
//!
//! This binary counts heap bytes with `CountingAlloc` as its global
//! allocator (one test, so nothing else allocates alongside it) and pins
//! the peak of `msr::write_file` fed straight from the generator — what
//! `repro export` does — below 1 MiB: collecting the requests, or
//! rendering the CSV into one string, each breaks it.

use reqblock_obs::CountingAlloc;
use reqblock_trace::{msr, profiles, SyntheticTrace};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn exporting_from_the_generator_holds_no_trace() {
    let profile = profiles::ts_0().scaled(0.1);
    let path = std::env::temp_dir().join(format!("reqblock_export_peak_{}.csv", std::process::id()));

    let before = ALLOC.current_bytes();
    ALLOC.reset_peak();
    msr::write_file(&path, SyntheticTrace::new(profile.clone())).unwrap();
    let peak = ALLOC.peak_bytes() - before;

    let written = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let want = msr::write_csv(&SyntheticTrace::new(profile).generate_all());
    assert!(written == want.as_bytes(), "the file differs from write_csv of the same trace");
    assert!(
        peak < 1 << 20,
        "exporting {} bytes of CSV peaked at {peak} heap bytes (limit 1 MiB)",
        written.len()
    );
}
