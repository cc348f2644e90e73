//! Cross-crate check: a synthetic workload exported to the MSR CSV format
//! and replayed from the file behaves identically to the in-memory trace.

use reqblock::prelude::*;
use reqblock::trace::msr;

#[test]
fn exported_trace_replays_identically() {
    // Quantize timestamps to filetime ticks so the export is lossless.
    let reqs: Vec<Request> = SyntheticTrace::new(reqblock::trace::profiles::usr_0().scaled(0.001))
        .map(|mut r| {
            r.time_ns = (r.time_ns / 100) * 100;
            r
        })
        .collect();

    let path = std::env::temp_dir().join("reqblock_it_roundtrip.csv");
    msr::write_file(&path, reqs.iter().copied()).expect("write trace file");
    let parsed = msr::parse_file(&path).expect("parse trace file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(parsed.len(), reqs.len());

    let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()));
    let direct = replay(&cfg, reqs.iter().copied(), &mut NoopRecorder);
    let roundtrip = replay(&cfg, parsed.iter().copied(), &mut NoopRecorder);
    assert_eq!(direct.metrics, roundtrip.metrics);
    assert_eq!(direct.flash, roundtrip.flash);
}

#[test]
fn stats_survive_roundtrip() {
    let reqs: Vec<Request> = SyntheticTrace::new(reqblock::trace::profiles::ts_0().scaled(0.001))
        .map(|mut r| {
            r.time_ns = (r.time_ns / 100) * 100;
            r
        })
        .collect();
    let before = reqblock::trace::stats::compute(&reqs);
    let parsed = msr::parse_str(&msr::write_csv(&reqs)).unwrap();
    let after = reqblock::trace::stats::compute(parsed.iter());
    assert_eq!(before, after);
}
