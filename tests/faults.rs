//! End-to-end reliability tests: fault injection through the full stack.
//!
//! The fault model's contract is *deterministic chaos*: a seeded
//! [`FaultConfig`] makes reads, programs, and erases fail at configured
//! rates, and everything downstream — retries, bad-block retirement, page
//! remapping, degraded-mode rejection, and the JSONL telemetry — must be
//! a pure function of (trace seed, fault seed, config). These tests pin
//! that contract at the outermost layer:
//!
//! * two identical faulty runs serialize to byte-identical JSONL that
//!   actually contains the reliability counters;
//! * a zero-fault run emits *none* of the reliability keys, so existing
//!   telemetry consumers never see the feature;
//! * a run driven into degraded mode keeps serving reads and reports
//!   `ReadOnly` health instead of corrupting or crashing.

use reqblock::core::ReqBlockConfig;
use reqblock::obs::telemetry::to_jsonl;
use reqblock::obs::{MemoryRecorder, NoopRecorder, Recorder};
use reqblock::prelude::FaultConfig;
use reqblock::sim::{
    replay, CacheSizeMb, Health, PolicyKind, RunResult, SampleInterval, SimConfig, TraceSource,
};
use reqblock::trace::profiles::ts_0;

/// Pressured two-chip device (the golden test's geometry): 16 384 pages
/// against a ts_0 slice with a 14 500-page footprint, so the append
/// stream cycles the free-block pool and GC erases fire.
fn pressured_cfg(fault: FaultConfig) -> (SimConfig, TraceSource) {
    let mut ssd = reqblock::flash::SsdConfig::paper();
    ssd.channels = 2;
    ssd.chips_per_channel = 1;
    ssd.capacity_bytes = 16_384 * ssd.page_size;
    let cfg = SimConfig {
        ssd,
        cache_pages: 64,
        policy: PolicyKind::ReqBlock(ReqBlockConfig::paper()),
        overhead_sample_every: 1_000,
        sampling: SampleInterval::Requests(2_000),
        fault,
        submit: reqblock::sim::SubmitMode::default(),
        attr: None,
    };
    (cfg, TraceSource::Synthetic(ts_0().scaled(0.01)))
}

fn run(cfg: &SimConfig, source: &TraceSource, rec: &mut impl Recorder) -> RunResult {
    replay(cfg, source.requests().unwrap().iter().copied(), rec)
}

fn record_jsonl(cfg: &SimConfig, source: &TraceSource) -> (MemoryRecorder, String) {
    let mut rec = MemoryRecorder::default();
    run(cfg, source, &mut rec);
    let jsonl = to_jsonl(&rec, &[("trace", "ts_0".to_string())]);
    (rec, jsonl)
}

#[test]
fn seeded_faulty_runs_are_byte_identical_jsonl() {
    let fault = FaultConfig::with_rates(0xFA117, 5_000, 2_000, 2_000);
    let (cfg, source) = pressured_cfg(fault);
    let (rec_a, a) = record_jsonl(&cfg, &source);
    let (_, b) = record_jsonl(&cfg, &source);
    assert_eq!(a, b, "same fault seed + config must serialize identically");

    // The telemetry must actually carry the reliability rollup, or the
    // byte-equality above proves nothing about the fault path.
    assert!(rec_a.counter_value("fault_read_faults") > 0, "read faults never fired");
    assert!(rec_a.counter_value("fault_program_failures") > 0, "program faults never fired");
    for key in [
        "fault_read_faults",
        "fault_read_retries",
        "fault_program_failures",
        "fault_erase_failures",
        "bad_blocks_retired",
        "remapped_pages",
        "rejected_write_pages",
    ] {
        assert!(a.contains(&format!("\"key\":\"{key}\"")), "missing counter {key}");
    }
    assert!(a.contains("\"key\":\"device_read_only\""), "missing health gauge");
    assert!(a.contains("\"series\":\"bad_blocks\""), "missing bad_blocks time series");
}

#[test]
fn different_fault_seeds_diverge() {
    let (cfg_a, source) = pressured_cfg(FaultConfig::with_rates(1, 5_000, 2_000, 2_000));
    let (cfg_b, _) = pressured_cfg(FaultConfig::with_rates(2, 5_000, 2_000, 2_000));
    let a = run(&cfg_a, &source, &mut NoopRecorder);
    let b = run(&cfg_b, &source, &mut NoopRecorder);
    assert_ne!(a.faults, b.faults, "distinct seeds must draw distinct fault streams");
}

#[test]
fn zero_fault_run_emits_no_reliability_telemetry() {
    let (cfg, source) = pressured_cfg(FaultConfig::default());
    let (_, jsonl) = record_jsonl(&cfg, &source);
    assert!(!jsonl.contains("fault_"), "zero-fault telemetry leaked fault counters");
    assert!(!jsonl.contains("device_read_only"));
    assert!(!jsonl.contains("bad_blocks"));
    assert!(!jsonl.contains("remapped_pages"));
}

#[test]
fn zero_fault_run_matches_fault_free_results() {
    let (cfg, source) = pressured_cfg(FaultConfig::default());
    let r = run(&cfg, &source, &mut NoopRecorder);
    assert_eq!(r.health, Health::Healthy);
    assert_eq!(r.faults, Default::default(), "inert fault model must count nothing");
    // Pinned by the golden test as well; a cheap cross-check here.
    assert_eq!(r.metrics.requests, 18_017);
}

#[test]
fn heavy_faults_degrade_to_read_only_but_finish_the_trace() {
    // 3% program / 3% erase failures on a device with only 2 x 128 blocks
    // retires enough of the array to cross the free-block floor.
    let fault = FaultConfig {
        read_only_free_floor: 8,
        ..FaultConfig::with_rates(0xDEAD, 0, 30_000, 30_000)
    };
    let (cfg, source) = pressured_cfg(fault);
    let r = run(&cfg, &source, &mut NoopRecorder);
    assert_eq!(r.health, Health::ReadOnly, "device should have degraded: {:?}", r.faults);
    assert!(r.faults.retired_blocks > 0);
    assert!(r.faults.rejected_write_pages > 0, "read-only mode must reject writes");
    // The run completed the whole trace (no panic, no truncation): every
    // request got a response, including post-degradation reads.
    assert_eq!(r.metrics.requests, 18_017);
    assert!(r.metrics.read_pages > 0);
}

#[test]
fn paper_device_read_faults_only_slow_reads_down() {
    // On the huge paper device nothing retires; a pure read-fault config
    // must leave all write-side counters untouched and only add retries.
    let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
        .with_faults(FaultConfig::with_rates(7, 50_000, 0, 0));
    let source = TraceSource::Synthetic(ts_0().scaled(0.02));
    let r = run(&cfg, &source, &mut NoopRecorder);
    assert!(r.faults.read_faults > 0);
    assert_eq!(r.faults.program_failures, 0);
    assert_eq!(r.faults.erase_failures, 0);
    assert_eq!(r.faults.retired_blocks, 0);
    assert_eq!(r.health, Health::Healthy);

    let base_cfg =
        SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()));
    let base = run(&base_cfg, &source, &mut NoopRecorder);
    assert_eq!(base.flash.user_programs, r.flash.user_programs, "writes must be unaffected");
    assert!(
        r.metrics.total_response_ns > base.metrics.total_response_ns,
        "retries must cost simulated time"
    );
}
