//! Integration tests for the sweep-scale throughput work: the shared trace
//! cache must be invisible to simulation results, and the barrier-free
//! `repro all` pool must emit byte-identical artifacts at any thread count.

use reqblock::obs::NoopRecorder;
use reqblock::sim::{replay, CacheSizeMb, PolicyKind, RunResult, SimConfig, TraceSource};
use reqblock::trace::{Request, SyntheticTrace};
use reqblock_experiments::sweep::run_all;
use reqblock_experiments::Opts;
use std::path::PathBuf;

fn tiny_opts(threads: usize) -> Opts {
    Opts { scale: 0.001, threads, out_dir: std::env::temp_dir(), trace_dir: None }
}

/// The simulated half of a [`RunResult`] — everything except the host
/// wall-clock, which legitimately differs between runs.
fn simulated(r: &RunResult) -> String {
    format!("{} {} {:?} {:?} {:?} {:?} {:?}", r.policy, r.cache_pages, r.metrics, r.flash, r.ftl, r.faults, r.health)
}

/// Run one job over the explicitly shared (cached) request slice.
fn run_cached(cfg: &SimConfig, source: &TraceSource) -> RunResult {
    let requests = source.requests().unwrap();
    replay(cfg, requests.iter().copied(), &mut NoopRecorder)
}

/// Run the same job over `fresh`, a trace built from scratch without the
/// process-wide cache.
fn run_uncached(cfg: &SimConfig, fresh: Vec<Request>) -> RunResult {
    replay(cfg, fresh, &mut NoopRecorder)
}

#[test]
fn cached_replay_matches_uncached_regeneration_synthetic() {
    let profile = reqblock::trace::profiles::src1_2().scaled(0.002);
    let source = TraceSource::Synthetic(profile.clone());
    for policy in [PolicyKind::Lru, PolicyKind::ReqBlock(Default::default())] {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
        let cached = run_cached(&cfg, &source);
        let fresh = run_uncached(&cfg, SyntheticTrace::new(profile.clone()).generate_all());
        assert_eq!(simulated(&cached), simulated(&fresh));
    }
}

#[test]
fn cached_replay_matches_uncached_regeneration_msr_file() {
    let dir = std::env::temp_dir().join("reqblock_sweep_msr_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("ts_0.csv");
    let profile = reqblock::trace::profiles::ts_0().scaled(0.001);
    let reqs: Vec<reqblock::trace::Request> =
        reqblock::trace::SyntheticTrace::new(profile).generate_all();
    reqblock::trace::msr::write_file(&path, &reqs).unwrap();

    let source = TraceSource::MsrFile(path.clone());
    let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(Default::default()));
    let cached = run_cached(&cfg, &source);
    let fresh = run_uncached(&cfg, reqblock::trace::msr::parse_file(&path).unwrap());
    assert_eq!(simulated(&cached), simulated(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_slice_is_reused_not_regenerated() {
    let profile = reqblock::trace::profiles::hm_1().scaled(0.001);
    let source = TraceSource::Synthetic(profile);
    let a = source.requests().unwrap();
    let b = source.requests().unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "two lookups of the same (source, scale) must share one allocation"
    );
}

/// The tentpole determinism guarantee: `repro all` on one worker and on
/// four workers must produce byte-identical tables and telemetry. Only the
/// "perf" section may differ — its cells embed host wall-clock.
#[test]
fn run_all_is_thread_count_invariant() {
    let serial = run_all(&tiny_opts(1));
    let parallel = run_all(&tiny_opts(4));

    assert_eq!(serial.files, parallel.files);
    assert_eq!(serial.charts, parallel.charts);
    assert_eq!(serial.sections.len(), parallel.sections.len());
    for ((name_s, tables_s), (name_p, tables_p)) in
        serial.sections.iter().zip(&parallel.sections)
    {
        assert_eq!(name_s, name_p);
        if name_s == "perf" {
            continue;
        }
        assert_eq!(tables_s.len(), tables_p.len(), "{name_s}");
        for (ts, tp) in tables_s.iter().zip(tables_p) {
            assert_eq!(ts.to_markdown(), tp.to_markdown(), "section {name_s} diverged");
        }
    }
}
