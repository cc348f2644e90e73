//! End-to-end integration: every paper policy on every paper workload,
//! with cross-layer conservation invariants.

use reqblock::prelude::*;
use reqblock::sim::Ssd;

/// All six workloads at a tiny but non-degenerate scale.
fn workloads() -> Vec<WorkloadProfile> {
    paper_profiles().into_iter().map(|p| p.scaled(0.002)).collect()
}

#[test]
fn every_policy_runs_every_workload() {
    for profile in workloads() {
        for policy in PolicyKind::paper_comparison() {
            let cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
            let r = replay(&cfg, SyntheticTrace::new(profile.clone()), &mut NoopRecorder);
            let m = &r.metrics;
            assert_eq!(m.requests, profile.requests, "{}/{}", profile.name, r.policy);
            assert_eq!(m.requests, m.read_reqs + m.write_reqs);
            assert!(m.read_hits <= m.read_pages);
            assert!(m.write_hits <= m.write_pages);
            assert!(m.hit_ratio() <= 1.0);
            assert!(
                m.avg_response_ms() >= 0.0 && m.avg_response_ms().is_finite(),
                "{}/{}: bad response {}",
                profile.name,
                r.policy,
                m.avg_response_ms()
            );
        }
    }
}

#[test]
fn page_conservation_after_drain() {
    // Once drained, every page ever inserted into the buffer must have been
    // programmed to flash exactly once per insertion (write-buffer pages are
    // always dirty; padding is off for all compared policies).
    for profile in workloads() {
        for policy in PolicyKind::paper_comparison() {
            let mut ssd = Ssd::new(SimConfig::paper(CacheSizeMb::Mb16, policy));
            for req in SyntheticTrace::new(profile.clone()) {
                ssd.submit(&req);
            }
            ssd.drain_cache();
            let (m, programs) = (ssd.metrics(), ssd.flash_counters().user_programs);
            let inserted = m.write_pages - m.write_hits;
            let name = policy.name();
            assert_eq!(
                programs, inserted,
                "{}/{name}: programs {programs} != inserted {inserted}",
                profile.name
            );
            assert_eq!(m.evicted_pages, inserted, "{}/{name}", profile.name);
        }
    }
}

#[test]
fn flash_write_count_bounded_by_inserts_before_drain() {
    for policy in PolicyKind::paper_comparison() {
        let profile = reqblock::trace::profiles::proj_0().scaled(0.002);
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
        let r = replay(&cfg, SyntheticTrace::new(profile), &mut NoopRecorder);
        let inserted = r.metrics.write_pages - r.metrics.write_hits;
        assert!(r.flash.user_programs <= inserted);
        // Whatever was not flushed is still resident: at most the cache size.
        assert!(inserted - r.flash.user_programs <= 4096);
    }
}

#[test]
fn gc_activates_and_preserves_correctness_under_churn() {
    // A small logical working set hammered on the tiny SSD forces GC while
    // the 64-page cache forces constant evictions.
    let mut cfg = SimConfig::tiny(64, PolicyKind::ReqBlock(ReqBlockConfig::paper()));
    cfg.ssd = reqblock::flash::SsdConfig::tiny();
    let mut ssd = Ssd::new(cfg);
    let mut t = 0u64;
    for round in 0..60u64 {
        for start in (0..160).step_by(4) {
            t += 1_000_000;
            ssd.submit(&Request::write_pages(t, start, 4));
            let _ = round;
        }
    }
    assert!(ssd.ftl_stats().gc_runs > 0, "GC should have triggered");
    assert!(ssd.flash_counters().write_amplification() >= 1.0);
    // All data remains readable (timing-wise; correctness is the mapping).
    for start in (0..160).step_by(4) {
        t += 1_000_000;
        let resp = ssd.submit(&Request::read_pages(t, start, 4));
        assert!(resp > 0);
    }
}

#[test]
fn larger_caches_never_hurt_hit_ratio_much() {
    // Monotonicity sanity: for stack-friendly policies the hit ratio should
    // not collapse as the cache grows (allow small non-monotonic wiggle for
    // the non-stack block policies).
    let profile = reqblock::trace::profiles::ts_0().scaled(0.005);
    for policy in PolicyKind::paper_comparison() {
        let mut prev = 0.0;
        for cache in CacheSizeMb::ALL {
            let cfg = SimConfig::paper(cache, policy);
            let r = replay(&cfg, SyntheticTrace::new(profile.clone()), &mut NoopRecorder);
            let h = r.metrics.hit_ratio();
            assert!(
                h >= prev - 0.05,
                "{} hit ratio dropped from {prev:.3} to {h:.3} at {cache}",
                r.policy
            );
            prev = h;
        }
    }
}
