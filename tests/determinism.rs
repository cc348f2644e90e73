//! Reproducibility: everything in the pipeline is deterministic — the same
//! profile and configuration must produce byte-identical results, because
//! the reproduction's numbers are only meaningful if they are stable.

use reqblock::prelude::*;

#[test]
fn trace_generation_is_deterministic() {
    for profile in paper_profiles() {
        let name = profile.name.clone();
        let p = profile.scaled(0.001);
        let a = SyntheticTrace::new(p.clone()).generate_all();
        let b = SyntheticTrace::new(p).generate_all();
        assert_eq!(a, b, "{name} generation differs between runs");
    }
}

#[test]
fn simulation_is_deterministic_per_policy() {
    let profile = reqblock::trace::profiles::src1_2().scaled(0.002);
    for policy in PolicyKind::paper_comparison() {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
        let a = replay(&cfg, SyntheticTrace::new(profile.clone()), &mut NoopRecorder);
        let b = replay(&cfg, SyntheticTrace::new(profile.clone()), &mut NoopRecorder);
        assert_eq!(a.metrics, b.metrics, "{} metrics differ", a.policy);
        assert_eq!(a.flash, b.flash, "{} flash counters differ", a.policy);
        assert_eq!(a.ftl, b.ftl, "{} ftl stats differ", a.policy);
    }
}

#[test]
fn parallel_runner_matches_serial_runs() {
    use reqblock::sim::{run_task_pool, RunResult, Task, TraceSource};
    use std::sync::OnceLock;
    let profile = reqblock::trace::profiles::ts_0().scaled(0.002);
    let source = TraceSource::Synthetic(profile.clone());
    let cfgs: Vec<SimConfig> = PolicyKind::paper_comparison()
        .iter()
        .map(|p| SimConfig::paper(CacheSizeMb::Mb16, *p))
        .collect();
    let slots: Vec<OnceLock<RunResult>> = cfgs.iter().map(|_| OnceLock::new()).collect();
    let tasks = cfgs
        .iter()
        .zip(&slots)
        .map(|(cfg, slot)| {
            Task::new(cfg.policy.name(), || {
                let requests = source.requests().unwrap();
                slot.set(replay(cfg, requests.iter().copied(), &mut NoopRecorder)).unwrap();
            })
        })
        .collect();
    run_task_pool(tasks, 4);
    for (cfg, slot) in cfgs.iter().zip(slots) {
        let serial = replay(cfg, SyntheticTrace::new(profile.clone()), &mut NoopRecorder);
        let parallel = slot.into_inner().expect("every task ran");
        assert_eq!(serial.metrics, parallel.metrics, "{} parallel != serial", cfg.policy.name());
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let mut p = reqblock::trace::profiles::ts_0().scaled(0.001);
    let a = SyntheticTrace::new(p.clone()).generate_all();
    p.seed ^= 0xdead_beef;
    let b = SyntheticTrace::new(p).generate_all();
    assert_ne!(a, b, "seed must matter");
}
