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
    use reqblock::sim::{Job, JobPool, TraceSource};
    let profile = reqblock::trace::profiles::ts_0().scaled(0.002);
    let jobs: Vec<Job> = PolicyKind::paper_comparison()
        .iter()
        .map(|p| Job {
            label: p.name().to_string(),
            cfg: SimConfig::paper(CacheSizeMb::Mb16, *p),
            source: TraceSource::Synthetic(profile.clone()),
        })
        .collect();
    let parallel = JobPool::new(jobs.clone()).run(4);
    for (job, (label, result)) in jobs.iter().zip(&parallel) {
        assert_eq!(&job.label, label);
        let serial = replay(&job.cfg, SyntheticTrace::new(profile.clone()), &mut NoopRecorder);
        assert_eq!(serial.metrics, result.metrics, "{label} parallel != serial");
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
