//! Dependency-free hot-path benchmark: requests/sec for full-device replay.
//!
//! This binary measures the end-to-end hot path with nothing but
//! `std::time::Instant`: it replays a scaled `ts_0` synthetic trace through
//! the Req-block policy and LRU on the paper's 16 MB device, repeats each
//! replay a few times, and reports best-of and median-of-repeats
//! requests/sec as JSON (the regression gate reads the median — it is
//! robust to a single noisy repeat in either direction).
//!
//! Each policy is measured four times: with the no-op recorder (the normal
//! synchronous path — this is what the regression gates watch, since a
//! disabled observability layer must cost ~nothing), with a full
//! [`MemoryRecorder`] capturing page events and sampled time series, in
//! queued submit mode (`Queued { depth: 8 }`) to track the host layer's
//! flush-window overhead, and with latency attribution configured but the
//! recorder disabled (`attr_noop`) — the double gate must monomorphize the
//! whole attribution layer away, so this mode is gated against the plain
//! no-op path of the same run. The JSON reports all four plus the recording
//! overhead percentage.
//!
//! ```text
//! cargo run --release -p reqblock-bench --bin hotpath -- \
//!     [--scale 0.25] [--repeats 3]
//! ```
//!
//! The JSON goes to stdout. `scripts/ab.sh` runs this binary for a
//! revision and for the working tree, and its gate table reads the
//! `median_requests_per_sec` of `policies`, `queued_policies` and
//! `attr_noop_policies`.

use reqblock_bench::{median, Cli};
use reqblock_core::ReqBlockConfig;
use reqblock_obs::{MemoryRecorder, NoopRecorder};
use reqblock_sim::{
    replay, AttrConfig, CacheSizeMb, PolicyKind, SampleInterval, SimConfig, SubmitMode,
    TraceSource,
};
use reqblock_trace::Request;
use std::fmt::Write as _;
use std::time::Instant;

struct PolicyResult {
    name: &'static str,
    requests_per_sec: f64,
    best_elapsed_ms: f64,
    median_requests_per_sec: f64,
    median_elapsed_ms: f64,
    hit_ratio: f64,
}

fn policy_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::ReqBlock(_) => "Req-block",
        _ => "LRU",
    }
}

/// Best-of-`repeats` replay, measured four times per repeat: with the
/// no-op recorder (the normal path), with a full [`MemoryRecorder`]
/// capturing page events plus time series sampled every 1000 requests, in
/// queued submit mode (`Queued { depth: 8 }`, no-op recorder) to track
/// the flush-window overhead of the host layer, and with attribution
/// configured under the no-op recorder (`attr_noop`) — the engine's
/// double gate (`rec.enabled() && attr configured`) must compile the
/// attribution bookkeeping out of this path entirely. The modes are
/// interleaved inside every repeat so a load spike on a shared machine
/// hits all of them the same way — sequential blocks would let background
/// noise masquerade as (or hide) per-mode overhead — and their order
/// rotates from repeat to repeat.
fn measure(
    policy: PolicyKind,
    trace: &[Request],
    requests: u64,
    repeats: u32,
) -> (PolicyResult, PolicyResult, PolicyResult, PolicyResult) {
    let run = |cfg: &SimConfig| replay(cfg, trace.iter().copied(), &mut NoopRecorder);
    let cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
    let cfg_rec = cfg.clone().with_sampling(SampleInterval::Requests(1_000));
    let cfg_queued = cfg.clone().with_submit(SubmitMode::Queued { depth: 8 });
    let cfg_attr = cfg.clone().with_attribution(AttrConfig::default());
    // Warm-up replays: page in code and the trace generator's tables.
    let warm = run(&cfg);
    let mut warm_rec = MemoryRecorder::default();
    let warm_recorded = replay(&cfg_rec, trace.iter().copied(), &mut warm_rec);
    assert_eq!(
        warm.metrics, warm_recorded.metrics,
        "recording must not change the simulated model"
    );
    let warm_queued = run(&cfg_queued);
    assert_eq!(
        warm.flash, warm_queued.flash,
        "flash traffic must be depth-invariant across submit modes"
    );
    let warm_attr = run(&cfg_attr);
    assert_eq!(
        warm.metrics, warm_attr.metrics,
        "attribution config must not change the simulated model"
    );
    // Times per mode: no-op, recording, queued, attr-noop. Each repeat
    // starts one mode later, so the modes take turns in each slot: on a
    // shared 2-core host the slot after the queued mode read about 4 %
    // slower for Req-block, which a fixed order charged to attr-noop.
    let mut times: [Vec<f64>; 4] = Default::default();
    for rep in 0..repeats as usize {
        for mode in (0..4).map(|k| (k + rep) % 4) {
            let mut rec = MemoryRecorder::default();
            let t0 = Instant::now();
            let res = match mode {
                0 => run(&cfg),
                1 => replay(&cfg_rec, trace.iter().copied(), &mut rec),
                2 => run(&cfg_queued),
                _ => run(&cfg_attr),
            };
            times[mode].push(t0.elapsed().as_secs_f64());
            let want = if mode == 2 { &warm_queued.metrics } else { &warm.metrics };
            assert_eq!(res.metrics, *want, "mode {mode} replay must be deterministic across repeats");
        }
    }
    let result = |times: &[f64]| {
        let best = times.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let med = median(times);
        PolicyResult {
            name: policy_name(policy),
            requests_per_sec: requests as f64 / best,
            best_elapsed_ms: best * 1e3,
            median_requests_per_sec: requests as f64 / med,
            median_elapsed_ms: med * 1e3,
            hit_ratio: warm.metrics.hit_ratio(),
        }
    };
    let [noop, recording, queued, attr] = times.map(|t| result(&t));
    (noop, recording, queued, attr)
}

fn push_policy_array(json: &mut String, key: &str, results: &[PolicyResult], last: bool) {
    let _ = writeln!(json, "  \"{key}\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"requests_per_sec\": {:.1}, \"best_elapsed_ms\": {:.2}, \
             \"median_requests_per_sec\": {:.1}, \"median_elapsed_ms\": {:.2}, \"hit_ratio\": {:.6}}}{}",
            r.name,
            r.requests_per_sec,
            r.best_elapsed_ms,
            r.median_requests_per_sec,
            r.median_elapsed_ms,
            r.hit_ratio,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]{}", if last { "" } else { "," });
}

fn main() {
    let mut scale = 0.25f64;
    let mut repeats = 3u32;
    let mut cli = Cli::new("hotpath", "[--scale F] [--repeats N]");
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--scale" => scale = cli.value("--scale"),
            "--repeats" => repeats = cli.value("--repeats"),
            other => cli.fail(&format!("unknown flag {other:?}")),
        }
    }
    cli.require(scale.is_finite() && scale > 0.0, "--scale", "must be finite and > 0");
    cli.require(repeats > 0, "--repeats", "must be >= 1");

    let profile = reqblock_trace::profiles::ts_0().scaled(scale);
    let requests = profile.requests;
    let trace = TraceSource::Synthetic(profile).requests().expect("synthetic traces always load");
    eprintln!("hotpath: ts_0 x{scale} = {requests} requests, {repeats} repeats per policy");

    let policies = [PolicyKind::ReqBlock(ReqBlockConfig::paper()), PolicyKind::Lru];
    let mut noop = Vec::new();
    let mut recording = Vec::new();
    let mut queued = Vec::new();
    let mut attr_noop = Vec::new();
    for &p in &policies {
        let (n, r, q, a) = measure(p, &trace, requests, repeats);
        noop.push(n);
        recording.push(r);
        queued.push(q);
        attr_noop.push(a);
    }

    for r in &noop {
        eprintln!(
            "hotpath: {:<9} noop      {:>12.0} req/s  (best {:.1} ms, median {:.1} ms, hit ratio {:.4})",
            r.name, r.requests_per_sec, r.best_elapsed_ms, r.median_elapsed_ms, r.hit_ratio
        );
    }
    for (n, r) in noop.iter().zip(&recording) {
        let pct = (r.best_elapsed_ms - n.best_elapsed_ms) / n.best_elapsed_ms * 100.0;
        eprintln!(
            "hotpath: {:<9} recording {:>12.0} req/s  (best {:.1} ms, overhead {:+.1}%)",
            r.name, r.requests_per_sec, r.best_elapsed_ms, pct
        );
    }
    for (n, q) in noop.iter().zip(&queued) {
        let pct = (q.best_elapsed_ms - n.best_elapsed_ms) / n.best_elapsed_ms * 100.0;
        eprintln!(
            "hotpath: {:<9} queued qd8 {:>11.0} req/s  (best {:.1} ms, overhead {:+.1}%)",
            q.name, q.requests_per_sec, q.best_elapsed_ms, pct
        );
    }
    for (n, a) in noop.iter().zip(&attr_noop) {
        let pct = (a.best_elapsed_ms - n.best_elapsed_ms) / n.best_elapsed_ms * 100.0;
        eprintln!(
            "hotpath: {:<9} attr noop {:>12.0} req/s  (best {:.1} ms, overhead {:+.1}%)",
            a.name, a.requests_per_sec, a.best_elapsed_ms, pct
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"hotpath\",");
    let _ = writeln!(json, "  \"trace\": \"ts_0\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    push_policy_array(&mut json, "policies", &noop, false);
    push_policy_array(&mut json, "recording_policies", &recording, false);
    push_policy_array(&mut json, "queued_policies", &queued, false);
    push_policy_array(&mut json, "attr_noop_policies", &attr_noop, false);
    json.push_str("  \"recording_overhead_pct\": [\n");
    for (i, (n, r)) in noop.iter().zip(&recording).enumerate() {
        let pct = (r.best_elapsed_ms - n.best_elapsed_ms) / n.best_elapsed_ms * 100.0;
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"pct\": {:.2}}}{}",
            n.name,
            pct,
            if i + 1 < noop.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    print!("{json}");
}
