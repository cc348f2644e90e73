//! Compare every implemented cache policy on one workload.
//!
//! ```text
//! cargo run --release --example policy_comparison [trace] [scale]
//! ```
//!
//! `trace` is one of `hm_1 | lun_1 | usr_0 | src1_2 | ts_0 | proj_0`
//! (default `src1_2`), `scale` the trace scale factor (default 0.05). The
//! example runs all five policies — the paper's four compared schemes plus
//! CFLRU — on the paper's SSD with a 32 MB cache.

use reqblock::cache::policies::{BplruConfig, CflruConfig};
use reqblock::prelude::*;
use reqblock::trace::profiles::profile_by_name;

fn main() {
    let mut args = std::env::args().skip(1);
    let trace_name = args.next().unwrap_or_else(|| "src1_2".into());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let profile = profile_by_name(&trace_name).unwrap_or_else(|| {
        eprintln!("unknown trace {trace_name:?}; use hm_1|lun_1|usr_0|src1_2|ts_0|proj_0");
        std::process::exit(2);
    });
    let profile = profile.scaled(scale);
    println!("trace {} at scale {scale} ({} requests), 32MB cache\n", profile.name, profile.requests);

    let policies = [
        PolicyKind::Lru,
        PolicyKind::Cflru(CflruConfig::default()),
        PolicyKind::Bplru(BplruConfig::default()),
        PolicyKind::Vbbms,
        PolicyKind::ReqBlock(ReqBlockConfig::paper()),
    ];

    println!(
        "{:<10} {:>9} {:>12} {:>11} {:>12} {:>10}",
        "policy", "hit %", "resp ms", "evict pgs", "flash wr", "meta KB"
    );
    let mut rows: Vec<(String, f64)> = Vec::new();
    for policy in policies {
        let cfg = SimConfig::paper(CacheSizeMb::Mb32, policy);
        let r = replay(&cfg, SyntheticTrace::new(profile.clone()), &mut NoopRecorder);
        println!(
            "{:<10} {:>8.2}% {:>12.3} {:>11.1} {:>12} {:>10.1}",
            r.policy,
            r.metrics.hit_ratio() * 100.0,
            r.metrics.avg_response_ms(),
            r.metrics.avg_pages_per_eviction(),
            r.flash.user_programs,
            r.metrics.avg_metadata_bytes() / 1024.0,
        );
        rows.push((r.policy.clone(), r.metrics.hit_ratio()));
    }

    let best = rows
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("hit ratios are finite"))
        .expect("at least one policy ran");
    println!("\nbest hit ratio: {} ({:.2}%)", best.0, best.1 * 100.0);
}
