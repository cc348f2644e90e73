//! Quickstart: simulate one workload through the Req-block write buffer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's SSD (Table 1), generates a scaled-down version of the
//! ts_0 workload (Table 2), replays it through a 16 MB Req-block cache, and
//! prints the headline metrics next to a plain-LRU run of the same trace.

use reqblock::prelude::*;

fn main() {
    // A 2 %-scale ts_0: ~36k requests, 82 % writes, 8 KB mean write size.
    let profile = reqblock::trace::profiles::ts_0().scaled(0.02);
    println!(
        "workload: {} ({} requests, {:.1}% writes, {:.1} KB mean write)\n",
        profile.name,
        profile.requests,
        profile.write_ratio * 100.0,
        profile.target_mean_write_pages * 4.0
    );

    for policy in [PolicyKind::ReqBlock(ReqBlockConfig::paper()), PolicyKind::Lru] {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
        let result = replay(&cfg, SyntheticTrace::new(profile.clone()), &mut NoopRecorder);
        let m = &result.metrics;
        println!("policy: {}", result.policy);
        println!("  page hit ratio     : {:.2}% (writes {:.2}%, reads {:.2}%)",
            m.hit_ratio() * 100.0, m.write_hit_ratio() * 100.0, m.read_hit_ratio() * 100.0);
        println!("  avg response time  : {:.3} ms", m.avg_response_ms());
        println!("  evictions          : {} ({:.1} pages each)",
            m.evictions, m.avg_pages_per_eviction());
        println!("  flash programs     : {} user + {} GC",
            result.flash.user_programs, result.flash.gc_programs);
        println!();
    }

    println!("Req-block keeps hot small-request data in its SRL list and evicts");
    println!("cold large request blocks in parallel batches — which is where both");
    println!("the extra hits and the response-time win come from (paper §4.2).");
}
