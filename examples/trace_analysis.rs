//! Reproduce the paper's *motivation analysis* (Figures 2 and 3) on any of
//! the six workloads: where do cache hits come from, by request size?
//!
//! ```text
//! cargo run --release --example trace_analysis [trace] [scale]
//! ```
//!
//! Runs the workload through a 16 MB LRU buffer (the paper's motivation
//! setup) with the Figure 2/3 probes attached and prints the insert/hit
//! CDFs plus the large-request reuse split.

use reqblock::obs::Fanout;
use reqblock::prelude::*;
use reqblock::sim::probes::{LargeReqHitProbe, SizeCdfProbe};
use reqblock::trace::profiles::profile_by_name;
use reqblock::trace::stats::StatsBuilder;

fn main() {
    let mut args = std::env::args().skip(1);
    let trace_name = args.next().unwrap_or_else(|| "proj_0".into());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let profile = profile_by_name(&trace_name).unwrap_or_else(|| {
        eprintln!("unknown trace {trace_name:?}; use hm_1|lun_1|usr_0|src1_2|ts_0|proj_0");
        std::process::exit(2);
    });
    let profile = profile.scaled(scale);

    // The paper's "small request" threshold: the trace's mean request size.
    let mut b = StatsBuilder::new();
    for req in SyntheticTrace::new(profile.clone()) {
        b.add(&req);
    }
    let stats = b.finish();
    let mean_req_pages = stats.total_page_accesses as f64 / stats.requests as f64;
    let threshold = mean_req_pages.round().max(1.0) as u32;
    println!(
        "trace {} at scale {scale}: mean request size {:.1} pages -> 'large' means > {threshold} pages\n",
        profile.name, mean_req_pages
    );

    let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::Lru);
    let mut cdf = SizeCdfProbe::new();
    let mut large = LargeReqHitProbe::new(threshold);
    {
        let mut fan = Fanout::new();
        fan.push(&mut cdf);
        fan.push(&mut large);
        replay(&cfg, SyntheticTrace::new(profile), &mut fan);
    }
    large.finish();

    println!("Figure 2 reproduction (16MB cache, LRU):");
    println!("{:>12} {:>14} {:>14}", "req size", "insert CDF", "hit CDF");
    for size in [1u32, 2, 4, 8, 16, 32, 64, 128] {
        println!(
            "{:>9} pp {:>13.1}% {:>13.1}%",
            size,
            cdf.insert_fraction_upto(size) * 100.0,
            cdf.hit_fraction_upto(size) * 100.0
        );
    }
    println!(
        "\n=> requests of <= {threshold} pages contribute {:.1}% of all hits while \
         inserting only {:.1}% of cached pages (the paper's Observation 1).",
        cdf.hit_fraction_upto(threshold) * 100.0,
        cdf.insert_fraction_upto(threshold) * 100.0
    );

    println!(
        "\nFigure 3 reproduction: of {} page insertions from large requests, \
         {:.1}% were re-accessed while cached (paper reports 22.0-37.2%).",
        large.episodes,
        large.hit_fraction() * 100.0
    );
}
