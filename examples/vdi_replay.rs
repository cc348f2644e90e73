//! Replay a real block trace (MSR-Cambridge CSV format) through the
//! simulator — the path a user with the paper's original traces would take.
//!
//! ```text
//! cargo run --release --example vdi_replay [path/to/trace.csv]
//! ```
//!
//! Without an argument the example writes a small embedded MSR-format
//! sample to a temp file first, so it is runnable out of the box and
//! demonstrates the full parse -> replay -> report pipeline.

use reqblock::prelude::*;
use reqblock::trace::msr;
use std::path::PathBuf;

/// A miniature MSR-format trace: a few hot 4 KB writes (offset 8 MB region)
/// interleaved with one large sequential write burst and re-reads.
const EMBEDDED_SAMPLE: &str = "\
128166372003061629,vdi,0,Write,8388608,4096,100
128166372013061629,vdi,0,Write,8392704,4096,100
128166372023061629,vdi,0,Write,104857600,262144,900
128166372033061629,vdi,0,Write,105119744,262144,900
128166372043061629,vdi,0,Read,8388608,8192,80
128166372053061629,vdi,0,Write,8388608,4096,100
128166372063061629,vdi,0,Read,104857600,131072,300
128166372073061629,vdi,0,Write,8392704,4096,100
128166372083061629,vdi,0,Read,8388608,4096,60
";

fn main() {
    let path: PathBuf = match std::env::args().nth(1) {
        Some(p) => p.into(),
        None => {
            let p = std::env::temp_dir().join("reqblock_vdi_sample.csv");
            std::fs::write(&p, EMBEDDED_SAMPLE).expect("write sample trace");
            println!("no trace given; using embedded sample at {}\n", p.display());
            p
        }
    };

    let requests = match msr::parse_file(&path) {
        Ok(reqs) => reqs,
        Err(e) => {
            eprintln!("failed to parse {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let stats = reqblock::trace::stats::compute(requests.iter());
    println!("parsed {} requests:", stats.requests);
    println!("  write ratio      : {:.1}%", stats.write_ratio * 100.0);
    println!("  mean write size  : {:.1} KB", stats.mean_write_kb);
    println!("  distinct pages   : {}", stats.distinct_pages);
    println!(
        "  frequent (>=3)   : {:.1}% overall, {:.1}% of written pages\n",
        stats.frequent_ratio * 100.0,
        stats.frequent_write_ratio * 100.0
    );

    for policy in [PolicyKind::ReqBlock(ReqBlockConfig::paper()), PolicyKind::Lru] {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
        let r = replay(&cfg, requests.iter().copied(), &mut NoopRecorder);
        println!(
            "{:<10} hit {:>6.2}%   avg response {:>8.3} ms   flash writes {}",
            r.policy,
            r.metrics.hit_ratio() * 100.0,
            r.metrics.avg_response_ms(),
            r.flash.user_programs
        );
    }
}
