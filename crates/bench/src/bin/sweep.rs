//! Dependency-free sweep benchmark: wall-clock for a full `repro all`.
//!
//! Measures [`reqblock_experiments::sweep::run_all`] — the barrier-free
//! pool behind `repro all` — in two modes, interleaved inside every
//! repeat so background noise hits both of them the same way:
//!
//! * `cached_serial`     — one worker thread: every job runs one after
//!   another over the shared `Arc<[Request]>` trace cache, which
//!   synthesizes each (source, scale) pair once per sweep.
//! * `cached_parallel`   — `--threads` workers. On a multi-core host this
//!   adds the pool speedup (on one core it tracks `cached_serial`).
//!
//! Every repeat asserts both modes emit byte-identical tables and
//! telemetry — the digest of every stable section (the "perf" section is
//! excluded: it embeds host wall-clock) plus every file — so the benchmark
//! doubles as an end-to-end determinism check.
//!
//! ```text
//! cargo run --release -p reqblock-bench --bin sweep -- \
//!     [--scale 0.05] [--repeats 3] [--threads N]
//! ```
//!
//! The JSON goes to stdout. `scripts/ab.sh` runs this binary for a
//! revision and for the working tree, and its gate table reads both
//! modes' `median_s` and `threads`.

use reqblock_bench::{median, Cli};
use reqblock_experiments::sweep::{run_all, Outcome};
use reqblock_experiments::Opts;
use reqblock_trace::shared;
use std::fmt::Write as _;
use std::time::Instant;

/// Render the comparable artifact surface: the digest of every stable
/// section (minus "perf", whose cells embed host timings) plus every file.
fn artifact_digest(all: &Outcome) -> String {
    let mut s = String::new();
    for (name, digest) in all.digests() {
        let _ = writeln!(s, "[digest {name} {digest:016x}]");
    }
    for (name, contents) in &all.files {
        let _ = writeln!(s, "## {name}\n{contents}");
    }
    s
}

/// One timed `run_all`. The trace cache is cleared first, so every
/// measurement is one cold `repro all`.
fn timed_run(opts: &Opts) -> (f64, String) {
    shared::clear();
    let t0 = Instant::now();
    let all = run_all(opts);
    let elapsed = t0.elapsed().as_secs_f64();
    (elapsed, artifact_digest(&all))
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().fold(f64::INFINITY, |a, &b| a.min(b))
}

fn main() {
    let mut scale = 0.02f64;
    let mut repeats = 3u32;
    let mut threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut cli = Cli::new("sweep", "[--scale F] [--repeats N] [--threads N]");
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--scale" => scale = cli.value("--scale"),
            "--repeats" => repeats = cli.value("--repeats"),
            "--threads" => threads = cli.value("--threads"),
            other => cli.fail(&format!("unknown flag {other:?}")),
        }
    }
    cli.require(scale.is_finite() && scale > 0.0, "--scale", "must be finite and > 0");
    cli.require(repeats > 0, "--repeats", "must be >= 1");
    cli.require(threads > 0, "--threads", "must be >= 1");

    let out_dir = std::env::temp_dir().join("reqblock_bench_sweep");
    let serial = Opts { scale, threads: 1, out_dir: out_dir.clone(), trace_dir: None };
    let parallel = Opts { scale, threads, out_dir, trace_dir: None };
    eprintln!("sweep: repro-all workload at scale {scale}, {repeats} repeats, {threads} threads");

    // Warm-up: page in code paths once, and pin the reference artifacts
    // every measured run must reproduce.
    let (_, reference) = timed_run(&serial);

    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let modes: [(&str, &Opts); 2] = [("cached_serial", &serial), ("cached_parallel", &parallel)];
    for rep in 0..repeats {
        for (i, (name, opts)) in modes.iter().enumerate() {
            let (elapsed, digest) = timed_run(opts);
            assert_eq!(
                digest, reference,
                "{name} emitted different artifacts on repeat {rep}"
            );
            eprintln!("sweep: repeat {rep} {name:<16} {elapsed:>7.2} s");
            times[i].push(elapsed);
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"sweep\",");
    let _ = writeln!(json, "  \"workload\": \"repro all\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"modes\": [");
    for (i, (name, _)) in modes.iter().enumerate() {
        let t = &times[i];
        let samples: Vec<String> = t.iter().map(|v| format!("{v:.3}")).collect();
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"times_s\": [{}], \"best_s\": {:.3}, \"median_s\": {:.3}}}{}",
            samples.join(", "),
            best(t),
            median(t),
            if i + 1 < modes.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    print!("{json}");
}
