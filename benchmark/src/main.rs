//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//! ```
//!
//! `--seconds` (default 25) is how long the timed repeats, or the traced
//! rounds, run; `--seed` (default 0) seeds the generated inputs.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`, which also writes a Chrome trace-event file to
//! `DIR/<workload>.trace.json` (default `target/benchmark/`). A human-readable
//! summary with medians, quartiles and sample counts goes to standard
//! error. Exit codes: 0 when every correctness check passed, 1 when one
//! failed or the trace could not be written, 2 on a bad command line.

use reqblock_benchmark::{run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]\n\
                     workloads: ts0_small_writes proj0_gc hm1_reads fleet_qd8";

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Options, PathBuf), String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::Ts0SmallWrites,
        seed: 0,
        seconds: 25.0,
        scale: 1.0,
        traced: false,
    };
    let mut trace_dir = PathBuf::from("target/benchmark");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, trace_dir))
}

fn main() -> ExitCode {
    let (opts, trace_dir) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    let name = opts.workload.name();
    for m in &report.metrics {
        let detail = m.summary.map_or(String::new(), |s| {
            format!(
                "  (median of {}; quartiles {:.6} .. {:.6})",
                s.n, s.q1, s.q3
            )
        });
        eprintln!(
            "benchmark: {name} {:<28} {:>16.6} {}{detail}",
            m.def.name, m.value, m.def.unit
        );
    }
    for failure in &report.failures {
        eprintln!("benchmark: {name}: check failed: {failure}");
    }
    if let Some(spans) = &report.spans {
        let path = trace_dir.join(format!("{name}.trace.json"));
        let written = std::fs::create_dir_all(&trace_dir)
            .and_then(|()| std::fs::write(&path, spans.chrome_trace(name)));
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("benchmark: wrote {}", path.display());
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
