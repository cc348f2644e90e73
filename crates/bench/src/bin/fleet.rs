//! Fleet-engine benchmark: streaming merge vs the materialized reference.
//!
//! Replays the X8 loaded grid ([`fleet_placements`] x `--devices`) through
//! both fleet pipelines, interleaved inside every repeat so background
//! noise hits both the same way:
//!
//! * `fleet_stream`    — the production engine: per-device loser-tree
//!   merge over strided cursors into the shared tenant traces, pooled
//!   simulators, zero shard materialization.
//! * `fleet_reference` — the PR 8 shape kept as the oracle: materialize
//!   every tenant stream, shard per device, sort, simulate.
//!
//! Every run asserts both pipelines produce identical [`FleetMetrics`],
//! so the benchmark doubles as an end-to-end equivalence check. The
//! binary installs a counting global allocator and reports the peak bytes
//! each mode touches — the streaming engine's headline claim is the
//! memory column as much as the throughput one.
//!
//! ```text
//! cargo run --release -p reqblock-bench --bin fleet -- \
//!     [--scale 0.01] [--repeats 3] [--devices 4,16] [--threads N]
//! ```
//!
//! The JSON goes to stdout. `scripts/ab.sh` runs this binary for a
//! revision and for the working tree, and its gate table reads the
//! within-run `ratio_stream_over_ref` median and the `fleet_stream`
//! median devices/s.
//!
//! [`fleet_placements`]: reqblock_experiments::extensions::fleet_placements
//! [`FleetMetrics`]: reqblock_sim::FleetMetrics

use reqblock_bench::{median, Cli};
use reqblock_experiments::extensions::{
    fleet_device_config, fleet_mix, fleet_placements, fleet_service_gap_ns,
};
use reqblock_experiments::Opts;
use reqblock_obs::CountingAlloc;
use reqblock_sim::{
    run_fleet, run_fleet_reference, FleetConfig, FleetControl, FleetMetrics, Placement, TenantMix,
};
use reqblock_trace::shared;
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// One loaded grid point, fully prepared so the timed loop measures the
/// fleet engines and nothing else.
struct GridPoint {
    placement: Placement,
    cfg: FleetConfig,
    mix: TenantMix,
}

/// The X8 loaded grid: every placement at every device count, telemetry
/// off (the bench measures the engine, not the JSONL renderer).
fn build_grid(opts: &Opts, devices_list: &[usize]) -> Vec<GridPoint> {
    let service_gap_ns = fleet_service_gap_ns(opts);
    let device = fleet_device_config();
    let mut grid = Vec::new();
    for placement in fleet_placements() {
        for &devices in devices_list {
            let mut cfg = FleetConfig::uniform(devices, device.clone());
            cfg.placement = placement;
            cfg.telemetry = false;
            grid.push(GridPoint { placement, cfg, mix: fleet_mix(opts, service_gap_ns, devices) });
        }
    }
    grid
}

/// One timed full-grid pass through the chosen pipeline. Returns wall
/// seconds, the peak bytes allocated during the pass, and every point's
/// metrics (for the equivalence assert).
fn run_grid(grid: &[GridPoint], ctl: &FleetControl, streaming: bool) -> (f64, usize, Vec<FleetMetrics>) {
    ALLOC.reset_peak();
    let t0 = Instant::now();
    let metrics: Vec<FleetMetrics> = grid
        .iter()
        .map(|p| {
            let res = if streaming {
                run_fleet(&p.cfg, &p.mix, ctl)
            } else {
                run_fleet_reference(&p.cfg, &p.mix, ctl)
            };
            res.metrics
        })
        .collect();
    (t0.elapsed().as_secs_f64(), ALLOC.peak_bytes(), metrics)
}

fn max(samples: &[f64]) -> f64 {
    samples.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
}

fn main() {
    let mut scale = 0.01f64;
    let mut repeats = 3u32;
    let mut threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut devices_list: Vec<usize> = vec![4, 16];
    let mut cli =
        Cli::new("fleet", "[--scale F] [--repeats N] [--devices N1,N2,...] [--threads N]");
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--scale" => scale = cli.value("--scale"),
            "--repeats" => repeats = cli.value("--repeats"),
            "--threads" => threads = cli.value("--threads"),
            "--devices" => devices_list = cli.list("--devices"),
            other => cli.fail(&format!("unknown flag {other:?}")),
        }
    }
    cli.require(scale.is_finite() && scale > 0.0, "--scale", "must be finite and > 0");
    cli.require(repeats > 0, "--repeats", "must be >= 1");
    cli.require(threads > 0, "--threads", "must be >= 1");
    cli.require(!devices_list.contains(&0), "--devices", "device counts must be >= 1");

    shared::clear();
    let opts = Opts {
        scale,
        threads,
        out_dir: std::env::temp_dir().join("reqblock_bench_fleet"),
        trace_dir: None,
    };
    let ctl = FleetControl::threads(threads);
    let grid = build_grid(&opts, &devices_list);
    let grid_devices: usize = grid.iter().map(|p| p.cfg.device_count()).sum();
    eprintln!(
        "fleet: X8 loaded grid at scale {scale} ({} points, {grid_devices} devices), \
         {repeats} repeats, {threads} threads",
        grid.len()
    );

    // Warm-up: populate the shared trace cache and pin the reference
    // metrics every measured pass (either pipeline) must reproduce.
    let (_, _, reference) = run_grid(&grid, &ctl, false);

    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut peaks: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let modes = ["fleet_stream", "fleet_reference"];
    for rep in 0..repeats {
        for (i, name) in modes.iter().enumerate() {
            let streaming = i == 0;
            let (elapsed, peak, metrics) = run_grid(&grid, &ctl, streaming);
            for (m, (r, p)) in metrics.iter().zip(reference.iter().zip(grid.iter())) {
                assert_eq!(
                    m,
                    r,
                    "{name} diverged from the reference pipeline on repeat {rep} \
                     ({} x {} devices)",
                    p.placement.name(),
                    p.cfg.device_count()
                );
            }
            let dps = grid_devices as f64 / elapsed.max(1e-9);
            eprintln!(
                "fleet: repeat {rep} {name:<16} {elapsed:>6.2} s  {dps:>7.2} dev/s  peak {:>7.2} MiB",
                peak as f64 / (1024.0 * 1024.0)
            );
            times[i].push(elapsed);
            peaks[i].push(peak);
        }
    }

    let dps = |t: &[f64]| -> Vec<f64> { t.iter().map(|s| grid_devices as f64 / s.max(1e-9)).collect() };
    let stream_dps = dps(&times[0]);
    let ref_dps = dps(&times[1]);
    let ratios: Vec<f64> =
        stream_dps.iter().zip(&ref_dps).map(|(s, r)| s / r.max(1e-9)).collect();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"fleet\",");
    let _ = writeln!(json, "  \"workload\": \"X8 loaded grid (placements x devices)\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let devices_json: Vec<String> = devices_list.iter().map(usize::to_string).collect();
    let _ = writeln!(json, "  \"devices\": [{}],", devices_json.join(", "));
    let _ = writeln!(json, "  \"grid_devices\": {grid_devices},");
    let _ = writeln!(json, "  \"modes\": [");
    for (i, name) in modes.iter().enumerate() {
        let t = &times[i];
        let d = dps(t);
        let samples: Vec<String> = t.iter().map(|v| format!("{v:.3}")).collect();
        let peak_mib: Vec<String> = peaks[i]
            .iter()
            .map(|b| format!("{:.2}", *b as f64 / (1024.0 * 1024.0)))
            .collect();
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"times_s\": [{}], \"devices_per_s\": [{}], \
             \"best_devices_per_s\": {:.2}, \"median_devices_per_s\": {:.2}, \
             \"peak_mib\": [{}], \"max_peak_mib\": {:.2}}}{}",
            samples.join(", "),
            d.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>().join(", "),
            max(&d),
            median(&d),
            peak_mib.join(", "),
            max(&peaks[i].iter().map(|b| *b as f64 / (1024.0 * 1024.0)).collect::<Vec<_>>()),
            if i + 1 < modes.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"ratio_stream_over_ref\": {{\"best\": {:.3}, \"median\": {:.3}}}",
        max(&ratios),
        median(&ratios)
    );
    json.push_str("}\n");

    eprintln!(
        "fleet: stream {:.2} dev/s vs reference {:.2} dev/s (median), ratio {:.3}",
        median(&stream_dps),
        median(&ref_dps),
        median(&ratios)
    );
    print!("{json}");
}
