//! Extension experiments beyond the paper's figures.
//!
//! The one-table extensions (`tails`, `wear`, `ablations`, `faults`,
//! `qdepth` X5 and `load` X6) are `grid` scenarios, data under
//! `scenarios/`; this module keeps what their compiler borrows (the
//! service-rate calibration, the pressured device, the burst shape) and
//! the two experiments that are still code:
//!
//! * [`why`] — X7: per-request tail forensics across policy x depth x
//!   offered load.
//! * [`fleet`] — X8: a multi-device fleet under a blended three-tenant
//!   mix, per-tenant p50/p99/p999 and a noisy-neighbor delta per
//!   placement x device-count grid point (see `reqblock_sim::fleet`).

use crate::figures::Opts;
use crate::report::{f2, f3, pct, Table};
use reqblock_core::ReqBlockConfig;
use reqblock_obs::telemetry::to_jsonl;
use reqblock_obs::{MemoryRecorder, NoopRecorder, TraceBuilder};
use reqblock_sim::{
    replay, run_task_pool, ArrivalProcess, AttrAcc, AttrConfig, CacheSizeMb, Component, FleetConfig,
    FleetControl, IntervalLog, Metrics, NoisyNeighbor, Placement, PolicyKind,
    SimConfig, Ssd, SubmitMode, Task, TenantMix, TenantSpec, TraceSource,
};
use reqblock_trace::WorkloadProfile;

/// The device's back-to-back per-request service gap for one request mix:
/// one serial probe replays the mix with every arrival at t=0 against an
/// LRU paper device — pure service demand, no idle gaps — and the slowest
/// request's completion divided by the request count is the calibrated
/// gap. The open-loop sweeps (X7, X8 and the scenario planner's `arrival`
/// axis behind X6) anchor their offered rates on it because the traces'
/// own timestamps are far too sparse to stress the device. Runs at plan
/// time on one thread, so the grids stay thread-count invariant.
pub(crate) fn calibrated_service_gap_ns(base: &TraceSource) -> u64 {
    let requests = base.requests().unwrap_or_else(|e| panic!("cannot load trace: {e}"));
    let probe = requests.iter().map(|r| reqblock_trace::Request { time_ns: 0, ..*r });
    let cal = replay(
        &SimConfig::paper(CacheSizeMb::Mb32, PolicyKind::Lru),
        probe,
        &mut NoopRecorder,
    );
    (cal.metrics.max_response_ns / (requests.len() as u64).max(1)).max(1)
}

/// A deliberately tight flash array for one workload (~115% of the write
/// footprint, like the pressured golden run): a two-chip device sized so
/// the append stream cycles the free-block pool and GC erases fire, which
/// is what lets the fault sweep exercise erase faults and block
/// retirement alongside program faults.
pub(crate) fn pressured_ssd(profile: &WorkloadProfile) -> reqblock_flash::SsdConfig {
    let mut ssd = reqblock_flash::SsdConfig::paper();
    ssd.channels = 2;
    ssd.chips_per_channel = 1;
    let block_pages = ssd.total_chips() as u64 * ssd.pages_per_block as u64;
    let footprint = profile.streaming_pages + profile.cold_read_extra_pages;
    let want_pages = (footprint as f64 * 1.15) as u64;
    ssd.capacity_bytes = want_pages.div_ceil(block_pages).max(8) * block_pages * ssd.page_size;
    ssd
}

/// Burst shape of the `arrival` axis's `bursty:<mult>` values (X6's
/// bursty rows): bursts of 64 requests arriving 8x faster than the
/// long-run rate, idle gaps in between (same offered rate).
pub const LOAD_BURST: (u32, u32) = (64, 8);

/// Host queue depths probed by [`why`] (X7).
pub const WHY_DEPTHS: [u32; 2] = [1, 8];

/// Offered-load multipliers probed by [`why`], relative to the calibrated
/// back-to-back service rate (same calibration as the `load` scenario): one
/// point comfortably below the knee, one past it, one deep in overload.
pub const WHY_LOADS: [f64; 3] = [0.5, 2.0, 8.0];

/// The two policies [`why`] contrasts: the baseline and the paper's
/// contribution.
pub fn why_policies() -> [PolicyKind; 2] {
    [PolicyKind::Lru, PolicyKind::ReqBlock(ReqBlockConfig::paper())]
}

/// One fully analysed tail-forensics grid point.
pub struct WhyPoint {
    /// `policy|depth|mult` label.
    pub label: String,
    /// Plain run metrics (response percentiles).
    pub metrics: Metrics,
    /// Attribution accumulator: component totals, histograms, sampled
    /// spans.
    pub attr: AttrAcc,
    /// Chip/channel busy intervals captured for the trace export.
    pub intervals: Option<IntervalLog>,
    /// Telemetry JSONL document of the recorded run (one shard for the
    /// rotating writer).
    pub telemetry: String,
}

/// Everything `repro why` produces: the per-point tail-attribution table
/// plus the Perfetto trace documents and telemetry shards to write out.
pub struct WhyReport {
    /// The X7 attribution table.
    pub table: Table,
    /// `(file stem, Chrome trace_event JSON)` per grid point, grid order.
    pub traces: Vec<(String, String)>,
    /// Telemetry JSONL documents, one per grid point, grid order.
    pub telemetry: Vec<String>,
}

/// Run the X7 grid: [`why_policies`] x [`WHY_DEPTHS`] x [`WHY_LOADS`],
/// replaying the `ts_0` mix ([`Opts::source_for`]: the trace file when
/// one is given) open-loop with attribution enabled. Unlike the
/// [`JobPool`](reqblock_sim::JobPool) grids this keeps the whole device
/// around per point — the attribution accumulator and captured busy
/// intervals live on the `Ssd`, not in the `RunResult` — so it drives
/// [`run_task_pool`] directly.
/// Sampling is deterministic in the run alone, so the grid is
/// thread-count invariant.
pub(crate) fn why_points(opts: &Opts) -> Vec<WhyPoint> {
    let base = opts.source_for(&reqblock_trace::profiles::ts_0().scaled(opts.scale));
    let service_gap_ns = calibrated_service_gap_ns(&base);
    let mut specs: Vec<(String, SimConfig, TraceSource)> = Vec::new();
    for policy in why_policies() {
        for &depth in &WHY_DEPTHS {
            for (i, mult) in WHY_LOADS.into_iter().enumerate() {
                let process = ArrivalProcess::Poisson {
                    mean_interarrival_ns: ((service_gap_ns as f64 / mult) as u64).max(1),
                };
                // Seeded per rate step like the X6 sweep: every policy and
                // depth sees byte-identical arrivals at the same load.
                let source = TraceSource::open_loop(base.clone(), process, 0x7A11_CA05 + i as u64);
                let cfg = SimConfig::paper(CacheSizeMb::Mb32, policy)
                    .with_submit(SubmitMode::Queued { depth })
                    .with_attribution(AttrConfig::default());
                specs.push((format!("{}|{depth}|{mult}", policy.name()), cfg, source));
            }
        }
    }
    let slots: Vec<std::sync::OnceLock<WhyPoint>> =
        (0..specs.len()).map(|_| std::sync::OnceLock::new()).collect();
    let tasks: Vec<Task<'_>> = specs
        .iter()
        .zip(&slots)
        .map(|((label, cfg, source), slot)| {
            Task::new(label.clone(), move || {
                let mut rec = MemoryRecorder::default();
                let mut ssd = Ssd::new(cfg.clone());
                let requests =
                    source.requests().unwrap_or_else(|e| panic!("cannot load trace: {e}"));
                for req in requests.iter() {
                    ssd.submit_recorded(req, &mut rec);
                }
                ssd.finish_recording(&mut rec);
                let telemetry =
                    to_jsonl(&rec, &[("experiment", "why".into()), ("point", label.clone())]);
                let point = WhyPoint {
                    label: label.clone(),
                    metrics: ssd.metrics().clone(),
                    attr: ssd.attribution().expect("attr configured").clone(),
                    intervals: ssd.device().busy_intervals().cloned(),
                    telemetry,
                };
                let ok = slot.set(point).is_ok();
                debug_assert!(ok, "why slot filled twice");
            })
        })
        .collect();
    run_task_pool(tasks, opts.threads);
    slots.into_iter().map(|s| s.into_inner().expect("every point must finish")).collect()
}

/// Component columns of the X7 table, in display order.
/// [`Component::DispatchWait`] is omitted: the engine dispatches at
/// arrival under every submit mode, so it is structurally zero (see the
/// variant's docs).
const WHY_COLUMNS: [Component; 6] = [
    Component::CacheService,
    Component::FlushStall,
    Component::ReadQueueWait,
    Component::ReadService,
    Component::GcInterference,
    Component::ReadRetry,
];

/// Render the X7 table from analysed points (order of [`why_points`]).
pub(crate) fn why_build(points: &[WhyPoint]) -> Table {
    let mut cols = vec!["Policy", "Depth", "Load", "p50 (ms)", "p99 (ms)", "p99.9 (ms)"];
    let names: Vec<String> = WHY_COLUMNS.iter().map(|c| format!("{} %", c.name())).collect();
    cols.extend(names.iter().map(String::as_str));
    cols.push("Tail cause");
    let mut t = Table::new(
        "Extension - X7: tail forensics - response attribution by component (ts_0 mix, open loop, 32MB)",
        &cols,
    );
    for p in points {
        let mut parts = p.label.split('|');
        let policy = parts.next().expect("why label has policy");
        let depth = parts.next().expect("why label has depth");
        let mult = parts.next().expect("why label has multiplier");
        let total = p.attr.total_response_ns().max(1) as f64;
        let mut row = vec![
            policy.to_string(),
            depth.to_string(),
            format!("{mult}x"),
            f3(p.metrics.response_percentile_ms(0.50)),
            f3(p.metrics.response_percentile_ms(0.99)),
            f3(p.metrics.response_percentile_ms(0.999)),
        ];
        for c in WHY_COLUMNS {
            row.push(pct(p.attr.total_ns(c) as f64 / total));
        }
        row.push(p.attr.dominant_tail_component().name().to_string());
        t.push_row(row);
    }
    t
}

/// Render one point's sampled request lifecycles and chip/channel busy
/// intervals as a Chrome `trace_event` JSON document (open it in Perfetto
/// or `about:tracing`). Track layout: pid 1 one track per sampled request
/// with its components laid out back-to-back from arrival; pid 2 chips;
/// pid 3 channel buses (GC-issued operations categorised `"gc"`).
pub fn why_trace_json(point: &WhyPoint) -> String {
    let mut b = TraceBuilder::new();
    b.process_name(1, "sampled requests");
    for (i, span) in point.attr.sampled_spans().iter().enumerate() {
        let tid = i as u32;
        b.thread_name(1, tid, &format!("req {}", span.req_id));
        let mut at = span.start_ns;
        for c in Component::ALL {
            let d = span.parts[c.index()];
            if d > 0 {
                b.slice(1, tid, c.name(), "attr", at, d);
                at += d;
            }
        }
    }
    if let Some(log) = &point.intervals {
        b.process_name(2, "chips");
        for (chip, track) in log.chip.iter().enumerate() {
            if track.is_empty() {
                continue;
            }
            b.thread_name(2, chip as u32, &format!("chip {chip}"));
            for iv in track {
                let cat = if iv.gc { "gc" } else { "flash" };
                b.slice(2, chip as u32, iv.kind.name(), cat, iv.start_ns, iv.end_ns - iv.start_ns);
            }
        }
        b.process_name(3, "channels");
        for (ch, track) in log.channel.iter().enumerate() {
            if track.is_empty() {
                continue;
            }
            b.thread_name(3, ch as u32, &format!("channel {ch}"));
            for iv in track {
                let cat = if iv.gc { "gc" } else { "flash" };
                b.slice(3, ch as u32, iv.kind.name(), cat, iv.start_ns, iv.end_ns - iv.start_ns);
            }
        }
    }
    b.finish()
}

/// File stem for one point's trace document (`why_req_block_qd8_2x`).
fn why_stem(label: &str) -> String {
    let mut parts = label.split('|');
    let policy = parts.next().unwrap_or("unknown").to_lowercase().replace('-', "_");
    let depth = parts.next().unwrap_or("0");
    let mult = parts.next().unwrap_or("0");
    format!("why_{policy}_qd{depth}_{mult}x")
}

/// X7 extension: per-request tail forensics. For each policy x depth x
/// offered-load point, attribute p50/p99/p99.9 response time to named
/// components and name the dominant tail cause; also produce the Perfetto
/// trace documents and telemetry shards `repro why` writes to disk.
pub fn why(opts: &Opts) -> WhyReport {
    let points = why_points(opts);
    let table = why_build(&points);
    let traces =
        points.iter().map(|p| (why_stem(&p.label), why_trace_json(p))).collect();
    let telemetry = points.into_iter().map(|p| p.telemetry).collect();
    WhyReport { table, traces, telemetry }
}

/// Device counts swept by [`fleet`] (X8); `repro fleet --devices N1,N2,...`
/// overrides them.
pub const FLEET_DEVICES: [usize; 2] = [4, 16];

/// The two placement maps the X8 grid contrasts: full striping (every
/// tenant touches every device) vs packing into two-device groups (tenants
/// collide only when the groups wrap — with three tenants that pits the
/// antagonist against the first victim on a 4-device fleet and isolates
/// everyone on 16).
pub fn fleet_placements() -> [Placement; 2] {
    [Placement::Striped, Placement::Packed { devices_per_tenant: 2 }]
}

/// Index of the antagonist tenant in [`fleet_mix`]: the write-heavy
/// bursty `batch` tenant whose flush bursts interfere with the victims'
/// read tails.
pub const FLEET_ANTAGONIST: usize = 2;

/// Per-tenant offered-rate multipliers, as fractions of the *fleet's*
/// aggregate calibrated service rate (`devices / service_gap`): two
/// read-leaning victims at 0.2x each plus the bursty antagonist at 0.4x.
/// Total offered load is 0.8x of fleet capacity at every grid point, so
/// tables are comparable across device counts — per-device load stays
/// constant as the fleet grows.
pub const FLEET_TENANT_LOADS: [f64; 3] = [0.2, 0.2, 0.4];

/// Burst shape of the antagonist's arrivals: bursts of 64 requests at 8x
/// the long-run rate (same shape as [`LOAD_BURST`]).
pub const FLEET_BURST: (u32, u32) = (64, 8);

/// The X8 tenant mix for a fleet of `devices` drives: `web` (hm_1-like,
/// read-heavy victim), `usr` (usr_0-like victim), and `batch` (proj_0-like
/// write-heavy antagonist, bursty arrivals). Arrival rates are the
/// [`FLEET_TENANT_LOADS`] fractions of the fleet's aggregate service rate,
/// so the mix depends on the device count but every tenant's seed is
/// fixed — the same tenant replays byte-identical request mixes at every
/// grid point with the same device count.
pub fn fleet_mix(opts: &Opts, service_gap_ns: u64, devices: usize) -> TenantMix {
    let rate = |mult: f64| {
        ((service_gap_ns as f64 / (mult * devices as f64)) as u64).max(1)
    };
    let (burst_len, peak_to_mean) = FLEET_BURST;
    TenantMix::new(vec![
        TenantSpec {
            name: "web".into(),
            profile: reqblock_trace::profiles::hm_1().scaled(opts.scale),
            process: ArrivalProcess::Poisson {
                mean_interarrival_ns: rate(FLEET_TENANT_LOADS[0]),
            },
            seed: 0xF1EE_7E01,
        },
        TenantSpec {
            name: "usr".into(),
            profile: reqblock_trace::profiles::usr_0().scaled(opts.scale),
            process: ArrivalProcess::Poisson {
                mean_interarrival_ns: rate(FLEET_TENANT_LOADS[1]),
            },
            seed: 0xF1EE_7E02,
        },
        TenantSpec {
            name: "batch".into(),
            profile: reqblock_trace::profiles::proj_0().scaled(opts.scale),
            process: ArrivalProcess::Bursty {
                mean_interarrival_ns: rate(FLEET_TENANT_LOADS[2]),
                burst_len,
                peak_to_mean,
            },
            seed: 0xF1EE_7E03,
        },
    ])
}

/// The X8 calibration probe: one serial plan-time replay of the ts_0 mix
/// back-to-back against an LRU paper device, yielding the per-request
/// service gap tenant rates are scaled from. Public so the fleet bench
/// binary reproduces the exact `repro fleet` grid.
pub fn fleet_service_gap_ns(opts: &Opts) -> u64 {
    let probe_src = TraceSource::Synthetic(reqblock_trace::profiles::ts_0().scaled(opts.scale));
    calibrated_service_gap_ns(&probe_src)
}

/// The uniform per-device configuration of the X8/X8b fleets: Req-block,
/// 32 MB, queue depth 8.
pub fn fleet_device_config() -> SimConfig {
    SimConfig::paper(CacheSizeMb::Mb32, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
        .with_submit(SubmitMode::Queued { depth: 8 })
}

/// One analysed X8 grid point: the with/without-antagonist run pair.
pub struct FleetPoint {
    /// Placement map of this point.
    pub placement: Placement,
    /// Devices in the fleet.
    pub devices: usize,
    /// The noisy-neighbor run pair (loaded + solo aggregates).
    pub nn: NoisyNeighbor,
    /// Offered rate per tenant (requests/s), mix order.
    pub offered_per_s: Vec<f64>,
    /// Per-device telemetry JSONL documents (headline point only).
    pub telemetry: Vec<String>,
}

/// Everything `repro fleet` produces.
pub struct FleetReport {
    /// The X8 table: per-tenant and fleet-wide rows per grid point.
    pub table: Table,
    /// Per-device telemetry documents from the headline grid point, for
    /// the rotating shard writer.
    pub telemetry: Vec<String>,
    /// Devices simulated across the whole grid (both runs of every pair).
    pub devices_simulated: usize,
    /// Host wall-clock seconds for the whole grid (throughput reporting).
    pub elapsed_s: f64,
}

/// Run the X8 grid: [`fleet_placements`] x `devices_list`, each point a
/// noisy-neighbor pair over [`fleet_mix`] on uniform paper devices
/// (Req-block, 32 MB, queue depth 8 — eviction flushes retire in the
/// background like the X6/X7 runs, which is what lets one tenant's flush
/// bursts queue behind another tenant's reads).
///
/// Calibration follows the X6 pattern: one serial plan-time probe replays
/// the ts_0 mix back-to-back to find the device's service gap; tenant
/// rates are [`FLEET_TENANT_LOADS`] fractions of the fleet's aggregate
/// service rate. Each fleet run parallelizes over devices on the shared
/// pool; grid points run in sequence. Every stage is deterministic, so
/// the table is byte-identical at any `--threads` value.
///
/// Per-device telemetry is captured for the headline point only — the
/// first placement at the smallest device count — to bound output size;
/// each document carries `device`/`devices`/`placement` meta tags.
pub(crate) fn fleet_points(opts: &Opts, devices_list: &[usize]) -> Vec<FleetPoint> {
    assert!(!devices_list.is_empty(), "fleet sweep needs at least one device count");
    let service_gap_ns = fleet_service_gap_ns(opts);
    let device = fleet_device_config();
    let ctl = FleetControl::threads(opts.threads);
    let headline = (fleet_placements()[0], devices_list[0]);
    let mut points = Vec::new();
    for placement in fleet_placements() {
        for &devices in devices_list {
            let mix = fleet_mix(opts, service_gap_ns, devices);
            let offered_per_s =
                mix.tenants.iter().map(|t| t.process.offered_rate_per_s()).collect();
            let mut cfg = FleetConfig::uniform(devices, device.clone());
            cfg.placement = placement;
            cfg.telemetry = (placement, devices) == headline;
            let loaded = reqblock_sim::run_fleet(&cfg, &mix, &ctl);
            let mut solo_cfg = cfg.clone();
            solo_cfg.telemetry = false;
            let solo =
                reqblock_sim::run_fleet_excluding(&solo_cfg, &mix, Some(FLEET_ANTAGONIST), &ctl);
            let nn = NoisyNeighbor {
                loaded: loaded.metrics,
                solo: solo.metrics,
                antagonist: FLEET_ANTAGONIST,
            };
            points.push(FleetPoint {
                placement,
                devices,
                nn,
                offered_per_s,
                telemetry: loaded.telemetry,
            });
        }
    }
    points
}

/// Render the X8 table from analysed points (order of [`fleet_points`]):
/// one row per tenant plus a `(fleet)` row per grid point. The `p99 solo`
/// and `NN delta` columns compare against the same-seed run without the
/// antagonist ("-" for the antagonist itself); `Worst-dev p99` is reported
/// on the fleet row.
pub(crate) fn fleet_build(points: &[FleetPoint]) -> Table {
    let mut t = Table::new(
        "Extension - X8: fleet-scale multi-tenant QoS (web+usr vs bursty batch antagonist, qd8, 32MB)",
        &[
            "Placement",
            "Devices",
            "Tenant",
            "Offered (kreq/s)",
            "p50 (ms)",
            "p99 (ms)",
            "p99.9 (ms)",
            "p99 solo (ms)",
            "NN delta (ms)",
            "Worst-dev p99 (ms)",
        ],
    );
    let fmt_opt = |v: Option<f64>| v.map(f3).unwrap_or_else(|| "-".into());
    for p in points {
        let loaded = &p.nn.loaded;
        for (tenant, stats) in loaded.per_tenant.iter().enumerate() {
            let solo = if tenant == p.nn.antagonist {
                None
            } else {
                p.nn.solo.per_tenant[tenant].percentile_ms(0.99)
            };
            t.push_row(vec![
                p.placement.name().to_string(),
                p.devices.to_string(),
                stats.name.clone(),
                f2(p.offered_per_s[tenant] / 1e3),
                fmt_opt(stats.percentile_ms(0.50)),
                fmt_opt(stats.percentile_ms(0.99)),
                fmt_opt(stats.percentile_ms(0.999)),
                fmt_opt(solo),
                fmt_opt(p.nn.p99_delta_ms(tenant)),
                "-".into(),
            ]);
        }
        t.push_row(vec![
            p.placement.name().to_string(),
            p.devices.to_string(),
            "(fleet)".into(),
            f2(p.offered_per_s.iter().sum::<f64>() / 1e3),
            f3(loaded.fleet_percentile_ms(0.50)),
            f3(loaded.fleet_percentile_ms(0.99)),
            f3(loaded.fleet_percentile_ms(0.999)),
            "-".into(),
            "-".into(),
            f3(loaded.worst_device_p99_ms()),
        ]);
    }
    t
}

/// X8 extension over the default [`FLEET_DEVICES`] grid.
pub fn fleet(opts: &Opts) -> FleetReport {
    fleet_with_devices(opts, &FLEET_DEVICES)
}

/// [`fleet`] over a caller-chosen device-count list (`repro fleet
/// --devices 4,16,64`). The headline telemetry point follows the first
/// entry.
pub fn fleet_with_devices(opts: &Opts, devices_list: &[usize]) -> FleetReport {
    let started = std::time::Instant::now();
    let points = fleet_points(opts, devices_list);
    let table = fleet_build(&points);
    // Each point runs the loaded and the antagonist-withheld fleet.
    let devices_simulated = points.iter().map(|p| p.devices * 2).sum();
    let telemetry = points.into_iter().flat_map(|p| p.telemetry).collect();
    FleetReport { table, telemetry, devices_simulated, elapsed_s: started.elapsed().as_secs_f64() }
}

/// One X8b scaling row: one *loaded* streaming fleet run (striped
/// placement, no solo pair, no telemetry) at a device count.
pub struct FleetScalingRow {
    /// Devices in the fleet.
    pub devices: usize,
    /// Host requests simulated across the fleet.
    pub requests: u64,
    /// Wall-clock seconds for the run.
    pub elapsed_s: f64,
    /// Peak bytes allocated during the run; `None` without an instrumented
    /// allocator.
    pub peak_bytes: Option<usize>,
}

/// Peak-allocation probe the `repro` binary passes into [`fleet_scaling`]:
/// `(reset_peak, peak_bytes)` over its `#[global_allocator]`
/// [`reqblock_obs::CountingAlloc`]. Plain function pointers, so this
/// library needs no view of the binary's static.
pub type AllocProbe = (fn(), fn() -> usize);

/// X8b: the streaming-engine scaling sweep. One loaded fleet run per
/// device count isolates how simulation throughput and peak memory scale
/// with the grid — the zero-materialization claim: the request streams are
/// merged lazily per device, so peak allocation grows with the device
/// count (pooled simulators + outcome slots), not with
/// devices x total requests.
pub fn fleet_scaling(
    opts: &Opts,
    devices_list: &[usize],
    probe: Option<AllocProbe>,
) -> Vec<FleetScalingRow> {
    let service_gap_ns = fleet_service_gap_ns(opts);
    let device = fleet_device_config();
    let ctl = FleetControl::threads(opts.threads);
    devices_list
        .iter()
        .map(|&devices| {
            let mix = fleet_mix(opts, service_gap_ns, devices);
            let mut cfg = FleetConfig::uniform(devices, device.clone());
            cfg.placement = Placement::Striped;
            cfg.telemetry = false;
            if let Some((reset_peak, _)) = probe {
                reset_peak();
            }
            let started = std::time::Instant::now();
            let res = reqblock_sim::run_fleet(&cfg, &mix, &ctl);
            FleetScalingRow {
                devices,
                requests: res.metrics.fleet.count(),
                elapsed_s: started.elapsed().as_secs_f64(),
                peak_bytes: probe.map(|(_, peak_bytes)| peak_bytes()),
            }
        })
        .collect()
}

/// Render the X8b scaling table (one row per [`fleet_scaling`] run).
pub fn fleet_scaling_build(rows: &[FleetScalingRow]) -> Table {
    let mut t = Table::new(
        "Extension - X8b: streaming fleet scaling (striped, loaded mix, qd8, 32MB)",
        &["Devices", "Requests", "Wall (s)", "Devices/s", "Req/s (M)", "Peak alloc (MiB)"],
    );
    for r in rows {
        let wall = r.elapsed_s.max(1e-9);
        t.push_row(vec![
            r.devices.to_string(),
            r.requests.to_string(),
            f2(r.elapsed_s),
            f2(r.devices as f64 / wall),
            f2(r.requests as f64 / wall / 1e6),
            r.peak_bytes
                .map(|b| f2(b as f64 / (1024.0 * 1024.0)))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{self, AxisValues};
    use std::path::PathBuf;

    fn tiny_opts() -> Opts {
        Opts { scale: 0.001, threads: 2, out_dir: PathBuf::from("/tmp"), trace_dir: None }
    }

    /// The table of a builtin scenario, optionally with one axis replaced.
    fn builtin_table(name: &str, opts: &Opts, axis: Option<(&str, AxisValues)>) -> Table {
        let mut sc = scenario::builtin(name).unwrap();
        if let Some((axis, values)) = axis {
            sc.set_axis(axis, values).unwrap();
        }
        scenario::run(&sc, opts).unwrap().into_single_table()
    }

    #[test]
    fn tails_has_row_per_trace_policy() {
        let t = builtin_table("tails", &tiny_opts(), None);
        assert_eq!(t.rows.len(), 24); // 6 traces x 4 policies
        // p50 <= p99 <= max per row.
        for row in &t.rows {
            let p50: f64 = row[3].parse().unwrap();
            let p99: f64 = row[5].parse().unwrap();
            let max: f64 = row[6].parse().unwrap();
            assert!(p50 <= p99 + 1e-9 && p99 <= max + 1e-9, "{row:?}");
        }
    }

    #[test]
    fn wear_reports_four_policies() {
        let t = builtin_table("wear", &tiny_opts(), None);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let wa: f64 = row[5].parse().unwrap();
            assert!(wa >= 1.0);
        }
    }

    #[test]
    fn ablations_cover_all_variants() {
        let t = builtin_table("ablations", &tiny_opts(), None);
        assert_eq!(t.rows.len(), 7 * 2);
        assert_eq!(t.rows[1][..2], ["A1: no DRL split", "src1_2"]);
    }

    #[test]
    fn fault_sweep_zero_row_is_clean_and_faulty_rows_fault() {
        let t = builtin_table("faults", &tiny_opts(), None);
        assert_eq!(t.rows.len(), 4);
        let zero = &t.rows[0];
        assert_eq!(zero[0], "0");
        for cell in &zero[1..8] {
            assert_eq!(cell, "0", "zero-ppm control must report no faults: {zero:?}");
        }
        assert_eq!(zero[8], "Healthy");
        // The highest rate (1%) over thousands of flash ops must observe
        // at least one fault; the run is seeded, so this is deterministic.
        let hot = t.rows.last().unwrap();
        let total: u64 = hot[1..8].iter().map(|c| c.parse::<u64>().unwrap()).sum();
        assert!(total > 0, "1% fault rate never fired: {hot:?}");
    }

    #[test]
    fn fault_sweep_is_reproducible() {
        let a = builtin_table("faults", &tiny_opts(), None);
        let b = builtin_table("faults", &tiny_opts(), None);
        assert_eq!(a.rows, b.rows, "same seed + config must give identical tables");
    }

    #[test]
    fn qdepth_sweep_accepts_custom_depth_list() {
        let depths = AxisValues::Ints(vec![1, 3]);
        let t = builtin_table("qdepth", &tiny_opts(), Some(("qdepth", depths)));
        assert_eq!(t.rows.len(), 4 * 2);
        for policy in PolicyKind::paper_comparison() {
            for depth in ["1", "3"] {
                assert!(
                    t.rows.iter().any(|row| row[0] == policy.name() && row[1] == depth),
                    "missing row {}/qd{depth}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn load_sweep_covers_grid_and_latency_rises_with_load() {
        let t = builtin_table("load", &tiny_opts(), None);
        // Per policy: every Poisson step plus one bursty row.
        let steps = 6;
        assert_eq!(t.rows.len(), 4 * (steps + 1));
        for policy in PolicyKind::paper_comparison() {
            let rows: Vec<_> = t.rows.iter().filter(|r| r[0] == policy.name()).collect();
            assert_eq!(rows.len(), steps + 1, "{}", policy.name());
            // Open loop: driving the same mix 32x harder (0.5x -> 16x) must
            // not *improve* the mean response; past the knee it explodes.
            let lightest: f64 = rows.first().unwrap()[7].parse().unwrap();
            let heaviest: f64 = rows[steps - 1][7].parse().unwrap();
            assert!(
                heaviest >= lightest,
                "{}: mean at 16x load {heaviest} < mean at 0.5x {lightest}",
                policy.name()
            );
        }
    }

    #[test]
    fn load_sweep_accepts_custom_rate_list() {
        let rates = ["poisson:0.5", "poisson:4", "bursty:1"].map(String::from).to_vec();
        let t = builtin_table("load", &tiny_opts(), Some(("arrival", AxisValues::Strs(rates))));
        // Per policy: both Poisson steps plus the fixed bursty row.
        assert_eq!(t.rows.len(), 4 * 3);
        for policy in PolicyKind::paper_comparison() {
            for load in ["0.5x", "4x"] {
                assert!(
                    t.rows.iter().any(|row| row[0] == policy.name() && row[2] == load),
                    "missing row {}/{load}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn why_covers_grid_and_attributes_the_tail() {
        let report = why(&tiny_opts());
        let t = &report.table;
        let grid = why_policies().len() * WHY_DEPTHS.len() * WHY_LOADS.len();
        assert_eq!(t.rows.len(), grid);
        assert_eq!(report.traces.len(), grid);
        assert_eq!(report.telemetry.len(), grid);
        let component_names: Vec<&str> = Component::ALL.iter().map(|c| c.name()).collect();
        for row in &t.rows {
            // Component shares are percentages that sum to ~100.
            let total: f64 =
                row[6..12].iter().map(|c| c.trim_end_matches('%').parse::<f64>().unwrap()).sum();
            assert!((total - 100.0).abs() < 0.7, "shares must sum to ~100%: {row:?}");
            let cause = row.last().unwrap().as_str();
            assert!(component_names.contains(&cause), "unknown tail cause {cause}");
        }
        // Overload rows exist and their p99 dominates the light-load p99.
        let p99 = |policy: &str, depth: &str, load: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == policy && r[1] == depth && r[2] == load)
                .unwrap_or_else(|| panic!("missing row {policy}/{depth}/{load}"))[4]
                .parse()
                .unwrap()
        };
        assert!(p99("LRU", "1", "8x") >= p99("LRU", "1", "0.5x"));
        // Every trace document is a loadable trace_event JSON with slices.
        for (stem, json) in &report.traces {
            assert!(stem.starts_with("why_"), "stem {stem}");
            assert!(json.starts_with("{\"traceEvents\":["), "{stem} not a trace doc");
            assert!(json.contains("\"ph\":\"X\""), "{stem} has no slices");
            assert!(json.contains("\"ph\":\"M\""), "{stem} has no track names");
        }
        // Telemetry shards carry the attribution rollup keys.
        for doc in &report.telemetry {
            assert!(doc.contains("attr_sampled_spans"), "shard missing attr rollup");
        }
    }

    #[test]
    fn fleet_covers_grid_with_tenant_and_fleet_rows() {
        let report = fleet(&tiny_opts());
        let points = fleet_placements().len() * FLEET_DEVICES.len();
        // One row per tenant plus the fleet row, per grid point.
        assert_eq!(report.table.rows.len(), points * 4);
        // Telemetry comes from the headline point only: one document per
        // device of the smallest fleet.
        assert_eq!(report.telemetry.len(), FLEET_DEVICES[0]);
        for doc in &report.telemetry {
            assert!(doc.contains("\"experiment\":\"fleet\""), "doc missing meta tag");
        }
        assert_eq!(report.devices_simulated, 2 * (4 + 16) * 2);
        for row in &report.table.rows {
            match row[2].as_str() {
                // Victims always have a solo p99 and a delta.
                "web" | "usr" => {
                    assert_ne!(row[7], "-", "victim must have solo p99: {row:?}");
                    assert_ne!(row[8], "-", "victim must have NN delta: {row:?}");
                    assert_eq!(row[9], "-");
                }
                // The antagonist has no solo run; the fleet row carries the
                // worst-device tail.
                "batch" => {
                    assert_eq!(row[7], "-");
                    assert_eq!(row[8], "-");
                }
                "(fleet)" => {
                    let worst: f64 = row[9].parse().unwrap();
                    let p99: f64 = row[5].parse().unwrap();
                    assert!(worst >= p99 - 1e-9, "worst device cannot beat the blend: {row:?}");
                }
                other => panic!("unexpected tenant {other}"),
            }
        }
    }

    #[test]
    fn fleet_is_thread_invariant() {
        let serial = fleet(&Opts { threads: 1, ..tiny_opts() });
        let parallel = fleet(&Opts { threads: 3, ..tiny_opts() });
        assert_eq!(serial.table.rows, parallel.table.rows);
        assert_eq!(serial.telemetry, parallel.telemetry, "device telemetry must be deterministic");
    }

    #[test]
    fn why_is_thread_invariant() {
        let serial = why(&Opts { threads: 1, ..tiny_opts() });
        let parallel = why(&Opts { threads: 3, ..tiny_opts() });
        assert_eq!(serial.table.rows, parallel.table.rows);
        assert_eq!(serial.traces, parallel.traces, "trace export must be deterministic");
    }

    #[test]
    fn load_sweep_is_thread_invariant() {
        let serial = builtin_table("load", &Opts { threads: 1, ..tiny_opts() }, None);
        let parallel = builtin_table("load", &Opts { threads: 3, ..tiny_opts() }, None);
        assert_eq!(serial.rows, parallel.rows, "X6 must be byte-identical at any thread count");
    }

    #[test]
    fn qdepth_sweep_covers_grid_and_depth_one_is_synchronous() {
        let opts = tiny_opts();
        let t = builtin_table("qdepth", &opts, None);
        assert_eq!(t.rows.len(), 4 * 6);
        let profile = reqblock_trace::profiles::ts_0().scaled(opts.scale);
        for policy in PolicyKind::paper_comparison() {
            // The depth-1 row reports exactly what a synchronous run of the
            // same job reports.
            let cfg = SimConfig::paper(CacheSizeMb::Mb32, policy);
            let requests = TraceSource::Synthetic(profile.clone()).requests().unwrap();
            let sync = replay(&cfg, requests.iter().copied(), &mut NoopRecorder);
            let row = t
                .rows
                .iter()
                .find(|row| row[0] == policy.name() && row[1] == "1")
                .expect("depth-1 row");
            assert_eq!(row[2], f3(sync.metrics.avg_response_ms()), "{}", policy.name());
            assert_eq!(row[3], f3(sync.metrics.response_percentile_ms(0.99)), "{}", policy.name());
            assert_eq!(row[4], sync.metrics.flush_stalls.to_string(), "{}", policy.name());
            // The deepest window can only hide stall time, never add it.
            let stall_qd1: f64 = row[5].parse().unwrap();
            let deepest = t
                .rows
                .iter()
                .find(|row| row[0] == policy.name() && row[1] == "32")
                .expect("depth-32 row");
            let stall_qd32: f64 = deepest[5].parse().unwrap();
            assert!(
                stall_qd32 <= stall_qd1 + 1e-9,
                "{}: qd32 stall {stall_qd32} > qd1 stall {stall_qd1}",
                policy.name()
            );
        }
    }
}
