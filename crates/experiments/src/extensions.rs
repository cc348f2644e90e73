//! Extension experiments beyond the paper's figures.
//!
//! The one-table extensions (`tails`, `wear`, `ablations`, `faults`,
//! `qdepth` X5 and `load` X6) are `grid` scenarios, data under
//! `scenarios/`; this module keeps what their compiler borrows (the
//! service-rate calibration, the pressured device, the burst shape), the
//! point runner and report of the `why` scenario kind, and `fleet`, the
//! one extension that is still a code [`Plan`] for
//! [`sweep::run`](crate::sweep::run):
//!
//! * [`why`] — X7: per-request tail forensics across policy x depth x
//!   offered load, the builtin `scenarios/why.toml`.
//! * [`fleet`] — X8: a multi-device fleet under a blended three-tenant
//!   mix, per-tenant p50/p99/p999 and a noisy-neighbor delta per
//!   placement x device-count grid point (see `reqblock_sim::fleet`),
//!   plus the X8b scaling sweep, all in one task.

use crate::figures::Opts;
use crate::report::{f2, f3, pct, Table};
use crate::scenario::{plan_builtin, Point, Scenario};
use crate::sweep::{Outcome, Plan};
use reqblock_core::ReqBlockConfig;
use reqblock_obs::telemetry::to_jsonl;
use reqblock_obs::{MemoryRecorder, NoopRecorder, TraceBuilder};
use reqblock_sim::{
    replay, ArrivalProcess, AttrAcc, AttrConfig, CacheSizeMb, Component, FleetConfig,
    FleetControl, IntervalLog, Metrics, NoisyNeighbor, Placement, PolicyKind, SimConfig, Ssd,
    SubmitMode, Task, TenantMix, TenantSpec,
};
use reqblock_trace::profiles::profile_by_name;
use reqblock_trace::{Request, SyntheticTrace, WorkloadProfile};
use std::sync::OnceLock;

/// The device's back-to-back per-request service gap for one request mix:
/// one serial probe replays the mix with every arrival at t=0 against an
/// LRU paper device — pure service demand, no idle gaps — and the slowest
/// request's completion divided by the request count is the calibrated
/// gap. The open-loop sweeps (X7, X8 and the scenario planner's `arrival`
/// axis behind X6) anchor their offered rates on it because the traces'
/// own timestamps are far too sparse to stress the device. Runs at plan
/// time on one thread, so the grids stay thread-count invariant. The mix
/// streams through once: a caller that replays it next passes the shared
/// slice, and one that does not passes the generator, so the probe pins
/// no trace in the shared cache.
pub(crate) fn calibrated_service_gap_ns(requests: impl IntoIterator<Item = Request>) -> u64 {
    let probe = requests.into_iter().map(|r| Request { time_ns: 0, ..r });
    let cal = replay(
        &SimConfig::paper(CacheSizeMb::Mb32, PolicyKind::Lru),
        probe,
        &mut NoopRecorder,
    );
    (cal.metrics.max_response_ns / cal.metrics.requests.max(1)).max(1)
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

/// X7 extension: per-request tail forensics, the builtin `why` scenario
/// (`scenarios/why.toml`). For each of the {LRU, Req-block} x queue depth
/// {1, 8} x offered load {0.5x, 2x, 8x} points (of the calibrated service
/// rate), replay the `ts_0` mix ([`Opts::source_for`]: the trace file when
/// one is given) open-loop with attribution enabled, attribute
/// p50/p99/p99.9 response time to named components and name the dominant
/// tail cause. Renders section `why`, one Perfetto-loadable
/// `<stem>.trace.json` file per point and shard set `why_telemetry`.
/// Planning runs the serial service-rate calibration; sampling is
/// deterministic in the run alone, so the outcome is thread-count
/// invariant.
pub fn why(opts: &Opts) -> Box<dyn Plan> {
    plan_builtin("why", opts)
}

/// What the `why` runner keeps of one point's run.
pub(crate) struct WhyRun {
    /// Plain run metrics (response percentiles).
    metrics: Metrics,
    /// Attribution accumulator: component totals, histograms, sampled
    /// spans.
    attr: AttrAcc,
    /// Chip/channel busy intervals captured for the trace export.
    intervals: Option<IntervalLog>,
    /// Telemetry JSONL document of the recorded run (one shard for the
    /// rotating writer).
    telemetry: String,
}

/// A `why` point's `(policy, depth, load multiplier)`, as its telemetry
/// meta, trace file stem and table row name it.
fn why_point(p: &Point) -> (&'static str, &str, &str) {
    let mult = p.cell("load").strip_suffix('x').expect("an arrival point's load cell");
    (p.cfg.policy.name(), p.cell("qdepth"), mult)
}

/// The `why` runner: a recorded replay of the point with attribution
/// enabled. The whole device stays around to the end — the attribution
/// accumulator and captured busy intervals live on the `Ssd`, not in a
/// `RunResult`.
pub(crate) fn why_run(_: &Opts, p: &Point) -> WhyRun {
    let mut rec = MemoryRecorder::default();
    let mut ssd = Ssd::new(p.cfg.clone().with_attribution(AttrConfig::default()));
    for req in p.requests().iter() {
        ssd.submit_recorded(req, &mut rec);
    }
    ssd.finish_recording(&mut rec);
    let (policy, depth, mult) = why_point(p);
    let label = format!("{policy}|{depth}|{mult}");
    let telemetry = to_jsonl(&rec, &[("experiment", "why".into()), ("point", label)]);
    WhyRun {
        metrics: ssd.metrics().clone(),
        attr: ssd.attribution().expect("attr configured").clone(),
        intervals: ssd.device().busy_intervals().cloned(),
        telemetry,
    }
}

/// The `why` report: the X7 table, one trace document per point (file
/// `why_<policy>_qd<depth>_<mult>x.trace.json`) and the shard set
/// `why_telemetry`, in grid order.
pub(crate) fn why_report(sc: &Scenario, _: &Opts, runs: Vec<(Point, WhyRun)>) -> Outcome {
    let files = runs
        .iter()
        .map(|(p, run)| {
            let (policy, depth, mult) = why_point(p);
            let policy = policy.to_lowercase().replace('-', "_");
            (format!("why_{policy}_qd{depth}_{mult}x.trace.json"), why_trace_json(run))
        })
        .collect();
    let table = why_table(&runs);
    let telemetry = runs.into_iter().map(|(_, run)| run.telemetry).collect();
    Outcome {
        files,
        shards: vec![("why_telemetry".into(), telemetry)],
        ..sc.section(vec![table])
    }
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

/// Render the X7 table from the analysed points (grid order).
fn why_table(runs: &[(Point, WhyRun)]) -> Table {
    let mut cols = vec!["Policy", "Depth", "Load", "p50 (ms)", "p99 (ms)", "p99.9 (ms)"];
    let names: Vec<String> = WHY_COLUMNS.iter().map(|c| format!("{} %", c.name())).collect();
    cols.extend(names.iter().map(String::as_str));
    cols.push("Tail cause");
    let mut t = Table::new(
        format!(
            "Extension - X7: tail forensics - response attribution by component \
             ({} mix, open loop, 32MB)",
            runs[0].0.cell("trace")
        ),
        &cols,
    );
    for (p, run) in runs {
        let (policy, depth, mult) = why_point(p);
        let total = run.attr.total_response_ns().max(1) as f64;
        let mut row = vec![
            policy.to_string(),
            depth.to_string(),
            format!("{mult}x"),
            f3(run.metrics.response_percentile_ms(0.50)),
            f3(run.metrics.response_percentile_ms(0.99)),
            f3(run.metrics.response_percentile_ms(0.999)),
        ];
        for c in WHY_COLUMNS {
            row.push(pct(run.attr.total_ns(c) as f64 / total));
        }
        row.push(run.attr.dominant_tail_component().name().to_string());
        t.push_row(row);
    }
    t
}

/// Render one point's sampled request lifecycles and chip/channel busy
/// intervals as a Chrome `trace_event` JSON document (open it in Perfetto
/// or `about:tracing`). Track layout: pid 1 one track per sampled request
/// with its components laid out back-to-back from arrival; pid 2 chips;
/// pid 3 channel buses (GC-issued operations categorised `"gc"`).
fn why_trace_json(point: &WhyRun) -> String {
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

/// The X8 tenants in mix order: name, the paper trace its requests are
/// synthesized from, its offered rate as a fraction of the *fleet's*
/// aggregate calibrated service rate (`devices / service_gap`), and its
/// arrival seed. Two read-leaning victims, `web` (hm_1-like) and `usr`
/// (usr_0-like), at 0.2x each, plus the write-heavy antagonist `batch`
/// (proj_0-like, bursty arrivals) at 0.4x. Total offered load is 0.8x of
/// fleet capacity at every grid point, so tables are comparable across
/// device counts — per-device load stays constant as the fleet grows.
pub const FLEET_TENANTS: [(&str, &str, f64, u64); 3] = [
    ("web", "hm_1", 0.2, 0xF1EE_7E01),
    ("usr", "usr_0", 0.2, 0xF1EE_7E02),
    ("batch", "proj_0", 0.4, 0xF1EE_7E03),
];

/// The trace whose request mix [`fleet_service_gap_ns`] calibrates the
/// tenant rates on.
pub const FLEET_CALIBRATION_TRACE: &str = "ts_0";

/// Every trace behind X8 — the [`FLEET_TENANTS`]' traces, then
/// [`FLEET_CALIBRATION_TRACE`] — each at the harness scale, in the shape
/// of [`Scenario::trace_scales`]: what `repro fleet` checks before it
/// plans.
pub fn fleet_trace_scales() -> Vec<(String, f64)> {
    let tenants = FLEET_TENANTS.iter().map(|&(_, trace, _, _)| trace);
    tenants.chain([FLEET_CALIBRATION_TRACE]).map(|trace| (trace.to_string(), 1.0)).collect()
}

/// Index of the antagonist tenant in [`FLEET_TENANTS`]: the write-heavy
/// bursty `batch` tenant whose flush bursts interfere with the victims'
/// read tails.
pub const FLEET_ANTAGONIST: usize = 2;

/// Burst shape of the antagonist's arrivals: bursts of 64 requests at 8x
/// the long-run rate (same shape as [`LOAD_BURST`]).
pub const FLEET_BURST: (u32, u32) = (64, 8);

/// The X8 tenant mix ([`FLEET_TENANTS`]) for a fleet of `devices` drives.
/// Arrival rates are fractions of the fleet's aggregate service rate, so
/// the mix depends on the device count but every tenant's seed is fixed —
/// the same tenant replays byte-identical request mixes at every grid
/// point with the same device count. The antagonist's arrivals are bursty
/// ([`FLEET_BURST`]), the victims' Poisson.
pub fn fleet_mix(opts: &Opts, service_gap_ns: u64, devices: usize) -> TenantMix {
    let (burst_len, peak_to_mean) = FLEET_BURST;
    let tenants = FLEET_TENANTS.iter().enumerate().map(|(i, &(name, trace, load, seed))| {
        let mean_interarrival_ns =
            ((service_gap_ns as f64 / (load * devices as f64)) as u64).max(1);
        TenantSpec {
            name: name.into(),
            profile: profile_by_name(trace).expect("a paper trace").scaled(opts.scale),
            process: if i == FLEET_ANTAGONIST {
                ArrivalProcess::Bursty { mean_interarrival_ns, burst_len, peak_to_mean }
            } else {
                ArrivalProcess::Poisson { mean_interarrival_ns }
            },
            seed,
        }
    });
    TenantMix::new(tenants.collect())
}

/// The X8 calibration probe: one serial plan-time replay of the
/// [`FLEET_CALIBRATION_TRACE`] mix back-to-back against an LRU paper
/// device, yielding the per-request service gap tenant rates are scaled
/// from. No fleet replays that trace, so the probe streams it from the
/// generator instead of caching it. Public so the fleet bench binary
/// reproduces the exact `repro fleet` grid.
pub fn fleet_service_gap_ns(opts: &Opts) -> u64 {
    let profile = profile_by_name(FLEET_CALIBRATION_TRACE).expect("a paper trace");
    calibrated_service_gap_ns(SyntheticTrace::new(profile.scaled(opts.scale)))
}

/// The uniform per-device configuration of the X8/X8b fleets: Req-block,
/// 32 MB, queue depth 8.
pub fn fleet_device_config() -> SimConfig {
    SimConfig::paper(CacheSizeMb::Mb32, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
        .with_submit(SubmitMode::Queued { depth: 8 })
}

/// One analysed X8 grid point: the with/without-antagonist run pair.
struct FleetPoint {
    /// Placement map of this point.
    placement: Placement,
    /// Devices in the fleet.
    devices: usize,
    /// The noisy-neighbor run pair (loaded + solo aggregates).
    nn: NoisyNeighbor,
    /// Offered rate per tenant (requests/s), mix order.
    offered_per_s: Vec<f64>,
    /// Per-device telemetry JSONL documents (headline point only).
    telemetry: Vec<String>,
}

/// X8 extension over `devices` (the [`FLEET_DEVICES`] default, or `repro
/// fleet --devices N1,N2,...`), plus the X8b scaling sweep over the same
/// device counts with `alloc` sampling peak memory. One task: X8b times
/// its runs alone, and each fleet run keeps its own pool of
/// `opts.threads` device workers. Renders section `fleet` (the X8 and X8b
/// tables) and shard set `fleet_telemetry`; prints the grid's fleet
/// throughput to stderr.
pub fn fleet<'o>(opts: &'o Opts, devices: &[usize], alloc: Option<AllocProbe>) -> impl Plan + 'o {
    FleetPlan { opts, devices: devices.to_vec(), alloc, outcome: OnceLock::new() }
}

/// The X8/X8b plan: one task fills the one outcome slot.
struct FleetPlan<'o> {
    opts: &'o Opts,
    devices: Vec<usize>,
    alloc: Option<AllocProbe>,
    outcome: OnceLock<Outcome>,
}

impl Plan for FleetPlan<'_> {
    fn tasks(&self) -> Vec<Task<'_>> {
        vec![Task::new("fleet", || {
            let ok = self.outcome.set(fleet_outcome(self.opts, &self.devices, self.alloc)).is_ok();
            debug_assert!(ok, "fleet slot filled twice");
        })]
    }

    fn finish(self: Box<Self>) -> Outcome {
        self.outcome.into_inner().expect("the fleet task must have run")
    }
}

fn fleet_outcome(opts: &Opts, devices: &[usize], alloc: Option<AllocProbe>) -> Outcome {
    let started = std::time::Instant::now();
    let service_gap_ns = fleet_service_gap_ns(opts);
    let points = fleet_points(opts, service_gap_ns, devices);
    // Each point runs the loaded and the antagonist-withheld fleet.
    let simulated: usize = points.iter().map(|p| p.devices * 2).sum();
    let elapsed_s = started.elapsed().as_secs_f64();
    eprintln!(
        "[fleet throughput: {simulated} devices in {elapsed_s:.2}s - {:.1} devices/s]",
        simulated as f64 / elapsed_s.max(1e-9)
    );
    let tables = vec![fleet_build(&points), fleet_scaling(opts, service_gap_ns, devices, alloc)];
    let telemetry = points.into_iter().flat_map(|p| p.telemetry).collect();
    Outcome {
        sections: vec![("fleet".into(), tables)],
        shards: vec![("fleet_telemetry".into(), telemetry)],
        ..Outcome::default()
    }
}

/// Run the X8 grid: [`fleet_placements`] x `devices_list`, each point a
/// noisy-neighbor pair over [`fleet_mix`] on uniform paper devices
/// (Req-block, 32 MB, queue depth 8 — eviction flushes retire in the
/// background like the X6/X7 runs, which is what lets one tenant's flush
/// bursts queue behind another tenant's reads).
///
/// Calibration follows the X6 pattern: `service_gap_ns` is the device's
/// back-to-back service gap on the ts_0 mix ([`fleet_service_gap_ns`],
/// probed once per plan), and tenant rates are [`FLEET_TENANTS`]
/// fractions of the fleet's aggregate service rate.
/// Each fleet run parallelizes over devices on its own pool; grid points
/// run in sequence. Every stage is deterministic, so the table is
/// byte-identical at any `--threads` value.
///
/// Per-device telemetry is captured for the headline point only — the
/// first placement at the smallest device count — to bound output size;
/// each document carries `device`/`devices`/`placement` meta tags.
fn fleet_points(opts: &Opts, service_gap_ns: u64, devices_list: &[usize]) -> Vec<FleetPoint> {
    assert!(!devices_list.is_empty(), "fleet sweep needs at least one device count");
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
fn fleet_build(points: &[FleetPoint]) -> Table {
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

/// Peak-allocation probe the `repro` binary passes into [`fleet`]:
/// `(reset_peak, peak_bytes)` over its `#[global_allocator]`
/// [`reqblock_obs::CountingAlloc`]. Plain function pointers, so this
/// library needs no view of the binary's static.
pub type AllocProbe = (fn(), fn() -> usize);

/// X8b: the streaming-engine scaling sweep. One *loaded* fleet run per
/// device count (striped placement, no solo pair, no telemetry) isolates
/// how simulation throughput and peak memory scale with the grid — the
/// zero-materialization claim: the request streams are merged lazily per
/// device, so peak allocation (`-` without a `probe`) grows with the
/// device count (pooled simulators + outcome slots), not with devices x
/// total requests.
fn fleet_scaling(
    opts: &Opts,
    service_gap_ns: u64,
    devices_list: &[usize],
    probe: Option<AllocProbe>,
) -> Table {
    let device = fleet_device_config();
    let ctl = FleetControl::threads(opts.threads);
    let mut t = Table::new(
        "Extension - X8b: streaming fleet scaling (striped, loaded mix, qd8, 32MB)",
        &["Devices", "Requests", "Wall (s)", "Devices/s", "Req/s (M)", "Peak alloc (MiB)"],
    );
    for &devices in devices_list {
        let mix = fleet_mix(opts, service_gap_ns, devices);
        let mut cfg = FleetConfig::uniform(devices, device.clone());
        cfg.placement = Placement::Striped;
        cfg.telemetry = false;
        if let Some((reset_peak, _)) = probe {
            reset_peak();
        }
        let started = std::time::Instant::now();
        let requests = reqblock_sim::run_fleet(&cfg, &mix, &ctl).metrics.fleet.count();
        let elapsed_s = started.elapsed().as_secs_f64();
        let peak_bytes = probe.map(|(_, peak_bytes)| peak_bytes());
        let wall = elapsed_s.max(1e-9);
        t.push_row(vec![
            devices.to_string(),
            requests.to_string(),
            f2(elapsed_s),
            f2(devices as f64 / wall),
            f2(requests as f64 / wall / 1e6),
            peak_bytes.map(|b| f2(b as f64 / (1024.0 * 1024.0))).unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{self, AxisValues};
    use crate::sweep::run_one;
    use reqblock_sim::TraceSource;
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
    fn streamed_and_cached_calibration_agree() {
        let opts = tiny_opts();
        let profile = reqblock_trace::profiles::ts_0().scaled(opts.scale);
        let cached = TraceSource::Synthetic(profile.clone()).requests().unwrap();
        let gap = calibrated_service_gap_ns(cached.iter().copied());
        assert_eq!(calibrated_service_gap_ns(SyntheticTrace::new(profile)), gap);
        assert_eq!(fleet_service_gap_ns(&opts), gap);
    }

    #[test]
    fn why_covers_grid_and_attributes_the_tail() {
        let opts = tiny_opts();
        let outcome = run_one(why(&opts), 2);
        let grid = 2 * 2 * 3; // policy x queue depth x offered load
        // Every trace document is a loadable trace_event JSON with slices.
        assert_eq!(outcome.files.len(), grid);
        for (name, json) in &outcome.files {
            assert!(name.starts_with("why_") && name.ends_with(".trace.json"), "file {name}");
            assert!(json.starts_with("{\"traceEvents\":["), "{name} not a trace doc");
            assert!(json.contains("\"ph\":\"X\""), "{name} has no slices");
            assert!(json.contains("\"ph\":\"M\""), "{name} has no track names");
        }
        // Telemetry shards carry the attribution rollup keys.
        let [(stem, telemetry)] = &outcome.shards[..] else { panic!("one shard set") };
        assert_eq!(stem, "why_telemetry");
        assert_eq!(telemetry.len(), grid);
        for doc in telemetry {
            assert!(doc.contains("attr_sampled_spans"), "shard missing attr rollup");
        }
        let t = outcome.into_single_table();
        assert_eq!(t.rows.len(), grid);
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
    }

    #[test]
    fn fleet_covers_grid_with_tenant_and_fleet_rows() {
        let opts = tiny_opts();
        let outcome = run_one(Box::new(fleet(&opts, &FLEET_DEVICES, None)), 2);
        let [(stem, telemetry)] = &outcome.shards[..] else { panic!("one shard set") };
        assert_eq!(stem, "fleet_telemetry");
        // Telemetry comes from the headline point only: one document per
        // device of the smallest fleet.
        assert_eq!(telemetry.len(), FLEET_DEVICES[0]);
        for doc in telemetry {
            assert!(doc.contains("\"experiment\":\"fleet\""), "doc missing meta tag");
        }
        let [(name, tables)] = &outcome.sections[..] else { panic!("one section") };
        assert_eq!(name, "fleet");
        let [table, scaling] = &tables[..] else { panic!("the X8 and X8b tables") };
        // One X8b row per device count, no peak without an allocator probe.
        assert_eq!(scaling.rows.len(), FLEET_DEVICES.len());
        assert!(scaling.rows.iter().all(|row| row[5] == "-"));
        let points = fleet_placements().len() * FLEET_DEVICES.len();
        // One row per tenant plus the fleet row, per grid point.
        assert_eq!(table.rows.len(), points * 4);
        for row in &table.rows {
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
        let x8 = |threads| {
            let opts = Opts { threads, ..tiny_opts() };
            let mut outcome = run_one(Box::new(fleet(&opts, &FLEET_DEVICES, None)), threads);
            let (_, mut tables) = outcome.sections.remove(0);
            (tables.remove(0), outcome.shards)
        };
        let (serial, serial_telemetry) = x8(1);
        let (parallel, parallel_telemetry) = x8(3);
        assert_eq!(serial, parallel);
        assert_eq!(serial_telemetry, parallel_telemetry, "device telemetry must be deterministic");
    }

    #[test]
    fn why_is_thread_invariant() {
        let outcome = |threads| {
            let opts = Opts { threads, ..tiny_opts() };
            run_one(why(&opts), threads)
        };
        assert_eq!(outcome(1), outcome(3), "why must be byte-identical at any thread count");
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
