//! Measurement flows: the untraced end-to-end run and the traced per-layer
//! ledger, each with the correctness checks its outputs must pass.
//!
//! The host side is a closed loop with one caller: each `Ssd::submit`
//! returns before the next is issued. The simulated side is open-loop at
//! the trace's arrival times (the fleet's Poisson/bursty arrivals at 0.8x
//! calibrated capacity), and a simulated response counts from its arrival,
//! so the generator is never late.

use crate::layers::{
    replay_cache, replay_flushes, replay_ftl, replay_window, CacheCounts, Capture, Discard,
    WINDOW_DEPTH,
};
use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::workload::{fleet_setup, Workload, FLEET_THREADS};
use crate::{Metric, MetricDef, Report, ALLOC, END_TO_END, PER_LAYER};
use reqblock_flash::{FaultStats, FlashTimeline, OpCounters};
use reqblock_ftl::{Ftl, FtlStats};
use reqblock_sim::{
    device_stream, run_fleet, run_task_pool, DeviceSummary, FleetConfig, FleetControl,
    FleetMetrics, Metrics, SimConfig, Ssd, SubmitMode, Task, TenantMix,
};
use reqblock_trace::{shared, Request, SyntheticTrace, WorkloadProfile};
use std::time::Instant;

/// Set-up repeats per run; `setup_s` is their median.
pub const SETUP_RUNS: usize = 9;

/// Fewest timed repeats, or traced rounds, a run makes however short its
/// time budget.
pub const MIN_REPEATS: usize = 3;

/// Chunks each chunk-timed replay is cut into.
pub const CHUNKS_PER_PASS: usize = 2048;

/// Fewest chunk samples a traced run collects: a p99 needs ten beyond it.
const MIN_CHUNK_SAMPLES: usize = 100 * stats::MIN_BEYOND;

const MIB: f64 = 1024.0 * 1024.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed; 0 keeps every profile's calibrated seed.
    pub seed: u64,
    /// Host seconds of timed repeats (untraced) or traced rounds.
    pub seconds: f64,
    /// Workload size factor; 1.0 is the benchmark's size.
    pub scale: f64,
    /// Run the traced per-layer ledger instead of the end-to-end metrics.
    pub traced: bool,
}

/// Run one workload and report its metrics and checks.
pub fn run(opts: &Options) -> Report {
    let mut checks = Checks::default();
    let single = opts.workload.single(opts.seed, opts.scale);
    let (outcome, spans) = if opts.traced {
        let mut spans = Spans::new(opts.workload as u32, Instant::now());
        let outcome = match single {
            Some((profile, cfg)) => {
                traced_single(&profile, &cfg, opts.seconds, &mut spans, &mut checks)
            }
            None => traced_fleet(opts.scale, opts.seed, opts.seconds, &mut spans, &mut checks),
        };
        (outcome, Some(spans))
    } else {
        let outcome = match single {
            Some((profile, cfg)) => end_to_end_single(&profile, &cfg, opts.seconds, &mut checks),
            None => end_to_end_fleet(opts.scale, opts.seed, opts.seconds, &mut checks),
        };
        (outcome, None)
    };
    for m in &outcome.metrics {
        checks.expect(
            m.value.is_finite(),
            &format!("{} is a finite number", m.def.name),
        );
    }
    Report {
        failures: checks.0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics,
        spans,
    }
}

/// Correctness checks that failed, each named once.
#[derive(Debug, Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        if !ok && !self.0.iter().any(|w| w == what) {
            self.0.push(what.to_string());
        }
    }
}

/// Metrics plus the page operations the timed replays attempted and failed.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// Everything a replay must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Outputs {
    metrics: Metrics,
    flash: OpCounters,
    ftl: FtlStats,
    faults: FaultStats,
}

impl Outputs {
    fn of(ssd: &Ssd) -> Self {
        Outputs {
            metrics: ssd.metrics().clone(),
            flash: *ssd.flash_counters(),
            ftl: *ssd.ftl_stats(),
            faults: *ssd.fault_stats(),
        }
    }

    fn pages(&self) -> u64 {
        self.metrics.read_pages + self.metrics.write_pages
    }

    fn hits(&self) -> u64 {
        self.metrics.read_hits + self.metrics.write_hits
    }

    /// Page operations the device failed: uncorrectable reads and writes a
    /// degraded device rejected.
    fn failed_pages(&self) -> u64 {
        self.faults.read_uncorrectable + self.faults.rejected_write_pages
    }
}

/// Conservation laws every zero-fault, undrained replay obeys, whatever
/// the policy or timing.
fn check_conservation(o: &Outputs, requests: &[Request], checks: &mut Checks) {
    let m = &o.metrics;
    let pages: u64 = requests.iter().map(Request::page_count).sum();
    checks.expect(
        m.requests == requests.len() as u64,
        "every request completes",
    );
    checks.expect(o.pages() == pages, "every requested page is accessed once");
    checks.expect(
        o.flash.user_reads == m.read_pages - m.read_hits + m.pad_read_pages,
        "each read miss and padding read is one flash read",
    );
    checks.expect(
        o.flash.user_programs == m.evicted_pages,
        "each evicted page is programmed once",
    );
    checks.expect(
        o.flash.gc_programs == o.ftl.gc_migrated_pages,
        "each GC migration is one program",
    );
    checks.expect(
        o.flash.erases == o.ftl.gc_erased_blocks,
        "each GC erase is counted once",
    );
    checks.expect(
        o.failed_pages() == 0,
        "no page operation fails without fault injection",
    );
}

fn lookup(name: &str) -> MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .copied()
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        def: lookup(name),
        value,
        summary: None,
    }
}

/// A metric measured over repeats: the median, with its summary kept.
fn summarized(name: &str, samples: &[f64]) -> Metric {
    let summary = Summary::of(samples).expect("every measured metric has samples");
    Metric {
        def: lookup(name),
        value: summary.median,
        summary: Some(summary),
    }
}

fn median(samples: &[f64]) -> f64 {
    stats::median(samples).expect("every measured metric has samples")
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

fn replay(ssd: &mut Ssd, requests: &[Request]) {
    for r in requests {
        ssd.submit(r);
    }
}

/// Call `timed` (which returns host seconds) until `seconds` have passed
/// and at least [`MIN_REPEATS`] calls were made. Also returns the heap
/// peak, in MiB, of the first call.
fn repeat_for(seconds: f64, mut timed: impl FnMut() -> f64) -> (Vec<f64>, f64) {
    let start = Instant::now();
    ALLOC.reset_peak();
    let mut times = vec![timed()];
    let peak_mib = ALLOC.peak_bytes() as f64 / MIB;
    while times.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        times.push(timed());
    }
    (times, peak_mib)
}

/// The simulated-time metrics of one workload. The tail is the mean of the
/// slowest 1 % of responses rather than a percentile: simulated response
/// times take few distinct values (multiples of the flash latencies), so a
/// percentile sits on the same plateau for every seed and hides changes
/// that move the tail within it.
fn sim_metrics(
    responses: &[u64],
    hits: u64,
    pages: u64,
    user_programs: u64,
    gc_programs: u64,
) -> Vec<Metric> {
    let mut ms: Vec<f64> = responses.iter().map(|&ns| ns as f64 / 1e6).collect();
    let mean = ms.iter().sum::<f64>() / ms.len() as f64;
    ms.sort_by(|a, b| b.total_cmp(a));
    let slowest = &ms[..ms.len().div_ceil(100)];
    vec![
        metric("sim_resp_mean_ms", mean),
        metric(
            "sim_resp_slowest1pct_mean_ms",
            slowest.iter().sum::<f64>() / slowest.len() as f64,
        ),
        metric("sim_hit_ratio", ratio(hits as f64, pages as f64)),
        metric("sim_flash_writes", user_programs as f64),
        metric(
            "sim_write_amp",
            ratio((user_programs + gc_programs) as f64, user_programs as f64),
        ),
    ]
}

fn end_to_end_metrics(
    requests: u64,
    times: &[f64],
    setup: &[f64],
    peak_mib: f64,
    sim: Vec<Metric>,
) -> Vec<Metric> {
    let rates: Vec<f64> = times.iter().map(|t| requests as f64 / t).collect();
    let mut metrics = vec![
        summarized("req_per_s", &rates),
        summarized("setup_s", setup),
        metric("peak_alloc_mib", peak_mib),
    ];
    metrics.extend(sim);
    metrics
}

fn synthesize(profile: &WorkloadProfile) -> Vec<Request> {
    SyntheticTrace::new(profile.clone()).generate_all()
}

fn end_to_end_single(
    profile: &WorkloadProfile,
    cfg: &SimConfig,
    seconds: f64,
    checks: &mut Checks,
) -> Outcome {
    let mut setup = Vec::with_capacity(SETUP_RUNS);
    let mut requests = Vec::new();
    for _ in 0..SETUP_RUNS {
        drop(std::mem::take(&mut requests));
        let t = Instant::now();
        requests = synthesize(profile);
        let ssd = Ssd::new(cfg.clone());
        setup.push(t.elapsed().as_secs_f64());
        drop(ssd);
    }

    let mut ssd = Ssd::new(cfg.clone());
    let responses: Vec<u64> = requests.iter().map(|r| ssd.submit(r)).collect();
    let reference = Outputs::of(&ssd);
    drop(ssd);
    check_conservation(&reference, &requests, checks);
    let sim = sim_metrics(
        &responses,
        reference.hits(),
        reference.pages(),
        reference.flash.user_programs,
        reference.flash.gc_programs,
    );
    drop(responses);

    // One device, reset before each replay as the fleet's pool does: a new
    // device faults its mapping tables in during the replay, kernel work
    // that made replay times noisier and is set-up, not simulation.
    let mut device = None;
    let (times, peak_mib) = repeat_for(seconds, || {
        let ssd = device.get_or_insert_with(|| Ssd::new(cfg.clone()));
        ssd.reset(cfg.clone());
        let t = Instant::now();
        replay(ssd, &requests);
        let elapsed = t.elapsed().as_secs_f64();
        checks.expect(
            Outputs::of(ssd) == reference,
            "repeated replays reproduce Metrics, OpCounters and FtlStats",
        );
        elapsed
    });
    let runs = times.len() as u64;
    Outcome {
        metrics: end_to_end_metrics(requests.len() as u64, &times, &setup, peak_mib, sim),
        attempted: reference.pages() * runs,
        failed: reference.failed_pages() * runs,
    }
}

/// Fleet set-up: the calibration probe, the tenant mix, and synthesis of
/// every tenant's trace into the shared trace cache the fleet reads.
/// Returns the set-up and synthesis-only times.
fn fleet_setup_timed(scale: f64, seed: u64) -> (FleetConfig, TenantMix, f64, f64) {
    shared::clear();
    let t0 = Instant::now();
    let (cfg, mix) = fleet_setup(scale, seed);
    let t1 = Instant::now();
    for tenant in &mix.tenants {
        shared::synthetic(&tenant.profile);
    }
    let t2 = Instant::now();
    (cfg, mix, secs(t0, t2), secs(t1, t2))
}

fn device_requests(cfg: &FleetConfig, mix: &TenantMix, device: usize) -> Vec<Request> {
    device_stream(mix, cfg.placement, cfg.device_count(), device, None)
        .map(|(r, _)| r)
        .collect()
}

fn summary_of(o: &Outputs) -> DeviceSummary {
    DeviceSummary {
        requests: o.metrics.requests,
        p99_ns: o.metrics.response_hist.quantile_upper(0.99).unwrap_or(0),
    }
}

fn end_to_end_fleet(scale: f64, seed: u64, seconds: f64, checks: &mut Checks) -> Outcome {
    let mut setup = Vec::with_capacity(SETUP_RUNS);
    let mut fleet = None;
    for _ in 0..SETUP_RUNS {
        let (cfg, mix, setup_s, _) = fleet_setup_timed(scale, seed);
        setup.push(setup_s);
        fleet = Some((cfg, mix));
    }
    let (cfg, mix) = fleet.expect("SETUP_RUNS is positive");
    let ctl = FleetControl::threads(FLEET_THREADS);
    let reference = run_fleet(&cfg, &mix, &ctl).metrics;

    // Serial replay of every device on its public merged stream: the exact
    // response distribution and the counters the pooled run does not
    // expose, each device checked against the pooled run's summary.
    let mut responses = Vec::new();
    let (mut hits, mut pages, mut user_programs, mut gc_programs, mut failed_pages) =
        (0, 0, 0, 0, 0);
    for (d, dev_cfg) in cfg.devices.iter().enumerate() {
        let requests = device_requests(&cfg, &mix, d);
        let mut ssd = Ssd::new(dev_cfg.clone());
        responses.extend(requests.iter().map(|r| ssd.submit(r)));
        let o = Outputs::of(&ssd);
        check_conservation(&o, &requests, checks);
        checks.expect(
            summary_of(&o) == reference.per_device[d],
            "a serial device replay reproduces the pooled fleet's DeviceSummary",
        );
        hits += o.hits();
        pages += o.pages();
        user_programs += o.flash.user_programs;
        gc_programs += o.flash.gc_programs;
        failed_pages += o.failed_pages();
    }
    checks.expect(
        responses.iter().map(|&r| u128::from(r)).sum::<u128>() == reference.fleet.sum(),
        "serial device replays sum to the pooled fleet's response total",
    );
    let sim = sim_metrics(&responses, hits, pages, user_programs, gc_programs);
    drop(responses);

    let (times, peak_mib) = repeat_for(seconds, || {
        let t = Instant::now();
        let result = run_fleet(&cfg, &mix, &ctl);
        let elapsed = t.elapsed().as_secs_f64();
        checks.expect(
            result.metrics == reference,
            "repeated fleet runs reproduce FleetMetrics",
        );
        elapsed
    });
    let runs = times.len() as u64;
    Outcome {
        metrics: end_to_end_metrics(reference.fleet.count(), &times, &setup, peak_mib, sim),
        attempted: pages * runs,
        failed: failed_pages * runs,
    }
}

/// The full replay every layer replay is checked against.
struct Reference {
    out: Outputs,
    /// Flash chip busy time over the run's span, averaged over chips.
    chip_util: f64,
    /// Flash queueing delay per flash operation, us.
    wait_us_per_op: f64,
    /// The host window's high-water mark (queued devices only).
    window_max: usize,
    /// The device that ran it, which the ledger resets and reuses.
    ssd: Ssd,
}

fn reference_replay(cfg: &SimConfig, requests: &[Request], checks: &mut Checks) -> Reference {
    let mut ssd = Ssd::new(cfg.clone());
    replay(&mut ssd, requests);
    let out = Outputs::of(&ssd);
    check_conservation(&out, requests, checks);
    let dev = ssd.device();
    let busy = dev.busy();
    let last_arrival = requests.iter().map(|r| r.time_ns).max().unwrap_or(0);
    let span_ns = last_arrival.max(dev.completion_horizon_ns()) as f64;
    let chips = busy.chip_busy_ns.len() as f64;
    let f = &out.flash;
    let ops = f.user_reads + f.user_programs + f.gc_reads + f.gc_programs + f.erases;
    Reference {
        chip_util: ratio(busy.total_chip_busy_ns() as f64, chips * span_ns),
        wait_us_per_op: ratio(busy.wait_ns as f64 / 1e3, ops as f64),
        window_max: ssd.window().max_outstanding(),
        out,
        ssd,
    }
}

fn reset_ftl(cfg: &SimConfig, ftl: &mut Ftl, tl: &mut FlashTimeline) {
    assert!(
        ftl.try_reset(&cfg.ssd, cfg.fault.clone()),
        "the FTL was built for this geometry"
    );
    tl.reset(&cfg.ssd);
}

/// Host seconds of one pool run at the given thread count.
type PoolRun<'a> = dyn FnMut(usize, &mut Checks) -> f64 + 'a;

fn traced_single(
    profile: &WorkloadProfile,
    cfg: &SimConfig,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Outcome {
    let setup = spans.open("setup", None);
    let (mut synth, mut build) = (Vec::new(), Vec::new());
    let mut requests = Vec::new();
    for _ in 0..SETUP_RUNS {
        drop(std::mem::take(&mut requests));
        let t0 = Instant::now();
        requests = synthesize(profile);
        let t1 = Instant::now();
        let ssd = Ssd::new(cfg.clone());
        let t2 = Instant::now();
        drop(ssd);
        spans.record("setup.synth", t0, t1, Some(setup));
        spans.record("setup.build", t1, t2, Some(setup));
        synth.push(secs(t0, t1));
        build.push(secs(t1, t2));
    }
    spans.close(setup);
    let mut reference = reference_replay(cfg, &requests, checks);
    let expected = reference.out.clone();

    // The pool layer on a single-device workload: two independent replicas
    // of the replay as two pool tasks.
    let mut replicas: Vec<Ssd> = (0..2).map(|_| Ssd::new(cfg.clone())).collect();
    let mut pool = |threads: usize, checks: &mut Checks| {
        for ssd in &mut replicas {
            ssd.reset(cfg.clone());
        }
        let t = Instant::now();
        let tasks = replicas
            .iter_mut()
            .enumerate()
            .map(|(i, ssd)| {
                let requests = &requests;
                Task::new(format!("replica{i}"), move || replay(ssd, requests))
            })
            .collect();
        run_task_pool(tasks, threads);
        let elapsed = t.elapsed().as_secs_f64();
        for ssd in &replicas {
            checks.expect(
                Outputs::of(ssd) == expected,
                "pool replicas reproduce the reference outputs",
            );
        }
        elapsed
    };
    let mut metrics = vec![
        metric(
            "trace.synth_ns_per_req",
            median(&synth) * 1e9 / requests.len() as f64,
        ),
        metric("device.build_ms", median(&build) * 1e3),
    ];
    let ledger = ledger(
        cfg,
        &requests,
        &mut reference,
        seconds,
        spans,
        checks,
        &mut pool,
    );
    metrics.extend(ledger.metrics);
    Outcome {
        metrics,
        attempted: reference.out.pages() * ledger.replays,
        failed: reference.out.failed_pages() * ledger.replays,
    }
}

fn traced_fleet(
    scale: f64,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Outcome {
    let setup = spans.open("setup", None);
    let (mut synth, mut build) = (Vec::new(), Vec::new());
    let mut fleet = None;
    for _ in 0..SETUP_RUNS {
        let t0 = Instant::now();
        let (cfg, mix, _, synth_s) = fleet_setup_timed(scale, seed);
        let t1 = Instant::now();
        spans.record("setup.fleet", t0, t1, Some(setup));
        synth.push(synth_s);
        let ssd = Ssd::new(cfg.devices[0].clone());
        let t2 = Instant::now();
        drop(ssd);
        spans.record("setup.build", t1, t2, Some(setup));
        build.push(secs(t1, t2));
        fleet = Some((cfg, mix));
    }
    spans.close(setup);
    let (cfg, mix) = fleet.expect("SETUP_RUNS is positive");
    let tenant_requests: usize = mix
        .tenants
        .iter()
        .map(|t| shared::synthetic(&t.profile).len())
        .sum();

    let reference_fleet: FleetMetrics =
        run_fleet(&cfg, &mix, &FleetControl::threads(FLEET_THREADS)).metrics;
    // Device 0 stands in for the fleet in the layer rows: its merged input
    // is drained from the public stream and must replay to the pooled
    // run's summary for that device.
    let requests = device_requests(&cfg, &mix, 0);
    let mut reference = reference_replay(&cfg.devices[0], &requests, checks);
    checks.expect(
        summary_of(&reference.out) == reference_fleet.per_device[0],
        "device 0's replay reproduces the pooled fleet's DeviceSummary",
    );
    let mut pool = |threads: usize, checks: &mut Checks| {
        let t = Instant::now();
        let result = run_fleet(&cfg, &mix, &FleetControl::threads(threads));
        let elapsed = t.elapsed().as_secs_f64();
        checks.expect(
            result.metrics == reference_fleet,
            "FleetMetrics are identical at 1 and 2 threads",
        );
        elapsed
    };
    let mut metrics = vec![
        metric(
            "trace.synth_ns_per_req",
            median(&synth) * 1e9 / tenant_requests as f64,
        ),
        metric("device.build_ms", median(&build) * 1e3),
    ];
    let ledger = ledger(
        &cfg.devices[0],
        &requests,
        &mut reference,
        seconds,
        spans,
        checks,
        &mut pool,
    );
    metrics.extend(ledger.metrics);
    Outcome {
        metrics,
        attempted: reference.out.pages() * ledger.replays,
        failed: reference.out.failed_pages() * ledger.replays,
    }
}

/// Per-layer metrics plus the device replays they took.
struct Ledger {
    metrics: Vec<Metric>,
    replays: u64,
}

/// Capture each layer's input from the reference replay, check that the
/// isolated replays reproduce it, then time rounds of every pass until
/// `seconds` have passed. Devices, FTLs and timelines are reset between
/// passes rather than rebuilt, as in the end-to-end run, so no pass pays
/// for faulting fresh mapping tables in.
fn ledger(
    cfg: &SimConfig,
    requests: &[Request],
    reference: &mut Reference,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Checks,
    pool: &mut PoolRun<'_>,
) -> Ledger {
    let Reference {
        out,
        ssd,
        chip_util,
        wait_us_per_op,
        window_max,
    } = reference;
    let m = &out.metrics;
    let new_cache = || {
        cfg.policy
            .build_buffer(cfg.cache_pages, cfg.ssd.pages_per_block)
    };
    let (mut ftl, mut tl) = (
        Ftl::with_faults(&cfg.ssd, cfg.fault.clone()),
        FlashTimeline::new(&cfg.ssd),
    );

    let capture_span = spans.open("capture", None);
    let mut cap = Capture::default();
    let cache_counts = replay_cache(&mut new_cache(), requests, &mut cap);
    checks.expect(
        cache_counts
            == CacheCounts {
                pages: out.pages(),
                hits: out.hits(),
                evictions: m.evictions,
                evicted_pages: m.evicted_pages,
                clean_dropped_pages: m.clean_dropped_pages,
                pad_reads: m.pad_read_pages,
            },
        "the cache replay reproduces the run's hits, evictions and evicted pages",
    );
    let mut ready = Vec::with_capacity(cap.flushes());
    replay_ftl(&mut ftl, &mut tl, requests, &cap, &mut ready);
    checks.expect(
        *tl.counters() == out.flash
            && *ftl.stats() == out.ftl
            && tl.busy() == ssd.device().busy()
            && (0..cfg.ssd.total_chips())
                .all(|c| tl.chip_free_at(c) == ssd.device().chip_free_at(c)),
        "the FTL replay reproduces OpCounters, FtlStats and every flash chip's timeline",
    );
    reset_ftl(cfg, &mut ftl, &mut tl);
    replay_flushes(&mut ftl, &mut tl, &cap);
    let (f, s) = (tl.counters(), ftl.stats());
    checks.expect(
        (
            f.user_programs,
            f.gc_programs,
            f.erases,
            s.gc_runs,
            s.gc_erased_blocks,
        ) == (
            out.flash.user_programs,
            out.flash.gc_programs,
            out.flash.erases,
            out.ftl.gc_runs,
            out.ftl.gc_erased_blocks,
        ),
        "the flush-only replay reproduces the program, erase and GC counts",
    );
    let window = replay_window(requests, &cap, &ready);
    if cfg.submit
        == (SubmitMode::Queued {
            depth: WINDOW_DEPTH,
        })
    {
        checks.expect(
            window.max_outstanding == *window_max && window.full_waits == m.flush_stalls,
            "the window replay reproduces the device's flush window",
        );
    }
    spans.close(capture_span);

    let chunk = requests.len().div_ceil(CHUNKS_PER_PASS).max(1);
    let mut t = Times::default();
    let start = Instant::now();
    while t.rounds < MIN_REPEATS
        || t.chunk_ms.len() < MIN_CHUNK_SAMPLES
        || start.elapsed().as_secs_f64() < seconds
    {
        let round = spans.open("round", None);

        // The plain replay and the same replay timed per chunk, with a span
        // per chunk; the second's extra cost is the tracing overhead. Their
        // order alternates so neither always runs on a warmer machine.
        let chunked_first = t.rounds % 2 == 1;
        for chunked in [chunked_first, !chunked_first] {
            let t0 = Instant::now();
            ssd.reset(cfg.clone());
            let t1 = Instant::now();
            spans.record("device.reset", t0, t1, Some(round));
            t.reset.push(secs(t0, t1));
            if chunked {
                let pass = spans.open("e2e.chunked", Some(round));
                let t0 = Instant::now();
                for c in requests.chunks(chunk) {
                    let c0 = Instant::now();
                    replay(ssd, c);
                    let c1 = Instant::now();
                    spans.record("e2e.chunk", c0, c1, Some(pass));
                    t.chunk_ms.push(secs(c0, c1) * 1e3);
                }
                t.chunked.push(t0.elapsed().as_secs_f64());
                spans.close(pass);
            } else {
                let t0 = Instant::now();
                replay(ssd, requests);
                let t1 = Instant::now();
                spans.record("e2e.replay", t0, t1, Some(round));
                t.e2e.push(secs(t0, t1));
            }
            checks.expect(
                Outputs::of(ssd) == *out,
                "repeated replays reproduce Metrics, OpCounters and FtlStats",
            );
        }

        let mut cache = new_cache();
        let t0 = Instant::now();
        let counts = replay_cache(&mut cache, requests, &mut Discard);
        let t1 = Instant::now();
        spans.record("cache.pass", t0, t1, Some(round));
        t.cache.push(secs(t0, t1));
        checks.expect(counts == cache_counts, "repeated cache replays agree");
        drop(cache);

        reset_ftl(cfg, &mut ftl, &mut tl);
        ready.clear();
        let t0 = Instant::now();
        replay_ftl(&mut ftl, &mut tl, requests, &cap, &mut ready);
        let t1 = Instant::now();
        spans.record("ftl.pass", t0, t1, Some(round));
        t.ftl.push(secs(t0, t1));
        checks.expect(*tl.counters() == out.flash, "repeated FTL replays agree");

        reset_ftl(cfg, &mut ftl, &mut tl);
        let t0 = Instant::now();
        replay_flushes(&mut ftl, &mut tl, &cap);
        let t1 = Instant::now();
        spans.record("ftl.flush_pass", t0, t1, Some(round));
        t.flush.push(secs(t0, t1));

        let t0 = Instant::now();
        let w = replay_window(requests, &cap, &ready);
        let t1 = Instant::now();
        spans.record("event.pass", t0, t1, Some(round));
        t.event.push(secs(t0, t1));
        checks.expect(w == window, "repeated window replays agree");

        for (threads, times) in [(1, &mut t.pool1), (2, &mut t.pool2)] {
            let t0 = Instant::now();
            times.push(pool(threads, checks));
            spans.record(
                if threads == 1 { "pool.1t" } else { "pool.2t" },
                t0,
                Instant::now(),
                Some(round),
            );
        }

        spans.close(round);
        t.rounds += 1;
    }

    let n = requests.len() as f64;
    let (e2e, cache, ftl, flush) = (
        median(&t.e2e),
        median(&t.cache),
        median(&t.ftl),
        median(&t.flush),
    );
    let f = &out.flash;
    let p = |q: f64| stats::percentile(&t.chunk_ms, q).expect("MIN_CHUNK_SAMPLES supports the p99");
    let metrics = vec![
        summarized(
            "device.reset_ms",
            &t.reset.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        ),
        metric("cache.ns_per_page", cache * 1e9 / cache_counts.pages as f64),
        metric("cache.share", cache / e2e),
        metric("cache.pages", cache_counts.pages as f64),
        metric("cache.evictions", cache_counts.evictions as f64),
        metric(
            "cache.pages_per_eviction",
            ratio(
                cache_counts.evicted_pages as f64,
                cache_counts.evictions as f64,
            ),
        ),
        metric(
            "ftl.ns_per_op",
            ratio(ftl * 1e9, (f.user_reads + f.user_programs) as f64),
        ),
        metric("ftl.share", ftl / e2e),
        metric(
            "ftl.flush_ns_per_page",
            ratio(flush * 1e9, f.user_programs as f64),
        ),
        metric(
            "ftl.read_ns_per_read",
            ratio((ftl - flush) * 1e9, f.user_reads as f64),
        ),
        metric("ftl.reads", f.user_reads as f64),
        metric("ftl.unmapped_reads", out.ftl.unmapped_reads as f64),
        metric("ftl.gc_runs", out.ftl.gc_runs as f64),
        metric(
            "ftl.gc_migrated_per_erase",
            ratio(
                out.ftl.gc_migrated_pages as f64,
                out.ftl.gc_erased_blocks as f64,
            ),
        ),
        metric("flash.chip_util", *chip_util),
        metric("flash.wait_us_per_op", *wait_us_per_op),
        metric(
            "event.ns_per_admit",
            ratio(median(&t.event) * 1e9, window.admits as f64),
        ),
        metric("event.full_waits", window.full_waits as f64),
        metric("engine.residual_ns_per_req", (e2e - cache - ftl) * 1e9 / n),
        metric("engine.chunk_ms_p50", p(0.5)),
        metric("engine.chunk_ms_p99", p(0.99)),
        metric("engine.chunk_samples", t.chunk_ms.len() as f64),
        metric("pool.speedup_2t", median(&t.pool1) / median(&t.pool2)),
        metric("bench.trace_overhead", median(&t.chunked) / e2e - 1.0),
    ];
    Ledger {
        metrics,
        replays: 2 * t.rounds as u64,
    }
}

/// Host seconds per pass, one sample per traced round.
#[derive(Default)]
struct Times {
    rounds: usize,
    e2e: Vec<f64>,
    reset: Vec<f64>,
    chunked: Vec<f64>,
    chunk_ms: Vec<f64>,
    cache: Vec<f64>,
    ftl: Vec<f64>,
    flush: Vec<f64>,
    event: Vec<f64>,
    pool1: Vec<f64>,
    pool2: Vec<f64>,
}
