//! Whole-trace replay and the job pool behind every experiment grid.

use crate::config::SimConfig;
use crate::host::Ssd;
use crate::metrics::Metrics;
use reqblock_flash::{FaultStats, OpCounters};
use reqblock_ftl::{FtlStats, Health};
use reqblock_obs::{NoopRecorder, Recorder};
use reqblock_trace::msr::ParseError;
use reqblock_trace::{Request, WorkloadProfile};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Policy name (e.g. `"Req-block"`).
    pub policy: String,
    /// Cache capacity in pages.
    pub cache_pages: usize,
    /// Request/hit/eviction/response metrics.
    pub metrics: Metrics,
    /// Flash operation counters (Figure 11's write count lives here).
    pub flash: OpCounters,
    /// GC statistics.
    pub ftl: FtlStats,
    /// Reliability counters (all zero unless the run injected faults).
    pub faults: FaultStats,
    /// Device health at end of run (degrades under fault injection).
    pub health: Health,
    /// Host wall-clock seconds [`replay`] spent submitting the trace and
    /// rolling up the recorder: the clock starts after the device is
    /// built, so neither device construction nor loading the trace is
    /// counted (simulator throughput, not simulated time).
    pub host_elapsed_s: f64,
}

impl RunResult {
    /// Figure 11's "write count to flash memory": pages programmed on behalf
    /// of cache flushes during the trace (GC traffic reported separately).
    pub fn flash_user_writes(&self) -> u64 {
        self.flash.user_programs
    }

    /// Replay throughput in requests per host-second (0 when the run was
    /// too fast to time).
    pub fn requests_per_sec(&self) -> f64 {
        if self.host_elapsed_s <= 0.0 {
            return 0.0;
        }
        self.metrics.requests as f64 / self.host_elapsed_s
    }
}

/// Replay `trace` through a fresh device built from `cfg`, mirroring the
/// event stream into `rec` (page events, flush-wait spans, periodic samples
/// per [`SimConfig::sampling`], and the end-of-run counter/gauge rollup).
/// Pass [`NoopRecorder`] for a plain run: the recorder is generic, so that
/// path monomorphizes with the instrumentation compiled out entirely.
///
/// The residual cache content is *not* drained: the paper's metrics count
/// traffic during the trace. Drive an [`Ssd`] and call [`Ssd::drain_cache`]
/// when write amplification over the full data set matters.
pub fn replay<I, R>(cfg: &SimConfig, trace: I, rec: &mut R) -> RunResult
where
    I: IntoIterator<Item = Request>,
    R: Recorder + ?Sized,
{
    let mut ssd = Ssd::new(cfg.clone());
    let started = Instant::now();
    for req in trace {
        ssd.submit_recorded(&req, rec);
    }
    ssd.finish_recording(rec);
    let host_elapsed_s = started.elapsed().as_secs_f64();
    RunResult {
        policy: cfg.policy.name().to_string(),
        cache_pages: cfg.cache_pages,
        metrics: ssd.metrics().clone(),
        flash: *ssd.flash_counters(),
        ftl: *ssd.ftl_stats(),
        faults: *ssd.fault_stats(),
        health: ssd.health(),
        host_elapsed_s,
    }
}

/// Where a job's requests come from.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// Synthesize from a workload profile (deterministic, seeded).
    Synthetic(WorkloadProfile),
    /// Parse an MSR-Cambridge CSV file (the paper's original traces).
    MsrFile(std::path::PathBuf),
    /// A base source with its arrival times rewritten by an open-loop
    /// process ([`crate::load::ArrivalProcess::rewrite`]): same ops,
    /// addresses, and sizes; synthetic offered rate. This is what the X6
    /// latency-vs-throughput sweep replays — the base trace is still
    /// materialized (and shared) once, only the cheap rewrite is per-job.
    OpenLoop {
        /// The request mix to re-time.
        base: Box<TraceSource>,
        /// How interarrival gaps are drawn.
        process: crate::load::ArrivalProcess,
        /// Seed of the per-job arrival RNG.
        seed: u64,
    },
}

impl TraceSource {
    /// Convenience constructor for [`TraceSource::OpenLoop`].
    pub fn open_loop(base: TraceSource, process: crate::load::ArrivalProcess, seed: u64) -> Self {
        TraceSource::OpenLoop { base: Box::new(base), process, seed }
    }

    /// The materialized request slice for this source, shared process-wide
    /// via [`reqblock_trace::shared`]: the first caller synthesizes/parses,
    /// every later caller (and every concurrent sweep job) gets the same
    /// `Arc<[Request]>` zero-copy. An unreadable or malformed trace file is
    /// an `Err` carrying the offending line.
    pub fn requests(&self) -> Result<Arc<[Request]>, ParseError> {
        use reqblock_trace::shared;
        Ok(match self {
            TraceSource::Synthetic(profile) => shared::synthetic(profile),
            TraceSource::MsrFile(path) => shared::msr_file(path)?,
            // The base slice is shared via the cache as usual; the arrival
            // rewrite is deterministic in (base, process, seed) and cheap
            // relative to a replay, so it is done per call.
            TraceSource::OpenLoop { base, process, seed } => {
                process.rewrite(&base.requests()?, *seed)
            }
        })
    }
}

/// One entry of an experiment grid: a labelled (config, workload) pair.
/// The trace is materialized inside the worker, so jobs are cheap to
/// construct and independent.
#[derive(Debug, Clone)]
pub struct Job {
    /// Free-form label (e.g. `"fig8/ts_0/32MB/Req-block"`).
    pub label: String,
    /// Device and policy configuration.
    pub cfg: SimConfig,
    /// Workload to replay.
    pub source: TraceSource,
}

/// One unit of work for [`run_task_pool`]: a labelled closure. The closure
/// owns its output routing (typically writing into a caller-held
/// `OnceLock`/slot), which is what lets heterogeneous work — simulation
/// jobs, trace-statistics probes, recorded telemetry runs — share a single
/// pool with no barriers between the figures that submitted them.
pub struct Task<'scope> {
    /// Free-form label, reported when the task panics.
    pub label: String,
    /// The work. Runs exactly once on some worker thread.
    pub work: Box<dyn FnOnce() + Send + 'scope>,
}

impl<'scope> Task<'scope> {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, work: impl FnOnce() + Send + 'scope) -> Self {
        Self { label: label.into(), work: Box::new(work) }
    }
}

impl std::fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task").field("label", &self.label).finish_non_exhaustive()
    }
}

/// Run every task on up to `threads` worker threads (std scoped threads)
/// and return when all have finished. Tasks are claimed in submission order
/// by whichever worker frees up first, so a slow task never idles the other
/// workers — this is the barrier-free scheduler underneath `repro all`:
/// every figure submits its tasks into one pool and collects results from
/// the slots its closures filled.
///
/// If any task panics, the first panic is re-raised after the pool drains,
/// prefixed with the failing task's label so sweep failures are debuggable.
/// Workers stop claiming new tasks once a panic is recorded.
pub fn run_task_pool(tasks: Vec<Task<'_>>, threads: usize) {
    type Cell<'scope> = std::sync::Mutex<Option<Box<dyn FnOnce() + Send + 'scope>>>;
    assert!(threads > 0, "need at least one worker");
    let count = tasks.len();
    let cells: Vec<Cell<'_>> = tasks.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let mut labels = Vec::with_capacity(count);
    for (task, cell) in tasks.into_iter().zip(&cells) {
        labels.push(task.label);
        *cell.lock().unwrap() = Some(task.work);
    }
    let next = AtomicUsize::new(0);
    let failure: OnceLock<(usize, String)> = OnceLock::new();
    let workers = threads.min(count).max(1);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                if failure.get().is_some() {
                    break;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                let work = cells[idx]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("task index dispatched twice");
                if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(work)) {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    let _ = failure.set((idx, msg));
                    break;
                }
            });
        }
    });
    if let Some((idx, msg)) = failure.into_inner() {
        panic!("worker running task '{}' panicked: {msg}", labels[idx]);
    }
}


/// A planned simulation grid: jobs plus one result slot per job. The
/// standalone path is [`JobPool::run`]; to share one pool with other work,
/// create the `JobPool` first, submit its [`JobPool::tasks`] (they borrow
/// it) into [`run_task_pool`], and call [`JobPool::take_results`] once the
/// pool has drained.
///
/// Each task loads its trace with [`TraceSource::requests`] and then
/// [`replay`]s it, so every result carries the host wall-clock of its own
/// replay alone ([`RunResult::host_elapsed_s`]). A trace that fails to
/// load panics the task, and the pool re-raises that panic prefixed with
/// the job's label.
#[derive(Debug)]
pub struct JobPool {
    jobs: Vec<Job>,
    slots: Vec<OnceLock<RunResult>>,
}

impl JobPool {
    /// Plan `jobs`, one empty result slot each.
    pub fn new(jobs: Vec<Job>) -> Self {
        let slots = jobs.iter().map(|_| OnceLock::new()).collect();
        Self { jobs, slots }
    }

    /// One task per job, routing each result into its slot.
    pub fn tasks(&self) -> Vec<Task<'_>> {
        self.jobs
            .iter()
            .zip(&self.slots)
            .map(|(job, slot)| {
                Task::new(job.label.clone(), move || {
                    let requests = job
                        .source
                        .requests()
                        .unwrap_or_else(|e| panic!("cannot load trace: {e}"));
                    let result = replay(&job.cfg, requests.iter().copied(), &mut NoopRecorder);
                    let ok = slot.set(result).is_ok();
                    debug_assert!(ok, "job slot filled twice");
                })
            })
            .collect()
    }

    /// Labelled results in job order (call after the pool has drained).
    pub fn take_results(self) -> Vec<(String, RunResult)> {
        self.jobs
            .into_iter()
            .zip(self.slots)
            .map(|(job, slot)| {
                (job.label, slot.into_inner().expect("every job must produce a result"))
            })
            .collect()
    }

    /// Run every job on its own pool of up to `threads` workers and return
    /// the labelled results in job order.
    pub fn run(self, threads: usize) -> Vec<(String, RunResult)> {
        run_task_pool(self.tasks(), threads);
        self.take_results()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheSizeMb, PolicyKind, SampleInterval};
    use reqblock_core::ReqBlockConfig;
    use reqblock_obs::MemoryRecorder;
    use reqblock_trace::profiles::ts_0;
    use reqblock_trace::SyntheticTrace;

    fn mini_profile() -> WorkloadProfile {
        ts_0().scaled(0.002) // ~3.6k requests
    }

    fn run(cfg: &SimConfig, profile: WorkloadProfile) -> RunResult {
        replay(cfg, SyntheticTrace::new(profile), &mut NoopRecorder)
    }

    #[test]
    fn replay_produces_metrics() {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::Lru);
        let res = run(&cfg, mini_profile());
        assert_eq!(res.policy, "LRU");
        assert_eq!(res.metrics.requests, mini_profile().requests);
        assert!(res.metrics.hit_ratio() > 0.0, "ts_0-like reuse must hit");
        assert!(res.metrics.avg_response_ms() > 0.0);
        assert!(res.host_elapsed_s > 0.0, "replay must take measurable time");
        assert!(res.requests_per_sec() > 0.0);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()));
        let a = run(&cfg, mini_profile());
        let b = run(&cfg, mini_profile());
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.flash, b.flash);
    }

    #[test]
    fn recorded_run_matches_plain_run_and_captures_series() {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
            .with_sampling(SampleInterval::Requests(500));
        let plain = run(&cfg, mini_profile());
        let mut rec = MemoryRecorder::default();
        let recorded = replay(&cfg, SyntheticTrace::new(mini_profile()), &mut rec);
        assert_eq!(plain.metrics, recorded.metrics, "recording must not change the model");
        assert_eq!(plain.flash, recorded.flash);
        assert_eq!(rec.counter_value("requests"), recorded.metrics.requests);
        let pts = rec.series_points("hit_ratio");
        assert!(pts.len() >= 3, "expected >= 3 samples, got {}", pts.len());
    }

    #[test]
    fn job_pool_preserves_order_and_labels() {
        let jobs: Vec<Job> = PolicyKind::paper_comparison()
            .iter()
            .map(|p| Job {
                label: format!("test/{}", p.name()),
                cfg: SimConfig::paper(CacheSizeMb::Mb16, *p),
                source: TraceSource::Synthetic(mini_profile()),
            })
            .collect();
        let results = JobPool::new(jobs.clone()).run(2);
        assert_eq!(results.len(), 4);
        for (job, (label, res)) in jobs.iter().zip(&results) {
            assert_eq!(&job.label, label);
            assert_eq!(res.policy, job.cfg.policy.name());
            assert!(res.host_elapsed_s > 0.0, "per-job wall clock must be kept");
        }
    }

    #[test]
    fn job_pool_propagates_panic_with_job_label() {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::Lru);
        let jobs = vec![
            Job {
                label: "ok-job".into(),
                cfg: cfg.clone(),
                source: TraceSource::Synthetic(mini_profile()),
            },
            Job {
                label: "bad-job".into(),
                cfg,
                source: TraceSource::MsrFile("/nonexistent/reqblock-test-trace.csv".into()),
            },
        ];
        let err = std::panic::catch_unwind(|| JobPool::new(jobs).run(2)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("bad-job"), "panic should name the job: {msg}");
    }

    #[test]
    fn malformed_msr_file_is_an_error_naming_the_line() {
        let path = std::env::temp_dir().join("reqblock_runner_malformed.csv");
        std::fs::write(&path, "128166372003061629,hm,1,Read,4096,4096,1\nnot,a,valid,line\n")
            .unwrap();
        let err = TraceSource::MsrFile(path.clone()).requests().unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "error should name the line: {err}");
    }

    #[test]
    fn task_pool_runs_every_task_once() {
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<Task<'_>> = hits
            .iter()
            .enumerate()
            .map(|(i, h)| {
                Task::new(format!("t{i}"), move || {
                    h.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        run_task_pool(tasks, 4);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} must run exactly once");
        }
    }

    #[test]
    fn task_pool_propagates_panic_with_task_label() {
        let tasks = vec![
            Task::new("fine", || {}),
            Task::new("exploding-task", || panic!("boom")),
            Task::new("also-fine", || {}),
        ];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| run_task_pool(tasks, 2)))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("exploding-task"), "panic should name the task: {msg}");
        assert!(msg.contains("boom"), "panic should carry the payload: {msg}");
    }

    #[test]
    fn open_loop_source_matches_direct_rewrite() {
        let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::Lru);
        let base = TraceSource::Synthetic(mini_profile());
        let process = crate::load::ArrivalProcess::Poisson { mean_interarrival_ns: 20_000 };
        let source = TraceSource::open_loop(base, process, 11);
        let direct: Vec<Request> =
            process.rewrite(&SyntheticTrace::new(mini_profile()).generate_all(), 11);
        let requests = source.requests().unwrap();
        assert_eq!(&requests[..], &direct[..]);
        let via_source = replay(&cfg, requests.iter().copied(), &mut NoopRecorder);
        let via_direct = replay(&cfg, direct, &mut NoopRecorder);
        assert_eq!(via_source.metrics, via_direct.metrics);
        assert_eq!(via_source.flash, via_direct.flash);
    }

    #[test]
    fn shared_source_matches_uncached_generation() {
        let source = TraceSource::Synthetic(mini_profile());
        let shared = source.requests().unwrap();
        let fresh = SyntheticTrace::new(mini_profile()).generate_all();
        assert_eq!(&shared[..], &fresh[..]);
        // A second materialization reuses the cached slice.
        assert!(Arc::ptr_eq(&shared, &source.requests().unwrap()));
    }

    #[test]
    fn reqblock_beats_lru_on_hit_ratio_for_reuse_heavy_trace() {
        // The headline claim at miniature scale: on a ts_0-like workload the
        // Req-block policy should not lose to LRU on hit ratio.
        let profile = ts_0().scaled(0.01);
        let lru = run(&SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::Lru), profile.clone());
        let rb = run(
            &SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper())),
            profile,
        );
        assert!(
            rb.metrics.hit_ratio() >= lru.metrics.hit_ratio() * 0.95,
            "Req-block {:.4} vs LRU {:.4}",
            rb.metrics.hit_ratio(),
            lru.metrics.hit_ratio()
        );
    }
}
