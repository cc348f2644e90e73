//! The paper's tables and figures: Table 1, and the point runners and
//! reports of the `table2`, `fig2_fig3`, `fig7`, `comparison`, `fig13`
//! and `telemetry` scenario kinds. See the crate docs for the index.

use crate::report::{f2, f3, pct, Table};
use crate::scenario::{cache_from_mb, Point, Scenario};
use crate::sweep::Outcome;
use reqblock_flash::SsdConfig;
use reqblock_obs::telemetry::{summary_rows, to_jsonl};
use reqblock_obs::{Fanout, MemoryRecorder};
use reqblock_sim::probes::{LargeReqHitProbe, SizeCdfProbe};
use reqblock_sim::{replay, CacheSizeMb, RunResult, SampleInterval, TraceSource};
use reqblock_trace::profiles::profile_by_name;
use reqblock_trace::{paper_profiles, stats, Request, TraceStats, WorkloadProfile};
use std::collections::HashMap;
use std::path::PathBuf;

/// Harness options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Trace scale factor (1.0 = the paper's full request counts). Applies
    /// to synthetic workloads only; real trace files replay in full.
    pub scale: f64,
    /// Worker threads for independent runs; defaults to
    /// [`std::thread::available_parallelism`]. `1` is the explicit serial
    /// mode (results are byte-identical either way).
    pub threads: usize,
    /// Output directory for `results/*.md` and `*.csv`.
    pub out_dir: PathBuf,
    /// Directory holding the paper's original traces as `<name>.csv` in
    /// MSR format (e.g. `hm_1.csv`). When a file exists for a workload, it
    /// replaces the synthetic stand-in in every experiment that replays
    /// that workload (Table 2 names it in its title); workloads without a
    /// file keep the synthetic trace. The fleet's tenant streams are
    /// always synthetic, so `repro fleet` rejects the flag. `repro` also
    /// rejects a directory that does not exist, and a file that fails
    /// [`Opts::check_trace_dir`].
    pub trace_dir: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale: 0.05,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            out_dir: PathBuf::from("results"),
            trace_dir: None,
        }
    }
}

impl Opts {
    /// The trace source for one workload: the real trace file when
    /// `trace_dir/<name>.csv` exists, the calibrated synthetic otherwise.
    pub fn source_for(&self, profile: &WorkloadProfile) -> TraceSource {
        if let Some(dir) = &self.trace_dir {
            let path = dir.join(format!("{}.csv", profile.name));
            if path.exists() {
                return TraceSource::MsrFile(path);
            }
        }
        TraceSource::Synthetic(profile.clone())
    }

    /// Check that every `(workload, scale)` of `uses` that is synthesized
    /// — the scale relative to [`Opts::scale`], the workload one no
    /// [`Opts::trace_dir`] file replaces — makes a profile that passes
    /// [`WorkloadProfile::validate`] at the effective scale, so that no
    /// generator panics inside the worker pool. Unknown names are skipped
    /// (the command reports them). Returns the first failure, naming the
    /// workload, the effective scale and the reason.
    pub fn check_synthetic(&self, uses: &[(String, f64)]) -> Result<(), String> {
        for (name, rel_scale) in uses {
            let Some(profile) = profile_by_name(name) else { continue };
            let scale = self.scale * rel_scale;
            if !(scale.is_finite() && scale > 0.0) {
                return Err(format!("{name} at scale {scale}: not a finite scale above 0"));
            }
            let profile = profile.scaled(scale);
            if let TraceSource::Synthetic(profile) = self.source_for(&profile) {
                profile.validate().map_err(|e| format!("{name} at scale {scale}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Load every `<name>.csv` under [`Opts::trace_dir`] that
    /// [`Opts::source_for`] would pick for a workload of `uses` (the
    /// command's traces, the list [`Opts::check_synthetic`] takes), through
    /// the shared trace cache (so the runs that follow do not parse the
    /// files again), and check that its largest LPN fits the paper device
    /// and every entry of `devices` named after its workload. Files of
    /// other workloads are never read. Returns the first file that fails
    /// to load or to fit, with the reason.
    pub fn check_trace_dir(
        &self,
        uses: &[(String, f64)],
        devices: &[(String, SsdConfig)],
    ) -> Result<(), (PathBuf, String)> {
        let paper = SsdConfig::paper();
        let used = paper_profiles().into_iter().filter(|p| uses.iter().any(|(n, _)| *n == p.name));
        for profile in used {
            let source = self.source_for(&profile);
            let TraceSource::MsrFile(path) = &source else { continue };
            let requests = source.requests().map_err(|e| (path.clone(), e.to_string()))?;
            let Some(last) = requests.iter().map(Request::last_lpn).max() else { continue };
            let named = devices.iter().filter(|(name, _)| *name == profile.name);
            for ssd in std::iter::once(&paper).chain(named.map(|(_, ssd)| ssd)) {
                let pages = ssd.total_pages();
                if last >= pages {
                    return Err((
                        path.clone(),
                        format!("LPN {last} is beyond the last page of a {pages}-page device"),
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Table 1: the SSD configuration in effect (paper values by construction).
pub fn table1() -> Outcome {
    let c = reqblock_flash::SsdConfig::paper();
    let mut t = Table::new("Table 1 - Experimental settings of the SSD model", &["Parameter", "Value"]);
    let rows: Vec<(&str, String)> = vec![
        ("Capacity", format!("{} GB", c.capacity_bytes >> 30)),
        ("Channel Size", c.channels.to_string()),
        ("Chip Size", c.chips_per_channel.to_string()),
        ("Page per block", c.pages_per_block.to_string()),
        ("Page Size", format!("{} KB", c.page_size / 1024)),
        ("FTL Scheme", "Page level".into()),
        ("Read latency", format!("{} ms", c.read_latency_ns as f64 / 1e6)),
        ("Write latency", format!("{} ms", c.program_latency_ns as f64 / 1e6)),
        ("Erase latency", format!("{} ms", c.erase_latency_ns as f64 / 1e6)),
        ("Transfer (Byte)", format!("{} ns", c.transfer_ns_per_byte)),
        ("GC Threshold", pct(c.gc_threshold)),
        ("DRAM Cache", "16/32/64 MB".into()),
    ];
    for (k, v) in rows {
        t.push_row(vec![k.to_string(), v]);
    }
    Outcome { sections: vec![("table1".into(), vec![t])], ..Outcome::default() }
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Paper values of Table 2 per trace:
/// `(requests, write_ratio, write_kb, freq_r, freq_r_wr)`.
pub const TABLE2_PAPER: [(&str, u64, f64, f64, f64, f64); 6] = [
    ("hm_1", 609_312, 0.047, 20.0, 0.461, 0.839),
    ("lun_1", 1_894_391, 0.332, 18.6, 0.124, 0.128),
    ("usr_0", 2_237_889, 0.596, 10.3, 0.529, 0.329),
    ("src1_2", 1_907_773, 0.746, 32.5, 0.796, 0.391),
    ("ts_0", 1_801_734, 0.824, 8.0, 0.430, 0.581),
    ("proj_0", 4_224_525, 0.875, 40.9, 0.625, 0.599),
];

/// The `table2` report: each trace's measured statistics (the kind's
/// runner) next to the paper's, at the harness scale. The title names the
/// traces read from `--trace-dir` files, if any.
pub(crate) fn table2_report(sc: &Scenario, opts: &Opts, runs: Vec<(Point, TraceStats)>) -> Outcome {
    let files: Vec<&str> = runs
        .iter()
        .filter(|(p, _)| matches!(p.source, TraceSource::MsrFile(_)))
        .map(|(p, _)| p.cell("trace"))
        .collect();
    let files = (!files.is_empty()).then(|| format!("; trace files: {}", files.join(", ")));
    let mut t = Table::new(
        format!(
            "Table 2 - Trace specifications (synthetic, scale {}{})",
            opts.scale,
            files.unwrap_or_default()
        ),
        &[
            "Trace",
            "Req # (paper)",
            "Req # (ours)",
            "Wr ratio (paper)",
            "Wr ratio (ours)",
            "Wr size KB (paper)",
            "Wr size KB (ours)",
            "Frequent R (paper)",
            "Frequent R (ours)",
            "Frequent Wr (paper)",
            "Frequent Wr (ours)",
        ],
    );
    for (p, s) in &runs {
        let trace = p.cell("trace");
        let paper = TABLE2_PAPER.iter().find(|row| row.0 == trace).expect("a paper trace");
        t.push_row(vec![
            trace.to_string(),
            paper.1.to_string(),
            s.requests.to_string(),
            pct(paper.2),
            pct(s.write_ratio),
            f2(paper.3),
            f2(s.mean_write_kb),
            pct(paper.4),
            pct(s.frequent_ratio),
            pct(paper.5),
            pct(s.frequent_write_ratio),
        ]);
    }
    sc.section(vec![t])
}

// ---------------------------------------------------------------------
// Figures 2 and 3 (one probed run per trace)
// ---------------------------------------------------------------------

/// Request-size thresholds (pages) at which the Figure 2 CDFs are reported.
pub const FIG2_SIZES: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// What the `fig2_fig3` runner measures on one trace.
pub(crate) struct Fig23Row {
    threshold: u32,
    insert_cdf: Vec<f64>,
    hit_cdf: Vec<f64>,
    episodes: u64,
    episodes_hit: u64,
    hit_fraction: f64,
}

/// The `fig2_fig3` runner: one replay of the point feeding both figure
/// consumers through a fanout recorder. The paper's "large" cut-off is
/// the trace's mean request size.
pub(crate) fn fig23_run(_: &Opts, p: &Point) -> Fig23Row {
    let requests = p.requests();
    let s = stats::compute(requests.iter());
    let mean_req_pages = if s.requests == 0 {
        1.0
    } else {
        s.total_page_accesses as f64 / s.requests as f64
    };
    let threshold = mean_req_pages.round().max(1.0) as u32;

    let mut cdf = SizeCdfProbe::new();
    let mut large = LargeReqHitProbe::new(threshold);
    {
        let mut fan = Fanout::new();
        fan.push(&mut cdf);
        fan.push(&mut large);
        replay(&p.cfg, requests.iter().copied(), &mut fan);
    }
    large.finish();
    Fig23Row {
        threshold,
        insert_cdf: FIG2_SIZES.iter().map(|&s| cdf.insert_fraction_upto(s)).collect(),
        hit_cdf: FIG2_SIZES.iter().map(|&s| cdf.hit_fraction_upto(s)).collect(),
        episodes: large.episodes,
        episodes_hit: large.episodes_hit,
        hit_fraction: large.hit_fraction(),
    }
}

/// The `fig2_fig3` report: sections `fig2` and `fig3`, one row set per
/// trace.
pub(crate) fn fig23_report(_: &Scenario, _: &Opts, runs: Vec<(Point, Fig23Row)>) -> Outcome {
    let setup = format!("{}MB cache, {}", runs[0].0.cell("cache_mb"), runs[0].0.cell("policy"));
    let size_cols: Vec<String> = FIG2_SIZES.iter().map(|s| format!("<= {s}p")).collect();
    let mut cols = vec!["Trace", "Series"];
    cols.extend(size_cols.iter().map(String::as_str));
    let mut fig2 = Table::new(
        format!("Figure 2 - CDF of page inserts and hits vs write request size ({setup})"),
        &cols,
    );
    let mut fig3 = Table::new(
        format!("Figure 3 - Hit statistics of large-request pages ({setup})"),
        &["Trace", "Large threshold (pages)", "Pages hit", "Pages not hit", "Hit fraction"],
    );
    for (p, row) in runs {
        let trace = p.cell("trace");
        let mut r1 = vec![trace.to_string(), "Page Insert".into()];
        r1.extend(row.insert_cdf.iter().map(|&v| f3(v)));
        fig2.push_row(r1);
        let mut r2 = vec![trace.to_string(), "Page Hit".into()];
        r2.extend(row.hit_cdf.iter().map(|&v| f3(v)));
        fig2.push_row(r2);
        fig3.push_row(vec![
            trace.to_string(),
            row.threshold.to_string(),
            row.episodes_hit.to_string(),
            (row.episodes - row.episodes_hit).to_string(),
            pct(row.hit_fraction),
        ]);
    }
    Outcome {
        sections: vec![("fig2".into(), vec![fig2]), ("fig3".into(), vec![fig3])],
        ..Outcome::default()
    }
}

// ---------------------------------------------------------------------
// Figure 7: delta sensitivity
// ---------------------------------------------------------------------

/// The `fig7` report: Req-block hit ratio (7a) and response time (7b) per
/// trace for each delta of the scenario's `delta` axis, normalized to the
/// axis's first delta (the committed `scenarios/fig7.toml` starts at 1).
pub(crate) fn fig7_report(sc: &Scenario, _: &Opts, points: Vec<(Point, RunResult)>) -> Outcome {
    let deltas = sc.axis("delta").expect("fig7 requires delta").displays();
    let base = &deltas[0];
    let delta_cols: Vec<String> = deltas.iter().map(|d| format!("d={d}")).collect();
    let mut cols: Vec<&str> = vec!["Trace"];
    cols.extend(delta_cols.iter().map(|s| s.as_str()));
    let mut hits = Table::new(
        format!("Figure 7a - Hit ratio vs delta (32MB, normalized to delta={base})"),
        &cols,
    );
    let mut resp = Table::new(
        format!("Figure 7b - I/O response time vs delta (32MB, normalized to delta={base})"),
        &cols,
    );

    let by_point: HashMap<(&str, &str), &RunResult> =
        points.iter().map(|(p, r)| ((p.cell("trace"), p.cell("delta")), r)).collect();
    for trace in sc.axis("trace").expect("fig7 requires trace").displays() {
        let at = |delta: &str| by_point[&(trace.as_str(), delta)];
        let base_hit = at(base).metrics.hit_ratio();
        let base_resp = at(base).metrics.avg_response_ms();
        let mut hrow = vec![trace.clone()];
        let mut rrow = vec![trace.clone()];
        for d in &deltas {
            let r = at(d);
            hrow.push(f3(r.metrics.hit_ratio() / base_hit.max(f64::MIN_POSITIVE)));
            rrow.push(f3(r.metrics.avg_response_ms() / base_resp.max(f64::MIN_POSITIVE)));
        }
        hits.push_row(hrow);
        resp.push_row(rrow);
    }
    sc.section(vec![hits, resp])
}

// ---------------------------------------------------------------------
// Figures 8-12: the policy comparison grid
// ---------------------------------------------------------------------

/// Results of the (policy x cache size x trace) grid behind Figures 8-12.
struct Comparison {
    /// `(trace, cache, policy name) -> result`.
    results: HashMap<(String, CacheSizeMb, String), RunResult>,
    traces: Vec<String>,
    caches: Vec<CacheSizeMb>,
    policies: Vec<String>,
    /// `(label, host_elapsed_s, requests)` per job, in grid order.
    perf: Vec<(String, f64, u64)>,
}

impl Comparison {
    /// Assemble the grid from a `comparison` scenario's finished points:
    /// the row/column order follows the scenario's `trace`, `cache_mb`
    /// and `policy` axes, and each point is keyed by its cells.
    fn from_points(sc: &Scenario, points: Vec<(Point, RunResult)>) -> Comparison {
        let axis = |name: &str| sc.axis(name).expect("comparison axes are required").displays();
        let cache_of =
            |mb: &str| cache_from_mb(mb.parse().expect("integer cell")).expect("validated cache");
        let mut results = HashMap::new();
        let mut perf = Vec::new();
        for (p, r) in points {
            let key = (
                p.cell("trace").to_string(),
                cache_of(p.cell("cache_mb")),
                p.cell("policy").to_string(),
            );
            let (trace, cache, policy) = &key;
            perf.push((format!("{trace}/{cache}/{policy}"), r.host_elapsed_s, r.metrics.requests));
            results.insert(key, r);
        }
        Comparison {
            results,
            traces: axis("trace"),
            caches: axis("cache_mb").iter().map(|mb| cache_of(mb)).collect(),
            policies: axis("policy"),
            perf,
        }
    }

    /// Look up one run.
    fn get(&self, trace: &str, cache: CacheSizeMb, policy: &str) -> &RunResult {
        &self.results[&(trace.to_string(), cache, policy.to_string())]
    }

    /// Policy display names in grid order.
    fn policies(&self) -> impl Iterator<Item = &str> + '_ {
        self.policies.iter().map(String::as_str)
    }

    /// The cache size the single-size figures (10, 11) and the summary's
    /// write-reduction column report at: the paper's 32 MB headline when
    /// the grid includes it, the middle of the swept sizes otherwise.
    fn headline_cache(&self) -> CacheSizeMb {
        if self.caches.contains(&CacheSizeMb::Mb32) {
            CacheSizeMb::Mb32
        } else {
            self.caches[self.caches.len() / 2]
        }
    }
}

/// The `comparison` report: Figures 8-12, the summary and the perf
/// appendix as fixed sections, plus the two normalized bar charts.
pub(crate) fn comparison_report(
    sc: &Scenario,
    _: &Opts,
    points: Vec<(Point, RunResult)>,
) -> Outcome {
    let cmp = Comparison::from_points(sc, points);
    let means = policy_means(&cmp);
    Outcome {
        sections: vec![
            ("fig8".into(), vec![fig8(&cmp)]),
            ("fig9".into(), vec![fig9(&cmp)]),
            ("fig10".into(), vec![fig10(&cmp)]),
            ("fig11".into(), vec![fig11(&cmp)]),
            ("fig12".into(), vec![fig12(&cmp)]),
            ("summary".into(), vec![summary(&cmp)]),
            ("perf".into(), vec![perf_table(&cmp)]),
        ],
        charts: vec![
            (
                "mean response time (normalized to LRU, lower is better)".into(),
                means.iter().map(|(n, r, _)| (n.clone(), *r)).collect(),
            ),
            (
                "mean hit ratio (normalized to Req-block, higher is better)".into(),
                means.iter().map(|(n, _, h)| (n.clone(), *h)).collect(),
            ),
        ],
        ..Outcome::default()
    }
}

/// Replay-throughput summary of the comparison grid: host wall-clock and
/// requests/s per job (each pooled result times its own replay).
fn perf_table(cmp: &Comparison) -> Table {
    let mut t = Table::new(
        "Run performance - host wall-clock per comparison job",
        &["Job", "Requests", "Host time (s)", "Req/s"],
    );
    for (label, elapsed, requests) in &cmp.perf {
        let rps = if *elapsed > 0.0 { *requests as f64 / elapsed } else { 0.0 };
        t.push_row(vec![
            label.clone(),
            requests.to_string(),
            format!("{elapsed:.3}"),
            format!("{rps:.0}"),
        ]);
    }
    t
}

/// Figure 8: mean I/O response time normalized to LRU, plus LRU absolute ms.
fn fig8(cmp: &Comparison) -> Table {
    let mut cols = vec!["Trace", "Cache"];
    cols.extend(cmp.policies());
    cols.push("LRU abs (ms)");
    let mut t = Table::new("Figure 8 - I/O response time (normalized to LRU)", &cols);
    for trace in &cmp.traces {
        for &cache in &cmp.caches {
            let lru = cmp.get(trace, cache, "LRU").metrics.avg_response_ms();
            let mut row = vec![trace.clone(), cache.to_string()];
            for p in cmp.policies() {
                let v = cmp.get(trace, cache, p).metrics.avg_response_ms();
                row.push(f3(v / lru.max(f64::MIN_POSITIVE)));
            }
            row.push(f3(lru));
            t.push_row(row);
        }
    }
    t
}

/// Figure 9: hit ratio normalized to Req-block, plus Req-block absolute.
fn fig9(cmp: &Comparison) -> Table {
    let mut cols = vec!["Trace", "Cache"];
    cols.extend(cmp.policies());
    cols.push("Req-block abs");
    let mut t = Table::new("Figure 9 - Cache hit ratio (normalized to Req-block)", &cols);
    for trace in &cmp.traces {
        for &cache in &cmp.caches {
            let rb = cmp.get(trace, cache, "Req-block").metrics.hit_ratio();
            let mut row = vec![trace.clone(), cache.to_string()];
            for p in cmp.policies() {
                let v = cmp.get(trace, cache, p).metrics.hit_ratio();
                row.push(f3(v / rb.max(f64::MIN_POSITIVE)));
            }
            row.push(f3(rb));
            t.push_row(row);
        }
    }
    t
}

/// Figure 10: mean pages per eviction at 32 MB (block-granularity schemes).
fn fig10(cmp: &Comparison) -> Table {
    let headline = cmp.headline_cache();
    let block_schemes: Vec<&str> = cmp.policies().filter(|&p| p != "LRU").collect();
    let mut cols = vec!["Trace"];
    cols.extend(&block_schemes);
    let mut t = Table::new(
        format!("Figure 10 - Average pages per eviction ({headline})"),
        &cols,
    );
    for trace in &cmp.traces {
        let mut row = vec![trace.clone()];
        for &p in &block_schemes {
            row.push(f2(cmp.get(trace, headline, p).metrics.avg_pages_per_eviction()));
        }
        t.push_row(row);
    }
    t
}

/// Figure 11: flash write count (user flush programs, 10^6) at 32 MB.
fn fig11(cmp: &Comparison) -> Table {
    let headline = cmp.headline_cache();
    let mut cols = vec!["Trace"];
    cols.extend(cmp.policies());
    let mut t = Table::new(
        format!("Figure 11 - Write count to flash (x10^6, {headline})"),
        &cols,
    );
    for trace in &cmp.traces {
        let mut row = vec![trace.clone()];
        for p in cmp.policies() {
            row.push(f3(cmp.get(trace, headline, p).flash_user_writes() as f64 / 1e6));
        }
        t.push_row(row);
    }
    t
}

/// Figure 12: mean metadata size (KB) per scheme and cache size, averaged
/// over traces, with the overhead as a fraction of cache capacity.
fn fig12(cmp: &Comparison) -> Table {
    let mut cols = vec!["Cache"];
    cols.extend(cmp.policies());
    let mut t = Table::new("Figure 12 - Space overhead (KB, mean over traces)", &cols);
    for &cache in &cmp.caches {
        let mut row = vec![cache.to_string()];
        for p in cmp.policies() {
            let mean_bytes: f64 = cmp
                .traces
                .iter()
                .map(|tr| cmp.get(tr, cache, p).metrics.avg_metadata_bytes())
                .sum::<f64>()
                / cmp.traces.len() as f64;
            let frac = mean_bytes / (cache.pages() as f64 * 4096.0);
            row.push(format!("{:.1} ({:.2}%)", mean_bytes / 1024.0, frac * 100.0));
        }
        t.push_row(row);
    }
    t
}

/// Mean normalized response time and hit ratio per policy (bar-chart data
/// for the `repro` terminal output).
fn policy_means(cmp: &Comparison) -> Vec<(String, f64, f64)> {
    cmp.policies()
        .map(|p| {
            let mut resp = 0.0;
            let mut hits = 0.0;
            let mut n = 0.0;
            for trace in &cmp.traces {
                for &cache in &cmp.caches {
                    let lru = cmp.get(trace, cache, "LRU").metrics.avg_response_ms();
                    let rb = cmp.get(trace, cache, "Req-block").metrics.hit_ratio();
                    let r = cmp.get(trace, cache, p);
                    resp += r.metrics.avg_response_ms() / lru.max(f64::MIN_POSITIVE);
                    hits += r.metrics.hit_ratio() / rb.max(f64::MIN_POSITIVE);
                    n += 1.0;
                }
            }
            (p.to_string(), resp / n, hits / n)
        })
        .collect()
}

/// Headline summary: mean improvement of Req-block over each baseline, in
/// the same terms the paper quotes (§4.2.2, §4.2.3, §4.2.4).
fn summary(cmp: &Comparison) -> Table {
    let mut t = Table::new(
        "Summary - Req-block vs baselines (mean over traces and cache sizes)",
        &["Baseline", "Response time reduction", "Hit ratio improvement", "Flash write reduction"],
    );
    let headline = cmp.headline_cache();
    for base in cmp.policies().filter(|&p| p != "Req-block") {
        let mut resp_gain = 0.0;
        let mut hit_gain = 0.0;
        let mut write_gain = 0.0;
        let mut n_rh = 0.0;
        let mut n_w = 0.0;
        for trace in &cmp.traces {
            for &cache in &cmp.caches {
                let rb = cmp.get(trace, cache, "Req-block");
                let bl = cmp.get(trace, cache, base);
                resp_gain += 1.0
                    - rb.metrics.avg_response_ms()
                        / bl.metrics.avg_response_ms().max(f64::MIN_POSITIVE);
                hit_gain += rb.metrics.hit_ratio() / bl.metrics.hit_ratio().max(f64::MIN_POSITIVE)
                    - 1.0;
                n_rh += 1.0;
            }
            // The paper's write-count comparison is at the headline size.
            let rb = cmp.get(trace, headline, "Req-block");
            let bl = cmp.get(trace, headline, base);
            write_gain +=
                1.0 - rb.flash_user_writes() as f64 / (bl.flash_user_writes() as f64).max(1.0);
            n_w += 1.0;
        }
        t.push_row(vec![
            base.to_string(),
            pct(resp_gain / n_rh),
            pct(hit_gain / n_rh),
            pct(write_gain / n_w),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Figure 13: list occupancy over time
// ---------------------------------------------------------------------

/// The periodic sampler's cadence for `fig13` and `telemetry` runs: every
/// `10_000 * scale` requests (the paper samples every 10 000 at full
/// scale), at least every 100.
fn sample_every(opts: &Opts) -> u64 {
    ((10_000.0 * opts.scale) as u64).max(100)
}

/// What the `fig13` runner samples on one trace.
pub(crate) struct Fig13Row {
    /// `(request index, [IRL, SRL, DRL] pages)` per sample.
    samples: Vec<(u64, [u64; 3])>,
    /// Mean share of cached pages per list over the samples.
    shares: [f64; 3],
}

/// The `fig13` runner: a recorded replay of the point whose periodic
/// sampler captures the `irl_pages`/`srl_pages`/`drl_pages` series.
pub(crate) fn fig13_run(opts: &Opts, p: &Point) -> Fig13Row {
    let cfg = p.cfg.clone().with_sampling(SampleInterval::Requests(sample_every(opts)));
    let mut rec = MemoryRecorder::default();
    replay(&cfg, p.requests().iter().copied(), &mut rec);
    let irl = rec.series_points("irl_pages");
    let srl = rec.series_points("srl_pages");
    let drl = rec.series_points("drl_pages");
    let mut samples = Vec::new();
    let mut sums = [0f64; 3];
    let mut n = 0f64;
    for ((&(idx, irl_v), &(_, srl_v)), &(_, drl_v)) in irl.iter().zip(srl).zip(drl) {
        let occ = [irl_v, srl_v, drl_v];
        samples.push((idx, [occ[0] as u64, occ[1] as u64, occ[2] as u64]));
        let total: f64 = occ.iter().sum();
        if total > 0.0 {
            for i in 0..3 {
                sums[i] += occ[i] / total;
            }
            n += 1.0;
        }
    }
    let n = n.max(1.0);
    Fig13Row { samples, shares: [sums[0] / n, sums[1] / n, sums[2] / n] }
}

/// The `fig13` report: Req-block's per-list page counts, the mean shares
/// and then the samples.
pub(crate) fn fig13_report(sc: &Scenario, opts: &Opts, runs: Vec<(Point, Fig13Row)>) -> Outcome {
    let mut samples_table = Table::new(
        format!(
            "Figure 13 - Req-block list occupancy ({}MB, sampled every {} requests)",
            runs[0].0.cell("cache_mb"),
            sample_every(opts)
        ),
        &["Trace", "Request #", "IRL pages", "SRL pages", "DRL pages"],
    );
    let mut shares = Table::new(
        "Figure 13 (summary) - Mean share of cached pages per list",
        &["Trace", "IRL", "SRL", "DRL"],
    );
    for (p, row) in runs {
        let trace = p.cell("trace");
        for (idx, occ) in &row.samples {
            samples_table.push_row(vec![
                trace.to_string(),
                idx.to_string(),
                occ[0].to_string(),
                occ[1].to_string(),
                occ[2].to_string(),
            ]);
        }
        shares.push_row(vec![
            trace.to_string(),
            pct(row.shares[0]),
            pct(row.shares[1]),
            pct(row.shares[2]),
        ]);
    }
    sc.section(vec![shares, samples_table])
}

// ---------------------------------------------------------------------
// Telemetry: an instrumented example run
// ---------------------------------------------------------------------

/// The `telemetry` runner: one fully instrumented, seeded replay of the
/// point with the periodic sampler on. Renders section `telemetry_<trace>`,
/// a human-readable end-of-run summary table, and file
/// `telemetry_<trace>.jsonl`, the JSONL telemetry document
/// (`reqblock-obs/1` schema). Deterministic: the same trace and scale
/// produce byte-identical JSONL.
pub(crate) fn telemetry_run(opts: &Opts, p: &Point) -> Outcome {
    let sample_every = sample_every(opts);
    let cfg = p.cfg.clone().with_sampling(SampleInterval::Requests(sample_every));
    let mut rec = MemoryRecorder::default();
    replay(&cfg, p.requests().iter().copied(), &mut rec);
    let (trace, cache) = (p.cell("trace"), format!("{}MB", p.cell("cache_mb")));
    let mut t = Table::new(
        format!("Telemetry summary - {trace} / {} / {cache}", cfg.policy.name()),
        &["Kind", "Name", "Value"],
    );
    for (kind, name, value) in summary_rows(&rec) {
        t.push_row(vec![kind, name, value]);
    }
    let meta = [
        ("trace", trace.to_string()),
        ("policy", cfg.policy.name().to_string()),
        ("cache", cache),
        ("scale", format!("{}", opts.scale)),
        ("sample_every", sample_every.to_string()),
    ];
    Outcome {
        sections: vec![(format!("telemetry_{trace}"), vec![t])],
        files: vec![(format!("telemetry_{trace}.jsonl"), to_jsonl(&rec, &meta))],
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_builtin;

    fn tiny_opts() -> Opts {
        Opts { scale: 0.001, threads: 2, out_dir: std::env::temp_dir(), trace_dir: None }
    }

    #[test]
    fn table1_lists_all_parameters() {
        let t = table1().into_single_table();
        assert_eq!(t.rows.len(), 12);
        assert!(t.to_markdown().contains("128 GB"));
        assert!(t.to_markdown().contains("Page level"));
    }

    #[test]
    fn table2_compares_paper_and_measured() {
        let opts = tiny_opts();
        let t = run_builtin("table2", &opts).into_single_table();
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.rows[0][0], "hm_1");
        assert_eq!(t.rows[5][0], "proj_0");
    }

    #[test]
    fn fig2_fig3_produce_rows_per_trace() {
        let opts = tiny_opts();
        let sections = run_builtin("fig2_fig3", &opts).sections;
        let [(fig2, f2t), (fig3, f3t)] = &sections[..] else { panic!("two sections") };
        assert_eq!((fig2.as_str(), fig3.as_str()), ("fig2", "fig3"));
        let (f2t, f3t) = (&f2t[0], &f3t[0]);
        assert_eq!(f2t.rows.len(), 12); // 6 traces x 2 series
        assert_eq!(f3t.rows.len(), 6);
        // CDFs must be monotone across size columns.
        for row in &f2t.rows {
            let vals: Vec<f64> = row[2..].iter().map(|c| c.parse().unwrap()).collect();
            for w in vals.windows(2) {
                assert!(w[0] <= w[1] + 1e-9, "CDF not monotone: {row:?}");
            }
        }
    }

    #[test]
    fn comparison_grid_is_complete() {
        let mut opts = tiny_opts();
        opts.scale = 0.0005;
        let outcome = run_builtin("comparison", &opts);
        let rows: Vec<(&str, usize)> = outcome
            .sections
            .iter()
            .map(|(name, tables)| (name.as_str(), tables[0].rows.len()))
            .collect();
        // 6 traces x 3 sizes for fig8/9, 6 traces for fig10/11, 3 sizes for
        // fig12, one summary row per baseline, one perf row per job.
        assert_eq!(
            rows,
            [
                ("fig8", 18),
                ("fig9", 18),
                ("fig10", 6),
                ("fig11", 6),
                ("fig12", 3),
                ("summary", 3),
                ("perf", 6 * 3 * 4),
            ]
        );
        // Every grid job keeps its own host wall-clock, labelled by cells.
        let perf = &outcome.sections[6].1[0];
        assert_eq!(perf.rows[0][0], "hm_1/16MB/LRU");
        assert!(perf.rows.iter().all(|r| r[1] != "0"));
        assert_eq!(outcome.charts.len(), 2);
    }

    #[test]
    fn fig13_reports_samples_and_shares() {
        let opts = tiny_opts();
        let (name, tables) = run_builtin("fig13", &opts).sections.remove(0);
        assert_eq!(name, "fig13");
        let [shares, samples] = &tables[..] else { panic!("two tables") };
        assert!(!samples.rows.is_empty());
        assert_eq!(shares.rows.len(), 6);
    }

    #[test]
    fn telemetry_run_is_deterministic_and_sampled() {
        let a = run_builtin("telemetry", &tiny_opts());
        let b = run_builtin("telemetry", &Opts { threads: 1, ..tiny_opts() });
        assert_eq!(a, b, "seeded telemetry must be byte-identical");
        let [(name, jsonl)] = &a.files[..] else { panic!("one telemetry file") };
        assert_eq!(name, "telemetry_ts_0.jsonl");
        assert!(jsonl.starts_with("{\"type\":\"run_meta\""));
        for series in ["hit_ratio", "write_amp", "chan_util"] {
            assert!(
                jsonl.contains(&format!("\"series\":\"{series}\"")),
                "missing series {series}"
            );
        }
        assert_eq!(a.sections[0].0, "telemetry_ts_0");
        assert!(!a.into_single_table().rows.is_empty());
    }
}

#[cfg(test)]
mod trace_dir_tests {
    use super::*;
    use reqblock_sim::TraceSource;

    #[test]
    fn source_for_prefers_existing_trace_files() {
        let dir = std::env::temp_dir().join("reqblock_trace_dir_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Export a tiny ts_0 as the "real" trace file.
        let profile = reqblock_trace::profiles::ts_0().scaled(0.001);
        let reqs = reqblock_trace::SyntheticTrace::new(profile).generate_all();
        reqblock_trace::msr::write_file(&dir.join("ts_0.csv"), reqs.iter().copied()).unwrap();

        let opts = Opts { trace_dir: Some(dir.clone()), ..Opts::default() };
        // ts_0.csv exists -> file source; hm_1.csv does not -> synthetic.
        let source = opts.source_for(&reqblock_trace::profiles::ts_0());
        match &source {
            TraceSource::MsrFile(path) => assert!(path.ends_with("ts_0.csv")),
            other => panic!("expected file source, got {other:?}"),
        }
        let hm1 = reqblock_trace::profiles::hm_1();
        assert!(matches!(opts.source_for(&hm1), TraceSource::Synthetic(_)));
        // The file source loads the exported requests.
        assert_eq!(source.requests().unwrap().len(), reqs.len());
        assert!(opts.check_trace_dir(&[("ts_0".to_string(), 1.0)], &[]).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_synthetic_names_the_invalid_trace_and_skips_files() {
        let uses =
            |rel_scale: f64| vec![("bogus".to_string(), 1.0), ("lun_1".to_string(), rel_scale)];
        let mut opts = Opts { scale: 1.0, trace_dir: None, ..Opts::default() };
        assert!(opts.check_synthetic(&uses(2.0)).is_ok());
        // A scenario's relative scale multiplies --scale.
        let err = opts.check_synthetic(&uses(3.0)).unwrap_err();
        assert!(err.starts_with("lun_1 at scale 3: footprint exceeds"), "{err}");
        // A trace file stands in for lun_1, so its profile is never built.
        let dir = std::env::temp_dir().join(format!("reqblock_check_synth_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("lun_1.csv"), "").unwrap();
        opts.trace_dir = Some(dir.clone());
        assert!(opts.check_synthetic(&uses(3.0)).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table2_title_names_file_backed_traces_only() {
        let dir = std::env::temp_dir().join(format!("reqblock_table2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = Opts { scale: 0.001, trace_dir: Some(dir.clone()), ..Opts::default() };
        let title = || crate::scenario::run_builtin("table2", &opts).into_single_table().title;
        // No file in the directory: the synthetic title, unchanged.
        assert_eq!(title(), "Table 2 - Trace specifications (synthetic, scale 0.001)");
        let profile = reqblock_trace::profiles::ts_0().scaled(0.001);
        let reqs = reqblock_trace::SyntheticTrace::new(profile).generate_all();
        reqblock_trace::msr::write_file(&dir.join("ts_0.csv"), reqs.iter().copied()).unwrap();
        assert_eq!(
            title(),
            "Table 2 - Trace specifications (synthetic, scale 0.001; trace files: ts_0)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
