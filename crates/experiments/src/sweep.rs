//! The barrier-free full sweep behind `repro all`.
//!
//! The per-figure entry points each run their own job pool, which puts a
//! barrier between figures: the last straggler of figure N gates every job
//! of figure N+1, and on a multi-core host the tail of each pool leaves
//! workers idle. [`run_all`] removes those barriers by planning every
//! figure up front — the probed figures through their `*_probe` halves in
//! [`figures`](crate::figures), the experiment grids (Figure 7, the
//! comparison grid and the extensions) through the [`scenario`] planner
//! over the committed `scenarios/*.toml` files — submitting all tasks into one
//! [`run_task_pool`], and running the pure builds afterwards. Result
//! routing is order-preserving — each task writes into its own
//! pre-allocated slot — so the emitted tables are byte-identical to the
//! sequential per-figure path at any thread count, and each section's
//! [`scenario::section_digest`] proves it.
//!
//! The task list leads with the Table 2 statistics probes: they touch every
//! workload first, so the shared trace cache (`reqblock_trace::shared`) is
//! warmed once per (source, scale) and every later job replays the same
//! `Arc<[Request]>` slice zero-copy.

use crate::figures::{
    fig13_build, fig13_probe, fig23_build, fig23_probe, per_trace_tasks, table1, table2_build,
    table2_stats, take_slots, telemetry, Opts,
};
use crate::report::Table;
use crate::scenario::{self, plan_builtin};
use reqblock_sim::{run_task_pool, Task};
use std::sync::OnceLock;

/// The trace instrumented by the sweep's telemetry run.
pub const TELEMETRY_TRACE: &str = "ts_0";

/// The built-in scenarios `repro all` plans, in task-submission and
/// emission order: the paper's figure grids (Figure 7, the comparison)
/// run and emit before the Figure 13 probes; the extension grids follow.
pub const ALL_SCENARIOS: [&str; 8] =
    ["fig7", "comparison", "tails", "wear", "ablations", "faults", "qdepth", "load"];

/// How many of [`ALL_SCENARIOS`] precede the Figure 13 probes.
const PAPER_GRIDS: usize = 2;

/// Every section `repro all` emits, in emission order. The canonical
/// list: the `repro` binary's `all`/`export` section handling and the
/// sweep tests both derive from it, so they cannot drift.
pub const ALL_SECTIONS: [&str; 20] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "summary",
    "perf",
    "fig13",
    "tails",
    "wear",
    "ablations",
    "faults",
    "qdepth",
    "load",
    "telemetry_ts_0",
];

/// Everything `repro all` emits, in emission order.
pub struct AllArtifacts {
    /// `(section name, tables)` pairs matching the per-figure output files
    /// ([`ALL_SECTIONS`] order).
    pub sections: Vec<(String, Vec<Table>)>,
    /// Mean normalized response time per policy (terminal bar chart).
    pub resp_chart: Vec<(String, f64)>,
    /// Mean normalized hit ratio per policy (terminal bar chart).
    pub hit_chart: Vec<(String, f64)>,
    /// JSONL telemetry document of the instrumented [`TELEMETRY_TRACE`] run.
    pub telemetry_jsonl: String,
    /// Per-section [`scenario::section_digest`] values in emission order
    /// ([`scenario::UNSTABLE_SECTIONS`] skipped) — the byte-identity
    /// fingerprint the thread-scaling gate compares.
    pub digests: Vec<(String, u64)>,
}

/// Run every figure, table, and extension of `repro all` on one shared,
/// barrier-free work pool with `opts.threads` workers.
pub fn run_all(opts: &Opts) -> AllArtifacts {
    let profiles = opts.profiles();
    // Result slots for the probed figures and the telemetry run. Declared
    // before the task list so the tasks' borrows stay valid until the pool
    // has drained.
    let table2_slots: Vec<OnceLock<_>> = profiles.iter().map(|_| OnceLock::new()).collect();
    let fig23_slots: Vec<OnceLock<_>> = profiles.iter().map(|_| OnceLock::new()).collect();
    let fig13_slots: Vec<OnceLock<_>> = profiles.iter().map(|_| OnceLock::new()).collect();
    let telemetry_slot: OnceLock<(String, Table)> = OnceLock::new();
    let probe_table2 = table2_stats;
    let probe_fig23 = fig23_probe;
    let probe_fig13 = fig13_probe;
    let plans: Vec<scenario::ScenarioPlan> =
        ALL_SCENARIOS.iter().map(|name| plan_builtin(name, opts)).collect();

    // One flat task list. Tasks are claimed in order, so the cheap Table 2
    // statistics probes run first and warm the shared trace cache for the
    // simulation grids behind them.
    let mut tasks = Vec::new();
    tasks.extend(per_trace_tasks("table2", opts, &profiles, &table2_slots, &probe_table2));
    tasks.extend(per_trace_tasks("fig2_fig3", opts, &profiles, &fig23_slots, &probe_fig23));
    for plan in &plans[..PAPER_GRIDS] {
        tasks.extend(plan.tasks());
    }
    tasks.extend(per_trace_tasks("fig13", opts, &profiles, &fig13_slots, &probe_fig13));
    for plan in &plans[PAPER_GRIDS..] {
        tasks.extend(plan.tasks());
    }
    tasks.push(Task::new(format!("telemetry/{TELEMETRY_TRACE}"), || {
        let ok = telemetry_slot.set(telemetry(opts, TELEMETRY_TRACE)).is_ok();
        debug_assert!(ok, "telemetry slot filled twice");
    }));
    run_task_pool(tasks, opts.threads);

    // Pure builds, in the emission order of `repro all`.
    let (fig2_t, fig3_t) = fig23_build(take_slots(fig23_slots));
    let (fig13_samples, fig13_shares) = fig13_build(opts, take_slots(fig13_slots));
    let (telemetry_jsonl, telemetry_table) =
        telemetry_slot.into_inner().expect("pool task must have filled the telemetry slot");
    let mut sections = vec![
        ("table1".to_string(), vec![table1()]),
        ("table2".to_string(), vec![table2_build(opts, take_slots(table2_slots))]),
        ("fig2".to_string(), vec![fig2_t]),
        ("fig3".to_string(), vec![fig3_t]),
    ];
    let mut grids: Vec<_> = plans.into_iter().map(scenario::ScenarioPlan::finish).collect();
    // Only the comparison grid draws charts: response time, then hit ratio.
    let charts: Vec<_> = grids.iter_mut().flat_map(|o| std::mem::take(&mut o.charts)).collect();
    let [(_, resp_chart), (_, hit_chart)]: [_; 2] =
        charts.try_into().unwrap_or_else(|_| panic!("expected the comparison grid's two charts"));
    let extensions = grids.split_off(PAPER_GRIDS);
    sections.extend(grids.into_iter().flat_map(|o| o.sections)); // fig7, fig8..perf
    sections.push(("fig13".to_string(), vec![fig13_shares, fig13_samples]));
    sections.extend(extensions.into_iter().flat_map(|o| o.sections)); // tails..load
    sections.push((format!("telemetry_{TELEMETRY_TRACE}"), vec![telemetry_table]));
    let digests = sections
        .iter()
        .filter(|(name, _)| !scenario::UNSTABLE_SECTIONS.contains(&name.as_str()))
        .map(|(name, tables)| (name.clone(), scenario::section_digest(tables)))
        .collect();
    AllArtifacts { sections, resp_chart, hit_chart, telemetry_jsonl, digests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn run_all_covers_every_section_once() {
        let opts =
            Opts { scale: 0.001, threads: 2, out_dir: PathBuf::from("/tmp"), trace_dir: None };
        let art = run_all(&opts);
        let names: Vec<&str> = art.sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ALL_SECTIONS);
        for (name, tables) in &art.sections {
            assert!(!tables.is_empty(), "{name} has no tables");
            for t in tables {
                assert!(!t.rows.is_empty(), "{name} has an empty table");
            }
        }
        assert_eq!(art.resp_chart.len(), 4);
        assert_eq!(art.hit_chart.len(), 4);
        assert!(art.telemetry_jsonl.starts_with("{\"type\":\"run_meta\""));
        // Digests cover every section except the wall-clock perf appendix.
        assert_eq!(art.digests.len(), ALL_SECTIONS.len() - 1);
        assert!(art.digests.iter().all(|(n, _)| n != "perf"));
    }
}
