//! One shape for every experiment, one pool for every run.
//!
//! Every experiment is a [`Plan`]: its [`Plan::tasks`] fill result slots
//! the plan owns, and its [`Plan::finish`] renders one [`Outcome`] from
//! them. [`run`] submits the tasks of every plan it is given into one
//! barrier-free [`run_task_pool`] — the last straggler of one figure never
//! gates the jobs of the next — and then finishes the plans in order.
//! Every experiment but Table 1 and `fleet` is a scenario compiled from a
//! committed `scenarios/*.toml` file ([`plan`](crate::scenario::plan)):
//! one task per grid point, one slot per task, one report over the
//! slots. Result routing is order-preserving — each task writes into its
//! own pre-allocated slot — so every outcome is byte-identical at any
//! thread count, and each section's [`section_digest`] proves it.
//!
//! [`all_plans`] is `repro all`. Its task list leads with the Table 2
//! statistics runs: they touch every workload first, so the shared trace
//! cache (`reqblock_trace::shared`) is warmed once per (source, scale) and
//! every later job replays the same `Arc<[Request]>` slice zero-copy.

use crate::figures::{table1, Opts};
use crate::report::Table;
use crate::scenario::plan_builtin;
use reqblock_cache::fxhash::FxHasher;
use reqblock_sim::{run_task_pool, Task};
use std::hash::Hasher;

/// Sections excluded from digests: their cells carry host wall-clock
/// measurements (the comparison grid's per-job perf appendix, X8b's
/// scaling table), which legitimately vary run to run.
pub const UNSTABLE_SECTIONS: [&str; 2] = ["perf", "fleet"];

/// The stable FxHash digest of one section's tables: markdown and CSV
/// renderings, in table order. Byte-identity proof for the thread-scaling
/// gate — equal digests mean equal bytes on disk.
pub fn section_digest(tables: &[Table]) -> u64 {
    let mut h = FxHasher::default();
    for t in tables {
        h.write(t.to_markdown().as_bytes());
        h.write(t.to_csv().as_bytes());
    }
    h.finish()
}

/// What an experiment renders; `repro` writes it under `--out`.
#[derive(Debug, Default, PartialEq)]
pub struct Outcome {
    /// `(section name, tables)` in emission order, each saved as
    /// `<name>.md` and `<name>.csv`.
    pub sections: Vec<(String, Vec<Table>)>,
    /// `(chart title, labelled values)` for the terminal.
    pub charts: Vec<(String, Vec<(String, f64)>)>,
    /// `(file name, contents)` written as they are.
    pub files: Vec<(String, String)>,
    /// `(stem, JSONL documents)` written as `<stem>.NNN.jsonl` shards
    /// rotated at 64 KiB.
    pub shards: Vec<(String, Vec<String>)>,
}

impl Outcome {
    /// Per-section [`section_digest`]s, skipping [`UNSTABLE_SECTIONS`].
    pub fn digests(&self) -> Vec<(String, u64)> {
        self.sections
            .iter()
            .filter(|(name, _)| !UNSTABLE_SECTIONS.contains(&name.as_str()))
            .map(|(name, tables)| (name.clone(), section_digest(tables)))
            .collect()
    }

    /// The single table of a single-section outcome (panics otherwise).
    pub fn into_single_table(mut self) -> Table {
        assert_eq!(self.sections.len(), 1, "outcome has more than one section");
        let (_, mut tables) = self.sections.pop().expect("one section");
        assert_eq!(tables.len(), 1, "section holds more than one table");
        tables.pop().expect("one table")
    }
}

/// Concatenate outcomes in order.
impl FromIterator<Outcome> for Outcome {
    fn from_iter<It: IntoIterator<Item = Outcome>>(outcomes: It) -> Self {
        let mut all = Outcome::default();
        for o in outcomes {
            all.sections.extend(o.sections);
            all.charts.extend(o.charts);
            all.files.extend(o.files);
            all.shards.extend(o.shards);
        }
        all
    }
}

/// An experiment: tasks that fill the plan's own result slots, and a
/// render of the filled slots.
pub trait Plan: Sync {
    /// One task per unit of work; each writes into a slot of `self`.
    fn tasks(&self) -> Vec<Task<'_>>;
    /// Render the outcome (call once every task has run).
    fn finish(self: Box<Self>) -> Outcome;
}

/// An outcome that needs no work, like Table 1.
impl Plan for Outcome {
    fn tasks(&self) -> Vec<Task<'_>> {
        Vec::new()
    }

    fn finish(self: Box<Self>) -> Outcome {
        *self
    }
}

/// Run every plan's tasks on one pool of `threads` workers, then finish
/// the plans in order.
pub fn run<'o>(plans: Vec<Box<dyn Plan + 'o>>, threads: usize) -> Vec<Outcome> {
    run_task_pool(plans.iter().flat_map(|plan| plan.tasks()).collect(), threads);
    plans.into_iter().map(|plan| plan.finish()).collect()
}

/// Run one plan on its own pool.
pub(crate) fn run_one<'o>(plan: Box<dyn Plan + 'o>, threads: usize) -> Outcome {
    run(vec![plan], threads).pop().expect("one plan, one outcome")
}

/// A boxed plan is a plan, so a function that returns one (like
/// [`crate::extensions::why`]) can be boxed again beside other plans.
impl Plan for Box<dyn Plan + '_> {
    fn tasks(&self) -> Vec<Task<'_>> {
        (**self).tasks()
    }

    fn finish(self: Box<Self>) -> Outcome {
        (*self).finish()
    }
}

/// The builtin scenarios `repro all` plans after Table 1, in
/// task-submission and emission order: the paper's artifacts (Table 2
/// first, so its statistics runs warm the trace cache), the extension
/// grids, then the telemetry run. `why` and `fleet` are not part of it.
pub const ALL_SCENARIOS: [&str; 12] = [
    "table2",
    "fig2_fig3",
    "fig7",
    "comparison",
    "fig13",
    "tails",
    "wear",
    "ablations",
    "faults",
    "qdepth",
    "load",
    "telemetry",
];

/// Every section `repro all` emits, in emission order.
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

/// The plans of `repro all` — Table 1, then every scenario of
/// [`ALL_SCENARIOS`] — in task-submission and emission order.
pub fn all_plans(opts: &Opts) -> Vec<Box<dyn Plan>> {
    let scenarios = ALL_SCENARIOS.iter().map(|name| plan_builtin(name, opts));
    std::iter::once(Box::new(table1()) as Box<dyn Plan>).chain(scenarios).collect()
}

/// Run [`all_plans`] on one pool with `opts.threads` workers and merge
/// their outcomes.
pub fn run_all(opts: &Opts) -> Outcome {
    run(all_plans(opts), opts.threads).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn run_all_covers_every_section_once() {
        let opts =
            Opts { scale: 0.001, threads: 2, out_dir: PathBuf::from("/tmp"), trace_dir: None };
        let all = run_all(&opts);
        let names: Vec<&str> = all.sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ALL_SECTIONS);
        for (name, tables) in &all.sections {
            assert!(!tables.is_empty(), "{name} has no tables");
            for t in tables {
                assert!(!t.rows.is_empty(), "{name} has an empty table");
            }
        }
        let charts: Vec<usize> = all.charts.iter().map(|(_, bars)| bars.len()).collect();
        assert_eq!(charts, [4, 4]);
        let [(name, jsonl)] = &all.files[..] else { panic!("one telemetry file") };
        assert_eq!(name, "telemetry_ts_0.jsonl");
        assert!(jsonl.starts_with("{\"type\":\"run_meta\""));
        assert!(all.shards.is_empty());
        // Digests cover every section except the wall-clock perf appendix.
        let digests = all.digests();
        assert_eq!(digests.len(), ALL_SECTIONS.len() - 1);
        assert!(digests.iter().all(|(n, _)| n != "perf"));
    }
}
