//! Experiment harness regenerating every table and figure of the paper.
//!
//! Every experiment is a [`sweep::Plan`] that renders one
//! [`sweep::Outcome`]; [`sweep::run`] drains any set of plans on one
//! barrier-free work pool. Every experiment but two is a committed
//! `scenarios/*.toml` file lowered by the one [`scenario`] compiler into a
//! plan and rendered by its kind's report:
//!
//! | scenario | kind | artifact |
//! |----------|------|----------|
//! | `table2` | `table2` | Table 2 — trace specifications (paper vs measured) |
//! | `fig2_fig3` | `fig2_fig3` | Figures 2 and 3 — insert/hit CDFs, large-request hits |
//! | `fig7` | `fig7` | Figure 7 — delta sensitivity |
//! | `comparison` | `comparison` | Figures 8-12, summary, perf |
//! | `fig13` | `fig13` | Figure 13 — Req-block list occupancy over time |
//! | `tails`, `wear`, `ablations`, `faults`, `qdepth`, `load` | `grid` | the one-table extensions |
//! | `telemetry` | `telemetry` | one instrumented run: JSONL telemetry + summary |
//! | `why` | `why` | X7 — tail forensics: attribution, trace files, shards |
//!
//! The two experiments that are code are `figures::table1` (Table 1 —
//! SSDsim settings; no runs) and `extensions::fleet` (X8/X8b — fleet QoS,
//! noisy neighbors, streaming scaling; its fleet runs each own the pool).
//! The `repro` binary exposes all of them as subcommands (a scenario
//! subcommand runs the builtin of its name), runs each command's plans
//! through [`sweep::run`] and writes the outcome into `results/`. `repro
//! all` runs [`sweep::all_plans`]; `repro run <file>` executes any
//! scenario file.

pub mod extensions;
pub mod figures;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use figures::Opts;
pub use report::Table;
