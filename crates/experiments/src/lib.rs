//! Experiment harness regenerating every table and figure of the paper.
//!
//! Every experiment is a [`sweep::Plan`] that renders one
//! [`sweep::Outcome`]; [`sweep::run`] drains any set of plans on one
//! barrier-free work pool. The experiments that are code are plans built
//! by these functions:
//!
//! | function | artifact |
//! |----------|----------|
//! | `figures::table1` | Table 1 — SSDsim settings |
//! | `figures::table2` | Table 2 — trace specifications (paper vs measured) |
//! | `figures::fig2_fig3` | Figures 2 and 3 — insert/hit CDFs, large-request hits |
//! | `figures::fig13` | Figure 13 — Req-block list occupancy over time |
//! | `figures::telemetry` | one instrumented run: JSONL telemetry + summary |
//! | `extensions::why` | X7 — tail forensics: attribution, trace files, shards |
//! | `extensions::fleet` | X8/X8b — fleet QoS, noisy neighbors, streaming scaling |
//!
//! Every experiment grid — Figure 7 (`scenarios/fig7.toml`), the Figures
//! 8-12 comparison (`scenarios/comparison.toml`) and the one-table
//! extensions (tails, wear, ablations, faults, qdepth, load: plain `grid`
//! files) — is a committed `scenarios/*.toml` file lowered by the one
//! [`scenario`] compiler into a plan and rendered by its kind's report.
//! The `repro` binary exposes all of them as subcommands (the grid
//! subcommands run the builtin scenario of the same name), runs each
//! command's plans through [`sweep::run`] and writes the outcome into
//! `results/`. `repro all` runs [`sweep::all_plans`]; `repro run <file>`
//! executes any scenario file.

pub mod extensions;
pub mod figures;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use figures::Opts;
pub use report::Table;
