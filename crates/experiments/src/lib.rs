//! Experiment harness regenerating every table and figure of the paper.
//!
//! The probe-shaped artifacts are `figures::*` functions that render a
//! [`report::Table`]:
//!
//! | function | paper artifact |
//! |----------|----------------|
//! | `figures::table1` | Table 1 — SSDsim settings |
//! | `figures::table2` | Table 2 — trace specifications (paper vs measured) |
//! | `figures::fig2_fig3` | Figures 2 and 3 — insert/hit CDFs, large-request hits |
//! | `figures::fig13` | Figure 13 — Req-block list occupancy over time |
//!
//! Every experiment grid — Figure 7 (`scenarios/fig7.toml`), the Figures
//! 8-12 comparison (`scenarios/comparison.toml`) and the one-table
//! extensions (tails, wear, ablations, faults, qdepth, load: plain `grid`
//! files) — is a committed `scenarios/*.toml` file lowered by the one
//! [`scenario`] compiler and rendered by its kind's report. The `repro` binary exposes all of them
//! as subcommands (the grid subcommands run the builtin scenario of the
//! same name); results are printed and written into `results/`. `repro
//! all` goes through [`sweep::run_all`], which submits every figure's
//! jobs into one barrier-free work pool and renders identical tables from
//! the pooled results; `repro run <file>` executes any scenario file.

pub mod extensions;
pub mod figures;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use figures::Opts;
pub use report::Table;
