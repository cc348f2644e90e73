//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale F] [--full] [--threads N] [--out DIR] [--trace-dir DIR] \
//!       [--depths D1,D2,...] [--rates R1,R2,...] [--devices N1,N2,...] <command>
//!
//! commands:
//!   table1      Table 1  (SSD configuration)
//!   table2      Table 2  (trace specifications, paper vs measured)
//!   fig2        Figure 2 (insert/hit CDFs vs request size)
//!   fig3        Figure 3 (large-request hit statistics)
//!   fig13       Figure 13 (list occupancy over time)
//!
//!   grid subcommands — each runs the builtin scenario of the same name
//!   (scenarios/<name>.toml), exactly like `run scenarios/<name>.toml`:
//!   fig7        Figure 7 (delta sensitivity)
//!   comparison  Figures 8-12 + summary + perf in one pass (the grid is shared)
//!   fig8..fig12 the comparison grid, emitting only that figure
//!   tails       extension: response-time percentiles per policy
//!   wear        extension: GC activity and write amplification
//!   ablations   extension: Req-block design-choice ablations (A1-A4)
//!   faults      extension: seeded fault-rate sweep (retries, bad blocks,
//!               remapped pages, device health)
//!   qdepth      extension: X5 response time vs host queue depth per
//!               policy, queued submit mode (default depths 1-32;
//!               `--depths 1,2,4,...` replaces the qdepth axis)
//!   load        extension: X6 latency vs offered throughput — the ts_0
//!               request mix re-timed by open-loop Poisson/bursty arrival
//!               processes, p50/p99/p99.9 per policy and offered rate
//!               (default Poisson multipliers 0.25x-8x plus a bursty 1x
//!               row; `--rates 0.5,2,...` replaces the arrival axis's
//!               `poisson:*` values and keeps the bursty one after them)
//!
//!   why         tail forensics: per-component latency attribution across
//!               policy x depth x offered load, plus Perfetto-loadable
//!               trace JSON and size-rotated telemetry shards per point
//!   fleet       extension: X8 fleet-scale multi-tenant QoS — N independent
//!               devices under a blended three-tenant mix, per-tenant and
//!               fleet-wide p50/p99/p999 plus a noisy-neighbor delta per
//!               placement x device-count point, with per-device telemetry
//!               shards (default fleets 4 and 16 devices;
//!               `--devices 4,16,...` picks the grid)
//!   telemetry   instrumented example run: JSONL time series + summary
//!               (optionally `telemetry <trace>`; default ts_0)
//!   run         run a declarative scenario file: run <scenario.toml>
//!               (see scenarios/ and the EXPERIMENTS.md scenario guide)
//!   --list      enumerate the built-in scenarios and any scenarios/*.toml
//!               files with their axes and estimated job counts
//!   export      export a synthetic trace as MSR CSV: export <trace> <path>
//!   all         everything above but why and fleet (paper artifacts +
//!               extensions) on one job pool
//! ```
//!
//! Every command but `--list` and `export` runs its experiments as plans
//! on one barrier-free job pool (`sweep::run`), then writes the outcome
//! under `--out` (created first; exit 2 if it cannot be) and prints a
//! `[scenario <name>: <n> jobs in <t>s]` line and one `[digest <section>
//! <hex>]` line per section whose bytes are stable. A result that cannot
//! be written exits 1, naming its path.
//!
//! `--scale` shrinks each trace's request count (default 0.05). `--full`
//! is shorthand for `--scale 1.0` — the paper's exact request counts
//! (several minutes of wall time on one core). `--threads N` sets the
//! worker count; it defaults to the host's available parallelism, and
//! `--threads 1` is the explicit serial mode. Tables and telemetry are
//! byte-identical at every thread count. `--depths`, `--rates` and
//! `--devices` belong to `qdepth`, `load` and `fleet`; any other command
//! rejects them, and `fleet` rejects `--trace-dir` (its tenants are
//! synthetic).

use reqblock_experiments::report::{bar_chart, section_files};
use reqblock_experiments::scenario::{self, AxisValues};
use reqblock_experiments::sweep::{self, Outcome, Plan};
use reqblock_experiments::{extensions, figures, figures::Opts};
use std::process::ExitCode;
use std::time::Instant;

/// Counting allocator so `repro fleet` can report peak memory per scaling
/// point (the X8b zero-materialization evidence). Counter overhead is two
/// relaxed atomic RMWs per allocation; the simulator hot path is
/// allocation-free, so tables are unaffected.
#[global_allocator]
static ALLOC: reqblock_obs::CountingAlloc = reqblock_obs::CountingAlloc::new();

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale F] [--full] [--threads N] [--out DIR] [--trace-dir DIR] \
         [--depths D1,D2,...] [--rates R1,R2,...] [--devices N1,N2,...] \
         <table1|table2|fig2|fig3|fig7|comparison|fig8|fig9|fig10|fig11|fig12|fig13|\
          tails|wear|ablations|faults|qdepth|load|why|fleet|telemetry|run|export|all|--list>\n\
         --threads defaults to the host's available parallelism; \
         --threads 1 is the explicit serial mode (identical output)\n\
         --depths picks the qdepth sweep's queue-depth grid (default 1,2,4,8,16,32)\n\
         --rates picks the load sweep's Poisson rate multipliers \
         (default 0.25,0.5,1,2,4,8; the bursty 1x row stays)\n\
         --devices picks the fleet sweep's device counts (default 4,16)\n\
         run <scenario.toml> compiles a declarative scenario into the job pool; \
         --list shows every known scenario with its axes and job count"
    );
    std::process::exit(2);
}

/// Report a CLI error that names the offending flag or argument, then
/// print the usage text and exit 2.
fn fail(msg: &str) -> ! {
    eprintln!("repro: error: {msg}");
    usage();
}

/// The value operand of `flag`, or an error naming the flag.
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| fail(&format!("{flag} requires a value")))
}

/// Parse one value for `flag`, or an error naming both flag and value.
fn parse_flag<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| fail(&format!("{flag}: cannot parse {v:?}")))
}

/// Parse a non-empty comma-separated list for `flag`.
fn parse_list<T: std::str::FromStr>(flag: &str, v: &str) -> Vec<T> {
    if v.trim().is_empty() {
        fail(&format!("{flag}: empty list"));
    }
    v.split(',').map(|x| parse_flag(flag, x.trim())).collect()
}

/// Extra CLI state that does not belong in the library-level [`Opts`].
#[derive(Default)]
struct CliExtras {
    /// Queue-depth axis for `qdepth` (`--depths`); `None` = the builtin
    /// scenario's.
    depths: Option<Vec<u32>>,
    /// Poisson rate multipliers for `load` (`--rates`); `None` = the
    /// builtin scenario's `arrival` axis.
    rates: Option<Vec<f64>>,
    /// Device counts for `fleet` (`--devices`); `None` = the default
    /// [`extensions::FLEET_DEVICES`].
    devices: Option<Vec<usize>>,
}

/// Parse flags (anywhere on the line) and positional operands. The first
/// positional is the command; the rest are its operands.
fn parse_args() -> (Opts, CliExtras, Vec<String>) {
    let mut opts = Opts::default();
    let mut extras = CliExtras::default();
    let mut pos: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--depths" => {
                let v = flag_value(&mut args, "--depths");
                let depths: Vec<u32> = parse_list("--depths", &v);
                if depths.contains(&0) {
                    fail("--depths: queue depths must be >= 1");
                }
                extras.depths = Some(depths);
            }
            "--rates" => {
                let v = flag_value(&mut args, "--rates");
                let rates: Vec<f64> = parse_list("--rates", &v);
                if rates.iter().any(|&r| !r.is_finite() || r <= 0.0) {
                    fail("--rates: rate multipliers must be finite and > 0");
                }
                extras.rates = Some(rates);
            }
            "--devices" => {
                let v = flag_value(&mut args, "--devices");
                let devices: Vec<usize> = parse_list("--devices", &v);
                if devices.contains(&0) {
                    fail("--devices: device counts must be >= 1");
                }
                extras.devices = Some(devices);
            }
            "--scale" => {
                let v = flag_value(&mut args, "--scale");
                opts.scale = parse_flag("--scale", &v);
                if !opts.scale.is_finite() || opts.scale <= 0.0 {
                    fail("--scale: must be finite and > 0");
                }
            }
            "--full" => opts.scale = 1.0,
            "--threads" => {
                let v = flag_value(&mut args, "--threads");
                opts.threads = parse_flag("--threads", &v);
                if opts.threads == 0 {
                    fail("--threads: must be >= 1");
                }
            }
            "--out" => opts.out_dir = flag_value(&mut args, "--out").into(),
            "--trace-dir" => opts.trace_dir = Some(flag_value(&mut args, "--trace-dir").into()),
            "--list" => pos.push("list".to_string()),
            f if f.starts_with('-') => fail(&format!("unknown flag {f}")),
            _ => pos.push(arg),
        }
    }
    if pos.is_empty() {
        fail("missing command");
    }
    (opts, extras, pos)
}

/// Write one outcome under `--out` — its files, its telemetry shards
/// (rotated at 64 KiB) and each section's `.md`/`.csv` pair, printing the
/// section's tables — then print its charts and the digest of each stable
/// section. `only` keeps one section and drops the charts. Stops at the
/// first write that fails, naming its path.
fn write(opts: &Opts, outcome: &Outcome, only: Option<&str>) -> Result<(), String> {
    let put = |name: &str, contents: &str| {
        let path = opts.out_dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok::<_, String>(path)
    };
    for (name, contents) in &outcome.files {
        println!("[saved {}]", put(name, contents)?.display());
    }
    for (stem, docs) in &outcome.shards {
        let mut writer = reqblock_obs::TelemetryWriter::new(&opts.out_dir, stem, 64 * 1024);
        for doc in docs {
            writer.push_document(doc);
        }
        let paths = writer.finish().map_err(|e| e.to_string())?;
        for p in &paths {
            println!("[saved {}]", p.display());
        }
        println!("[{} telemetry shard(s), rotated at 64 KiB]\n", paths.len());
    }
    let kept = |name: &str| only.is_none_or(|only| only == name);
    for (name, tables) in outcome.sections.iter().filter(|(name, _)| kept(name)) {
        for t in tables {
            println!("{}", t.to_markdown());
        }
        for (file, contents) in section_files(name, tables) {
            put(&file, &contents)?;
        }
        println!("[saved {}/{name}.md and .csv]\n", opts.out_dir.display());
    }
    if only.is_none() {
        for (title, chart) in &outcome.charts {
            println!("{}", bar_chart(title, chart, 40));
        }
    }
    for (name, digest) in outcome.digests().into_iter().filter(|(name, _)| kept(name)) {
        println!("[digest {name} {digest:016x}]");
    }
    Ok(())
}

/// A grid subcommand's scenario: the builtin of the same name (`fig8`..
/// `fig12` run `comparison` and emit only their own figure), with the
/// `--depths`/`--rates` overrides (accepted only by `qdepth`/`load`)
/// applied. `--rates` replaces the `poisson:*` arrival values and keeps
/// the others after them.
fn alias_scenario<'a>(extras: &CliExtras, cmd: &'a str) -> (scenario::Scenario, Option<&'a str>) {
    let (name, only) = match cmd {
        "fig8" | "fig9" | "fig10" | "fig11" | "fig12" => ("comparison", Some(cmd)),
        _ => (cmd, None),
    };
    let mut sc = scenario::builtin(name).expect("every grid subcommand is a builtin scenario");
    if let Some(depths) = &extras.depths {
        let values = AxisValues::Ints(depths.iter().map(|&d| d as i64).collect());
        sc.set_axis("qdepth", values).unwrap_or_else(|e| fail(&format!("--depths: {e}")));
    }
    if let Some(rates) = &extras.rates {
        let Some(AxisValues::Strs(arrivals)) = sc.axis("arrival") else {
            unreachable!("the load scenario declares an arrival axis")
        };
        let kept = arrivals.iter().filter(|a| !a.starts_with("poisson:")).cloned();
        let values = rates.iter().map(|r| format!("poisson:{r}")).chain(kept).collect();
        sc.set_axis("arrival", AxisValues::Strs(values))
            .unwrap_or_else(|e| fail(&format!("--rates: {e}")));
    }
    (sc, only)
}

/// `repro --list`: every built-in scenario plus any extra `scenarios/*.toml`
/// files in the working tree, with axes and estimated job counts.
fn run_list() {
    println!("{:<12} {:<12} {:>6}  axes", "scenario", "kind", "jobs");
    for (name, text) in scenario::BUILTIN_SCENARIOS {
        let sc = scenario::Scenario::parse(text)
            .unwrap_or_else(|e| panic!("builtin scenario {name}: {e}"));
        println!(
            "{:<12} {:<12} {:>6}  {}",
            sc.name,
            sc.kind.name(),
            sc.estimated_jobs(),
            sc.axis_summary()
        );
    }
    let Ok(dir) = std::fs::read_dir("scenarios") else {
        return;
    };
    let builtin_names: Vec<&str> = scenario::BUILTIN_SCENARIOS.iter().map(|(n, _)| *n).collect();
    let mut extra: Vec<_> = dir
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .filter(|p| {
            !p.file_stem()
                .and_then(|s| s.to_str())
                .is_some_and(|s| builtin_names.contains(&s))
        })
        .collect();
    extra.sort();
    for path in extra {
        match std::fs::read_to_string(&path).map_err(|e| e.to_string()).and_then(|text| {
            scenario::Scenario::parse(&text).map_err(|e| e.to_string())
        }) {
            Ok(sc) => println!(
                "{:<12} {:<12} {:>6}  {}  ({})",
                sc.name,
                sc.kind.name(),
                sc.estimated_jobs(),
                sc.axis_summary(),
                path.display()
            ),
            Err(e) => println!("{:<12} (invalid: {e})", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let (opts, extras, pos) = parse_args();
    let (cmd, operands) = (pos[0].as_str(), &pos[1..]);
    // A sweep flag belongs to one command; anywhere else it would be
    // silently dropped.
    for (flag, set, owner) in [
        ("--depths", extras.depths.is_some(), "qdepth"),
        ("--rates", extras.rates.is_some(), "load"),
        ("--devices", extras.devices.is_some(), "fleet"),
    ] {
        if set && cmd != owner {
            fail(&format!("{flag} applies only to {owner}, not {cmd}"));
        }
    }
    // Commands that take positional operands; everything else takes none.
    let expected_operands: std::ops::RangeInclusive<usize> = match cmd {
        "export" => 2..=2,
        "run" => 1..=1,
        "telemetry" => 0..=1,
        _ => 0..=0,
    };
    if !expected_operands.contains(&operands.len()) {
        fail(&format!(
            "{cmd} takes {}-{} operand(s), got {}",
            expected_operands.start(),
            expected_operands.end(),
            operands.len()
        ));
    }
    // The scenarios a grid command runs, with the one section it emits
    // (`None`: all of them). Built first so the trace check below knows
    // every device they replay a trace file on.
    let grids: Vec<(scenario::Scenario, Option<&str>)> = match cmd {
        "fig7" | "comparison" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "tails"
        | "wear" | "ablations" | "faults" | "qdepth" | "load" => vec![alias_scenario(&extras, cmd)],
        "run" => {
            let path = &operands[0];
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("run: cannot read {path}: {e}")));
            let sc = scenario::Scenario::parse(&text)
                .unwrap_or_else(|e| fail(&format!("run: {path}: {e}")));
            vec![(sc, None)]
        }
        "all" => sweep::ALL_SCENARIOS
            .iter()
            .map(|name| (scenario::builtin(name).expect("sweep scenarios are builtin"), None))
            .collect(),
        _ => Vec::new(),
    };
    // Load every trace file --trace-dir supplies for the command before
    // planning, and check it fits every device the command builds for it:
    // a bad or oversized file is a usage error here, not a panic inside
    // the worker pool. A missing directory is one too; only missing files
    // inside it fall back to the synthetic traces.
    if let Some(dir) = opts.trace_dir.as_ref().filter(|d| !d.is_dir()) {
        let why = std::fs::metadata(dir).map_or_else(|e| e.to_string(), |_| "not a directory".into());
        eprintln!("repro: --trace-dir: {}: {why}", dir.display());
        return ExitCode::from(2);
    }
    if cmd == "fleet" && opts.trace_dir.is_some() {
        eprintln!("repro: --trace-dir: fleet tenants replay synthetic streams, not trace files");
        return ExitCode::from(2);
    }
    // The traces the command replays, each at its scale relative to
    // --scale. Before anything is planned, every one that is synthesized is
    // checked at its effective scale and every one a --trace-dir file
    // supplies is loaded: a scale that makes a profile invalid is a usage
    // error here, not a generator panic inside the worker pool.
    let at_scale = |names: &[&str]| names.iter().map(|n| (n.to_string(), 1.0)).collect::<Vec<_>>();
    let mut traces: Vec<(String, f64)> =
        grids.iter().flat_map(|(sc, _)| sc.trace_scales()).collect();
    traces.extend(match cmd {
        "table2" | "fig2" | "fig3" | "fig13" | "all" => {
            reqblock_trace::paper_profiles().into_iter().map(|p| (p.name, 1.0)).collect()
        }
        "why" => at_scale(&["ts_0"]),
        // The three tenants, and the ts_0 mix their rates are calibrated on.
        "fleet" => at_scale(&["hm_1", "usr_0", "proj_0", "ts_0"]),
        "telemetry" => at_scale(&[operands.first().map_or("ts_0", String::as_str)]),
        "export" => at_scale(&[&operands[0]]),
        _ => Vec::new(),
    });
    // `export` synthesizes even when --trace-dir holds a file for its
    // trace, so it reads no file.
    let checked = match cmd {
        "export" => Opts { trace_dir: None, ..opts.clone() },
        _ => opts.clone(),
    };
    if let Err(e) = checked.check_synthetic(&traces) {
        eprintln!("repro: --scale: {e}");
        return ExitCode::from(2);
    }
    let devices: Vec<_> = grids.iter().flat_map(|(sc, _)| sc.pressured_devices(&opts)).collect();
    if let Err((path, e)) = checked.check_trace_dir(&traces, &devices) {
        eprintln!("repro: --trace-dir: {}: {e}", path.display());
        return ExitCode::from(2);
    }
    match cmd {
        "list" => {
            run_list();
            return ExitCode::SUCCESS;
        }
        "export" => {
            let (trace, path) = (&operands[0], &operands[1]);
            let profile = reqblock_trace::profiles::profile_by_name(trace)
                .unwrap_or_else(|| fail(&format!("export: unknown trace {trace:?}")))
                .scaled(opts.scale);
            let trace = reqblock_trace::SyntheticTrace::new(profile);
            let requests = trace.len();
            if let Err(e) = reqblock_trace::msr::write_file(std::path::Path::new(path), trace) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(1);
            }
            println!("wrote {requests} requests to {path} (MSR CSV format)");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    // Every other command writes results: an output directory that cannot
    // be created is a usage error, caught before planning runs anything.
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("repro: --out: {}: {e}", opts.out_dir.display());
        return ExitCode::from(2);
    }
    let t0 = Instant::now();
    let (mut name, mut only) = (cmd.to_string(), None);
    let plans: Vec<Box<dyn Plan + '_>> = match cmd {
        "table1" => vec![Box::new(figures::table1())],
        "table2" => vec![Box::new(figures::table2(&opts))],
        "fig2" | "fig3" => {
            only = Some(cmd);
            vec![Box::new(figures::fig2_fig3(&opts))]
        }
        "fig13" => vec![Box::new(figures::fig13(&opts))],
        "fig7" | "comparison" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "tails"
        | "wear" | "ablations" | "faults" | "qdepth" | "load" | "run" => {
            let (sc, grid_only) = &grids[0];
            let plan =
                scenario::plan(sc, &opts).unwrap_or_else(|e| fail(&format!("{}: {e}", sc.name)));
            (name, only) = (sc.name.clone(), *grid_only);
            vec![Box::new(plan)]
        }
        "why" => vec![Box::new(extensions::why(&opts))],
        "fleet" => {
            let devices = extras.devices.as_deref().unwrap_or(&extensions::FLEET_DEVICES);
            let alloc: extensions::AllocProbe = (|| ALLOC.reset_peak(), || ALLOC.peak_bytes());
            vec![Box::new(extensions::fleet(&opts, devices, Some(alloc)))]
        }
        "telemetry" => {
            let trace = operands.first().map(String::as_str).unwrap_or("ts_0");
            if reqblock_trace::profiles::profile_by_name(trace).is_none() {
                fail(&format!("telemetry: unknown trace {trace:?}"));
            }
            vec![Box::new(figures::telemetry(&opts, trace))]
        }
        "all" => sweep::all_plans(&opts),
        other => fail(&format!("unknown command {other:?}")),
    };
    let jobs: usize = plans.iter().map(|plan| plan.tasks().len()).sum();
    eprintln!(
        "running {name} ({jobs} jobs, {} threads, scale {}) ...",
        opts.threads, opts.scale
    );
    let ran = Instant::now();
    let outcome: Outcome = sweep::run(plans, opts.threads).into_iter().collect();
    println!("[scenario {name}: {jobs} jobs in {:.2}s]", ran.elapsed().as_secs_f64());
    if let Err(e) = write(&opts, &outcome, only) {
        eprintln!("repro: {e}");
        return ExitCode::from(1);
    }
    eprintln!("total {:.1?}", t0.elapsed());
    ExitCode::SUCCESS
}
