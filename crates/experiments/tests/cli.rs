//! Malformed `repro` invocations are usage errors, never panics: each one
//! exits 2 with a stderr line that starts `repro:` and names the bad input.
//! A result that cannot be written after the run exits 1, naming its path.
//! Flags whose effect only the binary shows (`--trace-dir` on `why`,
//! `--rates` on `load`) are checked here too.

use std::path::Path;
use std::process::{Command, Output};

/// Run `repro --scale 0.001 --threads 2 --out <out> <args>`.
fn repro(out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.001", "--threads", "2", "--out"])
        .arg(out)
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Run `repro` and check the usage-error contract: exit status 2 and a
/// `repro:` stderr line naming `names`.
fn rejects(out: &Path, args: &[&str], names: &str) {
    let run = repro(out, args);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "repro {args:?}: want exit 2, stderr:\n{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("repro:") && l.contains(names)),
        "repro {args:?}: no `repro:` line naming {names:?} in stderr:\n{stderr}"
    );
}

#[test]
fn malformed_invocations_exit_2_naming_the_bad_input() {
    let out = std::env::temp_dir().join(format!("reqblock_cli_{}", std::process::id()));
    std::fs::create_dir_all(&out).unwrap();
    let path = |name: &str| out.join(name).to_str().unwrap().to_string();
    let (missing_dir, missing_toml, export_to, plain_file, uniform_toml) = (
        path("missing"),
        path("missing.toml"),
        path("bogus.csv"),
        path("plain"),
        path("uniform.toml"),
    );
    std::fs::write(&plain_file, "").unwrap();
    let grid = |axes: &str| {
        format!("[scenario]\nname = \"u\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n{axes}")
    };
    std::fs::write(&uniform_toml, grid("policy = \"LRU\"\narrival = [\"uniform:1\"]\n")).unwrap();
    // An output section names the output files, so it must not leave --out.
    let (escaping_toml, empty_toml) = (path("escaping.toml"), path("empty.toml"));
    for (file, section) in [(&escaping_toml, "../escaped"), (&empty_toml, "")] {
        let output = format!("policy = \"LRU\"\n[output]\nsection = \"{section}\"\n");
        std::fs::write(file, grid(&output)).unwrap();
    }

    let cases: [(&[&str], &str); 14] = [
        (&["telemetry", "bogus"], "bogus"),
        (&["--trace-dir", &missing_dir, "table2"], &missing_dir),
        (&["--trace-dir", &plain_file, "table2"], &plain_file),
        (&["export", "bogus", &export_to], "bogus"),
        (&["--depths", "0", "qdepth"], "--depths"),
        (&["run", &missing_toml], &missing_toml),
        (&["frobnicate"], "frobnicate"),
        // A sweep flag is a usage error on any command but its own.
        (&["--depths", "1,2", "tails"], "--depths"),
        (&["--rates", "2", "qdepth"], "--rates"),
        (&["--devices", "4", "why"], "--devices"),
        (&["run", &uniform_toml], "uniform:1"),
        (&["run", &escaping_toml], "output.section \"../escaped\""),
        (&["run", &empty_toml], "output.section \"\""),
        // The last --out wins: a regular file cannot hold results.
        (&["--out", &plain_file, "table1"], &format!("--out: {plain_file}")),
    ];
    for (args, names) in cases {
        rejects(&out, args, names);
    }
    assert!(!Path::new(&export_to).exists(), "a rejected export writes nothing");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_result_that_cannot_be_written_exits_1_naming_its_path() {
    let out = std::env::temp_dir().join(format!("reqblock_cli_write_{}", std::process::id()));
    let blocked = out.join("why.md");
    std::fs::create_dir_all(&blocked).unwrap();
    let run = repro(&out, &["why"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "want exit 1, stderr:\n{stderr}");
    let named = format!("repro: {}: ", blocked.display());
    assert!(stderr.lines().any(|l| l.starts_with(&named)), "no line naming {named:?}:\n{stderr}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn trace_files_beyond_a_device_exit_2_naming_the_file() {
    let out = std::env::temp_dir().join(format!("reqblock_cli_range_{}", std::process::id()));
    // A two-line ts_0.csv whose first request reads at `offset` bytes.
    let trace_dir = |name: &str, offset: u64| {
        let dir = out.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let csv = format!(
            "128166372003061629,ts,0,Read,{offset},4096,0\n\
             128166372003061630,ts,0,Write,0,4096,0\n"
        );
        std::fs::write(dir.join("ts_0.csv"), csv).unwrap();
        dir.to_str().unwrap().to_string()
    };
    // 1 TiB is LPN 268435456: past the 128 GB paper device.
    let tib = trace_dir("tib", 1 << 40);
    let named = format!("{tib}/ts_0.csv: LPN 268435456 ");
    rejects(&out, &["--trace-dir", &tib, "telemetry", "ts_0"], &named);
    // 4 GiB is LPN 1048576: inside the paper device, so `telemetry` runs,
    // but past the faults sweep's pressured device.
    let gib = trace_dir("gib", 4 << 30);
    let named = format!("{gib}/ts_0.csv: LPN 1048576 ");
    rejects(&out, &["--trace-dir", &gib, "faults"], &named);
    let run = repro(&out, &["--trace-dir", &gib, "telemetry", "ts_0"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn trace_dir_reaches_why_and_is_rejected_by_fleet() {
    let out = std::env::temp_dir().join(format!("reqblock_cli_why_{}", std::process::id()));
    // 3,000 sequential 64 KiB writes: nothing like the synthetic ts_0 mix.
    let dir = out.join("traces");
    std::fs::create_dir_all(&dir).unwrap();
    let csv: String = (0..3000u64)
        .map(|i| format!("{},ts,0,Write,{},65536,0\n", 128166372003061629 + i * 1000, i * 65536))
        .collect();
    std::fs::write(dir.join("ts_0.csv"), csv).unwrap();
    let dir = dir.to_str().unwrap();
    let why_md = |sub: &str, extra: &[&str]| {
        let out = out.join(sub);
        let run = repro(&out, &[extra, &["why"]].concat());
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        std::fs::read_to_string(out.join("why.md")).unwrap()
    };
    assert_ne!(why_md("synthetic", &[]), why_md("file", &["--trace-dir", dir]));
    rejects(&out, &["--trace-dir", dir, "fleet"], "--trace-dir");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn rates_replace_the_poisson_steps_and_keep_the_bursty_row() {
    let out = std::env::temp_dir().join(format!("reqblock_cli_rates_{}", std::process::id()));
    let run = repro(&out, &["--rates", "0.5,2", "load"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let csv = std::fs::read_to_string(out.join("load.csv")).unwrap();
    // Per policy: poisson 0.5x, poisson 2x, bursty 1x (after the `# title`
    // and header lines).
    let rows: Vec<Vec<&str>> =
        csv.lines().skip(2).filter(|l| !l.is_empty()).map(|l| l.split(',').collect()).collect();
    assert_eq!(rows.len(), 12, "{csv}");
    let steps = [["poisson", "0.5x"], ["poisson", "2x"], ["bursty", "1x"]];
    for (row, step) in rows.iter().zip(steps.iter().cycle()) {
        assert_eq!(row[1..3], *step, "{csv}");
    }
    let _ = std::fs::remove_dir_all(&out);
}
