//! Malformed `repro` invocations are usage errors, never panics: each one
//! exits 2 with a stderr line that starts `repro:` and names the bad input.

use std::path::Path;
use std::process::Command;

/// Run `repro --scale 0.001 --out <out> <args>` and check the usage-error
/// contract: exit status 2 and a `repro:` stderr line naming `names`.
fn rejects(out: &Path, args: &[&str], names: &str) {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.001", "--out"])
        .arg(out)
        .args(args)
        .output()
        .expect("repro binary runs");
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
    let (missing_dir, missing_toml, export_to, plain_file) =
        (path("missing"), path("missing.toml"), path("bogus.csv"), path("plain"));
    std::fs::write(&plain_file, "").unwrap();

    let cases: [(&[&str], &str); 7] = [
        (&["telemetry", "bogus"], "bogus"),
        (&["--trace-dir", &missing_dir, "table2"], &missing_dir),
        (&["--trace-dir", &plain_file, "table2"], &plain_file),
        (&["export", "bogus", &export_to], "bogus"),
        (&["--depths", "0", "qdepth"], "--depths"),
        (&["run", &missing_toml], &missing_toml),
        (&["frobnicate"], "frobnicate"),
    ];
    for (args, names) in cases {
        rejects(&out, args, names);
    }
    assert!(!Path::new(&export_to).exists(), "a rejected export writes nothing");
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
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.001", "--out"])
        .arg(&out)
        .args(["--trace-dir", &gib, "telemetry", "ts_0"])
        .output()
        .expect("repro binary runs");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let _ = std::fs::remove_dir_all(&out);
}
