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
