//! The bench binaries' contract with `scripts/ab.sh`'s gate table.
//!
//! Runs each binary at a tiny input and checks that its stdout is one
//! JSON document carrying every field the gate table reads, each a finite
//! number. Running them also runs their own assertions: hotpath's replay
//! determinism, sweep's serial-vs-parallel artifact identity and fleet's
//! stream == reference `FleetMetrics`. The workspace has no JSON parser,
//! so fields are found by key.

use std::process::Command;

/// The stdout of `bin` run with `args`, which must exit 0 and print one
/// JSON object.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("bench binary starts");
    assert!(
        out.status.success(),
        "{bin} {args:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert_one_document(&json);
    json
}

/// Panics unless `json`, trimmed, is one `{...}` whose brackets balance
/// outside strings and close only at its last character.
fn assert_one_document(json: &str) {
    let doc = json.trim();
    assert!(doc.starts_with('{'), "stdout is not a JSON object: {doc:.80}");
    let (mut depth, mut in_string, mut escaped) = (0i32, false, false);
    for (i, c) in doc.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth > 0 || i + 1 == doc.len(), "stdout holds more than one document");
            }
            _ => {}
        }
    }
    assert_eq!((depth, in_string), (0, false), "stdout is not a complete document");
}

/// The text of the value of `"key":` in `json`, from its first character
/// through its closing bracket (arrays, objects) or up to the next
/// delimiter (numbers).
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat).unwrap_or_else(|| panic!("no field {key:?}")) + pat.len();
    let value = json[start..].trim_start();
    let end = match value.chars().next() {
        Some(open @ ('[' | '{')) => {
            let close = if open == '[' { ']' } else { '}' };
            let mut depth = 0;
            value
                .char_indices()
                .find_map(|(i, c)| {
                    depth += i32::from(c == open) - i32::from(c == close);
                    (depth == 0).then_some(i + 1)
                })
                .unwrap_or_else(|| panic!("field {key:?} is not closed"))
        }
        _ => value.find([',', '}', ']', '\n']).unwrap_or(value.len()),
    };
    &value[..end]
}

/// The object of the array `json` whose `"name"` is `name`.
fn entry<'a>(array: &'a str, name: &str) -> &'a str {
    let pat = format!("{{\"name\": \"{name}\"");
    let start = array.find(&pat).unwrap_or_else(|| panic!("no entry named {name:?}"));
    let len = array[start..].find('}').expect("entry is closed") + 1;
    &array[start..start + len]
}

/// `"key":` of `json` as a finite number.
fn number(json: &str, key: &str) -> f64 {
    let text = field(json, key).trim();
    let v: f64 = text.parse().unwrap_or_else(|_| panic!("{key:?} is not a number: {text:?}"));
    assert!(v.is_finite(), "{key:?} is not finite: {v}");
    v
}

#[test]
fn hotpath_reports_every_policy_row() {
    let json = run(env!("CARGO_BIN_EXE_hotpath"), &["--scale", "0.001", "--repeats", "1"]);
    for section in ["policies", "queued_policies", "attr_noop_policies"] {
        let array = field(&json, section);
        for policy in ["Req-block", "LRU"] {
            number(entry(array, policy), "median_requests_per_sec");
        }
    }
}

#[test]
fn sweep_reports_both_modes_and_threads() {
    let json = run(env!("CARGO_BIN_EXE_sweep"), &["--scale", "0.001", "--repeats", "1"]);
    assert!(number(&json, "threads") >= 1.0);
    let modes = field(&json, "modes");
    for mode in ["cached_serial", "cached_parallel"] {
        number(entry(modes, mode), "median_s");
    }
}

#[test]
fn fleet_reports_the_ratio_and_stream_throughput() {
    let args = ["--scale", "0.001", "--repeats", "1", "--devices", "2"];
    let json = run(env!("CARGO_BIN_EXE_fleet"), &args);
    number(field(&json, "ratio_stream_over_ref"), "median");
    number(entry(field(&json, "modes"), "fleet_stream"), "median_devices_per_s");
}
