//! Smoke test for the Chrome `trace_event` export (`repro why`): every
//! emitted document must parse as the JSON shape Perfetto loads, and
//! the complete (`ph:"X"`) slices on each `(pid, tid)` track must be
//! monotone and non-overlapping — sampled-request tracks lay the
//! components back to back, and chip/channel tracks inherit the flash
//! timeline's busy-horizon guarantee.
//!
//! The validator is deliberately hand-rolled (no JSON dependency): the
//! exporter writes one event per line with a fixed key order, so exact
//! string scanning both checks the events and pins that shape.

use reqblock_experiments::{extensions, sweep, Opts};
use std::collections::HashMap;

fn tiny_opts() -> Opts {
    Opts { scale: 0.01, threads: 2, out_dir: std::env::temp_dir(), trace_dir: None }
}

/// Extract the value following `"key":` on this line, up to the next
/// `,` or `}` — enough for the exporter's flat one-line events.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Parse the exporter's fixed-point microsecond notation (`"{}.{:03}"`)
/// back to exact nanoseconds.
fn us_to_ns(v: &str) -> u64 {
    let (whole, frac) = v.split_once('.').expect("ts/dur carry 3 decimals");
    assert_eq!(frac.len(), 3, "exactly µs.3-digit-ns notation: {v:?}");
    whole.parse::<u64>().unwrap() * 1_000 + frac.parse::<u64>().unwrap()
}

#[test]
fn why_traces_parse_and_tracks_never_overlap() {
    let opts = tiny_opts();
    let outcomes = sweep::run(vec![Box::new(extensions::why(&opts))], opts.threads);
    let traces = &outcomes[0].files;
    assert!(!traces.is_empty(), "why must emit trace documents");
    for (stem, doc) in traces {
        // Document frame: a single traceEvents array, one event per line.
        assert!(doc.starts_with("{\"traceEvents\":[\n"), "{stem}: bad header");
        assert!(doc.ends_with("\n]}\n"), "{stem}: bad footer");
        let body = &doc["{\"traceEvents\":[\n".len()..doc.len() - "\n]}\n".len()];

        let mut tracks: HashMap<(u64, u64), u64> = HashMap::new();
        let mut slices = 0usize;
        let mut metadata = 0usize;
        for line in body.lines() {
            let line = line.trim_end_matches(',');
            assert!(line.starts_with('{') && line.ends_with('}'), "{stem}: not an object: {line}");
            let ph = field(line, "ph").unwrap_or_else(|| panic!("{stem}: event without ph"));
            match ph {
                "\"M\"" => {
                    // Metadata names a process or thread.
                    let name = field(line, "name").unwrap();
                    assert!(
                        name == "\"process_name\"" || name == "\"thread_name\"",
                        "{stem}: unknown metadata {name}"
                    );
                    metadata += 1;
                }
                "\"X\"" => {
                    let pid: u64 = field(line, "pid").unwrap().parse().unwrap();
                    let tid: u64 = field(line, "tid").unwrap().parse().unwrap();
                    let ts = us_to_ns(field(line, "ts").unwrap());
                    let dur = us_to_ns(field(line, "dur").unwrap());
                    // Monotone, non-overlapping per track: each slice
                    // starts at or after the previous slice's end.
                    let horizon = tracks.entry((pid, tid)).or_insert(0);
                    assert!(
                        ts >= *horizon,
                        "{stem}: track ({pid},{tid}) overlaps: slice at {ts} ns \
                         before horizon {} ns",
                        *horizon
                    );
                    *horizon = ts + dur;
                    slices += 1;
                }
                other => panic!("{stem}: unexpected phase {other}"),
            }
        }
        assert!(metadata > 0, "{stem}: no process/thread names");
        assert!(slices > 0, "{stem}: no slices");
    }
}
