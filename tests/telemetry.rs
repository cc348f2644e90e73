//! Golden schema + determinism tests for the JSONL run telemetry.
//!
//! The `reqblock-obs/1` JSONL schema is a contract with external tooling
//! (plot scripts, dashboards): this test pins the line types, their field
//! names, and their field order against a real recorded run, and checks
//! that re-running the same seeded workload yields byte-identical output.
//! Extend the schema by adding fields/types — renames or reorders must
//! bump `SCHEMA_VERSION` and update this test in the same change.
//!
//! No JSON parser exists in this offline workspace, so the checks are
//! structural string assertions; the writer is hand-rolled too, so the
//! two stay honest against each other.

use reqblock::core::ReqBlockConfig;
use reqblock::obs::telemetry::{summary_rows, to_jsonl, SCHEMA_VERSION};
use reqblock::obs::MemoryRecorder;
use reqblock::sim::{
    replay, CacheSizeMb, PolicyKind, SampleInterval, SimConfig, TraceSource,
};
use reqblock::trace::profiles::ts_0;

/// One small recorded run: seeded ts_0 slice, Req-block on the paper
/// device, a sample every 500 requests.
fn record_run() -> (MemoryRecorder, String) {
    let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()))
        .with_sampling(SampleInterval::Requests(2_000));
    // Large enough to fill the 16 MB buffer and force evictions, so the
    // flush-wait span shows up in the telemetry (0.01 never evicts).
    let source = TraceSource::Synthetic(ts_0().scaled(0.05));
    let mut rec = MemoryRecorder::default();
    replay(&cfg, source.requests().unwrap().iter().copied(), &mut rec);
    let meta = [
        ("trace", "ts_0".to_string()),
        ("policy", "Req-block".to_string()),
        ("cache", "16MB".to_string()),
    ];
    let jsonl = to_jsonl(&rec, &meta);
    (rec, jsonl)
}

/// Split `{"type":"point","series":"x",...}` into its `"k":v` fields.
fn fields(line: &str) -> Vec<(&str, &str)> {
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or_else(|| panic!("line is not a JSON object: {line}"));
    // No string value in the schema contains ',' or ':', so a flat split
    // is sound — revisit if run_meta ever carries free-form values.
    inner
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').unwrap_or_else(|| panic!("bad field {kv:?}"));
            (
                k.strip_prefix('"').and_then(|k| k.strip_suffix('"')).unwrap(),
                v,
            )
        })
        .collect()
}

fn is_json_number(v: &str) -> bool {
    !v.is_empty()
        && v.chars().all(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
}

#[test]
fn golden_jsonl_schema() {
    let (_, jsonl) = record_run();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() > 30, "expected a real run, got {} lines", lines.len());

    // Line 1: run_meta with the schema tag, then caller meta in order.
    let meta = fields(lines[0]);
    assert_eq!(meta[0], ("type", "\"run_meta\""));
    assert_eq!(meta[1].0, "schema");
    assert_eq!(meta[1].1, format!("\"{SCHEMA_VERSION}\""));
    assert_eq!(meta[1].1, "\"reqblock-obs/1\"");
    assert_eq!(meta[2].0, "trace");
    assert_eq!(meta[3].0, "policy");
    assert_eq!(meta[4].0, "cache");

    // Every following line is one of the four aggregate types with pinned
    // field names in pinned order; kinds appear grouped in schema order.
    let mut kinds = Vec::new();
    for line in &lines[1..] {
        let f = fields(line);
        let kind = f[0].1;
        assert_eq!(f[0].0, "type");
        match kind {
            "\"point\"" => {
                assert_eq!(f[1].0, "series");
                assert_eq!(f[2].0, "t");
                assert_eq!(f[3].0, "v");
                assert_eq!(f.len(), 4, "{line}");
                assert!(is_json_number(f[2].1), "{line}");
            }
            "\"counter\"" => {
                assert_eq!(f[1].0, "key");
                assert_eq!(f[2].0, "value");
                assert_eq!(f.len(), 3, "{line}");
                assert!(f[2].1.chars().all(|c| c.is_ascii_digit()), "counter is a u64: {line}");
            }
            "\"gauge\"" => {
                assert_eq!(f[1].0, "key");
                assert_eq!(f[2].0, "value");
                assert_eq!(f.len(), 3, "{line}");
                assert!(is_json_number(f[2].1) || f[2].1 == "null", "{line}");
            }
            "\"span\"" => {
                assert_eq!(f[1].0, "key");
                assert_eq!(f[2].0, "count");
                assert_eq!(f[3].0, "total_ns");
                assert_eq!(f[4].0, "max_ns");
                assert_eq!(f[5].0, "mean_ns");
                assert_eq!(f.len(), 6, "{line}");
            }
            other => panic!("unknown line type {other}: {line}"),
        }
        if kinds.last() != Some(&kind) {
            kinds.push(kind);
        }
    }
    assert_eq!(
        kinds,
        vec!["\"point\"", "\"counter\"", "\"gauge\"", "\"span\""],
        "aggregate sections must appear once each, in schema order"
    );
}

#[test]
fn recorded_run_covers_expected_names() {
    let (rec, jsonl) = record_run();
    // At least the three core time series, sampled more than once.
    for series in ["hit_ratio", "write_amp", "chan_util", "irl_pages"] {
        assert!(
            rec.series_points(series).len() >= 2,
            "series {series} missing or single-point"
        );
        assert!(jsonl.contains(&format!("\"series\":\"{series}\"")));
    }
    assert!(jsonl.contains("\"key\":\"requests\""));
    assert!(jsonl.contains("\"key\":\"flash_user_programs\""));
    assert!(jsonl.contains("\"key\":\"flush_wait\""), "flush-wait span must be present");

    // The human summary mirrors the same recorder.
    let rows = summary_rows(&rec);
    assert!(rows.iter().any(|(k, n, _)| k == "span" && n == "flush_wait"));
    assert!(rows.iter().any(|(k, n, _)| k == "series" && n == "hit_ratio"));
}

#[test]
fn same_seed_twice_is_byte_identical() {
    let (_, a) = record_run();
    let (_, b) = record_run();
    assert_eq!(a, b, "identical seeded runs must serialize to identical bytes");
}
