//! Fuzz-style property tests for the three text parsers that read user
//! input: the scenario TOML subset (`toml::parse`), the scenario schema
//! on top of it (`Scenario::parse`), and the MSR trace CSV reader
//! (`msr::parse_str`). Arbitrary bytes (lossily decoded to UTF-8) and
//! token soups shaped like each format must come back as `Ok` or `Err` —
//! never a panic, in debug or release builds. Every request of an `Ok`
//! MSR parse must also cover a sane page range: release builds wrap on
//! overflow, so a byte range past `u64::MAX` shows there only as a page
//! count out of proportion to its length.

use proptest::prelude::*;
use reqblock_experiments::scenario::{toml, Scenario};
use reqblock_trace::{msr, PAGE_SIZE};

/// Up to `max` arbitrary bytes, lossily decoded (invalid sequences become
/// U+FFFD).
fn lossy_text(max: usize) -> BoxedStrategy<String> {
    proptest::collection::vec(any::<u8>(), 0..max)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
        .boxed()
}

/// Mostly a pick from `pool`; one time in four a few arbitrary lossy bytes.
fn token(pool: &'static [&'static str]) -> BoxedStrategy<String> {
    let pick = move || (0usize..pool.len()).prop_map(move |i| pool[i].to_string());
    prop_oneof![pick(), pick(), pick(), lossy_text(6)].boxed()
}

/// Bare names: TOML section headers and keys.
const TOML_NAMES: [&str; 13] = [
    "scenario", "axes", "output", "name", "kind", "trace", "policy", "qdepth", "delta",
    "arrival", "columns", "labels", "\u{e9}",
];

/// Value fragments, concatenated without separators — so a delimiter is
/// often followed directly by multi-byte characters, where error
/// previews slice the line.
const TOML_VALUES: [&str; 30] = [
    ",", "]", "[", "\"", "\\", "#", " ", "\u{e9}", "\u{e9}\u{e9}\u{e9}", "\u{65e5}\u{672c}",
    "\u{1f600}", "1", "-7", "1.5", "1e9", "true", "\"grid\"", "\"ts_0\"", "\"LRU\"",
    "\"Req-block\"", "\"tails\"", "[1, 2]", "\"poisson:2\"", "\"bursty:1\"", "\"poisson:\"",
    "\"bursty:inf\"", "\"poisson:-1e9\"", "\"poisson:NaN\"", "\":\u{e9}\"", "poisson:0.25",
];

/// A TOML-subset document: section headers, `key = value` lines whose
/// values are fragment runs, and free token soup.
fn toml_doc() -> BoxedStrategy<String> {
    let values = || proptest::collection::vec(token(&TOML_VALUES), 0..6);
    let line = prop_oneof![
        (token(&TOML_NAMES), values()).prop_map(|(key, v)| format!("{key} = {}", v.concat())),
        token(&TOML_NAMES).prop_map(|name| format!("[{name}]")),
        values().prop_map(|t| t.join(" ")),
    ];
    proptest::collection::vec(line, 0..12).prop_map(|lines| lines.join("\n")).boxed()
}

/// Numeric MSR fields: small values, a real filetime, timestamps at and
/// just past the `u64::MAX / 100` tick span that overflows nanoseconds,
/// and the first size past a request's `u32` length.
const MSR_NUMBERS: [&str; 10] = [
    "0", "1", "4096", "128166372003061629", "18446744073709551615", "18446744073709551615",
    "184467440737095516", "4294967296", "-1", "",
];

/// Op-type fields, mostly valid.
const MSR_OPS: [&str; 6] = ["Read", "Write", "Read", "Write", "write", "Trim"];

/// MSR CSV: lines of comma-joined `timestamp,host,disk,op,offset,size,rt`
/// fields drawn per position, some lines truncated; half the lines are
/// whole records over `MSR_NUMBERS` alone, so that `Ok` parses often carry
/// offsets and sizes at the `u64` and `u32` limits.
fn msr_csv() -> BoxedStrategy<String> {
    let num = || token(&MSR_NUMBERS);
    let soup = (num(), token(&MSR_OPS), num(), num(), 4usize..8).prop_map(
        |(ts, op, offset, size, n)| {
            [ts.as_str(), "h", "0", op.as_str(), offset.as_str(), size.as_str(), "0"][..n]
                .join(",")
        },
    );
    let pick = || (0..MSR_NUMBERS.len()).prop_map(|i| MSR_NUMBERS[i]);
    let record = (pick(), pick(), pick())
        .prop_map(|(ts, offset, size)| format!("{ts},h,0,Write,{offset},{size},0"));
    let line = prop_oneof![soup, record];
    proptest::collection::vec(line, 0..16).prop_map(|lines| lines.join("\n")).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn toml_parse_never_panics(bytes in lossy_text(256), text in toml_doc()) {
        let _ = toml::parse(&bytes);
        let _ = toml::parse(&text);
    }

    #[test]
    fn scenario_parse_never_panics(bytes in lossy_text(256), text in toml_doc()) {
        let _ = Scenario::parse(&bytes);
        let _ = Scenario::parse(&text);
        let _ = Scenario::parse(&format!("[scenario]\nname = \"f\"\nkind = \"grid\"\n{text}"));
    }

    #[test]
    fn msr_parse_never_panics(bytes in lossy_text(256), text in msr_csv()) {
        for parsed in [msr::parse_str(&bytes), msr::parse_str(&text)] {
            for r in parsed.iter().flat_map(|reqs| reqs.iter()) {
                let pages = r.page_count();
                let most = u64::from(r.len) / PAGE_SIZE + 2;
                prop_assert!((1..=most).contains(&pages), "{r:?} covers {pages} pages");
            }
        }
    }
}
