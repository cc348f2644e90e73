//! Integration tests for the declarative scenario subsystem: every
//! `repro all` section must reproduce the pre-refactor tables byte for
//! byte (pinned FxHash digests), scenario output must be thread-count
//! invariant, the committed `scenarios/*.toml` files and the embedded
//! builtins must agree, the TOML-subset writer/parser must round-trip,
//! and the grid planner's job count must equal the axis product.

use proptest::prelude::*;
use reqblock_experiments::scenario::{self, toml, Scenario};
use reqblock_experiments::{sweep, Opts};

fn tiny_opts(threads: usize) -> Opts {
    Opts { scale: 0.001, threads, out_dir: std::env::temp_dir(), trace_dir: None }
}

/// Section digests of every deterministic `repro all` section at
/// `--scale 0.001` (all but the wall-clock `perf`), captured before the
/// experiment grids were re-expressed as scenario files and before Figure
/// 7 moved onto the scenario compiler. Any drift here means a section no
/// longer renders the same table bytes.
const PINNED: [(&str, u64); 19] = [
    ("table1", 0x931d4bffada034db),
    ("table2", 0x417aecaf61dbe9e8),
    ("fig2", 0xb1fbfa51c239682b),
    ("fig3", 0x4612a2ae2f00b9ba),
    ("fig7", 0xe32658b8438316d0),
    ("fig8", 0xbd337c63bdce4125),
    ("fig9", 0x851de0d702c34af6),
    ("fig10", 0xfe2da9bb1094de54),
    ("fig11", 0x60708550b7060e4e),
    ("fig12", 0xffa2cf67f3742657),
    ("summary", 0xcc28dbcd92a1426b),
    ("fig13", 0xed10f874371e0933),
    ("tails", 0x4fbdeb79ac2d4296),
    ("wear", 0xad7a81e3b58b3b08),
    ("ablations", 0x02090e993817c85c),
    ("faults", 0x5df1a26326fe1a9d),
    ("qdepth", 0x339b09e36b43b930),
    ("load", 0x0013853ddd9d794d),
    ("telemetry_ts_0", 0x3228496f6d714ae3),
];

/// The `scenarios/smoke.toml` digest pinned by scripts/check.sh.
const SMOKE_DIGEST: u64 = 0x8b55b878785a2112;

#[test]
fn run_all_matches_pre_refactor_pinned_digests() {
    let art = sweep::run_all(&tiny_opts(2));
    assert_eq!(art.digests.len(), PINNED.len(), "every stable section is pinned");
    for (name, want) in PINNED {
        let got = art.digests.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
        assert_eq!(
            got,
            Some(want),
            "section {name} drifted from the pre-refactor table bytes \
             (got {got:016x?}, want {want:016x})"
        );
    }
}

#[test]
fn scenario_digests_are_thread_count_invariant() {
    for builtin in ["smoke", "wear"] {
        let per_thread: Vec<Vec<(String, u64)>> =
            [1, 2, 4].map(|t| scenario::run_builtin(builtin, &tiny_opts(t)).digests()).into();
        assert_eq!(per_thread[0], per_thread[1], "{builtin}: 1 vs 2 threads");
        assert_eq!(per_thread[0], per_thread[2], "{builtin}: 1 vs 4 threads");
    }
}

#[test]
fn smoke_scenario_digest_is_pinned() {
    let digests = scenario::run_builtin("smoke", &tiny_opts(2)).digests();
    assert_eq!(digests, vec![("smoke".to_string(), SMOKE_DIGEST)]);
}

/// Every committed `scenarios/*.toml` file is an embedded builtin with
/// the same text, and every builtin has its file on disk.
#[test]
fn scenario_files_and_builtins_agree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut on_disk: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let stem = p.file_stem().unwrap().to_str().unwrap().to_string();
            (stem, std::fs::read_to_string(&p).unwrap())
        })
        .collect();
    on_disk.sort();
    let mut builtins: Vec<(String, String)> = scenario::BUILTIN_SCENARIOS
        .iter()
        .map(|(name, text)| (name.to_string(), text.to_string()))
        .collect();
    builtins.sort();
    assert_eq!(on_disk, builtins, "scenarios/*.toml and BUILTIN_SCENARIOS drifted");
}

#[test]
fn scenario_rejections_name_the_problem() {
    let cases = [
        ("[scenario]\nname = \"x\"\nkind = \"nope\"\n[axes]\ntrace = \"ts_0\"\n", "kind"),
        (
            "[scenario]\nname = \"x\"\nkind = \"comparison\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\nqdepth = 4\n",
            "qdepth",
        ),
        (
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\npolicy = []\n",
            "empty",
        ),
        (
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"bogus\"\n\
             policy = \"LRU\"\n",
            "bogus",
        ),
        ("[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\npolicy = \"LRU\"\n", "trace"),
        ("[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\ntrace = \"hm_1\"\npolicy = \"LRU\"\n", "duplicate"),
        (
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\ndelta = 3\n",
            "delta",
        ),
    ];
    for (src, needle) in cases {
        let err = Scenario::parse(src).unwrap_err().to_string();
        assert!(err.to_lowercase().contains(needle), "error {err:?} should mention {needle:?}");
    }
}

// ---- property tests -----------------------------------------------------

fn scalar_value() -> BoxedStrategy<toml::Value> {
    let strings = [
        "",
        "plain",
        "with space",
        "q\"uote",
        "back\\slash",
        "comma, [bracket] = x",
        "# not a comment",
        "tab\there",
    ];
    prop_oneof![
        (0usize..strings.len()).prop_map(move |i| toml::Value::Str(strings[i].to_string())),
        (-1_000_000i64..1_000_000).prop_map(toml::Value::Int),
        Just(toml::Value::Int(i64::MIN)),
        Just(toml::Value::Int(i64::MAX)),
        (-100_000i64..100_000).prop_map(|n| toml::Value::Float(n as f64 / 16.0)),
        Just(toml::Value::Float(1.0e300)),
        any::<bool>().prop_map(toml::Value::Bool),
    ]
    .boxed()
}

fn value() -> BoxedStrategy<toml::Value> {
    prop_oneof![
        scalar_value(),
        proptest::collection::vec(scalar_value(), 0..5).prop_map(toml::Value::Array),
    ]
    .boxed()
}

/// Unique bare names drawn from a fixed pool via a bitmask — duplicate
/// keys/sections are parse errors, so the generator must avoid them.
fn names(pool: &'static [&'static str]) -> BoxedStrategy<Vec<&'static str>> {
    (1u32..(1 << pool.len()))
        .prop_map(move |mask| {
            pool.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, n)| *n).collect()
        })
        .boxed()
}

fn doc() -> BoxedStrategy<toml::Doc> {
    const SECTIONS: [&str; 4] = ["scenario", "axes", "output", "extra-1_section"];
    const KEYS: [&str; 5] = ["name", "kind", "trace", "arrival", "k-9_z"];
    (names(&SECTIONS), proptest::collection::vec((names(&KEYS), value()), 0..24))
        .prop_map(|(sections, entries)| {
            let mut doc = toml::Doc::default();
            for name in &sections {
                doc.sections.push((name.to_string(), Vec::new()));
            }
            // Deal each generated (keys, value) pair round-robin into the
            // sections, keeping keys unique per section.
            for (i, (keys, value)) in entries.iter().enumerate() {
                let section = &mut doc.sections[i % sections.len()].1;
                for key in keys {
                    if !section.iter().any(|(k, _)| k == key) {
                        section.push((key.to_string(), value.clone()));
                    }
                }
            }
            doc
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(doc.to_toml())` must reproduce the document exactly —
    /// values keep their type (Int never becomes Float), order is stable.
    #[test]
    fn toml_writer_parser_round_trip(doc in doc()) {
        let text = doc.to_toml();
        let reparsed = toml::parse(&text)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{text}"));
        prop_assert_eq!(&reparsed, &doc);
        // And the writer is a fixed point: to_toml(parse(to_toml(d))) == to_toml(d).
        prop_assert_eq!(reparsed.to_toml(), text);
    }

    /// A grid scenario's estimated and planned job counts both equal the
    /// product of its axis lengths, whatever the axis subset.
    #[test]
    fn grid_job_count_is_axis_product(
        traces in names(&["hm_1", "ts_0", "proj_0"]),
        policies in names(&["LRU", "BPLRU", "VBBMS", "Req-block"]),
        depths in proptest::collection::vec(1u32..64, 1..4),
        ppm in proptest::collection::vec(0i64..100_000, 1..3),
    ) {
        let mut src = String::from("[scenario]\nname = \"prop\"\nkind = \"grid\"\n\n[axes]\n");
        let quoted = |xs: &[&str]| {
            xs.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(", ")
        };
        src.push_str(&format!("trace = [{}]\n", quoted(&traces)));
        src.push_str(&format!("policy = [{}]\n", quoted(&policies)));
        src.push_str(&format!(
            "qdepth = [{}]\n",
            depths.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
        ));
        src.push_str(&format!(
            "fault_ppm = [{}]\n",
            ppm.iter().map(i64::to_string).collect::<Vec<_>>().join(", ")
        ));
        let sc = Scenario::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let want = traces.len() * policies.len() * depths.len() * ppm.len();
        prop_assert_eq!(sc.estimated_jobs(), want);
        let plan = scenario::plan(&sc, &tiny_opts(1))
            .unwrap_or_else(|e| panic!("plan failed: {e}"));
        prop_assert_eq!(plan.job_count(), want);
    }

    /// Unknown axis names are rejected by every kind, and the error names
    /// the offending axis.
    #[test]
    fn unknown_axes_are_rejected(
        kind in (0usize..3),
        bad in (0usize..4),
    ) {
        const KINDS: [&str; 3] = ["comparison", "fig7", "grid"];
        const BAD: [&str; 4] = ["zdepth", "Policy", "trace2", "cacheMb"];
        let src = format!(
            "[scenario]\nname = \"x\"\nkind = \"{}\"\n[axes]\n{} = 1\n",
            KINDS[kind], BAD[bad]
        );
        let err = Scenario::parse(&src).unwrap_err().to_string();
        prop_assert!(err.contains(BAD[bad]), "{} should name {}", err, BAD[bad]);
    }
}
