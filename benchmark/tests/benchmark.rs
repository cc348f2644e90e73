//! Every workload run in-process at a small scale: the checks pass, the
//! metrics are exactly the ones `BENCHMARK.json` declares, simulated
//! metrics follow the seed, and the traced run's Chrome trace has one slice
//! per layer pass.

use reqblock_benchmark::{run, Options, Report, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::Command;

const SCALE: f64 = 0.01;

fn run_small(workload: Workload, seed: u64, traced: bool) -> Report {
    let report = run(&Options {
        workload,
        seed,
        seconds: 0.0,
        scale: SCALE,
        traced,
    });
    assert!(
        report.correct(),
        "{} (seed {seed}, traced {traced}): {:?}",
        workload.name(),
        report.failures
    );
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    report
}

fn sim_values(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .filter(|m| m.def.name.starts_with("sim_"))
        .map(|m| (m.def.name, m.value))
        .collect()
}

fn check_workload(workload: Workload) {
    let declared = Declared::load();
    let a = run_small(workload, 0, false);
    assert_eq!(
        emitted(&a),
        declared.end_to_end,
        "{}: end-to-end metrics",
        workload.name()
    );
    assert_eq!(a.value("sim_resp_mean_ms").map(|v| v > 0.0), Some(true));
    let b = run_small(workload, 0, false);
    assert_eq!(
        sim_values(&a),
        sim_values(&b),
        "{}: same seed, same simulated results",
        workload.name()
    );
    let c = run_small(workload, 7, false);
    assert_ne!(
        sim_values(&a),
        sim_values(&c),
        "{}: another seed changes the simulated results",
        workload.name()
    );
    for report in [&a, &c] {
        let line = json::parse(&report.json()).expect("the result line is JSON");
        let keys: Vec<&str> = line.object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    let traced = run_small(workload, 7, true);
    assert_eq!(
        emitted(&traced),
        declared.per_layer,
        "{}: per-layer metrics",
        workload.name()
    );
    let spans = traced.spans.as_ref().expect("traced runs keep spans");
    let doc = json::parse(&spans.chrome_trace(workload.name())).expect("the Chrome trace is JSON");
    let mut slices: BTreeMap<String, usize> = BTreeMap::new();
    for event in doc.get("traceEvents").expect("traceEvents").array() {
        if event.get("ph").map(json::Value::str) == Some("X") {
            *slices
                .entry(event.get("name").expect("slice name").str().to_string())
                .or_default() += 1;
        }
    }
    let rounds = slices["round"];
    assert!(rounds >= 3, "at least three traced rounds");
    for pass in [
        "e2e.replay",
        "e2e.chunked",
        "cache.pass",
        "ftl.pass",
        "ftl.flush_pass",
        "event.pass",
        "pool.1t",
        "pool.2t",
    ] {
        assert_eq!(
            slices.get(pass),
            Some(&rounds),
            "{}: one {pass} slice per round",
            workload.name()
        );
    }
    assert_eq!(slices["device.reset"], 2 * rounds);
    assert_eq!(
        slices["e2e.chunk"] as f64,
        traced.value("engine.chunk_samples").unwrap()
    );
}

#[test]
fn ts0_small_writes() {
    check_workload(Workload::Ts0SmallWrites);
}

#[test]
fn proj0_gc() {
    check_workload(Workload::Proj0Gc);
}

#[test]
fn hm1_reads() {
    check_workload(Workload::Hm1Reads);
}

#[test]
fn fleet_qd8() {
    check_workload(Workload::FleetQd8);
}

/// `(name, unit)` of every metric a report carries.
fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.def.name.to_string(), m.def.unit.to_string()))
        .collect()
}

/// The metrics `BENCHMARK.json` declares, as `(name, unit)`.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Declared {
    fn load() -> Self {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .expect(key)
                .array()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().str().to_string(),
                        m.get("unit").unwrap().str().to_string(),
                    )
                })
                .collect()
        };
        Declared {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }
}

#[test]
fn library_tables_match_benchmark_json() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = doc.get(key).unwrap().array();
        assert_eq!(declared.len(), defs.len(), "{key}");
        for (d, def) in declared.iter().zip(defs) {
            assert_eq!(d.get("name").unwrap().str(), def.name);
            assert_eq!(d.get("unit").unwrap().str(), def.unit);
            assert_eq!(d.get("better").unwrap().str(), def.better);
            assert_eq!(
                d.get("bound").map(json::Value::num),
                def.bound,
                "{}",
                def.name
            );
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .array()
        .iter()
        .map(|w| w.get("name").unwrap().str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn bad_command_lines_exit_2_naming_the_offender() {
    for (args, offender) in [
        (&["--workload", "nope"][..], "nope"),
        (
            &["--workload", "ts0_small_writes", "--bogus", "1"][..],
            "--bogus",
        ),
        (
            &["--workload", "ts0_small_writes", "--seed", "x"][..],
            "--seed",
        ),
        (
            &["--workload", "ts0_small_writes", "--seconds", "-1"][..],
            "--seconds",
        ),
        (
            &["--workload", "ts0_small_writes", "--trace", "2"][..],
            "--trace",
        ),
        (&["--workload"][..], "--workload"),
        (&["--seed", "1"][..], "--workload"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(offender) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
    }
}

/// Just enough JSON to read `BENCHMARK.json`, the result line and the
/// Chrome trace.
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.object().iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        pub fn object(&self) -> &[(String, Value)] {
            match self {
                Value::Obj(o) => o,
                other => panic!("not an object: {other:?}"),
            }
        }
        pub fn array(&self) -> &[Value] {
            match self {
                Value::Arr(a) => a,
                other => panic!("not an array: {other:?}"),
            }
        }
        pub fn str(&self) -> &str {
            match self {
                Value::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
        pub fn num(&self) -> f64 {
            match self {
                Value::Num(n) => *n,
                other => panic!("not a number: {other:?}"),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            src: text,
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        src: &'a str,
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.s.get(self.i).copied() {
                Some(b'{') => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Value::Obj(fields));
                    }
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value()?));
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Value::Obj(fields));
                            }
                            _ => return Err(format!("bad object at byte {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(Value::Arr(items));
                            }
                            _ => return Err(format!("bad array at byte {}", self.i)),
                        }
                    }
                }
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.word("true", Value::Bool(true)),
                Some(b'f') => self.word("false", Value::Bool(false)),
                Some(b'n') => self.word("null", Value::Null),
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let text =
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                    text.parse()
                        .map(Value::Num)
                        .map_err(|_| format!("bad number {text:?} at byte {start}"))
                }
            }
        }

        fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
            if self.s[self.i..].starts_with(w.as_bytes()) {
                self.i += w.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if self.s.get(self.i) != Some(&b'"') {
                return Err(format!("expected a string at byte {}", self.i));
            }
            self.i += 1;
            let mut out = String::new();
            loop {
                match self.s.get(self.i).copied() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        let c = self
                            .s
                            .get(self.i + 1)
                            .copied()
                            .ok_or("unterminated escape")?;
                        out.push(match c {
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            b'b' => '\u{8}',
                            b'f' => '\u{c}',
                            b'u' => {
                                let hex = std::str::from_utf8(
                                    self.s.get(self.i + 2..self.i + 6).ok_or("short \\u")?,
                                )
                                .map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                self.i += 4;
                                char::from_u32(code).ok_or("bad \\u escape")?
                            }
                            other => other as char,
                        });
                        self.i += 2;
                    }
                    Some(_) => {
                        let ch = self.src[self.i..].chars().next().expect("non-empty");
                        out.push(ch);
                        self.i += ch.len_utf8();
                    }
                }
            }
        }
    }
}
