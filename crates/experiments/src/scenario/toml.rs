//! A minimal TOML-subset parser for scenario files.
//!
//! The workspace builds offline (DESIGN.md §3), so scenario files are
//! parsed by this small in-repo parser instead of a crates.io TOML stack,
//! in the spirit of the `compat/` shims. The accepted subset is exactly
//! what a scenario needs and nothing more:
//!
//! * `[section]` headers with bare names (`[A-Za-z0-9_-]+`),
//! * `key = value` pairs under a section (keys are bare names too),
//! * values: `"strings"` (with `\"`, `\\`, `\n`, `\t` escapes), integers,
//!   floats, booleans, and single-line arrays `[v1, v2, ...]` of scalars
//!   (a trailing comma is allowed, nesting is not),
//! * `#` comments (full-line or trailing) and blank lines.
//!
//! Everything else — multi-line arrays, dotted keys, inline tables,
//! datetimes, literal strings — is rejected with a line-numbered error.
//! Duplicate sections and duplicate keys within a section are errors too:
//! a scenario in which `policy` appears twice is a typo, not a merge.

use std::fmt;

/// A parsed scalar or single-level array.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// A decimal integer.
    Int(i64),
    /// A float (any number written with `.` or an exponent).
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line array of scalars (never nested).
    Array(Vec<Value>),
}

impl Value {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }

    fn write_toml(&self, out: &mut String) {
        match self {
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            Value::Float(f) => {
                // `{}` prints `2` for `2.0`, which would re-parse as an
                // integer; force a float-shaped literal for round-trips.
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Value::Bool(b) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{b}"));
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_toml(out);
                }
                out.push(']');
            }
        }
    }
}

/// A parsed document: sections in declaration order, each holding its
/// `key = value` pairs in declaration order (order matters — a scenario's
/// axis nesting follows it).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Doc {
    /// `(section name, entries)` in file order.
    pub sections: Vec<(String, Vec<(String, Value)>)>,
}

impl Doc {
    /// The entries of a section, if present.
    pub fn section(&self, name: &str) -> Option<&[(String, Value)]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, e)| e.as_slice())
    }

    /// One value by `section.key`, if present.
    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.section(section)?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serialize back to the accepted TOML subset. `parse(doc.to_toml())`
    /// reproduces `doc` exactly (the round-trip property test pins this).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for (i, (name, entries)) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push('[');
            out.push_str(name);
            out.push_str("]\n");
            for (key, value) in entries {
                out.push_str(key);
                out.push_str(" = ");
                value.write_toml(&mut out);
                out.push('\n');
            }
        }
        out
    }
}

/// A parse failure with the 1-based line it happened on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn is_bare(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Parse one value from the start of `s`; returns the value and the rest
/// of the line (which must be blank or a comment).
fn parse_value(s: &str, line: usize) -> Result<(Value, &str), ParseError> {
    let s = s.trim_start();
    let err = |msg: String| ParseError { line, msg };
    let mut chars = s.char_indices();
    match chars.next() {
        None => Err(err("expected a value".into())),
        Some((_, '"')) => {
            let mut out = String::new();
            let mut escaped = false;
            for (i, c) in chars {
                if escaped {
                    match c {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        c => return Err(err(format!("unknown string escape '\\{c}'"))),
                    }
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    return Ok((Value::Str(out), &s[i + 1..]));
                } else {
                    out.push(c);
                }
            }
            Err(err("unterminated string".into()))
        }
        Some((_, '[')) => {
            let mut items = Vec::new();
            let mut rest = &s[1..];
            loop {
                rest = rest.trim_start();
                if let Some(r) = rest.strip_prefix(']') {
                    return Ok((Value::Array(items), r));
                }
                if rest.is_empty() {
                    return Err(err("unterminated array (arrays must be single-line)".into()));
                }
                if rest.starts_with('[') {
                    return Err(err("nested arrays are not supported".into()));
                }
                let (item, after) = parse_value(rest, line)?;
                items.push(item);
                rest = after.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                } else if !rest.starts_with(']') {
                    return Err(err("expected ',' or ']' in array".into()));
                }
            }
        }
        Some(_) => {
            // Bare token: bool or number. Consume up to a delimiter.
            let end = s
                .find(|c: char| c == ',' || c == ']' || c == '#' || c.is_whitespace())
                .unwrap_or(s.len());
            let (token, rest) = s.split_at(end);
            if token.is_empty() {
                let preview: String = s.chars().take(8).collect();
                return Err(err(format!("expected a value, found {preview:?}")));
            }
            let value = match token {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                t if t.contains(['.', 'e', 'E']) => Value::Float(
                    t.parse::<f64>()
                        .map_err(|_| err(format!("invalid float {t:?}")))
                        .and_then(|f| {
                            if f.is_finite() {
                                Ok(f)
                            } else {
                                Err(err(format!("non-finite float {t:?}")))
                            }
                        })?,
                ),
                t => Value::Int(t.parse().map_err(|_| err(format!("invalid number {t:?}")))?),
            };
            Ok((value, rest))
        }
    }
}

/// Reject anything but whitespace or a `#` comment in `rest`.
fn expect_line_end(rest: &str, line: usize) -> Result<(), ParseError> {
    let rest = rest.trim_start();
    if rest.is_empty() || rest.starts_with('#') {
        Ok(())
    } else {
        Err(ParseError {
            line,
            msg: format!("unexpected trailing content {:?}", rest.chars().take(12).collect::<String>()),
        })
    }
}

/// Parse a document in the accepted TOML subset. See the module docs for
/// the grammar; all errors carry the offending 1-based line.
pub fn parse(src: &str) -> Result<Doc, ParseError> {
    let mut doc = Doc::default();
    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let err = |msg: String| ParseError { line, msg };
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('[') {
            let end = rest.find(']').ok_or_else(|| err("unterminated section header".into()))?;
            let name = &rest[..end];
            if name.is_empty() || !name.chars().all(is_bare) {
                return Err(err(format!("invalid section name {name:?}")));
            }
            expect_line_end(&rest[end + 1..], line)?;
            if doc.section(name).is_some() {
                return Err(err(format!("duplicate section [{name}]")));
            }
            doc.sections.push((name.to_string(), Vec::new()));
            continue;
        }
        // `key = value`.
        let eq = trimmed.find('=').ok_or_else(|| err("expected 'key = value'".into()))?;
        let key = trimmed[..eq].trim();
        if key.is_empty() || !key.chars().all(is_bare) {
            return Err(err(format!("invalid key {key:?}")));
        }
        let (value, rest) = parse_value(&trimmed[eq + 1..], line)?;
        expect_line_end(rest, line)?;
        let Some((_, entries)) = doc.sections.last_mut() else {
            return Err(err(format!("key {key:?} appears before any [section]")));
        };
        if entries.iter().any(|(k, _)| k == key) {
            return Err(err(format!("duplicate key {key:?}")));
        }
        entries.push((key.to_string(), value));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_value_shapes() {
        let doc = parse(
            r#"
# a scenario
[scenario]
name = "demo"  # trailing comment
kind = "grid"

[axes]
trace = "ts_0"
qdepth = [1, 2, 4,]
scale = [0.25, 8.0]
enabled = true
"#,
        )
        .unwrap();
        assert_eq!(doc.get("scenario", "name"), Some(&Value::Str("demo".into())));
        assert_eq!(
            doc.get("axes", "qdepth"),
            Some(&Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(4)]))
        );
        assert_eq!(
            doc.get("axes", "scale"),
            Some(&Value::Array(vec![Value::Float(0.25), Value::Float(8.0)]))
        );
        assert_eq!(doc.get("axes", "enabled"), Some(&Value::Bool(true)));
        assert_eq!(doc.sections[0].0, "scenario");
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = parse("[s]\nv = \"a\\\"b\\\\c\\n\\t\"\n").unwrap();
        assert_eq!(doc.get("s", "v"), Some(&Value::Str("a\"b\\c\n\t".into())));
        assert_eq!(parse(&doc.to_toml()).unwrap(), doc);
    }

    #[test]
    fn rejects_duplicate_key_and_section() {
        let e = parse("[a]\nx = 1\nx = 2\n").unwrap_err();
        assert!(e.msg.contains("duplicate key"), "{e}");
        assert_eq!(e.line, 3);
        let e = parse("[a]\n[b]\n[a]\n").unwrap_err();
        assert!(e.msg.contains("duplicate section"), "{e}");
    }

    #[test]
    fn rejects_trailing_garbage_and_orphan_keys() {
        let e = parse("[a]\nx = 1 2\n").unwrap_err();
        assert!(e.msg.contains("trailing"), "{e}");
        let e = parse("x = 1\n").unwrap_err();
        assert!(e.msg.contains("before any"), "{e}");
        let e = parse("[a]\nx = [1, [2]]\n").unwrap_err();
        assert!(e.msg.contains("nested"), "{e}");
        let e = parse("[a]\nx = \"open\n").unwrap_err();
        assert!(e.msg.contains("unterminated string"), "{e}");
    }

    #[test]
    fn error_preview_respects_char_boundaries() {
        let e = parse("[a]\nx = ,\u{e9}\u{e9}\u{e9}\u{e9}\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("expected a value, found \",\u{e9}\u{e9}\u{e9}\u{e9}\""), "{e}");
    }

    #[test]
    fn float_serialization_keeps_type() {
        let doc = Doc {
            sections: vec![(
                "s".into(),
                vec![("f".into(), Value::Float(2.0)), ("i".into(), Value::Int(2))],
            )],
        };
        let reparsed = parse(&doc.to_toml()).unwrap();
        assert_eq!(reparsed, doc);
    }
}
