//! Declarative scenario grids: a data-driven experiment matrix compiled
//! into the barrier-free task pool.
//!
//! A *scenario* is a small TOML file (parsed by [`toml`], the in-repo
//! subset parser) with three sections:
//!
//! ```text
//! [scenario]
//! name = "qdepth"          # section name of the emitted table
//! kind = "grid"            # which report renders the grid
//!
//! [axes]                   # declaration order = nesting order
//! trace = "ts_0"           # scalar = a one-value axis
//! policy = ["LRU", "BPLRU", "VBBMS", "Req-block"]
//! qdepth = [1, 2, 4, 8, 16, 32]
//!
//! [output]                 # optional
//! title = "Response time vs host queue depth"
//! columns = ["policy", "qdepth", "avg_resp_ms", "p99_ms"]
//! labels = ["Policy", "Depth", "Mean resp (ms)", "p99 (ms)"]
//! ```
//!
//! [`plan`] validates the axes against the kind's schema and lowers the
//! cartesian grid through one compiler into a [`ScenarioPlan`]: a flat job
//! list with one order-preserving result slot per job, run like every
//! other [`Plan`] by [`sweep::run`]. Each job keeps its grid point's axis
//! cells, and the kind's *report* — a pure renderer — reads those cells by
//! axis name next to each [`RunResult`]. Because task *claiming* order
//! never influences which slot a result lands in, the rendered tables —
//! and therefore each section's [`sweep::section_digest`] — are
//! byte-identical at any thread count.
//!
//! There are three kinds. `comparison` (Figures 8-12, summary, perf) and
//! `fig7` pivot their grids into several tables; every one-table
//! experiment is a `grid`, which renders one row per point over any
//! subset of the axes (policy x trace x scale x delta x qdepth x
//! fault_ppm x arrival x geometry) with a title/column/label output
//! spec. The committed files under `scenarios/` are the canonical
//! definitions and are embedded here as [`BUILTIN_SCENARIOS`] — a new
//! experiment axis is one line in a scenario file and one case in the
//! compiler.

pub mod toml;

use crate::extensions::{calibrated_service_gap_ns, pressured_ssd, LOAD_BURST};
use crate::figures::{comparison_report, fig7_build, Opts};
use crate::report::{f2, f3, pct, Table};
use crate::sweep::{self, Outcome, Plan};
use reqblock_cache::policies::{BplruConfig, CflruConfig};
use reqblock_core::{PriorityModel, ReqBlockConfig};
use reqblock_flash::SsdConfig;
use reqblock_sim::{
    ArrivalProcess, CacheSizeMb, FaultConfig, Job, JobPool, PolicyKind, RunResult, SimConfig,
    SubmitMode, Task, TraceSource,
};
use reqblock_trace::profiles::profile_by_name;
use std::collections::HashMap;
use std::fmt;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A scenario validation or compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// What was wrong (parser errors keep their `line N:` prefix).
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError { msg: msg.into() })
}

// ---------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------

/// Which report renders a scenario's grid. Every kind lowers through the
/// same cartesian compiler; the kind fixes the axis schema and the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figures 8-12 + summary + perf: the (trace x cache x policy) grid.
    Comparison,
    /// Figure 7: Req-block hit ratio and response time per (trace, delta).
    Fig7,
    /// One table, one row per point, with a declarative output spec.
    Grid,
}

/// Every kind, in error-message order.
const KINDS: [Kind; 3] = [Kind::Comparison, Kind::Fig7, Kind::Grid];

impl Kind {
    /// Parse the `[scenario] kind` string.
    pub fn from_name(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// The `kind = "..."` spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Kind::Comparison => "comparison",
            Kind::Fig7 => "fig7",
            Kind::Grid => "grid",
        }
    }

    /// Axis schema: which axes the kind's report understands, which must
    /// be present besides `trace` and `policy` (every kind needs those),
    /// and which may hold only a single value.
    fn spec(&self) -> KindSpec {
        match self {
            Kind::Comparison => KindSpec {
                allowed: &["trace", "policy", "cache_mb"],
                required: &["cache_mb"],
                singleton: &[],
            },
            Kind::Fig7 => KindSpec {
                allowed: &["trace", "policy", "delta"],
                required: &["delta"],
                singleton: &["policy"],
            },
            Kind::Grid => KindSpec {
                allowed: &[
                    "trace", "policy", "cache_mb", "delta", "qdepth", "fault_ppm", "arrival",
                    "geometry", "scale",
                ],
                required: &[],
                singleton: &[],
            },
        }
    }
}

struct KindSpec {
    allowed: &'static [&'static str],
    required: &'static [&'static str],
    singleton: &'static [&'static str],
}

/// The scalar type an axis carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AxisType {
    Str,
    Int,
    Float,
}

/// Every axis the schema knows, with its value type.
const AXIS_TYPES: [(&str, AxisType); 9] = [
    ("trace", AxisType::Str),
    ("policy", AxisType::Str),
    ("cache_mb", AxisType::Int),
    ("delta", AxisType::Int),
    ("qdepth", AxisType::Int),
    ("fault_ppm", AxisType::Int),
    ("arrival", AxisType::Str),
    ("geometry", AxisType::Str),
    ("scale", AxisType::Float),
];

fn axis_type(name: &str) -> Option<AxisType> {
    AXIS_TYPES.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
}

/// The values of one axis. A scalar in the file becomes a one-value axis;
/// integer literals on a float axis are promoted.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// String-valued axis (`trace`, `policy`, `arrival`, `geometry`).
    Strs(Vec<String>),
    /// Integer-valued axis (`cache_mb`, `delta`, `qdepth`, `fault_ppm`).
    Ints(Vec<i64>),
    /// Float-valued axis (`scale`).
    Floats(Vec<f64>),
}

impl AxisValues {
    /// Number of grid points along this axis.
    pub fn len(&self) -> usize {
        match self {
            AxisValues::Strs(v) => v.len(),
            AxisValues::Ints(v) => v.len(),
            AxisValues::Floats(v) => v.len(),
        }
    }

    /// True when the axis has no values (always rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Display cell for one grid point.
    fn display(&self, i: usize) -> String {
        match self {
            AxisValues::Strs(v) => v[i].clone(),
            AxisValues::Ints(v) => v[i].to_string(),
            AxisValues::Floats(v) => format!("{}", v[i]),
        }
    }

    /// Display cells of every grid point, in axis order.
    pub(crate) fn displays(&self) -> Vec<String> {
        (0..self.len()).map(|i| self.display(i)).collect()
    }

    fn from_value(value: &toml::Value, axis: &str) -> Result<AxisValues, ScenarioError> {
        use toml::Value::{Float, Int, Str};
        let items = match value {
            toml::Value::Array(items) if items.is_empty() => {
                return err(format!("axis {axis:?} is an empty grid (no values)"))
            }
            toml::Value::Array(items) => items.as_slice(),
            scalar => std::slice::from_ref(scalar),
        };
        if let Some(other) = items.iter().find(|v| !matches!(v, Str(_) | Int(_) | Float(_))) {
            return err(format!(
                "axis {axis:?} holds a {}; only strings and numbers are axis values",
                other.type_name()
            ));
        }
        // Infer the common scalar shape, promoting Int -> Float on mixes.
        let strs: Option<Vec<String>> =
            items.iter().map(|v| if let Str(s) = v { Some(s.clone()) } else { None }).collect();
        if let Some(strs) = strs {
            return Ok(AxisValues::Strs(strs));
        }
        if items.iter().any(|v| matches!(v, Str(_))) {
            return err(format!("axis {axis:?} mixes strings and numbers"));
        }
        let ints: Option<Vec<i64>> =
            items.iter().map(|v| if let Int(i) = v { Some(*i) } else { None }).collect();
        let float = |v: &toml::Value| match v {
            Int(i) => *i as f64,
            Float(f) => *f,
            _ => unreachable!("strings were handled above"),
        };
        Ok(match ints {
            Some(ints) => AxisValues::Ints(ints),
            None => AxisValues::Floats(items.iter().map(float).collect()),
        })
    }
}

/// The optional `[output]` section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputSpec {
    /// Section name of the emitted table (single-section kinds only;
    /// defaults to the scenario name).
    pub section: Option<String>,
    /// Table title (`grid` kind only).
    pub title: Option<String>,
    /// Column spec: axis names and/or metric names (`grid` kind only).
    pub columns: Option<Vec<String>>,
    /// Header text, one per `columns` entry (`grid` kind only; defaults
    /// to the column names).
    pub labels: Option<Vec<String>>,
    /// Axes hoisted to the outermost nesting positions, in the given
    /// order (`grid` kind only).
    pub group_by: Option<Vec<String>>,
}

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[A-Za-z0-9_-]+`); the default section name.
    pub name: String,
    /// Which report renders the grid.
    pub kind: Kind,
    /// `(axis, values)` in declaration order — the grid nesting order.
    axes: Vec<(String, AxisValues)>,
    /// The `[output]` section.
    pub output: OutputSpec,
}

impl Scenario {
    /// Parse and validate a scenario document.
    pub fn parse(src: &str) -> Result<Scenario, ScenarioError> {
        let doc = toml::parse(src).map_err(|e| ScenarioError { msg: e.to_string() })?;
        Scenario::from_doc(&doc)
    }

    /// Build and validate a scenario from a parsed document.
    pub fn from_doc(doc: &toml::Doc) -> Result<Scenario, ScenarioError> {
        for (section, _) in &doc.sections {
            if !matches!(section.as_str(), "scenario" | "axes" | "output") {
                return err(format!(
                    "unknown section [{section}]; expected [scenario], [axes], [output]"
                ));
            }
        }
        let meta = doc
            .section("scenario")
            .ok_or_else(|| ScenarioError { msg: "missing [scenario] section".into() })?;
        let mut name = None;
        let mut kind = None;
        for (key, value) in meta {
            match (key.as_str(), value) {
                ("name", toml::Value::Str(s)) => name = Some(s.clone()),
                ("kind", toml::Value::Str(s)) => {
                    kind = Some(Kind::from_name(s).ok_or_else(|| ScenarioError {
                        msg: format!(
                            "unknown kind {s:?}; expected one of {}",
                            KINDS.map(|k| k.name()).join(", ")
                        ),
                    })?)
                }
                ("name" | "kind", v) => {
                    return err(format!("scenario.{key} must be a string, found {}", v.type_name()))
                }
                _ => return err(format!("unknown key scenario.{key}")),
            }
        }
        let name = name.ok_or_else(|| ScenarioError { msg: "missing scenario.name".into() })?;
        if !is_name(&name) {
            return err(format!("invalid scenario name {name:?} (use [A-Za-z0-9_-]+)"));
        }
        let kind = kind.ok_or_else(|| ScenarioError { msg: "missing scenario.kind".into() })?;

        let mut axes = Vec::new();
        for (key, value) in doc.section("axes").unwrap_or(&[]) {
            axes.push((key.clone(), AxisValues::from_value(value, key)?));
        }

        let mut output = OutputSpec::default();
        for (key, value) in doc.section("output").unwrap_or(&[]) {
            let as_str = |v: &toml::Value| -> Result<String, ScenarioError> {
                match v {
                    toml::Value::Str(s) => Ok(s.clone()),
                    v => err(format!("output.{key} must be a string, found {}", v.type_name())),
                }
            };
            let as_str_list = |v: &toml::Value| -> Result<Vec<String>, ScenarioError> {
                match v {
                    toml::Value::Array(items) => items
                        .iter()
                        .map(|i| match i {
                            toml::Value::Str(s) => Ok(s.clone()),
                            i => err(format!(
                                "output.{key} must hold strings, found {}",
                                i.type_name()
                            )),
                        })
                        .collect(),
                    v => err(format!("output.{key} must be an array, found {}", v.type_name())),
                }
            };
            match key.as_str() {
                "section" => output.section = Some(as_str(value)?),
                "title" => output.title = Some(as_str(value)?),
                "columns" => output.columns = Some(as_str_list(value)?),
                "labels" => output.labels = Some(as_str_list(value)?),
                "group_by" => output.group_by = Some(as_str_list(value)?),
                _ => return err(format!("unknown key output.{key}")),
            }
        }

        let sc = Scenario { name, kind, axes, output };
        sc.validate()?;
        Ok(sc)
    }

    /// The values of one axis, if declared.
    pub fn axis(&self, name: &str) -> Option<&AxisValues> {
        self.axes.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Replace (or append) one axis and re-validate — the hook the CLI's
    /// `--depths`/`--rates` overrides use.
    pub fn set_axis(&mut self, name: &str, values: AxisValues) -> Result<(), ScenarioError> {
        match self.axes.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = values,
            None => self.axes.push((name.to_string(), values)),
        }
        self.validate()
    }

    /// One line of `axis[len]` pairs for `repro --list`.
    pub fn axis_summary(&self) -> String {
        self.axes
            .iter()
            .map(|(n, v)| format!("{n}[{}]", v.len()))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Every `trace` x `scale` cell of the grid, the scale relative to the
    /// harness `--scale` (1 when there is no `scale` axis): the input
    /// [`Opts::check_synthetic`] checks.
    pub fn trace_scales(&self) -> Vec<(String, f64)> {
        let Some(AxisValues::Strs(traces)) = self.axis("trace") else {
            return Vec::new();
        };
        let scales = match self.axis("scale") {
            Some(AxisValues::Floats(v)) => v.clone(),
            _ => vec![1.0],
        };
        traces.iter().flat_map(|t| scales.iter().map(move |&s| (t.clone(), s))).collect()
    }

    /// The flash devices this scenario's `geometry = "pressured"` points
    /// build, one per `trace` x `scale` cell, each with its trace's name
    /// (the input [`Opts::check_trace_dir`] checks trace files against).
    /// Empty when no point is pressured.
    pub fn pressured_devices(&self, opts: &Opts) -> Vec<(String, SsdConfig)> {
        let pressured = matches!(
            self.axis("geometry"),
            Some(AxisValues::Strs(g)) if g.iter().any(|g| g == "pressured")
        );
        if !pressured {
            return Vec::new();
        }
        self.trace_scales()
            .into_iter()
            .map(|(trace, rel_scale)| {
                let profile = profile_by_name(&trace).expect("validated trace");
                (trace, pressured_ssd(&profile.scaled(opts.scale * rel_scale)))
            })
            .collect()
    }

    /// Jobs the planner will emit: the product of the axis lengths (no
    /// simulation, no calibration run — safe for `repro --list`).
    pub fn estimated_jobs(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// Check the axes and output spec against the kind's schema.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let spec = self.kind.spec();
        let kind = self.kind.name();
        if self.axes.is_empty() {
            return err(format!("scenario {:?} declares no axes (empty grid)", self.name));
        }
        for (axis, values) in &self.axes {
            let Some(ty) = axis_type(axis) else {
                return err(format!(
                    "unknown axis {axis:?}; known axes: {}",
                    AXIS_TYPES.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                ));
            };
            if !spec.allowed.contains(&axis.as_str()) {
                return err(format!(
                    "axis {axis:?} is not allowed for kind {kind:?} (allowed: {})",
                    spec.allowed.join(", ")
                ));
            }
            if values.is_empty() {
                return err(format!("axis {axis:?} is an empty grid (no values)"));
            }
            if spec.singleton.contains(&axis.as_str()) && values.len() != 1 {
                return err(format!(
                    "axis {axis:?} must hold a single value for kind {kind:?}"
                ));
            }
            // Type check (Ints are acceptable on Float axes: from_value
            // promotes whole arrays; a hand-built Ints axis is promoted
            // here by rejecting — keep construction honest).
            let ok = matches!(
                (ty, values),
                (AxisType::Str, AxisValues::Strs(_))
                    | (AxisType::Int, AxisValues::Ints(_))
                    | (AxisType::Float, AxisValues::Floats(_))
            );
            if !ok {
                let want = match ty {
                    AxisType::Str => "strings",
                    AxisType::Int => "integers",
                    AxisType::Float => "floats",
                };
                return err(format!("axis {axis:?} must hold {want}"));
            }
            validate_axis_values(axis, values)?;
        }
        for req in ["trace", "policy"].iter().chain(spec.required) {
            if self.axis(req).is_none() {
                return err(format!("kind {kind:?} requires the {req:?} axis"));
            }
        }
        // Cross-axis rules.
        let Some(AxisValues::Strs(policies)) = self.axis("policy") else { unreachable!() };
        if self.kind == Kind::Comparison {
            for anchor in ["LRU", "Req-block"] {
                if !policies.iter().any(|p| p == anchor) {
                    return err(format!(
                        "comparison scenarios need {anchor:?} in the policy axis \
                         (it anchors the normalized figures)"
                    ));
                }
            }
        }
        if self.axis("delta").is_some() && policies.iter().any(|p| p != "Req-block") {
            return err(
                "the delta axis tunes Req-block; a scenario sweeping delta must set \
                 policy to \"Req-block\" only",
            );
        }
        // Output spec. The section names the output files.
        if let Some(section) = self.output.section.as_deref().filter(|s| !is_name(s)) {
            return err(format!("invalid output.section {section:?} (use [A-Za-z0-9_-]+)"));
        }
        if self.kind == Kind::Comparison && self.output.section.is_some() {
            return err("comparison scenarios emit fixed sections (fig8..fig12, summary, perf); \
                        output.section does not apply");
        }
        if self.kind != Kind::Grid {
            for (key, set) in [
                ("title", self.output.title.is_some()),
                ("columns", self.output.columns.is_some()),
                ("labels", self.output.labels.is_some()),
                ("group_by", self.output.group_by.is_some()),
            ] {
                if set {
                    return err(format!("output.{key} applies to grid scenarios only"));
                }
            }
        } else {
            if let Some(cols) = &self.output.columns {
                for col in cols {
                    let is_arrival_cell =
                        self.axis("arrival").is_some() && ARRIVAL_CELLS.contains(&col.as_str());
                    let is_axis = self.axis(col).is_some() || is_arrival_cell;
                    let is_metric = METRICS.iter().any(|(n, _)| n == col);
                    if !is_axis && !is_metric {
                        return err(format!(
                            "output.columns entry {col:?} is neither a declared axis nor a \
                             metric (metrics: {})",
                            METRICS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                        ));
                    }
                }
            }
            if let Some(labels) = &self.output.labels {
                let columns = self.output.columns.as_ref().map_or(0, Vec::len);
                if labels.len() != columns {
                    return err(format!(
                        "output.labels must match output.columns one for one \
                         ({} label(s) for {columns} column(s))",
                        labels.len()
                    ));
                }
            }
            if let Some(group) = &self.output.group_by {
                for g in group {
                    if self.axis(g).is_none() {
                        return err(format!("output.group_by entry {g:?} is not a declared axis"));
                    }
                }
                for (i, g) in group.iter().enumerate() {
                    if group[..i].contains(g) {
                        return err(format!("output.group_by repeats {g:?}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The rule for names that become file names: `[A-Za-z0-9_-]+`.
fn is_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Per-axis value checks (independent of kind).
fn validate_axis_values(axis: &str, values: &AxisValues) -> Result<(), ScenarioError> {
    match (axis, values) {
        ("trace", AxisValues::Strs(v)) => {
            for t in v {
                if profile_by_name(t).is_none() {
                    return err(format!("unknown trace {t:?}"));
                }
            }
        }
        ("policy", AxisValues::Strs(v)) => {
            for p in v {
                if policy_by_name(p).is_none() {
                    return err(format!(
                        "unknown policy {p:?} (known: {})",
                        POLICY_NAMES.map(|n| format!("{n:?}")).join(", ")
                    ));
                }
            }
        }
        ("cache_mb", AxisValues::Ints(v)) => {
            for &mb in v {
                if cache_from_mb(mb).is_none() {
                    return err(format!("cache_mb {mb} is not one of 16, 32, 64"));
                }
            }
        }
        ("delta" | "qdepth", AxisValues::Ints(v)) => {
            for &x in v {
                if x < 1 || x > u32::MAX as i64 {
                    return err(format!("{axis} {x} is out of range (>= 1)"));
                }
            }
        }
        ("fault_ppm", AxisValues::Ints(v)) => {
            for &x in v {
                if !(0..=1_000_000).contains(&x) {
                    return err(format!("fault_ppm {x} is out of range (0..=1000000)"));
                }
            }
        }
        ("scale", AxisValues::Floats(v)) => {
            for &x in v {
                if !x.is_finite() || x <= 0.0 {
                    return err(format!("{axis} {x} must be a finite positive number"));
                }
            }
        }
        ("arrival", AxisValues::Strs(v)) => {
            for a in v {
                if parse_arrival(a).is_none() {
                    return err(format!(
                        "unknown arrival {a:?} (poisson:<mult> or bursty:<mult>, \
                         mult a finite number > 0)"
                    ));
                }
            }
        }
        ("geometry", AxisValues::Strs(v)) => {
            for g in v {
                if g != "paper" && g != "pressured" {
                    return err(format!("unknown geometry {g:?} (paper or pressured)"));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Parse one `arrival` value, `poisson:<mult>` or `bursty:<mult>`: the
/// process name and its multiple of the calibrated service rate.
fn parse_arrival(value: &str) -> Option<(&str, f64)> {
    let (process, mult) = value.split_once(':')?;
    let mult: f64 = mult.parse().ok()?;
    let known = matches!(process, "poisson" | "bursty");
    (known && mult.is_finite() && mult > 0.0).then_some((process, mult))
}

/// Cells every `arrival` point carries after its axis cells: the process
/// name, the multiplier as `<mult>x`, and the offered rate in kreq/s.
const ARRIVAL_CELLS: [&str; 3] = ["process", "load", "offered_kreq_s"];

/// Every name the `policy` axis accepts: the five policies at their paper
/// defaults, then the Req-block/BPLRU design-choice ablations (DESIGN.md
/// A1-A4).
pub const POLICY_NAMES: [&str; 12] = [
    "LRU",
    "CFLRU",
    "BPLRU",
    "VBBMS",
    "Req-block",
    "Req-block (paper)",
    "A1: no DRL split",
    "A2: no downgraded merge",
    "A3: Eq.1 without size term",
    "A3: Eq.1 without age term",
    "BPLRU without padding",
    "A4: BPLRU with padding",
];

/// Map a [`POLICY_NAMES`] entry to its [`PolicyKind`].
pub fn policy_by_name(name: &str) -> Option<PolicyKind> {
    let paper = ReqBlockConfig::paper();
    Some(match name {
        "LRU" => PolicyKind::Lru,
        "CFLRU" => PolicyKind::Cflru(CflruConfig::default()),
        "BPLRU" => PolicyKind::Bplru(BplruConfig::default()),
        "VBBMS" => PolicyKind::Vbbms,
        "Req-block" | "Req-block (paper)" => PolicyKind::ReqBlock(paper),
        "A1: no DRL split" => {
            PolicyKind::ReqBlock(ReqBlockConfig { split_large_on_hit: false, ..paper })
        }
        "A2: no downgraded merge" => {
            PolicyKind::ReqBlock(ReqBlockConfig { merge_on_evict: false, ..paper })
        }
        "A3: Eq.1 without size term" => {
            PolicyKind::ReqBlock(ReqBlockConfig { priority: PriorityModel::NoSize, ..paper })
        }
        "A3: Eq.1 without age term" => {
            PolicyKind::ReqBlock(ReqBlockConfig { priority: PriorityModel::NoAge, ..paper })
        }
        "BPLRU without padding" => PolicyKind::Bplru(BplruConfig { page_padding: false }),
        "A4: BPLRU with padding" => PolicyKind::Bplru(BplruConfig { page_padding: true }),
        _ => return None,
    })
}

pub(crate) fn cache_from_mb(mb: i64) -> Option<CacheSizeMb> {
    Some(match mb {
        16 => CacheSizeMb::Mb16,
        32 => CacheSizeMb::Mb32,
        64 => CacheSizeMb::Mb64,
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------

/// `(axis, display)` pairs of one grid point, in nesting order.
type Cells = Vec<(String, String)>;

/// One finished grid point: its axis cells and its run's result. Reports
/// read the cells by axis name.
pub(crate) struct Point {
    cells: Cells,
    /// The point's simulation result.
    pub result: RunResult,
}

impl Point {
    /// The display cell of `axis` (present by the kind's schema).
    pub fn cell(&self, axis: &str) -> &str {
        self.cells
            .iter()
            .find(|(n, _)| n == axis)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("grid point has no {axis:?} cell"))
    }
}

/// A compiled scenario: the flat job list (one order-preserving result
/// slot per job) plus each job's axis cells for the report.
pub struct ScenarioPlan {
    sc: Scenario,
    pool: JobPool,
    cells: Vec<Cells>,
}

impl Plan for ScenarioPlan {
    fn tasks(&self) -> Vec<Task<'_>> {
        self.pool.tasks()
    }

    fn finish(self: Box<Self>) -> Outcome {
        render(&self.sc, self.cells, self.pool.take_results())
    }
}

/// Compile a validated scenario against the harness options.
pub fn plan(sc: &Scenario, opts: &Opts) -> Result<ScenarioPlan, ScenarioError> {
    sc.validate()?;
    let (jobs, cells) = compile_grid(sc, opts);
    Ok(ScenarioPlan { sc: sc.clone(), pool: JobPool::new(jobs), cells })
}

/// Plan and run a scenario in one call.
pub fn run(sc: &Scenario, opts: &Opts) -> Result<Outcome, ScenarioError> {
    Ok(sweep::run_one(plan(sc, opts)?, opts.threads))
}

/// Pair each job's cells with its result and render the kind's report.
fn render(sc: &Scenario, cells: Vec<Cells>, results: Vec<(String, RunResult)>) -> Outcome {
    let points: Vec<Point> = cells
        .into_iter()
        .zip(results)
        .map(|(cells, (_, result))| Point { cells, result })
        .collect();
    let tables = match sc.kind {
        Kind::Comparison => return comparison_report(sc, points),
        Kind::Fig7 => fig7_build(sc, &points),
        Kind::Grid => vec![grid_build(sc, &points)],
    };
    let section = sc.output.section.clone().unwrap_or_else(|| sc.name.clone());
    Outcome { sections: vec![(section, tables)], ..Outcome::default() }
}

// ---------------------------------------------------------------------
// Built-in scenarios (the committed files, embedded)
// ---------------------------------------------------------------------

/// The committed scenario files under `scenarios/`, embedded so the
/// library needs no runtime path to them. `repro all` and the grid
/// subcommands run these; `repro --list` lists them.
pub const BUILTIN_SCENARIOS: [(&str, &str); 9] = [
    ("fig7", include_str!("../../../../scenarios/fig7.toml")),
    ("comparison", include_str!("../../../../scenarios/comparison.toml")),
    ("tails", include_str!("../../../../scenarios/tails.toml")),
    ("wear", include_str!("../../../../scenarios/wear.toml")),
    ("ablations", include_str!("../../../../scenarios/ablations.toml")),
    ("faults", include_str!("../../../../scenarios/faults.toml")),
    ("qdepth", include_str!("../../../../scenarios/qdepth.toml")),
    ("load", include_str!("../../../../scenarios/load.toml")),
    ("smoke", include_str!("../../../../scenarios/smoke.toml")),
];

/// Parse one built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    let (_, src) = BUILTIN_SCENARIOS.iter().find(|(n, _)| *n == name)?;
    Some(Scenario::parse(src).unwrap_or_else(|e| panic!("builtin scenario {name}: {e}")))
}

/// Compile one built-in scenario (panics on an unknown name — the
/// committed files are pinned by tests).
pub fn plan_builtin(name: &str, opts: &Opts) -> ScenarioPlan {
    let sc = builtin(name).unwrap_or_else(|| panic!("no builtin scenario {name:?}"));
    plan(&sc, opts).unwrap_or_else(|e| panic!("builtin scenario {name}: {e}"))
}

/// Compile and run one built-in scenario.
pub fn run_builtin(name: &str, opts: &Opts) -> Outcome {
    sweep::run_one(plan_builtin(name, opts), opts.threads)
}

// ---------------------------------------------------------------------
// The compiler
// ---------------------------------------------------------------------

/// Lower the cartesian grid into jobs. Axes nest in declaration order,
/// except that `output.group_by` axes are hoisted outermost (in the given
/// order). Per grid point the modifier axes compose:
///
/// * `scale` multiplies the harness `--scale` (relative, default 1),
/// * `cache_mb` sizes the write buffer (default 32 MB),
/// * `delta` swaps the policy for `Req-block` with that delta,
/// * `geometry = "pressured"` is the fault-sweep device: a two-chip flash
///   array at ~115% of the workload footprint behind a 64-page buffer
///   (which replaces the `cache_mb` size),
/// * `qdepth` switches to queued submission at that depth,
/// * `fault_ppm` seeds read/program/erase faults at that rate,
/// * `arrival` re-times arrivals open-loop at a multiple of the
///   calibrated service rate (calibrated once per unique trace x scale):
///   `poisson:<mult>`, or `bursty:<mult>` with the [`LOAD_BURST`] shape.
///   The k-th value of each process is seeded `0x10AD_5EED + k`
///   (Poisson) or `0x10AD_B025 + k` (bursty), so every other axis value
///   sees byte-identical arrivals at the same step. The point also gets
///   the [`ARRIVAL_CELLS`] after its axis cells.
fn compile_grid(sc: &Scenario, opts: &Opts) -> (Vec<Job>, Vec<Cells>) {
    // Axis evaluation order: group_by first, then declaration order.
    let group_by = sc.output.group_by.clone().unwrap_or_default();
    let mut order: Vec<usize> = group_by
        .iter()
        .map(|g| sc.axes.iter().position(|(n, _)| n == g).expect("validated group_by"))
        .collect();
    for (i, (name, _)) in sc.axes.iter().enumerate() {
        if !group_by.iter().any(|g| g == name) {
            order.push(i);
        }
    }
    let axes: Vec<(&str, &AxisValues)> =
        order.iter().map(|&i| (sc.axes[i].0.as_str(), &sc.axes[i].1)).collect();
    let lens: Vec<usize> = axes.iter().map(|(_, v)| v.len()).collect();
    let total: usize = lens.iter().product();
    let pos = |name: &str| axes.iter().position(|(n, _)| *n == name);

    // Calibration gaps for arrival grids, one per (trace, scale) point.
    let mut gaps: HashMap<(String, u64), u64> = HashMap::new();

    let mut jobs = Vec::with_capacity(total);
    let mut point_cells: Vec<Cells> = Vec::with_capacity(total);
    for flat in 0..total {
        let mut idx = vec![0usize; axes.len()];
        let mut rem = flat;
        for k in (0..axes.len()).rev() {
            idx[k] = rem % lens[k];
            rem /= lens[k];
        }
        let mut cells: Cells = axes
            .iter()
            .zip(&idx)
            .map(|((name, values), &i)| (name.to_string(), values.display(i)))
            .collect();
        // The modifiers read the point's values back from its cells (number
        // cells parse back to the exact axis value).
        let cell = |name: &str| cells.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone());
        let int = |name: &str| cell(name).map(|v| v.parse::<i64>().expect("validated integer"));

        let trace = cell("trace").expect("trace is required");
        let rel_scale: f64 = cell("scale").map_or(1.0, |v| v.parse().expect("validated scale"));
        let profile =
            profile_by_name(&trace).expect("validated trace").scaled(opts.scale * rel_scale);
        let cache = int("cache_mb").map(|mb| cache_from_mb(mb).expect("validated"));
        let policy = match int("delta") {
            Some(d) => PolicyKind::ReqBlock(ReqBlockConfig::with_delta(d as u32)),
            None => policy_by_name(&cell("policy").expect("policy is required"))
                .expect("validated policy"),
        };
        let mut cfg = SimConfig::paper(cache.unwrap_or(CacheSizeMb::Mb32), policy);
        if cell("geometry").as_deref() == Some("pressured") {
            cfg.ssd = pressured_ssd(&profile);
            cfg.cache_pages = 64;
        }
        if let Some(ppm) = int("fault_ppm") {
            cfg.fault = FaultConfig {
                read_fail_ppm: ppm as u32,
                program_fail_ppm: ppm as u32,
                erase_fail_ppm: ppm as u32,
                ..FaultConfig::default()
            };
        }
        if let Some(depth) = int("qdepth") {
            cfg = cfg.with_submit(SubmitMode::Queued { depth: depth as u32 });
        }
        let mut source = opts.source_for(&profile);
        if let Some(k) = pos("arrival") {
            let AxisValues::Strs(values) = axes[k].1 else { unreachable!() };
            let (process, mult) = parse_arrival(&values[idx[k]]).expect("validated arrival");
            // One serial plan-time probe per trace x scale, before the pool
            // runs, so the grid stays thread-count invariant.
            let gap = *gaps
                .entry((trace, rel_scale.to_bits()))
                .or_insert_with(|| calibrated_service_gap_ns(&source));
            let mean_interarrival_ns = ((gap as f64 / mult) as u64).max(1);
            let (burst_len, peak_to_mean) = LOAD_BURST;
            let (arrival, seed) = match process {
                "poisson" => (ArrivalProcess::Poisson { mean_interarrival_ns }, 0x10AD_5EED),
                _ => (
                    ArrivalProcess::Bursty { mean_interarrival_ns, burst_len, peak_to_mean },
                    0x10AD_B025,
                ),
            };
            let nth = values[..idx[k]].iter().filter(|v| v.starts_with(process)).count();
            let offered: f64 =
                format!("{:.0}", arrival.offered_rate_per_s()).parse().expect("formatted rate");
            let derived = [process.to_string(), format!("{mult}x"), f2(offered / 1e3)];
            cells.extend(ARRIVAL_CELLS.iter().map(|n| n.to_string()).zip(derived));
            source = TraceSource::open_loop(source, arrival, seed + nth as u64);
        }
        jobs.push(Job { label: job_label(sc, &cells), cfg, source });
        point_cells.push(cells);
    }
    (jobs, point_cells)
}

/// `<scenario>/<cell>/<cell>/...` — the pool's per-job label.
fn job_label(sc: &Scenario, cells: &Cells) -> String {
    let mut label = sc.name.clone();
    for (_, v) in cells {
        label.push('/');
        label.push_str(v);
    }
    label
}

// ---------------------------------------------------------------------
// The generic grid report
// ---------------------------------------------------------------------

type MetricFn = fn(&RunResult) -> String;

/// Metrics a grid scenario's `output.columns` can request.
pub const METRICS: [(&str, MetricFn); 25] = [
    ("requests", |r| r.metrics.requests.to_string()),
    ("hit_ratio", |r| f3(r.metrics.hit_ratio())),
    ("avg_resp_ms", |r| f3(r.metrics.avg_response_ms())),
    ("p50_ms", |r| f3(r.metrics.response_percentile_ms(0.50))),
    ("p95_ms", |r| f3(r.metrics.response_percentile_ms(0.95))),
    ("p99_ms", |r| f3(r.metrics.response_percentile_ms(0.99))),
    ("p999_ms", |r| f3(r.metrics.response_percentile_ms(0.999))),
    ("max_ms", |r| f3(r.metrics.response_percentile_ms(1.0))),
    ("hit_pct", |r| pct(r.metrics.hit_ratio())),
    ("flush_stalls", |r| r.metrics.flush_stalls.to_string()),
    ("stall_ms", |r| f2(r.metrics.flush_stall_ns as f64 / 1e6)),
    ("pages_per_eviction", |r| f2(r.metrics.avg_pages_per_eviction())),
    ("user_programs", |r| r.flash.user_programs.to_string()),
    ("gc_programs", |r| r.flash.gc_programs.to_string()),
    ("gc_runs", |r| r.ftl.gc_runs.to_string()),
    ("erases", |r| r.flash.erases.to_string()),
    ("write_amp", |r| f2(r.flash.write_amplification())),
    ("read_retries", |r| r.faults.read_retries.to_string()),
    ("read_uncorrectable", |r| r.faults.read_uncorrectable.to_string()),
    ("program_failures", |r| r.faults.program_failures.to_string()),
    ("erase_failures", |r| r.faults.erase_failures.to_string()),
    ("bad_blocks", |r| r.faults.retired_blocks.to_string()),
    ("remapped_pages", |r| r.faults.remapped_pages.to_string()),
    ("rejected_pages", |r| r.faults.rejected_write_pages.to_string()),
    ("health", |r| format!("{:?}", r.health)),
];

/// Render a grid scenario: one row per point with the `output.columns`
/// spec (default: every cell in nesting order, then `hit_ratio` and
/// `avg_resp_ms`), headed by `output.labels` (default: the column names).
fn grid_build(sc: &Scenario, points: &[Point]) -> Table {
    let columns: Vec<String> = sc.output.columns.clone().unwrap_or_else(|| {
        let mut cols: Vec<String> = points[0].cells.iter().map(|(n, _)| n.clone()).collect();
        cols.push("hit_ratio".into());
        cols.push("avg_resp_ms".into());
        cols
    });
    let title = sc
        .output
        .title
        .clone()
        .unwrap_or_else(|| format!("Scenario {} - declarative grid", sc.name));
    let headers = sc.output.labels.as_ref().unwrap_or(&columns);
    let mut t = Table::new(title, &headers.iter().map(String::as_str).collect::<Vec<_>>());
    for p in points {
        let row = columns
            .iter()
            .map(|col| match p.cells.iter().find(|(n, _)| n == col) {
                Some((_, cell)) => cell.clone(),
                None => {
                    let (_, f) = METRICS.iter().find(|(n, _)| n == col).expect("validated column");
                    f(&p.result)
                }
            })
            .collect();
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Opts {
        Opts {
            scale: 0.001,
            threads: 2,
            out_dir: std::env::temp_dir(),
            trace_dir: None,
        }
    }

    #[test]
    fn builtin_scenarios_parse_and_estimate() {
        for (name, _) in BUILTIN_SCENARIOS {
            let sc = builtin(name).unwrap();
            assert_eq!(sc.name, name);
            assert!(sc.estimated_jobs() > 0, "{name} estimates no jobs");
        }
        assert_eq!(builtin("comparison").unwrap().estimated_jobs(), 6 * 3 * 4);
        assert_eq!(builtin("fig7").unwrap().estimated_jobs(), 6 * 8);
        assert_eq!(builtin("load").unwrap().estimated_jobs(), 4 * 7);
    }

    #[test]
    fn plan_job_count_matches_estimate() {
        let opts = tiny_opts();
        for (name, _) in BUILTIN_SCENARIOS {
            let sc = builtin(name).unwrap();
            let plan = plan(&sc, &opts).unwrap();
            assert_eq!(plan.tasks().len(), sc.estimated_jobs(), "{name}");
        }
    }

    #[test]
    fn policy_registry_round_trips() {
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::Cflru(CflruConfig::default()),
            PolicyKind::Bplru(BplruConfig::default()),
            PolicyKind::Vbbms,
            PolicyKind::ReqBlock(ReqBlockConfig::paper()),
        ];
        for kind in kinds {
            assert_eq!(policy_by_name(kind.name()), Some(kind), "{}", kind.name());
        }
        let names = kinds.map(|k| k.name());
        for entry in POLICY_NAMES {
            let kind = policy_by_name(entry).expect("every entry resolves");
            assert!(names.contains(&kind.name()), "{entry} -> {}", kind.name());
        }
        assert!(policy_by_name("lru").is_none());
    }

    #[test]
    fn rejects_schema_violations() {
        let bad = |src: &str, needle: &str| {
            let e = Scenario::parse(src).unwrap_err();
            assert!(e.msg.contains(needle), "expected {needle:?} in {e}");
        };
        // A `kind` scenario whose axes (and output) are `rest`.
        let doc = |kind: &str, rest: &str| {
            format!("[scenario]\nname = \"x\"\nkind = \"{kind}\"\n[axes]\n{rest}")
        };
        let grid = |rest: &str| doc("grid", rest);
        let comparison = |rest: &str| doc("comparison", &format!("trace = \"ts_0\"\n{rest}"));
        // A one-point ts_0/LRU grid followed by `rest`.
        let lru = |rest: &str| grid(&format!("trace = \"ts_0\"\npolicy = \"LRU\"\n{rest}"));
        bad("[scenario]\nname = \"x\"\nkind = \"nope\"\n", "unknown kind");
        bad("[scenario]\nname = \"x\"\nkind = \"grid\"\n", "empty grid");
        bad(&grid("trace = \"ts_0\"\npolicy = []\n"), "empty grid");
        bad(&grid("bogus = \"y\"\n"), "unknown axis");
        bad(&comparison("qdepth = [1]\n"), "not allowed for kind");
        bad(&grid("trace = \"nope\"\npolicy = \"LRU\"\n"), "unknown trace");
        bad(&grid("trace = \"ts_0\"\npolicy = \"lru\"\n"), "unknown policy");
        bad(
            &comparison("policy = [\"LRU\", \"BPLRU\"]\ncache_mb = [16, 32, 64]\n"),
            "Req-block",
        );
        bad(
            &lru("[output]\ncolumns = [\"policy\", \"bogus_metric\"]\n"),
            "neither a declared axis nor a metric",
        );
        // The arrival cells exist only on grids with an arrival axis.
        bad(&lru("[output]\ncolumns = [\"process\"]\n"), "neither a declared axis nor a metric");
        bad(&lru("delta = [1, 2]\n"), "Req-block");
        let two_policies = "trace = \"ts_0\"\npolicy = [\"Req-block\", \"LRU\"]\ndelta = [1]\n";
        bad(&doc("fig7", two_policies), "single value");
        bad(&comparison("policy = [\"LRU\", \"Req-block\"]\n"), "requires the \"cache_mb\" axis");
        bad(&grid("trace = \"ts_0\"\nvariant = \"A1: no DRL split\"\n"), "unknown axis");
        bad("[scenario]\nname = \"x y\"\nkind = \"grid\"\n", "invalid scenario name");
        for section in ["../escaped", ""] {
            let src = lru(&format!("[output]\nsection = \"{section}\"\n"));
            bad(&src, &format!("invalid output.section {section:?}"));
        }
        bad(
            &lru("[output]\ncolumns = [\"policy\", \"p99_ms\"]\nlabels = [\"Policy\"]\n"),
            "(1 label(s) for 2 column(s))",
        );
        bad(&lru("[output]\nlabels = [\"Policy\"]\n"), "output.labels must match output.columns");
        bad(
            &comparison(
                "policy = [\"LRU\", \"Req-block\"]\ncache_mb = 32\n[output]\nlabels = [\"a\"]\n",
            ),
            "output.labels applies to grid scenarios only",
        );
        for value in ["poisson", "poisson:0", "uniform:1", "bursty:inf"] {
            bad(&lru(&format!("arrival = [\"{value}\"]\n")), &format!("unknown arrival {value:?}"));
        }
        bad(&lru("load_mult = [1.0]\n"), "unknown axis \"load_mult\"");
    }

    #[test]
    fn arrival_points_carry_process_load_and_offered_cells() {
        let src = "[scenario]\nname = \"a\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
                   policy = \"LRU\"\narrival = [\"poisson:0.5\", \"bursty:1\", \"poisson:2\"]\n";
        let (jobs, cells) = compile_grid(&Scenario::parse(src).unwrap(), &tiny_opts());
        let names: Vec<&str> = cells[0].iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["trace", "policy", "arrival", "process", "load", "offered_kreq_s"]);
        let derived: Vec<(&str, &str)> =
            cells.iter().map(|c| (c[3].1.as_str(), c[4].1.as_str())).collect();
        assert_eq!(derived, [("poisson", "0.5x"), ("bursty", "1x"), ("poisson", "2x")]);
        // Seeds count per process: the second Poisson value is seed + 1.
        let seeds: Vec<u64> = jobs
            .iter()
            .map(|j| match &j.source {
                TraceSource::OpenLoop { seed, .. } => *seed,
                other => panic!("expected an open-loop source, got {other:?}"),
            })
            .collect();
        assert_eq!(seeds, [0x10AD_5EED, 0x10AD_B025, 0x10AD_5EED + 1]);
    }

    #[test]
    fn pressured_geometry_is_the_fault_sweep_device() {
        let src = "[scenario]\nname = \"p\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
                   policy = \"Req-block\"\ngeometry = [\"paper\", \"pressured\"]\n";
        let (jobs, _) = compile_grid(&Scenario::parse(src).unwrap(), &tiny_opts());
        assert_eq!(jobs[0].cfg.cache_pages, CacheSizeMb::Mb32.pages());
        assert_eq!(jobs[1].cfg.cache_pages, 64);
        assert_eq!(jobs[1].cfg.ssd.total_chips(), 2);
    }

    #[test]
    fn grid_smoke_runs_and_renders_requested_columns() {
        let opts = tiny_opts();
        let sc = builtin("smoke").unwrap();
        let outcome = run(&sc, &opts).unwrap();
        assert_eq!(outcome.sections.len(), 1);
        let digests = outcome.digests();
        let t = outcome.into_single_table();
        assert_eq!(t.rows.len(), sc.estimated_jobs());
        assert_eq!(digests.len(), 1);
        assert_eq!(digests[0].0, "smoke");
    }

    #[test]
    fn grid_group_by_reorders_nesting() {
        let opts = tiny_opts();
        let src = "[scenario]\nname = \"g\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
                   policy = [\"LRU\", \"Req-block\"]\nqdepth = [1, 2]\n\
                   [output]\ngroup_by = [\"qdepth\"]\ncolumns = [\"qdepth\", \"policy\"]\n";
        let sc = Scenario::parse(src).unwrap();
        let outcome = run(&sc, &opts).unwrap();
        let t = outcome.into_single_table();
        // qdepth hoisted outermost: 1/LRU, 1/Req-block, 2/LRU, 2/Req-block.
        let rows: Vec<(String, String)> =
            t.rows.iter().map(|r| (r[0].clone(), r[1].clone())).collect();
        assert_eq!(
            rows,
            vec![
                ("1".into(), "LRU".into()),
                ("1".into(), "Req-block".into()),
                ("2".into(), "LRU".into()),
                ("2".into(), "Req-block".into()),
            ]
        );
    }

    #[test]
    fn set_axis_revalidates() {
        let mut sc = builtin("qdepth").unwrap();
        sc.set_axis("qdepth", AxisValues::Ints(vec![1, 3])).unwrap();
        assert_eq!(sc.estimated_jobs(), 4 * 2);
        let e = sc.set_axis("qdepth", AxisValues::Ints(vec![0])).unwrap_err();
        assert!(e.msg.contains("out of range"), "{e}");
    }
}
