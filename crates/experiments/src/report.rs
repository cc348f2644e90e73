//! Minimal table rendering: markdown for humans, CSV for plotting.
//!
//! Kept dependency-free on purpose (see DESIGN.md §3): the harness writes
//! its own CSV/markdown instead of pulling in a serialization stack.

use std::fmt::Write as _;

/// A titled table of string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Human-readable title (becomes the markdown heading).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each must have `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Empty table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the cell count does not match the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != header width {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavoured markdown table with a heading.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(out, "|{}|", self.columns.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Render as CSV (header + rows). Cells containing commas or quotes are
    /// quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// The `<name>.md` and `<name>.csv` files of one section: its tables
/// concatenated, each CSV table under a `# title` line and followed by a
/// blank line.
pub fn section_files(name: &str, tables: &[Table]) -> [(String, String); 2] {
    let md: String = tables.iter().map(|t| t.to_markdown() + "\n").collect();
    let csv: String = tables
        .iter()
        .map(|t| format!("# {}\n{}\n", t.title, t.to_csv()))
        .collect();
    [(format!("{name}.md"), md), (format!("{name}.csv"), csv)]
}

/// Format a float with 3 decimal places.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "x,y".into()]);
        t
    }

    #[test]
    fn markdown_has_heading_and_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | x,y |"));
    }

    #[test]
    fn csv_quotes_commas() {
        let csv = sample().to_csv();
        assert!(csv.contains("a,b"));
        assert!(csv.contains("1,\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn section_files_render_both_formats() {
        let [(md_name, md), (csv_name, csv)] = section_files("demo", &[sample(), sample()]);
        assert_eq!((md_name.as_str(), csv_name.as_str()), ("demo.md", "demo.csv"));
        assert_eq!(md, format!("{0}\n{0}\n", sample().to_markdown()));
        assert_eq!(csv, "# Demo\na,b\n1,\"x,y\"\n\n# Demo\na,b\n1,\"x,y\"\n\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(0.425), "42.5%");
    }
}

/// Render a horizontal ASCII bar chart for labelled values — used by the
/// `repro` binary to make normalized figure series readable in a terminal
/// without plotting tools. Bars scale to `width` characters at the maximum
/// value.
pub fn bar_chart(title: &str, entries: &[(String, f64)], width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if entries.is_empty() {
        let _ = writeln!(out, "  (no data)");
        return out;
    }
    let max = entries.iter().map(|(_, v)| *v).fold(f64::MIN_POSITIVE, f64::max);
    let label_w = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in entries {
        let n = ((value / max) * width as f64).round().max(0.0) as usize;
        let _ = writeln!(out, "  {label:<label_w$} {:<width$} {value:.3}", "#".repeat(n));
    }
    out
}

#[cfg(test)]
mod bar_tests {
    use super::bar_chart;

    #[test]
    fn bars_scale_to_max() {
        let chart = bar_chart(
            "demo",
            &[("a".into(), 1.0), ("bb".into(), 0.5), ("c".into(), 0.0)],
            10,
        );
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines[0], "demo");
        assert!(lines[1].contains("##########"), "{chart}");
        assert!(lines[2].contains("#####"), "{chart}");
        assert!(!lines[3].contains('#'), "{chart}");
        // Labels aligned to the widest.
        assert!(lines[1].starts_with("  a  "), "{chart}");
        assert!(lines[2].starts_with("  bb "), "{chart}");
    }

    #[test]
    fn empty_chart_is_graceful() {
        let chart = bar_chart("t", &[], 10);
        assert!(chart.contains("no data"));
    }
}
