//! Plain-text table rendering and JSON result dumping for the bench
//! binaries — the "same rows/series the paper reports", printed.

use serde::Serialize;
use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes any serializable result set to a JSON file when `path` is given.
pub fn maybe_write_json<T: Serialize>(path: &Option<String>, value: &T) {
    if let Some(path) = path {
        let json = serde_json::to_string_pretty(value).expect("results are serializable");
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("warning: could not write {path}: {e}");
        });
        println!("\nresults written to {path}");
    }
}

/// Renders a horizontal ASCII bar chart for a labelled series — a terminal
/// stand-in for the paper's figure panels.
pub fn bar_chart(title: &str, series: &[(String, f64)], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let max = series
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let label_w = series.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, v) in series {
        let bars = ((v / max) * width as f64).round() as usize;
        let _ = writeln!(out, "{:<label_w$}  {:>8.2} |{}", label, v, "█".repeat(bars),);
    }
    out
}

/// Renders a compact sparkline for a numeric series (rise-and-fall curves
/// like the Figure 14 limiting sweep).
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let t = ((v - min) / span * 7.0).round() as usize;
            TICKS[t.min(7)]
        })
        .collect()
}

/// Formats a float with 2 decimals (the paper's precision for speedups).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a count with thousands separators for readability.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer-name", "2.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
        // all rows equal width prefix alignment
        assert_eq!(
            lines[2].find('1'),
            lines[3].find('2'),
            "value column must align"
        );
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let s = bar_chart("t", &[("a".to_string(), 1.0), ("bb".to_string(), 2.0)], 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t");
        let bars = |l: &str| l.chars().filter(|&c| c == '█').count();
        assert_eq!(bars(lines[2]), 10); // max gets full width
        assert_eq!(bars(lines[1]), 5);
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0, 0.5, 0.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 5);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[2], '█');
        assert_eq!(chars[0], chars[4]);
        assert!(sparkline(&[]).is_empty());
    }

    #[test]
    fn count_formats_thousands() {
        assert_eq!(count(1_234_567), "1,234,567");
        assert_eq!(count(42), "42");
        assert_eq!(count(1000), "1,000");
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f2(1.434), "1.43");
    }
}
