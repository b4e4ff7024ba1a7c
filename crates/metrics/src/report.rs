//! Plain-text tables and JSON emission for the benchmark harness.
//!
//! Every `figNN_*` binary prints a fixed-width table mirroring the paper's
//! figure series and can also dump the raw rows as JSON for post-processing.

use std::fmt::Write as _;

use serde::Serialize;

/// A simple fixed-width table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(line, "{:>width$}  ", cell, width = w);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths
            .iter()
            .map(|w| w + 2)
            .sum::<usize>()
            .saturating_sub(2);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Serializes `value` as pretty JSON, for machine-readable experiment output.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Formats a seconds value with adaptive precision (µs–s scale).
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0}s")
    } else if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.1}ms", secs * 1e3)
    } else {
        format!("{:.0}us", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["trace", "mean", "p99"]);
        t.row(&["S-S".into(), "1.2".into(), "14.0".into()]);
        t.row(&["M-M".into(), "2.0".into(), "9.5".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("trace"));
        assert!(s.contains("S-S"));
        // Every data line is aligned to the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["1".into()]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains('3'));
    }

    #[test]
    fn fmt_secs_scales() {
        assert_eq!(fmt_secs(123.4), "123s");
        assert_eq!(fmt_secs(1.5), "1.50s");
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(42e-6), "42us");
    }

    #[test]
    fn json_roundtrip() {
        #[derive(Serialize)]
        struct Row {
            name: &'static str,
            value: f64,
        }
        let j = to_json(&Row {
            name: "x",
            value: 1.0,
        });
        assert!(j.contains("\"name\": \"x\""));
    }
}
