//! Plain-text rendering of measurement tables.

use serde::Serialize;
use std::fmt::Write as _;

/// A simple aligned text table.
///
/// ```
/// use sync_micro::report::TextTable;
///
/// let mut t = TextTable::new("demo", &["type", "latency"]);
/// t.row(vec!["tile".into(), "14".into()]);
/// assert!(t.render().contains("== demo =="));
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct TextTable {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(title: &str, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for i in 0..ncols {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:<width$}", cells[i], width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Format a float with sensible significant digits for table cells.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return "-".to_string();
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("demo", &["name", "value"]);
        t.row(vec!["tile".into(), "14".into()]);
        t.row(vec!["coalesced(32)".into(), "14".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + rule + 2 rows
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("name"));
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn fmt_scales_digits() {
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(123.45), "123.5");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(0.1234), "0.123");
        assert_eq!(fmt(f64::NAN), "-");
    }
}
