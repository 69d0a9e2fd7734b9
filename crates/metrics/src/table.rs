//! Plain-text table rendering for paper-style result tables (e.g. Table 1).

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells, header has {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| display_width(h)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(display_width(cell));
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let _ = writeln!(out, "{sep}");
        out.push('|');
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, " {}{} |", h, " ".repeat(widths[i] - display_width(h)));
        }
        out.push('\n');
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            out.push('|');
            for i in 0..ncols {
                let cell = &row[i];
                let _ = write!(out, " {}{} |", cell, " ".repeat(widths[i] - display_width(cell)));
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{sep}");
        out
    }
}

/// Character count, which is what terminal alignment needs (we only emit
/// ASCII plus the degree sign in practice).
fn display_width(s: &str) -> usize {
    s.chars().count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Table 1", &["policy", "power (W)"]);
        t.row(&["tDVFS".into(), "94.19".into()]);
        t.row(&["CPUSPEED".into(), "99.30".into()]);
        let s = t.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("| policy   | power (W) |"));
        assert!(s.contains("| tDVFS    | 94.19     |"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn rejects_mismatched_row() {
        let mut t = TextTable::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn unicode_degree_sign_aligns() {
        let mut t = TextTable::new("", &["temp (°C)"]);
        t.row(&["51.0".into()]);
        let s = t.render();
        // Each border line must have the same length as the header line.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].chars().count(), lines[1].chars().count());
    }
}
