//! Aligned text-table printing for the paper-reproduction catalogue.

/// A simple fixed-width table printer producing paper-style rows.
#[derive(Debug, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: AsRef<str>>(header: &[S]) -> Self {
        Table {
            header: header.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub(crate) fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a fraction as a percentage with two decimals (paper style).
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

/// Formats a float with the given number of decimals.
pub(crate) fn num(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Prints a section heading.
pub(crate) fn heading(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["rate", "acc"]);
        t.row(vec!["2".into(), "92.67".into()]);
        t.row(vec!["12".into(), "94.75".into()]);
        let out = t.render();
        assert!(out.contains("rate"));
        assert!(out.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.9267), "92.67");
        assert_eq!(num(0.637_42, 2), "0.64");
    }
}
