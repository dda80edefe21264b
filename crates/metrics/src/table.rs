//! Aligned text tables for experiment output.
//!
//! The reproduction harness prints every figure and table of the paper as an
//! aligned text table with a "paper" column next to the "measured" column.
//! [`Table`] is a tiny column-aligning renderer; no external crates needed.

use std::fmt;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use fleet_metrics::Table;
///
/// let mut t = Table::new(["app", "hot (ms)", "cold (ms)"]);
/// t.row(["Twitter", "273", "2390"]);
/// t.row(["Facebook", "209", "1800"]);
/// let text = t.to_string();
/// assert!(text.contains("Twitter"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated to the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}", w = *w)?;
            }
            writeln!(f)
        };
        render(f, &self.header)?;
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(["wide-cell", "1"]);
        t.row(["x", "2"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Both data rows should start their second column at the same offset.
        let col = |line: &str| line.find('1').or_else(|| line.find('2')).unwrap();
        assert_eq!(col(lines[2]), col(lines[3]));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        // Should not panic when rendering.
        let _ = t.to_string();
    }

    #[test]
    fn long_rows_are_truncated() {
        let mut t = Table::new(["a"]);
        t.row(["x", "y", "z"]);
        let s = t.to_string();
        assert!(!s.contains('y'));
    }
}
