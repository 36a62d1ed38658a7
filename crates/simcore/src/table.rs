//! Aligned-text tables and CSV emission for experiment reports.
//!
//! Every experiment prints its table with [`Table`] and also writes
//! the same rows as CSV so results can be post-processed. Keeping this in
//! `simcore` means one formatting implementation serves every `R-*`
//! experiment.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// An in-memory table: a header row plus data rows of equal width.
///
/// # Example
///
/// ```
/// use simcore::table::Table;
///
/// let mut t = Table::new(vec!["scenario", "latency_ms"]);
/// t.row(vec!["stationary".into(), "3.1".into()]);
/// let text = t.to_string();
/// assert!(text.contains("scenario"));
/// assert!(text.contains("stationary"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "Table::new: header must be non-empty");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row: expected {} cells, got {}",
            self.header.len(),
            cells.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The header cells.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as RFC-4180-style CSV (quotes cells containing
    /// commas, quotes or newlines).
    fn to_csv(&self) -> String {
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            let encoded: Vec<String> = cells.iter().map(|c| csv_escape(c)).collect();
            out.push_str(&encoded.join(","));
            out.push('\n');
        };
        emit(&mut out, &self.header);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (cell, w) in cells.iter().zip(&widths) {
                if !first {
                    write!(f, "  ")?;
                }
                first = false;
                write!(f, "{cell:<w$}", w = *w)?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with `prec` decimal places — shorthand used by all
/// experiments when filling table cells.
pub fn fnum(value: f64, prec: usize) -> String {
    format!("{value:.prec$}")
}

/// Formats a fraction as a percentage with one decimal place, e.g. `0.941`
/// becomes `"94.1%"`.
pub fn fpct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a-long-name".into(), "1".into()]);
        t.row(vec!["b".into(), "22".into()]);
        let out = t.to_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Column two starts at the same offset in every row.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
        assert_eq!(lines[3].find("22").unwrap(), col);
    }

    #[test]
    fn csv_round_trips_simple_cells() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn csv_escapes_specials() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["has,comma".into()]);
        t.row(vec!["has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "expected 2 cells")]
    fn row_width_is_enforced() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn write_csv_creates_directories() {
        let dir = std::env::temp_dir().join(format!("simcore-table-test-{}", std::process::id()));
        let path = dir.join("nested").join("out.csv");
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        t.write_csv(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a\n1\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnum_and_fpct_format() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fpct(0.941), "94.1%");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["a"]);
        assert!(t.is_empty());
        t.row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
    }
}
