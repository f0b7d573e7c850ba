//! Plain-text table/series rendering for the experiments' printers.

use std::fmt::Write as _;

/// A simple aligned-column text table.
///
/// # Examples
///
/// ```
/// use cmpqos_experiments::output::Table;
///
/// let mut t = Table::new(&["benchmark", "IPC"]);
/// t.row(&["bzip2", "0.34"]);
/// let s = t.render();
/// assert!(s.contains("bzip2"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows
            .push(cells.iter().map(|s| (*s).to_string()).collect());
    }

    /// Appends a row of owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i];
                if i + 1 == cols {
                    let _ = write!(out, "{cell:<pad$}");
                } else {
                    let _ = write!(out, "{cell:<pad$}  ");
                }
            }
            out.push('\n');
        };
        emit(&self.header, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

impl Table {
    /// Renders the table as CSV (RFC 4180-style quoting) so experiment
    /// output can be piped into plotting tools.
    ///
    /// # Examples
    ///
    /// ```
    /// use cmpqos_experiments::output::Table;
    /// let mut t = Table::new(&["a", "b"]);
    /// t.row(&["1", "x,y"]);
    /// assert_eq!(t.to_csv(), "a,b\n1,\"x,y\"\n");
    /// ```
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&self.header, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Formats a fraction as a percentage string (`0.47` → `"47.0%"`).
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats a throughput ratio as the paper does (`1.47` → `"+47%"`).
#[must_use]
pub fn gain(ratio: f64) -> String {
    format!("{:+.0}%", (ratio - 1.0) * 100.0)
}

/// Prints a standard experiment banner.
pub fn banner(title: &str, params: &crate::ExperimentParams) {
    println!("== {title} ==");
    println!(
        "   (scale 1/{}, {} instructions/job, seed {})\n",
        params.scale,
        params.work.get(),
        params.seed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["a", "benchmark"]);
        t.row(&["x", "y"]);
        t.row_owned(vec!["longer".into(), "z".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows have the same width for the first column block.
        assert!(lines[0].starts_with("a     "));
        assert!(lines[2].starts_with("x     "));
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn row_length_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn csv_escapes_delimiters_and_quotes() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["plain", "1"]);
        t.row(&["com,ma", "qu\"ote"]);
        let csv = t.to_csv();
        assert_eq!(csv, "name,value\nplain,1\n\"com,ma\",\"qu\"\"ote\"\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(gain(1.47), "+47%");
        assert_eq!(gain(0.9), "-10%");
    }
}
