use std::fmt;

/// A fixed-width text table, used by the paper-figure views to print the
/// paper's tables and figure series.
///
/// # Example
///
/// ```
/// use dmdp_stats::Table;
/// let mut t = Table::new(["bench", "baseline", "DMDP"]);
/// t.row(["wrf", "18.17", "9.19"]);
/// let s = t.to_string();
/// assert!(s.contains("bench"));
/// assert!(s.contains("9.19"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width must match header width");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                // Left-align the first column (names), right-align numbers.
                if i == 0 {
                    write!(f, "{:<width$}", cell, width = widths[i])?;
                } else {
                    write!(f, "{:>width$}", cell, width = widths[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "v"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right alignment of the numeric column.
        assert!(lines[2].ends_with(" 1"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(["x"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
    }
}
