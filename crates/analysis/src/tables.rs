//! Fixed-width table formatting for the experiment reports
//! ("paper vs. measured" rows).

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "Table: row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<w$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV rows (header first).
    pub fn to_csv_rows(&self) -> (Vec<&str>, Vec<Vec<String>>) {
        (
            self.header.iter().map(String::as_str).collect(),
            self.rows.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["model", "msle"]);
        t.push(vec!["CasCN".into(), "1.91".into()]);
        t.push(vec!["DeepHawkes".into(), "2.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("model"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("CasCN"));
        // Columns aligned: "msle" column starts at the same offset everywhere.
        let offset = lines[0].find("msle").unwrap();
        assert_eq!(&lines[2][offset..offset + 4], "1.91");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new(&["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let (header, rows) = t.to_csv_rows();
        assert_eq!(header, vec!["a", "b"]);
        assert_eq!(rows.len(), 1);
    }
}
