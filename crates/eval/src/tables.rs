//! Minimal table rendering for the experiment binaries — aligned plain
//! text (for terminals) and GitHub-flavored markdown (for EXPERIMENTS.md).

/// A simple rectangular table of strings.
#[derive(Debug, Clone)]
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

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i] - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad + 2));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with `digits` decimal places.
pub fn fmt_f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a `Duration` the way the paper's tables do: hours with two
/// decimals for long runs, seconds otherwise.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 3600.0 {
        format!("{:.2} h", secs / 3600.0)
    } else if secs >= 60.0 {
        format!("{:.1} min", secs / 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.2} s")
    } else {
        format!("{:.1} ms", secs * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn text_rendering_aligns_columns() {
        let mut t = Table::new("Demo", &["method", "score"]);
        t.row(&["CubeLSI".into(), "0.9".into()]);
        t.row(&["BOW".into(), "0.5".into()]);
        let text = t.to_text();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("CubeLSI"));
        let lines: Vec<&str> = text.lines().collect();
        // Header + separator + 2 rows + title line.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.row(&["only".into()]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.to_text().lines().last(), Some("only"));
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_secs_f64(7200.0)), "2.00 h");
        assert_eq!(fmt_duration(Duration::from_secs_f64(90.0)), "1.5 min");
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.5)), "2.50 s");
        assert_eq!(fmt_duration(Duration::from_secs_f64(0.005)), "5.0 ms");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(1.0, 3), "1.000");
    }
}
