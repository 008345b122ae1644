//! Plain-text table rendering for the CLI and EXPERIMENTS.md.

use std::fmt::Write as _;

/// A rectangular table with a title and column headers.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells; ragged rows are padded.
    pub rows: Vec<Vec<String>>,
    /// Optional caption printed below.
    pub caption: String,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            caption: String::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Sets the caption.
    pub fn with_caption(mut self, caption: impl Into<String>) -> Self {
        self.caption = caption.into();
        self
    }

    /// Renders with aligned columns (first column left, rest right).
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    let _ = write!(line, "{cell:<w$}");
                } else {
                    let _ = write!(line, "  {cell:>w$}");
                }
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header));
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r));
        }
        if !self.caption.is_empty() {
            let _ = writeln!(out, "{}", self.caption);
        }
        out
    }
}

/// Formats a Joule value.
pub fn j(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a value ± its confidence half-width.
pub fn pm(mean: f64, ci: f64) -> String {
    format!("{mean:.1} ±{ci:.1}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Formats a ratio with two decimals (Figure 16 style).
pub fn ratio(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a min-max ratio band (Figure 16 style).
pub fn band(min: f64, max: f64) -> String {
    format!("{min:.2}-{max:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Row", "A", "B"]);
        t.push_row(vec!["first".into(), "1.0".into(), "22.5".into()]);
        t.push_row(vec!["second-longer".into(), "333.0".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[2].starts_with('-'));
        // Right-aligned numeric columns line up.
        let c1 = lines[3].rfind("22.5").unwrap() + 4;
        let c2 = lines[4].rfind('4').unwrap() + 1;
        assert_eq!(c1, c2);
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("", &["A", "B", "C"]);
        t.push_row(vec!["x".into()]);
        let s = t.render();
        assert!(s.contains('x'));
    }

    #[test]
    fn formatters() {
        assert_eq!(j(12.34), "12.3");
        assert_eq!(pm(10.0, 0.5), "10.0 ±0.5");
        assert_eq!(pct(33.333), "33.3%");
        assert_eq!(ratio(0.666), "0.67");
        assert_eq!(band(0.1, 0.25), "0.10-0.25");
    }

    #[test]
    fn caption_is_rendered() {
        let t = Table::new("t", &["A"]).with_caption("note");
        assert!(t.render().contains("note"));
    }
}
