//! Plain-text and markdown rendering of tables for the experiment
//! binaries.

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut TextTable {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The rows appended so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders to a string (also used by `Display`).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align the rest.
                if c.chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_digit() || ch == '-')
                {
                    s.push_str(&format!("{c:>w$}", w = widths[i]));
                } else {
                    s.push_str(&format!("{c:<w$}", w = widths[i]));
                }
            }
            s
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub markdown table: the header, a `|---|` rule and
    /// the rows, one line each. In a row whose first cell is `average`
    /// every non-empty cell is bold; an empty cell renders as ` |`.
    pub fn markdown(&self) -> String {
        let line = |cells: &[String], bold: bool| -> String {
            let mut s = String::from("|");
            for c in cells {
                match (c.is_empty(), bold) {
                    (true, _) => s.push_str(" |"),
                    (false, true) => s.push_str(&format!(" **{c}** |")),
                    (false, false) => s.push_str(&format!(" {c} |")),
                }
            }
            s.push('\n');
            s
        };
        let mut out = line(&self.headers, false);
        out.push('|');
        out.push_str(&"---|".repeat(self.headers.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, row.first().is_some_and(|c| c == "average")));
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a fraction as a percent with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1.0"]);
        t.row(vec!["b", "20.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].contains("alpha"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        TextTable::new(vec!["a", "b"]).row(vec!["only one"]);
    }

    #[test]
    fn markdown_has_a_header_rule() {
        let mut t = TextTable::new(vec!["benchmark", "a", "b"]);
        t.row(vec!["x", "1.0", "2.0"]);
        assert_eq!(
            t.markdown(),
            "| benchmark | a | b |\n|---|---|---|\n| x | 1.0 | 2.0 |\n"
        );
    }

    #[test]
    fn markdown_bolds_only_the_average_row() {
        let mut t = TextTable::new(vec!["benchmark", "a", "b"]);
        t.row(vec!["x", "1.0", ""]);
        t.row(vec!["average", "1.5", ""]);
        t.row(vec!["averages", "2.0", "3.0"]);
        let md = t.markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[2], "| x | 1.0 | |", "an empty cell is \" |\"");
        assert_eq!(lines[3], "| **average** | **1.5** | |");
        assert_eq!(lines[4], "| averages | 2.0 | 3.0 |");
        let bold_lines: Vec<&str> = lines.iter().copied().filter(|l| l.contains("**")).collect();
        assert_eq!(
            bold_lines,
            vec![lines[3]],
            "no bold outside the average row"
        );
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.815), "81.5");
    }
}
