//! Plain-text table rendering.

use serde::{Deserialize, Serialize};

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TextTable {
    /// Table title (printed above the header).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; ragged rows are padded with empty cells when rendered.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given title and headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let columns = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (index, header) in self.headers.iter().enumerate() {
            widths[index] = widths[index].max(header.len());
        }
        for row in &self.rows {
            for (index, cell) in row.iter().enumerate() {
                widths[index] = widths[index].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&render_row(&self.headers, &widths));
        out.push_str(&render_separator(&widths));
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
        }
        out
    }
}

fn render_row(cells: &[String], widths: &[usize]) -> String {
    let mut line = String::new();
    for (index, width) in widths.iter().enumerate() {
        let cell = cells.get(index).map(String::as_str).unwrap_or("");
        line.push_str(&format!("{cell:<width$}  "));
    }
    line.trim_end().to_string() + "\n"
}

fn render_separator(widths: &[usize]) -> String {
    let mut line = String::new();
    for width in widths {
        line.push_str(&"-".repeat(*width));
        line.push_str("  ");
    }
    line.trim_end().to_string() + "\n"
}

/// Format a count with thousands separators (the tables in the paper use
/// human-readable magnitudes).
pub fn format_count(value: usize) -> String {
    let digits: Vec<char> = value.to_string().chars().rev().collect();
    let mut out = String::new();
    for (index, digit) in digits.iter().enumerate() {
        if index > 0 && index % 3 == 0 {
            out.push(',');
        }
        out.push(*digit);
    }
    out.chars().rev().collect()
}

/// Format a fraction as a percentage with no decimals (the paper rounds to
/// integer percentages).
pub fn format_percent(fraction: f64) -> String {
    format!("{:.0} %", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new("Demo", &["Origin", "Conns."]);
        table.push_row(["www.google-analytics.com", "2,250,000"]);
        table.push_row(["www.facebook.com", "1,520,000"]);
        let rendered = table.render();
        assert!(rendered.starts_with("## Demo\n"));
        assert!(rendered.contains("Origin"));
        assert!(rendered.contains("www.facebook.com"));
        // Title, header, separator and the two data rows.
        assert_eq!(rendered.lines().count(), 5);
        // Aligned: both data lines have the count starting at the same column.
        let lines: Vec<&str> = rendered.lines().collect();
        let position_a = lines[3].find("2,250,000").unwrap();
        let position_b = lines[4].find("1,520,000").unwrap();
        assert_eq!(position_a, position_b);
    }

    #[test]
    fn count_and_percent_formatting() {
        assert_eq!(format_count(0), "0");
        assert_eq!(format_count(1_234), "1,234");
        assert_eq!(format_count(6_242_688), "6,242,688");
        assert_eq!(format_percent(0.758), "76 %");
        assert_eq!(format_percent(0.0), "0 %");
    }
}
