//! Tiny table-rendering helpers for the paper artifacts.

use std::fmt::Write as _;

/// Formats a fraction as a percentage with two decimals, e.g. `3.14%`.
pub fn pct(value: f64) -> String {
    format!("{:.2}%", value * 100.0)
}

/// Appends a header row followed by a separator of matching width.
pub fn print_header(out: &mut String, columns: &[&str], widths: &[usize]) {
    let line = row(columns, widths);
    let _ = writeln!(out, "{line}");
    let _ = writeln!(out, "{}", "-".repeat(line.len()));
}

/// Appends one data row with the same widths as the header.
pub fn print_row(out: &mut String, cells: &[String], widths: &[usize]) {
    let _ = writeln!(out, "{}", row(cells, widths));
}

/// Right-aligns each cell to its width and joins them with ` | `.
fn row<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>w$}", c.as_ref(), w = w))
        .collect();
    row.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_two_decimals() {
        assert_eq!(pct(0.0314), "3.14%");
        assert_eq!(pct(0.0), "0.00%");
        assert_eq!(pct(1.0), "100.00%");
    }
}
