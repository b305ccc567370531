//! Plain-text report formatting for experiment outputs.

use std::fmt::Write as _;

/// Renders a table with a header row and aligned columns.
///
/// # Panics
/// Panics if any row's length differs from the header's.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), header.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in header.iter().zip(&widths) {
        let _ = write!(line, "| {h:<w$} ");
    }
    line.push('|');
    let sep: String = line
        .chars()
        .map(|c| if c == '|' { '+' } else { '-' })
        .collect();
    out.push_str(&sep);
    out.push('\n');
    out.push_str(&line);
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "| {cell:<w$} ");
        }
        line.push('|');
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Renders an `(x, y)` series as two aligned columns.
pub fn series(x_label: &str, y_label: &str, points: &[(f64, f64)]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(x, y)| vec![format!("{x:.3}"), format!("{y:.4}")])
        .collect();
    table(&[x_label, y_label], &rows)
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// A rate cell of a report: [`pct`], or `n/a` when the cell has no rate
/// (every window in it abstained).
pub fn pct_or_na(x: Option<f64>) -> String {
    x.map_or_else(|| "n/a".into(), pct)
}

/// A rate cell of a CSV: the full-precision value, or `n/a` when the
/// cell has no rate.
pub fn value_or_na(x: Option<f64>) -> String {
    x.map_or_else(|| "n/a".into(), |v| v.to_string())
}

/// Renders rows as RFC-4180-style CSV (quotes fields containing commas,
/// quotes or newlines). The first row should be the header.
pub fn csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        let mut first = true;
        for cell in row {
            if !first {
                out.push(',');
            }
            first = false;
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                out.push('"');
                out.push_str(&cell.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(cell);
            }
        }
        out.push('\n');
    }
    out
}

/// CSV for an `(x, y)` series.
pub fn csv_series(x_label: &str, y_label: &str, points: &[(f64, f64)]) -> String {
    let mut rows = vec![vec![x_label.to_string(), y_label.to_string()]];
    rows.extend(
        points
            .iter()
            .map(|(x, y)| vec![format!("{x}"), format!("{y}")]),
    );
    csv(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["scheme", "tp"],
            &[
                vec!["baseline".into(), "0.70".into()],
                vec!["sub".into(), "0.882".into()],
            ],
        );
        assert!(t.contains("| baseline | 0.70  |"));
        assert!(t.contains("| sub      | 0.882 |"));
        let lines: Vec<&str> = t.lines().collect();
        // border, header, border, 2 rows, border
        assert_eq!(lines.len(), 6);
        assert!(lines[0].starts_with('+'));
    }

    #[test]
    fn series_formats_points() {
        let s = series("fp", "tp", &[(0.0, 0.5), (1.0, 1.0)]);
        assert!(s.contains("0.000"));
        assert!(s.contains("1.0000"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.920), "92.0%");
        assert_eq!(pct(0.045), "4.5%");
    }

    #[test]
    fn csv_escapes_special_cells() {
        let rows = vec![
            vec!["a".to_string(), "b,c".to_string()],
            vec!["quote\"d".to_string(), "plain".to_string()],
        ];
        let out = csv(&rows);
        assert_eq!(out, "a,\"b,c\"\n\"quote\"\"d\",plain\n");
    }

    #[test]
    fn csv_series_has_header_and_rows() {
        let out = csv_series("x", "y", &[(1.0, 2.0), (3.0, 4.5)]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "x,y");
        assert_eq!(lines[1], "1,2");
        assert_eq!(lines[2], "3,4.5");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_row_panics() {
        let _ = table(&["a", "b"], &[vec!["x".into()]]);
    }
}
