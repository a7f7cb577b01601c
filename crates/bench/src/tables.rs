//! Plain-text table rendering for the repro binaries.

/// Renders rows as an aligned text table. `header` defines the column
/// count; rows shorter than the header are right-padded with blanks.
pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().take(cols).enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, width) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..*width {
                out.push(' ');
            }
        }
        // Trim trailing padding.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    write_row(&mut out, &header_cells);
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    write_row(&mut out, &sep);
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Formats a ratio as the paper does ("0.31", "1.88x" with `x`).
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a proportion as a percentage with one decimal.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats byte counts human-readably.
pub fn fmt_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.2} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let s = render(
            &["Model", "RP"],
            &[
                vec!["GraphEx".into(), "56.4%".into()],
                vec!["RE".into(), "63.7%".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Model"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("GraphEx"));
        // Columns align: "RP" column starts at same offset in all rows.
        let col = lines[0].find("RP").unwrap();
        assert_eq!(&lines[2][col..col + 2], "56");
    }

    #[test]
    fn formats() {
        assert_eq!(fmt_pct(0.564), "56.4%");
        assert_eq!(fmt_ratio(1.875), "1.88");
        assert_eq!(fmt_bytes(500), "500 B");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
    }

    #[test]
    fn short_rows_are_padded() {
        let s = render(&["A", "B", "C"], &[vec!["x".into()]]);
        assert!(s.lines().count() == 3);
    }
}
