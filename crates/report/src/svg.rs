//! Hand-rolled SVG chart primitives. No chart library, no scripts —
//! every chart is a small inline `<svg>` element, so the page stays
//! self-contained and renders from `file://`.
//!
//! Coordinates are emitted with one decimal; the charts are glanceable
//! trend indicators, not measurement instruments (the tables next to
//! them carry the exact numbers).

use std::fmt::Write as _;

/// Inline sparkline polyline over `values` (gaps allowed via `None`).
/// Y is auto-scaled to the min..max of the present values; a flat or
/// single-point series renders as a midline.
pub fn sparkline(values: &[Option<f64>], width: u32, height: u32) -> String {
    let present: Vec<f64> = values
        .iter()
        .flatten()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if present.is_empty() {
        return format!(
            "<svg class=\"spark\" width=\"{width}\" height=\"{height}\" \
             viewBox=\"0 0 {width} {height}\"></svg>"
        );
    }
    let (min, max) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (max - min).max(f64::EPSILON);
    let n = values.len().max(2) as f64;
    let pad = 2.0;
    let mut points = String::new();
    for (i, value) in values.iter().enumerate() {
        let Some(v) = value.filter(|v| v.is_finite()) else {
            continue;
        };
        let x = i as f64 / (n - 1.0) * (f64::from(width) - 2.0 * pad) + pad;
        let y = if max == min {
            f64::from(height) / 2.0
        } else {
            f64::from(height) - pad - (v - min) / span * (f64::from(height) - 2.0 * pad)
        };
        let _ = write!(points, "{x:.1},{y:.1} ");
    }
    format!(
        "<svg class=\"spark\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\">\
         <polyline fill=\"none\" stroke=\"#2a6f97\" stroke-width=\"1.5\" \
         points=\"{}\"/></svg>",
        points.trim_end()
    )
}

/// One horizontal bar filled to `frac` (clamped 0..1) of the width.
pub fn hbar(frac: f64, width: u32, height: u32) -> String {
    let frac = frac.clamp(0.0, 1.0);
    let fill = frac * f64::from(width);
    format!(
        "<svg class=\"bar\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\">\
         <rect width=\"{width}\" height=\"{height}\" fill=\"#eef2f5\"/>\
         <rect width=\"{fill:.1}\" height=\"{height}\" fill=\"#2a6f97\"/></svg>"
    )
}

/// Trace waterfall: one row per span, offset by its start within the
/// request and sized by its duration. `spans` is `(label, start_us, us)`;
/// `total_us` sets the time axis.
pub fn waterfall(spans: &[(String, f64, f64)], total_us: f64, width: u32) -> String {
    const ROW: u32 = 14;
    const LABEL_W: u32 = 150;
    let total = total_us.max(f64::EPSILON);
    let lane = f64::from(width.saturating_sub(LABEL_W).max(1));
    let height = ROW * spans.len().max(1) as u32;
    let mut out = format!(
        "<svg class=\"waterfall\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\">"
    );
    for (i, (label, start_us, us)) in spans.iter().enumerate() {
        let y = ROW * i as u32;
        let x = f64::from(LABEL_W) + (start_us / total).clamp(0.0, 1.0) * lane;
        let w = ((us / total) * lane).clamp(1.0, lane);
        let _ = write!(
            out,
            "<text x=\"0\" y=\"{ty}\" font-size=\"10\" fill=\"#333\">{label}</text>\
             <rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{h}\" \
             fill=\"#52b69a\"/>",
            ty = y + ROW - 4,
            label = crate::html::escape(label),
            h = ROW - 3,
        );
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_and_skips_gaps() {
        let svg = sparkline(&[Some(1.0), None, Some(3.0), Some(2.0)], 100, 20);
        assert!(svg.contains("<polyline"), "{svg}");
        // Three present points → three coordinate pairs.
        let pairs = svg
            .split("points=\"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap();
        assert_eq!(pairs.split_whitespace().count(), 3, "{pairs}");
    }

    #[test]
    fn sparkline_handles_empty_and_flat() {
        assert!(!sparkline(&[], 100, 20).contains("polyline"));
        let flat = sparkline(&[Some(5.0), Some(5.0)], 100, 20);
        assert!(
            flat.contains("10.0"),
            "flat series sits on the midline: {flat}"
        );
    }

    #[test]
    fn hbar_clamps() {
        assert!(hbar(2.0, 100, 8).contains("width=\"100.0\""));
        assert!(hbar(-1.0, 100, 8).contains("width=\"0.0\""));
        assert!(hbar(0.5, 100, 8).contains("width=\"50.0\""));
    }

    #[test]
    fn waterfall_offsets_rows() {
        let spans = vec![
            ("parse".to_string(), 0.0, 10.0),
            ("retrieve".to_string(), 10.0, 30.0),
        ];
        let svg = waterfall(&spans, 40.0, 550);
        assert!(svg.contains("parse") && svg.contains("retrieve"));
        assert_eq!(svg.matches("<rect").count(), 2);
    }
}
