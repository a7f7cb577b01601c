//! Alignment functions scoring a candidate keyphrase against a title.
//!
//! Given a title `T` and a label (keyphrase) `l`, with `c = |T ∩ l|` the
//! number of *distinct* label words also present in the title:
//!
//! * **LTA** (Label-Title Alignment, the paper's contribution, Sec. III-E1):
//!   `c / (|l| − c + 1)`. Penalizes label words *missing* from the title —
//!   a missing token is "risky" because it can change the product entirely.
//! * **WMR** (Word Match Ratio, used by Graphite): `c / |l|`.
//! * **JAC** (Jaccard coefficient): `c / (|l| + |T| − c)`.
//!
//! Sec. IV-F1's worked example: title with 10 tokens, labels "A B C" and
//! "A B C D E" — LTA ranks "A B C" first (3/1 > 4/2) while JAC prefers the
//! longer, riskier label (3/10 < 4/10). The paper's Table VI measures
//! LTA ≥ JAC > WMR on relevant proportion; this reproduction's Table VI
//! (`repro_all --only table6`) does not reproduce that ordering, because on
//! its simulator the three rarely disagree: for a fixed title and count `c`
//! all three are strictly decreasing in `|l|`, so they order any one count
//! group identically and can differ only when labels of different counts
//! compete, which count-group pruning leaves few chances to do
//! (`probe_align` counts the items whose top-k sets differ).
//!
//! Scores are compared *exactly* using cross-multiplication over `u64`, so
//! ranking is never subject to float rounding; `f64` values are only
//! materialized for reporting.

/// Which alignment function the ranking step uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Alignment {
    /// Label-Title Alignment `c / (|l| − c + 1)` — the paper's default.
    #[default]
    Lta,
    /// Word Match Ratio `c / |l|`.
    Wmr,
    /// Jaccard coefficient `c / (|l| + |T| − c)`.
    Jac,
}

impl Alignment {
    /// All variants, for ablation sweeps.
    pub const ALL: [Alignment; 3] = [Alignment::Lta, Alignment::Wmr, Alignment::Jac];

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Alignment::Lta => "LTA",
            Alignment::Wmr => "WMR",
            Alignment::Jac => "JAC",
        }
    }

    /// Score as an `f64` for reporting. `c` = matched words, `label_len` =
    /// distinct words in the label, `title_len` = distinct words in the
    /// title (only used by JAC).
    pub fn score(self, c: u32, label_len: u32, title_len: u32) -> f64 {
        debug_assert!(c <= label_len, "matched count exceeds label length");
        if label_len == 0 {
            return 0.0;
        }
        let c = f64::from(c);
        match self {
            Alignment::Lta => c / (f64::from(label_len) - c + 1.0),
            Alignment::Wmr => c / f64::from(label_len),
            Alignment::Jac => c / (f64::from(label_len) + f64::from(title_len) - c),
        }
    }

    /// Exact comparison of two candidates' scores under this alignment,
    /// `Greater` meaning candidate 1 ranks higher.
    ///
    /// Uses cross-multiplication in `u64` (inputs are ≤ u16-sized in
    /// practice, so no overflow is possible: max 2^32 · 2^32 would overflow,
    /// but token counts are bounded by title/label lengths < 2^16).
    #[inline]
    pub fn cmp_scores(
        self,
        (c1, l1): (u32, u32),
        (c2, l2): (u32, u32),
        title_len: u32,
    ) -> std::cmp::Ordering {
        let (n1, d1) = self.as_fraction(c1, l1, title_len);
        let (n2, d2) = self.as_fraction(c2, l2, title_len);
        // a/b vs c/d  ⇔  a·d vs c·b  (denominators are ≥ 1)
        (u64::from(n1) * u64::from(d2)).cmp(&(u64::from(n2) * u64::from(d1)))
    }

    /// The score as an exact non-negative fraction `(numerator, denominator)`
    /// with denominator ≥ 1.
    #[inline]
    pub fn as_fraction(self, c: u32, label_len: u32, title_len: u32) -> (u32, u32) {
        match self {
            // |l| ≥ c always, so the denominator is ≥ 1.
            Alignment::Lta => (c, label_len - c + 1),
            Alignment::Wmr => (c, label_len.max(1)),
            Alignment::Jac => (c, (label_len + title_len - c).max(1)),
        }
    }
}

impl std::fmt::Display for Alignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn paper_worked_example_figure3() {
        // Title: "audeze maxwell gaming headphones for xbox" (6 tokens).
        // "audeze maxwell": c=2, |l|=2 → LTA = 2/1.
        // "wireless headphones xbox": c=2, |l|=3 → LTA = 2/2.
        let lta = Alignment::Lta;
        assert_eq!(lta.score(2, 2, 6), 2.0);
        assert_eq!(lta.score(2, 3, 6), 1.0);
        assert_eq!(lta.cmp_scores((2, 2), (2, 3), 6), Ordering::Greater);
    }

    #[test]
    fn paper_worked_example_section_4f1() {
        // Title with 10 tokens; labels "A B C" (c=3,|l|=3) and
        // "A B C D E" (c=3,|l|=5).
        let t = 10;
        // LTA: 3/1 > 3/3 → shorter label wins.
        assert_eq!(
            Alignment::Lta.cmp_scores((3, 3), (3, 5), t),
            Ordering::Greater
        );
        // JAC: 3/10 < ... wait: paper compares c=3 vs c=4 when E also matches.
        // Fully-matched long label: c=5 → JAC = 5/10; "A B C" = 3/10: JAC
        // prefers the longer one even though token E is risky.
        assert_eq!(Alignment::Jac.cmp_scores((3, 3), (5, 5), t), Ordering::Less);
        // LTA still prefers complete short over complete long here? 3/1 vs
        // 5/1 → no, both fully matched: LTA prefers more coverage. The risk
        // penalty only applies to *unmatched* label tokens:
        assert_eq!(
            Alignment::Lta.cmp_scores((3, 3), (4, 5), t),
            Ordering::Greater
        ); // 3/1 > 4/2
    }

    #[test]
    fn score_formulas() {
        assert!((Alignment::Wmr.score(2, 4, 9) - 0.5).abs() < 1e-12);
        assert!((Alignment::Jac.score(2, 4, 9) - 2.0 / 11.0).abs() < 1e-12);
        assert!((Alignment::Lta.score(2, 4, 9) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_match_and_zero_len() {
        for a in Alignment::ALL {
            assert_eq!(a.score(0, 0, 5), 0.0);
            let (n, _d) = a.as_fraction(0, 3, 5);
            assert_eq!(n, 0);
        }
    }

    #[test]
    fn exact_cmp_matches_float_cmp_when_floats_are_safe() {
        for a in Alignment::ALL {
            for c1 in 0..=4u32 {
                for l1 in c1.max(1)..=6 {
                    for c2 in 0..=4u32 {
                        for l2 in c2.max(1)..=6 {
                            let exact = a.cmp_scores((c1, l1), (c2, l2), 8);
                            let f1 = a.score(c1, l1, 8);
                            let f2 = a.score(c2, l2, 8);
                            let float = f1.partial_cmp(&f2).unwrap();
                            assert_eq!(exact, float, "{a}: ({c1},{l1}) vs ({c2},{l2})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Alignment::Lta.to_string(), "LTA");
        assert_eq!(Alignment::Wmr.name(), "WMR");
        assert_eq!(Alignment::Jac.to_string(), "JAC");
        assert_eq!(Alignment::default(), Alignment::Lta);
    }
}
