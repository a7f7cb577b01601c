//! Candidate pruning and ranking (paper Sec. III-E2 and III-F).
//!
//! Two pure, independently-testable pieces:
//!
//! * [`count_group_threshold`] — the III-F optimization: group candidates by
//!   their redundancy count `c`, take groups from the largest `c` downward
//!   until the requested number of predictions is covered, and keep the
//!   entire threshold group.
//! * [`sort_predictions`] — the ranking step: non-increasing alignment score;
//!   ties prefer higher Search count, then lower Recall count (more buyers,
//!   fewer competing items → higher click probability per item), then
//!   keyphrase id for determinism.
//!
//! Both the full sort and the inference kernel's top-`k` go through one
//! routine, [`rank_top`], on one key, [`RankKey`]: the order is computed
//! once per candidate, not once per comparison, and only the `k` that are
//! returned are ever sorted.

use crate::alignment::Alignment;
use crate::inference::Prediction;

/// Given `group_sizes[c]` = number of candidate labels whose common-word
/// count is exactly `c` (index 0 unused), returns the smallest count `c*`
/// such that all labels with `count >= c*` number at least `k`.
///
/// If even including every group can't reach `k`, returns 1 (take
/// everything). `group_sizes` may be any length; counts beyond the title's
/// distinct token count are structurally zero.
pub fn count_group_threshold(group_sizes: &[u32], k: usize) -> u32 {
    let mut total: u64 = 0;
    for c in (1..group_sizes.len()).rev() {
        total += u64::from(group_sizes[c]);
        if total >= k as u64 {
            return c as u32;
        }
    }
    1
}

/// One candidate's place in the ranking order as two integers that compare
/// lexicographically, smaller first. `major` packs, from the top bit
/// down, the alignment score (descending), the search count (descending)
/// and the recall count (ascending) — one branch-free 128-bit compare that
/// decides nearly every pair; `id` is the keyphrase id (ascending) over
/// the candidate's index in the slice being ranked. Keyphrase ids are
/// unique within a leaf, so on a leaf's candidates the order is total.
///
/// The score is exact. It is the IEEE-754 bits of `n / d`, the fraction
/// of [`Alignment::as_fraction`], and non-negative doubles order as their
/// bits do. Division is correctly rounded, hence monotone, and equal
/// fractions give equal quotients; two *different* fractions `a/b < c/d`
/// with `a, c < 2^16` and `b, d < 2^17` are at least `1/(b·d)` apart, a
/// relative gap of `1/(b·c) > 2^-33` — twenty binary orders of magnitude
/// more than the `2^-53` a rounding moves either side, so they stay apart
/// and in order. (`crates/core/tests/props.rs` checks key order against
/// [`Alignment::cmp_scores`] pair by pair.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RankKey {
    major: u128,
    id: u64,
}

impl RankKey {
    /// The key of `pred`, candidate number `index`, under `alignment`.
    #[inline]
    pub fn new(pred: &Prediction, index: u32, alignment: Alignment, title_len: u32) -> Self {
        let (n, d) = alignment.as_fraction(
            u32::from(pred.matched),
            u32::from(pred.label_len),
            title_len,
        );
        let score = (f64::from(n) / f64::from(d)).to_bits();
        Self {
            major: u128::from(!score) << 64
                | u128::from(!pred.search_count) << 32
                | u128::from(pred.recall_count),
            id: u64::from(pred.keyphrase) << 32 | u64::from(index),
        }
    }

    fn index(self) -> usize {
        self.id as u32 as usize
    }
}

/// The best `k` of `candidates` in ranking order (all of them when
/// `k >= candidates.len()`), as a vector allocated at exactly that size.
/// `keys` is scratch, overwritten.
///
/// Selection puts the `k` smallest keys in front in O(n); only those are
/// sorted. The keys form a total order (the index makes them distinct), so
/// the result does not depend on how selection and sort break ties: it is
/// the first `k` of the full sort, for every `k`.
pub fn rank_top(
    candidates: &[Prediction],
    alignment: Alignment,
    title_len: u32,
    k: usize,
    keys: &mut Vec<RankKey>,
) -> Vec<Prediction> {
    let k = k.min(candidates.len());
    if k == 0 {
        return Vec::new();
    }
    keys.clear();
    keys.extend(
        candidates
            .iter()
            .enumerate()
            .map(|(i, p)| RankKey::new(p, i as u32, alignment, title_len)),
    );
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
    }
    let best = &mut keys[..k];
    best.sort_unstable();
    best.iter().map(|key| candidates[key.index()]).collect()
}

/// Sorts predictions in ranking order under `alignment`:
/// score desc → search count desc → recall count asc → keyphrase id asc.
pub fn sort_predictions(preds: &mut [Prediction], alignment: Alignment, title_len: u32) {
    let ranked = rank_top(preds, alignment, title_len, preds.len(), &mut Vec::new());
    preds.copy_from_slice(&ranked);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(kp: u32, matched: u16, len: u16, s: u32, r: u32) -> Prediction {
        Prediction {
            keyphrase: kp,
            matched,
            label_len: len,
            search_count: s,
            recall_count: r,
            title_len: 6,
        }
    }

    #[test]
    fn threshold_takes_largest_groups_first() {
        // counts: 3 labels with c=1, 2 with c=2, 1 with c=3.
        let sizes = [0, 3, 2, 1];
        assert_eq!(count_group_threshold(&sizes, 1), 3);
        assert_eq!(count_group_threshold(&sizes, 2), 2);
        assert_eq!(count_group_threshold(&sizes, 3), 2); // whole c=2 group
        assert_eq!(count_group_threshold(&sizes, 4), 1);
        assert_eq!(count_group_threshold(&sizes, 100), 1); // not enough: take all
    }

    #[test]
    fn threshold_empty_histogram() {
        assert_eq!(count_group_threshold(&[], 5), 1);
        assert_eq!(count_group_threshold(&[0, 0, 0], 5), 1);
    }

    #[test]
    fn ranking_order_lta_then_search_then_recall() {
        // Figure 3 example after enumeration of the sample title:
        // counts 2,2,3,2,1 for labels 10..14.
        let mut preds = vec![
            pred(10, 2, 2, 900, 120), // LTA 2/1 = 2.0
            pred(11, 2, 2, 450, 300), // LTA 2.0, lower search
            pred(12, 3, 3, 800, 700), // LTA 3/1 = 3.0  ← top
            pred(13, 2, 3, 650, 800), // LTA 2/2 = 1.0
            pred(14, 1, 3, 300, 900), // LTA 1/3
        ];
        sort_predictions(&mut preds, Alignment::Lta, 6);
        let order: Vec<u32> = preds.iter().map(|p| p.keyphrase).collect();
        assert_eq!(order, [12, 10, 11, 13, 14]);
    }

    #[test]
    fn tie_break_prefers_low_recall() {
        let mut preds = vec![pred(1, 2, 3, 500, 900), pred(2, 2, 3, 500, 100)];
        sort_predictions(&mut preds, Alignment::Lta, 5);
        assert_eq!(preds[0].keyphrase, 2);
    }

    #[test]
    fn deterministic_on_full_tie() {
        let mut preds = vec![pred(9, 1, 2, 5, 5), pred(3, 1, 2, 5, 5)];
        sort_predictions(&mut preds, Alignment::Lta, 5);
        assert_eq!(preds[0].keyphrase, 3);
    }

    #[test]
    fn top_k_is_a_prefix_of_the_full_order_and_k_zero_is_empty() {
        let preds: Vec<Prediction> = (0..9)
            .map(|i| pred(i, 1 + (i % 3) as u16, 3, 100 * (i % 2), 9 - i))
            .collect();
        let mut full = preds.clone();
        sort_predictions(&mut full, Alignment::Lta, 6);
        let mut keys = Vec::new();
        for k in 0..=preds.len() + 1 {
            let top = rank_top(&preds, Alignment::Lta, 6, k, &mut keys);
            assert_eq!(top, full[..k.min(preds.len())], "k = {k}");
        }
    }

    #[test]
    fn key_separates_the_closest_fractions() {
        // 65534/65535 and 65533/65534 differ by 2.3e-10: one `f32` ulp is
        // 250 times that, one `f64` ulp a two-millionth of it.
        let mut preds = vec![pred(1, 65533, 65534, 0, 0), pred(2, 65534, 65535, 0, 0)];
        sort_predictions(&mut preds, Alignment::Wmr, 6);
        assert_eq!(preds[0].keyphrase, 2);
        // Equal fractions written differently are one key: the id decides.
        let mut preds = vec![pred(9, 2, 4, 0, 0), pred(3, 32767, 65534, 0, 0)];
        sort_predictions(&mut preds, Alignment::Wmr, 6);
        assert_eq!(preds[0].keyphrase, 3);
    }

    #[test]
    fn wmr_vs_lta_disagree_on_partial_match() {
        // label A: c=2,|l|=2 → LTA 2.0, WMR 1.0
        // label B: c=3,|l|=4 → LTA 1.5, WMR 0.75
        // label C: c=4,|l|=6 → LTA 4/3, WMR 0.666
        let mut by_lta = vec![
            pred(1, 2, 2, 0, 0),
            pred(2, 3, 4, 0, 0),
            pred(3, 4, 6, 0, 0),
        ];
        let mut by_wmr = by_lta.clone();
        sort_predictions(&mut by_lta, Alignment::Lta, 8);
        sort_predictions(&mut by_wmr, Alignment::Wmr, 8);
        assert_eq!(by_lta[0].keyphrase, 1);
        assert_eq!(by_wmr[0].keyphrase, 1);
        // JAC prefers higher coverage of the union:
        let mut by_jac = by_lta.clone();
        sort_predictions(&mut by_jac, Alignment::Jac, 8);
        // JAC: A=2/8, B=3/9, C=4/10 → C first.
        assert_eq!(by_jac[0].keyphrase, 3);
    }
}
