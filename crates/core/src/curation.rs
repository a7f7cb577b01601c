//! Dataset curation (paper Sec. III-B).
//!
//! GraphEx deliberately trains on *keyphrases only* — never on item-keyphrase
//! click associations — which is how it sheds the MNAR click biases of
//! Sec. I-A2. Curation enforces the head-keyphrase bias: only phrases buyers
//! actually search frequently survive (the paper's production threshold is
//! "searched at least once per day", i.e. 180 over a 6-month window, relaxed
//! to 90 where a category is too small — Table VII quantifies the trade).
//!
//! [`Curator`] is the streaming form the build pipeline runs once per
//! shard worker. It reads a record's text for a whitespace count (the
//! token bounds) and one hash (the duplicate index), compares it only
//! with kept records whose hash matches, and copies none: the index holds
//! positions in the kept records.

use crate::types::KeyphraseRecord;
use graphex_textkit::FxHasher;
use std::hash::Hasher;

/// Thresholds applied to raw keyphrase rows before graph construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CurationConfig {
    /// Keep only keyphrases with `search_count >= min_search_count`.
    /// Paper default 180 (once per day over 6 months); Table VII compares 90.
    pub min_search_count: u32,
    /// Drop keyphrases with fewer tokens (1-token queries are usually too
    /// generic to bid on profitably, but the paper keeps them — default 1).
    pub min_tokens: usize,
    /// Drop keyphrases with more tokens (defensive bound; buyer queries are
    /// short).
    pub max_tokens: usize,
    /// Optional cap on keyphrases per leaf, keeping the highest-searched
    /// ones. `None` = uncapped (paper default).
    pub max_per_leaf: Option<usize>,
}

impl Default for CurationConfig {
    fn default() -> Self {
        Self { min_search_count: 180, min_tokens: 1, max_tokens: 12, max_per_leaf: None }
    }
}

impl CurationConfig {
    /// Config with a relaxed search-count threshold (e.g. small categories,
    /// Table II fn. 5: "the constraint was eased for CAT 3").
    pub fn with_min_search_count(min: u32) -> Self {
        Self { min_search_count: min, ..Self::default() }
    }
}

/// What curation kept and why rows were dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CurationStats {
    pub input: usize,
    pub kept: usize,
    pub dropped_low_search: usize,
    pub dropped_token_bounds: usize,
    pub dropped_leaf_cap: usize,
    /// Duplicate (leaf, text) rows merged into an existing row.
    pub merged_duplicates: usize,
}

impl CurationStats {
    /// Folds another stats record into this one. Curation decisions are
    /// per-record and per-`(leaf, text)` group, so summing the stats of
    /// leaf-disjoint shards yields exactly the stats a single global
    /// curation pass would have produced (the build pipeline relies on
    /// this to aggregate per-shard [`Curator`]s).
    pub fn absorb(&mut self, other: &CurationStats) {
        self.input += other.input;
        self.kept += other.kept;
        self.dropped_low_search += other.dropped_low_search;
        self.dropped_token_bounds += other.dropped_token_bounds;
        self.dropped_leaf_cap += other.dropped_leaf_cap;
        self.merged_duplicates += other.merged_duplicates;
    }
}

/// Applies [`CurationConfig`] to raw records.
///
/// Token counting uses a simple whitespace split of the *raw* text — exact
/// token identity is the builder's job; curation only needs a length bound.
/// Duplicate `(leaf, text)` rows are merged: search counts are summed
/// (multiple aggregation windows), recall counts take the max (fresher crawl
/// wins; the absolute value only matters as a rank).
pub fn curate(
    records: impl IntoIterator<Item = KeyphraseRecord>,
    config: &CurationConfig,
) -> (Vec<KeyphraseRecord>, CurationStats) {
    let mut curator = Curator::new(config.clone());
    for rec in records {
        curator.push(rec);
    }
    curator.finish()
}

/// Streaming form of [`curate`]: push records one at a time, then
/// [`Curator::finish`].
///
/// Curation decisions are per-record (threshold/token bounds) and
/// per-`(leaf, text)` group (duplicate merge) and the per-leaf cap is —
/// by definition — per leaf, so the result is a function of the record
/// *multiset*, not the arrival order, and curating leaf-disjoint shards
/// independently is exactly equivalent to one global pass. The build
/// pipeline runs one `Curator` per shard worker on that guarantee.
///
/// The duplicate index copies no text: it is an open-addressed table of
/// indices into the kept records (linear probing, at most half full),
/// probed by the Fx hash of `(leaf, text)` and compared against the kept
/// record itself. Its memory depends on how many records are kept, never
/// on how long their texts are.
#[derive(Debug)]
pub struct Curator {
    config: CurationConfig,
    stats: CurationStats,
    /// Empty, or a power of two of [`Slot`]s.
    slots: Vec<Slot>,
    kept: Vec<KeyphraseRecord>,
}

/// One cell of the duplicate index: a kept record and the top half of
/// its hash, which re-seats it when the table grows and turns most
/// mismatches away before a text is compared.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index into `kept`, or [`VACANT`].
    kept: u32,
    hash: u32,
}

/// The `kept` of an unoccupied [`Slot`].
const VACANT: u32 = u32::MAX;

/// The index's smallest non-empty size.
const MIN_SLOTS: usize = 16;

impl Curator {
    pub fn new(config: CurationConfig) -> Self {
        Self { config, stats: CurationStats::default(), slots: Vec::new(), kept: Vec::new() }
    }

    /// Applies the per-record filters and duplicate merge to one row.
    pub fn push(&mut self, rec: KeyphraseRecord) {
        self.stats.input += 1;
        let ntokens = rec.text.split_whitespace().count();
        if ntokens < self.config.min_tokens || ntokens > self.config.max_tokens {
            self.stats.dropped_token_bounds += 1;
            return;
        }
        if rec.search_count < self.config.min_search_count {
            self.stats.dropped_low_search += 1;
            return;
        }
        if 2 * (self.kept.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = key_hash(&rec);
        let mask = self.slots.len() - 1;
        let mut at = first_slot(hash, self.slots.len());
        loop {
            let slot = self.slots[at];
            if slot.kept == VACANT {
                self.slots[at] = Slot { kept: self.kept.len() as u32, hash };
                self.kept.push(rec);
                return;
            }
            let existing = &mut self.kept[slot.kept as usize];
            if slot.hash == hash && existing.leaf == rec.leaf && existing.text == rec.text {
                existing.search_count = existing.search_count.saturating_add(rec.search_count);
                existing.recall_count = existing.recall_count.max(rec.recall_count);
                self.stats.merged_duplicates += 1;
                return;
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the index and re-seats every kept record from the hash
    /// half its slot holds.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        assert!(len / 2 <= VACANT as usize, "curator overflow: too many records kept");
        let old = std::mem::replace(&mut self.slots, vec![Slot { kept: VACANT, hash: 0 }; len]);
        for slot in old.into_iter().filter(|s| s.kept != VACANT) {
            let mut at = first_slot(slot.hash, len);
            while self.slots[at].kept != VACANT {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = slot;
        }
    }

    /// Records kept so far (before the leaf cap is applied).
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Applies the per-leaf cap and returns the surviving rows + stats.
    pub fn finish(self) -> (Vec<KeyphraseRecord>, CurationStats) {
        let Curator { config, mut stats, mut kept, .. } = self;
        if let Some(cap) = config.max_per_leaf {
            // Sort within leaf by search count desc and truncate each leaf group.
            kept.sort_unstable_by(|a, b| {
                (a.leaf, std::cmp::Reverse(a.search_count), &a.text).cmp(&(
                    b.leaf,
                    std::cmp::Reverse(b.search_count),
                    &b.text,
                ))
            });
            let mut out: Vec<KeyphraseRecord> = Vec::with_capacity(kept.len());
            let mut run_leaf = None;
            let mut run_len = 0usize;
            for rec in kept {
                if run_leaf != Some(rec.leaf) {
                    run_leaf = Some(rec.leaf);
                    run_len = 0;
                }
                if run_len < cap {
                    out.push(rec);
                    run_len += 1;
                } else {
                    stats.dropped_leaf_cap += 1;
                }
            }
            kept = out;
        }

        stats.kept = kept.len();
        (kept, stats)
    }
}

/// The top half of the Fx hash of a record's `(leaf, text)` — the mixed
/// half, since Fx ends on a multiply.
fn key_hash(rec: &KeyphraseRecord) -> u32 {
    let mut hasher = FxHasher::default();
    hasher.write_u32(rec.leaf.0);
    hasher.write(rec.text.as_bytes());
    (hasher.finish() >> 32) as u32
}

/// Where the probe for `hash` starts in a table of `len` (a power of
/// two) slots: its top bits.
fn first_slot(hash: u32, len: usize) -> usize {
    (u64::from(hash) << 32 >> (64 - len.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LeafId;

    fn rec(text: &str, leaf: u32, s: u32, r: u32) -> KeyphraseRecord {
        KeyphraseRecord::new(text, LeafId(leaf), s, r)
    }

    #[test]
    fn threshold_filters_tail() {
        let cfg = CurationConfig::with_min_search_count(100);
        let (kept, stats) = curate(
            vec![rec("head phrase", 1, 500, 10), rec("tail phrase", 1, 5, 10)],
            &cfg,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].text, "head phrase");
        assert_eq!(stats.dropped_low_search, 1);
        assert_eq!(stats.kept, 1);
    }

    #[test]
    fn token_bounds() {
        let cfg = CurationConfig { min_tokens: 2, max_tokens: 3, min_search_count: 0, max_per_leaf: None };
        let (kept, stats) = curate(
            vec![
                rec("one", 1, 10, 1),
                rec("two tokens", 1, 10, 1),
                rec("three tokens here", 1, 10, 1),
                rec("way too many tokens in here", 1, 10, 1),
            ],
            &cfg,
        );
        assert_eq!(kept.len(), 2);
        assert_eq!(stats.dropped_token_bounds, 2);
    }

    #[test]
    fn duplicates_merge_sum_search_max_recall() {
        let cfg = CurationConfig::with_min_search_count(0);
        let (kept, stats) = curate(
            vec![rec("gaming mouse", 2, 100, 50), rec("gaming mouse", 2, 40, 80)],
            &cfg,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].search_count, 140);
        assert_eq!(kept[0].recall_count, 80);
        assert_eq!(stats.merged_duplicates, 1);
    }

    #[test]
    fn same_text_different_leaf_not_merged() {
        // The paper: "a keyphrase can be duplicated across different Leaf
        // Categories."
        let cfg = CurationConfig::with_min_search_count(0);
        let (kept, _) = curate(vec![rec("charger", 1, 10, 1), rec("charger", 2, 10, 1)], &cfg);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn leaf_cap_keeps_highest_search() {
        let cfg = CurationConfig { max_per_leaf: Some(2), min_search_count: 0, ..Default::default() };
        let (kept, stats) = curate(
            vec![rec("a b", 1, 10, 1), rec("c d", 1, 30, 1), rec("e f", 1, 20, 1), rec("g h", 2, 1, 1)],
            &cfg,
        );
        let leaf1: Vec<&str> = kept.iter().filter(|r| r.leaf == LeafId(1)).map(|r| r.text.as_str()).collect();
        assert_eq!(leaf1, ["c d", "e f"]);
        assert_eq!(stats.dropped_leaf_cap, 1);
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn default_matches_paper_production_threshold() {
        assert_eq!(CurationConfig::default().min_search_count, 180);
    }

    #[test]
    fn empty_input() {
        let (kept, stats) = curate(vec![], &CurationConfig::default());
        assert!(kept.is_empty());
        assert_eq!(stats, CurationStats::default());
    }
}
