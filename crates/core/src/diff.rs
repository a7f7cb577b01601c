//! Model diffing for daily-refresh observability.
//!
//! GraphEx retrains daily to track query churn (Sec. I-A4: ~2 % of queries
//! change every day). Before swapping a refreshed model into serving, an
//! operator wants to know *how much* changed — a guard against silently
//! shipping a model built from a truncated log. [`diff_models`] compares
//! two models' keyphrase universes per leaf and in aggregate.

use crate::model::GraphExModel;
use crate::types::LeafId;
use std::collections::{BTreeMap, BTreeSet};

/// Per-leaf change set between two models.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeafDiff {
    /// Keyphrases only in the new model.
    pub added: Vec<String>,
    /// Keyphrases only in the old model.
    pub removed: Vec<String>,
    /// Keyphrases in both.
    pub retained: usize,
}

/// Full diff between an old and a new model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelDiff {
    /// Leaves present in both models, with their keyphrase changes.
    pub changed_leaves: BTreeMap<u32, LeafDiff>,
    /// Leaves only in the new model.
    pub added_leaves: Vec<LeafId>,
    /// Leaves only in the old model.
    pub removed_leaves: Vec<LeafId>,
    pub total_added: usize,
    pub total_removed: usize,
    pub total_retained: usize,
}

impl ModelDiff {
    /// Fraction of the old universe that changed (added + removed over old
    /// size); the "churn rate" an operator alerts on.
    pub fn churn_rate(&self) -> f64 {
        let old_size = self.total_removed + self.total_retained;
        if old_size == 0 {
            if self.total_added == 0 {
                0.0
            } else {
                1.0
            }
        } else {
            (self.total_added + self.total_removed) as f64 / old_size as f64
        }
    }

    /// True when nothing changed at all.
    pub fn is_empty(&self) -> bool {
        self.total_added == 0
            && self.total_removed == 0
            && self.added_leaves.is_empty()
            && self.removed_leaves.is_empty()
    }

    /// One-paragraph operator summary.
    pub fn summary(&self) -> String {
        format!(
            "{} keyphrases added, {} removed, {} retained ({} leaves changed, {} new leaves, \
             {} dropped leaves; churn {:.1}%)",
            self.total_added,
            self.total_removed,
            self.total_retained,
            self.changed_leaves.len(),
            self.added_leaves.len(),
            self.removed_leaves.len(),
            self.churn_rate() * 100.0
        )
    }
}

/// Keyphrase texts of one leaf as a set.
fn leaf_phrases(model: &GraphExModel, leaf: LeafId) -> BTreeSet<String> {
    match model.leaf_graph(leaf) {
        Some(graph) => (0..graph.num_labels())
            .filter_map(|l| model.keyphrase_text(graph.keyphrase_id(l)))
            .map(str::to_string)
            .collect(),
        None => BTreeSet::new(),
    }
}

/// Diffs `new` against `old`, leaf by leaf.
pub fn diff_models(old: &GraphExModel, new: &GraphExModel) -> ModelDiff {
    let old_leaves: BTreeSet<LeafId> = old.leaf_ids().collect();
    let new_leaves: BTreeSet<LeafId> = new.leaf_ids().collect();

    let mut diff = ModelDiff {
        added_leaves: new_leaves.difference(&old_leaves).copied().collect(),
        removed_leaves: old_leaves.difference(&new_leaves).copied().collect(),
        ..Default::default()
    };

    // Leaves entirely added/removed contribute all their phrases.
    for &leaf in &diff.added_leaves {
        diff.total_added += leaf_phrases(new, leaf).len();
    }
    for &leaf in &diff.removed_leaves {
        diff.total_removed += leaf_phrases(old, leaf).len();
    }

    for &leaf in old_leaves.intersection(&new_leaves) {
        let old_set = leaf_phrases(old, leaf);
        let new_set = leaf_phrases(new, leaf);
        let added: Vec<String> = new_set.difference(&old_set).cloned().collect();
        let removed: Vec<String> = old_set.difference(&new_set).cloned().collect();
        let retained = old_set.intersection(&new_set).count();
        diff.total_added += added.len();
        diff.total_removed += removed.len();
        diff.total_retained += retained;
        if !added.is_empty() || !removed.is_empty() {
            diff.changed_leaves.insert(
                leaf.0,
                LeafDiff {
                    added,
                    removed,
                    retained,
                },
            );
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphExBuilder, GraphExConfig};
    use crate::types::KeyphraseRecord;

    fn build(records: Vec<KeyphraseRecord>) -> GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = false;
        GraphExBuilder::new(config)
            .add_records(records)
            .build()
            .unwrap()
    }

    fn rec(text: &str, leaf: u32) -> KeyphraseRecord {
        KeyphraseRecord::new(text, LeafId(leaf), 100, 10)
    }

    #[test]
    fn identical_models_diff_empty() {
        let a = build(vec![rec("phone case", 1), rec("phone charger", 2)]);
        let b = build(vec![rec("phone case", 1), rec("phone charger", 2)]);
        let d = diff_models(&a, &b);
        assert!(d.is_empty());
        assert_eq!(d.churn_rate(), 0.0);
        assert_eq!(d.total_retained, 2);
    }

    #[test]
    fn detects_added_and_removed_phrases() {
        let old = build(vec![rec("phone case", 1), rec("old phrase", 1)]);
        let new = build(vec![rec("phone case", 1), rec("new phrase", 1)]);
        let d = diff_models(&old, &new);
        let leaf = &d.changed_leaves[&1];
        assert_eq!(leaf.added, ["new phrase"]);
        assert_eq!(leaf.removed, ["old phrase"]);
        assert_eq!(leaf.retained, 1);
        assert_eq!(d.total_added, 1);
        assert_eq!(d.total_removed, 1);
        assert!((d.churn_rate() - 1.0).abs() < 1e-12); // 2 changes / 2 old
    }

    #[test]
    fn detects_leaf_level_changes() {
        let old = build(vec![rec("a b", 1), rec("c d", 2)]);
        let new = build(vec![rec("a b", 1), rec("e f", 3)]);
        let d = diff_models(&old, &new);
        assert_eq!(d.added_leaves, [LeafId(3)]);
        assert_eq!(d.removed_leaves, [LeafId(2)]);
        assert_eq!(d.total_added, 1);
        assert_eq!(d.total_removed, 1);
        assert_eq!(d.total_retained, 1);
    }

    #[test]
    fn summary_mentions_counts() {
        let old = build(vec![rec("a b", 1)]);
        let new = build(vec![rec("a b", 1), rec("c d", 1)]);
        let s = diff_models(&old, &new).summary();
        assert!(s.contains("1 keyphrases added"), "{s}");
        assert!(s.contains("churn"), "{s}");
    }

    #[test]
    fn daily_refresh_churn_is_visible() {
        // Simulated day-over-day refresh: ~20% of phrases replaced.
        let day0: Vec<KeyphraseRecord> = (0..50)
            .map(|i| rec(&format!("phrase number{i}"), 1))
            .collect();
        let day1: Vec<KeyphraseRecord> = (10..60)
            .map(|i| rec(&format!("phrase number{i}"), 1))
            .collect();
        let d = diff_models(&build(day0), &build(day1));
        assert_eq!(d.total_added, 10);
        assert_eq!(d.total_removed, 10);
        assert!((d.churn_rate() - 0.4).abs() < 1e-9);
    }
}
