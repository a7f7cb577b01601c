//! Core identifier and record types shared across the workspace.

/// Leaf category id (the lowest-level product categorization, Sec. III-B).
///
/// Leaf ids are assumed unique within (and, at eBay, across) meta categories;
/// GraphEx keys its per-leaf graphs by this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeafId(pub u32);

impl std::fmt::Display for LeafId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "leaf#{}", self.0)
    }
}

/// Global id of a keyphrase in a [`crate::GraphExModel`]'s keyphrase table.
///
/// Dense, assigned in construction order; resolves back to text via
/// [`crate::GraphExModel::keyphrase_text`].
pub type KeyphraseId = u32;

/// One curated keyphrase row as produced by the search-log aggregation
/// pipeline (Sec. III-B): the query text, the leaf category Cassini assigned
/// to it, and its Search/Recall counts.
///
/// *Search count* `S` — how many times buyers queried the phrase (head
/// keyphrases have large `S`). *Recall count* `R` — how many items the search
/// engine recalls for it (small `R` means less competition per item).
/// Absolute values don't matter, only their order (the paper notes a rank
/// works equally well).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyphraseRecord {
    pub text: String,
    pub leaf: LeafId,
    pub search_count: u32,
    pub recall_count: u32,
}

impl KeyphraseRecord {
    pub fn new(
        text: impl Into<String>,
        leaf: LeafId,
        search_count: u32,
        recall_count: u32,
    ) -> Self {
        Self {
            text: text.into(),
            leaf,
            search_count,
            recall_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_id_display() {
        assert_eq!(LeafId(42).to_string(), "leaf#42");
    }

    #[test]
    fn record_constructor() {
        let r = KeyphraseRecord::new("gaming headphones", LeafId(1), 10, 5);
        assert_eq!(r.text, "gaming headphones");
        assert_eq!(r.leaf, LeafId(1));
        assert_eq!((r.search_count, r.recall_count), (10, 5));
    }
}
