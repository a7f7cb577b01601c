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

    /// Parses one record line of the TSV interchange format,
    /// `text<TAB>leaf_id<TAB>search_count<TAB>recall_count` — the one
    /// grammar the build pipeline's TSV source, the overlay journal and
    /// the CLI read.
    pub fn from_tsv(line: &str) -> Result<Self, String> {
        let mut cols = line.split('\t');
        let text = cols
            .next()
            .filter(|t| !t.is_empty())
            .ok_or("empty keyphrase text")?;
        let mut number = |missing: &str, bad: &str| -> Result<u32, String> {
            let col = cols.next().ok_or(missing)?;
            col.parse().map_err(|_| bad.to_string())
        };
        let leaf = number("missing leaf id", "leaf id is not a number")?;
        let search = number("missing search count", "search count is not a number")?;
        let recall = number("missing recall count", "recall count is not a number")?;
        if cols.next().is_some() {
            return Err("too many columns".into());
        }
        Ok(Self::new(text, LeafId(leaf), search, recall))
    }

    /// This record as one TSV line, without its newline (the inverse of
    /// [`KeyphraseRecord::from_tsv`]).
    pub fn tsv(&self) -> impl std::fmt::Display + '_ {
        struct Line<'a>(&'a KeyphraseRecord);
        impl std::fmt::Display for Line<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let r = self.0;
                let (leaf, search, recall) = (r.leaf.0, r.search_count, r.recall_count);
                write!(f, "{}\t{leaf}\t{search}\t{recall}", r.text)
            }
        }
        Line(self)
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

    #[test]
    fn tsv_line_round_trips() {
        let r = KeyphraseRecord::new("gaming headphones", LeafId(42), 800, 700);
        let line = r.tsv().to_string();
        assert_eq!(line, "gaming headphones\t42\t800\t700");
        assert_eq!(KeyphraseRecord::from_tsv(&line), Ok(r));
    }
}
