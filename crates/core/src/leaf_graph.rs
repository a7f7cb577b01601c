//! Per-leaf-category bipartite graph (paper Sec. III-D).
//!
//! One [`LeafGraph`] per leaf category: words of the leaf's curated
//! keyphrases on the left (`X`), the keyphrases themselves on the right
//! (`Y`), stored as CSR from word-rows to leaf-local label indices. Label
//! attributes (global keyphrase id, distinct token count, Search/Recall
//! counts) live in parallel arrays indexed by local label id, so `S(l)` /
//! `R(l)` are unit-time lookups exactly as the paper requires.

use crate::csr::Csr;
use crate::storage::{U16Store, U32Store};
use crate::types::KeyphraseId;
use graphex_textkit::{FxHashMap, TokenId};

/// Bipartite word→keyphrase graph for one leaf category.
///
/// All integer arrays are stores: owned when the graph was built
/// in-process, borrowed zero-copy from the snapshot buffer when loaded
/// from a `GEXM` snapshot. Only `word_rows` — the
/// token → row hash index — is materialized at load time, and that is
/// O(words), not O(edges).
#[derive(Debug, Clone)]
pub struct LeafGraph {
    /// Global token id → CSR row. One probe per title token at inference.
    word_rows: FxHashMap<TokenId, u32>,
    /// Row `r` (a word) ↦ local label indices containing that word.
    csr: Csr,
    /// Local label index → global keyphrase id.
    labels: U32Store,
    /// Distinct token count `|l|` per label (u16: queries are short).
    label_len: U16Store,
    /// Search count `S(l)` per label.
    search: U32Store,
    /// Recall count `R(l)` per label.
    recall: U32Store,
    /// Row → global token id (inverse of `word_rows`; needed for
    /// serialization and introspection).
    row_tokens: U32Store,
}

/// A leaf graph but for its two id arrays: the CSR from rows to label
/// indices, and per label its length and counts. Nothing in it names a
/// vocabulary, so it moves unchanged from the leaf-local ids a leaf is
/// assembled under to the global ids it is merged under.
#[derive(Debug, Clone)]
pub(crate) struct GraphBody {
    csr: Csr,
    label_len: U16Store,
    search: U32Store,
    recall: U32Store,
}

impl GraphBody {
    /// `edges` are `(row, label)` pairs over `num_rows` rows and the
    /// labels the three arrays describe.
    ///
    /// # Panics
    /// Panics if the label arrays disagree in length or an edge is out of
    /// bounds — construction bugs, not data errors.
    pub(crate) fn new(
        num_rows: u32,
        edges: Vec<(u32, u32)>,
        label_len: Vec<u16>,
        search: Vec<u32>,
        recall: Vec<u32>,
    ) -> Self {
        assert_eq!(label_len.len(), search.len());
        assert_eq!(label_len.len(), recall.len());
        let num_labels = label_len.len() as u32;
        debug_assert!(edges.iter().all(|&(_, l)| l < num_labels), "edge label out of bounds");
        Self {
            csr: Csr::from_edges(num_rows, edges),
            label_len: label_len.into(),
            search: search.into(),
            recall: recall.into(),
        }
    }

    /// Number of rows (distinct words).
    pub(crate) fn num_rows(&self) -> usize {
        self.csr.num_rows() as usize
    }

    /// Number of labels.
    pub(crate) fn num_labels(&self) -> usize {
        self.label_len.len()
    }
}

impl LeafGraph {
    /// Assembles a leaf graph from its parts. `edges` are
    /// `(row, local_label)` pairs; rows must be dense `0..row_tokens.len()`.
    ///
    /// # Panics
    /// Panics if the parallel arrays disagree in length, an edge is out of
    /// bounds or a token names two rows — construction bugs, not data
    /// errors.
    #[cfg(test)]
    pub(crate) fn new(
        row_tokens: Vec<TokenId>,
        edges: Vec<(u32, u32)>,
        labels: Vec<KeyphraseId>,
        label_len: Vec<u16>,
        search: Vec<u32>,
        recall: Vec<u32>,
    ) -> Self {
        let body = GraphBody::new(row_tokens.len() as u32, edges, label_len, search, recall);
        Self::from_body(row_tokens, labels, body)
    }

    /// The graph of `body` under ids: `row_tokens[row]` is the token of
    /// each row, `labels[label]` the keyphrase of each label. The token →
    /// row index is built here, once per graph.
    ///
    /// # Panics
    /// Panics if an id array disagrees in length with `body` or a token
    /// names two rows (remap bugs, not data errors).
    pub(crate) fn from_body(
        row_tokens: Vec<TokenId>,
        labels: Vec<KeyphraseId>,
        body: GraphBody,
    ) -> Self {
        assert_eq!(row_tokens.len(), body.num_rows());
        assert_eq!(labels.len(), body.num_labels());
        let mut word_rows = FxHashMap::with_capacity_and_hasher(row_tokens.len(), Default::default());
        for (row, &tok) in row_tokens.iter().enumerate() {
            let prev = word_rows.insert(tok, row as u32);
            assert!(prev.is_none(), "duplicate token in row_tokens");
        }
        let GraphBody { csr, label_len, search, recall } = body;
        Self {
            word_rows,
            csr,
            labels: labels.into(),
            label_len,
            search,
            recall,
            row_tokens: row_tokens.into(),
        }
    }

    /// This graph without its ids — shares a loaded snapshot's buffers
    /// rather than copying them.
    pub(crate) fn body(&self) -> GraphBody {
        GraphBody {
            csr: self.csr.clone(),
            label_len: self.label_len.clone(),
            search: self.search.clone(),
            recall: self.recall.clone(),
        }
    }

    /// Labels containing the word with global token id `tok` (sorted local
    /// label indices); empty if the word doesn't occur in this leaf.
    #[inline]
    pub fn labels_of_token(&self, tok: TokenId) -> &[u32] {
        match self.word_rows.get(&tok) {
            Some(&row) => self.csr.neighbors(row),
            None => &[],
        }
    }

    /// Global keyphrase id of a local label.
    #[inline]
    pub fn keyphrase_id(&self, label: u32) -> KeyphraseId {
        self.labels[label as usize]
    }

    /// Distinct token count `|l|`.
    #[inline]
    pub fn label_len(&self, label: u32) -> u16 {
        self.label_len[label as usize]
    }

    /// Search count `S(l)`.
    #[inline]
    pub fn search_count(&self, label: u32) -> u32 {
        self.search[label as usize]
    }

    /// Recall count `R(l)`.
    #[inline]
    pub fn recall_count(&self, label: u32) -> u32 {
        self.recall[label as usize]
    }

    /// Number of distinct words `|X|`.
    pub fn num_words(&self) -> u32 {
        self.csr.num_rows()
    }

    /// Number of labels `|Y|`.
    pub fn num_labels(&self) -> u32 {
        self.labels.len() as u32
    }

    /// Number of word→label edges `|E|`.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// `d_avg = |E| / |X|`.
    pub fn avg_degree(&self) -> f64 {
        self.csr.avg_degree()
    }

    /// Approximate heap footprint (Fig. 6b accounting).
    pub fn heap_bytes(&self) -> usize {
        self.csr.heap_bytes()
            + self.labels.len() * 4
            + self.label_len.len() * 2
            + self.search.len() * 4
            + self.recall.len() * 4
            + self.row_tokens.len() * 4
            // FxHashMap entry ≈ key+value+control byte, amortized 1.14 load
            + self.word_rows.len() * 9
    }

    // ---- serialization accessors -------------------------------------

    pub(crate) fn row_tokens(&self) -> &[TokenId] {
        &self.row_tokens
    }

    pub(crate) fn csr_parts(&self) -> (&[u32], &[u32]) {
        self.csr.as_parts()
    }

    pub(crate) fn labels(&self) -> &[KeyphraseId] {
        &self.labels
    }

    pub(crate) fn label_lens(&self) -> &[u16] {
        &self.label_len
    }

    pub(crate) fn searches(&self) -> &[u32] {
        &self.search
    }

    pub(crate) fn recalls(&self) -> &[u32] {
        &self.recall
    }

    /// Rebuild from the seven serialized arrays, with validation. This is
    /// the zero-copy load path: every store may be a borrowed view into the
    /// snapshot buffer; validation reads the arrays (CSR monotonicity,
    /// parallel lengths, duplicate rows) but copies nothing per edge.
    #[allow(clippy::too_many_arguments)] // mirrors the 7 serialized arrays
    pub(crate) fn from_stores(
        row_tokens: U32Store,
        offsets: U32Store,
        targets: U32Store,
        labels: U32Store,
        label_len: U16Store,
        search: U32Store,
        recall: U32Store,
    ) -> Result<Self, String> {
        if labels.len() != label_len.len() || labels.len() != search.len() || labels.len() != recall.len() {
            return Err("leaf graph: parallel label arrays disagree in length".into());
        }
        if offsets.len() != row_tokens.len() + 1 {
            return Err("leaf graph: offsets/rows mismatch".into());
        }
        let csr = Csr::from_stores(offsets, targets)?;
        let num_labels = labels.len() as u32;
        if csr.edges().any(|(_, l)| l >= num_labels) {
            return Err("leaf graph: edge target out of label range".into());
        }
        let mut word_rows = FxHashMap::with_capacity_and_hasher(row_tokens.len(), Default::default());
        for (row, &tok) in row_tokens.iter().enumerate() {
            if word_rows.insert(tok, row as u32).is_some() {
                return Err("leaf graph: duplicate token row".into());
            }
        }
        Ok(Self { word_rows, csr, labels, label_len, search, recall, row_tokens })
    }

    /// Whether this graph's arrays borrow from a shared snapshot buffer
    /// (true exactly for graphs loaded through the zero-copy snapshot path).
    pub fn is_zero_copy(&self) -> bool {
        self.labels.is_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 3 example graph: 7 words × 5 keyphrases.
    pub(crate) fn figure3_graph() -> (LeafGraph, Vec<&'static str>) {
        // word rows: 0 audeze, 1 maxwell, 2 headphones, 3 gaming, 4 xbox,
        //            5 wireless, 6 bluetooth   (token ids == rows here)
        // labels: 0 "audeze maxwell" 1 "audeze headphones"
        //         2 "gaming headphones xbox" 3 "wireless headphones xbox"
        //         4 "bluetooth wireless headphones"
        let row_tokens = vec![0, 1, 2, 3, 4, 5, 6];
        let edges = vec![
            (0, 0), (1, 0),                  // audeze maxwell
            (0, 1), (2, 1),                  // audeze headphones
            (3, 2), (2, 2), (4, 2),          // gaming headphones xbox
            (5, 3), (2, 3), (4, 3),          // wireless headphones xbox
            (6, 4), (5, 4), (2, 4),          // bluetooth wireless headphones
        ];
        let labels = vec![10, 11, 12, 13, 14]; // arbitrary global ids
        let label_len = vec![2, 2, 3, 3, 3];
        let search = vec![900, 450, 800, 650, 300];
        let recall = vec![120, 300, 700, 800, 900];
        let graph = LeafGraph::new(row_tokens, edges, labels, label_len, search, recall);
        let words = vec!["audeze", "maxwell", "headphones", "gaming", "xbox", "wireless", "bluetooth"];
        (graph, words)
    }

    #[test]
    fn figure3_counts() {
        let (g, _) = figure3_graph();
        assert_eq!(g.num_words(), 7);
        assert_eq!(g.num_labels(), 5);
        assert_eq!(g.num_edges(), 13);
    }

    #[test]
    fn adjacency_matches_figure3() {
        let (g, _) = figure3_graph();
        // "headphones" (token 2) occurs in labels 1,2,3,4.
        assert_eq!(g.labels_of_token(2), &[1, 2, 3, 4]);
        // "audeze" (token 0) in labels 0,1.
        assert_eq!(g.labels_of_token(0), &[0, 1]);
        // unknown word
        assert_eq!(g.labels_of_token(999), &[] as &[u32]);
    }

    #[test]
    fn attribute_lookups_are_indexed() {
        let (g, _) = figure3_graph();
        assert_eq!(g.keyphrase_id(0), 10);
        assert_eq!(g.label_len(2), 3);
        assert_eq!(g.search_count(0), 900);
        assert_eq!(g.recall_count(4), 900);
    }

    #[test]
    fn from_stores_validates() {
        // offsets/rows mismatch
        let bad = LeafGraph::from_stores(
            vec![1, 2].into(),
            vec![0, 0].into(),
            vec![].into(),
            vec![].into(),
            vec![].into(),
            vec![].into(),
            vec![].into(),
        );
        assert!(bad.is_err());
        // edge target out of range
        let bad = LeafGraph::from_stores(
            vec![7].into(),
            vec![0, 1].into(),
            vec![5].into(),
            vec![42].into(),
            vec![1].into(),
            vec![1].into(),
            vec![1].into(),
        );
        assert!(bad.unwrap_err().contains("out of label range"));
        // parallel array mismatch
        let bad = LeafGraph::from_stores(
            vec![].into(),
            vec![0].into(),
            vec![].into(),
            vec![9].into(),
            vec![].into(),
            vec![1].into(),
            vec![1].into(),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn heap_bytes_positive_and_linear() {
        let (g, _) = figure3_graph();
        assert!(g.heap_bytes() > 0);
    }
}
