//! Deterministic per-leaf assembly + merge: the building blocks behind
//! both [`crate::GraphExBuilder`] and the `graphex-pipeline` crate's
//! parallel / incremental builds.
//!
//! Construction is decomposed into three order-insensitive stages so that
//! sequential, parallel-sharded, and delta builds all produce **the same
//! bytes** for the same curated record multiset:
//!
//! 1. **Canonicalize** ([`canonicalize`]): sort curated records by
//!    `(leaf, text, search, recall)`. Curation output is a function of the
//!    record multiset (per-record filters, commutative duplicate merge),
//!    so after this sort the whole build is independent of arrival order.
//! 2. **Assemble** ([`LeafAssembly::build`]): build one leaf graph against
//!    *leaf-local* vocabularies. Each text is read by one normalize walk
//!    ([`AssemblyContext::analyze`]) that yields both its label — the
//!    unstemmed text — and its stemmed tokens. Because a fresh vocabulary
//!    assigns ids in first-occurrence order, the local token ids coincide
//!    with CSR row indices and the local keyphrase ids with label indices,
//!    so the assembly keeps its graph without ids — which is also what
//!    lets [`LeafAssembly::from_model`] recover the exact assembly of an
//!    unchanged leaf from a previous snapshot (delta builds).
//! 3. **Merge** ([`ModelAssembler::merge`]): take the assemblies by value
//!    and fold them into the global model in ascending-leaf order,
//!    re-interning each local vocabulary into the global ones — sized up
//!    front from the leaves' counts and bytes — and building each leaf's
//!    graph once, under global ids. Interning a leaf's local vocabulary in
//!    local id order reproduces exactly the global first-occurrence order a
//!    single sequential pass over the canonical record stream would have
//!    produced, so the merged model — and its `GEXM` serialization —
//!    is byte-identical no matter how stages 2 ran (1 thread or N). The
//!    meta-fallback graph is then a fold over the merged leaves
//!    ([`ModelAssembler::derive_fallback`]) — no record is read twice.
//!
//! [`leaf_fingerprint`] / [`config_fingerprint`] are the content hashes
//! delta builds store in their build manifest to decide which leaves can
//! be borrowed from the previous snapshot.

use crate::builder::GraphExConfig;
use crate::leaf_graph::{GraphBody, LeafGraph};
use crate::model::GraphExModel;
use crate::types::{KeyphraseRecord, LeafId};
use graphex_textkit::{FxHashMap, TokenBuf, Tokenizer, Vocab};

/// "Not seen yet" in a [`GraphParts`] remap table.
const UNSEEN: u32 = u32::MAX;

/// Sorts curated records into the canonical build order:
/// `(leaf, text, search, recall)` ascending.
///
/// After curation, `(leaf, text)` is unique, so this is a total order and
/// the sorted sequence is a pure function of the record multiset.
pub fn canonicalize(records: &mut [KeyphraseRecord]) {
    records.sort_unstable_by(|a, b| {
        (a.leaf, &a.text, a.search_count, a.recall_count).cmp(&(
            b.leaf,
            &b.text,
            b.search_count,
            b.recall_count,
        ))
    });
}

/// FNV-1a content fingerprint of one leaf's curated records.
///
/// The slice must be in canonical order ([`canonicalize`]) — callers hash
/// the per-leaf runs of the canonicalized stream, so equal record
/// multisets hash equally regardless of how they were ingested.
pub fn leaf_fingerprint(records: &[KeyphraseRecord]) -> u64 {
    let mut h = Fnv::new();
    h.u64(records.len() as u64);
    for rec in records {
        h.bytes(rec.text.as_bytes());
        h.u32(rec.leaf.0);
        h.u32(rec.search_count);
        h.u32(rec.recall_count);
    }
    h.finish()
}

/// Fingerprint of everything in the configuration that affects the built
/// bytes. A delta build may only borrow leaves from a previous snapshot
/// whose manifest recorded the same config fingerprint.
pub fn config_fingerprint(config: &GraphExConfig) -> u64 {
    let mut h = Fnv::new();
    h.u32(config.curation.min_search_count);
    h.u64(config.curation.min_tokens as u64);
    h.u64(config.curation.max_tokens as u64);
    match config.curation.max_per_leaf {
        None => h.u64(u64::MAX),
        Some(cap) => h.u64(cap as u64),
    }
    h.u32(match config.alignment {
        crate::Alignment::Lta => 0,
        crate::Alignment::Wmr => 1,
        crate::Alignment::Jac => 2,
    });
    h.u32(u32::from(config.stemming));
    h.u32(u32::from(config.build_meta_fallback));
    h.finish()
}

/// Streaming FNV-1a hasher, for the fingerprints `BUILDINFO` records (a
/// snapshot's own checksum is `serialize::checksum`, a different function).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The tokenizer + scratch buffers shared across [`LeafAssembly::build`]
/// calls. One per build thread.
#[derive(Debug)]
pub struct AssemblyContext {
    /// The model's tokenizer (stemmed per config): its tokens are graph
    /// identity, and their unstemmed surfaces, joined, are keyphrase
    /// *text* identity — recommendations must be exact-match biddable
    /// queries while graph tokens are stemmed for match reach.
    tokenizer: Tokenizer,
    walk: TokenBuf,
    normalized: String,
    /// The stemmed tokens of the text back to back, and each one's
    /// `start..end` in that string.
    stems: String,
    spans: Vec<(usize, usize)>,
}

impl AssemblyContext {
    pub fn new(stemming: bool) -> Self {
        Self {
            tokenizer: GraphExModel::make_tokenizer(stemming),
            walk: TokenBuf::default(),
            normalized: String::new(),
            stems: String::new(),
            spans: Vec::new(),
        }
    }

    /// Reduces one keyphrase text to what assembly keys on: its
    /// normalized (unstemmed) text — the label's identity — and its
    /// distinct stemmed tokens in string order — the label's rows.
    /// `None` for a punctuation-only text: nothing to match on.
    ///
    /// One normalize walk yields both: the label is the walk's surfaces
    /// joined by spaces, the rows its tokens
    /// ([`Tokenizer::for_each_surface_token`]).
    pub fn analyze(&mut self, text: &str) -> Option<(&str, impl Iterator<Item = &str>)> {
        let Self { tokenizer, walk, normalized, stems, spans } = self;
        normalized.clear();
        stems.clear();
        spans.clear();
        tokenizer.for_each_surface_token(text, walk, |surface, token| {
            if !normalized.is_empty() {
                normalized.push(' ');
            }
            normalized.push_str(surface);
            spans.push((stems.len(), stems.len() + token.len()));
            stems.push_str(token);
        });
        if normalized.is_empty() {
            return None;
        }
        let stem = |&(start, end): &(usize, usize)| &stems[start..end];
        spans.sort_unstable_by_key(stem);
        spans.dedup_by_key(|span| stem(span));
        Some((normalized, spans.iter().map(stem)))
    }
}

/// One leaf graph under construction from records already reduced to
/// integers: a keyphrase id and distinct token ids, from any id spaces
/// dense enough to index a `Vec`. Labels and rows are numbered by first
/// occurrence, which is what pins the graph to the canonical record
/// order; two records with one keyphrase id merge (sum search, max
/// recall), mirroring curation's duplicate policy. The one assembly
/// routine: [`LeafAssembly::build`] feeds it fresh vocabulary ids, the
/// serving overlay its staged leaf-stable ids.
#[derive(Debug, Default)]
pub(crate) struct GraphParts {
    /// Keyphrase id → label, token id → row ([`UNSEEN`] until met).
    label_of: Vec<u32>,
    row_of: Vec<u32>,
    labels: Vec<u32>,
    label_len: Vec<u16>,
    search: Vec<u32>,
    recall: Vec<u32>,
    row_tokens: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

impl GraphParts {
    /// Parts sized for records whose ids stay below `keyphrases` and
    /// `tokens` and whose token lists sum to `edges` (every table grows
    /// on demand either way).
    pub(crate) fn with_capacity(keyphrases: usize, tokens: usize, edges: usize) -> Self {
        Self {
            label_of: vec![UNSEEN; keyphrases],
            row_of: vec![UNSEEN; tokens],
            labels: Vec::with_capacity(keyphrases),
            label_len: Vec::with_capacity(keyphrases),
            search: Vec::with_capacity(keyphrases),
            recall: Vec::with_capacity(keyphrases),
            row_tokens: Vec::with_capacity(tokens),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Folds in one record; `tokens` must be distinct.
    pub(crate) fn push(&mut self, keyphrase: u32, tokens: &[u32], search: u32, recall: u32) {
        let slot = entry(&mut self.label_of, keyphrase);
        if *slot != UNSEEN {
            let l = *slot as usize;
            self.search[l] = self.search[l].saturating_add(search);
            self.recall[l] = self.recall[l].max(recall);
            return;
        }
        let label = self.labels.len() as u32;
        *slot = label;
        self.labels.push(keyphrase);
        self.label_len.push(tokens.len().min(u16::MAX as usize) as u16);
        self.search.push(search);
        self.recall.push(recall);
        for &token in tokens {
            let slot = entry(&mut self.row_of, token);
            if *slot == UNSEEN {
                *slot = self.row_tokens.len() as u32;
                self.row_tokens.push(token);
            }
            self.edges.push((*slot, label));
        }
    }

    /// The assembled graph, and the keyphrase id of every label in label
    /// order. The graph's own label ids are the label indices — the last
    /// tie-break of ranking is that id, so it must not depend on the id
    /// space the records came in with; its `row_tokens()` are the token
    /// ids as pushed.
    pub(crate) fn finish(self) -> (LeafGraph, Vec<u32>) {
        let (row_tokens, keyphrases, body) = self.split();
        let identity = (0..keyphrases.len() as u32).collect();
        (LeafGraph::from_body(row_tokens, identity, body), keyphrases)
    }

    /// The assembled graph under the ids the records came in with: its
    /// label ids are the keyphrase ids, its `row_tokens()` the token ids.
    fn finish_as_pushed(self) -> LeafGraph {
        let (row_tokens, keyphrases, body) = self.split();
        LeafGraph::from_body(row_tokens, keyphrases, body)
    }

    /// The token id of every row, the keyphrase id of every label, and
    /// the graph without them.
    fn split(self) -> (Vec<u32>, Vec<u32>, GraphBody) {
        let rows = self.row_tokens.len() as u32;
        let body = GraphBody::new(rows, self.edges, self.label_len, self.search, self.recall);
        (self.row_tokens, self.labels, body)
    }
}

/// `table[id]`, grown with [`UNSEEN`] to reach it.
fn entry(table: &mut Vec<u32>, id: u32) -> &mut u32 {
    let id = id as usize;
    if id >= table.len() {
        table.resize(id + 1, UNSEEN);
    }
    &mut table[id]
}

/// One leaf graph built against leaf-local vocabularies: the unit of
/// parallel construction and of delta reuse.
///
/// The graph is held without its id arrays: its rows *are* the
/// local token ids and its labels the local keyphrase ids (row `i` is
/// token `i`, label `j` keyphrase `j`), because a fresh vocabulary
/// assigns ids in first-occurrence order — the same order rows and
/// labels are created in. So the merge builds each leaf's [`LeafGraph`]
/// once, under global ids, from the body and the two vocabularies.
#[derive(Debug, Clone)]
pub struct LeafAssembly {
    tokens: Vocab,
    keyphrases: Vocab,
    body: GraphBody,
}

impl LeafAssembly {
    /// Builds one leaf's assembly from its curated records (canonical
    /// order). Records whose normalized text collides are merged (sum
    /// search, max recall), mirroring curation's duplicate policy.
    pub fn build(records: &[KeyphraseRecord], ctx: &mut AssemblyContext) -> Self {
        let mut tokens = Vocab::new();
        let mut keyphrases = Vocab::new();
        let mut parts = GraphParts::default();
        let mut ids: Vec<u32> = Vec::new();
        for rec in records {
            let Some((normalized, words)) = ctx.analyze(&rec.text) else {
                continue;
            };
            let keyphrase = keyphrases.intern(normalized);
            ids.clear();
            ids.extend(words.map(|word| tokens.intern(word)));
            parts.push(keyphrase, &ids, rec.search_count, rec.recall_count);
        }
        let (row_tokens, labels, body) = parts.split();
        // Fresh vocabularies number tokens in row order and keyphrases in
        // label order already.
        let identity = |ids: &[u32]| ids.iter().enumerate().all(|(i, &id)| i as u32 == id);
        debug_assert!(identity(&row_tokens) && identity(&labels));
        Self { tokens, keyphrases, body }
    }

    /// Recovers the assembly of one leaf from an already-built model —
    /// the delta-build borrow path.
    ///
    /// Exact by the identity invariant: a leaf graph's row order *is* its
    /// local token first-occurrence order and its label order its local
    /// keyphrase first-occurrence order, so re-localizing the global ids
    /// reproduces precisely what [`LeafAssembly::build`] over the same
    /// records would have produced. Returns `None` for an unknown leaf.
    pub fn from_model(model: &GraphExModel, leaf: LeafId) -> Option<Self> {
        model.leaf_graph(leaf).map(|g| Self::relocalize(g, model))
    }

    /// [`LeafAssembly::from_model`] for the meta-fallback graph.
    pub fn from_model_fallback(model: &GraphExModel) -> Option<Self> {
        model.fallback_graph().map(|g| Self::relocalize(g, model))
    }

    fn relocalize(graph: &LeafGraph, model: &GraphExModel) -> Self {
        // Interning in row (label) order numbers the local ids as rows
        // (labels), which is the invariant the body relies on.
        let local = |global: &Vocab, ids: &[u32]| {
            let bytes = ids.iter().map(|&id| global[id].len()).sum();
            let mut vocab = Vocab::with_capacity(ids.len(), bytes);
            for &id in ids {
                let local = vocab.intern(&global[id]);
                debug_assert_eq!(local as usize + 1, vocab.len());
            }
            vocab
        };
        Self {
            tokens: local(&model.tokens, graph.row_tokens()),
            keyphrases: local(&model.keyphrases, graph.labels()),
            body: graph.body(),
        }
    }

    /// The leaf-local token vocabulary.
    #[cfg(test)]
    pub(crate) fn tokens(&self) -> &Vocab {
        &self.tokens
    }

    /// The leaf-local keyphrase vocabulary.
    #[cfg(test)]
    pub(crate) fn keyphrases(&self) -> &Vocab {
        &self.keyphrases
    }

    /// The assembled leaf graph under its local ids.
    #[cfg(test)]
    pub(crate) fn graph(&self) -> LeafGraph {
        let identity = |n: usize| (0..n as u32).collect();
        let (rows, labels) = (identity(self.tokens.len()), identity(self.keyphrases.len()));
        LeafGraph::from_body(rows, labels, self.body.clone())
    }
}

/// Folds [`LeafAssembly`]s into a [`GraphExModel`], re-interning local
/// vocabularies into the global ones.
///
/// [`ModelAssembler::merge`] takes every leaf at once, by value, in
/// **ascending leaf-id order** (asserted): that order is what pins the
/// global vocabulary layout, and it matches both the canonical
/// sequential pass and the `GEXM` leaf table order. Seeing every leaf
/// before it interns a string, the merge sizes the global vocabularies
/// once and never regrows them.
#[derive(Debug)]
pub struct ModelAssembler {
    tokens: Vocab,
    keyphrases: Vocab,
    leaves: FxHashMap<LeafId, LeafGraph>,
    /// The merged leaves, ascending.
    order: Vec<LeafId>,
    fallback: Option<Box<LeafGraph>>,
    alignment: crate::Alignment,
    stemming: bool,
}

impl ModelAssembler {
    /// Merges `leaves` into the global model: each local vocabulary is
    /// re-interned into the global ones, in leaf order, and each leaf's
    /// graph is built once, under global ids.
    ///
    /// # Panics
    /// Panics if the leaf ids are not strictly ascending — out-of-order
    /// merges would silently produce a different (but still
    /// valid-looking) vocabulary layout.
    pub fn merge(
        config: &GraphExConfig,
        leaves: impl IntoIterator<Item = (LeafId, LeafAssembly)>,
    ) -> Self {
        let leaves: Vec<(LeafId, LeafAssembly)> = leaves.into_iter().collect();
        let mut assembler = Self::sized_for(config, &leaves);
        for (leaf, assembly) in leaves {
            assert!(
                assembler.order.last().map_or(true, |&prev| prev < leaf),
                "leaves must merge in ascending order ({:?} after {:?})",
                leaf,
                assembler.order.last()
            );
            assembler.order.push(leaf);
            let graph = assembler.globalize(assembly);
            assembler.leaves.insert(leaf, graph);
        }
        assembler
    }

    /// An empty assembler whose vocabularies take every string of
    /// `leaves` without growing: the leaves' counts and bytes, summed,
    /// bound the global ones (a string two leaves share is interned
    /// once).
    fn sized_for(config: &GraphExConfig, leaves: &[(LeafId, LeafAssembly)]) -> Self {
        Self {
            tokens: room_for(leaves.iter().map(|(_, a)| &a.tokens)),
            keyphrases: room_for(leaves.iter().map(|(_, a)| &a.keyphrases)),
            leaves: FxHashMap::with_capacity_and_hasher(leaves.len(), Default::default()),
            order: Vec::with_capacity(leaves.len()),
            fallback: None,
            alignment: config.alignment,
            stemming: config.stemming,
        }
    }

    /// Builds the meta-fallback graph — one graph over the whole corpus —
    /// from the merged leaves.
    ///
    /// A fold over integers, not a second build from records: each merged
    /// leaf already holds, per label, the global keyphrase id, the counts
    /// and (as its CSR) the global token ids, so the leaves are pushed
    /// through `GraphParts` — ascending, labels in label order, each
    /// label's tokens recovered by transposing the leaf's CSR. That is the
    /// graph one [`LeafAssembly::build`] over the canonical record stream
    /// would produce, byte for byte: a leaf's label order is first
    /// occurrence in that stream; a record whose keyphrase was already met
    /// adds no rows; summing (saturating) and maxing a leaf's
    /// already-merged label equals folding in its records one by one; and
    /// no string is interned. The transpose yields a label's tokens by
    /// ascending leaf row where the record stream had them by ascending
    /// *string*, which numbers the fallback's rows alike: a token new to
    /// the fallback is new to its leaf too (every earlier label of the
    /// leaf is in the fallback already), and a label's new tokens took
    /// their leaf rows in string order.
    pub fn derive_fallback(&mut self) {
        let edges = self.order.iter().map(|leaf| self.leaves[leaf].num_edges()).sum();
        let mut parts = GraphParts::with_capacity(self.keyphrases.len(), self.tokens.len(), edges);
        // One leaf's CSR transposed: label `l`'s tokens end at `ends[l]`
        // and start where the label before it ends.
        let (mut ends, mut tokens): (Vec<usize>, Vec<u32>) = (Vec::new(), Vec::new());
        for leaf in &self.order {
            let graph = &self.leaves[leaf];
            let (offsets, targets) = graph.csr_parts();
            // Count into the slot after each label, prefix-sum to starts,
            // and let the fill advance every start to its end.
            ends.clear();
            ends.resize(graph.labels().len() + 1, 0);
            for &label in targets {
                ends[label as usize + 1] += 1;
            }
            for label in 1..ends.len() {
                ends[label] += ends[label - 1];
            }
            tokens.clear();
            tokens.resize(targets.len(), 0);
            for (row, &token) in graph.row_tokens().iter().enumerate() {
                for &label in &targets[offsets[row] as usize..offsets[row + 1] as usize] {
                    tokens[ends[label as usize]] = token;
                    ends[label as usize] += 1;
                }
            }
            let mut start = 0;
            for (label, &keyphrase) in graph.labels().iter().enumerate() {
                let words = &tokens[start..ends[label]];
                start = ends[label];
                parts.push(keyphrase, words, graph.searches()[label], graph.recalls()[label]);
            }
        }
        self.fallback = Some(Box::new(parts.finish_as_pushed()));
    }

    /// Installs an already-assembled meta-fallback graph, re-interning its
    /// vocabularies. For `emit_shards` only: a shard carries the *global*
    /// fallback, which it cannot derive from its own leaves. It comes
    /// after every leaf — the fallback introduces no new strings, but the
    /// order is part of the determinism contract.
    pub fn set_fallback(&mut self, assembly: LeafAssembly) {
        let graph = self.globalize(assembly);
        self.fallback = Some(Box::new(graph));
    }

    /// The graph of `assembly` under global ids. Row `i` is local token
    /// `i` and label `j` local keyphrase `j`, so the global id of each
    /// local string, in local id order, is the row (label) id array.
    fn globalize(&mut self, assembly: LeafAssembly) -> LeafGraph {
        let LeafAssembly { tokens, keyphrases, body } = assembly;
        let row_tokens = tokens.iter().map(|(_, s)| self.tokens.intern(s)).collect();
        let labels = keyphrases.iter().map(|(_, s)| self.keyphrases.intern(s)).collect();
        LeafGraph::from_body(row_tokens, labels, body)
    }

    /// The assembled model.
    pub fn finish(self) -> GraphExModel {
        GraphExModel {
            tokenizer: GraphExModel::make_tokenizer(self.stemming),
            tokens: self.tokens,
            keyphrases: self.keyphrases,
            leaves: self.leaves,
            fallback: self.fallback,
            alignment: self.alignment,
            stemming: self.stemming,
        }
    }
}

/// An empty vocabulary that takes every string of `vocabs` without
/// growing.
fn room_for<'a>(vocabs: impl Iterator<Item = &'a Vocab>) -> Vocab {
    let (strings, bytes) = vocabs.fold((0, 0), |(n, b), v| (n + v.len(), b + v.parts().0.len()));
    Vocab::with_capacity(strings, bytes)
}

/// Splits a canonical-sorted curated slice into its consecutive per-leaf
/// runs.
pub fn leaf_runs(sorted: &[KeyphraseRecord]) -> impl Iterator<Item = (LeafId, &[KeyphraseRecord])> {
    LeafRuns { rest: sorted }
}

struct LeafRuns<'a> {
    rest: &'a [KeyphraseRecord],
}

impl<'a> Iterator for LeafRuns<'a> {
    type Item = (LeafId, &'a [KeyphraseRecord]);

    fn next(&mut self) -> Option<Self::Item> {
        let leaf = self.rest.first()?.leaf;
        let end = self.rest.partition_point(|r| r.leaf <= leaf);
        let (run, rest) = self.rest.split_at(end);
        self.rest = rest;
        Some((leaf, run))
    }
}

/// Assembles a model from canonical-sorted curated records: the shared
/// sequential reference path ([`crate::GraphExBuilder`] calls this; the
/// pipeline's parallel build must produce byte-identical output).
pub fn assemble_model(config: &GraphExConfig, curated_sorted: &[KeyphraseRecord]) -> GraphExModel {
    debug_assert!(
        curated_sorted.windows(2).all(|w| {
            (w[0].leaf, &w[0].text, w[0].search_count) <= (w[1].leaf, &w[1].text, w[1].search_count)
        }),
        "records must be canonicalized"
    );
    let mut ctx = AssemblyContext::new(config.stemming);
    let leaves =
        leaf_runs(curated_sorted).map(|(leaf, run)| (leaf, LeafAssembly::build(run, &mut ctx)));
    let mut assembler = ModelAssembler::merge(config, leaves);
    if config.build_meta_fallback {
        assembler.derive_fallback();
    }
    assembler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphExBuilder;
    use crate::curation::curate;
    use crate::serialize;

    fn rec(text: &str, leaf: u32, s: u32, r: u32) -> KeyphraseRecord {
        KeyphraseRecord::new(text, LeafId(leaf), s, r)
    }

    fn corpus() -> Vec<KeyphraseRecord> {
        let mut out = Vec::new();
        for i in 0..40u32 {
            out.push(rec(&format!("brand{} widget kind{}", i % 7, i % 5), 100 + i % 4, 50 + i, i));
            out.push(rec(&format!("widget accessory v{i}"), 100 + i % 3, 200 + i, 2 * i));
        }
        // duplicates + a punctuation-only phrase
        out.push(rec("brand1 widget kind1", 101, 9, 9));
        out.push(rec("!!!", 102, 500, 1));
        out
    }

    fn no_curation() -> GraphExConfig {
        let mut c = GraphExConfig::default();
        c.curation.min_search_count = 0;
        c
    }

    #[test]
    fn build_is_input_order_independent() {
        let config = no_curation();
        let forward = GraphExBuilder::new(config.clone()).add_records(corpus()).build().unwrap();
        let mut reversed = corpus();
        reversed.reverse();
        let backward = GraphExBuilder::new(config).add_records(reversed).build().unwrap();
        assert_eq!(
            serialize::to_bytes(&forward),
            serialize::to_bytes(&backward),
            "canonicalized build must not depend on record arrival order"
        );
    }

    #[test]
    fn merge_of_assemblies_matches_builder() {
        let config = no_curation();
        let (mut curated, _) = curate(corpus(), &config.curation);
        canonicalize(&mut curated);
        let merged = assemble_model(&config, &curated);
        let reference = GraphExBuilder::new(config).add_records(corpus()).build().unwrap();
        assert_eq!(serialize::to_bytes(&merged), serialize::to_bytes(&reference));
    }

    #[test]
    fn relocalized_assembly_reproduces_bytes() {
        // Build → serialize → load (zero-copy) → relocalize every leaf +
        // fallback → re-merge: the shard-emission path must reproduce
        // the exact bytes of a from-records build.
        let config = no_curation();
        let model = GraphExBuilder::new(config.clone()).add_records(corpus()).build().unwrap();
        let bytes = serialize::to_bytes(&model);
        let loaded = bytes.parse().unwrap();

        let mut leaves: Vec<LeafId> = loaded.leaf_ids().collect();
        leaves.sort_unstable();
        let assemblies =
            leaves.into_iter().map(|leaf| (leaf, LeafAssembly::from_model(&loaded, leaf).unwrap()));
        let mut assembler = ModelAssembler::merge(&config, assemblies);
        assembler.set_fallback(LeafAssembly::from_model_fallback(&loaded).unwrap());
        let rebuilt = assembler.finish();
        assert_eq!(serialize::to_bytes(&rebuilt), bytes);
    }

    #[test]
    fn mixed_fresh_and_borrowed_leaves_merge_identically() {
        let config = no_curation();
        let (mut curated, _) = curate(corpus(), &config.curation);
        canonicalize(&mut curated);
        let reference = assemble_model(&config, &curated);
        let loaded = serialize::to_bytes(&reference).parse().unwrap();

        // Rebuild even leaves from records, borrow odd leaves from the
        // previous model; the result must be byte-identical either way.
        let mut ctx = AssemblyContext::new(config.stemming);
        let leaves = leaf_runs(&curated).enumerate().map(|(i, (leaf, run))| {
            let assembly = if i % 2 == 0 {
                LeafAssembly::build(run, &mut ctx)
            } else {
                LeafAssembly::from_model(&loaded, leaf).unwrap()
            };
            (leaf, assembly)
        });
        let mut assembler = ModelAssembler::merge(&config, leaves);
        assembler.derive_fallback();
        let mixed = assembler.finish();
        assert_eq!(serialize::to_bytes(&mixed), serialize::to_bytes(&reference));
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn out_of_order_merge_panics() {
        let config = no_curation();
        let mut ctx = AssemblyContext::new(true);
        let a = LeafAssembly::build(&[rec("a b", 1, 10, 1)], &mut ctx);
        ModelAssembler::merge(&config, [(LeafId(2), a.clone()), (LeafId(1), a)]);
    }

    /// The merge sizes its global vocabularies from the leaves before it
    /// interns a string: merging every leaf leaves their buffers exactly
    /// as sized — nothing regrew. The corpus shares tokens and
    /// keyphrases across leaves, so the sizes are strict upper bounds.
    #[test]
    fn merge_never_regrows_its_global_vocabularies() {
        let config = no_curation();
        let (mut curated, _) = curate(corpus(), &config.curation);
        canonicalize(&mut curated);
        let mut ctx = AssemblyContext::new(config.stemming);
        let leaves: Vec<(LeafId, LeafAssembly)> =
            leaf_runs(&curated).map(|(leaf, run)| (leaf, LeafAssembly::build(run, &mut ctx))).collect();
        let sized = ModelAssembler::sized_for(&config, &leaves);
        let heap = |a: &ModelAssembler| (a.tokens.heap_bytes(), a.keyphrases.heap_bytes());
        let local_tokens: usize = leaves.iter().map(|(_, a)| a.tokens.len()).sum();

        let merged = ModelAssembler::merge(&config, leaves);
        assert!(merged.tokens.len() < local_tokens, "some token is shared by two leaves");
        assert_eq!(heap(&merged), heap(&sized));
    }

    #[test]
    fn fingerprints_are_content_hashes() {
        let a = vec![rec("a b", 1, 10, 1), rec("c d", 1, 20, 2)];
        let mut b = a.clone();
        assert_eq!(leaf_fingerprint(&a), leaf_fingerprint(&b));
        b[1].search_count += 1;
        assert_ne!(leaf_fingerprint(&a), leaf_fingerprint(&b));
        assert_ne!(leaf_fingerprint(&a), leaf_fingerprint(&a[..1]));

        let c1 = GraphExConfig::default();
        let mut c2 = GraphExConfig::default();
        assert_eq!(config_fingerprint(&c1), config_fingerprint(&c2));
        c2.curation.min_search_count += 1;
        assert_ne!(config_fingerprint(&c1), config_fingerprint(&c2));
        let c3 = GraphExConfig { stemming: false, ..GraphExConfig::default() };
        assert_ne!(config_fingerprint(&c1), config_fingerprint(&c3));

    }

    #[test]
    fn leaf_runs_splits_consecutive_groups() {
        let mut records =
            vec![rec("x", 3, 1, 1), rec("y", 1, 1, 1), rec("z", 3, 1, 1), rec("w", 2, 1, 1)];
        canonicalize(&mut records);
        let runs: Vec<(LeafId, usize)> =
            leaf_runs(&records).map(|(leaf, run)| (leaf, run.len())).collect();
        assert_eq!(runs, [(LeafId(1), 1), (LeafId(2), 1), (LeafId(3), 2)]);
        assert!(leaf_runs(&[]).next().is_none());
    }
}
