//! Serving-side overlay views: a mutable per-leaf delta composed over an
//! immutable snapshot at query time (ROADMAP item 4, the NRT onboarding
//! story).
//!
//! A snapshot is immutable by design — that is what makes zero-copy mmap
//! residency and atomic hot swaps safe. But a brand-new item (or a fresh
//! keyphrase for an existing leaf) then only becomes servable after the
//! next delta build publishes, which is minutes-cadence at best. The
//! overlay closes that gap: an [`OverlayView`] holds, for every overlaid
//! leaf, a small leaf-local graph over the leaf's base records ∪ its
//! upserted delta records. Reads on an overlaid leaf traverse that mini
//! graph (same count arrays, same ranking, same scratch reuse); reads on
//! untouched leaves never pay a thing.
//!
//! **Stage once, re-assemble in integers.** The first upsert to a leaf
//! *stages* its base records: every base label is normalized, tokenized
//! and interned into two leaf tables, and kept — in canonical `(text,
//! search, recall)` order — as a keyphrase id, token ids and counts.
//! That part never changes while the base snapshot serves, so it sits
//! behind an `Arc` shared by every later version of the leaf, and the
//! view resolves texts and title tokens from the same tables. A later
//! upsert stages only the records it was handed (into a small delta that
//! continues the base id space), merge-walks base and delta in canonical
//! order and re-assembles the mini graph through `GraphParts` (the
//! routine `LeafAssembly::build` feeds too) — integer remaps, no
//! hashing, no strings.
//!
//! **Invariant.** The mini graph is exactly what [`canonicalize`] →
//! [`LeafAssembly::build`] over (base records reconstructed from the
//! snapshot ∪ delta records) produces — label order, row order, counts,
//! CSR, and the label → global-id map; the `overlay_incremental` property
//! test pins it against that rebuild after every step. **Lifetime.** A
//! leaf's staging lives exactly as long as the leaf stays in the view:
//! [`OverlayView::build`] (what the store's drain and rebase call)
//! stages afresh against the base it is handed, so
//! [`OverlayView::with_leaf`] must be given the base of the last build.
//!
//! Determinism is inherited, not re-proven: because the upserted records
//! are raw [`KeyphraseRecord`]s that later enter the build pipeline as
//! one more record source, *overlay-then-compact* is byte-identical to a
//! direct rebuild of the union corpus — the pipeline's existing
//! parallel ≡ sequential ≡ delta property does the work (pinned in
//! `tests/overlay.rs`).
//!
//! A view is immutable and cheap to share (`Arc` swap per upsert batch in
//! `graphex_serving::overlay::OverlayStore`).
//!
//! [`canonicalize`]: crate::assembly::canonicalize
//! [`LeafAssembly::build`]: crate::assembly::LeafAssembly::build

use crate::alignment::Alignment;
use crate::assembly::{AssemblyContext, GraphParts};
use crate::inference::{collect_title_tokens, infer_on_graph, Scratch};
use crate::leaf_graph::LeafGraph;
use crate::model::GraphExModel;
use crate::service::{InferRequest, InferResponse, Outcome};
use crate::types::{KeyphraseId, KeyphraseRecord, LeafId};
use graphex_textkit::{FxHashMap, Tokenizer};
use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Weak};

/// "No id" in the staged integer arrays.
const NONE: u32 = u32::MAX;

/// Append-only string table, ids in first-seen order. The strings are
/// `Arc<str>`: one allocation serves the list and the index, and
/// extending a clone of the table copies no string.
#[derive(Debug, Clone, Default)]
struct Table {
    strings: Vec<Arc<str>>,
    ids: FxHashMap<Arc<str>, u32>,
}

impl Table {
    fn len(&self) -> u32 {
        self.strings.len() as u32
    }

    /// Appends `s`, which must be absent.
    fn push(&mut self, s: &str) -> u32 {
        let id = self.len();
        let s: Arc<str> = s.into();
        self.strings.push(Arc::clone(&s));
        self.ids.insert(s, id);
        id
    }
}

/// Id of `s` in the id space that runs through `base`, then `delta`.
fn lookup(base: &Table, delta: &Table, s: &str) -> Option<u32> {
    base.ids.get(s).copied().or_else(|| delta.ids.get(s).map(|id| base.len() + id))
}

/// Inverse of [`lookup`].
fn resolve<'a>(base: &'a Table, delta: &'a Table, id: u32) -> &'a str {
    match id.checked_sub(base.len()) {
        None => &base.strings[id as usize],
        Some(id) => &delta.strings[id as usize],
    }
}

/// One record reduced to integers.
#[derive(Debug, Clone)]
struct Staged {
    /// The record's text where that is not its own normalized form; the
    /// canonical order sorts on the text as received.
    raw: Option<Arc<str>>,
    /// Id of the normalized text; [`NONE`] for a punctuation-only record,
    /// which sorts but never reaches the graph.
    keyphrase: u32,
    /// Its distinct stemmed tokens in string order, in `Stage::token_ids`.
    tokens: Range<u32>,
    search: u32,
    recall: u32,
}

/// Staged records in canonical order, with the tables their ids index.
/// A leaf has two: the base leaf's, and the delta's, whose ids continue
/// the base's.
#[derive(Debug, Clone, Default)]
struct Stage {
    keyphrases: Table,
    tokens: Table,
    /// Per keyphrase of this stage: its id in the base vocabulary, or
    /// [`NONE`].
    global: Vec<KeyphraseId>,
    records: Vec<Staged>,
    token_ids: Vec<u32>,
}

impl Stage {
    /// Stages the labels of `leaf` as the snapshot holds them.
    fn of_base_leaf(model: &GraphExModel, leaf: LeafId, ctx: &mut AssemblyContext) -> Self {
        let mut stage = Self::default();
        let Some(graph) = model.leaf_graph(leaf) else {
            return stage;
        };
        let text = |label: u32| {
            model
                .keyphrase_text(graph.keyphrase_id(label))
                .expect("base leaf label resolves in base vocabulary")
        };
        let key = |label: u32| (text(label), graph.search_count(label), graph.recall_count(label));
        let mut order: Vec<u32> = (0..graph.num_labels()).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
        let before = Self::default();
        for label in order {
            let (text, search, recall) = key(label);
            let id = graph.keyphrase_id(label);
            let staged = stage.stage(&before, model, ctx, text, (search, recall), Some(id));
            stage.records.push(staged);
        }
        stage
    }

    /// Tokenizes and interns one record behind `before`'s id space; the
    /// caller places the result in `records`. `known` is the base
    /// vocabulary id of `text` itself, when it has one.
    fn stage(
        &mut self,
        before: &Stage,
        model: &GraphExModel,
        ctx: &mut AssemblyContext,
        text: &str,
        (search, recall): (u32, u32),
        known: Option<KeyphraseId>,
    ) -> Staged {
        let start = self.token_ids.len() as u32;
        let Some((normalized, words)) = ctx.analyze(text) else {
            return Staged { raw: Some(text.into()), keyphrase: NONE, tokens: start..start, search, recall };
        };
        let keyphrase =
            lookup(&before.keyphrases, &self.keyphrases, normalized).unwrap_or_else(|| {
                // Reuse the base id for phrases the base vocabulary
                // already knows (in this leaf or another).
                self.global.push(match known {
                    Some(id) if normalized == text => id,
                    _ => model.keyphrase_id(normalized).unwrap_or(NONE),
                });
                before.keyphrases.len() + self.keyphrases.push(normalized)
            });
        for word in words {
            let id = lookup(&before.tokens, &self.tokens, word)
                .unwrap_or_else(|| before.tokens.len() + self.tokens.push(word));
            self.token_ids.push(id);
        }
        Staged {
            raw: (normalized != text).then(|| text.into()),
            keyphrase,
            tokens: start..self.token_ids.len() as u32,
            search,
            recall,
        }
    }
}

/// The canonical sort key of a staged record of `base` or `delta`.
fn sort_key<'a>(base: &'a Stage, delta: &'a Stage, rec: &'a Staged) -> (&'a str, u32, u32) {
    let text = match &rec.raw {
        Some(raw) => &**raw,
        None => resolve(&base.keyphrases, &delta.keyphrases, rec.keyphrase),
    };
    (text, rec.search, rec.recall)
}

/// One overlaid leaf: its staged base and delta records, and the
/// leaf-local graph assembled from their union.
#[derive(Debug)]
struct OverlayLeaf {
    /// Immutable while the base snapshot serves; shared by every version
    /// of this leaf.
    base: Arc<Stage>,
    /// Every uncompacted delta record of this leaf (this version's own
    /// copy: integers and `Arc` handles).
    delta: Stage,
    graph: LeafGraph,
    /// Label → keyphrase id in the staged tables.
    label_keyphrases: Vec<u32>,
    /// Label → global keyphrase id: the base model's id when the phrase
    /// already exists there, else a synthetic id past the base
    /// vocabulary (stable within one view).
    global_ids: Vec<KeyphraseId>,
    /// True when the base snapshot has no graph for this leaf at all —
    /// the seconds-old-seller case.
    brand_new: bool,
}

impl OverlayLeaf {
    /// `leaf` as it serves once `added` has joined its delta — the one
    /// routine that turns staged records into a leaf graph. `prev` is the
    /// leaf as the view holds it; without one the leaf enters the view
    /// and its base records are staged, once for as long as it stays.
    /// Only `added` is tokenized; the rest is a walk over base and delta
    /// records in canonical order through [`GraphParts`].
    fn upserted<'a>(
        prev: Option<&Self>,
        model: &GraphExModel,
        leaf: LeafId,
        added: impl IntoIterator<Item = &'a KeyphraseRecord>,
        ctx: &mut AssemblyContext,
    ) -> Self {
        let base_labels = model.leaf_graph(leaf).map(|graph| graph.num_labels() as usize);
        let (shared, mut delta) = match prev {
            Some(prev) => (Arc::clone(&prev.base), prev.delta.clone()),
            None => (Arc::new(Stage::of_base_leaf(model, leaf, ctx)), Stage::default()),
        };
        let base = &*shared;
        debug_assert_eq!(
            base.records.len(),
            base_labels.unwrap_or(0),
            "{leaf} was staged against another base: rebuild the view after a swap"
        );
        for rec in added {
            let counts = (rec.search_count, rec.recall_count);
            let staged = delta.stage(base, model, ctx, &rec.text, counts, None);
            let at = delta
                .records
                .partition_point(|r| sort_key(base, &delta, r) <= sort_key(base, &delta, &staged));
            delta.records.insert(at, staged);
        }

        let mut parts = GraphParts::with_capacity(
            (base.keyphrases.len() + delta.keyphrases.len()) as usize,
            (base.tokens.len() + delta.tokens.len()) as usize,
            base.token_ids.len() + delta.token_ids.len(),
        );
        let mut push = |stage: &Stage, rec: &Staged| {
            if rec.keyphrase != NONE {
                let tokens = &stage.token_ids[rec.tokens.start as usize..rec.tokens.end as usize];
                parts.push(rec.keyphrase, tokens, rec.search, rec.recall);
            }
        };
        let mut rest = &base.records[..];
        for rec in &delta.records {
            let cut = rest
                .partition_point(|b| sort_key(base, &delta, b) <= sort_key(base, &delta, rec));
            rest[..cut].iter().for_each(|b| push(base, b));
            rest = &rest[cut..];
            push(&delta, rec);
        }
        rest.iter().for_each(|b| push(base, b));
        let (graph, label_keyphrases) = parts.finish();

        // Mint synthetic ids past the base vocabulary, in label order.
        let mut next_synthetic = model.num_keyphrases() as u32;
        let global_ids = label_keyphrases
            .iter()
            .map(|&id| {
                let global = match id.checked_sub(base.keyphrases.len()) {
                    None => base.global[id as usize],
                    Some(id) => delta.global[id as usize],
                };
                if global != NONE {
                    return global;
                }
                next_synthetic += 1;
                next_synthetic - 1
            })
            .collect();

        Self {
            delta,
            graph,
            label_keyphrases,
            global_ids,
            brand_new: base_labels.is_none(),
            base: shared,
        }
    }
}

/// Per-leaf overlay accounting, for `/statusz` tables and CLI output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayLeafStats {
    pub leaf: LeafId,
    /// Uncompacted delta records folded into this leaf's mini graph.
    pub delta_records: usize,
    /// Total labels in the composed mini graph (base + delta).
    pub labels: u32,
    /// Whether the leaf exists only in the overlay (not in the base).
    pub brand_new: bool,
}

/// An immutable snapshot of the overlay: per-leaf mini graphs composed
/// from the base model plus all uncompacted delta records.
///
/// Built by `graphex_serving::overlay::OverlayStore` after each accepted
/// upsert batch and swapped in atomically (readers hold an `Arc`); the
/// inference path consults it before the base CSR lookup — an overlaid
/// leaf answers from its composed mini graph, everything else falls
/// through to the base model untouched.
#[derive(Debug)]
pub struct OverlayView {
    leaves: FxHashMap<LeafId, Arc<OverlayLeaf>>,
    tokenizer: Tokenizer,
    alignment: Alignment,
    /// Global overlay sequence number this view was built at (the epoch
    /// tag the KV store compares against for invalidation).
    seq: u64,
}

impl OverlayView {
    /// The empty view: covers no leaves, sequence 0.
    pub fn empty() -> Self {
        Self {
            leaves: FxHashMap::default(),
            tokenizer: GraphExModel::make_tokenizer(true),
            alignment: Alignment::Lta,
            seq: 0,
        }
    }

    /// Composes a view over `base` from per-leaf delta records, staging
    /// every overlaid leaf afresh.
    ///
    /// Every overlaid leaf's mini graph is a pure function of the base
    /// model and the delta record multiset: the base leaf's records
    /// (normalized text + counts per label) unioned with the deltas, in
    /// canonical order, with the normalized-text merge (sum search, max
    /// recall) that curation + assembly will apply to the same records
    /// at compaction time.
    pub fn build(base: &GraphExModel, deltas: &BTreeMap<LeafId, Vec<KeyphraseRecord>>, seq: u64) -> Self {
        let mut view = Self { seq, ..Self::over(base) };
        let mut ctx = AssemblyContext::new(base.stemming());
        for (&leaf, delta) in deltas {
            if !delta.is_empty() {
                let staged = OverlayLeaf::upserted(None, base, leaf, delta, &mut ctx);
                view.leaves.insert(leaf, Arc::new(staged));
            }
        }
        view
    }

    /// This view with `added` joining the delta of `leaf`, sharing every
    /// other leaf's mini graph with `self` — the incremental per-upsert
    /// path. Costs the staging of `added` plus integer work in the size
    /// of the leaf; the first upsert to a leaf also stages its base
    /// records. `base` must be the model of the last [`OverlayView::build`].
    pub fn with_leaf<'a>(
        &self,
        base: &GraphExModel,
        leaf: LeafId,
        added: impl IntoIterator<Item = &'a KeyphraseRecord>,
        seq: u64,
    ) -> Self {
        let mut ctx = AssemblyContext::new(base.stemming());
        let prev = self.leaves.get(&leaf).map(|staged| &**staged);
        let next = OverlayLeaf::upserted(prev, base, leaf, added, &mut ctx);
        let mut view = Self { leaves: self.leaves.clone(), seq, ..Self::over(base) };
        view.leaves.insert(leaf, Arc::new(next));
        view
    }

    /// A view of no leaves that reads titles the way `base` does.
    fn over(base: &GraphExModel) -> Self {
        Self {
            tokenizer: GraphExModel::make_tokenizer(base.stemming()),
            alignment: base.alignment(),
            ..Self::empty()
        }
    }

    /// Global overlay sequence this view was built at.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether `leaf` answers from the overlay.
    pub fn covers(&self, leaf: LeafId) -> bool {
        self.leaves.contains_key(&leaf)
    }

    /// Number of overlaid leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Total uncompacted delta records across all leaves.
    pub fn num_records(&self) -> usize {
        self.leaves.values().map(|l| l.delta.records.len()).sum()
    }

    /// True when no leaf is overlaid.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// A weak handle on the staged base records of `leaf`, for tests of
    /// the staging's lifetime: it upgrades exactly as long as some view
    /// overlays the leaf with that staging.
    #[doc(hidden)]
    pub fn staged_base(&self, leaf: LeafId) -> Option<Weak<dyn Any + Send + Sync>> {
        let base: Arc<dyn Any + Send + Sync> = self.leaves.get(&leaf)?.base.clone();
        Some(Arc::downgrade(&base))
    }

    /// Per-leaf accounting, sorted by leaf id (deterministic output for
    /// `/statusz` and the CLI).
    pub fn leaf_stats(&self) -> Vec<OverlayLeafStats> {
        let mut stats: Vec<OverlayLeafStats> = self
            .leaves
            .iter()
            .map(|(&leaf, ov)| OverlayLeafStats {
                leaf,
                delta_records: ov.delta.records.len(),
                labels: ov.graph.num_labels(),
                brand_new: ov.brand_new,
            })
            .collect();
        stats.sort_unstable_by_key(|s| s.leaf);
        stats
    }

    /// Answers `request` from the overlay, or `None` when the leaf is not
    /// overlaid (the caller then falls through to the base model).
    ///
    /// Same machinery as the base path: `collect_title_tokens` against
    /// the leaf's staged token tables, then the generation-stamped
    /// count-array enumeration and ranking of `infer_on_graph` — reusing
    /// the caller's [`Scratch`], so steady-state overlay reads allocate
    /// nothing extra.
    pub fn infer_request(
        &self,
        request: &InferRequest<'_>,
        scratch: &mut Scratch,
    ) -> Option<InferResponse> {
        let ov = self.leaves.get(&request.leaf)?;
        let (base, delta) = (&*ov.base, &ov.delta);
        let token_id = |word: &str| lookup(&base.tokens, &delta.tokens, word);
        collect_title_tokens(&self.tokenizer, token_id, request.title, scratch);
        let alignment = request.alignment.unwrap_or(self.alignment);
        let mut predictions = infer_on_graph(&ov.graph, alignment, &request.params(), scratch);
        // `keyphrase` is the label index here (see `GraphParts::finish`).
        let texts = if request.resolve_texts {
            predictions
                .iter()
                .map(|p| {
                    let id = ov.label_keyphrases[p.keyphrase as usize];
                    resolve(&base.keyphrases, &delta.keyphrases, id).to_string()
                })
                .collect()
        } else {
            Vec::new()
        };
        for p in &mut predictions {
            p.keyphrase = ov.global_ids[p.keyphrase as usize];
        }
        let outcome = if predictions.is_empty() { Outcome::Empty } else { Outcome::ExactLeaf };
        Some(InferResponse { id: request.id, outcome, predictions, texts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphExBuilder, GraphExConfig};
    use crate::service::Engine;

    fn base_model() -> GraphExModel {
        let leaf = LeafId(7);
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", leaf, 900, 120),
                KeyphraseRecord::new("audeze headphones", leaf, 450, 300),
                KeyphraseRecord::new("gaming headphones xbox", leaf, 800, 700),
            ])
            .build()
            .unwrap()
    }

    fn deltas(pairs: Vec<(u32, KeyphraseRecord)>) -> BTreeMap<LeafId, Vec<KeyphraseRecord>> {
        let mut map: BTreeMap<LeafId, Vec<KeyphraseRecord>> = BTreeMap::new();
        for (leaf, rec) in pairs {
            map.entry(LeafId(leaf)).or_default().push(rec);
        }
        map
    }

    #[test]
    fn uncovered_leaf_falls_through() {
        let base = base_model();
        let view = OverlayView::build(
            &base,
            &deltas(vec![(9, KeyphraseRecord::new("ski goggles", LeafId(9), 50, 5))]),
            1,
        );
        let mut scratch = Scratch::new();
        assert!(view
            .infer_request(&InferRequest::new("audeze maxwell", LeafId(7)), &mut scratch)
            .is_none());
        assert!(view.covers(LeafId(9)));
        assert!(!view.covers(LeafId(7)));
    }

    #[test]
    fn brand_new_leaf_is_servable() {
        let base = base_model();
        let view = OverlayView::build(
            &base,
            &deltas(vec![
                (9, KeyphraseRecord::new("ski goggles anti fog", LeafId(9), 50, 5)),
                (9, KeyphraseRecord::new("ski goggles", LeafId(9), 80, 9)),
            ]),
            2,
        );
        let mut scratch = Scratch::new();
        let resp = view
            .infer_request(
                &InferRequest::new("anti fog ski goggles large", LeafId(9)).k(5).resolve_texts(true),
                &mut scratch,
            )
            .unwrap();
        assert_eq!(resp.outcome, Outcome::ExactLeaf);
        assert_eq!(resp.texts[0], "ski goggles anti fog");
        let stats = view.leaf_stats();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].brand_new);
        assert_eq!(stats[0].delta_records, 2);
    }

    #[test]
    fn overlaid_leaf_composes_base_and_delta() {
        let base = base_model();
        // A new keyphrase lands on the existing leaf; base phrases must
        // still answer alongside it.
        let view = OverlayView::build(
            &base,
            &deltas(vec![(7, KeyphraseRecord::new("audeze maxwell xbox edition", LeafId(7), 990, 10))]),
            3,
        );
        let mut scratch = Scratch::new();
        let resp = view
            .infer_request(
                &InferRequest::new("audeze maxwell gaming headphones xbox", LeafId(7))
                    .k(10)
                    .resolve_texts(true),
                &mut scratch,
            )
            .unwrap();
        assert_eq!(resp.outcome, Outcome::ExactLeaf);
        assert!(resp.texts.iter().any(|t| t == "audeze maxwell xbox edition"));
        assert!(resp.texts.iter().any(|t| t == "gaming headphones xbox"));
        // Existing phrases keep their base-model global ids.
        let kp = base.keyphrase_id("gaming headphones xbox").unwrap();
        let idx = resp.texts.iter().position(|t| t == "gaming headphones xbox").unwrap();
        assert_eq!(resp.predictions[idx].keyphrase, kp);
        // The new phrase gets a synthetic id past the base vocabulary.
        let new_idx = resp.texts.iter().position(|t| t == "audeze maxwell xbox edition").unwrap();
        assert!(resp.predictions[new_idx].keyphrase >= base.num_keyphrases() as u32);
    }

    #[test]
    fn weight_bump_merges_counts_like_compaction() {
        let base = base_model();
        // Bumping an existing phrase sums search counts (curation's
        // commutative duplicate merge), so overlay scores match what the
        // compacted snapshot will serve.
        let view = OverlayView::build(
            &base,
            &deltas(vec![(7, KeyphraseRecord::new("audeze headphones", LeafId(7), 1000, 100))]),
            4,
        );
        let mut scratch = Scratch::new();
        let resp = view
            .infer_request(
                &InferRequest::new("audeze maxwell headphones", LeafId(7)).k(5).resolve_texts(true),
                &mut scratch,
            )
            .unwrap();
        let idx = resp.texts.iter().position(|t| t == "audeze headphones").unwrap();
        assert_eq!(resp.predictions[idx].search_count, 450 + 1000);
        assert_eq!(resp.predictions[idx].recall_count, 300);
        // The bumped phrase now out-ties "audeze maxwell" (LTA 2/1 both,
        // search 1450 vs 900).
        assert_eq!(resp.texts[0], "audeze headphones");
    }

    #[test]
    fn overlay_answer_matches_direct_rebuild_of_union() {
        // The read-path fidelity check behind the compaction invariant:
        // serving through the overlay answers the same texts as a model
        // rebuilt from the union corpus.
        let union_records = vec![
            KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
            KeyphraseRecord::new("audeze headphones", LeafId(7), 450, 300),
            KeyphraseRecord::new("gaming headphones xbox", LeafId(7), 800, 700),
            KeyphraseRecord::new("audeze maxwell xbox edition", LeafId(7), 990, 10),
        ];
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let rebuilt = GraphExBuilder::new(config).add_records(union_records).build().unwrap();

        let base = base_model();
        let view = OverlayView::build(
            &base,
            &deltas(vec![(7, KeyphraseRecord::new("audeze maxwell xbox edition", LeafId(7), 990, 10))]),
            5,
        );
        let req = InferRequest::new("audeze maxwell gaming headphones xbox edition", LeafId(7))
            .k(10)
            .resolve_texts(true);
        let mut scratch = Scratch::new();
        let via_overlay = view.infer_request(&req, &mut scratch).unwrap();
        let direct = Engine::from_model(rebuilt).infer(&req);
        assert_eq!(via_overlay.texts, direct.texts);
        assert_eq!(via_overlay.outcome, direct.outcome);
    }

    #[test]
    fn with_leaf_rebuilds_one_leaf_and_shares_the_rest() {
        let base = base_model();
        let pending = deltas(vec![(9, KeyphraseRecord::new("ski goggles", LeafId(9), 80, 9))]);
        let view = OverlayView::build(&base, &pending, 1);
        let next = view.with_leaf(
            &base,
            LeafId(10),
            &[KeyphraseRecord::new("snow helmet", LeafId(10), 40, 4)],
            2,
        );
        assert_eq!(next.seq(), 2);
        assert!(next.covers(LeafId(9)) && next.covers(LeafId(10)));
        assert_eq!(next.num_leaves(), 2);
        // The untouched leaf is the same mini graph, not a copy.
        assert!(Arc::ptr_eq(&view.leaves[&LeafId(9)], &next.leaves[&LeafId(9)]));
        // A second upsert to leaf 10 shares its staged base part.
        let again = next.with_leaf(
            &base,
            LeafId(10),
            &[KeyphraseRecord::new("snow helmet kids", LeafId(10), 30, 3)],
            3,
        );
        assert!(Arc::ptr_eq(&next.leaves[&LeafId(10)].base, &again.leaves[&LeafId(10)].base));
        assert_eq!(again.leaf_stats()[1].delta_records, 2);
        // Draining a leaf removes it: the store rebuilds the view from
        // what is still pending.
        let drained = OverlayView::build(
            &base,
            &deltas(vec![(10, KeyphraseRecord::new("snow helmet", LeafId(10), 40, 4))]),
            4,
        );
        assert!(!drained.covers(LeafId(9)) && drained.covers(LeafId(10)));
    }

    #[test]
    fn published_view_is_unchanged_by_later_upserts_to_its_leaf() {
        let base = base_model();
        let leaf = LeafId(7);
        let first = Arc::new(OverlayView::empty().with_leaf(
            &base,
            leaf,
            &[KeyphraseRecord::new("audeze maxwell xbox edition", leaf, 990, 10)],
            1,
        ));
        let request =
            InferRequest::new("audeze maxwell gaming headphones xbox", leaf).k(10).resolve_texts(true);
        let mut scratch = Scratch::new();
        let before = first.infer_request(&request, &mut scratch).unwrap();

        // Three more upserts to the same leaf, each on top of the last
        // (sharing the staged base and extending a copy of the delta).
        let mut view = Arc::clone(&first);
        for (i, text) in ["audeze maxwell", "gaming headphones", "xbox headphones stand"]
            .into_iter()
            .enumerate()
        {
            let added = [KeyphraseRecord::new(text, leaf, 5_000, 1)];
            view = Arc::new(view.with_leaf(&base, leaf, &added, 2 + i as u64));
        }
        assert_eq!(first.infer_request(&request, &mut scratch).unwrap(), before);
        assert_eq!((first.seq(), first.num_records()), (1, 1));
        let after = view.infer_request(&request, &mut scratch).unwrap();
        assert_eq!(view.num_records(), 4);
        assert!(after.texts.iter().any(|t| t == "gaming headphones"), "{:?}", after.texts);
        assert_ne!(after, before);
    }

    #[test]
    fn empty_view_covers_nothing() {
        let view = OverlayView::empty();
        assert!(view.is_empty());
        assert_eq!(view.seq(), 0);
        assert_eq!(view.num_records(), 0);
        let mut scratch = Scratch::new();
        assert!(view.infer_request(&InferRequest::new("x", LeafId(1)), &mut scratch).is_none());
    }
}

/// Incremental ≡ from-scratch, by generated input: after every step of a
/// generated script of upserts, drains and rebases, every overlaid leaf
/// must serve exactly what the per-upsert rebuild this module replaced —
/// reconstruct base records → `canonicalize` → `LeafAssembly::build` →
/// per-label `base.keyphrase_id(text)` — produces, kept here as the
/// oracle.
#[cfg(test)]
mod overlay_incremental {
    use super::*;
    use crate::assembly::{canonicalize, LeafAssembly};
    use crate::builder::{GraphExBuilder, GraphExConfig};
    use proptest::prelude::*;

    /// One overlaid leaf as the parent of this change built it.
    struct Oracle {
        assembly: LeafAssembly,
        global_ids: Vec<KeyphraseId>,
    }

    impl Oracle {
        fn build(base: &GraphExModel, leaf: LeafId, delta: &[KeyphraseRecord]) -> Self {
            let mut records: Vec<KeyphraseRecord> = Vec::new();
            if let Some(graph) = base.leaf_graph(leaf) {
                for label in 0..graph.num_labels() {
                    let text = base.keyphrase_text(graph.keyphrase_id(label)).unwrap();
                    records.push(KeyphraseRecord::new(
                        text,
                        leaf,
                        graph.search_count(label),
                        graph.recall_count(label),
                    ));
                }
            }
            records.extend(delta.iter().cloned());
            canonicalize(&mut records);
            let assembly =
                LeafAssembly::build(&records, &mut AssemblyContext::new(base.stemming()));
            let mut next_synthetic = base.num_keyphrases() as u32;
            let global_ids = assembly
                .graph()
                .labels()
                .iter()
                .map(|&local| {
                    let text = assembly.keyphrases().resolve(local).unwrap();
                    base.keyphrase_id(text).unwrap_or_else(|| {
                        next_synthetic += 1;
                        next_synthetic - 1
                    })
                })
                .collect();
            Self { assembly, global_ids }
        }

        fn infer(
            &self,
            base: &GraphExModel,
            request: &InferRequest<'_>,
            scratch: &mut Scratch,
        ) -> InferResponse {
            let tokenizer = GraphExModel::make_tokenizer(base.stemming());
            let tokens = self.assembly.tokens();
            collect_title_tokens(&tokenizer, |word| tokens.get(word), request.title, scratch);
            let alignment = request.alignment.unwrap_or(base.alignment());
            let mut predictions =
                infer_on_graph(&self.assembly.graph(), alignment, &request.params(), scratch);
            let texts = predictions
                .iter()
                .map(|p| self.assembly.keyphrases().resolve(p.keyphrase).unwrap().to_string())
                .collect();
            for p in &mut predictions {
                p.keyphrase = self.global_ids[p.keyphrase as usize];
            }
            let outcome = if predictions.is_empty() { Outcome::Empty } else { Outcome::ExactLeaf };
            InferResponse { id: request.id, outcome, predictions, texts }
        }
    }

    /// Words every leaf may use; past them a word is private to its leaf.
    /// "İstanbul" lowercases to `i` + a combining dot, which a second
    /// normalization splits off: a base text that is not its own
    /// normalized form.
    const SHARED: [&str; 9] =
        ["red", "shoes", "case", "pro", "bags", "batteries", "glass", "İstanbul", "men's"];
    /// Word indices a base corpus draws from; upserts and titles draw
    /// from a wider range, so they bring words no base leaf has.
    const BASE_WORDS: usize = 14;
    const ALL_WORDS: usize = 18;

    fn word(leaf: u32, index: usize) -> String {
        SHARED.get(index).map_or_else(|| format!("w{leaf}x{index}"), |w| w.to_string())
    }

    /// (word indices, rendering style, search, recall): counts are small
    /// so that full ranking ties — decided by label order — are common.
    type Phrase = (Vec<usize>, u8, u32, u32);

    fn phrase(words: usize) -> impl Strategy<Value = Phrase> {
        (prop::collection::vec(0..words, 1..=3), 0u8..4, 1u32..5, 0u32..3)
    }

    /// The raw text of a phrase: as typed, shouting, hyphenated, or
    /// loosely spaced — four raw forms of one normalized text.
    fn render(leaf: u32, (words, style, ..): &Phrase) -> String {
        let words: Vec<String> = words.iter().map(|&i| word(leaf, i)).collect();
        match style {
            0 => words.join(" "),
            1 => words.join(" ").to_uppercase(),
            2 => format!("{}!", words.join("-")),
            _ => format!("  {} ", words.join("   ")),
        }
    }

    fn base_model(corpus: &[Vec<Phrase>]) -> GraphExModel {
        let mut records = vec![KeyphraseRecord::new("?!?", LeafId(100), 9, 1)];
        for (i, phrases) in corpus.iter().enumerate() {
            let leaf = 100 + i as u32;
            for p in phrases {
                records.push(KeyphraseRecord::new(render(leaf, p), LeafId(leaf), p.2, p.3));
            }
            // The first phrase again in another raw form: one normalized
            // text twice in the corpus.
            let (words, style, search, recall) = phrases[0].clone();
            let again = (words, (style + 1) % 4, search + 1, recall);
            records.push(KeyphraseRecord::new(render(leaf, &again), LeafId(leaf), again.2, again.3));
        }
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        GraphExBuilder::new(config).add_records(records).build().unwrap()
    }

    /// One upserted record, by kind (see the match arms).
    fn upsert(base: &GraphExModel, (kind, a, b, p): &(u8, usize, usize, Phrase)) -> KeyphraseRecord {
        let mut leaves: Vec<LeafId> = base.leaf_ids().collect();
        leaves.sort_unstable();
        let leaf = leaves[a % leaves.len()];
        let graph = base.leaf_graph(leaf).unwrap();
        let label = (b % graph.num_labels() as usize) as u32;
        let base_text = base.keyphrase_text(graph.keyphrase_id(label)).unwrap();
        let (text, leaf) = match kind {
            // An exact re-upsert of a base phrase: counts merge.
            0 => (base_text.to_string(), leaf),
            // A base phrase in another case and punctuation.
            1 => (format!("{}!", base_text.to_uppercase().replace(' ', "-")), leaf),
            // Only words the base has never seen.
            2 => (format!("fresh{a} novel{b}"), leaf),
            // A leaf the base has never seen.
            3 => (render(900, p), LeafId(900 + (a % 3) as u32)),
            // Nothing to match on.
            4 => ("?! ...".to_string(), leaf),
            // A new phrase on an existing leaf.
            _ => (render(leaf.0, p), leaf),
        };
        KeyphraseRecord::new(text, leaf, p.2, p.3)
    }

    fn by_leaf(pending: &[(u64, KeyphraseRecord)]) -> BTreeMap<LeafId, Vec<KeyphraseRecord>> {
        let mut map: BTreeMap<LeafId, Vec<KeyphraseRecord>> = BTreeMap::new();
        for (_, rec) in pending {
            map.entry(rec.leaf).or_default().push(rec.clone());
        }
        map
    }

    /// Every overlaid leaf of `view` against the oracle: the mini
    /// graph's arrays, both text sequences, the global ids, and answers.
    fn assert_view_matches_rebuild(
        view: &OverlayView,
        base: &GraphExModel,
        pending: &[(u64, KeyphraseRecord)],
        titles: &[Vec<usize>],
    ) {
        let pending = by_leaf(pending);
        assert_eq!(view.num_leaves(), pending.len());
        let mut scratch = Scratch::new();
        for (&leaf, delta) in &pending {
            let ov = &view.leaves[&leaf];
            let oracle = Oracle::build(base, leaf, delta);
            let (got, want) = (&ov.graph, oracle.assembly.graph());
            assert_eq!(got.csr_parts(), want.csr_parts(), "{leaf} csr");
            assert_eq!(got.label_lens(), want.label_lens(), "{leaf} label lengths");
            assert_eq!(got.searches(), want.searches(), "{leaf} search counts");
            assert_eq!(got.recalls(), want.recalls(), "{leaf} recall counts");
            assert_eq!(ov.global_ids, oracle.global_ids, "{leaf} global ids");
            let got_labels: Vec<&str> = ov
                .label_keyphrases
                .iter()
                .map(|&id| resolve(&ov.base.keyphrases, &ov.delta.keyphrases, id))
                .collect();
            let want_labels: Vec<&str> = want
                .labels()
                .iter()
                .map(|&id| oracle.assembly.keyphrases().resolve(id).unwrap())
                .collect();
            assert_eq!(got_labels, want_labels, "{leaf} label texts");
            let got_rows: Vec<&str> = got
                .row_tokens()
                .iter()
                .map(|&id| resolve(&ov.base.tokens, &ov.delta.tokens, id))
                .collect();
            let want_rows: Vec<&str> = want
                .row_tokens()
                .iter()
                .map(|&id| oracle.assembly.tokens().resolve(id).unwrap())
                .collect();
            assert_eq!(got_rows, want_rows, "{leaf} row tokens");
            assert_eq!(ov.delta.records.len(), delta.len());
            assert_eq!(ov.brand_new, base.leaf_graph(leaf).is_none());

            for title in titles {
                let title: Vec<String> = title.iter().map(|&i| word(leaf.0, i)).collect();
                let title = title.join(" ");
                for k in [2, 10] {
                    let request = InferRequest::new(&title, leaf).k(k).resolve_texts(true);
                    assert_eq!(
                        view.infer_request(&request, &mut scratch).unwrap(),
                        oracle.infer(base, &request, &mut scratch),
                        "{leaf} {title:?} k={k}"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn every_step_serves_what_a_rebuild_would(
            corpus in prop::collection::vec(prop::collection::vec(phrase(BASE_WORDS), 3..8), 3..=6),
            second in prop::collection::vec(prop::collection::vec(phrase(BASE_WORDS), 3..8), 3..=6),
            script in prop::collection::vec(
                (0u8..10, 0usize..1000, prop::collection::vec((0u8..8, 0usize..64, 0usize..64, phrase(ALL_WORDS)), 1..=4)),
                4..10,
            ),
            titles in prop::collection::vec(prop::collection::vec(0..ALL_WORDS, 2..6), 3..6),
        ) {
            let bases = [base_model(&corpus), base_model(&second)];
            let mut base = &bases[0];
            let mut view = OverlayView::empty();
            let mut pending: Vec<(u64, KeyphraseRecord)> = Vec::new();
            let mut seq = 0u64;
            for (step, at, batch) in &script {
                match step {
                    // A drain at an arbitrary earlier sequence, and a
                    // rebase onto the other base: at this level both are
                    // what `OverlayStore` does — `build` over what is
                    // still pending, against the base in force.
                    7 | 8 => {
                        let upto = *at as u64 % (seq + 1);
                        pending.retain(|(s, _)| *s > upto);
                        view = OverlayView::build(base, &by_leaf(&pending), seq);
                    }
                    9 => {
                        base = if std::ptr::eq(base, &bases[0]) { &bases[1] } else { &bases[0] };
                        view = OverlayView::build(base, &by_leaf(&pending), seq);
                    }
                    // An upsert batch of 1–4 records over one or more
                    // leaves, applied the way `OverlayStore::apply` does.
                    _ => {
                        let batch: Vec<KeyphraseRecord> =
                            batch.iter().map(|spec| upsert(base, spec)).collect();
                        let mut touched: Vec<LeafId> = batch.iter().map(|rec| rec.leaf).collect();
                        touched.dedup();
                        for rec in &batch {
                            seq += 1;
                            pending.push((seq, rec.clone()));
                        }
                        for (i, &leaf) in touched.iter().enumerate() {
                            if !touched[..i].contains(&leaf) {
                                let added = batch.iter().filter(|rec| rec.leaf == leaf);
                                view = view.with_leaf(base, leaf, added, seq);
                            }
                        }
                    }
                }
                prop_assert_eq!(view.seq(), seq);
                assert_view_matches_rebuild(&view, base, &pending, &titles);
            }
        }
    }
}
