//! Inference phase: Algorithm 1 (Enumeration) + Ranking (paper Sec. III-E).
//!
//! The enumeration step maps every title token through the leaf's bipartite
//! graph and counts, per candidate keyphrase, how many *distinct* title
//! words it shares (`DC(·)` in the paper). The naive formulation collects a
//! list and de-duplicates it — poly-log cost; Sec. III-F replaces that with
//! **count arrays**, implemented here as a generation-stamped array so that
//! clearing between calls is O(1). Every buffer lives in [`Scratch`]: at
//! steady state a call allocates the returned `Vec<Prediction>` and
//! nothing else.

use crate::alignment::Alignment;
use crate::leaf_graph::LeafGraph;
use crate::ranking::{count_group_threshold, rank_top, RankKey};
use crate::trace::Stage;
use crate::types::KeyphraseId;
use graphex_textkit::{TokenBuf, TokenId, Tokenizer};

/// One recommended keyphrase with the attributes the ranking used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Global keyphrase id; resolve text via
    /// [`crate::GraphExModel::keyphrase_text`].
    pub keyphrase: KeyphraseId,
    /// `c = |T ∩ l|`: distinct label words present in the title.
    pub matched: u16,
    /// `|l|`: distinct words in the label.
    pub label_len: u16,
    /// `S(l)`: search count.
    pub search_count: u32,
    /// `R(l)`: recall count.
    pub recall_count: u32,
    /// `|T|`: distinct *known* words in the title (needed by JAC scoring).
    pub title_len: u16,
}

impl Prediction {
    /// The alignment score as a float, for reporting.
    pub fn score(&self, alignment: Alignment) -> f64 {
        alignment.score(u32::from(self.matched), u32::from(self.label_len), u32::from(self.title_len))
    }

    /// LTA score (the model default), for convenience.
    pub fn lta(&self) -> f64 {
        self.score(Alignment::Lta)
    }
}

/// Inference knobs.
#[derive(Debug, Clone, Copy)]
pub struct InferenceParams {
    /// Requested number of predictions (the paper generates 10–20 in
    /// production; evaluation caps at 40).
    pub k: usize,
    /// Alignment used by ranking; `None` uses the model default.
    pub alignment: Option<Alignment>,
    /// If true, everything in the threshold count-group is returned even
    /// when that exceeds `k` (the paper's pruning semantics). If false
    /// (default), the ranked list is truncated to exactly `k`.
    pub keep_threshold_group: bool,
}

impl InferenceParams {
    pub fn with_k(k: usize) -> Self {
        Self { k, alignment: None, keep_threshold_group: false }
    }
}

impl Default for InferenceParams {
    fn default() -> Self {
        Self::with_k(20)
    }
}

/// Bits of a count-array cell that hold the count; the generation stamp
/// sits above them.
const COUNT_BITS: u32 = 16;
const COUNT_MASK: u32 = (1 << COUNT_BITS) - 1;

/// Reusable inference workspace.
///
/// Holds the generation-stamped count array, the touched-label list, the
/// token-walk strings and the candidate and ranking-key vectors. One
/// `Scratch` per thread; create with [`Scratch::new`] and pass to every
/// [`crate::GraphExModel::infer`] call. The buffers grow to the largest
/// graph and title seen and are then reused: nothing here allocates at
/// steady state.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The count array. `cells[l] >> COUNT_BITS == generation` ⇔ the low
    /// bits are label `l`'s count for this call; any smaller stamp is a
    /// stale cell, read as zero.
    cells: Vec<u32>,
    generation: u16,
    /// Local label ids touched this call, in `touched[..n]`; one slot
    /// longer than the count array so the edge loop can write before it
    /// knows whether the label is new.
    touched: Vec<u32>,
    /// Normalized title and stem buffer of the token walk.
    walk: TokenBuf,
    /// Distinct known title token ids.
    title_tokens: Vec<TokenId>,
    /// Histogram of candidate counts (index = count).
    group_sizes: Vec<u32>,
    /// Candidate predictions being assembled.
    candidates: Vec<Prediction>,
    /// Their ranking keys.
    keys: Vec<RankKey>,
    /// Pooled span buffer: armed per request when tracing is on, disabled
    /// (one branch per stage hook) otherwise.
    pub(crate) trace: crate::trace::StageTrace,
}

impl Scratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the count array covers `num_labels` labels.
    fn ensure_labels(&mut self, num_labels: usize) {
        if self.cells.len() < num_labels {
            self.cells.resize(num_labels, 0);
            self.touched.resize(num_labels + 1, 0);
        }
    }

    /// Starts a new call: O(1) logical clear of the count array. Returns
    /// the value every cell of this call is at least: the new stamp with
    /// a zero count.
    fn next_generation(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: physically reset so stale cells can't alias.
            self.cells.fill(0);
            self.generation = 1;
        }
        self.candidates.clear();
        u32::from(self.generation) << COUNT_BITS
    }
}

/// Tokenizes `title` and produces the distinct known-token list in
/// `scratch.title_tokens`; `lookup` is the vocabulary (the model's, or an
/// overlaid leaf's tables). Unknown words (not in the vocabulary) are
/// dropped — the permutation problem only ranges over words that appear in
/// some keyphrase (Sec. III-A: "if a title token is not part of any
/// keyphrase then it is ignored").
pub(crate) fn collect_title_tokens(
    tokenizer: &Tokenizer,
    lookup: impl Fn(&str) -> Option<TokenId>,
    title: &str,
    scratch: &mut Scratch,
) {
    let Scratch { walk, title_tokens, .. } = scratch;
    title_tokens.clear();
    tokenizer.for_each_token(title, walk, |token| {
        if let Some(id) = lookup(token) {
            title_tokens.push(id);
        }
    });
    title_tokens.sort_unstable();
    title_tokens.dedup();
    // A label's count is at most |T|: this keeps it inside a cell's count
    // bits, and `Prediction::title_len` exact.
    title_tokens.truncate(COUNT_MASK as usize);
}

/// Runs enumeration + ranking against one leaf graph. Returns predictions
/// sorted in ranking order (best first).
///
/// This is the engine behind [`crate::GraphExModel::infer`]; it is exposed
/// at crate level so benches can drive a graph directly.
pub(crate) fn infer_on_graph(
    graph: &LeafGraph,
    alignment: Alignment,
    params: &InferenceParams,
    scratch: &mut Scratch,
) -> Vec<Prediction> {
    scratch.ensure_labels(graph.num_labels() as usize);
    let fresh = scratch.next_generation();
    let Scratch { cells, touched, title_tokens, group_sizes, candidates, keys, trace, .. } = scratch;
    let traversal_start = trace.clock();

    // --- Enumeration (Algorithm 1 lines 3–6, count-array variant) ---
    // About half the edges of a title reach a label for the first time, so
    // "is this label new" is a coin flip to a branch predictor: the label
    // is written to the list either way and the list grows by the answer.
    let mut n = 0;
    for &tok in title_tokens.iter() {
        for &label in graph.labels_of_token(tok) {
            let cell = &mut cells[label as usize];
            touched[n] = label;
            n += usize::from(*cell < fresh);
            // Distinct title tokens guaranteed by collect_title_tokens, and
            // CSR edges are deduplicated, so each (word, label) pair
            // increments at most once: the count is |T ∩ l|.
            *cell = (*cell).max(fresh) + 1;
        }
    }
    let touched = &touched[..n];
    if touched.is_empty() {
        trace.record(Stage::Traversal, traversal_start);
        return Vec::new();
    }
    let title_len = title_tokens.len() as u32;

    // --- Count-group pruning (Sec. III-F) ---
    // No count exceeds |T|, so the histogram needs no pass to find its size.
    group_sizes.clear();
    group_sizes.resize(title_tokens.len() + 1, 0);
    for &l in touched {
        group_sizes[(cells[l as usize] & COUNT_MASK) as usize] += 1;
    }
    // `k = 0` prunes as `k = 1` does, down to the top group — what is then
    // returned of it is the ranking step's business.
    let threshold = count_group_threshold(group_sizes, params.k.max(1));

    // --- Tuple generation (Algorithm 1 lines 7–8) for surviving labels ---
    for &l in touched {
        let c = cells[l as usize] & COUNT_MASK;
        if c < threshold {
            continue;
        }
        candidates.push(Prediction {
            keyphrase: graph.keyphrase_id(l),
            matched: c as u16,
            label_len: graph.label_len(l),
            search_count: graph.search_count(l),
            recall_count: graph.recall_count(l),
            title_len: title_len as u16,
        });
    }

    // --- Ranking (Sec. III-E2): select the k that are returned, sort those ---
    trace.record(Stage::Traversal, traversal_start);
    let ranking_start = trace.clock();
    let take = if params.keep_threshold_group { candidates.len() } else { params.k };
    let out = rank_top(candidates, alignment, title_len, take, keys);
    trace.record(Stage::Ranking, ranking_start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf_graph::LeafGraph;

    /// Figure 3 graph with token ids equal to row index.
    fn figure3() -> LeafGraph {
        LeafGraph::new(
            vec![0, 1, 2, 3, 4, 5, 6],
            vec![
                (0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (2, 2), (4, 2),
                (5, 3), (2, 3), (4, 3), (6, 4), (5, 4), (2, 4),
            ],
            vec![10, 11, 12, 13, 14],
            vec![2, 2, 3, 3, 3],
            vec![900, 450, 800, 650, 300],
            vec![120, 300, 700, 800, 900],
        )
    }

    fn run(graph: &LeafGraph, tokens: &[u32], params: InferenceParams) -> Vec<Prediction> {
        let mut scratch = Scratch::new();
        scratch.title_tokens = tokens.to_vec();
        infer_on_graph(graph, Alignment::Lta, &params, &mut scratch)
    }

    #[test]
    fn figure3_counts_match_paper() {
        // Title "audeze maxwell gaming headphones for xbox" → tokens
        // {0,1,3,2,4} ("for" unknown). Paper: duplication counts 2,2,3,2,1.
        let g = figure3();
        let preds = run(&g, &[0, 1, 2, 3, 4], InferenceParams { k: 10, alignment: None, keep_threshold_group: true });
        let by_kp: std::collections::HashMap<u32, u16> = preds.iter().map(|p| (p.keyphrase, p.matched)).collect();
        assert_eq!(by_kp[&10], 2);
        assert_eq!(by_kp[&11], 2);
        assert_eq!(by_kp[&12], 3);
        assert_eq!(by_kp[&13], 2);
        assert_eq!(by_kp[&14], 1);
    }

    #[test]
    fn ranking_puts_full_match_first() {
        let g = figure3();
        let preds = run(&g, &[0, 1, 2, 3, 4], InferenceParams::with_k(5));
        // "gaming headphones xbox" fully matched: LTA 3/1 = 3.0 — rank 1.
        assert_eq!(preds[0].keyphrase, 12);
        // then "audeze maxwell" (2/1), "audeze headphones" (2/1, lower S)
        assert_eq!(preds[1].keyphrase, 10);
        assert_eq!(preds[2].keyphrase, 11);
    }

    #[test]
    fn k_truncates_but_threshold_group_can_exceed() {
        let g = figure3();
        let strict = run(&g, &[0, 1, 2, 3, 4], InferenceParams::with_k(2));
        assert_eq!(strict.len(), 2);
        let grouped = run(
            &g,
            &[0, 1, 2, 3, 4],
            InferenceParams { k: 2, alignment: None, keep_threshold_group: true },
        );
        // k=2 → threshold count = 2 (group sizes: c=3→1, c=2→3) → the whole
        // c≥2 set (4 labels) is kept.
        assert_eq!(grouped.len(), 4);
    }

    #[test]
    fn k_zero_returns_nothing_unless_the_threshold_group_is_kept() {
        let g = figure3();
        assert!(run(&g, &[0, 1, 2, 3, 4], InferenceParams::with_k(0)).is_empty());
        // Asked to keep the threshold group, `k = 0` keeps the top one: the
        // single label matching three title words.
        let grouped = run(
            &g,
            &[0, 1, 2, 3, 4],
            InferenceParams { k: 0, alignment: None, keep_threshold_group: true },
        );
        assert_eq!(grouped.iter().map(|p| p.keyphrase).collect::<Vec<_>>(), [12]);
    }

    #[test]
    fn no_known_tokens_yields_empty() {
        let g = figure3();
        assert!(run(&g, &[], InferenceParams::default()).is_empty());
        assert!(run(&g, &[999], InferenceParams::default()).is_empty());
    }

    #[test]
    fn scratch_reuse_is_clean_across_calls() {
        let g = figure3();
        let mut scratch = Scratch::new();
        scratch.title_tokens = vec![0, 1]; // audeze maxwell
        let first = infer_on_graph(&g, Alignment::Lta, &InferenceParams::with_k(10), &mut scratch);
        scratch.title_tokens = vec![6]; // bluetooth
        let second = infer_on_graph(&g, Alignment::Lta, &InferenceParams::with_k(10), &mut scratch);
        // Second call must not inherit counts from the first.
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].keyphrase, 14);
        assert_eq!(second[0].matched, 1);
        assert!(first.len() >= 2);
    }

    #[test]
    fn generation_wrap_resets_stamps() {
        let g = figure3();
        let mut scratch = Scratch::new();
        scratch.generation = u16::MAX; // force wrap on next call
        scratch.title_tokens = vec![0];
        let preds = infer_on_graph(&g, Alignment::Lta, &InferenceParams::with_k(10), &mut scratch);
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|p| p.matched == 1));
    }

    #[test]
    fn prediction_score_accessors() {
        let p = Prediction { keyphrase: 1, matched: 2, label_len: 3, search_count: 9, recall_count: 1, title_len: 6 };
        assert!((p.lta() - 1.0).abs() < 1e-12);
        assert!((p.score(Alignment::Wmr) - 2.0 / 3.0).abs() < 1e-12);
    }
}
