//! Property-based tests for the GraphEx core.
//!
//! These pin the algorithmic invariants the paper's complexity and
//! correctness arguments rest on, against randomly generated keyphrase
//! universes.

use graphex_core::curation::Curator;
use graphex_core::ranking::{rank_top, RankKey};
use graphex_core::{
    Alignment, CurationConfig, CurationStats, GraphExBuilder, GraphExConfig, InferenceParams,
    KeyphraseRecord, LeafId, Prediction, Scratch,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// A small random vocabulary to force word overlap between phrases.
fn word() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "audeze",
        "maxwell",
        "gaming",
        "headphones",
        "xbox",
        "wireless",
        "bluetooth",
        "case",
        "charger",
        "usb",
        "cable",
        "pro",
        "max",
        "mini",
        "leather",
        "red",
    ])
    .prop_map(str::to_string)
}

fn phrase() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 1..5).prop_map(|ws| ws.join(" "))
}

fn records() -> impl Strategy<Value = Vec<KeyphraseRecord>> {
    prop::collection::vec(
        (phrase(), 0u32..3, 1u32..1000, 1u32..1000)
            .prop_map(|(text, leaf, s, r)| KeyphraseRecord::new(text, LeafId(leaf), s, r)),
        1..40,
    )
}

fn no_curation() -> GraphExConfig {
    let mut c = GraphExConfig::default();
    c.curation.min_search_count = 0;
    c
}

/// Naive reference for the enumeration step: distinct-token set
/// intersection per (normalized, stemmed) keyphrase.
fn naive_counts(records: &[KeyphraseRecord], leaf: LeafId, title: &str) -> BTreeMap<String, usize> {
    let tok = graphex_textkit::TokenizerBuilder::new()
        .stemming(true)
        .build();
    let norm = graphex_textkit::Tokenizer::default();
    let title_tokens: BTreeSet<String> = tok.tokenize(title).collect();
    let mut out = BTreeMap::new();
    for rec in records.iter().filter(|r| r.leaf == leaf) {
        let normalized = norm.tokenize(&rec.text).collect::<Vec<_>>().join(" ");
        if normalized.is_empty() {
            continue;
        }
        let kp_tokens: BTreeSet<String> = tok.tokenize(&rec.text).collect();
        let c = kp_tokens.intersection(&title_tokens).count();
        if c > 0 {
            // duplicates merge to one label; counts identical by construction
            out.insert(normalized, c);
        }
    }
    out
}

/// The ranking order as the comparator that sorted every candidate before
/// ranking went through [`RankKey`]: exact cross-multiplied score, then the
/// three tie-breaks. Kept here as the reference the key is checked against.
fn reference_order(
    a: &Prediction,
    b: &Prediction,
    alignment: Alignment,
    title_len: u32,
) -> Ordering {
    alignment
        .cmp_scores(
            (u32::from(b.matched), u32::from(b.label_len)),
            (u32::from(a.matched), u32::from(a.label_len)),
            title_len,
        )
        .then_with(|| b.search_count.cmp(&a.search_count))
        .then_with(|| a.recall_count.cmp(&b.recall_count))
        .then_with(|| a.keyphrase.cmp(&b.keyphrase))
}

proptest! {
    /// Select-then-sort returns, element for element, the first `k` of the
    /// reference full sort — on candidate sets built to tie and to nearly
    /// tie: a handful of `(label_len, matched)` pairs that are one step
    /// apart anywhere in the `u16` range (`65534/65535` against
    /// `65533/65534` differ in the tenth digit), three search and three
    /// recall values, ids in an order unrelated to position. And the key's
    /// score orders every pair as the exact comparison does.
    #[test]
    fn rank_top_equals_reference_full_sort(
        base in (2u16..u16::MAX, any::<u16>()),
        steps in prop::collection::vec((-1i32..=1, -1i32..=1), 0..4),
        picks in prop::collection::vec((0usize..4, 0usize..3, 0usize..3), 0..48),
        title_len in 1u16..=512,
    ) {
        const COUNTS: [u32; 3] = [0, 7, u32::MAX];
        // Half the time the base pair is a nearly complete match, where
        // neighbouring fractions are closest.
        let (label_len, raw) = base;
        let matched = if raw & 1 == 0 { label_len - (raw >> 1) % 4 } else { raw % (label_len + 1) };
        let mut pairs = vec![(label_len, matched)];
        for (dl, dc) in steps {
            let label_len = (i32::from(label_len) + dl) as u16;
            let matched = (i32::from(matched) + dc).clamp(0, i32::from(label_len)) as u16;
            pairs.push((label_len, matched));
        }
        let candidates: Vec<Prediction> = picks
            .iter()
            .enumerate()
            .map(|(i, &(pair, search, recall))| {
                let (label_len, matched) = pairs[pair % pairs.len()];
                Prediction {
                    // 31 is a unit modulo 61: distinct ids, shuffled.
                    keyphrase: (i as u32 * 31 + 17) % 61,
                    matched,
                    label_len,
                    search_count: COUNTS[search],
                    recall_count: COUNTS[recall],
                    title_len,
                }
            })
            .collect();
        let len = candidates.len();
        let title_len = u32::from(title_len);
        let mut keys = Vec::new();
        for alignment in Alignment::ALL {
            let mut reference = candidates.clone();
            reference.sort_by(|a, b| reference_order(a, b, alignment, title_len));
            for k in [0, 1, len.saturating_sub(1), len, len + 1] {
                for keep_threshold_group in [false, true] {
                    // What the kernel asks of the routine.
                    let take = if keep_threshold_group { len } else { k };
                    let ranked = rank_top(&candidates, alignment, title_len, take, &mut keys);
                    prop_assert_eq!(&ranked[..], &reference[..take.min(len)], "{} k={}", alignment, k);
                }
            }
            let score_only = |p: &Prediction| {
                let bare = Prediction { keyphrase: 0, search_count: 0, recall_count: 0, ..*p };
                RankKey::new(&bare, 0, alignment, title_len)
            };
            for a in &candidates {
                for b in &candidates {
                    let exact = alignment.cmp_scores(
                        (u32::from(b.matched), u32::from(b.label_len)),
                        (u32::from(a.matched), u32::from(a.label_len)),
                        title_len,
                    );
                    prop_assert_eq!(score_only(a).cmp(&score_only(b)), exact, "{}: {:?} vs {:?}", alignment, a, b);
                }
            }
        }
    }

    /// Enumeration counts (`c = |T ∩ l|`) match the naive set-intersection
    /// definition for every candidate, on every leaf.
    #[test]
    fn enumeration_matches_naive_dc(recs in records(), title_words in prop::collection::vec(word(), 1..8)) {
        let title = title_words.join(" ");
        let model = GraphExBuilder::new(no_curation()).add_records(recs.clone()).build().unwrap();
        for leaf_num in 0u32..3 {
            let leaf = LeafId(leaf_num);
            if model.leaf_graph(leaf).is_none() { continue; }
            let mut scratch = Scratch::new();
            let params = InferenceParams { k: usize::MAX, alignment: None, keep_threshold_group: true };
            let preds = model.infer(&title, leaf, &params, &mut scratch).unwrap();
            let got: BTreeMap<String, usize> = preds
                .iter()
                .map(|p| (model.keyphrase_text(p.keyphrase).unwrap().to_string(), p.matched as usize))
                .collect();
            let want = naive_counts(&recs, leaf, &title);
            prop_assert_eq!(got, want, "leaf {}", leaf_num);
        }
    }

    /// Pruning + ranking never returns more than k when truncation is on,
    /// and never returns fewer than min(k, #candidates).
    #[test]
    fn k_contract(recs in records(), title_words in prop::collection::vec(word(), 1..8), k in 1usize..10) {
        let title = title_words.join(" ");
        let model = GraphExBuilder::new(no_curation()).add_records(recs).build().unwrap();
        let mut scratch = Scratch::new();
        let all_params = InferenceParams { k: usize::MAX, alignment: None, keep_threshold_group: true };
        for leaf in model.leaf_ids().collect::<Vec<_>>() {
            let total = model.infer(&title, leaf, &all_params, &mut scratch).unwrap().len();
            let preds = model.infer(&title, leaf, &InferenceParams::with_k(k), &mut scratch).unwrap();
            prop_assert!(preds.len() <= k);
            prop_assert_eq!(preds.len(), k.min(total));
        }
    }

    /// With `keep_threshold_group`, the result set is count-downward-closed:
    /// if a label with count c is returned, every candidate with count > c
    /// is returned too (the paper's group semantics).
    #[test]
    fn threshold_group_is_downward_closed(recs in records(), title_words in prop::collection::vec(word(), 1..8), k in 1usize..6) {
        let title = title_words.join(" ");
        let model = GraphExBuilder::new(no_curation()).add_records(recs).build().unwrap();
        let mut scratch = Scratch::new();
        let grouped = InferenceParams { k, alignment: None, keep_threshold_group: true };
        let all = InferenceParams { k: usize::MAX, alignment: None, keep_threshold_group: true };
        for leaf in model.leaf_ids().collect::<Vec<_>>() {
            let returned = model.infer(&title, leaf, &grouped, &mut scratch).unwrap();
            let everything = model.infer(&title, leaf, &all, &mut scratch).unwrap();
            let Some(min_returned) = returned.iter().map(|p| p.matched).min() else { continue };
            let missing_higher = everything.iter().any(|p| {
                p.matched > min_returned && !returned.iter().any(|q| q.keyphrase == p.keyphrase)
            });
            prop_assert!(!missing_higher, "dropped a higher-count group member");
        }
    }

    /// Ranking is sorted: alignment scores are non-increasing, and within
    /// equal scores search counts are non-increasing.
    #[test]
    fn ranking_is_sorted(recs in records(), title_words in prop::collection::vec(word(), 1..8)) {
        let title = title_words.join(" ");
        let model = GraphExBuilder::new(no_curation()).add_records(recs).build().unwrap();
        let mut scratch = Scratch::new();
        for leaf in model.leaf_ids().collect::<Vec<_>>() {
            for alignment in Alignment::ALL {
                let params = InferenceParams { k: 40, alignment: Some(alignment), keep_threshold_group: false };
                let preds = model.infer(&title, leaf, &params, &mut scratch).unwrap();
                for w in preds.windows(2) {
                    let s0 = w[0].score(alignment);
                    let s1 = w[1].score(alignment);
                    prop_assert!(s0 >= s1 - 1e-12, "{alignment}: {s0} < {s1}");
                    if (s0 - s1).abs() < 1e-12 {
                        prop_assert!(w[0].search_count >= w[1].search_count);
                    }
                }
            }
        }
    }

    /// Serialization round-trips: the restored model produces identical
    /// predictions on arbitrary titles.
    #[test]
    fn serialize_roundtrip(recs in records(), title_words in prop::collection::vec(word(), 1..8)) {
        let title = title_words.join(" ");
        let model = GraphExBuilder::new(no_curation()).add_records(recs).build().unwrap();
        let bytes = graphex_core::serialize::to_bytes(&model);
        let restored = graphex_core::serialize::from_bytes(&bytes).unwrap();
        let mut scratch = Scratch::new();
        for leaf in model.leaf_ids().collect::<Vec<_>>() {
            let req = graphex_core::InferRequest::new(&title, leaf).k(20).resolve_texts(true);
            let a = model.infer_request(&req, &mut scratch);
            let b = restored.infer_request(&req, &mut scratch);
            prop_assert_eq!(a.outcome, b.outcome);
            prop_assert_eq!(a.texts, b.texts);
        }
    }

    /// Scratch reuse across many random calls never leaks state: a fresh
    /// scratch gives the same answer as a heavily reused one.
    #[test]
    fn scratch_reuse_equivalence(recs in records(), titles in prop::collection::vec(prop::collection::vec(word(), 1..8), 1..10)) {
        let model = GraphExBuilder::new(no_curation()).add_records(recs).build().unwrap();
        let leaves: Vec<LeafId> = model.leaf_ids().collect();
        let mut reused = Scratch::new();
        let params = InferenceParams::with_k(15);
        for words in &titles {
            let title = words.join(" ");
            for &leaf in &leaves {
                let mut fresh = Scratch::new();
                let a = model.infer(&title, leaf, &params, &mut reused).unwrap();
                let b = model.infer(&title, leaf, &params, &mut fresh).unwrap();
                prop_assert_eq!(a, b);
            }
        }
    }

    /// LTA is strictly monotone in c for fixed |l| and strictly decreasing
    /// in |l| for fixed c (the "risk" penalty).
    #[test]
    fn lta_monotonicity(c in 1u32..20, l in 1u32..20) {
        prop_assume!(c <= l);
        let lta = Alignment::Lta;
        if c < l {
            prop_assert!(lta.score(c + 1, l, 30) > lta.score(c, l, 30));
        }
        prop_assert!(lta.score(c, l + 1, 30) < lta.score(c, l, 30));
    }
}

// ---- derived meta-fallback ≡ the record-based one -----------------------

use graphex_core::assembly::{
    assemble_model, canonicalize, leaf_runs, AssemblyContext, LeafAssembly, ModelAssembler,
};
use graphex_core::{serialize, GraphExModel};

/// The meta-fallback as it was built before it was derived from the
/// merged leaves: a second assembly over the whole corpus's records,
/// installed with `set_fallback`. Kept alive only as this reference.
fn record_based(config: &GraphExConfig, canonical: &[KeyphraseRecord]) -> GraphExModel {
    let mut ctx = AssemblyContext::new(config.stemming);
    let leaves: Vec<_> = leaf_runs(canonical)
        .map(|(leaf, run)| (leaf, LeafAssembly::build(run, &mut ctx)))
        .collect();
    let mut assembler = ModelAssembler::merge(config, leaves);
    if config.build_meta_fallback {
        assembler.set_fallback(LeafAssembly::build(canonical, &mut ctx));
    }
    assembler.finish()
}

/// The derived path as a delta build drives it: every other leaf borrowed
/// from `base` (views into a loaded snapshot), the rest built fresh.
fn derived_over_borrowed_leaves(
    config: &GraphExConfig,
    canonical: &[KeyphraseRecord],
    base: &GraphExModel,
) -> GraphExModel {
    let mut ctx = AssemblyContext::new(config.stemming);
    let leaves = leaf_runs(canonical).enumerate().map(|(nth, (leaf, run))| {
        let assembly = match nth % 2 {
            0 => LeafAssembly::from_model(base, leaf).expect("the base has every leaf"),
            _ => LeafAssembly::build(run, &mut ctx),
        };
        (leaf, assembly)
    });
    let mut assembler = ModelAssembler::merge(config, leaves);
    if config.build_meta_fallback {
        assembler.derive_fallback();
    }
    assembler.finish()
}

/// Byte equality of the sequential builder (derived fallback) and of a
/// half-borrowed merge against the record-based reference, under every
/// configuration that reaches assembly.
fn assert_derived_equals_record_based(mut records: Vec<KeyphraseRecord>) {
    canonicalize(&mut records);
    for (stemming, build_meta_fallback) in [(true, true), (false, true), (true, false)] {
        let config = GraphExConfig {
            stemming,
            build_meta_fallback,
            ..no_curation()
        };
        let want = serialize::to_bytes(&record_based(&config, &records));
        let what = format!("stemming {stemming}, fallback {build_meta_fallback}: {records:?}");
        assert_eq!(
            serialize::to_bytes(&assemble_model(&config, &records)),
            want,
            "built, {what}"
        );
        let base = want.parse().expect("reference snapshot loads");
        let mixed = derived_over_borrowed_leaves(&config, &records, &base);
        assert_eq!(serialize::to_bytes(&mixed), want, "half borrowed, {what}");
    }
}

/// Every shape the derivation's argument leans on, spelled out — the
/// generated corpora below meet them only by chance.
#[test]
fn derived_fallback_equals_record_based_on_the_named_cases() {
    let rec = |text: &str, leaf, s, r| KeyphraseRecord::new(text, LeafId(leaf), s, r);
    let twelve = "one two three four five six seven eight nine ten eleven twelve";
    assert_derived_equals_record_based(vec![
        // One normalized text in five leaves: search sums, recall maxes.
        rec("usb c charger", 1, 10, 5),
        rec("USB-C charger", 2, 20, 50),
        rec("usb c  charger", 3, 30, 7),
        rec("Usb C Charger!", 4, 40, 1),
        rec("usb c charger", 5, 50, 2),
        // Texts that collide after normalization inside one leaf.
        rec("Phone Case", 2, 3, 9),
        rec("phone-case", 2, 4, 8),
        // Search counts whose sum passes u32::MAX, within and across leaves.
        rec("red boxes", 1, u32::MAX - 1, 1),
        rec("red  boxes", 1, 7, 2),
        rec("red boxes", 3, u32::MAX / 2 + 9, 3),
        // Punctuation-only texts, alone in a leaf and beside real ones.
        rec("!!!", 2, 500, 1),
        rec("-- ??", 6, 1, 1),
        // Stems that collide: one token, a two-word label.
        rec("boxes box", 3, 11, 4),
        rec("box", 4, 12, 4),
        // A token first seen in a later leaf, in a label whose other
        // token is old; and a label sorting before its leaf's first.
        rec("zebra charger", 5, 13, 6),
        rec("apple zebra", 5, 14, 6),
        rec("zebra", 1, 15, 6),
        // Single-token and twelve-token labels, the long one twice.
        rec("case", 1, 16, 1),
        rec(twelve, 2, 17, 2),
        rec(twelve, 4, 18, 3),
    ]);
}

/// Texts over a pool small enough that labels, tokens and stems collide
/// within and across leaves; `copies` lands one text in up to five leaves.
fn colliding_records() -> impl Strategy<Value = Vec<KeyphraseRecord>> {
    const POOL: [&str; 14] = [
        "box", "boxes", "case", "cases", "charger", "usb", "c", "red", "zebra", "apple", "running",
        "run", "12v", "é",
    ];
    const SEPARATORS: [&str; 4] = [" ", "-", "  ", ", "];
    const SEARCHES: [u32; 4] = [0, 7, u32::MAX / 2 + 1, u32::MAX - 3];
    let record = (
        prop::collection::vec(0usize..POOL.len(), 0..13),
        (0usize..SEPARATORS.len(), any::<bool>()),
        (0u32..5, 1u32..6),
        (0usize..SEARCHES.len(), 0u32..50, 0u32..1000),
    );
    prop::collection::vec(record, 1..25).prop_map(|drawn| {
        let mut out = Vec::new();
        for (words, (separator, shout), (leaf, copies), (base, extra, recall)) in drawn {
            let words: Vec<&str> = words.into_iter().map(|w| POOL[w]).collect();
            let mut text = words.join(SEPARATORS[separator]);
            if words.is_empty() {
                text = "?!".into(); // punctuation only
            } else if shout {
                text = text.to_uppercase();
            }
            for copy in 0..copies {
                let search = SEARCHES[base].saturating_add(extra + copy);
                out.push(KeyphraseRecord::new(
                    text.clone(),
                    LeafId((leaf + copy) % 5),
                    search,
                    recall + copy,
                ));
            }
        }
        out
    })
}

proptest! {
    #[test]
    fn derived_fallback_equals_record_based(records in colliding_records()) {
        assert_derived_equals_record_based(records);
    }
}

/// Curation spelled out over the map the `Curator` used to keep — one
/// owned `(leaf, text)` key per record — with the cap applied leaf by
/// leaf.
fn reference_curate(
    records: &[KeyphraseRecord],
    config: &CurationConfig,
) -> (Vec<KeyphraseRecord>, CurationStats) {
    let mut stats = CurationStats {
        input: records.len(),
        ..CurationStats::default()
    };
    let mut index: std::collections::HashMap<(u32, String), usize> =
        std::collections::HashMap::new();
    let mut kept: Vec<KeyphraseRecord> = Vec::new();
    for rec in records {
        let tokens = rec.text.split_whitespace().count();
        if tokens < config.min_tokens || tokens > config.max_tokens {
            stats.dropped_token_bounds += 1;
        } else if rec.search_count < config.min_search_count {
            stats.dropped_low_search += 1;
        } else if let Some(&at) = index.get(&(rec.leaf.0, rec.text.clone())) {
            kept[at].search_count = kept[at].search_count.saturating_add(rec.search_count);
            kept[at].recall_count = kept[at].recall_count.max(rec.recall_count);
            stats.merged_duplicates += 1;
        } else {
            index.insert((rec.leaf.0, rec.text.clone()), kept.len());
            kept.push(rec.clone());
        }
    }
    if let Some(cap) = config.max_per_leaf {
        let mut by_leaf: BTreeMap<LeafId, Vec<KeyphraseRecord>> = BTreeMap::new();
        for rec in kept.drain(..) {
            by_leaf.entry(rec.leaf).or_default().push(rec);
        }
        for (_, mut leaf) in by_leaf {
            leaf.sort_by(|a, b| {
                b.search_count
                    .cmp(&a.search_count)
                    .then_with(|| a.text.cmp(&b.text))
            });
            stats.dropped_leaf_cap += leaf.len().saturating_sub(cap);
            leaf.truncate(cap);
            kept.extend(leaf);
        }
    }
    stats.kept = kept.len();
    (kept, stats)
}

proptest! {
    /// The `Curator`'s interned index keeps what the owned-key map kept:
    /// the same rows in the same order with the same merged counts, and
    /// the same stats — over streams whose few texts repeat within a
    /// leaf and across leaves, differ only in spacing, fall outside the
    /// token bounds, fall under the search threshold, and sum past
    /// `u32::MAX` — with and without a per-leaf cap.
    #[test]
    fn curator_equals_the_owned_key_map(
        stream in prop::collection::vec(
            (
                prop::sample::select(vec!["a", "b", "a b", "a  b", "b a", "a b c", "a b c d", "", " ", "é"]),
                0u32..4,
                prop::sample::select(vec![0u32, 1, 5, 5, 9, 100, u32::MAX - 3]),
                0u32..50,
            ),
            0..120,
        ),
        max_per_leaf in prop::sample::select(vec![None, Some(0usize), Some(1), Some(2), Some(5)]),
    ) {
        let records: Vec<KeyphraseRecord> = stream
            .iter()
            .map(|&(text, leaf, search, recall)| KeyphraseRecord::new(text, LeafId(leaf), search, recall))
            .collect();
        let config = CurationConfig { min_search_count: 1, min_tokens: 1, max_tokens: 3, max_per_leaf };
        let mut curator = Curator::new(config.clone());
        for rec in &records {
            curator.push(rec.clone());
        }
        let uncapped = reference_curate(&records, &CurationConfig { max_per_leaf: None, ..config.clone() }).0;
        prop_assert_eq!(curator.len(), uncapped.len());
        prop_assert_eq!(curator.finish(), reference_curate(&records, &config));
    }
}

// ---- one normalize walk ≡ the two-tokenizer derivation ------------------

use graphex_textkit::{TokenBuf, TokenizerBuilder};

/// What `AssemblyContext::analyze` computed before it walked a text once:
/// an unstemmed tokenizer's tokens joined into the label, then the
/// model's tokenizer run over the text again for the rows. Kept alive
/// only as this reference.
fn two_walks(stemming: bool, text: &str) -> Option<(String, Vec<String>)> {
    let tokenizer = TokenizerBuilder::new().stemming(stemming).build();
    let unstemmed = TokenizerBuilder::new().stemming(false).build();
    let mut walk = TokenBuf::default();
    let mut normalized = String::new();
    unstemmed.for_each_token(text, &mut walk, |word| {
        if !normalized.is_empty() {
            normalized.push(' ');
        }
        normalized.push_str(word);
    });
    if normalized.is_empty() {
        return None;
    }
    let mut stems = Vec::new();
    tokenizer.for_each_token(text, &mut walk, |word| stems.push(word.to_owned()));
    stems.sort_unstable();
    stems.dedup();
    Some((normalized, stems))
}

fn one_walk(ctx: &mut AssemblyContext, text: &str) -> Option<(String, Vec<String>)> {
    let (normalized, words) = ctx.analyze(text)?;
    Some((normalized.to_owned(), words.map(str::to_owned).collect()))
}

/// A `len`-byte word ending in `ending`.
fn word_of(len: usize, ending: &str) -> String {
    format!("{}{ending}", "q".repeat(len - ending.len()))
}

/// Texts over words that reach every branch the analysis has: mixed case,
/// digits, the stemmer's suffixes, `İ` (whose lowercase is two chars),
/// and 63–70-byte words either side of the 64-byte clip — some ending in
/// a suffix the clip cuts off — joined by punctuation runs; with no
/// words, a punctuation-only text.
fn analyzed_text() -> impl Strategy<Value = String> {
    let mut pool: Vec<String> = [
        "Berries",
        "glasses",
        "BOXES",
        "box",
        "men's",
        "sellers'",
        "PS5",
        "512GB",
        "x2",
        "İstanbul",
        "İ",
        "ies",
        "sses",
        "Straße",
        "a",
    ]
    .map(String::from)
    .to_vec();
    for len in 63..=70 {
        for ending in ["ies", "sses", "xes", "s"] {
            pool.push(word_of(len, ending));
        }
    }
    // Two-byte chars from an odd offset: byte 64 falls inside one, so the
    // clip backs off to 63; and one ending in "ies" the clip cuts.
    pool.push(format!("a{}", "é".repeat(33)));
    pool.push(format!("a{}ies", "é".repeat(31)));
    const SEPARATORS: [&str; 7] = [" ", "  ", "-", "!?", ", ", "'", "\t("];
    let piece = (
        prop::sample::select(pool),
        0usize..SEPARATORS.len(),
        any::<bool>(),
    );
    (prop::collection::vec(piece, 0..6), 0usize..SEPARATORS.len()).prop_map(|(pieces, lead)| {
        let mut text = SEPARATORS[lead].to_owned();
        for (word, separator, shout) in pieces {
            text.push_str(&if shout { word.to_uppercase() } else { word });
            text.push_str(SEPARATORS[separator]);
        }
        text
    })
}

proptest! {
    /// One walk yields exactly the label and distinct stems the two
    /// tokenizers did, with stemming on and off.
    #[test]
    fn analyze_in_one_walk_equals_two_walks(texts in prop::collection::vec(analyzed_text(), 1..8)) {
        for stemming in [true, false] {
            let mut ctx = AssemblyContext::new(stemming);
            for text in &texts {
                let (one, two) = (one_walk(&mut ctx, text), two_walks(stemming, text));
                prop_assert_eq!(one, two, "stemming {}: {:?}", stemming, text);
            }
        }
    }
}

/// The cases the generator reaches only by chance, spelled out.
#[test]
fn analyze_in_one_walk_on_the_named_cases() {
    let mut ctx = AssemblyContext::new(true);
    for text in [
        "",
        "?! -- ...",
        "'s",
        "İİ",
        "Berries BERRIES berry",
        "boxes-glasses, men's",
    ] {
        assert_eq!(one_walk(&mut ctx, text), two_walks(true, text), "{text:?}");
    }
    assert_eq!(one_walk(&mut ctx, "?! -- ..."), None, "punctuation only");
    // Clip before stem: a 66-byte word ending in "ies" keeps its first 64
    // bytes, which no longer end in "ies", so it does not become "…y".
    let long = word_of(66, "ies");
    let (label, stems) = one_walk(&mut ctx, &long).unwrap();
    assert_eq!(label, long[..64]);
    assert_eq!(stems, [long[..64].to_owned()]);
    assert_eq!(
        one_walk(&mut ctx, &word_of(64, "ies")).unwrap().1,
        [format!("{}y", "q".repeat(61))]
    );
}
