//! Property-based tests for the text substrate.

use graphex_textkit::{normalize_into, stem, TokenBuf, Tokenizer, TokenizerBuilder, Vocab};
use proptest::prelude::*;

/// Tokenization spelled out the slow way, one `String` per step: every
/// char lowercased or turned into a space, split, each piece cut at a char
/// boundary, then stemmed.
fn reference_tokens(text: &str, stemming: bool, max_token_len: usize) -> Vec<String> {
    let spaced: String = text
        .chars()
        .map(|ch| if ch.is_alphanumeric() { ch.to_lowercase().collect() } else { " ".to_string() })
        .collect();
    spaced
        .split(' ')
        .filter(|piece| !piece.is_empty())
        .map(|piece| {
            let end = (0..=max_token_len.min(piece.len())).rev().find(|&i| piece.is_char_boundary(i));
            let piece = &piece[..end.expect("0 is a boundary")];
            if !stemming {
                piece.to_string()
            } else if piece.len() > 4 && piece.ends_with("ies") && !piece.bytes().any(|b| b.is_ascii_digit()) {
                format!("{}y", &piece[..piece.len() - 3])
            } else {
                stem(piece).to_string()
            }
        })
        .collect()
}

proptest! {
    /// Normalization output never contains uppercase ASCII, doubled spaces,
    /// or edge spaces — the contract `split(' ')` tokenization relies on.
    #[test]
    fn normalize_invariants(input in ".{0,200}") {
        let mut out = String::new();
        normalize_into(&input, &mut out);
        prop_assert!(!out.bytes().any(|b| b.is_ascii_uppercase()));
        prop_assert!(!out.contains("  "));
        prop_assert!(!out.starts_with(' '));
        prop_assert!(!out.ends_with(' '));
    }

    /// Normalization is idempotent.
    #[test]
    fn normalize_idempotent(input in ".{0,200}") {
        let mut once = String::new();
        normalize_into(&input, &mut once);
        let mut twice = String::new();
        normalize_into(&once, &mut twice);
        prop_assert_eq!(once, twice);
    }

    /// The stemmer only ever removes a suffix (borrowed variant), so the
    /// stem is always a prefix of the word.
    #[test]
    fn stem_is_prefix(word in "[a-z]{1,20}") {
        let s = stem(&word);
        prop_assert!(word.starts_with(s));
        prop_assert!(!s.is_empty());
    }

    /// Tokenizing the space-join of the tokens reproduces the tokens
    /// (tokenization is a projection).
    #[test]
    fn tokenize_projection(input in "[ a-z0-9,.!-]{0,200}") {
        let tok = Tokenizer::default();
        let first: Vec<String> = tok.tokenize(&input).collect();
        let rejoined = first.join(" ");
        let second: Vec<String> = tok.tokenize(&rejoined).collect();
        prop_assert_eq!(first, second);
    }

    /// The borrowed walk visits exactly the tokens the owning iterator
    /// yields, and both the reference's — through every stemmer rule, both normalization loops
    /// (ASCII and not), lowercase that expands (`İ`), marks that split a
    /// word, empty input, and tokens cut at `max_token_len` inside a
    /// multi-byte char — with one `TokenBuf` reused across all of it.
    #[test]
    fn walk_equals_owned_tokens(
        pieces in prop::collection::vec(
            (
                prop::sample::select(vec![
                    "Batteries", "PARTIES", "ties", "glasses", "boxes", "Watches", "men's", "sellers'",
                    "bags", "gas", "ps5", "512GB", "accessories9", "İstanbul", "Straße", "STRASSE",
                    "e\u{301}cole", "ééééééééé", "日本語のタイトル", "a", "", "---", "!!!",
                    "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxies",
                ]),
                prop::sample::select(vec![" ", "  ", ", ", "-", "\t", "", "'"]),
            ),
            0..12,
        ),
        stemming in any::<bool>(),
        max_token_len in prop::sample::select(vec![64usize, 5, 1]),
    ) {
        let text: String = pieces.iter().flat_map(|(word, sep)| [*word, *sep]).collect();
        let tok = TokenizerBuilder::new().stemming(stemming).max_token_len(max_token_len).build();
        let owned: Vec<String> = tok.tokenize(&text).collect();
        prop_assert_eq!(&owned, &reference_tokens(&text, stemming, max_token_len), "{:?}", text);
        let mut buf = TokenBuf::default();
        tok.for_each_token("left over from another input: Batteries", &mut buf, |_| {});
        let mut walked = Vec::new();
        tok.for_each_token(&text, &mut buf, |token| walked.push(token.to_owned()));
        prop_assert_eq!(&walked, &owned, "{:?}", text);
    }

    /// Title/query token identity: any word sequence tokenizes identically
    /// whether it arrives as a title or as a keyphrase (same tokenizer).
    #[test]
    fn consistent_identity_with_stemming(words in prop::collection::vec("[a-z]{2,10}", 1..8)) {
        let tok = TokenizerBuilder::new().stemming(true).build();
        let joined = words.join(" ");
        let a: Vec<String> = tok.tokenize(&joined).collect();
        let b: Vec<String> = tok.tokenize(&joined.to_uppercase()).collect();
        prop_assert_eq!(a, b);
    }

    /// Vocab: interning any sequence and resolving returns the originals.
    #[test]
    fn vocab_roundtrip(words in prop::collection::vec("[a-z0-9]{1,12}", 0..50)) {
        let mut v = Vocab::new();
        let ids: Vec<u32> = words.iter().map(|w| v.intern(w)).collect();
        for (w, id) in words.iter().zip(&ids) {
            prop_assert_eq!(v.resolve(*id), Some(w.as_str()));
        }
        // Dense: vocabulary size equals number of distinct words.
        let distinct: std::collections::HashSet<_> = words.iter().collect();
        prop_assert_eq!(v.len(), distinct.len());
    }

    /// Vocab against the obvious model, a `HashMap<String, u32>` and a
    /// `Vec<String>`, over scripts of intern / get / resolve / clone. The
    /// alphabet is tiny so that strings repeat, share prefixes, are empty,
    /// are not ASCII, and differ only in trailing NULs — which the Fx
    /// hash, zero-padding its last word, cannot tell apart.
    #[test]
    fn vocab_matches_the_map_and_vec_model(
        script in prop::collection::vec((0u8..8, "[ab\u{0}é]{0,5}", 0u32..40), 0..200),
    ) {
        let mut vocab = Vocab::new();
        let mut model = VocabModel::default();
        // Clones taken along the way, each with the model of that moment:
        // later interns into the original must not show in them.
        let mut clones: Vec<(Vocab, VocabModel)> = Vec::new();
        for (op, text, id) in &script {
            match op {
                0..=3 => prop_assert_eq!(vocab.intern(text), model.intern(text), "intern {:?}", text),
                4 | 5 => prop_assert_eq!(vocab.get(text), model.ids.get(text).copied(), "get {:?}", text),
                6 => prop_assert_eq!(vocab.resolve(*id), model.strings.get(*id as usize).map(String::as_str)),
                _ => clones.push((vocab.clone(), model.clone())),
            }
            prop_assert_eq!(vocab.len(), model.strings.len());
            prop_assert_eq!(vocab.is_empty(), model.strings.is_empty());
        }
        clones.push((vocab, model));
        // Diverge every clone from the rest, then check each in full.
        for (n, (vocab, model)) in clones.iter_mut().enumerate() {
            let own = format!("clone{n}");
            prop_assert_eq!(vocab.intern(&own), model.intern(&own));
        }
        for (vocab, model) in &clones {
            let listed: Vec<(u32, &str)> = vocab.iter().collect();
            let want: Vec<(u32, &str)> =
                model.strings.iter().enumerate().map(|(id, s)| (id as u32, s.as_str())).collect();
            prop_assert_eq!(listed, want);
            for (text, &id) in &model.ids {
                prop_assert_eq!(vocab.get(text), Some(id));
                prop_assert_eq!(&vocab[id], text.as_str());
            }
            prop_assert_eq!(vocab.resolve(model.strings.len() as u32), None);
        }
    }
}

proptest! {
    /// `from_parts` over the parts of any vocabulary — same alphabet as
    /// above — is that vocabulary: same strings under the same ids, found
    /// by `get`, and interning on from there agrees with the original.
    #[test]
    fn vocab_from_parts_equals_interning_one_by_one(
        texts in prop::collection::vec("[ab\u{0}é]{0,5}", 0..120),
        more in prop::collection::vec("[ab\u{0}é]{0,5}", 0..20),
    ) {
        let mut built = Vocab::new();
        for text in &texts {
            built.intern(text);
        }
        let (blob, ends) = built.parts();
        let mut loaded = Vocab::from_parts(blob, ends).expect("parts of a vocabulary");
        prop_assert_eq!(loaded.parts(), built.parts());
        prop_assert_eq!(loaded.iter().collect::<Vec<_>>(), built.iter().collect::<Vec<_>>());
        for text in texts.iter().chain(&more) {
            prop_assert_eq!(loaded.get(text), built.get(text), "get {:?}", text);
        }
        for text in &more {
            prop_assert_eq!(loaded.intern(text), built.intern(text), "intern {:?}", text);
        }
        prop_assert_eq!(loaded.parts(), built.parts());
        // Repeating any string of it makes the parts a duplicate's.
        let first = built.resolve(0).map(str::to_owned);
        if let Some(again) = first {
            let mut blob = built.parts().0.to_vec();
            let mut ends = built.parts().1.to_vec();
            blob.extend_from_slice(again.as_bytes());
            ends.push(blob.len() as u32);
            prop_assert_eq!(Vocab::from_parts(&blob, &ends).map(drop), Err("duplicate string"));
        }
    }
}

/// What [`Vocab`] replaced, kept as the reference.
#[derive(Default, Clone)]
struct VocabModel {
    ids: std::collections::HashMap<String, u32>,
    strings: Vec<String>,
}

impl VocabModel {
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(text.to_string(), id);
        self.strings.push(text.to_string());
        id
    }
}

/// Enough strings that the id table grows a dozen times, with repeats in
/// between: every id stays findable across every re-seating.
#[test]
fn vocab_survives_many_growths() {
    const STRINGS: u32 = 200_000;
    let mut vocab = Vocab::new();
    for i in 0..STRINGS {
        assert_eq!(vocab.intern(format!("token{i}")), i);
        if i % 7 == 0 {
            assert_eq!(vocab.intern(format!("token{}", i / 2)), i / 2);
        }
    }
    assert_eq!(vocab.len(), STRINGS as usize);
    for i in (0..STRINGS).step_by(13) {
        let text = format!("token{i}");
        assert_eq!(vocab.get(&text), Some(i));
        assert_eq!(vocab.resolve(i), Some(text.as_str()));
    }
    assert_eq!(vocab.get("token"), None);
    assert_eq!(vocab.get(format!("token{STRINGS}")), None);
}

/// Loaded from its parts, a vocabulary is sized for its contents — the
/// three buffers hold exactly the strings, one end each, and the smallest
/// id table that is at most half full — and finding any of its strings
/// grows nothing.
#[test]
fn vocab_from_parts_is_sized_for_its_contents() {
    for strings in [0usize, 1, 7, 8, 9, 1000, 4096, 4097] {
        let mut built = Vocab::new();
        for i in 0..strings {
            built.intern(format!("w{i}"));
        }
        let (blob, ends) = built.parts();
        let mut loaded = Vocab::from_parts(blob, ends).unwrap();
        let slots = (2 * strings).next_power_of_two().max(8);
        assert_eq!(loaded.heap_bytes(), blob.len() + 4 * strings + 4 * slots, "{strings} strings");
        let before = loaded.heap_bytes();
        for i in 0..strings {
            assert_eq!(loaded.intern(format!("w{i}")), i as u32);
        }
        assert_eq!(loaded.heap_bytes(), before, "{strings} strings grew a buffer");
    }
}

/// Every way parts can fail to describe a vocabulary is refused by name.
#[test]
fn vocab_from_parts_refuses_what_interning_cannot_build() {
    let refused = |blob: &[u8], ends: &[u32]| Vocab::from_parts(blob, ends).map(drop).unwrap_err();
    assert_eq!(refused(b"abc", &[2, 1, 3]), "ends decrease");
    assert_eq!(refused("aéb".as_bytes(), &[1, 2, 4]), "end is not on a char boundary of the blob");
    assert_eq!(refused(b"abc", &[1, 4]), "end is not on a char boundary of the blob");
    assert_eq!(refused(b"abc", &[1, 2]), "last end is not the blob's length");
    assert_eq!(refused(b"abc", &[]), "last end is not the blob's length");
    assert_eq!(refused(b"ab\xff", &[1, 3]), "blob is not utf-8");
    assert_eq!(refused(b"abab", &[2, 4]), "duplicate string");
    assert_eq!(refused(b"ab", &[0, 2, 2]), "duplicate string");
    assert_eq!(refused(b"", &[0, 0]), "duplicate string");
    // One empty string is a string like any other, wherever it sits.
    for (blob, ends) in [(&b""[..], &[0u32][..]), (b"ab", &[0, 2]), (b"ab", &[1, 1, 2]), (b"ab", &[2, 2])] {
        let vocab = Vocab::from_parts(blob, ends).unwrap();
        assert_eq!(vocab.len(), ends.len());
        assert!(vocab.get("").is_some());
    }
    assert!(Vocab::from_parts(b"", &[]).unwrap().is_empty());
}
