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
}
