//! Deterministic hashed token embeddings.
//!
//! SL-emb and fastText both need dense title vectors. Real systems learn
//! them; for a self-contained reproduction we use *feature hashing*: every
//! token (and adjacent-bigram) deterministically maps to a pseudo-random
//! unit vector derived from its hash (SplitMix64-expanded), and a title
//! embeds as the L2-normalized mean of its feature vectors. Titles sharing
//! product tokens land close in cosine space — exactly the "semantically
//! close items have similar keyphrases" hypothesis SL-emb rests on
//! (fastText additionally *learns* its input vectors; see
//! [`crate::fasttext`]).

use graphex_textkit::Tokenizer;

/// Embedding dimensionality. 32 keeps brute-force ANN fast while leaving
/// enough room that unrelated titles are near-orthogonal w.h.p.
pub const DIM: usize = 32;

/// SplitMix64: expands a seed into a stream of well-mixed u64s.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a string (token → seed).
#[inline]
pub fn token_hash(token: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in token.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Writes the pseudo-random unit-ish vector of `seed` into `out`,
/// accumulating (`out += v`).
fn accumulate_feature(seed: u64, out: &mut [f32; DIM]) {
    let mut state = seed;
    for slot in out.iter_mut() {
        // Map u64 → approximately N(0,1) via sum of uniforms (CLT, 4 terms).
        let r = splitmix64(&mut state);
        let u1 = (r & 0xFFFF) as f32 / 65535.0;
        let u2 = ((r >> 16) & 0xFFFF) as f32 / 65535.0;
        let u3 = ((r >> 32) & 0xFFFF) as f32 / 65535.0;
        let u4 = ((r >> 48) & 0xFFFF) as f32 / 65535.0;
        *slot += (u1 + u2 + u3 + u4) - 2.0;
    }
}

/// Embeds `text`: tokens + adjacent bigrams, mean-pooled, L2-normalized.
/// Returns the zero vector for token-less input.
pub fn embed(tokenizer: &Tokenizer, text: &str) -> [f32; DIM] {
    let mut out = [0.0f32; DIM];
    let tokens: Vec<String> = tokenizer.tokenize(text).collect();
    if tokens.is_empty() {
        return out;
    }
    let mut features = 0usize;
    for tok in &tokens {
        accumulate_feature(token_hash(tok), &mut out);
        features += 1;
    }
    for pair in tokens.windows(2) {
        let bigram_seed = token_hash(&pair[0]) ^ token_hash(&pair[1]).rotate_left(17);
        accumulate_feature(bigram_seed, &mut out);
        features += 1;
    }
    let inv = 1.0 / features as f32;
    for v in &mut out {
        *v *= inv;
    }
    normalize(&mut out);
    out
}

/// L2-normalizes in place (no-op on the zero vector).
pub fn normalize(v: &mut [f32; DIM]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity of two normalized vectors (plain dot product).
#[inline]
pub fn dot(a: &[f32; DIM], b: &[f32; DIM]) -> f32 {
    let mut acc = 0.0;
    for i in 0..DIM {
        acc += a[i] * b[i];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok() -> Tokenizer {
        Tokenizer::default()
    }

    #[test]
    fn deterministic() {
        let a = embed(&tok(), "audeze maxwell gaming headphones");
        let b = embed(&tok(), "audeze maxwell gaming headphones");
        assert_eq!(a, b);
    }

    #[test]
    fn normalized_output() {
        let v = embed(&tok(), "wireless bluetooth headphones");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn similar_titles_are_closer_than_unrelated() {
        let t = tok();
        let a = embed(&t, "audeze maxwell wireless gaming headphones");
        let b = embed(&t, "audeze maxwell gaming headphones for xbox");
        let c = embed(&t, "vintage porcelain tea set flowers");
        assert!(
            dot(&a, &b) > dot(&a, &c) + 0.2,
            "{} vs {}",
            dot(&a, &b),
            dot(&a, &c)
        );
    }

    #[test]
    fn empty_title_is_zero_vector() {
        let v = embed(&tok(), "");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn word_order_matters_through_bigrams() {
        let t = tok();
        let a = embed(&t, "red leather case");
        let b = embed(&t, "case leather red");
        assert!(dot(&a, &b) < 0.999, "bigrams should differentiate order");
        assert!(dot(&a, &b) > 0.5, "unigram mass should still dominate");
    }
}
