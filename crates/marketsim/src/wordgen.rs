//! Deterministic pronounceable-word generator.
//!
//! Synthetic brands, product lines and attributes need token-shaped words
//! that (a) are reproducible from a seed, (b) rarely collide, and (c) look
//! enough like product vocabulary that tokenization/stemming behave as they
//! would on real titles.

use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;

const ONSETS: &[&str] = &[
    "b", "br", "c", "ch", "d", "dr", "f", "fl", "g", "gr", "k", "kl", "l", "m", "n", "p", "pr",
    "qu", "r", "s", "sh", "st", "t", "tr", "v", "w", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ae", "ia", "io"];
const CODAS: &[&str] = &["", "n", "r", "s", "x", "l", "m", "k", "t", "d"];

/// Generates unique pronounceable words from a shared RNG.
#[derive(Debug)]
pub struct WordGen {
    used: HashSet<String>,
}

impl WordGen {
    pub fn new() -> Self {
        Self {
            used: HashSet::new(),
        }
    }

    /// One random syllable.
    fn syllable(rng: &mut SmallRng) -> String {
        let mut s = String::new();
        s.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        s.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
        s.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
        s
    }

    /// A fresh word of `syllables` syllables, guaranteed distinct from all
    /// previously generated words (a numeric suffix breaks rare collisions).
    pub fn word(&mut self, rng: &mut SmallRng, syllables: usize) -> String {
        for _ in 0..64 {
            let mut w = String::new();
            for _ in 0..syllables {
                w.push_str(&Self::syllable(rng));
            }
            if self.used.insert(w.clone()) {
                return w;
            }
        }
        // Pathologically unlucky: disambiguate deterministically.
        let mut w = Self::syllable(rng);
        let mut i = self.used.len();
        loop {
            let candidate = format!("{w}{i}");
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
            i += 1;
            w = Self::syllable(rng);
        }
    }

    /// Number of words handed out.
    pub fn count(&self) -> usize {
        self.used.len()
    }
}

impl Default for WordGen {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn words_are_unique() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut gen = WordGen::new();
        let words: Vec<String> = (0..5000).map(|_| gen.word(&mut rng, 2)).collect();
        let set: HashSet<&String> = words.iter().collect();
        assert_eq!(set.len(), words.len());
        assert_eq!(gen.count(), words.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut gen = WordGen::new();
            (0..50).map(|_| gen.word(&mut rng, 2)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn words_are_lowercase_alpha_mostly() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut gen = WordGen::new();
        for _ in 0..200 {
            let w = gen.word(&mut rng, 2);
            assert!(
                w.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()),
                "{w}"
            );
            assert!(!w.is_empty());
        }
    }
}
