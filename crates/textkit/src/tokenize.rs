//! Tokenization of titles and keyphrases.
//!
//! Default scheme per the paper (Sec. III-C fn. 3): space-delimited tokens
//! over a normalized string. Stemming is optional and off by default; the
//! GraphEx builder turns it on for both keyphrases and titles so token
//! identity stays consistent (the one invariant the paper requires).

use crate::normalize::normalize_into;
use crate::stem::stem_into;

/// Configurable tokenizer. Cheap to clone; construction does no work.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    stemming: bool,
    max_token_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        TokenizerBuilder::new().build()
    }
}

/// Builder for [`Tokenizer`].
#[derive(Debug, Clone)]
pub struct TokenizerBuilder {
    stemming: bool,
    max_token_len: usize,
}

impl TokenizerBuilder {
    pub fn new() -> Self {
        Self {
            stemming: false,
            max_token_len: 64,
        }
    }

    /// Enables the light suffix stemmer of [`crate::stem()`].
    pub fn stemming(mut self, on: bool) -> Self {
        self.stemming = on;
        self
    }

    /// Tokens longer than this are truncated (defensive bound against
    /// pathological inputs; real product tokens are far shorter).
    pub fn max_token_len(mut self, len: usize) -> Self {
        self.max_token_len = len.max(1);
        self
    }

    pub fn build(self) -> Tokenizer {
        Tokenizer {
            stemming: self.stemming,
            max_token_len: self.max_token_len,
        }
    }
}

impl Default for TokenizerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The two strings a token walk writes into: the normalized text, which
/// the tokens are slices of, and the one stem that is not a slice of it
/// (`-ies → y`). Keep one per thread: once both have grown to the longest
/// input seen, [`Tokenizer::for_each_token`] allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct TokenBuf {
    normalized: String,
    stemmed: String,
}

impl Tokenizer {
    /// Tokenizes `text`, yielding owned normalized tokens — one `String`
    /// per token, for consumers that keep them. Hot paths that only look
    /// each token up use [`Tokenizer::for_each_token`].
    pub fn tokenize<'a>(&'a self, text: &str) -> TokenIter<'a> {
        let mut buf = TokenBuf::default();
        normalize_into(text, &mut buf.normalized);
        TokenIter {
            tokenizer: self,
            buf,
            pos: 0,
        }
    }

    /// Calls `visit` with every token of `text`, in order, each borrowed
    /// from `buf`: the same tokens [`Tokenizer::tokenize`] yields, without
    /// a `String` per token.
    pub fn for_each_token(&self, text: &str, buf: &mut TokenBuf, mut visit: impl FnMut(&str)) {
        self.for_each_surface_token(text, buf, |_, token| visit(token));
    }

    /// [`Tokenizer::for_each_token`] that also hands `visit` each token's
    /// *surface*: the clipped piece before stemming, which is the token an
    /// unstemmed tokenizer of the same length bound yields. One normalize
    /// walk serves both, so a caller that needs a text's unstemmed form
    /// and its tokens (a keyphrase's label and its graph rows) reads the
    /// text once.
    pub fn for_each_surface_token(
        &self,
        text: &str,
        buf: &mut TokenBuf,
        mut visit: impl FnMut(&str, &str),
    ) {
        normalize_into(text, &mut buf.normalized);
        let mut pos = 0;
        while let Some(raw) = next_raw(&buf.normalized, &mut pos) {
            let surface = self.clip(raw);
            visit(surface, self.stem(surface, &mut buf.stemmed));
        }
    }

    /// Clips and (if configured) stems one space-delimited piece of a
    /// normalized string.
    fn finish_token<'a>(&self, raw: &'a str, stemmed: &'a mut String) -> &'a str {
        self.stem(self.clip(raw), stemmed)
    }

    /// `raw` truncated to the length bound, at a char boundary at or
    /// below it. Clipping comes before stemming: a long word's stem is
    /// the stem of its clipped prefix.
    fn clip<'a>(&self, raw: &'a str) -> &'a str {
        if raw.len() <= self.max_token_len {
            return raw;
        }
        let mut end = self.max_token_len;
        while !raw.is_char_boundary(end) {
            end -= 1;
        }
        &raw[..end]
    }

    /// `clipped` stemmed if this tokenizer stems, else as it is.
    fn stem<'a>(&self, clipped: &'a str, stemmed: &'a mut String) -> &'a str {
        if self.stemming {
            stem_into(clipped, stemmed)
        } else {
            clipped
        }
    }
}

/// The piece of `normalized` starting at `*pos`, up to the next space;
/// advances `*pos` past it. A normalized string has single spaces between
/// pieces and none at either end, so every piece is non-empty.
fn next_raw<'a>(normalized: &'a str, pos: &mut usize) -> Option<&'a str> {
    let rest = &normalized[*pos..];
    if rest.is_empty() {
        return None;
    }
    let end = rest.bytes().position(|b| b == b' ').unwrap_or(rest.len());
    *pos += end + usize::from(end < rest.len());
    Some(&rest[..end])
}

/// Iterator over the tokens of one input string.
pub struct TokenIter<'a> {
    tokenizer: &'a Tokenizer,
    buf: TokenBuf,
    pos: usize,
}

impl Iterator for TokenIter<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let raw = next_raw(&self.buf.normalized, &mut self.pos)?;
        Some(
            self.tokenizer
                .finish_token(raw, &mut self.buf.stemmed)
                .to_owned(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tokenization() {
        let tok = Tokenizer::default();
        let toks: Vec<String> = tok
            .tokenize("Audeze Maxwell gaming headphones for Xbox")
            .collect();
        assert_eq!(
            toks,
            ["audeze", "maxwell", "gaming", "headphones", "for", "xbox"]
        );
    }

    #[test]
    fn stemming_unifies_plurals() {
        let tok = TokenizerBuilder::new().stemming(true).build();
        let title: Vec<String> = tok.tokenize("gaming headphones").collect();
        let query: Vec<String> = tok.tokenize("gaming headphone").collect();
        assert_eq!(title, query);
    }

    #[test]
    fn empty_input() {
        let tok = Tokenizer::default();
        assert_eq!(tok.tokenize("").count(), 0);
        assert_eq!(tok.tokenize("  ,,, ").count(), 0);
    }

    #[test]
    fn long_token_truncated_on_char_boundary() {
        let tok = TokenizerBuilder::new().max_token_len(4).build();
        let toks: Vec<String> = tok.tokenize("ééééééé abc").collect();
        assert_eq!(toks[0].len(), 4); // two 2-byte chars
        assert_eq!(toks[1], "abc");
    }

    #[test]
    fn walk_reuses_its_buffers_across_inputs() {
        let tok = TokenizerBuilder::new().stemming(true).build();
        let mut buf = TokenBuf::default();
        let mut seen = Vec::new();
        tok.for_each_token("Batteries, cases", &mut buf, |t| seen.push(t.to_owned()));
        tok.for_each_token("d", &mut buf, |t| seen.push(t.to_owned()));
        tok.for_each_token(" -- ", &mut buf, |t| seen.push(t.to_owned()));
        assert_eq!(seen, ["battery", "case", "d"]);
    }

    #[test]
    fn surface_walk_pairs_each_token_with_its_unstemmed_clip() {
        let tok = TokenizerBuilder::new()
            .stemming(true)
            .max_token_len(7)
            .build();
        let mut buf = TokenBuf::default();
        let mut seen = Vec::new();
        tok.for_each_surface_token("Berries, boxes TOPAZIES", &mut buf, |surface, token| {
            seen.push((surface.to_owned(), token.to_owned()))
        });
        // "topazies" clips to "topazie" first, so no `-ies → y` applies.
        let want = [
            ("berries", "berry"),
            ("boxes", "box"),
            ("topazie", "topazie"),
        ];
        let want: Vec<(String, String)> = want.iter().map(|&(s, t)| (s.into(), t.into())).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn punctuation_becomes_boundaries() {
        let tok = Tokenizer::default();
        let toks: Vec<String> = tok.tokenize("wi-fi 6E (tri-band)").collect();
        assert_eq!(toks, ["wi", "fi", "6e", "tri", "band"]);
    }
}
