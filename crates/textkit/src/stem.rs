//! Light rule-based English stemmer.
//!
//! Sec. IV-F1 of the paper: "We used a proprietary stemming function for
//! words to increase the reach of token matches." The exact function is not
//! published; this module substitutes a conservative suffix stemmer tuned for
//! e-commerce tokens (plurals, possessives) rather than a full Porter
//! stemmer. Conservatism matters: over-stemming merges distinct product
//! tokens ("ps" vs "p"), which hurts precision more than under-stemming
//! hurts recall.
//!
//! The function is pure and idempotent, which the property tests rely on.

/// Stems a single lowercase token, returning the stemmed prefix of `word`.
///
/// Rules (applied once, first match wins):
/// 1. `'s` / `s'` possessives are dropped.
/// 2. `sses` → `ss`, `xes`/`ches`/`shes`/`zes` → drop `es`.
/// 3. `ies` → `y` (for length > 4).
/// 4. trailing `s` is dropped when preceded by a non-`s`, non-vowel-only stem
///    of length ≥ 3 (so "bags" → "bag" but "gas" stays, "ps" stays).
///
/// Tokens with digits are never stemmed ("512gb", "ps5" are model numbers).
pub fn stem(word: &str) -> &str {
    if word.len() < 3 || word.bytes().any(|b| b.is_ascii_digit()) {
        return word;
    }
    if let Some(prefix) = word.strip_suffix("'s") {
        return prefix;
    }
    if let Some(prefix) = word.strip_suffix('\'') {
        // plural possessive "sellers'" → keep the plural, drop the mark
        return prefix;
    }
    if word.ends_with("sses") {
        return &word[..word.len() - 2];
    }
    for suf in ["xes", "ches", "shes", "zes"] {
        if word.ends_with(suf) && word.len() > suf.len() + 1 {
            return &word[..word.len() - 2];
        }
    }
    if word.len() > 4 && word.ends_with("ies") {
        // Can't return "y"-substituted slice borrowed from input; callers
        // that need the `y` form use `stem_into`. For the borrowed fast
        // path we drop the suffix entirely, which still unifies
        // "batteries"/"batterie" style variants.
        return &word[..word.len() - 3];
    }
    if word.len() >= 4
        && word.ends_with('s')
        && !word.ends_with("ss")
        && !word.ends_with("us")
        && !word.ends_with("is")
    {
        return &word[..word.len() - 1];
    }
    word
}

/// [`stem`] with the `ies → y` substitution applied properly: that one
/// rule is the only one whose output is not a sub-slice of `word`, so it
/// is written into `buf` (cleared first) and every other stem is returned
/// borrowed from `word`, leaving `buf` untouched.
pub fn stem_into<'a>(word: &'a str, buf: &'a mut String) -> &'a str {
    if word.len() > 4 && word.ends_with("ies") && !word.bytes().any(|b| b.is_ascii_digit()) {
        buf.clear();
        buf.push_str(&word[..word.len() - 3]);
        buf.push('y');
        return buf;
    }
    stem(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plural_nouns() {
        assert_eq!(stem("headphones"), "headphone");
        assert_eq!(stem("bags"), "bag");
        assert_eq!(stem("cases"), "case");
    }

    #[test]
    fn possessives() {
        assert_eq!(stem("men's"), "men");
        assert_eq!(stem("sellers'"), "sellers"); // s' drops the apostrophe-s only
    }

    #[test]
    fn short_and_model_tokens_untouched() {
        assert_eq!(stem("ps"), "ps");
        assert_eq!(stem("ps5"), "ps5");
        assert_eq!(stem("512gb"), "512gb");
        assert_eq!(stem("xs"), "xs");
    }

    #[test]
    fn ss_us_is_endings_untouched() {
        assert_eq!(stem("glass"), "glass");
        assert_eq!(stem("bonus"), "bonus");
        assert_eq!(stem("tennis"), "tennis");
        assert_eq!(stem("gas"), "gas");
    }

    #[test]
    fn es_endings() {
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("watches"), "watch");
        assert_eq!(stem("brushes"), "brush");
    }

    #[test]
    fn ies_endings() {
        assert_eq!(stem("batteries"), "batter");
        let mut buf = String::new();
        assert_eq!(stem_into("batteries", &mut buf), "battery");
        assert_eq!(stem_into("accessories", &mut buf), "accessory");
        assert_eq!(stem_into("headphones", &mut buf), "headphone");
        assert_eq!(buf, "accessory", "a borrowed stem leaves the buffer alone");
    }

    #[test]
    fn idempotent() {
        for w in [
            "headphones",
            "boxes",
            "batteries",
            "glass",
            "ps5",
            "watches",
        ] {
            let (mut a, mut b) = (String::new(), String::new());
            let once = stem_into(w, &mut a);
            let twice = stem_into(once, &mut b);
            assert_eq!(once, twice, "stem not idempotent for {w}");
        }
    }
}
