//! String normalization for titles and keyphrases.
//!
//! E-commerce titles are noisy: mixed case, punctuation, unicode dashes,
//! decorative symbols. Buyer queries are mostly lowercase ASCII. Consistent
//! normalization on both sides is what makes the integer token comparison of
//! the paper sound.

/// Normalizes `input` into `out` (cleared first): lowercases ASCII,
/// maps punctuation to spaces, collapses whitespace runs.
///
/// Non-ASCII alphanumerics are kept as-is (lowercased where Unicode allows a
/// 1:1 mapping); everything else becomes a separator. The output never has
/// leading/trailing spaces and never has two consecutive spaces, so a
/// downstream `split(' ')` yields clean tokens.
///
/// Writing into a caller-supplied buffer keeps batch pipelines
/// allocation-free (one workhorse `String` per thread). All-ASCII input —
/// nearly every title and query — takes a byte loop that writes what the
/// `char` loop would.
pub fn normalize_into(input: &str, out: &mut String) {
    out.clear();
    out.reserve(input.len());
    let mut pending_space = false;
    if input.is_ascii() {
        for &byte in input.as_bytes() {
            if byte.is_ascii_alphanumeric() {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(char::from(byte.to_ascii_lowercase()));
            } else {
                pending_space = true;
            }
        }
        return;
    }
    for ch in input.chars() {
        if ch.is_alphanumeric() {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            // Unicode lowercase can expand; for token identity we take
            // every produced char.
            out.extend(ch.to_lowercase());
        } else {
            pending_space = true;
        }
    }
}

/// Convenience wrapper returning a fresh `String`.
pub fn normalize(input: &str) -> String {
    let mut out = String::new();
    normalize_into(input, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_strips_punctuation() {
        assert_eq!(
            normalize("Audeze Maxwell, for Xbox!"),
            "audeze maxwell for xbox"
        );
    }

    #[test]
    fn collapses_whitespace() {
        assert_eq!(normalize("  a   b\t\nc  "), "a b c");
    }

    #[test]
    fn empty_and_punct_only() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("--- !!! ..."), "");
    }

    #[test]
    fn keeps_digits_and_mixed_tokens() {
        assert_eq!(normalize("PS5 512GB (NEW)"), "ps5 512gb new");
    }

    #[test]
    fn unicode_is_lowercased() {
        assert_eq!(normalize("Époque Straße"), "époque straße");
    }

    #[test]
    fn hyphens_split_tokens() {
        // "wi-fi" → two tokens; consistent on query & title side so identity
        // is preserved either way.
        assert_eq!(normalize("Wi-Fi dual-band"), "wi fi dual band");
    }

    #[test]
    fn reuses_buffer() {
        let mut buf = String::new();
        normalize_into("ABC", &mut buf);
        assert_eq!(buf, "abc");
        normalize_into("x", &mut buf);
        assert_eq!(buf, "x");
    }
}
