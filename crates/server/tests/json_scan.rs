//! The shallow scanner against the tree parser, by generated input:
//! `json::members` / `json::elements` accept exactly the documents
//! `json::parse` accepts, never panic, and every range they return holds
//! the text of the corresponding child of the parsed tree — which is what
//! lets the router forward a backend's entries as bytes it never built.

use graphex_server::json::{self, Json};
use proptest::prelude::*;

/// A value grown from a byte script: each byte picks the next shape, so a
/// flat `Vec<u8>` strategy yields nested documents (the vendored proptest
/// has no recursive strategies). An exhausted script yields `null`s.
fn grow(script: &mut std::slice::Iter<'_, u8>, depth: usize) -> Json {
    let mut next = || script.next().copied().unwrap_or(0);
    let shape = next();
    // The root is a container (scalar roots are `named_corners`' job).
    match if depth == 0 { 4 + shape % 4 } else { shape % 8 } {
        0 => Json::Null,
        1 => Json::Bool(shape & 8 != 0),
        2 => {
            let (a, b) = (f64::from(next()), f64::from(next()));
            // Integers, negatives, fractions, and magnitudes that render
            // with an exponent-free long form.
            Json::Num(match shape / 8 % 4 {
                0 => a,
                1 => -(a * 256.0 + b),
                2 => a + b / 256.0,
                _ => (a + 1.0) * 1e15 + b,
            })
        }
        3 => Json::Str(text(&mut next)),
        4 | 5 if depth < 6 => Json::Arr((0..next() % 5).map(|_| grow(script, depth + 1)).collect()),
        6 | 7 if depth < 6 => Json::Obj(
            (0..next() % 5)
                .map(|_| {
                    let key = text(&mut || script.next().copied().unwrap_or(0));
                    (key, grow(script, depth + 1))
                })
                .collect(),
        ),
        _ => Json::Str(String::new()),
    }
}

/// Short strings over everything the string grammar treats specially.
fn text(next: &mut impl FnMut() -> u8) -> String {
    const PALETTE: [char; 16] = [
        'a',
        'z',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\t',
        '\u{1}',
        '\u{8}',
        '\u{c}',
        '\u{e9}',
        '\u{20ac}',
        '\u{1f600}',
        '{',
        ']',
    ];
    (0..next() % 6)
        .map(|_| PALETTE[usize::from(next()) % PALETTE.len()])
        .collect()
}

/// A second rendering of `value`: whitespace between tokens as `ws`
/// dictates, and strings written the long way — every character outside
/// printable ASCII as `\uXXXX` (astral ones as surrogate pairs), `/` as
/// `\/` — so the input side of the grammar sees escapes `Json::render`
/// never writes.
fn render_spaced(value: &Json, ws: &mut impl FnMut() -> &'static str, out: &mut String) {
    let string = |s: &str, out: &mut String| {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '/' => out.push_str("\\/"),
                ' '..='~' => out.push(c),
                _ => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
        out.push('"');
    };
    out.push_str(ws());
    match value {
        Json::Str(s) => string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_spaced(item, ws, out);
            }
            out.push_str(ws());
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(ws());
                string(key, out);
                out.push_str(ws());
                out.push(':');
                render_spaced(item, ws, out);
            }
            out.push_str(ws());
            out.push('}');
        }
        scalar => out.push_str(&scalar.render()),
    }
    out.push_str(ws());
}

/// Both renderings of the value `script` grows.
fn renderings(script: &[u8]) -> (Json, String, String) {
    let value = grow(&mut script.iter(), 0);
    let mut turn = script.iter().rev().copied().cycle();
    let mut ws = || ["", "", " ", "\n", "\t \r\n"][usize::from(turn.next().unwrap_or(0)) % 5];
    let mut spaced = String::new();
    render_spaced(&value, &mut ws, &mut spaced);
    let compact = value.render();
    (value, compact, spaced)
}

/// The property itself, for one input text: scanner ≡ parser.
fn assert_scan_matches_parse(text: &str) {
    let tree = json::parse(text);
    let members = json::members(text);
    let elements = json::elements(text);
    let tree = match tree {
        Ok(tree) => tree,
        Err(error) => {
            // One grammar walk: not merely both refusing, the same refusal.
            assert_eq!(members, Err(error.clone()), "members on {text:?}");
            assert_eq!(elements, Err(error), "elements on {text:?}");
            return;
        }
    };
    let members =
        members.unwrap_or_else(|e| panic!("members refused ({e}) what parse took: {text:?}"));
    let elements =
        elements.unwrap_or_else(|e| panic!("elements refused ({e}) what parse took: {text:?}"));
    let child = |range: &std::ops::Range<usize>| {
        let slice = &text[range.clone()];
        assert_eq!(
            slice.trim_matches([' ', '\t', '\n', '\r']),
            slice,
            "span carries whitespace"
        );
        json::parse(slice).unwrap_or_else(|e| panic!("span {slice:?} of {text:?}: {e}"))
    };
    match tree.as_obj() {
        Some(want) => {
            let got = members.expect("an object document has members");
            assert_eq!(got.len(), want.len(), "{text:?}");
            for ((key, range), (want_key, want_value)) in got.iter().zip(want) {
                assert_eq!(key, want_key, "{text:?}");
                assert_eq!(&child(range), want_value, "{text:?}");
            }
        }
        None => assert_eq!(members, None, "{text:?}"),
    }
    match tree.as_arr() {
        Some(want) => {
            let got = elements.expect("an array document has elements");
            assert_eq!(got.len(), want.len(), "{text:?}");
            for (range, want_value) in got.iter().zip(want) {
                assert_eq!(&child(range), want_value, "{text:?}");
            }
        }
        None => assert_eq!(elements, None, "{text:?}"),
    }
}

/// Bytes that turn one token into another.
const STRUCTURAL: &[u8] = b"{}[],:\"\\ \n0123456789.-+eEutrfn/\x01\x7f";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid documents, compact and spaced: both parse back to the value
    /// they were rendered from, and the scanner agrees with the parser.
    #[test]
    fn scanner_agrees_on_generated_documents(script in prop::collection::vec(any::<u8>(), 0..160)) {
        let (value, compact, spaced) = renderings(&script);
        prop_assert_eq!(json::parse(&compact).as_ref(), Ok(&value), "{}", compact);
        prop_assert_eq!(json::parse(&spaced).as_ref(), Ok(&value), "{}", spaced);
        assert_scan_matches_parse(&compact);
        assert_scan_matches_parse(&spaced);
    }

    /// One byte of a valid document replaced — by a structural byte as
    /// often as by an arbitrary one — or the document cut short.
    #[test]
    fn scanner_agrees_on_mutations_and_truncations(
        script in prop::collection::vec(any::<u8>(), 1..160),
        at in any::<u16>(),
        byte in any::<u8>(),
        structural in any::<bool>(),
        cut in any::<u16>(),
    ) {
        let (_, compact, spaced) = renderings(&script);
        for valid in [compact, spaced] {
            let mut mutated = valid.clone().into_bytes();
            let at = usize::from(at) % mutated.len();
            mutated[at] =
                if structural { STRUCTURAL[usize::from(byte) % STRUCTURAL.len()] } else { byte };
            // The entry points take `&str`; a mutation that broke the
            // encoding still is a mutated document once repaired.
            assert_scan_matches_parse(&String::from_utf8_lossy(&mutated));
            let cut = usize::from(cut) % valid.len();
            assert_scan_matches_parse(&String::from_utf8_lossy(&valid.as_bytes()[..cut]));
        }
    }

    /// A valid document with something after it.
    #[test]
    fn scanner_agrees_on_trailing_garbage(
        script in prop::collection::vec(any::<u8>(), 0..64),
        tail in prop::collection::vec(prop::sample::select(STRUCTURAL.to_vec()), 1..4),
    ) {
        let (_, compact, _) = renderings(&script);
        let tail = String::from_utf8(tail).expect("STRUCTURAL is ASCII");
        // (More digits after a bare number are a longer number.)
        let refused = !tail.trim().is_empty() && !compact.ends_with(|c: char| c.is_ascii_digit());
        let text = compact + &tail;
        prop_assert!(!(refused && json::parse(&text).is_ok()), "{}", text);
        assert_scan_matches_parse(&text);
    }

    /// Arbitrary text never panics any of the three, and they agree.
    #[test]
    fn scanner_agrees_on_arbitrary_text(
        text in ".{0,64}",
        soup in prop::collection::vec(prop::sample::select(STRUCTURAL.to_vec()), 0..24),
    ) {
        assert_scan_matches_parse(&text);
        assert_scan_matches_parse(&String::from_utf8(soup).expect("STRUCTURAL is ASCII"));
    }
}

/// The depth limit falls at the same nesting for all three entry points,
/// arrays and objects alike, and sits where a hostile body cannot reach
/// the stack.
#[test]
fn depth_limit_is_shared() {
    let mut accepted = Vec::new();
    for depth in 1..=80 {
        let arrays = "[".repeat(depth) + "0" + &"]".repeat(depth);
        let objects = "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
        assert_scan_matches_parse(&arrays);
        assert_scan_matches_parse(&objects);
        assert_eq!(
            json::parse(&arrays).is_ok(),
            json::parse(&objects).is_ok(),
            "depth {depth}"
        );
        accepted.push(json::parse(&arrays).is_ok());
    }
    assert!(
        accepted[0] && !accepted[79],
        "the limit lies between 1 and 80 levels"
    );
    assert!(
        accepted.windows(2).all(|w| w[0] || !w[1]),
        "accepted depths are a prefix"
    );
}

/// The corners the generator may visit rarely, named.
#[test]
fn named_corners() {
    for text in [
        "{}",
        "[]",
        " { } ",
        "[ ]",
        "null",
        "\"\"",
        "0",
        "-0.5e-3",
        r#"{"\u0061\ud83d\ude00\/":"\ud83d\ude00"}"#,
        r#"{"a":1,"a":2}"#,
        r#"["\ud800"]"#,
        r#"["\udc00"]"#,
        r#"{"k":"\ud83dx"}"#,
        r#"["\u12g4"]"#,
        "[\"raw\u{1}control\"]",
        "{\"a\":1}}",
        "[1]]",
        "[1],",
        "{\"a\":1,}",
        "[1e999]",
        "[-]",
        "\u{feff}{}",
    ] {
        assert_scan_matches_parse(text);
    }
    let escaped = json::members(r#"{"\u0061\ud83d\ude00\/":[]}"#)
        .unwrap()
        .unwrap();
    assert_eq!(escaped[0].0, "a\u{1f600}/", "keys come back decoded");
}
