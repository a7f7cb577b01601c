//! Minimal hand-rolled JSON: enough for the `/v1/infer` envelopes and
//! `/statusz`, with no dependency. Parsing is strict where it matters for
//! robustness (depth limit, UTF-8 escapes, numbers via `f64`) and returns
//! errors — never panics — on malformed input; encoding escapes control
//! characters and quotes. [`members`] and [`elements`] are the same grammar
//! walk building nothing: byte ranges of a document's top-level values,
//! for a caller (the router's gather) that forwards them unread.
//!
//! Objects preserve insertion order in a `Vec<(String, Json)>`; lookups
//! are linear, which is the right trade for envelopes of a dozen keys.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::Range;

/// Maximum nesting depth accepted by the parser (arrays + objects). Deep
/// enough for any real envelope, shallow enough that a hostile body can't
/// blow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integral number, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members in document order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Convenience constructor for object literals.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// `u64` counters render exactly (u64 → f64 is lossy past 2^53, which
    /// no counter in this process reaches; render via the integer path).
    pub fn uint(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Serializes to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`Json::render`], appended to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A number as [`Json::Num`] renders it. `write_num(n as f64, ..)` is what
/// a writer that builds no tree owes a `u64` to stay byte-identical with
/// [`Json::uint`].
pub(crate) fn write_num(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null"); // JSON has no NaN/Inf
    }
}

/// A string as [`Json::Str`] renders it, quotes included.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Literal text goes out in runs; every byte that ends one is ASCII,
    // so the runs lie on char boundaries.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    Parser { text: input, pos: 0, spans: None }.document().map(|(value, _)| value)
}

/// The scanner's run: the root's kind (as an empty shell) and its children.
fn scan(input: &str) -> Result<(Json, Vec<Member<'_>>), ParseError> {
    Parser { text: input, pos: 0, spans: Some(Vec::new()) }.document()
}

/// One top-level member as the scanner reports it: the decoded key —
/// borrowed from the document unless it carries an escape — and the byte
/// range of the value.
pub type Member<'a> = (Cow<'a, str>, Range<usize>);

/// The shallow scan of an object document: each top-level member's
/// decoded key and the byte range of its value, in document order —
/// `Json::as_obj` over ranges instead of subtrees. `Ok(None)` when the
/// document is some other value. The whole document is checked by the
/// grammar walk [`parse`] runs (escapes, surrogates, control bytes,
/// numbers, the depth limit, trailing characters), so this errs exactly
/// when `parse` does, but below the top level nothing is built.
pub fn members(input: &str) -> Result<Option<Vec<Member<'_>>>, ParseError> {
    let (root, spans) = scan(input)?;
    Ok(matches!(root, Json::Obj(_)).then_some(spans))
}

/// [`members`] for an array document: the byte range of each element
/// (`Json::as_arr` over ranges); `Ok(None)` when the document is not an
/// array.
pub fn elements(input: &str) -> Result<Option<Vec<Range<usize>>>, ParseError> {
    let (root, spans) = scan(input)?;
    Ok(matches!(root, Json::Arr(_)).then(|| spans.into_iter().map(|(_, range)| range).collect()))
}

/// The text of a string document (a span [`members`] or [`elements`]
/// reported, say): borrowed from it unless it carries an escape. `None`
/// when `span` is anything but one string.
pub fn unquote(span: &str) -> Option<Cow<'_, str>> {
    let inner = span.strip_prefix('"')?.strip_suffix('"')?;
    if !inner.bytes().any(|b| matches!(b, b'\\' | b'"' | 0x00..=0x1f)) {
        return Some(Cow::Borrowed(inner));
    }
    match parse(span) {
        Ok(Json::Str(text)) => Some(Cow::Owned(text)),
        _ => None,
    }
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ParseError {}

/// The one grammar walk behind [`parse`], [`members`] and [`elements`].
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// `None` builds the tree. `Some` is the scanner: containers come back
    /// empty and strings undecoded (nothing is allocated for them), and
    /// the root container's children are noted here as (key, value range)
    /// — the key empty for an array's elements.
    spans: Option<Vec<Member<'a>>>,
}

impl<'a> Parser<'a> {
    /// One value with nothing but whitespace around it, and the root's
    /// child spans (empty unless scanning).
    fn document(mut self) -> Result<(Json, Vec<Member<'a>>), ParseError> {
        self.skip_ws();
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok((value, self.spans.unwrap_or_default()))
    }

    fn building(&self) -> bool {
        self.spans.is_none()
    }

    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null", Json::Null),
            Some(b't') => self.eat("true", Json::Bool(true)),
            Some(b'f') => self.eat("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string(self.building())?.into_owned())),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            let item = self.value(depth + 1)?;
            match &mut self.spans {
                None => items.push(item),
                Some(spans) if depth == 0 => spans.push((Cow::Borrowed(""), start..self.pos)),
                Some(_) => {}
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // {
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            // The scanner reports the root's keys, so it decodes those.
            let key = self.string(self.building() || depth == 0)?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let start = self.pos;
            let value = self.value(depth + 1)?;
            match &mut self.spans {
                None => members.push((key.into_owned(), value)),
                Some(spans) if depth == 0 => spans.push((key, start..self.pos)),
                Some(_) => {}
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// One string, checked either way; decoded into the result only when
    /// `decode` (otherwise the result is empty), and copied only from its
    /// first escape on.
    fn string(&mut self, decode: bool) -> Result<Cow<'a, str>, ParseError> {
        self.pos += 1; // opening quote
        let text = self.text;
        let start = self.pos;
        let mut unescaped: Option<String> = None;
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match byte {
                b'"' => {
                    let literal = if decode { &text[start..self.pos] } else { "" };
                    self.pos += 1;
                    return Ok(unescaped.map_or(Cow::Borrowed(literal), Cow::Owned));
                }
                b'\\' => {
                    if decode && unescaped.is_none() {
                        unescaped = Some(text[start..self.pos].to_string());
                    }
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    if let Some(out) = &mut unescaped {
                        out.push(c);
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // A run of literal text. Every byte that ends it is
                    // ASCII, so the run lies on char boundaries.
                    let run = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                        self.pos += 1;
                    }
                    if let Some(out) = &mut unescaped {
                        out.push_str(&text[run..self.pos]);
                    }
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (0xD800..=0xDBFF).contains(&first) {
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&second) {
                    let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("lone leading surrogate"));
        }
        if (0xDC00..=0xDFFF).contains(&first) {
            return Err(self.err("lone trailing surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(byte) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match byte {
                b'0'..=b'9' => u32::from(byte - b'0'),
                b'a'..=b'f' => u32::from(byte - b'a') + 10,
                b'A'..=b'F' => u32::from(byte - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let n: f64 =
            self.text[start..self.pos].parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_envelope() {
        let text = r#"{"title":"audeze maxwell \"pro\"","leaf":3001,"k":10,"flags":[true,false,null],"nested":{"x":-1.5e2}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("audeze maxwell \"pro\""));
        assert_eq!(v.get("leaf").unwrap().as_u64(), Some(3001));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(10));
        assert_eq!(v.get("flags").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("nested").unwrap().get("x").unwrap().as_f64(), Some(-150.0));
        // Render → parse is identity.
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn escapes_roundtrip() {
        let original = Json::obj(vec![("s", Json::str("line\nbreak\ttab \"quote\" \\ \u{1}"))]);
        let parsed = parse(&original.render()).unwrap();
        assert_eq!(parsed, original);
        // Unicode escapes, including a surrogate pair.
        let v = parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "", "{", "}", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "nul", "01x", "\"unterminated",
            "{\"a\":1}trailing", "\"\\q\"", "\"\\u12\"", "\"\\ud800\"", "\"\\udc00 alone\"",
            "1e999", "{1:2}", "[,]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
            assert!(members(bad).is_err(), "members accepted {bad:?}");
            assert!(elements(bad).is_err(), "elements accepted {bad:?}");
        }
        // Deep nesting is rejected, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
        assert!(elements(&deep).is_err());
    }

    #[test]
    fn scanner_returns_the_spans_of_top_level_values() {
        let text = " {\"re\\u0073ponses\" : [ {\"a\":[1,2]} , \"x]\\\"\" ,3 ] ,\"v\":7, \"t\":{}} ";
        let spans = members(text).unwrap().expect("an object");
        let keys: Vec<&str> = spans.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["responses", "v", "t"], "keys come back decoded");
        assert_eq!(&text[spans[1].1.clone()], "7");
        assert_eq!(&text[spans[2].1.clone()], "{}");
        let array = &text[spans[0].1.clone()];
        let items = elements(array).unwrap().expect("an array");
        let items: Vec<&str> = items.into_iter().map(|r| &array[r]).collect();
        assert_eq!(items, ["{\"a\":[1,2]}", "\"x]\\\"\"", "3"]);
        // Grammatical, but the other kind of document.
        assert_eq!(members("[1]").unwrap(), None);
        assert_eq!(elements("{}").unwrap(), None);
        assert_eq!(elements("7").unwrap(), None);
        assert_eq!(members("{}").unwrap(), Some(Vec::new()));
        assert_eq!(elements(" [ ] ").unwrap(), Some(Vec::new()));
    }

    #[test]
    fn unquote_borrows_until_an_escape() {
        assert!(matches!(unquote(r#""plain é text""#), Some(Cow::Borrowed("plain é text"))));
        assert!(matches!(unquote(r#""""#), Some(Cow::Borrowed(""))));
        assert_eq!(unquote(r#""a\"b\u00e9""#), Some(Cow::Owned("a\"bé".to_string())));
        for not_one_string in ["7", "\"", "\"a\"b\"", "\"a\" ", "[\"a\"]", "\"\\q\"", "\"\u{1}\""] {
            assert_eq!(unquote(not_one_string), None, "{not_one_string:?}");
        }
    }

    #[test]
    fn u64_edges() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::uint(u64::from(u32::MAX)).as_u64(), Some(u64::from(u32::MAX)));
    }

    #[test]
    fn render_numbers() {
        assert_eq!(Json::uint(0).render(), "0");
        assert_eq!(Json::num(2.5).render(), "2.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
