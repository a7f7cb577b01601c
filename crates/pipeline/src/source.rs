//! Streaming record sources: where build-pipeline input comes from.
//!
//! A [`RecordSource`] yields [`KeyphraseRecord`]s in bounded batches so
//! ingestion never materializes a whole corpus — the reader hands each
//! batch straight to the shard router, and backpressure from the shard
//! queues bounds total in-flight memory. Unparsable rows are **counted
//! and skipped**, per source ([`SourceStats`]), mirroring how a daily
//! aggregation job treats a few bad log lines: the build must not fail at
//! 3 a.m. over one torn row, but the report must say exactly what was
//! dropped. I/O errors, by contrast, are hard errors.
//!
//! Formats:
//! * **TSV** ([`TsvFileSource`]) — `text<TAB>leaf<TAB>search<TAB>recall`,
//!   the `graphex simulate` / `graphex build` interchange format.
//! * **NDJSON** ([`NdjsonFileSource`]) — one object per line with
//!   `text` / `leaf` / `search` / `recall` keys, the shape log pipelines
//!   emit.
//! * **marketsim** ([`MarketsimSource`]) — a seeded
//!   [`graphex_marketsim::ChurnCorpus`] generation, for tests, benches,
//!   and demos without any files.

use graphex_core::{KeyphraseRecord, LeafId};
use graphex_marketsim::ChurnCorpus;
use std::io::BufRead;
use std::path::Path;

/// How many parse-error messages a [`SourceStats`] retains verbatim.
const MAX_SAMPLED_ERRORS: usize = 3;

/// Per-source ingestion accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Display name (file path, `marketsim:<preset>`, …).
    pub name: String,
    /// Records successfully yielded.
    pub records: u64,
    /// Non-record lines skipped by design (blank lines, `#` comments).
    pub skipped: u64,
    /// Rows dropped as unparsable.
    pub parse_errors: u64,
    /// First few parse-error messages, with line numbers.
    pub error_sample: Vec<String>,
}

impl SourceStats {
    fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    fn record_error(&mut self, lineno: u64, what: &str) {
        self.parse_errors += 1;
        if self.error_sample.len() < MAX_SAMPLED_ERRORS {
            self.error_sample.push(format!("line {lineno}: {what}"));
        }
    }
}

/// A streaming producer of keyphrase records.
pub trait RecordSource: Send {
    /// Display name for reports.
    fn name(&self) -> &str;

    /// Pulls up to `max` records into `out` (which is cleared first).
    /// An empty `out` on return means the source is exhausted. Parse
    /// errors are skipped and accounted in [`RecordSource::stats`];
    /// `Err` is reserved for I/O failures.
    fn next_batch(&mut self, max: usize, out: &mut Vec<KeyphraseRecord>) -> Result<(), String>;

    /// Accounting so far (final once exhausted).
    fn stats(&self) -> &SourceStats;
}

// ====================================================================
// TSV
// ====================================================================

/// Line-by-line record reader over any [`BufRead`], parameterized by the
/// per-line parser (TSV or NDJSON share everything else).
struct LineSource<R: BufRead> {
    reader: R,
    stats: SourceStats,
    lineno: u64,
    parse: fn(&str) -> Result<KeyphraseRecord, String>,
    line: String,
}

impl<R: BufRead> LineSource<R> {
    fn new(name: String, reader: R, parse: fn(&str) -> Result<KeyphraseRecord, String>) -> Self {
        Self {
            reader,
            stats: SourceStats::named(name),
            lineno: 0,
            parse,
            line: String::new(),
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<KeyphraseRecord>) -> Result<(), String> {
        out.clear();
        while out.len() < max {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line).map_err(|e| {
                format!(
                    "{}: read error at line {}: {e}",
                    self.stats.name,
                    self.lineno + 1
                )
            })?;
            if n == 0 {
                return Ok(()); // EOF
            }
            self.lineno += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                self.stats.skipped += 1;
                continue;
            }
            match (self.parse)(trimmed) {
                Ok(rec) => {
                    self.stats.records += 1;
                    out.push(rec);
                }
                Err(what) => self.stats.record_error(self.lineno, &what),
            }
        }
        Ok(())
    }
}

/// TSV file source (`text<TAB>leaf<TAB>search<TAB>recall` rows; blank
/// lines and `#` comments skipped).
pub struct TsvFileSource {
    inner: LineSource<std::io::BufReader<std::fs::File>>,
}

impl TsvFileSource {
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        Ok(Self {
            inner: LineSource::new(
                path.display().to_string(),
                std::io::BufReader::new(file),
                KeyphraseRecord::from_tsv,
            ),
        })
    }
}

impl RecordSource for TsvFileSource {
    fn name(&self) -> &str {
        &self.inner.stats.name
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<KeyphraseRecord>) -> Result<(), String> {
        self.inner.next_batch(max, out)
    }

    fn stats(&self) -> &SourceStats {
        &self.inner.stats
    }
}

// ====================================================================
// NDJSON
// ====================================================================

/// Parses one NDJSON record:
/// `{"text": "...", "leaf": N, "search": N, "recall": N}` (key order
/// free; unknown keys rejected; `search_count`/`recall_count` accepted as
/// aliases).
pub fn parse_ndjson_line(line: &str) -> Result<KeyphraseRecord, String> {
    let mut scanner = JsonScanner::new(line);
    scanner.expect('{')?;
    let mut text: Option<String> = None;
    let mut leaf: Option<u32> = None;
    let mut search: Option<u32> = None;
    let mut recall: Option<u32> = None;
    loop {
        scanner.skip_ws();
        if scanner.eat('}') {
            break;
        }
        let key = scanner.string()?;
        scanner.expect(':')?;
        match key.as_str() {
            "text" => text = Some(scanner.string()?),
            "leaf" => leaf = Some(scanner.u32()?),
            "search" | "search_count" => search = Some(scanner.u32()?),
            "recall" | "recall_count" => recall = Some(scanner.u32()?),
            other => return Err(format!("unknown key {other:?}")),
        }
        scanner.skip_ws();
        if !scanner.eat(',') && !scanner.peek_is('}') {
            return Err("expected ',' or '}'".into());
        }
    }
    scanner.skip_ws();
    if !scanner.at_end() {
        return Err("trailing content after object".into());
    }
    let text = text.ok_or("missing \"text\"")?;
    if text.is_empty() {
        return Err("empty keyphrase text".into());
    }
    Ok(KeyphraseRecord::new(
        text,
        LeafId(leaf.ok_or("missing \"leaf\"")?),
        search.ok_or("missing \"search\"")?,
        recall.ok_or("missing \"recall\"")?,
    ))
}

/// Minimal scanner for the flat NDJSON record shape: strings (with
/// escapes) and unsigned integers only — records are produced by log
/// pipelines, not humans, so nesting is out of scope by design.
struct JsonScanner<'a> {
    rest: &'a str,
}

impl<'a> JsonScanner<'a> {
    fn new(s: &'a str) -> Self {
        Self { rest: s }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn at_end(&self) -> bool {
        self.rest.is_empty()
    }

    fn peek_is(&self, c: char) -> bool {
        self.rest.starts_with(c)
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if let Some(stripped) = self.rest.strip_prefix(c) {
            self.rest = stripped;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {c:?}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'u')) => {
                        let hi = self.hex4(&mut chars)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: standard JSON emitters encode
                            // non-BMP chars as a \uXXXX\uXXXX pair.
                            match (chars.next(), chars.next()) {
                                (Some((_, '\\')), Some((_, 'u'))) => {}
                                _ => return Err("unpaired surrogate".into()),
                            }
                            let lo = self.hex4(&mut chars)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("unpaired surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn hex4(&self, chars: &mut std::str::CharIndices<'_>) -> Result<u32, String> {
        let start = chars.next().map(|(j, _)| j).ok_or("truncated \\u escape")?;
        for _ in 0..3 {
            chars.next().ok_or("truncated \\u escape")?;
        }
        let hex = self.rest.get(start..start + 4).ok_or("bad \\u escape")?;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.skip_ws();
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err("expected an unsigned integer".into());
        }
        let (digits, rest) = self.rest.split_at(end);
        self.rest = rest;
        digits
            .parse()
            .map_err(|_| format!("integer out of range: {digits}"))
    }
}

/// NDJSON file source (one record object per line; blank lines and `#`
/// comments skipped).
pub struct NdjsonFileSource {
    inner: LineSource<std::io::BufReader<std::fs::File>>,
}

impl NdjsonFileSource {
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        Ok(Self {
            inner: LineSource::new(
                path.display().to_string(),
                std::io::BufReader::new(file),
                parse_ndjson_line,
            ),
        })
    }
}

impl RecordSource for NdjsonFileSource {
    fn name(&self) -> &str {
        &self.inner.stats.name
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<KeyphraseRecord>) -> Result<(), String> {
        self.inner.next_batch(max, out)
    }

    fn stats(&self) -> &SourceStats {
        &self.inner.stats
    }
}

/// Opens a file source, picking the format from the extension:
/// `.ndjson` / `.jsonl` → NDJSON, everything else → TSV.
pub fn open_file_source(path: impl AsRef<Path>) -> Result<Box<dyn RecordSource>, String> {
    let path = path.as_ref();
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    if ext.eq_ignore_ascii_case("ndjson") || ext.eq_ignore_ascii_case("jsonl") {
        Ok(Box::new(NdjsonFileSource::open(path)?))
    } else {
        Ok(Box::new(TsvFileSource::open(path)?))
    }
}

// ====================================================================
// marketsim
// ====================================================================

/// A [`graphex_marketsim::ChurnCorpus`] generation as a record source.
pub struct MarketsimSource {
    stats: SourceStats,
    records: std::vec::IntoIter<KeyphraseRecord>,
}

impl MarketsimSource {
    /// Snapshots the corpus's *current* generation. The corpus stays with
    /// the caller, who can `advance()` it and take another source for the
    /// next build.
    pub fn new(corpus: &ChurnCorpus) -> Self {
        let name = format!(
            "marketsim:{}:gen{}",
            corpus.marketplace().spec.name.to_lowercase(),
            corpus.generation()
        );
        Self {
            stats: SourceStats::named(name),
            records: corpus.records().into_iter(),
        }
    }
}

impl RecordSource for MarketsimSource {
    fn name(&self) -> &str {
        &self.stats.name
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<KeyphraseRecord>) -> Result<(), String> {
        out.clear();
        out.extend(self.records.by_ref().take(max));
        self.stats.records += out.len() as u64;
        Ok(())
    }

    fn stats(&self) -> &SourceStats {
        &self.stats
    }
}

/// In-memory source (tests and programmatic callers).
pub struct VecSource {
    stats: SourceStats,
    records: std::vec::IntoIter<KeyphraseRecord>,
}

impl VecSource {
    pub fn new(name: impl Into<String>, records: Vec<KeyphraseRecord>) -> Self {
        Self {
            stats: SourceStats::named(name),
            records: records.into_iter(),
        }
    }
}

impl RecordSource for VecSource {
    fn name(&self) -> &str {
        &self.stats.name
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<KeyphraseRecord>) -> Result<(), String> {
        out.clear();
        out.extend(self.records.by_ref().take(max));
        self.stats.records += out.len() as u64;
        Ok(())
    }

    fn stats(&self) -> &SourceStats {
        &self.stats
    }
}

/// Wraps an NRT overlay journal as a record source (the compaction
/// ingest path): the journal's raw upsert records join the build's other
/// sources, so overlay-then-compact rides the pipeline's determinism
/// contract — feeding the same records any other way produces the same
/// snapshot bytes.
pub fn overlay_journal_source(journal: &graphex_serving::OverlayJournal) -> VecSource {
    VecSource::new(
        format!("overlay-journal:upto{}", journal.upto),
        journal.records(),
    )
}

/// Opens a serialized overlay journal file (the `GET /v1/overlay/journal`
/// export / `graphex overlay status --journal` output) as a record
/// source. Returns the source and the journal's `upto` sequence — the
/// drain watermark to pass back to the server once the compacted
/// snapshot is published.
pub fn open_overlay_journal_source(
    path: impl AsRef<Path>,
) -> Result<(Box<dyn RecordSource>, u64), String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let journal = graphex_serving::OverlayJournal::parse(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let upto = journal.upto;
    Ok((Box::new(overlay_journal_source(&journal)), upto))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_line_parses_and_rejects() {
        let rec = KeyphraseRecord::from_tsv("gaming headphones\t42\t800\t700").unwrap();
        assert_eq!(rec.text, "gaming headphones");
        assert_eq!(rec.leaf, LeafId(42));
        assert!(KeyphraseRecord::from_tsv("text only").is_err());
        assert!(KeyphraseRecord::from_tsv("text\tx\t1\t2").is_err());
        assert!(KeyphraseRecord::from_tsv("a\t1\t2\t3\t4").is_err());
    }

    #[test]
    fn overlay_journal_file_round_trips_into_a_source() {
        let store = graphex_serving::OverlayStore::new();
        let base = graphex_core::GraphExBuilder::new({
            let mut c = graphex_core::GraphExConfig::default();
            c.curation.min_search_count = 0;
            c
        })
        .add_record(KeyphraseRecord::new("base widget", LeafId(1), 10, 1))
        .build()
        .unwrap();
        store
            .apply(
                &base,
                &[
                    KeyphraseRecord::new("overlay widget", LeafId(1), 20, 2),
                    KeyphraseRecord::new("novel gadget", LeafId(9), 30, 3),
                ],
            )
            .unwrap();
        let path = std::env::temp_dir().join(format!(
            "graphex-journal-src-{}.journal",
            std::process::id()
        ));
        std::fs::write(&path, store.export_journal().to_text()).unwrap();

        let (mut source, upto) = open_overlay_journal_source(&path).unwrap();
        assert_eq!(upto, 2);
        let mut out = Vec::new();
        source.next_batch(16, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].text, "overlay widget");
        assert_eq!(out[1].leaf, LeafId(9));
        assert_eq!(source.stats().records, 2);

        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(open_overlay_journal_source(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ndjson_line_parses_and_rejects() {
        let rec = parse_ndjson_line(
            r#"{"text": "usb c charger", "leaf": 9, "search": 500, "recall": 50}"#,
        )
        .unwrap();
        assert_eq!(rec.text, "usb c charger");
        assert_eq!(rec.leaf, LeafId(9));
        assert_eq!((rec.search_count, rec.recall_count), (500, 50));

        // alias keys + reordering + escapes
        let rec =
            parse_ndjson_line(r#"{"recall_count":1,"search_count":2,"leaf":3,"text":"a \"b\" c"}"#)
                .unwrap();
        assert_eq!(rec.text, "a \"b\" c");
        assert_eq!((rec.search_count, rec.recall_count), (2, 1));

        // Surrogate pairs (how ensure_ascii JSON emitters encode non-BMP
        // chars) must decode, not drop the record.
        let rec = parse_ndjson_line(
            r#"{"text":"\ud83d\udca5 sale \u00e9","leaf":1,"search":2,"recall":3}"#,
        )
        .unwrap();
        assert_eq!(rec.text, "💥 sale é");

        for bad in [
            "",
            "{}",
            r#"{"text":"a"}"#,
            r#"{"text":"\ud83d oops","leaf":1,"search":2,"recall":3}"#,
            r#"{"text":"\ud83da","leaf":1,"search":2,"recall":3}"#,
            r#"{"text":"a","leaf":1,"search":2,"recall":3} trailing"#,
            r#"{"text":"a","leaf":-1,"search":2,"recall":3}"#,
            r#"{"text":"a","leaf":1,"search":2,"recall":3,"extra":4}"#,
            r#"{"text":"","leaf":1,"search":2,"recall":3}"#,
            r#"{"text":"a","leaf":99999999999,"search":2,"recall":3}"#,
        ] {
            assert!(parse_ndjson_line(bad).is_err(), "accepted: {bad}");
        }
    }

    fn tmpfile(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphex-pipeline-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    fn drain(source: &mut dyn RecordSource) -> Vec<KeyphraseRecord> {
        let mut all = Vec::new();
        let mut batch = Vec::new();
        loop {
            source.next_batch(3, &mut batch).unwrap();
            if batch.is_empty() {
                return all;
            }
            all.append(&mut batch);
        }
    }

    #[test]
    fn tsv_source_counts_errors_and_skips() {
        let path = tmpfile(
            "mixed.tsv",
            "# header\n\na b\t1\t5\t6\nbroken line\nc d\t2\t7\t8\ne\tx\t1\t1\n",
        );
        let mut source = TsvFileSource::open(&path).unwrap();
        let records = drain(&mut source);
        assert_eq!(records.len(), 2);
        let stats = source.stats();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.skipped, 2);
        assert_eq!(stats.parse_errors, 2);
        assert_eq!(stats.error_sample.len(), 2);
        assert!(
            stats.error_sample[0].contains("line 4"),
            "{:?}",
            stats.error_sample
        );
    }

    #[test]
    fn ndjson_source_reads_batches() {
        let lines: Vec<String> = (0..7)
            .map(|i| {
                format!(
                    r#"{{"text":"phrase {i}","leaf":{},"search":10,"recall":1}}"#,
                    i % 2
                )
            })
            .collect();
        let path = tmpfile("batch.ndjson", &(lines.join("\n") + "\nnot json\n"));
        let mut source = NdjsonFileSource::open(&path).unwrap();
        let records = drain(&mut source);
        assert_eq!(records.len(), 7);
        assert_eq!(source.stats().parse_errors, 1);
    }

    #[test]
    fn open_file_source_picks_format_by_extension() {
        let tsv = tmpfile("by-ext.tsv", "a b\t1\t5\t6\n");
        let ndjson = tmpfile(
            "by-ext.ndjson",
            r#"{"text":"a b","leaf":1,"search":5,"recall":6}"#,
        );
        for path in [tsv, ndjson] {
            let mut source = open_file_source(&path).unwrap();
            assert_eq!(drain(source.as_mut()).len(), 1, "{}", path.display());
        }
        assert!(open_file_source("/nonexistent/x.tsv").is_err());
    }

    #[test]
    fn marketsim_source_is_deterministic() {
        let corpus = ChurnCorpus::new(graphex_marketsim::CategorySpec::tiny(5), 0.1);
        let a = drain(&mut MarketsimSource::new(&corpus));
        let b = drain(&mut MarketsimSource::new(&corpus));
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
