//! The mutable overlay store: seconds-latency upserts over an immutable
//! snapshot, drained by the next delta-build compaction.
//!
//! An [`OverlayStore`] owns two things:
//!
//! * the **journal** — the append-only sequence of raw upserted
//!   [`KeyphraseRecord`]s, exactly as received. This is the compaction
//!   currency: `graphex build --delta --overlay-journal` feeds these
//!   records into the build pipeline as one more record source, so the
//!   compacted snapshot is byte-identical to a direct rebuild of the
//!   union corpus (the pipeline's determinism property does the proof).
//! * the **view** — an `Arc<OverlayView>` composed from the journal's
//!   records, swapped atomically after every accepted upsert batch.
//!   Readers clone the `Arc` and never block on writers. An upsert hands
//!   the view only its own records: each overlaid leaf keeps its staged
//!   (tokenized, interned) records inside the view, so a write to an
//!   already-overlaid leaf re-assembles that leaf's mini graph in
//!   integers. The staging lives and dies with the leaf's presence in
//!   the view — [`OverlayStore::drain`] and [`OverlayStore::rebase`]
//!   rebuild the view from the journal against the base they are given,
//!   which is why [`OverlayStore::apply`] must see that same base.
//!
//! Writes are bounded: once the uncompacted journal exceeds
//! `cap_bytes`, further upserts are shed with [`OverlayError::CapExceeded`]
//! (the HTTP edge maps it to `429` + `Retry-After`) — compaction, not
//! unbounded growth, is the steady state. After a compaction publishes,
//! [`OverlayStore::drain`] atomically drops every journal entry the new
//! snapshot absorbed (identified by the export's `upto` sequence) and
//! rebuilds the view from whatever arrived since the export.
//!
//! KV interaction: `ServingApi` tags each cached answer with the overlay
//! sequence it is known fresh through, and asks
//! [`OverlayStore`]'s freshness check before serving it. The store keeps,
//! per leaf and under one lock, the sequence of the last accepted write
//! and, for each stemmed word an upserted record carried (keyed by its
//! 64-bit Fx hash, [`OverlayView::word_hashes`]), the last write that
//! carried it. An answer tagged at or past the leaf's last write is fresh
//! — the fast path, one lookup. Otherwise it is stale only if a write
//! after its tag carried a word of its title: an overlaid leaf answers a
//! title that shares no stemmed word with its delta exactly as it did
//! before (see `graphex_core::overlay`), so every other answer still
//! holds, and serving re-tags it with the leaf's last write. A hash
//! collision can only make an answer look stale. A write that creates a
//! leaf the base has no graph for changes every title's outcome in it,
//! so it stales the whole leaf; so does forgetting old words, which
//! keeps a leaf's record bounded. Invalidation is lazy, through the
//! existing single-flight read-through.

use crate::sync::{lock, read, write};
use graphex_core::{GraphExModel, KeyphraseRecord, LeafId, OverlayView};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Default journal cap: plenty for an inter-compaction window, small
/// enough that a stuck compactor surfaces as 429s instead of OOM.
pub const DEFAULT_OVERLAY_CAP_BYTES: usize = 8 * 1024 * 1024;

/// Seconds a shed writer is told to wait before retrying (the expected
/// order of a compaction cycle, not a precise promise).
pub const SHED_RETRY_AFTER_SECS: u64 = 5;

/// One journal entry: a raw upserted record and the global sequence
/// number it was accepted at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    pub seq: u64,
    pub record: KeyphraseRecord,
}

/// Why an upsert was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayError {
    /// The uncompacted journal would exceed the configured cap; retry
    /// after the next compaction drains it.
    CapExceeded {
        cap_bytes: usize,
        journal_bytes: usize,
        retry_after_secs: u64,
    },
    /// A record failed validation (empty text, or text containing the
    /// tab/newline bytes the journal interchange format reserves).
    Invalid(String),
}

impl std::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlayError::CapExceeded { cap_bytes, journal_bytes, .. } => write!(
                f,
                "overlay journal at {journal_bytes} bytes would exceed the {cap_bytes}-byte cap; retry after compaction"
            ),
            OverlayError::Invalid(what) => write!(f, "invalid upsert record: {what}"),
        }
    }
}

impl std::error::Error for OverlayError {}

/// Acknowledgement of an accepted upsert batch. Once returned, every
/// record in the batch is servable: the view swap happens before the ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpsertAck {
    /// Sequence of the last record in the batch.
    pub seq: u64,
    /// Records applied in this batch.
    pub applied: usize,
    /// Uncompacted journal depth (records) after the batch.
    pub depth: usize,
    /// Approximate uncompacted journal bytes after the batch.
    pub journal_bytes: usize,
}

/// Result of a [`OverlayStore::drain`] after compaction publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Journal entries dropped (absorbed by the published snapshot).
    pub drained: usize,
    /// Entries still pending (arrived after the journal export).
    pub remaining: usize,
}

/// A point-in-time snapshot of overlay accounting, for `/statusz`,
/// `/metrics`, and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlayStatus {
    /// Last assigned global sequence.
    pub seq: u64,
    /// Highest sequence already compacted away.
    pub drained_upto: u64,
    /// Uncompacted journal depth (records).
    pub depth: usize,
    /// Approximate uncompacted journal bytes.
    pub journal_bytes: usize,
    /// Configured journal cap.
    pub cap_bytes: usize,
    /// Leaves currently overlaid in the live view.
    pub leaves: usize,
    /// Upsert batches accepted.
    pub upserts_applied: u64,
    /// Records accepted across all batches.
    pub records_applied: u64,
    /// Upsert batches shed at the cap.
    pub upserts_shed: u64,
    /// Compaction drains performed.
    pub drains: u64,
    /// Wall time spent inside [`OverlayStore::apply`] by accepted
    /// batches, in microseconds (÷ `upserts_applied` = mean apply time).
    pub apply_micros_total: u64,
}

#[derive(Debug, Default)]
struct OverlayInner {
    /// The one owner of the pending records; the view holds them staged.
    journal: Vec<JournalEntry>,
    seq: u64,
    drained_upto: u64,
    journal_bytes: usize,
}

/// Words a leaf's write record keeps: past this many it forgets the
/// older half (see [`LeafWrites::bound`]), so the record stays bounded
/// however many distinct words are upserted — every upsert of a seller
/// may carry a word no other does.
const WORDS_PER_LEAF: usize = 4096;

/// What accepted writes did to one leaf, for the freshness rule (module
/// doc). Monotone: a leaf's record is never removed.
#[derive(Debug, Default)]
struct LeafWrites {
    /// The last accepted write to the leaf.
    seq: u64,
    /// Every answer older than this is stale, whatever its title: the
    /// last write that created the leaf in the view while the base had
    /// no graph for it, or the newest write whose words were forgotten.
    floor: u64,
    /// Hash of each stemmed word an upserted record carried → the last
    /// write that carried it. Words and leaves come from outside the
    /// program, so both maps keep the default hasher.
    words: HashMap<u64, u64>,
}

impl LeafWrites {
    /// Keeps at most [`WORDS_PER_LEAF`] words: past that, forgets the
    /// older half and raises the floor to the newest write it forgot —
    /// an answer that old can no longer be verified, so it goes stale.
    fn bound(&mut self) {
        if self.words.len() <= WORDS_PER_LEAF {
            return;
        }
        let mut seqs: Vec<u64> = self.words.values().copied().collect();
        let half = seqs.len() / 2;
        let forgotten = *seqs.select_nth_unstable(half).1;
        self.words.retain(|_, &mut seq| seq > forgotten);
        self.floor = self.floor.max(forgotten);
    }
}

/// Whether an answer computed through some overlay sequence still holds
/// (see [`OverlayStore::freshness`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Freshness {
    /// No write to its leaf since.
    Fresh,
    /// Writes to its leaf since, none to a word of its title: it holds
    /// through the leaf's last write, this sequence.
    Verified(u64),
    /// A write since can change it.
    Stale,
}

/// A request's title, its words hashed the way the overlay keys written
/// words — on first need, and then once for the whole request.
pub(crate) struct TitleWords<'a> {
    title: &'a str,
    hashes: Option<Vec<u64>>,
}

impl<'a> TitleWords<'a> {
    pub(crate) fn new(title: &'a str) -> Self {
        Self {
            title,
            hashes: None,
        }
    }

    fn hashes(&mut self, store: &OverlayStore) -> &[u64] {
        self.hashes
            .get_or_insert_with(|| store.view().word_hashes(self.title))
    }
}

/// The serving-side mutable overlay (see module docs).
#[derive(Debug)]
pub struct OverlayStore {
    inner: Mutex<OverlayInner>,
    view: RwLock<Arc<OverlayView>>,
    /// Per leaf, what accepted writes did to it.
    writes: RwLock<HashMap<u32, LeafWrites>>,
    cap_bytes: usize,
    upserts_applied: AtomicU64,
    records_applied: AtomicU64,
    upserts_shed: AtomicU64,
    drains: AtomicU64,
    apply_nanos: AtomicU64,
}

impl OverlayStore {
    /// An empty store with the default cap.
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_OVERLAY_CAP_BYTES)
    }

    /// An empty store shedding writes past `cap_bytes` of journal.
    pub fn with_cap(cap_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(OverlayInner::default()),
            view: RwLock::new(Arc::new(OverlayView::empty())),
            writes: RwLock::new(HashMap::new()),
            cap_bytes,
            upserts_applied: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            upserts_shed: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            apply_nanos: AtomicU64::new(0),
        }
    }

    /// The configured journal cap in bytes.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// The live composed view (cheap `Arc` clone; never blocks writers
    /// for longer than the swap).
    pub fn view(&self) -> Arc<OverlayView> {
        Arc::clone(&read(&self.view))
    }

    /// Sequence of the last accepted write touching `leaf` (0 if never
    /// written).
    pub fn leaf_seq(&self, leaf: LeafId) -> u64 {
        read(&self.writes)
            .get(&leaf.0)
            .map_or(0, |writes| writes.seq)
    }

    /// Whether an answer for `title` in `leaf`, known fresh through
    /// overlay sequence `epoch`, still holds (module doc): fresh when no
    /// write touched the leaf after `epoch`; else stale when `epoch` is
    /// below the leaf's floor (a later write created the leaf, or the
    /// words written since were forgotten) or a later write carried a
    /// word of the title, and verified through the leaf's last write
    /// otherwise. The title is tokenized
    /// only past the fast path, and at most once per `title`.
    pub(crate) fn freshness(
        &self,
        leaf: LeafId,
        epoch: u64,
        title: &mut TitleWords<'_>,
    ) -> Freshness {
        match read(&self.writes).get(&leaf.0) {
            Some(writes) if epoch < writes.floor => return Freshness::Stale,
            Some(writes) if epoch < writes.seq => {}
            _ => return Freshness::Fresh,
        }
        let words = title.hashes(self);
        // Decided under one read of the leaf's record: the sequence it is
        // verified through is the last write this check saw.
        let all = read(&self.writes);
        let writes = all.get(&leaf.0).expect("a leaf's record is never removed");
        let written = |hash| writes.words.get(hash).is_some_and(|&seq| seq > epoch);
        if epoch < writes.floor || words.iter().any(written) {
            Freshness::Stale
        } else {
            Freshness::Verified(writes.seq)
        }
    }

    /// Applies a batch of raw upsert records against `base`,
    /// re-assembling the affected leaves' mini graphs and swapping the
    /// view **before** acknowledging — an acked record is servable by the
    /// very next request. All-or-nothing: a shed or invalid batch changes
    /// nothing. `base` must be the model of the last [`OverlayStore::drain`]
    /// or [`OverlayStore::rebase`] (the first `apply`'s, before either).
    pub fn apply(
        &self,
        base: &GraphExModel,
        records: &[KeyphraseRecord],
    ) -> Result<UpsertAck, OverlayError> {
        let started = Instant::now();
        if records.is_empty() {
            return Err(OverlayError::Invalid("empty upsert batch".into()));
        }
        for rec in records {
            if rec.text.is_empty() {
                return Err(OverlayError::Invalid("empty keyphrase text".into()));
            }
            if rec.text.contains('\t') || rec.text.contains('\n') || rec.text.contains('\r') {
                return Err(OverlayError::Invalid(format!(
                    "keyphrase text contains reserved control characters: {:?}",
                    rec.text
                )));
            }
        }
        let added_bytes: usize = records.iter().map(Self::record_bytes).sum();

        let mut inner = lock(&self.inner);
        if inner.journal_bytes + added_bytes > self.cap_bytes {
            self.upserts_shed.fetch_add(1, Ordering::Relaxed);
            return Err(OverlayError::CapExceeded {
                cap_bytes: self.cap_bytes,
                journal_bytes: inner.journal_bytes,
                retry_after_secs: SHED_RETRY_AFTER_SECS,
            });
        }

        let mut touched: Vec<LeafId> = Vec::new();
        for rec in records {
            inner.seq += 1;
            let seq = inner.seq;
            inner.journal.push(JournalEntry {
                seq,
                record: rec.clone(),
            });
            if !touched.contains(&rec.leaf) {
                touched.push(rec.leaf);
            }
        }
        inner.journal_bytes += added_bytes;
        let seq = inner.seq;

        // Each touched leaf takes its own records of the batch; the rest
        // of the view is shared.
        let before = self.view();
        let mut view = Arc::clone(&before);
        for &leaf in &touched {
            let added = records.iter().filter(|rec| rec.leaf == leaf);
            view = Arc::new(view.with_leaf(base, leaf, added, seq));
        }
        let ack = UpsertAck {
            seq,
            applied: records.len(),
            depth: inner.journal.len(),
            journal_bytes: inner.journal_bytes,
        };
        let hashed: Vec<(LeafId, Vec<u64>)> = records
            .iter()
            .map(|rec| (rec.leaf, view.word_hashes(&rec.text)))
            .collect();
        {
            // Recorded before the view swaps in: a reader that sees the
            // new view also sees what it invalidates.
            let mut writes = write(&self.writes);
            for &leaf in &touched {
                let leaf_writes = writes.entry(leaf.0).or_default();
                leaf_writes.seq = seq;
                if base.leaf_graph(leaf).is_none() && !before.covers(leaf) {
                    leaf_writes.floor = seq;
                }
            }
            for (leaf, hashes) in hashed {
                let leaf_writes = writes
                    .get_mut(&leaf.0)
                    .expect("every record's leaf is touched");
                leaf_writes
                    .words
                    .extend(hashes.into_iter().map(|hash| (hash, seq)));
            }
            for leaf in &touched {
                writes.get_mut(&leaf.0).expect("touched above").bound();
            }
        }
        *write(&self.view) = view;
        drop(inner);

        self.upserts_applied.fetch_add(1, Ordering::Relaxed);
        self.records_applied
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        self.apply_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(ack)
    }

    /// Exports the current journal for compaction. The export's `upto`
    /// sequence is what the compactor hands back to [`OverlayStore::drain`]
    /// after the compacted snapshot publishes, so records upserted during
    /// the compaction window survive the drain.
    pub fn export_journal(&self) -> OverlayJournal {
        let inner = lock(&self.inner);
        OverlayJournal {
            upto: inner.seq,
            entries: inner.journal.clone(),
        }
    }

    /// Atomically drops every journal entry with `seq <= upto` (absorbed
    /// by a published compaction) and rebuilds the view from the
    /// remainder against the **new** base model.
    pub fn drain(&self, base: &GraphExModel, upto: u64) -> DrainReport {
        let mut inner = lock(&self.inner);
        let OverlayInner {
            journal,
            seq,
            drained_upto,
            journal_bytes,
        } = &mut *inner;
        let before = journal.len();
        journal.retain(|e| e.seq > upto);
        let remaining = journal.len();
        *drained_upto = (*drained_upto).max(upto);
        *journal_bytes = journal.iter().map(|e| Self::record_bytes(&e.record)).sum();
        self.rebuild_view(base, journal, *seq);
        drop(inner);
        self.drains.fetch_add(1, Ordering::Relaxed);
        DrainReport {
            drained: before - remaining,
            remaining,
        }
    }

    /// Re-composes the live view against a *new* base model without
    /// touching the journal — called after a (non-compaction) snapshot
    /// hot-swap so overlaid leaves merge against what is actually
    /// serving.
    pub fn rebase(&self, base: &GraphExModel) {
        let inner = lock(&self.inner);
        self.rebuild_view(base, &inner.journal, inner.seq);
    }

    /// Swaps in a view staged afresh from `journal` against `base`
    /// (caller holds the store mutex).
    fn rebuild_view(&self, base: &GraphExModel, journal: &[JournalEntry], seq: u64) {
        let mut pending: BTreeMap<LeafId, Vec<KeyphraseRecord>> = BTreeMap::new();
        for entry in journal {
            pending
                .entry(entry.record.leaf)
                .or_default()
                .push(entry.record.clone());
        }
        let view = Arc::new(OverlayView::build(base, &pending, seq));
        *write(&self.view) = view;
    }

    /// Point-in-time accounting.
    pub fn status(&self) -> OverlayStatus {
        let inner = lock(&self.inner);
        let leaves = self.view().num_leaves();
        OverlayStatus {
            seq: inner.seq,
            drained_upto: inner.drained_upto,
            depth: inner.journal.len(),
            journal_bytes: inner.journal_bytes,
            cap_bytes: self.cap_bytes,
            leaves,
            upserts_applied: self.upserts_applied.load(Ordering::Relaxed),
            records_applied: self.records_applied.load(Ordering::Relaxed),
            upserts_shed: self.upserts_shed.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            apply_micros_total: self.apply_nanos.load(Ordering::Relaxed) / 1_000,
        }
    }

    fn record_bytes(rec: &KeyphraseRecord) -> usize {
        // text + leaf/search/recall + per-entry bookkeeping.
        rec.text.len() + 24
    }
}

impl Default for OverlayStore {
    fn default() -> Self {
        Self::new()
    }
}

// ====================================================================
// Journal interchange format
// ====================================================================

/// A serialized overlay journal: the interchange between a serving
/// process and the compacting build (`graphex build --delta
/// --overlay-journal <file>`).
///
/// Text format, one record per line after a two-line header:
///
/// ```text
/// graphex-overlay-journal 1
/// upto <last exported sequence>
/// <seq>\t<text>\t<leaf>\t<search>\t<recall>
/// ...
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OverlayJournal {
    /// Last sequence covered by this export ([`OverlayStore::drain`]'s
    /// argument once the compaction publishes).
    pub upto: u64,
    /// Entries in sequence order.
    pub entries: Vec<JournalEntry>,
}

impl OverlayJournal {
    /// The raw records, in sequence order — what the build pipeline
    /// ingests as one more record source.
    pub fn records(&self) -> Vec<KeyphraseRecord> {
        self.entries.iter().map(|e| e.record.clone()).collect()
    }

    /// Serializes to the interchange text format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.entries.len() * 48);
        out.push_str("graphex-overlay-journal 1\n");
        let _ = writeln!(out, "upto {}", self.upto);
        for entry in &self.entries {
            let _ = writeln!(out, "{}\t{}", entry.seq, entry.record.tsv());
        }
        out
    }

    /// Parses the interchange text format (inverse of
    /// [`OverlayJournal::to_text`]).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("graphex-overlay-journal 1") => {}
            Some(other) => return Err(format!("not an overlay journal (header {other:?})")),
            None => return Err("empty journal file".into()),
        }
        let upto = match lines.next().and_then(|l| l.strip_prefix("upto ")) {
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("bad upto value {v:?}"))?,
            None => return Err("missing upto header line".into()),
        };
        let mut entries = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("journal line {}: {what}", i + 3);
            let (seq, record) = line.split_once('\t').ok_or_else(|| err("missing text"))?;
            let seq: u64 = seq.parse().map_err(|_| err("seq is not a number"))?;
            let record = KeyphraseRecord::from_tsv(record).map_err(|e| err(&e))?;
            entries.push(JournalEntry { seq, record });
        }
        Ok(Self { upto, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::{GraphExBuilder, GraphExConfig, InferRequest, Outcome};

    fn base() -> GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
                KeyphraseRecord::new("gaming headphones xbox", LeafId(7), 800, 700),
            ])
            .build()
            .unwrap()
    }

    fn rec(text: &str, leaf: u32, s: u32, r: u32) -> KeyphraseRecord {
        KeyphraseRecord::new(text, LeafId(leaf), s, r)
    }

    #[test]
    fn apply_makes_new_leaf_servable_before_ack_returns() {
        let model = base();
        let store = OverlayStore::new();
        let ack = store
            .apply(&model, &[rec("ski goggles anti fog", 9, 50, 5)])
            .unwrap();
        assert_eq!(ack.seq, 1);
        assert_eq!(ack.applied, 1);
        // The view visible after the ack serves the new leaf.
        let view = store.view();
        let mut scratch = graphex_core::Scratch::new();
        let resp = view
            .infer_request(
                &InferRequest::new("anti fog ski goggles", LeafId(9)).resolve_texts(true),
                &mut scratch,
            )
            .unwrap();
        assert_eq!(resp.outcome, Outcome::ExactLeaf);
        assert_eq!(resp.texts[0], "ski goggles anti fog");
        assert_eq!(store.leaf_seq(LeafId(9)), 1);
        assert_eq!(store.leaf_seq(LeafId(7)), 0);
    }

    #[test]
    fn cap_sheds_without_mutating() {
        let model = base();
        let store = OverlayStore::with_cap(64);
        store
            .apply(&model, &[rec("fits under cap", 9, 1, 1)])
            .unwrap();
        let err = store
            .apply(
                &model,
                &[rec(
                    "this batch pushes the journal past the tiny cap",
                    9,
                    1,
                    1,
                )],
            )
            .unwrap_err();
        assert!(matches!(err, OverlayError::CapExceeded { .. }));
        let status = store.status();
        assert_eq!(status.depth, 1);
        assert_eq!(status.upserts_shed, 1);
        assert_eq!(store.view().num_records(), 1);
    }

    #[test]
    fn invalid_records_are_rejected() {
        let model = base();
        let store = OverlayStore::new();
        assert!(matches!(
            store.apply(&model, &[]),
            Err(OverlayError::Invalid(_))
        ));
        assert!(matches!(
            store.apply(&model, &[rec("has\ttab", 1, 1, 1)]),
            Err(OverlayError::Invalid(_))
        ));
        assert!(matches!(
            store.apply(&model, &[rec("", 1, 1, 1)]),
            Err(OverlayError::Invalid(_))
        ));
        assert_eq!(store.status().depth, 0);
    }

    #[test]
    fn journal_round_trips_through_text() {
        let model = base();
        let store = OverlayStore::new();
        store
            .apply(
                &model,
                &[
                    rec("ski goggles", 9, 50, 5),
                    rec("audeze maxwell", 7, 10, 1),
                ],
            )
            .unwrap();
        store
            .apply(&model, &[rec("snow helmet kids", 10, 30, 3)])
            .unwrap();
        let journal = store.export_journal();
        assert_eq!(journal.upto, 3);
        let parsed = OverlayJournal::parse(&journal.to_text()).unwrap();
        assert_eq!(parsed, journal);
        assert_eq!(parsed.records().len(), 3);
    }

    #[test]
    fn journal_parse_rejects_garbage() {
        assert!(OverlayJournal::parse("").is_err());
        assert!(OverlayJournal::parse("not a journal\nupto 0\n").is_err());
        assert!(OverlayJournal::parse("graphex-overlay-journal 1\n").is_err());
        assert!(OverlayJournal::parse("graphex-overlay-journal 1\nupto x\n").is_err());
        assert!(
            OverlayJournal::parse("graphex-overlay-journal 1\nupto 1\n1\tonly text\n").is_err()
        );
        assert!(
            OverlayJournal::parse("graphex-overlay-journal 1\nupto 1\n1\ta\t2\t3\t4\t5\n").is_err()
        );
    }

    #[test]
    fn drain_drops_absorbed_entries_and_keeps_late_arrivals() {
        let model = base();
        let store = OverlayStore::new();
        store
            .apply(&model, &[rec("ski goggles", 9, 50, 5)])
            .unwrap();
        store
            .apply(&model, &[rec("snow helmet", 10, 30, 3)])
            .unwrap();
        let journal = store.export_journal();
        assert_eq!(journal.upto, 2);
        // A write lands while the compaction is building/publishing.
        store
            .apply(&model, &[rec("snow gloves", 11, 20, 2)])
            .unwrap();

        let report = store.drain(&model, journal.upto);
        assert_eq!(
            report,
            DrainReport {
                drained: 2,
                remaining: 1
            }
        );
        let status = store.status();
        assert_eq!(status.depth, 1);
        assert_eq!(status.drained_upto, 2);
        assert_eq!(status.drains, 1);
        // The drained leaves fell out of the view; the late arrival stays.
        let view = store.view();
        assert!(!view.covers(LeafId(9)));
        assert!(!view.covers(LeafId(10)));
        assert!(view.covers(LeafId(11)));
        // Per-leaf sequences stay monotone so stale KV entries for the
        // drained leaves never look fresher than post-drain writes.
        assert_eq!(store.leaf_seq(LeafId(9)), 1);
    }

    #[test]
    fn rebase_recomposes_against_a_new_model() {
        let model = base();
        let store = OverlayStore::new();
        store
            .apply(&model, &[rec("audeze maxwell xbox edition", 7, 990, 10)])
            .unwrap();

        // A richer snapshot hot-swaps in (not a compaction of this
        // journal): the overlaid leaf must re-merge against it.
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let next = GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
                KeyphraseRecord::new("gaming headphones xbox", LeafId(7), 800, 700),
                KeyphraseRecord::new("wireless headphones xbox", LeafId(7), 650, 800),
            ])
            .build()
            .unwrap();
        store.rebase(&next);
        let view = store.view();
        let mut scratch = graphex_core::Scratch::new();
        let resp = view
            .infer_request(
                &InferRequest::new("wireless audeze maxwell xbox", LeafId(7))
                    .k(10)
                    .resolve_texts(true),
                &mut scratch,
            )
            .unwrap();
        assert!(resp.texts.iter().any(|t| t == "wireless headphones xbox"));
        assert!(resp
            .texts
            .iter()
            .any(|t| t == "audeze maxwell xbox edition"));
    }

    #[test]
    fn staging_lives_with_the_leaf_and_refused_batches_change_nothing() {
        let model = base();
        let first = rec("audeze maxwell xbox edition", 7, 990, 10);
        let second = rec("audeze maxwell wireless", 7, 500, 20);
        let cap = OverlayStore::record_bytes(&first) + OverlayStore::record_bytes(&second);
        let store = OverlayStore::with_cap(cap);
        store.apply(&model, std::slice::from_ref(&first)).unwrap();
        let staged = store.view().staged_base(LeafId(7)).unwrap();
        // The next upsert to the leaf extends the same staging.
        store.apply(&model, std::slice::from_ref(&second)).unwrap();
        let view = store.view();
        assert!(staged.ptr_eq(&view.staged_base(LeafId(7)).unwrap()));
        assert_eq!(
            staged.strong_count(),
            1,
            "only the live view's leaf holds it"
        );

        // A shed batch and an invalid one leave view, leaf_seq, journal
        // and staging exactly as they were.
        let journal = store.export_journal();
        let applied_micros = store.status().apply_micros_total;
        let shed = store.apply(&model, &[rec("one too many", 7, 1, 1)]);
        assert!(matches!(shed, Err(OverlayError::CapExceeded { .. })));
        let invalid = store.apply(&model, &[rec("has\ttab", 7, 1, 1)]);
        assert!(matches!(invalid, Err(OverlayError::Invalid(_))));
        assert!(Arc::ptr_eq(&view, &store.view()));
        assert_eq!(store.leaf_seq(LeafId(7)), 2);
        assert_eq!(store.export_journal(), journal);
        assert_eq!(staged.strong_count(), 1);
        let status = store.status();
        assert_eq!((status.upserts_applied, status.upserts_shed), (2, 1));
        assert_eq!(
            status.apply_micros_total, applied_micros,
            "accepted batches only"
        );

        // Once a drain takes the leaf out of the view, its staging goes.
        drop(view);
        store.drain(&model, journal.upto);
        assert!(!store.view().covers(LeafId(7)));
        assert!(staged.upgrade().is_none());
    }

    /// A leaf's write record stays bounded: past [`WORDS_PER_LEAF`]
    /// words it forgets the older half, and an answer older than what it
    /// forgot goes stale instead of being verified against words it no
    /// longer keeps. A newer answer is still verified.
    #[test]
    fn a_leaf_record_forgets_old_words_and_stales_answers_older_than_them() {
        let model = base();
        let store = OverlayStore::new();
        let leaf = LeafId(7);
        let title = "audeze maxwell";
        // 64 words a write, one write past the cap.
        let applies = WORDS_PER_LEAF / 64 + 1;
        for i in 0..applies {
            let words: Vec<String> = (0..64).map(|j| format!("nrt{i}x{j}")).collect();
            store
                .apply(&model, &[rec(&words.join(" "), 7, 10, 1)])
                .unwrap();
        }
        let last = store.leaf_seq(leaf);
        let writes = read(&store.writes);
        let (floor, kept) = (writes[&7].floor, writes[&7].words.len());
        drop(writes);
        assert!(
            kept <= WORDS_PER_LEAF && floor > 1,
            "kept {kept}, floor {floor}"
        );
        let fresh = |epoch, title: &str| store.freshness(leaf, epoch, &mut TitleWords::new(title));
        let newest = format!("{title} nrt{}x0", applies - 1);
        assert_eq!(fresh(floor - 1, title), Freshness::Stale);
        assert_eq!(fresh(floor, title), Freshness::Verified(last));
        assert_eq!(fresh(last - 1, &newest), Freshness::Stale);
        assert_eq!(fresh(last, title), Freshness::Fresh);
    }

    #[test]
    fn concurrent_upserts_and_reads_stay_consistent() {
        let model = Arc::new(base());
        let store = Arc::new(OverlayStore::new());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let store = Arc::clone(&store);
                let model = Arc::clone(&model);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        store
                            .apply(&model, &[rec(&format!("phrase {w} {i}"), 100 + w, 10, 1)])
                            .unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut scratch = graphex_core::Scratch::new();
                    for _ in 0..200 {
                        let view = store.view();
                        for leaf in 100..104 {
                            if let Some(resp) = view.infer_request(
                                &InferRequest::new("phrase 0 1", LeafId(leaf)),
                                &mut scratch,
                            ) {
                                assert!(matches!(
                                    resp.outcome,
                                    Outcome::ExactLeaf | Outcome::Empty
                                ));
                            }
                        }
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        let status = store.status();
        assert_eq!(status.seq, 100);
        assert_eq!(status.records_applied, 100);
        assert_eq!(store.view().num_records(), 100);
    }
}
