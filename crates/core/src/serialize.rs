//! Binary model format: `GEXM` v3 (zero-copy).
//!
//! A GraphEx model is a set of integer arrays plus two string tables. On
//! disk that is the `GEXM` magic, a version word, and a checksum trailer
//! around one layout ([`to_bytes`]): a fixed 32-byte header, a **section
//! directory**, and every array stored as a raw little-endian section on
//! an **8-byte boundary**. The loader borrows the CSR/label/score arrays
//! straight out of the load buffer ([`crate::storage::Bytes`]-backed
//! [`crate::storage::PodView`]s) — zero per-edge copies, and mmap-ready:
//! any `AsRef<[u8]>` owner with an 8-aligned base can back
//! [`from_shared`]. Only the string tables and the per-leaf word index
//! are materialized (O(strings + words)).
//!
//! v3 layout (little-endian throughout):
//!
//! ```text
//! off  0  magic            b"GEXM"
//! off  4  u32  version     (= 3)
//! off  8  u8   flags       (bit0 stemming, bit1 has_fallback)
//! off  9  u8   alignment   (0 LTA, 1 WMR, 2 JAC)
//! off 10  u16  reserved    (= 0)
//! off 12  u32  num_leaves
//! off 16  u64  directory_offset   (8-aligned, sections end here)
//! off 24  u32  section_count
//! off 28  u32  reserved    (= 0)
//! off 32  sections…        each padded to an 8-byte boundary
//!         directory        section_count × 32-byte entries:
//!                          (u32 kind, u32 owner, u64 offset,
//!                           u64 byte_len, u64 elem_count)
//!         u64 checksum     of everything above
//! ```
//!
//! | kind | section | elements | owner |
//! |---|---|---|---|
//! | 1 | leaf-id table | `u32` leaf ids, ascending | `!0` |
//! | 2 / 4 | token / keyphrase vocab **ends** | `u32`: where string *id* ends in the blob | `!0` |
//! | 3 / 5 | token / keyphrase vocab **blob** | the strings' UTF-8 back to back, id order | `!0` |
//! | 6–9 | row tokens, CSR offsets, CSR targets, labels | `u32` | leaf index, or `!0` for the meta fallback |
//! | 10 | label lengths | `u16` | 〃 |
//! | 11, 12 | search counts, recall counts | `u32` | 〃 |
//!
//! A string table on disk is [`Vocab`]'s own two buffers, so writing one
//! is two bulk copies and loading one is [`Vocab::from_parts`]: one UTF-8
//! validation of the blob, one pass over the ends (monotone, on char
//! boundaries, ending at the blob's end), one pass seating the id table
//! that refuses a duplicate. A string may be as long as the blob may be:
//! `u32::MAX` bytes.
//!
//! **The checksum** ([`checksum`]) reads the buffer as little-endian
//! `u64` words, the ragged tail zero-padded into a last word. Word *i* is
//! folded into lane *i* mod 4 — `lane = ((lane ^ word) × odd).rotl(29)` —
//! and the four lanes are folded the same way into a state seeded with
//! the byte length. Every step is a bijection of the lane for a fixed
//! word and of the word for a fixed lane, so **a change confined to one
//! word always changes the sum** (a flipped bit or byte is detected with
//! certainty, not with probability 1 − 2⁻⁶⁴), and four independent
//! multiply chains make a pass memory-bound where one byte-serial chain
//! was latency-bound. The sum over the payload is the trailer; the sum
//! over the whole file is what manifests record. The payload of a
//! well-formed file is whole words, so one walk yields both (the lanes
//! are read off at the payload's end and the walk carries on), and a
//! [`Hashed`] carries both with the bytes so that nothing downstream
//! sums again.
//!
//! [`to_bytes`] knows every section's length from the model: it makes
//! **one allocation**, of the file's exact size, copies each array in as
//! one slice, and sums once when the last byte is written.
//! Deserialization validates every structural invariant (checksum first,
//! then the version word, CSR monotonicity, parallel array lengths, label
//! ranges, section bounds/alignment) and fails with
//! [`GraphExError::Corrupt`] — or [`GraphExError::UnsupportedVersion`] for
//! a checksum-valid buffer of any other version — rather than panicking:
//! bad model files are an expected operational failure, not a bug.

use crate::alignment::Alignment;
use crate::error::{GraphExError, Result};
use crate::leaf_graph::LeafGraph;
use crate::model::GraphExModel;
use crate::storage::{AlignedBuf, Bytes, PodView};
use crate::types::LeafId;
use graphex_textkit::{FxHashMap, Vocab};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"GEXM";
/// The format version this module writes and reads.
pub const VERSION: u32 = 3;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 32;
/// Directory entry length in bytes.
pub const DIR_ENTRY_LEN: usize = 32;
/// Section owner value meaning "not a leaf graph" (tables, vocabs, the
/// meta-fallback graph).
pub const NO_OWNER: u32 = u32::MAX;

/// Section kinds (directory `kind` field).
pub mod section {
    pub const LEAF_TABLE: u32 = 1;
    pub const TOKENS_ENDS: u32 = 2;
    pub const TOKENS_BLOB: u32 = 3;
    pub const KEYPHRASES_ENDS: u32 = 4;
    pub const KEYPHRASES_BLOB: u32 = 5;
    pub const ROW_TOKENS: u32 = 6;
    pub const CSR_OFFSETS: u32 = 7;
    pub const CSR_TARGETS: u32 = 8;
    pub const LABELS: u32 = 9;
    pub const LABEL_LENS: u32 = 10;
    pub const SEARCH: u32 = 11;
    pub const RECALL: u32 = 12;
}

/// Sections that are not a graph's: the leaf table and two per vocab.
const TABLE_SECTIONS: usize = 5;
/// Sections per graph (each leaf, and the meta fallback).
const GRAPH_SECTIONS: usize = 7;

/// The lane checksum of `data` (module docs) — over a snapshot's payload
/// it is the trailer, over the whole file the value the registry and
/// `BUILDINFO` record. Holders of a [`Hashed`] have both already.
pub fn checksum(data: &[u8]) -> u64 {
    let mut sum = LaneSum::new();
    sum.absorb(data);
    sum.finish(data.len())
}

/// A snapshot buffer with the one checksum pass it needs already made.
///
/// The checksum is a running state: read off after the payload it *is*
/// the trailer a sound file stores, and read off again after those 8
/// bytes it *is* the whole-file checksum manifests record. [`hash`] walks
/// a buffer once and keeps both; [`Hashed::parse`] and
/// [`Hashed::inspect`] judge the buffer by them without reading it again,
/// and [`to_bytes`] returns one because it computed the same state to
/// write the trailer. Derefs to the bytes; compares equal when the bytes
/// do.
#[derive(Clone)]
pub struct Hashed {
    bytes: Bytes,
    sums: Sums,
}

/// The checksum of a buffer's payload (everything but its last 8 bytes)
/// and of the whole of it.
#[derive(Debug, Clone, Copy)]
struct Sums {
    payload: u64,
    file: u64,
}

/// Walks `data` once. Nothing is judged yet — not even the length — so
/// this cannot fail: the checks run, on the sums, when the buffer is
/// parsed or inspected.
pub fn hash(data: Bytes) -> Hashed {
    let sums = Sums::of(&data);
    Hashed { bytes: data, sums }
}

impl Hashed {
    /// The checksum of the whole buffer: what [`checksum`] would return.
    pub fn checksum(&self) -> u64 {
        self.sums.file
    }

    /// The buffer itself.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// Checks trailer, magic and version, then parses the model,
    /// borrowing all array sections from the buffer — [`from_shared`]
    /// without its checksum pass.
    pub fn parse(&self) -> Result<GraphExModel> {
        self.sums.check(&self.bytes)?;
        if self.bytes.as_ptr() as usize % 8 == 0 {
            parse_model(self.bytes.clone())
        } else {
            parse_model(Bytes::from_owner(AlignedBuf::copy_from(&self.bytes)))
        }
    }

    /// [`inspect`] without its checksum pass.
    pub fn inspect(&self) -> Result<SnapshotInfo> {
        self.sums.info(&self.bytes)
    }
}

impl std::ops::Deref for Hashed {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl AsRef<[u8]> for Hashed {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for Hashed {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Hashed {}

impl std::fmt::Debug for Hashed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Hashed({} bytes, checksum {:016x})",
            self.bytes.len(),
            self.sums.file
        )
    }
}

/// Serializes `model` (see the module docs for the layout); the result
/// loads zero-copy, and knows its own checksum from writing the trailer.
///
/// Every section's length is known before a byte is written, so the
/// buffer is allocated once at the file's exact size and each array is
/// copied in as a slice.
pub fn to_bytes(model: &GraphExModel) -> Hashed {
    let leaf_ids = sorted_leaf_ids(model);
    // Each graph with its section owner: the leaves by index, then the
    // fallback.
    let graphs = || {
        let leaves = leaf_ids.iter().enumerate();
        leaves
            .map(|(index, &leaf)| (index as u32, &model.leaves[&LeafId(leaf)]))
            .chain(
                model
                    .fallback
                    .as_deref()
                    .map(|fallback| (NO_OWNER, fallback)),
            )
    };

    let section_count = TABLE_SECTIONS + GRAPH_SECTIONS * graphs().count();
    let sections_len = padded(leaf_ids.len() * 4)
        + vocab_len(&model.tokens)
        + vocab_len(&model.keyphrases)
        + graphs().map(|(_, graph)| graph_len(graph)).sum::<usize>();
    let dir_offset = HEADER_LEN + sections_len;
    let file_len = dir_offset + section_count * DIR_ENTRY_LEN + 8;

    let mut out = Writer {
        buf: Vec::with_capacity(file_len),
        dir: Vec::with_capacity(section_count),
    };
    let buf = &mut out.buf;
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(model_flags(model));
    buf.push(alignment_tag(model.alignment));
    buf.extend_from_slice(&0u16.to_le_bytes()); // reserved
    buf.extend_from_slice(&(leaf_ids.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(dir_offset as u64).to_le_bytes());
    buf.extend_from_slice(&(section_count as u32).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // reserved
    debug_assert_eq!(buf.len(), HEADER_LEN);

    out.put_u32s(section::LEAF_TABLE, NO_OWNER, &leaf_ids);
    out.put_vocab(section::TOKENS_ENDS, section::TOKENS_BLOB, &model.tokens);
    out.put_vocab(
        section::KEYPHRASES_ENDS,
        section::KEYPHRASES_BLOB,
        &model.keyphrases,
    );
    for (owner, graph) in graphs() {
        out.put_graph(owner, graph);
    }

    let Writer { mut buf, dir } = out;
    buf.resize(padded(buf.len()), 0);
    assert_eq!(
        (buf.len(), dir.len()),
        (dir_offset, section_count),
        "sections were not sized as written"
    );
    for entry in &dir {
        buf.extend_from_slice(&entry.kind.to_le_bytes());
        buf.extend_from_slice(&entry.owner.to_le_bytes());
        buf.extend_from_slice(&entry.offset.to_le_bytes());
        buf.extend_from_slice(&entry.byte_len.to_le_bytes());
        buf.extend_from_slice(&entry.elems.to_le_bytes());
    }

    // The payload is whole words: the sum is read off here and carries
    // on over the trailer it is written as.
    let mut sum = LaneSum::new();
    sum.absorb(&buf);
    let payload = sum.finish(buf.len());
    buf.extend_from_slice(&payload.to_le_bytes());
    sum.absorb(&payload.to_le_bytes());
    let sums = Sums {
        payload,
        file: sum.finish(buf.len()),
    };
    debug_assert_eq!(buf.len(), file_len);
    Hashed {
        bytes: Bytes::from(buf),
        sums,
    }
}

/// One directory entry (also returned by [`inspect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSection {
    pub kind: u32,
    /// Leaf index this section belongs to, or [`NO_OWNER`] for tables,
    /// vocabs, and the fallback graph.
    pub owner: u32,
    /// Absolute byte offset (8-aligned).
    pub offset: u64,
    pub byte_len: u64,
    /// Element count: array length (a vocab's ends: its string count;
    /// its blob: bytes).
    pub elems: u64,
}

/// Parses a model from a byte slice.
///
/// The bytes are **copied once** into an 8-byte-aligned buffer and then
/// loaded zero-copy from that copy (a borrowed slice cannot be
/// refcounted). Call [`from_shared`] (or [`load_from`]) with an aligned
/// [`Bytes`] to skip the realign copy entirely.
pub fn from_bytes(data: &[u8]) -> Result<GraphExModel> {
    Sums::of(data).check(data)?;
    parse_model(Bytes::from_owner(AlignedBuf::copy_from(data)))
}

/// Parses a model from a shared buffer, borrowing all array sections
/// from it — the zero-copy load path.
///
/// The buffer must be 8-byte aligned for the borrow to be taken directly
/// (buffers produced by [`AlignedBuf`] — and any mmap — always are); an
/// unaligned buffer is realigned with one copy rather than rejected.
pub fn from_shared(data: Bytes) -> Result<GraphExModel> {
    hash(data).parse()
}

/// Parses a buffer whose trailer, magic and version have been checked.
fn parse_model(data: Bytes) -> Result<GraphExModel> {
    debug_assert_eq!(
        data.as_ptr() as usize % 8,
        0,
        "parse_model requires an aligned buffer"
    );
    if data.len() < HEADER_LEN + 8 {
        return Err(GraphExError::Corrupt(
            "file too short for its header".into(),
        ));
    }
    // Header.
    let flags = data[8];
    let stemming = flags & 1 != 0;
    let has_fallback = flags & 2 != 0;
    let alignment = alignment_from_tag(data[9])?;
    let num_leaves = read_u32(&data, 12) as usize;
    let dir_offset = read_u64(&data, 16);

    // Directory decode + bounds (shared with `inspect`), then the
    // per-entry checks only the full load needs: every section 8-aligned
    // inside [header, directory), and no duplicate (kind, owner) key.
    let entries = read_directory(&data)?;
    let mut sections: FxHashMap<(u32, u32), RawSection> =
        FxHashMap::with_capacity_and_hasher(entries.len(), Default::default());
    for (i, entry) in entries.into_iter().enumerate() {
        let end = entry.offset.checked_add(entry.byte_len);
        if entry.offset % 8 != 0
            || entry.offset < HEADER_LEN as u64
            || end.is_none()
            || end > Some(dir_offset)
        {
            return Err(GraphExError::Corrupt(format!("section {i} out of bounds")));
        }
        if sections.insert((entry.kind, entry.owner), entry).is_some() {
            return Err(GraphExError::Corrupt(format!(
                "duplicate section kind {} owner {}",
                entry.kind, entry.owner
            )));
        }
    }
    let mut consumed = 0usize;
    let mut take = |kind: u32, owner: u32| -> Result<RawSection> {
        consumed += 1;
        sections.get(&(kind, owner)).copied().ok_or_else(|| {
            GraphExError::Corrupt(format!("missing section kind {kind} owner {owner}"))
        })
    };

    // Tables and vocabs.
    let leaf_table = take(section::LEAF_TABLE, NO_OWNER)?;
    if leaf_table.elems != num_leaves as u64 {
        return Err(GraphExError::Corrupt(
            "leaf table length != num_leaves".into(),
        ));
    }
    let leaf_ids = u32_view(&data, &leaf_table)?;
    let tokens = get_vocab(
        &data,
        &take(section::TOKENS_ENDS, NO_OWNER)?,
        &take(section::TOKENS_BLOB, NO_OWNER)?,
    )?;
    let keyphrases = get_vocab(
        &data,
        &take(section::KEYPHRASES_ENDS, NO_OWNER)?,
        &take(section::KEYPHRASES_BLOB, NO_OWNER)?,
    )?;
    let num_keyphrases = keyphrases.len() as u32;

    // Per-leaf graphs, then the fallback.
    let mut leaves: FxHashMap<LeafId, LeafGraph> =
        FxHashMap::with_capacity_and_hasher(num_leaves, Default::default());
    for index in 0..num_leaves {
        let graph = graph_from_sections(&data, index as u32, num_keyphrases, &mut take)?;
        let leaf = LeafId(leaf_ids[index]);
        if leaves.insert(leaf, graph).is_some() {
            return Err(GraphExError::Corrupt(format!("duplicate {leaf}")));
        }
    }
    let fallback = if has_fallback {
        Some(Box::new(graph_from_sections(
            &data,
            NO_OWNER,
            num_keyphrases,
            &mut take,
        )?))
    } else {
        None
    };
    if consumed != sections.len() {
        return Err(GraphExError::Corrupt("unexpected extra sections".into()));
    }

    Ok(GraphExModel {
        tokenizer: GraphExModel::make_tokenizer(stemming),
        tokens: Arc::new(tokens),
        keyphrases: Arc::new(keyphrases),
        leaves,
        fallback,
        alignment,
        stemming,
    })
}

fn graph_from_sections(
    data: &Bytes,
    owner: u32,
    num_keyphrases: u32,
    take: &mut impl FnMut(u32, u32) -> Result<RawSection>,
) -> Result<LeafGraph> {
    let row_tokens = u32_view(data, &take(section::ROW_TOKENS, owner)?)?;
    let offsets = u32_view(data, &take(section::CSR_OFFSETS, owner)?)?;
    let targets = u32_view(data, &take(section::CSR_TARGETS, owner)?)?;
    let labels = u32_view(data, &take(section::LABELS, owner)?)?;
    let label_lens = u16_view(data, &take(section::LABEL_LENS, owner)?)?;
    let search = u32_view(data, &take(section::SEARCH, owner)?)?;
    let recall = u32_view(data, &take(section::RECALL, owner)?)?;
    if labels.iter().any(|&kp| kp >= num_keyphrases) {
        return Err(GraphExError::Corrupt(
            "label references unknown keyphrase".into(),
        ));
    }
    LeafGraph::from_stores(
        row_tokens.into(),
        offsets.into(),
        targets.into(),
        labels.into(),
        label_lens.into(),
        search.into(),
        recall.into(),
    )
    .map_err(GraphExError::Corrupt)
}

// ---- writer helpers ---------------------------------------------------

/// `len` rounded up to the 8-byte boundary the next section starts on.
fn padded(len: usize) -> usize {
    len.next_multiple_of(8)
}

/// The bytes a vocab's two sections take, padding included.
fn vocab_len(vocab: &Vocab) -> usize {
    let (blob, ends) = vocab.parts();
    padded(ends.len() * 4) + padded(blob.len())
}

/// The bytes a graph's seven sections take, padding included.
fn graph_len(graph: &LeafGraph) -> usize {
    let (offsets, targets) = graph.csr_parts();
    [
        graph.row_tokens(),
        offsets,
        targets,
        graph.labels(),
        graph.searches(),
        graph.recalls(),
    ]
    .iter()
    .map(|vals| padded(vals.len() * 4))
    .sum::<usize>()
        + padded(graph.label_lens().len() * 2)
}

/// The file under construction — allocated at its final size by
/// [`to_bytes`] — and the directory entries of the sections in it.
struct Writer {
    buf: Vec<u8>,
    dir: Vec<RawSection>,
}

impl Writer {
    /// Opens a section of `byte_len` zeroed bytes on the next 8-byte
    /// boundary and returns them to be filled.
    fn section(&mut self, kind: u32, owner: u32, elems: usize, byte_len: usize) -> &mut [u8] {
        let offset = padded(self.buf.len());
        self.dir.push(RawSection {
            kind,
            owner,
            offset: offset as u64,
            byte_len: byte_len as u64,
            elems: elems as u64,
        });
        self.buf.resize(offset + byte_len, 0);
        &mut self.buf[offset..]
    }

    fn put_u32s(&mut self, kind: u32, owner: u32, vals: &[u32]) {
        let dst = self.section(kind, owner, vals.len(), vals.len() * 4);
        for (dst, val) in dst.chunks_exact_mut(4).zip(vals) {
            dst.copy_from_slice(&val.to_le_bytes());
        }
    }

    fn put_u16s(&mut self, kind: u32, owner: u32, vals: &[u16]) {
        let dst = self.section(kind, owner, vals.len(), vals.len() * 2);
        for (dst, val) in dst.chunks_exact_mut(2).zip(vals) {
            dst.copy_from_slice(&val.to_le_bytes());
        }
    }

    /// A string table as [`Vocab`] holds it: where each string ends, and
    /// the strings back to back.
    fn put_vocab(&mut self, ends_kind: u32, blob_kind: u32, vocab: &Vocab) {
        let (blob, ends) = vocab.parts();
        // An end past `u32::MAX` would be written wrapped under a valid
        // checksum: a snapshot that fails its own admission.
        assert!(
            u32::try_from(blob.len()).is_ok(),
            "vocab blob of {} bytes does not fit the format's u32 ends",
            blob.len()
        );
        self.put_u32s(ends_kind, NO_OWNER, ends);
        self.section(blob_kind, NO_OWNER, blob.len(), blob.len())
            .copy_from_slice(blob);
    }

    fn put_graph(&mut self, owner: u32, graph: &LeafGraph) {
        let (offsets, targets) = graph.csr_parts();
        self.put_u32s(section::ROW_TOKENS, owner, graph.row_tokens());
        self.put_u32s(section::CSR_OFFSETS, owner, offsets);
        self.put_u32s(section::CSR_TARGETS, owner, targets);
        self.put_u32s(section::LABELS, owner, graph.labels());
        self.put_u16s(section::LABEL_LENS, owner, graph.label_lens());
        self.put_u32s(section::SEARCH, owner, graph.searches());
        self.put_u32s(section::RECALL, owner, graph.recalls());
    }
}

/// Loads a string table from its two sections; [`Vocab::from_parts`]
/// makes every check. What it allocates is bounded by the sections'
/// lengths, which the directory bounds by the file's.
fn get_vocab(data: &Bytes, ends: &RawSection, blob: &RawSection) -> Result<Vocab> {
    if blob.elems != blob.byte_len {
        return Err(GraphExError::Corrupt("vocab blob length mismatch".into()));
    }
    Vocab::from_parts(section_bytes(data, blob), &u32_view(data, ends)?)
        .map_err(|why| GraphExError::Corrupt(format!("vocab section: {why}")))
}

// ---- reader helpers ---------------------------------------------------

fn section_bytes<'a>(data: &'a Bytes, sec: &RawSection) -> &'a [u8] {
    // Bounds were validated against the directory when `sec` was parsed.
    &data[sec.offset as usize..(sec.offset + sec.byte_len) as usize]
}

fn section_slice(data: &Bytes, sec: &RawSection) -> Bytes {
    data.slice(sec.offset as usize..(sec.offset + sec.byte_len) as usize)
}

fn u32_view(data: &Bytes, sec: &RawSection) -> Result<PodView<u32>> {
    if sec.byte_len != sec.elems.wrapping_mul(4) {
        return Err(GraphExError::Corrupt("u32 section length mismatch".into()));
    }
    PodView::new(section_slice(data, sec))
        .ok_or_else(|| GraphExError::Corrupt("misaligned u32 section".into()))
}

fn u16_view(data: &Bytes, sec: &RawSection) -> Result<PodView<u16>> {
    if sec.byte_len != sec.elems.wrapping_mul(2) {
        return Err(GraphExError::Corrupt("u16 section length mismatch".into()));
    }
    PodView::new(section_slice(data, sec))
        .ok_or_else(|| GraphExError::Corrupt("misaligned u16 section".into()))
}

fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

// ====================================================================
// Common entry points
// ====================================================================

impl Sums {
    /// The one pass: the payload of a well-formed file is whole words,
    /// so its sum is read off on the way to the file's. A buffer of any
    /// other length is garbage, and is walked twice to say so.
    fn of(data: &[u8]) -> Self {
        let (payload, trailer) = data.split_at(data.len().saturating_sub(8));
        if payload.len() % 8 != 0 {
            return Self {
                payload: checksum(payload),
                file: checksum(data),
            };
        }
        let mut sum = LaneSum::new();
        sum.absorb(payload);
        let payload = sum.finish(payload.len());
        sum.absorb(trailer);
        Self {
            payload,
            file: sum.finish(data.len()),
        }
    }

    /// Verifies the checksum trailer, the magic and the version word of
    /// the buffer these sums were taken over. The trailer is judged
    /// **first**, so any corruption — including of the version field
    /// itself — reports [`GraphExError::Corrupt`], never a bogus
    /// [`GraphExError::UnsupportedVersion`]; that is kept for a buffer
    /// that is intact but of a version this build does not read.
    fn check(&self, data: &[u8]) -> Result<()> {
        if data.len() < MAGIC.len() + 4 + 2 + 8 {
            return Err(GraphExError::Corrupt("file too short".into()));
        }
        let (magic, version) = (&data[..4], read_u32(data, 4));
        if self.payload != read_u64(data, data.len() - 8) {
            // An intact v2 file lands here too: its trailer is FNV-1a,
            // which this build does not compute.
            return Err(GraphExError::Corrupt(if magic == MAGIC && version == 2 {
                "checksum mismatch (version word reads 2: a GEXM v2 snapshot predates the v3 checksum — rebuild it)"
                    .into()
            } else {
                "checksum mismatch".into()
            }));
        }
        if magic != MAGIC {
            return Err(GraphExError::Corrupt("bad magic".into()));
        }
        match version {
            VERSION => Ok(()),
            other => Err(GraphExError::UnsupportedVersion(other)),
        }
    }

    /// [`Sums::check`], then the header and directory as a
    /// [`SnapshotInfo`].
    fn info(&self, data: &[u8]) -> Result<SnapshotInfo> {
        self.check(data)?;
        if data.len() < HEADER_LEN + 8 {
            return Err(GraphExError::Corrupt(
                "file too short for its header".into(),
            ));
        }
        let sections = read_directory(data)?;
        let elems_of = |kind: u32| {
            sections
                .iter()
                .find(|s| s.kind == kind && s.owner == NO_OWNER)
                .map_or(0, |s| s.elems)
        };
        Ok(SnapshotInfo {
            version: VERSION,
            stemming: data[8] & 1 != 0,
            has_fallback: data[8] & 2 != 0,
            alignment: alignment_from_tag(data[9])?,
            num_leaves: u64::from(read_u32(data, 12)),
            num_tokens: elems_of(section::TOKENS_ENDS),
            num_keyphrases: elems_of(section::KEYPHRASES_ENDS),
            num_sections: read_u32(data, 24),
            size_bytes: data.len(),
            checksum: self.payload,
            file_checksum: self.file,
        })
    }
}

/// Writes the model to `path` (buffered).
pub fn save_to(model: &GraphExModel, path: impl AsRef<Path>) -> Result<()> {
    write_bytes_to(&to_bytes(model), path)
}

/// Writes an already-serialized snapshot to `path` (buffered).
pub fn write_bytes_to(bytes: &[u8], path: impl AsRef<Path>) -> Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(bytes)?;
    file.flush()?;
    Ok(())
}

/// Reads a model from `path`.
///
/// The file is read straight into an 8-byte-aligned buffer, so a
/// snapshot loads zero-copy: the returned model's CSR/label/score arrays
/// borrow from that single buffer for the model's lifetime. See
/// [`load_snapshot`] for the mmap-backed variant.
///
/// Errors name the offending file: the path is threaded into `Io` and
/// `Corrupt` payloads (variants are preserved).
pub fn load_from(path: impl AsRef<Path>) -> Result<GraphExModel> {
    let path = path.as_ref();
    read_aligned(path)
        .and_then(from_shared)
        .map_err(|e| e.with_path(path))
}

/// How a snapshot's backing buffer is (or should be) held in memory.
///
/// As a *request* (to [`read_snapshot`]/[`load_snapshot`] or the
/// serving registry), `Mmap` means "map if the platform can, fall back
/// to a heap read", and `Heap` forces the read. As a *result*, it
/// reports which backend actually served the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Borrow the file straight off the page cache via `mmap`. Cold
    /// start touches only the pages inference actually reads, and all
    /// processes mapping one snapshot share physical memory.
    #[default]
    Mmap,
    /// Copy the whole file into an anonymous 8-aligned heap buffer.
    Heap,
}

impl LoadMode {
    pub fn as_str(self) -> &'static str {
        match self {
            LoadMode::Mmap => "mmap",
            LoadMode::Heap => "heap",
        }
    }
}

impl std::fmt::Display for LoadMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Reads a model from `path` with the requested storage backend,
/// returning the backend that actually served it.
///
/// Both paths hand [`from_shared`] an 8-aligned buffer (mmap bases are
/// page-aligned; the heap path uses [`AlignedBuf`]), so a snapshot
/// loads zero-copy either way and the checksum preflight runs before
/// any version dispatch regardless of backend. A failed `mmap` —
/// unsupported target, exotic filesystem — degrades to the heap read
/// rather than erroring.
///
/// The mmap path requires the file to be immutable while the model is
/// alive (truncation would fault); the registry upholds this by mapping
/// only published, staged-then-renamed snapshots.
pub fn load_snapshot(path: impl AsRef<Path>, prefer: LoadMode) -> Result<(GraphExModel, LoadMode)> {
    let path = path.as_ref();
    let (bytes, mode) = read_snapshot(path, prefer)?;
    let model = from_shared(bytes).map_err(|e| e.with_path(path))?;
    Ok((model, mode))
}

/// Reads a whole file into a shared buffer via the requested backend
/// (mmap with heap fallback, or heap directly), reporting which one was
/// used. Errors carry the file path.
pub fn read_snapshot(path: impl AsRef<Path>, prefer: LoadMode) -> Result<(Bytes, LoadMode)> {
    let path = path.as_ref();
    if prefer == LoadMode::Mmap {
        let file = std::fs::File::open(path).map_err(|e| GraphExError::from(e).with_path(path))?;
        if let Ok(map) = memmap::Mmap::map(&file) {
            return Ok((Bytes::from_owner(map), LoadMode::Mmap));
        }
    }
    let bytes = read_aligned(path).map_err(|e| e.with_path(path))?;
    Ok((bytes, LoadMode::Heap))
}

/// Reads a whole file into an aligned shared buffer (the load buffer).
pub fn read_aligned(path: impl AsRef<Path>) -> Result<Bytes> {
    let file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| GraphExError::Corrupt("file too large for this platform".into()))?;
    let mut reader = std::io::BufReader::new(file);
    Ok(Bytes::from_owner(AlignedBuf::read_exact(&mut reader, len)?))
}

/// Cheap snapshot metadata (header + directory, no graph
/// materialization): what `graphex model inspect` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    pub version: u32,
    pub stemming: bool,
    pub has_fallback: bool,
    pub alignment: Alignment,
    pub num_leaves: u64,
    pub num_tokens: u64,
    pub num_keyphrases: u64,
    /// Number of directory sections.
    pub num_sections: u32,
    pub size_bytes: usize,
    /// The stored trailer: the [`checksum`] of the payload.
    pub checksum: u64,
    /// The [`checksum`] of the whole file, trailer included: what the registry
    /// `MANIFEST` and `BUILDINFO` record.
    pub file_checksum: u64,
}

/// Inspects a serialized snapshot from its header and directory (after
/// the one checksum pass that vouches for them).
pub fn inspect(data: &[u8]) -> Result<SnapshotInfo> {
    Sums::of(data).info(data)
}

/// Parses and bounds-checks the section directory of a
/// checksum-verified buffer.
fn read_directory(data: &[u8]) -> Result<Vec<RawSection>> {
    let payload_len = (data.len() - 8) as u64;
    let dir_offset = read_u64(data, 16);
    let count = read_u32(data, 24) as usize;
    let dir_end = (count as u64)
        .checked_mul(DIR_ENTRY_LEN as u64)
        .and_then(|l| dir_offset.checked_add(l));
    if dir_offset % 8 != 0 || dir_offset < HEADER_LEN as u64 || dir_end != Some(payload_len) {
        return Err(GraphExError::Corrupt("directory out of bounds".into()));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let base = dir_offset as usize + i * DIR_ENTRY_LEN;
        out.push(RawSection {
            kind: read_u32(data, base),
            owner: read_u32(data, base + 4),
            offset: read_u64(data, base + 8),
            byte_len: read_u64(data, base + 16),
            elems: read_u64(data, base + 24),
        });
    }
    Ok(out)
}

// --- shared helpers ----------------------------------------------------

/// Independent multiply chains of the checksum: enough that a pass waits
/// on memory, not on the multiplier.
const LANES: usize = 4;
/// Odd, so multiplying by it permutes the `u64`s.
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_ROT: u32 = 29;
/// What the final fold starts from, xored with the byte length.
const SUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One checksum step. A bijection of `lane` for a fixed `word` and of
/// `word` for a fixed `lane` (xor, multiplication by an odd number and
/// rotation each are), which is what makes a one-word change certain to
/// reach the sum.
#[inline(always)]
fn fold(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_MUL).rotate_left(LANE_ROT)
}

fn word_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// The running state of [`checksum`]: the lanes, and how many words they
/// have taken (word *i* goes to lane *i* mod [`LANES`]).
struct LaneSum {
    lanes: [u64; LANES],
    words: usize,
}

impl LaneSum {
    fn new() -> Self {
        Self {
            lanes: std::array::from_fn(|lane| fold(SUM_SEED, lane as u64)),
            words: 0,
        }
    }

    fn push(&mut self, word: u64) {
        let lane = &mut self.lanes[self.words % LANES];
        *lane = fold(*lane, word);
        self.words += 1;
    }

    /// Takes `data` as words. A tail shorter than a word is zero-padded
    /// into one, so only the last call may pass a ragged length.
    fn absorb(&mut self, mut data: &[u8]) {
        #[cfg(test)]
        tests::HASHED_BYTES.with(|n| n.set(n.get() + data.len()));
        // Up to lane 0, so that a block below is one word per lane.
        while self.words % LANES != 0 && data.len() >= 8 {
            self.push(word_of(&data[..8]));
            data = &data[8..];
        }
        let mut blocks = data.chunks_exact(8 * LANES);
        let mut lanes = self.lanes;
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = fold(*lane, word_of(word));
            }
        }
        self.lanes = lanes;
        self.words += (data.len() - blocks.remainder().len()) / 8;
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            self.push(word_of(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.push(u64::from_le_bytes(last));
        }
    }

    /// The sum of the `len` bytes taken so far. `len` separates buffers
    /// that differ only in trailing zeros of their last word.
    fn finish(&self, len: usize) -> u64 {
        let sum = self
            .lanes
            .iter()
            .fold(SUM_SEED ^ len as u64, |sum, &lane| fold(sum, lane));
        sum ^ (sum >> 32)
    }
}

fn model_flags(model: &GraphExModel) -> u8 {
    let mut flags = 0u8;
    if model.stemming {
        flags |= 1;
    }
    if model.fallback.is_some() {
        flags |= 2;
    }
    flags
}

fn alignment_tag(alignment: Alignment) -> u8 {
    match alignment {
        Alignment::Lta => 0,
        Alignment::Wmr => 1,
        Alignment::Jac => 2,
    }
}

fn alignment_from_tag(tag: u8) -> Result<Alignment> {
    match tag {
        0 => Ok(Alignment::Lta),
        1 => Ok(Alignment::Wmr),
        2 => Ok(Alignment::Jac),
        other => Err(GraphExError::Corrupt(format!(
            "unknown alignment tag {other}"
        ))),
    }
}

fn sorted_leaf_ids(model: &GraphExModel) -> Vec<u32> {
    let mut leaf_ids: Vec<u32> = model.leaves.keys().map(|leaf| leaf.0).collect();
    leaf_ids.sort_unstable();
    leaf_ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphExBuilder, GraphExConfig};
    use crate::types::KeyphraseRecord;
    use std::cell::Cell;

    thread_local! {
        /// Bytes this thread has fed through the checksum.
        pub(super) static HASHED_BYTES: Cell<usize> = const { Cell::new(0) };
    }

    /// What `f` returns and how many bytes it hashed.
    fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = HASHED_BYTES.with(Cell::get);
        let out = f();
        (out, HASHED_BYTES.with(Cell::get) - before)
    }

    fn sample_model() -> GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = false;
        GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
                KeyphraseRecord::new("gaming headphones xbox", LeafId(7), 800, 700),
                KeyphraseRecord::new("usb c charger", LeafId(9), 500, 50),
            ])
            .build()
            .unwrap()
    }

    fn infer_outputs(model: &GraphExModel) -> Vec<(Vec<String>, Vec<crate::Prediction>)> {
        let mut scratch = crate::Scratch::new();
        [
            ("audeze maxwell gaming headphones xbox", LeafId(7)),
            ("usb c wall charger", LeafId(9)),
            ("anything unknown", LeafId(12345)),
        ]
        .iter()
        .map(|&(title, leaf)| {
            let req = crate::InferRequest::new(title, leaf)
                .k(10)
                .resolve_texts(true);
            let resp = model.infer_request(&req, &mut scratch);
            (resp.texts, resp.predictions)
        })
        .collect()
    }

    #[test]
    fn roundtrip_preserves_behavior() {
        let model = sample_model();
        let restored = from_bytes(&to_bytes(&model)).unwrap();
        assert_eq!(infer_outputs(&model), infer_outputs(&restored));
        assert_eq!(model.alignment(), restored.alignment());
        assert_eq!(model.stemming(), restored.stemming());
        assert_eq!(model.has_fallback(), restored.has_fallback());
    }

    #[test]
    fn load_borrows_sections_zero_copy() {
        let model = sample_model();
        let bytes = to_bytes(&model);
        // Parsing the (aligned) serializer output: zero-copy.
        let loaded = bytes.parse().unwrap();
        for leaf in loaded.leaf_ids() {
            assert!(
                loaded.leaf_graph(leaf).unwrap().is_zero_copy(),
                "{leaf} was copied"
            );
        }
        // The owned construction path is not view-backed.
        assert!(!model.leaf_graph(LeafId(7)).unwrap().is_zero_copy());
    }

    #[test]
    fn file_roundtrip() {
        let model = sample_model();
        let dir = std::env::temp_dir().join("graphex-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gexm");
        save_to(&model, &path).unwrap();
        let restored = load_from(&path).unwrap();
        assert_eq!(restored.num_keyphrases(), model.num_keyphrases());
        assert!(restored
            .leaf_ids()
            .all(|l| restored.leaf_graph(l).unwrap().is_zero_copy()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_load_is_zero_copy_and_inference_identical_to_heap() {
        let model = sample_model();
        let dir = std::env::temp_dir().join(format!("graphex-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gexm");
        save_to(&model, &path).unwrap();

        let (mapped, mode) = load_snapshot(&path, LoadMode::Mmap).unwrap();
        assert_eq!(
            mode,
            LoadMode::Mmap,
            "linux container should serve the mmap path"
        );
        assert!(mapped
            .leaf_ids()
            .all(|l| mapped.leaf_graph(l).unwrap().is_zero_copy()));

        let (heaped, heap_mode) = load_snapshot(&path, LoadMode::Heap).unwrap();
        assert_eq!(heap_mode, LoadMode::Heap);
        assert_eq!(infer_outputs(&mapped), infer_outputs(&heaped));
        assert_eq!(infer_outputs(&mapped), infer_outputs(&model));

        // The mapping outlives the file on disk.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(infer_outputs(&mapped), infer_outputs(&model));
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn load_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("graphex-loaderr-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.gexm");

        // Corrupt file: path prefixed, variant preserved.
        std::fs::write(&path, b"definitely not a model").unwrap();
        for prefer in [LoadMode::Mmap, LoadMode::Heap] {
            let err = load_snapshot(&path, prefer).unwrap_err();
            assert!(matches!(err, GraphExError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("bad.gexm"), "{err}");
        }
        let err = load_from(&path).unwrap_err();
        assert!(matches!(err, GraphExError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("bad.gexm"), "{err}");

        // Missing file: path threaded, io kind preserved.
        let missing = dir.join("missing.gexm");
        let err = load_snapshot(&missing, LoadMode::Mmap).unwrap_err();
        match &err {
            GraphExError::Io(io) => assert_eq!(io.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected Io, got {other}"),
        }
        assert!(err.to_string().contains("missing.gexm"), "{err}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn golden_v3_header_layout() {
        // Pins the v3 header byte layout. If this test fails, the format
        // changed: bump the version number instead of silently drifting.
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = true;
        let model = GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
                KeyphraseRecord::new("usb c charger", LeafId(9), 500, 50),
            ])
            .build()
            .unwrap();
        let bytes = to_bytes(&model);

        assert_eq!(&bytes[0..4], b"GEXM");
        assert_eq!(read_u32(&bytes, 4), 3, "version");
        assert_eq!(bytes[8], 0b11, "flags: stemming + fallback");
        assert_eq!(bytes[9], 0, "alignment tag: LTA");
        assert_eq!(&bytes[10..12], &[0, 0], "reserved");
        assert_eq!(read_u32(&bytes, 12), 2, "num_leaves");
        let dir_offset = read_u64(&bytes, 16);
        let section_count = read_u32(&bytes, 24);
        assert_eq!(&bytes[28..32], &[0, 0, 0, 0], "reserved");
        // The leaf table, two sections per vocab, 7 per graph (2 leaves +
        // fallback).
        assert_eq!(section_count, 5 + 7 * 3);
        assert_eq!(dir_offset % 8, 0);
        assert_eq!(
            dir_offset as usize + section_count as usize * DIR_ENTRY_LEN + 8,
            bytes.len(),
            "directory runs exactly to the checksum trailer"
        );
        // First section: the leaf table, immediately after the header.
        assert_eq!(read_u32(&bytes, dir_offset as usize), section::LEAF_TABLE);
        assert_eq!(read_u64(&bytes, dir_offset as usize + 8), HEADER_LEN as u64);
        // Every section is 8-aligned and inside [header, directory), in
        // the order of the kinds: tables, leaf 0, leaf 1, the fallback.
        let directory = read_directory(&bytes).unwrap();
        for s in &directory {
            assert_eq!(s.offset % 8, 0, "section {s:?} misaligned");
            assert!(s.offset >= HEADER_LEN as u64 && s.offset + s.byte_len <= dir_offset);
        }
        let keys: Vec<(u32, u32)> = directory.iter().map(|s| (s.kind, s.owner)).collect();
        let mut want: Vec<(u32, u32)> = (1..=5).map(|kind| (kind, NO_OWNER)).collect();
        for owner in [0, 1, NO_OWNER] {
            want.extend((6..=12).map(|kind| (kind, owner)));
        }
        assert_eq!(keys, want);
        // A string table is the vocab's own two buffers.
        let (blob, ends) = model.keyphrases.parts();
        assert_eq!(directory[3].elems, ends.len() as u64);
        assert_eq!(directory[3].byte_len, 4 * ends.len() as u64);
        assert_eq!(
            (directory[4].elems, directory[4].byte_len),
            (blob.len() as u64, blob.len() as u64)
        );
        assert_eq!(
            section_bytes(&bytes.clone().into_bytes(), &directory[4]),
            blob
        );
    }

    #[test]
    fn detects_truncation() {
        let bytes = to_bytes(&sample_model());
        for cut in [0, 3, 10, 33, bytes.len() / 2, bytes.len() - 1] {
            let res = from_bytes(&bytes[..cut]);
            assert!(
                matches!(res, Err(GraphExError::Corrupt(_))),
                "truncation at {cut} not detected as Corrupt"
            );
        }
    }

    #[test]
    fn detects_bitflips_as_corrupt() {
        let bytes = to_bytes(&sample_model()).to_vec();
        // Any flipped byte — header, payload, or trailer — must be
        // caught by the checksum, which runs before the version check.
        for pos in [0, 4, 8, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0xFF;
            assert!(
                matches!(from_bytes(&corrupted), Err(GraphExError::Corrupt(_))),
                "bitflip at {pos} not detected as Corrupt"
            );
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let bytes = to_bytes(&sample_model()).to_vec();
        let n = bytes.len();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        // checksum catches it first; rewrite checksum to isolate magic check
        let sum = checksum(&wrong_magic[..n - 8]);
        wrong_magic[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            from_bytes(&wrong_magic),
            Err(GraphExError::Corrupt(_))
        ));

        // An intact buffer of any other version is refused by every entry
        // point: neither parsed nor called corrupt.
        for version in [1u8, 2, 99] {
            let mut other = bytes.clone();
            other[4] = version;
            let sum = checksum(&other[..n - 8]);
            other[n - 8..].copy_from_slice(&sum.to_le_bytes());
            let refused = |res: Result<()>| matches!(res, Err(GraphExError::UnsupportedVersion(v)) if v == u32::from(version));
            assert!(
                refused(from_bytes(&other).map(drop)),
                "from_bytes, version {version}"
            );
            let shared = Bytes::from(other.clone());
            assert!(
                refused(from_shared(shared).map(drop)),
                "from_shared, version {version}"
            );
            assert!(
                refused(inspect(&other).map(drop)),
                "inspect, version {version}"
            );
        }
    }

    /// The bytes the known answers below are over: no two words alike.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    /// The checksum is part of the format: these sums are what files on
    /// disk carry. If one moves, the function changed — bump the version.
    #[test]
    fn checksum_known_answers() {
        // Of the first 0, 1, … 40 patterned bytes.
        const OF_PATTERNED_PREFIXES: [u64; 41] = [
            0x3e53_676a_56d6_7fc4,
            0x1942_2aa2_6e0b_1f5b,
            0x461a_ed83_03a0_83f1,
            0x1ecb_08b2_1d25_07ce,
            0x26f5_8d72_f73d_ae31,
            0xef64_3821_166d_7ddf,
            0x2585_182c_9f70_4c24,
            0x6c1b_42ba_e46a_7baa,
            0x1446_4970_11be_cb92,
            0xdfb8_f763_9a39_4c87,
            0x681e_dd98_6c82_71b2,
            0xa012_3b28_f47b_9743,
            0x39ea_6e7f_041f_2a94,
            0x3260_a67b_4fc3_7739,
            0x8c44_5c4c_f3b4_de63,
            0xfbc8_d48c_1807_ebeb,
            0x98f9_d9a1_5152_e355,
            0xceac_0bb7_5151_e93f,
            0x4586_f167_c8eb_038e,
            0x703f_0533_8ea8_a0e8,
            0xc2bc_39db_47b1_6fe4,
            0xb654_e9c1_abad_a02a,
            0xfd5d_3abd_df8c_7b7a,
            0xd80b_b74b_b998_abac,
            0xebef_64cc_72c8_7d89,
            0xb88a_3fad_47c8_82e5,
            0x36af_1f65_a5f0_da90,
            0xaf23_c5bc_8923_52b8,
            0x7d5c_5554_de77_3d81,
            0x75dd_f689_85ba_192c,
            0xa688_4bcb_b5b2_45e5,
            0x257e_863b_2687_ba18,
            0x24e8_ce15_85c4_512a,
            0x931e_6d3b_9a11_e146,
            0xfcb2_65d4_9fe4_b6fd,
            0x135b_02a1_729e_ce59,
            0x8105_afe5_c1a5_aa4e,
            0x94e1_2e77_fdda_ac86,
            0xa77e_da84_4cc0_c5ac,
            0xce33_0407_226a_c06b,
            0x9c06_386c_7445_f18f,
        ];
        for (len, &want) in OF_PATTERNED_PREFIXES.iter().enumerate() {
            assert_eq!(checksum(&patterned(len)), want, "{len} patterned bytes");
        }
        let snapshot = to_bytes(&sample_model());
        assert_eq!(snapshot.len(), 992);
        assert_eq!(read_u64(&snapshot, 984), 0x4631_0b15_4683_127f, "trailer");
        assert_eq!(
            checksum(&snapshot[..984]),
            0x4631_0b15_4683_127f,
            "payload sum"
        );
        assert_eq!(checksum(&snapshot), 0xe71d_125a_8e08_53d2, "whole-file sum");
        assert_eq!(snapshot.checksum(), 0xe71d_125a_8e08_53d2);
    }

    /// The running state read off after any whole number of words is the
    /// sum of the bytes so far, wherever the walk is cut — which is what
    /// lets one pass give a file's trailer and its whole-file sum — and
    /// `Sums::of` agrees with two separate passes at every length,
    /// ragged ones included.
    #[test]
    fn checksum_streams_across_every_split() {
        for len in 0..=100usize {
            let data = patterned(len);
            for cut in (0..=len).step_by(8) {
                let mut sum = LaneSum::new();
                sum.absorb(&data[..cut]);
                assert_eq!(
                    sum.finish(cut),
                    checksum(&data[..cut]),
                    "{len} bytes, head of {cut}"
                );
                sum.absorb(&data[cut..]);
                assert_eq!(sum.finish(len), checksum(&data), "{len} bytes cut at {cut}");
                // And cut once more, a word further on.
                let next = (cut + 8).min(len) / 8 * 8;
                let mut sum = LaneSum::new();
                for piece in [&data[..cut], &data[cut..next], &data[next..]] {
                    sum.absorb(piece);
                }
                assert_eq!(
                    sum.finish(len),
                    checksum(&data),
                    "{len} bytes cut at {cut} and {next}"
                );
            }
            let sums = Sums::of(&data);
            let payload = &data[..len.saturating_sub(8)];
            assert_eq!(
                (sums.payload, sums.file),
                (checksum(payload), checksum(&data)),
                "{len} bytes"
            );
            // Trailing zeros are not padding.
            let mut longer = data.clone();
            longer.push(0);
            assert_ne!(checksum(&longer), checksum(&data), "{len} bytes and a zero");
        }
    }

    /// A change confined to one word always changes the sum: every
    /// single-bit flip of a real snapshot — all of them, not a sample —
    /// moves the payload sum (or the stored trailer it is compared with)
    /// and the whole-file sum, and is refused as `Corrupt`.
    #[test]
    fn every_single_bit_flip_changes_both_sums() {
        let sound = to_bytes(&sample_model());
        let mut bytes = sound.to_vec();
        let n = bytes.len();
        for bit in 0..n * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            let sums = Sums::of(&bytes);
            assert_ne!(sums.file, sound.sums.file, "bit {bit}: whole-file sum");
            if bit / 8 < n - 8 {
                assert_ne!(sums.payload, sound.sums.payload, "bit {bit}: payload sum");
            } else {
                assert_eq!(
                    sums.payload, sound.sums.payload,
                    "bit {bit} is in the trailer"
                );
            }
            assert_ne!(
                sums.payload,
                read_u64(&bytes, n - 8),
                "bit {bit}: trailer check"
            );
            assert!(
                matches!(sums.check(&bytes), Err(GraphExError::Corrupt(_))),
                "bit {bit}"
            );
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(bytes, sound.to_vec());
    }

    /// Pins the pass count where it can be counted exactly: a buffer is
    /// hashed once, by whoever meets it first, and never again.
    #[test]
    fn each_buffer_is_hashed_once() {
        let model = sample_model();
        let (written, hashed) = counting(|| to_bytes(&model));
        // The payload once, then on over the 8 trailer bytes it has just
        // written for the file checksum.
        assert_eq!(hashed, written.len());
        let (file_sum, whole_pass) = counting(|| checksum(&written));
        assert_eq!(whole_pass, written.len());
        assert_eq!(
            written.checksum(),
            file_sum,
            "to_bytes knows the file checksum"
        );

        let shared = written.clone().into_bytes();
        let (walked, hashed) = counting(|| hash(shared.clone()));
        assert_eq!(hashed, shared.len());
        assert_eq!(walked.checksum(), file_sum);

        for snapshot in [&written, &walked] {
            let (info, hashed) = counting(|| snapshot.inspect().unwrap());
            assert_eq!(hashed, 0, "inspecting a hashed buffer");
            assert_eq!(info, inspect(&shared).unwrap());
            assert_eq!(info.file_checksum, file_sum);
            assert_eq!(info.checksum, read_u64(&shared, shared.len() - 8));
            let (loaded, hashed) = counting(|| snapshot.parse().unwrap());
            assert_eq!(hashed, 0, "parsing a hashed buffer");
            assert_eq!(infer_outputs(&loaded), infer_outputs(&model));
        }

        assert_eq!(counting(|| from_bytes(&shared).unwrap()).1, shared.len());
        assert_eq!(
            counting(|| from_shared(shared.clone()).unwrap()).1,
            shared.len()
        );
        assert_eq!(counting(|| inspect(&shared).unwrap()).1, shared.len());
    }

    /// The sums are judged in the old preflight's order whichever entry
    /// point took them, and a short buffer is an error, not a panic.
    #[test]
    fn hashed_buffers_are_judged_like_raw_ones() {
        let bytes = to_bytes(&sample_model()).to_vec();
        let n = bytes.len();
        let mut flipped = bytes.clone();
        flipped[4] ^= 0xFF; // the version word, trailer left stale
        let mut other_version = bytes.clone();
        other_version[4] = 9;
        let sum = checksum(&other_version[..n - 8]);
        other_version[n - 8..].copy_from_slice(&sum.to_le_bytes());
        for (data, what) in [
            (&bytes[..0], "empty"),
            (&bytes[..7], "shorter than a trailer"),
            (&bytes[..17], "shorter than a header"),
            (&flipped[..], "flipped version word"),
            (&other_version[..], "intact other version"),
        ] {
            let hashed = hash(Bytes::from(data.to_vec()));
            assert_eq!(hashed.checksum(), checksum(data), "{what}");
            let (want, got) = (from_bytes(data).map(drop), hashed.parse().map(drop));
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "{what}");
            let (want, got) = (inspect(data), hashed.inspect());
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "{what}");
            assert!(want.is_err(), "{what}");
        }
        assert!(matches!(
            hash(Bytes::from(flipped)).parse(),
            Err(GraphExError::Corrupt(_))
        ));
        assert!(matches!(
            hash(Bytes::from(other_version)).parse(),
            Err(GraphExError::UnsupportedVersion(9))
        ));
    }

    /// FNV-1a, the trailer of the formats before v3.
    fn fnv1a(data: &[u8]) -> u64 {
        data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// An intact v2 file fails the v3 trailer check like any damaged
    /// buffer, but the error says what it is.
    #[test]
    fn intact_v2_snapshot_is_corrupt_by_name() {
        let mut old = to_bytes(&sample_model()).to_vec();
        let n = old.len();
        old[4] = 2;
        let sum = fnv1a(&old[..n - 8]);
        old[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let shared = Bytes::from(old.clone());
        for res in [
            from_bytes(&old).map(drop),
            from_shared(shared).map(drop),
            inspect(&old).map(drop),
        ] {
            match res {
                Err(GraphExError::Corrupt(why)) => {
                    assert!(
                        why.contains("a GEXM v2 snapshot predates the v3 checksum — rebuild it"),
                        "{why}"
                    )
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        // Any other damaged buffer stays anonymous.
        old[4] = 3;
        let err = from_bytes(&old).unwrap_err();
        assert_eq!(
            err.to_string(),
            GraphExError::Corrupt("checksum mismatch".into()).to_string()
        );
    }

    /// The interleaved layout's `u16` string length is gone: a string is
    /// bounded by the blob, not by 65 535 bytes.
    #[test]
    fn a_70_000_byte_keyphrase_builds_serializes_loads_and_resolves() {
        let words: Vec<String> = (0..10_000).map(|i| format!("kp{i:04}")).collect();
        let long = words.join(" ") + "x";
        assert_eq!(long.len(), 70_000);
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.curation.max_tokens = words.len();
        let model = GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new(long.as_str(), LeafId(7), 900, 120),
                KeyphraseRecord::new("usb c charger", LeafId(7), 500, 50),
            ])
            .build()
            .unwrap();
        let loaded = to_bytes(&model).parse().unwrap();
        let id = loaded
            .keyphrases
            .get(&long)
            .expect("the long keyphrase is in the table");
        assert_eq!(loaded.keyphrases.resolve(id), Some(long.as_str()));
        let request = crate::InferRequest::new(long.as_str(), LeafId(7))
            .k(1)
            .resolve_texts(true);
        let response = loaded.infer_request(&request, &mut crate::Scratch::new());
        assert_eq!(response.texts, [long]);
    }

    #[test]
    fn inspect_reads_header_and_directory() {
        let model = sample_model();
        let bytes = to_bytes(&model);
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.num_leaves, 2);
        assert_eq!(info.num_keyphrases, 3);
        assert!(info.num_tokens >= 7);
        assert_eq!(info.num_sections, 5 + 7 * 2);
        assert_eq!(info.size_bytes, bytes.len());
        assert_eq!(model.size_bytes(), bytes.len());
        assert!(info.stemming);
        assert!(!info.has_fallback);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let res = load_from("/nonexistent/graphex/model.gexm");
        assert!(matches!(res, Err(GraphExError::Io(_))));
    }
}
