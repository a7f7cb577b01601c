//! Binary model format: `GEXM` v2 (zero-copy).
//!
//! A GraphEx model is a set of integer arrays plus two string tables. On
//! disk that is the `GEXM` magic, a version word, and an FNV-1a checksum
//! trailer around one layout ([`to_bytes`]): a fixed 32-byte header, a
//! **section directory**, and every integer array stored as a raw
//! little-endian section on an **8-byte boundary**. The loader borrows
//! the CSR/label/score arrays straight out of the load buffer
//! ([`bytes::Bytes`]-backed [`crate::storage::PodView`]s) — zero
//! per-edge copies, and mmap-ready: any `AsRef<[u8]>` owner with an
//! 8-aligned base can back [`from_shared`]. Only the string tables and
//! the per-leaf word index are materialized (O(strings + words)).
//!
//! v2 layout (little-endian throughout):
//!
//! ```text
//! off  0  magic            b"GEXM"
//! off  4  u32  version     (= 2)
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
//!         u64 fnv1a        checksum of everything above
//! ```
//!
//! Section kinds: leaf-id table and the two vocab blobs (owner = `!0`),
//! then per graph (owner = leaf index, or `!0` for the meta fallback):
//! row-tokens, CSR offsets, CSR targets, labels, label-lens (u16),
//! search counts, recall counts.
//!
//! A buffer is hashed **once**: one FNV-1a walk yields the trailer (the
//! state after the payload) and the whole-file checksum manifests record
//! (the same state carried over the trailer), and a [`Hashed`] carries
//! both with the bytes so that nothing downstream hashes again.
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
use crate::storage::{AlignedBuf, PodView};
use crate::types::LeafId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use graphex_textkit::{FxHashMap, Vocab};
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"GEXM";
/// The format version this module writes and reads.
pub const VERSION_V2: u32 = 2;
/// Fixed v2 header length in bytes.
pub const V2_HEADER_LEN: usize = 32;
/// v2 directory entry length in bytes.
pub const V2_DIR_ENTRY_LEN: usize = 32;
/// Section owner value meaning "not a leaf graph" (tables, vocabs, the
/// meta-fallback graph).
pub const V2_NO_OWNER: u32 = u32::MAX;

/// v2 section kinds (directory `kind` field).
pub mod section {
    pub const LEAF_TABLE: u32 = 1;
    pub const TOKENS_VOCAB: u32 = 2;
    pub const KEYPHRASES_VOCAB: u32 = 3;
    pub const ROW_TOKENS: u32 = 4;
    pub const CSR_OFFSETS: u32 = 5;
    pub const CSR_TARGETS: u32 = 6;
    pub const LABELS: u32 = 7;
    pub const LABEL_LENS: u32 = 8;
    pub const SEARCH: u32 = 9;
    pub const RECALL: u32 = 10;
}

/// FNV-1a of `data` — over a snapshot's payload it is the trailer, over
/// the whole file the value the registry and `BUILDINFO` record. Holders
/// of a [`Hashed`] have both already.
pub fn checksum(data: &[u8]) -> u64 {
    fnv1a(data)
}

/// A snapshot buffer with the one FNV-1a pass it needs already made.
///
/// FNV-1a is a running state: the state after the payload *is* the
/// trailer a sound file stores, and carried on over those 8 bytes it *is*
/// the whole-file checksum manifests record. [`hash`] walks a buffer once
/// and keeps both; [`Hashed::parse`] and [`Hashed::inspect`] judge the
/// buffer by them without reading it again, and [`to_bytes`] returns one
/// because it computed the same state to write the trailer. Derefs to the
/// bytes; compares equal when the bytes do.
#[derive(Clone)]
pub struct Hashed {
    bytes: Bytes,
    sums: Sums,
}

/// FNV-1a after a buffer's payload (everything but its last 8 bytes) and
/// after the whole of it.
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
    /// FNV-1a of the whole buffer: what [`checksum`] would return.
    pub fn checksum(&self) -> u64 {
        self.sums.file
    }

    /// The buffer itself.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// Checks trailer, magic and version, then parses the model,
    /// borrowing all array sections from the buffer — [`from_shared`]
    /// without its hash pass.
    pub fn parse(&self) -> Result<GraphExModel> {
        self.sums.check(&self.bytes)?;
        if self.bytes.as_ptr() as usize % 8 == 0 {
            parse_v2(self.bytes.clone())
        } else {
            parse_v2(Bytes::from_owner(AlignedBuf::copy_from(&self.bytes)))
        }
    }

    /// [`inspect`] without its hash pass.
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
        write!(f, "Hashed({} bytes, checksum {:016x})", self.bytes.len(), self.sums.file)
    }
}

/// Serializes `model` (see the module docs for the layout); the result
/// loads zero-copy, and knows its own checksum from writing the trailer.
pub fn to_bytes(model: &GraphExModel) -> Hashed {
    let leaf_ids = sorted_leaf_ids(model);

    let mut buf = BytesMut::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_V2);
    buf.put_u8(model_flags(model));
    buf.put_u8(alignment_tag(model.alignment));
    buf.put_u16_le(0); // reserved
    buf.put_u32_le(leaf_ids.len() as u32);
    buf.put_u64_le(0); // directory offset, patched below
    buf.put_u32_le(0); // section count, patched below
    buf.put_u32_le(0); // reserved
    debug_assert_eq!(buf.len(), V2_HEADER_LEN);

    let mut dir: Vec<RawSection> = Vec::new();

    put_section(&mut buf, &mut dir, section::LEAF_TABLE, V2_NO_OWNER, leaf_ids.len() as u64, |b| {
        for leaf in &leaf_ids {
            b.put_u32_le(leaf.0);
        }
    });
    put_section(&mut buf, &mut dir, section::TOKENS_VOCAB, V2_NO_OWNER, model.tokens.len() as u64, |b| {
        put_vocab_blob(b, &model.tokens);
    });
    put_section(
        &mut buf,
        &mut dir,
        section::KEYPHRASES_VOCAB,
        V2_NO_OWNER,
        model.keyphrases.len() as u64,
        |b| put_vocab_blob(b, &model.keyphrases),
    );
    for (index, leaf) in leaf_ids.iter().enumerate() {
        put_graph_sections(&mut buf, &mut dir, index as u32, &model.leaves[leaf]);
    }
    if let Some(fb) = &model.fallback {
        put_graph_sections(&mut buf, &mut dir, V2_NO_OWNER, fb);
    }

    pad_to_8(&mut buf);
    let dir_offset = buf.len() as u64;
    let section_count = dir.len() as u32;
    for entry in &dir {
        buf.put_u32_le(entry.kind);
        buf.put_u32_le(entry.owner);
        buf.put_u64_le(entry.offset);
        buf.put_u64_le(entry.byte_len);
        buf.put_u64_le(entry.elems);
    }
    buf[16..24].copy_from_slice(&dir_offset.to_le_bytes());
    buf[24..28].copy_from_slice(&section_count.to_le_bytes());

    let payload = fnv1a(&buf);
    buf.put_u64_le(payload);
    let sums = Sums { payload, file: fnv1a_from(payload, &payload.to_le_bytes()) };
    Hashed { bytes: buf.freeze(), sums }
}

/// One directory entry (also returned by [`inspect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSection {
    pub kind: u32,
    /// Leaf index this section belongs to, or [`V2_NO_OWNER`] for tables,
    /// vocabs, and the fallback graph.
    pub owner: u32,
    /// Absolute byte offset (8-aligned).
    pub offset: u64,
    pub byte_len: u64,
    /// Element count: array length, or string count for vocab blobs.
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
    parse_v2(Bytes::from_owner(AlignedBuf::copy_from(data)))
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

fn parse_v2(data: Bytes) -> Result<GraphExModel> {
    debug_assert_eq!(data.as_ptr() as usize % 8, 0, "parse_v2 requires an aligned buffer");
    if data.len() < V2_HEADER_LEN + 8 {
        return Err(GraphExError::Corrupt("v2 file too short".into()));
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
        if entry.offset % 8 != 0 || entry.offset < V2_HEADER_LEN as u64 || end.is_none() || end > Some(dir_offset) {
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
        sections
            .get(&(kind, owner))
            .copied()
            .ok_or_else(|| GraphExError::Corrupt(format!("missing section kind {kind} owner {owner}")))
    };

    // Tables and vocabs.
    let leaf_table = take(section::LEAF_TABLE, V2_NO_OWNER)?;
    if leaf_table.elems != num_leaves as u64 {
        return Err(GraphExError::Corrupt("leaf table length != num_leaves".into()));
    }
    let leaf_ids = u32_view(&data, &leaf_table)?;
    let tokens_sec = take(section::TOKENS_VOCAB, V2_NO_OWNER)?;
    let tokens = get_vocab_blob(section_bytes(&data, &tokens_sec), tokens_sec.elems)?;
    let keyphrases_sec = take(section::KEYPHRASES_VOCAB, V2_NO_OWNER)?;
    let keyphrases = get_vocab_blob(section_bytes(&data, &keyphrases_sec), keyphrases_sec.elems)?;
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
        Some(Box::new(graph_from_sections(&data, V2_NO_OWNER, num_keyphrases, &mut take)?))
    } else {
        None
    };
    if consumed != sections.len() {
        return Err(GraphExError::Corrupt("unexpected extra sections".into()));
    }

    Ok(GraphExModel {
        tokenizer: GraphExModel::make_tokenizer(stemming),
        tokens,
        keyphrases,
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
        return Err(GraphExError::Corrupt("label references unknown keyphrase".into()));
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

// ---- v2 writer helpers ------------------------------------------------

fn put_section(
    buf: &mut BytesMut,
    dir: &mut Vec<RawSection>,
    kind: u32,
    owner: u32,
    elems: u64,
    write: impl FnOnce(&mut BytesMut),
) {
    pad_to_8(buf);
    let offset = buf.len() as u64;
    write(buf);
    dir.push(RawSection { kind, owner, offset, byte_len: buf.len() as u64 - offset, elems });
}

fn put_graph_sections(buf: &mut BytesMut, dir: &mut Vec<RawSection>, owner: u32, graph: &LeafGraph) {
    let (offsets, targets) = graph.csr_parts();
    let arrays: [(&[u32], u32); 6] = [
        (graph.row_tokens(), section::ROW_TOKENS),
        (offsets, section::CSR_OFFSETS),
        (targets, section::CSR_TARGETS),
        (graph.labels(), section::LABELS),
        (graph.searches(), section::SEARCH),
        (graph.recalls(), section::RECALL),
    ];
    for (vals, kind) in arrays.iter().take(4).copied() {
        put_section(buf, dir, kind, owner, vals.len() as u64, |b| {
            for &v in vals {
                b.put_u32_le(v);
            }
        });
    }
    put_section(buf, dir, section::LABEL_LENS, owner, graph.label_lens().len() as u64, |b| {
        for &l in graph.label_lens() {
            b.put_u16_le(l);
        }
    });
    for (vals, kind) in arrays.iter().skip(4).copied() {
        put_section(buf, dir, kind, owner, vals.len() as u64, |b| {
            for &v in vals {
                b.put_u32_le(v);
            }
        });
    }
}

fn pad_to_8(buf: &mut BytesMut) {
    while buf.len() % 8 != 0 {
        buf.put_u8(0);
    }
}

fn put_vocab_blob(buf: &mut BytesMut, vocab: &Vocab) {
    for (_, s) in vocab.iter() {
        // A longer string would be written with a wrapped length under a
        // valid checksum: a snapshot that fails its own admission.
        assert!(
            s.len() <= u16::MAX as usize,
            "vocab string of {} bytes does not fit the format's u16 length",
            s.len()
        );
        buf.put_u16_le(s.len() as u16);
        buf.put_slice(s.as_bytes());
    }
}

fn get_vocab_blob(mut blob: &[u8], count: u64) -> Result<Vocab> {
    let count = usize::try_from(count)
        .map_err(|_| GraphExError::Corrupt("implausible vocab count".into()))?;
    if count > blob.len() / 2 {
        // Every entry takes at least 2 bytes: bounds what is allocated
        // on the word of a count field.
        return Err(GraphExError::Corrupt(format!("implausible vocab count: {count}")));
    }
    // Exact: every entry is a 2-byte length and its string.
    let mut vocab = Vocab::with_capacities(count, blob.len() - 2 * count);
    for i in 0..count {
        if blob.remaining() < 2 {
            return Err(GraphExError::Corrupt("truncated vocab entry length".into()));
        }
        let len = blob.get_u16_le() as usize;
        if blob.remaining() < len {
            return Err(GraphExError::Corrupt("truncated vocab entry".into()));
        }
        let (head, rest) = blob.split_at(len);
        let s = std::str::from_utf8(head)
            .map_err(|_| GraphExError::Corrupt("vocab entry is not utf-8".into()))?;
        let id = vocab.intern(s);
        if id as usize != i {
            return Err(GraphExError::Corrupt("duplicate vocab entry".into()));
        }
        blob = rest;
    }
    if blob.has_remaining() {
        return Err(GraphExError::Corrupt("trailing bytes in vocab section".into()));
    }
    Ok(vocab)
}

// ---- v2 reader helpers ------------------------------------------------

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
    /// The one pass.
    fn of(data: &[u8]) -> Self {
        let (payload, trailer) = data.split_at(data.len().saturating_sub(8));
        let payload = fnv1a(payload);
        Self { payload, file: fnv1a_from(payload, trailer) }
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
        if self.payload != read_u64(data, data.len() - 8) {
            return Err(GraphExError::Corrupt("checksum mismatch".into()));
        }
        if &data[..4] != MAGIC {
            return Err(GraphExError::Corrupt("bad magic".into()));
        }
        match read_u32(data, 4) {
            VERSION_V2 => Ok(()),
            other => Err(GraphExError::UnsupportedVersion(other)),
        }
    }

    /// [`Sums::check`], then the header and directory as a
    /// [`SnapshotInfo`].
    fn info(&self, data: &[u8]) -> Result<SnapshotInfo> {
        self.check(data)?;
        if data.len() < V2_HEADER_LEN + 8 {
            return Err(GraphExError::Corrupt("v2 file too short".into()));
        }
        let sections = read_directory(data)?;
        let elems_of = |kind: u32| {
            sections
                .iter()
                .find(|s| s.kind == kind && s.owner == V2_NO_OWNER)
                .map_or(0, |s| s.elems)
        };
        Ok(SnapshotInfo {
            version: VERSION_V2,
            stemming: data[8] & 1 != 0,
            has_fallback: data[8] & 2 != 0,
            alignment: alignment_from_tag(data[9])?,
            num_leaves: u64::from(read_u32(data, 12)),
            num_tokens: elems_of(section::TOKENS_VOCAB),
            num_keyphrases: elems_of(section::KEYPHRASES_VOCAB),
            num_sections: read_u32(data, 24),
            size_bytes: data.len(),
            checksum: self.payload,
            file_checksum: self.file,
        })
    }
}

/// Writes the model to `path` (buffered, v2 format).
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
/// The file is read straight into an 8-byte-aligned buffer, so a v2
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
/// page-aligned; the heap path uses [`AlignedBuf`]), so a v2 snapshot
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

/// Reads a whole file into an aligned shared buffer (the v2 load buffer).
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
    /// The stored FNV-1a trailer.
    pub checksum: u64,
    /// FNV-1a of the whole file, trailer included: what the registry
    /// `MANIFEST` and `BUILDINFO` record.
    pub file_checksum: u64,
}

/// Inspects a serialized snapshot from its header and directory (after
/// the one hash pass that vouches for them).
pub fn inspect(data: &[u8]) -> Result<SnapshotInfo> {
    Sums::of(data).info(data)
}

/// Parses and bounds-checks the v2 section directory of a
/// checksum-verified buffer.
fn read_directory(data: &[u8]) -> Result<Vec<RawSection>> {
    let payload_len = (data.len() - 8) as u64;
    let dir_offset = read_u64(data, 16);
    let count = read_u32(data, 24) as usize;
    let dir_end = (count as u64)
        .checked_mul(V2_DIR_ENTRY_LEN as u64)
        .and_then(|l| dir_offset.checked_add(l));
    if dir_offset % 8 != 0 || dir_offset < V2_HEADER_LEN as u64 || dir_end != Some(payload_len) {
        return Err(GraphExError::Corrupt("directory out of bounds".into()));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let base = dir_offset as usize + i * V2_DIR_ENTRY_LEN;
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

fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, data)
}

/// FNV-1a carried on from `state` over `data`.
fn fnv1a_from(mut state: u64, data: &[u8]) -> u64 {
    #[cfg(test)]
    tests::HASHED_BYTES.with(|n| n.set(n.get() + data.len()));
    for &b in data {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x1000_0000_01b3);
    }
    state
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
        other => Err(GraphExError::Corrupt(format!("unknown alignment tag {other}"))),
    }
}

fn sorted_leaf_ids(model: &GraphExModel) -> Vec<LeafId> {
    let mut leaf_ids: Vec<LeafId> = model.leaves.keys().copied().collect();
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
        /// Bytes this thread has fed through the FNV loop.
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
            let req = crate::InferRequest::new(title, leaf).k(10).resolve_texts(true);
            let resp = model.infer_request(&req, &mut scratch);
            (resp.texts, resp.predictions)
        })
        .collect()
    }

    #[test]
    fn v2_roundtrip_preserves_behavior() {
        let model = sample_model();
        let restored = from_bytes(&to_bytes(&model)).unwrap();
        assert_eq!(infer_outputs(&model), infer_outputs(&restored));
        assert_eq!(model.alignment(), restored.alignment());
        assert_eq!(model.stemming(), restored.stemming());
        assert_eq!(model.has_fallback(), restored.has_fallback());
    }

    #[test]
    fn v2_load_borrows_sections_zero_copy() {
        let model = sample_model();
        let bytes = to_bytes(&model);
        // Parsing the (aligned) serializer output: zero-copy.
        let loaded = bytes.parse().unwrap();
        for leaf in loaded.leaf_ids() {
            assert!(loaded.leaf_graph(leaf).unwrap().is_zero_copy(), "{leaf} was copied");
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
        assert!(restored.leaf_ids().all(|l| restored.leaf_graph(l).unwrap().is_zero_copy()));
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
        assert_eq!(mode, LoadMode::Mmap, "linux container should serve the mmap path");
        assert!(mapped.leaf_ids().all(|l| mapped.leaf_graph(l).unwrap().is_zero_copy()));

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
    fn golden_v2_header_layout() {
        // Pins the v2 header byte layout. If this test fails, the format
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
        assert_eq!(read_u32(&bytes, 4), 2, "version");
        assert_eq!(bytes[8], 0b11, "flags: stemming + fallback");
        assert_eq!(bytes[9], 0, "alignment tag: LTA");
        assert_eq!(&bytes[10..12], &[0, 0], "reserved");
        assert_eq!(read_u32(&bytes, 12), 2, "num_leaves");
        let dir_offset = read_u64(&bytes, 16);
        let section_count = read_u32(&bytes, 24);
        assert_eq!(&bytes[28..32], &[0, 0, 0, 0], "reserved");
        // 3 table/vocab sections + 7 per graph (2 leaves + fallback).
        assert_eq!(section_count, 3 + 7 * 3);
        assert_eq!(dir_offset % 8, 0);
        assert_eq!(
            dir_offset as usize + section_count as usize * V2_DIR_ENTRY_LEN + 8,
            bytes.len(),
            "directory runs exactly to the checksum trailer"
        );
        // First section: the leaf table, immediately after the header.
        assert_eq!(read_u32(&bytes, dir_offset as usize), section::LEAF_TABLE);
        assert_eq!(read_u64(&bytes, dir_offset as usize + 8), V2_HEADER_LEN as u64);
        // Every section is 8-aligned and inside [header, directory).
        for s in read_directory(&bytes).unwrap() {
            assert_eq!(s.offset % 8, 0, "section {s:?} misaligned");
            assert!(s.offset >= V2_HEADER_LEN as u64 && s.offset + s.byte_len <= dir_offset);
        }
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
        let sum = fnv1a(&wrong_magic[..n - 8]);
        wrong_magic[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(from_bytes(&wrong_magic), Err(GraphExError::Corrupt(_))));

        // An intact buffer of any other version is refused by every entry
        // point: neither parsed nor called corrupt.
        for version in [1u8, 99] {
            let mut other = bytes.clone();
            other[4] = version;
            let sum = fnv1a(&other[..n - 8]);
            other[n - 8..].copy_from_slice(&sum.to_le_bytes());
            let refused = |res: Result<()>| {
                matches!(res, Err(GraphExError::UnsupportedVersion(v)) if v == u32::from(version))
            };
            assert!(refused(from_bytes(&other).map(drop)), "from_bytes, version {version}");
            let shared = Bytes::from(other.clone());
            assert!(refused(from_shared(shared).map(drop)), "from_shared, version {version}");
            assert!(refused(inspect(&other).map(drop)), "inspect, version {version}");
        }
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
        assert_eq!(written.checksum(), file_sum, "to_bytes knows the file checksum");

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
        assert_eq!(counting(|| from_shared(shared.clone()).unwrap()).1, shared.len());
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
        let sum = fnv1a(&other_version[..n - 8]);
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
        assert!(matches!(hash(Bytes::from(flipped)).parse(), Err(GraphExError::Corrupt(_))));
        assert!(matches!(
            hash(Bytes::from(other_version)).parse(),
            Err(GraphExError::UnsupportedVersion(9))
        ));
    }

    #[test]
    #[should_panic(expected = "does not fit the format's u16 length")]
    fn oversized_vocab_string_is_refused_at_write() {
        let mut vocab = Vocab::new();
        vocab.intern("x".repeat(u16::MAX as usize + 1));
        put_vocab_blob(&mut BytesMut::new(), &vocab);
    }

    #[test]
    fn inspect_reads_header_and_directory() {
        let model = sample_model();
        let v2 = to_bytes(&model);
        let info = inspect(&v2).unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.num_leaves, 2);
        assert_eq!(info.num_keyphrases, 3);
        assert!(info.num_tokens >= 7);
        assert_eq!(info.num_sections, 3 + 7 * 2);
        assert_eq!(info.size_bytes, v2.len());
        assert_eq!(model.size_bytes(), v2.len());
        assert!(info.stemming);
        assert!(!info.has_fallback);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let res = load_from("/nonexistent/graphex/model.gexm");
        assert!(matches!(res, Err(GraphExError::Io(_))));
    }
}
