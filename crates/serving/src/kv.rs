//! Sharded in-memory key-value store (the NuKV stand-in).
//!
//! Item id → recommended keyphrases. Sharded `RwLock`s keep the batch
//! writers and read-through writers from serializing behind one lock;
//! readers (the serving API) take shared locks only. Each record carries
//! the [`Outcome`] the inference reported when it was computed, so a store
//! hit can echo the same provenance a fresh inference would, and the
//! [`Tags`] serving compares against a request before answering from it —
//! among them the [`fingerprint`] of the title and leaf the answer was
//! computed for, so a revised item is never answered from its old title.
//!
//! A record is stored **packed** ([`PackedRecs`]): one immutable,
//! refcounted allocation holding the header, the keyphrases' end offsets
//! and their texts back to back. A serving hit is a refcount bump under
//! the shard's read lock — no per-phrase heap traffic — and an overwrite
//! swaps the record whole, so a reader keeps the one it took.
//! [`StoredRecs`] is that record decoded, for callers that want owned
//! strings ([`KvStore::get`]).

use crate::sync::{read, write};
use graphex_core::{LeafId, Outcome};
use graphex_textkit::{FxHashMap, FxHasher};
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of shards; power of two so the shard pick is a mask.
const SHARDS: usize = 16;

/// The fingerprint of the request an answer is computed for: a 64-bit Fx
/// hash of one word holding the leaf and the title's length, then the
/// title's bytes. (One leading word, because Fx's zero state absorbs a
/// zero word: hashed apart, leaf 0 and title `"\0"` would hash as leaf 1
/// and title `""`.) It is never 0 — the fingerprint [`KvStore::put`]
/// writes — so no request matches a record written without one.
pub fn fingerprint(leaf: LeafId, title: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u64((u64::from(leaf.0) << 32) ^ title.len() as u64);
    hasher.write(title.as_bytes());
    hasher.finish().max(1)
}

/// What a record was computed by and for; serving answers a request from
/// it only while all three still hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tags {
    /// Registry version of the model snapshot that computed the record (0
    /// for a fixed engine without a registry). Lets serving detect records
    /// that outlived a hot swap or rollback.
    pub snapshot_version: u64,
    /// Overlay sequence the record is known fresh through (0 for writers
    /// that never saw an overlay): the sequence the computing view had
    /// absorbed, raised by [`KvStore::retag`] when serving verifies that
    /// no later write could change the answer. Serving serves the record
    /// outright while no upsert touched its leaf after this sequence;
    /// past it, only while no later upsert carried a word of the record's
    /// title or created its leaf — so cached answers never hide fresh
    /// overlay content.
    pub overlay_epoch: u64,
    /// [`fingerprint`] of the title and leaf the record answers (0 from
    /// [`KvStore::put`], which no request matches).
    pub fingerprint: u64,
}

/// The stored record for one item, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecs {
    pub keyphrases: Vec<String>,
    /// Monotonic version (bumped on every overwrite; lets tests and
    /// consumers detect refreshes).
    pub version: u32,
    /// Provenance of the inference that produced these keyphrases
    /// (exact-leaf graph vs. meta fallback).
    pub outcome: Outcome,
    /// What the keyphrases were computed by and for.
    pub tags: Tags,
}

// Packed layout, little-endian, byte offsets:
//   0  version u32 | 4 count u32 | 8 snapshot_version u64
//   16 overlay_epoch u64 | 24 fingerprint u64
//   32 outcome (`Outcome::index`) u8
//   33 count × u32: where each keyphrase ends in the text
//   33 + 4·count: the keyphrases' UTF-8, back to back
const VERSION_AT: usize = 0;
const COUNT_AT: usize = 4;
const SNAPSHOT_AT: usize = 8;
const EPOCH_AT: usize = 16;
const FINGERPRINT_AT: usize = 24;
const OUTCOME_AT: usize = 32;
const ENDS_AT: usize = 33;

/// One item's record as the store holds it (module doc): immutable, one
/// allocation, cloned by refcount. The fields of [`StoredRecs`] are read
/// straight off the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRecs(Arc<[u8]>);

impl PackedRecs {
    /// Packs a first write (version 1).
    fn pack(keyphrases: &[String], outcome: Outcome, tags: Tags) -> Self {
        let count = u32::try_from(keyphrases.len()).expect("fewer than 2^32 keyphrases per item");
        let text: usize = keyphrases.iter().map(String::len).sum();
        let mut bytes = Vec::with_capacity(ENDS_AT + 4 * keyphrases.len() + text);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&tags.snapshot_version.to_le_bytes());
        bytes.extend_from_slice(&tags.overlay_epoch.to_le_bytes());
        bytes.extend_from_slice(&tags.fingerprint.to_le_bytes());
        bytes.push(outcome.index() as u8);
        let mut end = 0usize;
        for keyphrase in keyphrases {
            end += keyphrase.len();
            let end = u32::try_from(end).expect("under 4 GiB of keyphrase text per item");
            bytes.extend_from_slice(&end.to_le_bytes());
        }
        for keyphrase in keyphrases {
            bytes.extend_from_slice(keyphrase.as_bytes());
        }
        Self(bytes.into())
    }

    /// This record with another overlay epoch, in a new allocation; the
    /// version stays.
    fn with_epoch(&self, epoch: u64) -> Self {
        let mut bytes = self.0.to_vec();
        bytes[EPOCH_AT..EPOCH_AT + 8].copy_from_slice(&epoch.to_le_bytes());
        Self(bytes.into())
    }

    /// Stamps the version of a record no reader has seen yet.
    fn set_version(&mut self, version: u32) {
        let bytes = Arc::get_mut(&mut self.0).expect("a record is unshared until it is stored");
        bytes[VERSION_AT..VERSION_AT + 4].copy_from_slice(&version.to_le_bytes());
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.0[at..at + 4].try_into().expect("four bytes"))
    }

    fn u64_at(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.0[at..at + 8].try_into().expect("eight bytes"))
    }

    pub fn version(&self) -> u32 {
        self.u32_at(VERSION_AT)
    }

    pub fn outcome(&self) -> Outcome {
        Outcome::ALL[usize::from(self.0[OUTCOME_AT])]
    }

    pub fn snapshot_version(&self) -> u64 {
        self.u64_at(SNAPSHOT_AT)
    }

    pub fn overlay_epoch(&self) -> u64 {
        self.u64_at(EPOCH_AT)
    }

    /// The record's three [`Tags`], serving's freshness input.
    pub fn tags(&self) -> Tags {
        Tags {
            snapshot_version: self.snapshot_version(),
            overlay_epoch: self.overlay_epoch(),
            fingerprint: self.u64_at(FINGERPRINT_AT),
        }
    }

    /// Number of keyphrases.
    pub fn len(&self) -> usize {
        self.u32_at(COUNT_AT) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keyphrases, in rank order, borrowed from the record.
    pub fn keyphrases(&self) -> impl ExactSizeIterator<Item = &str> {
        let count = self.len();
        let text =
            std::str::from_utf8(&self.0[ENDS_AT + 4 * count..]).expect("packed from whole strings");
        let mut start = 0;
        (0..count).map(move |i| {
            let end = self.u32_at(ENDS_AT + 4 * i) as usize;
            let keyphrase = &text[start..end];
            start = end;
            keyphrase
        })
    }

    /// The record as owned fields.
    pub fn decode(&self) -> StoredRecs {
        StoredRecs {
            keyphrases: self.keyphrases().map(str::to_string).collect(),
            version: self.version(),
            outcome: self.outcome(),
            tags: self.tags(),
        }
    }

    /// Size of the record's one allocation: the two refcounts and the
    /// packed bytes.
    pub fn heap_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>() + self.0.len()
    }
}

/// Concurrent item → keyphrases store.
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<RwLock<FxHashMap<u64, PackedRecs>>>,
    /// Sum of [`PackedRecs::heap_bytes`] over the stored records.
    bytes: AtomicUsize,
}

impl Default for KvStore {
    fn default() -> Self {
        Self::new()
    }
}

impl KvStore {
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            bytes: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn shard(&self, item: u64) -> &RwLock<FxHashMap<u64, PackedRecs>> {
        &self.shards[(item as usize) & (SHARDS - 1)]
    }

    /// Writes (or overwrites) an item's keyphrases, bumping the version.
    /// `snapshot_version` tags the record with the model snapshot that
    /// produced it (0 for a fixed engine without a registry). The overlay
    /// epoch and the fingerprint are 0, so serving never answers a request
    /// from the record — writers that know the request use
    /// [`KvStore::put_tagged`].
    pub fn put(&self, item: u64, keyphrases: Vec<String>, outcome: Outcome, snapshot_version: u64) {
        self.put_tagged(
            item,
            &keyphrases,
            outcome,
            Tags {
                snapshot_version,
                ..Tags::default()
            },
        );
    }

    /// [`KvStore::put`] with every tag given: the overlay sequence the
    /// computing view had absorbed and the [`fingerprint`] of the title and
    /// leaf the keyphrases answer.
    pub fn put_tagged(&self, item: u64, keyphrases: &[String], outcome: Outcome, tags: Tags) {
        // Packed before the lock is taken; only the version needs it.
        let mut record = PackedRecs::pack(keyphrases, outcome, tags);
        self.bytes.fetch_add(record.heap_bytes(), Ordering::Relaxed);
        let replaced = {
            let mut shard = write(self.shard(item));
            if let Some(existing) = shard.get(&item) {
                record.set_version(existing.version() + 1);
            }
            shard.insert(item, record)
        };
        if let Some(replaced) = &replaced {
            self.forget(replaced);
        }
    }

    /// Raises the overlay epoch of `item`'s record to `epoch`, provided the
    /// store still holds `seen` — the very record (`Arc::ptr_eq`) serving
    /// verified — so a record written since is never overwritten. The
    /// version stays: the answer did not change, only how long it is
    /// known to hold. Returns whether the record was re-tagged.
    pub fn retag(&self, item: u64, seen: &PackedRecs, epoch: u64) -> bool {
        // Copied before the lock is taken; it is swapped in only if `seen`
        // is still the item's record.
        let retagged = seen.with_epoch(epoch);
        let mut shard = write(self.shard(item));
        match shard.get_mut(&item) {
            Some(current) if Arc::ptr_eq(&current.0, &seen.0) => {
                *current = retagged;
                true
            }
            _ => false,
        }
    }

    /// Takes a record that left the map out of the byte count.
    fn forget(&self, record: &PackedRecs) {
        self.bytes.fetch_sub(record.heap_bytes(), Ordering::Relaxed);
    }

    /// The serving read path: the item's record, shared, not copied.
    pub fn record(&self, item: u64) -> Option<PackedRecs> {
        read(self.shard(item)).get(&item).cloned()
    }

    /// The item's record decoded into owned strings.
    pub fn get(&self, item: u64) -> Option<StoredRecs> {
        self.record(item).map(|record| record.decode())
    }

    /// An item's record's [`Tags`] (cheap enough to call under another
    /// lock).
    pub fn probe_tags(&self, item: u64) -> Option<Tags> {
        read(self.shard(item)).get(&item).map(PackedRecs::tags)
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes an item (listing ended).
    pub fn remove(&self, item: u64) -> bool {
        let removed = write(self.shard(item)).remove(&item);
        if let Some(removed) = &removed {
            self.forget(removed);
        }
        removed.is_some()
    }

    /// Heap bytes the stored records occupy: each record's one allocation
    /// ([`PackedRecs::heap_bytes`]), kept as a running sum. The shard
    /// maps' own tables (24 bytes an entry before load factor) are not in
    /// it.
    pub fn record_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let kv = KvStore::new();
        kv.put(7, vec!["a".into(), "b".into()], Outcome::ExactLeaf, 0);
        let got = kv.get(7).unwrap();
        assert_eq!(got.keyphrases, ["a", "b"]);
        assert_eq!(got.version, 1);
        assert_eq!(got.outcome, Outcome::ExactLeaf);
        assert!(kv.get(8).is_none());
    }

    #[test]
    fn overwrite_bumps_version_and_updates_outcome() {
        let kv = KvStore::new();
        kv.put(7, vec!["a".into()], Outcome::ExactLeaf, 3);
        kv.put(7, vec!["b".into()], Outcome::MetaFallback, 4);
        let got = kv.get(7).unwrap();
        assert_eq!(got.keyphrases, ["b"]);
        assert_eq!(got.version, 2);
        assert_eq!(got.outcome, Outcome::MetaFallback);
        assert_eq!(got.tags.snapshot_version, 4);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn put_tagged_carries_the_overlay_epoch() {
        let kv = KvStore::new();
        kv.put(1, vec!["plain".into()], Outcome::ExactLeaf, 2);
        let plain = Tags {
            snapshot_version: 2,
            overlay_epoch: 0,
            fingerprint: 0,
        };
        assert_eq!(
            kv.get(1).unwrap().tags,
            plain,
            "plain puts carry no epoch or fingerprint"
        );
        assert_eq!(kv.probe_tags(1), Some(plain));
        let tagged = Tags {
            snapshot_version: 2,
            overlay_epoch: 17,
            fingerprint: 99,
        };
        kv.put_tagged(1, &["tagged".into()], Outcome::ExactLeaf, tagged);
        let got = kv.get(1).unwrap();
        assert_eq!((got.version, got.tags), (2, tagged));
        assert_eq!(kv.probe_tags(1), Some(tagged));
        assert_eq!(kv.probe_tags(9), None);
    }

    /// A re-tag raises the epoch of exactly the record it was handed and
    /// nothing else: the version, the keyphrases, the other tags and the
    /// byte count stay, and a record written since is left alone.
    #[test]
    fn retag_raises_the_epoch_of_the_record_it_saw_only() {
        let kv = KvStore::new();
        let tags = Tags {
            snapshot_version: 3,
            overlay_epoch: 5,
            fingerprint: 99,
        };
        kv.put_tagged(1, &["a".into(), "b".into()], Outcome::ExactLeaf, tags);
        kv.put_tagged(1, &["a".into(), "b".into()], Outcome::ExactLeaf, tags);
        let seen = kv.record(1).unwrap();
        let bytes = kv.record_bytes();
        assert!(kv.retag(1, &seen, 9));
        let got = kv.get(1).unwrap();
        assert_eq!(got.version, 2, "a re-tag is no write");
        assert_eq!(got.keyphrases, ["a", "b"]);
        assert_eq!(
            got.tags,
            Tags {
                overlay_epoch: 9,
                ..tags
            }
        );
        assert_eq!(kv.record_bytes(), bytes);
        // `seen` is no longer the item's record: a second re-tag through
        // it is refused.
        assert!(!kv.retag(1, &seen, 12));
        assert_eq!(kv.get(1).unwrap().tags.overlay_epoch, 9);
        // Nor does a re-tag overwrite a record written after it was read.
        let stale = kv.record(1).unwrap();
        kv.put_tagged(1, &["newer".into()], Outcome::ExactLeaf, tags);
        assert!(!kv.retag(1, &stale, 20));
        let got = kv.get(1).unwrap();
        assert_eq!(
            (got.keyphrases, got.version, got.tags),
            (vec!["newer".to_string()], 3, tags)
        );
        assert!(!kv.retag(2, &stale, 20), "absent items stay absent");
        assert!(kv.get(2).is_none());
    }

    /// The fingerprint tells apart what a request can differ in — the
    /// leaf, the title, a title that only grows by a zero byte — and is
    /// never the 0 a plain `put` writes.
    #[test]
    fn fingerprint_separates_leaf_and_title_and_is_never_zero() {
        let titles = [
            "",
            "a",
            "a\0",
            "\0",
            "widget gadget pro",
            "widget gadget pro ",
            "é",
        ];
        let mut seen = FxHashMap::default();
        for leaf in [0, 1, 2, u32::MAX] {
            for title in titles {
                let print = fingerprint(LeafId(leaf), title);
                assert_ne!(print, 0);
                assert_eq!(print, fingerprint(LeafId(leaf), title), "deterministic");
                let clash = seen.insert(print, (leaf, title));
                assert!(clash.is_none(), "{clash:?} and {:?}", (leaf, title));
            }
        }
    }

    /// Packing loses nothing: empty lists, empty strings, bytes JSON
    /// escapes, multi-byte text, and every tag at its extremes.
    #[test]
    fn packed_records_decode_to_what_was_put() {
        let kv = KvStore::new();
        let lists: [Vec<String>; 4] = [
            vec![],
            vec![String::new()],
            vec![
                "".into(),
                "line\nbreak \"quoted\" \\".into(),
                "".into(),
                "é😀 wide".into(),
            ],
            (0..300).map(|i| format!("kp {i}")).collect(),
        ];
        for (item, keyphrases) in lists.iter().enumerate() {
            let item = item as u64;
            let tags = Tags {
                snapshot_version: u64::MAX,
                overlay_epoch: u64::MAX - 1,
                fingerprint: u64::MAX - 2,
            };
            for outcome in Outcome::ALL {
                kv.put_tagged(item, keyphrases, outcome, tags);
                let record = kv.record(item).unwrap();
                assert_eq!(record.len(), keyphrases.len());
                assert!(record
                    .keyphrases()
                    .eq(keyphrases.iter().map(String::as_str)));
                let got = kv.get(item).unwrap();
                assert_eq!(&got.keyphrases, keyphrases);
                assert_eq!((got.outcome, got.tags), (outcome, tags));
            }
            assert_eq!(kv.get(item).unwrap().version, Outcome::ALL.len() as u32);
        }
    }

    /// The running byte count is the sum over what is stored, through
    /// overwrites and removals.
    #[test]
    fn record_bytes_tracks_the_stored_records() {
        let kv = KvStore::new();
        let walked = |kv: &KvStore| -> usize {
            (0..8u64)
                .filter_map(|item| kv.record(item))
                .map(|r| r.heap_bytes())
                .sum()
        };
        assert_eq!(kv.record_bytes(), 0);
        kv.put(1, vec!["abc".into(), "de".into()], Outcome::ExactLeaf, 1);
        // Two refcounts, the 33-byte header, two end offsets, five bytes.
        assert_eq!(kv.record_bytes(), 16 + 33 + 8 + 5);
        kv.put(2, vec!["x".repeat(100)], Outcome::ExactLeaf, 2);
        kv.put(3, vec![], Outcome::Empty, 0);
        assert_eq!(kv.record_bytes(), walked(&kv));
        kv.put(1, vec!["shorter".into()], Outcome::ExactLeaf, 1);
        assert_eq!(kv.record_bytes(), walked(&kv));
        assert!(kv.remove(3));
        assert_eq!(kv.record_bytes(), walked(&kv));
        assert!(kv.remove(2));
        assert_eq!(kv.record_bytes(), walked(&kv));
        assert_eq!(kv.record_bytes(), kv.record(1).unwrap().heap_bytes());
    }

    #[test]
    fn remove_works() {
        let kv = KvStore::new();
        kv.put(1, vec!["x".into()], Outcome::ExactLeaf, 0);
        assert!(kv.remove(1));
        assert!(!kv.remove(1));
        assert!(kv.is_empty());
    }

    #[test]
    fn spread_across_shards() {
        let kv = KvStore::new();
        for i in 0..1000u64 {
            kv.put(i, vec![format!("kp{i}")], Outcome::ExactLeaf, 1);
        }
        assert_eq!(kv.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(kv.get(i).unwrap().keyphrases[0], format!("kp{i}"));
        }
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let kv = std::sync::Arc::new(KvStore::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = t * 1000 + i;
                    kv.put(key, vec![format!("{key}")], Outcome::ExactLeaf, 1);
                    assert!(kv.get(key).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.len(), 2000);
    }
}
