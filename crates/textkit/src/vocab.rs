//! String interning.
//!
//! Maps strings to dense `u32` ids and back. Used for the global token
//! vocabulary and the global keyphrase table; all cross-crate identifiers in
//! the workspace are interned ids, never strings (paper Sec. III-F).

use crate::fxhash::FxHasher;
use std::hash::Hasher;

/// Dense id of an interned string.
pub type TokenId = u32;

/// An unoccupied slot of the id table.
const EMPTY: u32 = u32::MAX;
/// The id table's smallest non-empty size.
const MIN_SLOTS: usize = 8;

/// Append-only string interner.
///
/// Ids are assigned in first-seen order starting at 0, so they can index
/// plain `Vec`s in downstream structures. Lookup is O(1) amortized; resolve
/// is O(1).
///
/// Three flat buffers and nothing per string: the strings back to back
/// in id order, where each one ends, and an open-addressed table of ids
/// (linear probing, at most half full) that is probed with the Fx hash
/// of the string and compared against the blob. Interning allocates only
/// when a buffer grows, and a clone is three copies.
#[derive(Default, Clone)]
pub struct Vocab {
    blob: String,
    /// `ends[id]` is where string `id` ends in `blob`; it starts where
    /// the one before it ends.
    ends: Vec<u32>,
    /// Ids, or [`EMPTY`]; the length is zero or a power of two.
    table: Vec<u32>,
}

impl Vocab {
    pub fn new() -> Self {
        Self::default()
    }

    /// A vocabulary that takes `strings` strings of `bytes` bytes in all
    /// without growing a buffer.
    pub fn with_capacity(strings: usize, bytes: usize) -> Self {
        Self {
            blob: String::with_capacity(bytes),
            ends: Vec::with_capacity(strings),
            table: vec![EMPTY; slots_for(strings)],
        }
    }

    /// The vocabulary whose strings are `blob` cut at `ends` — string
    /// `id` is `blob[ends[id - 1]..ends[id]]`, the first starting at 0:
    /// what [`Vocab::parts`] returned, and what interning those strings
    /// one by one into an empty vocabulary builds.
    ///
    /// The parts are outside input (a snapshot's string table), so every
    /// condition is checked and named when it fails: the blob is UTF-8,
    /// the ends never decrease, each falls on a char boundary, the last
    /// is the blob's length, and no string occurs twice (interning would
    /// have returned the old id, so such parts describe no vocabulary).
    /// Three allocations, each of its final size; the id table is seated
    /// in one pass.
    pub fn from_parts(blob: &[u8], ends: &[u32]) -> Result<Self, &'static str> {
        if ends.len() >= EMPTY as usize {
            return Err("more strings than ids");
        }
        let blob = std::str::from_utf8(blob).map_err(|_| "blob is not utf-8")?;
        let mut start = 0usize;
        for &end in ends {
            let end = end as usize;
            if end < start {
                return Err("ends decrease");
            }
            // Also refuses an end past the blob.
            if !blob.is_char_boundary(end) {
                return Err("end is not on a char boundary of the blob");
            }
            start = end;
        }
        if start != blob.len() {
            return Err("last end is not the blob's length");
        }
        let mut vocab = Self {
            blob: blob.to_owned(),
            ends: ends.to_vec(),
            table: vec![EMPTY; slots_for(ends.len())],
        };
        let mut start = 0usize;
        for (id, &end) in ends.iter().enumerate() {
            let s = &vocab.blob[start..end as usize];
            match vocab.probe(hash_of(s), s) {
                Ok(_) => return Err("duplicate string"),
                Err(slot) => vocab.table[slot] = id as u32,
            }
            start = end as usize;
        }
        Ok(vocab)
    }

    /// The strings back to back in id order, and where each ends: the
    /// input of [`Vocab::from_parts`].
    pub fn parts(&self) -> (&[u8], &[u32]) {
        (self.blob.as_bytes(), &self.ends)
    }

    /// Interns `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: impl AsRef<str>) -> TokenId {
        let s = s.as_ref();
        let hash = hash_of(s);
        let slot = match self.probe(hash, s) {
            Ok(id) => return id,
            Err(slot) if slots_for(self.ends.len() + 1) <= self.table.len() => slot,
            Err(_) => {
                self.grow();
                self.free_slot(hash)
            }
        };
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("vocab overflow: > u32::MAX strings");
        let end = u32::try_from(self.blob.len() + s.len())
            .expect("vocab overflow: > u32::MAX bytes of strings");
        self.blob.push_str(s);
        self.ends.push(end);
        self.table[slot] = id;
        id
    }

    /// Id of `s` if it was interned before.
    pub fn get(&self, s: impl AsRef<str>) -> Option<TokenId> {
        let s = s.as_ref();
        self.probe(hash_of(s), s).ok()
    }

    /// The string for `id`, if valid.
    pub fn resolve(&self, id: TokenId) -> Option<&str> {
        let end = *self.ends.get(id as usize)? as usize;
        Some(&self.blob[self.start_of(id)..end])
    }

    /// Where string `id` starts in the blob; `id` must be valid.
    fn start_of(&self, id: TokenId) -> usize {
        match id {
            0 => 0,
            _ => self.ends[id as usize - 1] as usize,
        }
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates `(id, string)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, &str)> {
        let mut start = 0usize;
        self.ends.iter().enumerate().map(move |(id, &end)| {
            let s = &self.blob[start..end as usize];
            start = end as usize;
            (id as TokenId, s)
        })
    }

    /// Heap footprint in bytes (for model-size accounting, paper
    /// Fig. 6b): the capacities of the three buffers.
    pub fn heap_bytes(&self) -> usize {
        self.blob.capacity()
            + (self.ends.capacity() + self.table.capacity()) * std::mem::size_of::<u32>()
    }

    /// Walks the probe sequence of `hash`: the id of `s`, or the free
    /// slot it would take (no slot at all while there is no table, which
    /// `intern` grows before it seats anything).
    fn probe(&self, hash: u64, s: &str) -> Result<TokenId, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mut slot = self.first_slot(hash);
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                return Err(slot);
            }
            let have = &self.blob.as_bytes()[self.start_of(id)..self.ends[id as usize] as usize];
            if have == s.as_bytes() {
                return Ok(id);
            }
            slot = (slot + 1) & (self.table.len() - 1);
        }
    }

    /// The first free slot on the probe sequence of `hash` (the table is
    /// never full).
    fn free_slot(&self, hash: u64) -> usize {
        let mut slot = self.first_slot(hash);
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & (self.table.len() - 1);
        }
        slot
    }

    /// Fx ends on a multiply, so the high bits are the mixed ones.
    fn first_slot(&self, hash: u64) -> usize {
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// Makes room in the id table for one more string and re-seats
    /// every id.
    fn grow(&mut self) {
        self.table = vec![EMPTY; slots_for(self.ends.len() + 1)];
        let mut start = 0usize;
        for id in 0..self.ends.len() {
            let end = self.ends[id] as usize;
            let slot = self.free_slot(hash_of(&self.blob[start..end]));
            self.table[slot] = id as u32;
            start = end;
        }
    }
}

/// The table size that keeps `strings` strings at most half full.
fn slots_for(strings: usize) -> usize {
    (strings * 2).next_power_of_two().max(MIN_SLOTS)
}

fn hash_of(s: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(s.as_bytes());
    hasher.finish()
}

impl std::fmt::Debug for Vocab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, s)| s)).finish()
    }
}

impl std::ops::Index<TokenId> for Vocab {
    type Output = str;

    fn index(&self, id: TokenId) -> &str {
        self.resolve(id).expect("invalid TokenId")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("headphones");
        let b = v.intern("headphones");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocab::new();
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("b"), 1);
        assert_eq!(v.intern("c"), 2);
        assert_eq!(v.intern("a"), 0);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut v = Vocab::new();
        let words = ["audeze", "maxwell", "gaming", "headphones"];
        let ids: Vec<TokenId> = words.iter().map(|w| v.intern(w)).collect();
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(v.resolve(*id), Some(*w));
            assert_eq!(v.get(w), Some(*id));
        }
        assert_eq!(v.resolve(99), None);
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn index_op() {
        let mut v = Vocab::new();
        let id = v.intern("xbox");
        assert_eq!(&v[id], "xbox");
    }

    #[test]
    #[should_panic(expected = "invalid TokenId")]
    fn index_op_panics_on_bad_id() {
        let v = Vocab::new();
        let _ = &v[0];
    }

    #[test]
    fn iter_in_order() {
        let mut v = Vocab::new();
        v.intern("x");
        v.intern("y");
        let collected: Vec<(u32, String)> = v.iter().map(|(i, s)| (i, s.to_string())).collect();
        assert_eq!(collected, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }

    #[test]
    fn heap_bytes_is_the_three_capacities() {
        let mut v = Vocab::new();
        assert_eq!(v.heap_bytes(), 0);
        for i in 0..1000 {
            v.intern(format!("word{i}"));
            assert_eq!(
                v.heap_bytes(),
                v.blob.capacity() + 4 * v.ends.capacity() + 4 * v.table.capacity()
            );
        }
        assert!(v.table.len().is_power_of_two() && v.table.len() >= 2 * v.len());
    }

    #[test]
    fn with_capacity_takes_exactly_that_many_without_growing() {
        for n in [1usize, 4, 5, 64, 1000] {
            let bytes = (0..n).map(|i| i.to_string().len()).sum();
            let mut v = Vocab::with_capacity(n, bytes);
            let before = (v.blob.capacity(), v.ends.capacity(), v.table.len());
            for i in 0..n {
                v.intern(i.to_string());
            }
            assert_eq!(
                (v.blob.capacity(), v.ends.capacity(), v.table.len()),
                before,
                "{n} strings"
            );
        }
    }
}
