//! What the inference kernel allocates at steady state: the returned
//! `Vec<Prediction>`, and — when texts are asked for — the `Vec` of them
//! and one `String` each. Everything else lives in the session's
//! `Scratch`. What serializing a model allocates: the file, once, at
//! its final size. And what curating allocates: its two tables, grown by
//! doubling, never a copy of a text. A binary of its own because it
//! replaces the global allocator with a counting one.

use graphex_core::curation::Curator;
use graphex_core::{
    serialize, CurationConfig, Engine, GraphExBuilder, GraphExConfig, GraphExModel, InferRequest,
    KeyphraseRecord, LeafId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialized
    /// and without a destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// The bytes they asked for.
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Those of them that asked for at least `BIG_AT` bytes.
    static BIG: Cell<usize> = const { Cell::new(0) };
    static BIG_AT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size));
    if size >= BIG_AT.with(Cell::get) {
        BIG.with(|n| n.set(n.get() + 1));
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

const K: usize = 5;

const WORDS: [&str; 12] = [
    "battery", "case", "leather", "wireless", "charger", "cable", "mini", "pro", "red", "usb", "école",
    "glass",
];

/// `leaves` leaves of 200 phrases over 12 shared words.
fn model(leaves: u32) -> GraphExModel {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    let records = (0..200 * leaves).map(|i| {
        let (a, b, c) = (i as usize % 12, (i as usize / 12) % 12, (i as usize * 7 / 5) % 12);
        let text = format!("{} {} {} model{}", WORDS[a], WORDS[b], WORDS[c], i % 40);
        KeyphraseRecord::new(text, LeafId(i % leaves), 10 + i % 17, 1 + i % 5)
    });
    GraphExBuilder::new(config).add_records(records).build().unwrap()
}

#[test]
fn steady_state_inference_allocates_only_what_it_returns() {
    // Two leaves: every title below has far more than K candidates, stems
    // through `-ies → y`, and is not all-ASCII once in four.
    let engine = Engine::from_model(model(2));
    let titles: Vec<String> = (0..50usize)
        .map(|i| {
            let accent = if i % 4 == 0 { "École" } else { "glasses" };
            format!("{} Batteries, {} CASES {accent} model{}", WORDS[i % 10], WORDS[(i + 3) % 10], i % 40)
        })
        .collect();

    let mut session = engine.session();
    for resolve_texts in [false, true] {
        let budget = if resolve_texts { 2 + K } else { 1 };
        let mut served = 0;
        // The first pass over the titles grows the scratch to its final
        // size; the next twenty are the thousand calls that are counted.
        for pass in 0..21 {
            for (i, title) in titles.iter().enumerate() {
                let request =
                    InferRequest::new(title, LeafId(i as u32 % 2)).k(K).resolve_texts(resolve_texts);
                let before = allocations();
                let response = session.infer(&request);
                let spent = allocations() - before;
                assert_eq!(response.predictions.len(), K, "{title:?} has candidates to spare");
                assert_eq!(response.texts.len(), if resolve_texts { K } else { 0 });
                if pass > 0 {
                    assert!(spent <= budget, "{spent} allocations for {title:?} (texts: {resolve_texts})");
                    served += 1;
                }
            }
        }
        assert_eq!(served, 1_000);
    }
}

/// `to_bytes` sizes the file before it writes a byte: one allocation as
/// large as the file, never grown, and beside it only the sorted leaf
/// ids, the directory and the `Bytes` handle — however many leaves.
#[test]
fn to_bytes_allocates_the_file_once() {
    for leaves in [2, 40] {
        let model = model(leaves);
        let len = serialize::to_bytes(&model).len();
        assert!(len > 16 * 1024, "{len} bytes: too small a file to tell a writer that grows from one that does not");
        BIG_AT.with(|at| at.set(len));
        let (before, big_before) = (allocations(), BIG.with(Cell::get));
        let bytes = serialize::to_bytes(&model);
        let (spent, big) = (allocations() - before, BIG.with(Cell::get) - big_before);
        BIG_AT.with(|at| at.set(usize::MAX));
        assert_eq!(bytes.len(), len);
        assert_eq!(big, 1, "{leaves} leaves: allocations of the file's size");
        assert!(spent <= 4, "{leaves} leaves: {spent} allocations");
    }
}

/// Pushing `n` distinct records into a `Curator` allocates O(log n) times
/// — the kept records and the duplicate index each double — and copies no
/// text: it asks for the same bytes whether every text is 8 bytes long or
/// 800.
#[test]
fn curating_allocates_log_n_times_and_copies_no_text() {
    for n in [1_000usize, 20_000] {
        let mut spent = Vec::new();
        for width in [8usize, 800] {
            let records: Vec<KeyphraseRecord> = (0..n)
                .map(|i| KeyphraseRecord::new(format!("{i:0width$}"), LeafId(i as u32 % 7), 10, 1))
                .collect();
            let mut curator = Curator::new(CurationConfig::with_min_search_count(0));
            let before = (allocations(), BYTES.with(Cell::get));
            for rec in records {
                curator.push(rec);
            }
            spent.push((allocations() - before.0, BYTES.with(Cell::get) - before.1));
            assert_eq!(curator.len(), n);
        }
        let (count, _) = spent[0];
        let bound = 2 * n.ilog2() as usize + 4;
        assert!(count <= bound, "{n} records: {count} allocations (bound {bound})");
        assert_eq!(spent[0], spent[1], "{n} records: 8-byte vs 800-byte texts");
    }
}
