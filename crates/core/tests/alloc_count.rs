//! What the inference kernel allocates at steady state: the returned
//! `Vec<Prediction>`, and — when texts are asked for — the `Vec` of them
//! and one `String` each. Everything else lives in the session's
//! `Scratch`. A binary of its own because it replaces the global
//! allocator with a counting one.

use graphex_core::{Engine, GraphExBuilder, GraphExConfig, InferRequest, KeyphraseRecord, LeafId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialized
    /// and without a destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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

#[test]
fn steady_state_inference_allocates_only_what_it_returns() {
    // Two leaves of 200 phrases over 12 shared words: every title below has
    // far more than K candidates, stems through `-ies → y`, and is not
    // all-ASCII once in four.
    let words = [
        "battery", "case", "leather", "wireless", "charger", "cable", "mini", "pro", "red", "usb",
        "école", "glass",
    ];
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    let records = (0..400u32).map(|i| {
        let (a, b, c) = (i as usize % 12, (i as usize / 12) % 12, (i as usize * 7 / 5) % 12);
        let text = format!("{} {} {} model{}", words[a], words[b], words[c], i % 40);
        KeyphraseRecord::new(text, LeafId(i % 2), 10 + i % 17, 1 + i % 5)
    });
    let engine = Engine::from_model(GraphExBuilder::new(config).add_records(records).build().unwrap());
    let titles: Vec<String> = (0..50usize)
        .map(|i| {
            let accent = if i % 4 == 0 { "École" } else { "glasses" };
            format!("{} Batteries, {} CASES {accent} model{}", words[i % 10], words[(i + 3) % 10], i % 40)
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
