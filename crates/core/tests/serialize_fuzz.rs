//! Deserialization robustness: arbitrary and mutated byte streams must
//! never panic, loop, or silently succeed — corrupt model files are an
//! operational reality for anything loaded from disk.
//!
//! The corruption properties are pinned to [`GraphExError::Corrupt`]
//! specifically (not just "some error"): the checksum runs before the
//! version check, so no flip or truncation may surface as a bogus
//! `UnsupportedVersion` or — worse — a panic.

use graphex_core::{
    serialize, GraphExBuilder, GraphExConfig, GraphExError, KeyphraseRecord, LeafId,
};
use proptest::prelude::*;

fn sample_model() -> graphex_core::GraphExModel {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    GraphExBuilder::new(config)
        .add_records(vec![
            KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
            KeyphraseRecord::new("gaming headphones xbox", LeafId(7), 800, 700),
            KeyphraseRecord::new("usb c charger", LeafId(9), 500, 50),
        ])
        .build()
        .unwrap()
}

fn sample_bytes_v3() -> Vec<u8> {
    serialize::to_bytes(&sample_model()).to_vec()
}

fn assert_corrupt(res: Result<graphex_core::GraphExModel, GraphExError>, what: &str) {
    match res {
        Err(GraphExError::Corrupt(_)) => {}
        Err(other) => panic!("{what}: expected Corrupt, got {other:?}"),
        Ok(_) => panic!("{what}: corrupt bytes accepted"),
    }
}

proptest! {
    /// Arbitrary garbage: always a clean error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = serialize::from_bytes(&data);
    }

    /// Random single-byte flips of a valid v3 snapshot: always
    /// `Corrupt` — the checksum rejects the flip before any structural
    /// parsing (or the version check) can misread it, and with certainty:
    /// a change confined to one 8-byte word always changes the sum.
    #[test]
    fn v3_byte_flips_are_corrupt(pos in 0usize..100_000, xor in 1u8..=255) {
        let mut bytes = sample_bytes_v3();
        let idx = pos % bytes.len();
        bytes[idx] ^= xor;
        assert_corrupt(serialize::from_bytes(&bytes), "v3 flip");
    }

    /// Random truncations of a v3 snapshot: always `Corrupt`.
    #[test]
    fn v3_truncations_are_corrupt(cut in 0usize..100_000) {
        let bytes = sample_bytes_v3();
        let cut = cut % bytes.len(); // strictly shorter than the valid model
        assert_corrupt(serialize::from_bytes(&bytes[..cut]), "v3 truncation");
    }

    /// Garbage appended after a valid model: rejected (trailing data means
    /// the reader and writer disagree about the format).
    #[test]
    fn trailing_garbage_is_rejected(tail in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut bytes = sample_bytes_v3();
        bytes.extend_from_slice(&tail);
        assert_corrupt(serialize::from_bytes(&bytes), "v3 trailing garbage");
    }

    /// Flips survive the zero-copy path too: `from_shared` (aligned
    /// buffer, borrowed sections) rejects exactly like `from_bytes`.
    #[test]
    fn v3_shared_load_rejects_flips(pos in 0usize..100_000, xor in 1u8..=255) {
        let mut bytes = sample_bytes_v3();
        let idx = pos % bytes.len();
        bytes[idx] ^= xor;
        let shared = bytes::Bytes::from_owner(graphex_core::storage::AlignedBuf::copy_from(&bytes));
        assert_corrupt(serialize::from_shared(shared), "v3 shared flip");
    }

    /// The mmap load path holds the same guarantee: a bit-flipped or
    /// truncated snapshot *file*, loaded through `load_snapshot` with
    /// either backend preference, is `Corrupt` (naming the file), never
    /// a panic or a bogus `UnsupportedVersion`.
    #[test]
    fn mapped_flips_and_truncations_are_corrupt(pos in 0usize..100_000, xor in 1u8..=255, cut in 0usize..100_000, heap in any::<bool>()) {
        let mut bytes = sample_bytes_v3();
        let idx = pos % bytes.len();
        bytes[idx] ^= xor;
        let prefer = if heap { serialize::LoadMode::Heap } else { serialize::LoadMode::Mmap };

        let path = fuzz_file("flip", &bytes);
        match serialize::load_snapshot(&path, prefer) {
            Err(GraphExError::Corrupt(what)) => prop_assert!(what.contains("fuzz-flip"), "path missing: {what}"),
            other => prop_assert!(false, "mapped flip: expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();

        let bytes = sample_bytes_v3();
        let path = fuzz_file("cut", &bytes[..cut % bytes.len()]);
        match serialize::load_snapshot(&path, prefer) {
            Err(GraphExError::Corrupt(_)) => {}
            other => prop_assert!(false, "mapped truncation: expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Writes fuzz bytes to a per-process temp file (proptest runs cases
/// sequentially, so one file per label cannot race within a test).
fn fuzz_file(label: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("graphex-fuzz-{label}-{}.gexm", std::process::id()));
    std::fs::write(&path, bytes).expect("write fuzz file");
    path
}

#[test]
fn valid_model_still_loads() {
    // Guard against the fuzz tests passing because *everything* is rejected.
    let bytes = sample_bytes_v3();
    let model = serialize::from_bytes(&bytes).expect("valid v3 bytes load");
    assert_eq!(model.num_keyphrases(), 3);
}
