//! # graphex-pipeline — the data→model build subsystem
//!
//! GraphEx's operational selling point (paper Sec. III-D, IV-G) is that
//! construction is deterministic and training-free, so the whole model
//! can be rebuilt daily at marketplace scale. This crate turns the
//! seed-era single-threaded [`graphex_core::GraphExBuilder`] into a
//! production build pipeline:
//!
//! * **Streaming ingestion** ([`source`]): [`RecordSource`]s feed
//!   records from TSV/NDJSON files or a seeded
//!   [`graphex_marketsim::ChurnCorpus`] in bounded batches with
//!   per-source parse-error accounting — no full-corpus buffering.
//! * **Parallel sharded construction** ([`build`]): records are routed
//!   by leaf category to scoped worker threads over bounded
//!   (backpressuring) `std::sync::mpsc` channels; each worker curates and
//!   assembles its leaves concurrently and returns them when joined,
//!   and a deterministic single-threaded merge produces a model that is
//!   **byte-identical** to the sequential builder's output, for any
//!   worker count and any record arrival order.
//! * **Incremental delta builds**: every build writes a `BUILDINFO`
//!   manifest ([`BuildManifest`]) of per-leaf content fingerprints next
//!   to the snapshot; the next build borrows unchanged leaves straight
//!   out of the previous snapshot and reconstructs only the churned
//!   ones — with `delta build ≡ full rebuild` guaranteed byte-for-byte.
//! * **Registry integration**: [`BuildOutput::publish`] pushes the
//!   snapshot (+ manifest sidecar) through the
//!   [`graphex_serving::ModelRegistry`] admission pipeline — validate,
//!   warm up, atomic `CURRENT` flip — closing the loop
//!   ingest → build → publish → hot-swap → serve.
//!
//! ```
//! use graphex_core::{GraphExConfig, KeyphraseRecord, LeafId};
//! use graphex_pipeline::{build, BuildPlan, VecSource};
//!
//! let mut config = GraphExConfig::default();
//! config.curation.min_search_count = 0;
//! let records = vec![
//!     KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
//!     KeyphraseRecord::new("usb c charger", LeafId(9), 500, 50),
//! ];
//! let plan = BuildPlan::new(config).jobs(2);
//! let output = build(&plan, vec![Box::new(VecSource::new("demo", records))]).unwrap();
//! assert_eq!(output.report.leaves_total, 2);
//! // The manifest fingerprints every leaf for the next delta build.
//! assert_eq!(output.manifest.leaves.len(), 2);
//! ```

#![forbid(unsafe_code)]

mod build;
pub mod manifest;
pub mod shard;
pub mod source;

pub use build::{
    build, BuildOutput, BuildPlan, BuildReport, DeltaBase, PipelineError, PipelineResult,
    StageTimes,
};
pub use manifest::{buildinfo_path_for, BuildManifest, BUILDINFO_FILE};
pub use shard::{emit_shards, publish_shards, shard_of, shard_root, ShardSnapshot};
pub use source::{
    open_file_source, open_overlay_journal_source, overlay_journal_source, MarketsimSource,
    NdjsonFileSource, RecordSource, SourceStats, TsvFileSource, VecSource,
};
