//! # serving — the paper's Fig. 7 Batch/NRT serving architecture
//!
//! Sec. IV-H describes how GraphEx keyphrases reach sellers at eBay:
//!
//! * **Batch inference** on the Krylov ML platform — a full pass over all
//!   items, plus a *daily differential* over created/revised items, merged
//!   into **NuKV** (eBay's key-value store) and served through an inference
//!   API.
//! * **Near-real-time (NRT) inference** — item creation/revision events
//!   flow through a Flink window (deduplication + feature enrichment) into
//!   a Python scorer, so new listings get keyphrases within seconds.
//!
//! This crate reproduces that dataflow at process scale: a sharded
//! in-memory [`KvStore`] (NuKV), a [`BatchPipeline`] (full + differential
//! batch) and the [`ServingApi`] in front of them. NRT is the api's
//! read-through on a changed fingerprint: every stored answer carries the
//! [`kv::fingerprint`] of the title and leaf it was computed for, so a
//! request for a new or revised item misses, is computed, and its
//! write-back replaces the old answer — one path, and the keyed store is
//! the dedup window (the latest revision wins). The integration tests
//! assert the property the architecture exists to provide: *batch
//! precompute and read-through agree* — an item served through either
//! path carries the same keyphrases.

#![forbid(unsafe_code)]

//! A fourth moving part closes the production loop: the
//! [`ModelRegistry`] (module [`registry`]) manages versioned snapshot
//! directories and hot-swaps republished models under live traffic — the
//! daily-refresh half of Fig. 7 the first cut of this crate left out.
//! Serving and batch both consume a [`registry::ModelWatch`] so a
//! `publish` or `rollback` propagates to every consumer without restart.

//! A fifth part opens the NRT path to *brand-new* items: the
//! [`OverlayStore`] (module [`overlay`]) layers a mutable per-leaf delta
//! over the immutable snapshot at query time — upserted records are
//! servable within one request of their ack, journaled for the next
//! delta-build compaction, and bounded by a byte cap that sheds writes
//! once compaction falls behind.

pub mod api;
pub mod batch;
pub mod fleet;
pub mod kv;
pub mod overlay;
pub mod registry;
mod sync;

pub use api::{
    Answer, InFlightGuard, ServeReport, ServeSource, ServeStats, Served, ServingApi, SwapPolicy,
};
pub use batch::{BatchPipeline, BatchReport};
pub use fleet::{FleetConfig, FleetError, FleetResult, TenantFleet, TenantStatus};
pub use kv::{KvStore, PackedRecs, Tags};
pub use overlay::{
    DrainReport, OverlayError, OverlayJournal, OverlayStatus, OverlayStore, UpsertAck,
    DEFAULT_OVERLAY_CAP_BYTES,
};
pub use registry::{
    ActiveModel, ModelRegistry, ModelWatch, RegistryError, RegistryResult, SnapshotMeta,
};
