//! # GraphEx — graph-based extraction for advertiser keyphrase recommendation
//!
//! Rust implementation of *GraphEx: A Graph-based Extraction Method for
//! Advertiser Keyphrase Recommendation* (Mishra et al., ICDE 2025,
//! arXiv:2409.03140).
//!
//! GraphEx recommends keyphrases (buyer search queries an advertiser can bid
//! on) for an item given only its **title** and **leaf category**. It solves
//! the constrained permutation problem of Sec. III-A: generate exactly those
//! permutations of title tokens that are *valid, actively-searched buyer
//! queries*, without being limited by token adjacency or presence order.
//!
//! The method has two phases:
//!
//! 1. **Construction** ([`GraphExBuilder`]): for every leaf category, build a
//!    bipartite graph from curated keyphrases — words on one side, keyphrases
//!    on the other, an edge whenever the word occurs in the keyphrase. The
//!    graph is stored in CSR; words and keyphrases are interned `u32`s.
//!    No weights, no hyper-parameters, no epochs: construction is a single
//!    pass and runs in seconds (paper: "under 1 minute" for eBay-scale
//!    categories).
//! 2. **Inference** ([`GraphExModel::infer`]): walk the adjacency of each
//!    title token, count per-keyphrase hits with a generation-stamped count
//!    array (the `DC(·)` de-duplicate-and-count of Algorithm 1), prune
//!    candidates by count group, then rank by **Label-Title Alignment**
//!    `LTA(l, c) = c / (|l| − c + 1)` with search-count / recall-count
//!    tie-breaks.
//!
//! ```
//! use graphex_core::{
//!     Engine, GraphExBuilder, GraphExConfig, InferRequest, KeyphraseRecord, LeafId, Outcome,
//! };
//!
//! let leaf = LeafId(7);
//! let records = vec![
//!     KeyphraseRecord::new("audeze maxwell", leaf, 900, 120),
//!     KeyphraseRecord::new("audeze headphones", leaf, 450, 300),
//!     KeyphraseRecord::new("gaming headphones xbox", leaf, 800, 700),
//!     KeyphraseRecord::new("wireless headphones xbox", leaf, 650, 800),
//!     KeyphraseRecord::new("bluetooth wireless headphones", leaf, 300, 900),
//! ];
//! let model = GraphExBuilder::new(GraphExConfig::default())
//!     .add_records(records)
//!     .build()
//!     .unwrap();
//!
//! // The Engine is the in-process inference service: shared model +
//! // pooled scratches, one typed request/response envelope per call.
//! let engine = Engine::from_model(model);
//! let request = InferRequest::new("Audeze Maxwell gaming headphones for Xbox", leaf)
//!     .k(3)
//!     .resolve_texts(true);
//! let response = engine.infer(&request);
//! // The outcome says *why* the answer is what it is: an exact-leaf hit.
//! assert_eq!(response.outcome, Outcome::ExactLeaf);
//! // "gaming headphones xbox" is fully matched: LTA 3/1 = 3.0 ranks first;
//! // "audeze maxwell" (LTA 2/1) beats "audeze headphones" on search count.
//! assert_eq!(response.texts, ["gaming headphones xbox", "audeze maxwell", "audeze headphones"]);
//! ```
//!
//! The crate is CPU-only, allocates per inference at steady state only the
//! answer it returns (pooled [`Scratch`] via [`Engine`]/[`Session`]; gated
//! by `tests/alloc_count.rs`), and scales batch
//! inference across cores with [`Engine::infer_batch`] /
//! [`parallel::batch_infer`] — per-request `k` and alignment included.
//! Every frontend (store-backed serving, CLI, evaluation, benches) speaks
//! the same [`KeyphraseService`] trait.

#![deny(unsafe_code)]

pub mod alignment;
pub mod assembly;
pub mod builder;
pub mod csr;
pub mod curation;
pub mod diff;
pub mod error;
pub mod explain;
pub mod inference;
pub mod leaf_graph;
pub mod model;
pub mod overlay;
pub mod parallel;
pub mod ranking;
pub mod serialize;
pub mod service;
// The crate's only `unsafe`, beside the invariants it relies on.
#[allow(unsafe_code)]
pub mod storage;
pub mod trace;
pub mod types;

pub use alignment::Alignment;
pub use builder::{GraphExBuilder, GraphExConfig};
pub use curation::{CurationConfig, CurationStats};
pub use error::GraphExError;
pub use explain::ExplainedPrediction;
pub use inference::{InferenceParams, Prediction, Scratch};
pub use model::{GraphExModel, ModelStats};
pub use overlay::{OverlayLeafStats, OverlayView};
pub use serialize::LoadMode;
pub use service::{
    Engine, InferRequest, InferResponse, KeyphraseService, Outcome, OutcomeCounts, ScratchPool,
    Session,
};
pub use trace::{SpanRec, Stage, StageTrace};
pub use types::{KeyphraseId, KeyphraseRecord, LeafId};
