//! # marketsim — synthetic e-commerce marketplace and search-log simulator
//!
//! The GraphEx paper evaluates on proprietary eBay data: one year of search
//! logs over meta categories with up to 200 M items. None of that is
//! publishable, so this crate builds the closest synthetic equivalent that
//! exercises the same code paths end to end:
//!
//! 1. **Catalog** ([`catalog`]): a category tree (meta → leaf), *product
//!    archetypes* per leaf (brand + line + type + attribute tokens), and
//!    items instantiated from archetypes with noisy titles.
//! 2. **Query universe** ([`queries`]): buyer queries generated from the
//!    same archetypes (type-generic, brand+type, brand+line, attribute
//!    variants) with Zipf-shaped search volume — head and tail keyphrases.
//! 3. **Sessions** ([`sessions`]): buyer search sessions with a ranked SRP,
//!    position/exposure bias and popularity-weighted clicks, producing a
//!    Missing-Not-At-Random click log with the paper's Fig. 2 skew
//!    (~96 % of items get no clicks; most clicked items have one query).
//! 4. **Oracle** ([`oracle`]): because the generator *knows* which
//!    constraints every query encodes, ground-truth relevance is exact —
//!    this is what the evaluation crate's AI-judge substitute wraps.
//!
//! Everything is deterministic given a seed, so experiments are exactly
//! reproducible; dataset scales are configurable via [`catalog::CategorySpec`]
//! with presets mirroring the paper's CAT_1/CAT_2/CAT_3 (Table II) at
//! laptop scale.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod churn;
pub mod corpus;
pub mod dataset;
pub mod oracle;
pub mod queries;
pub mod sessions;
pub mod wordgen;

pub use catalog::{CategorySpec, Item, Marketplace, Product};
pub use corpus::ChurnCorpus;
pub use dataset::CategoryDataset;
pub use oracle::RelevanceOracle;
pub use queries::{Query, QueryConstraint};
pub use sessions::{ClickStats, SearchLog};
