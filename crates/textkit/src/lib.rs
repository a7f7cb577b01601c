//! Text substrate for GraphEx.
//!
//! The GraphEx paper (Sec. III-C, fn. 3) allows "any tokenization scheme as
//! long as string comparison functions are well-defined and consistent".
//! This crate provides the pieces every other crate in the workspace builds
//! on:
//!
//! * [`Tokenizer`] — configurable normalization + whitespace tokenization
//!   (lowercasing, punctuation stripping, optional stemming).
//! * [`stem()`] — a light rule-based English stemmer standing in for the
//!   proprietary stemming function mentioned in Sec. IV-F1 of the paper.
//! * [`Vocab`] — a string interner mapping tokens/keyphrases to dense `u32`
//!   ids so the hot paths never touch strings (paper Sec. III-F: "words and
//!   labels are represented as unsigned integers to ... convert string
//!   comparisons to integer ones").
//! * [`FxHashMap`]/[`FxHashSet`] — std collections with a fast
//!   multiply-based hasher for integer-keyed maps on hot paths.
//!
//! # Example
//!
//! ```
//! use graphex_textkit::{Tokenizer, Vocab};
//!
//! let tok = Tokenizer::default();
//! let mut vocab = Vocab::new();
//! let ids: Vec<u32> = tok
//!     .tokenize("Audeze Maxwell Gaming Headphones, for Xbox!")
//!     .map(|t| vocab.intern(t))
//!     .collect();
//! assert_eq!(ids.len(), 6);
//! assert_eq!(vocab.resolve(ids[0]), Some("audeze"));
//! ```

#![forbid(unsafe_code)]

pub mod fxhash;
pub mod normalize;
pub mod stem;
pub mod tokenize;
pub mod vocab;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use normalize::normalize_into;
pub use stem::stem;
pub use tokenize::{TokenBuf, TokenIter, Tokenizer, TokenizerBuilder};
pub use vocab::{TokenId, Vocab};
