//! Error type for model construction, serialization and I/O.

use crate::types::LeafId;

/// Errors surfaced by the GraphEx public API.
#[derive(Debug)]
pub enum GraphExError {
    /// Underlying I/O failure while reading/writing a model file.
    Io(std::io::Error),
    /// The byte stream is not a GraphEx model or is truncated/corrupt.
    /// The payload describes which structural check failed.
    Corrupt(String),
    /// The model file has a format version this build cannot read.
    UnsupportedVersion(u32),
    /// No graph exists for the requested leaf category and no fallback
    /// graph was built (see [`crate::GraphExConfig::build_meta_fallback`]).
    UnknownLeaf(LeafId),
    /// Construction was asked to build a model from zero curated keyphrases.
    EmptyModel,
}

impl std::fmt::Display for GraphExError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Corrupt(what) => write!(f, "corrupt model data: {what}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported model format version {v}"),
            Self::UnknownLeaf(leaf) => write!(f, "no graph for {leaf} and no fallback configured"),
            Self::EmptyModel => write!(
                f,
                "no keyphrases survived curation; cannot build an empty model"
            ),
        }
    }
}

impl std::error::Error for GraphExError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphExError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl GraphExError {
    /// Attaches the offending file path to an error produced while
    /// loading `path`, so "checksum mismatch" in a fleet of tenants
    /// names which snapshot is corrupt.
    ///
    /// The variant is preserved — `Io` keeps its [`std::io::ErrorKind`]
    /// and `Corrupt` stays `Corrupt` with the path prefixed into the
    /// message — so callers matching on variants (or error kinds) are
    /// unaffected. Variants that carry no message pass through
    /// unchanged.
    pub fn with_path(self, path: impl AsRef<std::path::Path>) -> Self {
        let path = path.as_ref().display();
        match self {
            Self::Io(e) => {
                let kind = e.kind();
                Self::Io(std::io::Error::new(kind, format!("{path}: {e}")))
            }
            Self::Corrupt(what) => Self::Corrupt(format!("{path}: {what}")),
            other => other,
        }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphExError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GraphExError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        assert!(GraphExError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(GraphExError::UnknownLeaf(LeafId(3))
            .to_string()
            .contains("leaf#3"));
        assert!(GraphExError::EmptyModel.to_string().contains("curation"));
    }

    #[test]
    fn io_source_chain() {
        let e = GraphExError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
