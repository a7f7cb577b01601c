//! Record TSV output: `text<TAB>leaf_id<TAB>search_count<TAB>recall_count`.
//!
//! Reading lives in the build pipeline (`graphex_pipeline::source`,
//! streaming with per-source error accounting) — the TSV grammar exists
//! exactly once; [`parse_line`] re-exports it for CLI callers.

use graphex_core::KeyphraseRecord;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Parses one TSV record line (the single source of truth is
/// [`graphex_pipeline::source::parse_tsv_line`]).
pub fn parse_line(line: &str) -> Result<KeyphraseRecord, String> {
    graphex_pipeline::source::parse_tsv_line(line)
}

/// Writes records to a TSV file (buffered).
pub fn write_tsv(path: impl AsRef<Path>, records: &[KeyphraseRecord]) -> Result<(), String> {
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("create {}: {e}", path.as_ref().display()))?;
    let mut out = BufWriter::new(file);
    for rec in records {
        writeln!(
            out,
            "{}\t{}\t{}\t{}",
            rec.text, rec.leaf.0, rec.search_count, rec.recall_count
        )
        .map_err(|e| format!("write: {e}"))?;
    }
    out.flush().map_err(|e| format!("flush: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::LeafId;
    use graphex_pipeline::{RecordSource, TsvFileSource};

    #[test]
    fn parse_valid_line() {
        let rec = parse_line("gaming headphones\t42\t800\t700").unwrap();
        assert_eq!(rec.text, "gaming headphones");
        assert_eq!(rec.leaf, LeafId(42));
        assert_eq!((rec.search_count, rec.recall_count), (800, 700));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_line("").is_err());
        assert!(parse_line("text only").is_err());
        assert!(parse_line("text\tnotanumber\t1\t2").is_err());
        assert!(parse_line("text\t1\t2\t3\t4").is_err());
        assert!(parse_line("\t1\t2\t3").is_err());
    }

    #[test]
    fn tsv_roundtrip_through_pipeline_source() {
        let dir = std::env::temp_dir().join(format!("graphex-records-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.tsv");
        let records = vec![
            KeyphraseRecord::new("a b", LeafId(1), 10, 2),
            KeyphraseRecord::new("c d e", LeafId(2), 30, 4),
        ];
        write_tsv(&path, &records).unwrap();
        let mut source = TsvFileSource::open(&path).unwrap();
        let mut back = Vec::new();
        source.next_batch(16, &mut back).unwrap();
        assert_eq!(back, records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
