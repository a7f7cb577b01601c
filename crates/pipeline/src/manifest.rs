//! The build manifest (`BUILDINFO`): per-leaf content fingerprints stored
//! next to a snapshot so the *next* build can reconstruct only what
//! changed.
//!
//! Plain `key value` text lines, same philosophy as the registry's
//! `MANIFEST` (forward-compatible: unknown keys are ignored):
//!
//! ```text
//! graphex-buildinfo 1
//! config <16-hex config fingerprint>
//! snapshot_checksum <16-hex serialize::checksum of the whole model.gexm>
//! records_in <raw records ingested>
//! parse_errors <records skipped as unparsable>
//! curation <input> <kept> <low_search> <token_bounds> <leaf_cap> <merged>
//! shard <index> <of>            (per-shard snapshots only)
//! leaf <leaf id> <16-hex fingerprint of the leaf's curated records>
//! leaf …
//! ```
//!
//! A `fallback <fingerprint | none>` line, which builds wrote until no
//! build read it, is one of the unknown keys an older file may carry.

use graphex_core::CurationStats;
use std::collections::BTreeMap;
use std::path::Path;

/// File name used both inside registry version directories and (with a
/// `.buildinfo` suffix convention) next to bare snapshot files.
pub const BUILDINFO_FILE: &str = "BUILDINFO";

/// Parsed `BUILDINFO`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildManifest {
    /// Fingerprint of everything in [`graphex_core::GraphExConfig`] that
    /// affects the built bytes; delta reuse requires an exact match.
    pub config_fingerprint: u64,
    /// `serialize::checksum` of the whole serialized snapshot this manifest describes
    /// (the same value the registry `MANIFEST` records) — lets tooling
    /// cross-check that a snapshot really is the manifest's build.
    pub snapshot_checksum: u64,
    /// Raw records ingested (before curation).
    pub records_in: u64,
    /// Records skipped as unparsable during ingestion.
    pub parse_errors: u64,
    /// What curation kept/dropped for this build.
    pub curation: CurationStats,
    /// `(index, of)` when this manifest describes one shard of a
    /// leaf-partitioned emission (`leaf % of == index`); `None` for a
    /// monolithic snapshot. Old parsers ignore the line (forward
    /// compatibility), so a shard snapshot is still a valid delta base.
    pub shard: Option<(u32, u32)>,
    /// Leaf id → fingerprint of the leaf's curated records.
    pub leaves: BTreeMap<u32, u64>,
}

impl BuildManifest {
    /// Serializes to `BUILDINFO` text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graphex-buildinfo 1");
        let _ = writeln!(out, "config {:016x}", self.config_fingerprint);
        let _ = writeln!(out, "snapshot_checksum {:016x}", self.snapshot_checksum);
        let _ = writeln!(out, "records_in {}", self.records_in);
        let _ = writeln!(out, "parse_errors {}", self.parse_errors);
        let c = &self.curation;
        let _ = writeln!(
            out,
            "curation {} {} {} {} {} {}",
            c.input, c.kept, c.dropped_low_search, c.dropped_token_bounds, c.dropped_leaf_cap,
            c.merged_duplicates
        );
        if let Some((index, of)) = self.shard {
            let _ = writeln!(out, "shard {index} {of}");
        }
        for (leaf, fp) in &self.leaves {
            let _ = writeln!(out, "leaf {leaf} {fp:016x}");
        }
        out
    }

    /// Parses `BUILDINFO` text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut manifest = BuildManifest {
            config_fingerprint: 0,
            snapshot_checksum: 0,
            records_in: 0,
            parse_errors: 0,
            curation: CurationStats::default(),
            shard: None,
            leaves: BTreeMap::new(),
        };
        let mut versioned = false;
        let mut saw_config = false;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            let fail = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            match key {
                "graphex-buildinfo" => {
                    if value.split_whitespace().next() != Some("1") {
                        return Err(fail("unsupported buildinfo version"));
                    }
                    versioned = true;
                }
                "config" => {
                    manifest.config_fingerprint =
                        u64::from_str_radix(value, 16).map_err(|_| fail("bad fingerprint"))?;
                    saw_config = true;
                }
                "snapshot_checksum" => {
                    manifest.snapshot_checksum =
                        u64::from_str_radix(value, 16).map_err(|_| fail("bad checksum"))?;
                }
                "records_in" => {
                    manifest.records_in = value.parse().map_err(|_| fail("bad count"))?;
                }
                "parse_errors" => {
                    manifest.parse_errors = value.parse().map_err(|_| fail("bad count"))?;
                }
                "curation" => {
                    let nums: Vec<usize> = value
                        .split_whitespace()
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| fail("bad curation stats"))?;
                    if nums.len() != 6 {
                        return Err(fail("curation stats need 6 fields"));
                    }
                    manifest.curation = CurationStats {
                        input: nums[0],
                        kept: nums[1],
                        dropped_low_search: nums[2],
                        dropped_token_bounds: nums[3],
                        dropped_leaf_cap: nums[4],
                        merged_duplicates: nums[5],
                    };
                }
                "shard" => {
                    let (index, of) = value.split_once(' ').ok_or_else(|| fail("bad shard line"))?;
                    let index: u32 = index.parse().map_err(|_| fail("bad shard index"))?;
                    let of: u32 = of.parse().map_err(|_| fail("bad shard count"))?;
                    if of == 0 || index >= of {
                        return Err(fail("shard index out of range"));
                    }
                    manifest.shard = Some((index, of));
                }
                "leaf" => {
                    let (id, fp) = value.split_once(' ').ok_or_else(|| fail("bad leaf line"))?;
                    let id: u32 = id.parse().map_err(|_| fail("bad leaf id"))?;
                    let fp = u64::from_str_radix(fp, 16).map_err(|_| fail("bad fingerprint"))?;
                    if manifest.leaves.insert(id, fp).is_some() {
                        return Err(fail("duplicate leaf"));
                    }
                }
                _ => {} // forward-compatible
            }
        }
        if !versioned {
            return Err("missing graphex-buildinfo header".into());
        }
        if !saw_config {
            return Err("missing config fingerprint".into());
        }
        Ok(manifest)
    }

    /// Reads and parses a `BUILDINFO` file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The conventional `BUILDINFO` location for a snapshot path: the file
/// itself inside a registry version directory, a `.buildinfo`-suffixed
/// sibling for a bare `model.gexm`.
pub fn buildinfo_path_for(snapshot: &Path) -> std::path::PathBuf {
    match snapshot.parent() {
        Some(dir) if dir.join(BUILDINFO_FILE).is_file() => dir.join(BUILDINFO_FILE),
        _ => {
            let mut name = snapshot.file_name().unwrap_or_default().to_os_string();
            name.push(".buildinfo");
            snapshot.with_file_name(name)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BuildManifest {
        BuildManifest {
            config_fingerprint: 0xDEAD_BEEF_0123_4567,
            snapshot_checksum: 0x0FED_CBA9_8765_4321,
            records_in: 1000,
            parse_errors: 3,
            curation: CurationStats {
                input: 1000,
                kept: 800,
                dropped_low_search: 150,
                dropped_token_bounds: 30,
                dropped_leaf_cap: 0,
                merged_duplicates: 20,
            },
            shard: None,
            leaves: [(7, 0x1111), (9, 0x2222)].into_iter().collect(),
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let manifest = sample();
        assert_eq!(BuildManifest::parse(&manifest.render()).unwrap(), manifest);

        let mut sharded = sample();
        sharded.shard = Some((2, 3));
        assert_eq!(BuildManifest::parse(&sharded.render()).unwrap(), sharded);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(BuildManifest::parse("").is_err(), "missing header");
        assert!(BuildManifest::parse("graphex-buildinfo 2\nconfig 0\n").is_err(), "bad version");
        assert!(BuildManifest::parse("graphex-buildinfo 1\n").is_err(), "missing config");
        let dup = "graphex-buildinfo 1\nconfig 0\nleaf 1 aa\nleaf 1 bb\n";
        assert!(BuildManifest::parse(dup).is_err(), "duplicate leaf");
        let bad = "graphex-buildinfo 1\nconfig zz\n";
        assert!(BuildManifest::parse(bad).is_err(), "bad hex");
        let shard = "graphex-buildinfo 1\nconfig 0\nshard 3 3\n";
        assert!(BuildManifest::parse(shard).is_err(), "shard index out of range");
        let shard = "graphex-buildinfo 1\nconfig 0\nshard 0 0\n";
        assert!(BuildManifest::parse(shard).is_err(), "zero shard count");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let text = format!("{}future_key some value\n", sample().render());
        assert_eq!(BuildManifest::parse(&text).unwrap(), sample());
    }

    /// A `BUILDINFO` as builds wrote it while they recorded a corpus
    /// fingerprint for the fallback: it parses to what it says about
    /// everything else, whatever its `fallback` line holds.
    #[test]
    fn a_buildinfo_with_a_fallback_line_still_parses() {
        let lines: Vec<String> = sample().render().lines().map(str::to_owned).collect();
        for fallback in ["fallback 000000000000002a", "fallback none"] {
            let mut old = lines.clone();
            old.insert(3, fallback.to_owned());
            let text = old.join("\n") + "\n";
            assert!(text.starts_with("graphex-buildinfo 1\nconfig "), "{text}");
            assert_eq!(BuildManifest::parse(&text).unwrap(), sample(), "{fallback}");
        }
    }
}
