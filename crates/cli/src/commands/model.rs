//! `graphex model <verb>` — snapshot lifecycle operations against a
//! [`ModelRegistry`] directory (or a bare `.gexm` file for
//! `inspect`/`verify`).
//!
//! ```text
//! graphex model publish  --root <dir> --input <model.gexm> [--note <text>]
//! graphex model list     --root <dir>
//! graphex model rollback --root <dir>
//! graphex model inspect  (--root <dir> [--version N] | --model <file.gexm>)
//! graphex model verify   (--root <dir> [--version N] | --model <file.gexm>)
//! graphex model gc       --root <dir> [--keep N]
//! ```

use crate::args::ParsedArgs;
use graphex_core::serialize::{self, SnapshotInfo};
use graphex_serving::ModelRegistry;
use std::fmt::Write as _;

/// Dispatches a `model` sub-verb. Receives the raw argv after `model`
/// because the verb itself is positional, not a `--flag`.
pub fn run(argv: &[String]) -> Result<String, String> {
    let (verb, rest) = argv.split_first().ok_or_else(|| {
        "model: missing verb (publish|list|rollback|inspect|verify|gc)".to_string()
    })?;
    let args = ParsedArgs::parse(rest)?;
    match verb.as_str() {
        "publish" => publish(&args),
        "list" => list(&args),
        "rollback" => rollback(&args),
        "inspect" => inspect(&args),
        "verify" => verify(&args),
        "gc" => gc(&args),
        other => Err(format!(
            "model: unknown verb {other:?} (publish|list|rollback|inspect|verify|gc)"
        )),
    }
}

/// Full open: runs admission and activates — only for verbs that are
/// supposed to change (or rely on) the active model.
fn open_registry(args: &ParsedArgs) -> Result<ModelRegistry, String> {
    let root = args.require("root")?;
    ModelRegistry::open(root).map_err(|e| format!("open registry {root}: {e}"))
}

/// Read-only attach: no model load, no warm-up, `CURRENT` untouched —
/// for `list`/`inspect`/`verify`/`gc`, which must not re-run admission
/// (or rewrite state) on a registry another process serves from.
fn attach_registry(args: &ParsedArgs) -> Result<ModelRegistry, String> {
    let root = args.require("root")?;
    ModelRegistry::attach(root).map_err(|e| format!("attach registry {root}: {e}"))
}

fn publish(args: &ParsedArgs) -> Result<String, String> {
    let registry = open_registry(args)?;
    let input = args.require("input")?;
    let note = args.get("note").unwrap_or("");
    let meta = registry
        .publish_file(input, note)
        .map_err(|e| format!("publish {input}: {e}"))?;
    Ok(format!(
        "published version {} (format v{}, {} leaves, {} keyphrases, {} bytes, checksum {:016x})\nactive: {}\n",
        meta.version,
        meta.format,
        meta.leaves,
        meta.keyphrases,
        meta.size_bytes,
        meta.checksum,
        registry.current_version().unwrap_or_default(),
    ))
}

fn list(args: &ParsedArgs) -> Result<String, String> {
    let registry = attach_registry(args)?;
    let current = registry.pinned_version();
    let snapshots = registry.list().map_err(|e| format!("list: {e}"))?;
    if snapshots.is_empty() {
        return Ok("no snapshots published\n".into());
    }
    let mut out = String::from("version\tformat\tleaves\tkeyphrases\tbytes\tchecksum\tnote\n");
    for meta in snapshots {
        let marker = if Some(meta.version) == current {
            "*"
        } else {
            " "
        };
        let _ = writeln!(
            out,
            "{marker}{}\tv{}\t{}\t{}\t{}\t{:016x}\t{}",
            meta.version,
            meta.format,
            meta.leaves,
            meta.keyphrases,
            meta.size_bytes,
            meta.checksum,
            meta.note,
        );
    }
    Ok(out)
}

fn rollback(args: &ParsedArgs) -> Result<String, String> {
    let registry = open_registry(args)?;
    let (from, to) = registry.rollback().map_err(|e| format!("rollback: {e}"))?;
    Ok(format!("rolled back: version {from} -> {to}\n"))
}

fn gc(args: &ParsedArgs) -> Result<String, String> {
    let registry = attach_registry(args)?;
    let keep = args.get_num::<usize>("keep", 3)?;
    let removed = registry.gc(keep).map_err(|e| format!("gc: {e}"))?;
    if removed.is_empty() {
        Ok(format!("nothing to remove (keeping {keep})\n"))
    } else {
        let ids: Vec<String> = removed.iter().map(u64::to_string).collect();
        Ok(format!("removed versions: {}\n", ids.join(", ")))
    }
}

/// Resolves the snapshot bytes named by `--model <file>` or
/// `--root <dir> [--version N]` (default: the active version).
fn snapshot_bytes(args: &ParsedArgs) -> Result<(String, Vec<u8>), String> {
    if let Some(path) = args.get("model") {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        return Ok((path.to_string(), bytes));
    }
    let registry = attach_registry(args)?;
    let version = match args.get("version") {
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("--version: cannot parse {raw:?}"))?,
        None => registry
            .pinned_version()
            .ok_or_else(|| "registry holds no snapshots (and no --version given)".to_string())?,
    };
    let path = registry.root().join(version.to_string()).join("model.gexm");
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok((path.display().to_string(), bytes))
}

fn render_info(source: &str, info: &SnapshotInfo) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "snapshot: {source}");
    let _ = writeln!(out, "format: GEXM v{}", info.version);
    let _ = writeln!(out, "alignment: {}", info.alignment);
    let _ = writeln!(out, "stemming: {}", info.stemming);
    let _ = writeln!(out, "meta fallback: {}", info.has_fallback);
    let _ = writeln!(out, "leaves: {}", info.num_leaves);
    let _ = writeln!(out, "tokens: {}", info.num_tokens);
    let _ = writeln!(out, "keyphrases: {}", info.num_keyphrases);
    let _ = writeln!(out, "sections: {} (zero-copy loadable)", info.num_sections);
    let _ = writeln!(out, "size: {} bytes", info.size_bytes);
    // The format's own integrity trailer (`serialize::checksum` of the
    // payload); manifests additionally record it over the whole file.
    let _ = writeln!(out, "trailer checksum: {:016x}", info.checksum);
    out
}

fn inspect(args: &ParsedArgs) -> Result<String, String> {
    let (source, bytes) = snapshot_bytes(args)?;
    let info = serialize::inspect(&bytes).map_err(|e| format!("inspect {source}: {e}"))?;
    let mut out = render_info(&source, &info);
    render_buildinfo_check(&source, info.file_checksum, &mut out)?;
    Ok(out)
}

/// Cross-checks a pipeline-built snapshot against its `BUILDINFO`: the
/// manifest records the whole-file checksum of the snapshot it was built
/// with, so a mismatch means the sidecar describes a *different* build
/// (stale copy, mixed-up files) — exactly what an operator inspecting a
/// registry wants to catch.
fn render_buildinfo_check(source: &str, actual: u64, out: &mut String) -> Result<(), String> {
    let info_path = graphex_pipeline::buildinfo_path_for(std::path::Path::new(source));
    if !info_path.is_file() {
        return Ok(());
    }
    let manifest =
        graphex_pipeline::BuildManifest::load(&info_path).map_err(|e| format!("buildinfo: {e}"))?;
    if manifest.snapshot_checksum == actual {
        let _ = writeln!(
            out,
            "buildinfo: checksum cross-check OK ({actual:016x}); {} leaves fingerprinted, \
             {} records in",
            manifest.leaves.len(),
            manifest.records_in,
        );
        Ok(())
    } else {
        Err(format!(
            "buildinfo MISMATCH: {} records snapshot checksum {:016x} but {source} hashes to \
             {actual:016x} — the sidecar describes a different build",
            info_path.display(),
            manifest.snapshot_checksum,
        ))
    }
}

fn verify(args: &ParsedArgs) -> Result<String, String> {
    let (source, bytes) = snapshot_bytes(args)?;
    // One hash pass, one full structural parse, and the header read
    // back from the buffer both vouch for.
    let snapshot = serialize::hash(bytes.into());
    let model = snapshot
        .parse()
        .map_err(|e| format!("verify {source}: {e}"))?;
    let info = snapshot
        .inspect()
        .map_err(|e| format!("verify {source}: {e}"))?;
    Ok(format!(
        "OK: {source}\n{}model loads: {} leaves, {} keyphrases\n",
        render_info(&source, &info),
        model.leaf_ids().count(),
        model.num_keyphrases(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId};

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn write_model(path: &std::path::Path, tag: u32) {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let model = GraphExBuilder::new(config)
            .add_records((0..5u32).map(|i| {
                KeyphraseRecord::new(format!("brand{tag} gadget v{i}"), LeafId(i % 2), 50, 5)
            }))
            .build()
            .unwrap();
        graphex_core::serialize::save_to(&model, path).unwrap();
    }

    #[test]
    fn publish_list_rollback_verify_cycle() {
        let dir = std::env::temp_dir().join(format!("graphex-cli-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let root = dir.join("registry");
        let gexm = dir.join("m.gexm");
        write_model(&gexm, 1);

        let root_s = root.to_str().unwrap();
        let gexm_s = gexm.to_str().unwrap();

        let out = run(&argv(&[
            "publish", "--root", root_s, "--input", gexm_s, "--note", "first",
        ]))
        .unwrap();
        assert!(out.contains("published version 1"), "{out}");

        write_model(&gexm, 2);
        let out = run(&argv(&["publish", "--root", root_s, "--input", gexm_s])).unwrap();
        assert!(out.contains("published version 2"), "{out}");

        let out = run(&argv(&["list", "--root", root_s])).unwrap();
        assert!(out.contains("*2"), "active marker missing: {out}");
        assert!(out.contains("first"), "{out}");

        let out = run(&argv(&["inspect", "--root", root_s])).unwrap();
        assert!(out.contains("GEXM v3"), "{out}");
        assert!(out.contains("zero-copy"), "{out}");

        let out = run(&argv(&["verify", "--root", root_s, "--version", "1"])).unwrap();
        assert!(out.starts_with("OK:"), "{out}");

        let out = run(&argv(&["rollback", "--root", root_s])).unwrap();
        assert!(out.contains("version 2 -> 1"), "{out}");
        let out = run(&argv(&["list", "--root", root_s])).unwrap();
        assert!(out.contains("*1"), "{out}");

        // Verify a bare file too.
        let out = run(&argv(&["verify", "--model", gexm_s])).unwrap();
        assert!(out.starts_with("OK:"), "{out}");

        // A snapshot an older build wrote — version word 2 under a
        // trailer (FNV-1a) that this build's checksum does not match —
        // is named, not just called corrupt.
        let mut old = std::fs::read(&gexm).unwrap();
        old[4] = 2;
        std::fs::write(&gexm, &old).unwrap();
        for verb in ["inspect", "verify"] {
            let err = run(&argv(&[verb, "--model", gexm_s])).unwrap_err();
            assert!(
                err.contains("a GEXM v2 snapshot predates the v3 checksum — rebuild it"),
                "{verb}: {err}"
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_prunes_old_versions() {
        let dir = std::env::temp_dir().join(format!("graphex-cli-model-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let root = dir.join("registry");
        let gexm = dir.join("m.gexm");
        let root_s = root.to_str().unwrap();
        let gexm_s = gexm.to_str().unwrap();
        for tag in 1..=3 {
            write_model(&gexm, tag);
            run(&argv(&["publish", "--root", root_s, "--input", gexm_s])).unwrap();
        }
        let out = run(&argv(&["gc", "--root", root_s, "--keep", "1"])).unwrap();
        assert!(out.contains("removed versions: 1, 2"), "{out}");
        let out = run(&argv(&["gc", "--root", root_s, "--keep", "1"])).unwrap();
        assert!(out.contains("nothing to remove"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_cross_checks_pipeline_buildinfo() {
        let dir = std::env::temp_dir().join(format!(
            "graphex-cli-model-buildinfo-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("model.gexm");

        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let records: Vec<KeyphraseRecord> = (0..6u32)
            .map(|i| KeyphraseRecord::new(format!("acme gadget v{i}"), LeafId(i % 2), 50, 5))
            .collect();
        let plan = graphex_pipeline::BuildPlan::new(config).jobs(2);
        let output = graphex_pipeline::build(
            &plan,
            vec![Box::new(graphex_pipeline::VecSource::new("test", records))],
        )
        .unwrap();
        let info_path = output.write_to(&snapshot).unwrap();

        let out = run(&argv(&["inspect", "--model", snapshot.to_str().unwrap()])).unwrap();
        assert!(out.contains("checksum cross-check OK"), "{out}");

        // A BUILDINFO describing different bytes must fail loudly.
        let mut manifest = output.manifest.clone();
        manifest.snapshot_checksum ^= 1;
        std::fs::write(&info_path, manifest.render()).unwrap();
        let err = run(&argv(&["inspect", "--model", snapshot.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("MISMATCH"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run(&argv(&[])).is_err());
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&["publish", "--root", "/tmp/x"])).is_err()); // missing --input
        assert!(run(&argv(&["verify", "--model", "/nonexistent.gexm"])).is_err());
        let dir =
            std::env::temp_dir().join(format!("graphex-cli-model-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Empty registry: rollback and inspect fail cleanly.
        let root_s = dir.to_str().unwrap();
        assert!(run(&argv(&["rollback", "--root", root_s])).is_err());
        assert!(run(&argv(&["inspect", "--root", root_s])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
