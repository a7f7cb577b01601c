//! `graphex build` — construct a model through the build pipeline:
//! streaming ingestion (TSV/NDJSON files or a marketsim corpus),
//! parallel sharded construction (`--jobs`), incremental delta builds
//! (`--delta`), and optional publication straight into a model registry
//! (`--publish`, admission + `CURRENT` flip included).
//!
//! ```text
//! graphex build (--input <f[,f…]> | --marketsim <preset>) \
//!               [--output <model.gexm>] [--publish <registry root>] …
//! ```
//!
//! Prints the [`BuildReport`] as text, or as JSON with `--json`.

use crate::args::ParsedArgs;
use graphex_core::{Alignment, GraphExConfig};
use graphex_pipeline::{
    build, open_file_source, open_overlay_journal_source, BuildPlan, BuildReport, DeltaBase,
    MarketsimSource, RecordSource,
};
use graphex_server::Json;
use graphex_serving::ModelRegistry;
use std::fmt::Write as _;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    let output_path = args.get("output");
    let publish_root = args.get("publish");
    if output_path.is_none() && publish_root.is_none() {
        return Err("missing --output <model.gexm> and/or --publish <registry root>".into());
    }
    let shards = args.get_num::<u32>("shards", 0)?;
    if shards > 0 && publish_root.is_none() {
        return Err("--shards needs --publish <cluster root> (per-shard registries)".into());
    }

    let config = config_from(args)?;
    let mut plan = BuildPlan::new(config)
        .jobs(args.get_num::<usize>("jobs", 0)?)
        .strict(args.switch("strict"));
    plan.batch = args.get_num::<usize>("batch", 4096)?;
    if let Some(base) = args.get("delta") {
        plan = plan.delta(DeltaBase::load(base).map_err(|e| format!("--delta {base}: {e}"))?);
    }

    let sources = sources_from(args)?;
    let mut output = build(&plan, sources).map_err(|e| format!("build: {e}"))?;

    let mut tail = String::new();
    if let Some(path) = output_path {
        let info = output
            .write_to(path)
            .map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(tail, "wrote {path} (+ {})", info.display());
    }
    if let Some(root) = publish_root {
        let note = args.get("note").unwrap_or("graphex build");
        if shards > 0 {
            // Scale-out publish: partition by `leaf % shards` and publish
            // each shard into its own registry under `<root>/shard-<i>`.
            let snapshots = output
                .emit_shards(shards)
                .map_err(|e| format!("--shards: {e}"))?;
            let metas = graphex_pipeline::publish_shards(&snapshots, root, note)
                .map_err(|e| format!("publish shards into {root}: {e}"))?;
            for (snapshot, meta) in snapshots.iter().zip(&metas) {
                let _ = writeln!(
                    tail,
                    "published shard {}/{} version {} to {} ({} leaves)",
                    snapshot.index,
                    shards,
                    meta.version,
                    graphex_pipeline::shard_root(root, snapshot.index).display(),
                    meta.leaves,
                );
            }
        } else {
            let registry =
                ModelRegistry::open(root).map_err(|e| format!("open registry {root}: {e}"))?;
            let meta = output
                .publish(&registry, note)
                .map_err(|e| format!("publish into {root}: {e}"))?;
            let _ = writeln!(
                tail,
                "published version {} to {root} (active: {})",
                meta.version,
                registry.current_version().unwrap_or_default()
            );
        }
    }

    if args.switch("json") {
        Ok(format!("{}\n", render_json(&output.report).render()))
    } else {
        Ok(format!("{}{tail}", render_text(&output.report)))
    }
}

/// Shared with the pipeline-aware commands: curation/alignment flags.
fn config_from(args: &ParsedArgs) -> Result<GraphExConfig, String> {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = args.get_num::<u32>("min-search", 180)?;
    config.stemming = !args.switch("no-stemming");
    config.build_meta_fallback = !args.switch("no-fallback");
    config.alignment = match args.get("alignment").unwrap_or("lta") {
        "lta" | "LTA" => Alignment::Lta,
        "wmr" | "WMR" => Alignment::Wmr,
        "jac" | "JAC" => Alignment::Jac,
        other => return Err(format!("unknown alignment {other:?} (lta|wmr|jac)")),
    };
    Ok(config)
}

/// Resolves `--input` (comma-separated files, format by extension),
/// `--overlay-journal` (an exported NRT overlay journal, compacted into
/// this build), and/or `--marketsim` (preset corpus, optionally churned
/// with `--generations`).
fn sources_from(args: &ParsedArgs) -> Result<Vec<Box<dyn RecordSource>>, String> {
    let mut sources: Vec<Box<dyn RecordSource>> = Vec::new();
    if let Some(inputs) = args.get("input") {
        for path in inputs.split(',').filter(|p| !p.is_empty()) {
            sources.push(open_file_source(path)?);
        }
    }
    if let Some(path) = args.get("overlay-journal") {
        let (source, _upto) =
            open_overlay_journal_source(path).map_err(|e| format!("--overlay-journal: {e}"))?;
        sources.push(source);
    }
    if let Some(preset) = args.get("marketsim") {
        let seed = args.get_num::<u64>("seed", 7)?;
        let mut spec = match preset {
            "cat1" => graphex_marketsim::CategorySpec::cat1(),
            "cat2" => graphex_marketsim::CategorySpec::cat2(),
            "cat3" => graphex_marketsim::CategorySpec::cat3(),
            "tiny" => graphex_marketsim::CategorySpec::tiny(seed),
            other => return Err(format!("unknown preset {other:?} (cat1|cat2|cat3|tiny)")),
        };
        if preset != "tiny" {
            spec.seed = seed;
        }
        let rate = args.get_num::<f64>("churn-rate", 0.02)?;
        let mut corpus = graphex_marketsim::ChurnCorpus::new(spec, rate);
        corpus.advance_to(args.get_num::<u32>("generations", 0)?);
        sources.push(Box::new(MarketsimSource::new(&corpus)));
    }
    if sources.is_empty() {
        return Err(
            "missing --input <records.tsv[,more…]>, --overlay-journal <file>, or --marketsim <preset>"
                .into(),
        );
    }
    Ok(sources)
}

fn render_text(report: &BuildReport) -> String {
    let mut out = String::new();
    let c = &report.curation;
    let _ = writeln!(
        out,
        "built in {} ms with {} job(s): {} records in ({} parse errors) → {} curated \
         ({} below threshold, {} token bounds, {} duplicates merged, {} over leaf cap)",
        report.wall_ms,
        report.jobs,
        report.records_in,
        report.parse_errors,
        c.kept,
        c.dropped_low_search,
        c.dropped_token_bounds,
        c.merged_duplicates,
        c.dropped_leaf_cap,
    );
    let t = &report.stages;
    let _ = writeln!(
        out,
        "stages: shards {:.1} ms (slowest worker: curate {:.1}, assemble {:.1}), merge {:.1} ms, \
         fallback {:.1} ms, serialize {:.1} ms",
        t.shards_ms, t.curate_ms, t.assemble_ms, t.merge_ms, t.fallback_ms, t.serialize_ms,
    );
    match report.delta_base {
        Some(base) => {
            let _ = writeln!(
                out,
                "leaves: {} total — {} built, {} reused from delta base {:016x}",
                report.leaves_total, report.leaves_built, report.leaves_reused, base,
            );
        }
        None => {
            let _ = writeln!(out, "leaves: {} total, all built", report.leaves_total);
        }
    }
    if let Some(why) = &report.delta_discarded {
        let _ = writeln!(out, "delta base ignored: {why}");
    }
    for src in &report.sources {
        if src.parse_errors > 0 {
            let _ = writeln!(
                out,
                "  {}: {} records, {} parse errors (first: {})",
                src.name,
                src.records,
                src.parse_errors,
                src.error_sample
                    .first()
                    .map(String::as_str)
                    .unwrap_or("<unavailable>"),
            );
        }
    }
    let _ = writeln!(
        out,
        "model: {} keyphrases / {} tokens; snapshot {} bytes, checksum {:016x}",
        report.keyphrases, report.tokens, report.snapshot_bytes, report.snapshot_checksum,
    );
    out
}

fn render_json(report: &BuildReport) -> Json {
    let c = &report.curation;
    let sources: Vec<Json> = report
        .sources
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::str(s.name.clone())),
                ("records", Json::uint(s.records)),
                ("skipped", Json::uint(s.skipped)),
                ("parse_errors", Json::uint(s.parse_errors)),
                (
                    "error_sample",
                    Json::Arr(
                        s.error_sample
                            .iter()
                            .map(|e| Json::str(e.clone()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let mut members = vec![
        ("records_in", Json::uint(report.records_in)),
        ("parse_errors", Json::uint(report.parse_errors)),
        ("sources", Json::Arr(sources)),
        (
            "curation",
            Json::obj(vec![
                ("input", Json::uint(c.input as u64)),
                ("kept", Json::uint(c.kept as u64)),
                (
                    "dropped_low_search",
                    Json::uint(c.dropped_low_search as u64),
                ),
                (
                    "dropped_token_bounds",
                    Json::uint(c.dropped_token_bounds as u64),
                ),
                ("dropped_leaf_cap", Json::uint(c.dropped_leaf_cap as u64)),
                ("merged_duplicates", Json::uint(c.merged_duplicates as u64)),
            ]),
        ),
        ("leaves_total", Json::uint(report.leaves_total as u64)),
        ("leaves_built", Json::uint(report.leaves_built as u64)),
        ("leaves_reused", Json::uint(report.leaves_reused as u64)),
        ("jobs", Json::uint(report.jobs as u64)),
        ("keyphrases", Json::uint(report.keyphrases as u64)),
        ("tokens", Json::uint(report.tokens as u64)),
        ("snapshot_bytes", Json::uint(report.snapshot_bytes as u64)),
        (
            "snapshot_checksum",
            Json::str(format!("{:016x}", report.snapshot_checksum)),
        ),
        ("wall_ms", Json::uint(report.wall_ms)),
        (
            "stages_ms",
            Json::obj(
                [
                    ("shards", report.stages.shards_ms),
                    ("curate", report.stages.curate_ms),
                    ("assemble", report.stages.assemble_ms),
                    ("merge", report.stages.merge_ms),
                    ("fallback", report.stages.fallback_ms),
                    ("serialize", report.stages.serialize_ms),
                ]
                .into_iter()
                .map(|(stage, ms)| (stage, Json::num((ms * 1e3).round() / 1e3)))
                .collect(),
            ),
        ),
    ];
    if let Some(base) = report.delta_base {
        members.push(("delta_base", Json::str(format!("{base:016x}"))));
    }
    if let Some(why) = &report.delta_discarded {
        members.push(("delta_discarded", Json::str(why.clone())));
    }
    if let Some(version) = report.published_version {
        members.push(("published_version", Json::uint(version)));
    }
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphex-cli-build-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn marketsim_build_publish_delta_cycle() {
        let dir = tempdir("cycle");
        let model = dir.join("model.gexm");
        let root = dir.join("registry");
        let model_s = model.to_str().unwrap();
        let root_s = root.to_str().unwrap();

        // Full build from a marketsim corpus → file + registry.
        let out = dispatch(&argv(&[
            "build",
            "--marketsim",
            "tiny",
            "--seed",
            "3",
            "--min-search",
            "2",
            "--jobs",
            "2",
            "--output",
            model_s,
            "--publish",
            root_s,
            "--note",
            "gen0",
        ]))
        .unwrap();
        assert!(out.contains("keyphrases"), "{out}");
        assert!(out.contains("(slowest worker: curate "), "{out}");
        assert!(out.contains("published version 1"), "{out}");
        assert!(model.with_file_name("model.gexm.buildinfo").is_file());
        assert!(root.join("1").join("BUILDINFO").is_file());

        // Delta rebuild of the identical corpus: everything reused, and
        // the registry gains version 2 with identical model bytes.
        let out = dispatch(&argv(&[
            "build",
            "--marketsim",
            "tiny",
            "--seed",
            "3",
            "--min-search",
            "2",
            "--jobs",
            "2",
            "--delta",
            root_s,
            "--publish",
            root_s,
            "--json",
        ]))
        .unwrap();
        let parsed = graphex_server::json::parse(&out).unwrap();
        assert_eq!(
            parsed.get("leaves_built").and_then(Json::as_u64),
            Some(0),
            "{out}"
        );
        assert!(parsed.get("leaves_reused").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(
            parsed.get("published_version").and_then(Json::as_u64),
            Some(2)
        );
        let stages = parsed.get("stages_ms").unwrap();
        for stage in [
            "shards",
            "curate",
            "assemble",
            "merge",
            "fallback",
            "serialize",
        ] {
            assert!(stages.get(stage).is_some(), "no {stage} in {out}");
        }
        assert_eq!(
            std::fs::read(root.join("1").join("model.gexm")).unwrap(),
            std::fs::read(root.join("2").join("model.gexm")).unwrap(),
            "identical corpus must republish identical bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_missing_destination_and_sources() {
        assert!(dispatch(&argv(&["build", "--marketsim", "tiny"])).is_err());
        assert!(dispatch(&argv(&["build", "--output", "/tmp/x.gexm"])).is_err());
    }

    #[test]
    fn sharded_publish_creates_per_shard_registries() {
        let dir = tempdir("shards");
        let root = dir.join("cluster");
        let root_s = root.to_str().unwrap();
        let out = dispatch(&argv(&[
            "build",
            "--marketsim",
            "tiny",
            "--seed",
            "3",
            "--min-search",
            "2",
            "--publish",
            root_s,
            "--shards",
            "2",
            "--note",
            "gen0",
        ]))
        .unwrap();
        assert!(out.contains("published shard 0/2"), "{out}");
        assert!(out.contains("published shard 1/2"), "{out}");
        for shard in 0..2 {
            let info = root
                .join(format!("shard-{shard}"))
                .join("1")
                .join("BUILDINFO");
            let text = std::fs::read_to_string(&info).unwrap();
            assert!(text.contains(&format!("shard {shard} 2")), "{text}");
        }

        // --shards is a publish topology, not a file format.
        let err = dispatch(&argv(&[
            "build",
            "--marketsim",
            "tiny",
            "--output",
            "/tmp/x.gexm",
            "--shards",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--publish"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_fails_on_parse_errors_lenient_counts() {
        let dir = tempdir("strict");
        let tsv = dir.join("records.tsv");
        std::fs::write(&tsv, "a b\t1\t50\t5\nbroken\nc d\t2\t60\t6\n").unwrap();
        let model = dir.join("model.gexm");
        let base = [
            "build",
            "--input",
            tsv.to_str().unwrap(),
            "--min-search",
            "1",
            "--output",
            model.to_str().unwrap(),
        ];

        let mut strict: Vec<&str> = base.to_vec();
        strict.push("--strict");
        let err = dispatch(&argv(&strict)).unwrap_err();
        assert!(err.contains("unparsable"), "{err}");
        assert!(!model.exists(), "strict failure must not write output");

        let out = dispatch(&argv(&base)).unwrap();
        assert!(out.contains("1 parse errors"), "{out}");
        assert!(model.is_file());
        std::fs::remove_dir_all(&dir).ok();
    }
}
