//! Reader for the run documents of the repo benchmark (`benchmark/`).
//!
//! `benchmark --out <file>` writes one JSON document per run: `workload`,
//! `seed`, `seconds`, `traced`, `attempted`, `failed`, `disturbed` and
//! `metrics: {name: {value, unit}}` (its `series` and `claim` are not
//! read). Every `*.json` under `--bench-dir` must be one. Runs are grouped
//! by workload × traced × side — the side is the file stem after its
//! first dot, `3.base.json` → `base` — so a `make bench-pair` run
//! directory reads as the two columns its own summary prints.

use graphex_server::json::{self, Json};
use std::path::{Path, PathBuf};

/// One run: a parsed `--out` document.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    pub file: String,
    pub workload: String,
    pub traced: bool,
    pub side: String,
    pub seed: u64,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub disturbed: bool,
    /// `(name, value, unit)` in document order.
    pub metrics: Vec<(String, f64, String)>,
}

impl BenchDoc {
    /// Parses one document; every error names `file`.
    pub fn parse(file: &str, text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("{file}: not JSON: {e}"))?;
        let bad = |key: &str| format!("{file}: not a benchmark document: no valid {key:?}");
        let num = |key: &str| doc.get(key).and_then(Json::as_f64).ok_or_else(|| bad(key));
        let flag = |key: &str| doc.get(key).and_then(Json::as_bool).ok_or_else(|| bad(key));
        let members = doc.get("metrics").and_then(Json::as_obj).ok_or_else(|| bad("metrics"))?;
        let mut metrics = Vec::new();
        for (name, metric) in members {
            let value = metric.get("value").and_then(Json::as_f64).ok_or_else(|| bad(name))?;
            let unit = metric.get("unit").and_then(Json::as_str).ok_or_else(|| bad(name))?;
            metrics.push((name.clone(), value, unit.to_string()));
        }
        let workload = doc.get("workload").and_then(Json::as_str).ok_or_else(|| bad("workload"))?;
        let stem = file.strip_suffix(".json").unwrap_or(file);
        Ok(Self {
            file: file.to_string(),
            workload: workload.to_string(),
            traced: flag("traced")?,
            side: stem.split_once('.').map_or("", |(_, side)| side).to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            disturbed: flag("disturbed")?,
            metrics,
        })
    }

    /// A disturbed run, or one with failed operations, is listed in the
    /// report but kept out of its statistics.
    pub fn counted(&self) -> bool {
        !self.disturbed && self.failed == 0
    }
}

/// Runs grouped by workload × traced × side; groups and their runs in
/// first-seen order, no group empty.
pub fn group_runs(docs: &[BenchDoc]) -> Vec<Vec<&BenchDoc>> {
    fn key(doc: &BenchDoc) -> (&str, bool, &str) {
        (&doc.workload, doc.traced, &doc.side)
    }
    let mut groups: Vec<Vec<&BenchDoc>> = Vec::new();
    for doc in docs {
        match groups.iter_mut().find(|group| key(group[0]) == key(doc)) {
            Some(group) => group.push(doc),
            None => groups.push(vec![doc]),
        }
    }
    groups
}

/// The `*.json` files directly under `dir`, sorted by name.
pub fn discover_bench_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read --bench-dir {}: {e}", dir.display()))?;
    let mut found: Vec<PathBuf> = entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.is_file() && path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    found.sort();
    Ok(found)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A run in the shape `benchmark/src/report.rs::document` writes.
    pub(crate) fn run(file: &str, workload: &str, traced: bool, disturbed: bool, p50: f64) -> BenchDoc {
        let text = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": 7,\n  \"seconds\": 10,\n  \
             \"traced\": {traced},\n  \"threads\": 2,\n  \"cpus\": 2,\n  \"attempted\": 400,\n  \
             \"failed\": 0,\n  \"error_share\": 0,\n  \"canary_ms\": [5.1, 5.2],\n  \
             \"disturbed\": {disturbed},\n  \"metrics\": {{\"setup_s\": {{\"value\": 1.5, \
             \"unit\": \"s\"}}, \"p50_us\": {{\"value\": {p50}, \"unit\": \"us\"}}}},\n  \
             \"series\": {{\n    \"p50_us\": {{\"quietest\": 1, \"median\": 2, \"iqr_share\": 0.1, \
             \"samples\": 20}}\n  }},\n  \"claim\": null\n}}\n"
        );
        BenchDoc::parse(file, &text).unwrap()
    }

    #[test]
    fn parses_good_doc() {
        let doc = run("3.base.json", "edge_hot", false, false, 12.5);
        assert_eq!((doc.workload.as_str(), doc.traced, doc.side.as_str()), ("edge_hot", false, "base"));
        assert_eq!((doc.seed, doc.seconds, doc.attempted, doc.failed), (7, 10.0, 400, 0));
        assert_eq!(doc.metrics[1], ("p50_us".to_string(), 12.5, "us".to_string()));
        assert!(doc.counted() && !run("4.base.json", "edge_hot", false, true, 1.0).counted());
        assert_eq!(run("edge_hot.json", "edge_hot", true, false, 1.0).side, "");
    }

    #[test]
    fn rejects_missing_and_mistyped_keys() {
        for (text, what) in [
            ("not json", "not JSON"),
            (r#"{"bench": "demo", "results": {"elapsed": "3ms"}}"#, "\"metrics\""),
            (r#"{"workload": "w", "seed": 1, "seconds": 1, "traced": false, "attempted": 1,
                 "failed": 0, "disturbed": false}"#, "\"metrics\""),
            (r#"{"metrics": {"p50_us": {"value": 1, "unit": 3}}}"#, "\"p50_us\""),
            (r#"{"metrics": {}, "workload": "w", "traced": 0}"#, "\"traced\""),
        ] {
            let err = BenchDoc::parse("runs/9.change.json", text).unwrap_err();
            assert!(err.starts_with("runs/9.change.json: ") && err.contains(what), "{err}");
        }
    }

    #[test]
    fn groups_by_workload_traced_and_side() {
        let docs = [
            run("1.base.json", "edge_hot", false, false, 1.0),
            run("1.change.json", "edge_hot", false, false, 1.0),
            run("2.base.json", "edge_hot", false, true, 1.0),
            run("trace.base.json", "edge_hot", true, false, 1.0),
            run("3.base.json", "write_mix", false, false, 1.0),
        ];
        let files: Vec<Vec<&str>> =
            group_runs(&docs).iter().map(|g| g.iter().map(|d| d.file.as_str()).collect()).collect();
        let expected: [&[&str]; 4] =
            [&["1.base.json", "2.base.json"], &["1.change.json"], &["trace.base.json"], &["3.base.json"]];
        assert_eq!(files, expected);
    }

    #[test]
    fn discovers_only_bench_json() {
        let dir = std::env::temp_dir().join(format!("graphex-report-disc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["2.change.json", "2.base.json", "2.base.txt", "README.md"] {
            std::fs::write(dir.join(name), "x").unwrap();
        }
        let found = discover_bench_files(&dir).unwrap();
        let names: Vec<_> = found.iter().map(|p| p.file_name().unwrap().to_str().unwrap()).collect();
        assert_eq!(names, ["2.base.json", "2.change.json"]);
        let err = discover_bench_files(&dir.join("no-such-dir")).unwrap_err();
        assert!(err.contains("no-such-dir"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
