//! Library backing the `graphex` binary. Every command is a pure function
//! from parsed arguments to an output string, so the whole surface is unit-
//! and integration-testable without spawning processes.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod records;

use args::ParsedArgs;

/// Top-level usage text.
pub fn usage() -> &'static str {
    "usage:
  graphex simulate --preset <cat1|cat2|cat3|tiny> --output <records.tsv> [--seed N]
  graphex build    (--input <f.tsv|f.ndjson[,more…]> | --marketsim <preset>)
                   (--output <model.gexm> and/or --publish <registry root>)
                   [--jobs N] [--delta <prev snapshot|registry root>]
                   [--overlay-journal <journal.txt>]
                   [--min-search N] [--alignment <lta|wmr|jac>]
                   [--no-stemming] [--no-fallback] [--strict] [--json]
                   [--note <text>] [--batch N]
                   [--seed N] [--generations N] [--churn-rate R]
  graphex infer    --model <model.gexm> --leaf <id> (--title <text> | --stdin)
                   [--k N] [--alignment <lta|wmr|jac>] [--outcome]
  graphex explain  --model <model.gexm> --leaf <id> --title <text> [--k N]
  graphex stats    (--model <model.gexm> | --server <host:port[,more…]>
                    | --map <shard map file>)
  graphex diff     --old <a.gexm> --new <b.gexm> [--max-listed N]
  graphex model    publish  --root <dir> --input <model.gexm> [--note <text>]
  graphex model    list     --root <dir>
  graphex model    rollback --root <dir>
  graphex model    inspect  (--root <dir> [--version N] | --model <file>)
  graphex model    verify   (--root <dir> [--version N] | --model <file>)
  graphex model    gc       --root <dir> [--keep N]
  graphex serve    (--model <model.gexm> | --root <dir> | --tenants <dir>)
                   [--resident N] [--default-tenant <name>] [--heap]
                   [--addr host:port] [--workers N] [--queue N] [--k N]
                   [--deadline-ms N] [--max-body BYTES] [--poll-ms N]
                   [--invalidate-on-swap]
                   [--overlay [--overlay-cap-bytes N]]
                   [--no-trace] [--trace-ring N] [--trace-slow-ms N]
                   [--no-history] [--history-interval-ms N] [--history-ring N]
  graphex overlay  status  --server <host:port> [--name <tenant>]
  graphex overlay  apply   --server <host:port> --input <records.tsv[,more…]>
                           [--name <tenant>] [--batch N]
  graphex overlay  compact --server <host:port> --input <records.tsv[,more…]>
                           --publish <registry root> [--name <tenant>]
                           [--jobs N] [--min-search N] [--note <text>]
  graphex tenant   list    --tenants <dir>
  graphex tenant   publish --tenants <dir> --name <tenant> --input <model.gexm>
                           [--note <text>]
  graphex tenant   evict   --tenants <dir> --name <tenant>
  graphex tenant   stats   (--server <host:port> [--name <tenant>]
                            | --tenants <dir> --name <tenant>)
  graphex route    (--map <file> | --backends <addr,addr,…>)
                   [--addr host:port] [--workers N] [--queue N]
                   [--backend-timeout-ms N] [--retries N] [--eject-after N]
  graphex trace    --server <host:port> [--slow] [--limit N] [--min-us N]
  graphex report   [--out <report.html>] [--bench-dir <dir>]
                   [--server <host:port> | --no-live]
                   [--no-eval] [--eval-items N] [--eval-seed N]
  graphex cluster  up --root <cluster dir> [--addr host:port] [--k N]
                      [--workers N] [--poll-ms N]

build --shards N + --publish <dir> emits per-shard registries under
<dir>/shard-<i> for `graphex cluster up` / `graphex route`.

record TSV line: text<TAB>leaf_id<TAB>search_count<TAB>recall_count"
}

/// Parses and runs a command line (without the binary name).
pub fn dispatch(argv: &[String]) -> Result<String, String> {
    let (command, rest) = argv
        .split_first()
        .ok_or_else(|| "missing command".to_string())?;
    if command == "model" {
        // `model` takes a positional verb before its flags.
        return commands::model::run(rest);
    }
    if command == "cluster" {
        // `cluster` too (up).
        return commands::cluster::run(rest);
    }
    if command == "tenant" {
        // `tenant` too (list|publish|evict|stats).
        return commands::tenant::run(rest);
    }
    if command == "overlay" {
        // `overlay` too (status|apply|compact).
        return commands::overlay::run(rest);
    }
    let parsed = ParsedArgs::parse(rest)?;
    match command.as_str() {
        "simulate" => commands::simulate::run(&parsed),
        "build" => commands::build::run(&parsed),
        "infer" => commands::infer::run(&parsed),
        "explain" => commands::explain::run(&parsed),
        "stats" => commands::stats::run(&parsed),
        "serve" => commands::serve::run(&parsed),
        "route" => commands::route::run(&parsed),
        "trace" => commands::trace::run(&parsed),
        "report" => commands::report::run(&parsed),
        "diff" => commands::diff::run(&parsed),
        "help" | "--help" | "-h" => Ok(format!("{}\n", usage())),
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        assert!(dispatch(&argv(&[])).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = dispatch(&argv(&["help"])).unwrap();
        assert!(out.contains("graphex build"));
        // Every flag `serve` reads is advertised.
        for flag in ["--no-history", "--history-interval-ms", "--history-ring"] {
            assert!(out.contains(flag), "usage omits {flag}");
        }
    }

    #[test]
    fn full_cli_roundtrip_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("graphex-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records = dir.join("records.tsv");
        let model = dir.join("model.gexm");

        // simulate → build → stats → infer → explain
        let out = dispatch(&argv(&[
            "simulate",
            "--preset",
            "tiny",
            "--seed",
            "9",
            "--output",
            records.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("records"));

        let out = dispatch(&argv(&[
            "build",
            "--input",
            records.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--min-search",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("keyphrases"), "{out}");

        let stats = dispatch(&argv(&["stats", "--model", model.to_str().unwrap()])).unwrap();
        assert!(stats.contains("leaves"));
        // The pipeline-written BUILDINFO sidecar surfaces curation stats.
        assert!(stats.contains("curation ("), "{stats}");

        // Find a leaf + phrase to test inference with, straight from the TSV.
        let tsv = std::fs::read_to_string(&records).unwrap();
        let first = tsv.lines().next().unwrap();
        let mut cols = first.split('\t');
        let text = cols.next().unwrap().to_string();
        let leaf = cols.next().unwrap().to_string();

        let inferred = dispatch(&argv(&[
            "infer",
            "--model",
            model.to_str().unwrap(),
            "--leaf",
            &leaf,
            "--title",
            &text,
            "--k",
            "5",
        ]))
        .unwrap();
        assert!(!inferred.trim().is_empty(), "no predictions for {text:?}");

        let explained = dispatch(&argv(&[
            "explain",
            "--model",
            model.to_str().unwrap(),
            "--leaf",
            &leaf,
            "--title",
            &text,
        ]))
        .unwrap();
        assert!(explained.contains("tokens"), "{explained}");

        // diff against a stricter rebuild of the same records
        let model2 = dir.join("model2.gexm");
        dispatch(&argv(&[
            "build",
            "--input",
            records.to_str().unwrap(),
            "--output",
            model2.to_str().unwrap(),
            "--min-search",
            "6",
        ]))
        .unwrap();
        let diffed = dispatch(&argv(&[
            "diff",
            "--old",
            model.to_str().unwrap(),
            "--new",
            model2.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(diffed.contains("removed"), "{diffed}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
