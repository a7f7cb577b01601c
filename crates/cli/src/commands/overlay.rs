//! `graphex overlay <verb>` — NRT overlay operations against a running
//! server started with `graphex serve --overlay`.
//!
//! ```text
//! graphex overlay status  --server <host:port> [--name <tenant>]
//! graphex overlay apply   --server <host:port> --input <records.tsv[,more…]>
//!                         [--name <tenant>] [--batch N]
//! graphex overlay compact --server <host:port> --input <records.tsv[,more…]>
//!                         --publish <registry root> [--name <tenant>]
//!                         [--jobs N] [--min-search N] [--note <text>]
//! ```
//!
//! `apply` streams TSV records through `POST /v1/upsert` in batches —
//! each acked batch is servable before the next is sent. `compact`
//! closes the overlay lifecycle: export the journal, rebuild the union
//! corpus (base inputs + journal) as a delta build against the registry
//! the server watches, publish, then drain the absorbed journal prefix.
//! The running server hot-swaps to the compacted snapshot on its next
//! poll; the drained entries are already inside it, so answers never
//! regress mid-handoff.

use crate::args::ParsedArgs;
use graphex_core::KeyphraseRecord;
use graphex_server::{HttpClient, Json};
use graphex_serving::OverlayJournal;
use std::fmt::Write as _;

/// Dispatches an `overlay` sub-verb (positional, like `tenant`).
pub fn run(argv: &[String]) -> Result<String, String> {
    let (verb, rest) = argv
        .split_first()
        .ok_or_else(|| "overlay: missing verb (status|apply|compact)".to_string())?;
    let args = ParsedArgs::parse(rest)?;
    match verb.as_str() {
        "status" => status(&args),
        "apply" => apply(&args),
        "compact" => compact(&args),
        other => Err(format!(
            "overlay: unknown verb {other:?} (status|apply|compact)"
        )),
    }
}

fn connect(args: &ParsedArgs) -> Result<HttpClient, String> {
    let addr = args.require("server")?;
    HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// `/v1/...` or `/v1/t/<tenant>/...` depending on `--name`.
fn action_path(name: Option<&str>, action: &str) -> String {
    match name {
        Some(tenant) => format!("/v1/t/{tenant}/{action}"),
        None => format!("/v1/{action}"),
    }
}

fn render_overlay_row(out: &mut String, overlay: &Json) {
    let field = |key: &str| super::num(overlay, key);
    let _ = writeln!(
        out,
        "depth {} ({} leaves), journal {} / {} bytes, seq {} (drained to {})",
        field("depth"),
        field("leaves"),
        field("journal_bytes"),
        field("cap_bytes"),
        field("seq"),
        field("drained_upto"),
    );
    let _ = writeln!(
        out,
        "lifetime: {} upserts ({} records) applied, {} shed, {} drains",
        field("upserts_applied"),
        field("records_applied"),
        field("upserts_shed"),
        field("drains"),
    );
}

/// Overlay accounting from a live server's `/statusz`: each serving
/// row's overlay block (a single server's one row, or the fleet's tenant
/// rows, kept to `--name`'s when given).
fn status(args: &ParsedArgs) -> Result<String, String> {
    let statusz = super::fetch_statusz(args.require("server")?)?;
    let mut out = String::new();
    for (tenant, row) in super::statusz_rows(&statusz, args.get("name"))? {
        match (tenant, row.get("overlay")) {
            (None, Some(overlay @ Json::Obj(_))) => render_overlay_row(&mut out, overlay),
            (None, _) => return Err("overlay serving is not enabled on this server".into()),
            (Some(name), Some(overlay @ Json::Obj(_))) => {
                let _ = writeln!(out, "tenant {name}:");
                render_overlay_row(&mut out, overlay);
            }
            (Some(name), _) => {
                let _ = writeln!(out, "tenant {name}: overlay not enabled");
            }
        }
    }
    Ok(out)
}

fn records_from_inputs(args: &ParsedArgs) -> Result<Vec<KeyphraseRecord>, String> {
    let inputs = args.require("input")?;
    let mut out = Vec::new();
    for path in inputs.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record =
                KeyphraseRecord::from_tsv(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            out.push(record);
        }
    }
    if out.is_empty() {
        return Err(format!("no records in {inputs}"));
    }
    Ok(out)
}

fn upsert_envelope(records: &[graphex_core::KeyphraseRecord]) -> String {
    Json::obj(vec![(
        "records",
        Json::Arr(
            records
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("text", Json::str(r.text.clone())),
                        ("leaf", Json::uint(u64::from(r.leaf.0))),
                        ("search", Json::uint(u64::from(r.search_count))),
                        ("recall", Json::uint(u64::from(r.recall_count))),
                    ])
                })
                .collect(),
        ),
    )])
    .render()
}

/// Streams TSV records through the live upsert path in batches.
fn apply(args: &ParsedArgs) -> Result<String, String> {
    let records = records_from_inputs(args)?;
    let batch = args.get_num::<usize>("batch", 256)?.clamp(1, 1024);
    let path = action_path(args.get("name"), "upsert");
    let mut client = connect(args)?;
    let mut applied = 0u64;
    let mut last = None;
    for chunk in records.chunks(batch) {
        let response = client
            .post_json(&path, &upsert_envelope(chunk))
            .map_err(|e| format!("POST {path}: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "POST {path}: HTTP {} after {applied} records applied: {}",
                response.status,
                response.text().trim(),
            ));
        }
        let ack = graphex_server::json::parse(&response.text())
            .map_err(|e| format!("upsert ack is not JSON: {e}"))?;
        applied += ack.get("applied").and_then(Json::as_u64).unwrap_or(0);
        last = Some(ack);
    }
    let last = last.expect("records is non-empty");
    Ok(format!(
        "applied {applied} records (seq {}, overlay depth {}, journal {} bytes) — servable now\n",
        last.get("seq").and_then(Json::as_u64).unwrap_or(0),
        last.get("depth").and_then(Json::as_u64).unwrap_or(0),
        last.get("journal_bytes")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    ))
}

/// Journal export → union rebuild → publish → drain.
fn compact(args: &ParsedArgs) -> Result<String, String> {
    let publish_root = args.require("publish")?;
    let journal_path = action_path(args.get("name"), "overlay/journal");
    let drain_path = action_path(args.get("name"), "overlay/drain");

    let mut client = connect(args)?;
    let response = client
        .get(&journal_path)
        .map_err(|e| format!("GET {journal_path}: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "GET {journal_path}: HTTP {}: {}",
            response.status,
            response.text().trim()
        ));
    }
    let text = response.text();
    let journal = OverlayJournal::parse(&text).map_err(|e| format!("exported journal: {e}"))?;

    // Rebuild the union corpus through the pipeline: base inputs plus the
    // journal, as a delta against the registry the server watches so
    // unchanged leaves are borrowed byte-for-byte.
    let dir = std::env::temp_dir().join(format!("graphex-overlay-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let journal_file = dir.join("journal.txt");
    std::fs::write(&journal_file, &text)
        .map_err(|e| format!("write {}: {e}", journal_file.display()))?;

    let mut build_argv: Vec<String> = vec![
        "--input".into(),
        args.require("input")?.into(),
        "--overlay-journal".into(),
        journal_file.to_string_lossy().into_owned(),
        "--publish".into(),
        publish_root.into(),
        "--note".into(),
        args.get("note").unwrap_or("overlay compaction").into(),
    ];
    let delta_base = args.get("delta").map(str::to_string).or_else(|| {
        std::path::Path::new(publish_root)
            .join("CURRENT")
            .exists()
            .then(|| publish_root.to_string())
    });
    if let Some(base) = delta_base {
        build_argv.extend(["--delta".into(), base]);
    }
    for flag in ["jobs", "min-search", "alignment"] {
        if let Some(value) = args.get(flag) {
            build_argv.extend([format!("--{flag}"), value.to_string()]);
        }
    }
    for switch in ["no-stemming", "no-fallback", "strict"] {
        if args.switch(switch) {
            build_argv.push(format!("--{switch}"));
        }
    }
    let build_out = super::build::run(&ParsedArgs::parse(&build_argv)?)
        .map_err(|e| format!("compaction build: {e}"))?;

    // The snapshot with the journal absorbed is published; drop the
    // absorbed prefix. Entries upserted after the export survive.
    let drained = client
        .post_json(&drain_path, &format!(r#"{{"upto":{}}}"#, journal.upto))
        .map_err(|e| format!("POST {drain_path}: {e}"))?;
    if drained.status != 200 {
        return Err(format!(
            "compaction published but drain failed: HTTP {}: {}",
            drained.status,
            drained.text().trim()
        ));
    }
    let report = graphex_server::json::parse(&drained.text())
        .map_err(|e| format!("drain report is not JSON: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();

    let mut out = build_out;
    let _ = writeln!(
        out,
        "compacted {} journal entries (drained {}, {} arrived since export and keep serving)",
        journal.entries.len(),
        report.get("drained").and_then(Json::as_u64).unwrap_or(0),
        report.get("remaining").and_then(Json::as_u64).unwrap_or(0),
    );
    let _ = writeln!(
        out,
        "the server hot-swaps to the compacted snapshot on its next poll"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn verbs_and_required_flags_are_validated() {
        assert!(run(&argv(&[])).is_err());
        assert!(run(&argv(&["frobnicate"])).is_err());
        // Missing --server.
        assert!(run(&argv(&["status"])).is_err());
        // Missing --input.
        assert!(run(&argv(&["apply", "--server", "127.0.0.1:1"])).is_err());
        // Missing --publish.
        assert!(run(&argv(&[
            "compact",
            "--server",
            "127.0.0.1:1",
            "--input",
            "x.tsv"
        ]))
        .is_err());
    }

    #[test]
    fn tenant_paths_are_prefixed() {
        assert_eq!(action_path(None, "upsert"), "/v1/upsert");
        assert_eq!(action_path(Some("acme"), "upsert"), "/v1/t/acme/upsert");
        assert_eq!(
            action_path(Some("acme"), "overlay/journal"),
            "/v1/t/acme/overlay/journal"
        );
    }

    #[test]
    fn envelope_renders_all_record_fields() {
        let records = vec![graphex_core::KeyphraseRecord::new(
            "usb c \"hub\"",
            graphex_core::LeafId(7),
            120,
            9,
        )];
        let envelope = upsert_envelope(&records);
        let parsed = graphex_server::json::parse(&envelope).unwrap();
        let rows = parsed.get("records").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("text").unwrap().as_str(), Some("usb c \"hub\""));
        assert_eq!(rows[0].get("leaf").unwrap().as_u64(), Some(7));
        assert_eq!(rows[0].get("search").unwrap().as_u64(), Some(120));
        assert_eq!(rows[0].get("recall").unwrap().as_u64(), Some(9));
    }
}
