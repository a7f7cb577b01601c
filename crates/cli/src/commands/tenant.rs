//! `graphex tenant <verb>` — fleet operations against a multi-tenant
//! root (`<root>/tenants/<name>/`, each a full [`ModelRegistry`] root).
//!
//! ```text
//! graphex tenant list    --tenants <root>
//! graphex tenant publish --tenants <root> --name <tenant> --input <model.gexm> [--note <text>]
//! graphex tenant evict   --tenants <root> --name <tenant>
//! graphex tenant stats   (--server <host:port> [--name <tenant>]
//!                         | --tenants <root> --name <tenant>)
//! ```
//!
//! Residency (which tenants are loaded, LRU order, serve counters) lives
//! in the serving process, so `stats --server` asks a running
//! `graphex serve --tenants` for its fleet table; the `--tenants` forms
//! operate on the on-disk layout (publish creates the tenant directory
//! if needed and is picked up by a live server's poll loop).

use crate::args::ParsedArgs;
use graphex_serving::{FleetConfig, ModelRegistry, TenantFleet};
use std::fmt::Write as _;

/// Dispatches a `tenant` sub-verb. Receives the raw argv after `tenant`
/// because the verb itself is positional, not a `--flag`.
pub fn run(argv: &[String]) -> Result<String, String> {
    let (verb, rest) = argv
        .split_first()
        .ok_or_else(|| "tenant: missing verb (list|publish|evict|stats)".to_string())?;
    let args = ParsedArgs::parse(rest)?;
    match verb.as_str() {
        "list" => list(&args),
        "publish" => publish(&args),
        "evict" => evict(&args),
        "stats" => stats(&args),
        other => Err(format!(
            "tenant: unknown verb {other:?} (list|publish|evict|stats)"
        )),
    }
}

fn open_fleet(args: &ParsedArgs) -> Result<TenantFleet, String> {
    let root = args.require("tenants")?;
    TenantFleet::open(root, FleetConfig::default()).map_err(|e| format!("open fleet {root}: {e}"))
}

/// On-disk view: names plus each tenant's registry manifest (a fresh CLI
/// process holds no residents, so the interesting columns are versions).
fn list(args: &ParsedArgs) -> Result<String, String> {
    let fleet = open_fleet(args)?;
    let names = fleet.names();
    if names.is_empty() {
        return Ok(format!(
            "no tenants under {}\n",
            fleet.tenants_root().display()
        ));
    }
    let mut out = String::from("tenant\tactive\tsnapshots\tbytes\tnote\n");
    for name in names {
        let root = fleet.tenants_root().join(&name);
        match ModelRegistry::attach(&root) {
            Ok(registry) => {
                let active = registry.pinned_version();
                let snapshots = registry.list().map_err(|e| format!("{name}: list: {e}"))?;
                let current = active.and_then(|v| snapshots.iter().find(|m| m.version == v));
                let _ = writeln!(
                    out,
                    "{name}\t{}\t{}\t{}\t{}",
                    active.map_or_else(|| "-".into(), |v| v.to_string()),
                    snapshots.len(),
                    current.map_or(0, |m| m.size_bytes),
                    current.map_or("", |m| m.note.as_str()),
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{name}\t[unreadable: {e}]");
            }
        }
    }
    Ok(out)
}

fn publish(args: &ParsedArgs) -> Result<String, String> {
    let fleet = open_fleet(args)?;
    let name = args.require("name")?;
    let input = args.require("input")?;
    let note = args.get("note").unwrap_or("");
    let meta = fleet
        .publish_file(name, input, note)
        .map_err(|e| format!("publish {input}: {e}"))?;
    Ok(format!(
        "tenant {name}: published version {} ({} leaves, {} keyphrases, {} bytes, checksum {:016x})\n",
        meta.version, meta.leaves, meta.keyphrases, meta.size_bytes, meta.checksum,
    ))
}

/// Validates the tenant and drops any resident handles in *this*
/// process. A serving process manages its own residency (LRU + its own
/// `evict`); this verb is the scripted/test-harness form.
fn evict(args: &ParsedArgs) -> Result<String, String> {
    let fleet = open_fleet(args)?;
    let name = args.require("name")?;
    let was_resident = fleet.evict(name).map_err(|e| e.to_string())?;
    Ok(if was_resident {
        format!("tenant {name}: evicted\n")
    } else {
        format!("tenant {name}: already cold\n")
    })
}

fn stats(args: &ParsedArgs) -> Result<String, String> {
    if let Some(addr) = args.get("server") {
        return server_stats(addr, args.get("name"));
    }
    let fleet = open_fleet(args)?;
    let name = args.require("name")?;
    let status = fleet
        .status(name)
        .ok_or_else(|| format!("unknown tenant {name:?}"))?;
    let registry = ModelRegistry::attach(fleet.tenants_root().join(name))
        .map_err(|e| format!("attach {name}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "tenant: {name}");
    let _ = writeln!(out, "root: {}", registry.root().display());
    let _ = writeln!(
        out,
        "active version: {}",
        registry
            .pinned_version()
            .map_or_else(|| "-".into(), |v| v.to_string())
    );
    let _ = writeln!(
        out,
        "snapshots: {}",
        registry.versions().map_err(|e| e.to_string())?.len()
    );
    let _ = writeln!(out, "resident (this process): {}", status.resident);
    let _ = writeln!(
        out,
        "note: serve counters live in the serving process; use --server\n"
    );
    Ok(out)
}

/// Fleet table from a running `graphex serve --tenants` (its `/statusz`).
fn server_stats(addr: &str, name: Option<&str>) -> Result<String, String> {
    let mut client =
        graphex_server::HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = client
        .get("/statusz")
        .map_err(|e| format!("GET /statusz: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET /statusz: HTTP {}", response.status));
    }
    let status = graphex_server::json::parse(&response.text())
        .map_err(|e| format!("statusz is not JSON: {e}"))?;
    if status.get("mode").and_then(|m| m.as_str()) != Some("fleet") {
        return Err(format!(
            "{addr} is not a fleet server (single-tenant /statusz)"
        ));
    }
    let tenants = status
        .get("tenants")
        .and_then(|t| t.as_arr())
        .ok_or_else(|| "statusz missing tenants table".to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet on http://{addr}: {} resident / cap {}, {} bytes resident",
        status.get("resident").and_then(|v| v.as_u64()).unwrap_or(0),
        status
            .get("resident_cap")
            .and_then(|v| v.as_u64())
            .unwrap_or(0),
        status
            .get("resident_bytes")
            .and_then(|v| v.as_u64())
            .unwrap_or(0),
    );
    let _ = writeln!(
        out,
        "tenant\tresident\tversion\tmode\tbytes\trequests\tadmissions\tevictions"
    );
    let mut matched = false;
    for row in tenants {
        let row_name = row.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        if let Some(wanted) = name {
            if row_name != wanted {
                continue;
            }
        }
        matched = true;
        let field = |key: &str| row.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        let _ = writeln!(
            out,
            "{row_name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.get("resident")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
            field("snapshot_version"),
            row.get("load_mode")
                .and_then(|v| v.as_str())
                .unwrap_or("cold"),
            field("resident_bytes"),
            field("requests"),
            field("admissions"),
            field("evictions"),
        );
    }
    if !matched {
        return Err(match name {
            Some(wanted) => format!("server knows no tenant {wanted:?}"),
            None => "server reported an empty fleet".into(),
        });
    }
    Ok(out)
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
                KeyphraseRecord::new(format!("tenant{tag} gadget v{i}"), LeafId(i % 2), 50, 5)
            }))
            .build()
            .unwrap();
        graphex_core::serialize::save_to(&model, path).unwrap();
    }

    #[test]
    fn publish_list_evict_stats_cycle() {
        let dir = std::env::temp_dir().join(format!("graphex-cli-tenant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let root = dir.join("fleet");
        let gexm = dir.join("m.gexm");
        write_model(&gexm, 1);
        let root_s = root.to_str().unwrap();
        let gexm_s = gexm.to_str().unwrap();

        let out = run(&argv(&[
            "publish",
            "--tenants",
            root_s,
            "--name",
            "alpha",
            "--input",
            gexm_s,
            "--note",
            "seed",
        ]))
        .unwrap();
        assert!(out.contains("tenant alpha: published version 1"), "{out}");
        write_model(&gexm, 2);
        run(&argv(&[
            "publish",
            "--tenants",
            root_s,
            "--name",
            "beta",
            "--input",
            gexm_s,
        ]))
        .unwrap();

        let out = run(&argv(&["list", "--tenants", root_s])).unwrap();
        assert!(out.contains("alpha\t1\t1\t"), "{out}");
        assert!(out.contains("beta\t1\t1\t"), "{out}");
        assert!(out.contains("seed"), "{out}");

        let out = run(&argv(&["evict", "--tenants", root_s, "--name", "alpha"])).unwrap();
        assert!(out.contains("already cold"), "{out}");

        let out = run(&argv(&["stats", "--tenants", root_s, "--name", "alpha"])).unwrap();
        assert!(out.contains("active version: 1"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run(&argv(&[])).is_err());
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&["publish", "--tenants", "/tmp/x"])).is_err()); // missing --name
        let dir =
            std::env::temp_dir().join(format!("graphex-cli-tenant-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root_s = dir.to_str().unwrap();
        assert!(run(&argv(&["evict", "--tenants", root_s, "--name", "ghost"])).is_err());
        assert!(run(&argv(&["stats", "--tenants", root_s, "--name", "../up"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
