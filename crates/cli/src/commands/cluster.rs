//! `graphex cluster <verb>` — local scale-out cluster operations.
//!
//! ```text
//! graphex cluster up --root <cluster dir> [--addr host:port] [--k N]
//!                    [--workers N] [--poll-ms N]
//! ```
//!
//! `up` boots one backend per `<root>/shard-<i>` registry (as produced by
//! `graphex build --shards N --publish <root>`) plus the scatter-gather
//! router, then polls each registry's `CURRENT` so cross-process
//! publishes roll through the cluster one shard at a time.

use crate::args::ParsedArgs;
use graphex_server::{ClusterConfig, LocalCluster, RouterConfig, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Dispatches a `cluster` sub-verb (positional, like `model`).
pub fn run(argv: &[String]) -> Result<String, String> {
    let (verb, rest) = argv
        .split_first()
        .ok_or_else(|| "cluster: missing verb (up)".to_string())?;
    let args = ParsedArgs::parse(rest)?;
    match verb.as_str() {
        "up" => up(&args),
        other => Err(format!("cluster: unknown verb {other:?} (up)")),
    }
}

/// The `shard-0..shard-N` roots under a cluster directory, in order; the
/// sequence must be contiguous from 0.
fn shard_roots(root: &str) -> Result<Vec<PathBuf>, String> {
    let mut roots = Vec::new();
    loop {
        let dir = graphex_pipeline::shard_root(root, roots.len() as u32);
        if !dir.is_dir() {
            break;
        }
        roots.push(dir);
    }
    if roots.is_empty() {
        return Err(format!(
            "{root} holds no shard-0 registry — produce one with \
             `graphex build --shards N --publish {root}`"
        ));
    }
    Ok(roots)
}

fn up(args: &ParsedArgs) -> Result<String, String> {
    let root = args.require("root")?;
    let roots = shard_roots(root)?;
    let config = ClusterConfig {
        backend: ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: args.get_num::<usize>("workers", 4)?.max(1),
            ..Default::default()
        },
        router: RouterConfig {
            addr: args.get("addr").unwrap_or("127.0.0.1:7800").to_string(),
            ..Default::default()
        },
        default_k: args.get_num::<usize>("k", 10)?,
    };
    let cluster = LocalCluster::boot(&roots, &config).map_err(|e| format!("cluster boot: {e}"))?;
    println!(
        "graphex-cluster: router on http://{} over {} backend(s)",
        cluster.router_addr(),
        cluster.backends().len()
    );
    for backend in cluster.backends() {
        println!(
            "  shard {} -> http://{} ({}, snapshot_version {})",
            backend.shard,
            backend.addr(),
            roots[backend.shard as usize].display(),
            backend.api.snapshot_version()
        );
    }

    // Roll cross-process publishes through the cluster: poll each
    // registry's CURRENT and activate pinned-but-inactive versions, one
    // backend at a time per sweep (same contract as `serve --root`).
    let poll = Duration::from_millis(args.get_num::<u64>("poll-ms", 2000)?.max(100));
    loop {
        std::thread::sleep(poll);
        for backend in cluster.backends() {
            let pinned = backend.registry.pinned_version();
            if pinned != backend.registry.current_version() {
                if let Some(version) = pinned {
                    match backend.registry.activate(version) {
                        Ok(_) => println!(
                            "shard {}: hot-swapped to snapshot_version {version}",
                            backend.shard
                        ),
                        Err(e) => eprintln!(
                            "shard {}: activation of {version} failed: {e} (still serving)",
                            backend.shard
                        ),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_verb_and_missing_root_error() {
        assert!(run(&["sideways".to_string()]).is_err());
        assert!(run(&[]).is_err());
        let missing = std::env::temp_dir().join("graphex-no-such-cluster");
        let err = shard_roots(missing.to_str().unwrap()).unwrap_err();
        assert!(err.contains("shard-0"), "{err}");
    }
}
