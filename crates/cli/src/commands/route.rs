//! `graphex route` — boot the scatter-gather router edge over a shard
//! map (`--map <file>` in the `graphex-shardmap` text format, or
//! `--backends host:port,host:port,…` with shard i = position i).
//!
//! The router holds no model: it hashes each request's `leaf` to a
//! backend (`leaf % shards`), fans batches out concurrently, and merges
//! the answers. Backend failures degrade the affected requests to
//! `backend_unavailable` entries — the edge itself keeps answering 200.

use crate::args::ParsedArgs;
use graphex_server::{start_router, RouterConfig, ShardMap};
use std::time::Duration;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    let map = map_from(args)?;
    let config = config_from(args)?;
    let router = start_router(config, map)
        .map_err(|e| format!("bind {}: {e}", args.get("addr").unwrap_or("127.0.0.1:7800")))?;
    println!(
        "graphex-router listening on http://{} ({} shard(s))",
        router.addr(),
        router.map().shards()
    );
    for (shard, backend) in router.map().backends().iter().enumerate() {
        println!("  shard {shard} -> {backend}");
    }
    println!("endpoints: POST /v1/infer  GET /healthz  GET /statusz  GET /metrics");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Shared with `graphex stats`: a shard map from `--map` or `--backends`.
pub(crate) fn map_from(args: &ParsedArgs) -> Result<ShardMap, String> {
    match (args.get("map"), args.get("backends")) {
        (Some(_), Some(_)) => Err("pass --map or --backends, not both".into()),
        (Some(path), None) => ShardMap::load(path),
        (None, Some(list)) => ShardMap::from_backends(
            list.split(',')
                .filter(|a| !a.is_empty())
                .map(str::to_string)
                .collect(),
        ),
        (None, None) => Err("missing --map <file> or --backends <addr,addr,…>".into()),
    }
}

pub(crate) fn config_from(args: &ParsedArgs) -> Result<RouterConfig, String> {
    let defaults = RouterConfig::default();
    Ok(RouterConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7800").to_string(),
        workers: args.get_num::<usize>("workers", defaults.workers)?.max(1),
        queue_depth: args.get_num::<usize>("queue", defaults.queue_depth)?.max(1),
        max_body_bytes: args.get_num::<usize>("max-body", defaults.max_body_bytes)?,
        backend_timeout: Duration::from_millis(
            args.get_num::<u64>("backend-timeout-ms", 2000)?.max(1),
        ),
        retries: args.get_num::<u32>("retries", defaults.retries)?,
        eject_after: args
            .get_num::<u32>("eject-after", defaults.eject_after)?
            .max(1),
        ..defaults
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(s: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn backends_flag_builds_a_map() {
        let map = map_from(&parsed(&["--backends", "a:1,b:2,c:3"])).unwrap();
        assert_eq!(map.shards(), 3);
        assert_eq!(map.backend_for_leaf(4), "b:2");
        assert!(map_from(&parsed(&[])).is_err());
        assert!(map_from(&parsed(&["--map", "x", "--backends", "a:1"])).is_err());
    }

    #[test]
    fn config_flags_override_defaults() {
        let config = config_from(&parsed(&[
            "--addr",
            "127.0.0.1:0",
            "--backend-timeout-ms",
            "250",
            "--retries",
            "0",
            "--eject-after",
            "5",
        ]))
        .unwrap();
        assert_eq!(config.backend_timeout, Duration::from_millis(250));
        assert_eq!(config.retries, 0);
        assert_eq!(config.eject_after, 5);
    }
}
