//! `graphex serve` — boot the HTTP/1.1 network frontend over a model
//! file (`--model`, fixed snapshot), a registry root (`--root`,
//! hot-swap: the server polls `CURRENT` and activates republished
//! snapshots under live traffic, so `graphex model publish`/`rollback`
//! from another process propagates without restart), or a multi-tenant
//! fleet root (`--tenants`, path-multiplexed: `POST /v1/t/<name>/infer`
//! per tenant, `--resident N` caps how many are loaded at once, and one
//! poll loop hot-swaps every resident tenant).

use crate::args::ParsedArgs;
use graphex_core::serialize::LoadMode;
use graphex_core::Engine;
use graphex_server::{HistoryConfig, ServerConfig, TraceConfig};
use graphex_serving::{
    FleetConfig, KvStore, ModelRegistry, ModelWatch, OverlayStore, ServingApi, SwapPolicy,
    TenantFleet, DEFAULT_OVERLAY_CAP_BYTES,
};
use std::sync::Arc;
use std::time::Duration;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    let config = config_from(args)?;
    let default_k = args.get_num::<usize>("k", 10)?;
    let policy = if args.switch("invalidate-on-swap") {
        SwapPolicy::Invalidate
    } else {
        SwapPolicy::Serve
    };

    if let Some(tenants_root) = args.get("tenants") {
        if args.get("model").is_some() || args.get("root").is_some() {
            return Err("pass --tenants, --root, or --model — not a combination".into());
        }
        return serve_fleet(args, config, tenants_root, default_k, policy);
    }

    let (watch, registry) = match (args.get("model"), args.get("root")) {
        (Some(_), Some(_)) => return Err("pass --model or --root, not both".into()),
        (Some(path), None) => {
            let model = graphex_core::serialize::load_from(path)
                .map_err(|e| format!("load {path}: {e}"))?;
            (ModelWatch::fixed(Engine::from_model(model)), None)
        }
        (None, Some(root)) => {
            let registry =
                Arc::new(ModelRegistry::open(root).map_err(|e| format!("open {root}: {e}"))?);
            let watch = registry
                .watch()
                .map_err(|e| format!("registry {root} holds no servable snapshot: {e}"))?;
            (watch, Some(registry))
        }
        (None, None) => return Err("missing --model <file> or --root <dir>".into()),
    };

    let mut api =
        ServingApi::with_watch(watch, Arc::new(KvStore::new()), default_k).swap_policy(policy);
    let overlay = args.switch("overlay");
    if overlay {
        let cap = args.get_num::<usize>("overlay-cap-bytes", DEFAULT_OVERLAY_CAP_BYTES)?;
        api = api.with_overlay(Arc::new(OverlayStore::with_cap(cap)));
    }
    let api = Arc::new(api);
    let debug = debug_endpoints(&config);
    let server = graphex_server::start(config, Arc::clone(&api))
        .map_err(|e| format!("bind {}: {e}", args.get("addr").unwrap_or("127.0.0.1:7878")))?;
    println!(
        "graphex-server listening on http://{} (snapshot_version {})",
        server.addr(),
        api.stats().snapshot_version
    );
    println!("endpoints: POST /v1/infer  GET /healthz  GET /statusz  GET /metrics{debug}");
    if overlay {
        println!(
            "overlay (NRT writes): POST /v1/upsert  GET /v1/overlay/journal  POST /v1/overlay/drain"
        );
    }

    // Registry mode: poll CURRENT so cross-process publishes/rollbacks
    // hot-swap this server. The poll thread is the process's only
    // activation driver; the watch inside the api observes each swap.
    if let Some(registry) = registry {
        let poll = Duration::from_millis(args.get_num::<u64>("poll-ms", 2000)?.max(100));
        loop {
            std::thread::sleep(poll);
            let pinned = registry.pinned_version();
            if pinned != registry.current_version() {
                if let Some(version) = pinned {
                    match registry.activate(version) {
                        Ok(_) => println!("hot-swapped to snapshot_version {version}"),
                        Err(e) => eprintln!("activation of {version} failed: {e} (still serving)"),
                    }
                }
            }
        }
    }
    // Fixed-model mode: serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `--tenants <root>`: boot the path-multiplexed fleet frontend. One
/// poll loop drives hot swaps for every resident tenant.
fn serve_fleet(
    args: &ParsedArgs,
    config: ServerConfig,
    tenants_root: &str,
    default_k: usize,
    policy: SwapPolicy,
) -> Result<String, String> {
    let fleet_config = FleetConfig {
        resident_cap: args.get_num::<usize>("resident", 4)?,
        default_k,
        load_mode: if args.switch("heap") {
            LoadMode::Heap
        } else {
            LoadMode::Mmap
        },
        swap_policy: policy,
        default_tenant: args.get("default-tenant").unwrap_or("default").to_string(),
        overlay: args.switch("overlay"),
        overlay_cap_bytes: args.get_num::<usize>("overlay-cap-bytes", DEFAULT_OVERLAY_CAP_BYTES)?,
    };
    let fleet = Arc::new(
        TenantFleet::open(tenants_root, fleet_config)
            .map_err(|e| format!("open fleet {tenants_root}: {e}"))?,
    );
    let names = fleet.names();
    let debug = debug_endpoints(&config);
    let server = graphex_server::start_fleet(config, Arc::clone(&fleet))
        .map_err(|e| format!("bind {}: {e}", args.get("addr").unwrap_or("127.0.0.1:7878")))?;
    println!(
        "graphex-server (fleet) listening on http://{} — {} tenants, resident cap {}, {} backend",
        server.addr(),
        names.len(),
        fleet.config().resident_cap,
        fleet.config().load_mode,
    );
    println!(
        "tenants: {}",
        if names.is_empty() {
            "(none yet)".into()
        } else {
            names.join(", ")
        }
    );
    println!(
        "endpoints: POST /v1/t/<tenant>/infer  POST /v1/infer (tenant {:?})  GET /healthz  GET /statusz  GET /metrics{debug}",
        fleet.default_tenant()
    );
    if fleet.config().overlay {
        println!(
            "overlay (NRT writes): POST /v1/t/<tenant>/upsert  GET /v1/t/<tenant>/overlay/journal  POST /v1/t/<tenant>/overlay/drain"
        );
    }

    let poll = Duration::from_millis(args.get_num::<u64>("poll-ms", 2000)?.max(100));
    loop {
        std::thread::sleep(poll);
        for (tenant, result) in fleet.poll_publishes() {
            match result {
                Ok(version) => {
                    println!("tenant {tenant}: hot-swapped to snapshot_version {version}")
                }
                Err(e) => eprintln!("tenant {tenant}: activation failed: {e} (still serving)"),
            }
        }
    }
}

/// The `/debug/*` surfaces `config` leaves on, for the startup banner
/// (`--no-trace` / `--no-history` turn them into 404s).
fn debug_endpoints(config: &ServerConfig) -> String {
    let mut out = String::new();
    if config.trace.enabled {
        out.push_str("  GET /debug/traces");
    }
    if config.history.enabled {
        out.push_str("  GET /debug/history");
    }
    out
}

fn config_from(args: &ParsedArgs) -> Result<ServerConfig, String> {
    let deadline_ms = args.get_num::<u64>("deadline-ms", 2000)?;
    let trace_defaults = TraceConfig::default();
    let trace = TraceConfig {
        enabled: !args.switch("no-trace"),
        ring: args
            .get_num::<usize>("trace-ring", trace_defaults.ring)?
            .max(1),
        slow_ring: trace_defaults.slow_ring,
        slow_threshold: Duration::from_millis(
            args.get_num::<u64>(
                "trace-slow-ms",
                trace_defaults.slow_threshold.as_millis() as u64,
            )?
            .max(1),
        ),
    };
    let history_defaults = HistoryConfig::default();
    let history = HistoryConfig {
        enabled: !args.switch("no-history"),
        interval: Duration::from_millis(
            args.get_num::<u64>(
                "history-interval-ms",
                history_defaults.interval.as_millis() as u64,
            )?
            .max(10),
        ),
        ring: args
            .get_num::<usize>("history-ring", history_defaults.ring)?
            .max(1),
    };
    Ok(ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: args.get_num::<usize>("workers", 4)?.max(1),
        queue_depth: args.get_num::<usize>("queue", 64)?.max(1),
        max_body_bytes: args.get_num::<usize>("max-body", 1 << 20)?,
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        keep_alive_timeout: Duration::from_secs(5),
        trace,
        history,
    })
}
