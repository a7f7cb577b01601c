//! Local cluster orchestration: boot N sharded backends plus a
//! scatter-gather router in one process, and roll a new model generation
//! across the fleet one shard at a time.
//!
//! This is the machinery behind `graphex cluster` and the cluster
//! integration tests. Each backend is a full [`crate::server`] frontend
//! over its own [`ModelRegistry`] root (`<cluster>/shard-<i>` by
//! convention, see `graphex_pipeline::shard_root`), so a rolling deploy
//! is literally N independent registry publishes — the router keeps
//! serving throughout because each backend hot-swaps under traffic
//! exactly like a monolith does.

use crate::router::{start_router, RouterConfig, RouterHandle};
use crate::server::{start, ServerConfig, ServerHandle};
use crate::shardmap::ShardMap;
use graphex_serving::{KvStore, ModelRegistry, ServingApi, SnapshotMeta};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard's publishable payload: the serialized snapshot bytes plus
/// named sidecar files (e.g. its `BUILDINFO` manifest) staged with it.
pub type ShardPayload = (Vec<u8>, Vec<(String, Vec<u8>)>);

/// One sharded backend: registry root, serving API, HTTP frontend.
pub struct LocalBackend {
    /// Which shard of the map this backend owns.
    pub shard: u32,
    /// The registry this backend watches; publishing here hot-swaps it.
    pub registry: Arc<ModelRegistry>,
    /// The serving API behind the frontend (stats, snapshot version).
    pub api: Arc<ServingApi>,
    server: ServerHandle,
}

impl LocalBackend {
    /// The backend's loopback address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The backend frontend's HTTP metrics (5xx gate input).
    pub fn metrics(&self) -> &crate::metrics::HttpMetrics {
        self.server.metrics()
    }

    /// Takes one history sample on this backend immediately; no-op when
    /// history is disabled.
    pub fn sample_history_now(&self) {
        self.server.sample_history_now();
    }
}

/// Errors from booting or rolling a local cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// A registry root failed to open or publish.
    Registry(u32, graphex_serving::RegistryError),
    /// A socket-level failure booting a backend or the router.
    Io(std::io::Error),
    /// A rolled backend never observed its new snapshot version.
    SwapTimeout { shard: u32, expected: u64, observed: u64 },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Registry(shard, e) => write!(f, "shard {shard}: {e}"),
            Self::Io(e) => write!(f, "cluster io: {e}"),
            Self::SwapTimeout { shard, expected, observed } => write!(
                f,
                "shard {shard}: swap to version {expected} not observed (still {observed})"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// How a [`LocalCluster`] is booted.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Template for every backend (its `addr` is ignored — each backend
    /// binds an ephemeral loopback port).
    pub backend: ServerConfig,
    /// Router edge configuration (its `addr` is honoured).
    pub router: RouterConfig,
    /// Per-backend answer-store capacity hint (`ServingApi` default k).
    pub default_k: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            backend: ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() },
            router: RouterConfig::default(),
            default_k: 10,
        }
    }
}

/// N backends + a router, all in-process on loopback.
pub struct LocalCluster {
    backends: Vec<LocalBackend>,
    map: ShardMap,
    router: RouterHandle,
}

impl LocalCluster {
    /// Boots one backend per shard root (index order == shard index) and
    /// a router over the resulting shard map. Every root must already
    /// hold at least one published snapshot — a backend with no model
    /// cannot warm up.
    pub fn boot(shard_roots: &[PathBuf], config: &ClusterConfig) -> Result<Self, ClusterError> {
        let mut backends = Vec::with_capacity(shard_roots.len());
        for (shard, root) in shard_roots.iter().enumerate() {
            let shard = shard as u32;
            backends.push(boot_backend(shard, root, config)?);
        }
        let map = ShardMap::from_backends(
            backends.iter().map(|b| b.addr().to_string()).collect(),
        )
        .map_err(|e| ClusterError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, e)))?;
        let router = start_router(config.router.clone(), map.clone())?;
        Ok(Self { backends, map, router })
    }

    /// The router's loopback address — what clients talk to.
    pub fn router_addr(&self) -> std::net::SocketAddr {
        self.router.addr()
    }

    /// The running router edge.
    pub fn router(&self) -> &RouterHandle {
        &self.router
    }

    /// The shard map the router was booted with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The backends, indexed by shard.
    pub fn backends(&self) -> &[LocalBackend] {
        &self.backends
    }

    /// Takes one history sample on the router and every backend at once
    /// (tests don't wait out the sampler interval).
    pub fn sample_history_now(&self) {
        self.router.sample_history_now();
        for backend in &self.backends {
            backend.sample_history_now();
        }
    }

    /// Total 5xx responses across the router and every backend — the
    /// cluster-wide zero-5xx gate reads this before and after a roll.
    pub fn server_errors(&self) -> u64 {
        self.router.metrics().server_errors()
            + self.backends.iter().map(|b| b.metrics().server_errors()).sum::<u64>()
    }

    /// Rolls a new model generation across the cluster **one shard at a
    /// time**: publish shard i's snapshot (+ sidecar files) into its
    /// registry — which validates, warms up, and hot-swaps that backend
    /// under live traffic — then wait until the backend's serving API
    /// observes the new version before touching shard i+1. Traffic keeps
    /// flowing through the router the whole time; the zero-5xx gate is
    /// the caller's to assert via [`Self::server_errors`].
    ///
    /// `snapshots[i]` is `(serialized model bytes, sidecar files)` for
    /// shard i; its length must equal the backend count.
    pub fn rolling_publish(
        &self,
        snapshots: &[ShardPayload],
        note: &str,
        swap_timeout: Duration,
    ) -> Result<Vec<SnapshotMeta>, ClusterError> {
        assert_eq!(
            snapshots.len(),
            self.backends.len(),
            "one snapshot per shard (got {}, cluster has {})",
            snapshots.len(),
            self.backends.len()
        );
        let mut published = Vec::with_capacity(snapshots.len());
        for (backend, (bytes, extras)) in self.backends.iter().zip(snapshots) {
            let extras: Vec<(&str, &[u8])> =
                extras.iter().map(|(name, content)| (name.as_str(), content.as_slice())).collect();
            let meta = backend
                .registry
                .publish_with_files(bytes, note, &extras)
                .map_err(|e| ClusterError::Registry(backend.shard, e))?;
            // Publish activates synchronously, but make the ordering
            // contract explicit: shard i serves the new generation
            // before shard i+1 is touched.
            let deadline = Instant::now() + swap_timeout;
            loop {
                let observed = backend.api.snapshot_version();
                if observed >= meta.version {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(ClusterError::SwapTimeout {
                        shard: backend.shard,
                        expected: meta.version,
                        observed,
                    });
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            published.push(meta);
        }
        Ok(published)
    }

    /// Stops the router first (no new fan-out), then every backend.
    pub fn shutdown(self) {
        self.router.shutdown();
        for backend in self.backends {
            backend.server.shutdown();
        }
    }
}

fn boot_backend(
    shard: u32,
    root: &Path,
    config: &ClusterConfig,
) -> Result<LocalBackend, ClusterError> {
    let registry =
        Arc::new(ModelRegistry::open(root).map_err(|e| ClusterError::Registry(shard, e))?);
    let watch = registry.watch().map_err(|e| ClusterError::Registry(shard, e))?;
    let api = Arc::new(ServingApi::with_watch(watch, Arc::new(KvStore::new()), config.default_k));
    let mut server_config = config.backend.clone();
    server_config.addr = "127.0.0.1:0".into();
    let server = start(server_config, Arc::clone(&api))?;
    Ok(LocalBackend { shard, registry, api, server })
}
