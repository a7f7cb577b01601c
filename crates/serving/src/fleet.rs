//! Multi-tenant residency: many named model registries behind one
//! handle, with an LRU cap on how many are resident at once.
//!
//! GraphEx is deployed as *many* models — one per category or market —
//! and the paper's daily-refresh loop (Sec. IV-H) republishes each of
//! them independently. A [`TenantFleet`] manages that shape on one box:
//!
//! ```text
//! <root>/tenants/
//!   electronics/      ← a full ModelRegistry root (CURRENT, 1/, 2/, …)
//!   fashion/
//!   motors/
//! ```
//!
//! Each tenant moves through a small residency state machine:
//!
//! ```text
//!            admit (lazy, on first request)
//!   cold ────────────────────────────────────▶ resident
//!     ▲                                           │
//!     │    evict (LRU over cap, or explicit)      │
//!     └───────────────────────────────────────────┘
//! ```
//!
//! * **cold** — a directory on disk. Costs nothing; `list` reads only
//!   names and manifests.
//! * **resident** — an open [`ModelRegistry`] (mmap-backed by default,
//!   so the snapshot's pages live in the shared page cache) plus a
//!   per-tenant [`ServingApi`] with its own [`KvStore`], stats, and
//!   [`ModelWatch`](crate::ModelWatch) — publishes hot-swap one tenant
//!   without touching its neighbours.
//!
//! Admission runs the registry's full pipeline (load → manifest
//! checksum → structural parse → warm-up), so a corrupt tenant is
//! refused with an error naming its snapshot file while every other
//! tenant keeps serving. Eviction drops the resident handles: in-flight
//! requests finish on the `Arc`s they hold, the mmap unmaps when the
//! last one drops, and the tenant's serve counters are folded into a
//! persistent per-tenant accumulator so `evict → re-admit` never loses
//! stats. Because admission re-reads the page cache, re-admitting a
//! recently evicted tenant is close to free — that is the point of the
//! mmap backend.

use crate::api::{ServeStats, ServingApi, SwapPolicy};
use crate::kv::KvStore;
use crate::overlay::{OverlayStatus, OverlayStore, DEFAULT_OVERLAY_CAP_BYTES};
use crate::registry::{ModelRegistry, RegistryError, RegistryResult, SnapshotMeta};
use graphex_core::serialize::LoadMode;
use graphex_core::GraphExModel;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Subdirectory of the fleet root holding one registry per tenant.
pub const TENANTS_DIR: &str = "tenants";

/// Fleet-wide policy knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Maximum tenants resident at once (clamped to ≥ 1). Admitting
    /// past the cap evicts the least-recently-used resident.
    pub resident_cap: usize,
    /// Default top-k for every tenant's serving api.
    pub default_k: usize,
    /// Snapshot storage backend for tenant registries.
    pub load_mode: LoadMode,
    /// Cache policy applied to every tenant's serving api.
    pub swap_policy: SwapPolicy,
    /// Tenant served by legacy (un-prefixed) request paths.
    pub default_tenant: String,
    /// Attach a per-tenant [`OverlayStore`] to every admitted tenant so
    /// `/v1/t/<t>/upsert` works. Overlay stores live in the tenant
    /// state, not the resident incarnation — uncompacted upserts
    /// survive evict/re-admit churn.
    pub overlay: bool,
    /// Journal byte cap for each tenant's overlay (when enabled).
    pub overlay_cap_bytes: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            resident_cap: 4,
            default_k: 10,
            load_mode: LoadMode::default(),
            swap_policy: SwapPolicy::Serve,
            default_tenant: "default".into(),
            overlay: false,
            overlay_cap_bytes: DEFAULT_OVERLAY_CAP_BYTES,
        }
    }
}

/// Errors surfaced by fleet operations.
#[derive(Debug)]
pub enum FleetError {
    /// Tenant names are path components; anything outside
    /// `[A-Za-z0-9_-]{1,64}` is refused before touching the filesystem.
    InvalidName(String),
    /// No such tenant directory under `<root>/tenants/`.
    UnknownTenant(String),
    /// The tenant exists but could not be admitted (or published to);
    /// the inner error names the failing file where applicable.
    Tenant { name: String, source: RegistryError },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidName(name) => {
                write!(f, "invalid tenant name {name:?} (want [A-Za-z0-9_-], 1..=64 chars)")
            }
            Self::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            Self::Tenant { name, source } => write!(f, "tenant {name:?}: {source}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Tenant { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Convenience alias for fleet operations.
pub type FleetResult<T> = std::result::Result<T, FleetError>;

/// `true` iff `name` is usable as a tenant name (and therefore as a
/// directory name and a URL path segment): `[A-Za-z0-9_-]`, 1–64 chars.
/// The charset excludes `/`, `\`, `.` and whitespace, so a tenant name
/// can never traverse outside `<root>/tenants/`.
pub fn is_valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// The resident half of a tenant: live handles, dropped on eviction.
struct Resident {
    registry: Arc<ModelRegistry>,
    api: Arc<ServingApi>,
    /// LRU tick of the last request routed to this tenant.
    last_used: u64,
    /// Wall-clock cost of the admission that made this incarnation
    /// (open + load + checksum + warm-up).
    admitted_in: Duration,
}

#[derive(Default)]
struct TenantState {
    /// Counters folded in from evicted incarnations.
    folded: ServeStats,
    admissions: u64,
    evictions: u64,
    resident: Option<Resident>,
    /// Per-tenant overlay (when [`FleetConfig::overlay`] is set),
    /// created on first admission and re-attached to every later
    /// incarnation so uncompacted upserts outlive evictions.
    overlay: Option<Arc<OverlayStore>>,
}

struct Inner {
    tenants: BTreeMap<String, TenantState>,
    /// Monotone use-counter backing the LRU order (no wall clock: ties
    /// and clock steps must not change eviction order).
    tick: u64,
}

/// One row of the fleet table (what `/statusz` and `graphex tenant
/// list` render).
#[derive(Debug, Clone)]
pub struct TenantStatus {
    pub name: String,
    pub resident: bool,
    /// Snapshot version: the *active* one while resident, else the
    /// last-known published version read from the tenant's on-disk
    /// registry pin (0 only for a tenant that never had a publish).
    /// A cold tenant with three published snapshots reports 3, not 0.
    pub snapshot_version: u64,
    /// Storage backend actually serving the resident snapshot.
    pub load_mode: Option<LoadMode>,
    /// Size of the resident snapshot's backing bytes (0 while cold).
    /// Under mmap this is file bytes shared with the page cache, not
    /// private anonymous memory.
    pub resident_bytes: u64,
    /// Items in the resident incarnation's KV store and the bytes their
    /// records occupy ([`KvStore::record_bytes`]); both 0 while cold —
    /// the store goes with the incarnation.
    pub store_items: u64,
    pub store_bytes: u64,
    pub admissions: u64,
    pub evictions: u64,
    /// Cold-start cost of the current incarnation, if resident.
    pub admitted_in: Option<Duration>,
    /// Lifetime serve counters: folded evicted incarnations + the live
    /// one.
    pub stats: ServeStats,
    /// Overlay depth/counters, when the fleet runs with overlays
    /// enabled (present even while cold — the overlay outlives
    /// residency).
    pub overlay: Option<OverlayStatus>,
}

/// Many named model registries under one root, with lazy admission and
/// an LRU residency cap (see module docs).
pub struct TenantFleet {
    tenants_root: PathBuf,
    config: FleetConfig,
    inner: Mutex<Inner>,
}

impl TenantFleet {
    /// Opens a fleet rooted at `<root>/tenants/`, creating the directory
    /// if needed. Existing tenant directories are registered **cold** —
    /// nothing is loaded until the first request (or an explicit
    /// [`TenantFleet::admit`]) touches a tenant.
    pub fn open(root: impl AsRef<Path>, mut config: FleetConfig) -> RegistryResult<Self> {
        config.resident_cap = config.resident_cap.max(1);
        let tenants_root = root.as_ref().join(TENANTS_DIR);
        std::fs::create_dir_all(&tenants_root)?;
        let mut tenants = BTreeMap::new();
        for entry in std::fs::read_dir(&tenants_root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if is_valid_tenant_name(name) {
                    tenants.insert(name.to_string(), TenantState::default());
                }
            }
        }
        Ok(Self { tenants_root, config, inner: Mutex::new(Inner { tenants, tick: 0 }) })
    }

    /// The `<root>/tenants/` directory this fleet manages.
    pub fn tenants_root(&self) -> &Path {
        &self.tenants_root
    }

    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The tenant legacy (un-prefixed) request paths resolve to.
    pub fn default_tenant(&self) -> &str {
        &self.config.default_tenant
    }

    /// All known tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().tenants.keys().cloned().collect()
    }

    /// Fleet table: one status row per tenant, sorted by name.
    pub fn list(&self) -> Vec<TenantStatus> {
        let inner = self.inner.lock();
        inner.tenants.iter().map(|(name, state)| self.status_of(name, state)).collect()
    }

    /// One tenant's status row, if the tenant is known.
    pub fn status(&self, name: &str) -> Option<TenantStatus> {
        let inner = self.inner.lock();
        inner.tenants.get(name).map(|state| self.status_of(name, state))
    }

    /// Lifetime serve counters for one tenant (folded + live).
    pub fn stats(&self, name: &str) -> FleetResult<ServeStats> {
        self.status(name).map(|s| s.stats).ok_or_else(|| FleetError::UnknownTenant(name.into()))
    }

    /// Number of tenants currently resident.
    pub fn resident_count(&self) -> usize {
        self.inner.lock().tenants.values().filter(|t| t.resident.is_some()).count()
    }

    /// Total backing bytes across resident tenants (page-cache-shared
    /// under mmap, private heap under `LoadMode::Heap`).
    pub fn resident_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.tenants.values().filter_map(|t| t.resident.as_ref()).map(resident_bytes).sum()
    }

    /// The serving api for `name`, admitting the tenant if it is cold
    /// (and evicting the least-recently-used resident if that pushes
    /// the fleet over its cap). This is the per-request entry point:
    /// resident lookups are one mutex + map probe; only a cold tenant
    /// pays the admission pipeline.
    ///
    /// Serving happens entirely on the returned `Arc` — an eviction (or
    /// hot swap) after this call returns does not disturb the request
    /// using it.
    pub fn api(&self, name: &str) -> FleetResult<Arc<ServingApi>> {
        if !is_valid_tenant_name(name) {
            return Err(FleetError::InvalidName(name.into()));
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;

        // Tenants can appear on disk after `open` (publish from another
        // process): an unknown name re-checks the filesystem once.
        if !inner.tenants.contains_key(name) {
            if !self.tenants_root.join(name).is_dir() {
                return Err(FleetError::UnknownTenant(name.into()));
            }
            inner.tenants.insert(name.to_string(), TenantState::default());
        }

        let state = inner.tenants.get_mut(name).expect("inserted above");
        if let Some(resident) = state.resident.as_mut() {
            resident.last_used = tick;
            return Ok(Arc::clone(&resident.api));
        }

        // Cold: run admission. Holding the fleet lock serializes
        // concurrent cold starts (single-flight per fleet — the cap
        // stays exact and one tenant is never admitted twice).
        let started = Instant::now();
        let registry = ModelRegistry::open_with_mode(self.tenants_root.join(name), self.config.load_mode)
            .map_err(|e| FleetError::Tenant { name: name.into(), source: e })?;
        let watch = registry
            .watch()
            .map_err(|e| FleetError::Tenant { name: name.into(), source: e })?;
        let mut built = ServingApi::with_watch(watch, Arc::new(KvStore::new()), self.config.default_k)
            .swap_policy(self.config.swap_policy);
        if self.config.overlay {
            let state = inner.tenants.get_mut(name).expect("inserted above");
            let overlay = state
                .overlay
                .get_or_insert_with(|| {
                    Arc::new(OverlayStore::with_cap(self.config.overlay_cap_bytes))
                })
                .clone();
            built = built.with_overlay(overlay);
        }
        let api = Arc::new(built);
        let state = inner.tenants.get_mut(name).expect("still present");
        state.admissions += 1;
        state.resident = Some(Resident {
            registry: Arc::new(registry),
            api: Arc::clone(&api),
            last_used: tick,
            admitted_in: started.elapsed(),
        });
        self.evict_over_cap(&mut inner, name);
        Ok(api)
    }

    /// Admits `name` (no-op if already resident) and returns its status.
    pub fn admit(&self, name: &str) -> FleetResult<TenantStatus> {
        self.api(name)?;
        Ok(self.status(name).expect("admitted above"))
    }

    /// Drops `name`'s resident handles (folding its counters into the
    /// persistent accumulator). Returns `true` if the tenant was
    /// resident. In-flight requests finish on the `Arc`s they hold.
    pub fn evict(&self, name: &str) -> FleetResult<bool> {
        let mut inner = self.inner.lock();
        let state = inner
            .tenants
            .get_mut(name)
            .ok_or_else(|| FleetError::UnknownTenant(name.into()))?;
        Ok(Self::evict_state(state))
    }

    /// Publishes a freshly built model to tenant `name`, creating the
    /// tenant if it does not exist yet. A resident tenant hot-swaps (its
    /// watch observes the new snapshot); a cold tenant just gains a new
    /// on-disk version for its next admission.
    pub fn publish_model(&self, name: &str, model: &GraphExModel, note: &str) -> FleetResult<SnapshotMeta> {
        self.publish_with(name, |registry| registry.publish(model, note))
    }

    /// Publishes an already-serialized snapshot file to tenant `name`
    /// (the CLI ingest path), creating the tenant if needed.
    pub fn publish_file(&self, name: &str, path: impl AsRef<Path>, note: &str) -> FleetResult<SnapshotMeta> {
        let path = path.as_ref();
        self.publish_with(name, |registry| registry.publish_file(path, note))
    }

    fn publish_with(
        &self,
        name: &str,
        publish: impl FnOnce(&ModelRegistry) -> RegistryResult<SnapshotMeta>,
    ) -> FleetResult<SnapshotMeta> {
        if !is_valid_tenant_name(name) {
            return Err(FleetError::InvalidName(name.into()));
        }
        let wrap = |e: RegistryError| FleetError::Tenant { name: name.into(), source: e };
        // Resolve the target registry under the lock, publish outside
        // it: admission of the *new* snapshot (load + warm-up) must not
        // stall requests to other tenants.
        let resident_registry = {
            let mut inner = self.inner.lock();
            inner.tenants.entry(name.to_string()).or_default();
            inner
                .tenants
                .get(name)
                .and_then(|t| t.resident.as_ref())
                .map(|r| Arc::clone(&r.registry))
        };
        match resident_registry {
            Some(registry) => publish(&registry).map_err(wrap),
            None => {
                // Cold tenant: a transient attach-mode handle publishes
                // (and fully admits) without making the tenant resident.
                let registry = ModelRegistry::attach(self.tenants_root.join(name)).map_err(wrap)?;
                publish(&registry).map_err(wrap)
            }
        }
    }

    /// Activates cross-process publishes: for every resident tenant
    /// whose on-disk pin (`CURRENT`, or a newer snapshot) differs from
    /// the serving version, runs admission and swaps. Returns
    /// `(tenant, result)` per attempted swap; a failed activation
    /// leaves that tenant serving its previous snapshot.
    ///
    /// This is the fleet analogue of `graphex serve --root`'s poll
    /// loop, one poll for N tenants.
    pub fn poll_publishes(&self) -> Vec<(String, RegistryResult<u64>)> {
        // Snapshot the resident registries, then activate outside the
        // fleet lock — loading a republished snapshot must not block
        // routing for unrelated tenants.
        let residents: Vec<(String, Arc<ModelRegistry>)> = {
            let inner = self.inner.lock();
            inner
                .tenants
                .iter()
                .filter_map(|(name, t)| {
                    t.resident.as_ref().map(|r| (name.clone(), Arc::clone(&r.registry)))
                })
                .collect()
        };
        let mut swapped = Vec::new();
        for (name, registry) in residents {
            let pinned = registry.pinned_version();
            if pinned == registry.current_version() {
                continue;
            }
            if let Some(version) = pinned {
                let result = registry.activate(version).map(|a| a.version);
                swapped.push((name, result));
            }
        }
        swapped
    }

    /// Evicts least-recently-used residents until the cap holds,
    /// never evicting `keep` (the tenant that triggered the admission).
    fn evict_over_cap(&self, inner: &mut Inner, keep: &str) {
        loop {
            let resident = inner.tenants.values().filter(|t| t.resident.is_some()).count();
            if resident <= self.config.resident_cap {
                return;
            }
            let victim = inner
                .tenants
                .iter()
                .filter(|(name, t)| t.resident.is_some() && name.as_str() != keep)
                .min_by_key(|(_, t)| t.resident.as_ref().expect("filtered resident").last_used)
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    let state = inner.tenants.get_mut(&name).expect("victim exists");
                    Self::evict_state(state);
                }
                // Only `keep` is resident: a cap of ≥ 1 always has room.
                None => return,
            }
        }
    }

    fn evict_state(state: &mut TenantState) -> bool {
        match state.resident.take() {
            Some(resident) => {
                state.folded.absorb(&resident.api.stats());
                // The evicted incarnation's in-flight gauge is a moment
                // in time, not a lifetime counter — don't carry it.
                state.folded.in_flight = 0;
                state.evictions += 1;
                true
            }
            None => false,
        }
    }

    fn status_of(&self, name: &str, state: &TenantState) -> TenantStatus {
        let mut stats = state.folded;
        let resident = state.resident.as_ref();
        if let Some(r) = resident {
            stats.absorb(&r.api.stats());
        }
        // A cold tenant still has a last-known published version on
        // disk: read the registry pin without activating anything, so
        // `list`/`status` never misreport an evicted tenant as version 0
        // (it would look like "never published" to operators).
        let snapshot_version = match resident {
            Some(r) => r.registry.current_version().unwrap_or(0),
            None => ModelRegistry::attach(self.tenants_root.join(name))
                .ok()
                .and_then(|r| r.pinned_version())
                .unwrap_or(0),
        };
        TenantStatus {
            name: name.to_string(),
            resident: resident.is_some(),
            snapshot_version,
            load_mode: resident.and_then(|r| r.registry.current().map(|a| a.load_mode)),
            resident_bytes: resident.map_or(0, resident_bytes),
            store_items: resident.map_or(0, |r| r.api.store().len() as u64),
            store_bytes: resident.map_or(0, |r| r.api.store().record_bytes() as u64),
            admissions: state.admissions,
            evictions: state.evictions,
            admitted_in: resident.map(|r| r.admitted_in),
            stats,
            overlay: state.overlay.as_ref().map(|o| o.status()),
        }
    }
}

impl std::fmt::Debug for TenantFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantFleet")
            .field("tenants_root", &self.tenants_root)
            .field("resident_cap", &self.config.resident_cap)
            .field("tenants", &self.names())
            .finish()
    }
}

fn resident_bytes(resident: &Resident) -> u64 {
    resident.registry.current().map_or(0, |a| a.meta.size_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::{GraphExBuilder, GraphExConfig, InferRequest, KeyphraseRecord, LeafId};

    fn model(tag: u32) -> GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        GraphExBuilder::new(config)
            .add_records((0..6u32).map(|i| {
                KeyphraseRecord::new(format!("tenant{tag} widget model{i}"), LeafId(i % 2), 100 + i, 10)
            }))
            .build()
            .unwrap()
    }

    fn temproot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("graphex-fleet-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fleet_with(root: &Path, cap: usize, tenants: &[(&str, u32)]) -> TenantFleet {
        let fleet = TenantFleet::open(
            root,
            FleetConfig { resident_cap: cap, ..FleetConfig::default() },
        )
        .unwrap();
        for &(name, tag) in tenants {
            fleet.publish_model(name, &model(tag), "seed").unwrap();
        }
        fleet
    }

    fn ask(api: &ServingApi, tag: u32) -> Vec<String> {
        let title = format!("tenant{tag} widget model0");
        api.serve_request(&InferRequest::new(&title, LeafId(0)).k(3).resolve_texts(true)).keyphrases
    }

    #[test]
    fn lazy_admission_and_isolation() {
        let root = temproot("lazy");
        let fleet = fleet_with(&root, 4, &[("alpha", 1), ("beta", 2)]);
        assert_eq!(fleet.resident_count(), 0, "publish to cold tenants must not admit");

        let alpha = fleet.api("alpha").unwrap();
        assert_eq!(fleet.resident_count(), 1);
        assert!(ask(&alpha, 1).iter().all(|t| t.contains("tenant1")));
        let beta = fleet.api("beta").unwrap();
        assert!(ask(&beta, 2).iter().all(|t| t.contains("tenant2")));
        assert_eq!(fleet.resident_count(), 2);
        assert!(fleet.resident_bytes() > 0);

        // Per-tenant stats are isolated.
        assert_eq!(fleet.stats("alpha").unwrap().outcomes.exact_leaf, 1);
        assert_eq!(fleet.stats("beta").unwrap().outcomes.exact_leaf, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lru_eviction_and_readmission_serve_identical_answers() {
        let root = temproot("lru");
        let fleet = fleet_with(&root, 2, &[("a", 1), ("b", 2), ("c", 3)]);
        let first_a = ask(&fleet.api("a").unwrap(), 1);
        ask(&fleet.api("b").unwrap(), 2);
        // Touch `a` again so `b` is the LRU, then admit `c` over the cap.
        ask(&fleet.api("a").unwrap(), 1);
        ask(&fleet.api("c").unwrap(), 3);
        assert_eq!(fleet.resident_count(), 2);
        let status: BTreeMap<String, bool> =
            fleet.list().into_iter().map(|t| (t.name.clone(), t.resident)).collect();
        assert!(status["a"]);
        assert!(!status["b"], "LRU tenant must be the one evicted");
        assert!(status["c"]);

        // Re-admission serves byte-identical answers and keeps folded stats.
        let again_b = ask(&fleet.api("b").unwrap(), 2);
        assert!(again_b.iter().all(|t| t.contains("tenant2")));
        let b = fleet.status("b").unwrap();
        assert_eq!(b.admissions, 2);
        assert_eq!(b.evictions, 1);
        assert_eq!(b.stats.outcomes.exact_leaf, 2, "stats folded across eviction");
        let again_a = ask(&fleet.api("a").unwrap(), 1);
        assert_eq!(first_a, again_a);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn explicit_evict_folds_stats_and_unmaps() {
        let root = temproot("evict");
        let fleet = fleet_with(&root, 4, &[("solo", 9)]);
        let api = fleet.api("solo").unwrap();
        ask(&api, 9);
        ask(&api, 9);
        assert!(fleet.evict("solo").unwrap());
        assert!(!fleet.evict("solo").unwrap(), "double evict is a no-op");
        assert_eq!(fleet.resident_count(), 0);
        assert_eq!(fleet.resident_bytes(), 0);
        let status = fleet.status("solo").unwrap();
        assert_eq!(status.stats.outcomes.exact_leaf, 2);
        assert_eq!(
            status.snapshot_version, 1,
            "an evicted tenant reports its last-known published version, not 0"
        );
        // The Arc held across the eviction still serves (in-flight
        // requests are never disturbed).
        assert!(ask(&api, 9).iter().all(|t| t.contains("tenant9")));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn publish_hot_swaps_resident_tenant() {
        let root = temproot("swap");
        let fleet = fleet_with(&root, 4, &[("live", 1)]);
        let api = fleet.api("live").unwrap();
        assert!(ask(&api, 1).iter().all(|t| t.contains("tenant1")));
        fleet.publish_model("live", &model(5), "refresh").unwrap();
        // The same api handle observes the swap on its next request.
        assert!(ask(&api, 5).iter().all(|t| t.contains("tenant5")));
        assert_eq!(fleet.status("live").unwrap().snapshot_version, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn poll_publishes_activates_cross_process_swaps() {
        let root = temproot("poll");
        let fleet = fleet_with(&root, 4, &[("ext", 1)]);
        fleet.api("ext").unwrap();
        assert!(fleet.poll_publishes().is_empty(), "nothing to swap yet");

        // Another process publishes directly into the tenant's registry.
        let other = ModelRegistry::attach(fleet.tenants_root().join("ext")).unwrap();
        other.publish(&model(7), "external").unwrap();
        drop(other);

        let swapped = fleet.poll_publishes();
        assert_eq!(swapped.len(), 1);
        assert_eq!(swapped[0].0, "ext");
        assert_eq!(*swapped[0].1.as_ref().unwrap(), 2);
        assert!(ask(&fleet.api("ext").unwrap(), 7).iter().all(|t| t.contains("tenant7")));
        std::fs::remove_dir_all(&root).ok();
    }

    /// A never-admitted tenant's status reads the on-disk registry pin:
    /// publishes (and rollbacks) to cold tenants show up in `list`.
    #[test]
    fn cold_tenant_status_reports_last_published_version() {
        let root = temproot("cold-version");
        let fleet = fleet_with(&root, 4, &[("frozen", 1)]);
        assert_eq!(fleet.status("frozen").unwrap().snapshot_version, 1);
        fleet.publish_model("frozen", &model(2), "second").unwrap();
        assert_eq!(fleet.resident_count(), 0, "publish to a cold tenant must not admit");
        assert_eq!(fleet.status("frozen").unwrap().snapshot_version, 2);
        // A tenant directory with no publishes yet genuinely is 0.
        std::fs::create_dir_all(fleet.tenants_root().join("empty")).unwrap();
        let fleet = TenantFleet::open(&root, FleetConfig::default()).unwrap();
        assert_eq!(fleet.status("empty").unwrap().snapshot_version, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Overlay-enabled fleets keep each tenant's uncompacted upserts
    /// across evict/re-admit: the overlay store belongs to the tenant,
    /// not to the resident incarnation.
    #[test]
    fn tenant_overlay_survives_eviction() {
        let root = temproot("overlay");
        let fleet = TenantFleet::open(
            &root,
            FleetConfig { resident_cap: 4, overlay: true, ..FleetConfig::default() },
        )
        .unwrap();
        fleet.publish_model("shop", &model(1), "seed").unwrap();

        let api = fleet.api("shop").unwrap();
        api.apply_upsert(&[KeyphraseRecord::new("fresh arrival", LeafId(42), 10, 1)]).unwrap();
        let served = api.serve_request(
            &InferRequest::new("fresh arrival", LeafId(42)).k(3).id(1).resolve_texts(true),
        );
        assert_eq!(served.keyphrases, ["fresh arrival"]);

        assert!(fleet.evict("shop").unwrap());
        let status = fleet.status("shop").unwrap();
        assert_eq!(status.overlay.as_ref().map(|o| o.depth), Some(1), "overlay outlives eviction");

        // Re-admission re-attaches the same overlay: still servable.
        let again = fleet.api("shop").unwrap();
        let served = again.serve_request(
            &InferRequest::new("fresh arrival", LeafId(42)).k(3).id(2).resolve_texts(true),
        );
        assert_eq!(served.keyphrases, ["fresh arrival"]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn invalid_and_unknown_tenants_are_refused() {
        let root = temproot("names");
        let fleet = fleet_with(&root, 4, &[("ok", 1)]);
        for bad in ["", "a/b", "..", "a b", "é", &"x".repeat(65)] {
            assert!(
                matches!(fleet.api(bad), Err(FleetError::InvalidName(_))),
                "{bad:?} accepted"
            );
        }
        assert!(matches!(fleet.api("ghost"), Err(FleetError::UnknownTenant(_))));
        // A corrupt tenant names its snapshot file and leaves others serving.
        fleet.publish_model("sick", &model(2), "").unwrap();
        let path = fleet.tenants_root().join("sick").join("1").join("model.gexm");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = match fleet.api("sick") {
            Err(e) => e,
            Ok(_) => panic!("corrupt tenant admitted"),
        };
        assert!(matches!(err, FleetError::Tenant { .. }), "{err}");
        assert!(err.to_string().contains("sick"), "{err}");
        assert!(fleet.api("ok").is_ok());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tenants_created_after_open_are_discovered() {
        let root = temproot("late");
        let fleet = fleet_with(&root, 4, &[]);
        assert!(fleet.names().is_empty());
        // Simulate another process creating a tenant registry on disk.
        let other = ModelRegistry::attach(fleet.tenants_root().join("newcomer")).unwrap();
        other.publish(&model(4), "").unwrap();
        drop(other);
        assert!(ask(&fleet.api("newcomer").unwrap(), 4).iter().all(|t| t.contains("tenant4")));
        std::fs::remove_dir_all(&root).ok();
    }
}
