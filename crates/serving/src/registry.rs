//! Model lifecycle: versioned snapshot store + atomic hot-swap.
//!
//! The paper's production story (Sec. IV-H, Fig. 7) republishes models
//! continuously — a daily batch refresh plus NRT updates — while serving
//! stays live. This module is the missing lifecycle layer: a
//! [`ModelRegistry`] manages a snapshot directory
//!
//! ```text
//! <root>/
//!   CURRENT           ← decimal version of the active snapshot (atomic rename)
//!   3/
//!     model.gexm      ← GEXM snapshot
//!     MANIFEST        ← key<space>value lines: checksum, counts, metadata
//!   4/ …
//! ```
//!
//! and drives every snapshot through the same admission pipeline:
//! **load → validate → warm up → swap**. The swap is an epoch-counted
//! `Arc` pointer flip behind a read-write lock: readers grab the current
//! [`ActiveModel`] with one read-lock clone and keep serving on it for as
//! long as they hold the `Arc`, so in-flight requests always finish on
//! the model they started with, and a failed load/validation/warm-up
//! leaves the previous model serving untouched.
//!
//! Consumers don't talk to the registry directly — they hold a
//! [`ModelWatch`], a cheap poll-based handle that the serving API and the
//! batch pipeline resolve per request or run, so a `publish` or
//! `rollback` propagates without restarting anything.

use graphex_core::serialize::{self, Hashed, LoadMode, SnapshotInfo};
use graphex_core::{Engine, GraphExError, GraphExModel, InferRequest};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Errors surfaced by the model lifecycle layer.
#[derive(Debug)]
pub enum RegistryError {
    Io(std::io::Error),
    /// The snapshot failed structural validation (or a model-format error).
    Model(GraphExError),
    /// The registry holds no snapshots yet.
    NoSnapshots,
    /// No snapshot directory for this version.
    UnknownVersion(u64),
    /// Nothing older than the current version to roll back to.
    NothingToRollBack,
    /// A MANIFEST is missing, unparsable, or disagrees with the snapshot
    /// bytes (e.g. checksum mismatch).
    Manifest(String),
    /// Warm-up probes failed: the snapshot loads but cannot answer.
    Warmup(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "registry i/o error: {e}"),
            Self::Model(e) => write!(f, "snapshot rejected: {e}"),
            Self::NoSnapshots => write!(f, "registry holds no snapshots"),
            Self::UnknownVersion(v) => write!(f, "no snapshot with version {v}"),
            Self::NothingToRollBack => write!(f, "no older snapshot to roll back to"),
            Self::Manifest(what) => write!(f, "manifest error: {what}"),
            Self::Warmup(what) => write!(f, "warm-up failed: {what}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<GraphExError> for RegistryError {
    fn from(e: GraphExError) -> Self {
        Self::Model(e)
    }
}

/// Convenience alias for registry operations.
pub type RegistryResult<T> = std::result::Result<T, RegistryError>;

/// Manifest of one published snapshot (the `MANIFEST` file, parsed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Registry version (directory name).
    pub version: u64,
    /// GEXM format version inside the snapshot.
    pub format: u32,
    /// `serialize::checksum` of the whole `model.gexm` file.
    pub checksum: u64,
    pub leaves: u64,
    pub keyphrases: u64,
    pub size_bytes: u64,
    /// Unix seconds at publish time.
    pub created_unix: u64,
    /// Free-form build metadata (source dataset, pipeline run id, …).
    pub note: String,
}

impl SnapshotMeta {
    fn render(&self) -> String {
        format!(
            "version {}\nformat {}\nchecksum {:016x}\nleaves {}\nkeyphrases {}\nsize_bytes {}\ncreated_unix {}\nnote {}\n",
            self.version,
            self.format,
            self.checksum,
            self.leaves,
            self.keyphrases,
            self.size_bytes,
            self.created_unix,
            self.note
        )
    }

    fn parse(text: &str, version: u64) -> RegistryResult<Self> {
        let mut meta = SnapshotMeta {
            version,
            format: 0,
            checksum: 0,
            leaves: 0,
            keyphrases: 0,
            size_bytes: 0,
            created_unix: 0,
            note: String::new(),
        };
        let mut stated_version = version;
        for line in text.lines() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            let num = || -> RegistryResult<u64> {
                value
                    .parse()
                    .map_err(|_| RegistryError::Manifest(format!("bad {key}: {value:?}")))
            };
            match key {
                "version" => stated_version = num()?,
                "format" => meta.format = num()? as u32,
                "checksum" => {
                    meta.checksum = u64::from_str_radix(value, 16)
                        .map_err(|_| RegistryError::Manifest(format!("bad checksum: {value:?}")))?;
                }
                "leaves" => meta.leaves = num()?,
                "keyphrases" => meta.keyphrases = num()?,
                "size_bytes" => meta.size_bytes = num()?,
                "created_unix" => meta.created_unix = num()?,
                "note" => meta.note = value.to_string(),
                _ => {} // forward-compatible: ignore unknown keys
            }
        }
        if stated_version != version {
            return Err(RegistryError::Manifest(format!(
                "manifest version {stated_version} does not match directory {version}"
            )));
        }
        if meta.format == 0 {
            return Err(RegistryError::Manifest("missing format line".into()));
        }
        Ok(meta)
    }
}

/// The model currently serving: snapshot version + a shared [`Engine`]
/// (model + scratch pool). In-flight holders keep the old `ActiveModel`
/// alive across a swap; it is freed when the last request drops it.
#[derive(Debug)]
pub struct ActiveModel {
    pub version: u64,
    pub engine: Engine,
    pub meta: SnapshotMeta,
    /// Which storage backend holds the snapshot bytes: `Mmap` borrows
    /// the page cache (resident set grows only with pages touched, and
    /// is shared across processes mapping the same file), `Heap` is a
    /// private anonymous copy.
    pub load_mode: LoadMode,
}

/// Shared hot-swap state between a registry and all of its watches.
#[derive(Debug)]
struct Shared {
    active: RwLock<Option<Arc<ActiveModel>>>,
    /// Bumps on every successful activation; `epoch - 1` is the number of
    /// swaps observed since the first model went live.
    epoch: AtomicU64,
}

/// Poll-based consumer handle onto a registry's active model.
///
/// Cloning is cheap; [`ModelWatch::current`] is one read-lock `Arc`
/// clone, suitable for per-request resolution. Consumers that want to
/// notice republishes without holding the lock compare
/// [`ModelWatch::epoch`] snapshots.
#[derive(Debug, Clone)]
pub struct ModelWatch {
    shared: Arc<Shared>,
}

impl ModelWatch {
    /// The model currently serving.
    ///
    /// Infallible by construction: a watch can only be created once a
    /// snapshot is active, and activation never clears the slot.
    pub fn current(&self) -> Arc<ActiveModel> {
        self.shared
            .active
            .read()
            .clone()
            .expect("watch exists only after a snapshot was activated")
    }

    /// Version of the active snapshot.
    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// Activation epoch; increments on every publish/rollback/activate.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Number of hot swaps since the first activation.
    pub fn swap_count(&self) -> u64 {
        self.epoch().saturating_sub(1)
    }

    /// A watch serving one fixed engine forever (no registry): lets every
    /// consumer take a `ModelWatch` without caring whether a lifecycle
    /// manager sits behind it. Version reports 0, epoch stays 1.
    pub fn fixed(engine: Engine) -> Self {
        let meta = SnapshotMeta {
            version: 0,
            format: serialize::VERSION,
            checksum: 0,
            leaves: 0,
            keyphrases: 0,
            size_bytes: 0,
            created_unix: 0,
            note: "fixed engine (no registry)".into(),
        };
        Self {
            shared: Arc::new(Shared {
                active: RwLock::new(Some(Arc::new(ActiveModel {
                    version: 0,
                    engine,
                    meta,
                    load_mode: LoadMode::Heap,
                }))),
                epoch: AtomicU64::new(1),
            }),
        }
    }
}

/// What the admission warm-up observed before a snapshot went live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmupReport {
    /// Probe inferences executed (per-leaf).
    pub probes: usize,
    /// Probes that produced servable predictions.
    pub servable: usize,
}

/// Versioned snapshot directory + epoch-pointer hot-swap (see module
/// docs).
#[derive(Debug)]
pub struct ModelRegistry {
    root: PathBuf,
    shared: Arc<Shared>,
    /// Preferred snapshot storage backend for activations (mmap with
    /// heap fallback by default).
    load_mode: LoadMode,
    /// Serializes write operations (publish / activate / rollback / gc,
    /// and `open`'s choice of what to activate) across every handle onto
    /// this directory in this process ([`directory_lock`]): concurrent
    /// writers would otherwise race on version allocation, staging
    /// directories, the shared `CURRENT` temp file, and the
    /// CURRENT-file-vs-memory ordering. (Cross-process publishers are
    /// not coordinated; the staging rename fails loudly if two collide.)
    write_lock: Arc<Mutex<()>>,
}

/// The write lock of the registry directory at `root` (which exists):
/// one per directory per process, however many handles are open on it
/// and however its path is spelled. A fleet publishes to a cold tenant
/// through a transient [`ModelRegistry::attach`] while a request may be
/// admitting the same tenant through [`ModelRegistry::open`]; with a
/// lock each, the admission could re-pin `CURRENT` to the version it
/// chose before the publish landed.
fn directory_lock(root: &Path) -> Arc<Mutex<()>> {
    static LOCKS: Mutex<BTreeMap<PathBuf, Weak<Mutex<()>>>> = Mutex::new(BTreeMap::new());
    let key = std::fs::canonicalize(root).unwrap_or_else(|_| root.to_path_buf());
    let mut locks = LOCKS.lock();
    if let Some(lock) = locks.get(&key).and_then(Weak::upgrade) {
        return lock;
    }
    locks.retain(|_, lock| lock.strong_count() > 0);
    let lock = Arc::new(Mutex::new(()));
    locks.insert(key, Arc::downgrade(&lock));
    lock
}

const MODEL_FILE: &str = "model.gexm";
const MANIFEST_FILE: &str = "MANIFEST";
const CURRENT_FILE: &str = "CURRENT";

impl ModelRegistry {
    /// Opens (creating if needed) a snapshot directory and activates the
    /// snapshot named by `CURRENT` — or, if that one is missing or fails
    /// admission, the newest snapshot that does load, so a corrupted
    /// latest snapshot never bricks the registry. An empty directory
    /// opens successfully with no active model — the first
    /// [`ModelRegistry::publish`] activates. The error returned when
    /// *no* snapshot is loadable is the failure of the preferred one.
    pub fn open(root: impl AsRef<Path>) -> RegistryResult<Self> {
        Self::open_with_mode(root, LoadMode::default())
    }

    /// [`ModelRegistry::open`] with an explicit snapshot storage
    /// backend: `LoadMode::Mmap` (the default) borrows activations off
    /// the page cache, `LoadMode::Heap` forces private copies (the
    /// pre-mmap behaviour; also the bench baseline).
    pub fn open_with_mode(root: impl AsRef<Path>, load_mode: LoadMode) -> RegistryResult<Self> {
        let registry = Self {
            load_mode,
            ..Self::attach(root)?
        };
        registry.activate_pinned()?;
        Ok(registry)
    }

    /// Activates what `open` boots: the snapshot `CURRENT` names, then
    /// the others newest first, until one passes admission. The choice is
    /// made under the write lock, so no publish can land between reading
    /// `CURRENT` and writing it back.
    fn activate_pinned(&self) -> RegistryResult<()> {
        let _writer = self.write_lock.lock();
        let versions = self.versions()?;
        if versions.is_empty() {
            return Ok(());
        }
        // Boot order: CURRENT first, then newest-to-oldest.
        let preferred = self.read_current_file().filter(|v| versions.contains(v));
        let mut candidates: Vec<u64> = preferred.into_iter().collect();
        candidates.extend(versions.iter().rev().filter(|v| Some(**v) != preferred));
        let mut first_err = None;
        for version in candidates {
            match self.activate_locked(version) {
                Ok(_) => return Ok(()),
                Err(e) => first_err.get_or_insert(e),
            };
        }
        Err(first_err.expect("at least one candidate was tried"))
    }

    /// Opens the snapshot directory **without activating anything**: no
    /// model load, no warm-up, and `CURRENT` is never touched. This is
    /// the handle for read-only operations (`list`, `manifest`,
    /// `verify`, `gc`) — tooling that inspects a registry another
    /// process serves from must not re-run admission as a side effect.
    pub fn attach(root: impl AsRef<Path>) -> RegistryResult<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            write_lock: directory_lock(&root),
            root,
            shared: Arc::new(Shared {
                active: RwLock::new(None),
                epoch: AtomicU64::new(0),
            }),
            load_mode: LoadMode::default(),
        })
    }

    /// The storage backend this registry requests for activations. The
    /// backend that actually served a given activation is on
    /// [`ActiveModel::load_mode`] (mmap can degrade to heap).
    pub fn load_mode(&self) -> LoadMode {
        self.load_mode
    }

    /// The version an `open()` of this directory would activate first:
    /// `CURRENT` if it names an existing snapshot, else the newest one.
    /// Unlike [`ModelRegistry::current_version`] this needs no activation,
    /// so it works on an [`ModelRegistry::attach`]ed handle.
    pub fn pinned_version(&self) -> Option<u64> {
        let versions = self.versions().unwrap_or_default();
        self.read_current_file()
            .filter(|v| versions.contains(v))
            .or_else(|| versions.last().copied())
    }

    /// The snapshot directory this registry manages.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All snapshot versions on disk, ascending.
    pub fn versions(&self) -> RegistryResult<Vec<u64>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(v) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            {
                if entry.path().join(MODEL_FILE).is_file() {
                    out.push(v);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Manifests of every snapshot, ascending by version.
    pub fn list(&self) -> RegistryResult<Vec<SnapshotMeta>> {
        self.versions()?
            .into_iter()
            .map(|v| self.manifest(v))
            .collect()
    }

    /// The parsed manifest of one version.
    pub fn manifest(&self, version: u64) -> RegistryResult<SnapshotMeta> {
        let path = self.version_dir(version).join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| RegistryError::Manifest(format!("{}: {e}", path.display())))?;
        SnapshotMeta::parse(&text, version)
    }

    /// The currently active model, if any snapshot has been activated.
    pub fn current(&self) -> Option<Arc<ActiveModel>> {
        self.shared.active.read().clone()
    }

    /// Version of the active snapshot.
    pub fn current_version(&self) -> Option<u64> {
        self.current().map(|a| a.version)
    }

    /// Activation epoch (0 before the first activation).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// A consumer handle; requires an active snapshot.
    pub fn watch(&self) -> RegistryResult<ModelWatch> {
        if self.shared.active.read().is_none() {
            return Err(RegistryError::NoSnapshots);
        }
        Ok(ModelWatch {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Publishes a freshly built model: writes `model.gexm` +
    /// `MANIFEST` under the next version, then admits it (load →
    /// validate → warm up → swap). Returns the new snapshot's manifest.
    pub fn publish(&self, model: &GraphExModel, note: &str) -> RegistryResult<SnapshotMeta> {
        self.publish_hashed(&serialize::to_bytes(model), note, &[])
    }

    /// Publishes an already-serialized snapshot file (bytes are stored
    /// verbatim). This is the CLI ingest path.
    pub fn publish_file(&self, path: impl AsRef<Path>, note: &str) -> RegistryResult<SnapshotMeta> {
        let bytes = std::fs::read(path)?;
        self.publish_with_files(&bytes, note, &[])
    }

    /// Publishes serialized snapshot bytes together with sidecar files
    /// (e.g. the build pipeline's `BUILDINFO` manifest), staged and
    /// renamed atomically with the snapshot so a version directory is
    /// always complete. Sidecar names must be plain file names and may
    /// not collide with the registry's own files.
    pub fn publish_with_files(
        &self,
        bytes: &[u8],
        note: &str,
        extras: &[(&str, &[u8])],
    ) -> RegistryResult<SnapshotMeta> {
        // The one pass over bytes nobody has hashed yet.
        let info = serialize::inspect(bytes)?;
        self.publish_inspected(bytes, &info, note, extras)
    }

    /// [`ModelRegistry::publish_with_files`] for a buffer whose hash pass
    /// is already made (the serializer's output): nothing is hashed again
    /// before the write. Admission still reads the version directory back
    /// and checks those bytes in full, so sums that do not belong to the
    /// bytes can only get the publish rejected and withdrawn.
    pub fn publish_hashed(
        &self,
        snapshot: &Hashed,
        note: &str,
        extras: &[(&str, &[u8])],
    ) -> RegistryResult<SnapshotMeta> {
        let info = snapshot.inspect()?;
        self.publish_inspected(snapshot, &info, note, extras)
    }

    /// Stages `bytes` as the next version under a manifest written from
    /// `info`, renames it into place and admits it.
    fn publish_inspected(
        &self,
        bytes: &[u8],
        info: &SnapshotInfo,
        note: &str,
        extras: &[(&str, &[u8])],
    ) -> RegistryResult<SnapshotMeta> {
        for (name, _) in extras {
            let reserved = [MODEL_FILE, MANIFEST_FILE, CURRENT_FILE].contains(name);
            if reserved || name.is_empty() || name.contains(['/', '\\']) {
                return Err(RegistryError::Manifest(format!(
                    "invalid sidecar file name {name:?}"
                )));
            }
        }
        let _writer = self.write_lock.lock();
        let version = self.versions()?.last().copied().unwrap_or(0) + 1;
        let meta = SnapshotMeta {
            version,
            format: info.version,
            checksum: info.file_checksum,
            leaves: info.num_leaves,
            keyphrases: info.num_keyphrases,
            size_bytes: bytes.len() as u64,
            created_unix: unix_now(),
            note: sanitize_note(note),
        };

        // Stage the whole snapshot directory, then publish it with one
        // rename — a crashed publish leaves a `.staging-*` dir, never a
        // half-written version.
        let staging = self.root.join(format!(".staging-{version}"));
        let _ = std::fs::remove_dir_all(&staging);
        std::fs::create_dir_all(&staging)?;
        serialize::write_bytes_to(bytes, staging.join(MODEL_FILE))?;
        std::fs::write(staging.join(MANIFEST_FILE), meta.render())?;
        for (name, content) in extras {
            std::fs::write(staging.join(name), content)?;
        }
        std::fs::rename(&staging, self.version_dir(version))?;

        // Admission failed (checksum of the bytes read back, deep
        // structural parse or warm-up): withdraw the snapshot so a
        // rejected publish never lingers as the newest on-disk version
        // (it would poison later `gc`/`rollback` picks).
        if let Err(e) = self.activate_locked(version) {
            let _ = std::fs::remove_dir_all(self.version_dir(version));
            return Err(e);
        }
        Ok(meta)
    }

    /// Loads, validates, warms up, and atomically swaps in `version`.
    ///
    /// On any failure the previously active model keeps serving. On
    /// success, `CURRENT` is updated so the choice survives restarts, and
    /// every [`ModelWatch`] observes the new model on its next poll while
    /// in-flight holders of the old `Arc` finish undisturbed.
    pub fn activate(&self, version: u64) -> RegistryResult<Arc<ActiveModel>> {
        let _writer = self.write_lock.lock();
        self.activate_locked(version)
    }

    fn activate_locked(&self, version: u64) -> RegistryResult<Arc<ActiveModel>> {
        let dir = self.version_dir(version);
        if !dir.join(MODEL_FILE).is_file() {
            return Err(RegistryError::UnknownVersion(version));
        }
        let meta = self.manifest(version)?;

        // Load + validate, on the bytes that will serve: one hash pass
        // over what was read back from the version directory, its
        // whole-file checksum against the manifest, then trailer, magic,
        // version word and the (zero-copy) structural parse. The
        // mmap-vs-heap choice changes only who owns the pages — both
        // backends hand over one aligned buffer and the pass reads every
        // byte either way, so corruption is caught before the swap
        // regardless of backend. Mapping the file is safe here because
        // version directories are staged-then-renamed and never rewritten
        // in place.
        let model_path = dir.join(MODEL_FILE);
        let (bytes, load_mode) = serialize::read_snapshot(&model_path, self.load_mode)?;
        let model = admit(&serialize::hash(bytes), &meta, &model_path)?;

        // Warm up: probe inferences touch the graph pages and prove the
        // engine answers before any traffic sees the snapshot.
        let engine = Engine::from_model(model);
        self.warm_up(&engine)?;

        // Persist the choice *before* the swap: if the CURRENT write
        // fails, the error honours the "previous model keeps serving"
        // contract; the in-memory flip after this point cannot fail.
        self.write_current_file(version)?;

        // Atomic epoch-pointer swap.
        let active = Arc::new(ActiveModel {
            version,
            engine,
            meta,
            load_mode,
        });
        *self.shared.active.write() = Some(Arc::clone(&active));
        self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(active)
    }

    /// Swaps back to the newest snapshot older than the current one.
    /// Returns `(from, to)` versions.
    pub fn rollback(&self) -> RegistryResult<(u64, u64)> {
        let _writer = self.write_lock.lock();
        let from = self.current_version().ok_or(RegistryError::NoSnapshots)?;
        let to = self
            .versions()?
            .into_iter()
            .rfind(|&v| v < from)
            .ok_or(RegistryError::NothingToRollBack)?;
        self.activate_locked(to)?;
        Ok((from, to))
    }

    /// Deletes old snapshots, keeping the newest `keep_n` plus (always)
    /// the serving one — the in-memory active version *and* whatever
    /// `CURRENT` pins on disk, so an attached (read-only) handle can
    /// never collect the snapshot another process boots from. Returns
    /// the versions removed.
    pub fn gc(&self, keep_n: usize) -> RegistryResult<Vec<u64>> {
        let _writer = self.write_lock.lock();
        let versions = self.versions()?;
        let protected = [self.current_version(), self.pinned_version()];
        let keep_from = versions.len().saturating_sub(keep_n.max(1));
        let mut removed = Vec::new();
        for &v in &versions[..keep_from] {
            if protected.contains(&Some(v)) {
                continue;
            }
            std::fs::remove_dir_all(self.version_dir(v))?;
            removed.push(v);
        }
        Ok(removed)
    }

    /// Re-reads a snapshot from disk and fully validates it (manifest
    /// checksum + structural parse), without touching the active model.
    pub fn verify(&self, version: u64) -> RegistryResult<SnapshotInfo> {
        let dir = self.version_dir(version);
        if !dir.join(MODEL_FILE).is_file() {
            return Err(RegistryError::UnknownVersion(version));
        }
        let meta = self.manifest(version)?;
        let model_path = dir.join(MODEL_FILE);
        let bytes = serialize::read_aligned(&model_path).map_err(|e| e.with_path(&model_path))?;
        let snapshot = serialize::hash(bytes);
        admit(&snapshot, &meta, &model_path)?;
        Ok(snapshot.inspect()?)
    }

    fn warm_up(&self, engine: &Engine) -> RegistryResult<WarmupReport> {
        let model = engine.model();
        // Probe each leaf with one of its *own* curated keyphrases as the
        // title: a healthy leaf graph must answer servably for a phrase it
        // contains, so zero servable probes means a dead snapshot, not an
        // unlucky probe. The sample is the three *smallest* leaf ids —
        // deterministic, so admission never depends on hash-map order.
        let mut probe_leaves: Vec<_> = model.leaf_ids().collect();
        probe_leaves.sort_unstable();
        let mut report = WarmupReport {
            probes: 0,
            servable: 0,
        };
        for leaf in probe_leaves.into_iter().take(3) {
            let graph = model.leaf_graph(leaf).expect("listed leaf has a graph");
            if graph.num_labels() == 0 {
                continue;
            }
            let title = model
                .keyphrase_text(graph.keyphrase_id(0))
                .unwrap_or_default();
            let response = engine.infer(&InferRequest::new(title, leaf).k(5));
            report.probes += 1;
            if response.is_servable() {
                report.servable += 1;
            }
        }
        if report.probes == 0 {
            return Err(RegistryError::Warmup(
                "model has no leaf graphs to probe".into(),
            ));
        }
        if report.servable == 0 {
            return Err(RegistryError::Warmup(format!(
                "0 of {} probe inferences produced servable predictions",
                report.probes
            )));
        }
        Ok(report)
    }

    fn version_dir(&self, version: u64) -> PathBuf {
        self.root.join(version.to_string())
    }

    fn read_current_file(&self) -> Option<u64> {
        std::fs::read_to_string(self.root.join(CURRENT_FILE))
            .ok()?
            .trim()
            .parse()
            .ok()
    }

    fn write_current_file(&self, version: u64) -> RegistryResult<()> {
        // tmp + rename so a crash never leaves a torn CURRENT.
        let tmp = self.root.join(".CURRENT.tmp");
        std::fs::write(&tmp, format!("{version}\n"))?;
        std::fs::rename(&tmp, self.root.join(CURRENT_FILE))?;
        Ok(())
    }
}

/// The checks every snapshot read back from disk goes through, on its
/// one hash pass: whole-file checksum equal to the manifest's, then
/// trailer, magic, version word and the full structural parse.
fn admit(
    snapshot: &Hashed,
    meta: &SnapshotMeta,
    model_path: &Path,
) -> RegistryResult<GraphExModel> {
    let actual = snapshot.checksum();
    if actual != meta.checksum {
        // With the file's own verdict on itself, which names a snapshot
        // (and so a manifest) written before this format's checksum.
        let own = snapshot
            .inspect()
            .err()
            .map(|e| format!(" — {e}"))
            .unwrap_or_default();
        return Err(RegistryError::Manifest(format!(
            "{}: checksum mismatch for version {}: manifest {:016x}, file {actual:016x}{own}",
            model_path.display(),
            meta.version,
            meta.checksum
        )));
    }
    Ok(snapshot.parse().map_err(|e| e.with_path(model_path))?)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Manifest values live on single `key value` lines.
fn sanitize_note(note: &str) -> String {
    note.replace(['\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId};

    fn model(tag: u32) -> GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        GraphExBuilder::new(config)
            .add_records((0..6u32).map(|i| {
                KeyphraseRecord::new(
                    format!("brand{tag} widget model{i}"),
                    LeafId(i % 2),
                    100 + i,
                    10,
                )
            }))
            .build()
            .unwrap()
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphex-registry-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_activates_and_lists() {
        let root = tempdir("publish");
        let registry = ModelRegistry::open(&root).unwrap();
        assert!(registry.current().is_none());
        assert!(matches!(registry.watch(), Err(RegistryError::NoSnapshots)));

        let meta = registry.publish(&model(1), "daily batch #1").unwrap();
        assert_eq!(meta.version, 1);
        assert_eq!(meta.format, 3);
        assert_eq!(registry.current_version(), Some(1));
        assert_eq!(registry.epoch(), 1);

        let meta2 = registry.publish(&model(2), "daily batch #2").unwrap();
        assert_eq!(meta2.version, 2);
        assert_eq!(registry.current_version(), Some(2));
        assert_eq!(registry.epoch(), 2);

        let listed = registry.list().unwrap();
        assert_eq!(listed.iter().map(|m| m.version).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(listed[0].note, "daily batch #1");
        assert!(listed.iter().all(|m| m.leaves == 2 && m.keyphrases == 6));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn watch_observes_swap_and_old_arc_survives() {
        let root = tempdir("watch");
        let registry = ModelRegistry::open(&root).unwrap();
        registry.publish(&model(1), "").unwrap();
        let watch = registry.watch().unwrap();
        let before = watch.current();
        assert_eq!(before.version, 1);
        assert_eq!(watch.swap_count(), 0);

        registry.publish(&model(2), "").unwrap();
        let after = watch.current();
        assert_eq!(after.version, 2);
        assert_eq!(watch.swap_count(), 1);
        // The pre-swap Arc still answers: in-flight requests finish on
        // the old model.
        let resp = before.engine.infer(
            &InferRequest::new("brand1 widget model0", LeafId(0))
                .k(3)
                .resolve_texts(true),
        );
        assert!(resp.is_servable());
        assert!(resp.texts.iter().any(|t| t.contains("brand1")));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn rollback_restores_previous_and_persists() {
        let root = tempdir("rollback");
        let registry = ModelRegistry::open(&root).unwrap();
        registry.publish(&model(1), "").unwrap();
        registry.publish(&model(2), "").unwrap();
        assert_eq!(registry.rollback().unwrap(), (2, 1));
        assert_eq!(registry.current_version(), Some(1));
        assert!(matches!(
            registry.rollback(),
            Err(RegistryError::NothingToRollBack)
        ));

        // A fresh open honours CURRENT (the rollback), not max-version.
        drop(registry);
        let reopened = ModelRegistry::open(&root).unwrap();
        assert_eq!(reopened.current_version(), Some(1));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_keeps_newest_and_current() {
        let root = tempdir("gc");
        let registry = ModelRegistry::open(&root).unwrap();
        for i in 1..=4 {
            registry.publish(&model(i), "").unwrap();
        }
        // Roll back to 3 so current != newest.
        registry.rollback().unwrap();
        let removed = registry.gc(1);
        assert_eq!(removed.unwrap(), [1, 2]);
        assert_eq!(registry.versions().unwrap(), [3, 4]);
        // The active version survived even though keep_n=1 would drop it.
        assert_eq!(registry.current_version(), Some(3));
        std::fs::remove_dir_all(&root).ok();
    }

    /// Regression: `gc` must never delete the currently-active or
    /// pinned snapshot, even under the most aggressive `keep_n` and
    /// even when active, pinned, and newest are three different
    /// versions. (A gc that collects the serving snapshot turns the
    /// next restart — or the next tenant re-admission — into an
    /// outage.)
    #[test]
    fn gc_never_deletes_active_or_pinned_version() {
        let root = tempdir("gc-guard");
        let registry = ModelRegistry::open(&root).unwrap();
        for i in 1..=5 {
            registry.publish(&model(i), "").unwrap();
        }
        // Active = 2 (in memory), CURRENT pin rewritten to 3 behind the
        // registry's back (as a concurrent process would), newest = 5.
        registry.activate(2).unwrap();
        std::fs::write(root.join("CURRENT"), "3\n").unwrap();
        assert_eq!(registry.current_version(), Some(2));
        assert_eq!(registry.pinned_version(), Some(3));

        // keep_n = 0 is the hostile case: clamped to 1, and both the
        // active and pinned versions survive regardless.
        let removed = registry.gc(0).unwrap();
        assert_eq!(removed, [1, 4]);
        assert_eq!(registry.versions().unwrap(), [2, 3, 5]);
        // The active snapshot still serves and a reopen still boots.
        assert!(registry.current().unwrap().engine.model().num_keyphrases() > 0);
        drop(registry);
        assert_eq!(
            ModelRegistry::open(&root).unwrap().current_version(),
            Some(3)
        );
        std::fs::remove_dir_all(&root).ok();
    }

    /// Activations default to the mmap backend and stay zero-copy; a
    /// heap-mode registry serves identical answers.
    #[test]
    fn activation_is_mmap_backed_and_heap_equivalent() {
        let root = tempdir("mmap-mode");
        let registry = ModelRegistry::open(&root).unwrap();
        assert_eq!(registry.load_mode(), LoadMode::Mmap);
        registry.publish(&model(1), "").unwrap();
        let active = registry.current().unwrap();
        assert_eq!(active.load_mode, LoadMode::Mmap);
        let m = active.engine.model();
        assert!(m
            .leaf_ids()
            .all(|l| m.leaf_graph(l).unwrap().is_zero_copy()));

        let heap = ModelRegistry::open_with_mode(&root, LoadMode::Heap).unwrap();
        let heap_active = heap.current().unwrap();
        assert_eq!(heap_active.load_mode, LoadMode::Heap);
        let req = InferRequest::new("brand1 widget model0", LeafId(0))
            .k(5)
            .resolve_texts(true);
        let a = active.engine.infer(&req);
        let b = heap_active.engine.infer(&req);
        assert_eq!(a.texts, b.texts);
        assert_eq!(a.predictions, b.predictions);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Load failures name the offending snapshot file (the fleet serves
    /// many tenants; "checksum mismatch" alone is undebuggable).
    #[test]
    fn load_errors_carry_the_snapshot_path() {
        let root = tempdir("errpath");
        let registry = ModelRegistry::open(&root).unwrap();
        registry.publish(&model(1), "").unwrap();

        // Corrupt the bytes *and* refresh the manifest checksum so the
        // failure comes from the structural parse, not the manifest.
        let path = root.join("1").join(MODEL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let n = bytes.len();
        let sum = graphex_core::serialize::checksum(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let manifest = registry.manifest(1).unwrap();
        let mut fixed = manifest.clone();
        fixed.checksum = graphex_core::serialize::checksum(&bytes);
        std::fs::write(root.join("1").join(MANIFEST_FILE), fixed.render()).unwrap();

        let err = registry.activate(1).unwrap_err();
        assert!(
            matches!(err, RegistryError::Model(GraphExError::Corrupt(_))),
            "{err}"
        );
        assert!(
            err.to_string().contains("model.gexm"),
            "path missing from: {err}"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_snapshot_is_rejected_and_old_model_keeps_serving() {
        let root = tempdir("corrupt");
        let registry = ModelRegistry::open(&root).unwrap();
        registry.publish(&model(1), "").unwrap();

        // Corrupt version 2's bytes on disk after manifest creation: flip
        // a byte. Manifest checksum catches it.
        let meta = registry.publish(&model(2), "").unwrap();
        let path = root.join("2").join(MODEL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(meta.version, 2);

        assert!(matches!(
            registry.activate(2),
            Err(RegistryError::Manifest(_))
        ));
        // Still serving the model that was active before the bad activate.
        assert_eq!(registry.current_version(), Some(2));
        let verify = registry.verify(2);
        assert!(matches!(verify, Err(RegistryError::Manifest(_))));
        assert!(registry.verify(1).is_ok());

        // A reopened registry falls back past the corrupt CURRENT to the
        // newest snapshot that still loads — a bad latest snapshot never
        // bricks the registry.
        drop(registry);
        let reopened = ModelRegistry::open(&root).unwrap();
        assert_eq!(reopened.current_version(), Some(1));
        std::fs::remove_dir_all(&root).ok();
    }

    /// A publish that passes the cheap pre-stage inspection but fails
    /// deep admission must be withdrawn from disk: a rejected snapshot
    /// may never linger as the newest version (it would poison later
    /// `gc`/`rollback`/boot picks).
    #[test]
    fn rejected_publish_is_withdrawn_from_disk() {
        let root = tempdir("withdraw");
        let registry = ModelRegistry::open(&root).unwrap();
        registry.publish(&model(1), "good").unwrap();

        // Craft checksum-valid but structurally broken bytes: smash a
        // directory entry's kind, then rewrite the trailer so only
        // the deep parse (inside activate) can catch it.
        let mut bytes = graphex_core::serialize::to_bytes(&model(2)).to_vec();
        let dir_offset = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        bytes[dir_offset..dir_offset + 4].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let sum = graphex_core::serialize::checksum(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let bad = root.join("bad.gexm");
        std::fs::write(&bad, &bytes).unwrap();

        assert!(matches!(
            registry.publish_file(&bad, ""),
            Err(RegistryError::Model(_))
        ));
        // Version 2 was withdrawn; version 1 still serves and is still
        // the newest on-disk snapshot, so gc/rollback stay sane.
        assert_eq!(registry.versions().unwrap(), [1]);
        assert_eq!(registry.current_version(), Some(1));

        // Sound bytes published under sums that are not theirs: nothing
        // re-hashes them before the write, so the wrong checksum reaches
        // the manifest — and admission, hashing what it reads back,
        // rejects and withdraws the publish just the same.
        let sound = serialize::to_bytes(&model(2));
        let mut info = sound.inspect().unwrap();
        info.file_checksum ^= 1;
        let err = registry
            .publish_inspected(&sound, &info, "wrong sums", &[])
            .unwrap_err();
        assert!(matches!(err, RegistryError::Manifest(_)), "{err}");
        assert_eq!(registry.versions().unwrap(), [1]);
        assert_eq!(registry.current_version(), Some(1));
        assert_eq!(
            std::fs::read_to_string(root.join(CURRENT_FILE))
                .unwrap()
                .trim(),
            "1"
        );
        let resp = registry
            .current()
            .unwrap()
            .engine
            .infer(&InferRequest::new("brand1 widget model0", LeafId(0)).k(3));
        assert!(resp.is_servable(), "the old model still serves");

        // The next good publish reuses the freed version number.
        let meta = registry.publish(&model(3), "good again").unwrap();
        assert_eq!(meta.version, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Read-only attach: no activation, `CURRENT` untouched, but gc
    /// still refuses to collect the pinned snapshot.
    #[test]
    fn attach_is_read_only_and_gc_protects_pinned() {
        let root = tempdir("attach");
        let registry = ModelRegistry::open(&root).unwrap();
        for i in 1..=3 {
            registry.publish(&model(i), "").unwrap();
        }
        registry.rollback().unwrap(); // CURRENT = 2
        drop(registry);

        let ro = ModelRegistry::attach(&root).unwrap();
        assert!(ro.current().is_none(), "attach must not activate");
        assert_eq!(ro.pinned_version(), Some(2));
        assert_eq!(ro.list().unwrap().len(), 3);
        // keep_n=1 would keep only v3, but the pinned v2 is protected.
        assert_eq!(ro.gc(1).unwrap(), [1]);
        assert_eq!(ro.versions().unwrap(), [2, 3]);
        assert_eq!(
            std::fs::read_to_string(root.join("CURRENT"))
                .unwrap()
                .trim(),
            "2",
            "attach/gc must not rewrite CURRENT"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn publish_with_files_stages_sidecars_with_the_snapshot() {
        let root = tempdir("sidecar");
        let registry = ModelRegistry::open(&root).unwrap();
        let bytes = graphex_core::serialize::to_bytes(&model(1));
        let meta = registry
            .publish_with_files(
                &bytes,
                "pipeline build",
                &[("BUILDINFO", b"fingerprints\n")],
            )
            .unwrap();
        assert_eq!(meta.version, 1);
        assert_eq!(
            std::fs::read(root.join("1").join("BUILDINFO")).unwrap(),
            b"fingerprints\n"
        );
        // Reserved / path-escaping sidecar names are rejected before
        // anything lands on disk.
        for bad in ["model.gexm", "MANIFEST", "CURRENT", "", "a/b"] {
            let res = registry.publish_with_files(&bytes, "", &[(bad, b"x" as &[u8])]);
            assert!(
                matches!(res, Err(RegistryError::Manifest(_))),
                "{bad:?} accepted"
            );
        }
        assert_eq!(registry.versions().unwrap(), [1]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn publish_file_admits_a_snapshot_and_refuses_other_versions() {
        let root = tempdir("pubfile");
        let registry = ModelRegistry::open(&root).unwrap();
        let path = root.join("incoming.gexm");
        let mut bytes = serialize::to_bytes(&model(7)).to_vec();
        std::fs::write(&path, &bytes).unwrap();
        let meta = registry.publish_file(&path, "from a file").unwrap();
        assert_eq!(meta.format, 3);
        assert_eq!(registry.current_version(), Some(1));
        let active = registry.current().unwrap();
        let resp = active
            .engine
            .infer(&InferRequest::new("brand7 widget model3", LeafId(1)).k(3));
        assert!(resp.is_servable());

        // An intact file of another format version is a rejected
        // admission: nothing lands in the registry, CURRENT stays put.
        let n = bytes.len();
        bytes[4] = 1;
        let sum = serialize::checksum(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = registry.publish_file(&path, "version word 1").unwrap_err();
        assert!(
            matches!(
                err,
                RegistryError::Model(GraphExError::UnsupportedVersion(1))
            ),
            "{err}"
        );
        assert_eq!(registry.current_version(), Some(1));
        assert_eq!(registry.versions().unwrap(), [1]);
        assert_eq!(
            std::fs::read_to_string(root.join(CURRENT_FILE))
                .unwrap()
                .trim(),
            "1"
        );

        // A snapshot an older build wrote — version word 2 under a
        // trailer (FNV-1a) that this build's checksum does not match —
        // fails the trailer check like any damaged file, but is named:
        // as an incoming file, and where it sits in a version directory
        // under a manifest of its day.
        const NAMED: &str = "a GEXM v2 snapshot predates the v3 checksum — rebuild it";
        bytes[4] = 2;
        std::fs::write(&path, &bytes).unwrap();
        let err = registry.publish_file(&path, "version word 2").unwrap_err();
        assert!(
            matches!(err, RegistryError::Model(GraphExError::Corrupt(_))),
            "{err}"
        );
        assert!(err.to_string().contains(NAMED), "{err}");
        assert_eq!(registry.versions().unwrap(), [1]);

        registry.publish(&model(8), "to be overwritten").unwrap();
        registry.activate(1).unwrap();
        std::fs::write(root.join("2").join(MODEL_FILE), &bytes).unwrap();
        for err in [
            registry.activate(2).map(drop).unwrap_err(),
            registry.verify(2).map(drop).unwrap_err(),
        ] {
            assert!(matches!(err, RegistryError::Manifest(_)), "{err}");
            assert!(err.to_string().contains(NAMED), "{err}");
        }
        assert_eq!(registry.current_version(), Some(1));
        std::fs::remove_dir_all(&root).ok();
    }

    /// Every handle onto one directory shares one write lock, whatever
    /// the path's spelling — and a transient `attach` that publishes
    /// while an `open` admits the same directory (a fleet publishing to a
    /// cold tenant a request is admitting) never collide: every publish
    /// succeeds and `CURRENT` ends at the newest version, whichever of
    /// the two took the lock first.
    #[test]
    fn attach_publish_and_open_on_one_directory_share_its_write_lock() {
        let root = tempdir("shared-lock");
        let first = ModelRegistry::open(&root).unwrap();
        first.publish(&model(0), "v1").unwrap();
        let shares = |handle: ModelRegistry| Arc::ptr_eq(&handle.write_lock, &first.write_lock);
        assert!(shares(ModelRegistry::attach(&root).unwrap()));
        assert!(shares(ModelRegistry::open(root.join(".")).unwrap()));
        let other = tempdir("shared-lock-other");
        assert!(!shares(ModelRegistry::attach(&other).unwrap()));
        drop(first);

        let bytes = serialize::to_bytes(&model(1));
        for round in 0..100 {
            let start = std::sync::Barrier::new(2);
            let (published, opened) = std::thread::scope(|s| {
                let publisher = s.spawn(|| {
                    start.wait();
                    ModelRegistry::attach(&root)?.publish_hashed(&bytes, "", &[])
                });
                let opener = s.spawn(|| {
                    start.wait();
                    ModelRegistry::open(&root).map(|registry| registry.current_version())
                });
                (publisher.join().unwrap(), opener.join().unwrap())
            });
            let meta = published.unwrap_or_else(|e| panic!("round {round}: publish failed: {e}"));
            assert!(opened
                .unwrap_or_else(|e| panic!("round {round}: open failed: {e}"))
                .is_some());
            let current = std::fs::read_to_string(root.join(CURRENT_FILE)).unwrap();
            assert_eq!(
                current.trim(),
                meta.version.to_string(),
                "round {round}: CURRENT re-pinned"
            );
            let newest = ModelRegistry::attach(&root)
                .unwrap()
                .versions()
                .unwrap()
                .pop();
            assert_eq!(newest, Some(meta.version), "round {round}");
        }
        std::fs::remove_dir_all(&root).ok();
        std::fs::remove_dir_all(&other).ok();
    }

    #[test]
    fn fixed_watch_reports_version_zero() {
        let watch = ModelWatch::fixed(Engine::from_model(model(1)));
        assert_eq!(watch.version(), 0);
        assert_eq!(watch.swap_count(), 0);
        let resp = watch
            .current()
            .engine
            .infer(&InferRequest::new("brand1 widget model0", LeafId(0)).k(1));
        assert!(resp.is_servable());
    }
}
