//! The build orchestrator: ingest → shard → assemble → merge → snapshot.
//!
//! ```text
//!  sources ──► ingest thread ──► per-shard bounded queues (backpressure)
//!                                      │ leaf.0 % jobs
//!                                      ▼
//!                     shard workers: Curator → canonicalize →
//!                     per-leaf fingerprint → LeafAssembly
//!                     (built fresh, or borrowed from the delta base
//!                      when the fingerprint is unchanged)
//!                                      │
//!                                      ▼
//!            merge (ascending leaf order), then the meta-fallback
//!            derived from the merged leaves
//!                                      │
//!                                      ▼
//!             GEXM v3 bytes + BUILDINFO manifest + BuildReport
//! ```
//!
//! Determinism contract (pinned by `tests/determinism.rs` and the CI
//! delta-equivalence gate): for the same record multiset and config, the
//! produced snapshot is **byte-identical** across (a) worker counts,
//! (b) record arrival order, (c) full vs. delta builds. Everything that
//! could depend on scheduling is funneled through the canonical order —
//! shards own disjoint leaf sets, per-leaf assembly is a pure function of
//! the leaf's curated records, and the merge walks leaves in ascending
//! id order on one thread, as does the fold that derives the meta-fallback
//! from them — the same `ModelAssembler` method the sequential builder
//! calls, for full and delta builds alike.

use crate::manifest::{buildinfo_path_for, BuildManifest, BUILDINFO_FILE};
use crate::queue::Bounded;
use crate::source::{RecordSource, SourceStats};
use graphex_core::assembly::{
    canonicalize, config_fingerprint, leaf_fingerprint, leaf_runs, AssemblyContext, LeafAssembly,
    ModelAssembler,
};
use graphex_core::curation::Curator;
use graphex_core::serialize::{self, Hashed};
use graphex_core::{
    CurationStats, GraphExConfig, GraphExError, GraphExModel, KeyphraseRecord, LeafId,
};
use graphex_serving::{ModelRegistry, RegistryError, SnapshotMeta};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Errors surfaced by the build pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Source I/O failure (not a parse error — those are accounted, not
    /// fatal, unless [`BuildPlan::strict`]).
    Source(String),
    /// [`BuildPlan::strict`] build hit parse errors.
    Strict(String),
    /// Model construction failed (e.g. nothing survived curation).
    Model(GraphExError),
    /// Delta base snapshot / manifest problems.
    Delta(String),
    /// Registry publish failures.
    Registry(RegistryError),
    /// Per-shard emission problems (e.g. a shard that owns no leaves).
    Shard(String),
    Io(std::io::Error),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Source(e) => write!(f, "source error: {e}"),
            Self::Strict(e) => write!(f, "strict build: {e}"),
            Self::Model(e) => write!(f, "build failed: {e}"),
            Self::Delta(e) => write!(f, "delta base: {e}"),
            Self::Registry(e) => write!(f, "publish failed: {e}"),
            Self::Shard(e) => write!(f, "shard emission: {e}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<GraphExError> for PipelineError {
    fn from(e: GraphExError) -> Self {
        Self::Model(e)
    }
}

impl From<RegistryError> for PipelineError {
    fn from(e: RegistryError) -> Self {
        Self::Registry(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Convenience alias.
pub type PipelineResult<T> = std::result::Result<T, PipelineError>;

/// A previous snapshot + its build manifest: what incremental builds
/// borrow unchanged leaves from.
#[derive(Debug)]
pub struct DeltaBase {
    model: GraphExModel,
    manifest: BuildManifest,
    /// Where the base was loaded from (for reports).
    pub source: String,
}

impl DeltaBase {
    /// Loads a delta base from:
    /// * a snapshot **file** (`model.gexm`) with its `BUILDINFO` either
    ///   beside it in the same directory or as `<file>.buildinfo`;
    /// * a snapshot **directory** (a registry version dir) holding
    ///   `model.gexm` + `BUILDINFO`;
    /// * a **registry root**, resolving the pinned (`CURRENT`) version.
    ///
    /// The manifest's recorded snapshot checksum must match the loaded
    /// bytes — a stale or mixed-up `BUILDINFO` must never silence a leaf
    /// rebuild.
    pub fn load(path: impl AsRef<Path>) -> PipelineResult<Self> {
        let path = path.as_ref();
        let snapshot = Self::resolve_snapshot_path(path)?;
        let buildinfo = buildinfo_path_for(&snapshot);
        let manifest = BuildManifest::load(&buildinfo).map_err(PipelineError::Delta)?;
        let bytes = serialize::read_aligned(&snapshot).map_err(PipelineError::Model)?;
        // One pass: the sum compared here is the one the parse below
        // judges trailer, magic and version by.
        let hashed = serialize::hash(bytes);
        let checksum = hashed.checksum();
        if checksum != manifest.snapshot_checksum {
            // With the file's own verdict on itself, which names a base
            // (and so a BUILDINFO) written before this format's checksum.
            let own = hashed
                .inspect()
                .err()
                .map(|e| format!(" ({e})"))
                .unwrap_or_default();
            return Err(PipelineError::Delta(format!(
                "{} records checksum {:016x} but {} hashes to {checksum:016x} — stale BUILDINFO?{own}",
                buildinfo.display(),
                manifest.snapshot_checksum,
                snapshot.display(),
            )));
        }
        let model = hashed.parse().map_err(PipelineError::Model)?;
        Ok(Self {
            model,
            manifest,
            source: snapshot.display().to_string(),
        })
    }

    fn resolve_snapshot_path(path: &Path) -> PipelineResult<PathBuf> {
        if path.is_file() {
            return Ok(path.to_path_buf());
        }
        if path.join("model.gexm").is_file() {
            return Ok(path.join("model.gexm"));
        }
        // A registry root: resolve the pinned version without activating.
        let registry = ModelRegistry::attach(path)?;
        let version = registry.pinned_version().ok_or_else(|| {
            PipelineError::Delta(format!(
                "{}: no snapshot to base a delta on",
                path.display()
            ))
        })?;
        Ok(registry.root().join(version.to_string()).join("model.gexm"))
    }

    /// The base snapshot's whole-file checksum.
    pub fn checksum(&self) -> u64 {
        self.manifest.snapshot_checksum
    }
}

/// Everything a build run needs beyond its sources.
#[derive(Debug)]
pub struct BuildPlan {
    pub config: GraphExConfig,
    /// Shard workers (`0` = all available cores).
    pub jobs: usize,
    /// Records per ingest batch / queue item.
    pub batch: usize,
    /// Bounded queue depth per shard, in batches (backpressure bound).
    pub queue_depth: usize,
    /// Fail the build on any parse error instead of count-and-skip.
    pub strict: bool,
    /// Previous snapshot to borrow unchanged leaves from.
    pub delta: Option<DeltaBase>,
}

impl BuildPlan {
    pub fn new(config: GraphExConfig) -> Self {
        Self {
            config,
            jobs: 0,
            batch: 4096,
            queue_depth: 4,
            strict: false,
            delta: None,
        }
    }

    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    pub fn delta(mut self, base: DeltaBase) -> Self {
        self.delta = Some(base);
        self
    }
}

/// What a build run did (the `graphex build` output payload).
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Raw records ingested across all sources.
    pub records_in: u64,
    /// Unparsable rows skipped across all sources.
    pub parse_errors: u64,
    /// Per-source accounting.
    pub sources: Vec<SourceStats>,
    /// What curation kept and dropped.
    pub curation: CurationStats,
    /// Leaves in the built model.
    pub leaves_total: usize,
    /// Leaves constructed from records this run.
    pub leaves_built: usize,
    /// Leaves borrowed unchanged from the delta base.
    pub leaves_reused: usize,
    /// Checksum of the delta base snapshot, if one was used.
    pub delta_base: Option<u64>,
    /// Why a provided delta base was ignored, if it was.
    pub delta_discarded: Option<String>,
    /// Shard workers used.
    pub jobs: usize,
    /// Distinct keyphrases / tokens in the model.
    pub keyphrases: usize,
    pub tokens: usize,
    /// Serialized snapshot size and whole-file checksum: the value
    /// `graphex model inspect` cross-checks against `BUILDINFO`.
    pub snapshot_bytes: usize,
    pub snapshot_checksum: u64,
    /// Registry version if the build was published.
    pub published_version: Option<u64>,
    /// Wall time of the build (ingest through serialize).
    pub wall_ms: u64,
    /// Where that time went. Not part of `BUILDINFO`, which stays a
    /// function of the inputs.
    pub stages: StageTimes,
}

/// Wall milliseconds of a build's four stages, back to back, and how
/// the slowest shard worker split its part of the first.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Ingest ∥ shard workers: curate → canonicalize → per-leaf assemble.
    pub shards_ms: f64,
    /// The slowest shard worker's first half: draining its queue while
    /// curating (so it includes waiting on ingest), then canonicalizing
    /// and fingerprinting every leaf.
    pub curate_ms: f64,
    /// The same worker's second half: assembling (or borrowing) its
    /// leaves.
    pub assemble_ms: f64,
    /// Merge of the leaf assemblies into the global vocabularies.
    pub merge_ms: f64,
    /// Meta-fallback derived from the merged leaves (0 when off).
    pub fallback_ms: f64,
    /// `serialize::to_bytes`, checksum included.
    pub serialize_ms: f64,
}

/// A finished build: serialized snapshot + manifest + report.
#[derive(Debug)]
pub struct BuildOutput {
    /// `GEXM` snapshot bytes, with the checksum writing them yielded.
    pub bytes: Hashed,
    /// The parsed model (already in memory — callers may serve it
    /// directly or drop it).
    pub model: GraphExModel,
    pub manifest: BuildManifest,
    pub report: BuildReport,
}

impl BuildOutput {
    /// Writes `model.gexm` + its `.buildinfo` sibling. Returns the
    /// buildinfo path.
    pub fn write_to(&self, snapshot: impl AsRef<Path>) -> PipelineResult<PathBuf> {
        let snapshot = snapshot.as_ref();
        serialize::write_bytes_to(&self.bytes, snapshot).map_err(PipelineError::Model)?;
        let mut name = snapshot.file_name().unwrap_or_default().to_os_string();
        name.push(".buildinfo");
        let info_path = snapshot.with_file_name(name);
        std::fs::write(&info_path, self.manifest.render())?;
        Ok(info_path)
    }

    /// Publishes the snapshot (+ `BUILDINFO` sidecar) into a registry:
    /// admission (load → validate → warm-up) and the `CURRENT` flip
    /// happen inside [`ModelRegistry::publish_hashed`], which does not
    /// hash the bytes again before writing them. Updates the report's
    /// `published_version`.
    pub fn publish(
        &mut self,
        registry: &ModelRegistry,
        note: &str,
    ) -> PipelineResult<SnapshotMeta> {
        let manifest_text = self.manifest.render();
        let meta = registry.publish_hashed(
            &self.bytes,
            note,
            &[(BUILDINFO_FILE, manifest_text.as_bytes())],
        )?;
        self.report.published_version = Some(meta.version);
        Ok(meta)
    }
}

/// What one shard worker hands back per leaf.
struct LeafYield {
    leaf: LeafId,
    fingerprint: u64,
    assembly: LeafAssembly,
    reused: bool,
}

struct ShardYield {
    leaves: Vec<LeafYield>,
    curation: CurationStats,
    /// This worker's [`StageTimes::curate_ms`] and
    /// [`StageTimes::assemble_ms`].
    curate_ms: f64,
    assemble_ms: f64,
}

/// Runs a build plan over `sources`.
pub fn build(plan: &BuildPlan, sources: Vec<Box<dyn RecordSource>>) -> PipelineResult<BuildOutput> {
    let start = Instant::now();
    let jobs = if plan.jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        plan.jobs
    };

    // A delta base is only usable if it was built with this exact config.
    let config_fp = config_fingerprint(&plan.config);
    let mut delta_discarded = None;
    let delta = match &plan.delta {
        Some(base) if base.manifest.config_fingerprint != config_fp => {
            delta_discarded = Some(format!(
                "config fingerprint mismatch (base {:016x}, build {config_fp:016x}): full rebuild",
                base.manifest.config_fingerprint
            ));
            None
        }
        other => other.as_ref(),
    };

    let queues: Vec<Arc<Bounded<Vec<KeyphraseRecord>>>> = (0..jobs)
        .map(|_| Arc::new(Bounded::new(plan.queue_depth.max(1))))
        .collect();
    let (yield_tx, yield_rx) = crossbeam::channel::unbounded::<ShardYield>();

    let (source_stats, ingest_result) = crossbeam::thread::scope(|scope| {
        for queue in &queues {
            let queue = Arc::clone(queue);
            let config = &plan.config;
            let tx = yield_tx.clone();
            scope.spawn(move |_| {
                let shard_yield = run_shard(&queue, config, delta);
                // The receiver only disappears if the build is aborting.
                let _ = tx.send(shard_yield);
            });
        }
        drop(yield_tx);

        // Ingest on this thread; close every queue on *all* exits so the
        // workers always drain and join.
        let mut stats: Vec<SourceStats> = Vec::with_capacity(sources.len());
        let result = ingest(plan, sources, &queues, jobs, &mut stats);
        for queue in &queues {
            queue.close();
        }
        (stats, result)
    })
    .expect("shard worker panicked");
    ingest_result?;

    let mut shard_yields: Vec<ShardYield> = yield_rx.into_iter().collect();
    let shards_done = Instant::now();

    // Deterministic merge: all leaves, ascending.
    let mut leaves: Vec<LeafYield> = shard_yields
        .iter_mut()
        .flat_map(|s| s.leaves.drain(..))
        .collect();
    leaves.sort_unstable_by_key(|y| y.leaf);
    let mut curation = CurationStats::default();
    for shard in &shard_yields {
        curation.absorb(&shard.curation);
    }
    let slowest = shard_yields
        .iter()
        .max_by(|a, b| (a.curate_ms + a.assemble_ms).total_cmp(&(b.curate_ms + b.assemble_ms)));
    // A yield exists only for a leaf with ≥1 curated record, so no
    // yields ⇔ nothing survived curation.
    if leaves.is_empty() {
        return Err(PipelineError::Model(GraphExError::EmptyModel));
    }

    let fingerprints: BTreeMap<u32, u64> =
        leaves.iter().map(|y| (y.leaf.0, y.fingerprint)).collect();
    let leaves_reused = leaves.iter().filter(|y| y.reused).count();
    let leaves_total = leaves.len();
    let mut assembler = ModelAssembler::merge(
        &plan.config,
        leaves.into_iter().map(|y| (y.leaf, y.assembly)),
    );
    let merge_done = Instant::now();
    if plan.config.build_meta_fallback {
        assembler.derive_fallback();
    }
    let model = assembler.finish();
    let fallback_done = Instant::now();

    let bytes = serialize::to_bytes(&model);
    let snapshot_checksum = bytes.checksum();
    let serialize_done = Instant::now();
    let stages = StageTimes {
        shards_ms: millis(start, shards_done),
        curate_ms: slowest.map_or(0.0, |s| s.curate_ms),
        assemble_ms: slowest.map_or(0.0, |s| s.assemble_ms),
        merge_ms: millis(shards_done, merge_done),
        fallback_ms: millis(merge_done, fallback_done),
        serialize_ms: millis(fallback_done, serialize_done),
    };

    let records_in: u64 = source_stats
        .iter()
        .map(|s| s.records + s.parse_errors)
        .sum();
    let parse_errors: u64 = source_stats.iter().map(|s| s.parse_errors).sum();
    let manifest = BuildManifest {
        config_fingerprint: config_fp,
        snapshot_checksum,
        records_in,
        parse_errors,
        curation,
        shard: None,
        leaves: fingerprints,
    };
    let report = BuildReport {
        records_in,
        parse_errors,
        sources: source_stats,
        curation,
        leaves_total,
        leaves_built: leaves_total - leaves_reused,
        leaves_reused,
        delta_base: delta.map(DeltaBase::checksum),
        delta_discarded,
        jobs,
        keyphrases: model.num_keyphrases(),
        tokens: model.stats().num_tokens,
        snapshot_bytes: bytes.len(),
        snapshot_checksum,
        published_version: None,
        wall_ms: (serialize_done - start).as_millis() as u64,
        stages,
    };
    Ok(BuildOutput {
        bytes,
        model,
        manifest,
        report,
    })
}

/// Reads every source to exhaustion, routing records to their shard
/// queue (`leaf.0 % jobs`) in batches.
fn ingest(
    plan: &BuildPlan,
    sources: Vec<Box<dyn RecordSource>>,
    queues: &[Arc<Bounded<Vec<KeyphraseRecord>>>],
    jobs: usize,
    stats_out: &mut Vec<SourceStats>,
) -> PipelineResult<()> {
    let mut staging: Vec<Vec<KeyphraseRecord>> = (0..jobs).map(|_| Vec::new()).collect();
    let mut batch: Vec<KeyphraseRecord> = Vec::with_capacity(plan.batch);
    for mut source in sources {
        loop {
            source
                .next_batch(plan.batch, &mut batch)
                .map_err(PipelineError::Source)?;
            if batch.is_empty() {
                break;
            }
            for rec in batch.drain(..) {
                let shard = rec.leaf.0 as usize % jobs;
                staging[shard].push(rec);
                if staging[shard].len() >= plan.batch {
                    push_batch(&queues[shard], &mut staging[shard], plan.batch);
                }
            }
        }
        let stats = source.stats().clone();
        if plan.strict && stats.parse_errors > 0 {
            return Err(PipelineError::Strict(format!(
                "{}: {} unparsable record(s), first: {}",
                stats.name,
                stats.parse_errors,
                stats
                    .error_sample
                    .first()
                    .map(String::as_str)
                    .unwrap_or("<unavailable>"),
            )));
        }
        stats_out.push(stats);
    }
    for (shard, pending) in staging.iter_mut().enumerate() {
        if !pending.is_empty() {
            push_batch(&queues[shard], pending, 0);
        }
    }
    Ok(())
}

fn push_batch(
    queue: &Bounded<Vec<KeyphraseRecord>>,
    staged: &mut Vec<KeyphraseRecord>,
    cap: usize,
) {
    let batch = std::mem::replace(staged, Vec::with_capacity(cap));
    // A closed queue here means a worker vanished — only possible if it
    // panicked, which the surrounding scope turns into a build panic.
    let _ = queue.push(batch);
}

/// One shard worker: curate the shard's records, then assemble (or
/// borrow) each owned leaf.
fn run_shard(
    queue: &Bounded<Vec<KeyphraseRecord>>,
    config: &GraphExConfig,
    delta: Option<&DeltaBase>,
) -> ShardYield {
    let started = Instant::now();
    let mut curator = Curator::new(config.curation.clone());
    while let Some(batch) = queue.pop() {
        for rec in batch {
            curator.push(rec);
        }
    }
    let (mut curated, curation) = curator.finish();
    canonicalize(&mut curated);
    let runs: Vec<(LeafId, &[KeyphraseRecord], u64)> = leaf_runs(&curated)
        .map(|(leaf, run)| (leaf, run, leaf_fingerprint(run)))
        .collect();
    let curated_at = Instant::now();

    let mut ctx = AssemblyContext::new(config.stemming);
    let mut leaves = Vec::with_capacity(runs.len());
    for (leaf, run, fingerprint) in runs {
        let borrowed = delta
            .filter(|base| base.manifest.leaves.get(&leaf.0) == Some(&fingerprint))
            .and_then(|base| LeafAssembly::from_model(&base.model, leaf));
        let (assembly, reused) = match borrowed {
            Some(assembly) => (assembly, true),
            None => (LeafAssembly::build(run, &mut ctx), false),
        };
        leaves.push(LeafYield {
            leaf,
            fingerprint,
            assembly,
            reused,
        });
    }
    ShardYield {
        leaves,
        curation,
        curate_ms: millis(started, curated_at),
        assemble_ms: millis(curated_at, Instant::now()),
    }
}

/// Wall milliseconds from `from` to `to`.
fn millis(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}
