//! Per-shard snapshot emission: partition a built model by
//! `leaf % shards` into independently publishable snapshots — the build
//! side of the scale-out serving tier (`graphex_server::router`).
//!
//! Each [`ShardSnapshot`] is a complete, self-contained `GEXM` model:
//! the shard's own leaf graphs **plus the global meta-fallback graph**,
//! so a backend serving one shard answers `MetaFallback` and
//! `UnknownLeaf` requests exactly like the monolith would — the
//! `sharded ≡ monolith` property the cluster tests pin holds for every
//! outcome, not just `ExactLeaf`.
//!
//! Emission reuses the delta-borrow machinery: every leaf assembly is
//! recovered from the already-built model with
//! [`LeafAssembly::from_model`] (exact, by the leaf-local identity
//! invariant) and re-merged in ascending leaf order. A corollary pinned
//! by `tests/sharding.rs`: emitting **one** shard reproduces the
//! monolithic snapshot byte for byte.
//!
//! Each shard carries its own `BUILDINFO` whose `leaves` table is the
//! monolith's restricted to the shard (so per-shard delta builds and
//! fingerprint audits keep working) plus a `shard <index> <of>` line.

use crate::build::{BuildOutput, PipelineError, PipelineResult};
use crate::manifest::{BuildManifest, BUILDINFO_FILE};
use graphex_core::assembly::{LeafAssembly, ModelAssembler};
use graphex_core::serialize::{self, Hashed};
use graphex_core::{GraphExConfig, GraphExModel, LeafId};
use graphex_serving::{ModelRegistry, SnapshotMeta};
use std::path::{Path, PathBuf};

/// The shard owning `leaf` under a `shards`-way partition.
pub fn shard_of(leaf: LeafId, shards: u32) -> u32 {
    leaf.0 % shards
}

/// The conventional per-shard registry root under a cluster directory:
/// `<cluster_root>/shard-<index>`.
pub fn shard_root(cluster_root: impl AsRef<Path>, index: u32) -> PathBuf {
    cluster_root.as_ref().join(format!("shard-{index}"))
}

/// One shard's complete snapshot: serialized bytes, the in-memory model,
/// and its `BUILDINFO` manifest.
#[derive(Debug)]
pub struct ShardSnapshot {
    /// Which shard this is (`0..shards`).
    pub index: u32,
    /// Total shards in the partition.
    pub shards: u32,
    /// `GEXM` snapshot bytes for this shard, with their checksum.
    pub bytes: Hashed,
    /// The shard model (the shard's leaves + the global fallback).
    pub model: GraphExModel,
    pub manifest: BuildManifest,
}

impl ShardSnapshot {
    /// Publishes this shard (+ `BUILDINFO` sidecar) into a registry,
    /// through the same admission pipeline as a monolithic snapshot.
    pub fn publish(&self, registry: &ModelRegistry, note: &str) -> PipelineResult<SnapshotMeta> {
        let manifest_text = self.manifest.render();
        Ok(registry.publish_hashed(
            &self.bytes,
            note,
            &[(BUILDINFO_FILE, manifest_text.as_bytes())],
        )?)
    }
}

impl BuildOutput {
    /// [`emit_shards`] over this build's model + manifest.
    pub fn emit_shards(&self, shards: u32) -> PipelineResult<Vec<ShardSnapshot>> {
        emit_shards(&self.model, &self.manifest, shards)
    }
}

/// Partitions `model` into `shards` per-shard snapshots
/// (`leaf % shards`), each carrying the global meta-fallback graph and a
/// shard-scoped copy of `manifest`.
///
/// Every shard must own at least one leaf: an empty shard would be an
/// unservable snapshot (registry admission warm-up has nothing to
/// probe), which means the shard count is wrong for this corpus — that
/// is an error here, not a latent failure at publish time.
pub fn emit_shards(
    model: &GraphExModel,
    manifest: &BuildManifest,
    shards: u32,
) -> PipelineResult<Vec<ShardSnapshot>> {
    if shards == 0 {
        return Err(PipelineError::Shard(
            "shard count must be at least 1".into(),
        ));
    }
    let mut leaves: Vec<LeafId> = model.leaf_ids().collect();
    leaves.sort_unstable();

    // The shard models must be rebuilt with the same config knobs that
    // shaped the monolith; everything that matters at assembly time is
    // recoverable from the model itself.
    let config = GraphExConfig {
        alignment: model.alignment(),
        stemming: model.stemming(),
        build_meta_fallback: model.has_fallback(),
        ..GraphExConfig::default()
    };

    let fallback = model
        .has_fallback()
        .then(|| LeafAssembly::from_model_fallback(model).expect("has_fallback checked"));

    let mut out = Vec::with_capacity(shards as usize);
    for index in 0..shards {
        let owned: Vec<LeafId> = leaves
            .iter()
            .copied()
            .filter(|leaf| shard_of(*leaf, shards) == index)
            .collect();
        if owned.is_empty() {
            return Err(PipelineError::Shard(format!(
                "shard {index} of {shards} owns no leaves — no leaf id ≡ {index} (mod {shards}); \
                 an empty shard cannot pass registry admission, pick a different shard count"
            )));
        }
        let assemblies = owned.iter().map(|&leaf| {
            (
                leaf,
                LeafAssembly::from_model(model, leaf).expect("leaf listed by the model"),
            )
        });
        let mut assembler = ModelAssembler::merge(&config, assemblies);
        if let Some(fallback) = &fallback {
            assembler.set_fallback(fallback.clone());
        }
        let shard_model = assembler.finish();
        let bytes = serialize::to_bytes(&shard_model);
        let snapshot_checksum = bytes.checksum();
        let shard_manifest = BuildManifest {
            config_fingerprint: manifest.config_fingerprint,
            snapshot_checksum,
            records_in: manifest.records_in,
            parse_errors: manifest.parse_errors,
            curation: manifest.curation,
            shard: Some((index, shards)),
            leaves: owned
                .iter()
                .filter_map(|leaf| manifest.leaves.get(&leaf.0).map(|fp| (leaf.0, *fp)))
                .collect(),
        };
        out.push(ShardSnapshot {
            index,
            shards,
            bytes,
            model: shard_model,
            manifest: shard_manifest,
        });
    }
    Ok(out)
}

/// Publishes every shard into `shard_root(cluster_root, i)`, creating
/// the per-shard registries as needed. Returns the published metas in
/// shard order.
pub fn publish_shards(
    snapshots: &[ShardSnapshot],
    cluster_root: impl AsRef<Path>,
    note: &str,
) -> PipelineResult<Vec<SnapshotMeta>> {
    let cluster_root = cluster_root.as_ref();
    let mut metas = Vec::with_capacity(snapshots.len());
    for shard in snapshots {
        let registry = ModelRegistry::open(shard_root(cluster_root, shard.index))?;
        metas.push(shard.publish(&registry, note)?);
    }
    Ok(metas)
}
