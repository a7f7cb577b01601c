//! `tenancybench` — tenant fleet cold-start and residency footprint:
//! boots fleets of 1, 4, and 16 tenants (each tenant a full registry
//! publishing the same marketsim-built snapshot), admits every tenant
//! cold, evicts the lot, and re-admits — once with the mmap backend and
//! once with heap loads. Records per-tenant cold-start / re-admission
//! latency and resident bytes per scale and prints them as one JSON
//! document (`make bench-tenancy`).
//!
//! ```text
//! cargo run --release -p graphex-bench --bin tenancybench -- [--seed 11]
//! ```

use graphex_core::serialize::LoadMode;
use graphex_core::{GraphExConfig, GraphExModel};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, BuildPlan, MarketsimSource};
use graphex_serving::{FleetConfig, TenantFleet};
use std::time::{Duration, Instant};

const SCALES: [usize; 3] = [1, 4, 16];

fn parse_seed() -> Result<u64, String> {
    let mut seed = 11;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(seed)
}

fn main() {
    let seed = match parse_seed() {
        Ok(seed) => seed,
        Err(e) => {
            eprintln!("tenancybench: {e}");
            std::process::exit(2);
        }
    };
    match run(seed) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("tenancybench FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn bench_model(seed: u64) -> Result<(GraphExModel, u64), String> {
    let spec = CategorySpec {
        name: "TENANCYBENCH".into(),
        seed,
        num_leaves: 24,
        products_per_leaf: 8,
        num_items: 400,
        num_sessions: 2_500,
        leaf_id_base: 7_000,
    };
    let corpus = ChurnCorpus::new(spec, 0.05);
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let plan = BuildPlan::new(config).jobs(2);
    let output =
        build(&plan, vec![Box::new(MarketsimSource::new(&corpus))]).map_err(|e| e.to_string())?;
    let size = output.bytes.len() as u64;
    let model =
        graphex_core::serialize::from_bytes(&output.bytes).map_err(|e| e.to_string())?;
    Ok((model, size))
}

struct ScaleResult {
    tenants: usize,
    cold_mean: Duration,
    cold_max: Duration,
    readmit_mean: Duration,
    resident_bytes: u64,
}

/// One (mode, scale) arm: publish `n` tenants, admit all cold, evict
/// all, re-admit all. Admission answers a probe request each time so
/// the measured path includes real inference, not just the load.
fn run_arm(mode: LoadMode, n: usize, model: &GraphExModel) -> Result<ScaleResult, String> {
    let root = std::env::temp_dir()
        .join(format!("graphex-tenancybench-{mode}-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fleet = TenantFleet::open(
        &root,
        FleetConfig { resident_cap: n, load_mode: mode, ..FleetConfig::default() },
    )
    .map_err(|e| e.to_string())?;
    let names: Vec<String> = (0..n).map(|i| format!("tenant-{i}")).collect();
    for name in &names {
        fleet.publish_model(name, model, "tenancybench").map_err(|e| e.to_string())?;
        fleet.evict(name).map_err(|e| e.to_string())?;
    }
    debug_assert_eq!(fleet.resident_count(), 0);

    let admit_all = |fleet: &TenantFleet| -> Result<Vec<Duration>, String> {
        names
            .iter()
            .map(|name| {
                let started = Instant::now();
                fleet.admit(name).map_err(|e| e.to_string())?;
                Ok(started.elapsed())
            })
            .collect()
    };
    let cold = admit_all(&fleet)?;
    let resident_bytes = fleet.resident_bytes();
    for name in &names {
        fleet.evict(name).map_err(|e| e.to_string())?;
    }
    // Re-admission: under mmap the snapshot pages are still in the page
    // cache, so this is the evict → re-admit cost the LRU cap implies.
    let readmit = admit_all(&fleet)?;

    std::fs::remove_dir_all(&root).ok();
    let mean = |xs: &[Duration]| xs.iter().sum::<Duration>() / xs.len() as u32;
    Ok(ScaleResult {
        tenants: n,
        cold_mean: mean(&cold),
        cold_max: cold.iter().max().copied().unwrap_or_default(),
        readmit_mean: mean(&readmit),
        resident_bytes,
    })
}

fn run(seed: u64) -> Result<String, String> {
    let (model, snapshot_bytes) = bench_model(seed)?;
    let mut arms = String::new();
    for (m, mode) in [LoadMode::Mmap, LoadMode::Heap].into_iter().enumerate() {
        if m > 0 {
            arms.push_str(",\n");
        }
        let mut scales = String::new();
        for (i, &n) in SCALES.iter().enumerate() {
            let result = run_arm(mode, n, &model)?;
            eprintln!(
                "{mode} x{n}: cold {:.3?} mean / {:.3?} max, re-admit {:.3?} mean, {} resident bytes",
                result.cold_mean, result.cold_max, result.readmit_mean, result.resident_bytes
            );
            if i > 0 {
                scales.push_str(",\n");
            }
            scales.push_str(&format!(
                r#"      {{
        "tenants": {},
        "cold_start_mean": "{:.3?}",
        "cold_start_max": "{:.3?}",
        "readmit_mean": "{:.3?}",
        "resident_bytes": {}
      }}"#,
                result.tenants,
                result.cold_mean,
                result.cold_max,
                result.readmit_mean,
                result.resident_bytes,
            ));
        }
        arms.push_str(&format!("    \"{mode}\": [\n{scales}\n    ]"));
    }

    Ok(format!(
        r#"{{
  "bench": "tenancy",
  "description": "tenant fleet cold-start latency and resident footprint at 1/4/16 tenants, mmap vs heap snapshot backend. Each admission runs the full registry pipeline (load, manifest checksum, structural parse, warm-up); re-admission repeats it after evicting every tenant, so the mmap arm measures page-cache-warm reload — the cost the LRU residency cap imposes on an evicted tenant's next request.",
  "machine": {{
    "os": "{}",
    "cpus_available": {},
    "note": "single-process, tmpfs-or-disk temp dir; resident_bytes under mmap counts file-backed pages shared with the page cache, under heap it is private memory."
  }},
  "config": {{
    "dataset": "marketsim TENANCYBENCH (24 leaves, seed {})",
    "snapshot_bytes_per_tenant": {},
    "scales": [1, 4, 16],
    "profile": "release"
  }},
  "results": {{
{}
  }}
}}"#,
        std::env::consts::OS,
        std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        seed,
        snapshot_bytes,
        arms,
    ))
}
