//! `overlaybench` — NRT overlay serving cost model: measures (a) the
//! upsert-to-servable latency a seller sees when a listing is pushed
//! through `ServingApi::apply_upsert` and answered on the very next
//! request — into a leaf the snapshot has never seen (the cheap case),
//! and into a leaf it has, on first touch (the leaf's base records are
//! staged) and with 1 and 128 records already pending (the staging is
//! reused; only the new record is tokenized) — and (b) the read-path
//! overhead the overlay imposes on
//! steady-state inference at 0% / 1% / 10% overlaid-leaf depth (the
//! no-overlay arm runs an api without any overlay attached, so the 0%
//! arm also prices the bare `is-there-an-overlay` branch). Records the
//! `BENCH_overlay.json` datapoint behind `make bench-overlay`.
//!
//! ```text
//! cargo run --release -p graphex-bench --bin overlaybench -- \
//!     [--seed 23] [--output BENCH_overlay.json] [--date YYYY-MM-DD]
//! ```

use graphex_core::{GraphExConfig, GraphExModel, InferRequest, KeyphraseRecord, LeafId};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, BuildPlan, MarketsimSource};
use graphex_serving::{KvStore, OverlayStore, ServingApi};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NUM_LEAVES: usize = 100;
const UPSERTS: usize = 200;
/// The existing-leaf arms run over a few leaves of production size
/// (≈1k keyphrases each, like the repo benchmark's `bench200k`): what an
/// upsert to an existing leaf costs grows with the leaf.
const DEEP_LEAVES: usize = 8;
/// Records already pending on the leaf in the deepest arm.
const DEEP_PENDING: usize = 128;
const READS_PER_ARM: usize = 20_000;
/// Fraction of base leaves carrying at least one overlay record per arm.
const DEPTHS: [f64; 3] = [0.0, 0.01, 0.10];

struct Args {
    seed: u64,
    output: Option<String>,
    date: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 23, output: None, date: "unrecorded".into() };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--output" => args.output = Some(value.clone()),
            "--date" => args.date = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("overlaybench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            if let Some(path) = &args.output {
                if let Err(e) = std::fs::write(path, format!("{report}\n")) {
                    eprintln!("overlaybench: write {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!("recorded {path}");
            }
        }
        Err(e) => {
            eprintln!("overlaybench FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn bench_corpus(seed: u64) -> ChurnCorpus {
    ChurnCorpus::new(
        CategorySpec {
            name: "OVERLAYBENCH".into(),
            seed,
            num_leaves: NUM_LEAVES,
            products_per_leaf: 6,
            num_items: 600,
            num_sessions: 4_000,
            leaf_id_base: 5_000,
        },
        0.0,
    )
}

fn deep_corpus(seed: u64) -> ChurnCorpus {
    ChurnCorpus::new(
        CategorySpec {
            name: "OVERLAYBENCH_DEEP".into(),
            seed,
            num_leaves: DEEP_LEAVES,
            products_per_leaf: 400,
            num_items: 33_000,
            num_sessions: 170_000,
            leaf_id_base: 7_000,
        },
        0.0,
    )
}

fn model_of(corpus: &ChurnCorpus) -> Result<Arc<GraphExModel>, String> {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let plan = BuildPlan::new(config).jobs(2);
    let output =
        build(&plan, vec![Box::new(MarketsimSource::new(corpus))]).map_err(|e| e.to_string())?;
    Ok(Arc::new(output.model))
}

fn api_on(model: &Arc<GraphExModel>, overlay: bool) -> Arc<ServingApi> {
    let mut api = ServingApi::new(Arc::clone(model), Arc::new(KvStore::new()), 10);
    if overlay {
        api = api.with_overlay(Arc::new(OverlayStore::new()));
    }
    Arc::new(api)
}

fn api_over(corpus: &ChurnCorpus, overlay: bool) -> Result<Arc<ServingApi>, String> {
    Ok(api_on(&model_of(corpus)?, overlay))
}

fn fmt_stats(samples: &mut [Duration]) -> (Duration, Duration, Duration) {
    samples.sort_unstable();
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    let p99 = samples[(samples.len() * 99) / 100 - 1];
    let max = *samples.last().unwrap();
    (mean, p99, max)
}

/// One listing upserted and immediately served: the interval covers the
/// apply (stage the record, re-assemble the leaf's mini graph, swap the
/// view) *and* the first read answered from it. `Err` when that read
/// does not return the listing — the next-request-servability gate.
fn upsert_then_serve(api: &ServingApi, text: &str, leaf: LeafId) -> Result<Duration, String> {
    let record = KeyphraseRecord::new(text, leaf, 60, 5);
    let started = Instant::now();
    api.apply_upsert(std::slice::from_ref(&record)).map_err(|e| format!("{e:?}"))?;
    let served = api.serve_request(&InferRequest::new(text, leaf).k(5).resolve_texts(true));
    let elapsed = started.elapsed();
    if !served.keyphrases.iter().any(|k| k == text) {
        return Err(format!("{text:?} on {leaf} not servable on the next request"));
    }
    Ok(elapsed)
}

fn arm_json(name: &str, case: &str, samples: &mut [Duration]) -> String {
    let (mean, p99, max) = fmt_stats(samples);
    eprintln!(
        "upsert→servable, {case}: {mean:.3?} mean, {p99:.3?} p99, {max:.3?} max over {} upserts",
        samples.len()
    );
    format!(
        r#"      "{name}": {{
        "case": "{case}",
        "upserts": {},
        "mean": "{mean:.3?}",
        "p99": "{p99:.3?}",
        "max": "{max:.3?}"
      }}"#,
        samples.len()
    )
}

/// Arm (a): upsert-to-servable latency in the four cases that cost
/// differently.
fn bench_upsert_to_servable(corpus: &ChurnCorpus, seed: u64) -> Result<String, String> {
    // A leaf the snapshot has never seen: nothing to stage but the record.
    let api = api_over(corpus, true)?;
    let mut new_leaf = Vec::with_capacity(UPSERTS);
    for i in 0..UPSERTS {
        let text = format!("fresh onboard listing {i} widget");
        new_leaf.push(upsert_then_serve(&api, &text, LeafId(40_000 + i as u32))?);
    }

    // Leaves the snapshot has, at production size.
    let model = model_of(&deep_corpus(seed))?;
    let mut leaves: Vec<LeafId> = model.leaf_ids().collect();
    leaves.sort_unstable();
    let labels: usize =
        leaves.iter().map(|&l| model.leaf_graph(l).map_or(0, |g| g.num_labels() as usize)).sum();
    eprintln!("existing-leaf arms: {} leaves, {} keyphrases per leaf", leaves.len(), labels / leaves.len());
    let rounds = UPSERTS / leaves.len();
    let (mut first_touch, mut one_pending) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        // A fresh store per round, so every leaf is touched for the
        // first time (its base records are staged), then a second time
        // (the staging is reused).
        let api = api_on(&model, true);
        for &leaf in &leaves {
            first_touch.push(upsert_then_serve(&api, &format!("first touch {round} gadget"), leaf)?);
        }
        for &leaf in &leaves {
            one_pending.push(upsert_then_serve(&api, &format!("second listing {round} gadget"), leaf)?);
        }
    }
    let api = api_on(&model, true);
    for &leaf in &leaves {
        for i in 0..DEEP_PENDING {
            upsert_then_serve(&api, &format!("pending listing {i} gadget"), leaf)?;
        }
    }
    let mut deep = Vec::new();
    for round in 0..rounds {
        for &leaf in &leaves {
            deep.push(upsert_then_serve(&api, &format!("deep listing {round} gadget"), leaf)?);
        }
    }

    let existing = format!("existing leaf of ~{} keyphrases", labels / leaves.len());
    Ok(format!(
        "    \"upsert_to_servable\": {{\n{},\n{},\n{},\n{}\n    }}",
        arm_json("brand_new_leaf", "leaf the snapshot has never seen", &mut new_leaf),
        arm_json("existing_leaf_first_touch", &format!("{existing}, first touch"), &mut first_touch),
        arm_json("existing_leaf_1_pending", &format!("{existing}, 1 record pending"), &mut one_pending),
        arm_json(
            "existing_leaf_128_pending",
            &format!("{existing}, {DEEP_PENDING}+ records pending"),
            &mut deep
        ),
    ))
}

/// Arm (b): steady-state read latency with 0% / 1% / 10% of base leaves
/// overlaid. Every arm replays the same request tape (one title per
/// leaf, round-robin), so overlaid leaves are hit in proportion to the
/// depth and the deltas isolate the overlay's read-path cost.
fn bench_read_overhead(corpus: &ChurnCorpus, seed: u64) -> Result<String, String> {
    // One representative (title, leaf) per base leaf.
    let mut tape: Vec<(String, LeafId)> = Vec::new();
    for item in &corpus.marketplace().items {
        if !tape.iter().any(|(_, l)| *l == item.leaf) {
            tape.push((item.title.clone(), item.leaf));
        }
    }
    tape.sort_by_key(|(_, l)| l.0);

    let mut arms = String::new();
    let mut baseline_mean = Duration::ZERO;
    for (i, &depth) in DEPTHS.iter().enumerate() {
        let api = api_over(corpus, depth > 0.0)?;
        let overlaid = ((tape.len() as f64) * depth).round() as usize;
        // Spread the overlaid leaves across the tape deterministically.
        if let Some(stride) = tape.len().checked_div(overlaid) {
            let records: Vec<KeyphraseRecord> = (0..overlaid)
                .map(|j| {
                    let (_, leaf) = tape[(j * stride + seed as usize) % tape.len()];
                    KeyphraseRecord::new(format!("overlay churn phrase {j} gadget"), leaf, 50, 5)
                })
                .collect();
            api.apply_upsert(&records).map_err(|e| format!("{e:?}"))?;
        }
        // Warm-up lap, then the measured tape replay.
        for (title, leaf) in &tape {
            api.serve_request(&InferRequest::new(title, *leaf).k(10));
        }
        let started = Instant::now();
        for r in 0..READS_PER_ARM {
            let (title, leaf) = &tape[r % tape.len()];
            let served = api.serve_request(&InferRequest::new(title, *leaf).k(10));
            std::hint::black_box(&served.keyphrases);
        }
        let mean = started.elapsed() / READS_PER_ARM as u32;
        if i == 0 {
            baseline_mean = mean;
        }
        let overhead_pct = if baseline_mean.is_zero() {
            0.0
        } else {
            (mean.as_nanos() as f64 / baseline_mean.as_nanos() as f64 - 1.0) * 100.0
        };
        eprintln!(
            "read path at {:.0}% depth ({overlaid}/{} leaves overlaid): {mean:.3?} mean ({overhead_pct:+.1}% vs no overlay)",
            depth * 100.0,
            tape.len()
        );
        if i > 0 {
            arms.push_str(",\n");
        }
        arms.push_str(&format!(
            r#"      {{
        "depth_pct": {},
        "leaves_overlaid": {overlaid},
        "reads": {READS_PER_ARM},
        "mean": "{mean:.3?}",
        "overhead_vs_no_overlay_pct": {overhead_pct:.1}
      }}"#,
            depth * 100.0,
        ));
    }
    Ok(format!("    \"read_path\": [\n{arms}\n    ]"))
}

fn run(args: &Args) -> Result<String, String> {
    let corpus = bench_corpus(args.seed);
    let upsert = bench_upsert_to_servable(&corpus, args.seed)?;
    let reads = bench_read_overhead(&corpus, args.seed)?;
    Ok(format!(
        r#"{{
  "bench": "overlay",
  "description": "NRT overlay serving: upsert-to-servable latency (apply_upsert plus the first read answered from the leaf's overlay mini graph) for a brand-new leaf, for an existing production-size leaf on first touch (its base records are staged) and with 1 and 128 records already pending (the staging is reused, only the new record is tokenized); and steady-state read-path overhead with 0%/1%/10% of base leaves overlaid. The 0% arm runs without any overlay attached, so deltas price both the overlay branch and the overlaid-leaf traversal.",
  "date": "{}",
  "machine": {{
    "os": "{}",
    "cpus_available": {},
    "note": "single-process, in-memory serving api; no HTTP or KV-cache in the measured path (serve_request bypasses the store)."
  }},
  "config": {{
    "dataset": "marketsim OVERLAYBENCH ({NUM_LEAVES} leaves, seed {}); existing-leaf arms: OVERLAYBENCH_DEEP ({DEEP_LEAVES} leaves x 400 products, 33k items, 170k sessions, min_search_count 2)",
    "upserts": {UPSERTS},
    "reads_per_arm": {READS_PER_ARM},
    "depths_pct": [0, 1, 10],
    "profile": "release"
  }},
  "results": {{
{upsert},
{reads}
  }}
}}"#,
        args.date,
        std::env::consts::OS,
        std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        args.seed,
    ))
}
