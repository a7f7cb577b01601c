//! `tracebench` — measure what request tracing costs on the serving hot
//! path. Three arms over the same model and request stream, each against
//! a freshly booted `graphex-server`:
//!
//! * `off`  — tracing disabled (the zero-overhead baseline: one branch
//!   per stage, no clock reads).
//! * `on`   — tracing enabled with the default 25ms slow threshold, which
//!   loopback traffic never crosses (spans + ring, slow ring idle).
//! * `slow` — tracing enabled with a zero slow threshold, so *every*
//!   request also lands on the slow ring (the worst-case write path).
//!
//! Arms are interleaved across passes so machine noise hits all arms
//! alike, and the overhead is the **best matched pair**: each pass
//! compares its own off/on runs (seconds apart, same machine state) and
//! the smallest per-pass delta is the verdict — a loaded CI neighbour
//! can slow a whole pass, but it cannot manufacture overhead in every
//! pass at once. The run **fails** (exit 1) if that overhead exceeds
//! `--max-overhead-pct` (default 5), or if any response is non-200. On
//! success it prints its measurements as one JSON document.
//!
//! ```text
//! cargo run --release -p graphex-bench --bin tracebench -- \
//!     [--requests 3000] [--connections 4] [--scale cat1|cat2|cat3|tiny] \
//!     [--passes 3] [--max-overhead-pct 5]
//! ```

use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_core::GraphExModel;
use graphex_marketsim::{CategoryDataset, CategorySpec};
use graphex_serving::{KvStore, ServingApi};
use graphex_server::{HttpClient, Json, ServerConfig, TraceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: u64,
    connections: usize,
    scale: String,
    passes: usize,
    max_overhead_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 3000,
        connections: 4,
        scale: "tiny".into(),
        passes: 3,
        max_overhead_pct: 5.0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--requests" => args.requests = value.parse().map_err(|_| "bad --requests")?,
            "--connections" => args.connections = value.parse().map_err(|_| "bad --connections")?,
            "--scale" => args.scale = value.clone(),
            "--passes" => args.passes = value.parse().map_err(|_| "bad --passes")?,
            "--max-overhead-pct" => {
                args.max_overhead_pct = value.parse().map_err(|_| "bad --max-overhead-pct")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    args.connections = args.connections.clamp(1, 64);
    args.requests = args.requests.max(args.connections as u64);
    args.passes = args.passes.clamp(1, 16);
    Ok(args)
}

fn spec_for(scale: &str) -> Result<CategorySpec, String> {
    match scale {
        "cat1" => Ok(CategorySpec::cat1()),
        "cat2" => Ok(CategorySpec::cat2()),
        "cat3" => Ok(CategorySpec::cat3()),
        "tiny" => Ok(CategorySpec::tiny(7)),
        other => Err(format!("unknown scale {other:?} (cat1|cat2|cat3|tiny)")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tracebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("tracebench FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// The three arms, in interleave order.
const ARMS: [&str; 3] = ["off", "on", "slow"];

fn trace_config(arm: &str) -> TraceConfig {
    match arm {
        "off" => TraceConfig { enabled: false, ..TraceConfig::default() },
        "on" => TraceConfig::default(),
        // Every request crosses a zero threshold → the slow ring takes a
        // write per request (worst case for the recorder).
        _ => TraceConfig { slow_threshold: Duration::from_nanos(0), ..TraceConfig::default() },
    }
}

fn run(args: &Args) -> Result<String, String> {
    eprintln!("generating {} dataset + model ...", args.scale);
    let ds = CategoryDataset::generate(spec_for(&args.scale)?);
    let model = Arc::new(build_graphex(&ds, default_threshold(&ds)));
    let pool: Vec<(String, u32, u64)> = ds
        .test_items(512, 0xBEEF)
        .iter()
        .enumerate()
        .map(|(i, item)| (item.title.clone(), item.leaf.0, i as u64))
        .collect();
    if pool.is_empty() {
        return Err("dataset produced no test items".into());
    }

    let mut passes: Vec<[f64; ARMS.len()]> = Vec::with_capacity(args.passes);
    for pass in 0..args.passes {
        let mut row = [0.0f64; ARMS.len()];
        for (slot, arm) in ARMS.iter().enumerate() {
            row[slot] = run_arm(args, Arc::clone(&model), &pool, arm)?;
            eprintln!("pass {pass} arm {arm:<4}: {:.0} req/s", row[slot]);
        }
        passes.push(row);
    }
    // Best matched pair: overhead judged within each pass, smallest
    // per-pass delta wins (inter-pass drift cancels out of the ratio).
    let pair_overhead = |slot: usize| {
        passes
            .iter()
            .map(|row| ((row[0] - row[slot]) / row[0] * 100.0).max(0.0))
            .fold(f64::INFINITY, f64::min)
    };
    let on_pct = pair_overhead(1);
    let slow_pct = pair_overhead(2);
    let best = |slot: usize| passes.iter().map(|row| row[slot]).fold(0.0, f64::max);
    let (off, on, slow) = (best(0), best(1), best(2));
    eprintln!(
        "best: off {off:.0}  on {on:.0}  slow {slow:.0}; matched-pair overhead: on {on_pct:.1}%  slow {slow_pct:.1}%"
    );
    if on_pct > args.max_overhead_pct {
        return Err(format!(
            "tracing overhead {on_pct:.1}% exceeds the {:.1}% budget ({off:.0} → {on:.0} req/s)",
            args.max_overhead_pct
        ));
    }

    let report = format!(
        r#"{{
  "bench": "trace_overhead",
  "description": "three interleaved arms of loopback POST /v1/infer traffic against a release-built graphex-server: tracing off, tracing on (default 25ms slow threshold, slow ring idle), and tracing on with a zero slow threshold so every request also writes the slow ring. Throughputs are the best pass per arm; the overhead percentages are the best matched pair (smallest within-pass off-vs-traced delta), which cancels inter-pass machine drift. Gate: the traced arm within the overhead budget.",
  "machine": {{
    "os": "{os}",
    "cpus_available": {cpus},
    "note": "loopback-only; client and server threads share cores, so absolute req/s is machine-bound — the overhead ratio is the datapoint."
  }},
  "config": {{
    "dataset": "{scale}",
    "requests_per_arm": {requests},
    "connections": {connections},
    "passes": {passes},
    "max_overhead_pct": {budget:.1},
    "profile": "{profile}"
  }},
  "results": {{
    "throughput_off_per_s": {off:.0},
    "throughput_on_per_s": {on:.0},
    "throughput_slow_logging_per_s": {slow:.0},
    "overhead_on_pct": {on_pct:.2},
    "overhead_slow_logging_pct": {slow_pct:.2}
  }}
}}"#,
        os = std::env::consts::OS,
        cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        scale = args.scale,
        requests = args.requests,
        connections = args.connections,
        passes = args.passes,
        budget = args.max_overhead_pct,
        profile = if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    Ok(report)
}

/// Boots a fresh server (fresh KV store, so arms see identical cache
/// behaviour), replays the request stream, and returns req/s.
fn run_arm(
    args: &Args,
    model: Arc<GraphExModel>,
    pool: &[(String, u32, u64)],
    arm: &str,
) -> Result<f64, String> {
    let api = Arc::new(ServingApi::new(model, Arc::new(KvStore::new()), 10));
    let server = graphex_server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: args.connections,
            queue_depth: 256,
            max_body_bytes: 1 << 20,
            deadline: Some(Duration::from_secs(10)),
            keep_alive_timeout: Duration::from_secs(10),
            trace: trace_config(arm),
            history: Default::default(),
        },
        api,
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let per_connection = args.requests / args.connections as u64;
    let started = Instant::now();

    let clients: Vec<_> = (0..args.connections)
        .map(|c| {
            let pool = pool.to_vec();
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                for r in 0..per_connection {
                    let (title, leaf, id) = &pool[((c as u64 + r * 7) % pool.len() as u64) as usize];
                    let body = Json::obj(vec![
                        ("title", Json::str(title.clone())),
                        ("leaf", Json::uint(u64::from(*leaf))),
                        ("k", Json::uint(10)),
                        ("id", Json::uint(*id)),
                    ])
                    .render();
                    let response = client
                        .post_json("/v1/infer", &body)
                        .map_err(|e| format!("connection {c} request {r}: {e}"))?;
                    if response.status != 200 {
                        return Err(format!(
                            "connection {c} request {r}: HTTP {}",
                            response.status
                        ));
                    }
                }
                Ok(())
            })
        })
        .collect();
    let total = per_connection * args.connections as u64;
    for client in clients {
        client.join().map_err(|_| "client thread panicked".to_string())??;
    }
    let elapsed = started.elapsed();

    // Sanity per arm: the recorder saw exactly what the arm promises.
    match (arm, server.traces()) {
        ("off", Some(_)) => return Err("off arm booted with a recorder".into()),
        ("off", None) => {}
        (_, None) => return Err(format!("{arm} arm booted without a recorder")),
        (a, Some(recorder)) => {
            if recorder.recorded() < total {
                return Err(format!(
                    "{a} arm recorded {} traces for {total} requests",
                    recorder.recorded()
                ));
            }
            if a == "slow" && recorder.slow_count() < total {
                return Err(format!(
                    "slow arm logged {} slow traces for {total} requests",
                    recorder.slow_count()
                ));
            }
        }
    }
    let errors_5xx = server.metrics().server_errors();
    server.shutdown();
    if errors_5xx > 0 {
        return Err(format!("{errors_5xx} responses were 5xx"));
    }
    Ok(total as f64 / elapsed.as_secs_f64())
}
