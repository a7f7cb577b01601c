//! `overheadbench` — what request tracing and the telemetry-history
//! sampler cost on the serving hot path. Five arms over one model and one
//! request stream, each against a freshly booted `graphex-server`:
//!
//! * `trace_off`   — tracing disabled (one branch per stage, no clock
//!   reads);
//! * `trace_on`    — tracing at its defaults: spans + ring, and a 25 ms
//!   slow threshold loopback traffic never crosses (slow ring idle);
//! * `trace_slow`  — tracing with a zero slow threshold, so *every*
//!   request also writes the slow ring (the recorder's worst case);
//! * `history_off` — no sampler thread, no ring;
//! * `history_on`  — sampling every 50 ms, 20× the production rate, so
//!   the sampler provably fires many times inside the window.
//!
//! The trace arms keep history at its default and the history arms keep
//! tracing at its default. The sampler reads the atomics the handlers
//! bump and writes its own ring — it never touches the request path — so
//! its budget is 1 %, against tracing's 5 %.
//!
//! All five arms run once per pass, interleaved, so machine noise hits
//! them alike, and each overhead is the **best matched pair**: each pass
//! compares its own off/on runs (back to back, same machine state) and
//! the smallest per-pass delta is the verdict — a loaded CI neighbour can
//! slow a whole pass, but it cannot manufacture overhead in every pass at
//! once. The run **fails** (exit 1) if either overhead exceeds its
//! budget, if any response is non-200, or if an arm's server does not
//! show what its configuration promises (a recorder that missed requests,
//! a history ring that recorded no samples, a surface that should be
//! off). On success it prints its measurements as one JSON document.
//!
//! ```text
//! cargo run --release -p graphex-bench --bin overheadbench   # make bench-overhead
//! ```

#![forbid(unsafe_code)]

use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_core::GraphExModel;
use graphex_marketsim::{CategoryDataset, CategorySpec};
use graphex_server::{HistoryConfig, HttpClient, Json, ServerConfig, TraceConfig};
use graphex_serving::{KvStore, ServingApi};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REQUESTS_PER_ARM: u64 = 3000;
const CONNECTIONS: usize = 4;
const PASSES: usize = 3;
const TRACE_BUDGET_PCT: f64 = 5.0;
const HISTORY_BUDGET_PCT: f64 = 1.0;
const HISTORY_INTERVAL: Duration = Duration::from_millis(50);

/// The arms, in interleave order; `Arm as usize` is the slot in a pass.
#[derive(Clone, Copy)]
enum Arm {
    TraceOff,
    TraceOn,
    TraceSlow,
    HistoryOff,
    HistoryOn,
}

const ARMS: [Arm; 5] = [
    Arm::TraceOff,
    Arm::TraceOn,
    Arm::TraceSlow,
    Arm::HistoryOff,
    Arm::HistoryOn,
];

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::TraceOff => "trace_off",
            Arm::TraceOn => "trace_on",
            Arm::TraceSlow => "trace_slow",
            Arm::HistoryOff => "history_off",
            Arm::HistoryOn => "history_on",
        }
    }

    fn config(self) -> ServerConfig {
        let sampled = |enabled| HistoryConfig {
            enabled,
            interval: HISTORY_INTERVAL,
            ..HistoryConfig::default()
        };
        let (trace, history) = match self {
            Arm::TraceOff => (
                TraceConfig {
                    enabled: false,
                    ..TraceConfig::default()
                },
                HistoryConfig::default(),
            ),
            Arm::TraceOn => (TraceConfig::default(), HistoryConfig::default()),
            Arm::TraceSlow => (
                TraceConfig {
                    slow_threshold: Duration::ZERO,
                    ..TraceConfig::default()
                },
                HistoryConfig::default(),
            ),
            Arm::HistoryOff => (TraceConfig::default(), sampled(false)),
            Arm::HistoryOn => (TraceConfig::default(), sampled(true)),
        };
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: CONNECTIONS,
            queue_depth: 256,
            max_body_bytes: 1 << 20,
            deadline: Some(Duration::from_secs(10)),
            keep_alive_timeout: Duration::from_secs(10),
            trace,
            history,
        }
    }
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("overheadbench: takes no arguments");
        std::process::exit(2);
    }
    match run() {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("overheadbench FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<String, String> {
    eprintln!("generating tiny dataset + model ...");
    let ds = CategoryDataset::generate(CategorySpec::tiny(7));
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

    let mut passes: Vec<[f64; ARMS.len()]> = Vec::with_capacity(PASSES);
    let mut min_samples = u64::MAX;
    for pass in 0..PASSES {
        let mut row = [0.0f64; ARMS.len()];
        for arm in ARMS {
            let (throughput, samples) = run_arm(arm.config(), Arc::clone(&model), &pool)
                .map_err(|e| format!("{} arm: {e}", arm.name()))?;
            row[arm as usize] = throughput;
            if let Arm::HistoryOn = arm {
                min_samples = min_samples.min(samples);
            }
            eprintln!("pass {pass} arm {:<11}: {throughput:.0} req/s", arm.name());
        }
        passes.push(row);
    }
    // Best matched pair: overhead judged within each pass, smallest
    // per-pass delta wins (inter-pass drift cancels out of the ratio).
    let overhead = |off: Arm, on: Arm| {
        passes
            .iter()
            .map(|row| {
                let (off, on) = (row[off as usize], row[on as usize]);
                ((off - on) / off * 100.0).max(0.0)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let trace_on_pct = overhead(Arm::TraceOff, Arm::TraceOn);
    let trace_slow_pct = overhead(Arm::TraceOff, Arm::TraceSlow);
    let history_pct = overhead(Arm::HistoryOff, Arm::HistoryOn);
    let best = |arm: Arm| {
        passes
            .iter()
            .map(|row| row[arm as usize])
            .fold(0.0, f64::max)
    };
    eprintln!(
        "matched-pair overhead: trace on {trace_on_pct:.1}%  trace slow {trace_slow_pct:.1}%  \
         history {history_pct:.2}%"
    );

    let mut over = Vec::new();
    if trace_on_pct > TRACE_BUDGET_PCT {
        over.push(format!(
            "tracing overhead {trace_on_pct:.1}% exceeds the {TRACE_BUDGET_PCT:.1}% budget \
             ({:.0} → {:.0} req/s)",
            best(Arm::TraceOff),
            best(Arm::TraceOn)
        ));
    }
    if history_pct > HISTORY_BUDGET_PCT {
        over.push(format!(
            "history overhead {history_pct:.2}% exceeds the {HISTORY_BUDGET_PCT:.2}% budget \
             ({:.0} → {:.0} req/s)",
            best(Arm::HistoryOff),
            best(Arm::HistoryOn)
        ));
    }
    if !over.is_empty() {
        return Err(over.join("; "));
    }

    Ok(format!(
        r#"{{
  "bench": "serving_overhead",
  "description": "five interleaved arms of loopback POST /v1/infer traffic against a release-built graphex-server: tracing off, on (default 25ms slow threshold, slow ring idle) and on with a zero slow threshold so every request also writes the slow ring, each with history at its default; and telemetry history off and on at an aggressive sampling interval (20x the production default rate), each with tracing at its default. Throughputs are the best pass per arm; the overhead percentages are the best matched pair (smallest within-pass off-vs-on delta), which cancels inter-pass machine drift. Gates: the traced arm within the tracing budget, the sampled arm within the history budget, and every arm's server showing what its configuration promises.",
  "machine": {{
    "os": "{os}",
    "cpus_available": {cpus},
    "note": "loopback-only; client and server threads share cores, so absolute req/s is machine-bound — the overhead ratio is the datapoint."
  }},
  "config": {{
    "dataset": "tiny",
    "requests_per_arm": {REQUESTS_PER_ARM},
    "connections": {CONNECTIONS},
    "passes": {PASSES},
    "history_sample_interval_ms": {interval},
    "trace_max_overhead_pct": {TRACE_BUDGET_PCT:.1},
    "history_max_overhead_pct": {HISTORY_BUDGET_PCT:.2},
    "profile": "{profile}"
  }},
  "results": {{
    "trace": {{
      "throughput_off_per_s": {trace_off:.0},
      "throughput_on_per_s": {trace_on:.0},
      "throughput_slow_logging_per_s": {trace_slow:.0},
      "overhead_on_pct": {trace_on_pct:.2},
      "overhead_slow_logging_pct": {trace_slow_pct:.2}
    }},
    "history": {{
      "throughput_off_per_s": {history_off:.0},
      "throughput_on_per_s": {history_on:.0},
      "overhead_on_pct": {history_pct:.2},
      "min_samples_per_on_arm": {min_samples}
    }}
  }}
}}"#,
        os = std::env::consts::OS,
        cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        interval = HISTORY_INTERVAL.as_millis(),
        profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        trace_off = best(Arm::TraceOff),
        trace_on = best(Arm::TraceOn),
        trace_slow = best(Arm::TraceSlow),
        history_off = best(Arm::HistoryOff),
        history_on = best(Arm::HistoryOn),
    ))
}

/// Boots a fresh server on `config` (fresh KV store, so arms see identical
/// cache behaviour), replays the request stream, checks the server shows
/// what `config` promises, and returns (req/s, history samples recorded).
fn run_arm(
    config: ServerConfig,
    model: Arc<GraphExModel>,
    pool: &[(String, u32, u64)],
) -> Result<(f64, u64), String> {
    let api = Arc::new(ServingApi::new(model, Arc::new(KvStore::new()), 10));
    let (trace, history) = (config.trace.clone(), config.history.clone());
    let server = graphex_server::start(config, api).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let per_connection = REQUESTS_PER_ARM / CONNECTIONS as u64;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| scope.spawn(move || drive(addr, pool, c as u64, per_connection)))
            .collect();
        clients.into_iter().try_for_each(|client| {
            client
                .join()
                .map_err(|_| "client thread panicked".to_string())?
        })
    })?;
    let elapsed = started.elapsed();
    let total = per_connection * CONNECTIONS as u64;

    match (trace.enabled, server.traces()) {
        (false, None) => {}
        (false, Some(_)) => return Err("tracing off, yet a recorder was booted".into()),
        (true, None) => return Err("tracing on, yet no recorder was booted".into()),
        (true, Some(recorder)) => {
            if recorder.recorded() < total {
                return Err(format!(
                    "recorded {} traces for {total} requests",
                    recorder.recorded()
                ));
            }
            if trace.slow_threshold.is_zero() && recorder.slow_count() < total {
                return Err(format!(
                    "logged {} slow traces for {total} requests at a zero threshold",
                    recorder.slow_count()
                ));
            }
        }
    }
    let samples = match (history.enabled, server.history()) {
        (false, None) => 0,
        (false, Some(_)) => return Err("history off, yet a ring was booted".into()),
        (true, None) => return Err("history on, yet no ring was booted".into()),
        (true, Some(ring)) => {
            // A whole arm can finish inside one interval: force a sample
            // so the ring provably works, then require content either way.
            server.sample_history_now();
            match ring.recorded() {
                0 => return Err("history on, yet the ring recorded no samples".into()),
                recorded => recorded,
            }
        }
    };
    let errors_5xx = server.metrics().server_errors();
    server.shutdown();
    if errors_5xx > 0 {
        return Err(format!("{errors_5xx} responses were 5xx"));
    }
    Ok((total as f64 / elapsed.as_secs_f64(), samples))
}

/// One keep-alive connection's share of the stream: `requests` infers,
/// each of which must answer 200.
fn drive(
    addr: SocketAddr,
    pool: &[(String, u32, u64)],
    c: u64,
    requests: u64,
) -> Result<(), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for r in 0..requests {
        let (title, leaf, id) = &pool[((c + r * 7) % pool.len() as u64) as usize];
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
}
