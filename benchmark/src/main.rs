//! The repo benchmark. See `README.md` beside `Cargo.toml`, and
//! `BENCHMARK.json` at the repo root for the contract this bin fulfils:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <path>] [--smoke]
//! ```

mod client;
mod data;
mod edge;
mod hist;
mod ledger;
mod load;
mod proc;
mod report;
mod rng;
mod router;
mod stage;
mod workloads;

use report::Report;

/// A workload's end-to-end run.
type Runner = fn(&data::Dataset, &Path, &mut Report);

const WORKLOADS: [(&str, Runner); 5] = [
    ("edge_hot", workloads::edge_hot),
    ("batch_full", workloads::batch_full),
    ("write_mix", workloads::write_mix),
    ("router_batch", workloads::router_batch),
    ("model_refresh", workloads::model_refresh),
];

fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}
use std::path::{Path, PathBuf};

struct Args {
    workload: (&'static str, Runner),
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, 1, 10.0);
    let (mut traced, mut out, mut smoke) = (false, None, false);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            smoke = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = WORKLOADS.iter().find(|(name, _)| name == value).copied(),
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    let workload =
        workload.ok_or_else(|| format!("--workload must be one of {:?}", workload_names()))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        out,
        smoke,
    })
}

/// Runs one workload and returns its report. Registries and snapshots go
/// under `scratch`, which the caller removes.
fn run(args: &Args, scratch: &Path) -> Report {
    let data = data::Dataset::generate(args.seed, args.smoke);
    let (name, end_to_end) = args.workload;
    let mut report = Report::new(name, args.seed, args.seconds, args.traced);
    report.canary_ms.0 = proc::canary_ms();
    if args.traced {
        ledger::run(name, &data, scratch, &mut report);
    } else {
        end_to_end(&data, scratch, &mut report);
    }
    report.canary_ms.1 = proc::canary_ms();
    if args.traced {
        report.set("harness.canary_ms", report.canary_ms.1);
    }
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    // Inside the checkout (the working directory), never the system
    // temp dir.
    let scratch = PathBuf::from(".bench_scratch").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let outcome = std::panic::catch_unwind(|| run(&args, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_scratch");
    let Ok(report) = outcome else {
        std::process::exit(3);
    };
    if let Some(path) = &args.out {
        std::fs::write(path, report.document()).expect("write --out document");
    }
    print!("{}", report.lines());
    println!("{}", report.result_line());
    if report.failed > 0 {
        eprintln!(
            "benchmark: {} of {} checks failed",
            report.failed, report.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_server::{json, Json};
    use report::{Metric, END_TO_END, PER_LAYER};

    fn is_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names = workload_names();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| is_name(n)), "{names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` and the bin must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_what_the_bin_emits() {
        let contract = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let field = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let listed = |key: &str| -> Vec<Json> {
            contract
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .to_vec()
        };
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, workload_names());
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows: Vec<(String, String, String)> = listed(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|m: &Metric| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect();
            assert_eq!(rows, ours, "{key}");
        }
        let paths = listed("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }

    fn smoke(workload: &'static str, traced: bool) {
        let entry = *WORKLOADS
            .iter()
            .find(|(name, _)| *name == workload)
            .expect("known workload");
        let scratch = PathBuf::from(format!(
            ".bench_scratch/test-{}-{workload}-{traced}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).expect("create scratch dir");
        let args = Args {
            workload: entry,
            seed: 5,
            seconds: 1.0,
            traced,
            out: None,
            smoke: true,
        };
        let report = run(&args, &scratch);
        std::fs::remove_dir_all(&scratch).expect("remove scratch dir");
        let _ = std::fs::remove_dir(".bench_scratch");
        assert_eq!(report.failed, 0, "{workload} traced={traced}");
        assert!(report.attempted > 0);
        // Every metric of the table is present, finite, and — end to end —
        // never zero.
        let line = json::parse(&report.result_line()).expect("result line is JSON");
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        let table = if traced { PER_LAYER } else { END_TO_END };
        assert_eq!(metrics.len(), table.len());
        for (metric, (name, entry)) in table.iter().zip(metrics) {
            assert_eq!(metric.name, name);
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            // A layer the workload does not exercise reads 0; the upserts
            // are what `write_mix` exists for.
            let exercised =
                !traced || (workload, name.as_str()) == ("write_mix", "client.upsert_p50_us");
            assert!(
                value.is_finite() && (value > 0.0 || !exercised),
                "{workload} {name} = {value}"
            );
        }
        assert!(report.document().trim_end().ends_with("\"claim\": null\n}"));
    }

    #[test]
    fn smoke_edge_hot() {
        smoke("edge_hot", false);
        smoke("edge_hot", true);
    }

    #[test]
    fn smoke_write_mix() {
        smoke("write_mix", false);
        smoke("write_mix", true);
    }

    #[test]
    fn smoke_router_batch() {
        smoke("router_batch", false);
        smoke("router_batch", true);
    }

    #[test]
    fn smoke_batch_full() {
        smoke("batch_full", false);
        smoke("batch_full", true);
    }

    #[test]
    fn smoke_model_refresh() {
        smoke("model_refresh", false);
        smoke("model_refresh", true);
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |line: &str| parse_args(&line.split(' ').map(String::from).collect::<Vec<_>>());
        let args = parse("--workload edge_hot --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (args.workload.0, args.seed, args.seconds, args.traced),
            ("edge_hot", 9, 3.0, true)
        );
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload edge_hot --trace 2",
            "--workload edge_hot --seconds 0",
            "--workload edge_hot --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
