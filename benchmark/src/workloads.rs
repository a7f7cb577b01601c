//! The five workloads' end-to-end runs (`--trace 0`): set up, check
//! answers against the oracle, run the timed window, tear down, set up
//! twice more for a steadier set-up time, report.

use crate::data::{Dataset, Popularity, Probes, K};
use crate::edge::{check_probes, merge_segments, run_clients, Edge};
use crate::load::{ClientReport, Edges, OsSample};
use crate::report::{spread, Better, Report};
use crate::router;
use crate::stage::{build_model, concurrency, stage, SetupTimes, Staged};
use graphex_core::{serialize, Engine, GraphExBuilder, InferRequest};
use graphex_serving::{BatchPipeline, KvStore};
use std::path::Path;
use std::time::Instant;

/// Set-ups per run beyond the one the window runs on: of a server or a
/// cluster (1.5–2.5 s each), and of a bare registry (0.3 s each, so its
/// median needs more of them to hold still).
const SETUP_REPEATS: usize = 2;
const STAGED_SETUP_REPEATS: usize = 6;

pub fn oracle_engine(staged: &Staged) -> Engine {
    Engine::from_model(staged.output.model.clone())
}

fn report_setup(report: &mut Report, times: SetupTimes) {
    report.set("setup_s", times.setup_s);
    report.set("build_ms", times.build_ms);
    report.set("publish_to_live_ms", times.publish_to_live_ms);
}

/// Reports a closed-loop window by segment — the primary clients' rate
/// and latency, and the program's CPU per op: the process's CPU minus
/// what every client thread itself used, over the primary ops completed
/// — and counts every client's attempts and failures.
fn report_closed_loop<S>(
    report: &mut Report,
    clients: &[ClientReport],
    ops_per_exchange: f64,
    seg_secs: f64,
    edges: &Edges<S>,
) {
    let segments = merge_segments(clients.iter());
    let ops: Vec<f64> = segments
        .iter()
        .map(|h| h.count() as f64 * ops_per_exchange)
        .collect();
    let quantile_us = |q: f64| {
        segments
            .iter()
            .map(|h| h.quantile(q) / 1e3)
            .collect::<Vec<_>>()
    };
    let rates: Vec<f64> = ops.iter().map(|ops| ops / seg_secs).collect();
    let cpu: Vec<f64> = edges
        .cpu_secs()
        .iter()
        .zip(&ops)
        .enumerate()
        .map(|(segment, (process_secs, ops))| {
            let client_secs: f64 = clients
                .iter()
                .map(|c| c.cpu_nanos[segment] as f64 / 1e9)
                .sum();
            (process_secs - client_secs).max(0.0) * 1e6 / ops.max(1.0)
        })
        .collect();
    report.set_series("ops_per_s", &rates);
    report.set_series("p50_us", &quantile_us(0.50));
    report.set_series("p99_us", &quantile_us(0.99));
    report.set_series("cpu_us_per_op", &cpu);
    report.set("rss_mb", edges.rss_mb);
    for client in clients {
        report.count(client.attempted, client.failed);
    }
}

fn edge_workload(data: &Dataset, scratch: &Path, overlay: bool, report: &mut Report) {
    let (edge, first) = Edge::up(data, &scratch.join("setup0"), overlay, false);
    let popularity = Popularity::new(data.items.len(), data.seed);
    let probes = Probes::new(data, &popularity, &oracle_engine(&edge.staged));
    let (attempted, failed) = check_probes(edge.server.addr(), data, &probes);
    report.count(attempted, failed);

    // With an overlay the answers change as upserts land, so only the
    // read-after-ack check runs inside the window.
    let in_run_probes = (!overlay).then_some(&probes);
    let run = run_clients(
        &edge,
        data,
        &popularity,
        in_run_probes,
        overlay,
        report.seconds,
    );
    report_closed_loop(report, &run.clients, 1.0, run.seg_secs, &run.edges);
    drop(run);
    let refreshes = refresh_cycles(data, &edge.staged);
    edge.down();

    let times = first.with_repeats(SETUP_REPEATS, || {
        let (edge, times) = Edge::up(data, &scratch.join("again"), overlay, false);
        edge.down();
        times
    });
    report_setup(report, times.with_refreshes(&refreshes));
}

/// Refresh cycles sampled after a window, so `build_ms` and
/// `publish_to_live_ms` rest on more than the run's three set-ups.
const REFRESH_CYCLES: usize = 8;

/// Runs [`REFRESH_CYCLES`] build → publish → live → gc cycles on a
/// set-up's registry; returns each cycle's `(build_ms, publish_to_live_ms)`.
fn refresh_cycles(data: &Dataset, staged: &Staged) -> Vec<(f64, f64)> {
    (0..REFRESH_CYCLES)
        .map(|_| {
            let cycle = staged.refresh(data);
            (cycle.build_ms, cycle.publish_to_live_ms)
        })
        .collect()
}

/// The seller-facing API in steady state: ≥95 % store hits, so the time
/// is socket + HTTP + JSON + KV and the kernel is ≈0.
pub fn edge_hot(data: &Dataset, scratch: &Path, report: &mut Report) {
    edge_workload(data, scratch, false, report);
}

/// Writes beside reads: every figure is the reads' (`cpu_us_per_op`
/// carries the overlay applies' CPU too — there is one upsert per 320
/// reads, so that share only moves when an apply gets cheaper or
/// dearer); every upsert is read back after its ack.
pub fn write_mix(data: &Dataset, scratch: &Path, report: &mut Report) {
    edge_workload(data, scratch, true, report);
}

/// The only path through the router: scatter-gather over three shards
/// and batch-sized JSON bodies.
pub fn router_batch(data: &Dataset, scratch: &Path, report: &mut Report) {
    let (cluster, first) = router::Cluster::up(data, &scratch.join("setup0"), false);
    let popularity = Popularity::new(router::population(data), data.seed);
    let probes = Probes::new(
        data,
        &popularity,
        &Engine::from_model(cluster.monolith.clone()),
    );
    let (attempted, failed) = check_probes(cluster.addr(), data, &probes);
    report.count(attempted, failed);

    let run = router::run_clients(&cluster, data, &popularity, &probes, report.seconds);
    let per_envelope = router::ENVELOPE as f64;
    report_closed_loop(report, &run.clients, per_envelope, run.seg_secs, &run.edges);
    drop(run);
    cluster.down();

    let times = first.with_repeats(SETUP_REPEATS, || {
        let (cluster, times) = router::Cluster::up(data, &scratch.join("again"), false);
        cluster.down();
        times
    });
    // More build samples, as elsewhere; publish-to-live here is the
    // cluster's (emit, publish shards, boot), sampled by the set-ups only.
    let builds: Vec<(f64, f64)> = (0..REFRESH_CYCLES)
        .map(|_| (build_model(data).1, f64::INFINITY))
        .collect();
    report_setup(report, times.with_refreshes(&builds));
}

/// Set-up of the workloads that run no server: build → publish → live.
fn staged_setup(data: &Dataset, root: &Path) -> (Staged, SetupTimes) {
    let started = Instant::now();
    let staged = stage(data, root);
    let times = SetupTimes {
        setup_s: started.elapsed().as_secs_f64(),
        build_ms: staged.build_ms,
        publish_to_live_ms: staged.publish_to_live_ms,
    };
    (staged, times)
}

/// Seconds of consecutive passes or cycles that make one segment.
const LONG_OP_SEGMENT_SECS: f64 = 2.0;

/// The figures of a workload whose ops are whole passes or cycles, by
/// the rule every workload follows — computed per segment, the quietest
/// reported. A segment is a run of consecutive ops lasting about
/// [`LONG_OP_SEGMENT_SECS`]; its rate and CPU are over all its ops, its
/// `p50_us` their median, its `p99_us` the slowest of them (with this
/// few samples that is what a 99th percentile is).
fn report_long_ops(report: &mut Report, work_per_op: f64, op_us: &[f64], cpu_secs: &[f64]) {
    let (mut rates, mut cpu, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut start = 0;
    while start < op_us.len() {
        let mut end = start;
        let mut total_us = 0.0;
        while end < op_us.len() && total_us < LONG_OP_SEGMENT_SECS * 1e6 {
            total_us += op_us[end];
            end += 1;
        }
        let ops = &op_us[start..end];
        let work = work_per_op * ops.len() as f64;
        rates.push(work * 1e6 / total_us);
        cpu.push(cpu_secs[start..end].iter().sum::<f64>() * 1e6 / work);
        p50.push(spread(ops, Better::Lower).median);
        p99.push(ops.iter().copied().fold(0.0, f64::max));
        start = end;
    }
    report.set_series("ops_per_s", &rates);
    report.set_series("cpu_us_per_op", &cpu);
    report.set_series("p50_us", &p50);
    report.set_series("p99_us", &p99);
}

/// The paper's "all items" batch: full passes over every item into a
/// fresh store, no HTTP. A pass is the op.
pub fn batch_full(data: &Dataset, scratch: &Path, report: &mut Report) {
    let (staged, first) = staged_setup(data, &scratch.join("setup0"));
    let oracle = oracle_engine(&staged);
    let mut rng = crate::rng::SplitMix64::new(data.seed ^ 0xBA7C4);

    let started = Instant::now();
    let (mut pass_us, mut cpu_secs, mut rss_mb) = (Vec::new(), Vec::new(), 0.0);
    while started.elapsed().as_secs_f64() < report.seconds {
        let store = KvStore::new();
        let cpu_before = OsSample::take().cpu_secs;
        let pass = Instant::now();
        let outcome = BatchPipeline::with_watch(staged.watch.clone(), &store, K, concurrency())
            .run_full(&data.items);
        pass_us.push(pass.elapsed().as_secs_f64() * 1e6);
        cpu_secs.push(OsSample::take().cpu_secs - cpu_before);
        rss_mb = crate::proc::rss_mb();
        report.check(
            "every item processed",
            outcome.items_processed == data.items.len(),
        );
        for _ in 0..64 {
            let item = &data.items[rng.below(data.items.len())];
            let want = oracle.infer(
                &InferRequest::new(&item.title, item.leaf)
                    .k(K)
                    .resolve_texts(true),
            );
            let stored = store
                .get(u64::from(item.id))
                .map(|r| r.keyphrases)
                .unwrap_or_default();
            report.check("stored keyphrases equal the oracle's", stored == want.texts);
        }
    }
    report_long_ops(report, data.items.len() as f64, &pass_us, &cpu_secs);
    report.set("rss_mb", rss_mb);
    let refreshes = refresh_cycles(data, &staged);
    drop(staged);
    let times = first.with_repeats(STAGED_SETUP_REPEATS, || {
        staged_setup(data, &scratch.join("again")).1
    });
    report_setup(report, times.with_refreshes(&refreshes));
}

/// The daily refresh: build → publish → live → gc, back to back, no
/// load. A cycle is the op.
pub fn model_refresh(data: &Dataset, scratch: &Path, report: &mut Report) {
    let (staged, first) = staged_setup(data, &scratch.join("setup0"));

    // Every cycle must reproduce these bytes: the sequential builder's.
    let sequential = GraphExBuilder::new(data.config.clone())
        .add_records(data.records.iter().cloned())
        .build()
        .expect("sequential build");
    let want = serialize::checksum(&serialize::to_bytes(&sequential));
    drop(sequential);
    report.check(
        "pipeline snapshot equals sequential builder snapshot",
        serialize::checksum(&staged.output.bytes) == want,
    );

    let window = Instant::now();
    let (mut build_ms, mut live_ms) = (Vec::new(), Vec::new());
    let (mut cycle_us, mut cpu_secs) = (Vec::new(), Vec::new());
    let mut last_version = staged.watch.version();
    while window.elapsed().as_secs_f64() < report.seconds {
        let cpu_before = OsSample::take().cpu_secs;
        let cycle = staged.refresh(data);
        cpu_secs.push(OsSample::take().cpu_secs - cpu_before);
        cycle_us.push(cycle.total_ms * 1e3);
        build_ms.push(cycle.build_ms);
        live_ms.push(cycle.publish_to_live_ms);
        let ok = cycle.meta.version == last_version + 1 && cycle.meta.checksum == want;
        last_version = cycle.meta.version;
        report.check(
            "refresh cycle published the next version with identical bytes",
            ok,
        );
    }
    let rss_mb = crate::proc::rss_mb();
    report.check(
        "registry verifies the last version",
        staged.registry.verify(last_version).is_ok(),
    );
    report_long_ops(report, data.records.len() as f64, &cycle_us, &cpu_secs);
    report.set("rss_mb", rss_mb);
    drop(staged);

    // Set-up as everywhere else; build and publish from the cycles,
    // which sample them far more often than three set-ups do.
    let times = first.with_repeats(STAGED_SETUP_REPEATS, || {
        staged_setup(data, &scratch.join("again")).1
    });
    report.set("setup_s", times.setup_s);
    report.set_series("build_ms", &build_ms);
    report.set_series("publish_to_live_ms", &live_ms);
}
