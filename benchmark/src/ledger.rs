//! The traced run (`--trace 1`): a per-layer ledger measured from
//! outside the program. Part one replays a fixed sample of the
//! workload's inputs, single-threaded, through each layer's public
//! function with a clock around the call. Part two runs the workload
//! itself in short interleaved arms with the program's tracing off and
//! on, and reads the program's public counters at the boundaries.

use crate::client::{render_get, Conn};
use crate::data::{render_envelope, render_infer, Dataset, Popularity, Probes, K};
use crate::edge::{self, check_probes, merge_segments, Edge, EdgeRun, Healthz};
use crate::hist::Hist;
use crate::load::{closed_loop, ClientReport, Done, Op, Window};
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::router::{self, Cluster, Enveloper, ENVELOPE, SHARDS};
use crate::stage::{build_model, concurrency, millis, Staged};
use crate::workloads::oracle_engine;
use graphex_core::{serialize, GraphExBuilder, InferRequest, KeyphraseRecord, LeafId, Outcome};
use graphex_pipeline::{build, BuildPlan, DeltaBase, VecSource};
use graphex_server::{http, json, HttpMetrics, Json};
use graphex_serving::{BatchPipeline, KvStore, OverlayStore, ServeStats, ServingApi};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests in the replayed sample.
const SAMPLE: usize = 20_000;
/// Overlay applies timed per variant (an apply to an existing leaf
/// rebuilds that leaf's mini graph — milliseconds, not microseconds).
const OVERLAY_SAMPLES: usize = 96;
/// Items in the batch-scaling passes.
const BATCH_ITEMS: usize = 50_000;

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Median nanoseconds of `call(i)` over `0..count`, timed in groups of
/// eight so the clock reads do not dominate sub-microsecond calls.
fn median_ns(count: usize, mut call: impl FnMut(usize)) -> f64 {
    const GROUP: usize = 8;
    let mut samples = Vec::with_capacity(count / GROUP + 1);
    let mut next = 0;
    while next < count {
        let end = (next + GROUP).min(count);
        let started = Instant::now();
        for i in next..end {
            call(i);
        }
        samples.push(started.elapsed().as_nanos() as f64 / (end - next) as f64);
        next = end;
    }
    median(samples)
}

/// The replayed sample: item indices drawn the way the workload draws
/// them (by popularity for the HTTP workloads, evenly across the catalog
/// for the two that walk every item or none).
fn draw_sample(workload: &str, data: &Dataset) -> Vec<usize> {
    let count = SAMPLE.min(data.items.len() * 4);
    let mut rng = SplitMix64::new(data.seed ^ 0x5A3B1E);
    match workload {
        "batch_full" | "model_refresh" => {
            (0..count).map(|i| i * data.items.len() / count).collect()
        }
        "router_batch" => {
            let popularity = Popularity::new(router::population(data), data.seed);
            (0..count).map(|_| popularity.sample(&mut rng)).collect()
        }
        _ => {
            let popularity = Popularity::new(data.items.len(), data.seed);
            (0..count).map(|_| popularity.sample(&mut rng)).collect()
        }
    }
}

fn infer_request<'a>(data: &'a Dataset, index: usize, id: u64) -> InferRequest<'a> {
    let item = &data.items[index];
    InferRequest::new(&item.title, item.leaf)
        .k(K)
        .id(id)
        .resolve_texts(true)
}

/// Replayed medians the residual is computed from.
struct ServingLayers {
    read_request_ns: f64,
    write_response_ns: f64,
    parse_ns: f64,
    render_ns: f64,
    serve_hit_ns: f64,
    serve_miss_ns: f64,
}

/// HTTP framing, JSON, store, serving facade, engine and tokenizer over
/// the sample, against a warmed single-server stack.
fn replay_serving(
    plain: &Edge,
    data: &Dataset,
    sample: &[usize],
    report: &mut Report,
) -> ServingLayers {
    let mut conn = Conn::connect(plain.server.addr()).expect("connect");
    let (mut body, mut request) = (Vec::new(), Vec::new());

    // Single requests: the wire bytes, and the server's actual answers.
    let mut bodies = Vec::with_capacity(sample.len());
    let mut requests = Vec::with_capacity(sample.len());
    let mut answers = Vec::with_capacity(sample.len());
    for &index in sample {
        let item = &data.items[index];
        render_infer(item, u64::from(item.id), &mut body, &mut request);
        let reply = conn.round_trip(&request).expect("sample request");
        assert_eq!(reply.status, 200);
        answers.push(String::from_utf8(reply.body.to_vec()).expect("UTF-8 response"));
        bodies.push(String::from_utf8(body.clone()).expect("UTF-8 body"));
        requests.push(request.clone());
    }
    // 16-entry envelopes over consecutive sample entries.
    let mut batch_bodies = Vec::new();
    let mut batch_answers = Vec::new();
    for chunk in sample.chunks_exact(ENVELOPE) {
        render_envelope(data, chunk, &mut body, &mut request);
        let reply = conn.round_trip(&request).expect("sample envelope");
        assert_eq!(reply.status, 200);
        batch_answers.push(String::from_utf8(reply.body.to_vec()).expect("UTF-8 response"));
        batch_bodies.push(String::from_utf8(body.clone()).expect("UTF-8 body"));
    }
    drop(conn);

    let read_request_ns = median_ns(requests.len(), |i| {
        let mut wire = &requests[i][..];
        std::hint::black_box(http::read_request(&mut wire, 1 << 20).expect("well-formed"));
    });
    let mut out = Vec::with_capacity(4096);
    let write_response_ns = median_ns(answers.len(), |i| {
        out.clear();
        http::write_response(
            &mut out,
            200,
            "application/json",
            answers[i].as_bytes(),
            true,
            &[],
        )
        .expect("write to Vec");
        std::hint::black_box(&out);
    });
    let parse_ns = median_ns(bodies.len(), |i| {
        std::hint::black_box(json::parse(&bodies[i]).expect("valid JSON"));
    });
    let trees: Vec<Json> = answers
        .iter()
        .map(|a| json::parse(a).expect("valid JSON"))
        .collect();
    let render_ns = median_ns(trees.len(), |i| {
        std::hint::black_box(trees[i].render());
    });
    report.set("server.http.read_request_ns", read_request_ns);
    report.set("server.http.write_response_ns", write_response_ns);
    report.set("server.json.parse_ns", parse_ns);
    report.set("server.json.render_ns", render_ns);
    report.set(
        "server.json.parse_batch16_ns",
        median_ns(batch_bodies.len(), |i| {
            std::hint::black_box(json::parse(&batch_bodies[i]).expect("valid JSON"));
        }),
    );
    let batch_trees: Vec<Json> = batch_answers
        .iter()
        .map(|a| json::parse(a).expect("valid JSON"))
        .collect();
    report.set(
        "server.json.render_batch16_ns",
        median_ns(batch_trees.len(), |i| {
            std::hint::black_box(batch_trees[i].render());
        }),
    );

    // Store: reads of the warmed store, writes into an empty one.
    let ids: Vec<u64> = sample
        .iter()
        .map(|&i| u64::from(data.items[i].id))
        .collect();
    report.set(
        "serving.kv.get_ns",
        median_ns(ids.len(), |i| {
            std::hint::black_box(plain.store.get(ids[i]));
        }),
    );
    let mut values: Vec<Vec<String>> = ids
        .iter()
        .map(|&id| {
            plain
                .store
                .get(id)
                .map(|r| r.keyphrases)
                .unwrap_or_default()
        })
        .collect();
    let empty = KvStore::new();
    report.set(
        "serving.kv.put_ns",
        median_ns(ids.len(), |i| {
            empty.put(
                ids[i],
                std::mem::take(&mut values[i]),
                Outcome::ExactLeaf,
                1,
            );
        }),
    );

    // Serving facade: hits on the warmed store; misses under fresh ids
    // (read-through and write-back) on a facade over an empty store.
    let serve_hit_ns = median_ns(sample.len(), |i| {
        std::hint::black_box(
            plain
                .api
                .serve_request(&infer_request(data, sample[i], ids[i])),
        );
    });
    let cold = ServingApi::with_watch(plain.staged.watch.clone(), Arc::new(KvStore::new()), K);
    let serve_miss_ns = median_ns(sample.len(), |i| {
        let fresh = (1 << 41) + i as u64;
        std::hint::black_box(cold.serve_request(&infer_request(data, sample[i], fresh)));
    });
    report.set("serving.api.serve_hit_ns", serve_hit_ns);
    report.set("serving.api.serve_miss_ns", serve_miss_ns);

    // Engine and tokenizer.
    let engine = plain.staged.watch.current().engine.clone();
    report.set(
        "core.inference.infer_ns",
        median_ns(sample.len(), |i| {
            std::hint::black_box(engine.infer(&infer_request(data, sample[i], ids[i])));
        }),
    );
    let overlay = OverlayStore::new();
    let mut leaves: Vec<LeafId> = sample.iter().map(|&i| data.items[i].leaf).collect();
    leaves.sort_unstable();
    leaves.dedup();
    for leaf in &leaves {
        overlay
            .apply(
                engine.model(),
                &[KeyphraseRecord::new("ledger overlaid phrase", *leaf, 50, 4)],
            )
            .expect("overlay apply");
    }
    let view = overlay.view();
    report.set(
        "core.inference.infer_overlaid_ns",
        median_ns(sample.len(), |i| {
            let request = infer_request(data, sample[i], ids[i]);
            std::hint::black_box(engine.infer_with_overlay(&request, Some(&view)));
        }),
    );
    report.set(
        "textkit.tokenize_ns",
        median_ns(sample.len(), |i| {
            std::hint::black_box(engine.model().tokenize_title(&data.items[sample[i]].title));
        }),
    );

    // Batch pass: one thread, then C.
    let items = &data.items[..BATCH_ITEMS.min(data.items.len())];
    let rate = |threads: usize| {
        let store = KvStore::new();
        let started = Instant::now();
        BatchPipeline::with_watch(plain.staged.watch.clone(), &store, K, threads).run_full(items);
        items.len() as f64 / started.elapsed().as_secs_f64()
    };
    let single = rate(1);
    report.set("serving.batch.items_per_s_1thread", single);
    report.set("serving.batch.scaling", rate(concurrency()) / single);

    ServingLayers {
        read_request_ns,
        write_response_ns,
        parse_ns,
        render_ns,
        serve_hit_ns,
        serve_miss_ns,
    }
}

/// `OverlayStore::apply` in the three situations that cost differently.
fn replay_overlay(staged: &Staged, data: &Dataset, report: &mut Report) {
    let active = staged.watch.current();
    let model = active.engine.model();
    let mut rng = SplitMix64::new(data.seed ^ 0x0E41A7);
    let record = |leaf: LeafId, n: usize| {
        let item = &data.items[n % data.items.len()];
        let mut words = item.title.split(' ');
        KeyphraseRecord::new(
            format!(
                "{} {} led{n}",
                words.next().unwrap_or("x"),
                words.next().unwrap_or("y")
            ),
            leaf,
            50,
            4,
        )
    };
    let existing_leaf = |rng: &mut SplitMix64| data.items[rng.below(data.items.len())].leaf;

    // An existing leaf with nothing pending: a fresh store per apply.
    let leaves: Vec<LeafId> = (0..OVERLAY_SAMPLES)
        .map(|_| existing_leaf(&mut rng))
        .collect();
    report.set(
        "serving.overlay.apply_ns",
        median_ns(OVERLAY_SAMPLES, |i| {
            OverlayStore::new()
                .apply(model, &[record(leaves[i], i)])
                .expect("apply");
        }),
    );
    // The same leaf with 128 records already pending.
    let deep = OverlayStore::new();
    let leaf = leaves[0];
    for n in 0..128 {
        deep.apply(model, &[record(leaf, n)]).expect("apply");
    }
    report.set(
        "serving.overlay.apply_depth128_ns",
        median_ns(OVERLAY_SAMPLES / 4, |i| {
            deep.apply(model, &[record(leaf, 128 + i)]).expect("apply");
        }),
    );
    // Leaves the snapshot has never seen.
    let fresh = OverlayStore::new();
    report.set(
        "serving.overlay.apply_new_leaf_ns",
        median_ns(OVERLAY_SAMPLES, |i| {
            fresh
                .apply(model, &[record(LeafId(9_000_000 + i as u32), i)])
                .expect("apply");
        }),
    );
}

/// Builder, pipeline (full and delta), serializer and registry: single
/// calls (they take tens to hundreds of milliseconds each).
fn replay_build(staged: &Staged, data: &Dataset, report: &mut Report) {
    let started = Instant::now();
    let sequential = GraphExBuilder::new(data.config.clone())
        .add_records(data.records.iter().cloned())
        .build()
        .expect("sequential build");
    report.set("core.builder.build_ms", millis(started));

    let started = Instant::now();
    let bytes = serialize::to_bytes(&sequential);
    report.set("core.serialize.to_bytes_ms", millis(started));
    let started = Instant::now();
    std::hint::black_box(serialize::from_bytes(&bytes).expect("load"));
    report.set("core.serialize.load_ms", millis(started));
    report.check(
        "pipeline bytes equal sequential builder bytes",
        bytes[..] == staged.output.bytes[..],
    );
    drop(sequential);

    // Twice, the quieter one: a single build is easily disturbed.
    let (mut output, full_ms) = build_model(data);
    report.set("pipeline.build.full_ms", full_ms.min(build_model(data).1));

    // Delta: the published snapshot as base, 0.5 % of the records churned
    // — all in the lowest leaves, as a day's churn clusters in a few
    // categories, so most leaves are borrowed from the base.
    let base = DeltaBase::load(staged.registry.root()).expect("delta base");
    let mut churned = data.records.clone();
    churned.sort_by_key(|r| r.leaf);
    let step = churned.len() / 200;
    for record in &mut churned[..step] {
        record.search_count += 7;
    }
    let plan = BuildPlan::new(data.config.clone())
        .jobs(concurrency())
        .delta(base);
    let source = VecSource::new("churned", churned);
    let started = Instant::now();
    let delta = build(&plan, vec![Box::new(source)]).expect("delta build");
    report.set("pipeline.build.delta_ms", millis(started));
    report.check(
        "delta build reuses unchanged leaves",
        delta.report.leaves_reused > 0,
    );

    let started = Instant::now();
    let meta = output.publish(&staged.registry, "ledger").expect("publish");
    report.set("serving.registry.publish_ms", millis(started));
    let started = Instant::now();
    staged.registry.activate(meta.version).expect("activate");
    report.set("serving.registry.activate_ms", millis(started));
    report.check(
        "registry verifies the published version",
        staged.registry.verify(meta.version).is_ok(),
    );
}

/// Parsed `GET /statusz`.
fn statusz(addr: SocketAddr) -> Json {
    let mut conn = Conn::connect(addr).expect("connect");
    let reply = conn.round_trip(&render_get("/statusz")).expect("statusz");
    json::parse(std::str::from_utf8(reply.body).expect("UTF-8 statusz")).expect("statusz JSON")
}

/// Copies the program's own stage medians out of `/statusz` documents
/// (several for a cluster: the slowest shard's value is kept).
fn copy_stage_medians(documents: &[Json], report: &mut Report) {
    for stage in [
        "queue_wait",
        "parse",
        "kv_lookup",
        "traversal",
        "ranking",
        "serialize",
        "fanout",
    ] {
        let slowest = documents
            .iter()
            .filter_map(|doc| {
                doc.get("trace")?
                    .get("stages")?
                    .get(stage)?
                    .get("p50_us")?
                    .as_f64()
            })
            .fold(0.0, f64::max);
        report.set(&format!("server.trace.{stage}_p50_us"), slowest);
    }
}

/// The arms of one stack (tracing off, or on), accumulated.
#[derive(Default)]
struct Arms {
    ops_per_s: Vec<f64>,
    /// Latency of the primary op (requests or envelopes).
    primary: Hist,
    /// Send → ack of `write_mix`'s upserts.
    upserts: Hist,
    clients: Vec<ClientReport>,
    sched_wait_share: Vec<f64>,
}

impl Arms {
    fn add(&mut self, clients: Vec<ClientReport>, secs: f64, per_op: f64) {
        let count: u64 = clients
            .iter()
            .flat_map(|c| &c.latency)
            .map(Hist::count)
            .sum();
        self.ops_per_s.push(count as f64 * per_op / secs);
        for hist in merge_segments(clients.iter()) {
            self.primary.merge(&hist);
        }
        for client in &clients {
            self.upserts.merge(&client.side);
        }
        self.clients.extend(clients);
    }
}

/// Matched-pair tracing overhead on throughput, in percent: arms run
/// off, on, on, off so drift cancels.
fn overhead_pct(off: &Arms, on: &Arms) -> f64 {
    let ratios: Vec<f64> = off
        .ops_per_s
        .iter()
        .zip(&on.ops_per_s)
        .map(|(off, on)| on / off)
        .collect();
    100.0 * (1.0 - median(ratios))
}

fn report_clients(report: &mut Report, off: &Arms, on: &Arms) {
    report.set("client.p50_us", off.primary.quantile(0.5) / 1e3);
    report.set("client.upsert_p50_us", off.upserts.quantile(0.5) / 1e3);
    let mut all = off.primary.clone();
    all.merge(&on.primary);
    report.set("client.p999_us", all.quantile(0.999) / 1e3);
    report.set("client.max_us", all.max_nanos() as f64 / 1e3);
    let clients = || off.clients.iter().chain(&on.clients);
    report.set(
        "client.reconnects",
        clients().map(|c| c.reconnects).sum::<u64>() as f64,
    );
    for client in clients() {
        report.count(client.attempted, client.failed);
    }
    report.set("server.trace.overhead_pct", overhead_pct(off, on));
    let waits = off
        .sched_wait_share
        .iter()
        .chain(&on.sched_wait_share)
        .copied()
        .collect();
    report.set("harness.sched_wait_share", median(waits));
}

/// The edge's own connection counters.
fn report_connections(report: &mut Report, metrics: &HttpMetrics) {
    let load = |counter: &std::sync::atomic::AtomicU64| {
        counter.load(std::sync::atomic::Ordering::Relaxed) as f64
    };
    report.set(
        "server.server.connections_accepted",
        load(&metrics.connections_accepted),
    );
    report.set("server.server.shed", load(&metrics.connections_shed));
}

/// `GET /healthz` closed loop on C connections: the edge floor.
fn healthz_p50_us(addr: SocketAddr, seconds: f64) -> f64 {
    let window = Window::opening_now(seconds);
    let clients: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency())
            .map(|_| {
                let window = &window;
                scope.spawn(move || closed_loop(window, addr, &mut Healthz::default()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("healthz thread"))
            .collect()
    });
    let mut all = Hist::default();
    for hist in merge_segments(clients.iter()) {
        all.merge(&hist);
    }
    all.quantile(0.5) / 1e3
}

/// Milliseconds `shutdown` takes with one idle keep-alive client
/// attached (today about `keep_alive_timeout`).
fn shutdown_idle_ms(addr: SocketAddr, shutdown: impl FnOnce()) -> f64 {
    let mut idle = Conn::connect(addr).expect("connect");
    assert_eq!(
        idle.round_trip(&render_get("/healthz"))
            .expect("healthz")
            .status,
        200
    );
    let started = Instant::now();
    shutdown();
    let took = millis(started);
    drop(idle);
    took
}

/// `edge_hot` / `write_mix` live: arms on a tracing-off and a tracing-on
/// stack, the floor, the residual, the program's counters.
fn live_edge(
    off: Edge,
    overlay: bool,
    layers: &ServingLayers,
    data: &Dataset,
    scratch: &Path,
    report: &mut Report,
) {
    let (on, _) = Edge::up(data, &scratch.join("traced"), overlay, true);
    let popularity = Popularity::new(data.items.len(), data.seed);
    let probes = Probes::new(data, &popularity, &oracle_engine(&off.staged));
    for stack in [&off, &on] {
        let (attempted, failed) = check_probes(stack.server.addr(), data, &probes);
        report.count(attempted, failed);
    }
    let in_run_probes = (!overlay).then_some(&probes);
    let arm_secs = report.seconds / 8.0;

    let (mut off_arms, mut on_arms) = (Arms::default(), Arms::default());
    let mut stats = ServeStats::default();
    let mut depth_max = 0;
    for traced in [false, true, true, false] {
        let (stack, arms) = if traced {
            (&on, &mut on_arms)
        } else {
            (&off, &mut off_arms)
        };
        let EdgeRun {
            clients,
            journal_depth_max,
            edges,
            seg_secs,
        } = edge::run_clients(stack, data, &popularity, in_run_probes, overlay, arm_secs);
        depth_max = depth_max.max(journal_depth_max);
        let window_secs = seg_secs * clients[0].latency.len() as f64;
        arms.add(clients, window_secs, 1.0);
        arms.sched_wait_share.push(edges.sched_wait_share());
        if !traced {
            // Serving counters over the tracing-off arms, as end to end.
            let (before, after) = &edges.program;
            stats.store_hits += after.store_hits - before.store_hits;
            stats.read_throughs += after.read_throughs - before.read_throughs;
            stats.coalesced += after.coalesced - before.coalesced;
            stats.direct += after.direct - before.direct;
            stats.overlay_invalidated += after.overlay_invalidated - before.overlay_invalidated;
        }
    }
    report_clients(report, &off_arms, &on_arms);

    let keyed = (stats.store_hits + stats.read_throughs + stats.coalesced).max(1) as f64;
    let hit_ratio = stats.store_hits as f64 / keyed;
    report.set("serving.api.hit_ratio", hit_ratio);
    report.set("serving.api.coalesced", stats.coalesced as f64);
    report.set(
        "serving.api.overlay_invalidated_share",
        stats.overlay_invalidated as f64 / keyed,
    );
    report.set("serving.overlay.journal_depth_max", depth_max as f64);

    let floor_us = healthz_p50_us(off.server.addr(), arm_secs);
    report.set("server.server.healthz_p50_us", floor_us);
    // What the replayed layers and the floor leave unexplained of a
    // read's median: reported, not gated.
    let replayed_us = (layers.read_request_ns
        + layers.parse_ns
        + hit_ratio * layers.serve_hit_ns
        + (1.0 - hit_ratio) * layers.serve_miss_ns
        + layers.render_ns
        + layers.write_response_ns)
        / 1e3;
    report.set(
        "server.server.residual_us",
        off_arms.primary.quantile(0.5) / 1e3 - floor_us - replayed_us,
    );

    copy_stage_medians(&[statusz(on.server.addr())], report);
    report_connections(report, off.server.metrics());
    off.down();
    let addr = on.server.addr();
    report.set(
        "server.server.shutdown_idle_ms",
        shutdown_idle_ms(addr, || on.down()),
    );
}

/// One envelope's entries grouped by owning shard, rendered as one
/// sub-envelope per shard that owns any.
fn split_by_shard(data: &Dataset, indices: &[usize]) -> Vec<(usize, Vec<u8>)> {
    let mut body = Vec::new();
    (0..SHARDS)
        .filter_map(|shard| {
            let owned: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| graphex_pipeline::shard_of(data.items[i].leaf, SHARDS) == shard)
                .collect();
            if owned.is_empty() {
                return None;
            }
            let mut request = Vec::new();
            render_envelope(data, &owned, &mut body, &mut request);
            Some((shard as usize, request))
        })
        .collect()
}

/// `router_batch` live: arms on two clusters, then — one connection, no
/// other load — the same envelopes through the router and straight to
/// the backends that own their entries.
fn live_router(data: &Dataset, scratch: &Path, report: &mut Report) {
    let (off, _) = Cluster::up(data, &scratch.join("cluster"), false);
    let (on, _) = Cluster::up(data, &scratch.join("cluster-traced"), true);
    let popularity = Popularity::new(router::population(data), data.seed);
    let probes = Probes::new(
        data,
        &popularity,
        &graphex_core::Engine::from_model(off.monolith.clone()),
    );
    for cluster in [&off, &on] {
        let (attempted, failed) = check_probes(cluster.addr(), data, &probes);
        report.count(attempted, failed);
    }
    let arm_secs = report.seconds / 8.0;
    let (mut off_arms, mut on_arms) = (Arms::default(), Arms::default());
    let before = statusz(off.addr());
    for traced in [false, true, true, false] {
        let (cluster, arms) = if traced {
            (&on, &mut on_arms)
        } else {
            (&off, &mut off_arms)
        };
        let run = router::run_clients(cluster, data, &popularity, &probes, arm_secs);
        let window_secs = run.seg_secs * run.clients[0].latency.len() as f64;
        arms.sched_wait_share.push(run.edges.sched_wait_share());
        arms.add(run.clients, window_secs, ENVELOPE as f64);
    }
    report_clients(report, &off_arms, &on_arms);
    let after = statusz(off.addr());
    let counter = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    let envelopes = counter(&after, "requests_in") - counter(&before, "requests_in");
    let fanout = counter(&after, "fanout_subrequests") - counter(&before, "fanout_subrequests");
    report.set(
        "server.router.fanout_per_envelope",
        fanout / envelopes.max(1.0),
    );
    let retries: f64 = after
        .get("backends")
        .and_then(Json::as_arr)
        .map_or(0.0, |backends| {
            backends.iter().map(|b| counter(b, "retries")).sum()
        });
    report.set("server.router.retries", retries);
    report.set(
        "server.router.degraded",
        off.cluster.router().degraded() as f64,
    );

    // Router versus direct, one connection each, same envelopes.
    let backends: Vec<SocketAddr> = off.cluster.backends().iter().map(|b| b.addr()).collect();
    let mut to_router = Conn::connect(off.addr()).expect("connect");
    let mut direct: Vec<Conn> = backends
        .iter()
        .map(|&addr| Conn::connect(addr).expect("connect"))
        .collect();
    let mut enveloper = Enveloper::new(
        data,
        &popularity,
        &probes,
        SplitMix64::new(data.seed ^ 0xD12EC7),
    );
    let (mut routed_ns, mut direct_ns) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < arm_secs {
        enveloper.prepare();
        let sent = Instant::now();
        let ok = matches!(
            enveloper.exchange(&mut to_router),
            Ok(Done::Primary { ok: true })
        );
        routed_ns.push(sent.elapsed().as_nanos() as f64);
        report.check("envelope through the router", ok);
        // The slowest shard sets a scatter-gather's time.
        let mut slowest = 0.0f64;
        for (shard, request) in split_by_shard(data, enveloper.indices()) {
            let sent = Instant::now();
            let ok = direct[shard]
                .round_trip(&request)
                .is_ok_and(|r| r.status == 200);
            slowest = slowest.max(sent.elapsed().as_nanos() as f64);
            report.check("sub-envelope straight to a backend", ok);
        }
        direct_ns.push(slowest);
    }
    drop((to_router, direct));
    let direct_us = median(direct_ns) / 1e3;
    report.set("server.router.backend_direct_p50_us", direct_us);
    report.set(
        "server.router.overhead_us",
        median(routed_ns) / 1e3 - direct_us,
    );

    report.set(
        "server.server.healthz_p50_us",
        healthz_p50_us(off.addr(), arm_secs),
    );
    let mut documents = vec![statusz(on.addr())];
    documents.extend(on.cluster.backends().iter().map(|b| statusz(b.addr())));
    copy_stage_medians(&documents, report);
    report_connections(report, off.cluster.router().metrics());
    off.down();
    let addr = on.addr();
    report.set(
        "server.server.shutdown_idle_ms",
        shutdown_idle_ms(addr, || on.down()),
    );
}

/// The traced run of `workload`.
pub fn run(workload: &str, data: &Dataset, scratch: &Path, report: &mut Report) {
    let (plain, _) = Edge::up(data, &scratch.join("plain"), false, false);
    let sample = draw_sample(workload, data);
    let os_before = crate::load::OsSample::take();
    let layers = replay_serving(&plain, data, &sample, report);
    replay_overlay(&plain.staged, data, report);
    replay_build(&plain.staged, data, report);
    match workload {
        "edge_hot" => live_edge(plain, false, &layers, data, scratch, report),
        "write_mix" => {
            plain.down();
            let (off, _) = Edge::up(data, &scratch.join("overlay"), true, false);
            live_edge(off, true, &layers, data, scratch, report);
        }
        "router_batch" => {
            plain.down();
            live_router(data, scratch, report);
        }
        _ => {
            // No server in these workloads: how contended the replay
            // itself was is all there is to add.
            let os_after = crate::load::OsSample::take();
            report.set(
                "harness.sched_wait_share",
                crate::load::sched_wait_share(&os_before, &os_after),
            );
            plain.down();
        }
    }
    report.set(
        "client.error_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
}
