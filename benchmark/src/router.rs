//! `router_batch`: a monolith build split into three shards, a router
//! and three backends booted in-process, C connections posting 16-entry
//! envelopes of Zipf-popular items.

use crate::client::{render_get, Conn};
use crate::data::{keyphrase_spans, render_envelope, Dataset, Popularity, Probes};
use crate::load::{closed_loop, ClientReport, Done, Edges, Op, Window};
use crate::rng::SplitMix64;
use crate::stage::{build_model, concurrency, millis, server_config, SetupTimes};
use graphex_core::GraphExModel;
use graphex_pipeline::{publish_shards, shard_root};
use graphex_server::{ClusterConfig, LocalCluster, RouterConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const SHARDS: u32 = 3;
/// Entries per envelope.
pub const ENVELOPE: usize = 16;
/// Popularity is drawn over the first this-many items, all of which the
/// set-up sends through the router once so the backends' stores are warm.
const POPULATION: usize = 50_000;

pub fn population(data: &Dataset) -> usize {
    POPULATION.min(data.items.len())
}

pub struct Cluster {
    pub cluster: LocalCluster,
    /// The unsharded model the shards were cut from: the oracle.
    pub monolith: GraphExModel,
}

impl Cluster {
    /// Records → monolith build → `emit_shards(3)` → `publish_shards` →
    /// router + backends booted and answering → backends' stores warmed
    /// with the popular items. `publish_to_live_ms` here is emit →
    /// publish → boot → first healthz through the router.
    pub fn up(data: &Dataset, root: &Path, traced: bool) -> (Self, SetupTimes) {
        let started = Instant::now();
        let (output, build_ms) = build_model(data);
        let publish = Instant::now();
        let shards = output.emit_shards(SHARDS).expect("emit shards");
        publish_shards(&shards, root, "bench").expect("publish shards");
        let roots: Vec<PathBuf> = (0..SHARDS).map(|i| shard_root(root, i)).collect();
        // One worker more than the router's pool per backend: a pooled
        // keep-alive connection pins a worker, and the traced run also
        // talks to the backends directly.
        let mut backend = server_config(traced);
        backend.workers = concurrency() + 1;
        let config = ClusterConfig {
            router: RouterConfig {
                addr: "127.0.0.1:0".into(),
                workers: concurrency(),
                queue_depth: backend.queue_depth,
                keep_alive_timeout: backend.keep_alive_timeout,
                trace: backend.trace.clone(),
                history: backend.history.clone(),
                ..RouterConfig::default()
            },
            backend,
            ..ClusterConfig::default()
        };
        let cluster = LocalCluster::boot(&roots, &config).expect("boot cluster");
        let mut conn = Conn::connect(cluster.router_addr()).expect("connect");
        assert_eq!(
            conn.round_trip(&render_get("/healthz"))
                .expect("healthz")
                .status,
            200
        );
        drop(conn);
        let publish_to_live_ms = millis(publish);

        let addr = cluster.router_addr();
        let warm: Vec<usize> = (0..population(data)).collect();
        let per_thread = warm.len().div_ceil(concurrency());
        std::thread::scope(|scope| {
            for slice in warm.chunks(per_thread) {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).expect("connect");
                    let (mut body, mut request) = (Vec::new(), Vec::new());
                    for envelope in slice.chunks(ENVELOPE) {
                        render_envelope(data, envelope, &mut body, &mut request);
                        assert_eq!(conn.round_trip(&request).expect("warm").status, 200);
                    }
                });
            }
        });
        let times = SetupTimes {
            setup_s: started.elapsed().as_secs_f64(),
            build_ms,
            publish_to_live_ms,
        };
        (
            Self {
                cluster,
                monolith: output.model,
            },
            times,
        )
    }

    pub fn addr(&self) -> SocketAddr {
        self.cluster.router_addr()
    }

    pub fn down(self) {
        self.cluster.shutdown();
    }
}

/// One client's envelope stream; every entry that is a probe item is
/// checked against the (monolith) oracle, so sharded ≡ monolith.
pub struct Enveloper<'a> {
    data: &'a Dataset,
    popularity: &'a Popularity,
    probes: &'a Probes,
    rng: SplitMix64,
    indices: [usize; ENVELOPE],
    body: Vec<u8>,
    request: Vec<u8>,
}

impl<'a> Enveloper<'a> {
    pub fn new(
        data: &'a Dataset,
        popularity: &'a Popularity,
        probes: &'a Probes,
        rng: SplitMix64,
    ) -> Self {
        Self {
            data,
            popularity,
            probes,
            rng,
            indices: [0; ENVELOPE],
            body: Vec::new(),
            request: Vec::new(),
        }
    }

    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

impl Op for Enveloper<'_> {
    fn prepare(&mut self) {
        for slot in &mut self.indices {
            *slot = self.popularity.sample(&mut self.rng);
        }
        render_envelope(self.data, &self.indices, &mut self.body, &mut self.request);
    }

    fn exchange(&mut self, conn: &mut Conn) -> std::io::Result<Done> {
        let reply = conn.round_trip(&self.request)?;
        let mut spans = keyphrase_spans(reply.body);
        let ok = reply.status == 200
            && self.indices.iter().all(|&index| {
                spans
                    .next()
                    .is_some_and(|keyphrases| self.probes.check(index, keyphrases) != Some(false))
            })
            && spans.next().is_none();
        Ok(Done::Primary { ok })
    }
}

pub struct RouterRun {
    pub clients: Vec<ClientReport>,
    /// Router `degraded` counter at the window's edges.
    pub edges: Edges<u64>,
    pub seg_secs: f64,
}

pub fn run_clients(
    cluster: &Cluster,
    data: &Dataset,
    popularity: &Popularity,
    probes: &Probes,
    seconds: f64,
) -> RouterRun {
    let addr = cluster.addr();
    let mut rng = SplitMix64::new(data.seed ^ 0x2007E2);
    let window = Window::opening_now(seconds);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..concurrency())
            .map(|_| {
                let mut op = Enveloper::new(data, popularity, probes, rng.fork());
                let window = &window;
                scope.spawn(move || closed_loop(window, addr, &mut op))
            })
            .collect();
        let edges = Edges::watch(&window, || cluster.cluster.router().degraded());
        RouterRun {
            clients: clients
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect(),
            edges,
            seg_secs: window.seg_secs(),
        }
    })
}
