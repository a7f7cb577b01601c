//! `edge_hot` and `write_mix`: one server over a pre-warmed store, C
//! keep-alive connections of Zipf-popular single-item requests — and, in
//! `write_mix`, an overlay and an upsert on every connection after every
//! few hundred reads.

use crate::client::{find, render_get, render_post, Conn};
use crate::data::{keyphrase_spans, render_infer, Dataset, Popularity, Probes, K};
use crate::hist::Hist;
use crate::load::{closed_loop, ClientReport, Done, Edges, Op, Window};
use crate::rng::SplitMix64;
use crate::stage::{concurrency, server_config, stage, SetupTimes, Staged};
use graphex_server::ServerHandle;
use graphex_serving::{BatchPipeline, KvStore, OverlayStore, ServeStats, ServingApi};
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Read requests per second, over all readers, that carry a never-seen
/// id (a new listing: read-through and write-back instead of a store
/// hit) — 2–4 % of the traffic. Listings arrive at their own pace, so
/// this is a rate, not a share: the store then grows by the same amount
/// in every run, however fast the server answers.
const FRESH_PER_SEC: f64 = 1_500.0;
/// Fresh ids start above every item id, stay exact in a JSON number, and
/// are never reused — not by another reader, nor by a later window on the
/// same server (the traced run opens several).
static NEXT_FRESH_ID: AtomicU64 = AtomicU64::new(1 << 40);
/// `write_mix`'s mix: each connection sends one upsert after this many
/// reads (≈165 upserts/s over two connections). By count, not by the
/// clock, so that CPU per read carries the same share of an upsert
/// however many reads a second completes; and on the readers' own
/// connections, so that there are never more runnable threads than in
/// `edge_hot` — with a writer thread of its own, where the scheduler put
/// it decided every figure of the workload.
pub const READS_PER_UPSERT: u64 = 320;
/// The compactor's cadence, in upserts of the connection that plays it:
/// export the journal and drain it.
const DRAIN_EVERY: u64 = 128;
/// Upserts are numbered across connections and windows, so no two carry
/// the same text.
static NEXT_UPSERT: AtomicU64 = AtomicU64::new(1);

pub struct Edge {
    pub staged: Staged,
    pub store: Arc<KvStore>,
    pub api: Arc<ServingApi>,
    pub server: ServerHandle,
}

impl Edge {
    /// Records → build → publish → store pre-warmed by a full batch pass
    /// (Fig. 7's batch path) → server answering its first request.
    pub fn up(data: &Dataset, root: &Path, overlay: bool, traced: bool) -> (Self, SetupTimes) {
        let started = Instant::now();
        let staged = stage(data, root);
        let store = Arc::new(KvStore::new());
        let report = BatchPipeline::with_watch(staged.watch.clone(), &store, K, concurrency())
            .run_full(&data.items);
        assert_eq!(report.items_processed, data.items.len());
        let mut api = ServingApi::with_watch(staged.watch.clone(), Arc::clone(&store), K);
        if overlay {
            api = api.with_overlay(Arc::new(OverlayStore::new()));
        }
        let api = Arc::new(api);
        let server =
            graphex_server::start(server_config(traced), Arc::clone(&api)).expect("bind server");
        let (mut body, mut request) = (Vec::new(), Vec::new());
        render_infer(
            &data.items[0],
            u64::from(data.items[0].id),
            &mut body,
            &mut request,
        );
        let mut conn = Conn::connect(server.addr()).expect("connect");
        assert_eq!(
            conn.round_trip(&request).expect("first request").status,
            200
        );
        let times = SetupTimes {
            setup_s: started.elapsed().as_secs_f64(),
            build_ms: staged.build_ms,
            publish_to_live_ms: staged.publish_to_live_ms,
        };
        (
            Self {
                staged,
                store,
                api,
                server,
            },
            times,
        )
    }

    /// Every client must be gone by now: an idle keep-alive peer holds
    /// `shutdown` for the whole `keep_alive_timeout`.
    pub fn down(self) {
        self.server.shutdown();
    }
}

/// Sends every probe item once and compares with the oracle; returns
/// `(attempted, failed)`.
pub fn check_probes(addr: SocketAddr, data: &Dataset, probes: &Probes) -> (u64, u64) {
    let mut conn = Conn::connect(addr).expect("connect");
    let (mut request, mut body) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for index in probes.indices() {
        let item = &data.items[index];
        render_infer(item, u64::from(item.id), &mut body, &mut request);
        attempted += 1;
        let ok = conn.round_trip(&request).is_ok_and(|reply| {
            reply.status == 200
                && keyphrase_spans(reply.body)
                    .next()
                    .and_then(|k| probes.check(index, k))
                    == Some(true)
        });
        failed += u64::from(!ok);
    }
    (attempted, failed)
}

/// A reader's request stream: Zipf-popular items, a share under fresh
/// ids. With `probes`, every response for a probe item is checked.
pub struct Reader<'a> {
    data: &'a Dataset,
    popularity: &'a Popularity,
    probes: Option<&'a Probes>,
    rng: SplitMix64,
    started: Instant,
    fresh_per_sec: f64,
    fresh_sent: u64,
    item: usize,
    body: Vec<u8>,
    request: Vec<u8>,
}

impl<'a> Reader<'a> {
    pub fn new(
        data: &'a Dataset,
        popularity: &'a Popularity,
        probes: Option<&'a Probes>,
        readers: usize,
        rng: SplitMix64,
    ) -> Self {
        Self {
            data,
            popularity,
            probes,
            rng,
            started: Instant::now(),
            fresh_per_sec: FRESH_PER_SEC / readers as f64,
            fresh_sent: 0,
            item: 0,
            body: Vec::new(),
            request: Vec::new(),
        }
    }
}

impl Op for Reader<'_> {
    fn prepare(&mut self) {
        self.item = self.popularity.sample(&mut self.rng);
        let item = &self.data.items[self.item];
        let fresh_due = (self.started.elapsed().as_secs_f64() * self.fresh_per_sec) as u64;
        let id = if self.fresh_sent < fresh_due {
            self.fresh_sent += 1;
            NEXT_FRESH_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            u64::from(item.id)
        };
        render_infer(item, id, &mut self.body, &mut self.request);
    }

    fn exchange(&mut self, conn: &mut Conn) -> std::io::Result<Done> {
        let reply = conn.round_trip(&self.request)?;
        let ok = reply.status == 200
            && keyphrase_spans(reply.body)
                .next()
                .is_some_and(|keyphrases| {
                    self.probes
                        .and_then(|p| p.check(self.item, keyphrases))
                        .unwrap_or(true)
                });
        Ok(Done::Primary { ok })
    }
}

/// `GET /healthz` back to back: the edge floor (socket + HTTP + routing,
/// no JSON, no store, no model).
pub struct Healthz(Vec<u8>);

impl Default for Healthz {
    fn default() -> Self {
        Self(render_get("/healthz"))
    }
}

impl Op for Healthz {
    fn prepare(&mut self) {}

    fn exchange(&mut self, conn: &mut Conn) -> std::io::Result<Done> {
        let ok = conn.round_trip(&self.0)?.status == 200;
        Ok(Done::Primary { ok })
    }
}

fn number_after(body: &[u8], key: &[u8]) -> Option<u64> {
    let start = find(body, key)? + key.len();
    let digits = body[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&body[start..start + digits])
        .ok()?
        .parse()
        .ok()
}

/// Upsert number `seq`: two words of a popular item's title plus a
/// unique token, into that item's leaf.
fn upsert_for(
    seq: u64,
    data: &Dataset,
    popularity: &Popularity,
    rng: &mut SplitMix64,
) -> (String, u32) {
    let item = &data.items[popularity.sample(rng)];
    let mut words = item.title.split(' ');
    let text = format!(
        "{} {} nrt{seq}",
        words.next().unwrap_or("x"),
        words.next().unwrap_or("y")
    );
    (text, item.leaf.0)
}

/// `write_mix`'s stream on one connection: a [`Reader`]'s requests, and
/// after every [`READS_PER_UPSERT`] of them one upsert, timed from send
/// to ack and followed by a read-back that must show the upserted text
/// (an acked record is servable by the next request). A connection that
/// `compacts` also plays compactor every [`DRAIN_EVERY`] of its upserts:
/// `GET journal` → `POST drain`.
pub struct Mixed<'a> {
    reader: Reader<'a>,
    rng: SplitMix64,
    compacts: bool,
    reads_since_upsert: u64,
    upserts_since_drain: u64,
    /// The upsert `prepare` rendered into `request`, when one is due.
    due: Option<(String, u32)>,
    body: Vec<u8>,
    request: Vec<u8>,
    journal_request: Vec<u8>,
    pub journal_depth_max: u64,
}

impl<'a> Mixed<'a> {
    pub fn new(reader: Reader<'a>, compacts: bool, rng: SplitMix64) -> Self {
        Self {
            reader,
            rng,
            compacts,
            reads_since_upsert: 0,
            upserts_since_drain: 0,
            due: None,
            body: Vec::new(),
            request: Vec::new(),
            journal_request: render_get("/v1/overlay/journal"),
            journal_depth_max: 0,
        }
    }

    /// Upsert (timed) → read-back → compaction when its turn has come.
    fn upsert(&mut self, text: &str, leaf: u32, conn: &mut Conn) -> std::io::Result<Done> {
        let sent = Instant::now();
        let reply = conn.round_trip(&self.request)?;
        let nanos = sent.elapsed().as_nanos() as u64;
        let mut ok = reply.status == 200;
        let depth = number_after(reply.body, br#""depth":"#).unwrap_or(0);
        self.journal_depth_max = self.journal_depth_max.max(depth);

        self.body.clear();
        write!(self.body, r#"{{"title":"{text}","leaf":{leaf},"k":{K}}}"#).expect("write to Vec");
        render_post("/v1/infer", &self.body, &mut self.request);
        let reply = conn.round_trip(&self.request)?;
        let quoted = format!("\"{text}\"");
        ok &= reply.status == 200 && find(reply.body, quoted.as_bytes()).is_some();

        self.upserts_since_drain += 1;
        if self.compacts && self.upserts_since_drain == DRAIN_EVERY {
            self.upserts_since_drain = 0;
            let reply = conn.round_trip(&self.journal_request)?;
            let upto = number_after(reply.body, b"\nupto ").filter(|_| reply.status == 200);
            self.body.clear();
            write!(self.body, r#"{{"upto":{}}}"#, upto.unwrap_or(0)).expect("write to Vec");
            render_post("/v1/overlay/drain", &self.body, &mut self.request);
            ok &= upto.is_some() && conn.round_trip(&self.request)?.status == 200;
        }
        Ok(Done::Side { ok, nanos })
    }
}

impl Op for Mixed<'_> {
    fn prepare(&mut self) {
        if self.reads_since_upsert < READS_PER_UPSERT {
            self.reads_since_upsert += 1;
            return self.reader.prepare();
        }
        self.reads_since_upsert = 0;
        let seq = NEXT_UPSERT.fetch_add(1, Ordering::Relaxed);
        let (text, leaf) = upsert_for(seq, self.reader.data, self.reader.popularity, &mut self.rng);
        self.body.clear();
        write!(
            self.body,
            r#"{{"text":"{text}","leaf":{leaf},"search":50,"recall":4}}"#
        )
        .expect("write to Vec");
        render_post("/v1/upsert", &self.body, &mut self.request);
        self.due = Some((text, leaf));
    }

    fn exchange(&mut self, conn: &mut Conn) -> std::io::Result<Done> {
        match self.due.take() {
            Some((text, leaf)) => self.upsert(&text, leaf, conn),
            None => self.reader.exchange(conn),
        }
    }
}

/// One timed window against an [`Edge`].
pub struct EdgeRun {
    /// One per connection; with `upserts`, `side` holds their latencies.
    pub clients: Vec<ClientReport>,
    pub journal_depth_max: u64,
    pub edges: Edges<ServeStats>,
    pub seg_secs: f64,
}

/// Runs the workload's C clients for `seconds`: readers, which with
/// `upserts` also write (the stack must then carry an overlay).
pub fn run_clients(
    edge: &Edge,
    data: &Dataset,
    popularity: &Popularity,
    probes: Option<&Probes>,
    upserts: bool,
    seconds: f64,
) -> EdgeRun {
    let addr = edge.server.addr();
    let mut rng = SplitMix64::new(data.seed ^ 0xC11E47);
    let window = Window::opening_now(seconds);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..concurrency())
            .map(|client| {
                let mut reader = Reader::new(data, popularity, probes, concurrency(), rng.fork());
                let upsert_rng = rng.fork();
                let window = &window;
                scope.spawn(move || {
                    if !upserts {
                        return (closed_loop(window, addr, &mut reader), 0);
                    }
                    let mut mixed = Mixed::new(reader, client == 0, upsert_rng);
                    let report = closed_loop(window, addr, &mut mixed);
                    (report, mixed.journal_depth_max)
                })
            })
            .collect();
        let edges = Edges::watch(&window, || edge.api.stats());
        let (clients, depths): (Vec<_>, Vec<_>) = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip();
        EdgeRun {
            clients,
            journal_depth_max: depths.into_iter().max().unwrap_or(0),
            edges,
            seg_secs: window.seg_secs(),
        }
    })
}

/// Merges the clients' per-segment histograms.
pub fn merge_segments<'a>(clients: impl Iterator<Item = &'a ClientReport>) -> Vec<Hist> {
    let mut merged: Vec<Hist> = Vec::new();
    for client in clients {
        if merged.is_empty() {
            merged = client.latency.clone();
        } else {
            for (mine, theirs) in merged.iter_mut().zip(&client.latency) {
                mine.merge(theirs);
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_stream_is_deterministic_per_seed() {
        let data = Dataset::generate(5, true);
        let popularity = Popularity::new(data.items.len(), data.seed);
        let stream = |seed| {
            let mut rng = SplitMix64::new(seed);
            (1..50)
                .map(|seq| upsert_for(seq, &data, &popularity, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(9), stream(9));
        assert_ne!(stream(9), stream(10));
        assert!(stream(9)
            .iter()
            .all(|(text, _)| text.split(' ').count() == 3));
    }

    #[test]
    fn numbers_are_read_out_of_replies() {
        assert_eq!(
            number_after(br#"{"seq":7,"depth":41,"x":1}"#, br#""depth":"#),
            Some(41)
        );
        assert_eq!(
            number_after(b"graphex-overlay-journal 1\nupto 12\n", b"\nupto "),
            Some(12)
        );
        assert_eq!(number_after(b"{}", br#""depth":"#), None);
    }
}
