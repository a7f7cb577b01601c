//! # server — the GraphEx network frontend
//!
//! The paper's production system (Sec. IV-H, Fig. 7) serves keyphrases to
//! sellers through an inference API behind eBay's edge; until this crate
//! the reproduction stopped at the library boundary. `graphex-server`
//! puts the serving stack on a real socket: a **dependency-free
//! HTTP/1.1 server** on `std::net::TcpListener` with a fixed worker
//! pool, a bounded accept queue, and production edge behaviours as
//! first-class citizens:
//!
//! * **Admission control** — a full accept queue sheds load with `429`
//!   (plus a `ServeStats::shed` counter) instead of buffering until
//!   collapse.
//! * **Deadlines** — requests that outwait their budget answer `503`
//!   without touching the model.
//! * **Hot swap under traffic** — inference resolves the active model
//!   snapshot per request through [`graphex_serving::ModelWatch`], so
//!   registry publishes and rollbacks land with zero failed requests.
//! * **Graceful shutdown** — stop accepting, drain admitted connections,
//!   finish in-flight requests, wake idle keep-alive peers, join every
//!   thread.
//!
//! All of that is one frontend skeleton, the crate-private `edge` module
//! (accept → bounded queue → workers → keep-alive loop → route table →
//! trace bracket → shutdown). [`server`] and [`router`] are its two
//! handlers: what they add is their domain routes and their members of
//! `/statusz`, `/metrics` and the history ring.
//!
//! Endpoints: `POST /v1/infer` (single or batch JSON envelopes),
//! `GET /healthz`, `GET /statusz` (counters as JSON), and `GET /metrics`
//! (Prometheus text). The JSON codec ([`json`]) and the HTTP wire format
//! ([`http`]) are hand-rolled minimal modules — the workspace is hermetic,
//! so no serde/hyper — and [`client`] is the matching blocking client used
//! by the integration tests, the overhead bench, and `graphex stats --server`.
//!
//! ```no_run
//! use graphex_serving::{KvStore, ServingApi};
//! use std::sync::Arc;
//!
//! # fn demo(model: Arc<graphex_core::GraphExModel>) -> std::io::Result<()> {
//! let api = Arc::new(ServingApi::new(model, Arc::new(KvStore::new()), 10));
//! let server = graphex_server::start(
//!     graphex_server::ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() },
//!     api,
//! )?;
//! println!("serving on http://{}", server.addr());
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

//! ## Scale-out serving
//!
//! One process is the paper's unit of serving, but the reproduction also
//! scales out: [`shardmap`] names N backends each owning the leaves with
//! `leaf % N == shard`, [`router`] is the scatter-gather handler that fans
//! a batch envelope out across those backends (with bounded retries,
//! failure ejection, and half-open re-admission), [`cluster`] boots the
//! whole arrangement in-process for `graphex cluster` and the tests, and
//! [`chaos`] is the deliberately misbehaving backend the chaos tests
//! point the router at.

pub mod chaos;
pub mod client;
pub mod cluster;
pub(crate) mod edge;
pub mod history;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod router;
pub mod server;
pub mod shardmap;
pub mod trace;

pub use chaos::{ChaosBackend, ChaosMode};
pub use client::{HttpClient, Response};
pub use cluster::{ClusterConfig, ClusterError, LocalBackend, LocalCluster, ShardPayload};
pub use history::{sparkline, HistoryConfig, HistorySample, MetricsHistory};
pub use json::Json;
pub use metrics::{Endpoint, HttpMetrics, LatencyHistogram};
pub use router::{
    start_router, RouterConfig, RouterHandle, OUTCOME_BACKEND_UNAVAILABLE, SOURCE_ROUTER_DEGRADED,
};
pub use server::{start, start_fleet, ServerConfig, ServerHandle, MAX_BATCH};
pub use shardmap::ShardMap;
pub use trace::{
    parse_trace_id, BackendTrace, OwnedSpan, TraceConfig, TraceRecord, TraceRecorder, TRACE_HEADER,
};
