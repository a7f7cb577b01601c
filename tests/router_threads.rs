//! The router's scatter runs on its worker's own thread: while a thousand
//! envelopes go through a `LocalCluster`, the process never has more
//! threads than it started with. A binary of its own with this one test,
//! because the count is the whole process's — any test running beside it
//! would move it.

#![cfg(target_os = "linux")]

use graphex_core::GraphExConfig;
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, BuildPlan, MarketsimSource};
use graphex_server::{ClusterConfig, HttpClient, Json, LocalCluster, RouterConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const SHARDS: u32 = 3;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("a Threads: line");
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn scatter_spawns_no_threads() {
    let corpus = ChurnCorpus::new(
        CategorySpec {
            name: "THREADS".into(),
            seed: 0xC7,
            num_leaves: 24,
            products_per_leaf: 8,
            num_items: 400,
            num_sessions: 2_500,
            leaf_id_base: 6_000,
        },
        0.05,
    );
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let built = build(
        &BuildPlan::new(config).jobs(2),
        vec![Box::new(MarketsimSource::new(&corpus))],
    )
    .unwrap();
    let root = std::env::temp_dir().join(format!("graphex-router-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    graphex_pipeline::publish_shards(&built.emit_shards(SHARDS).unwrap(), &root, "gen0").unwrap();
    let roots: Vec<PathBuf> = (0..SHARDS)
        .map(|i| graphex_pipeline::shard_root(&root, i))
        .collect();
    let cluster = LocalCluster::boot(
        &roots,
        &ClusterConfig {
            router: RouterConfig {
                addr: "127.0.0.1:0".into(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();

    // Twelve consecutive items: every envelope spans all three shards.
    let entries: Vec<String> = corpus
        .marketplace()
        .items
        .iter()
        .take(12)
        .map(|item| {
            Json::obj(vec![
                ("title", Json::str(item.title.as_str())),
                ("leaf", Json::uint(u64::from(item.leaf.0))),
            ])
            .render()
        })
        .collect();
    let body = format!(r#"{{"requests":[{}]}}"#, entries.join(","));
    let mut client = HttpClient::connect(cluster.router_addr()).unwrap();
    let fanout = |client: &mut HttpClient| {
        graphex_server::json::parse(&client.get("/statusz").unwrap().text())
            .unwrap()
            .get("fanout_subrequests")
            .and_then(Json::as_u64)
            .unwrap()
    };
    // Once before counting: the pooled connections now exist.
    assert_eq!(client.post_json("/v1/infer", &body).unwrap().status, 200);
    let fanout_before = fanout(&mut client);
    // A thread spawned and joined inside an envelope is gone by the time
    // the reply arrives, so the count is sampled from the side, flat out,
    // while the envelopes are in flight.
    let (stop, most) = (AtomicBool::new(false), AtomicUsize::new(0));
    let threads = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                most.fetch_max(process_threads(), Ordering::Relaxed);
            }
        });
        let threads = process_threads(); // the sampler included
        for _ in 0..1_000 {
            let response = client.post_json("/v1/infer", &body).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
            // The edge caps keep-alive; reconnect when told to.
            if response
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
            {
                client = HttpClient::connect(cluster.router_addr()).unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
        threads
    });
    assert_eq!(
        fanout(&mut client) - fanout_before,
        3_000,
        "an envelope did not span three shards"
    );
    assert_eq!(
        most.load(Ordering::Relaxed),
        threads,
        "threads came and went during the loop"
    );
    assert_eq!(cluster.router().degraded(), 0);

    drop(client);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
