//! Multi-tenant serving integration: eight tenants behind one fleet
//! server with a residency cap of three, concurrent per-tenant clients,
//! and explicit evictions plus hot-swap publishes mid-run — the
//! acceptance gate for the tenant fleet.
//!
//! Invariants pinned here:
//! * zero 5xx while tenants are admitted, LRU-evicted, explicitly
//!   evicted, re-admitted, and hot-swapped under live traffic;
//! * tenant isolation under churn — a request to tenant T only ever
//!   answers with T's keyphrases, whatever the residency state;
//! * the residency cap holds at all times (checked after the storm);
//! * evict → re-admit serves answers identical to the tenant's first
//!   admission.

use graphex_core::{GraphExBuilder, GraphExConfig, GraphExModel, KeyphraseRecord, LeafId};
use graphex_server::{HttpClient, ServerConfig};
use graphex_serving::{FleetConfig, TenantFleet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TENANTS: usize = 8;
const RESIDENT_CAP: usize = 3;

fn tenant_name(tag: usize) -> String {
    format!("tenant-{tag}")
}

fn tenant_model(tag: usize) -> GraphExModel {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    GraphExBuilder::new(config)
        .add_records((0..6u32).map(|i| {
            KeyphraseRecord::new(
                format!("tenant{tag} widget edition{i}"),
                LeafId(i % 2),
                100 + i,
                10,
            )
        }))
        .build()
        .unwrap()
}

fn infer_body(tag: usize) -> String {
    format!(r#"{{"title":"tenant{tag} widget edition0","leaf":0,"k":3}}"#)
}

/// Sends one request to `tag`'s tenant path and returns its keyphrases,
/// asserting 2xx and isolation (only `tenantN …` phrases come back).
fn ask(client: &mut HttpClient, tag: usize, context: &str) -> Vec<String> {
    let path = format!("/v1/t/{}/infer", tenant_name(tag));
    let response = client.post_json(&path, &infer_body(tag)).unwrap();
    assert!(
        response.status < 500,
        "{context}: tenant {tag} got 5xx {}: {}",
        response.status,
        response.text()
    );
    assert_eq!(response.status, 200, "{context}: {}", response.text());
    let body = graphex_server::json::parse(&response.text()).unwrap();
    let keyphrases: Vec<String> = body
        .get("keyphrases")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|k| k.as_str().unwrap().to_string())
        .collect();
    assert!(
        !keyphrases.is_empty(),
        "{context}: tenant {tag} answered empty"
    );
    let marker = format!("tenant{tag} ");
    assert!(
        keyphrases.iter().all(|k| k.starts_with(&marker)),
        "{context}: tenant {tag} leaked another tenant's phrases: {keyphrases:?}"
    );
    keyphrases
}

#[test]
fn eight_tenants_cap_three_zero_5xx_through_evictions_and_hot_swaps() {
    let root = std::env::temp_dir().join(format!("graphex-tenancy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fleet = Arc::new(
        TenantFleet::open(
            &root,
            FleetConfig {
                resident_cap: RESIDENT_CAP,
                ..FleetConfig::default()
            },
        )
        .unwrap(),
    );
    for tag in 0..TENANTS {
        fleet
            .publish_model(&tenant_name(tag), &tenant_model(tag), "v1")
            .unwrap();
    }
    let server = graphex_server::start_fleet(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 6,
            queue_depth: 64,
            max_body_bytes: 1 << 16,
            deadline: None, // the zero-5xx gate must not race a timer
            keep_alive_timeout: Duration::from_secs(5),
            trace: Default::default(),
            history: Default::default(),
        },
        Arc::clone(&fleet),
    )
    .unwrap();
    let addr = server.addr();

    // Baseline answers from each tenant's first admission.
    let mut client = HttpClient::connect(addr).unwrap();
    let baseline: Vec<Vec<String>> = (0..TENANTS)
        .map(|tag| ask(&mut client, tag, "baseline"))
        .collect();
    drop(client);

    // Storm: one keep-alive client per tenant while the driver below
    // evicts and republishes underneath.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..TENANTS)
        .map(|tag| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut requests = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ask(&mut client, tag, "storm");
                    requests += 1;
                }
                requests
            })
        })
        .collect();

    // Mid-run churn: explicit evictions walk the fleet while same-content
    // v2 publishes hot-swap whoever is resident (a cold tenant just
    // gains the version for its next admission).
    for round in 0..3 {
        std::thread::sleep(Duration::from_millis(60));
        for tag in 0..TENANTS {
            if (tag + round) % 3 == 0 {
                fleet.evict(&tenant_name(tag)).unwrap();
            }
        }
        let tag = round % TENANTS;
        fleet
            .publish_model(&tenant_name(tag), &tenant_model(tag), "v2")
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(60));
    stop.store(true, Ordering::Relaxed);

    let mut total_requests = 0u64;
    for worker in workers {
        let requests = worker.join().unwrap();
        assert!(requests > 0, "every tenant's client made progress");
        total_requests += requests;
    }
    assert!(
        total_requests > 100,
        "storm too small to mean anything: {total_requests}"
    );
    assert_eq!(
        server.metrics().server_errors(),
        0,
        "evictions/hot-swaps under load caused 5xx"
    );
    assert!(
        fleet.resident_count() <= RESIDENT_CAP,
        "residency cap violated"
    );
    let table = fleet.list();
    assert_eq!(table.len(), TENANTS);
    let evictions: u64 = table.iter().map(|t| t.evictions).sum();
    let admissions: u64 = table.iter().map(|t| t.admissions).sum();
    assert!(
        evictions >= TENANTS as u64,
        "storm must churn residency: {evictions} evictions"
    );
    assert!(
        admissions > evictions,
        "every eviction was preceded by an admission"
    );

    // Evict everything, then re-admit: answers are identical to each
    // tenant's first admission (publishes were same-content).
    for tag in 0..TENANTS {
        fleet.evict(&tenant_name(tag)).unwrap();
    }
    assert_eq!(fleet.resident_count(), 0);
    let mut client = HttpClient::connect(addr).unwrap();
    for (tag, expected) in baseline.iter().enumerate() {
        let again = ask(&mut client, tag, "re-admission");
        assert_eq!(
            &again, expected,
            "tenant {tag} changed answers across evict → re-admit"
        );
    }

    // The republished tenants serve their v2 snapshot after re-admission
    // (asserted on the response, since the cold-status row reports 0).
    for tag in 0..3 {
        let path = format!("/v1/t/{}/infer", tenant_name(tag));
        let response = client.post_json(&path, &infer_body(tag)).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        let body = graphex_server::json::parse(&response.text()).unwrap();
        assert_eq!(
            body.get("snapshot_version").unwrap().as_u64(),
            Some(2),
            "publish did not take for tenant {tag}"
        );
    }
    assert_eq!(server.metrics().server_errors(), 0);

    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
