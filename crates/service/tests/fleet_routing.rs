//! Fleet-routing integration test: one `an5d-serve` process fronting
//! the standard four-device fleet, driven by concurrent mixed-device
//! clients.
//!
//! The core guarantee under test is **per-device cache isolation**: the
//! plan caches are sharded by `DeviceId`, so a V100 miss flood must
//! never evict a P100 entry — even while both devices are being hit
//! concurrently and the shards sit in one process.

use an5d::SerialBackend;
use an5d_service::{parse_json, Client, HttpResponse, Json, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::Arc;

/// A `/predict` body for one device and temporal blocking degree (each
/// distinct `bt` is a distinct plan-cache key).
fn predict_body(device: &str, bt: usize) -> String {
    format!(
        r#"{{"benchmark":"j2d5pt","interior":[256,256],"steps":16,"device":"{device}",
             "config":{{"bt":{bt},"bs":[64],"precision":"double"}}}}"#
    )
}

fn device_stats(addr: SocketAddr, device: &str) -> (u64, u64, u64) {
    let HttpResponse { status, body, .. } = Client::one_shot(addr).get("/stats").unwrap();
    assert_eq!(status, 200);
    let stats = parse_json(&body).unwrap();
    let shard = stats
        .get("devices")
        .and_then(|d| d.get(device))
        .unwrap_or_else(|| panic!("/stats must report device {device}: {body}"));
    let field = |name: &str| {
        shard
            .get("cache")
            .and_then(|c| c.get(name))
            .and_then(Json::as_usize)
            .unwrap() as u64
    };
    (field("hits"), field("misses"), field("entries"))
}

#[test]
fn interleaved_devices_keep_isolated_cache_shards() {
    // Tiny per-device shards (4 plans) so the V100 flood overflows its
    // own shard many times over.
    let server = Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_capacity: 4,
            ..ServerConfig::default()
        },
        Arc::new(SerialBackend),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let mut client = Client::one_shot(addr);

    // The fleet is visible before any traffic.
    let HttpResponse { status, body, .. } = client.get("/devices").unwrap();
    assert_eq!(status, 200);
    let devices = parse_json(&body).unwrap();
    let listed = devices.get("devices").unwrap().as_array().unwrap().len();
    assert!(listed >= 4, "fleet lists {listed} profiles");

    // Seed the P100 working set: 3 distinct plans, all within capacity.
    let p100_working_set: Vec<String> = (1..=3).map(|bt| predict_body("p100", bt)).collect();
    for body in &p100_working_set {
        let reply = client.post("/predict", body).unwrap();
        let (status, response) = (reply.status, reply.body);
        assert_eq!(status, 200, "{response}");
    }
    let (_, p100_misses_seeded, p100_entries) = device_stats(addr, "p100");
    assert_eq!(p100_misses_seeded, 3);
    assert_eq!(p100_entries, 3);

    // Concurrent mixed-device load: V100 clients flood their shard with
    // 12 distinct keys (3× its capacity) while P100 clients re-request
    // their working set the whole time.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut conn = Client::new(addr);
                for round in 0..2 {
                    for bt in 1..=12 {
                        let reply = conn.post("/predict", &predict_body("v100", bt)).unwrap();
                        let (status, response) = (reply.status, reply.body);
                        assert_eq!(status, 200, "v100 round {round} bt {bt}: {response}");
                    }
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(|| {
                let mut conn = Client::new(addr);
                for round in 0..6 {
                    for body in &p100_working_set {
                        let reply = conn.post("/predict", body).unwrap();
                        let (status, response) = (reply.status, reply.body);
                        assert_eq!(status, 200, "p100 round {round}: {response}");
                    }
                }
            });
        }
    });

    // V100 churned: far more misses than its capacity, entries capped.
    let (_, v100_misses, v100_entries) = device_stats(addr, "v100");
    assert!(
        v100_misses > 4,
        "the flood must overflow the v100 shard (misses {v100_misses})"
    );
    assert!(v100_entries <= 4, "capacity bound holds ({v100_entries})");

    // P100 unscathed: every re-request of its working set since seeding
    // was a hit — a V100 miss never evicted a P100 entry.
    let (p100_hits, p100_misses, p100_entries) = device_stats(addr, "p100");
    assert_eq!(
        p100_misses, p100_misses_seeded,
        "a V100 miss must never evict a P100 entry"
    );
    assert_eq!(p100_entries, 3);
    assert_eq!(p100_hits, 2 * 6 * 3, "all concurrent p100 lookups hit");

    // Responses are still device-specific end to end.
    let v100_body = client
        .post("/predict", &predict_body("v100", 2))
        .unwrap()
        .body;
    let p100_body = client
        .post("/predict", &predict_body("p100", 2))
        .unwrap()
        .body;
    assert_ne!(v100_body, p100_body, "per-device predictions differ");

    let HttpResponse { status, .. } = client.post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    server.wait();
}

#[test]
fn device_agnostic_requests_are_routed_and_all_devices_are_tunable() {
    let server = Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
        Arc::new(SerialBackend),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let mut client = Client::one_shot(addr);

    // /plan without a device: the router picks a shard, the response is
    // identical no matter which (asserted by repeating the request).
    let body = r#"{"benchmark":"star2d1r","interior":[64,64],"steps":8,
                   "config":{"bt":2,"bs":[32],"precision":"double"}}"#;
    let response = client.post("/plan", body).unwrap();
    let (status, first) = (response.status, response.body);
    assert_eq!(status, 200, "{first}");
    let HttpResponse { body: second, .. } = client.post("/plan", body).unwrap();
    assert_eq!(first, second, "device-agnostic bytes are deterministic");

    // Every registered profile serves /tune: new devices are usable
    // without touching the API layer.
    let devices_body = client.get("/devices").unwrap().body;
    let listing = parse_json(&devices_body).unwrap();
    let mut tuned = 0;
    for device in listing.get("devices").unwrap().as_array().unwrap() {
        let id = device.get("id").unwrap().as_str().unwrap();
        let body = format!(
            r#"{{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
                 "device":"{id}","precision":"single","space":"quick"}}"#
        );
        let reply = client.post("/tune", &body).unwrap();
        let (status, response) = (reply.status, reply.body);
        assert_eq!(status, 200, "device {id}: {response}");
        assert!(response.contains("\"best\""), "device {id}: {response}");
        tuned += 1;
    }
    assert!(tuned >= 4, "tuned {tuned} devices");

    let HttpResponse { status, .. } = client.post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    server.wait();
}
