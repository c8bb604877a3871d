//! Observability integration tests: the `GET /metrics` Prometheus
//! exposition, the `x-an5d-trace` → `GET /trace?id=` span-tree round
//! trip for a `/tune` request, the trace-ring eviction order, and the
//! client↔server latency-percentile cross-check at dispatch level.

use an5d::SerialBackend;
use an5d_service::{
    dispatch, parse_json, Client, HttpResponse, Json, Request, Server, ServerConfig, ServiceState,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

struct TempDb(PathBuf);

impl TempDb {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "an5d-service-trace-{label}-{}.db",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

fn start_server(tune_db: Option<&std::path::Path>) -> Server {
    Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            cache_capacity: 64,
            tune_db: tune_db.map(|p| p.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        },
        Arc::new(SerialBackend),
    )
    .expect("bind ephemeral port")
}

fn shutdown(addr: SocketAddr, server: Server) {
    let HttpResponse { status, .. } = Client::one_shot(addr).post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    server.wait();
}

const TUNE_BODY: &str = r#"{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
    "device":"v100","precision":"single","space":"quick"}"#;

#[test]
fn metrics_endpoint_serves_prometheus_histograms() {
    let server = start_server(None);
    let addr = server.addr();
    let mut client = Client::one_shot(addr);

    // Generate some traffic so the histograms have samples.
    let body = r#"{"benchmark":"star2d1r","interior":[64,64],"steps":8,
                   "config":{"bt":2,"bs":[32],"precision":"double"}}"#;
    for _ in 0..3 {
        let HttpResponse { status, .. } = client.post("/plan", body).unwrap();
        assert_eq!(status, 200);
    }

    let response = client.get("/metrics").unwrap();
    let (status, text) = (response.status, response.body);
    assert_eq!(status, 200);
    // Histogram series for the endpoint we hit, with the canonical
    // bucket/sum/count triplet and the +Inf terminal bucket.
    assert!(
        text.contains("# TYPE an5d_request_latency_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("an5d_request_latency_us_bucket{endpoint=\"/plan\",le=\"+Inf\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("an5d_request_latency_us_count{endpoint=\"/plan\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("an5d_request_latency_us_quantile{endpoint=\"/plan\",quantile=\"0.99\"}"),
        "{text}"
    );
    assert!(
        text.contains("an5d_requests_total{endpoint=\"/plan\"} 3"),
        "{text}"
    );
    // Fleet, cache, pool and ring gauges ride along.
    assert!(
        text.contains("an5d_plan_cache_hits_total{device="),
        "{text}"
    );
    assert!(text.contains("an5d_shard_requests_total{device="), "{text}");
    assert!(text.contains("an5d_pool_workers "), "{text}");
    assert!(text.contains("an5d_pool_batch_wall_us_bucket"), "{text}");
    assert!(text.contains("an5d_trace_ring_size "), "{text}");

    // The cumulative bucket counts are monotone non-decreasing.
    let counts: Vec<u64> = text
        .lines()
        .filter_map(|line| {
            line.strip_prefix("an5d_request_latency_us_bucket{endpoint=\"/plan\",le=")
                .and_then(|rest| rest.split_once("} "))
                .and_then(|(_, value)| value.trim().parse().ok())
        })
        .collect();
    assert!(!counts.is_empty());
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "cumulative buckets must be monotone: {counts:?}"
    );

    shutdown(addr, server);
}

#[test]
fn tune_trace_shows_nested_pipeline_spans() {
    let db = TempDb::new("tune-spans");
    let server = start_server(Some(&db.0));
    let addr = server.addr();
    let mut client = Client::one_shot(addr);

    let response = client.post("/tune", TUNE_BODY).unwrap();
    let (status, trace_id) = (response.status, response.trace);
    assert_eq!(status, 200);
    let trace_id = trace_id.expect("every /tune response carries x-an5d-trace");

    let HttpResponse { status, body, .. } = client.get(&format!("/trace?id={trace_id}")).unwrap();
    assert_eq!(status, 200, "{body}");
    let trace = parse_json(&body).unwrap();
    assert_eq!(
        trace.get("id").and_then(Json::as_str),
        Some(trace_id.as_str())
    );
    let total_us = trace.get("total_us").and_then(Json::as_usize).unwrap() as u64;
    let spans = trace.get("spans").unwrap().as_array().unwrap();

    let names: Vec<&str> = spans
        .iter()
        .map(|span| span.get("name").and_then(Json::as_str).unwrap())
        .collect();
    // The acceptance span set for a cold /tune: fingerprint (tune.key),
    // DB lookup (tunedb.get), search-space sweep (tuner.rank_sweep),
    // plan build (plan.build) and the simulated backend execution of
    // shortlisted candidates (tuner.measure).
    for required in [
        "/tune",
        "tune.key",
        "tunedb.get",
        "tuner.rank_sweep",
        "plan.build",
        "tuner.measure",
    ] {
        assert!(
            names.contains(&required),
            "trace must contain span {required:?}: {names:?}"
        );
    }

    // Span 0 is the handler root; every other span has a parent and
    // nests inside the root's duration. The root's *direct* children
    // run sequentially on the handler thread, so their durations sum to
    // at most the root's.
    let root = &spans[0];
    assert_eq!(root.get("name").and_then(Json::as_str), Some("/tune"));
    assert_eq!(root.get("parent"), Some(&Json::Null));
    let root_dur = root.get("dur_us").and_then(Json::as_usize).unwrap() as u64;
    assert!(root_dur <= total_us);
    let mut child_sum = 0u64;
    for span in &spans[1..] {
        let parent = span.get("parent").and_then(Json::as_usize);
        assert!(parent.is_some(), "non-root spans have parents: {span:?}");
        if parent == Some(0) {
            child_sum += span.get("dur_us").and_then(Json::as_usize).unwrap() as u64;
        }
    }
    assert!(child_sum > 0, "the root span must have timed children");
    assert!(
        child_sum <= root_dur,
        "sequential children ({child_sum}us) must fit inside the root ({root_dur}us)"
    );

    // An unknown (but well-formed) id is a 404; a malformed id a 400.
    let HttpResponse { status, .. } = client.get("/trace?id=0000000000000000").unwrap();
    assert_eq!(status, 404);
    let HttpResponse { status, .. } = client.get("/trace?id=not-hex").unwrap();
    assert_eq!(status, 400);

    shutdown(addr, server);
}

#[test]
fn trace_ring_lists_requests_and_evicts_oldest_first() {
    let state = ServiceState::new(Arc::new(SerialBackend), 64).with_trace_capacity(3);
    let body = r#"{"benchmark":"star2d1r","interior":[32,32],"steps":4,
                   "config":{"bt":1,"bs":[16],"precision":"double"}}"#;
    let mut ids = Vec::new();
    for _ in 0..5 {
        let response = dispatch(&state, &Request::new("POST", "/plan", body.as_bytes()));
        assert_eq!(response.status, 200);
        ids.push(response.trace.clone().expect("traced response"));
    }

    let listing = dispatch(&state, &Request::new("GET", "/trace", b""));
    assert_eq!(listing.status, 200);
    let parsed = parse_json(&listing.body).unwrap();
    assert_eq!(parsed.get("capacity").and_then(Json::as_usize), Some(3));
    let listed: Vec<String> = parsed
        .get("traces")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|t| t.get("id").and_then(Json::as_str).unwrap().to_string())
        .collect();
    // Only the newest 3 of the 5 requests survive, oldest first.
    assert_eq!(listed, ids[2..].to_vec());

    // Evicted ids are gone; retained ids resolve.
    let gone = dispatch(
        &state,
        &Request::new("GET", &format!("/trace?id={}", ids[0]), b""),
    );
    assert_eq!(gone.status, 404);
    let kept = dispatch(
        &state,
        &Request::new("GET", &format!("/trace?id={}", ids[4]), b""),
    );
    assert_eq!(kept.status, 200);

    // /trace and /metrics requests themselves never enter the ring.
    let listing = dispatch(&state, &Request::new("GET", "/trace", b""));
    let parsed = parse_json(&listing.body).unwrap();
    assert_eq!(parsed.get("count").and_then(Json::as_usize), Some(3));
}

#[test]
fn server_histogram_percentiles_match_dispatched_latencies() {
    // Dispatch-level cross-check (no sockets, so client == server
    // timing): the /metrics histogram quantiles must agree with
    // nearest-rank percentiles computed from the same dispatch calls,
    // within the histogram's 1/32 bucket resolution.
    let state = ServiceState::new(Arc::new(SerialBackend), 64);
    let body = r#"{"benchmark":"star2d1r","interior":[48,48],"steps":4,
                   "config":{"bt":1,"bs":[16],"precision":"double"}}"#;
    let mut observed: Vec<u64> = Vec::new();
    for _ in 0..40 {
        let started = std::time::Instant::now();
        let response = dispatch(&state, &Request::new("POST", "/plan", body.as_bytes()));
        let elapsed = started.elapsed();
        assert_eq!(response.status, 200);
        observed.push(u64::try_from(elapsed.as_micros()).unwrap());
    }
    observed.sort_unstable();

    let histogram = state.metrics().histogram("/plan").expect("recorded");
    assert_eq!(histogram.count(), 40);
    for (q, pct) in [(0.5, 50usize), (0.95, 95), (0.99, 99)] {
        let rank = (pct * observed.len())
            .div_ceil(100)
            .clamp(1, observed.len());
        let client_q = observed[rank - 1];
        let server_q = histogram.quantile(q);
        // The dispatch wall time strictly contains the handler time the
        // server recorded, so the server quantile sits at or below the
        // observed one — and at most one bucket width above the true
        // handler value.
        let upper = client_q + client_q / 32 + 64;
        assert!(
            server_q <= upper,
            "p{pct}: server {server_q}us vs observed {client_q}us"
        );
        // Two-sided: the server quantile cannot sit implausibly far
        // below the observed percentile either — dispatch adds only
        // metrics/trace bookkeeping around the handler.
        assert!(
            server_q + server_q / 2 + 1_000 >= client_q,
            "p{pct}: server {server_q}us implausibly below observed {client_q}us"
        );
    }

    let elapsed_sum: u64 = observed.iter().sum();
    assert!(
        histogram.sum() <= elapsed_sum,
        "handler time must fit inside dispatch wall time"
    );
}

/// One `/metrics` sample line split into its name, label pairs and value.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (key, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("sample without a value: {line:?}"));
    let (name, labels) = match key.split_once('{') {
        Some((name, rest)) => (
            name,
            rest.strip_suffix('}')
                .unwrap_or_else(|| panic!("unclosed label set: {line:?}")),
        ),
        None => (key, ""),
    };
    let labels = labels
        .split(',')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (key, value) = pair
                .split_once('=')
                .unwrap_or_else(|| panic!("malformed label {pair:?} in {line:?}"));
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .unwrap_or_else(|| panic!("unquoted label value in {line:?}"));
            (key.to_string(), value.to_string())
        })
        .collect();
    let value = value
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric sample value in {line:?}"));
    (name.to_string(), labels, value)
}

#[test]
fn metrics_exposition_groups_every_sample_under_its_declared_family() {
    let server = start_server(None);
    let addr = server.addr();
    let mut client = Client::one_shot(addr);
    let plan = r#"{"benchmark":"star2d1r","interior":[64,64],"steps":8,
                   "config":{"bt":2,"bs":[32],"precision":"double"}}"#;
    let execute = r#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
                      "config":{"bt":2,"bs":[12],"precision":"double"}}"#;
    for (path, body) in [
        ("/plan", plan),
        ("/predict", plan),
        ("/codegen?stream=1", plan),
        ("/execute", execute),
        ("/plan", "{}"),
    ] {
        client.post(path, body).unwrap();
    }
    let response = client.get("/metrics").unwrap();
    let (status, text) = (response.status, response.body);
    assert_eq!(status, 200);

    // The text format: every sample belongs to the family of the most
    // recent `# TYPE` line (a histogram family also owns its
    // `_bucket`/`_sum`/`_count` series), and no family is declared
    // twice — so each family's lines form one contiguous group.
    let mut declared = std::collections::BTreeSet::new();
    let mut help: Option<String> = None;
    let mut current: Option<(String, String)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help = rest.split_once(' ').map(|(name, _)| name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("# TYPE <name> <kind>");
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            assert_eq!(help.as_deref(), Some(name), "# HELP must precede {line}");
            assert!(declared.insert(name.to_string()), "{name} declared twice");
            current = Some((name.to_string(), kind.to_string()));
            continue;
        }
        let (sample, _, _) = parse_sample(line);
        let (family, kind) = current
            .as_ref()
            .unwrap_or_else(|| panic!("sample before any # TYPE: {line}"));
        let belongs = sample == *family
            || (kind == "histogram"
                && ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| sample.strip_suffix(suffix) == Some(family.as_str())));
        assert!(
            belongs,
            "{sample} sits in the group of {family} ({kind}): untyped or interleaved"
        );
    }
    assert!(declared.contains("an5d_request_latency_us_quantile"));

    shutdown(addr, server);
}

#[test]
fn stats_and_metrics_render_the_same_collection() {
    use an5d_service::telemetry::{collect, Kind, FAMILIES, QUANTILES};
    use std::collections::BTreeMap;

    let db = TempDb::new("no-drift");
    let state = ServiceState::new(Arc::new(SerialBackend), 64)
        .with_tune_db(Arc::new(an5d::TuneDb::open(&db.0).unwrap()));
    let plan = r#"{"benchmark":"star2d1r","interior":[64,64],"steps":8,
                   "config":{"bt":2,"bs":[32],"precision":"double"}}"#;
    let execute = r#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
                      "config":{"bt":2,"bs":[12],"precision":"double"}}"#;
    let batch = format!(r#"{{"jobs":[{execute}]}}"#);
    for (method, path, body) in [
        ("POST", "/plan", plan),
        ("POST", "/plan", plan),
        ("POST", "/predict", plan),
        ("POST", "/tune", TUNE_BODY),
        ("POST", "/tune", TUNE_BODY),
        ("POST", "/codegen?stream=1", plan),
        ("POST", "/execute", execute),
        ("POST", "/batch", batch.as_str()),
        ("POST", "/plan", "{}"),
        ("GET", "/devices", ""),
        ("GET", "/stats", ""),
    ] {
        let mut response = dispatch(&state, &Request::new(method, path, body.as_bytes()));
        response.body.collect().expect("body drains");
    }
    let mut late = Request::new("POST", "/plan", plan.as_bytes());
    late.deadline = Some(an5d_fault::Deadline::in_ms(0));
    assert_eq!(dispatch(&state, &late).status, 504);

    let collection = collect(&state);
    let text = collection.render_prometheus();
    let stats = collection.render_stats(&state);

    // The /stats leaves the exposition implies, derived from the text
    // alone: each sample at its family's declared path, a histogram's
    // mean from `_sum`/`_count`, its quantiles from `<name>_quantile`.
    let family = |name: &str| {
        FAMILIES
            .iter()
            .find(|family| family.name == name)
            .unwrap_or_else(|| panic!("/metrics family {name} has no /stats path"))
    };
    let histogram = |name: &str| {
        FAMILIES
            .iter()
            .find(|family| family.name == name && family.kind == Kind::Histogram)
    };
    let leaf = |path: &str, label: &str, word: &str| {
        path.split('.')
            .map(|segment| {
                if segment.starts_with('<') {
                    label
                } else {
                    segment
                }
            })
            .collect::<Vec<_>>()
            .join(".")
            .replace("{}", word)
    };
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    let mut means: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut sampled = std::collections::BTreeSet::new();
    for line in text.lines().filter(|line| !line.starts_with('#')) {
        let (name, labels, value) = parse_sample(line);
        let value = value as u64;
        let label = labels
            .iter()
            .find(|(key, _)| key != "le" && key != "quantile")
            .map_or("", |(_, value)| value.as_str());
        let suffixed = |suffix: &str| name.strip_suffix(suffix).and_then(histogram);
        if let Some(family) = suffixed("_quantile") {
            let quantile = &labels.iter().find(|(key, _)| key == "quantile").unwrap().1;
            let (_, _, word) = QUANTILES
                .iter()
                .find(|(text, ..)| text == quantile)
                .unwrap();
            expected.insert(leaf(family.stats, label, word), value);
        } else if let Some(family) = suffixed("_sum") {
            means
                .entry(leaf(family.stats, label, "mean"))
                .or_default()
                .0 = value;
        } else if let Some(family) = suffixed("_count") {
            means
                .entry(leaf(family.stats, label, "mean"))
                .or_default()
                .1 = value;
            sampled.insert(family.name);
        } else if suffixed("_bucket").is_none() {
            let family = family(&name);
            let path = leaf(family.stats, label, "");
            // The fleet-wide "cache" object sums the per-device ones.
            if let Some(key) = path
                .strip_prefix("devices.")
                .and_then(|rest| rest.split_once(".cache."))
                .map(|(_, key)| format!("cache.{key}"))
            {
                *expected.entry(key).or_default() += value;
            }
            expected.insert(path, value);
            sampled.insert(family.name);
        }
    }
    for (path, (sum, count)) in means {
        expected.insert(path, sum.checked_div(count).unwrap_or(0));
    }
    // The traffic above reaches every declared family.
    for family in FAMILIES {
        assert!(
            sampled.contains(family.name),
            "{} has no sample",
            family.name
        );
    }

    // Every numeric /stats leaf; strings and booleans are the
    // hand-built names and flags, floats the derived hit rates.
    fn leaves(json: &Json, prefix: &str, out: &mut BTreeMap<String, u64>) {
        match json {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    leaves(value, &path, out);
                }
            }
            Json::Int(value) => {
                out.insert(prefix.to_string(), u64::try_from(*value).unwrap());
            }
            Json::Num(_) => assert!(prefix.ends_with("cache.hit_rate"), "{prefix}"),
            Json::Str(_) | Json::Bool(_) => {}
            Json::Null | Json::Arr(_) => panic!("unexpected /stats leaf at {prefix}"),
        }
    }
    let mut actual = BTreeMap::new();
    leaves(&stats, "", &mut actual);
    for (path, value) in &actual {
        assert_eq!(
            expected.get(path),
            Some(value),
            "/stats {path} has no equal /metrics sample"
        );
    }
    for path in expected.keys() {
        assert!(actual.contains_key(path), "/metrics implies /stats {path}");
    }
    assert_eq!(actual.get("deadline_expired"), Some(&1));
}
