//! The service's metric registry and its renderings, plus the trace
//! JSON behind `GET /trace`.
//!
//! Every exported series is declared once, in [`FAMILIES`]: its name,
//! help text, kind, `/stats` path (which names the label key) and value
//! source. [`collect`] reads each family once from a [`ServiceState`];
//! `GET /metrics` is [`Collection::render_prometheus`] and `GET /stats`
//! is [`Collection::render_stats`] of that one collection, so the two
//! endpoints cannot drift apart.

use crate::fleet::FleetShard;
use crate::handlers::ServiceState;
use crate::json::Json;
use an5d::TuneDbStats;
use an5d_obs::{FinishedTrace, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative `le` bucket edges for latency histograms, microseconds.
/// Chosen to bracket everything from a cache-hit `/stats` (tens of µs)
/// to a cold paper-scale `/tune` (seconds).
const LE_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Quantiles exported per histogram: the `quantile` label value of the
/// `<name>_quantile` gauge family, the quantile, and the word that
/// replaces `{}` in the histogram's `/stats` path. The 1-quantile is
/// the exact maximum.
pub const QUANTILES: &[(&str, f64, &str)] = &[
    ("0.5", 0.5, "p50"),
    ("0.95", 0.95, "p95"),
    ("0.99", 0.99, "p99"),
    ("0.999", 0.999, "p999"),
    ("1", 1.0, "max"),
];

/// The Prometheus type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count.
    Counter,
    /// A value that can go down.
    Gauge,
    /// A latency distribution, microseconds.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One sample value.
#[derive(Debug)]
enum Value {
    Int(u64),
    Hist(HistogramSnapshot),
}

impl From<u64> for Value {
    fn from(value: u64) -> Self {
        Value::Int(value)
    }
}

impl From<HistogramSnapshot> for Value {
    fn from(snapshot: HistogramSnapshot) -> Self {
        Value::Hist(snapshot)
    }
}

/// A family's samples: `(label value, value)`, the label value empty for
/// an unlabelled family.
type Samples = Vec<(String, Value)>;

/// One exported series family.
#[derive(Debug)]
pub struct Family {
    /// Prometheus name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// Dotted `/stats` path of each sample. A `<key>` segment stands for
    /// the value of the family's one label, `key`; a histogram's last
    /// segment holds `{}`, replaced by `mean` and by the words of
    /// [`QUANTILES`].
    pub stats: &'static str,
    read: fn(&ServiceState) -> Samples,
}

impl Family {
    /// The label key named by the `<key>` segment of the `/stats` path.
    #[must_use]
    pub fn label(&self) -> Option<&'static str> {
        self.stats
            .split('.')
            .find_map(|segment| segment.strip_prefix('<')?.strip_suffix('>'))
    }
}

fn single(value: impl Into<Value>) -> Samples {
    vec![(String::new(), value.into())]
}

/// One sample per `(label value, source)` pair.
fn labelled<L: ToString, T, V: Into<Value>>(
    sources: impl IntoIterator<Item = (L, T)>,
    f: impl Fn(T) -> V,
) -> Samples {
    sources
        .into_iter()
        .map(|(label, source)| (label.to_string(), f(source).into()))
        .collect()
}

fn per_shard<V: Into<Value>>(state: &ServiceState, f: impl Fn(&FleetShard) -> V) -> Samples {
    labelled(state.fleet().shards().map(|shard| (shard.id(), shard)), f)
}

/// Samples of the database-wide tune-DB families: none without a DB.
fn tune_db(state: &ServiceState, f: impl Fn(&TuneDbStats) -> u64) -> Samples {
    state
        .fleet()
        .tune_db()
        .map(|db| single(f(&db.stats())))
        .unwrap_or_default()
}

fn relaxed(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Every series the service exports, in rendering order.
pub static FAMILIES: &[Family] = &[
    Family {
        name: "an5d_requests_total",
        help: "Requests dispatched, by endpoint.",
        kind: Kind::Counter,
        stats: "endpoints.<endpoint>.count",
        read: |s| labelled(s.metrics().endpoint_recorders(), |r| r.latency.count()),
    },
    Family {
        name: "an5d_request_errors_total",
        help: "Non-2xx responses, by endpoint.",
        kind: Kind::Counter,
        stats: "endpoints.<endpoint>.errors",
        read: |s| labelled(s.metrics().endpoint_recorders(), |r| relaxed(&r.errors)),
    },
    Family {
        name: "an5d_request_latency_us",
        help: "Handler latency by endpoint, microseconds.",
        kind: Kind::Histogram,
        stats: "endpoints.<endpoint>.{}_us",
        read: |s| labelled(s.metrics().endpoint_recorders(), |r| r.latency.snapshot()),
    },
    Family {
        name: "an5d_backend_executes_total",
        help: "backend.execute calls, by backend.",
        kind: Kind::Counter,
        stats: "backends.<backend>.executes",
        read: |s| labelled(s.metrics().backend_histograms(), |h| h.count()),
    },
    Family {
        name: "an5d_backend_execute_us",
        help: "backend.execute latency by backend, microseconds.",
        kind: Kind::Histogram,
        stats: "backends.<backend>.{}_us",
        read: |s| labelled(s.metrics().backend_histograms(), |h| h.snapshot()),
    },
    Family {
        name: "an5d_streams_total",
        help: "Streamed responses started, by endpoint.",
        kind: Kind::Counter,
        stats: "streams.<endpoint>.streams",
        read: |s| labelled(s.metrics().stream_recorders(), |r| relaxed(&r.streams)),
    },
    Family {
        name: "an5d_stream_chunks_total",
        help: "Chunks produced on streamed responses, by endpoint.",
        kind: Kind::Counter,
        stats: "streams.<endpoint>.chunks",
        read: |s| labelled(s.metrics().stream_recorders(), |r| relaxed(&r.chunks)),
    },
    Family {
        name: "an5d_stream_bytes_total",
        help: "Payload bytes streamed (before chunked framing), by endpoint.",
        kind: Kind::Counter,
        stats: "streams.<endpoint>.bytes",
        read: |s| labelled(s.metrics().stream_recorders(), |r| relaxed(&r.bytes)),
    },
    Family {
        name: "an5d_stream_ttfb_us",
        help: "Handler start to first streamed chunk, microseconds.",
        kind: Kind::Histogram,
        stats: "streams.<endpoint>.{}_ttfb_us",
        read: |s| labelled(s.metrics().stream_recorders(), |r| r.ttfb.snapshot()),
    },
    Family {
        name: "an5d_rejected_connections_total",
        help: "Requests shed by admission control.",
        kind: Kind::Counter,
        stats: "rejected",
        read: |s| single(s.metrics().rejected()),
    },
    Family {
        name: "an5d_deadline_shed_total",
        help: "Requests shed with 503 at admission for an already-expired deadline.",
        kind: Kind::Counter,
        stats: "deadline_shed",
        read: |s| single(s.metrics().deadline_shed()),
    },
    Family {
        name: "an5d_deadline_expired_total",
        help: "Requests answered 504 after their deadline expired mid-processing.",
        kind: Kind::Counter,
        stats: "deadline_expired",
        read: |s| single(s.metrics().deadline_expired()),
    },
    Family {
        name: "an5d_connections_open",
        help: "Currently open client connections.",
        kind: Kind::Gauge,
        stats: "connections.open",
        read: |s| single(s.metrics().connections().snapshot().open),
    },
    Family {
        name: "an5d_connections_parked",
        help: "Open connections idle between requests (parked in the reactor).",
        kind: Kind::Gauge,
        stats: "connections.parked",
        read: |s| single(s.metrics().connections().snapshot().parked),
    },
    Family {
        name: "an5d_connections_active",
        help: "Open connections reading, executing, or writing a request.",
        kind: Kind::Gauge,
        stats: "connections.active",
        read: |s| single(s.metrics().connections().snapshot().active()),
    },
    Family {
        name: "an5d_connections_accepted_total",
        help: "Connections accepted since startup.",
        kind: Kind::Counter,
        stats: "connections.accepted",
        read: |s| single(s.metrics().connections().snapshot().accepted),
    },
    Family {
        name: "an5d_connections_closed_total",
        help: "Connections closed since startup.",
        kind: Kind::Counter,
        stats: "connections.closed",
        read: |s| single(s.metrics().connections().snapshot().closed),
    },
    Family {
        name: "an5d_connections_aborted",
        help: "Connections that died mid-request or mid-response (truncated \
               head or body, or a response that failed while draining).",
        kind: Kind::Counter,
        stats: "connections.aborted",
        read: |s| single(s.metrics().connections().snapshot().aborted),
    },
    Family {
        name: "an5d_reactor_loop_us",
        help: "Reactor loop busy time per iteration, microseconds.",
        kind: Kind::Histogram,
        stats: "connections.{}_loop_us",
        read: |s| single(s.metrics().connections().loop_snapshot()),
    },
    Family {
        name: "an5d_shard_requests_total",
        help: "Requests routed to each device shard.",
        kind: Kind::Counter,
        stats: "devices.<device>.requests",
        read: |s| per_shard(s, |shard| shard.stats().requests),
    },
    Family {
        name: "an5d_shard_errors_total",
        help: "Failed requests per device shard.",
        kind: Kind::Counter,
        stats: "devices.<device>.errors",
        read: |s| per_shard(s, |shard| shard.stats().errors),
    },
    Family {
        name: "an5d_shard_in_flight",
        help: "Requests currently executing per device shard.",
        kind: Kind::Gauge,
        stats: "devices.<device>.in_flight",
        read: |s| per_shard(s, |shard| shard.stats().in_flight),
    },
    Family {
        name: "an5d_shard_latency_us",
        help: "Handler latency per device shard, microseconds.",
        kind: Kind::Histogram,
        stats: "devices.<device>.{}_us",
        read: |s| per_shard(s, FleetShard::latency),
    },
    Family {
        name: "an5d_plan_cache_hits_total",
        help: "Plan-cache lookups answered without building.",
        kind: Kind::Counter,
        stats: "devices.<device>.cache.hits",
        read: |s| per_shard(s, |shard| shard.cache().stats().hits),
    },
    Family {
        name: "an5d_plan_cache_misses_total",
        help: "Plan-cache lookups that built a plan.",
        kind: Kind::Counter,
        stats: "devices.<device>.cache.misses",
        read: |s| per_shard(s, |shard| shard.cache().stats().misses),
    },
    Family {
        name: "an5d_plan_cache_coalesced_total",
        help: "Plan-cache lookups coalesced onto an in-flight build.",
        kind: Kind::Counter,
        stats: "devices.<device>.cache.coalesced",
        read: |s| per_shard(s, |shard| shard.cache().stats().coalesced),
    },
    Family {
        name: "an5d_plan_cache_entries",
        help: "Plans currently cached.",
        kind: Kind::Gauge,
        stats: "devices.<device>.cache.entries",
        read: |s| per_shard(s, |shard| shard.cache().stats().entries as u64),
    },
    Family {
        name: "an5d_plan_cache_capacity",
        help: "Plans each shard's cache can hold.",
        kind: Kind::Gauge,
        stats: "devices.<device>.cache.capacity",
        read: |s| per_shard(s, |shard| shard.cache().stats().capacity as u64),
    },
    Family {
        name: "an5d_tunedb_hits_total",
        help: "/tune queries answered from the persisted DB.",
        kind: Kind::Counter,
        stats: "devices.<device>.tunedb.hits",
        read: |s| per_shard(s, |shard| shard.tunedb_stats().hits),
    },
    Family {
        name: "an5d_tunedb_misses_total",
        help: "/tune queries that missed the DB and ran the tuner.",
        kind: Kind::Counter,
        stats: "devices.<device>.tunedb.misses",
        read: |s| per_shard(s, |shard| shard.tunedb_stats().misses),
    },
    Family {
        name: "an5d_tunedb_refreshes_total",
        help: "/tune?refresh=true overwrites.",
        kind: Kind::Counter,
        stats: "devices.<device>.tunedb.refreshes",
        read: |s| per_shard(s, |shard| shard.tunedb_stats().refreshes),
    },
    Family {
        name: "an5d_tunedb_warmed",
        help: "DB entries each shard warm-started from.",
        kind: Kind::Gauge,
        stats: "devices.<device>.tunedb.warmed",
        read: |s| per_shard(s, |shard| shard.tunedb_stats().warmed),
    },
    Family {
        name: "an5d_tunedb_warmed_plans",
        help: "Plans each shard pre-built from warmed DB entries.",
        kind: Kind::Gauge,
        stats: "devices.<device>.tunedb.warmed_plans",
        read: |s| per_shard(s, |shard| shard.tunedb_stats().warmed_plans),
    },
    Family {
        name: "an5d_tuner_runs_total",
        help: "Tuner search invocations per shard.",
        kind: Kind::Counter,
        stats: "devices.<device>.tunedb.tuner_runs",
        read: |s| per_shard(s, |shard| shard.tunedb_stats().tuner_runs),
    },
    Family {
        name: "an5d_tunedb_append_failures_total",
        help: "Tune results served but not persisted (append to the tune DB failed).",
        kind: Kind::Counter,
        stats: "tunedb.append_failures",
        read: |s| single(s.metrics().tunedb_append_failures()),
    },
    Family {
        name: "an5d_tunedb_live_records",
        help: "Distinct keys stored in the tune DB.",
        kind: Kind::Gauge,
        stats: "tunedb.records",
        read: |s| tune_db(s, |db| db.live as u64),
    },
    Family {
        name: "an5d_tunedb_stale_records",
        help: "Superseded records awaiting compaction.",
        kind: Kind::Gauge,
        stats: "tunedb.stale",
        read: |s| tune_db(s, |db| db.stale as u64),
    },
    Family {
        name: "an5d_tunedb_appends_total",
        help: "Records appended through this handle.",
        kind: Kind::Counter,
        stats: "tunedb.appends",
        read: |s| tune_db(s, |db| db.appends),
    },
    Family {
        name: "an5d_tunedb_compactions_total",
        help: "Log rewrites performed.",
        kind: Kind::Counter,
        stats: "tunedb.compactions",
        read: |s| tune_db(s, |db| db.compactions),
    },
    Family {
        name: "an5d_tunedb_recovered_records",
        help: "Live records recovered when the tune DB was opened.",
        kind: Kind::Gauge,
        stats: "tunedb.recovered",
        read: |s| tune_db(s, |db| db.recovered as u64),
    },
    Family {
        name: "an5d_tunedb_skipped_corrupt_records",
        help: "Records dropped at open for checksum or decode failures.",
        kind: Kind::Gauge,
        stats: "tunedb.skipped_corrupt",
        read: |s| tune_db(s, |db| db.skipped_corrupt as u64),
    },
    Family {
        name: "an5d_tunedb_truncated_bytes",
        help: "Torn tail bytes discarded at open (crash mid-append).",
        kind: Kind::Gauge,
        stats: "tunedb.truncated_bytes",
        read: |s| tune_db(s, |db| db.truncated_bytes as u64),
    },
    Family {
        name: "an5d_pool_workers",
        help: "Persistent pool worker threads.",
        kind: Kind::Gauge,
        stats: "pool.workers",
        read: |_| single(an5d::global_pool().stats().workers as u64),
    },
    Family {
        name: "an5d_pool_queued_batches",
        help: "Batches registered with unclaimed work.",
        kind: Kind::Gauge,
        stats: "pool.queued_batches",
        read: |_| single(an5d::global_pool().stats().queued_batches as u64),
    },
    Family {
        name: "an5d_pool_items_executed_total",
        help: "Items executed by completed batches.",
        kind: Kind::Counter,
        stats: "pool.items_executed",
        read: |_| single(an5d::global_pool().stats().items_executed),
    },
    Family {
        name: "an5d_pool_batches_executed_total",
        help: "Batches fully completed.",
        kind: Kind::Counter,
        stats: "pool.batches_executed",
        read: |_| single(an5d::global_pool().stats().batches_executed),
    },
    Family {
        name: "an5d_pool_batch_wall_us",
        help: "Completed-batch wall time, microseconds.",
        kind: Kind::Histogram,
        stats: "pool.{}_batch_us",
        read: |_| single(an5d::global_pool().batch_wall_snapshot()),
    },
    Family {
        name: "an5d_pool_queue_wait_us",
        help: "Batch publication to first helper claim, microseconds.",
        kind: Kind::Histogram,
        stats: "pool.{}_queue_wait_us",
        read: |_| single(an5d::global_pool().queue_wait_snapshot()),
    },
    Family {
        name: "an5d_trace_ring_size",
        help: "Completed traces currently retained.",
        kind: Kind::Gauge,
        stats: "traces.retained",
        read: |s| single(s.traces().len() as u64),
    },
];

/// Every family's samples, read once from one [`ServiceState`].
#[derive(Debug)]
pub struct Collection(Vec<(&'static Family, Samples)>);

/// Read every family of [`FAMILIES`] once.
#[must_use]
pub fn collect(state: &ServiceState) -> Collection {
    Collection(
        FAMILIES
            .iter()
            .map(|family| (family, (family.read)(state)))
            .collect(),
    )
}

fn write_header(out: &mut String, name: &str, help: &str, kind: Kind) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
}

/// Append one histogram's `_bucket`/`_sum`/`_count` lines; `labels` is
/// the sample's `key="value",` label prefix (empty when unlabelled).
fn write_histogram(out: &mut String, name: &str, labels: &str, snapshot: &HistogramSnapshot) {
    for &bound in LE_BUCKETS_US {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}le=\"{bound}\"}} {}",
            snapshot.count_le(bound)
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}le=\"+Inf\"}} {}",
        snapshot.count()
    );
    let labels = labels.trim_end_matches(',');
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", snapshot.sum());
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", snapshot.count());
}

/// The object at `path` under `node`, created empty where missing.
fn object<'a>(node: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
    let Json::Obj(fields) = node else {
        panic!("a /stats path crosses a non-object at {path:?}");
    };
    let Some((key, rest)) = path.split_first() else {
        return fields;
    };
    let index = match fields.iter().position(|(name, _)| name == key) {
        Some(index) => index,
        None => {
            fields.push(((*key).to_string(), Json::Obj(Vec::new())));
            fields.len() - 1
        }
    };
    object(&mut fields[index].1, rest)
}

impl Collection {
    /// The Prometheus text exposition behind `GET /metrics`. Each
    /// histogram family is followed by its `<name>_quantile` gauge family.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (family, samples) in &self.0 {
            let label_sets: Vec<(String, &Value)> = samples
                .iter()
                .map(|(label, value)| {
                    let prefix = family.label().map(|key| format!("{key}=\"{label}\","));
                    (prefix.unwrap_or_default(), value)
                })
                .collect();
            write_header(&mut out, family.name, family.help, family.kind);
            for (labels, value) in &label_sets {
                match value {
                    Value::Int(v) if labels.is_empty() => {
                        let _ = writeln!(out, "{} {v}", family.name);
                    }
                    Value::Int(v) => {
                        let labels = labels.trim_end_matches(',');
                        let _ = writeln!(out, "{}{{{labels}}} {v}", family.name);
                    }
                    Value::Hist(h) => write_histogram(&mut out, family.name, labels, h),
                }
            }
            if family.kind != Kind::Histogram {
                continue;
            }
            let name = format!("{}_quantile", family.name);
            let help = format!("Quantiles of {}.", family.name);
            write_header(&mut out, &name, &help, Kind::Gauge);
            for (labels, value) in &label_sets {
                let Value::Hist(h) = value else { continue };
                for &(text, q, _) in QUANTILES {
                    let quantile = h.quantile(q);
                    let _ = writeln!(out, "{name}{{{labels}quantile=\"{text}\"}} {quantile}");
                }
            }
        }
        out
    }

    /// The JSON behind `GET /stats`: every sample at its family's
    /// `/stats` path; the fleet-wide `"cache"` object sums the
    /// per-device ones. Four fields are built by hand because they are
    /// not measurements: the backend and profile names, whether and
    /// where the tune DB is persisted, and the derived `"hit_rate"`s.
    #[must_use]
    pub fn render_stats(&self, state: &ServiceState) -> Json {
        let fleet = state.fleet();
        let mut tunedb = vec![("enabled", Json::Bool(fleet.tune_db().is_some()))];
        if let Some(db) = fleet.tune_db() {
            tunedb.push(("path", Json::Str(db.path().display().to_string())));
        }
        let devices = fleet.shards().map(|shard| {
            let described = Json::obj(vec![
                ("profile", Json::str(&shard.device().name)),
                ("backend", Json::Str(shard.backend().describe())),
            ]);
            (shard.id().to_string(), described)
        });
        let mut root = Json::obj(vec![
            ("backend", Json::Str(state.backend().describe())),
            ("cache", Json::Obj(Vec::new())),
            ("devices", Json::Obj(devices.collect())),
            ("tunedb", Json::obj(tunedb)),
        ]);
        for (family, samples) in &self.0 {
            let path: Vec<&str> = family.stats.split('.').collect();
            let keyed = path.iter().position(|segment| segment.starts_with('<'));
            // A labelled family's object is present before its first sample.
            if let Some(keyed) = keyed {
                object(&mut root, &path[..keyed]);
            }
            for (label, value) in samples {
                let mut at = path.clone();
                if let Some(keyed) = keyed {
                    at[keyed] = label;
                }
                let (leaf, parent) = at.split_last().expect("/stats paths are non-empty");
                let fields = object(&mut root, parent);
                let mut set = |word: &str, value: u64| {
                    fields.push((leaf.replace("{}", word), Json::Int(i128::from(value))));
                };
                match value {
                    Value::Int(v) => set("", *v),
                    Value::Hist(h) => {
                        set("mean", h.mean());
                        for &(_, q, word) in QUANTILES {
                            set(word, h.quantile(q));
                        }
                    }
                }
            }
        }
        let mut total: Vec<(String, Json)> = Vec::new();
        for shard in fleet.shards() {
            let cache = object(&mut root, &["devices", shard.id().as_str(), "cache"]);
            for (key, value) in cache.iter() {
                let Json::Int(value) = value else { continue };
                match total.iter_mut().find(|(name, _)| name == key) {
                    Some((_, Json::Int(sum))) => *sum += value,
                    _ => total.push((key.clone(), Json::Int(*value))),
                }
            }
            with_hit_rate(cache);
        }
        let cache = object(&mut root, &["cache"]);
        *cache = total;
        with_hit_rate(cache);
        root
    }
}

/// Append the hit fraction over all lookups (0 when nothing was looked
/// up) to a `"cache"` object.
fn with_hit_rate(cache: &mut Vec<(String, Json)>) {
    let count = |key: &str| {
        let found = cache.iter().find(|(name, _)| name == key);
        found.and_then(|(_, value)| value.as_f64()).unwrap_or(0.0)
    };
    let (hits, misses) = (count("hits"), count("misses"));
    let rate = hits / (hits + misses).max(1.0);
    cache.push(("hit_rate".to_string(), Json::Num(rate)));
}

/// Summary JSON for `GET /trace`: the retained traces, oldest first.
#[must_use]
pub fn traces_summary(state: &ServiceState) -> Json {
    let traces = state.traces().recent();
    Json::obj(vec![
        (
            "capacity",
            Json::Int(i128::try_from(state.traces().capacity()).unwrap_or(0)),
        ),
        (
            "count",
            Json::Int(i128::try_from(traces.len()).unwrap_or(0)),
        ),
        (
            "traces",
            Json::Arr(
                traces
                    .iter()
                    .map(|trace| {
                        Json::obj(vec![
                            ("id", Json::Str(trace.id.to_string())),
                            ("root", trace.root_name().map_or(Json::Null, Json::str)),
                            ("total_us", Json::Int(i128::from(trace.total_us))),
                            (
                                "spans",
                                Json::Int(i128::try_from(trace.spans.len()).unwrap_or(0)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Detail JSON for `GET /trace?id=`: the flat span list with parent
/// indices (a tree encoded by index).
#[must_use]
pub fn trace_detail(trace: &FinishedTrace) -> Json {
    Json::obj(vec![
        ("id", Json::Str(trace.id.to_string())),
        ("total_us", Json::Int(i128::from(trace.total_us))),
        ("dropped", Json::Int(i128::from(trace.dropped))),
        (
            "spans",
            Json::Arr(
                trace
                    .spans
                    .iter()
                    .map(|span| {
                        Json::obj(vec![
                            ("name", Json::str(span.name)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Int(i128::from(p))),
                            ),
                            ("start_us", Json::Int(i128::from(span.start_us))),
                            ("dur_us", Json::Int(i128::from(span.dur_us))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d::SerialBackend;
    use std::sync::Arc;

    fn stats_of(state: &ServiceState) -> Json {
        collect(state).render_stats(state)
    }

    #[test]
    fn family_names_and_their_series_are_unique() {
        let mut names = std::collections::BTreeSet::new();
        for family in FAMILIES {
            assert!(family.name.starts_with("an5d_"), "{}", family.name);
            let label = family.label();
            assert!(label.is_none_or(|key| ["endpoint", "backend", "device"].contains(&key)));
            assert_eq!(family.kind == Kind::Histogram, family.stats.contains("{}"));
            let mut series = vec![family.name.to_string()];
            if family.kind == Kind::Histogram {
                series.extend(
                    ["_bucket", "_sum", "_count", "_quantile"]
                        .iter()
                        .map(|suffix| format!("{}{suffix}", family.name)),
                );
            }
            for name in series {
                assert!(names.insert(name.clone()), "{name} exported twice");
            }
        }
    }

    #[test]
    fn pool_stats_render() {
        let state = ServiceState::new(Arc::new(SerialBackend), 8);
        let stats = stats_of(&state);
        let pool = stats.get("pool").expect("pool object");
        assert_eq!(
            pool.get("workers").and_then(Json::as_usize),
            Some(an5d::global_pool().threads())
        );
        for key in [
            "queued_batches",
            "items_executed",
            "batches_executed",
            "mean_batch_us",
            "max_batch_us",
            "p99_queue_wait_us",
        ] {
            assert!(pool.get(key).is_some(), "pool.{key} missing");
        }
    }

    #[test]
    fn a_fresh_service_reports_empty_series_objects_and_no_tune_db() {
        let state = ServiceState::new(Arc::new(SerialBackend), 8);
        let stats = stats_of(&state);
        for key in ["endpoints", "backends", "streams"] {
            assert_eq!(stats.get(key), Some(&Json::Obj(Vec::new())), "{key}");
        }
        assert_eq!(
            stats.get("tunedb").map(Json::render).as_deref(),
            Some(r#"{"enabled":false,"append_failures":0}"#)
        );
        let v100 = stats.get("devices").and_then(|d| d.get("v100")).unwrap();
        assert_eq!(
            v100.get("profile").and_then(Json::as_str),
            Some("Tesla V100 SXM2")
        );
        assert_eq!(
            v100.get("cache").and_then(|c| c.get("hit_rate")),
            Some(&Json::Num(0.0))
        );
    }
}
