//! Recorders behind the service's metric families: per-endpoint latency
//! and outcomes, streaming, per-backend `backend.execute` latency, the
//! robustness counters and the connection-layer gauges. Which series the
//! service exports from them is declared once, in [`crate::telemetry`].
//!
//! Recording never locks or allocates on the request path: endpoint and
//! stream recorders sit in fixed slots indexed by the endpoint's position
//! in [`ENDPOINTS`], each created on first use. Only the per-backend
//! recorders live in a map, because backend names are open-ended; that
//! map is only ever *inserted into*, so a poisoned lock still guards a
//! structurally valid map and is recovered with
//! [`PoisonError::into_inner`].

use crate::handlers::ENDPOINTS;
use an5d::{BlockedRun, ExecutionBackend, Grid, KernelPlan, StencilProblem};
use an5d_obs::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Aggregated statistics for one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Requests dispatched to the handler (including failed ones).
    pub count: u64,
    /// Requests answered with a non-2xx status.
    pub errors: u64,
    /// Total handler latency in microseconds.
    pub total_micros: u64,
    /// Worst handler latency in microseconds.
    pub max_micros: u64,
}

impl EndpointStats {
    /// Mean handler latency in microseconds (0 with no requests).
    #[must_use]
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.count).unwrap_or(0)
    }
}

/// One endpoint's recorder: an error counter beside the latency
/// histogram, whose count, sum and max are the request totals.
#[derive(Debug, Default)]
pub(crate) struct EndpointRecorder {
    pub(crate) errors: AtomicU64,
    pub(crate) latency: Histogram,
}

impl EndpointRecorder {
    fn stats(&self) -> EndpointStats {
        EndpointStats {
            count: self.latency.count(),
            errors: self.errors.load(Ordering::Relaxed),
            total_micros: self.latency.sum(),
            max_micros: self.latency.max(),
        }
    }
}

/// A point-in-time copy of one endpoint's streaming counters.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Streamed responses that produced at least one chunk.
    pub streams: u64,
    /// Chunks produced across all streams of the endpoint.
    pub chunks: u64,
    /// Payload bytes produced (before chunked framing).
    pub bytes: u64,
    /// Time-to-first-byte: handler start to first chunk produced.
    pub ttfb: HistogramSnapshot,
}

/// One endpoint's streaming recorder: chunk/byte counters plus a
/// time-to-first-byte histogram.
#[derive(Debug, Default)]
pub(crate) struct StreamRecorder {
    pub(crate) streams: AtomicU64,
    pub(crate) chunks: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) ttfb: Histogram,
}

/// A point-in-time copy of the connection-layer gauges and counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionSnapshot {
    /// Connections accepted since startup.
    pub accepted: u64,
    /// Connections closed since startup (any reason).
    pub closed: u64,
    /// Connections that died mid-request (peer EOF or transport error
    /// while a request head or body was partially buffered).
    pub aborted: u64,
    /// Connections currently open.
    pub open: u64,
    /// Open connections idle between requests (no buffered bytes, no
    /// request in flight) — the cheap majority under C10K load.
    pub parked: u64,
}

impl ConnectionSnapshot {
    /// Open connections actively reading, executing, or writing.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.open.saturating_sub(self.parked)
    }
}

/// Connection-layer gauges maintained by the reactor thread.
///
/// Only the reactor mutates these (single-threaded), but `/metrics` and
/// `/stats` render them from worker threads, so they are atomics rather
/// than plain fields.
#[derive(Debug, Default)]
pub struct ConnectionStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    aborted: AtomicU64,
    open: AtomicU64,
    parked: AtomicU64,
    /// Busy time of one reactor loop iteration (poll-return to
    /// poll-entry), microseconds. A growing tail here means the reactor
    /// itself — not the workers — is the bottleneck.
    loop_busy: Histogram,
}

impl ConnectionStats {
    /// One connection accepted (opens it).
    pub fn on_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection closed; `aborted` marks a mid-request death.
    pub fn on_closed(&self, aborted: bool) {
        self.closed.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_sub(1, Ordering::Relaxed);
        if aborted {
            self.aborted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A connection entered the parked (idle keep-alive) state.
    pub fn on_parked(&self) {
        self.parked.fetch_add(1, Ordering::Relaxed);
    }

    /// A parked connection became active again (or closed).
    pub fn on_unparked(&self) {
        self.parked.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record the busy time of one reactor loop iteration.
    pub fn record_loop(&self, busy: Duration) {
        self.loop_busy.record_duration(busy);
    }

    /// Copy of the counters for rendering.
    #[must_use]
    pub fn snapshot(&self) -> ConnectionSnapshot {
        ConnectionSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            open: self.open.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the reactor-loop busy-time histogram.
    #[must_use]
    pub fn loop_snapshot(&self) -> HistogramSnapshot {
        self.loop_busy.snapshot()
    }
}

/// One recorder slot per entry of [`ENDPOINTS`], filled on first use.
type Slots<T> = [OnceLock<T>; ENDPOINTS.len()];

/// Position of `path` in [`ENDPOINTS`].
fn slot(path: &str) -> Option<usize> {
    ENDPOINTS.iter().position(|&(_, known)| known == path)
}

/// The filled slots with their paths, in [`ENDPOINTS`] order.
fn filled<T>(slots: &Slots<T>) -> impl Iterator<Item = (&'static str, &T)> {
    ENDPOINTS
        .iter()
        .zip(slots)
        .filter_map(|(&(_, path), slot)| Some((path, slot.get()?)))
}

/// Thread-safe metrics registry shared by every connection worker.
///
/// Endpoints are the paths of [`ENDPOINTS`] and render in that order;
/// recording a path outside it is a no-op (dispatch answers such paths
/// 404 before anything is recorded).
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: Slots<EndpointRecorder>,
    /// Streaming counters per endpoint (`?stream=1` and `/batch`).
    streams: Slots<StreamRecorder>,
    /// `backend.execute` latency per backend name, fed by
    /// [`MeteredBackend`] wrappers around every backend the service
    /// executes on.
    backends: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    /// Requests turned away by admission control with a 503.
    rejected: AtomicU64,
    /// Requests shed with a 503 because their deadline was already
    /// expired at dispatch admission (never reached a worker).
    deadline_shed: AtomicU64,
    /// Requests answered 504 because their deadline expired while a
    /// worker was processing them.
    deadline_expired: AtomicU64,
    /// Tune results that could not be appended to the persisted DB
    /// (the response still carried the result — durability degraded).
    tunedb_append_failures: AtomicU64,
    /// Connection-layer gauges, fed by the reactor.
    connections: ConnectionStats,
}

impl Metrics {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one handled request for an endpoint.
    pub fn record(&self, endpoint: &str, latency: Duration, ok: bool) {
        let Some(index) = slot(endpoint) else {
            return;
        };
        let recorder = self.endpoints[index].get_or_init(EndpointRecorder::default);
        if !ok {
            recorder.errors.fetch_add(1, Ordering::Relaxed);
        }
        recorder.latency.record_duration(latency);
    }

    fn stream_recorder(&self, endpoint: &str) -> Option<&StreamRecorder> {
        Some(self.streams[slot(endpoint)?].get_or_init(StreamRecorder::default))
    }

    /// Record a streamed response's time-to-first-byte (handler start
    /// to first chunk produced); also counts the stream itself.
    pub fn record_stream_ttfb(&self, endpoint: &str, latency: Duration) {
        if let Some(recorder) = self.stream_recorder(endpoint) {
            recorder.streams.fetch_add(1, Ordering::Relaxed);
            recorder.ttfb.record_duration(latency);
        }
    }

    /// Record one produced chunk of `bytes` payload bytes on a
    /// streamed response.
    pub fn record_stream_chunk(&self, endpoint: &str, bytes: usize) {
        if let Some(recorder) = self.stream_recorder(endpoint) {
            recorder.chunks.fetch_add(1, Ordering::Relaxed);
            recorder
                .bytes
                .fetch_add(u64::try_from(bytes).unwrap_or(u64::MAX), Ordering::Relaxed);
        }
    }

    /// Per-endpoint streaming snapshots of every endpoint that has
    /// streamed, in [`ENDPOINTS`] order.
    #[must_use]
    pub fn stream_snapshots(&self) -> Vec<(String, StreamSnapshot)> {
        self.stream_recorders()
            .map(|(path, recorder)| {
                (
                    path.to_string(),
                    StreamSnapshot {
                        streams: recorder.streams.load(Ordering::Relaxed),
                        chunks: recorder.chunks.load(Ordering::Relaxed),
                        bytes: recorder.bytes.load(Ordering::Relaxed),
                        ttfb: recorder.ttfb.snapshot(),
                    },
                )
            })
            .collect()
    }

    /// Recorders of every endpoint that has streamed.
    pub(crate) fn stream_recorders(&self) -> impl Iterator<Item = (&'static str, &StreamRecorder)> {
        filled(&self.streams)
    }

    /// Recorders of every endpoint that has been hit.
    pub(crate) fn endpoint_recorders(
        &self,
    ) -> impl Iterator<Item = (&'static str, &EndpointRecorder)> {
        filled(&self.endpoints)
    }

    /// Record one `backend.execute` call on the named backend.
    pub fn record_backend_execute(&self, backend: &'static str, latency: Duration) {
        let histogram = {
            let mut backends = self.backends.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(backends.entry(backend).or_default())
        };
        histogram.record_duration(latency);
    }

    /// `backend.execute` latency histograms per backend name, sorted by
    /// name.
    pub(crate) fn backend_histograms(&self) -> Vec<(&'static str, Arc<Histogram>)> {
        let backends = self.backends.lock().unwrap_or_else(PoisonError::into_inner);
        backends
            .iter()
            .map(|(&name, histogram)| (name, Arc::clone(histogram)))
            .collect()
    }

    /// Record one connection rejected by admission control.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of admission-control rejections so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Record one request shed at admission because its deadline had
    /// already expired.
    pub fn record_deadline_shed(&self) {
        self.deadline_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed at admission for an already-expired deadline.
    #[must_use]
    pub fn deadline_shed(&self) -> u64 {
        self.deadline_shed.load(Ordering::Relaxed)
    }

    /// Record one request answered 504 after its deadline expired
    /// mid-processing.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests answered 504 for a deadline that expired mid-processing.
    #[must_use]
    pub fn deadline_expired(&self) -> u64 {
        self.deadline_expired.load(Ordering::Relaxed)
    }

    /// Record one tune result that could not be persisted.
    pub fn record_tunedb_append_failure(&self) {
        self.tunedb_append_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Tune results that were served but could not be persisted.
    #[must_use]
    pub fn tunedb_append_failures(&self) -> u64 {
        self.tunedb_append_failures.load(Ordering::Relaxed)
    }

    /// The connection-layer gauges (written by the reactor).
    #[must_use]
    pub fn connections(&self) -> &ConnectionStats {
        &self.connections
    }

    /// Snapshot of one endpoint's stats (zeroes when never hit).
    #[must_use]
    pub fn endpoint(&self, endpoint: &str) -> EndpointStats {
        slot(endpoint)
            .and_then(|index| self.endpoints[index].get())
            .map(EndpointRecorder::stats)
            .unwrap_or_default()
    }

    /// Latency histogram snapshot of one endpoint (`None` when never hit).
    #[must_use]
    pub fn histogram(&self, endpoint: &str) -> Option<HistogramSnapshot> {
        slot(endpoint)
            .and_then(|index| self.endpoints[index].get())
            .map(|recorder| recorder.latency.snapshot())
    }
}

/// An [`ExecutionBackend`] decorator that records the wall-clock latency
/// of every `backend.execute` call into the shared [`Metrics`] registry,
/// keyed by the inner backend's name.
///
/// Transparent by construction: it delegates `name`/`describe` and the
/// execute methods verbatim, so wrapping never changes results — only
/// observability.
pub struct MeteredBackend {
    inner: Arc<dyn ExecutionBackend>,
    metrics: Arc<Metrics>,
}

impl MeteredBackend {
    /// Wrap `inner`, recording its execute latency into `metrics`.
    #[must_use]
    pub fn new(inner: Arc<dyn ExecutionBackend>, metrics: Arc<Metrics>) -> Self {
        Self { inner, metrics }
    }
}

impl std::fmt::Debug for MeteredBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeteredBackend")
            .field("inner", &self.inner.describe())
            .finish()
    }
}

impl ExecutionBackend for MeteredBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn execute_f32(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32> {
        let started = Instant::now();
        let run = self.inner.execute_f32(plan, problem, initial);
        self.metrics
            .record_backend_execute(self.inner.name(), started.elapsed());
        run
    }

    fn execute_f64(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64> {
        let started = Instant::now();
        let run = self.inner.execute_f64(plan, problem, initial);
        self.metrics
            .record_backend_execute(self.inner.name(), started.elapsed());
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_errors_and_latency() {
        let metrics = Metrics::new();
        metrics.record("/tune", Duration::from_micros(100), true);
        metrics.record("/tune", Duration::from_micros(300), false);
        metrics.record("/stats", Duration::from_micros(5), true);

        let tune = metrics.endpoint("/tune");
        assert_eq!(tune.count, 2);
        assert_eq!(tune.errors, 1);
        assert_eq!(tune.mean_micros(), 200);
        assert_eq!(tune.max_micros, 300);
        assert_eq!(metrics.endpoint("/nope"), EndpointStats::default());

        metrics.record("/nope", Duration::from_micros(1), true);
        assert_eq!(metrics.endpoint("/nope"), EndpointStats::default());

        metrics.record_rejected();
        assert_eq!(metrics.rejected(), 1);

        // Recorded endpoints iterate in ENDPOINTS order, sorted by path.
        let paths: Vec<&str> = metrics.endpoint_recorders().map(|(path, _)| path).collect();
        assert_eq!(paths, ["/stats", "/tune"]);
        assert!(ENDPOINTS.windows(2).all(|pair| pair[0].1 < pair[1].1));
    }

    #[test]
    fn endpoint_histograms_answer_percentiles() {
        let metrics = Metrics::new();
        for i in 1..=100u64 {
            metrics.record("/plan", Duration::from_micros(i * 10), true);
        }
        let histogram = metrics.histogram("/plan").expect("recorded");
        assert_eq!(histogram.count(), 100);
        assert_eq!(histogram.max(), 1_000);
        let p50 = histogram.quantile(0.5);
        let p99 = histogram.quantile(0.99);
        assert!((500..=520).contains(&p50), "p50 {p50}");
        assert!((990..=1_000).contains(&p99), "p99 {p99}");
        assert!(metrics.histogram("/nope").is_none());
        assert!(metrics.histogram("/tune").is_none(), "never hit");
    }

    #[test]
    fn connection_gauges_track_the_lifecycle() {
        let metrics = Metrics::new();
        let conns = metrics.connections();
        for _ in 0..3 {
            conns.on_accepted();
            conns.on_parked();
        }
        conns.on_unparked(); // one connection goes active
        let snap = conns.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.open, 3);
        assert_eq!(snap.parked, 2);
        assert_eq!(snap.active(), 1);

        conns.on_closed(true); // the active one dies mid-request
        conns.on_unparked();
        conns.on_closed(false);
        let snap = conns.snapshot();
        assert_eq!(snap.closed, 2);
        assert_eq!(snap.aborted, 1);
        assert_eq!(snap.open, 1);
        assert_eq!(snap.parked, 1);
        assert_eq!(snap.active(), 0);

        conns.record_loop(Duration::from_micros(120));
        assert_eq!(conns.loop_snapshot().count(), 1);
    }

    #[test]
    fn metered_backend_is_transparent_and_records_per_backend_latency() {
        use an5d::{An5d, BlockConfig, Precision, SerialBackend};

        let metrics = Arc::new(Metrics::new());
        let backend: Arc<dyn ExecutionBackend> = Arc::new(MeteredBackend::new(
            Arc::new(SerialBackend),
            Arc::clone(&metrics),
        ));
        assert_eq!(backend.name(), "serial");
        assert_eq!(backend.describe(), "serial");

        let an5d = An5d::benchmark("j2d5pt")
            .unwrap()
            .with_backend(Arc::clone(&backend));
        let problem = an5d.problem(&[24, 24], 4).unwrap();
        let config = BlockConfig::new(2, &[12], None, Precision::Double).unwrap();
        let report = an5d.verify(&problem, &config).unwrap();
        assert!(report.matches_reference, "metering must not change results");

        let histograms = metrics.backend_histograms();
        assert_eq!(histograms.len(), 1);
        assert_eq!(histograms[0].0, "serial");
        assert_eq!(histograms[0].1.count(), 1, "one execute, one sample");
    }
}
