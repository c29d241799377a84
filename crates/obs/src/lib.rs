//! Hand-rolled observability layer for the PropHunt suite.
//!
//! The crate provides a [`Registry`] of three typed instrument classes —
//! monotonic [`Counter`]s, last/max [`Gauge`]s and log2-bucketed
//! [`Histogram`]s — plus [`Span`] RAII timers that record their elapsed
//! nanoseconds into a `<name>.ns` histogram and, when a [`Tracer`] is
//! attached, the matching trace span, on drop. Every instrument is a named
//! `Arc<AtomicU64>`-backed cell: acquiring a handle takes a registry lock
//! once, after which recording is a single relaxed atomic op, safe to share
//! across the deterministic worker pool.
//!
//! The [`Obs`] wrapper is the form the rest of the workspace threads around:
//! a cloneable `Option<Arc<Registry>>` whose disabled state (the default)
//! turns every recording call into a branch on a `None` — instrumentation is
//! strictly out-of-band of the splitmix64 seed streams and costs near zero
//! when no registry is attached.
//!
//! # Determinism contract
//!
//! Counters are reserved for *deterministic* quantities: at a fixed
//! `(seed, chunk_size)` every counter must be bit-identical at any thread
//! count. Timings, occupancy and anything else thread-dependent must go to
//! gauges or histograms instead; [`Snapshot`] keeps the classes separate so
//! exporters can byte-compare the deterministic subset on its own.
//!
//! # Histogram buckets
//!
//! Histograms have [`HISTOGRAM_BUCKETS`] (65) fixed log2 buckets: bucket 0
//! holds exactly the value 0, and bucket `b >= 1` holds the values in
//! `[2^(b-1), 2^b - 1]` (bucket 64 is capped at `u64::MAX`). Bucket counts
//! plus a running sum are enough for p50/p90/p99 estimates to within a factor
//! of two, which is the resolution the report analyzer needs.

#![forbid(unsafe_code)]

mod trace;

pub use trace::{
    TraceEvent, TraceKind, TraceLog, TraceSpan, Tracer, WorkerScope, DIAG_CATEGORY, LOCAL_FLUSH,
    MAX_EVENTS,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Number of fixed log2 buckets in every [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index a value lands in: 0 for 0, `64 - leading_zeros` otherwise.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Smallest value in bucket `bucket` (0 for bucket 0, else `2^(bucket-1)`).
#[must_use]
pub fn bucket_lower(bucket: usize) -> u64 {
    assert!(bucket < HISTOGRAM_BUCKETS, "bucket {bucket} out of range");
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

/// Largest value in bucket `bucket` (0 for bucket 0, else `2^bucket - 1`,
/// saturating to `u64::MAX` for the final bucket).
#[must_use]
pub fn bucket_upper(bucket: usize) -> u64 {
    assert!(bucket < HISTOGRAM_BUCKETS, "bucket {bucket} out of range");
    if bucket == 0 {
        0
    } else if bucket == HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A [`Duration`] as whole nanoseconds, saturating at `u64::MAX` (~584 years).
#[must_use]
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Handle to a named monotonic counter. Cloning shares the same cell.
///
/// Counters carry the deterministic half of the observability contract: only
/// record quantities that are bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping, relaxed).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a named gauge: a last-written or running-max `u64` cell.
///
/// Gauges live on the non-deterministic side of the contract (occupancy,
/// peak sizes) and are excluded from byte-compared exports.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge with `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger than the current value.
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Handle to a named log2-bucketed histogram. Cloning shares the same cells.
///
/// Histograms carry timings and other thread-dependent distributions; see the
/// crate docs for the bucket layout.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation of `v`.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut count = 0u64;
        let mut buckets = Vec::new();
        for (b, cell) in self.0.buckets.iter().enumerate() {
            let c = cell.load(Ordering::Relaxed);
            if c > 0 {
                count += c;
                buckets.push((b, c));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of one histogram: total count, running sum, and the
/// non-empty `(bucket_index, count)` pairs in ascending bucket order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded observations.
    pub count: u64,
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`. Returns 0 for an
    /// empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(b, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(self.buckets.last().map_or(0, |&(b, _)| b))
    }

    /// Mean of the recorded values (exact — uses the running sum), or 0.0 for
    /// an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time copy of every instrument in a [`Registry`], each class
/// sorted by instrument name.
///
/// `counters` is the deterministic subset; `gauges` and `histograms` hold the
/// timing/occupancy side and are expected to vary run to run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of the named counter, or 0 if it was never created.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Snapshot of the named histogram, if it was ever created.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Named-instrument registry: the shared sink every instrumented layer
/// records into.
///
/// Instruments are created on first use and live for the registry's lifetime.
/// Handle acquisition takes a read lock (write lock only on first creation);
/// recording through a handle is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCore>>>,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(cell) = map.read().expect("obs registry lock poisoned").get(name) {
        return cell.clone();
    }
    map.write()
        .expect("obs registry lock poisoned")
        .entry(name.to_string())
        .or_default()
        .clone()
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Handle to the named counter, creating it at 0 on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(get_or_create(&self.counters, name))
    }

    /// Handle to the named gauge, creating it at 0 on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(get_or_create(&self.gauges, name))
    }

    /// Handle to the named histogram, creating it empty on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(get_or_create(&self.histograms, name))
    }

    /// Name-sorted point-in-time copy of every instrument.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("obs registry lock poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("obs registry lock poisoned")
            .iter()
            .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("obs registry lock poisoned")
            .iter()
            .map(|(n, h)| (n.clone(), Histogram(h.clone()).snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The cloneable observability handle threaded through runtime, session, LER
/// engines and search: either an attached shared [`Registry`] or disabled.
///
/// The default is disabled; every recording method then reduces to a branch
/// on `None`. Handles ([`Obs::counter`] etc.) come back as `Option`s so hot
/// loops can hoist the registry lookup out of the loop and skip timing work
/// entirely when disabled.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Option<Arc<Registry>>,
    tracer: Option<Tracer>,
}

impl Obs {
    /// A disabled handle: every recording call is a no-op.
    #[must_use]
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// An enabled handle backed by a fresh registry.
    #[must_use]
    pub fn enabled() -> Obs {
        Obs::with_registry(Arc::new(Registry::new()))
    }

    /// An enabled handle sharing the given registry.
    #[must_use]
    pub fn with_registry(registry: Arc<Registry>) -> Obs {
        Obs {
            registry: Some(registry),
            tracer: None,
        }
    }

    /// Returns the handle with a [`Tracer`] attached (builder-style). Every
    /// clone shares the tracer's sink, so one [`Obs::tracer`]`.drain()`
    /// collects events from every instrumented layer. Tracing composes with
    /// either registry state: a registry-less handle with a tracer records
    /// trace events and nothing else.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Obs {
        self.tracer = Some(tracer);
        self
    }

    /// Whether a registry is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Whether a tracer is attached.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The attached tracer, if any. Instrumented layers hoist this once
    /// (`obs.tracer().cloned()`) so the disabled path is a single `None`
    /// branch.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The attached registry, if any.
    #[must_use]
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Counter handle, or `None` when disabled.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<Counter> {
        self.registry.as_ref().map(|r| r.counter(name))
    }

    /// Gauge handle, or `None` when disabled.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.registry.as_ref().map(|r| r.gauge(name))
    }

    /// Histogram handle, or `None` when disabled.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.registry.as_ref().map(|r| r.histogram(name))
    }

    /// Adds 1 to the named counter (no-op when disabled).
    pub fn inc(&self, name: &str) {
        if let Some(r) = &self.registry {
            r.counter(name).inc();
        }
    }

    /// Adds `n` to the named counter (no-op when disabled).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.registry {
            r.counter(name).add(n);
        }
    }

    /// Raises the named gauge to at least `v` (no-op when disabled).
    pub fn gauge_max(&self, name: &str, v: u64) {
        if let Some(r) = &self.registry {
            r.gauge(name).record_max(v);
        }
    }

    /// Records `v` into the named histogram (no-op when disabled).
    pub fn record(&self, name: &str, v: u64) {
        if let Some(r) = &self.registry {
            r.histogram(name).record(v);
        }
    }

    /// Opens a [`Span`] named `name`: it records its elapsed nanoseconds into
    /// the `<name>.ns` histogram and, when a tracer is attached, one trace
    /// span `name` in category `cat` (parented to the thread's innermost open
    /// span). The span measures wall time even when both planes are off —
    /// [`Span::finish`] still returns the elapsed duration — but records
    /// nothing.
    #[must_use]
    pub fn span(&self, name: &str, cat: &str) -> Span {
        let mut span = self.span_site(name, cat).start();
        span.start.get_or_insert_with(Instant::now);
        span
    }

    /// Resolves a [`SpanSite`] once — the `<name>.ns` histogram handle and the
    /// tracer — so hot loops open spans without a registry lookup each time.
    #[must_use]
    pub fn span_site(&self, name: &str, cat: &str) -> SpanSite {
        SpanSite {
            name: name.to_string(),
            cat: cat.to_string(),
            hist: self
                .registry
                .as_ref()
                .map(|r| r.histogram(&format!("{name}.ns"))),
            tracer: self.tracer.clone(),
        }
    }

    /// Snapshot of the attached registry, or `None` when disabled.
    #[must_use]
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }
}

/// A hoisted span site from [`Obs::span_site`]: cloneable and shareable
/// across the worker pool, it opens [`Span`]s that record into one histogram
/// and trace name.
#[derive(Debug, Clone)]
pub struct SpanSite {
    name: String,
    cat: String,
    hist: Option<Histogram>,
    tracer: Option<Tracer>,
}

impl SpanSite {
    /// Whether a span from this site records anything (a registry or a
    /// tracer is attached).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.hist.is_some() || self.tracer.is_some()
    }

    /// Opens a span parented to the thread's innermost open trace span. When
    /// the site is disabled the span is inert: it reads no clock and
    /// [`Span::finish`] returns [`Duration::ZERO`].
    #[must_use]
    pub fn start(&self) -> Span {
        let trace = self.tracer.as_ref().map(|t| t.span(&self.name, &self.cat));
        self.open(trace)
    }

    /// [`SpanSite::start`] with an explicit trace parent id (0 = none) — the
    /// cross-thread form used to parent worker-side spans under a span opened
    /// on the control thread.
    #[must_use]
    pub fn start_child_of(&self, parent: u64) -> Span {
        let trace = self
            .tracer
            .as_ref()
            .map(|t| t.span_child_of(&self.name, &self.cat, parent));
        self.open(trace)
    }

    fn open(&self, trace: Option<TraceSpan>) -> Span {
        let start = match &trace {
            Some(t) => Some(t.start()),
            None => self.hist.as_ref().map(|_| Instant::now()),
        };
        Span {
            hist: self.hist.clone(),
            trace,
            start,
        }
    }
}

/// An open span from [`Obs::span`] or a [`SpanSite`]: records its elapsed
/// nanoseconds into the `<name>.ns` histogram and its trace span (with any
/// [`Span::arg`]s) exactly once, on [`Span::finish`] or on drop.
#[derive(Debug)]
pub struct Span {
    hist: Option<Histogram>,
    trace: Option<TraceSpan>,
    start: Option<Instant>,
}

impl Span {
    /// The trace span's id (0 without a tracer), for parenting children on
    /// other threads via [`SpanSite::start_child_of`].
    #[must_use]
    pub fn id(&self) -> u64 {
        self.trace.as_ref().map_or(0, TraceSpan::id)
    }

    /// Attaches a named `u64` argument to the trace span (no-op without a
    /// tracer).
    pub fn arg(&mut self, key: &str, value: u64) {
        if let Some(t) = &mut self.trace {
            t.arg(key, value);
        }
    }

    /// Elapsed wall time so far, without ending the span ([`Duration::ZERO`]
    /// for an inert span).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.map_or(Duration::ZERO, |s| s.elapsed())
    }

    /// Ends the span, records it, and returns the elapsed wall time.
    ///
    /// A span from [`Obs::span`] is measured even when the parent [`Obs`] is
    /// disabled, so callers can use one code path for both report timing
    /// fields and histogram export.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.elapsed();
        if let Some(h) = self.hist.take() {
            h.record(duration_ns(elapsed));
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record(duration_ns(self.elapsed()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn gauges_set_and_record_max() {
        let reg = Registry::new();
        let g = reg.gauge("workers");
        g.set(3);
        g.record_max(2);
        assert_eq!(g.get(), 3);
        g.record_max(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_math_covers_the_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_lower(1), 1);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_lower(64), 1u64 << 63);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_counts_sums_and_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("ns");
        for v in [0u64, 1, 1, 3, 100] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("ns").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 105);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 2), (2, 1), (7, 1)]);
        assert_eq!(hs.quantile(0.0), 0);
        // rank ceil(0.5 * 5) = 3 lands in bucket 1 (values 1..=1).
        assert_eq!(hs.quantile(0.5), 1);
        assert_eq!(hs.quantile(1.0), bucket_upper(7));
        assert!((hs.mean() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let hs = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        assert_eq!(hs.quantile(0.5), 0);
        assert_eq!(hs.mean(), 0.0);
    }

    #[test]
    fn snapshot_is_name_sorted_and_class_separated() {
        let reg = Registry::new();
        reg.counter("b.count").inc();
        reg.counter("a.count").add(2);
        reg.gauge("z.peak").set(9);
        reg.histogram("m.ns").record(10);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.count".to_string(), 2), ("b.count".to_string(), 1)]
        );
        assert_eq!(snap.gauges, vec![("z.peak".to_string(), 9)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.counter("a.count"), 2);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn disabled_obs_is_a_no_op_and_spans_still_measure() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.inc("never");
        obs.record("never.ns", 1);
        assert!(obs.counter("never").is_none());
        assert!(obs.snapshot().is_none());
        let span = obs.span("never", "test");
        let wall = span.finish();
        assert!(wall.as_nanos() > 0 || wall.is_zero());
    }

    #[test]
    fn spans_record_once_on_finish_or_drop() {
        let obs = Obs::enabled();
        let wall = obs.span("work", "test").finish();
        {
            let _guard = obs.span("work", "test");
        }
        let snap = obs.snapshot().unwrap();
        let hs = snap.histogram("work.ns").unwrap();
        assert_eq!(hs.count, 2);
        assert!(wall.as_nanos() <= u128::from(u64::MAX));
    }

    #[test]
    fn one_span_records_its_histogram_and_its_trace_span() {
        let tracer = Tracer::new();
        let obs = Obs::enabled().with_tracer(tracer.clone());
        {
            let mut job = obs.span("job.x", "job");
            job.arg("n", 3);
            assert!(job.id() > 0);
        }
        let outer = obs.span("outer", "test");
        let site = obs.span_site("stage", "test.stage");
        assert!(site.is_enabled());
        let wall = site.start_child_of(outer.id()).finish();
        let outer_id = outer.id();
        drop(outer);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.histogram("job.x.ns").unwrap().count, 1);
        assert_eq!(snap.histogram("stage.ns").unwrap().count, 1);
        assert_eq!(snap.histogram("stage.ns").unwrap().sum, duration_ns(wall));
        let log = tracer.drain();
        let event = |name: &str| log.events.iter().find(|e| e.name == name).unwrap();
        assert_eq!(event("job.x").cat, "job");
        assert_eq!(event("job.x").args, vec![("n".to_string(), 3)]);
        assert_eq!(event("stage").parent, outer_id);
        // Tracer only: the trace span records, no histogram exists to.
        let traced = Obs::disabled().with_tracer(Tracer::new());
        traced.span_site("t", "test").start().finish();
        assert_eq!(traced.tracer().unwrap().drain().events.len(), 1);
    }

    #[test]
    fn a_disabled_span_site_is_inert() {
        let site = Obs::disabled().span_site("never", "test");
        assert!(!site.is_enabled());
        let mut span = site.start();
        span.arg("ignored", 1);
        assert_eq!(span.id(), 0);
        assert_eq!(span.elapsed(), Duration::ZERO);
        assert_eq!(span.finish(), Duration::ZERO);
    }

    #[test]
    fn tracer_rides_the_obs_handle_and_composes_with_either_registry_state() {
        let plain = Obs::disabled();
        assert!(!plain.trace_enabled());
        assert!(plain.tracer().is_none());
        let traced = Obs::disabled().with_tracer(Tracer::new());
        assert!(traced.trace_enabled() && !traced.is_enabled());
        let clone = traced.clone();
        clone.span("work", "test").finish();
        let log = traced.tracer().unwrap().drain();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].name, "work");
        // Registry + tracer on one handle: both planes record.
        let both = Obs::enabled().with_tracer(Tracer::new());
        both.inc("jobs");
        both.span("job", "test").finish();
        let snap = both.snapshot().unwrap();
        assert_eq!(snap.counter("jobs"), 1);
        assert_eq!(snap.histogram("job.ns").unwrap().count, 1);
        assert_eq!(both.tracer().unwrap().drain().events.len(), 1);
    }

    #[test]
    fn shared_registry_obs_handles_record_into_the_same_instruments() {
        let reg = Arc::new(Registry::new());
        let a = Obs::with_registry(reg.clone());
        let b = a.clone();
        a.inc("jobs");
        b.inc("jobs");
        assert_eq!(reg.counter("jobs").get(), 2);
    }
}
