//! The trace-event layer: hierarchical span/instant events behind [`Tracer`].
//!
//! Where the registry half of this crate answers *how much* (counters,
//! histogram quantiles), the tracer answers *where time goes*: every
//! instrumented layer records begin/end span events (name, category, worker
//! lane, parent span, monotonic nanoseconds, small `u64` args) that export to
//! report-v3 `trace` records and Chrome trace-event JSON.
//!
//! # Buffering
//!
//! Recording appends to a per-thread buffer (a `thread_local!` ring of at most
//! [`LOCAL_FLUSH`] events) and only takes the central lock when the ring
//! fills, when the thread exits, or on [`Tracer::drain`]. The deterministic
//! worker pool spawns fresh scoped threads per parallel call, so worker
//! buffers flush before the call returns. A central cap ([`MAX_EVENTS`])
//! bounds memory on runaway runs; events past the cap are counted in
//! [`TraceLog::dropped`], never silently lost.
//!
//! # Determinism
//!
//! Like the registry, the tracer is strictly out-of-band of the seed streams:
//! attaching one cannot change results. Timeline events carry wall-clock
//! timestamps and are *not* thread-count reproducible; **diagnostic** events
//! ([`Tracer::diag`]) carry `ts = dur = 0`, no span ids and only
//! deterministic args, so the `cat == "diag"` subset of a drained log is
//! bit-identical at any thread count for a fixed `(seed, chunk_size)`.
//! [`Tracer::drain`] sorts events by timestamp with a *stable* sort: the
//! diag subset (all from the single-threaded control path) keeps its emission
//! order and sorts ahead of every timeline event.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Per-thread buffer capacity: the ring flushes to the central sink when it
/// holds this many events.
pub const LOCAL_FLUSH: usize = 1024;

/// Central event cap per tracer; events recorded past it are dropped (and
/// counted in [`TraceLog::dropped`]).
pub const MAX_EVENTS: usize = 1 << 22;

/// Category of the deterministic diagnostic events emitted by
/// [`Tracer::diag`].
pub const DIAG_CATEGORY: &str = "diag";

/// Whether an event is a duration span or a point-in-time instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A begin/end pair, recorded as one complete event with a duration.
    Span,
    /// A point event with no duration.
    Instant,
}

impl TraceKind {
    /// A stable machine-readable name (`"span"` / `"instant"`).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceKind::Span => "span",
            TraceKind::Instant => "instant",
        }
    }

    /// Parses the name produced by [`TraceKind::as_str`].
    #[must_use]
    pub fn parse(name: &str) -> Option<TraceKind> {
        match name {
            "span" => Some(TraceKind::Span),
            "instant" => Some(TraceKind::Instant),
            _ => None,
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (e.g. `runtime.task`, `ler.chunk`, `search.round`).
    pub name: String,
    /// Category, used to group lanes on export ([`DIAG_CATEGORY`] marks the
    /// deterministic diagnostic subset).
    pub cat: String,
    /// Span or instant.
    pub kind: TraceKind,
    /// Lane id: worker index under the runtime pool (0 = the control thread),
    /// or the instance slot for search diagnostics.
    pub tid: u64,
    /// Span id (unique per tracer, 0 for instants and diagnostics).
    pub id: u64,
    /// Enclosing span's id (0 = none).
    pub parent: u64,
    /// Start time in nanoseconds since the tracer's epoch (0 for diagnostics).
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Small named `u64` payload, in insertion order.
    pub args: Vec<(String, u64)>,
}

/// A drained trace: every event recorded since the last drain, plus the count
/// of events dropped at the buffer caps.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Events, stably sorted by start timestamp (diagnostics first).
    pub events: Vec<TraceEvent>,
    /// Events discarded because the central cap was reached.
    pub dropped: u64,
}

/// The shared sink a tracer's threads flush into.
#[derive(Debug)]
struct Sink {
    epoch: Instant,
    next_id: AtomicU64,
    len: AtomicUsize,
    dropped: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

/// The cloneable trace-event recorder. All clones share one sink; see the
/// module-level docs above for buffering and determinism.
#[derive(Debug, Clone)]
pub struct Tracer {
    tracer_id: u64,
    sink: Arc<Sink>,
}

/// Per-(thread, tracer) state: the event ring, the open-span stack used for
/// parent attribution, and the thread's lane id.
struct ThreadEntry {
    tracer_id: u64,
    sink: Weak<Sink>,
    buf: Vec<TraceEvent>,
    stack: Vec<u64>,
    tid: u64,
}

impl ThreadEntry {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let Some(sink) = self.sink.upgrade() else {
            self.buf.clear();
            return;
        };
        let mut events = sink.events.lock().expect("trace sink lock poisoned");
        let room = MAX_EVENTS.saturating_sub(events.len());
        if self.buf.len() > room {
            sink.dropped
                .fetch_add((self.buf.len() - room) as u64, Ordering::Relaxed);
            self.buf.truncate(room);
        }
        events.extend(self.buf.drain(..));
        sink.len.store(events.len(), Ordering::Relaxed);
    }
}

impl Drop for ThreadEntry {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    /// Entries for every tracer this thread has recorded into (usually one).
    static TLS: RefCell<Vec<ThreadEntry>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a tracer with a fresh epoch and an empty sink.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            tracer_id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            sink: Arc::new(Sink {
                epoch: Instant::now(),
                next_id: AtomicU64::new(0),
                len: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The tracer's epoch: every `ts_ns` is measured from this instant.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.sink.epoch
    }

    /// Nanoseconds from the epoch to `at` (0 when `at` precedes the epoch).
    #[must_use]
    pub fn ts_of(&self, at: Instant) -> u64 {
        crate::duration_ns(at.saturating_duration_since(self.sink.epoch))
    }

    fn with_entry<R>(&self, f: impl FnOnce(&mut ThreadEntry) -> R) -> R {
        TLS.with(|cell| {
            let mut entries = cell.borrow_mut();
            let index = match entries.iter().position(|e| e.tracer_id == self.tracer_id) {
                Some(i) => i,
                None => {
                    entries.push(ThreadEntry {
                        tracer_id: self.tracer_id,
                        sink: Arc::downgrade(&self.sink),
                        buf: Vec::new(),
                        stack: Vec::new(),
                        tid: 0,
                    });
                    entries.len() - 1
                }
            };
            f(&mut entries[index])
        })
    }

    fn push_event(&self, event: TraceEvent) {
        self.with_entry(|entry| {
            if self.sink.len.load(Ordering::Relaxed) + entry.buf.len() >= MAX_EVENTS {
                self.sink.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                entry.buf.push(event);
            }
            if entry.buf.len() >= LOCAL_FLUSH {
                entry.flush();
            }
        });
    }

    /// Sets the current thread's lane id for this tracer, returning a guard
    /// that restores the previous lane — and flushes the thread's buffer — on
    /// drop. The runtime worker pool scopes each worker to lane `worker + 1`;
    /// lane 0 is the control thread. The flush-on-drop matters for scoped
    /// workers: a `std::thread::scope` can return before its threads' TLS
    /// destructors run, so the guard (dropping inside the worker closure) is
    /// what guarantees worker events are centrally visible when the parallel
    /// call returns.
    #[must_use]
    pub fn worker_scope(&self, tid: u64) -> WorkerScope {
        let previous = self.with_entry(|entry| std::mem::replace(&mut entry.tid, tid));
        WorkerScope {
            tracer: self.clone(),
            previous,
        }
    }

    /// Opens a span parented to the current thread's innermost open span.
    /// The span records one complete event when dropped or
    /// [`TraceSpan::finish`]ed.
    #[must_use]
    pub fn span(&self, name: &str, cat: &str) -> TraceSpan {
        let parent = self.with_entry(|entry| entry.stack.last().copied().unwrap_or(0));
        self.span_child_of(name, cat, parent)
    }

    /// Opens a span with an explicit parent id (0 = none) — the cross-thread
    /// form used to parent worker-side task spans under the pool-call span.
    #[must_use]
    pub fn span_child_of(&self, name: &str, cat: &str, parent: u64) -> TraceSpan {
        let id = self.sink.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let tid = self.with_entry(|entry| {
            entry.stack.push(id);
            entry.tid
        });
        TraceSpan {
            tracer: self.clone(),
            name: name.to_string(),
            cat: cat.to_string(),
            tid,
            id,
            parent,
            start: Instant::now(),
            args: Vec::new(),
        }
    }

    /// Records an instant event at the current time on the current lane,
    /// parented to the innermost open span.
    pub fn instant(&self, name: &str, cat: &str, args: &[(&str, u64)]) {
        let (tid, parent) =
            self.with_entry(|entry| (entry.tid, entry.stack.last().copied().unwrap_or(0)));
        let ts_ns = self.ts_of(Instant::now());
        self.push_event(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            kind: TraceKind::Instant,
            tid,
            id: 0,
            parent,
            ts_ns,
            dur_ns: 0,
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Records a deterministic diagnostic event: `ts = dur = 0`, no span ids,
    /// category [`DIAG_CATEGORY`], with `tid` carrying a deterministic lane
    /// (e.g. a portfolio instance slot). Only call with thread-count-invariant
    /// `args` — the `cat == "diag"` subset of a drained log is byte-compared
    /// across thread counts.
    pub fn diag(&self, name: &str, tid: u64, args: &[(&str, u64)]) {
        self.push_event(TraceEvent {
            name: name.to_string(),
            cat: DIAG_CATEGORY.to_string(),
            kind: TraceKind::Instant,
            tid,
            id: 0,
            parent: 0,
            ts_ns: 0,
            dur_ns: 0,
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Takes every event recorded since the last drain, stably sorted by
    /// start timestamp (so the `ts = 0` diagnostic subset leads, in emission
    /// order). Flushes the calling thread's buffer first; worker threads flush
    /// when their [`Tracer::worker_scope`] guard drops (before the parallel
    /// call returns) and again, as a backstop, on thread exit.
    #[must_use]
    pub fn drain(&self) -> TraceLog {
        self.with_entry(ThreadEntry::flush);
        let mut events = {
            let mut guard = self.sink.events.lock().expect("trace sink lock poisoned");
            self.sink.len.store(0, Ordering::Relaxed);
            std::mem::take(&mut *guard)
        };
        events.sort_by_key(|e| e.ts_ns);
        TraceLog {
            events,
            dropped: self.sink.dropped.swap(0, Ordering::Relaxed),
        }
    }
}

/// Guard from [`Tracer::worker_scope`]: restores the previous lane id on drop.
#[derive(Debug)]
pub struct WorkerScope {
    tracer: Tracer,
    previous: u64,
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        let previous = self.previous;
        self.tracer.with_entry(|entry| {
            entry.tid = previous;
            entry.flush();
        });
    }
}

/// An open span from [`Tracer::span`] / [`Tracer::span_child_of`]: records one
/// complete event exactly once, on [`TraceSpan::finish`] or on drop.
#[derive(Debug)]
pub struct TraceSpan {
    tracer: Tracer,
    name: String,
    cat: String,
    tid: u64,
    id: u64,
    parent: u64,
    start: Instant,
    args: Vec<(String, u64)>,
}

impl TraceSpan {
    /// The span's id, for parenting children on other threads.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches (or appends) a named `u64` argument.
    pub fn arg(&mut self, key: &str, value: u64) {
        self.args.push((key.to_string(), value));
    }

    /// The instant the span opened.
    pub(crate) fn start(&self) -> Instant {
        self.start
    }

    /// Elapsed wall time since the span opened.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span and records it.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let dur_ns = crate::duration_ns(self.start.elapsed());
        let event = TraceEvent {
            name: std::mem::take(&mut self.name),
            cat: std::mem::take(&mut self.cat),
            kind: TraceKind::Span,
            tid: self.tid,
            id: self.id,
            parent: self.parent,
            ts_ns: self.tracer.ts_of(self.start),
            dur_ns,
            args: std::mem::take(&mut self.args),
        };
        let id = self.id;
        self.tracer.with_entry(|entry| {
            // Spans almost always drop in LIFO order; tolerate out-of-order
            // drops (e.g. a moved guard) by removing the id wherever it sits.
            match entry.stack.last() {
                Some(&top) if top == id => {
                    entry.stack.pop();
                }
                _ => entry.stack.retain(|&open| open != id),
            }
        });
        self.tracer.push_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parent_links() {
        let tracer = Tracer::new();
        {
            let outer = tracer.span("outer", "test");
            let outer_id = outer.id();
            {
                let mut inner = tracer.span("inner", "test");
                inner.arg("k", 7);
                assert_eq!(inner.id(), outer_id + 1);
            }
            tracer.instant("mark", "test", &[("x", 1)]);
            drop(outer);
        }
        let log = tracer.drain();
        assert_eq!(log.dropped, 0);
        let inner = log.events.iter().find(|e| e.name == "inner").unwrap();
        let outer = log.events.iter().find(|e| e.name == "outer").unwrap();
        let mark = log.events.iter().find(|e| e.name == "mark").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(mark.parent, outer.id);
        assert_eq!(mark.kind, TraceKind::Instant);
        assert_eq!(inner.kind, TraceKind::Span);
        assert_eq!(inner.args, vec![("k".to_string(), 7)]);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(outer.ts_ns <= inner.ts_ns);
    }

    #[test]
    fn worker_scope_sets_and_restores_the_lane() {
        let tracer = Tracer::new();
        {
            let _scope = tracer.worker_scope(3);
            tracer.instant("in", "test", &[]);
        }
        tracer.instant("out", "test", &[]);
        let log = tracer.drain();
        assert_eq!(log.events.iter().find(|e| e.name == "in").unwrap().tid, 3);
        assert_eq!(log.events.iter().find(|e| e.name == "out").unwrap().tid, 0);
    }

    #[test]
    fn diag_events_are_timeless_and_sort_first() {
        let tracer = Tracer::new();
        tracer.span("work", "test").finish();
        tracer.diag("d.one", 0, &[("round", 0)]);
        tracer.diag("d.two", 1, &[("round", 0)]);
        let log = tracer.drain();
        assert_eq!(log.events[0].name, "d.one");
        assert_eq!(log.events[1].name, "d.two");
        for diag in &log.events[..2] {
            assert_eq!(diag.cat, DIAG_CATEGORY);
            assert_eq!(
                (diag.ts_ns, diag.dur_ns, diag.id, diag.parent),
                (0, 0, 0, 0)
            );
        }
        assert_eq!(log.events[2].name, "work");
    }

    #[test]
    fn cross_thread_events_flush_when_scoped_workers_exit() {
        let tracer = Tracer::new();
        let call = tracer.span("call", "test");
        let call_id = call.id();
        #[allow(
            clippy::disallowed_methods,
            reason = "the test needs real worker threads, as the runtime pool starts them"
        )]
        std::thread::scope(|scope| {
            for w in 0..3u64 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let _lane = tracer.worker_scope(w + 1);
                    let mut span = tracer.span_child_of("task", "test", call_id);
                    span.arg("worker", w + 1);
                });
            }
        });
        drop(call);
        let log = tracer.drain();
        let tasks: Vec<_> = log.events.iter().filter(|e| e.name == "task").collect();
        assert_eq!(tasks.len(), 3);
        let mut lanes: Vec<u64> = tasks.iter().map(|e| e.tid).collect();
        lanes.sort_unstable();
        assert_eq!(lanes, vec![1, 2, 3]);
        assert!(tasks.iter().all(|e| e.parent == call_id));
    }

    #[test]
    fn central_cap_counts_dropped_events() {
        let tracer = Tracer::new();
        // Fill the sink to the cap directly, then record one more.
        {
            let mut events = tracer.sink.events.lock().unwrap();
            events.resize(
                MAX_EVENTS,
                TraceEvent {
                    name: String::new(),
                    cat: String::new(),
                    kind: TraceKind::Instant,
                    tid: 0,
                    id: 0,
                    parent: 0,
                    ts_ns: 0,
                    dur_ns: 0,
                    args: Vec::new(),
                },
            );
            tracer.sink.len.store(MAX_EVENTS, Ordering::Relaxed);
        }
        tracer.instant("over", "test", &[]);
        let log = tracer.drain();
        assert_eq!(log.events.len(), MAX_EVENTS);
        assert_eq!(log.dropped, 1);
        // The cap resets with the drain.
        tracer.instant("after", "test", &[]);
        let log = tracer.drain();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_mix_events() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.instant("a", "test", &[]);
        b.instant("b", "test", &[]);
        let la = a.drain();
        let lb = b.drain();
        assert_eq!(la.events.len(), 1);
        assert_eq!(la.events[0].name, "a");
        assert_eq!(lb.events.len(), 1);
        assert_eq!(lb.events[0].name, "b");
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [TraceKind::Span, TraceKind::Instant] {
            assert_eq!(TraceKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(TraceKind::parse("nope"), None);
    }
}
