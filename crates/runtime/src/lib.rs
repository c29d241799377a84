//! Deterministic, bounded parallel execution for the PropHunt workspace.
//!
//! Every parallel stage of the optimization pipeline — ambiguous-subgraph
//! sampling, candidate verification and Monte-Carlo logical-error-rate
//! estimation — is embarrassingly parallel, but the seed implementation gave
//! each call site its own `crossbeam::thread::scope` block, spawned one OS
//! thread *per candidate* during verification, and derived RNG seeds per
//! **thread**, so results silently changed with the thread count.
//!
//! This crate replaces all of that with one shared execution layer built on
//! three rules:
//!
//! 1. **Work is split by task, never by thread.** A parallel call is divided
//!    into a thread-count-independent list of tasks (items, chunks, or shot
//!    batches). Worker threads pull task indices from a shared atomic counter,
//!    so the *schedule* is dynamic but the *set of tasks* is fixed.
//! 2. **Randomness is derived per task.** [`SeedStream`] maps `(base seed,
//!    task index)` to an independent RNG seed via splitmix64. Any fixed
//!    `(seed, chunk_size)` therefore yields bit-identical results at any
//!    thread count.
//! 3. **Results are assembled in task order.** Whatever order tasks finish
//!    in, outputs are returned ordered by task index, so downstream code sees
//!    a deterministic sequence.
//!
//! Threads are bounded by [`RuntimeConfig::threads`]; a parallel call spawns
//! at most that many scoped workers (fewer when there are fewer tasks) and
//! never one thread per work item.
//!
//! # Example
//!
//! ```
//! use prophunt_runtime::{Runtime, RuntimeConfig, SeedStream};
//!
//! let runtime = Runtime::new(RuntimeConfig::new(4, 16, 0xfeed));
//! let squares = runtime.par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Per-task seeds: identical at any thread count.
//! let stream = SeedStream::new(7);
//! let a = runtime.par_seeded(8, &stream, |_task, seed| seed);
//! let single = Runtime::new(RuntimeConfig::new(1, 16, 0xfeed));
//! assert_eq!(a, single.par_seeded(8, &stream, |_task, seed| seed));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use prophunt_obs::{duration_ns, Obs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Configuration of the shared parallel runtime.
///
/// One `RuntimeConfig` is plumbed through `PropHuntConfig`, the LER estimator
/// and the bench binaries so an entire run shares a single `(threads,
/// chunk_size, seed)` triple. `threads` affects wall-clock time only;
/// `chunk_size` and `seed` define the deterministic result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Maximum number of worker threads a parallel call may use.
    pub threads: usize,
    /// Number of work items (e.g. Monte-Carlo shots) per task. Part of the
    /// deterministic contract: changing it changes which task processes which
    /// item, and therefore which RNG stream the item sees.
    pub chunk_size: usize,
    /// Base seed from which every per-task seed is derived.
    pub seed: u64,
}

impl RuntimeConfig {
    /// Creates a configuration with the given thread bound, chunk size and seed.
    pub fn new(threads: usize, chunk_size: usize, seed: u64) -> Self {
        RuntimeConfig {
            threads,
            chunk_size,
            seed,
        }
    }

    /// A single-threaded configuration (useful as a determinism reference).
    pub fn single_threaded(seed: u64) -> Self {
        RuntimeConfig::new(1, Self::DEFAULT_CHUNK_SIZE, seed)
    }

    /// The default chunk size used by [`Default`] and [`Self::single_threaded`].
    pub const DEFAULT_CHUNK_SIZE: usize = 64;

    /// Returns the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        RuntimeConfig::new(threads, Self::DEFAULT_CHUNK_SIZE, 0)
    }
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective avalanche mix on `u64`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives independent per-*task* RNG seeds from one base seed.
///
/// The stream is a pure function: `seed_for(i)` is `splitmix64(base +
/// (i + 1) * gamma)`, so any task can compute its seed without coordination
/// and the mapping never depends on which OS thread runs the task — the fix
/// for the seed implementation's per-thread seeding bug.
///
/// [`SeedStream::substream`] derives a statistically independent child stream
/// for a labelled pipeline stage (e.g. one per optimizer iteration), keeping
/// stage seeds from colliding even when task indices overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    base: u64,
}

impl SeedStream {
    /// Creates the root stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SeedStream {
            base: splitmix64(seed),
        }
    }

    /// Returns the seed for task `index`.
    pub fn seed_for(&self, index: u64) -> u64 {
        splitmix64(
            self.base
                .wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
        )
    }

    /// Derives an independent child stream for the stage labelled `label`.
    pub fn substream(&self, label: u64) -> SeedStream {
        SeedStream {
            base: splitmix64(self.base ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93)),
        }
    }
}

/// The shared bounded worker pool.
///
/// A `Runtime` is cheap to construct and holds only its configuration; each
/// parallel call opens a [`std::thread::scope`] with at most
/// `config.threads` workers that pull task indices from an atomic counter
/// (dynamic load balancing, fixed task set). Results are always returned in
/// task order regardless of completion order.
/// Pool-level instrumentation is optional: [`Runtime::new`] attaches no
/// observability registry ([`RuntimeConfig`] stays `Copy`, and the seed
/// streams never see the registry), while [`Runtime::with_obs`] records per
/// call to [`Runtime::run_tasks`]:
///
/// - histogram `runtime.call.ns` — wall time of the whole call
/// - histogram `runtime.call.tasks` — task count of the call
/// - histogram `runtime.task.ns` — wall time of each task body
/// - histogram `runtime.task.wait.ns` — delay from call start to task start
///   (queue wait under the bounded pool)
/// - gauge `runtime.workers.peak` — largest worker count of any call
///
/// All pool metrics are histograms or gauges, never counters: wave sizes and
/// scheduling depend on the thread count, so they sit outside the
/// deterministic-counter contract.
#[derive(Debug, Clone)]
pub struct Runtime {
    config: RuntimeConfig,
    obs: Obs,
}

impl Runtime {
    /// Creates a runtime from `config` with observability disabled.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime {
            config,
            obs: Obs::disabled(),
        }
    }

    /// Creates a runtime from `config` recording pool metrics into `obs`.
    pub fn with_obs(config: RuntimeConfig, obs: Obs) -> Self {
        Runtime { config, obs }
    }

    /// Returns the runtime's observability handle (disabled unless the
    /// runtime was built with [`Runtime::with_obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Returns the runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Returns the effective thread bound (at least 1).
    pub fn threads(&self) -> usize {
        self.config.threads.max(1)
    }

    /// Returns the effective chunk size (at least 1).
    pub fn chunk_size(&self) -> usize {
        self.config.chunk_size.max(1)
    }

    /// Returns the root [`SeedStream`] of this runtime's seed.
    pub fn seed_stream(&self) -> SeedStream {
        SeedStream::new(self.config.seed)
    }

    /// Core primitive: evaluates `f(0..tasks)` with bounded workers and
    /// returns the results ordered by task index.
    pub fn run_tasks<U, F>(&self, tasks: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let workers = self.threads().min(tasks);
        // Pool metrics are strictly out-of-band: handles are hoisted here so
        // the disabled path costs one `None` check per task, and nothing below
        // touches the seed streams. Trace plumbing rides the same contract:
        // one pool-call span on the control lane, one task span per task on
        // its worker's lane (parented to the call span across threads),
        // queue-wait and worker attribution as task-span args.
        let mut call_span = self.obs.span("runtime.call", "runtime");
        call_span.arg("tasks", tasks as u64);
        call_span.arg("workers", workers as u64);
        let call_id = call_span.id();
        let call_start = Instant::now();
        if let Some(h) = self.obs.histogram("runtime.call.tasks") {
            h.record(tasks as u64);
        }
        self.obs.gauge_max("runtime.workers.peak", workers as u64);
        let task_site = self.obs.span_site("runtime.task", "runtime");
        let wait_hist = self.obs.histogram("runtime.task.wait.ns");
        let timed = |worker: u64, task: usize| -> U {
            if !task_site.is_enabled() {
                return f(task);
            }
            let wait_ns = duration_ns(call_start.elapsed());
            if let Some(wh) = &wait_hist {
                wh.record(wait_ns);
            }
            let mut span = task_site.start_child_of(call_id);
            span.arg("task", task as u64);
            span.arg("worker", worker);
            span.arg("wait_ns", wait_ns);
            let out = f(task);
            span.finish();
            out
        };
        if workers <= 1 {
            let out = (0..tasks).map(|task| timed(0, task)).collect();
            call_span.finish();
            return out;
        }
        let next = AtomicUsize::new(0);
        let timed = &timed;
        let next = &next;
        let tracer = self.obs.tracer();
        #[allow(
            clippy::disallowed_methods,
            reason = "the worker pool is the one place threads start (D3)"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        // Lane `w + 1`: lane 0 stays the control thread. The
                        // guard's drop also flushes the worker's trace buffer
                        // before the scope joins.
                        let _lane = tracer.map(|t| t.worker_scope(w as u64 + 1));
                        let mut local: Vec<(usize, U)> = Vec::new();
                        loop {
                            let task = next.fetch_add(1, Ordering::Relaxed);
                            if task >= tasks {
                                break;
                            }
                            local.push((task, timed(w as u64 + 1, task)));
                        }
                        local
                    })
                })
                .collect();
            let mut indexed: Vec<(usize, U)> = Vec::with_capacity(tasks);
            for handle in handles {
                indexed.extend(handle.join().expect("runtime worker panicked"));
            }
            indexed.sort_unstable_by_key(|(task, _)| *task);
            let out: Vec<U> = indexed.into_iter().map(|(_, value)| value).collect();
            call_span.finish();
            out
        })
    }

    /// Maps `f` over `items` in parallel, preserving item order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.run_tasks(items.len(), |i| f(&items[i]))
    }

    /// Runs `tasks` seeded tasks — `f(task_index, seed)` with
    /// `seed = stream.seed_for(task_index)` — and returns the per-task
    /// results in task order.
    ///
    /// This is the deterministic replacement for "split the work across N
    /// threads and seed each thread": the task count and per-task seeds are
    /// independent of how many workers execute them.
    pub fn par_seeded<U, F>(&self, tasks: usize, stream: &SeedStream, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, u64) -> U + Sync,
    {
        self.run_tasks(tasks, |i| f(i, stream.seed_for(i as u64)))
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new(RuntimeConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 8] {
            let runtime = Runtime::new(RuntimeConfig::new(threads, 4, 0));
            let items: Vec<usize> = (0..103).collect();
            let out = runtime.par_map(&items, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn seeded_results_are_identical_across_thread_counts() {
        let stream = SeedStream::new(0x5eed);
        let reference =
            Runtime::new(RuntimeConfig::new(1, 7, 0)).par_seeded(33, &stream, |i, seed| (i, seed));
        for threads in [2, 3, 8] {
            let out = Runtime::new(RuntimeConfig::new(threads, 7, 0)).par_seeded(
                33,
                &stream,
                |i, seed| (i, seed),
            );
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn run_tasks_bounds_concurrency() {
        let runtime = Runtime::new(RuntimeConfig::new(3, 1, 0));
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        runtime.run_tasks(64, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn seed_stream_substreams_and_tasks_do_not_collide() {
        let root = SeedStream::new(1);
        let mut seen = std::collections::HashSet::new();
        for label in 0..8u64 {
            let sub = root.substream(label);
            for task in 0..256u64 {
                assert!(seen.insert(sub.seed_for(task)), "seed collision");
            }
        }
        // Pure function of (seed, label, index).
        assert_eq!(
            SeedStream::new(1).substream(3).seed_for(5),
            SeedStream::new(1).substream(3).seed_for(5)
        );
        assert_ne!(
            SeedStream::new(1).seed_for(0),
            SeedStream::new(2).seed_for(0)
        );
    }

    #[test]
    fn with_obs_records_pool_histograms_and_new_records_nothing() {
        let obs = Obs::enabled();
        let runtime = Runtime::with_obs(RuntimeConfig::new(3, 4, 0), obs.clone());
        let out = runtime.run_tasks(10, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.histogram("runtime.call.ns").unwrap().count, 1);
        assert_eq!(snap.histogram("runtime.call.tasks").unwrap().sum, 10);
        assert_eq!(snap.histogram("runtime.task.ns").unwrap().count, 10);
        assert_eq!(snap.histogram("runtime.task.wait.ns").unwrap().count, 10);
        let peak = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "runtime.workers.peak");
        assert!(matches!(peak, Some((_, v)) if *v == 3));
        // Counters stay empty: pool metrics are all on the timing side.
        assert!(snap.counters.is_empty());
        // A plain runtime shares nothing with the registry.
        let plain = Runtime::new(RuntimeConfig::new(3, 4, 0));
        assert!(!plain.obs().is_enabled());
        plain.run_tasks(4, |i| i);
        assert_eq!(
            obs.snapshot()
                .unwrap()
                .histogram("runtime.call.ns")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn tracer_records_call_and_task_spans_with_worker_attribution() {
        let tracer = prophunt_obs::Tracer::new();
        // Tracer-only Obs: no registry, so histogram handles are all None and
        // tracing must carry the instrumented path on its own.
        let obs = Obs::disabled().with_tracer(tracer.clone());
        let runtime = Runtime::with_obs(RuntimeConfig::new(3, 4, 0), obs);
        let out = runtime.run_tasks(10, |i| i * 2);
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        let log = tracer.drain();
        assert_eq!(log.dropped, 0);
        let calls: Vec<_> = log
            .events
            .iter()
            .filter(|e| e.name == "runtime.call")
            .collect();
        assert_eq!(calls.len(), 1);
        let call = calls[0];
        assert_eq!(call.tid, 0, "pool call is recorded on the control lane");
        assert_eq!(call.args, vec![("tasks".into(), 10), ("workers".into(), 3)]);
        let tasks: Vec<_> = log
            .events
            .iter()
            .filter(|e| e.name == "runtime.task")
            .collect();
        assert_eq!(tasks.len(), 10);
        let mut seen: Vec<u64> = Vec::new();
        for task in &tasks {
            assert_eq!(task.parent, call.id, "task spans hang off the pool call");
            assert!((1..=3).contains(&task.tid), "worker lanes are 1..=workers");
            let args: std::collections::HashMap<&str, u64> =
                task.args.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            assert_eq!(args["worker"], task.tid);
            assert!(args.contains_key("wait_ns"));
            seen.push(args["task"]);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
        // The call span closes after every task span.
        for task in &tasks {
            assert!(call.ts_ns + call.dur_ns >= task.ts_ns + task.dur_ns);
        }

        // Single-threaded path uses lane 0 for the inline worker.
        let tracer1 = prophunt_obs::Tracer::new();
        let runtime1 = Runtime::with_obs(
            RuntimeConfig::new(1, 4, 0),
            Obs::disabled().with_tracer(tracer1.clone()),
        );
        runtime1.run_tasks(3, |i| i);
        let log1 = tracer1.drain();
        let lanes: Vec<u64> = log1
            .events
            .iter()
            .filter(|e| e.name == "runtime.task")
            .map(|e| e.tid)
            .collect();
        assert_eq!(lanes, vec![0, 0, 0]);
    }
}
