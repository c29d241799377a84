//! The JSON-lines run-report format.
//!
//! One record per line, each a JSON object with a `"type"` tag:
//!
//! * `run_start` / `iteration` / `run_end` — an optimization run. `iteration`
//!   records mirror [`prophunt::IterationRecord`] field-for-field; schedules are
//!   embedded as `prophunt-schedule v1` documents in a JSON string, so a report is a
//!   complete, resumable account of a run ([`report_to_result`] is the inverse of
//!   [`result_to_report`]).
//! * `ler` — one Monte-Carlo logical-error-rate estimate, always carrying the
//!   `(seed, chunk_size)` pair that makes the failure count reproducible
//!   bit-for-bit.
//! * `search_start` / `incumbent` / `search_end` — a strategy-portfolio search
//!   run (`prophunt search`): one `incumbent` record per synchronized round with
//!   per-strategy provenance and the embedded incumbent schedule (report v2
//!   extension; v1 parsers reject the unknown types, see `FORMATS.md`).
//! * `table` — a generic named row used by the benchmark binaries for figure/table
//!   data that is not an LER point.
//! * `meta` — a provenance header (crate version, seed, threads, chunk size,
//!   engine) written at the head of report and metrics streams (report v3
//!   extension). Every field is optional on parse, and readers that rebuild
//!   results ([`report_to_result`]) skip it, so v1/v2 documents — and v3
//!   documents read by tools that ignore provenance — keep working.
//! * `metrics` — a snapshot of a `prophunt-obs` registry (report v3 extension):
//!   deterministic counters in their own `"counters"` object, thread-dependent
//!   gauges and log2-bucketed timing histograms in separate keys, so the
//!   deterministic subset can be byte-compared across thread counts.
//! * `trace` — one trace event from the `prophunt-obs` trace-event layer
//!   (report v3 extension, trace-v1): timeline spans/instants with lane and
//!   parent attribution, plus timeless `"diag"` convergence-diagnostic events
//!   that stay bit-identical at any thread count. See [`crate::trace`] for the
//!   Chrome trace-event export of the same stream.
//!
//! Streaming writers emit records one line at a time (`prophunt optimize` writes an
//! `iteration` line as each iteration completes); [`parse_report`] reads a whole
//! document and reports errors with the line they occurred on.

use crate::error::FormatError;
use crate::json::Json;
use crate::schedule::{parse_schedule, write_schedule};
use prophunt::{IterationRecord, OptimizationResult};
use prophunt_circuit::MemoryBasis;
use prophunt_obs::{HistogramSnapshot, Snapshot};

/// One record of a JSON-lines run report.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportRecord {
    /// Start of an optimization run.
    RunStart {
        /// Name of the optimized code.
        code: String,
        /// Base RNG seed of the run.
        seed: u64,
        /// Deterministic chunk size of the run.
        chunk_size: u64,
        /// CNOT depth of the initial schedule.
        initial_depth: u64,
        /// The initial schedule, as a `prophunt-schedule v1` document.
        initial_schedule: String,
    },
    /// One optimization iteration (mirrors [`prophunt::IterationRecord`]).
    Iteration {
        /// Iteration number (0-based).
        iteration: u64,
        /// Memory basis analysed (`"Z"` or `"X"`).
        basis: String,
        /// Number of ambiguous subgraphs with a minimum-weight solution.
        subgraphs_found: u64,
        /// Weights of the minimum-weight logical errors solved.
        solution_weights: Vec<u64>,
        /// Candidate changes enumerated before pruning.
        candidates_enumerated: u64,
        /// Verified changes applied to the schedule.
        changes_applied: u64,
        /// CNOT depth after this iteration.
        depth: u64,
        /// The schedule after this iteration, as a `prophunt-schedule v1` document.
        schedule: String,
    },
    /// End of an optimization run.
    RunEnd {
        /// Number of iterations recorded.
        iterations: u64,
        /// Total changes applied across the run.
        total_changes: u64,
        /// CNOT depth of the final schedule.
        final_depth: u64,
        /// The final schedule, as a `prophunt-schedule v1` document.
        final_schedule: String,
    },
    /// One Monte-Carlo logical-error-rate estimate.
    ///
    /// Version note: the `decoder`, `noise`, `stop`, `wall_s` and `shots_per_sec`
    /// fields were added in report v2. The writer always emits them; the parser
    /// defaults them (`"bposd"`, `""`, `"shots_exhausted"`, `0`, `0`) when reading
    /// v1 documents, which predate decoder selection and adaptive budgets. The
    /// `engine` field was added the same way (additive, no version bump): the
    /// writer always emits it (`"frames"` for every new run), and the parser
    /// defaults it to `"scalar"` for v1/v2 records, which were all computed by
    /// the since-removed scalar kernel.
    Ler {
        /// Free-form label (schedule name, hardware point, ...).
        label: String,
        /// Physical error rate.
        p: f64,
        /// Idle error strength (0 when the sweep has none).
        idle: f64,
        /// Number of shots sampled.
        shots: u64,
        /// Number of logical failures observed.
        failures: u64,
        /// Base seed of the estimate.
        seed: u64,
        /// Chunk size of the estimate (part of the determinism contract).
        chunk_size: u64,
        /// Registry name of the decoder the estimate was decoded with.
        decoder: String,
        /// Canonical noise-spec string the model was built from (empty when the
        /// model came from a pre-built `.dem` file).
        noise: String,
        /// Why the run stopped (`shots_exhausted`, `max_failures`, `target_rse`).
        stop: String,
        /// Estimation engine the counts were computed with: `frames` for new
        /// runs, `scalar` on older records. Part of the reproduction key, since
        /// the removed scalar engine laid out the RNG stream differently.
        engine: String,
        /// Wall-clock seconds the job took (0 when not measured).
        wall_s: f64,
        /// Decoding throughput in shots per second (0 when not measured).
        shots_per_sec: f64,
    },
    /// Start of a strategy-portfolio search run (report v2 extension; see
    /// `FORMATS.md`).
    SearchStart {
        /// Name of the searched code.
        code: String,
        /// Base RNG seed of the run.
        seed: u64,
        /// Deterministic chunk size of the run.
        chunk_size: u64,
        /// Strategy mix, in portfolio fill order.
        strategies: Vec<String>,
        /// Number of strategy instances raced in parallel.
        portfolio: u64,
        /// Number of synchronized rounds requested.
        rounds: u64,
        /// CNOT depth of the starting schedule.
        initial_depth: u64,
        /// The starting schedule, as a `prophunt-schedule v1` document.
        initial_schedule: String,
    },
    /// One portfolio round's incumbent, with per-strategy provenance (report
    /// v2 extension). The embedded schedule makes every record a resumable
    /// account of the best circuit known at that round.
    Incumbent {
        /// Round number (0-based).
        round: u64,
        /// Strategy that produced the incumbent (`"initial"` while the
        /// starting schedule still leads).
        strategy: String,
        /// Portfolio instance slot that produced the incumbent.
        instance: u64,
        /// CNOT depth of the incumbent.
        depth: u64,
        /// Whether this round strictly improved the incumbent.
        improved: bool,
        /// The incumbent schedule, as a `prophunt-schedule v1` document.
        schedule: String,
    },
    /// End of a strategy-portfolio search run (report v2 extension).
    SearchEnd {
        /// Number of rounds recorded.
        rounds: u64,
        /// CNOT depth of the best schedule found.
        best_depth: u64,
        /// Strategy that produced the best schedule.
        best_strategy: String,
        /// Portfolio instance slot that produced it.
        best_instance: u64,
        /// The best schedule, as a `prophunt-schedule v1` document.
        final_schedule: String,
    },
    /// A generic named data row (benchmark tables).
    Table {
        /// Row kind (e.g. `"code"`).
        name: String,
        /// Field name/value pairs, in order. The keys `"type"` and `"name"` are
        /// reserved for the record envelope: the writer skips fields using them
        /// (emitting them would produce duplicate JSON keys the parser must strip).
        fields: Vec<(String, Json)>,
    },
    /// Provenance header at the head of a report or metrics stream (report v3
    /// extension). Every field is optional on parse — a bare `{"type":"meta"}`
    /// line is valid — so older emitters and newer readers interoperate.
    Meta {
        /// Workspace crate version that produced the stream (empty if unknown).
        version: String,
        /// Base RNG seed of the run (0 if unknown).
        seed: u64,
        /// Worker-thread bound of the run (0 if unknown). Informational only:
        /// no deterministic field may depend on it.
        threads: u64,
        /// Deterministic chunk size of the run (0 if unknown).
        chunk_size: u64,
        /// Estimation engine of the run (`"frames"` when written; older
        /// streams may carry `"scalar"`; empty for commands without one, e.g.
        /// `search`).
        engine: String,
        /// Invoking command line, space-joined (empty if unknown). Additive
        /// field: the writer omits the key when empty, and the parser defaults
        /// it, so pre-trace-v1 documents and readers interoperate.
        cmdline: String,
    },
    /// A `prophunt-obs` registry snapshot (report v3 extension).
    ///
    /// The record keeps the determinism contract visible in its shape:
    /// `counters` holds only quantities that are bit-identical at any thread
    /// count for a fixed `(seed, chunk_size)`, while `gauges` and `histograms`
    /// hold timings and occupancy. CI compares the serialized `"counters"`
    /// object byte-for-byte across thread counts and ignores the rest.
    Metrics {
        /// Deterministic `(name, value)` counter pairs, name-sorted.
        counters: Vec<(String, u64)>,
        /// Thread-dependent `(name, value)` gauge pairs, name-sorted.
        gauges: Vec<(String, u64)>,
        /// Timing histograms, name-sorted.
        histograms: Vec<MetricsHistogram>,
    },
    /// One trace event from the `prophunt-obs` trace-event layer (report v3
    /// extension, trace-v1).
    ///
    /// Timeline events (`span`/`instant` kinds with wall-clock timestamps) are
    /// thread- and machine-dependent; diag events (`cat == "diag"`, every
    /// clock field zero) are the deterministic subset, bit-identical at any
    /// thread count for a fixed `(seed, chunk_size)`. Only `name` is required
    /// on parse, per the additive-versioning policy.
    Trace {
        /// Event name (e.g. `"runtime.task"`, `"search.round"`).
        name: String,
        /// Event category (`"runtime"`, `"ler.stage"`, `"diag"`, ...).
        cat: String,
        /// Event kind: `"span"` (carries a duration) or `"instant"`.
        kind: String,
        /// Lane the event belongs to: worker index for execution events,
        /// instance slot for search diagnostics, 0 for the control thread.
        tid: u64,
        /// Span id (0 for events that never parent others).
        id: u64,
        /// Enclosing span id (0 when the event is a root).
        parent: u64,
        /// Start timestamp in ns since the tracer epoch (0 for diag events).
        ts: u64,
        /// Duration in ns (0 for instant and diag events).
        dur: u64,
        /// Ordered `(key, value)` event arguments.
        args: Vec<(String, u64)>,
    },
}

/// One exported log2-bucketed histogram inside a [`ReportRecord::Metrics`]
/// record.
///
/// Bucket indices follow `prophunt-obs`: bucket 0 holds the value 0 and bucket
/// `b >= 1` holds `[2^(b-1), 2^b - 1]`, so `(index, count)` pairs are enough to
/// recover quantile estimates without shipping raw samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsHistogram {
    /// Instrument name (e.g. `"ler.frames.decode.ns"`).
    pub name: String,
    /// Total number of recorded observations.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, count)`, ascending by index.
    pub buckets: Vec<(u64, u64)>,
}

impl MetricsHistogram {
    fn to_snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: self.buckets.iter().map(|&(b, c)| (b as usize, c)).collect(),
        }
    }

    /// Estimated `q`-quantile (bucket upper bound; see
    /// [`HistogramSnapshot::quantile`]).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        self.to_snapshot().quantile(q)
    }

    /// Mean of the recorded values (exact — uses the running sum).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.to_snapshot().mean()
    }
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, FormatError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| FormatError::whole_input(format!("record is missing integer field {key:?}")))
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, FormatError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| FormatError::whole_input(format!("record is missing numeric field {key:?}")))
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, FormatError> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| FormatError::whole_input(format!("record is missing boolean field {key:?}")))
}

fn get_str(obj: &Json, key: &str) -> Result<String, FormatError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| FormatError::whole_input(format!("record is missing string field {key:?}")))
}

fn opt_str(obj: &Json, key: &str, default: &str) -> String {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or(default)
        .to_string()
}

fn opt_f64(obj: &Json, key: &str, default: f64) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or(default)
}

fn opt_u64(obj: &Json, key: &str, default: u64) -> u64 {
    obj.get(key).and_then(Json::as_u64).unwrap_or(default)
}

/// Parses an optional `{"name": uint, ...}` object field into ordered pairs
/// (missing field → empty).
fn u64_pairs(obj: &Json, key: &str) -> Result<Vec<(String, u64)>, FormatError> {
    let Some(val) = obj.get(key) else {
        return Ok(Vec::new());
    };
    let Json::Object(pairs) = val else {
        return Err(FormatError::whole_input(format!(
            "record field {key:?} must be an object"
        )));
    };
    pairs
        .iter()
        .map(|(k, v)| {
            v.as_u64().map(|v| (k.clone(), v)).ok_or_else(|| {
                FormatError::whole_input(format!(
                    "{key} value for {k:?} must be an unsigned integer"
                ))
            })
        })
        .collect()
}

fn parse_metrics_histogram(entry: &Json) -> Result<MetricsHistogram, FormatError> {
    let buckets = entry
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or_else(|| FormatError::whole_input("metrics histogram is missing buckets"))?
        .iter()
        .map(|pair| {
            let items = pair.as_array().unwrap_or_default();
            match items {
                [b, c] => b.as_u64().zip(c.as_u64()),
                _ => None,
            }
            .ok_or_else(|| {
                FormatError::whole_input("metrics histogram buckets must be [index, count] pairs")
            })
        })
        .collect::<Result<Vec<(u64, u64)>, FormatError>>()?;
    Ok(MetricsHistogram {
        name: get_str(entry, "name")?,
        count: get_u64(entry, "count")?,
        sum: get_u64(entry, "sum")?,
        buckets,
    })
}

impl ReportRecord {
    /// Builds a [`ReportRecord::Ler`]. `seed` and `chunk_size` must be the pair the
    /// estimate was *actually computed with* — the record's whole point is that
    /// re-running with that pair reproduces `failures` bit-for-bit — so callers
    /// deriving per-stage seeds must record the derived seed, not the base one.
    ///
    /// The v2 fields are filled with their v1-compatible defaults (a `bposd` fixed
    /// budget run, no timing) and the engine with `frames`, the only one; set
    /// them on the returned variant — or build the variant directly — for jobs
    /// that know their decoder/noise/stop/timing.
    pub fn ler(
        label: impl Into<String>,
        p: f64,
        idle: f64,
        shots: u64,
        failures: u64,
        seed: u64,
        chunk_size: u64,
    ) -> ReportRecord {
        ReportRecord::Ler {
            label: label.into(),
            p,
            idle,
            shots,
            failures,
            seed,
            chunk_size,
            decoder: "bposd".into(),
            noise: String::new(),
            stop: "shots_exhausted".into(),
            engine: "frames".into(),
            wall_s: 0.0,
            shots_per_sec: 0.0,
        }
    }

    /// Builds a [`ReportRecord::Meta`] provenance header.
    pub fn meta(
        version: impl Into<String>,
        seed: u64,
        threads: u64,
        chunk_size: u64,
        engine: impl Into<String>,
    ) -> ReportRecord {
        ReportRecord::Meta {
            version: version.into(),
            seed,
            threads,
            chunk_size,
            engine: engine.into(),
            cmdline: String::new(),
        }
    }

    /// Sets the `cmdline` provenance field on a [`ReportRecord::Meta`]
    /// (no-op on every other variant).
    #[must_use]
    pub fn with_cmdline(mut self, value: impl Into<String>) -> ReportRecord {
        if let ReportRecord::Meta { cmdline, .. } = &mut self {
            *cmdline = value.into();
        }
        self
    }

    /// Builds a [`ReportRecord::Metrics`] from a `prophunt-obs` registry
    /// snapshot, preserving the snapshot's name-sorted order and its
    /// counter/gauge/histogram class separation.
    pub fn metrics_from_snapshot(snapshot: &Snapshot) -> ReportRecord {
        ReportRecord::Metrics {
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            histograms: snapshot
                .histograms
                .iter()
                .map(|(name, h)| MetricsHistogram {
                    name: name.clone(),
                    count: h.count,
                    sum: h.sum,
                    buckets: h.buckets.iter().map(|&(b, c)| (b as u64, c)).collect(),
                })
                .collect(),
        }
    }

    /// Serializes the record to one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let obj = match self {
            ReportRecord::RunStart {
                code,
                seed,
                chunk_size,
                initial_depth,
                initial_schedule,
            } => Json::Object(vec![
                ("type".into(), Json::Str("run_start".into())),
                ("code".into(), Json::Str(code.clone())),
                ("seed".into(), Json::UInt(*seed)),
                ("chunk_size".into(), Json::UInt(*chunk_size)),
                ("initial_depth".into(), Json::UInt(*initial_depth)),
                (
                    "initial_schedule".into(),
                    Json::Str(initial_schedule.clone()),
                ),
            ]),
            ReportRecord::Iteration {
                iteration,
                basis,
                subgraphs_found,
                solution_weights,
                candidates_enumerated,
                changes_applied,
                depth,
                schedule,
            } => Json::Object(vec![
                ("type".into(), Json::Str("iteration".into())),
                ("iteration".into(), Json::UInt(*iteration)),
                ("basis".into(), Json::Str(basis.clone())),
                ("subgraphs_found".into(), Json::UInt(*subgraphs_found)),
                (
                    "solution_weights".into(),
                    Json::Array(solution_weights.iter().map(|&w| Json::UInt(w)).collect()),
                ),
                (
                    "candidates_enumerated".into(),
                    Json::UInt(*candidates_enumerated),
                ),
                ("changes_applied".into(), Json::UInt(*changes_applied)),
                ("depth".into(), Json::UInt(*depth)),
                ("schedule".into(), Json::Str(schedule.clone())),
            ]),
            ReportRecord::RunEnd {
                iterations,
                total_changes,
                final_depth,
                final_schedule,
            } => Json::Object(vec![
                ("type".into(), Json::Str("run_end".into())),
                ("iterations".into(), Json::UInt(*iterations)),
                ("total_changes".into(), Json::UInt(*total_changes)),
                ("final_depth".into(), Json::UInt(*final_depth)),
                ("final_schedule".into(), Json::Str(final_schedule.clone())),
            ]),
            ReportRecord::Ler {
                label,
                p,
                idle,
                shots,
                failures,
                seed,
                chunk_size,
                decoder,
                noise,
                stop,
                engine,
                wall_s,
                shots_per_sec,
            } => Json::Object(vec![
                ("type".into(), Json::Str("ler".into())),
                ("label".into(), Json::Str(label.clone())),
                ("p".into(), Json::Float(*p)),
                ("idle".into(), Json::Float(*idle)),
                ("shots".into(), Json::UInt(*shots)),
                ("failures".into(), Json::UInt(*failures)),
                ("seed".into(), Json::UInt(*seed)),
                ("chunk_size".into(), Json::UInt(*chunk_size)),
                ("decoder".into(), Json::Str(decoder.clone())),
                ("noise".into(), Json::Str(noise.clone())),
                ("stop".into(), Json::Str(stop.clone())),
                ("engine".into(), Json::Str(engine.clone())),
                ("wall_s".into(), Json::Float(*wall_s)),
                ("shots_per_sec".into(), Json::Float(*shots_per_sec)),
            ]),
            ReportRecord::SearchStart {
                code,
                seed,
                chunk_size,
                strategies,
                portfolio,
                rounds,
                initial_depth,
                initial_schedule,
            } => Json::Object(vec![
                ("type".into(), Json::Str("search_start".into())),
                ("code".into(), Json::Str(code.clone())),
                ("seed".into(), Json::UInt(*seed)),
                ("chunk_size".into(), Json::UInt(*chunk_size)),
                (
                    "strategies".into(),
                    Json::Array(strategies.iter().map(|s| Json::Str(s.clone())).collect()),
                ),
                ("portfolio".into(), Json::UInt(*portfolio)),
                ("rounds".into(), Json::UInt(*rounds)),
                ("initial_depth".into(), Json::UInt(*initial_depth)),
                (
                    "initial_schedule".into(),
                    Json::Str(initial_schedule.clone()),
                ),
            ]),
            ReportRecord::Incumbent {
                round,
                strategy,
                instance,
                depth,
                improved,
                schedule,
            } => Json::Object(vec![
                ("type".into(), Json::Str("incumbent".into())),
                ("round".into(), Json::UInt(*round)),
                ("strategy".into(), Json::Str(strategy.clone())),
                ("instance".into(), Json::UInt(*instance)),
                ("depth".into(), Json::UInt(*depth)),
                ("improved".into(), Json::Bool(*improved)),
                ("schedule".into(), Json::Str(schedule.clone())),
            ]),
            ReportRecord::SearchEnd {
                rounds,
                best_depth,
                best_strategy,
                best_instance,
                final_schedule,
            } => Json::Object(vec![
                ("type".into(), Json::Str("search_end".into())),
                ("rounds".into(), Json::UInt(*rounds)),
                ("best_depth".into(), Json::UInt(*best_depth)),
                ("best_strategy".into(), Json::Str(best_strategy.clone())),
                ("best_instance".into(), Json::UInt(*best_instance)),
                ("final_schedule".into(), Json::Str(final_schedule.clone())),
            ]),
            ReportRecord::Table { name, fields } => {
                let mut pairs = vec![
                    ("type".into(), Json::Str("table".into())),
                    ("name".into(), Json::Str(name.clone())),
                ];
                pairs.extend(
                    fields
                        .iter()
                        .filter(|(k, _)| k != "type" && k != "name")
                        .cloned(),
                );
                Json::Object(pairs)
            }
            ReportRecord::Meta {
                version,
                seed,
                threads,
                chunk_size,
                engine,
                cmdline,
            } => {
                let mut pairs = vec![
                    ("type".into(), Json::Str("meta".into())),
                    ("version".into(), Json::Str(version.clone())),
                    ("seed".into(), Json::UInt(*seed)),
                    ("threads".into(), Json::UInt(*threads)),
                    ("chunk_size".into(), Json::UInt(*chunk_size)),
                    ("engine".into(), Json::Str(engine.clone())),
                ];
                // Additive field: omitted when empty so pre-trace-v1 meta
                // lines stay byte-identical.
                if !cmdline.is_empty() {
                    pairs.push(("cmdline".into(), Json::Str(cmdline.clone())));
                }
                Json::Object(pairs)
            }
            ReportRecord::Trace {
                name,
                cat,
                kind,
                tid,
                id,
                parent,
                ts,
                dur,
                args,
            } => Json::Object(vec![
                ("type".into(), Json::Str("trace".into())),
                ("name".into(), Json::Str(name.clone())),
                ("cat".into(), Json::Str(cat.clone())),
                ("kind".into(), Json::Str(kind.clone())),
                ("tid".into(), Json::UInt(*tid)),
                ("id".into(), Json::UInt(*id)),
                ("parent".into(), Json::UInt(*parent)),
                ("ts".into(), Json::UInt(*ts)),
                ("dur".into(), Json::UInt(*dur)),
                (
                    "args".into(),
                    Json::Object(
                        args.iter()
                            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                            .collect(),
                    ),
                ),
            ]),
            ReportRecord::Metrics {
                counters,
                gauges,
                histograms,
            } => {
                let pairs_obj = |pairs: &[(String, u64)]| {
                    Json::Object(
                        pairs
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                            .collect(),
                    )
                };
                Json::Object(vec![
                    ("type".into(), Json::Str("metrics".into())),
                    // The deterministic subset is one self-contained JSON
                    // object so tools can extract and byte-compare it.
                    ("counters".into(), pairs_obj(counters)),
                    ("gauges".into(), pairs_obj(gauges)),
                    (
                        "histograms".into(),
                        Json::Array(
                            histograms
                                .iter()
                                .map(|h| {
                                    Json::Object(vec![
                                        ("name".into(), Json::Str(h.name.clone())),
                                        ("count".into(), Json::UInt(h.count)),
                                        ("sum".into(), Json::UInt(h.sum)),
                                        (
                                            "buckets".into(),
                                            Json::Array(
                                                h.buckets
                                                    .iter()
                                                    .map(|&(b, c)| {
                                                        Json::Array(vec![
                                                            Json::UInt(b),
                                                            Json::UInt(c),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            }
        };
        obj.to_json()
    }

    /// Parses one JSON line into a record.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] for malformed JSON (with column information), an
    /// unknown `"type"` tag, or missing/mistyped fields.
    pub fn from_json_line(line: &str) -> Result<ReportRecord, FormatError> {
        let obj = Json::parse(line)?;
        let kind = get_str(&obj, "type")?;
        match kind.as_str() {
            "run_start" => Ok(ReportRecord::RunStart {
                code: get_str(&obj, "code")?,
                seed: get_u64(&obj, "seed")?,
                chunk_size: get_u64(&obj, "chunk_size")?,
                initial_depth: get_u64(&obj, "initial_depth")?,
                initial_schedule: get_str(&obj, "initial_schedule")?,
            }),
            "iteration" => {
                let weights = obj
                    .get("solution_weights")
                    .and_then(Json::as_array)
                    .ok_or_else(|| {
                        FormatError::whole_input("iteration record is missing solution_weights")
                    })?
                    .iter()
                    .map(|w| {
                        w.as_u64().ok_or_else(|| {
                            FormatError::whole_input("solution_weights must be integers")
                        })
                    })
                    .collect::<Result<Vec<u64>, FormatError>>()?;
                Ok(ReportRecord::Iteration {
                    iteration: get_u64(&obj, "iteration")?,
                    basis: get_str(&obj, "basis")?,
                    subgraphs_found: get_u64(&obj, "subgraphs_found")?,
                    solution_weights: weights,
                    candidates_enumerated: get_u64(&obj, "candidates_enumerated")?,
                    changes_applied: get_u64(&obj, "changes_applied")?,
                    depth: get_u64(&obj, "depth")?,
                    schedule: get_str(&obj, "schedule")?,
                })
            }
            "run_end" => Ok(ReportRecord::RunEnd {
                iterations: get_u64(&obj, "iterations")?,
                total_changes: get_u64(&obj, "total_changes")?,
                final_depth: get_u64(&obj, "final_depth")?,
                final_schedule: get_str(&obj, "final_schedule")?,
            }),
            "ler" => Ok(ReportRecord::Ler {
                label: get_str(&obj, "label")?,
                p: get_f64(&obj, "p")?,
                idle: get_f64(&obj, "idle")?,
                shots: get_u64(&obj, "shots")?,
                failures: get_u64(&obj, "failures")?,
                seed: get_u64(&obj, "seed")?,
                chunk_size: get_u64(&obj, "chunk_size")?,
                // v2 fields: default when reading v1 documents.
                decoder: opt_str(&obj, "decoder", "bposd"),
                noise: opt_str(&obj, "noise", ""),
                stop: opt_str(&obj, "stop", "shots_exhausted"),
                // Additive field: v1/v2 records were all scalar-kernel runs.
                engine: opt_str(&obj, "engine", "scalar"),
                wall_s: opt_f64(&obj, "wall_s", 0.0),
                shots_per_sec: opt_f64(&obj, "shots_per_sec", 0.0),
            }),
            "search_start" => {
                let strategies = obj
                    .get("strategies")
                    .and_then(Json::as_array)
                    .ok_or_else(|| {
                        FormatError::whole_input("search_start record is missing strategies")
                    })?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| FormatError::whole_input("strategies must be strings"))
                    })
                    .collect::<Result<Vec<String>, FormatError>>()?;
                Ok(ReportRecord::SearchStart {
                    code: get_str(&obj, "code")?,
                    seed: get_u64(&obj, "seed")?,
                    chunk_size: get_u64(&obj, "chunk_size")?,
                    strategies,
                    portfolio: get_u64(&obj, "portfolio")?,
                    rounds: get_u64(&obj, "rounds")?,
                    initial_depth: get_u64(&obj, "initial_depth")?,
                    initial_schedule: get_str(&obj, "initial_schedule")?,
                })
            }
            "incumbent" => Ok(ReportRecord::Incumbent {
                round: get_u64(&obj, "round")?,
                strategy: get_str(&obj, "strategy")?,
                instance: get_u64(&obj, "instance")?,
                depth: get_u64(&obj, "depth")?,
                improved: get_bool(&obj, "improved")?,
                schedule: get_str(&obj, "schedule")?,
            }),
            "search_end" => Ok(ReportRecord::SearchEnd {
                rounds: get_u64(&obj, "rounds")?,
                best_depth: get_u64(&obj, "best_depth")?,
                best_strategy: get_str(&obj, "best_strategy")?,
                best_instance: get_u64(&obj, "best_instance")?,
                final_schedule: get_str(&obj, "final_schedule")?,
            }),
            "table" => {
                // get_str above already proved obj is an object, but a typed
                // error keeps this parse path panic-free on any input.
                let Json::Object(pairs) = obj else {
                    return Err(FormatError::whole_input("table record is not an object"));
                };
                let name = pairs
                    .iter()
                    .find(|(k, _)| k == "name")
                    .and_then(|(_, v)| v.as_str())
                    .ok_or_else(|| {
                        FormatError::whole_input("table record is missing string field \"name\"")
                    })?
                    .to_string();
                let fields = pairs
                    .into_iter()
                    .filter(|(k, _)| k != "type" && k != "name")
                    .collect();
                Ok(ReportRecord::Table { name, fields })
            }
            // Provenance is best-effort by design: every field optional.
            "meta" => Ok(ReportRecord::Meta {
                version: opt_str(&obj, "version", ""),
                seed: opt_u64(&obj, "seed", 0),
                threads: opt_u64(&obj, "threads", 0),
                chunk_size: opt_u64(&obj, "chunk_size", 0),
                engine: opt_str(&obj, "engine", ""),
                cmdline: opt_str(&obj, "cmdline", ""),
            }),
            // Trace events: only the name is required, everything else
            // defaults, so future emitters can extend the record additively.
            "trace" => Ok(ReportRecord::Trace {
                name: get_str(&obj, "name")?,
                cat: opt_str(&obj, "cat", ""),
                kind: opt_str(&obj, "kind", "span"),
                tid: opt_u64(&obj, "tid", 0),
                id: opt_u64(&obj, "id", 0),
                parent: opt_u64(&obj, "parent", 0),
                ts: opt_u64(&obj, "ts", 0),
                dur: opt_u64(&obj, "dur", 0),
                args: u64_pairs(&obj, "args")?,
            }),
            "metrics" => {
                let histograms = match obj.get("histograms") {
                    None => Vec::new(),
                    Some(val) => val
                        .as_array()
                        .ok_or_else(|| {
                            FormatError::whole_input("metrics histograms must be an array")
                        })?
                        .iter()
                        .map(parse_metrics_histogram)
                        .collect::<Result<Vec<MetricsHistogram>, FormatError>>()?,
                };
                Ok(ReportRecord::Metrics {
                    counters: u64_pairs(&obj, "counters")?,
                    gauges: u64_pairs(&obj, "gauges")?,
                    histograms,
                })
            }
            other => Err(FormatError::whole_input(format!(
                "unknown report record type {other:?}"
            ))),
        }
    }
}

/// Serializes records to a JSON-lines document (one record per line, trailing
/// newline).
pub fn write_report<'a>(records: impl IntoIterator<Item = &'a ReportRecord>) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record.to_json_line());
        out.push('\n');
    }
    out
}

/// Parses a JSON-lines document into records, skipping blank lines.
///
/// # Errors
///
/// Returns the first record's [`FormatError`] with its line number in the document.
pub fn parse_report(input: &str) -> Result<Vec<ReportRecord>, FormatError> {
    let mut out = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(ReportRecord::from_json_line(line).map_err(|e| FormatError {
            line: idx + 1,
            column: e.column,
            message: e.message,
        })?);
    }
    Ok(out)
}

fn basis_name(basis: MemoryBasis) -> &'static str {
    match basis {
        MemoryBasis::Z => "Z",
        MemoryBasis::X => "X",
    }
}

fn parse_basis(name: &str) -> Result<MemoryBasis, FormatError> {
    match name {
        "Z" => Ok(MemoryBasis::Z),
        "X" => Ok(MemoryBasis::X),
        other => Err(FormatError::whole_input(format!(
            "basis must be \"Z\" or \"X\", got {other:?}"
        ))),
    }
}

/// Converts an in-memory [`IterationRecord`] into its report record.
pub fn iteration_to_record(record: &IterationRecord) -> ReportRecord {
    ReportRecord::Iteration {
        iteration: record.iteration as u64,
        basis: basis_name(record.basis).to_string(),
        subgraphs_found: record.subgraphs_found as u64,
        solution_weights: record.solution_weights.iter().map(|&w| w as u64).collect(),
        candidates_enumerated: record.candidates_enumerated as u64,
        changes_applied: record.changes_applied as u64,
        depth: record.depth as u64,
        schedule: write_schedule(&record.schedule),
    }
}

/// Converts an `iteration` report record back into an [`IterationRecord`].
///
/// # Errors
///
/// Returns a [`FormatError`] if the record is not an `iteration` record or its
/// embedded basis/schedule fail to parse.
pub fn record_to_iteration(record: &ReportRecord) -> Result<IterationRecord, FormatError> {
    let ReportRecord::Iteration {
        iteration,
        basis,
        subgraphs_found,
        solution_weights,
        candidates_enumerated,
        changes_applied,
        depth,
        schedule,
    } = record
    else {
        return Err(FormatError::whole_input("expected an iteration record"));
    };
    Ok(IterationRecord {
        iteration: *iteration as usize,
        basis: parse_basis(basis)?,
        subgraphs_found: *subgraphs_found as usize,
        solution_weights: solution_weights.iter().map(|&w| w as usize).collect(),
        candidates_enumerated: *candidates_enumerated as usize,
        changes_applied: *changes_applied as usize,
        depth: *depth as usize,
        schedule: parse_schedule(schedule)?,
    })
}

/// Serializes a whole [`OptimizationResult`] as `run_start`, `iteration`...,
/// `run_end` records.
pub fn result_to_report(
    result: &OptimizationResult,
    code_name: &str,
    seed: u64,
    chunk_size: usize,
) -> Vec<ReportRecord> {
    let mut records = Vec::with_capacity(result.records.len() + 2);
    records.push(ReportRecord::RunStart {
        code: code_name.to_string(),
        seed,
        chunk_size: chunk_size as u64,
        initial_depth: result.initial_schedule.depth().unwrap_or(0) as u64,
        initial_schedule: write_schedule(&result.initial_schedule),
    });
    records.extend(result.records.iter().map(iteration_to_record));
    records.push(ReportRecord::RunEnd {
        iterations: result.records.len() as u64,
        total_changes: result.total_changes_applied() as u64,
        final_depth: result.final_depth() as u64,
        final_schedule: write_schedule(&result.final_schedule),
    });
    records
}

/// Rebuilds an [`OptimizationResult`] from its report records.
///
/// `meta`, `metrics` and `trace` records are skipped wherever they appear —
/// streams carry a provenance header (and may have metrics snapshots or trace
/// events appended) that is not part of the optimization account.
///
/// # Errors
///
/// Returns a [`FormatError`] if the remaining records are not a `run_start` /
/// `iteration`... / `run_end` sequence or any embedded schedule fails to parse.
pub fn report_to_result(records: &[ReportRecord]) -> Result<OptimizationResult, FormatError> {
    let records: Vec<&ReportRecord> = records
        .iter()
        .filter(|r| {
            !matches!(
                r,
                ReportRecord::Meta { .. }
                    | ReportRecord::Metrics { .. }
                    | ReportRecord::Trace { .. }
            )
        })
        .collect();
    let Some(ReportRecord::RunStart {
        initial_schedule, ..
    }) = records.first()
    else {
        return Err(FormatError::whole_input(
            "run report must start with a run_start record",
        ));
    };
    let Some(ReportRecord::RunEnd { final_schedule, .. }) = records.last() else {
        return Err(FormatError::whole_input(
            "run report must end with a run_end record",
        ));
    };
    let iterations = records[1..records.len() - 1]
        .iter()
        .copied()
        .map(record_to_iteration)
        .collect::<Result<Vec<IterationRecord>, FormatError>>()?;
    Ok(OptimizationResult {
        initial_schedule: parse_schedule(initial_schedule)?,
        final_schedule: parse_schedule(final_schedule)?,
        records: iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt::{PropHunt, PropHuntConfig};
    use prophunt_circuit::schedule::ScheduleSpec;
    use prophunt_qec::surface::rotated_surface_code_with_layout;

    #[test]
    fn ler_and_table_records_round_trip() {
        let records = vec![
            ReportRecord::Ler {
                label: "poor".into(),
                p: 3e-3,
                idle: 0.0,
                shots: 4000,
                failures: 37,
                seed: u64::MAX,
                chunk_size: 64,
                decoder: "unionfind".into(),
                noise: "si1000:0.003".into(),
                stop: "max_failures".into(),
                engine: "frames".into(),
                wall_s: 1.25,
                shots_per_sec: 3200.0,
            },
            ReportRecord::Table {
                name: "code".into(),
                fields: vec![
                    ("code".into(), Json::Str("surface_d3".into())),
                    ("n".into(), Json::UInt(9)),
                    ("d_x".into(), Json::UInt(3)),
                ],
            },
        ];
        let text = write_report(&records);
        assert_eq!(text.lines().count(), 2);
        let parsed = parse_report(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn optimization_result_round_trips_through_the_report() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let poor = ScheduleSpec::surface_poor(&code, &layout);
        let config = PropHuntConfig {
            iterations: 2,
            samples_per_iteration: 15,
            ..PropHuntConfig::quick(3)
        };
        let seed = config.seed();
        let chunk = config.runtime.chunk_size;
        let prophunt = PropHunt::new(code.clone(), config);
        let result = prophunt.try_optimize(poor).unwrap();
        let records = result_to_report(&result, code.name(), seed, chunk);
        let text = write_report(&records);
        let rebuilt = report_to_result(&parse_report(&text).unwrap()).unwrap();
        assert_eq!(rebuilt, result);
    }

    #[test]
    fn v1_ler_records_parse_with_defaulted_v2_fields() {
        // A line exactly as PR 2's writer emitted it: no decoder/noise/stop/timing.
        let line = "{\"type\":\"ler\",\"label\":\"x\",\"p\":0.003,\"idle\":0.0,\
                    \"shots\":100,\"failures\":3,\"seed\":7,\"chunk_size\":64}";
        let parsed = ReportRecord::from_json_line(line).unwrap();
        let ReportRecord::Ler {
            decoder,
            noise,
            stop,
            engine,
            wall_s,
            shots_per_sec,
            shots,
            ..
        } = parsed
        else {
            panic!("expected a ler record");
        };
        assert_eq!(shots, 100);
        assert_eq!(decoder, "bposd");
        assert_eq!(noise, "");
        assert_eq!(stop, "shots_exhausted");
        assert_eq!(engine, "scalar");
        assert_eq!(wall_s, 0.0);
        assert_eq!(shots_per_sec, 0.0);
    }

    #[test]
    fn v2_ler_records_without_engine_default_to_scalar() {
        // A line exactly as the pre-engine v2 writer emitted it.
        let line = "{\"type\":\"ler\",\"label\":\"x\",\"p\":0.003,\"idle\":0.0,\
                    \"shots\":100,\"failures\":3,\"seed\":7,\"chunk_size\":64,\
                    \"decoder\":\"unionfind\",\"noise\":\"depolarizing:0.003\",\
                    \"stop\":\"max_failures\",\"wall_s\":0.5,\"shots_per_sec\":200.0}";
        let parsed = ReportRecord::from_json_line(line).unwrap();
        let ReportRecord::Ler {
            decoder, engine, ..
        } = parsed
        else {
            panic!("expected a ler record");
        };
        assert_eq!(decoder, "unionfind");
        assert_eq!(engine, "scalar");
    }

    #[test]
    fn ler_constructor_fills_v1_compatible_defaults() {
        let record = ReportRecord::ler("l", 1e-3, 0.0, 10, 1, 2, 64);
        let reparsed = ReportRecord::from_json_line(&record.to_json_line()).unwrap();
        assert_eq!(reparsed, record);
        let ReportRecord::Ler {
            decoder,
            stop,
            engine,
            ..
        } = record
        else {
            panic!("expected a ler record");
        };
        assert_eq!(decoder, "bposd");
        assert_eq!(stop, "shots_exhausted");
        assert_eq!(engine, "frames");
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = parse_report("{\"type\":\"ler\"}\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("label"));
        let good = ReportRecord::Table {
            name: "t".into(),
            fields: vec![],
        }
        .to_json_line();
        let err = parse_report(&format!("{good}\nnot json\n")).unwrap_err();
        assert_eq!(err.line, 2);
        // `lint` (a retired type) is rejected like any other unknown type.
        for unknown in [
            "{\"type\":\"mystery\"}",
            "{\"type\":\"lint\",\"file\":\"a.rs\"}",
        ] {
            let err = parse_report(&format!("{unknown}\n")).unwrap_err();
            assert!(err.message.contains("unknown report record type"));
        }
    }

    #[test]
    fn table_writer_skips_reserved_field_keys() {
        let record = ReportRecord::Table {
            name: "t".into(),
            fields: vec![
                ("name".into(), Json::Str("shadow".into())),
                ("type".into(), Json::Str("shadow".into())),
                ("kept".into(), Json::UInt(1)),
            ],
        };
        let line = record.to_json_line();
        assert_eq!(line.matches("\"name\"").count(), 1, "{line}");
        let parsed = ReportRecord::from_json_line(&line).unwrap();
        assert_eq!(
            parsed,
            ReportRecord::Table {
                name: "t".into(),
                fields: vec![("kept".into(), Json::UInt(1))],
            }
        );
    }

    #[test]
    fn search_records_round_trip() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = write_schedule(&ScheduleSpec::surface_hand_designed(&code, &layout));
        let records = vec![
            ReportRecord::SearchStart {
                code: "surface_d3".into(),
                seed: 7,
                chunk_size: 64,
                strategies: vec!["maxsat".into(), "anneal".into()],
                portfolio: 4,
                rounds: 8,
                initial_depth: 6,
                initial_schedule: schedule.clone(),
            },
            ReportRecord::Incumbent {
                round: 0,
                strategy: "initial".into(),
                instance: 0,
                depth: 6,
                improved: false,
                schedule: schedule.clone(),
            },
            ReportRecord::Incumbent {
                round: 1,
                strategy: "hillclimb".into(),
                instance: 3,
                depth: 4,
                improved: true,
                schedule: schedule.clone(),
            },
            ReportRecord::SearchEnd {
                rounds: 8,
                best_depth: 4,
                best_strategy: "hillclimb".into(),
                best_instance: 3,
                final_schedule: schedule.clone(),
            },
        ];
        let text = write_report(&records);
        let parsed = parse_report(&text).unwrap();
        assert_eq!(parsed, records);
        // The embedded schedule is a complete prophunt-schedule document.
        let ReportRecord::Incumbent { schedule, .. } = &parsed[2] else {
            panic!("expected an incumbent record");
        };
        parse_schedule(schedule).unwrap();
    }

    #[test]
    fn truncated_incumbent_record_mid_stream_is_rejected_with_its_line() {
        // A stream cut off mid-write: the last line is half a record. The
        // parser must reject it (naming the line) instead of silently
        // accepting the prefix — `prophunt check`'s exit-1 path.
        let good = ReportRecord::Incumbent {
            round: 0,
            strategy: "beam".into(),
            instance: 2,
            depth: 5,
            improved: true,
            schedule: "prophunt-schedule v1\n".into(),
        }
        .to_json_line();
        let truncated = &good[..good.len() / 2];
        let err = parse_report(&format!("{good}\n{truncated}\n")).unwrap_err();
        assert_eq!(err.line, 2);
        // Structurally complete JSON missing a required field is also caught.
        let err = parse_report("{\"type\":\"incumbent\",\"round\":1}\n").unwrap_err();
        assert!(err.message.contains("strategy"), "{}", err.message);
        let err = parse_report(
            "{\"type\":\"incumbent\",\"round\":1,\"strategy\":\"beam\",\"instance\":0,\
             \"depth\":4,\"improved\":1,\"schedule\":\"s\"}\n",
        )
        .unwrap_err();
        assert!(err.message.contains("improved"), "{}", err.message);
    }

    #[test]
    fn malformed_run_reports_are_rejected() {
        assert!(report_to_result(&[]).is_err());
        let only_iter = vec![ReportRecord::Table {
            name: "x".into(),
            fields: vec![],
        }];
        assert!(report_to_result(&only_iter).is_err());
        // A stream that is nothing but provenance has no result to rebuild.
        assert!(report_to_result(&[ReportRecord::meta("0.1.0", 1, 2, 64, "")]).is_err());
    }

    #[test]
    fn meta_and_metrics_records_round_trip() {
        let records = vec![
            ReportRecord::meta("0.1.0", 7, 4, 64, "frames"),
            ReportRecord::Metrics {
                counters: vec![("ler.chunks".into(), 32), ("ler.shots".into(), 2048)],
                gauges: vec![("runtime.workers.peak".into(), 4)],
                histograms: vec![MetricsHistogram {
                    name: "ler.frames.decode.ns".into(),
                    count: 3,
                    sum: 300,
                    buckets: vec![(5, 2), (7, 1)],
                }],
            },
        ];
        let text = write_report(&records);
        let parsed = parse_report(&text).unwrap();
        assert_eq!(parsed, records);
        // The deterministic subset is one self-contained JSON object.
        assert!(text.contains("\"counters\":{\"ler.chunks\":32,\"ler.shots\":2048}"));
    }

    #[test]
    fn metrics_from_snapshot_preserves_class_separation() {
        let reg = prophunt_obs::Registry::new();
        reg.counter("ler.shots").add(100);
        reg.gauge("runtime.workers.peak").set(8);
        reg.histogram("ler.frames.decode.ns").record(1000);
        let record = ReportRecord::metrics_from_snapshot(&reg.snapshot());
        let reparsed = ReportRecord::from_json_line(&record.to_json_line()).unwrap();
        assert_eq!(reparsed, record);
        let ReportRecord::Metrics {
            counters,
            gauges,
            histograms,
        } = reparsed
        else {
            panic!("expected a metrics record");
        };
        assert_eq!(counters, vec![("ler.shots".to_string(), 100)]);
        assert_eq!(gauges, vec![("runtime.workers.peak".to_string(), 8)]);
        assert_eq!(histograms.len(), 1);
        assert_eq!(histograms[0].count, 1);
        assert_eq!(histograms[0].sum, 1000);
        assert_eq!(histograms[0].quantile(1.0), 1023);
    }

    #[test]
    fn bare_meta_records_parse_with_all_fields_defaulted() {
        let parsed = ReportRecord::from_json_line("{\"type\":\"meta\"}").unwrap();
        assert_eq!(parsed, ReportRecord::meta("", 0, 0, 0, ""));
        // Partial meta (a future emitter with fewer fields) also parses.
        let parsed =
            ReportRecord::from_json_line("{\"type\":\"meta\",\"seed\":9,\"engine\":\"scalar\"}")
                .unwrap();
        assert_eq!(parsed, ReportRecord::meta("", 9, 0, 0, "scalar"));
    }

    #[test]
    fn truncated_metrics_record_mid_stream_is_rejected_with_its_line() {
        // Mirrors the incumbent truncation regression: a metrics line cut off
        // mid-write must fail parse_report with its line number.
        let good = ReportRecord::Metrics {
            counters: vec![("search.proposals".into(), 64)],
            gauges: vec![],
            histograms: vec![MetricsHistogram {
                name: "search.round.ns".into(),
                count: 4,
                sum: 4000,
                buckets: vec![(10, 4)],
            }],
        }
        .to_json_line();
        let truncated = &good[..good.len() / 2];
        let err = parse_report(&format!("{good}\n{truncated}\n")).unwrap_err();
        assert_eq!(err.line, 2);
        // Structurally complete JSON with mistyped fields is also caught.
        let err =
            parse_report("{\"type\":\"metrics\",\"counters\":{\"a\":\"oops\"}}\n").unwrap_err();
        assert!(err.message.contains("unsigned integer"), "{}", err.message);
        let err = parse_report(
            "{\"type\":\"metrics\",\"histograms\":[{\"name\":\"h\",\"count\":1,\"sum\":2,\
             \"buckets\":[[1]]}]}\n",
        )
        .unwrap_err();
        assert!(err.message.contains("buckets"), "{}", err.message);
    }

    #[test]
    fn truncated_trace_record_mid_stream_is_rejected_with_its_line() {
        // Mirrors the incumbent/metrics truncation regressions: a trace line
        // cut off mid-write must fail parse_report with its line number.
        let good = ReportRecord::Trace {
            name: "runtime.task".into(),
            cat: "runtime".into(),
            kind: "span".into(),
            tid: 2,
            id: 17,
            parent: 16,
            ts: 1_000_000,
            dur: 250_000,
            args: vec![("task".into(), 4), ("worker".into(), 2)],
        }
        .to_json_line();
        let truncated = &good[..good.len() / 2];
        let err = parse_report(&format!("{good}\n{truncated}\n")).unwrap_err();
        assert_eq!(err.line, 2);
        // Structurally complete JSON missing the one required field is caught.
        let err = parse_report("{\"type\":\"trace\",\"cat\":\"runtime\"}\n").unwrap_err();
        assert!(err.message.contains("name"), "{}", err.message);
        // Mistyped args are caught too.
        let err = parse_report("{\"type\":\"trace\",\"name\":\"t\",\"args\":{\"a\":\"x\"}}\n")
            .unwrap_err();
        assert!(err.message.contains("unsigned integer"), "{}", err.message);
    }

    #[test]
    fn meta_cmdline_is_optional_and_omitted_when_empty() {
        // Without a cmdline the line is byte-identical to the pre-trace-v1
        // writer's output: no "cmdline" key at all.
        let bare = ReportRecord::meta("0.1.0", 7, 4, 64, "frames");
        assert!(!bare.to_json_line().contains("cmdline"));
        assert_eq!(
            ReportRecord::from_json_line(&bare.to_json_line()).unwrap(),
            bare
        );
        // With one, it round-trips.
        let full = ReportRecord::meta("0.1.0", 7, 4, 64, "frames")
            .with_cmdline("prophunt ler --code surface:3 --trace t.jsonl");
        let line = full.to_json_line();
        assert!(line.contains("\"cmdline\":\"prophunt ler"), "{line}");
        assert_eq!(ReportRecord::from_json_line(&line).unwrap(), full);
        // Older readers: the parser defaults a missing cmdline to empty.
        let parsed = ReportRecord::from_json_line("{\"type\":\"meta\",\"seed\":1}").unwrap();
        let ReportRecord::Meta { cmdline, .. } = parsed else {
            panic!("expected a meta record");
        };
        assert_eq!(cmdline, "");
    }

    #[test]
    fn report_to_result_skips_provenance_and_metrics_records() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let poor = ScheduleSpec::surface_poor(&code, &layout);
        let config = PropHuntConfig {
            iterations: 1,
            samples_per_iteration: 10,
            ..PropHuntConfig::quick(3)
        };
        let seed = config.seed();
        let chunk = config.runtime.chunk_size;
        let prophunt = PropHunt::new(code.clone(), config);
        let result = prophunt.try_optimize(poor).unwrap();
        let mut records = result_to_report(&result, code.name(), seed, chunk);
        records.insert(0, ReportRecord::meta("0.1.0", seed, 4, chunk as u64, ""));
        records.push(ReportRecord::Metrics {
            counters: vec![("session.jobs".into(), 1)],
            gauges: vec![],
            histograms: vec![],
        });
        let rebuilt = report_to_result(&parse_report(&write_report(&records)).unwrap()).unwrap();
        assert_eq!(rebuilt, result);
    }
}
