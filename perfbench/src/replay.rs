//! The traced run: each job runs once untraced through the session, then is
//! replayed through the layers' public functions in the program's own order
//! and seed streams. Every layer call gets a trace span parented to the job
//! span, and its wall time and counts feed the per-layer metrics. A replay
//! that does not reproduce the untraced job bit for bit is an error: its
//! layer numbers would describe a different program.

use crate::workload::{
    job_seed, make_job, prepare, run_job, Job, Output, Prepared, Profile, Workload, CHUNK_SIZE,
    THREADS,
};
use prophunt::changes::{
    apply_verified_changes, enumerate_candidates, verify_candidate, VerifiedChange,
};
use prophunt::minweight::min_weight_logical_error;
use prophunt::{find_ambiguous_subgraph, AmbiguousSubgraph, DecodingGraph, IterationRecord};
use prophunt_api::{ApiError, LerJob, OptimizeJob, SearchJob, Session};
use prophunt_circuit::{MemoryBasis, NoiseModel, ScheduleEval, ScheduleSpec};
use prophunt_decoders::{decode_shots_cached, DecodeStats};
use prophunt_gf2::{transpose_lane_words, BitVec};
use prophunt_obs::{TraceKind, TraceLog, Tracer, WorkerScope};
use prophunt_qec::CssCode;
use prophunt_runtime::{Runtime, RuntimeConfig, SeedStream};
use prophunt_search::{
    Incumbent, InstanceProposal, Proposal, RoundRecord, SearchContext, SearchParams, SearchResult,
    Strategy, StrategyKind, INITIAL_STRATEGY,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Seed-stream labels the replay must share with the program. They are
/// private there, so they are copied here; a change on either side shows up
/// as a replay that no longer reproduces its job.
pub mod labels {
    /// `stage::SAMPLE` in `crates/prophunt/src/optimizer.rs`.
    pub const OPTIMIZER_SAMPLE: u64 = 1;
    /// `stage::ENUMERATE` in `crates/prophunt/src/optimizer.rs`.
    pub const OPTIMIZER_ENUMERATE: u64 = 2;
    /// `stream::INSTANCE` in `crates/search/src/portfolio.rs`.
    pub const PORTFOLIO_INSTANCE: u64 = 101;
    /// `stream::ROUND` in `crates/search/src/portfolio.rs`.
    pub const PORTFOLIO_ROUND: u64 = 102;
}

/// Every per-layer metric of the traced run, with its unit. Values are per
/// replayed job unless the name says otherwise (`*.max_s` is a maximum,
/// `maxsat.vars` / `maxsat.hard_clauses` are means per solve,
/// `circuit.dem_build.s` / `circuit.dem.mechanisms` / `decoders.setup_s` are
/// means per build). A layer that does not run on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("prophunt.build_graph.s", "s"),
    ("prophunt.sample.s", "s"),
    ("prophunt.solve.s", "s"),
    ("prophunt.enumerate.s", "s"),
    ("prophunt.verify.s", "s"),
    ("prophunt.apply.s", "s"),
    ("prophunt.sample.attempts", "count"),
    ("prophunt.sample.found", "count"),
    ("prophunt.sample.useful_frac", "ratio"),
    ("prophunt.solve.calls", "count"),
    ("prophunt.solve.max_s", "s"),
    ("prophunt.enumerate.candidates", "count"),
    ("prophunt.verify.calls", "count"),
    ("prophunt.verify.accepted", "count"),
    ("prophunt.verify.useful_frac", "ratio"),
    ("prophunt.apply.applied", "count"),
    ("maxsat.conflicts", "count"),
    ("maxsat.exhausted", "count"),
    ("maxsat.vars", "count"),
    ("maxsat.hard_clauses", "count"),
    ("circuit.dem_build.s", "s"),
    ("circuit.dem.mechanisms", "count"),
    ("circuit.sample.s", "s"),
    ("gf2.transpose.s", "s"),
    ("decoders.decode.s", "s"),
    ("decoders.decode.zero", "count"),
    ("decoders.decode.cache_hit", "count"),
    ("decoders.decode.cache_miss", "count"),
    ("decoders.decode.bp_converged", "count"),
    ("decoders.decode.osd_calls", "count"),
    ("decoders.setup_s", "s"),
    ("search.round.s", "s"),
    ("search.arm.maxsat.propose_s", "s"),
    ("search.arm.anneal.propose_s", "s"),
    ("search.arm.beam.propose_s", "s"),
    ("search.arm.hillclimb.propose_s", "s"),
    ("search.proposals", "count"),
    ("search.dedup_hits", "count"),
    ("search.improvements", "count"),
    ("runtime.sample.idle_frac", "ratio"),
    ("runtime.solve.idle_frac", "ratio"),
    ("runtime.verify.idle_frac", "ratio"),
    ("runtime.round.idle_frac", "ratio"),
    ("runtime.ler.idle_frac", "ratio"),
    ("self.prophunt.s", "s"),
    ("self.maxsat.s", "s"),
    ("self.circuit.s", "s"),
    ("self.gf2.s", "s"),
    ("self.decoders.s", "s"),
    ("self.search.s", "s"),
    ("trace.unaccounted.s", "s"),
    ("trace.overhead.s", "s"),
    ("trace.serial_job.s", "s"),
    ("trace.scaling_eff", "ratio"),
    ("trace.jobs", "count"),
];

/// The parallel stages whose idle fraction is reported.
const STAGES: [&str; 5] = ["sample", "solve", "verify", "round", "ler"];

/// Replayed jobs per traced run that record spans (the rest only count).
const TRACED_JOBS: usize = 3;

/// The layers whose self time is reported (span categories).
const LAYERS: [&str; 6] = ["prophunt", "maxsat", "circuit", "gf2", "decoders", "search"];

/// Raw sums the per-layer metrics are derived from.
#[derive(Debug, Default)]
struct Tally {
    sums: BTreeMap<String, f64>,
    maxima: BTreeMap<String, f64>,
}

impl Tally {
    fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_default() += value;
    }

    fn max(&mut self, name: &str, value: f64) {
        let slot = self.maxima.entry(name.to_string()).or_default();
        *slot = slot.max(value);
    }

    fn merge(&mut self, other: Tally) {
        for (name, value) in other.sums {
            self.add(&name, value);
        }
        for (name, value) in other.maxima {
            self.max(&name, value);
        }
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Records one parallel stage: its wall time and the summed busy time of
    /// its tasks, for `runtime.<stage>.idle_frac`.
    fn stage(&mut self, stage: &str, wall: f64, busy: f64, threads: usize) {
        self.add(&format!("stage.{stage}.capacity"), wall * threads as f64);
        self.add(&format!("stage.{stage}.busy"), busy);
    }
}

/// The span category of a layer call: the layer, i.e. the part of the span
/// name before the first dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Runs `f` as one layer call: a trace span named `name` parented to
/// `parent` (0: the innermost span open on this thread), plus the call's
/// wall time in seconds.
fn layer_call<T>(
    tracer: Option<&Tracer>,
    parent: u64,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.map(|t| match parent {
        0 => t.span(name, layer_of(name)),
        parent => t.span_child_of(name, layer_of(name), parent),
    });
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    drop(span);
    (out, secs)
}

thread_local! {
    /// The trace lane of this thread within the current parallel call.
    static LANE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

static NEXT_LANES_ID: AtomicU64 = AtomicU64::new(1);

/// Gives each worker thread of one parallel call its own trace lane
/// (`1..=threads`; lane 0 is the control thread).
struct Lanes {
    id: u64,
    control: ThreadId,
    next: AtomicU64,
}

impl Lanes {
    fn new() -> Lanes {
        Lanes {
            id: NEXT_LANES_ID.fetch_add(1, Ordering::Relaxed),
            control: std::thread::current().id(),
            next: AtomicU64::new(1),
        }
    }

    fn enter(&self, tracer: Option<&Tracer>) -> Option<WorkerScope> {
        let tracer = tracer?;
        if std::thread::current().id() == self.control {
            return None;
        }
        let lane = LANE.with(|cell| {
            let (id, lane) = cell.get();
            if id == self.id {
                lane
            } else {
                let lane = self.next.fetch_add(1, Ordering::Relaxed);
                cell.set((self.id, lane));
                lane
            }
        });
        Some(tracer.worker_scope(lane))
    }
}

/// The context of one replayed job.
struct Replayer<'a> {
    tracer: Option<&'a Tracer>,
    parent: u64,
    runtime: Runtime,
    tally: &'a mut Tally,
}

impl Replayer<'_> {
    fn threads(&self) -> usize {
        self.runtime.threads()
    }

    /// Replays `PropHunt::try_optimize_with_observer` for `job`.
    fn optimize(&mut self, job: &OptimizeJob, seed: u64) -> (Vec<IterationRecord>, ScheduleSpec) {
        let params = StepParams {
            code: job.spec.code().clone(),
            rounds: job.spec.rounds(),
            noise: job.spec.noise().build(),
            samples: job.samples_per_iteration,
            max_steps: job.max_subgraph_steps,
            max_subgraphs: job.max_subgraphs_per_iteration,
            budget: job.maxsat_budget,
            seed,
        };
        let mut schedule = job.spec.schedule().clone();
        let mut records = Vec::new();
        for iteration in 0..job.iterations {
            let basis = if iteration.is_multiple_of(2) {
                MemoryBasis::Z
            } else {
                MemoryBasis::X
            };
            let record = step(
                &self.runtime,
                self.tracer,
                self.parent,
                self.tally,
                &params,
                iteration,
                basis,
                &mut schedule,
            );
            let stop = record.subgraphs_found == 0 && iteration > 0;
            records.push(record);
            if stop {
                break;
            }
        }
        (records, schedule)
    }

    /// Replays `Portfolio::run` for `job`: synchronized rounds of
    /// `Strategy::propose`, fingerprint dedup, incumbent selection with
    /// re-verification, then `Strategy::observe`.
    fn search(&mut self, job: &SearchJob, seed: u64) -> Result<SearchResult, String> {
        let spec = &job.spec;
        let code = spec.code();
        let initial = spec.schedule();
        let initial_depth = initial.depth().map_err(|e| e.to_string())?;
        let params = SearchParams {
            proposals_per_round: job.proposals_per_round,
            memory_rounds: spec.rounds(),
            noise: spec.noise().build(),
            samples_per_iteration: job.samples_per_iteration,
            maxsat_budget: job.maxsat_budget,
            ..SearchParams::default()
        };
        let context = SearchContext::new(
            code.clone(),
            spec.layout().cloned(),
            initial.clone(),
            params,
        );
        let root = SeedStream::new(seed);
        let instance_seeds = root.substream(labels::PORTFOLIO_INSTANCE);
        let kinds: Vec<_> = (0..job.portfolio_size)
            .map(|i| job.strategies[i % job.strategies.len()])
            .collect();
        let names: Vec<&'static str> = kinds.iter().map(|k| k.name()).collect();
        let arm_tally = Arc::new(Mutex::new(Tally::default()));
        let instances: Vec<Mutex<Box<dyn Strategy>>> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let seed = instance_seeds.seed_for(i as u64);
                Mutex::new(match kind {
                    StrategyKind::MaxSatDescent => Box::new(ReplayMaxSat {
                        params: StepParams {
                            code: code.clone(),
                            rounds: context.params.memory_rounds,
                            noise: context.params.noise,
                            samples: context.params.samples_per_iteration,
                            max_steps: 60,
                            max_subgraphs: 6,
                            budget: context.params.maxsat_budget,
                            seed,
                        },
                        runtime: Runtime::new(RuntimeConfig::new(1, 16, seed)),
                        tracer: self.tracer.cloned(),
                        tally: Arc::clone(&arm_tally),
                        schedule: initial.clone(),
                        depth: initial_depth,
                    }) as Box<dyn Strategy>,
                    _ => kind.build(&context, seed),
                })
            })
            .collect();
        let span_names: Vec<String> = names
            .iter()
            .map(|name| format!("search.propose.{name}"))
            .collect();
        let tracer = self.tracer;
        let parent = self.parent;
        let threads = self.threads();

        let mut incumbent = Incumbent {
            schedule: initial.clone(),
            depth: initial_depth,
            strategy: INITIAL_STRATEGY,
            instance: 0,
            round: 0,
        };
        let initial_fingerprint = initial.fingerprint();
        let mut seen: HashSet<u64> = HashSet::from([initial_fingerprint]);
        let mut verified: HashSet<u64> = HashSet::from([initial_fingerprint]);
        let mut rounds = Vec::with_capacity(job.rounds);
        for round in 0..job.rounds {
            let round_start = Instant::now();
            let round_seeds = root
                .substream(labels::PORTFOLIO_ROUND)
                .substream(round as u64);
            let lanes = Lanes::new();
            let proposals = self.runtime.run_tasks(instances.len(), |i| {
                let _lane = lanes.enter(tracer);
                let mut strategy = instances[i].lock().expect("strategy mutex poisoned");
                layer_call(tracer, parent, &span_names[i], || {
                    strategy.propose(round, round_seeds.seed_for(i as u64))
                })
            });
            let wall = round_start.elapsed().as_secs_f64();
            let busy: f64 = proposals.iter().map(|(_, s)| s).sum();
            self.tally.stage("round", wall, busy, threads);
            for (name, (_, secs)) in names.iter().zip(&proposals) {
                self.tally
                    .add(&format!("search.arm.{name}.propose_s"), *secs);
            }
            let proposals: Vec<_> = proposals.into_iter().map(|(p, _)| p).collect();
            let fingerprints: Vec<u64> =
                proposals.iter().map(|p| p.schedule.fingerprint()).collect();
            let duplicates = fingerprints.iter().filter(|&&fp| !seen.insert(fp)).count();
            self.tally.add("search.proposals", proposals.len() as f64);
            self.tally.add("search.dedup_hits", duplicates as f64);
            let (winner, best) = proposals
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.depth, *i))
                .ok_or("portfolio has no instances")?;
            let improved = best.depth < incumbent.depth;
            if improved {
                self.tally.add("search.improvements", 1.0);
                if verified.insert(fingerprints[winner]) {
                    best.schedule
                        .validate_for_code(code)
                        .map_err(|e| e.to_string())?;
                    let actual = best.schedule.depth().map_err(|e| e.to_string())?;
                    if actual != best.depth {
                        return Err(format!(
                            "strategy {} proposed depth {} for a schedule of depth {actual}",
                            names[winner], best.depth
                        ));
                    }
                }
                incumbent = Incumbent {
                    schedule: best.schedule.clone(),
                    depth: best.depth,
                    strategy: names[winner],
                    instance: winner,
                    round,
                };
            }
            for (i, instance) in instances.iter().enumerate() {
                let mut strategy = instance.lock().expect("strategy mutex poisoned");
                layer_call(tracer, parent, "search.observe", || {
                    strategy.observe(&incumbent, improved && i == winner);
                });
            }
            self.tally
                .add("search.round.s", round_start.elapsed().as_secs_f64());
            self.tally.add("search.rounds", 1.0);
            rounds.push(RoundRecord {
                round,
                proposals: proposals
                    .iter()
                    .enumerate()
                    .map(|(i, p)| InstanceProposal {
                        instance: i,
                        strategy: names[i],
                        depth: p.depth,
                    })
                    .collect(),
                incumbent: incumbent.clone(),
                improved,
                duplicates,
            });
        }
        let arm_tally = std::mem::take(&mut *arm_tally.lock().expect("tally mutex poisoned"));
        self.tally.merge(arm_tally);
        Ok(SearchResult {
            initial_depth,
            best: incumbent,
            rounds,
        })
    }

    /// Replays the frames engine of `estimate_with_budget_engine_cached` for
    /// every basis of `job`: waves of `2 × threads` chunks, each chunk sampled
    /// 64 lanes at a time, transposed, then batch-decoded. Returns the
    /// failures of every chunk, per basis.
    fn ler(
        &mut self,
        prepared: &mut Prepared,
        job: &LerJob,
        seed: u64,
    ) -> Result<Vec<Vec<usize>>, ApiError> {
        let tracer = self.tracer;
        let parent = self.parent;
        let threads = self.threads();
        let shots = job.budget.max_shots();
        let total_chunks = shots.div_ceil(CHUNK_SIZE);
        let stream = SeedStream::new(seed);
        let cache = job.spec.decode_cache();
        let mut per_basis = Vec::new();
        for &basis in job.spec.basis().bases() {
            let dem = prepared.session.dem(&job.spec, basis)?;
            let decoder = prepared.session.decoder(&job.spec, basis)?;
            let mut failures = Vec::with_capacity(total_chunks);
            let mut done = 0;
            while done < total_chunks {
                let wave = (threads * 2).clamp(1, total_chunks - done);
                let lanes = Lanes::new();
                let start = Instant::now();
                let results = self.runtime.run_tasks(wave, |i| {
                    let _lane = lanes.enter(tracer);
                    let c = done + i;
                    let chunk_shots = CHUNK_SIZE.min(shots - c * CHUNK_SIZE);
                    let mut sampler = dem.sampler(stream.seed_for(c as u64));
                    let mut det_frames = vec![0u64; dem.num_detectors()];
                    let mut obs_frames = vec![0u64; dem.num_observables()];
                    let mut det_shots: Vec<BitVec> = Vec::with_capacity(chunk_shots);
                    let mut obs_shots: Vec<BitVec> = Vec::with_capacity(chunk_shots);
                    let (mut sample_s, mut transpose_s) = (0.0, 0.0);
                    let mut remaining = chunk_shots;
                    while remaining > 0 {
                        let lanes = remaining.min(64);
                        let ((), secs) = layer_call(tracer, parent, "circuit.sample", || {
                            sampler.sample_frames(lanes, &mut det_frames, &mut obs_frames);
                        });
                        sample_s += secs;
                        let ((), secs) = layer_call(tracer, parent, "gf2.transpose", || {
                            det_shots.extend(transpose_lane_words(&det_frames, lanes));
                            obs_shots.extend(transpose_lane_words(&obs_frames, lanes));
                        });
                        transpose_s += secs;
                        remaining -= lanes;
                    }
                    let ((predictions, stats), decode_s) =
                        layer_call(tracer, parent, "decoders.decode", || {
                            decode_shots_cached(decoder.as_ref(), &det_shots, cache)
                        });
                    let failed = predictions
                        .iter()
                        .zip(&obs_shots)
                        .filter(|(p, o)| p != o)
                        .count();
                    (failed, stats, [sample_s, transpose_s, decode_s])
                });
                let wall = start.elapsed().as_secs_f64();
                let mut busy = 0.0;
                for (failed, stats, [sample_s, transpose_s, decode_s]) in results {
                    failures.push(failed);
                    self.tally.add("circuit.sample.s", sample_s);
                    self.tally.add("gf2.transpose.s", transpose_s);
                    self.tally.add("decoders.decode.s", decode_s);
                    self.decode_stats(stats);
                    busy += sample_s + transpose_s + decode_s;
                }
                self.tally.stage("ler", wall, busy, threads);
                done += wave;
            }
            per_basis.push(failures);
        }
        Ok(per_basis)
    }

    fn decode_stats(&mut self, stats: DecodeStats) {
        self.tally.add("decoders.decode.zero", stats.zero as f64);
        self.tally
            .add("decoders.decode.cache_hit", stats.cache_hits as f64);
        self.tally
            .add("decoders.decode.cache_miss", stats.cache_misses as f64);
        self.tally
            .add("decoders.decode.bp_converged", stats.bp_converged as f64);
        self.tally
            .add("decoders.decode.osd_calls", stats.osd_calls as f64);
    }
}

/// The configuration of one `PropHunt` the replay steps.
#[derive(Debug, Clone)]
struct StepParams {
    code: CssCode,
    rounds: usize,
    noise: NoiseModel,
    samples: usize,
    max_steps: usize,
    max_subgraphs: usize,
    budget: Duration,
    seed: u64,
}

/// Replays `PropHunt::step`: build_graph → sample → solve → enumerate →
/// verify → apply.
#[allow(clippy::too_many_arguments)]
fn step(
    runtime: &Runtime,
    tracer: Option<&Tracer>,
    parent: u64,
    tally: &mut Tally,
    p: &StepParams,
    iteration: usize,
    basis: MemoryBasis,
    schedule: &mut ScheduleSpec,
) -> IterationRecord {
    let (code, rounds, noise) = (&p.code, p.rounds, &p.noise);
    let threads = runtime.threads();
    let root = SeedStream::new(p.seed);

    let (graph, secs) = layer_call(tracer, parent, "prophunt.build_graph", || {
        DecodingGraph::build_with_noise(code, schedule, rounds, basis, noise)
    });
    let graph = graph.expect("the working schedule stays valid across iterations");
    tally.add("prophunt.build_graph.s", secs);
    tally.add("dem_builds", 1.0);
    tally.add("dem_build_s", secs);
    tally.add("dem_mechanisms", graph.num_errors() as f64);

    // Sample: one seeded task per sample, deduplicated by detector set.
    let stream = root
        .substream(labels::OPTIMIZER_SAMPLE)
        .substream(iteration as u64);
    let lanes = Lanes::new();
    let start = Instant::now();
    let sampled = runtime.par_seeded(p.samples, &stream, |_, task_seed| {
        let _lane = lanes.enter(tracer);
        layer_call(tracer, parent, "prophunt.sample", || {
            let mut rng = StdRng::seed_from_u64(task_seed);
            find_ambiguous_subgraph(&graph, &mut rng, p.max_steps)
        })
    });
    let wall = start.elapsed().as_secs_f64();
    let busy: f64 = sampled.iter().map(|(_, s)| s).sum();
    tally.stage("sample", wall, busy, threads);
    tally.add("prophunt.sample.s", wall);
    tally.add("prophunt.sample.attempts", p.samples as f64);
    let mut subgraphs: Vec<AmbiguousSubgraph> =
        sampled.into_iter().filter_map(|(found, _)| found).collect();
    tally.add("prophunt.sample.found", subgraphs.len() as f64);
    subgraphs.sort_by_key(|s| (s.errors.len(), s.detectors.clone()));
    subgraphs.dedup_by(|a, b| a.detectors == b.detectors);
    subgraphs.truncate(p.max_subgraphs);

    // Solve: one MaxSAT call per subgraph.
    let lanes = Lanes::new();
    let start = Instant::now();
    let solutions = runtime.par_map(&subgraphs, |sub| {
        let _lane = lanes.enter(tracer);
        layer_call(tracer, parent, "maxsat.solve", || {
            min_weight_logical_error(sub, p.budget)
        })
    });
    let wall = start.elapsed().as_secs_f64();
    let busy: f64 = solutions.iter().map(|(_, s)| s).sum();
    tally.stage("solve", wall, busy, threads);
    tally.add("prophunt.solve.s", wall);
    tally.add("prophunt.solve.calls", solutions.len() as f64);
    for (solution, secs) in &solutions {
        tally.max("prophunt.solve.max_s", *secs);
        match solution {
            Some(solution) => {
                tally.add("maxsat.solved", 1.0);
                tally.add("maxsat.conflicts", solution.stats.conflicts as f64);
                tally.add("maxsat.exhausted", f64::from(u8::from(!solution.optimal)));
                tally.add("maxsat.vars_total", solution.stats.num_variables as f64);
                tally.add("maxsat.hard_total", solution.stats.num_hard_clauses as f64);
            }
            None => tally.add("maxsat.no_model", 1.0),
        }
    }
    let solved: Vec<_> = subgraphs
        .into_iter()
        .zip(solutions)
        .filter_map(|(sub, (solution, _))| solution.map(|s| (sub, s)))
        .collect();
    let solution_weights: Vec<usize> = solved.iter().map(|(_, s)| s.weight).collect();
    let subgraphs_found = solved.len();

    // Enumerate: sequential, one RNG stream per iteration.
    let mut rng = StdRng::seed_from_u64(
        root.substream(labels::OPTIMIZER_ENUMERATE)
            .seed_for(iteration as u64),
    );
    let mut tasks = Vec::with_capacity(solved.len());
    let mut candidates_enumerated = 0;
    for (sub, solution) in solved {
        let (candidates, secs) = layer_call(tracer, parent, "prophunt.enumerate", || {
            enumerate_candidates(&graph, code, schedule, &solution, &mut rng)
        });
        tally.add("prophunt.enumerate.s", secs);
        candidates_enumerated += candidates.len();
        tasks.push((sub, solution, candidates));
    }
    tally.add(
        "prophunt.enumerate.candidates",
        candidates_enumerated as f64,
    );

    // Verify: one task per candidate against a shared incremental
    // evaluator of the base schedule.
    let start = Instant::now();
    let work: Vec<_> = tasks
        .iter()
        .enumerate()
        .flat_map(|(group, (sub, solution, candidates))| {
            candidates
                .iter()
                .map(move |candidate| (group, sub, solution, candidate))
        })
        .collect();
    let base_eval =
        ScheduleEval::new(schedule.clone()).expect("schedule stays valid across iterations");
    let lanes = Lanes::new();
    let results = runtime.par_map(&work, |&(group, sub, solution, candidate)| {
        let _lane = lanes.enter(tracer);
        let (verified, secs) = layer_call(tracer, parent, "prophunt.verify", || {
            verify_candidate(
                code, &base_eval, candidate, sub, solution, &graph, rounds, basis, noise,
            )
        });
        (verified.map(|v| (group, v)), secs)
    });
    let wall = start.elapsed().as_secs_f64();
    let busy: f64 = results.iter().map(|(_, s)| s).sum();
    tally.stage("verify", wall, busy, threads);
    tally.add("prophunt.verify.s", wall);
    tally.add("prophunt.verify.calls", work.len() as f64);
    let mut verified_per_subgraph: Vec<Vec<VerifiedChange>> = vec![Vec::new(); tasks.len()];
    let mut accepted = 0;
    for (group, verified) in results.into_iter().filter_map(|(v, _)| v) {
        verified_per_subgraph[group].push(verified);
        accepted += 1;
    }
    tally.add("prophunt.verify.accepted", f64::from(accepted));

    let (changes_applied, secs) = layer_call(tracer, parent, "prophunt.apply", || {
        apply_verified_changes(schedule, verified_per_subgraph)
    });
    tally.add("prophunt.apply.s", secs);
    tally.add("prophunt.apply.applied", changes_applied as f64);
    IterationRecord {
        iteration,
        basis,
        subgraphs_found,
        solution_weights,
        candidates_enumerated,
        changes_applied,
        depth: schedule.depth().unwrap_or(usize::MAX),
        schedule: schedule.clone(),
    }
}

/// Replays `job` (seed `seed`) at `threads` threads, recording spans into
/// `tracer` under a job span, and returns the replayed output in the shape of
/// the untraced one.
fn replay_job(
    prepared: &mut Prepared,
    job: &Job,
    seed: u64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<Replayed, String> {
    let kind = match job {
        Job::Optimize(_) => "job.optimize",
        Job::Search(_) => "job.search",
        Job::Ler(_) => "job.ler",
    };
    let span = tracer.map(|t| t.span(kind, "job"));
    let mut replayer = Replayer {
        tracer,
        parent: span.as_ref().map_or(0, |s| s.id()),
        runtime: Runtime::new(RuntimeConfig::new(THREADS, CHUNK_SIZE, seed)),
        tally,
    };
    let replayed = match job {
        Job::Optimize(job) => {
            let (records, schedule) = replayer.optimize(job, seed);
            Replayed::Optimize(records, schedule)
        }
        Job::Search(job) => Replayed::Search(replayer.search(job, seed)?),
        Job::Ler(job) => Replayed::Ler(
            replayer
                .ler(prepared, job, seed)
                .map_err(|e| e.to_string())?,
        ),
    };
    drop(span);
    Ok(replayed)
}

/// `prophunt_search::MaxSatDescent` replayed through [`step`]: the same
/// optimizer configuration (one iteration per round on a single-threaded
/// runtime seeded with the instance seed, six subgraphs, 60 expansion steps),
/// the same basis alternation and the same adopt-a-better-incumbent rule.
/// Its stage spans nest under the portfolio's propose span; its tallies go
/// to `tally` after every round.
struct ReplayMaxSat {
    params: StepParams,
    runtime: Runtime,
    tracer: Option<Tracer>,
    tally: Arc<Mutex<Tally>>,
    schedule: ScheduleSpec,
    depth: usize,
}

impl Strategy for ReplayMaxSat {
    fn name(&self) -> &'static str {
        StrategyKind::MaxSatDescent.name()
    }

    fn propose(&mut self, round: usize, _seed: u64) -> Proposal {
        let basis = if round.is_multiple_of(2) {
            MemoryBasis::Z
        } else {
            MemoryBasis::X
        };
        let mut tally = Tally::default();
        let record = step(
            &self.runtime,
            self.tracer.as_ref(),
            0,
            &mut tally,
            &self.params,
            round,
            basis,
            &mut self.schedule,
        );
        self.tally
            .lock()
            .expect("tally mutex poisoned")
            .merge(tally);
        self.depth = record.depth;
        Proposal {
            schedule: self.schedule.clone(),
            depth: self.depth,
        }
    }

    fn observe(&mut self, incumbent: &Incumbent, accepted: bool) {
        if !accepted && incumbent.depth < self.depth {
            self.schedule = incumbent.schedule.clone();
            self.depth = incumbent.depth;
        }
    }
}

/// The deterministic content of one job's output, compared between the
/// untraced job, its replay and the single-threaded rerun.
#[derive(Debug, PartialEq)]
enum Replayed {
    Optimize(Vec<IterationRecord>, ScheduleSpec),
    Search(SearchResult),
    Ler(Vec<Vec<usize>>),
}

impl Replayed {
    fn of(output: &Output) -> Replayed {
        match output {
            Output::Optimize(outcome) => Replayed::Optimize(
                outcome.result.records.clone(),
                outcome.result.final_schedule.clone(),
            ),
            Output::Search(outcome) => Replayed::Search(outcome.result.clone()),
            Output::Ler { chunk_failures, .. } => Replayed::Ler(chunk_failures.clone()),
        }
    }
}

/// Self time per span category: each span's duration minus the part of its
/// interval that its direct children cover.
pub fn self_times(log: &TraceLog) -> BTreeMap<String, f64> {
    let spans: Vec<_> = log
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Span && e.id != 0)
        .collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in &spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.ts_ns, span.ts_ns + span.dur_ns));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for span in &spans {
        let (start, end) = (span.ts_ns, span.ts_ns + span.dur_ns);
        let mut intervals: Vec<(u64, u64)> = children
            .get(&span.id)
            .map(|c| {
                c.iter()
                    .map(|&(s, e)| (s.max(start), e.min(end)))
                    .filter(|(s, e)| s < e)
                    .collect()
            })
            .unwrap_or_default();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = start;
        for (s, e) in intervals {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        *out.entry(span.cat.clone()).or_default() +=
            span.dur_ns.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Everything a traced run measured.
#[derive(Debug)]
pub struct TraceReport {
    /// Every [`PER_LAYER`] metric, by name.
    pub metrics: BTreeMap<String, f64>,
    /// The recorded spans.
    pub log: TraceLog,
    /// Jobs replayed.
    pub jobs: usize,
    /// Operations attempted: jobs, replays, MaxSAT solves, the serial rerun.
    pub attempted: usize,
    /// MaxSAT solves that returned no model.
    pub failed: usize,
}

/// Runs the traced mode: set-up (timing the DEM and decoder builds), one
/// warm-up job, then jobs until `seconds` have passed (at least one), each
/// run untraced and then replayed traced, then the first timed job again at
/// one thread.
///
/// # Errors
///
/// Returns a description of a failed build or job, or of a replay or serial
/// rerun that did not reproduce its job.
pub fn run_traced(
    workload: Workload,
    profile: &Profile,
    seed: u64,
    seconds: f64,
) -> Result<TraceReport, String> {
    let mut tally = Tally::default();
    let mut prepared = prepare(workload, THREADS, seed).map_err(|e| e.to_string())?;
    if workload.is_ler() {
        // Time the set-up builds on a fresh session of their own.
        let mut fresh = Session::new(RuntimeConfig::new(THREADS, CHUNK_SIZE, seed));
        let spec = &prepared.spec;
        for &basis in spec.basis().bases() {
            let start = Instant::now();
            let dem = fresh.dem(spec, basis).map_err(|e| e.to_string())?;
            tally.add("dem_build_s", start.elapsed().as_secs_f64());
            tally.add("dem_builds", 1.0);
            tally.add("dem_mechanisms", dem.num_errors() as f64);
            let start = Instant::now();
            fresh.decoder(spec, basis).map_err(|e| e.to_string())?;
            tally.add("decoder_setup_s", start.elapsed().as_secs_f64());
            tally.add("decoder_builds", 1.0);
        }
    }
    let spec = prepared.spec.clone();
    let warmup = make_job(workload, &spec, profile, job_seed(seed, 0));
    run_job(&mut prepared.session, &warmup).map_err(|e| e.to_string())?;

    let tracer = Tracer::new();
    let mut attempted = 0;
    let mut untraced_walls = Vec::new();
    let mut first: Option<(Job, Replayed)> = None;
    let start = Instant::now();
    let mut index = 1;
    while index == 1 || start.elapsed().as_secs_f64() < seconds {
        let job_seed = job_seed(seed, index);
        let job = make_job(workload, &spec, profile, job_seed);
        let t = Instant::now();
        let output = run_job(&mut prepared.session, &job).map_err(|e| e.to_string())?;
        let untraced = t.elapsed().as_secs_f64();
        // Only the first jobs record spans, which keeps the trace file small;
        // every job is replayed and checked.
        let traced = index <= TRACED_JOBS;
        let t = Instant::now();
        let replayed = replay_job(
            &mut prepared,
            &job,
            job_seed,
            traced.then_some(&tracer),
            &mut tally,
        )?;
        let replay_s = t.elapsed().as_secs_f64();
        attempted += 2;
        let expected = Replayed::of(&output);
        if replayed != expected {
            return Err(format!(
                "{} job {index} (seed {job_seed}): the replay does not reproduce the untraced \
                 job; the copied seed labels or stage order no longer match the program",
                workload.name()
            ));
        }
        if traced {
            tally.add("overhead_s", replay_s - untraced);
        }
        untraced_walls.push(untraced);
        if first.is_none() {
            first = Some((job, expected));
        }
        index += 1;
    }
    let jobs = untraced_walls.len();
    let traced_jobs = jobs.min(TRACED_JOBS) as f64;

    // Serial baseline: the first timed job again at one thread (set-up not
    // timed). Its output must not depend on the thread count.
    let (job, expected) = first.ok_or("no job was replayed")?;
    let mut serial = prepare(workload, 1, seed).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let output = run_job(&mut serial.session, &job).map_err(|e| e.to_string())?;
    let serial_s = t.elapsed().as_secs_f64();
    attempted += 1;
    if Replayed::of(&output) != expected {
        return Err(format!(
            "{}: the single-threaded rerun differs from the two-thread job",
            workload.name()
        ));
    }

    let log = tracer.drain();
    let self_s = self_times(&log);
    let per_job = |name: &str| tally.sum(name) / jobs as f64;
    let per = |num: &str, den: &str| {
        let den = tally.sum(den);
        if den > 0.0 {
            tally.sum(num) / den
        } else {
            0.0
        }
    };
    let mut metrics: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| (name.to_string(), per_job(name)))
        .collect();
    let mut set = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };
    set(
        "prophunt.solve.max_s",
        tally
            .maxima
            .get("prophunt.solve.max_s")
            .copied()
            .unwrap_or(0.0),
    );
    set(
        "prophunt.sample.useful_frac",
        per("prophunt.sample.found", "prophunt.sample.attempts"),
    );
    set(
        "prophunt.verify.useful_frac",
        per("prophunt.verify.accepted", "prophunt.verify.calls"),
    );
    set("maxsat.vars", per("maxsat.vars_total", "maxsat.solved"));
    set(
        "maxsat.hard_clauses",
        per("maxsat.hard_total", "maxsat.solved"),
    );
    set("circuit.dem_build.s", per("dem_build_s", "dem_builds"));
    set(
        "circuit.dem.mechanisms",
        per("dem_mechanisms", "dem_builds"),
    );
    set("decoders.setup_s", per("decoder_setup_s", "decoder_builds"));
    set("search.round.s", per("search.round.s", "search.rounds"));
    for stage in STAGES {
        let capacity = tally.sum(&format!("stage.{stage}.capacity"));
        let idle = if capacity > 0.0 {
            1.0 - tally.sum(&format!("stage.{stage}.busy")) / capacity
        } else {
            0.0
        };
        set(&format!("runtime.{stage}.idle_frac"), idle);
    }
    for layer in LAYERS {
        let self_s = self_s.get(layer).copied().unwrap_or(0.0);
        set(&format!("self.{layer}.s"), self_s / traced_jobs);
    }
    set(
        "trace.unaccounted.s",
        self_s.get("job").copied().unwrap_or(0.0) / traced_jobs,
    );
    set("trace.overhead.s", tally.sum("overhead_s") / traced_jobs);
    set("trace.serial_job.s", serial_s);
    set(
        "trace.scaling_eff",
        serial_s / (THREADS as f64 * untraced_walls[0]),
    );
    set("trace.jobs", jobs as f64);
    let solves_total = tally.sum("prophunt.solve.calls") as usize;
    Ok(TraceReport {
        metrics,
        log,
        jobs,
        attempted: attempted + solves_total,
        failed: tally.sum("maxsat.no_model") as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_obs::TraceEvent;

    fn span(name: &str, cat: &str, id: u64, parent: u64, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: cat.into(),
            kind: TraceKind::Span,
            tid: 0,
            id,
            parent,
            ts_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let log = TraceLog {
            events: vec![
                span("job.ler", "job", 1, 0, 0, 100),
                // Overlapping children on two lanes cover 10..60 once.
                span("decoders.decode", "decoders", 2, 1, 10, 30),
                span("circuit.sample", "circuit", 3, 1, 20, 40),
                // A child sticking out of its parent only counts inside it.
                span("gf2.transpose", "gf2", 4, 1, 90, 20),
            ],
            dropped: 0,
        };
        let self_s = self_times(&log);
        let ns = |cat: &str| (self_s[cat] * 1e9).round() as u64;
        assert_eq!(ns("job"), 100 - 50 - 10);
        assert_eq!(ns("decoders"), 30);
        assert_eq!(ns("circuit"), 40);
        assert_eq!(ns("gf2"), 20);
    }

    #[test]
    fn a_replay_on_another_seed_stream_is_told_apart() {
        let workload = Workload::OptimizeGb36;
        let mut prepared = prepare(workload, THREADS, 1).unwrap();
        let spec = prepared.spec.clone();
        let job = make_job(workload, &spec, &Profile::tiny(), 5);
        let expected = Replayed::of(&run_job(&mut prepared.session, &job).unwrap());
        let mut tally = Tally::default();
        let same = replay_job(&mut prepared, &job, 5, None, &mut tally).unwrap();
        assert_eq!(same, expected);
        let other = replay_job(&mut prepared, &job, 6, None, &mut tally).unwrap();
        assert_ne!(
            other, expected,
            "a different seed stream must not pass as a replay"
        );
    }
}
