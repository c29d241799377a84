//! The four workloads: inputs derived from the run seed, one
//! `prophunt_api::Session` job per unit of work, the output checks, and the
//! fixed-size quality run that scores each workload's output schedule.

use prophunt_api::{
    ApiError, BasisSelection, Engine, Event, ExperimentSpec, LerJob, LerOutcome, NoiseSpec,
    OptimizeJob, OptimizeOutcome, ScheduleSource, SearchJob, SearchOutcome, Session, ShotBudget,
};
use prophunt_circuit::{DetectorErrorModel, ScheduleSpec};
use prophunt_decoders::{Decoder, LogicalErrorEstimate};
use prophunt_gf2::transpose_lane_words;
use prophunt_qec::product::generalized_bicycle;
use prophunt_qec::CssCode;
use prophunt_runtime::{RuntimeConfig, SeedStream};
use std::time::{Duration, Instant};

/// Worker threads of every timed job: the benchmark box has two cores.
pub const THREADS: usize = 2;
/// Deterministic chunk size of every job.
pub const CHUNK_SIZE: usize = 64;
/// Minimum length of one set-up rep, in seconds.
const SETUP_REP_S: f64 = 0.3;

/// Labels of the benchmark's own seed streams, derived from the run seed.
mod label {
    pub const JOB: u64 = 1;
    pub const QUALITY: u64 = 2;
    pub const CHECK: u64 = 3;
}

/// The seed of job `index` of a run with seed `run_seed` (job 0 is the
/// warm-up job).
pub fn job_seed(run_seed: u64, index: usize) -> u64 {
    SeedStream::new(run_seed)
        .substream(label::JOB)
        .seed_for(index as u64)
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PropHunt optimization of the `gb_36_2` coloration schedule.
    OptimizeGb36,
    /// Portfolio search on `surface_d5` from its coloration schedule.
    SearchSurfaceD5,
    /// BP+OSD logical-error-rate estimation on `gb_36_2`.
    LerGb36,
    /// Union-find logical-error-rate estimation on `surface_d5`.
    LerSurfaceD5,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OptimizeGb36,
        Workload::SearchSurfaceD5,
        Workload::LerGb36,
        Workload::LerSurfaceD5,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OptimizeGb36 => "optimize_gb36",
            Workload::SearchSurfaceD5 => "search_surface_d5",
            Workload::LerGb36 => "ler_gb36",
            Workload::LerSurfaceD5 => "ler_surface_d5",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's jobs are logical-error-rate estimations.
    pub fn is_ler(self) -> bool {
        matches!(self, Workload::LerGb36 | Workload::LerSurfaceD5)
    }

    /// The quality run's physical error rate, decoder and shots per basis:
    /// union-find at p = 3e-3 (the correctness setting of the repository's
    /// roadmap) on `surface_d5`; BP+OSD on `gb_36_2`, at a p high enough that
    /// a thousand shots give a hundred failures.
    fn quality_setting(self, profile: &Profile) -> (f64, &'static str, usize) {
        match self {
            Workload::OptimizeGb36 | Workload::LerGb36 => {
                (1.2e-2, "bposd", profile.quality_gb36_shots)
            }
            Workload::SearchSurfaceD5 | Workload::LerSurfaceD5 => {
                (3e-3, "unionfind", profile.quality_surface_shots)
            }
        }
    }
}

/// The sizes of a workload's jobs: [`Profile::full`] is what the benchmark
/// measures, [`Profile::tiny`] runs every path in seconds for the tests.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Optimizer iterations per optimize job (alternating Z, X).
    pub optimize_iterations: usize,
    /// Subgraph samples per optimizer iteration.
    pub optimize_samples: usize,
    /// Distinct ambiguous subgraphs solved per optimizer iteration.
    pub optimize_subgraphs: usize,
    /// MaxSAT budget per solve (a deterministic conflict budget).
    pub optimize_budget: Duration,
    /// Portfolio rounds per search job.
    pub search_rounds: usize,
    /// Proposals per instance per search round.
    pub search_proposals: usize,
    /// MaxSAT-arm subgraph samples per search round.
    pub search_samples: usize,
    /// Shots per basis of one `ler_gb36` job.
    pub ler_gb36_shots: usize,
    /// Shots per basis of one `ler_surface_d5` job.
    pub ler_surface_shots: usize,
    /// Shots per basis of a `gb_36_2` quality run.
    pub quality_gb36_shots: usize,
    /// Shots per basis of a `surface_d5` quality run.
    pub quality_surface_shots: usize,
    /// Quality runs per run: they score the output schedules of the warm-up
    /// job and the first timed jobs (an estimation job's output is its own
    /// schedule). `best_failures` is their median.
    pub quality_runs: usize,
    /// Timed jobs a run makes even when `--seconds` has already passed.
    pub min_jobs: usize,
    /// Set-up reps a run times; see [`run_untraced`].
    pub setup_reps: usize,
}

impl Profile {
    /// The measured profile.
    pub fn full() -> Profile {
        Profile {
            optimize_iterations: 1,
            optimize_samples: 40,
            optimize_subgraphs: 6,
            optimize_budget: Duration::from_secs(20),
            search_rounds: 1,
            search_proposals: 24,
            search_samples: 20,
            ler_gb36_shots: 1024,
            ler_surface_shots: 100_000,
            quality_gb36_shots: 512,
            quality_surface_shots: 100_000,
            quality_runs: 5,
            min_jobs: 5,
            setup_reps: 5,
        }
    }

    /// A profile that runs every workload path in seconds.
    pub fn tiny() -> Profile {
        Profile {
            optimize_iterations: 2,
            optimize_samples: 6,
            optimize_subgraphs: 1,
            optimize_budget: Duration::from_millis(200),
            search_rounds: 2,
            search_proposals: 4,
            search_samples: 4,
            ler_gb36_shots: 64,
            ler_surface_shots: 512,
            quality_gb36_shots: 64,
            quality_surface_shots: 512,
            quality_runs: 2,
            min_jobs: 1,
            setup_reps: 1,
        }
    }
}

/// The `[[36, 2]]` generalized bicycle code.
pub fn gb36() -> CssCode {
    generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2")
}

/// The experiment a workload's jobs run on.
///
/// # Errors
///
/// Returns the [`ApiError`] of an invalid spec (a bug in this table).
pub fn spec(workload: Workload) -> Result<ExperimentSpec, ApiError> {
    let builder = ExperimentSpec::builder().noise(NoiseSpec::uniform(1e-3));
    match workload {
        Workload::OptimizeGb36 => builder.code(gb36()).rounds(3),
        Workload::SearchSurfaceD5 => builder.code_family("surface:5")?.rounds(5),
        Workload::LerGb36 => builder
            .code(gb36())
            .noise(NoiseSpec::uniform(2e-3))
            .rounds(3)
            .decoder("bposd")
            .engine(Engine::Frames)
            .basis(BasisSelection::Both),
        Workload::LerSurfaceD5 => builder
            .code_family("surface:5")?
            .schedule(ScheduleSource::HandDesigned)
            .rounds(5)
            .decoder("unionfind")
            .engine(Engine::Frames)
            .basis(BasisSelection::Both),
    }
    .build()
}

/// One unit of work.
#[derive(Debug, Clone)]
pub enum Job {
    /// An optimization job.
    Optimize(OptimizeJob),
    /// A portfolio-search job.
    Search(SearchJob),
    /// A logical-error-rate job.
    Ler(LerJob),
}

/// The job of `workload` with seed `seed`.
pub fn make_job(workload: Workload, spec: &ExperimentSpec, profile: &Profile, seed: u64) -> Job {
    let spec = spec.clone();
    match workload {
        Workload::OptimizeGb36 => {
            let mut job = OptimizeJob::new(spec)
                .with_iterations(profile.optimize_iterations)
                .with_samples(profile.optimize_samples)
                .with_maxsat_budget(profile.optimize_budget)
                .with_seed(seed);
            job.max_subgraphs_per_iteration = profile.optimize_subgraphs;
            Job::Optimize(job)
        }
        Workload::SearchSurfaceD5 => Job::Search(
            SearchJob::new(spec)
                .with_rounds(profile.search_rounds)
                .with_proposals(profile.search_proposals)
                .with_samples(profile.search_samples)
                .with_seed(seed),
        ),
        Workload::LerGb36 | Workload::LerSurfaceD5 => {
            let shots = if workload == Workload::LerGb36 {
                profile.ler_gb36_shots
            } else {
                profile.ler_surface_shots
            };
            Job::Ler(
                LerJob::new(spec)
                    .with_budget(ShotBudget::fixed(shots))
                    .with_seed(seed),
            )
        }
    }
}

/// What one job returned.
#[derive(Debug, Clone)]
pub enum Output {
    /// An optimization outcome.
    Optimize(OptimizeOutcome),
    /// A search outcome.
    Search(SearchOutcome),
    /// An estimation outcome with its per-basis, per-chunk failure counts
    /// (rebuilt from the job's cumulative `ShotChunk` events).
    Ler {
        /// The outcome.
        outcome: LerOutcome,
        /// `chunk_failures[basis][chunk]`.
        chunk_failures: Vec<Vec<usize>>,
    },
}

impl Output {
    /// The schedule the job produced (or, for an estimation, evaluated).
    pub fn schedule<'a>(&'a self, spec: &'a ExperimentSpec) -> &'a ScheduleSpec {
        match self {
            Output::Optimize(outcome) => &outcome.result.final_schedule,
            Output::Search(outcome) => &outcome.result.best.schedule,
            Output::Ler { .. } => spec.schedule(),
        }
    }
}

/// Runs one job through the session.
///
/// # Errors
///
/// Returns the job's [`ApiError`].
pub fn run_job(session: &mut Session, job: &Job) -> Result<Output, ApiError> {
    match job {
        Job::Optimize(job) => session.run_optimize_quiet(job).map(Output::Optimize),
        Job::Search(job) => session.run_search_quiet(job).map(Output::Search),
        Job::Ler(job) => {
            let mut chunk_failures: Vec<Vec<usize>> = Vec::new();
            let mut previous = 0;
            let outcome = session.run_ler(job, |event| {
                if let Event::ShotChunk {
                    chunk, failures, ..
                } = *event
                {
                    if chunk == 0 {
                        chunk_failures.push(Vec::new());
                        previous = 0;
                    }
                    if let Some(basis) = chunk_failures.last_mut() {
                        basis.push(failures - previous);
                    }
                    previous = failures;
                }
            })?;
            Ok(Output::Ler {
                outcome,
                chunk_failures,
            })
        }
    }
}

/// A session with the workload's experiment built, plus the spec.
pub struct Prepared {
    /// The session jobs run in.
    pub session: Session,
    /// The workload's experiment.
    pub spec: ExperimentSpec,
}

/// Set-up: a session at `threads` threads, the workload's spec (code
/// construction and schedule validation) and, for estimation workloads, the
/// experiment, DEM and decoder of every basis.
///
/// # Errors
///
/// Returns the [`ApiError`] of a failed build.
pub fn prepare(workload: Workload, threads: usize, seed: u64) -> Result<Prepared, ApiError> {
    let mut session = Session::new(RuntimeConfig::new(threads, CHUNK_SIZE, seed));
    let spec = spec(workload)?;
    if workload.is_ler() {
        for &basis in spec.basis().bases() {
            session.dem(&spec, basis)?;
            session.decoder(&spec, basis)?;
        }
    }
    Ok(Prepared { session, spec })
}

/// Failures among `shots` shots of chunk seed `chunk_seed`, sampled exactly as
/// the frames engine samples them but decoded shot by shot with
/// [`Decoder::decode`] — the oracle the batch pipeline must agree with.
pub fn oracle_chunk_failures(
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    chunk_seed: u64,
    shots: usize,
) -> usize {
    let mut sampler = dem.sampler(chunk_seed);
    let mut det_frames = vec![0u64; dem.num_detectors()];
    let mut obs_frames = vec![0u64; dem.num_observables()];
    let mut failures = 0;
    let mut remaining = shots;
    while remaining > 0 {
        let lanes = remaining.min(64);
        sampler.sample_frames(lanes, &mut det_frames, &mut obs_frames);
        let detectors = transpose_lane_words(&det_frames, lanes);
        let observables = transpose_lane_words(&obs_frames, lanes);
        failures += detectors
            .iter()
            .zip(&observables)
            .filter(|(d, o)| decoder.decode(d) != **o)
            .count();
        remaining -= lanes;
    }
    failures
}

/// Checks one job's output and returns every mismatch found.
///
/// Optimize and search schedules must pass `validate_for_code` and match
/// their reported depth. An estimation must have run its whole budget, and
/// one seed-chosen chunk per basis must fail exactly as often under the
/// per-shot decode oracle.
///
/// # Errors
///
/// Returns the [`ApiError`] of a failed DEM or decoder lookup.
pub fn check_output(
    session: &mut Session,
    spec: &ExperimentSpec,
    job: &Job,
    output: &Output,
) -> Result<Vec<String>, ApiError> {
    let mut problems = Vec::new();
    let code = spec.code();
    match (job, output) {
        (Job::Optimize(_), Output::Optimize(outcome)) => {
            let schedule = &outcome.result.final_schedule;
            if let Err(e) = schedule.validate_for_code(code) {
                problems.push(format!("optimized schedule is invalid: {e}"));
            } else if outcome.result.records.last().map(|r| r.depth) != schedule.depth().ok() {
                problems.push("optimized schedule depth differs from its record".into());
            }
        }
        (Job::Search(_), Output::Search(outcome)) => {
            let best = &outcome.result.best;
            if let Err(e) = best.schedule.validate_for_code(code) {
                problems.push(format!("searched schedule is invalid: {e}"));
            } else if best.schedule.depth().ok() != Some(best.depth) {
                problems.push("searched schedule depth differs from its claim".into());
            }
        }
        (
            Job::Ler(job),
            Output::Ler {
                outcome,
                chunk_failures,
            },
        ) => {
            let shots = job.budget.max_shots();
            let bases = spec.basis().bases();
            if chunk_failures.len() != bases.len() {
                problems.push("estimation reported the wrong number of bases".into());
                return Ok(problems);
            }
            let chunks = shots.div_ceil(CHUNK_SIZE);
            let pick = SeedStream::new(outcome.seed).substream(label::CHECK);
            for (b, (&basis, per_basis)) in bases.iter().zip(&outcome.per_basis).enumerate() {
                if per_basis.estimate.shots != shots || chunk_failures[b].len() != chunks {
                    problems.push(format!("{basis:?} basis did not run its {shots} shots"));
                    continue;
                }
                if chunk_failures[b].iter().sum::<usize>() != per_basis.estimate.failures {
                    problems.push(format!("{basis:?} chunk failures do not sum to the total"));
                }
                let chunk = (pick.seed_for(b as u64) % chunks as u64) as usize;
                let chunk_shots = CHUNK_SIZE.min(shots - chunk * CHUNK_SIZE);
                let dem = session.dem(spec, basis)?;
                let decoder = session.decoder(spec, basis)?;
                let chunk_seed = SeedStream::new(outcome.seed).seed_for(chunk as u64);
                let oracle = oracle_chunk_failures(&dem, decoder.as_ref(), chunk_seed, chunk_shots);
                if oracle != chunk_failures[b][chunk] {
                    problems.push(format!(
                        "{basis:?} chunk {chunk}: batch pipeline failed {} shots, per-shot decode {oracle}",
                        chunk_failures[b][chunk]
                    ));
                }
            }
        }
        _ => problems.push("job and output kinds differ".into()),
    }
    Ok(problems)
}

/// Failures of the warm-up job (job 0) and of the first quality run at run
/// seed 0 under [`Profile::full`], pinned so that a change in results is
/// caught even when the batch pipeline and the oracle agree with each other.
pub fn pinned_failures(workload: Workload) -> Option<(usize, usize)> {
    match workload {
        Workload::LerGb36 => Some((3, 134)),
        Workload::LerSurfaceD5 => Some((69, 874)),
        Workload::OptimizeGb36 | Workload::SearchSurfaceD5 => None,
    }
}

/// The quality run of a workload's output schedule: a fixed-size frames-engine
/// estimation over both bases, with the workload's rounds and the noise and
/// decoder of `Workload::quality_setting`.
///
/// # Errors
///
/// Returns the [`ApiError`] of an invalid schedule or a failed build.
pub fn quality_spec(
    workload: Workload,
    profile: &Profile,
    spec: &ExperimentSpec,
    schedule: &ScheduleSpec,
) -> Result<ExperimentSpec, ApiError> {
    let (p, decoder, _) = workload.quality_setting(profile);
    ExperimentSpec::builder()
        .code(spec.code().clone())
        .schedule(ScheduleSource::Explicit(schedule.clone()))
        .noise(NoiseSpec::uniform(p))
        .decoder(decoder)
        .rounds(spec.rounds())
        .basis(BasisSelection::Both)
        .engine(Engine::Frames)
        .build()
}

/// Result of a quality run.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Shots and failures over both bases.
    pub estimate: LogicalErrorEstimate,
    /// Wall time of the estimation, DEM and decoder builds excluded.
    pub wall: Duration,
}

/// Runs the quality estimation of `schedule`; see [`quality_spec`].
///
/// # Errors
///
/// Returns the [`ApiError`] of an invalid schedule or a failed build.
pub fn quality_run(
    session: &mut Session,
    workload: Workload,
    profile: &Profile,
    spec: &ExperimentSpec,
    schedule: &ScheduleSpec,
    seed: u64,
) -> Result<Quality, ApiError> {
    let qspec = quality_spec(workload, profile, spec, schedule)?;
    for &basis in qspec.basis().bases() {
        session.decoder(&qspec, basis)?;
        // The first sampler of a model builds its sampling tables; keep that
        // out of the timed estimation.
        session.dem(&qspec, basis)?.sampler(0);
    }
    let (_, _, shots) = workload.quality_setting(profile);
    let job = LerJob::new(qspec)
        .with_budget(ShotBudget::fixed(shots))
        .with_seed(seed);
    let start = Instant::now();
    let outcome = session.run_ler_quiet(&job)?;
    Ok(Quality {
        estimate: outcome.combined,
        wall: start.elapsed(),
    })
}

/// Everything an untraced run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Mean set-up time of each rep.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed job.
    pub job_s: Vec<f64>,
    /// Shots per second of each timed estimation job (empty otherwise).
    pub job_shots_per_s: Vec<f64>,
    /// The quality runs of the first jobs' output schedules.
    pub quality: Vec<Quality>,
    /// Failures of the warm-up job, for estimation workloads.
    pub warmup_failures: Option<usize>,
    /// Operations attempted: jobs, output checks and quality runs.
    pub attempted: usize,
    /// Operations that failed or whose output check found a mismatch.
    pub failed: usize,
    /// A description of every failure.
    pub problems: Vec<String>,
}

impl RunReport {
    fn new() -> RunReport {
        RunReport {
            setup_s: Vec::new(),
            job_s: Vec::new(),
            job_shots_per_s: Vec::new(),
            quality: Vec::new(),
            warmup_failures: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Runs and checks one job, returning its output when it succeeded.
    fn job(
        &mut self,
        prepared: &mut Prepared,
        job: &Job,
        timed: bool,
    ) -> Result<Option<Output>, ApiError> {
        let start = Instant::now();
        let result = run_job(&mut prepared.session, job);
        let wall = start.elapsed().as_secs_f64();
        let output = match result {
            Ok(output) => output,
            Err(e) => {
                self.record(vec![format!("job failed: {e}")]);
                return Ok(None);
            }
        };
        if timed {
            self.job_s.push(wall);
            if let Output::Ler { outcome, .. } = &output {
                self.job_shots_per_s
                    .push(outcome.combined.shots as f64 / wall);
            }
        }
        let problems = check_output(&mut prepared.session, &prepared.spec, job, &output)?;
        self.record(problems);
        Ok(Some(output))
    }
}

/// Times `profile.setup_reps` reps of set-ups, then runs one warm-up job,
/// then timed jobs until `seconds` have passed (and at least
/// `profile.min_jobs`), checking every output, and finally the quality runs
/// of the first jobs' output schedules.
///
/// # Errors
///
/// Returns the [`ApiError`] of a failed set-up or DEM/decoder lookup; job
/// errors are counted as failures instead.
pub fn run_untraced(
    workload: Workload,
    profile: &Profile,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, ApiError> {
    let mut report = RunReport::new();
    // Set-up takes from 0.1 ms (optimize, search) to tens of ms (LER), and
    // the box alternates between fast and slow stretches of about half a
    // second. So one rep repeats set-up for at least `SETUP_REP_S` and
    // records the mean set-up time, and setup_s is the median rep.
    let mut prepared = None;
    while report.setup_s.len() < profile.setup_reps {
        let rep_start = Instant::now();
        let (mut busy, mut count) = (0.0, 0u32);
        while count == 0 || rep_start.elapsed().as_secs_f64() < SETUP_REP_S {
            let start = Instant::now();
            let next = prepare(workload, THREADS, seed)?;
            busy += start.elapsed().as_secs_f64();
            count += 1;
            // Dropping the previous set-up is not part of the next one.
            prepared = Some(next);
        }
        report.setup_s.push(busy / f64::from(count));
    }
    let mut prepared = prepared.expect("at least one set-up ran");
    let spec = prepared.spec.clone();
    let mut scored: Vec<ScheduleSpec> = Vec::new();
    let warmup = make_job(workload, &spec, profile, job_seed(seed, 0));
    let warmup_output = report.job(&mut prepared, &warmup, false)?;
    if let Some(Output::Ler { outcome, .. }) = &warmup_output {
        report.warmup_failures = Some(outcome.combined.failures);
    }
    scored.extend(warmup_output.map(|o| o.schedule(&spec).clone()));
    let timed_start = Instant::now();
    let mut index = 1;
    while index <= profile.min_jobs || timed_start.elapsed().as_secs_f64() < seconds {
        let job = make_job(workload, &spec, profile, job_seed(seed, index));
        let output = report.job(&mut prepared, &job, true)?;
        if scored.len() < profile.quality_runs {
            scored.extend(output.map(|o| o.schedule(&spec).clone()));
        }
        index += 1;
    }
    for (k, schedule) in scored.iter().enumerate() {
        let seed = SeedStream::new(seed)
            .substream(label::QUALITY)
            .seed_for(k as u64);
        match quality_run(
            &mut prepared.session,
            workload,
            profile,
            &spec,
            schedule,
            seed,
        ) {
            Ok(quality) => {
                report.quality.push(quality);
                report.record(Vec::new());
            }
            Err(e) => report.record(vec![format!("quality run failed: {e}")]),
        }
    }
    if let (Some(pinned), 0) = (pinned_failures(workload), seed) {
        let seen = (
            report.warmup_failures,
            report.quality.first().map(|q| q.estimate.failures),
        );
        report.record(if seen == (Some(pinned.0), Some(pinned.1)) {
            Vec::new()
        } else {
            vec![format!(
                "seed 0 failures (warm-up, quality) are {seen:?}, pinned {pinned:?}"
            )]
        });
    }
    Ok(report)
}
