//! Shared helpers for the PropHunt benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the data behind every table and figure of the
//! paper's evaluation (see the root `README.md` for the experiment index and
//! recorded results). Per-kernel timings (model construction, subgraph sampling,
//! MaxSAT solving, decoding) come from the `perfbench/` package's per-layer
//! metrics, `frame_bench` and `tab02_maxsat`.
//!
//! Every binary reads the same environment knobs: `PROPHUNT_THREADS`,
//! `PROPHUNT_CHUNK_SIZE` and `PROPHUNT_SEED` ([`runtime_config_from_env`]), and
//! the profile switches `PROPHUNT_FULL` ([`full_profile`]) and `PROPHUNT_SMOKE`
//! ([`smoke_profile`]).
//!
//! Since the Session/Job redesign the harness is a thin layer over
//! [`prophunt_api`]: each figure binary opens one [`Session`] (so memory
//! experiments, detector error models and decoders are shared across its grid
//! points) and runs [`prophunt_api::LerJob`]s / [`prophunt_api::OptimizeJob`]s,
//! whose [`LerOutcome`]s carry the wall-clock and shots/sec throughput recorded
//! in `BENCH_*.jsonl`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use prophunt_api::{
    BasisSelection, ExperimentSpec, LerJob, LerOutcome, NoiseSpec, ScheduleSource, SearchJob,
    Session, ShotBudget, StrategyKind,
};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_decoders::LogicalErrorEstimate;
use prophunt_formats::report::ReportRecord;
use prophunt_formats::write_report;
use prophunt_qec::product::{bivariate_bicycle, generalized_bicycle};
use prophunt_qec::surface::rotated_surface_code_with_layout;
use prophunt_qec::CssCode;
use prophunt_runtime::{RuntimeConfig, SeedStream};
use std::path::PathBuf;

/// Builds the shared [`RuntimeConfig`] used by every bench binary.
///
/// Defaults to 8 worker threads, the default chunk size and seed 0; the
/// environment variables `PROPHUNT_THREADS`, `PROPHUNT_CHUNK_SIZE` and
/// `PROPHUNT_SEED` override the respective fields. Only `PROPHUNT_THREADS`
/// may change wall-clock time — results are a function of
/// `(seed, chunk_size)` alone. The base seed is mixed with each stage's
/// fixed label through [`stage_seed`], so `PROPHUNT_SEED` rotates every
/// random stream a binary draws while stages stay decorrelated.
///
/// A variable that is set but is not a non-negative integer ends the process
/// with exit code 2 and a message naming the variable and its value.
pub fn runtime_config_from_env() -> RuntimeConfig {
    let env_knob = |name: &str| {
        let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        parse_env_knob(name, value.as_deref()).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        })
    };
    let mut config = RuntimeConfig::new(8, RuntimeConfig::DEFAULT_CHUNK_SIZE, 0);
    if let Some(threads) = env_knob("PROPHUNT_THREADS") {
        config.threads = threads as usize;
    }
    if let Some(chunk) = env_knob("PROPHUNT_CHUNK_SIZE") {
        config.chunk_size = chunk as usize;
    }
    if let Some(seed) = env_knob("PROPHUNT_SEED") {
        config.seed = seed;
    }
    config
}

/// Parses the value of the numeric environment knob `name`: `None` when the
/// variable is unset, an error naming the variable and its value when it does
/// not parse as a `u64`.
fn parse_env_knob(name: &str, value: Option<&str>) -> Result<Option<u64>, String> {
    value
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name}={v:?} is not a non-negative integer"))
        })
        .transpose()
}

/// Whether `PROPHUNT_FULL` is set (to any value): the binaries then run their
/// paper-scale profile instead of the quick one.
pub fn full_profile() -> bool {
    std::env::var("PROPHUNT_FULL").is_ok()
}

/// Whether `PROPHUNT_SMOKE` is set (to any value): `frame_bench` and
/// `schedule_eval` then trim their budget and skip their baseline writes.
pub fn smoke_profile() -> bool {
    std::env::var("PROPHUNT_SMOKE").is_ok()
}

/// Opens the one [`Session`] a bench binary shares across all of its jobs.
pub fn bench_session() -> Session {
    Session::new(runtime_config_from_env())
}

/// Derives the effective seed for one benchmark stage: the runtime's base
/// seed (e.g. `PROPHUNT_SEED`) mixed with the stage's fixed `label`.
///
/// Every figure/table binary labels its stages with small constants, so a
/// single base seed rotates all of their streams coherently while keeping the
/// stages decorrelated from each other.
pub fn stage_seed(runtime: &RuntimeConfig, label: u64) -> u64 {
    SeedStream::new(runtime.seed).substream(label).seed_for(0)
}

/// Writes one benchmark binary's data rows as `BENCH_<name>.jsonl` in the current
/// directory and returns the path.
///
/// This is the single code path through which every figure/table binary persists
/// its recorded outputs (the human-readable `println!` tables remain on stdout);
/// the files round-trip through [`prophunt_formats::parse_report`].
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be written.
pub fn write_bench_report(name: &str, records: &[ReportRecord]) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.jsonl"));
    std::fs::write(&path, write_report(records))?;
    Ok(path)
}

/// A benchmark code together with its optional hand-designed schedule.
pub struct BenchmarkCode {
    /// The code.
    pub code: CssCode,
    /// The surface layout, when the code has one (unlocks hand-designed
    /// schedules and the search portfolio's permuted-ordering restarts).
    pub layout: Option<prophunt_qec::surface::SurfaceLayout>,
    /// A hand-designed schedule, when one is known (surface codes).
    pub hand_designed: Option<ScheduleSpec>,
    /// Number of syndrome-measurement rounds used in simulations (the paper uses `d`).
    pub rounds: usize,
}

/// The benchmark suite of Table 1, with the LDPC substitutions documented in `README.md`:
/// rotated surface codes d = 3, 5, 7, 9 plus generalized-bicycle and bivariate-bicycle
/// codes standing in for the paper's LP / RQT instances.
pub fn benchmark_suite(include_large: bool) -> Vec<BenchmarkCode> {
    let mut out = Vec::new();
    let distances: &[usize] = if include_large {
        &[3, 5, 7, 9]
    } else {
        &[3, 5]
    };
    for &d in distances {
        let (code, layout) = rotated_surface_code_with_layout(d);
        let hand = ScheduleSpec::surface_hand_designed(&code, &layout);
        out.push(BenchmarkCode {
            code,
            layout: Some(layout),
            hand_designed: Some(hand),
            rounds: d.min(5),
        });
    }
    // LP-class substitute: [[18, 2]] generalized bicycle code (weight-4 stabilizers).
    out.push(BenchmarkCode {
        code: generalized_bicycle(9, &[0, 1], &[0, 3], "gb_18_2"),
        layout: None,
        hand_designed: None,
        rounds: 3,
    });
    // LP-class substitute with larger block: [[36, 2]] generalized bicycle code.
    out.push(BenchmarkCode {
        code: generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2"),
        layout: None,
        hand_designed: None,
        rounds: 3,
    });
    if include_large {
        // RQT-class substitute: the [[72, 12, 6]] bivariate bicycle code (weight-6).
        out.push(BenchmarkCode {
            code: bivariate_bicycle(
                6,
                6,
                &[(3, 0), (0, 1), (0, 2)],
                &[(0, 3), (1, 0), (2, 0)],
                "bb_72_12",
            ),
            layout: None,
            hand_designed: None,
            rounds: 3,
        });
    }
    out
}

/// Runs one combined (X + Z memory) sweep point as a [`LerJob`] through
/// `session`, seeded with [`stage_seed`]`(session runtime, stage)` — the
/// recorded outcome reproduces its failure count bit-for-bit at any thread
/// count, and carries the wall-clock/throughput fields for `BENCH_*.jsonl`.
///
/// # Panics
///
/// Panics when the schedule is invalid for the code (benchmark inputs are
/// trusted constructions).
pub fn run_ler_point(
    session: &mut Session,
    code: &CssCode,
    schedule: &ScheduleSpec,
    rounds: usize,
    noise: NoiseSpec,
    budget: ShotBudget,
    stage: u64,
) -> LerOutcome {
    let spec = ExperimentSpec::builder()
        .code(code.clone())
        .schedule(ScheduleSource::Explicit(schedule.clone()))
        .noise(noise)
        .rounds(rounds)
        .basis(BasisSelection::Both)
        .build()
        .expect("benchmark schedule must be valid for its code");
    let seed = stage_seed(session.runtime().config(), stage);
    let job = LerJob::new(spec).with_seed(seed).with_budget(budget);
    session
        .run_ler_quiet(&job)
        .expect("benchmark job must be runnable")
}

/// One row of the portfolio-vs-single-strategy schedule-search comparison
/// (`search_bench`, recorded in `BENCH_search.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchComparison {
    /// Code name.
    pub code: String,
    /// CNOT depth of the shared coloration starting schedule.
    pub initial_depth: usize,
    /// Final depth of the single-strategy MaxSAT-descent run.
    pub maxsat_depth: usize,
    /// Wall-clock seconds of the MaxSAT-descent run.
    pub maxsat_wall_s: f64,
    /// Final depth of the full-portfolio run.
    pub portfolio_depth: usize,
    /// Wall-clock seconds of the portfolio run.
    pub portfolio_wall_s: f64,
    /// Strategy that produced the portfolio's best schedule.
    pub portfolio_best_strategy: String,
}

impl SearchComparison {
    /// Builds the `search_comparison` table record for `BENCH_search.json`.
    pub fn to_record(&self) -> ReportRecord {
        ReportRecord::Table {
            name: "search_comparison".into(),
            fields: vec![
                (
                    "code".into(),
                    prophunt_formats::Json::Str(self.code.clone()),
                ),
                (
                    "initial_depth".into(),
                    prophunt_formats::Json::UInt(self.initial_depth as u64),
                ),
                (
                    "maxsat_depth".into(),
                    prophunt_formats::Json::UInt(self.maxsat_depth as u64),
                ),
                (
                    "maxsat_wall_s".into(),
                    prophunt_formats::Json::Float(self.maxsat_wall_s),
                ),
                (
                    "portfolio_depth".into(),
                    prophunt_formats::Json::UInt(self.portfolio_depth as u64),
                ),
                (
                    "portfolio_wall_s".into(),
                    prophunt_formats::Json::Float(self.portfolio_wall_s),
                ),
                (
                    "portfolio_best_strategy".into(),
                    prophunt_formats::Json::Str(self.portfolio_best_strategy.clone()),
                ),
            ],
        }
    }
}

/// Races the full strategy portfolio against single-strategy MaxSAT descent on
/// `code`, both starting from the same coloration schedule with the same
/// per-round budgets, seeded with [`stage_seed`]`(session runtime, stage)`.
///
/// The portfolio run *contains* a MaxSAT-descent arm, so with equal round
/// budgets its final depth is expected at or below the single-strategy run's —
/// the "answer quality scales with compute" claim `search_bench` records.
///
/// # Panics
///
/// Panics when the coloration schedule cannot be built or a job fails
/// (benchmark inputs are trusted constructions).
pub fn compare_search_strategies(
    session: &mut Session,
    bench: &BenchmarkCode,
    memory_rounds: usize,
    search_rounds: usize,
    samples: usize,
    stage: u64,
) -> SearchComparison {
    let builder = match &bench.layout {
        Some(layout) => {
            ExperimentSpec::builder().code_with_layout(bench.code.clone(), layout.clone())
        }
        None => ExperimentSpec::builder().code(bench.code.clone()),
    };
    let spec = builder
        .rounds(memory_rounds)
        .build()
        .expect("coloration schedules are valid for their code");
    let seed = stage_seed(session.runtime().config(), stage);
    let base = SearchJob::new(spec)
        .with_rounds(search_rounds)
        .with_samples(samples)
        .with_seed(seed);
    let maxsat = session
        .run_search_quiet(
            &base
                .clone()
                .with_strategies(vec![StrategyKind::MaxSatDescent])
                .with_portfolio_size(1),
        )
        .expect("benchmark search job must be runnable");
    let portfolio = session
        .run_search_quiet(
            &base
                .with_strategies(StrategyKind::ALL.to_vec())
                .with_portfolio_size(StrategyKind::ALL.len()),
        )
        .expect("benchmark search job must be runnable");
    SearchComparison {
        code: bench.code.name().to_string(),
        initial_depth: portfolio.result.initial_depth,
        maxsat_depth: maxsat.result.best.depth,
        maxsat_wall_s: maxsat.wall.as_secs_f64(),
        portfolio_depth: portfolio.result.best.depth,
        portfolio_wall_s: portfolio.wall.as_secs_f64(),
        portfolio_best_strategy: portfolio.result.best.strategy.to_string(),
    }
}

/// Estimates the combined (X + Z memory) logical error rate of a schedule.
pub fn combined_logical_error_rate(
    code: &CssCode,
    schedule: &ScheduleSpec,
    rounds: usize,
    p: f64,
    shots: usize,
    seed: u64,
    runtime: &RuntimeConfig,
) -> LogicalErrorEstimate {
    // `seed` acts as this call site's stage label; the runtime's base seed
    // (e.g. PROPHUNT_SEED) rotates the actual stream.
    let mut session = Session::new(*runtime);
    run_ler_point(
        &mut session,
        code,
        schedule,
        rounds,
        NoiseSpec::uniform(p),
        ShotBudget::fixed(shots),
        seed,
    )
    .combined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_parse_or_name_the_bad_variable() {
        assert_eq!(parse_env_knob("PROPHUNT_SEED", None), Ok(None));
        assert_eq!(parse_env_knob("PROPHUNT_SEED", Some("42")), Ok(Some(42)));
        for bad in ["", "four", "-1", "2.5"] {
            let message = parse_env_knob("PROPHUNT_THREADS", Some(bad)).unwrap_err();
            assert_eq!(
                message,
                format!("PROPHUNT_THREADS={bad:?} is not a non-negative integer")
            );
        }
    }

    #[test]
    fn small_suite_contains_surface_and_ldpc_codes() {
        let suite = benchmark_suite(false);
        assert!(suite.len() >= 4);
        assert!(suite.iter().any(|b| b.code.name().starts_with("surface")));
        assert!(suite.iter().any(|b| b.code.name().starts_with("gb_")));
        for bench in &suite {
            if let Some(hand) = &bench.hand_designed {
                hand.validate(&bench.code).unwrap();
            }
        }
    }

    #[test]
    fn combined_ler_is_a_probability() {
        let suite = benchmark_suite(false);
        let bench = &suite[0];
        let schedule = ScheduleSpec::coloration(&bench.code);
        let runtime = RuntimeConfig::new(2, 64, 0);
        let est = combined_logical_error_rate(&bench.code, &schedule, 2, 2e-3, 200, 1, &runtime);
        assert!(est.rate() >= 0.0 && est.rate() <= 1.0);
        assert_eq!(est.shots, 400);
    }

    #[test]
    fn ler_points_share_experiments_across_noise_and_record_throughput() {
        let suite = benchmark_suite(false);
        let bench = &suite[0];
        let schedule = ScheduleSpec::coloration(&bench.code);
        let mut session = Session::new(RuntimeConfig::new(2, 64, 0));
        let a = run_ler_point(
            &mut session,
            &bench.code,
            &schedule,
            2,
            NoiseSpec::uniform(2e-3),
            ShotBudget::fixed(128),
            1,
        );
        run_ler_point(
            &mut session,
            &bench.code,
            &schedule,
            2,
            NoiseSpec::uniform(8e-3),
            ShotBudget::fixed(128),
            1,
        );
        let snap = session.metrics();
        assert_eq!(
            snap.counter("session.cache.experiment.miss"),
            2,
            "one experiment per basis, shared across the two noise points"
        );
        assert_eq!(
            snap.counter("session.cache.dem.miss"),
            4,
            "one model per (basis, noise)"
        );
        // The recorded outcome carries the throughput fields for BENCH_*.jsonl.
        let record = a.to_record("point");
        let ReportRecord::Ler { wall_s, .. } = record else {
            panic!("expected a ler record");
        };
        assert!(wall_s >= 0.0);
    }
}
