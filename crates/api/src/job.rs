//! Typed jobs ([`OptimizeJob`], [`LerJob`]), the unified [`Event`] stream and job
//! outcomes.

use crate::noise::NoiseSpec;
use crate::spec::Engine;
use crate::spec::ExperimentSpec;
use prophunt::{IterationRecord, OptimizationResult, PropHuntConfig};
use prophunt_circuit::MemoryBasis;
use prophunt_decoders::{LerStopReason, LogicalErrorEstimate, ShotBudget};
use prophunt_formats::ReportRecord;
use std::time::Duration;

/// Which kind of job emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A [`OptimizeJob`].
    Optimize,
    /// A [`LerJob`].
    Ler,
    /// A [`crate::SearchJob`].
    Search,
}

/// Why a job stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The optimizer found no further ambiguous subgraphs.
    Converged {
        /// Iterations recorded when the run converged.
        iterations: usize,
    },
    /// The optimizer used its full iteration budget.
    IterationLimit {
        /// Iterations recorded.
        iterations: usize,
    },
    /// An estimation run sampled its whole (maximum) shot budget.
    ShotsExhausted,
    /// A [`ShotBudget::MaxFailures`] rule stopped the run early.
    MaxFailuresReached,
    /// A [`ShotBudget::TargetRse`] rule stopped the run early.
    TargetRseReached,
    /// A portfolio search ran its full round budget.
    RoundLimit {
        /// Rounds recorded.
        rounds: usize,
    },
}

impl StopReason {
    /// A stable machine-readable name (stored in report records).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Converged { .. } => "converged",
            StopReason::IterationLimit { .. } => "iteration_limit",
            StopReason::ShotsExhausted => "shots_exhausted",
            StopReason::MaxFailuresReached => "max_failures",
            StopReason::TargetRseReached => "target_rse",
            StopReason::RoundLimit { .. } => "round_limit",
        }
    }

    /// Whether the job ended before exhausting its budget.
    pub fn stopped_early(&self) -> bool {
        matches!(
            self,
            StopReason::Converged { .. }
                | StopReason::MaxFailuresReached
                | StopReason::TargetRseReached
        )
    }
}

impl From<LerStopReason> for StopReason {
    fn from(reason: LerStopReason) -> Self {
        match reason {
            LerStopReason::ShotsExhausted => StopReason::ShotsExhausted,
            LerStopReason::MaxFailuresReached => StopReason::MaxFailuresReached,
            LerStopReason::TargetRseReached => StopReason::TargetRseReached,
        }
    }
}

/// One event of a job's progress stream — the single observer channel replacing
/// the optimizer's bespoke iteration closure and the CLI's hand-rolled streaming.
///
/// Events arrive in a deterministic order: the stream is a pure function of the
/// job and the session's `(seed, chunk_size)`, never of the thread count.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job started running.
    JobStarted {
        /// The kind of job.
        kind: JobKind,
        /// The job's label (for display/logging).
        label: String,
    },
    /// An optimization iteration completed.
    Iteration(IterationRecord),
    /// An estimation chunk completed; counts are cumulative for the current basis.
    ShotChunk {
        /// Basis of the running memory experiment.
        basis: MemoryBasis,
        /// Index of the completed chunk (0-based).
        chunk: usize,
        /// Cumulative shots in this basis.
        shots: usize,
        /// Cumulative failures in this basis.
        failures: usize,
    },
    /// A portfolio-search round completed; the fields describe the incumbent
    /// after the round, with full per-strategy provenance.
    Incumbent {
        /// Round number (0-based).
        round: usize,
        /// Name of the strategy that produced the incumbent
        /// ([`prophunt_search::StrategyKind::name`], or `"initial"` while the
        /// starting schedule still leads).
        strategy: String,
        /// Portfolio instance slot that produced the incumbent.
        instance: usize,
        /// CNOT depth of the incumbent.
        depth: usize,
        /// Whether this round strictly improved the incumbent.
        improved: bool,
        /// The incumbent schedule itself (what `prophunt search` streams as
        /// `incumbent` report records).
        schedule: prophunt_circuit::ScheduleSpec,
    },
    /// The job finished.
    JobFinished {
        /// Why it stopped.
        stop: StopReason,
    },
}

/// A logical-error-rate estimation job: one [`ExperimentSpec`] run under a
/// [`ShotBudget`].
#[derive(Debug, Clone)]
pub struct LerJob {
    /// The experiment to estimate.
    pub spec: ExperimentSpec,
    /// The shot budget (default: fixed 2000 shots).
    pub budget: ShotBudget,
    /// Seed override; `None` uses the session runtime's seed.
    pub seed: Option<u64>,
    /// Label used in events and report records (default: the schedule label).
    pub label: Option<String>,
}

impl LerJob {
    /// Creates a job with the default budget (fixed 2000 shots).
    pub fn new(spec: ExperimentSpec) -> LerJob {
        LerJob {
            spec,
            budget: ShotBudget::fixed(2000),
            seed: None,
            label: None,
        }
    }

    /// Sets the shot budget.
    pub fn with_budget(mut self, budget: ShotBudget) -> LerJob {
        self.budget = budget;
        self
    }

    /// Overrides the seed (default: the session runtime's seed).
    pub fn with_seed(mut self, seed: u64) -> LerJob {
        self.seed = Some(seed);
        self
    }

    /// Sets the record/event label.
    pub fn with_label(mut self, label: impl Into<String>) -> LerJob {
        self.label = Some(label.into());
        self
    }

    /// The effective label.
    pub fn label(&self) -> &str {
        self.label
            .as_deref()
            .unwrap_or_else(|| self.spec.schedule_label())
    }
}

/// An optimization job: run the PropHunt loop on an [`ExperimentSpec`]'s code,
/// schedule and noise model.
#[derive(Debug, Clone)]
pub struct OptimizeJob {
    /// The experiment whose schedule is optimized.
    pub spec: ExperimentSpec,
    /// Maximum optimization iterations.
    pub iterations: usize,
    /// Subgraph-expansion samples per iteration.
    pub samples_per_iteration: usize,
    /// Budget per MaxSAT solve, enforced as a deterministic conflict budget
    /// (converted at `prophunt_maxsat::maxsat::CONFLICTS_PER_BUDGET_SECOND`).
    pub maxsat_budget: Duration,
    /// Maximum subgraph-expansion steps before a sample gives up.
    pub max_subgraph_steps: usize,
    /// Maximum distinct ambiguous subgraphs processed per iteration.
    pub max_subgraphs_per_iteration: usize,
    /// Seed override; `None` uses the session runtime's seed.
    pub seed: Option<u64>,
    /// Label used in events (default: the code name).
    pub label: Option<String>,
}

impl OptimizeJob {
    /// Creates a job with the effort numbers of [`PropHuntConfig::quick`]
    /// (4 iterations, 40 samples).
    pub fn new(spec: ExperimentSpec) -> OptimizeJob {
        let quick = PropHuntConfig::quick(spec.rounds());
        OptimizeJob {
            spec,
            iterations: quick.iterations,
            samples_per_iteration: quick.samples_per_iteration,
            maxsat_budget: quick.maxsat_budget,
            max_subgraph_steps: quick.max_subgraph_steps,
            max_subgraphs_per_iteration: quick.max_subgraphs_per_iteration,
            seed: None,
            label: None,
        }
    }

    /// Switches to the effort numbers of [`PropHuntConfig::paper_like`] (25
    /// iterations, 500 samples, 360 s MaxSAT budget, wider subgraph search).
    pub fn paper_profile(self) -> OptimizeJob {
        let paper = PropHuntConfig::paper_like(self.spec.rounds());
        OptimizeJob {
            iterations: paper.iterations,
            samples_per_iteration: paper.samples_per_iteration,
            maxsat_budget: paper.maxsat_budget,
            max_subgraph_steps: paper.max_subgraph_steps,
            max_subgraphs_per_iteration: paper.max_subgraphs_per_iteration,
            ..self
        }
    }

    /// Sets the iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> OptimizeJob {
        self.iterations = iterations;
        self
    }

    /// Sets the per-iteration sample count.
    pub fn with_samples(mut self, samples: usize) -> OptimizeJob {
        self.samples_per_iteration = samples;
        self
    }

    /// Sets the MaxSAT budget (enforced as a deterministic conflict budget;
    /// see `prophunt_maxsat::MaxSatSolver::solve`).
    pub fn with_maxsat_budget(mut self, budget: Duration) -> OptimizeJob {
        self.maxsat_budget = budget;
        self
    }

    /// Overrides the seed (default: the session runtime's seed).
    pub fn with_seed(mut self, seed: u64) -> OptimizeJob {
        self.seed = Some(seed);
        self
    }

    /// Sets the event label.
    pub fn with_label(mut self, label: impl Into<String>) -> OptimizeJob {
        self.label = Some(label.into());
        self
    }

    /// The effective label.
    pub fn label(&self) -> &str {
        self.label
            .as_deref()
            .unwrap_or_else(|| self.spec.code().name())
    }
}

/// One basis' share of a [`LerOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasisEstimate {
    /// The memory basis.
    pub basis: MemoryBasis,
    /// The estimate for that basis.
    pub estimate: LogicalErrorEstimate,
    /// Why that basis' run stopped.
    pub stop: StopReason,
}

/// The result of a [`LerJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct LerOutcome {
    /// Per-basis estimates in run order.
    pub per_basis: Vec<BasisEstimate>,
    /// The combined estimate (sum of shots and failures across bases).
    pub combined: LogicalErrorEstimate,
    /// The overall stop reason: the first adaptive stop across bases, else
    /// [`StopReason::ShotsExhausted`].
    pub stop: StopReason,
    /// The seed the estimate was computed with (reproduces the counts with
    /// [`LerOutcome::chunk_size`] at any thread count).
    pub seed: u64,
    /// The deterministic chunk size.
    pub chunk_size: usize,
    /// Decoder name.
    pub decoder: String,
    /// The noise specification; `None` for models loaded from a pre-built `.dem`
    /// file, whose error distribution is baked in (recorded as an empty noise
    /// string, per the report-v2 contract).
    pub noise: Option<NoiseSpec>,
    /// Physical error rate (from the noise spec).
    pub p: f64,
    /// Idle error strength (from the noise spec).
    pub idle: f64,
    /// Wall-clock duration of the whole job.
    pub wall: Duration,
}

impl LerOutcome {
    /// Decoding throughput over the whole job (0 when the duration was not
    /// measurable).
    pub fn shots_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.combined.shots as f64 / secs
    }

    /// Builds the v2 `ler` report record for this outcome.
    pub fn to_record(&self, label: impl Into<String>) -> ReportRecord {
        ReportRecord::Ler {
            label: label.into(),
            p: self.p,
            idle: self.idle,
            shots: self.combined.shots as u64,
            failures: self.combined.failures as u64,
            seed: self.seed,
            chunk_size: self.chunk_size as u64,
            decoder: self.decoder.clone(),
            noise: self.noise.map(|n| n.to_string()).unwrap_or_default(),
            stop: self.stop.as_str().to_string(),
            engine: Engine::Frames.as_str().to_string(),
            wall_s: self.wall.as_secs_f64(),
            shots_per_sec: self.shots_per_sec(),
        }
    }
}

/// The result of an [`OptimizeJob`].
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The optimizer's full result (records, schedules).
    pub result: OptimizationResult,
    /// Why the loop stopped.
    pub stop: StopReason,
    /// The seed the run was computed with.
    pub seed: u64,
    /// Wall-clock duration of the job.
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reasons_have_stable_names() {
        assert_eq!(
            StopReason::Converged { iterations: 2 }.as_str(),
            "converged"
        );
        assert_eq!(
            StopReason::IterationLimit { iterations: 4 }.as_str(),
            "iteration_limit"
        );
        assert_eq!(StopReason::ShotsExhausted.as_str(), "shots_exhausted");
        assert_eq!(
            StopReason::from(LerStopReason::MaxFailuresReached).as_str(),
            "max_failures"
        );
        assert_eq!(
            StopReason::from(LerStopReason::TargetRseReached).as_str(),
            "target_rse"
        );
        assert!(StopReason::TargetRseReached.stopped_early());
        assert!(!StopReason::ShotsExhausted.stopped_early());
    }

    #[test]
    fn optimize_job_profiles_are_the_optimizer_profiles() {
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        let effort = |job: &OptimizeJob| {
            (
                job.iterations,
                job.samples_per_iteration,
                job.maxsat_budget,
                job.max_subgraph_steps,
                job.max_subgraphs_per_iteration,
            )
        };
        let quick = OptimizeJob::new(spec).with_seed(5);
        assert_eq!(effort(&quick), (4, 40, Duration::from_secs(20), 60, 6));
        let paper = quick.paper_profile();
        assert_eq!(effort(&paper), (25, 500, Duration::from_secs(360), 120, 24));
        assert_eq!(
            paper.seed,
            Some(5),
            "switching profile keeps the job's seed"
        );
    }

    #[test]
    fn ler_outcome_records_throughput_and_noise() {
        let outcome = LerOutcome {
            per_basis: vec![],
            combined: LogicalErrorEstimate {
                shots: 1000,
                failures: 10,
            },
            stop: StopReason::MaxFailuresReached,
            seed: 7,
            chunk_size: 64,
            decoder: "unionfind".into(),
            noise: Some(NoiseSpec::uniform(1e-3)),
            p: 1e-3,
            idle: 0.0,
            wall: Duration::from_millis(500),
        };
        assert!((outcome.shots_per_sec() - 2000.0).abs() < 1e-9);
        let record = outcome.to_record("x");
        let ReportRecord::Ler {
            decoder,
            noise,
            stop,
            engine,
            shots_per_sec,
            ..
        } = record
        else {
            panic!("expected ler record");
        };
        assert_eq!(decoder, "unionfind");
        assert_eq!(noise, "depolarizing:0.001");
        assert_eq!(stop, "max_failures");
        assert_eq!(engine, "frames");
        assert!(shots_per_sec > 0.0);
        // Zero wall-clock must not divide by zero.
        let zero = LerOutcome {
            wall: Duration::ZERO,
            ..outcome
        };
        assert_eq!(zero.shots_per_sec(), 0.0);
    }
}
