//! The PropHunt iterative optimization loop (paper Section 5, Figure 8).
//!
//! Each iteration is an explicit pipeline of stages —
//! `build_graph → sample → solve → enumerate → verify → apply` — whose
//! parallel stages all run on the shared [`prophunt_runtime`] execution layer:
//! work is divided into thread-count-independent tasks, every task derives its
//! RNG seed from a [`prophunt_runtime::SeedStream`], and results are assembled
//! in task order, so
//! a fixed [`RuntimeConfig`] `(seed, chunk_size)` yields bit-identical
//! [`OptimizationResult`]s at any thread count.

use crate::ambiguity::{find_ambiguous_subgraph, AmbiguousSubgraph, DecodingGraph};
use crate::changes::{
    apply_verified_changes, enumerate_candidates, verify_candidate, VerifiedChange,
};
use crate::minweight::{min_weight, min_weight_logical_error, DistanceBound, MinWeightSolution};
use crate::CandidateChange;
use prophunt_circuit::{CircuitError, MemoryBasis, NoiseModel, ScheduleSpec};
use prophunt_qec::CssCode;
use prophunt_runtime::{Runtime, RuntimeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Configuration of a PropHunt optimization run.
#[derive(Debug, Clone)]
pub struct PropHuntConfig {
    /// Maximum number of optimization iterations (the paper uses 25).
    pub iterations: usize,
    /// Number of random subgraph-expansion samples per iteration (the paper uses 500).
    pub samples_per_iteration: usize,
    /// Number of syndrome-measurement rounds in the analysed memory experiment.
    pub rounds: usize,
    /// The noise model the detector error models are built with. Both profiles
    /// use [`NoiseModel::uniform_depolarizing`] at `p = 1e-3`, as in the paper.
    pub noise: NoiseModel,
    /// Budget per minimum-weight solve, denominated in `Duration` for parity
    /// with the paper (which gives MaxSAT 360 s). It is enforced as a
    /// deterministic cap on the column subsets the exact solver enumerates:
    /// the duration is converted at the fixed
    /// [`crate::minweight::SUBSETS_PER_BUDGET_SECOND`] rate, so the same budget
    /// buys the same search on every machine. A subgraph solve that reaches
    /// the cap finds nothing, and its subgraph is dropped. The whole-graph
    /// solve of [`PropHunt::effective_distance`] shares the cap; reaching it
    /// leaves a lower bound.
    pub maxsat_budget: Duration,
    /// Maximum subgraph-expansion steps before a sample gives up.
    pub max_subgraph_steps: usize,
    /// Maximum number of distinct ambiguous subgraphs processed per iteration.
    pub max_subgraphs_per_iteration: usize,
    /// Shared parallel-runtime configuration: worker-thread bound, chunk size
    /// and the base random seed. The run is a deterministic function of
    /// `(runtime.seed, runtime.chunk_size)`; `runtime.threads` affects
    /// wall-clock time only. Budget exhaustion is part of that determinism:
    /// because [`Self::maxsat_budget`] is enforced as a subset cap, a solve
    /// that reaches it drops the same subgraph everywhere.
    pub runtime: RuntimeConfig,
}

impl PropHuntConfig {
    /// A small configuration suitable for tests and examples: 4 iterations, 40
    /// samples per iteration, 20 s solve budget, single-digit wall-clock seconds
    /// on a d=3 surface code. This and [`Self::paper_like`] are the only copies
    /// of the effort profiles; the experiment API's jobs read them from here.
    pub fn quick(rounds: usize) -> Self {
        PropHuntConfig {
            iterations: 4,
            samples_per_iteration: 40,
            rounds,
            noise: NoiseModel::uniform_depolarizing(1e-3),
            maxsat_budget: Duration::from_secs(20),
            max_subgraph_steps: 60,
            max_subgraphs_per_iteration: 6,
            runtime: RuntimeConfig::new(4, 16, 0x5eed_0001),
        }
    }

    /// A configuration mirroring the paper's experiment scale (25 iterations, 500
    /// samples per iteration, 360 s solve budget). Intended for the benchmark harness.
    pub fn paper_like(rounds: usize) -> Self {
        PropHuntConfig {
            iterations: 25,
            samples_per_iteration: 500,
            rounds,
            noise: NoiseModel::uniform_depolarizing(1e-3),
            maxsat_budget: Duration::from_secs(360),
            max_subgraph_steps: 120,
            max_subgraphs_per_iteration: 24,
            runtime: RuntimeConfig::new(8, 64, 0x5eed_0001),
        }
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.runtime.seed = seed;
        self
    }

    /// Overrides the whole runtime configuration (threads, chunk size, seed).
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Returns the base random seed.
    pub fn seed(&self) -> u64 {
        self.runtime.seed
    }
}

/// One iteration's bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationRecord {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Memory basis analysed in this iteration (alternates between Z and X).
    pub basis: MemoryBasis,
    /// Number of distinct ambiguous subgraphs found.
    pub subgraphs_found: usize,
    /// Weights of the minimum-weight logical errors solved this iteration.
    pub solution_weights: Vec<usize>,
    /// Number of candidate changes enumerated before pruning.
    pub candidates_enumerated: usize,
    /// Number of verified changes applied to the schedule.
    pub changes_applied: usize,
    /// CNOT depth of the schedule after this iteration.
    pub depth: usize,
    /// The schedule after this iteration (an intermediate circuit, used by Hook-ZNE).
    pub schedule: ScheduleSpec,
}

/// The result of a PropHunt optimization run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizationResult {
    /// The schedule the run started from.
    pub initial_schedule: ScheduleSpec,
    /// The schedule after the final iteration.
    pub final_schedule: ScheduleSpec,
    /// Per-iteration records, including every intermediate schedule.
    pub records: Vec<IterationRecord>,
}

impl OptimizationResult {
    /// Returns the CNOT depth of the final schedule.
    pub fn final_depth(&self) -> usize {
        self.final_schedule.depth().unwrap_or(usize::MAX)
    }

    /// Returns the total number of changes applied across all iterations.
    pub fn total_changes_applied(&self) -> usize {
        self.records.iter().map(|r| r.changes_applied).sum()
    }
}

/// Pipeline-stage labels for [`SeedStream::substream`]: every parallel stage
/// draws from its own independent seed stream, so stages can never alias each
/// other's RNG streams even when task indices coincide.
mod stage {
    pub const SAMPLE: u64 = 1;
    pub const ENUMERATE: u64 = 2;
}

/// The PropHunt optimizer for a fixed CSS code.
#[derive(Debug, Clone)]
pub struct PropHunt {
    code: CssCode,
    config: PropHuntConfig,
    runtime: Runtime,
}

impl PropHunt {
    /// Creates an optimizer for `code` with the given configuration.
    pub fn new(code: CssCode, config: PropHuntConfig) -> Self {
        let runtime = Runtime::new(config.runtime);
        PropHunt {
            code,
            config,
            runtime,
        }
    }

    /// Returns the code being optimized.
    pub fn code(&self) -> &CssCode {
        &self.code
    }

    /// Returns the configuration.
    pub fn config(&self) -> &PropHuntConfig {
        &self.config
    }

    /// Returns the shared parallel runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Runs the iterative optimization loop starting from `initial` (typically a
    /// coloration circuit), validating the initial schedule against the code. This
    /// is also the resume entry point used by `prophunt optimize --resume`, where
    /// the starting schedule is a previously exported schedule file.
    ///
    /// # Errors
    ///
    /// Returns the [`CircuitError`] raised by schedule validation.
    pub fn try_optimize(&self, initial: ScheduleSpec) -> Result<OptimizationResult, CircuitError> {
        self.try_optimize_with_observer(initial, |_| {})
    }

    /// Runs the optimization loop, invoking `observer` with each completed
    /// [`IterationRecord`] *as the run progresses* — the hook behind the CLI's streamed
    /// JSON-lines iteration reports. The observer sees exactly the records collected in
    /// the returned [`OptimizationResult`], in order.
    ///
    /// # Errors
    ///
    /// Returns the [`CircuitError`] raised by schedule validation.
    pub fn try_optimize_with_observer(
        &self,
        initial: ScheduleSpec,
        mut observer: impl FnMut(&IterationRecord),
    ) -> Result<OptimizationResult, CircuitError> {
        // Full boundary check (including Tanner-graph coverage): the initial
        // schedule may come from a file rather than a trusted constructor.
        initial.validate_for_code(&self.code)?;
        let mut schedule = initial.clone();
        let mut records = Vec::new();
        for iteration in 0..self.config.iterations {
            let basis = if iteration % 2 == 0 {
                MemoryBasis::Z
            } else {
                MemoryBasis::X
            };
            let record = self.step(iteration, basis, &mut schedule);
            observer(&record);
            let stop = record.subgraphs_found == 0 && iteration > 0;
            records.push(record);
            if stop {
                break;
            }
        }
        Ok(OptimizationResult {
            initial_schedule: initial,
            final_schedule: schedule,
            records,
        })
    }

    /// Runs **one** optimization iteration — the explicit
    /// `build_graph → sample → solve → enumerate → verify → apply` stage
    /// pipeline — on `schedule` in the given memory basis, mutating it in place.
    ///
    /// This is the stepping entry point behind [`PropHunt::try_optimize`] (which
    /// alternates bases and owns the stop rule) and the `prophunt-search`
    /// MaxSAT-descent strategy (which interleaves single iterations with other
    /// strategies between portfolio rounds). `iteration` selects the
    /// deterministic RNG substreams, so distinct iteration numbers never alias
    /// each other's sampling streams.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is not valid for the code; callers stepping
    /// externally supplied schedules must run
    /// [`ScheduleSpec::validate_for_code`] first, exactly like
    /// [`PropHunt::try_optimize`] does.
    pub fn step(
        &self,
        iteration: usize,
        basis: MemoryBasis,
        schedule: &mut ScheduleSpec,
    ) -> IterationRecord {
        // Stage 1: build the decoding graph of the current schedule.
        let graph = self
            .build_graph(schedule, basis)
            .expect("schedule stays valid across iterations");

        // Stage 2: sample ambiguous subgraphs, one task per sample.
        let subgraphs = self.sample_stage(&graph, iteration);

        // Stage 3: minimum-weight logical error per subgraph (exact GF(2) search).
        let solved = self.solve_stage(subgraphs);
        let solution_weights: Vec<usize> = solved.iter().map(|(_, s)| s.weight).collect();
        // A subgraph only counts as *found* once it has a minimum-weight
        // solution: `try_optimize` stops on zero, and a sampled-but-unsolvable
        // batch (every solve timing out) must stop the loop, not spin it.
        let subgraphs_found = solved.len();

        // Stage 4: enumerate candidate changes per subgraph.
        let (tasks, candidates_enumerated) =
            self.enumerate_stage(&graph, schedule, solved, iteration);

        // Stage 5: verify candidates — bounded parallel tasks, never one OS
        // thread per candidate.
        let verified_per_subgraph = self.verify_stage(&graph, schedule, basis, &tasks);

        // Stage 6: apply the minimum-depth verified change of each subgraph.
        let changes_applied = apply_verified_changes(schedule, verified_per_subgraph);
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

    /// Builds the decoding graph of `(schedule, basis)` under the configured noise.
    fn build_graph(
        &self,
        schedule: &ScheduleSpec,
        basis: MemoryBasis,
    ) -> Result<DecodingGraph, CircuitError> {
        DecodingGraph::build_with_noise(
            &self.code,
            schedule,
            self.config.rounds,
            basis,
            &self.config.noise,
        )
    }

    /// Samples ambiguous subgraphs in parallel (one seeded task per sample) and
    /// deduplicates them by detector set.
    fn sample_stage(&self, graph: &DecodingGraph, iteration: usize) -> Vec<AmbiguousSubgraph> {
        let stream = self
            .runtime
            .seed_stream()
            .substream(stage::SAMPLE)
            .substream(iteration as u64);
        let mut found: Vec<AmbiguousSubgraph> = self
            .runtime
            .par_seeded(self.config.samples_per_iteration, &stream, |_task, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                find_ambiguous_subgraph(graph, &mut rng, self.config.max_subgraph_steps)
            })
            .into_iter()
            .flatten()
            .collect();
        // Deduplicate by detector set and keep the smallest subgraphs first (they give
        // the most targeted changes).
        found.sort_by_key(|s| (s.errors.len(), s.detectors.clone()));
        found.dedup_by(|a, b| a.detectors == b.detectors);
        found.truncate(self.config.max_subgraphs_per_iteration);
        found
    }

    /// Solves each subgraph's minimum-weight logical error in parallel with
    /// the exact solver. A solve is a pure function of the subgraph and the
    /// budget, so order-preserving `par_map` keeps the stage deterministic.
    /// Subgraphs whose solve reaches the subset cap are dropped.
    fn solve_stage(
        &self,
        subgraphs: Vec<AmbiguousSubgraph>,
    ) -> Vec<(AmbiguousSubgraph, MinWeightSolution)> {
        let solutions = self.runtime.par_map(&subgraphs, |sub| {
            min_weight_logical_error(sub, self.config.maxsat_budget)
        });
        subgraphs
            .into_iter()
            .zip(solutions)
            .filter_map(|(sub, solution)| solution.map(|s| (sub, s)))
            .collect()
    }

    /// Enumerates candidate changes for each solved subgraph with a
    /// deterministic per-iteration RNG stream.
    #[allow(clippy::type_complexity)]
    fn enumerate_stage(
        &self,
        graph: &DecodingGraph,
        schedule: &ScheduleSpec,
        solved: Vec<(AmbiguousSubgraph, MinWeightSolution)>,
        iteration: usize,
    ) -> (
        Vec<(AmbiguousSubgraph, MinWeightSolution, Vec<CandidateChange>)>,
        usize,
    ) {
        let seed = self
            .runtime
            .seed_stream()
            .substream(stage::ENUMERATE)
            .seed_for(iteration as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tasks = Vec::with_capacity(solved.len());
        let mut candidates_enumerated = 0usize;
        for (sub, solution) in solved {
            let candidates = enumerate_candidates(graph, &self.code, schedule, &solution, &mut rng);
            candidates_enumerated += candidates.len();
            tasks.push((sub, solution, candidates));
        }
        (tasks, candidates_enumerated)
    }

    /// Verifies every candidate change as a bounded parallel task and groups
    /// the survivors by originating subgraph, preserving candidate order.
    ///
    /// The base schedule's incremental evaluator — commutation parity
    /// counters plus the layered CNOT dependency DAG — is built once per
    /// stage and shared by every verification task, which clones it and
    /// applies its candidate's primitive operations in O(pairs touched +
    /// cone) instead of re-validating the mutated schedule from scratch.
    /// Each task then signs the changed circuit's faults with one backward
    /// sweep and reads the few `H`/`L` columns it needs from the signatures;
    /// no detector error model is built per candidate (see
    /// [`verify_candidate`]).
    fn verify_stage(
        &self,
        graph: &DecodingGraph,
        schedule: &ScheduleSpec,
        basis: MemoryBasis,
        tasks: &[(AmbiguousSubgraph, MinWeightSolution, Vec<CandidateChange>)],
    ) -> Vec<Vec<VerifiedChange>> {
        let work: Vec<(
            usize,
            &AmbiguousSubgraph,
            &MinWeightSolution,
            &CandidateChange,
        )> = tasks
            .iter()
            .enumerate()
            .flat_map(|(group, (sub, solution, candidates))| {
                candidates
                    .iter()
                    .map(move |candidate| (group, sub, solution, candidate))
            })
            .collect();
        let noise = self.config.noise;
        let base_eval = prophunt_circuit::ScheduleEval::new(schedule.clone())
            .expect("schedule stays valid across iterations");
        let results = self
            .runtime
            .par_map(&work, |&(group, sub, solution, candidate)| {
                verify_candidate(
                    &self.code,
                    &base_eval,
                    candidate,
                    sub,
                    solution,
                    graph,
                    self.config.rounds,
                    basis,
                    &noise,
                )
                .map(|verified| (group, verified))
            });
        let mut verified_per_subgraph: Vec<Vec<VerifiedChange>> = vec![Vec::new(); tasks.len()];
        for (group, verified) in results.into_iter().flatten() {
            verified_per_subgraph[group].push(verified);
        }
        verified_per_subgraph
    }

    /// The effective distance of `schedule` in `basis`: the minimum weight of
    /// an undetected logical error of the whole circuit-level decoding graph,
    /// solved by [`min_weight`] on the graph's `H` and `L` under the subset
    /// cap of [`PropHuntConfig::maxsat_budget`]. The bound is exact when it
    /// carries a witness and reads "at least `lower`" when the cap was reached
    /// first. It is a pure function of the schedule and the configuration; no
    /// seed or thread count enters it.
    ///
    /// # Errors
    ///
    /// Returns the [`CircuitError`] raised by schedule validation.
    pub fn effective_distance(
        &self,
        schedule: &ScheduleSpec,
        basis: MemoryBasis,
    ) -> Result<DistanceBound, CircuitError> {
        let graph = self.build_graph(schedule, basis)?;
        let dem = graph.dem();
        Ok(min_weight(
            &dem.h_matrix(),
            &dem.l_matrix(),
            self.config.maxsat_budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_qec::surface::rotated_surface_code_with_layout;

    /// The effective distance over both memory bases; both solves must be
    /// exact.
    fn exact_distance(prophunt: &PropHunt, schedule: &ScheduleSpec) -> usize {
        [MemoryBasis::Z, MemoryBasis::X]
            .into_iter()
            .map(|basis| {
                let bound = prophunt.effective_distance(schedule, basis).unwrap();
                bound.exact().expect("a d = 3 solve stays under the cap")
            })
            .min()
            .unwrap()
    }

    #[test]
    fn quick_config_is_small() {
        let config = PropHuntConfig::quick(3);
        assert!(config.iterations <= 5);
        assert!(config.samples_per_iteration <= 100);
        let paper = PropHuntConfig::paper_like(5);
        assert_eq!(paper.iterations, 25);
        assert_eq!(paper.samples_per_iteration, 500);
    }

    #[test]
    fn with_seed_updates_the_runtime_seed() {
        let config = PropHuntConfig::quick(3).with_seed(99);
        assert_eq!(config.seed(), 99);
        assert_eq!(config.runtime.seed, 99);
        let config = config.with_runtime(RuntimeConfig::new(2, 8, 7));
        assert_eq!(config.runtime.threads, 2);
        assert_eq!(config.seed(), 7);
    }

    #[test]
    fn noise_override_replaces_the_uniform_depolarizing_default() {
        // Both profiles analyse the paper's noise: uniform depolarizing at 1e-3.
        let config = PropHuntConfig::quick(3);
        assert_eq!(config.noise, NoiseModel::uniform_depolarizing(1e-3));
        assert_eq!(PropHuntConfig::paper_like(5).noise, config.noise);
        let si = NoiseModel::si1000(2e-3);
        let config = PropHuntConfig {
            noise: si,
            ..config
        };
        assert_eq!(config.noise, si);
    }

    #[test]
    fn optimizing_the_poor_d3_schedule_restores_effective_distance() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let poor = ScheduleSpec::surface_poor(&code, &layout);
        let config = PropHuntConfig::quick(3).with_seed(11);
        let prophunt = PropHunt::new(code.clone(), config);
        // The poor schedule has d_eff = 2.
        let before = exact_distance(&prophunt, &poor);
        assert_eq!(
            before, 2,
            "poor schedule should expose weight-2 logical errors"
        );
        let result = prophunt.try_optimize(poor).unwrap();
        assert!(
            result.total_changes_applied() >= 1,
            "optimizer should change the circuit"
        );
        result.final_schedule.validate(prophunt.code()).unwrap();
        let after = exact_distance(&prophunt, &result.final_schedule);
        assert_eq!(after, 3, "effective distance should rise from 2 to d = 3");
    }

    #[test]
    fn optimizing_an_already_good_schedule_keeps_it_valid() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let good = ScheduleSpec::surface_hand_designed(&code, &layout);
        let config = PropHuntConfig {
            iterations: 2,
            samples_per_iteration: 20,
            ..PropHuntConfig::quick(3)
        };
        let prophunt = PropHunt::new(code, config);
        let result = prophunt.try_optimize(good.clone()).unwrap();
        result.final_schedule.validate(prophunt.code()).unwrap();
        // The hand-designed schedule already has d_eff = d; whatever the optimizer does,
        // it must not make the minimum logical weight smaller than 3.
        let d_eff = exact_distance(&prophunt, &result.final_schedule);
        assert!(
            d_eff >= 3,
            "optimization must not reduce d_eff below 3, got {d_eff}"
        );
    }

    #[test]
    fn an_invalid_schedule_is_an_error_not_a_missing_distance() {
        let (code, _layout) = rotated_surface_code_with_layout(3);
        let mut rng = StdRng::seed_from_u64(4);
        let invalid = std::iter::repeat_with(|| ScheduleSpec::random(&code, &mut rng))
            .find(|s| s.validate(&code).is_err())
            .expect("some random schedule breaks commutation");
        let expected = invalid.validate(&code).unwrap_err();
        let prophunt = PropHunt::new(code, PropHuntConfig::quick(3));
        assert_eq!(
            prophunt.effective_distance(&invalid, MemoryBasis::Z),
            Err(expected)
        );
    }
}
