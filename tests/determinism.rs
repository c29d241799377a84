//! Determinism across thread counts.
//!
//! The contract of the `prophunt-runtime` layer: every result is a pure
//! function of `(seed, chunk_size)` — the worker-thread count may only change
//! wall-clock time. These tests pin that down end-to-end for the optimizer
//! and for Monte-Carlo logical-error-rate estimation, at thread counts 1, 2
//! and 8.

use prophunt_suite::circuit::schedule::ScheduleSpec;
use prophunt_suite::circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_suite::core::{OptimizationResult, PropHunt, PropHuntConfig};
use prophunt_suite::decoders::{
    estimate_logical_error_rate, BpOsdDecoder, ChunkProgress, LerOptions, LerStopReason, ShotBudget,
};
use prophunt_suite::qec::surface::rotated_surface_code_with_layout;
use prophunt_suite::runtime::{Runtime, RuntimeConfig};

fn optimize_poor_d3(threads: usize) -> OptimizationResult {
    let (code, layout) = rotated_surface_code_with_layout(3);
    let poor = ScheduleSpec::surface_poor(&code, &layout);
    let mut config = PropHuntConfig::quick(3).with_seed(11);
    config.runtime.threads = threads;
    PropHunt::new(code, config)
        .try_optimize(poor)
        .expect("poor schedule is valid")
}

#[test]
fn optimizer_records_are_bit_identical_across_thread_counts() {
    let reference = optimize_poor_d3(1);
    assert!(
        !reference.records.is_empty() && reference.total_changes_applied() >= 1,
        "reference run should do real work"
    );
    for threads in [2, 8] {
        let result = optimize_poor_d3(threads);
        assert_eq!(
            result.records.len(),
            reference.records.len(),
            "iteration count diverged at threads = {threads}"
        );
        for (got, want) in result.records.iter().zip(&reference.records) {
            assert_eq!(
                got, want,
                "iteration {} diverged at threads = {threads}",
                want.iteration
            );
        }
        assert_eq!(result, reference, "threads = {threads}");
    }
}

#[test]
fn ler_failure_counts_are_identical_across_thread_counts() {
    let (code, layout) = rotated_surface_code_with_layout(3);
    let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(8e-3));
    let decoder = BpOsdDecoder::new(&dem);
    let estimate = |threads: usize| {
        let runtime = Runtime::new(RuntimeConfig::new(threads, 64, 0));
        let options = LerOptions::fixed(600, 42);
        estimate_logical_error_rate(&dem, &decoder, options, &runtime, &mut |_| {}).0
    };
    let reference = estimate(1);
    assert!(
        reference.failures > 0,
        "want nonzero failures to make the comparison meaningful"
    );
    for threads in [2, 8] {
        let estimate = estimate(threads);
        assert_eq!(estimate.failures, reference.failures, "threads = {threads}");
        assert_eq!(estimate.shots, reference.shots);
    }
}

/// Satellite of the Session/Job redesign: an adaptive (`MaxFailures` /
/// `TargetRse`) run must stop at a *chunk boundary* and report exactly the
/// cumulative tally of the corresponding chunk prefix of the `Fixed` run with
/// the same `(seed, chunk_size)` — at every thread count.
#[test]
fn adaptive_budgets_equal_the_fixed_run_chunk_prefix_at_any_thread_count() {
    let (code, layout) = rotated_surface_code_with_layout(3);
    let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(2e-2));
    let decoder = BpOsdDecoder::new(&dem);
    let (seed, chunk_size, max_shots) = (42u64, 32usize, 1024usize);

    // Reference: the fixed run's cumulative per-chunk tallies at 1 thread.
    let mut prefix: Vec<ChunkProgress> = Vec::new();
    let (full, _) = estimate_logical_error_rate(
        &dem,
        &decoder,
        LerOptions::fixed(max_shots, seed),
        &Runtime::new(RuntimeConfig::new(1, chunk_size, 0)),
        &mut |p| prefix.push(p),
    );
    assert_eq!(prefix.len(), max_shots / chunk_size);
    assert!(full.failures >= 6, "need failures, got {}", full.failures);

    let max_failures = full.failures / 2;
    let expected_failures_prefix = prefix
        .iter()
        .find(|p| p.failures >= max_failures)
        .copied()
        .expect("threshold below the total must be crossed");
    // Pick an RSE target crossed strictly inside the run: the RSE at ~3/4 of
    // the chunks, nudged up so the crossing chunk is unambiguous.
    let rse_at = |p: &ChunkProgress| {
        let rate = p.failures as f64 / p.shots as f64;
        ((1.0 - rate) / (rate * p.shots as f64)).sqrt()
    };
    let target = rse_at(&prefix[prefix.len() * 3 / 4]) * 1.001;
    let expected_rse_prefix = prefix
        .iter()
        .find(|p| p.failures > 0 && rse_at(p) <= target)
        .copied()
        .expect("target must be crossed");

    for threads in [1, 2, 8] {
        let runtime = Runtime::new(RuntimeConfig::new(threads, chunk_size, 0));
        let mut seen: Vec<ChunkProgress> = Vec::new();
        let budget = ShotBudget::MaxFailures {
            max_failures,
            max_shots,
        };
        let (estimate, stop) = estimate_logical_error_rate(
            &dem,
            &decoder,
            LerOptions::new(budget, seed),
            &runtime,
            &mut |p| seen.push(p),
        );
        assert_eq!(stop, LerStopReason::MaxFailuresReached, "threads {threads}");
        assert_eq!(estimate.shots, expected_failures_prefix.shots);
        assert_eq!(estimate.failures, expected_failures_prefix.failures);
        assert!(estimate.shots < max_shots, "must stop early");
        // The observer stream is the exact chunk prefix, in order.
        assert_eq!(seen, prefix[..seen.len()], "threads {threads}");

        let budget = ShotBudget::TargetRse { target, max_shots };
        let (estimate, stop) = estimate_logical_error_rate(
            &dem,
            &decoder,
            LerOptions::new(budget, seed),
            &runtime,
            &mut |_| {},
        );
        assert_eq!(stop, LerStopReason::TargetRseReached, "threads {threads}");
        assert_eq!(estimate.shots, expected_rse_prefix.shots);
        assert_eq!(estimate.failures, expected_rse_prefix.failures);
    }
}

#[test]
fn chunk_size_is_part_of_the_deterministic_contract() {
    // Different chunk sizes may legitimately give different (equally valid)
    // streams; the contract is fixed (seed, chunk_size) => fixed result.
    let (code, layout) = rotated_surface_code_with_layout(3);
    let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
    let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
    let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(8e-3));
    let decoder = BpOsdDecoder::new(&dem);
    let estimate = |threads: usize, chunk: usize| {
        let runtime = Runtime::new(RuntimeConfig::new(threads, chunk, 0));
        let options = LerOptions::fixed(500, 9);
        estimate_logical_error_rate(&dem, &decoder, options, &runtime, &mut |_| {})
            .0
            .failures
    };
    assert_eq!(estimate(1, 32), estimate(8, 32));
    assert_eq!(estimate(1, 17), estimate(4, 17));
}

/// Satellite of the bit-parallel frame engine: a frames-engine run is a
/// pure function of `(seed, chunk_size)` — the whole outcome (per-basis
/// counts, stop reason) is bit-identical at 1, 2 and 8 threads.
#[test]
fn frame_engine_outcomes_are_bit_identical_across_thread_counts() {
    use prophunt_suite::api::{Engine, ExperimentSpec, LerJob, Session, ShotBudget};
    let run = |threads: usize| {
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .noise_str("depolarizing:0.008")
            .unwrap()
            .engine(Engine::Frames)
            .build()
            .unwrap();
        let mut session = Session::new(RuntimeConfig::new(threads, 64, 42));
        session
            .run_ler_quiet(&LerJob::new(spec).with_budget(ShotBudget::fixed(600)))
            .unwrap()
    };
    let reference = run(1);
    assert_eq!(reference.combined.shots, 600);
    assert!(
        reference.combined.failures > 0,
        "want nonzero failures to make the comparison meaningful"
    );
    for threads in [2, 8] {
        let outcome = run(threads);
        assert_eq!(
            outcome.per_basis, reference.per_basis,
            "threads = {threads}"
        );
        assert_eq!(outcome.combined, reference.combined, "threads = {threads}");
        assert_eq!(outcome.stop, reference.stop, "threads = {threads}");
    }
}

/// Tentpole of the `prophunt-search` subsystem: a portfolio run is a pure
/// function of `(seed, chunk_size)` — the best schedule *and* the whole
/// per-round incumbent event sequence are bit-identical at 1, 2 and 8 threads,
/// with all four strategies (including the MaxSAT-descent arm) racing.
#[test]
fn search_portfolio_results_and_event_streams_are_bit_identical_across_thread_counts() {
    use prophunt_suite::api::{Event, ExperimentSpec, SearchJob, Session};
    let run = |threads: usize| {
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        let mut session = Session::new(RuntimeConfig::new(threads, 64, 11));
        let job = SearchJob::new(spec)
            .with_rounds(4)
            .with_proposals(16)
            .with_samples(10);
        let mut events: Vec<Event> = Vec::new();
        let outcome = session
            .run_search(&job, |event| events.push(event.clone()))
            .unwrap();
        (outcome, events)
    };
    let (reference, reference_events) = run(1);
    assert!(
        reference.result.best.depth < reference.result.initial_depth,
        "reference run should do real work (got depth {} from {})",
        reference.result.best.depth,
        reference.result.initial_depth
    );
    for threads in [2, 8] {
        let (outcome, events) = run(threads);
        assert_eq!(
            outcome.result.best.schedule, reference.result.best.schedule,
            "best schedule diverged at threads = {threads}"
        );
        assert_eq!(
            outcome.result, reference.result,
            "round records diverged at threads = {threads}"
        );
        assert_eq!(
            events, reference_events,
            "incumbent event sequence diverged at threads = {threads}"
        );
    }
}
