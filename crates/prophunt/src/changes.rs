//! Candidate circuit-change enumeration, pruning and application (paper Sections
//! 5.3–5.5).

use crate::ambiguity::{is_ambiguous, AmbiguousSubgraph, DecodingGraph};
use crate::minweight::MinWeightSolution;
use prophunt_circuit::noise::Fault;
use prophunt_circuit::{
    EvalOp, FaultSignatures, MemoryBasis, MemoryExperiment, NoiseModel, Op, ScheduleEval,
    ScheduleSpec, StabilizerId,
};
use prophunt_gf2::BitMatrix;
use prophunt_qec::{CssCode, StabilizerKind};
use rand::Rng;

/// A single rescheduling swap: flip which of two stabilizers interacts first with a
/// shared data qubit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescheduleSwap {
    /// The shared data qubit.
    pub qubit: usize,
    /// One stabilizer of the pair.
    pub a: StabilizerId,
    /// The other stabilizer of the pair.
    pub b: StabilizerId,
}

/// A candidate change to the SM circuit, in the two families the paper defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateChange {
    /// Reordering: move `move_qubit` immediately before `anchor_qubit` in the interaction
    /// order of `stabilizer` (changes which data qubits a hook error spreads to).
    Reorder {
        /// The stabilizer whose CNOT order changes.
        stabilizer: StabilizerId,
        /// The data qubit moved earlier in the order.
        move_qubit: usize,
        /// The data qubit it is moved in front of (the one whose CNOT caused the hook).
        anchor_qubit: usize,
    },
    /// Rescheduling: swap the relative order of two stabilizers on one or two shared
    /// data qubits (two swaps are needed when the stabilizers have opposite type, to
    /// preserve commutation).
    Reschedule {
        /// The swaps to perform.
        swaps: Vec<RescheduleSwap>,
    },
}

impl CandidateChange {
    /// Applies the change to a schedule in place.
    pub fn apply(&self, schedule: &mut ScheduleSpec) {
        for op in self.eval_ops() {
            op.apply(schedule);
        }
    }

    /// The change as primitive operations of the incremental evaluation
    /// engine ([`ScheduleEval::try_ops`]) — the path through which candidates
    /// are verified and applied without from-scratch revalidation.
    pub fn eval_ops(&self) -> Vec<EvalOp> {
        match self {
            CandidateChange::Reorder {
                stabilizer,
                move_qubit,
                anchor_qubit,
            } => vec![EvalOp::Reorder {
                stabilizer: *stabilizer,
                move_qubit: *move_qubit,
                anchor_qubit: *anchor_qubit,
            }],
            CandidateChange::Reschedule { swaps } => swaps
                .iter()
                .map(|swap| EvalOp::Swap {
                    qubit: swap.qubit,
                    a: swap.a,
                    b: swap.b,
                })
                .collect(),
        }
    }
}

/// A candidate that survived pruning, together with the schedule it produces.
#[derive(Debug, Clone)]
pub struct VerifiedChange {
    /// The change itself.
    pub change: CandidateChange,
    /// The resulting schedule (base schedule plus this change).
    pub schedule: ScheduleSpec,
    /// The CNOT depth of the resulting schedule (the tie-break of Section 5.5).
    pub depth: usize,
}

/// Enumerates candidate changes from the gates behind a minimum-weight logical error
/// (paper Section 5.3).
pub fn enumerate_candidates<R: Rng>(
    graph: &DecodingGraph,
    code: &CssCode,
    schedule: &ScheduleSpec,
    solution: &MinWeightSolution,
    rng: &mut R,
) -> Vec<CandidateChange> {
    let experiment = graph.experiment();
    let mut candidates = Vec::new();
    for &error_index in &solution.errors {
        let mechanism = graph.dem().error(error_index);
        let Some(source) = mechanism.sources.first() else {
            continue;
        };
        let Op::Cnot(control, target) = source.op else {
            continue;
        };
        // Identify the ancilla (stabilizer) and data qubit of this CNOT.
        let (stab, data_qubit) = match (
            experiment.stabilizer_of_qubit(control),
            experiment.stabilizer_of_qubit(target),
        ) {
            (Some(s), None) => (s, target),
            (None, Some(s)) => (s, control),
            _ => continue,
        };
        let ancilla = if experiment.stabilizer_of_qubit(control).is_some() {
            control
        } else {
            target
        };
        let kind = schedule.kind_of(stab);

        // Hook errors: an ancilla fault component that propagates onto later data qubits
        // (X on an X-check's control, Z on a Z-check's target).
        let is_hook = source.error.iter().any(|&(q, pauli)| {
            q == ancilla
                && match kind {
                    StabilizerKind::X => pauli.has_x(),
                    StabilizerKind::Z => pauli.has_z(),
                }
        });
        if is_hook {
            for &other in schedule.order(stab) {
                if other != data_qubit {
                    candidates.push(CandidateChange::Reorder {
                        stabilizer: stab,
                        move_qubit: other,
                        anchor_qubit: data_qubit,
                    });
                }
            }
        }

        // Rescheduling: swap this stabilizer against each stabilizer flipped by the error
        // that also acts on the same data qubit.
        let mut flipped_stabs: Vec<StabilizerId> = mechanism
            .detectors
            .iter()
            .map(|&d| experiment.detector_info[d].stabilizer)
            .collect();
        flipped_stabs.sort_unstable();
        flipped_stabs.dedup();
        for other in flipped_stabs {
            if other == stab {
                continue;
            }
            let (other_kind, other_index) = schedule.kind_index(other);
            let (_, stab_index) = schedule.kind_index(stab);
            // Both must act on the data qubit for the swap to be meaningful.
            if !code.checks(other_kind).get(other_index, data_qubit) {
                continue;
            }
            let mut swaps = vec![RescheduleSwap {
                qubit: data_qubit,
                a: stab,
                b: other,
            }];
            if other_kind != kind {
                // Opposite types: a second swap on another shared qubit preserves
                // commutation. Pick deterministically when unique, randomly otherwise.
                let (x_index, z_index) = match kind {
                    StabilizerKind::X => (stab_index, other_index),
                    StabilizerKind::Z => (other_index, stab_index),
                };
                let shared: Vec<usize> = code
                    .shared_qubits(x_index, z_index)
                    .into_iter()
                    .filter(|&q| q != data_qubit)
                    .collect();
                if shared.is_empty() {
                    continue;
                }
                let pick = if shared.len() == 1 {
                    shared[0]
                } else {
                    shared[rng.gen_range(0..shared.len())]
                };
                swaps.push(RescheduleSwap {
                    qubit: pick,
                    a: stab,
                    b: other,
                });
            }
            candidates.push(CandidateChange::Reschedule { swaps });
        }
    }
    candidates.dedup();
    candidates
}

/// Why [`check_candidate`] pruned a candidate (paper Section 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The changed schedule is not a valid SM circuit: it breaks commutation or its
    /// CNOTs cannot be scheduled.
    Invalid,
    /// The original syndrome set is still ambiguous under the changed circuit.
    StillAmbiguous,
    /// The solution's faults, replayed in the changed circuit, still form an
    /// undetected logical error.
    StillLogical,
}

/// Prunes a candidate change (paper Section 5.4): `Some` with the changed schedule
/// and its depth when it survives, `None` when it is pruned.
///
/// This is [`check_candidate`] without the rejection reason.
#[allow(
    clippy::too_many_arguments,
    reason = "the same inputs as check_candidate, which it wraps"
)]
pub fn verify_candidate(
    code: &CssCode,
    base_eval: &ScheduleEval,
    candidate: &CandidateChange,
    subgraph: &AmbiguousSubgraph,
    solution: &MinWeightSolution,
    original_graph: &DecodingGraph,
    rounds: usize,
    basis: MemoryBasis,
    noise: &NoiseModel,
) -> Option<VerifiedChange> {
    check_candidate(
        code,
        base_eval,
        candidate,
        subgraph,
        solution,
        original_graph,
        rounds,
        basis,
        noise,
    )
    .ok()
}

/// Prunes a candidate change (paper Section 5.4), naming the reason when it fails.
///
/// The candidate survives when the changed schedule is a valid SM circuit (commutation
/// preserved, CNOTs schedulable), the original ambiguous syndrome set is no longer
/// ambiguous under the new circuit-level matrices, and the updated counterparts of the
/// solution's faults no longer form an undetected logical error.
///
/// Validity and depth are evaluated incrementally: the candidate's primitive
/// operations are applied to a clone of `base_eval` (whose parity counters and
/// layered dependency DAG are kept up to date in O(pairs touched + cone))
/// instead of re-running the full commutation scan and DAG rebuild per
/// candidate.
///
/// The changed circuit's detector error model is never built. Its faults are signed by
/// one backward sweep ([`FaultSignatures`], `O((operations + faults) · words)`), and
/// both questions are answered from the signatures:
///
/// - *Still ambiguous*: the columns are the signatures of faults that flip at least one
///   detector, all of them in `subgraph.detectors`, projected onto those rows plus the
///   observables. Repeated or reordered columns do not change `L' ⊄ rowspace(H')`, so
///   the faults need no merge into mechanisms.
/// - *Still logical*: each solution mechanism's first fault `(op, error, round)` is
///   matched against the new faults with a nonzero signature. A fault's mechanism is
///   identified by the first fault with an equal signature, which is the merged model's
///   mechanism order, so "the last matching mechanism wins" and the dedup before the
///   XOR are those of a rebuilt model. The faults still form a logical error iff the
///   XOR of the distinct matched signatures flips no detector and some observable.
#[allow(
    clippy::too_many_arguments,
    reason = "a candidate is checked against its base schedule, subgraph, solution, graph and noise; a bundling struct would exist for this call alone"
)]
pub fn check_candidate(
    code: &CssCode,
    base_eval: &ScheduleEval,
    candidate: &CandidateChange,
    subgraph: &AmbiguousSubgraph,
    solution: &MinWeightSolution,
    original_graph: &DecodingGraph,
    rounds: usize,
    basis: MemoryBasis,
    noise: &NoiseModel,
) -> Result<VerifiedChange, Rejection> {
    let mut eval = base_eval.clone();
    // Circuit validity (commutation parity + acyclic layout) and depth, in one
    // incremental application.
    let depth = eval
        .try_ops(&candidate.eval_ops())
        .ok_or(Rejection::Invalid)?;
    let schedule = eval.into_spec();
    let experiment =
        MemoryExperiment::build(code, &schedule, rounds, basis).map_err(|_| Rejection::Invalid)?;
    let faults = noise.enumerate_faults(&experiment.circuit);
    let signatures = FaultSignatures::new(&experiment, &faults);
    if still_ambiguous(&signatures, &subgraph.detectors) {
        return Err(Rejection::StillAmbiguous);
    }
    if still_logical(original_graph, &experiment, &faults, &signatures, solution) {
        return Err(Rejection::StillLogical);
    }
    Ok(VerifiedChange {
        change: candidate.clone(),
        schedule,
        depth,
    })
}

/// Whether the syndrome set `detectors` (sorted) is ambiguous in the signed circuit:
/// [`is_ambiguous`] on the faults whose detectors are nonempty and inside `detectors`.
fn still_ambiguous(signatures: &FaultSignatures, detectors: &[usize]) -> bool {
    // `inside`: the subgraph's detector bits; `outside`: every other detector bit.
    let mut inside = vec![0u64; signatures.words()];
    let mut outside = vec![0u64; signatures.words()];
    for d in 0..signatures.num_detectors() {
        outside[d / 64] |= 1 << (d % 64);
    }
    for &d in detectors {
        inside[d / 64] |= 1 << (d % 64);
        outside[d / 64] &= !(1 << (d % 64));
    }
    let disjoint =
        |signature: &[u64], mask: &[u64]| signature.iter().zip(mask).all(|(s, m)| s & m == 0);
    let columns: Vec<&[u64]> = signatures
        .iter()
        .filter(|signature| !disjoint(signature, &inside) && disjoint(signature, &outside))
        .collect();
    let mut h = BitMatrix::zeros(detectors.len(), columns.len());
    let mut l = BitMatrix::zeros(signatures.num_observables(), columns.len());
    for (col, signature) in columns.iter().enumerate() {
        let (flipped, observables) = signatures.split(signature);
        for d in flipped {
            let row = detectors
                .binary_search(&d)
                .expect("detector inside the subgraph");
            h.set(row, col, true);
        }
        for o in observables {
            l.set(o, col, true);
        }
    }
    is_ambiguous(&h, &l)
}

/// Checks whether the faults behind `solution`, replayed in the signed circuit, still
/// form an undetected logical error (`H'E' = 0` and `L'E' ≠ 0`): whether the XOR of the
/// signatures of their [`solution_mechanisms`] flips no detector and some observable.
fn still_logical(
    original: &DecodingGraph,
    experiment: &MemoryExperiment,
    faults: &[Fault],
    signatures: &FaultSignatures,
    solution: &MinWeightSolution,
) -> bool {
    let Some(mechanisms) = solution_mechanisms(original, experiment, faults, signatures, solution)
    else {
        return false;
    };
    let mut flips = vec![0u64; signatures.words()];
    for m in mechanisms {
        for (acc, w) in flips.iter_mut().zip(signatures.get(m)) {
            *acc ^= w;
        }
    }
    let (detectors, observables) = signatures.split(&flips);
    detectors.is_empty() && !observables.is_empty()
}

/// Maps each solution mechanism of `original` to the mechanism of the signed circuit
/// that carries the same fault: same op, same Pauli error, same round. A mechanism is
/// named by its first fault (the first with its nonzero signature; first appearance is
/// the merged model's mechanism order). Returns the sorted, deduplicated names, or
/// `None` when a solution mechanism has no source (a model read from a file).
///
/// When several mechanisms carry a matching fault, the last one in mechanism order
/// wins: idle faults share the placeholder `Op::H(q)` descriptor within a round, so a
/// key can repeat when idle noise is on. A fault that vanished from the new model is
/// treated as removed, which can only make the pattern detectable.
fn solution_mechanisms(
    original: &DecodingGraph,
    experiment: &MemoryExperiment,
    faults: &[Fault],
    signatures: &FaultSignatures,
    solution: &MinWeightSolution,
) -> Option<Vec<usize>> {
    let mut keys = Vec::with_capacity(solution.errors.len());
    for &e in &solution.errors {
        let src = original.dem().error(e).sources.first()?;
        keys.push((src, original.experiment().round_of_moment(src.moment)));
    }
    let mechanism_of = |f: usize| {
        let signature = signatures.get(f);
        (0..=f)
            .find(|&g| signatures.get(g) == signature)
            .expect("fault f itself matches")
    };
    let mut found: Vec<Option<usize>> = vec![None; keys.len()];
    for (f, fault) in faults.iter().enumerate() {
        for (slot, &(key, round)) in found.iter_mut().zip(&keys) {
            if fault.op == key.op
                && fault.error == key.error
                && experiment.round_of_moment(fault.moment) == round
                && signatures.get(f).iter().any(|&w| w != 0)
            {
                *slot = (*slot).max(Some(mechanism_of(f)));
            }
        }
    }
    let mut mechanisms: Vec<usize> = found.into_iter().flatten().collect();
    mechanisms.sort_unstable();
    mechanisms.dedup();
    Some(mechanisms)
}

/// Selects at most one verified change per subgraph (minimum depth, Section 5.5) and
/// applies them sequentially to `schedule`, skipping any change that would invalidate the
/// circuit in combination with previously applied ones. Returns the number of changes
/// applied.
///
/// Applications run through one incremental [`ScheduleEval`]: a change that is
/// invalid in combination with previously applied ones is rejected (and rolled
/// back) by the engine's parity counters and cone relayering instead of a
/// from-scratch clone-and-validate per group.
pub fn apply_verified_changes(
    schedule: &mut ScheduleSpec,
    verified_per_subgraph: Vec<Vec<VerifiedChange>>,
) -> usize {
    let mut eval = ScheduleEval::new(schedule.clone())
        .expect("the working schedule stays valid across iterations");
    let mut applied = 0;
    for group in verified_per_subgraph {
        let Some(best) = group.into_iter().min_by_key(|v| v.depth) else {
            continue;
        };
        if eval.try_ops(&best.change.eval_ops()).is_some() {
            applied += 1;
        }
    }
    *schedule = eval.into_spec();
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambiguity::find_ambiguous_subgraph;
    use crate::minweight::min_weight_logical_error;
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    /// The verification `check_candidate` replaced, kept as its oracle: the changed
    /// circuit's full decoding graph, its restricted matrices, and a scan of every new
    /// mechanism's sources for the solution's faults.
    #[allow(
        clippy::too_many_arguments,
        reason = "the oracle takes exactly check_candidate's inputs"
    )]
    fn check_by_rebuild(
        code: &CssCode,
        base_eval: &ScheduleEval,
        candidate: &CandidateChange,
        subgraph: &AmbiguousSubgraph,
        solution: &MinWeightSolution,
        original_graph: &DecodingGraph,
        rounds: usize,
        basis: MemoryBasis,
        noise: &NoiseModel,
    ) -> Result<VerifiedChange, Rejection> {
        let mut eval = base_eval.clone();
        let depth = eval
            .try_ops(&candidate.eval_ops())
            .ok_or(Rejection::Invalid)?;
        let schedule = eval.into_spec();
        let new_graph = DecodingGraph::build_with_noise(code, &schedule, rounds, basis, noise)
            .map_err(|_| Rejection::Invalid)?;
        let (h_sub, l_sub, _) = new_graph.restricted_matrices(&subgraph.detectors);
        if is_ambiguous(&h_sub, &l_sub) {
            return Err(Rejection::StillAmbiguous);
        }
        let still_logical =
            map_solution_faults(original_graph, &new_graph, solution).is_some_and(|mapped| {
                crate::minweight::is_undetected_logical_error(&new_graph, &mapped)
            });
        if still_logical {
            return Err(Rejection::StillLogical);
        }
        Ok(VerifiedChange {
            change: candidate.clone(),
            schedule,
            depth,
        })
    }

    /// Maps each solution mechanism of `original` to the mechanism of `updated` whose
    /// sources contain the same fault: same op, same Pauli error, same round, the last
    /// matching mechanism winning. Returns the sorted, deduplicated new indices, or
    /// `None` when a solution mechanism has no source.
    fn map_solution_faults(
        original: &DecodingGraph,
        updated: &DecodingGraph,
        solution: &MinWeightSolution,
    ) -> Option<Vec<usize>> {
        let mut keys = Vec::with_capacity(solution.errors.len());
        for &e in &solution.errors {
            let src = original.dem().error(e).sources.first()?;
            let round = original.experiment().round_of_moment(src.moment);
            keys.push((src, round));
        }
        let mut found: Vec<Option<usize>> = vec![None; keys.len()];
        for (i, err) in updated.dem().errors().iter().enumerate() {
            for src in &err.sources {
                for (slot, &(key, round)) in found.iter_mut().zip(&keys) {
                    if src.op == key.op
                        && src.error == key.error
                        && updated.experiment().round_of_moment(src.moment) == round
                    {
                        *slot = Some(i);
                    }
                }
            }
        }
        let mut mapped: Vec<usize> = found.into_iter().flatten().collect();
        mapped.sort_unstable();
        mapped.dedup();
        Some(mapped)
    }

    /// Runs `check_candidate` and the rebuild oracle on every enumerated candidate of
    /// sampled subgraphs of `schedule`, in both bases under uniform, SI1000 and
    /// uniform-plus-idle noise (whose idle faults make solution keys repeat), until
    /// `per_model` candidates per model are compared, and asserts equal outcomes.
    /// Returns how many candidates were accepted, invalid, still ambiguous and still
    /// logical.
    ///
    /// With `drop_syndromes`, each subgraph is checked with an empty detector set,
    /// which nothing can make ambiguous: every valid candidate then reaches the
    /// still-logical check, which real subgraphs seldom do (a change that removes the
    /// ambiguity rarely leaves the solution's faults a logical error).
    fn assert_parity_with_rebuild(
        code: &CssCode,
        schedule: &ScheduleSpec,
        rounds: usize,
        per_model: usize,
        drop_syndromes: bool,
    ) -> [usize; 4] {
        let eval = ScheduleEval::new(schedule.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut outcomes = [0usize; 4];
        for noise in [
            NoiseModel::uniform_depolarizing(1e-3),
            NoiseModel::si1000(2e-3),
            NoiseModel::uniform_depolarizing(1e-3).with_idle(1e-3),
        ] {
            for basis in [MemoryBasis::Z, MemoryBasis::X] {
                let graph =
                    DecodingGraph::build_with_noise(code, schedule, rounds, basis, &noise).unwrap();
                let mut compared = 0;
                for _ in 0..200 {
                    if compared >= per_model {
                        break;
                    }
                    let Some(mut sub) = find_ambiguous_subgraph(&graph, &mut rng, 60) else {
                        continue;
                    };
                    let Some(sol) = min_weight_logical_error(&sub, Duration::from_secs(10)) else {
                        continue;
                    };
                    if drop_syndromes {
                        sub.detectors.clear();
                    }
                    for candidate in enumerate_candidates(&graph, code, schedule, &sol, &mut rng) {
                        let got = check_candidate(
                            code, &eval, &candidate, &sub, &sol, &graph, rounds, basis, &noise,
                        )
                        .map(|v| (v.schedule, v.depth));
                        let want = check_by_rebuild(
                            code, &eval, &candidate, &sub, &sol, &graph, rounds, basis, &noise,
                        )
                        .map(|v| (v.schedule, v.depth));
                        assert_eq!(got, want, "{noise:?} {basis:?} {candidate:?}");
                        outcomes[match got {
                            Ok(_) => 0,
                            Err(Rejection::Invalid) => 1,
                            Err(Rejection::StillAmbiguous) => 2,
                            Err(Rejection::StillLogical) => 3,
                        }] += 1;
                        compared += 1;
                    }
                }
                assert!(
                    compared >= per_model,
                    "{noise:?} {basis:?}: {compared} candidates"
                );
            }
        }
        outcomes
    }

    // The three parity tests compare 2355 candidates, at least 6 × (250 + 50 + 50 + 35).

    #[test]
    fn signature_verification_matches_the_rebuild_oracle_on_surface_d3_poor() {
        let (code, schedule, _) = poor_d3();
        let [accepted, invalid, ambiguous, _] =
            assert_parity_with_rebuild(&code, &schedule, 3, 250, false);
        assert!(accepted > 0 && invalid > 0 && ambiguous > 0);
        let [accepted, _, ambiguous, logical] =
            assert_parity_with_rebuild(&code, &schedule, 3, 50, true);
        assert!(accepted > 0 && logical > 0 && ambiguous == 0);
    }

    #[test]
    fn signature_verification_matches_the_rebuild_oracle_on_surface_d5_coloration() {
        let (code, _) = rotated_surface_code_with_layout(5);
        let schedule = ScheduleSpec::coloration(&code);
        let [accepted, _, ambiguous, _] =
            assert_parity_with_rebuild(&code, &schedule, 5, 50, false);
        assert!(accepted > 0 && ambiguous > 0);
    }

    #[test]
    fn signature_verification_matches_the_rebuild_oracle_on_gb_36_2_coloration() {
        let code = prophunt_qec::product::generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2");
        let schedule = ScheduleSpec::coloration(&code);
        let [accepted, _, ambiguous, _] =
            assert_parity_with_rebuild(&code, &schedule, 3, 35, false);
        assert!(accepted > 0 && ambiguous > 0);
    }

    fn poor_d3() -> (CssCode, ScheduleSpec, DecodingGraph) {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_poor(&code, &layout);
        let graph = DecodingGraph::build(&code, &schedule, 3, MemoryBasis::Z, 1e-3).unwrap();
        (code, schedule, graph)
    }

    /// The source index `map_solution_faults` replaced: every source of the new
    /// model cloned into a hash map, later mechanisms overwriting earlier ones.
    fn map_by_index(
        original: &DecodingGraph,
        updated: &DecodingGraph,
        solution: &MinWeightSolution,
    ) -> Option<Vec<usize>> {
        type SourceKey = (Op, prophunt_circuit::noise::SparsePauli, Option<usize>);
        let mut index: std::collections::HashMap<SourceKey, usize> =
            std::collections::HashMap::new();
        for (i, err) in updated.dem().errors().iter().enumerate() {
            for src in &err.sources {
                let round = updated.experiment().round_of_moment(src.moment);
                index.insert((src.op, src.error, round), i);
            }
        }
        let mut mapped = Vec::new();
        for &e in &solution.errors {
            let src = original.dem().error(e).sources.first()?;
            let round = original.experiment().round_of_moment(src.moment);
            if let Some(&new_idx) = index.get(&(src.op, src.error, round)) {
                mapped.push(new_idx);
            }
        }
        mapped.sort_unstable();
        mapped.dedup();
        Some(mapped)
    }

    #[test]
    fn solution_fault_mapping_matches_the_source_index_under_idle_noise() {
        // Idle faults of one qubit in one round share a key, so with idle noise on
        // a key can match several mechanisms and the last one must win. Under
        // SI1000 idle faults mostly merge into earlier gate-fault mechanisms; the
        // idle-only model makes them first sources, so solution keys repeat. The
        // rebuild oracle's scan and `check_candidate`'s signature mapping must both
        // agree with the old source index.
        let (code, layout) = rotated_surface_code_with_layout(3);
        let poor = ScheduleSpec::surface_poor(&code, &layout);
        let hand = ScheduleSpec::surface_hand_designed(&code, &layout);
        for (noise, keys_must_repeat) in [
            (NoiseModel::si1000(2e-3), false),
            (NoiseModel::noiseless().with_idle(2e-3), true),
        ] {
            let build = |schedule: &ScheduleSpec| {
                DecodingGraph::build_with_noise(&code, schedule, 3, MemoryBasis::Z, &noise).unwrap()
            };
            let (original, updated) = (build(&poor), build(&hand));
            let every_mechanism: Vec<usize> = (0..original.dem().num_errors()).collect();
            if keys_must_repeat {
                let repeated = every_mechanism.iter().any(|&e| {
                    let key = &original.dem().error(e).sources[0];
                    let round = original.experiment().round_of_moment(key.moment);
                    let matches = updated.dem().errors().iter().filter(|err| {
                        err.sources.iter().any(|src| {
                            src.op == key.op
                                && src.error == key.error
                                && updated.experiment().round_of_moment(src.moment) == round
                        })
                    });
                    matches.count() > 1
                });
                assert!(repeated, "some solution key must match several mechanisms");
            }

            let mut rng = StdRng::seed_from_u64(37);
            let mut solutions: Vec<MinWeightSolution> = (0..30)
                .find_map(|_| find_ambiguous_subgraph(&original, &mut rng, 60))
                .and_then(|sub| min_weight_logical_error(&sub, Duration::from_secs(10)))
                .into_iter()
                .collect();
            if let Some(solution) = solutions.first().cloned() {
                solutions.push(MinWeightSolution {
                    errors: every_mechanism,
                    ..solution
                });
            }
            assert!(!solutions.is_empty(), "{noise:?}: no min-weight solution");
            for to in [&updated, &original] {
                let faults = noise.enumerate_faults(&to.experiment().circuit);
                let signatures = FaultSignatures::new(to.experiment(), &faults);
                // Mechanism `i` of `to` is named by its first fault, `firsts[i]`.
                let mut seen = std::collections::HashSet::new();
                let firsts: Vec<usize> = (0..faults.len())
                    .filter(|&f| {
                        let signature = signatures.get(f);
                        signature.iter().any(|&w| w != 0) && seen.insert(signature)
                    })
                    .collect();
                for sol in &solutions {
                    let want = map_by_index(&original, to, sol);
                    assert!(want.as_ref().is_some_and(|m| !m.is_empty()));
                    assert_eq!(map_solution_faults(&original, to, sol), want);
                    let named =
                        solution_mechanisms(&original, to.experiment(), &faults, &signatures, sol);
                    let got = named.map(|ms| {
                        ms.iter()
                            .map(|f| firsts.binary_search(f).expect("a first fault"))
                            .collect()
                    });
                    assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn candidate_application_roundtrip() {
        let (code, schedule, _) = poor_d3();
        let mut s = schedule.clone();
        let order = s.order(0).to_vec();
        let change = CandidateChange::Reorder {
            stabilizer: 0,
            move_qubit: order[2],
            anchor_qubit: order[0],
        };
        change.apply(&mut s);
        assert_eq!(s.order(0)[0], order[2]);
        // A reschedule swap flips who is first.
        let z0 = s.stabilizer_id(StabilizerKind::Z, 0);
        let shared = code.shared_qubits(0, 0);
        let before = s.first_on_qubit(shared[0], 0, z0).unwrap();
        let change = CandidateChange::Reschedule {
            swaps: vec![
                RescheduleSwap {
                    qubit: shared[0],
                    a: 0,
                    b: z0,
                },
                RescheduleSwap {
                    qubit: shared[1],
                    a: 0,
                    b: z0,
                },
            ],
        };
        change.apply(&mut s);
        assert_ne!(s.first_on_qubit(shared[0], 0, z0).unwrap(), before);
        // Flipping both shared qubits preserves commutation.
        s.check_commutation(&code).unwrap();
    }

    #[test]
    fn enumeration_produces_candidates_for_poor_schedule_errors() {
        let (code, schedule, graph) = poor_d3();
        let mut rng = StdRng::seed_from_u64(23);
        let sub = (0..30)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .expect("ambiguous subgraph exists for the poor schedule");
        let solution = min_weight_logical_error(&sub, Duration::from_secs(10)).unwrap();
        let candidates = enumerate_candidates(&graph, &code, &schedule, &solution, &mut rng);
        assert!(
            !candidates.is_empty(),
            "expected candidate changes for a weight-{} logical error",
            solution.weight
        );
    }

    #[test]
    fn verification_rejects_commutation_breaking_changes() {
        let (code, schedule, graph) = poor_d3();
        let z0 = schedule.stabilizer_id(StabilizerKind::Z, 0);
        let shared = code.shared_qubits(0, 0);
        // A single opposite-type swap on one shared qubit breaks commutation and must be
        // pruned regardless of its effect on ambiguity.
        let bad = CandidateChange::Reschedule {
            swaps: vec![RescheduleSwap {
                qubit: shared[0],
                a: 0,
                b: z0,
            }],
        };
        let mut rng = StdRng::seed_from_u64(29);
        let sub = (0..30)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .unwrap();
        let solution = min_weight_logical_error(&sub, Duration::from_secs(10)).unwrap();
        let eval = ScheduleEval::new(schedule).unwrap();
        assert!(verify_candidate(
            &code,
            &eval,
            &bad,
            &sub,
            &solution,
            &graph,
            3,
            MemoryBasis::Z,
            &NoiseModel::uniform_depolarizing(1e-3)
        )
        .is_none());
    }

    #[test]
    fn some_candidate_for_a_weight_two_error_verifies_and_removes_ambiguity() {
        // Not every ambiguous subgraph yields a surviving candidate (the paper notes most
        // candidates are pruned), but across a handful of sampled subgraphs of the poor
        // d = 3 schedule at least one verified change must emerge — otherwise the
        // optimizer could never make progress.
        let (code, schedule, graph) = poor_d3();
        let mut rng = StdRng::seed_from_u64(31);
        let mut verified_somewhere: Vec<VerifiedChange> = Vec::new();
        let mut attempts = 0;
        for _ in 0..60 {
            if !verified_somewhere.is_empty() || attempts >= 8 {
                break;
            }
            let Some(sub) = find_ambiguous_subgraph(&graph, &mut rng, 60) else {
                continue;
            };
            let Some(solution) = min_weight_logical_error(&sub, Duration::from_secs(10)) else {
                continue;
            };
            if solution.weight > 3 {
                continue;
            }
            attempts += 1;
            let candidates = enumerate_candidates(&graph, &code, &schedule, &solution, &mut rng);
            let eval = ScheduleEval::new(schedule.clone()).unwrap();
            verified_somewhere.extend(candidates.iter().filter_map(|c| {
                verify_candidate(
                    &code,
                    &eval,
                    c,
                    &sub,
                    &solution,
                    &graph,
                    3,
                    MemoryBasis::Z,
                    &NoiseModel::uniform_depolarizing(1e-3),
                )
            }));
        }
        assert!(
            !verified_somewhere.is_empty(),
            "no verified candidate across {attempts} low-weight subgraphs"
        );
        // Applying the selected change keeps the schedule valid.
        let mut working = schedule.clone();
        let applied = apply_verified_changes(&mut working, vec![verified_somewhere]);
        assert_eq!(applied, 1);
        working.validate(&code).unwrap();
    }
}
