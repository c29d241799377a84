//! Candidate circuit-change enumeration, pruning and application (paper Sections
//! 5.3–5.5).

use crate::ambiguity::{is_ambiguous, AmbiguousSubgraph, DecodingGraph};
use crate::minweight::MinWeightSolution;
use prophunt_circuit::{
    EvalOp, MemoryBasis, NoiseModel, Op, ScheduleEval, ScheduleSpec, StabilizerId,
};
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

/// Prunes a candidate change (paper Section 5.4).
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
/// The changed circuit's `H`/`L` are rebuilt in full: one backward sensitivity
/// sweep over the circuit ([`prophunt_circuit::DetectorErrorModel::from_faults`]),
/// `O((operations + faults) · words)` with one bit per detector and observable,
/// instead of one forward propagation per fault. The solution's faults are then
/// matched against the new model's sources in a single scan.
#[allow(clippy::too_many_arguments)]
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
    let mut eval = base_eval.clone();
    // Circuit validity (commutation parity + acyclic layout) and depth, in one
    // incremental application.
    let depth = eval.try_ops(&candidate.eval_ops())?;
    let schedule = eval.into_spec();
    // Rebuild the circuit-level matrices under the changed schedule.
    let new_graph = DecodingGraph::build_with_noise(code, &schedule, rounds, basis, noise).ok()?;
    // Ambiguity removal on the original syndrome bits.
    let (h_sub, l_sub, _) = new_graph.restricted_matrices(&subgraph.detectors);
    if is_ambiguous(&h_sub, &l_sub) {
        return None;
    }
    // The updated counterparts of the solution's faults must not be a logical error.
    if updated_faults_still_logical(original_graph, &new_graph, solution) {
        return None;
    }
    Some(VerifiedChange {
        change: candidate.clone(),
        schedule,
        depth,
    })
}

/// Checks whether the faults behind `solution`, replayed in the new circuit, still form
/// an undetected logical error (`H'E' = 0` and `L'E' ≠ 0`).
fn updated_faults_still_logical(
    original: &DecodingGraph,
    updated: &DecodingGraph,
    solution: &MinWeightSolution,
) -> bool {
    match map_solution_faults(original, updated, solution) {
        Some(mapped) => crate::minweight::is_undetected_logical_error(updated, &mapped),
        None => false,
    }
}

/// Maps each solution mechanism of `original` to the mechanism of `updated` whose
/// sources contain the same fault: same op, same Pauli error, same round. Returns the
/// sorted, deduplicated new indices, or `None` when a solution mechanism has no source.
///
/// When several new mechanisms carry a matching source, the last one in mechanism and
/// source order wins: idle faults share the placeholder `Op::H(q)` descriptor within a
/// round, so a key can repeat when idle noise is on. A fault that vanished from the new
/// model is treated as removed, which can only make the pattern detectable.
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
    // One scan over the new sources against the (few) solution keys, without clones.
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
                index.insert((src.op, src.error.clone(), round), i);
            }
        }
        let mut mapped = Vec::new();
        for &e in &solution.errors {
            let src = original.dem().error(e).sources.first()?;
            let round = original.experiment().round_of_moment(src.moment);
            if let Some(&new_idx) = index.get(&(src.op, src.error.clone(), round)) {
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
        // idle-only model makes them first sources, so solution keys repeat.
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
            for sol in &solutions {
                for to in [&updated, &original] {
                    let want = map_by_index(&original, to, sol);
                    assert!(want.as_ref().is_some_and(|m| !m.is_empty()));
                    assert_eq!(map_solution_faults(&original, to, sol), want);
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
