//! Minimum-weight logical-error solving via MaxSAT (paper Section 5.2 and Table 2).

use crate::ambiguity::{AmbiguousSubgraph, DecodingGraph};
use prophunt_gf2::BitMatrix;
use prophunt_maxsat::{CnfBuilder, MaxSatOutcome, MaxSatSolver, MaxSatStats, Var};
use std::time::Duration;

/// Which formulation produced a model: the tractable per-subgraph one or the global
/// whole-circuit one (compared in the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Restricted to an ambiguous subgraph.
    Subgraph,
    /// The entire circuit-level decoding graph.
    Global,
}

/// A minimum-weight logical error found by the MaxSAT solver.
#[derive(Debug, Clone)]
pub struct MinWeightSolution {
    /// Global error-mechanism indices forming the logical error.
    pub errors: Vec<usize>,
    /// The weight (number of mechanisms) of the solution.
    pub weight: usize,
    /// Whether the solver proved optimality or hit its time budget with an incumbent.
    pub optimal: bool,
    /// Which formulation was solved.
    pub kind: ModelKind,
    /// Solver statistics (model size and wall-clock time, as in Table 2).
    pub stats: MaxSatStats,
}

/// Encodes the hard part of the MaxSAT model for a set of detectors (rows of `h`) and
/// error columns: XOR constraints forcing every syndrome to zero and a clause that at
/// least one logical observable is flipped. Returns the builder and the error variables.
fn encode(h: &BitMatrix, l: &BitMatrix) -> (CnfBuilder, Vec<Var>) {
    let mut builder = CnfBuilder::new();
    let error_vars = builder.new_vars(h.num_cols());
    // Syndrome parity constraints: every detector's incident errors XOR to false.
    for row in h.rows_iter() {
        let lits: Vec<_> = row.ones().map(|e| error_vars[e].positive()).collect();
        if !lits.is_empty() {
            builder.add_xor_constraint(&lits, false);
        }
    }
    // Logical observables: at least one flips.
    let mut observable_lits = Vec::new();
    for row in l.rows_iter() {
        let lits: Vec<_> = row.ones().map(|e| error_vars[e].positive()).collect();
        if !lits.is_empty() {
            observable_lits.push(builder.xor_to_lit(&lits));
        }
    }
    builder.add_clause(&observable_lits);
    (builder, error_vars)
}

/// Builds the MaxSAT model: the [`encode`]d hard constraints plus unit soft clauses
/// preferring every error off.
fn build_model(h: &BitMatrix, l: &BitMatrix) -> (MaxSatSolver, Vec<Var>) {
    let (builder, error_vars) = encode(h, l);
    let mut solver = MaxSatSolver::new(builder);
    for v in &error_vars {
        solver.add_soft_false(*v);
    }
    (solver, error_vars)
}

/// The whole-graph `(H, L)` of the global formulation: every detector, every error.
fn global_matrices(graph: &DecodingGraph) -> (BitMatrix, BitMatrix) {
    let all_detectors: Vec<usize> = (0..graph.num_detectors()).collect();
    let all_errors: Vec<usize> = (0..graph.num_errors()).collect();
    graph.matrices_for(&all_detectors, &all_errors)
}

fn extract_solution(
    outcome: &MaxSatOutcome,
    error_vars: &[Var],
    index_map: &[usize],
    kind: ModelKind,
    stats: MaxSatStats,
) -> Option<MinWeightSolution> {
    let model = outcome.model()?;
    let errors: Vec<usize> = error_vars
        .iter()
        .enumerate()
        .filter(|&(_i, v)| model[v.index()])
        .map(|(i, _v)| index_map[i])
        .collect();
    Some(MinWeightSolution {
        weight: errors.len(),
        errors,
        optimal: outcome.is_optimal(),
        kind,
        stats,
    })
}

/// Solves for a minimum-weight logical error inside an ambiguous subgraph.
///
/// Returns `None` only if the solver times out before finding any model (which cannot
/// happen for genuinely ambiguous subgraphs given a reasonable budget).
pub fn min_weight_logical_error(
    subgraph: &AmbiguousSubgraph,
    budget: Duration,
) -> Option<MinWeightSolution> {
    let (mut solver, vars) = build_model(&subgraph.h_sub, &subgraph.l_sub);
    let outcome = solver.solve(budget);
    let stats = solver.last_stats().expect("solve records stats");
    extract_solution(
        &outcome,
        &vars,
        &subgraph.errors,
        ModelKind::Subgraph,
        stats,
    )
}

/// Solves (or attempts to solve) the global formulation over the entire decoding graph,
/// as compared against the subgraph formulation in the paper's Table 2.
///
/// Returns the solution if one was found within the budget together with the model-size
/// statistics; for moderate codes the solver is expected to time out, in which case the
/// statistics are still returned.
pub fn global_min_weight_logical_error(
    graph: &DecodingGraph,
    budget: Duration,
) -> (Option<MinWeightSolution>, MaxSatStats) {
    let (h, l) = global_matrices(graph);
    let (mut solver, vars) = build_model(&h, &l);
    let outcome = solver.solve(budget);
    let stats = solver.last_stats().expect("solve records stats");
    let all_errors: Vec<usize> = (0..graph.num_errors()).collect();
    let solution = extract_solution(&outcome, &vars, &all_errors, ModelKind::Global, stats);
    (solution, stats)
}

/// Returns the model-size statistics (variables, hard clauses, soft clauses) of the
/// subgraph formulation without solving it — used by the Table 2 harness.
pub fn subgraph_model_size(subgraph: &AmbiguousSubgraph) -> (usize, usize, usize) {
    model_size_of(&subgraph.h_sub, &subgraph.l_sub)
}

/// Returns the model-size statistics of the global formulation without solving it.
pub fn global_model_size(graph: &DecodingGraph) -> (usize, usize, usize) {
    let (h, l) = global_matrices(graph);
    model_size_of(&h, &l)
}

fn model_size_of(h: &BitMatrix, l: &BitMatrix) -> (usize, usize, usize) {
    let (builder, _) = encode(h, l);
    (builder.num_vars(), builder.num_clauses(), h.num_cols())
}

/// Verifies that a claimed solution really is an undetected logical error of the graph:
/// its mechanisms flip no detector but flip at least one observable.
pub fn is_undetected_logical_error(graph: &DecodingGraph, errors: &[usize]) -> bool {
    let mut det = vec![false; graph.num_detectors()];
    let mut obs = vec![false; graph.dem().num_observables()];
    for &e in errors {
        let err = graph.dem().error(e);
        for &d in &err.detectors {
            det[d] = !det[d];
        }
        for &o in &err.observables {
            obs[o] = !obs[o];
        }
    }
    det.iter().all(|&x| !x) && obs.iter().any(|&x| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambiguity::find_ambiguous_subgraph;
    use prophunt_circuit::{MemoryBasis, ScheduleSpec};
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph_for(d: usize, poor: bool) -> DecodingGraph {
        let (code, layout) = rotated_surface_code_with_layout(d);
        let schedule = if poor {
            ScheduleSpec::surface_poor(&code, &layout)
        } else {
            ScheduleSpec::surface_hand_designed(&code, &layout)
        };
        DecodingGraph::build(&code, &schedule, d, MemoryBasis::Z, 1e-3).unwrap()
    }

    #[test]
    fn subgraph_solutions_are_genuine_logical_errors() {
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(3);
        let mut solved = 0;
        for _ in 0..10 {
            let Some(sub) = find_ambiguous_subgraph(&graph, &mut rng, 60) else {
                continue;
            };
            let solution = min_weight_logical_error(&sub, Duration::from_secs(20))
                .expect("ambiguous subgraphs always have a logical error");
            assert!(solution.weight >= 1);
            assert!(solution.optimal);
            assert_eq!(solution.kind, ModelKind::Subgraph);
            // The union of the two ambiguous explanations is undetected *within the
            // subgraph*: check it flips no subgraph detector but flips an observable.
            let mut det = vec![false; sub.detectors.len()];
            let mut obs_flipped = false;
            for &e in &solution.errors {
                let err = graph.dem().error(e);
                for &d in &err.detectors {
                    let pos = sub
                        .detectors
                        .iter()
                        .position(|&x| x == d)
                        .expect("in subgraph");
                    det[pos] = !det[pos];
                }
                obs_flipped ^= !err.observables.is_empty();
            }
            assert!(
                det.iter().all(|&x| !x),
                "solution must be undetected in the subgraph"
            );
            assert!(
                obs_flipped,
                "solution must flip an observable an odd number of times"
            );
            solved += 1;
        }
        assert!(solved > 0);
    }

    #[test]
    fn poor_schedule_has_lower_min_weight_than_good_schedule() {
        // The poor d=3 schedule has reduced effective distance; the hand-designed one
        // does not. Sampling min-weight logical errors should reflect that ordering.
        let mut rng = StdRng::seed_from_u64(5);
        let min_weight = |graph: &DecodingGraph, rng: &mut StdRng| -> usize {
            let mut best = usize::MAX;
            for _ in 0..12 {
                if let Some(sub) = find_ambiguous_subgraph(graph, rng, 60) {
                    if let Some(sol) = min_weight_logical_error(&sub, Duration::from_secs(10)) {
                        best = best.min(sol.weight);
                    }
                }
            }
            best
        };
        let poor = min_weight(&graph_for(3, true), &mut rng);
        let good = min_weight(&graph_for(3, false), &mut rng);
        assert!(poor <= good, "poor schedule weight {poor} vs good {good}");
        assert!(
            poor <= 2,
            "poor schedule should expose weight-2 logical errors, got {poor}"
        );
        assert!(
            good >= 2,
            "hand-designed schedule should not have weight-1 logical errors"
        );
    }

    #[test]
    fn global_model_is_much_larger_than_subgraph_model() {
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(9);
        let sub = (0..20)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .expect("subgraph found");
        let (sub_vars, sub_clauses, sub_soft) = subgraph_model_size(&sub);
        let (glob_vars, glob_clauses, glob_soft) = global_model_size(&graph);
        assert!(glob_vars > 5 * sub_vars, "{glob_vars} vs {sub_vars}");
        assert!(
            glob_clauses > 5 * sub_clauses,
            "{glob_clauses} vs {sub_clauses}"
        );
        assert!(glob_soft > 5 * sub_soft);
    }

    #[test]
    fn model_sizes_are_pinned_on_the_poor_surface_d3_schedule() {
        // (vars, hard clauses, soft clauses) of the Table 2 formulations on
        // surface_d3 `surface_poor`, subgraph seeded as in the test above.
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(9);
        let sub = (0..20)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .expect("subgraph found");
        assert_eq!(subgraph_model_size(&sub), (89, 251, 28));
        assert_eq!(global_model_size(&graph), (814, 2421, 215));
    }

    #[test]
    fn solution_weight_matches_error_count_and_stats_are_recorded() {
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(13);
        let sub = (0..20)
            .find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 60))
            .expect("subgraph found");
        let sol = min_weight_logical_error(&sub, Duration::from_secs(10)).unwrap();
        assert_eq!(sol.weight, sol.errors.len());
        assert!(sol.stats.num_soft_clauses >= sol.weight);
        assert!(sol.stats.num_variables > 0);
        assert!(sol.stats.iterations >= 1);
    }
}
