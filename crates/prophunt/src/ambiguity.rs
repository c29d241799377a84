//! The circuit-level decoding graph and ambiguous-subgraph finding (paper Sections 4
//! and 5.1).

use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_gf2::BitMatrix;
use prophunt_qec::CssCode;
use rand::Rng;

/// The bipartite circuit-level decoding graph PropHunt operates on: error mechanisms on
/// one side, detectors (syndrome bits) on the other, plus the observable matrix `L`.
///
/// A `DecodingGraph` owns its detector error model and the experiment it came from, so
/// error mechanisms can be traced back to the circuit gates that cause them.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    experiment: MemoryExperiment,
    dem: DetectorErrorModel,
    /// detector -> error mechanisms flipping it
    detector_errors: Vec<Vec<usize>>,
}

impl DecodingGraph {
    /// Builds the decoding graph of `code` under `schedule` for a memory experiment in
    /// `basis` with `rounds` rounds and uniform depolarizing noise at physical error
    /// rate `p` (shorthand for [`Self::build_with_noise`] with
    /// [`NoiseModel::uniform_depolarizing`]).
    ///
    /// # Errors
    ///
    /// Returns a [`prophunt_circuit::CircuitError`] if the schedule is invalid.
    pub fn build(
        code: &CssCode,
        schedule: &prophunt_circuit::ScheduleSpec,
        rounds: usize,
        basis: MemoryBasis,
        p: f64,
    ) -> Result<Self, prophunt_circuit::CircuitError> {
        Self::build_with_noise(
            code,
            schedule,
            rounds,
            basis,
            &NoiseModel::uniform_depolarizing(p),
        )
    }

    /// Builds the decoding graph under an arbitrary [`NoiseModel`] — the entry point
    /// for optimizing against non-uniform models (SI1000-style, biased).
    ///
    /// # Errors
    ///
    /// Returns a [`prophunt_circuit::CircuitError`] if the schedule is invalid.
    pub fn build_with_noise(
        code: &CssCode,
        schedule: &prophunt_circuit::ScheduleSpec,
        rounds: usize,
        basis: MemoryBasis,
        noise: &NoiseModel,
    ) -> Result<Self, prophunt_circuit::CircuitError> {
        let experiment = MemoryExperiment::build(code, schedule, rounds, basis)?;
        let dem = DetectorErrorModel::from_experiment(&experiment, noise);
        Ok(Self::from_parts(experiment, dem))
    }

    /// Wraps an existing experiment and detector error model.
    pub fn from_parts(experiment: MemoryExperiment, dem: DetectorErrorModel) -> Self {
        let detector_errors = dem.detector_to_errors();
        DecodingGraph {
            experiment,
            dem,
            detector_errors,
        }
    }

    /// Returns the underlying memory experiment.
    pub fn experiment(&self) -> &MemoryExperiment {
        &self.experiment
    }

    /// Returns the underlying detector error model.
    pub fn dem(&self) -> &DetectorErrorModel {
        &self.dem
    }

    /// Returns the number of error nodes.
    pub fn num_errors(&self) -> usize {
        self.dem.num_errors()
    }

    /// Returns the number of syndrome (detector) nodes.
    pub fn num_detectors(&self) -> usize {
        self.dem.num_detectors()
    }

    /// Returns the submatrices `(H', L')` restricted to the given detector set and the
    /// error mechanisms connected *only* to those detectors.
    ///
    /// `detectors` must be sorted and duplicate-free (as
    /// [`AmbiguousSubgraph::detectors`] is); rows of `H'` follow its order. The
    /// returned error list gives the global mechanism index of each column.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is not strictly increasing.
    pub fn restricted_matrices(&self, detectors: &[usize]) -> (BitMatrix, BitMatrix, Vec<usize>) {
        assert!(
            detectors.windows(2).all(|w| w[0] < w[1]),
            "detectors must be sorted and duplicate-free"
        );
        let (contained, _frontier) = self.adjacent_errors(detectors);
        let (h, l) = self.contained_matrices(detectors, &contained);
        (h, l, contained)
    }

    /// Walks the error mechanisms adjacent to the sorted detector set once and splits
    /// them into those connected only to `detectors` (returned sorted: the columns of
    /// `H'`/`L'`) and the rest (the expansion frontier, in first-seen order).
    ///
    /// A mechanism is seen first at its smallest detector inside the set, so no
    /// seen-set is needed: a visit is skipped as soon as an earlier detector of the
    /// mechanism turns out to be in the set.
    fn adjacent_errors(&self, detectors: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut contained = Vec::new();
        let mut frontier = Vec::new();
        for &d in detectors {
            'errors: for &e in &self.detector_errors[d] {
                let mut inside = true;
                for &x in &self.dem.error(e).detectors {
                    if detectors.binary_search(&x).is_ok() {
                        if x < d {
                            continue 'errors;
                        }
                    } else {
                        inside = false;
                        if x > d {
                            break;
                        }
                    }
                }
                if inside {
                    contained.push(e);
                } else {
                    frontier.push(e);
                }
            }
        }
        contained.sort_unstable();
        (contained, frontier)
    }

    /// Returns `(H', L')` over the sorted detector set for mechanisms it contains.
    fn contained_matrices(&self, detectors: &[usize], errors: &[usize]) -> (BitMatrix, BitMatrix) {
        let mut h = BitMatrix::zeros(detectors.len(), errors.len());
        let mut l = BitMatrix::zeros(self.dem.num_observables(), errors.len());
        for (col, &e) in errors.iter().enumerate() {
            let err = self.dem.error(e);
            for &d in &err.detectors {
                let row = detectors
                    .binary_search(&d)
                    .expect("a contained mechanism's detectors lie in the set");
                h.set(row, col, true);
            }
            for &o in &err.observables {
                l.set(o, col, true);
            }
        }
        (h, l)
    }
}

/// Returns `true` if the pair `(H', L')` contains ambiguity: some logical-observable row
/// is *not* implied by the syndrome rows, i.e. `L' ⊄ rowspace(H')` (paper Section 4.1).
pub fn is_ambiguous(h_sub: &BitMatrix, l_sub: &BitMatrix) -> bool {
    if l_sub.is_zero() {
        return false;
    }
    !h_sub.row_space_contains_all(l_sub)
}

/// An ambiguous subgraph of the decoding graph: a connected set of detectors whose
/// contained error mechanisms admit two explanations of some syndrome assignment with
/// different logical effects.
#[derive(Debug, Clone)]
pub struct AmbiguousSubgraph {
    /// The detector (syndrome-node) indices of the subgraph, sorted.
    pub detectors: Vec<usize>,
    /// The error mechanisms connected only to those detectors (global indices, sorted).
    pub errors: Vec<usize>,
    /// `H'` restricted to the subgraph (rows parallel to `detectors`).
    pub h_sub: BitMatrix,
    /// `L'` restricted to the subgraph.
    pub l_sub: BitMatrix,
}

/// Expands a random connected subgraph of `graph` until it contains ambiguity
/// (paper Section 5.1).
///
/// Starting from a random error node, the subgraph repeatedly adds an error node adjacent
/// to an already-included syndrome node together with that error's syndrome nodes; error
/// nodes connected only to included syndromes join automatically (they are what
/// [`DecodingGraph::restricted_matrices`] collects). Each step walks the adjacent
/// error nodes once, splitting them into those contained columns and the frontier the
/// next error node is drawn from. Expansion stops as soon as the restricted
/// `(H', L')` pair is ambiguous, or gives up after `max_steps` expansions.
pub fn find_ambiguous_subgraph<R: Rng>(
    graph: &DecodingGraph,
    rng: &mut R,
    max_steps: usize,
) -> Option<AmbiguousSubgraph> {
    if graph.num_errors() == 0 {
        return None;
    }
    let start = rng.gen_range(0..graph.num_errors());
    // Mechanism detector lists are sorted and duplicate-free.
    let mut detectors = graph.dem().error(start).detectors.clone();
    if detectors.is_empty() {
        return None;
    }
    for _ in 0..max_steps {
        let (errors, frontier) = graph.adjacent_errors(&detectors);
        let (h_sub, l_sub) = graph.contained_matrices(&detectors, &errors);
        if is_ambiguous(&h_sub, &l_sub) {
            return Some(AmbiguousSubgraph {
                detectors,
                errors,
                h_sub,
                l_sub,
            });
        }
        if frontier.is_empty() {
            return None;
        }
        let chosen = frontier[rng.gen_range(0..frontier.len())];
        for &x in &graph.dem().error(chosen).detectors {
            if let Err(at) = detectors.binary_search(&x) {
                detectors.insert(at, x);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_circuit::ScheduleSpec;
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
    fn ambiguity_predicate_matches_rank_definition() {
        // L in rowspace(H): unambiguous.
        let h = BitMatrix::from_rows_u8(&[&[1, 1, 0], &[0, 1, 1]]);
        let l = BitMatrix::from_rows_u8(&[&[1, 0, 1]]);
        assert!(!is_ambiguous(&h, &l));
        // L not in rowspace(H): ambiguous.
        let l2 = BitMatrix::from_rows_u8(&[&[1, 0, 0]]);
        assert!(is_ambiguous(&h, &l2));
        // Zero L can never be ambiguous.
        assert!(!is_ambiguous(&h, &BitMatrix::zeros(1, 3)));
    }

    #[test]
    fn restricted_matrices_collect_contained_errors_only() {
        let graph = graph_for(3, false);
        let all: Vec<usize> = (0..graph.num_detectors()).collect();
        let (h, l, errors) = graph.restricted_matrices(&all);
        // With every detector included, every error is contained.
        assert_eq!(errors.len(), graph.num_errors());
        assert_eq!(h.num_rows(), graph.num_detectors());
        assert_eq!(l.num_rows(), 1);
        // A single detector contains only errors fully local to it.
        let (h1, _, e1) = graph.restricted_matrices(&all[..1]);
        assert!(e1.len() < graph.num_errors());
        assert_eq!(h1.num_rows(), 1);
        for &e in &e1 {
            assert_eq!(graph.dem().error(e).detectors, vec![all[0]]);
        }
    }

    #[test]
    fn full_graph_of_any_schedule_is_ambiguous() {
        // The complete decoding graph always contains ambiguity (the code has logical
        // operators), so expansion must eventually terminate.
        for poor in [false, true] {
            let graph = graph_for(3, poor);
            let all: Vec<usize> = (0..graph.num_detectors()).collect();
            let (h, l, _) = graph.restricted_matrices(&all);
            assert!(is_ambiguous(&h, &l));
        }
    }

    #[test]
    fn subgraph_finder_terminates_and_returns_ambiguous_subgraphs() {
        let graph = graph_for(3, true);
        let mut rng = StdRng::seed_from_u64(7);
        let mut found = 0;
        for _ in 0..20 {
            if let Some(sub) = find_ambiguous_subgraph(&graph, &mut rng, 60) {
                assert!(is_ambiguous(&sub.h_sub, &sub.l_sub));
                assert!(!sub.detectors.is_empty());
                assert_eq!(sub.h_sub.num_rows(), sub.detectors.len());
                assert_eq!(sub.h_sub.num_cols(), sub.errors.len());
                found += 1;
            }
        }
        assert!(
            found > 0,
            "expected at least one ambiguous subgraph in 20 attempts"
        );
    }

    #[test]
    fn poor_schedule_subgraphs_are_smaller_on_average() {
        // The poor schedule has lower effective distance, so ambiguity should typically
        // be found in smaller subgraphs than for the hand-designed schedule.
        let poor = graph_for(3, true);
        let good = graph_for(3, false);
        let mut rng = StdRng::seed_from_u64(11);
        let avg_size = |g: &DecodingGraph, rng: &mut StdRng| -> f64 {
            let mut total = 0usize;
            let mut count = 0usize;
            for _ in 0..15 {
                if let Some(sub) = find_ambiguous_subgraph(g, rng, 80) {
                    total += sub.errors.len();
                    count += 1;
                }
            }
            total as f64 / count.max(1) as f64
        };
        let poor_avg = avg_size(&poor, &mut rng);
        let good_avg = avg_size(&good, &mut rng);
        assert!(
            poor_avg <= good_avg * 1.5,
            "poor-schedule subgraphs unexpectedly large: {poor_avg} vs {good_avg}"
        );
    }
}
