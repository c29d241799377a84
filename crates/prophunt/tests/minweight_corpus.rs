//! Pinned minimum-weight corpus for the MaxSAT stage.
//!
//! Ambiguous subgraphs are drawn the way the optimizer's sample stage draws
//! them (seeded samples, deduplicated by detector set, the smallest kept) on
//! the `gb_36_2` coloration circuit in both memory bases and on the
//! `surface_d5` coloration circuit. Every solve's weight and optimality flag
//! is pinned, every solution is checked to be an undetected logical error of
//! its subgraph, and on subgraphs with a small null space the pinned weight
//! is cross-checked against exhaustive enumeration of `ker(H_sub)`.
//!
//! Any change to the solver may change *which* minimum-weight error comes
//! back, but never its weight: a weight that moves here is a solver bug.

use prophunt::ambiguity::{find_ambiguous_subgraph, AmbiguousSubgraph, DecodingGraph};
use prophunt::minweight::min_weight_logical_error;
use prophunt_circuit::{MemoryBasis, ScheduleSpec};
use prophunt_gf2::{BitMatrix, BitVec};
use prophunt_qec::product::generalized_bicycle;
use prophunt_qec::surface::rotated_surface_code;
use prophunt_qec::CssCode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Samples per corpus entry, expansion steps per sample and subgraphs kept:
/// the optimizer's quick defaults.
const SAMPLES: u64 = 40;
const MAX_STEPS: usize = 60;
const KEEP: usize = 6;
/// The quick configuration's MaxSAT budget.
const BUDGET: Duration = Duration::from_secs(20);
/// Largest null-space dimension enumerated exhaustively.
const MAX_KERNEL_DIM: usize = 16;

/// Draws the corpus subgraphs of one circuit: `SAMPLES` seeded expansions,
/// deduplicated by detector set, the `KEEP` smallest kept.
fn corpus(code: &CssCode, rounds: usize, basis: MemoryBasis, seed: u64) -> Vec<AmbiguousSubgraph> {
    let schedule = ScheduleSpec::coloration(code);
    let graph = DecodingGraph::build(code, &schedule, rounds, basis, 1e-3).unwrap();
    let mut found: Vec<AmbiguousSubgraph> = (0..SAMPLES)
        .filter_map(|i| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000).wrapping_add(i));
            find_ambiguous_subgraph(&graph, &mut rng, MAX_STEPS)
        })
        .collect();
    found.sort_by_key(|s| (s.errors.len(), s.detectors.clone()));
    found.dedup_by(|a, b| a.detectors == b.detectors);
    found.truncate(KEEP);
    found
}

/// The subgraph-local indicator vector of a solution's global error indices.
fn local_vector(sub: &AmbiguousSubgraph, errors: &[usize]) -> BitVec {
    let mut x = BitVec::zeros(sub.errors.len());
    for &e in errors {
        let local = sub
            .errors
            .binary_search(&e)
            .expect("solution errors lie inside the subgraph");
        x.flip(local);
    }
    x
}

/// The minimum weight of a vector in `ker(h)` that flips a row of `l`, found
/// by walking every element of the null space in Gray-code order; `None` when
/// the null space is larger than `2^MAX_KERNEL_DIM`.
fn exhaustive_min_weight(h: &BitMatrix, l: &BitMatrix) -> Option<usize> {
    let basis = h.kernel_basis();
    let dim = basis.num_rows();
    if dim > MAX_KERNEL_DIM {
        return None;
    }
    let mut x = BitVec::zeros(h.num_cols());
    let mut best: Option<usize> = None;
    for step in 1u64..(1 << dim) {
        x.xor_assign_with(basis.row(step.trailing_zeros() as usize));
        if !l.mul_vec(&x).is_zero() {
            let w = x.weight();
            best = Some(best.map_or(w, |b| b.min(w)));
        }
    }
    Some(best.expect("an ambiguous subgraph has a logical error in its null space"))
}

/// Solves every subgraph of one corpus entry, checks each solution, and
/// returns `(weight, optimal)` per subgraph plus how many were cross-checked
/// exhaustively.
fn solve_corpus(subgraphs: &[AmbiguousSubgraph]) -> (Vec<(usize, bool)>, usize) {
    let mut pins = Vec::new();
    let mut enumerated = 0;
    for (i, sub) in subgraphs.iter().enumerate() {
        let sol = min_weight_logical_error(sub, BUDGET).expect("the budget finds a model");
        assert_eq!(sol.weight, sol.errors.len(), "subgraph {i}");
        let x = local_vector(sub, &sol.errors);
        assert!(
            sub.h_sub.mul_vec(&x).is_zero(),
            "subgraph {i}: solution flips a subgraph detector"
        );
        assert!(
            !sub.l_sub.mul_vec(&x).is_zero(),
            "subgraph {i}: solution flips no observable"
        );
        if let Some(exact) = exhaustive_min_weight(&sub.h_sub, &sub.l_sub) {
            if sol.optimal {
                assert_eq!(sol.weight, exact, "subgraph {i}: weight is not minimum");
            } else {
                assert!(sol.weight >= exact, "subgraph {i}: weight below minimum");
            }
            enumerated += 1;
        }
        pins.push((sol.weight, sol.optimal));
    }
    (pins, enumerated)
}

fn gb_36_2() -> CssCode {
    generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2")
}

/// Weights and optimality flags of each corpus, recorded with the solver that
/// rebuilt a fresh `Solver` at every linear-search bound.
const GB36_Z_PINS: [(usize, bool); KEEP] = [
    (6, true),
    (6, true),
    (5, true),
    (5, true),
    (4, true),
    (5, true),
];
const GB36_X_PINS: [(usize, bool); KEEP] = [
    (6, true),
    (6, true),
    (6, true),
    (6, true),
    (6, true),
    (7, true),
];
const SURFACE_D5_PINS: [(usize, bool); KEEP] = [(3, true); KEEP];

#[test]
fn gb_36_2_z_corpus_weights_are_pinned() {
    let subgraphs = corpus(&gb_36_2(), 3, MemoryBasis::Z, 1);
    let (pins, enumerated) = solve_corpus(&subgraphs);
    assert_eq!(pins, GB36_Z_PINS);
    assert_eq!(enumerated, 0);
}

#[test]
fn gb_36_2_x_corpus_weights_are_pinned() {
    let subgraphs = corpus(&gb_36_2(), 3, MemoryBasis::X, 2);
    let (pins, enumerated) = solve_corpus(&subgraphs);
    assert_eq!(pins, GB36_X_PINS);
    assert_eq!(enumerated, 1);
}

#[test]
fn surface_d5_corpus_weights_are_pinned() {
    let subgraphs = corpus(&rotated_surface_code(5), 5, MemoryBasis::Z, 3);
    let (pins, enumerated) = solve_corpus(&subgraphs);
    assert_eq!(pins, SURFACE_D5_PINS);
    assert_eq!(enumerated, KEEP);
}
