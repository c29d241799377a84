//! Pinned exact effective distances.
//!
//! `PropHunt::effective_distance` solves the minimum-weight logical error of
//! the whole decoding graph, one memory basis at a time, under the quick
//! profile (uniform depolarizing p = 1e-3; surface codes run d rounds, the
//! generalized-bicycle codes 3). Each pin is a `(Z, X)` pair. Every exact
//! answer carries a witness of weight `lower` that flips no detector and
//! flips an observable. On surface_d3 each weight is also the optimal global
//! MaxSAT weight.
//!
//! Code distances, solved by `minweight::code_distance` from a code's checks
//! and logicals, are pinned the same way, per stabilizer kind. On the
//! smallest codes an exhaustive search over all lighter error patterns
//! confirms each one.

use prophunt::minweight::{
    code_distance, global_min_weight_logical_error, is_undetected_logical_error,
};
use prophunt::{DecodingGraph, DistanceBound, PropHunt, PropHuntConfig};
use prophunt_circuit::{MemoryBasis, ScheduleSpec};
use prophunt_gf2::{BitMatrix, BitVec};
use prophunt_qec::product::{bivariate_bicycle, generalized_bicycle, hypergraph_product};
use prophunt_qec::small::steane_code;
use prophunt_qec::surface::{rotated_surface_code, rotated_surface_code_with_layout};
use prophunt_qec::{ClassicalCode, CssCode, StabilizerKind};
use std::time::Duration;

const KINDS: [StabilizerKind; 2] = [StabilizerKind::X, StabilizerKind::Z];

fn graph(prophunt: &PropHunt, schedule: &ScheduleSpec, basis: MemoryBasis) -> DecodingGraph {
    let config = prophunt.config();
    DecodingGraph::build_with_noise(
        prophunt.code(),
        schedule,
        config.rounds,
        basis,
        &config.noise,
    )
    .unwrap()
}

/// Solves `schedule` in `basis`, checks the answer is exact with a genuine
/// witness, and returns its weight.
fn exact(prophunt: &PropHunt, schedule: &ScheduleSpec, basis: MemoryBasis) -> usize {
    let bound = prophunt.effective_distance(schedule, basis).unwrap();
    let witness = bound.witness.as_ref().expect("solved under the cap");
    assert_eq!(witness.len(), bound.lower, "{basis:?}");
    let graph = graph(prophunt, schedule, basis);
    assert!(
        is_undetected_logical_error(&graph, witness),
        "{basis:?} witness {witness:?}"
    );
    bound.lower
}

fn exact_pair(prophunt: &PropHunt, schedule: &ScheduleSpec) -> (usize, usize) {
    (
        exact(prophunt, schedule, MemoryBasis::Z),
        exact(prophunt, schedule, MemoryBasis::X),
    )
}

fn surface(d: usize) -> (PropHunt, [ScheduleSpec; 3]) {
    let (code, layout) = rotated_surface_code_with_layout(d);
    let schedules = [
        ScheduleSpec::coloration(&code),
        ScheduleSpec::surface_hand_designed(&code, &layout),
        ScheduleSpec::surface_poor(&code, &layout),
    ];
    (PropHunt::new(code, PropHuntConfig::quick(d)), schedules)
}

fn gb_36_2(config: PropHuntConfig) -> (PropHunt, ScheduleSpec) {
    let code = generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2");
    let coloration = ScheduleSpec::coloration(&code);
    (PropHunt::new(code, config), coloration)
}

#[test]
fn surface_d3_distances_are_pinned_and_match_global_maxsat() {
    let (prophunt, [coloration, hand, poor]) = surface(3);
    assert_eq!(exact_pair(&prophunt, &coloration), (2, 3));
    assert_eq!(exact_pair(&prophunt, &hand), (3, 3));
    assert_eq!(exact_pair(&prophunt, &poor), (2, 3));
    for schedule in [&coloration, &hand, &poor] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let graph = graph(&prophunt, schedule, basis);
            let (maxsat, _) = global_min_weight_logical_error(&graph, Duration::from_secs(20));
            let maxsat = maxsat.expect("the global model solves at d = 3");
            assert!(maxsat.optimal);
            assert_eq!(
                maxsat.weight,
                exact(&prophunt, schedule, basis),
                "{basis:?}"
            );
        }
    }
}

#[test]
fn gb_18_2_coloration_distance_is_pinned() {
    let code = generalized_bicycle(9, &[0, 1], &[0, 3], "gb_18_2");
    let coloration = ScheduleSpec::coloration(&code);
    let prophunt = PropHunt::new(code, PropHuntConfig::quick(3));
    assert_eq!(exact_pair(&prophunt, &coloration), (3, 3));
}

#[test]
fn surface_d5_coloration_loses_distance_in_z_and_hand_keeps_it() {
    let (prophunt, [coloration, hand, _]) = surface(5);
    assert_eq!(exact_pair(&prophunt, &coloration), (3, 5));
    assert_eq!(exact_pair(&prophunt, &hand), (5, 5));
}

#[test]
fn gb_36_2_coloration_z_distance_is_pinned() {
    let (prophunt, coloration) = gb_36_2(PropHuntConfig::quick(3));
    assert_eq!(exact(&prophunt, &coloration, MemoryBasis::Z), 4);
}

#[test]
fn a_capped_solve_is_a_lower_bound_without_a_witness() {
    // One second buys 5M subsets: enough to exhaust weights 1-4 of gb_36_2's
    // X basis, not weight 5.
    let config = PropHuntConfig {
        maxsat_budget: Duration::from_secs(1),
        ..PropHuntConfig::quick(3)
    };
    let (prophunt, coloration) = gb_36_2(config);
    let bound = prophunt
        .effective_distance(&coloration, MemoryBasis::X)
        .unwrap();
    assert_eq!(
        bound,
        DistanceBound {
            lower: 5,
            witness: None
        }
    );
    assert_eq!(bound.exact(), None);
    assert_eq!(bound.to_string(), "≥5");
}

/// The checks that detect a `kind`-type error and the logicals it can flip,
/// spelled out here rather than taken from `code_distance`.
fn detecting(code: &CssCode, kind: StabilizerKind) -> (&BitMatrix, &BitMatrix) {
    match kind {
        StabilizerKind::X => (code.hz(), code.lz()),
        StabilizerKind::Z => (code.hx(), code.lx()),
    }
}

/// Solves `code`'s distance in `kind`, checks the answer is exact with a
/// witness of weight `lower` that no check detects and that flips a logical,
/// and returns its weight.
fn exact_code_distance(code: &CssCode, kind: StabilizerKind) -> usize {
    let bound = code_distance(code, kind, Duration::from_secs(20));
    let witness = bound.witness.as_ref().expect("solved under the cap");
    assert_eq!(witness.len(), bound.lower, "{} {kind}", code.name());
    let (h, l) = detecting(code, kind);
    let x = BitVec::from_indices(code.n(), witness);
    assert!(
        h.mul_vec(&x).is_zero(),
        "{} {kind} {witness:?}",
        code.name()
    );
    assert!(
        !l.mul_vec(&x).is_zero(),
        "{} {kind} {witness:?}",
        code.name()
    );
    bound.lower
}

/// Whether some error pattern of exactly `remaining` more qubits from
/// `start` on, added to `chosen`, is an undetected logical error.
fn any_logical(
    (h, l): (&BitMatrix, &BitMatrix),
    start: usize,
    remaining: usize,
    chosen: &mut Vec<usize>,
) -> bool {
    let n = h.num_cols();
    if remaining == 0 {
        let x = BitVec::from_indices(n, chosen);
        return h.mul_vec(&x).is_zero() && !l.mul_vec(&x).is_zero();
    }
    (start..n).any(|q| {
        chosen.push(q);
        let found = any_logical((h, l), q + 1, remaining - 1, chosen);
        chosen.pop();
        found
    })
}

/// Whether no `kind`-type logical operator of `code` is lighter than `d`, by
/// trying every error pattern of weight 1 to `d - 1`.
fn no_logical_lighter_than(code: &CssCode, kind: StabilizerKind, d: usize) -> bool {
    (1..d).all(|w| !any_logical(detecting(code, kind), 0, w, &mut Vec::new()))
}

fn gb_18_2_code() -> CssCode {
    generalized_bicycle(9, &[0, 1], &[0, 3], "gb_18_2")
}

#[test]
fn code_distances_are_pinned_in_both_kinds() {
    let rep3 = ClassicalCode::repetition(3);
    let pins = [
        (rotated_surface_code(3), 3),
        (rotated_surface_code(5), 5),
        (rotated_surface_code(7), 7),
        (steane_code(), 3),
        (hypergraph_product(&rep3, &rep3, "hgp33"), 3),
        (gb_18_2_code(), 3),
        (generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2"), 6),
        (
            bivariate_bicycle(
                6,
                6,
                &[(3, 0), (0, 1), (0, 2)],
                &[(0, 3), (1, 0), (2, 0)],
                "bb_72_12",
            ),
            6,
        ),
    ];
    for (code, d) in &pins {
        for kind in KINDS {
            assert_eq!(
                exact_code_distance(code, kind),
                *d,
                "{} {kind}",
                code.name()
            );
        }
        // A constructor that records a distance records the proved one.
        if let Some(known) = code.known_distance() {
            assert_eq!(known, *d, "{}", code.name());
        }
    }
}

#[test]
fn small_code_distances_match_the_exhaustive_oracle() {
    for code in [steane_code(), rotated_surface_code(3), gb_18_2_code()] {
        for kind in KINDS {
            let d = exact_code_distance(&code, kind);
            assert!(
                no_logical_lighter_than(&code, kind, d),
                "{} {kind}: a logical lighter than {d}",
                code.name()
            );
            // The oracle is not vacuous: it finds a logical of weight d.
            assert!(!no_logical_lighter_than(&code, kind, d + 1));
        }
    }
}
