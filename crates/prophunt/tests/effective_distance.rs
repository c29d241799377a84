//! Pinned exact effective distances.
//!
//! `PropHunt::effective_distance` solves the minimum-weight logical error of
//! the whole decoding graph, one memory basis at a time, under the quick
//! profile (uniform depolarizing p = 1e-3; surface codes run d rounds, the
//! generalized-bicycle codes 3). Each pin is a `(Z, X)` pair. Every exact
//! answer carries a witness of weight `lower` that flips no detector and
//! flips an observable. On surface_d3 each weight is also the optimal global
//! MaxSAT weight.

use prophunt::minweight::{global_min_weight_logical_error, is_undetected_logical_error};
use prophunt::{DecodingGraph, DistanceBound, PropHunt, PropHuntConfig};
use prophunt_circuit::{MemoryBasis, ScheduleSpec};
use prophunt_qec::product::generalized_bicycle;
use prophunt_qec::surface::rotated_surface_code_with_layout;
use std::time::Duration;

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
