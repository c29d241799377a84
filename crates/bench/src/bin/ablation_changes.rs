//! Ablation: how much each change family (reordering vs rescheduling) contributes.
//! PropHunt is run with candidates filtered to one family at a time, and every
//! pruned candidate is counted under its rejection reason.

use prophunt::ambiguity::{find_ambiguous_subgraph, DecodingGraph};
use prophunt::changes::{check_candidate, enumerate_candidates, CandidateChange, Rejection};
use prophunt::minweight::min_weight_logical_error;
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::{MemoryBasis, NoiseModel, ScheduleEval};
use prophunt_qec::surface::rotated_surface_code_with_layout;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    let (code, layout) = rotated_surface_code_with_layout(3);
    let schedule = ScheduleSpec::surface_poor(&code, &layout);
    let graph = DecodingGraph::build(&code, &schedule, 3, MemoryBasis::Z, 1e-3).unwrap();
    let eval = ScheduleEval::new(schedule.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(15);
    let mut totals = [0usize; 2]; // enumerated [reorder, reschedule]
    let mut verified = [0usize; 2];
    // Rejections per family: [invalid, still ambiguous, still logical].
    let mut rejected = [[0usize; 3]; 2];
    let mut subgraphs = 0;
    for _ in 0..40 {
        let Some(sub) = find_ambiguous_subgraph(&graph, &mut rng, 60) else {
            continue;
        };
        let Some(sol) = min_weight_logical_error(&sub, Duration::from_secs(10)) else {
            continue;
        };
        subgraphs += 1;
        for candidate in enumerate_candidates(&graph, &code, &schedule, &sol, &mut rng) {
            let idx = match candidate {
                CandidateChange::Reorder { .. } => 0,
                CandidateChange::Reschedule { .. } => 1,
            };
            totals[idx] += 1;
            match check_candidate(
                &code,
                &eval,
                &candidate,
                &sub,
                &sol,
                &graph,
                3,
                MemoryBasis::Z,
                &NoiseModel::uniform_depolarizing(1e-3),
            ) {
                Ok(_) => verified[idx] += 1,
                Err(Rejection::Invalid) => rejected[idx][0] += 1,
                Err(Rejection::StillAmbiguous) => rejected[idx][1] += 1,
                Err(Rejection::StillLogical) => rejected[idx][2] += 1,
            }
        }
    }
    println!("Ablation: change families on the poor d=3 surface schedule ({subgraphs} subgraphs)");
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "family", "enumerated", "verified", "invalid", "ambiguous", "logical"
    );
    for (i, family) in ["reordering", "rescheduling"].into_iter().enumerate() {
        let [invalid, ambiguous, logical] = rejected[i];
        println!(
            "{family:<14} {:>12} {:>12} {invalid:>10} {ambiguous:>10} {logical:>10}",
            totals[i], verified[i]
        );
    }
}
