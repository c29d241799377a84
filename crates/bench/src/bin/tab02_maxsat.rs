//! Table 2: MaxSAT model sizes and wall-clock times, global formulation vs ambiguous
//! subgraph formulation.
//!
//! Each code also gets an `exact` row: the same subgraph solved by the exact
//! meet-in-the-middle solver the optimizer uses. The binary exits nonzero if
//! its weight differs from an optimal MaxSAT weight.

use prophunt::ambiguity::{find_ambiguous_subgraph, DecodingGraph};
use prophunt::minweight::{
    global_min_weight_logical_error, global_model_size, min_weight_logical_error,
    min_weight_logical_error_maxsat, subgraph_model_size,
};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::MemoryBasis;
use prophunt_qec::product::generalized_bicycle;
use prophunt_qec::surface::rotated_surface_code_with_layout;
use prophunt_qec::CssCode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Prints one code's rows; returns `false` if the exact solver's weight differs
/// from an optimal MaxSAT weight.
fn row(name: &str, code: &CssCode, rounds: usize, global_budget: Duration) -> bool {
    let schedule = ScheduleSpec::coloration(code);
    let graph = DecodingGraph::build(code, &schedule, rounds, MemoryBasis::Z, 1e-3).unwrap();
    // Global formulation.
    let (gv, gc, gs) = global_model_size(&graph);
    let start = std::time::Instant::now();
    let (gsol, _) = global_min_weight_logical_error(&graph, global_budget);
    let gtime = start.elapsed();
    let gresult = match gsol {
        Some(s) if s.optimal => format!("{:.2} s (weight {})", gtime.as_secs_f64(), s.weight),
        Some(s) => format!("timeout* (incumbent weight {})", s.weight),
        None => "timeout*".to_string(),
    };
    println!(
        "{:<12} {:<9} {:>9} {:>12} {:>12} {:>28}",
        name, "global", gv, gc, gs, gresult
    );
    // Subgraph formulation, then the exact solver on the same subgraph.
    let mut rng = StdRng::seed_from_u64(4);
    let Some(sub) = (0..200).find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 80)) else {
        return true;
    };
    let (sv, sc, ss) = subgraph_model_size(&sub);
    let start = std::time::Instant::now();
    let sol = min_weight_logical_error_maxsat(&sub, Duration::from_secs(60));
    let stime = start.elapsed();
    let sresult = match &sol {
        Some(s) => format!("{:.2} s (weight {})", stime.as_secs_f64(), s.weight),
        None => "timeout".to_string(),
    };
    println!(
        "{:<12} {:<9} {:>9} {:>12} {:>12} {:>28}",
        name, "subgraph", sv, sc, ss, sresult
    );
    let start = std::time::Instant::now();
    let exact = min_weight_logical_error(&sub, Duration::from_secs(60));
    let etime = start.elapsed();
    let eresult = match &exact {
        Some(s) => format!("{:.3} ms (weight {})", etime.as_secs_f64() * 1e3, s.weight),
        None => "cap reached".to_string(),
    };
    println!(
        "{:<12} {:<9} {:>9} {:>12} {:>12} {:>28}",
        name, "exact", "-", "-", "-", eresult
    );
    match (sol, exact) {
        (Some(maxsat), exact) if maxsat.optimal => {
            let agrees = exact.as_ref().map(|e| e.weight) == Some(maxsat.weight);
            if !agrees {
                eprintln!(
                    "{name}: exact weight {:?} differs from the optimal MaxSAT weight {}",
                    exact.map(|e| e.weight),
                    maxsat.weight
                );
            }
            agrees
        }
        _ => true,
    }
}

fn main() {
    let full = prophunt_bench::full_profile();
    let global_budget = Duration::from_secs(if full { 360 } else { 20 });
    println!("Table 2: MaxSAT model sizes, global vs ambiguous-subgraph formulation");
    println!(
        "{:<12} {:<9} {:>9} {:>12} {:>12} {:>28}",
        "code", "model", "vars", "hard clauses", "soft clauses", "wall clock"
    );
    let mut agree = row(
        "gb_18_2",
        &generalized_bicycle(9, &[0, 1], &[0, 3], "gb_18_2"),
        3,
        global_budget,
    );
    let d = if full { 7 } else { 3 };
    let (surface, _) = rotated_surface_code_with_layout(d);
    agree &= row(&format!("surface_d{d}"), &surface, d.min(5), global_budget);
    if full {
        agree &= row(
            "gb_36_2",
            &generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2"),
            4,
            global_budget,
        );
    }
    println!("* the global formulation is expected to time out, as in the paper.");
    if !agree {
        std::process::exit(1);
    }
}
