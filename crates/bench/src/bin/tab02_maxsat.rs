//! Table 2: MaxSAT model sizes and wall-clock times, global formulation vs ambiguous
//! subgraph formulation.

use prophunt::ambiguity::{find_ambiguous_subgraph, DecodingGraph};
use prophunt::minweight::{
    global_min_weight_logical_error, global_model_size, min_weight_logical_error,
    subgraph_model_size,
};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::MemoryBasis;
use prophunt_qec::product::generalized_bicycle;
use prophunt_qec::surface::rotated_surface_code_with_layout;
use prophunt_qec::CssCode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn row(name: &str, code: &CssCode, rounds: usize, global_budget: Duration) {
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
    // Subgraph formulation.
    let mut rng = StdRng::seed_from_u64(4);
    if let Some(sub) = (0..200).find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 80)) {
        let (sv, sc, ss) = subgraph_model_size(&sub);
        let start = std::time::Instant::now();
        let sol = min_weight_logical_error(&sub, Duration::from_secs(60));
        let stime = start.elapsed();
        let sresult = match sol {
            Some(s) => format!("{:.2} s (weight {})", stime.as_secs_f64(), s.weight),
            None => "timeout".to_string(),
        };
        println!(
            "{:<12} {:<9} {:>9} {:>12} {:>12} {:>28}",
            name, "subgraph", sv, sc, ss, sresult
        );
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
    row(
        "gb_18_2",
        &generalized_bicycle(9, &[0, 1], &[0, 3], "gb_18_2"),
        3,
        global_budget,
    );
    let d = if full { 7 } else { 3 };
    let (surface, _) = rotated_surface_code_with_layout(d);
    row(&format!("surface_d{d}"), &surface, d.min(5), global_budget);
    if full {
        row(
            "gb_36_2",
            &generalized_bicycle(18, &[0, 1], &[0, 5], "gb_36_2"),
            4,
            global_budget,
        );
    }
    println!("* the global formulation is expected to time out, as in the paper.");
}
