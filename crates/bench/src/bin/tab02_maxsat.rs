//! Table 2: MaxSAT model sizes and wall-clock times, global formulation vs ambiguous
//! subgraph formulation.
//!
//! Each model also gets an `exact` row: the meet-in-the-middle solver the optimizer
//! uses, run on the same model. Under `global` it is the whole-graph effective
//! distance bound ([`min_weight`] on the graph's `H` and `L`) at the quick
//! optimizer budget; under `subgraph` it solves the same subgraph. The binary
//! exits nonzero if an exact weight differs from an optimal MaxSAT weight of its
//! model.

use prophunt::ambiguity::{find_ambiguous_subgraph, DecodingGraph};
use prophunt::minweight::{
    global_min_weight_logical_error, global_model_size, min_weight, min_weight_logical_error,
    min_weight_logical_error_maxsat, subgraph_model_size, MinWeightSolution,
};
use prophunt::PropHuntConfig;
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::MemoryBasis;
use prophunt_qec::product::generalized_bicycle;
use prophunt_qec::surface::rotated_surface_code_with_layout;
use prophunt_qec::CssCode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn print_row(name: &str, model: &str, size: Option<(usize, usize, usize)>, result: &str) {
    let (v, c, s) = size.map_or(("-".into(), "-".into(), "-".into()), |(v, c, s)| {
        (v.to_string(), c.to_string(), s.to_string())
    });
    println!("{name:<12} {model:<9} {v:>9} {c:>12} {s:>12} {result:>28}");
}

/// Whether an exact weight (`None`: the subset cap was reached) agrees with a
/// MaxSAT solve. Only an optimal MaxSAT weight is a reference.
fn agrees(
    name: &str,
    model: &str,
    exact: Option<usize>,
    maxsat: Option<&MinWeightSolution>,
) -> bool {
    match maxsat {
        Some(maxsat) if maxsat.optimal && exact != Some(maxsat.weight) => {
            eprintln!(
                "{name} {model}: exact weight {exact:?} differs from the optimal MaxSAT weight {}",
                maxsat.weight
            );
            false
        }
        _ => true,
    }
}

/// Prints one code's rows; returns `false` if an exact weight differs from an
/// optimal MaxSAT weight.
fn row(name: &str, code: &CssCode, rounds: usize, global_budget: Duration) -> bool {
    let schedule = ScheduleSpec::coloration(code);
    let graph = DecodingGraph::build(code, &schedule, rounds, MemoryBasis::Z, 1e-3).unwrap();
    // Global formulation, then the exact whole-graph solve.
    let start = Instant::now();
    let (gsol, _) = global_min_weight_logical_error(&graph, global_budget);
    let gtime = start.elapsed();
    let gresult = match &gsol {
        Some(s) if s.optimal => format!("{:.2} s (weight {})", gtime.as_secs_f64(), s.weight),
        Some(s) => format!("timeout* (incumbent weight {})", s.weight),
        None => "timeout*".to_string(),
    };
    print_row(name, "global", Some(global_model_size(&graph)), &gresult);
    let start = Instant::now();
    let (h, l) = (graph.dem().h_matrix(), graph.dem().l_matrix());
    let bound = min_weight(&h, &l, PropHuntConfig::quick(rounds).maxsat_budget);
    let etime = start.elapsed();
    let eresult = match bound.exact() {
        Some(w) => format!("{:.3} ms (weight {w})", etime.as_secs_f64() * 1e3),
        None => format!("cap reached (weight {bound})"),
    };
    print_row(name, "exact", None, &eresult);
    let mut agree = agrees(name, "global", bound.exact(), gsol.as_ref());
    // Subgraph formulation, then the exact solver on the same subgraph.
    let mut rng = StdRng::seed_from_u64(4);
    let Some(sub) = (0..200).find_map(|_| find_ambiguous_subgraph(&graph, &mut rng, 80)) else {
        return agree;
    };
    let start = Instant::now();
    let sol = min_weight_logical_error_maxsat(&sub, Duration::from_secs(60));
    let stime = start.elapsed();
    let sresult = match &sol {
        Some(s) => format!("{:.2} s (weight {})", stime.as_secs_f64(), s.weight),
        None => "timeout".to_string(),
    };
    print_row(name, "subgraph", Some(subgraph_model_size(&sub)), &sresult);
    let start = Instant::now();
    let exact = min_weight_logical_error(&sub, Duration::from_secs(60)).map(|e| e.weight);
    let etime = start.elapsed();
    let eresult = match exact {
        Some(w) => format!("{:.3} ms (weight {w})", etime.as_secs_f64() * 1e3),
        None => "cap reached".to_string(),
    };
    print_row(name, "exact", None, &eresult);
    agree &= agrees(name, "subgraph", exact, sol.as_ref());
    agree
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
    println!(
        "* timeout: MaxSAT ran out of its conflict budget before proving a weight optimal. \
         Each `exact` row solves the model above it."
    );
    if !agree {
        std::process::exit(1);
    }
}
