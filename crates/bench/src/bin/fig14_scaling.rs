//! Figure 14: scaling of the ambiguous-subgraph MaxSAT formulation — model size and solve
//! time as a function of the weight (d_eff proxy) of the logical error found.

use prophunt::ambiguity::{find_ambiguous_subgraph, DecodingGraph};
use prophunt::minweight::min_weight_logical_error_maxsat;
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::MemoryBasis;
use prophunt_qec::surface::rotated_surface_code_with_layout;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    let full = prophunt_bench::full_profile();
    let samples = if full { 1000 } else { 60 };
    let distances: &[usize] = if full { &[3, 5, 7] } else { &[3, 5] };
    println!("Figure 14: subgraph MaxSAT scaling ({samples} samples per code)");
    println!(
        "{:<12} {:>7} {:>9} {:>12} {:>12} {:>12}",
        "code", "weight", "samples", "vars(avg)", "clauses(avg)", "time(avg ms)"
    );
    for &d in distances {
        let (code, layout) = rotated_surface_code_with_layout(d);
        // The poor schedule exposes a range of logical-error weights as optimization
        // would encounter them.
        let schedule = ScheduleSpec::surface_poor(&code, &layout);
        let graph = DecodingGraph::build(&code, &schedule, d.min(3), MemoryBasis::Z, 1e-3).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        use std::collections::BTreeMap;
        let mut by_weight: BTreeMap<usize, (usize, f64, f64, f64)> = BTreeMap::new();
        for _ in 0..samples {
            let Some(sub) = find_ambiguous_subgraph(&graph, &mut rng, 80) else {
                continue;
            };
            let start = std::time::Instant::now();
            let Some(sol) = min_weight_logical_error_maxsat(&sub, Duration::from_secs(30)) else {
                continue;
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let entry = by_weight.entry(sol.weight).or_insert((0, 0.0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += sol.stats.num_variables as f64;
            entry.2 += sol.stats.num_hard_clauses as f64;
            entry.3 += ms;
        }
        for (weight, (count, vars, clauses, ms)) in by_weight {
            println!(
                "{:<12} {:>7} {:>9} {:>12.0} {:>12.0} {:>12.2}",
                format!("surface_d{d}"),
                weight,
                count,
                vars / count as f64,
                clauses / count as f64,
                ms / count as f64
            );
        }
    }
}
