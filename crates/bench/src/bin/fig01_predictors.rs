//! Figure 1: circuit depth and effective distance are imperfect predictors of the
//! logical error rate. Generates many valid schedules for a surface code and prints
//! (depth, d_eff estimate, LER) triples; the paper's counterexamples correspond to rows
//! with equal depth / d_eff but different LER.

use prophunt::{PropHunt, PropHuntConfig};
use prophunt_bench::{combined_logical_error_rate, runtime_config_from_env, stage_seed};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_qec::surface::rotated_surface_code_with_layout;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = !prophunt_bench::full_profile();
    let d = if quick { 3 } else { 5 };
    let shots = if quick { 800 } else { 5_000 };
    let num_schedules = if quick { 6 } else { 20 };
    let runtime = runtime_config_from_env();
    let (code, layout) = rotated_surface_code_with_layout(d);
    let mut config = PropHuntConfig::quick(d);
    config.runtime = runtime.with_seed(stage_seed(&runtime, config.seed()));
    let prophunt = PropHunt::new(code.clone(), config);
    let mut rng = StdRng::seed_from_u64(2024);

    let mut schedules = vec![
        (
            "hand_designed".to_string(),
            ScheduleSpec::surface_hand_designed(&code, &layout),
        ),
        (
            "poor".to_string(),
            ScheduleSpec::surface_poor(&code, &layout),
        ),
        ("coloration".to_string(), ScheduleSpec::coloration(&code)),
    ];
    let mut added = 0;
    while added < num_schedules {
        let s = ScheduleSpec::random(&code, &mut rng);
        if s.validate(&code).is_ok() {
            schedules.push((format!("random_{added}"), s));
            added += 1;
        }
    }

    println!("Figure 1: depth and d_eff vs logical error rate (surface code d = {d}, p = 1e-3)");
    println!(
        "{:<16} {:>6} {:>6} {:>10}",
        "schedule", "depth", "d_eff", "LER"
    );
    for (name, schedule) in schedules {
        let depth = schedule.depth().unwrap();
        let deff = prophunt
            .estimate_effective_distance(&schedule, 8)
            .unwrap_or(0);
        let ler = combined_logical_error_rate(&code, &schedule, d, 1e-3, shots, 5, &runtime).rate();
        println!("{name:<16} {depth:>6} {deff:>6} {ler:>10.5}");
    }
}
