//! Reproduces the paper's headline surface-code claim at small scale: starting from a
//! coloration circuit, PropHunt automatically recovers a schedule whose effective
//! distance matches the hand-designed "N/Z" schedule.
//!
//! Run with `cargo run --release --example surface_code_recovery`.

use prophunt_suite::circuit::schedule::ScheduleSpec;
use prophunt_suite::circuit::MemoryBasis;
use prophunt_suite::core::{PropHunt, PropHuntConfig};
use prophunt_suite::qec::surface::rotated_surface_code_with_layout;

fn main() {
    for d in [3usize] {
        let (code, layout) = rotated_surface_code_with_layout(d);
        let coloration = ScheduleSpec::coloration(&code);
        let hand = ScheduleSpec::surface_hand_designed(&code, &layout);

        let prophunt = PropHunt::new(code.clone(), PropHuntConfig::quick(d));
        // Exact effective distance per memory basis, printed as "(Z, X)"; a
        // basis whose solve reaches the subset cap would print as "≥w".
        let d_eff = |schedule: &ScheduleSpec| {
            let [z, x] = [MemoryBasis::Z, MemoryBasis::X].map(|basis| {
                prophunt
                    .effective_distance(schedule, basis)
                    .expect("every schedule here is valid")
            });
            format!("({z}, {x})")
        };
        let d_eff_coloration = d_eff(&coloration);
        let d_eff_hand = d_eff(&hand);

        let result = prophunt
            .try_optimize(coloration)
            .expect("coloration schedule is valid");
        let d_eff_optimized = d_eff(&result.final_schedule);

        println!("=== surface code d = {d} ===");
        println!(
            "coloration circuit:   depth {:>2}, d_eff (Z, X) = {d_eff_coloration}",
            result.initial_schedule.depth().unwrap(),
        );
        println!(
            "hand-designed (N/Z):  depth {:>2}, d_eff (Z, X) = {d_eff_hand}",
            hand.depth().unwrap(),
        );
        println!(
            "PropHunt output:      depth {:>2}, d_eff (Z, X) = {d_eff_optimized} ({} changes applied)",
            result.final_depth(),
            result.total_changes_applied()
        );
        for record in &result.records {
            println!(
                "  iteration {:>2} [{:?}-basis]: {} subgraphs, weights {:?}, {} changes, depth {}",
                record.iteration,
                record.basis,
                record.subgraphs_found,
                record.solution_weights,
                record.changes_applied,
                record.depth
            );
        }
    }
}
