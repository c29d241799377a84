//! Reproduces the paper's headline surface-code claim at small scale: starting from a
//! coloration circuit, PropHunt automatically recovers a schedule whose effective
//! distance matches the hand-designed "N/Z" schedule.
//!
//! Run with `cargo run --release --example surface_code_recovery`.

use prophunt_suite::circuit::schedule::ScheduleSpec;
use prophunt_suite::core::{PropHunt, PropHuntConfig};
use prophunt_suite::qec::surface::rotated_surface_code_with_layout;

fn main() {
    for d in [3usize] {
        let (code, layout) = rotated_surface_code_with_layout(d);
        let coloration = ScheduleSpec::coloration(&code);
        let hand = ScheduleSpec::surface_hand_designed(&code, &layout);

        let prophunt = PropHunt::new(code.clone(), PropHuntConfig::quick(d));
        let d_eff_coloration = prophunt
            .estimate_effective_distance(&coloration, 15)
            .expect("coloration schedule is valid");
        let d_eff_hand = prophunt
            .estimate_effective_distance(&hand, 15)
            .expect("hand-designed schedule is valid");

        let result = prophunt
            .try_optimize(coloration)
            .expect("coloration schedule is valid");
        let d_eff_optimized = prophunt
            .estimate_effective_distance(&result.final_schedule, 15)
            .expect("the optimizer keeps the schedule valid");

        println!("=== surface code d = {d} ===");
        println!(
            "coloration circuit:   depth {:>2}, estimated d_eff {:?}",
            result.initial_schedule.depth().unwrap(),
            d_eff_coloration
        );
        println!(
            "hand-designed (N/Z):  depth {:>2}, estimated d_eff {:?}",
            hand.depth().unwrap(),
            d_eff_hand
        );
        println!(
            "PropHunt output:      depth {:>2}, estimated d_eff {:?} ({} changes applied)",
            result.final_depth(),
            d_eff_optimized,
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
