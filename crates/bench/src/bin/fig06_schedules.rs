//! Figure 6: logical performance of a d = 3 surface code under a good (hand-designed)
//! vs poor CNOT schedule, over a sweep of physical error rates.
//!
//! Runs every sweep point as a `LerJob` through one shared `Session`, so the two
//! schedules' memory experiments are each built once and reused across the p sweep.

use prophunt_api::{NoiseSpec, ShotBudget};
use prophunt_bench::{bench_session, run_ler_point, write_bench_report};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_qec::surface::rotated_surface_code_with_layout;

fn main() {
    let quick = !prophunt_bench::full_profile();
    let shots = if quick { 1_500 } else { 20_000 };
    let mut session = bench_session();
    let (code, layout) = rotated_surface_code_with_layout(3);
    let good = ScheduleSpec::surface_hand_designed(&code, &layout);
    let poor = ScheduleSpec::surface_poor(&code, &layout);
    println!("Figure 6: d = 3 surface code, good vs poor schedule ({shots} shots/point/basis)");
    println!("{:>10} {:>14} {:>14}", "p", "LER(good)", "LER(poor)");
    let ps = [2e-3, 5e-3, 1e-2, 2e-2];
    let mut records = Vec::new();
    for &p in &ps {
        let noise = NoiseSpec::uniform(p);
        let budget = ShotBudget::fixed(shots);
        let g = run_ler_point(&mut session, &code, &good, 3, noise, budget, 11);
        let b = run_ler_point(&mut session, &code, &poor, 3, noise, budget, 11);
        println!(
            "{p:>10.4} {:>14.5} {:>14.5}",
            g.combined.rate(),
            b.combined.rate()
        );
        records.push(g.to_record("good"));
        records.push(b.to_record("poor"));
    }
    let path = write_bench_report("fig06_schedules", &records).expect("write benchmark report");
    println!("data written to {}", path.display());
}
