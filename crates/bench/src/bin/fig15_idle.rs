//! Figure 15: sensitivity of the benchmark circuits to idle errors between gate layers,
//! with the paper's hardware points (superconducting, neutral atom, atom movement).
//!
//! Each (code, idle) point is a `LerJob` through one shared `Session`; the memory
//! experiments are built once per code and reused across every idle strength.

use prophunt_api::{NoiseSpec, ShotBudget};
use prophunt_bench::{bench_session, benchmark_suite, run_ler_point, write_bench_report};
use prophunt_circuit::schedule::ScheduleSpec;

fn main() {
    let full = prophunt_bench::full_profile();
    let shots = if full { 10_000 } else { 800 };
    let gate_p = 1e-3;
    let mut session = bench_session();
    // Idle error strength = t_gate / T_coherence. Hardware points from the paper's cited
    // numbers: superconducting (~30 ns / 100 us), neutral atoms (~300 ns / 10 s gates but
    // ~1 ms measurement), movement-based atoms (~500 us movement / 10 s).
    let idle_points: &[(f64, &str)] = &[
        (0.0, "no idle"),
        (3e-5, "neutral atom"),
        (3e-4, "superconducting"),
        (5e-3, "atom movement"),
        (2e-2, "(stress)"),
    ];
    println!("Figure 15: idle-error sensitivity at gate error {gate_p}");
    println!(
        "{:<14} {:>14} {:>10} {:>14}",
        "code", "idle strength", "label", "LER"
    );
    let mut records = Vec::new();
    for bench in benchmark_suite(false) {
        let schedule = match &bench.hand_designed {
            Some(h) => h.clone(),
            None => ScheduleSpec::coloration(&bench.code),
        };
        let rounds = bench.rounds.min(3);
        for &(idle, label) in idle_points {
            let outcome = run_ler_point(
                &mut session,
                &bench.code,
                &schedule,
                rounds,
                NoiseSpec::Depolarizing { p: gate_p, idle },
                ShotBudget::fixed(shots),
                17,
            );
            println!(
                "{:<14} {:>14.1e} {:>10} {:>14.5}",
                bench.code.name(),
                idle,
                label,
                outcome.combined.rate()
            );
            records.push(outcome.to_record(format!("{}/{label}", bench.code.name())));
        }
    }
    let path = write_bench_report("fig15_idle", &records).expect("write benchmark report");
    println!("data written to {}", path.display());
}
