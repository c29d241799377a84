//! Table 1: the benchmark code suite, with the substituted LDPC instances' actual
//! parameters computed on the fly, and one quick reference `LerJob` per code run
//! through a shared `Session` (so the table carries a decoder sanity point with
//! throughput alongside the static parameters).

use prophunt_api::{NoiseSpec, ShotBudget};
use prophunt_bench::{bench_session, benchmark_suite, run_ler_point, write_bench_report};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_formats::report::ReportRecord;
use prophunt_formats::Json;
use prophunt_qec::distance::code_parameters;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let include_large = prophunt_bench::full_profile();
    let mut rng = StdRng::seed_from_u64(1);
    let mut session = bench_session();
    println!("Table 1: benchmark QEC codes (substitutions documented in README.md)");
    println!(
        "{:<14} {:>5} {:>4} {:>6} {:>12} {:>10}",
        "code", "n", "k", "d_est", "max weight", "params s"
    );
    let mut records = Vec::new();
    for bench in benchmark_suite(include_large) {
        let start = Instant::now();
        let params = code_parameters(&bench.code, 150, &mut rng);
        let wall_s = start.elapsed().as_secs_f64();
        println!(
            "{:<14} {:>5} {:>4} {:>6} {:>12} {:>10.3}",
            bench.code.name(),
            params.n,
            params.k,
            params.d_estimate,
            params.max_stabilizer_weight,
            wall_s
        );
        records.push(ReportRecord::Table {
            name: "code_parameters".into(),
            fields: vec![
                ("code".into(), Json::Str(bench.code.name().to_string())),
                ("n".into(), Json::UInt(params.n as u64)),
                ("k".into(), Json::UInt(params.k as u64)),
                ("d_est".into(), Json::UInt(params.d_estimate as u64)),
                (
                    "max_weight".into(),
                    Json::UInt(params.max_stabilizer_weight as u64),
                ),
                ("wall_s".into(), Json::Float(wall_s)),
            ],
        });
        // A quick coloration-schedule reference point per code: pins decoder
        // compatibility and records shots/sec throughput for the suite.
        let schedule = ScheduleSpec::coloration(&bench.code);
        let outcome = run_ler_point(
            &mut session,
            &bench.code,
            &schedule,
            bench.rounds.min(3),
            NoiseSpec::uniform(1e-3),
            ShotBudget::fixed(400),
            31,
        );
        records.push(outcome.to_record(format!("{}/reference", bench.code.name())));
    }
    let path = write_bench_report("tab01_codes", &records).expect("write benchmark report");
    println!("data written to {}", path.display());
}
