//! Table 1: the benchmark code suite, with the substituted LDPC instances' actual
//! parameters computed on the fly, and one quick reference `LerJob` per code run
//! through a shared `Session` (so the table carries a decoder sanity point with
//! throughput alongside the static parameters).
//!
//! `d_X` and `d_Z` are the minimum weights of an X- and a Z-type logical operator,
//! solved exactly by [`code_distance`] (`≥w` if the subset cap is reached first).
//! The binary exits 1 if a code's constructor records a distance that the exact
//! solve does not prove.

use prophunt::minweight::code_distance;
use prophunt_api::{NoiseSpec, ShotBudget};
use prophunt_bench::{bench_session, benchmark_suite, run_ler_point, write_bench_report};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_formats::report::ReportRecord;
use prophunt_formats::Json;
use prophunt_qec::StabilizerKind;
use std::time::{Duration, Instant};

/// Budget per distance solve: 100M subsets. surface_d9, the slowest suite
/// code, needs under a second.
const DISTANCE_BUDGET: Duration = Duration::from_secs(20);

fn main() {
    let include_large = prophunt_bench::full_profile();
    let mut session = bench_session();
    println!("Table 1: benchmark QEC codes (substitutions documented in README.md)");
    println!(
        "{:<14} {:>5} {:>4} {:>5} {:>5} {:>12} {:>10}",
        "code", "n", "k", "d_X", "d_Z", "max weight", "distance s"
    );
    let mut records = Vec::new();
    let mut disagreements = 0;
    for bench in benchmark_suite(include_large) {
        let code = &bench.code;
        let start = Instant::now();
        let dx = code_distance(code, StabilizerKind::X, DISTANCE_BUDGET);
        let dz = code_distance(code, StabilizerKind::Z, DISTANCE_BUDGET);
        let wall_s = start.elapsed().as_secs_f64();
        println!(
            "{:<14} {:>5} {:>4} {:>5} {:>5} {:>12} {:>10.3}",
            code.name(),
            code.n(),
            code.k(),
            dx,
            dz,
            code.max_stabilizer_weight(),
            wall_s
        );
        let exact = dx.exact().zip(dz.exact()).map(|(x, z)| x.min(z));
        if let Some(known) = code.known_distance() {
            if exact != Some(known) {
                eprintln!(
                    "{}: constructor distance {known}, exact (d_X, d_Z) = ({dx}, {dz})",
                    code.name()
                );
                disagreements += 1;
            }
        }
        records.push(ReportRecord::Table {
            name: "code".into(),
            fields: vec![
                ("code".into(), Json::Str(code.name().to_string())),
                ("n".into(), Json::UInt(code.n() as u64)),
                ("k".into(), Json::UInt(code.k() as u64)),
                ("d_x".into(), Json::UInt(dx.lower as u64)),
                ("d_z".into(), Json::UInt(dz.lower as u64)),
                ("exact".into(), Json::Bool(exact.is_some())),
                (
                    "max_weight".into(),
                    Json::UInt(code.max_stabilizer_weight() as u64),
                ),
                ("wall_s".into(), Json::Float(wall_s)),
            ],
        });
        // A quick coloration-schedule reference point per code: pins decoder
        // compatibility and records shots/sec throughput for the suite.
        let schedule = ScheduleSpec::coloration(code);
        let outcome = run_ler_point(
            &mut session,
            code,
            &schedule,
            bench.rounds.min(3),
            NoiseSpec::uniform(1e-3),
            ShotBudget::fixed(400),
            31,
        );
        records.push(outcome.to_record(format!("{}/reference", code.name())));
    }
    let path = write_bench_report("tab01_codes", &records).expect("write benchmark report");
    println!("data written to {}", path.display());
    if disagreements > 0 {
        std::process::exit(1);
    }
}
