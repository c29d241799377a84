//! Figure 12: PropHunt vs the coloration-circuit baseline (and the hand-designed circuit
//! where one exists) across the benchmark code suite.
//!
//! One shared `Session` runs the whole figure: each code's `OptimizeJob` followed by
//! the `LerJob` sweep of its baseline, optimized and hand-designed schedules.

use prophunt_api::{ExperimentSpec, NoiseSpec, OptimizeJob, ScheduleSource, Session, ShotBudget};
use prophunt_bench::{
    bench_session, benchmark_suite, run_ler_point, stage_seed, write_bench_report,
};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_formats::report::ReportRecord;
use prophunt_formats::Json;
use prophunt_qec::CssCode;

/// Stage label of the optimization jobs (mixed with `PROPHUNT_SEED`).
const OPTIMIZE_STAGE: u64 = 1;
/// Stage label of the LER sweep points.
const LER_STAGE: u64 = 21;

fn optimize(
    session: &mut Session,
    code: &CssCode,
    rounds: usize,
    full: bool,
) -> (ScheduleSpec, ReportRecord) {
    let baseline = ScheduleSpec::coloration(code);
    let spec = ExperimentSpec::builder()
        .code(code.clone())
        .schedule(ScheduleSource::Explicit(baseline.clone()))
        .rounds(rounds)
        .build()
        .expect("coloration schedule is valid");
    let mut job =
        OptimizeJob::new(spec).with_seed(stage_seed(session.runtime().config(), OPTIMIZE_STAGE));
    if full {
        job = job.paper_profile();
    } else {
        job = job.with_iterations(3).with_samples(30);
    }
    let outcome = session
        .run_optimize_quiet(&job)
        .expect("optimization job must run");
    let result = &outcome.result;
    println!(
        "== {} (depth {} -> {}, {} changes, {} in {:.1}s) ==",
        code,
        baseline.depth().unwrap(),
        result.final_depth(),
        result.total_changes_applied(),
        outcome.stop.as_str(),
        outcome.wall.as_secs_f64(),
    );
    let record = ReportRecord::Table {
        name: "fig12_optimization".into(),
        fields: vec![
            ("code".into(), Json::Str(code.name().to_string())),
            (
                "baseline_depth".into(),
                Json::UInt(baseline.depth().unwrap() as u64),
            ),
            (
                "final_depth".into(),
                Json::UInt(result.final_depth() as u64),
            ),
            (
                "changes".into(),
                Json::UInt(result.total_changes_applied() as u64),
            ),
            ("stop".into(), Json::Str(outcome.stop.as_str().to_string())),
            ("wall_s".into(), Json::Float(outcome.wall.as_secs_f64())),
        ],
    };
    (result.final_schedule.clone(), record)
}

fn main() {
    let full = prophunt_bench::full_profile();
    let shots = if full { 20_000 } else { 1_200 };
    let ps: &[f64] = if full {
        &[1e-3, 2e-3, 5e-3, 1e-2]
    } else {
        &[2e-3, 8e-3]
    };
    let mut session = bench_session();
    let mut records = Vec::new();
    println!("Figure 12: logical error rates, coloration start vs PropHunt end vs hand-designed");
    for bench in benchmark_suite(full) {
        let code = &bench.code;
        let rounds = bench.rounds.min(3);
        let baseline = ScheduleSpec::coloration(code);
        let (optimized, record) = optimize(&mut session, code, rounds, full);
        records.push(record);
        println!(
            "{:>10} {:>14} {:>14} {:>14}",
            "p", "coloration", "prophunt", "hand"
        );
        for &p in ps {
            let noise = NoiseSpec::uniform(p);
            let budget = ShotBudget::fixed(shots);
            let before = run_ler_point(
                &mut session,
                code,
                &baseline,
                rounds,
                noise,
                budget,
                LER_STAGE,
            );
            let after = run_ler_point(
                &mut session,
                code,
                &optimized,
                rounds,
                noise,
                budget,
                LER_STAGE,
            );
            let hand = bench
                .hand_designed
                .as_ref()
                .map(|h| run_ler_point(&mut session, code, h, rounds, noise, budget, LER_STAGE));
            records.push(before.to_record(format!("{}/coloration", code.name())));
            records.push(after.to_record(format!("{}/prophunt", code.name())));
            if let Some(h) = &hand {
                records.push(h.to_record(format!("{}/hand", code.name())));
            }
            let before = before.combined.rate();
            let after = after.combined.rate();
            match &hand {
                Some(h) => println!(
                    "{p:>10.4} {before:>14.5} {after:>14.5} {:>14.5}",
                    h.combined.rate()
                ),
                None => println!("{p:>10.4} {before:>14.5} {after:>14.5} {:>14}", "-"),
            }
        }
    }
    let path = write_bench_report("fig12_benchmark", &records).expect("write benchmark report");
    println!("data written to {}", path.display());
}
