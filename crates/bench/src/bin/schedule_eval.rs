//! Incremental vs from-scratch proposal-evaluation throughput on the Table 1
//! code suite.
//!
//! This is the bench behind the `ScheduleEval` engine's acceptance claim. For
//! every benchmark code — rotated surface d = 3..9, the generalized-bicycle
//! instances, and the bivariate-bicycle `bb_72_12` — it drives one seeded
//! hill-climbing walk over the shared move universe and evaluates **every**
//! proposal twice:
//!
//! * **from scratch** — clone the current [`ScheduleSpec`], apply the move's
//!   primitive operations, re-run the full `check_commutation` scan and the
//!   complete dependency-DAG relayering for the depth (exactly what
//!   `MoveSet::propose` did before the incremental engine);
//! * **incrementally** — `ScheduleEval::try_ops` on the walk's live evaluator
//!   (parity-counter commutation deltas + cone relayering), including the
//!   `revert` cost for rejected proposals.
//!
//! The two paths must agree on validity and depth for every single proposal
//! (the bin aborts loudly otherwise — this is the CI smoke assertion), and
//! the incremental path must never be slower. The committed
//! `BENCH_eval.json` records the full-profile run; `PROPHUNT_SMOKE=1` trims
//! the proposal budget for CI.

use prophunt_bench::{benchmark_suite, runtime_config_from_env, stage_seed};
use prophunt_circuit::schedule::eval::ScheduleEval;
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_formats::report::ReportRecord;
use prophunt_formats::{write_report, Json};
use prophunt_search::MoveSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

struct EvalRow {
    code: String,
    proposals: usize,
    accepted: usize,
    initial_depth: usize,
    final_depth: usize,
    scratch: Duration,
    incremental: Duration,
}

impl EvalRow {
    fn speedup(&self) -> f64 {
        self.scratch.as_secs_f64() / self.incremental.as_secs_f64().max(1e-12)
    }

    fn to_record(&self) -> ReportRecord {
        ReportRecord::Table {
            name: "schedule_eval".into(),
            fields: vec![
                ("code".into(), Json::Str(self.code.clone())),
                ("proposals".into(), Json::UInt(self.proposals as u64)),
                ("accepted".into(), Json::UInt(self.accepted as u64)),
                (
                    "initial_depth".into(),
                    Json::UInt(self.initial_depth as u64),
                ),
                ("final_depth".into(), Json::UInt(self.final_depth as u64)),
                (
                    "scratch_us_per_proposal".into(),
                    Json::Float(self.scratch.as_secs_f64() * 1e6 / self.proposals as f64),
                ),
                (
                    "incremental_us_per_proposal".into(),
                    Json::Float(self.incremental.as_secs_f64() * 1e6 / self.proposals as f64),
                ),
                ("speedup".into(), Json::Float(self.speedup())),
            ],
        }
    }
}

fn main() {
    let smoke = prophunt_bench::smoke_profile();
    let runtime = runtime_config_from_env();
    let proposals = if smoke { 300 } else { 3000 };
    println!("Proposal evaluation: incremental ScheduleEval vs from-scratch validate+depth");
    println!(
        "  {proposals} proposals per code, seed {} (PROPHUNT_SMOKE=1 trims the budget)",
        runtime.seed
    );
    println!(
        "{:<14} {:>9} {:>9} {:>7} {:>14} {:>14} {:>9}",
        "code", "proposals", "accepted", "depth", "scratch us/ev", "incr us/ev", "speedup"
    );
    let mut records = Vec::new();
    let mut suite_scratch = Duration::ZERO;
    let mut suite_incremental = Duration::ZERO;
    for (stage, bench) in benchmark_suite(true).into_iter().enumerate() {
        let code = bench.code;
        let initial = ScheduleSpec::coloration(&code);
        let initial_depth = initial.depth().unwrap();
        let moves = MoveSet::new(&initial);
        let mut eval = ScheduleEval::new(initial).unwrap();
        let mut rng = StdRng::seed_from_u64(stage_seed(&runtime, 60 + stage as u64));
        let mut current_depth = initial_depth;
        let mut accepted = 0usize;
        let mut t_scratch = Duration::ZERO;
        let mut t_incremental = Duration::ZERO;
        for _ in 0..proposals {
            let Some(mv) = moves.draw(eval.spec(), &mut rng) else {
                continue;
            };
            let ops = eval.resolve(&mv);

            // From-scratch path: exactly the pre-engine proposal evaluation.
            let t = Instant::now();
            let mut scratch = eval.spec().clone();
            for op in &ops {
                op.apply(&mut scratch);
            }
            let scratch_depth = if scratch.check_commutation(&code).is_ok() {
                scratch.depth().ok()
            } else {
                None
            };
            t_scratch += t.elapsed();

            // Incremental path (including the revert cost of rejections).
            let t = Instant::now();
            let incremental_depth = eval.try_ops(&ops);
            let keep = matches!(incremental_depth, Some(d) if d <= current_depth);
            if incremental_depth.is_some() {
                if keep {
                    eval.commit();
                } else {
                    eval.revert();
                }
            }
            t_incremental += t.elapsed();

            assert_eq!(
                incremental_depth,
                scratch_depth,
                "incremental and from-scratch evaluation disagree on {} (move {mv:?})",
                code.name()
            );
            if keep {
                current_depth = incremental_depth.unwrap();
                accepted += 1;
            }
        }
        let row = EvalRow {
            code: code.name().to_string(),
            proposals,
            accepted,
            initial_depth,
            final_depth: current_depth,
            scratch: t_scratch,
            incremental: t_incremental,
        };
        println!(
            "{:<14} {:>9} {:>9} {:>4}->{:<2} {:>14.2} {:>14.2} {:>8.1}x",
            row.code,
            row.proposals,
            row.accepted,
            row.initial_depth,
            row.final_depth,
            row.scratch.as_secs_f64() * 1e6 / row.proposals as f64,
            row.incremental.as_secs_f64() * 1e6 / row.proposals as f64,
            row.speedup()
        );
        // Per-code timing gates only run at the full budget: the smoke
        // profile's per-code windows are sub-millisecond on the small codes,
        // where one scheduler stall on a loaded CI runner could flip the
        // comparison with no code defect. (The depth-equality assert above is
        // the deterministic gate and always runs.)
        if !smoke {
            assert!(
                row.speedup() >= 1.0,
                "incremental evaluation must not be slower than from-scratch on {}",
                row.code
            );
        }
        suite_scratch += row.scratch;
        suite_incremental += row.incremental;
        records.push(row.to_record());
    }
    let suite_speedup = suite_scratch.as_secs_f64() / suite_incremental.as_secs_f64().max(1e-12);
    println!(
        "{:<14} {:>62} {:>8.1}x",
        "suite", "(aggregate proposal-evaluation throughput)", suite_speedup
    );
    assert!(
        suite_speedup >= 1.0,
        "incremental evaluation must not be slower than from-scratch on the suite"
    );
    records.push(ReportRecord::Table {
        name: "schedule_eval".into(),
        fields: vec![
            ("code".into(), Json::Str("suite".into())),
            ("speedup".into(), Json::Float(suite_speedup)),
        ],
    });
    if smoke {
        // Never clobber the committed full-profile baseline with trimmed
        // smoke numbers.
        println!("smoke mode: skipping BENCH_eval.json (baseline is the full profile)");
    } else {
        std::fs::write("BENCH_eval.json", write_report(&records))
            .expect("cannot write BENCH_eval.json");
        println!("wrote BENCH_eval.json ({} rows)", records.len());
    }
}
