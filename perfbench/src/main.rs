//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload at two threads. With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it replays each job through the
//! layers' public functions and reports the per-layer metrics, writing the
//! spans to `.perfbench/trace-<workload>-<seed>.jsonl` (readable by
//! `prophunt trace`). Human-readable lines go first; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exit codes: 0 success, 1 an output check failed, 2 usage
//! or set-up error, 3 the traced run failed (a replay did not reproduce its
//! job, or a job returned an error).

use perfbench::replay::{run_traced, PER_LAYER};
use perfbench::stats;
use perfbench::workload::{run_untraced, Profile, Workload, CHUNK_SIZE, THREADS};
use perfbench::{end_to_end, result_json};
use prophunt_formats::trace_event_to_record;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <optimize_gb36|search_surface_d5|ler_gb36|ler_surface_d5> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} threads {THREADS} chunk_size {CHUNK_SIZE} seconds {} available_parallelism {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    }
}

fn untraced(args: &Args) -> ExitCode {
    let report = match run_untraced(args.workload, &Profile::full(), args.seed, args.seconds) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = end_to_end(args.workload, &report);
    for (name, unit, value) in &metrics {
        println!("{name:<16} {value:>14.6} {unit}");
    }
    println!(
        "  setup_s: median of {} reps (quartiles {:.6} {:.6}); job_s: median of {} timed jobs after 1 warm-up{}",
        report.setup_s.len(),
        stats::quantile(&report.setup_s, 0.25),
        stats::quantile(&report.setup_s, 0.75),
        report.job_s.len(),
        stats::tail_percentile(&report.job_s)
            .map(|(p, v)| format!(", p{p} {v:.6} s"))
            .unwrap_or_default()
    );
    if let Some(failures) = report.warmup_failures {
        println!("  warm-up job: {failures} failures");
    }
    let walls: Vec<String> = report.job_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("  job walls (s): {}", walls.join(" "));
    for q in &report.quality {
        let n = q.estimate.shots as f64;
        let f = q.estimate.failures as f64;
        println!(
            "  quality run: {f} failures of {n} shots (binomial standard error {:.1}) in {:.3} s",
            (f * (1.0 - f / n)).sqrt(),
            q.wall.as_secs_f64()
        );
    }
    // Printed, not in the JSON line: allocator arenas, not the workload, move
    // it by a third from seed to seed on the small workloads.
    if let Some(mb) = stats::peak_rss_mb() {
        println!("peak_rss_mb      {mb:>14.6} MB (VmHWM)");
    }
    println!(
        "ops_failed_frac  {:>14.6} ratio ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    let correct = report.failed == 0;
    println!(
        "{}",
        result_json(correct, report.attempted, report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn traced(args: &Args) -> ExitCode {
    let report = match run_traced(args.workload, &Profile::full(), args.seed, args.seconds) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("traced run aborted: {e}");
            return ExitCode::from(3);
        }
    };
    let path = format!(
        ".perfbench/trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    );
    let mut text = String::new();
    for event in &report.log.events {
        text.push_str(&trace_event_to_record(event).to_json_line());
        text.push('\n');
    }
    match std::fs::create_dir_all(".perfbench").and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!(
            "trace: {} spans of {} replayed jobs -> {path}",
            report.log.events.len(),
            report.jobs
        ),
        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, report.metrics[name]))
        .collect();
    for (name, unit, value) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        result_json(
            report.failed == 0,
            report.attempted,
            report.failed,
            &metrics
        )
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
