//! `prophunt optimize` — run the PropHunt loop as an `OptimizeJob` through the
//! `prophunt-api` Session, streaming iteration records as JSON-lines and writing
//! the final schedule as a file. `--resume` restarts from a previously written
//! schedule file.

use crate::args::{CliError, Flags};
use crate::common::{
    load_code, load_schedule, meta_record, noise_from_flags, runtime_from_flags,
    session_from_flags, write_file, write_metrics_file, write_trace_files,
};
use prophunt_api::{Event, ExperimentSpec, OptimizeJob, ScheduleSource};
use prophunt_formats::report::{iteration_to_record, ReportRecord};
use prophunt_formats::write_schedule;
use std::io::Write as _;

pub const USAGE: &str = "\
prophunt optimize --code <family-or-spec-file> [options]

  --code          code family (surface:3, ...) or path to a prophunt-code spec file
  --schedule      starting schedule: coloration (default), hand, or a schedule file
  --resume        start from a previously exported schedule file
                  (alias for --schedule <file>; the two are mutually exclusive)
  --rounds        syndrome-measurement rounds (default 3)
  --p             physical error rate (default 0.001)
  --noise         full noise spec to optimize against (depolarizing:<p>[:<idle>],
                  si1000:<p>, biased:<p>:<eta>[:<idle>]); conflicts with --p
  --iterations    optimization iterations (default 4)
  --samples       subgraph samples per iteration (default 40)
  --seed          base RNG seed (default 0)
  --threads       worker threads (default 4; wall-clock only)
  --chunk-size    deterministic chunk size (default 64)
  --out-schedule  where to write the final schedule (default optimized.schedule)
  --report        write JSON-lines iteration records to this file
                  (default: stream them to stdout)
  --metrics       write a meta + metrics JSON-lines pair (session registry
                  snapshot) to this file
  --trace         record a span-event trace of the run and write it to this
                  file (JSON-lines `trace` records) plus a Chrome trace-event /
                  Perfetto JSON sibling at <file>.chrome.json

The report stream starts with a `meta` provenance record; parsers treat it as
optional.";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "code",
            "schedule",
            "resume",
            "rounds",
            "p",
            "noise",
            "iterations",
            "samples",
            "seed",
            "threads",
            "chunk-size",
            "out-schedule",
            "report",
            "metrics",
            "trace",
        ],
    )?;
    if flags.get("schedule").is_some() && flags.get("resume").is_some() {
        return Err(CliError::usage(
            "--schedule and --resume are mutually exclusive",
        ));
    }
    let resolved = load_code(flags.require("code")?)?;
    let initial = load_schedule(flags.get("resume").or(flags.get("schedule")), &resolved)?;
    let rounds = flags.num("rounds", 3usize)?;
    if rounds == 0 {
        return Err(CliError::usage("--rounds must be at least 1"));
    }
    let runtime = runtime_from_flags(&flags)?;
    let noise = noise_from_flags(&flags)?;

    let code_name = resolved.code.name().to_string();
    let code_display = resolved.code.to_string();
    let spec = ExperimentSpec::builder()
        .resolved_code(resolved)
        .schedule(ScheduleSource::Explicit(initial.clone()))
        .noise(noise)
        .rounds(rounds)
        .build()
        .map_err(CliError::failure)?;
    let mut job = OptimizeJob::new(spec);
    job.iterations = flags.num("iterations", job.iterations)?;
    job.samples_per_iteration = flags.num("samples", job.samples_per_iteration)?;

    // The report sink: a file when --report is given, stdout otherwise. Records are
    // flushed line by line so a long run can be followed (or consumed) live.
    let mut sink: Box<dyn std::io::Write> = match flags.get("report") {
        Some(path) => Box::new(
            std::fs::File::create(path)
                .map_err(|e| CliError::failure(format!("cannot create {path}: {e}")))?,
        ),
        None => Box::new(std::io::stdout()),
    };
    let mut emit = |record: &ReportRecord| {
        writeln!(sink, "{}", record.to_json_line())
            .and_then(|()| sink.flush())
            .map_err(|e| CliError::failure(format!("cannot write report record: {e}")))
    };

    let meta = meta_record(&runtime, "");
    emit(&meta)?;
    emit(&ReportRecord::RunStart {
        code: code_name,
        seed: runtime.seed,
        chunk_size: runtime.chunk_size as u64,
        initial_depth: initial
            .depth()
            .map_err(|e| CliError::failure(format!("initial schedule has no layout: {e}")))?
            as u64,
        initial_schedule: write_schedule(&initial),
    })?;

    let (mut session, trace) = session_from_flags(&flags, runtime);
    // The unified event stream replaces the bespoke observer closure: iteration
    // events become `iteration` records as they complete.
    let mut stream_error: Option<CliError> = None;
    let outcome = session
        .run_optimize(&job, |event| {
            if let Event::Iteration(record) = event {
                if stream_error.is_none() {
                    stream_error = emit(&iteration_to_record(record)).err();
                }
            }
        })
        .map_err(|e| CliError::failure(format!("optimization failed: {e}")))?;
    if let Some(err) = stream_error {
        return Err(err);
    }
    let result = &outcome.result;

    emit(&ReportRecord::RunEnd {
        iterations: result.records.len() as u64,
        total_changes: result.total_changes_applied() as u64,
        final_depth: result.final_depth() as u64,
        final_schedule: write_schedule(&result.final_schedule),
    })?;

    let out_schedule = flags.get("out-schedule").unwrap_or("optimized.schedule");
    write_file(out_schedule, &write_schedule(&result.final_schedule))?;
    if let Some(path) = flags.get("metrics") {
        write_metrics_file(path, &meta, &session.metrics())?;
    }
    if let Some(sink) = &trace {
        write_trace_files(sink, &meta)?;
    }
    eprintln!(
        "optimized {}: {} iterations ({}), {} changes, final CNOT depth {}; schedule written to {}",
        code_display,
        result.records.len(),
        outcome.stop.as_str(),
        result.total_changes_applied(),
        result.final_depth(),
        out_schedule
    );
    Ok(())
}
