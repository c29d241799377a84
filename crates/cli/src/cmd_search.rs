//! `prophunt search` — strategy-portfolio schedule search as a `SearchJob`
//! through the `prophunt-api` Session, streaming one `incumbent` JSON-lines
//! record per synchronized round (with per-strategy provenance) and writing
//! the best schedule as a file.

use crate::args::{CliError, Flags};
use crate::common::{
    load_code, load_schedule, meta_record, noise_from_flags, read_file, runtime_from_flags,
    session_from_flags, write_file, write_metrics_file, write_trace_files,
};
use prophunt_api::{Event, ExperimentSpec, ScheduleSource, SearchJob, StrategyKind};
use prophunt_formats::report::ReportRecord;
use prophunt_formats::{parse_report, parse_schedule, write_schedule};
use std::io::Write as _;

pub const USAGE: &str = "\
prophunt search --code <family-or-spec-file> [options]

  --code            code family (surface:3, ...) or path to a prophunt-code spec file
  --schedule        starting schedule: coloration (default), hand, or a schedule file
  --resume          re-seed the portfolio from a previous search report: the run
                    starts from the last `incumbent` record's embedded schedule
                    (mutually exclusive with --schedule)
  --strategies      comma-separated strategy mix (default: all four)
                    maxsat     MaxSAT-guided greedy descent (the PropHunt optimizer)
                    anneal     simulated annealing over coloration swaps
                    beam       greedy beam search over orderings
                    hillclimb  random-restart hill climbing
  --portfolio-size  parallel strategy instances; the mix is cycled to fill it
                    (default: one instance per listed strategy)
  --rounds          synchronized portfolio rounds (default 8)
  --proposals       mutation proposals per instance per round (default 24)
  --samples         MaxSAT-descent subgraph samples per iteration (default 20)
  --memory-rounds   syndrome-measurement rounds the MaxSAT arm analyses (default 3)
  --p               physical error rate for the MaxSAT arm (default 0.001)
  --idle            idle error strength for the MaxSAT arm (default 0)
  --noise           full noise spec for the MaxSAT arm (conflicts with --p/--idle)
  --seed            base RNG seed (default 0)
  --threads         worker threads (default 4; wall-clock only)
  --chunk-size      deterministic chunk size (default 64)
  --out-schedule    where to write the best schedule (default searched.schedule)
  --report          write JSON-lines incumbent records to this file
                    (default: stream them to stdout)
  --metrics         write a meta + metrics JSON-lines pair (session registry
                    snapshot: search counters, span histograms) to this file
  --trace           record a span-event trace of the run — including the
                    deterministic per-round / per-arm convergence diagnostics —
                    and write it to this file (JSON-lines `trace` records) plus
                    a Chrome trace-event sibling at <file>.chrome.json

The report stream starts with a `meta` provenance record; parsers treat it as
optional. The result is a pure function of (--seed, --chunk-size): the best
schedule and the whole incumbent record sequence are bit-identical at any
--threads.";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "code",
            "schedule",
            "resume",
            "strategies",
            "portfolio-size",
            "rounds",
            "proposals",
            "samples",
            "memory-rounds",
            "p",
            "idle",
            "noise",
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
    let initial = match flags.get("resume") {
        Some(path) => {
            let records = parse_report(&read_file(path)?)
                .map_err(|e| CliError::failure(format!("{path}: {e}")))?;
            let last_incumbent = records
                .iter()
                .rev()
                .find_map(|record| match record {
                    ReportRecord::Incumbent { schedule, .. } => Some(schedule.clone()),
                    _ => None,
                })
                .ok_or_else(|| {
                    CliError::failure(format!(
                        "{path}: no incumbent records to resume from (is this a search report?)"
                    ))
                })?;
            let schedule = parse_schedule(&last_incumbent)
                .map_err(|e| CliError::failure(format!("{path}: embedded schedule: {e}")))?;
            schedule.validate_for_code(&resolved.code).map_err(|e| {
                CliError::failure(format!(
                    "{path}: resumed schedule is not valid for this code: {e}"
                ))
            })?;
            schedule
        }
        None => load_schedule(flags.get("schedule"), &resolved)?,
    };
    let memory_rounds = flags.num("memory-rounds", 3usize)?;
    if memory_rounds == 0 {
        return Err(CliError::usage("--memory-rounds must be at least 1"));
    }
    let strategies =
        StrategyKind::parse_list(flags.get("strategies").unwrap_or("")).map_err(CliError::usage)?;
    let runtime = runtime_from_flags(&flags)?;
    let noise = noise_from_flags(&flags)?;

    let code_name = resolved.code.name().to_string();
    let code_display = resolved.code.to_string();
    let spec = ExperimentSpec::builder()
        .resolved_code(resolved)
        .schedule(ScheduleSource::Explicit(initial.clone()))
        .noise(noise)
        .rounds(memory_rounds)
        .build()
        .map_err(CliError::failure)?;
    let mut job = SearchJob::new(spec).with_strategies(strategies);
    job.portfolio_size = flags.num("portfolio-size", job.strategies.len())?;
    job.rounds = flags.num("rounds", job.rounds)?;
    if job.portfolio_size == 0 || job.rounds == 0 {
        return Err(CliError::usage(
            "--portfolio-size and --rounds must be at least 1",
        ));
    }
    job.proposals_per_round = flags.num("proposals", job.proposals_per_round)?;
    job.samples_per_iteration = flags.num("samples", job.samples_per_iteration)?;

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
    emit(&ReportRecord::SearchStart {
        code: code_name,
        seed: runtime.seed,
        chunk_size: runtime.chunk_size as u64,
        strategies: job
            .strategies
            .iter()
            .map(|s| s.name().to_string())
            .collect(),
        portfolio: job.portfolio_size as u64,
        rounds: job.rounds as u64,
        initial_depth: initial
            .depth()
            .map_err(|e| CliError::failure(format!("initial schedule has no layout: {e}")))?
            as u64,
        initial_schedule: write_schedule(&initial),
    })?;

    let (mut session, trace) = session_from_flags(&flags, runtime);
    let mut stream_error: Option<CliError> = None;
    let outcome = session
        .run_search(&job, |event| {
            if let Event::Incumbent {
                round,
                strategy,
                instance,
                depth,
                improved,
                schedule,
            } = event
            {
                if stream_error.is_none() {
                    stream_error = emit(&ReportRecord::Incumbent {
                        round: *round as u64,
                        strategy: strategy.clone(),
                        instance: *instance as u64,
                        depth: *depth as u64,
                        improved: *improved,
                        schedule: write_schedule(schedule),
                    })
                    .err();
                }
            }
        })
        .map_err(|e| CliError::failure(format!("search failed: {e}")))?;
    if let Some(err) = stream_error {
        return Err(err);
    }
    let best = &outcome.result.best;

    emit(&ReportRecord::SearchEnd {
        rounds: outcome.result.rounds.len() as u64,
        best_depth: best.depth as u64,
        best_strategy: best.strategy.to_string(),
        best_instance: best.instance as u64,
        final_schedule: write_schedule(&best.schedule),
    })?;

    let out_schedule = flags.get("out-schedule").unwrap_or("searched.schedule");
    write_file(out_schedule, &write_schedule(&best.schedule))?;
    if let Some(path) = flags.get("metrics") {
        write_metrics_file(path, &meta, &session.metrics())?;
    }
    if let Some(sink) = &trace {
        write_trace_files(sink, &meta)?;
    }
    eprintln!(
        "searched {}: {} rounds x {} instances ({}), CNOT depth {} -> {} (best from {}[{}] in \
         round {}); schedule written to {}",
        code_display,
        outcome.result.rounds.len(),
        job.portfolio_size,
        job.strategies
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(","),
        outcome.result.initial_depth,
        best.depth,
        best.strategy,
        best.instance,
        best.round,
        out_schedule
    );
    Ok(())
}
