//! `prophunt ler` — Monte-Carlo logical-error-rate estimation through the
//! `prophunt-api` Session/Job surface, honoring the deterministic
//! `(seed, chunk_size)` contract — including for adaptively stopped budgets.

use crate::args::{CliError, Flags};
use crate::common::{
    append_records, basis_selection_from_flags, budget_from_flags, decoder_from_flags, load_code,
    load_schedule, meta_record, noise_from_flags, read_file, runtime_from_flags,
    session_from_flags, write_metrics_file, write_trace_files,
};
use prophunt_api::{ExperimentSpec, LerJob, LerOptions, LerOutcome, ScheduleSource, StopReason};
use prophunt_formats::parse_dem;
use prophunt_formats::report::ReportRecord;

pub const USAGE: &str = "\
prophunt ler --dem <file> [options]
prophunt ler --code <family-or-spec-file> [--schedule <s>] [options]

  --dem           estimate from an exported .dem file
  --code          estimate from a code (family string or spec file) ...
  --schedule      ... with this schedule: coloration (default), hand, or a file
  --basis         memory basis for --code: z (default), x, or both
  --rounds        rounds for --code (default 3)
  --p             physical error rate for --code (default 0.001)
  --idle          idle error strength for --code (default 0)
  --noise         full noise spec for --code (depolarizing:<p>[:<idle>],
                  si1000:<p>, biased:<p>:<eta>[:<idle>]); conflicts with --p/--idle
  --decoder       decoder name: bposd (default) or unionfind
  --shots         Monte-Carlo shot cap (default 2000)
  --max-failures  stop at the chunk where this many failures accumulate
  --target-rse    stop at the chunk where the relative standard error drops
                  to this value (mutually exclusive with --max-failures)
  --seed          base RNG seed (default 0); with --chunk-size it fixes the
                  failure count bit-for-bit at any thread count, early stop included
  --threads       worker threads (default 4; wall-clock only)
  --chunk-size    shots per deterministic chunk (default 64)
  --label         label stored in the emitted record (default dem/schedule source)
  --metrics       write a meta + metrics JSON-lines pair (session registry
                  snapshot: counters, gauges, span histograms) to this file
  --trace         record a span-event trace of the run and write it to this
                  file (JSON-lines `trace` records) plus a Chrome trace-event /
                  Perfetto JSON sibling at <file>.chrome.json
  -o, --out       append the JSON-lines record(s) to a file as well as stdout

The stdout stream starts with a `meta` provenance record (crate version, seed,
threads, chunk size, engine); parsers treat it as optional.";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "dem",
            "code",
            "schedule",
            "basis",
            "rounds",
            "p",
            "idle",
            "noise",
            "decoder",
            "shots",
            "max-failures",
            "target-rse",
            "seed",
            "threads",
            "chunk-size",
            "label",
            "metrics",
            "trace",
            "out",
        ],
    )?;
    let runtime = runtime_from_flags(&flags)?;
    let budget = budget_from_flags(&flags, 2000)?;
    let decoder = decoder_from_flags(&flags);
    let (mut session, trace) = session_from_flags(&flags, runtime);

    let meta = meta_record(&runtime, "frames");
    let mut records = vec![meta.clone()];
    match (flags.get("dem"), flags.get("code")) {
        (Some(path), None) => {
            // These knobs shape the model construction, which a .dem file has
            // already baked in — accepting them silently would mislead.
            for code_only in ["schedule", "basis", "rounds", "p", "idle", "noise"] {
                if flags.get(code_only).is_some() {
                    return Err(CliError::usage(format!(
                        "--{code_only} only applies with --code; the .dem file fixes the model"
                    )));
                }
            }
            let dem = parse_dem(&read_file(path)?)
                .map_err(|e| CliError::failure(format!("{path}: {e}")))?;
            let options = LerOptions::new(budget, runtime.seed);
            let outcome = session
                .run_ler_on_dem(&dem, &decoder, options, |_| {})
                .map_err(CliError::failure)?;
            let label = flags.get("label").unwrap_or(path);
            records.push(outcome.to_record(label));
            report_outcome(label, &outcome);
        }
        (None, Some(code_value)) => {
            let resolved = load_code(code_value)?;
            let schedule = load_schedule(flags.get("schedule"), &resolved)?;
            let rounds = flags.num("rounds", 3usize)?;
            if rounds == 0 {
                return Err(CliError::usage("--rounds must be at least 1"));
            }
            let basis = basis_selection_from_flags(&flags)?;
            let noise = noise_from_flags(&flags)?;
            let spec = ExperimentSpec::builder()
                .resolved_code(resolved)
                .schedule(ScheduleSource::Explicit(schedule))
                .noise(noise)
                .decoder(&decoder)
                .rounds(rounds)
                .basis(basis)
                .build()
                .map_err(CliError::failure)?;
            let default_label = flags.get("schedule").unwrap_or("coloration").to_string();
            let label = flags.get("label").unwrap_or(&default_label);
            let job = LerJob::new(spec).with_label(label).with_budget(budget);
            let outcome = session.run_ler_quiet(&job).map_err(CliError::failure)?;
            // One record per basis, plus an explicit combined record for
            // multi-basis runs. Only the combined record carries the job's
            // wall-clock/throughput; per-basis rows of a multi-basis run store 0
            // (the whole-job timing would be wrong for either basis alone).
            let multi = outcome.per_basis.len() > 1;
            for basis in &outcome.per_basis {
                let mut record = outcome.to_record(format!("{label}/{:?}", basis.basis));
                if let ReportRecord::Ler {
                    shots,
                    failures,
                    stop,
                    wall_s,
                    shots_per_sec,
                    ..
                } = &mut record
                {
                    *shots = basis.estimate.shots as u64;
                    *failures = basis.estimate.failures as u64;
                    *stop = basis.stop.as_str().to_string();
                    if multi {
                        *wall_s = 0.0;
                        *shots_per_sec = 0.0;
                    }
                }
                records.push(record);
            }
            if multi {
                records.push(outcome.to_record(format!("{label}/combined")));
            }
            report_outcome(label, &outcome);
        }
        _ => return Err(CliError::usage("ler needs exactly one of --dem or --code")),
    }

    let mut text = String::new();
    for record in &records {
        text.push_str(&record.to_json_line());
        text.push('\n');
    }
    print!("{text}");
    if let Some(path) = flags.get("out") {
        append_records(path, &text)?;
    }
    if let Some(path) = flags.get("metrics") {
        write_metrics_file(path, &meta, &session.metrics())?;
    }
    if let Some(sink) = &trace {
        write_trace_files(sink, &meta)?;
    }
    Ok(())
}

/// Human-readable summary on stderr (stdout carries the JSON-lines records).
fn report_outcome(label: &str, outcome: &LerOutcome) {
    let est = outcome.combined;
    let early = match outcome.stop {
        StopReason::ShotsExhausted => String::new(),
        stop => format!(", stopped early: {}", stop.as_str()),
    };
    eprintln!(
        "{label}: {}/{} failures (LER {:.5}{early})",
        est.failures,
        est.shots,
        est.rate()
    );
}
