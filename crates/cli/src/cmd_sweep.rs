//! `prophunt sweep` — evaluate a code × physical-error-rate × decoder grid
//! through one shared `prophunt-api` Session, emitting one JSON-lines `ler`
//! record per grid point.
//!
//! The session caches memory experiments across noise points and detector error
//! models across decoders, so the grid costs far less than independent `ler`
//! invocations.

use crate::args::{CliError, Flags};
use crate::common::{
    append_records, basis_selection_from_flags, budget_from_flags, load_code, load_schedule,
    meta_record, runtime_from_flags, session_from_flags, write_metrics_file, write_trace_files,
};
use prophunt_api::{ExperimentSpec, LerJob, NoiseSpec, ScheduleSource};

pub const USAGE: &str = "\
prophunt sweep --codes <fam1,fam2,...> [options]

  --codes         comma-separated code families (surface:3,surface:5,steane,...)
  --ps            comma-separated physical error rates (default 0.001,0.003,0.01)
  --decoders      comma-separated decoder names (default bposd)
  --noise-family  noise family applied at each p: depolarizing (default),
                  si1000, or biased:<eta>
  --schedule      coloration (default) or hand (surface codes only)
  --basis         z (default), x, or both
  --rounds        syndrome-measurement rounds (default 3)
  --shots         shot cap per grid point (default 2000)
  --max-failures  adaptive stop: failures per grid point
  --target-rse    adaptive stop: relative standard error per grid point
  --seed          base RNG seed (default 0)
  --threads       worker threads (default 4; wall-clock only)
  --chunk-size    shots per deterministic chunk (default 64)
  --metrics       write a meta + metrics JSON-lines pair (session registry
                  snapshot for the whole grid) to this file
  --trace         record a span-event trace of the whole grid and write it to
                  this file (JSON-lines `trace` records) plus a Chrome
                  trace-event / Perfetto JSON sibling at <file>.chrome.json
  -o, --out       append the JSON-lines records to a file as well as stdout

The stdout stream starts with a `meta` provenance record; parsers treat it as
optional.";

/// Builds the noise spec of one grid point from the `--noise-family` template,
/// going through [`NoiseSpec::parse`] so grid rates get the same `[0, 1]`
/// validation as `--noise` spec strings.
fn noise_at(family: &str, p: f64) -> Result<NoiseSpec, CliError> {
    let spec = match family.split_once(':') {
        None if family == "depolarizing" || family == "si1000" => format!("{family}:{p}"),
        Some(("biased", eta)) => format!("biased:{p}:{eta}"),
        _ => {
            return Err(CliError::usage(format!(
                "--noise-family must be depolarizing, si1000 or biased:<eta>, got {family:?}"
            )))
        }
    };
    NoiseSpec::parse(&spec).map_err(CliError::usage)
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "codes",
            "ps",
            "decoders",
            "noise-family",
            "schedule",
            "basis",
            "rounds",
            "shots",
            "max-failures",
            "target-rse",
            "seed",
            "threads",
            "chunk-size",
            "metrics",
            "trace",
            "out",
        ],
    )?;
    let codes: Vec<&str> = flags
        .require("codes")?
        .split(',')
        .filter(|s| !s.is_empty())
        .collect();
    if codes.is_empty() {
        return Err(CliError::usage("--codes needs at least one family"));
    }
    let ps: Vec<f64> = flags
        .get("ps")
        .unwrap_or("0.001,0.003,0.01")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| CliError::usage(format!("invalid error rate {s:?} in --ps")))
        })
        .collect::<Result<_, _>>()?;
    if ps.is_empty() {
        return Err(CliError::usage("--ps needs at least one error rate"));
    }
    let decoders: Vec<&str> = flags
        .get("decoders")
        .unwrap_or("bposd")
        .split(',')
        .filter(|s| !s.is_empty())
        .collect();
    if decoders.is_empty() {
        return Err(CliError::usage("--decoders needs at least one name"));
    }
    let noise_family = flags.get("noise-family").unwrap_or("depolarizing");
    let basis = basis_selection_from_flags(&flags)?;
    let rounds = flags.num("rounds", 3usize)?;
    if rounds == 0 {
        return Err(CliError::usage("--rounds must be at least 1"));
    }
    let budget = budget_from_flags(&flags, 2000)?;
    let runtime = runtime_from_flags(&flags)?;

    // One session for the whole grid: experiments are shared across p's and
    // models across decoders.
    let (mut session, trace) = session_from_flags(&flags, runtime);
    let meta = meta_record(&runtime, "frames");
    let mut text = String::new();
    let meta_line = meta.to_json_line();
    text.push_str(&meta_line);
    text.push('\n');
    println!("{meta_line}");
    for code_family in &codes {
        let resolved = load_code(code_family)?;
        let schedule = load_schedule(flags.get("schedule"), &resolved)?;
        let base = ExperimentSpec::builder()
            .resolved_code(resolved)
            .schedule(ScheduleSource::Explicit(schedule))
            .rounds(rounds)
            .basis(basis)
            .build()
            .map_err(CliError::failure)?;
        for &p in &ps {
            let noise = noise_at(noise_family, p)?;
            for decoder in &decoders {
                let spec = base.with_noise(noise).with_decoder(*decoder);
                let label = format!("{code_family}/{p}/{decoder}");
                let job = LerJob::new(spec).with_budget(budget).with_label(&label);
                let outcome = session.run_ler_quiet(&job).map_err(CliError::failure)?;
                eprintln!(
                    "{label}: {}/{} failures (LER {:.5}, {})",
                    outcome.combined.failures,
                    outcome.combined.shots,
                    outcome.combined.rate(),
                    outcome.stop.as_str()
                );
                let line = outcome.to_record(&label).to_json_line();
                text.push_str(&line);
                text.push('\n');
                // Stream each grid point as it completes.
                println!("{line}");
            }
        }
    }
    let snap = session.metrics();
    eprintln!(
        "sweep: {} grid points; {} experiments and {} models built ({} model cache hits)",
        codes.len() * ps.len() * decoders.len(),
        snap.counter("session.cache.experiment.miss"),
        snap.counter("session.cache.dem.miss"),
        snap.counter("session.cache.dem.hit"),
    );
    if let Some(path) = flags.get("out") {
        append_records(path, &text)?;
    }
    if let Some(path) = flags.get("metrics") {
        write_metrics_file(path, &meta, &snap)?;
    }
    if let Some(sink) = &trace {
        write_trace_files(sink, &meta)?;
    }
    Ok(())
}
