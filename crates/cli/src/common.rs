//! Shared helpers: loading codes/schedules from families or files, runtime
//! configuration flags, and output sinks.

use crate::args::{CliError, Flags};
use prophunt_api::Session;
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_formats::report::ReportRecord;
use prophunt_formats::{
    parse_code_spec, parse_schedule, resolve_family, trace_event_to_record, write_chrome_trace,
    ResolvedCode,
};
use prophunt_obs::{Obs, Snapshot, Tracer};
use prophunt_runtime::RuntimeConfig;
use std::io::Write as _;
use std::path::Path;

/// Reads a file, mapping I/O errors to [`CliError::Failure`] with the path.
pub fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::failure(format!("cannot read {path}: {e}")))
}

/// Writes a file, mapping I/O errors to [`CliError::Failure`] with the path.
pub fn write_file(path: &str, content: &str) -> Result<(), CliError> {
    std::fs::write(path, content)
        .map_err(|e| CliError::failure(format!("cannot write {path}: {e}")))
}

/// Writes `content` to `--out` when given, else to stdout.
pub fn write_output(out: Option<&str>, content: &str) -> Result<(), CliError> {
    match out {
        Some(path) => write_file(path, content),
        None => {
            print!("{content}");
            std::io::stdout()
                .flush()
                .map_err(|e| CliError::failure(format!("cannot write to stdout: {e}")))
        }
    }
}

/// Appends already-serialized JSON-lines `text` to `path` (creating it first if
/// needed).
pub fn append_records(path: &str, text: &str) -> Result<(), CliError> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| CliError::failure(format!("cannot open {path}: {e}")))?;
    file.write_all(text.as_bytes())
        .map_err(|e| CliError::failure(format!("cannot write {path}: {e}")))
}

/// Builds the provenance `meta` record every report and metrics stream starts
/// with. `engine` names the estimation engine where one applies (empty for
/// optimize/search runs). The record carries the invoking command line in the
/// additive `cmdline` field (trace-v1 extension; parsers default it).
pub fn meta_record(runtime: &RuntimeConfig, engine: &str) -> ReportRecord {
    ReportRecord::meta(
        env!("CARGO_PKG_VERSION"),
        runtime.seed,
        runtime.threads as u64,
        runtime.chunk_size as u64,
        engine,
    )
    .with_cmdline(std::env::args().collect::<Vec<String>>().join(" "))
}

/// The `--trace` sink: the tracer attached to the session's [`Obs`] and the
/// path its drained events are written to when the job completes.
pub struct TraceSink {
    tracer: Tracer,
    path: String,
}

/// Builds the session for a job command, honoring `--trace <path>`: with the
/// flag, the session's [`Obs`] carries a [`Tracer`] (alongside the usual
/// metrics registry) and the returned [`TraceSink`] collects it for
/// [`write_trace_files`]. Tracing is strictly out-of-band — it cannot change
/// any deterministic result, only record how the run executed.
pub fn session_from_flags(flags: &Flags, runtime: RuntimeConfig) -> (Session, Option<TraceSink>) {
    match flags.get("trace") {
        Some(path) => {
            let tracer = Tracer::new();
            let obs = Obs::enabled().with_tracer(tracer.clone());
            let session = Session::with_obs(runtime, obs);
            (
                session,
                Some(TraceSink {
                    tracer,
                    path: path.to_string(),
                }),
            )
        }
        None => (Session::new(runtime), None),
    }
}

/// Drains the sink's tracer and writes both `--trace` outputs: the report
/// JSON-lines file at the given path (`meta` line plus one `trace` record per
/// event, re-parseable by `prophunt check` / `prophunt trace`) and the Chrome
/// trace-event / Perfetto JSON sibling at `<path>.chrome.json`.
pub fn write_trace_files(sink: &TraceSink, meta: &ReportRecord) -> Result<(), CliError> {
    let log = sink.tracer.drain();
    if log.dropped > 0 {
        eprintln!(
            "trace: {} events dropped (central buffer cap reached)",
            log.dropped
        );
    }
    let mut text = meta.to_json_line();
    text.push('\n');
    for event in &log.events {
        text.push_str(&trace_event_to_record(event).to_json_line());
        text.push('\n');
    }
    write_file(&sink.path, &text)?;
    let chrome_path = format!("{}.chrome.json", sink.path);
    let mut chrome = write_chrome_trace(&log.events);
    chrome.push('\n');
    write_file(&chrome_path, &chrome)?;
    eprintln!(
        "trace: {} events -> {} (+ {chrome_path})",
        log.events.len(),
        sink.path
    );
    Ok(())
}

/// Writes the `--metrics` file: a `meta` provenance line followed by one
/// `metrics` record holding the session registry snapshot. The file is
/// overwritten — it describes exactly one run.
pub fn write_metrics_file(
    path: &str,
    meta: &ReportRecord,
    snapshot: &Snapshot,
) -> Result<(), CliError> {
    let mut text = meta.to_json_line();
    text.push('\n');
    text.push_str(&ReportRecord::metrics_from_snapshot(snapshot).to_json_line());
    text.push('\n');
    write_file(path, &text)
}

/// Resolves `--code`: a path to a `prophunt-code v1` spec file when one exists at
/// that path, otherwise a code-family string like `surface:3`.
pub fn load_code(value: &str) -> Result<ResolvedCode, CliError> {
    if Path::new(value).is_file() {
        let spec = parse_code_spec(&read_file(value)?)
            .map_err(|e| CliError::failure(format!("{value}: {e}")))?;
        let code = spec
            .to_code()
            .map_err(|e| CliError::failure(format!("{value}: {e}")))?;
        Ok(ResolvedCode { code, layout: None })
    } else {
        resolve_family(value).map_err(|e| {
            // A mistyped path lands here too; make sure the error says so instead
            // of only pointing at the family mini-language.
            CliError::failure(format!("{e} (and no file exists at {value:?})"))
        })
    }
}

/// Resolves `--schedule`: `coloration` (the default), `hand` (surface codes only),
/// or a path to a `prophunt-schedule v1` file. The result is validated against the
/// code.
pub fn load_schedule(
    value: Option<&str>,
    resolved: &ResolvedCode,
) -> Result<ScheduleSpec, CliError> {
    let schedule = match value {
        None | Some("coloration") => ScheduleSpec::coloration(&resolved.code),
        Some("hand") => resolved.hand_designed_schedule().ok_or_else(|| {
            CliError::failure("--schedule hand needs a code family with a layout (surface:<d>)")
        })?,
        Some(path) => parse_schedule(&read_file(path)?)
            .map_err(|e| CliError::failure(format!("{path}: {e}")))?,
    };
    schedule
        .validate_for_code(&resolved.code)
        .map_err(|e| CliError::failure(format!("schedule is not valid for this code: {e}")))?;
    Ok(schedule)
}

/// Builds the [`RuntimeConfig`] from `--threads`, `--chunk-size` and `--seed`.
pub fn runtime_from_flags(flags: &Flags) -> Result<RuntimeConfig, CliError> {
    let threads = flags.num("threads", 4usize)?;
    if threads == 0 {
        return Err(CliError::usage("--threads must be at least 1"));
    }
    let chunk_size = flags.num("chunk-size", RuntimeConfig::DEFAULT_CHUNK_SIZE)?;
    if chunk_size == 0 {
        return Err(CliError::usage("--chunk-size must be at least 1"));
    }
    let seed = flags.num("seed", 0u64)?;
    Ok(RuntimeConfig::new(threads, chunk_size, seed))
}

/// Parses `--p`-style probability flags, requiring `[0, 1]`.
pub fn probability_flag(flags: &Flags, name: &str, default: f64) -> Result<f64, CliError> {
    let p = flags.num(name, default)?;
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(CliError::usage(format!(
            "--{name} must be in [0, 1], got {p}"
        )));
    }
    Ok(p)
}

/// Resolves the noise model: `--noise <spec>` (which conflicts with `--p`/`--idle`)
/// or the uniform depolarizing model from `--p`/`--idle`.
pub fn noise_from_flags(flags: &Flags) -> Result<prophunt_api::NoiseSpec, CliError> {
    match flags.get("noise") {
        Some(spec) => {
            if flags.get("p").is_some() || flags.get("idle").is_some() {
                return Err(CliError::usage(
                    "--noise carries its own rates; it conflicts with --p/--idle",
                ));
            }
            prophunt_api::NoiseSpec::parse(spec).map_err(CliError::usage)
        }
        None => Ok(prophunt_api::NoiseSpec::Depolarizing {
            p: probability_flag(flags, "p", 1e-3)?,
            idle: probability_flag(flags, "idle", 0.0)?,
        }),
    }
}

/// Resolves the shot budget from `--shots` (the cap) plus at most one of
/// `--max-failures` / `--target-rse`.
pub fn budget_from_flags(
    flags: &Flags,
    default_shots: usize,
) -> Result<prophunt_api::ShotBudget, CliError> {
    use prophunt_api::ShotBudget;
    let shots = flags.num("shots", default_shots)?;
    if shots == 0 {
        return Err(CliError::usage("--shots must be at least 1"));
    }
    match (flags.get("max-failures"), flags.get("target-rse")) {
        (Some(_), Some(_)) => Err(CliError::usage(
            "--max-failures and --target-rse are mutually exclusive",
        )),
        (Some(_), None) => {
            let max_failures = flags.num("max-failures", 0usize)?;
            if max_failures == 0 {
                return Err(CliError::usage("--max-failures must be at least 1"));
            }
            Ok(ShotBudget::MaxFailures {
                max_failures,
                max_shots: shots,
            })
        }
        (None, Some(_)) => {
            let target = flags.num("target-rse", 0.0f64)?;
            if !target.is_finite() || target <= 0.0 {
                return Err(CliError::usage("--target-rse must be a positive number"));
            }
            Ok(ShotBudget::TargetRse {
                target,
                max_shots: shots,
            })
        }
        (None, None) => Ok(ShotBudget::Fixed { shots }),
    }
}

/// Returns the decoder registry name from `--decoder` (default `bposd`).
pub fn decoder_from_flags(flags: &Flags) -> String {
    flags.get("decoder").unwrap_or("bposd").to_string()
}

/// Parses `--basis` into a [`prophunt_api::BasisSelection`] (default Z).
pub fn basis_selection_from_flags(flags: &Flags) -> Result<prophunt_api::BasisSelection, CliError> {
    use prophunt_api::BasisSelection;
    match flags.get("basis") {
        None | Some("z") | Some("Z") => Ok(BasisSelection::Z),
        Some("x") | Some("X") => Ok(BasisSelection::X),
        Some("both") => Ok(BasisSelection::Both),
        Some(other) => Err(CliError::usage(format!(
            "--basis must be z, x or both, got {other:?}"
        ))),
    }
}
