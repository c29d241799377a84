//! `prophunt` — the batch command-line entry point of the PropHunt suite.
//!
//! Subcommands:
//!
//! * `code` — emit or validate CSS code spec files.
//! * `dem` — build a Stim-compatible detector error model from a code + schedule.
//! * `optimize` — run the PropHunt optimization loop, streaming JSON-lines
//!   iteration records and writing the final schedule file; `--resume` restarts
//!   from an exported schedule.
//! * `search` — strategy-portfolio schedule search (MaxSAT descent, annealing,
//!   beam, hill climbing raced in deterministic synchronized rounds), streaming
//!   JSON-lines incumbent records.
//! * `ler` — Monte-Carlo logical-error-rate estimation from a `.dem` file or a
//!   code + schedule, with a decoder name, noise specs and adaptive budgets.
//! * `sweep` — a code × p × decoder grid evaluated through one shared Session.
//! * `check` — re-parse any emitted file.
//! * `report` — summarize (or diff) the metrics files written by `--metrics`.
//! * `trace` — analyze the span-event trace files written by `--trace`:
//!   pool-utilization timeline, per-stage concurrency, critical path, and the
//!   search-convergence summary.
//!
//! Exit codes: 0 on success, 1 when an operation fails (unreadable file, invalid
//! schedule, ...), 2 for usage errors. User input never panics the process: every
//! input path goes through the typed parsers of `prophunt-formats`.

#![forbid(unsafe_code)]
// D6: user input never panics the process; every failure is a typed error.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod args;
mod cmd_check;
mod cmd_code;
mod cmd_dem;
mod cmd_ler;
mod cmd_optimize;
mod cmd_report;
mod cmd_search;
mod cmd_sweep;
mod cmd_trace;
mod common;

use args::CliError;
use std::process::ExitCode;

const USAGE: &str = "\
prophunt — automated optimization of quantum syndrome measurement circuits

usage: prophunt <command> [flags]

commands:
  code      emit a code spec from a family, or validate a spec file
  dem       build a detector error model and write it as a .dem file
  optimize  run the PropHunt loop; stream JSON-lines records, write the schedule
  search    race a strategy portfolio over schedules; stream incumbent records
  ler       Monte-Carlo logical error rate from a .dem file or code + schedule
  sweep     evaluate a code x p x decoder grid through one shared session
  check     re-parse emitted files (auto-detects the format)
  report    summarize or diff metrics files written with --metrics
  trace     analyze a span-event trace written with --trace

run `prophunt <command> --help` for per-command flags";

fn dispatch(command: &str, rest: &[String]) -> Result<(), CliError> {
    let usage_of = |usage: &str| -> Result<(), CliError> {
        println!("{usage}");
        Ok(())
    };
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");
    match command {
        "code" if wants_help => usage_of(cmd_code::USAGE),
        "dem" if wants_help => usage_of(cmd_dem::USAGE),
        "optimize" if wants_help => usage_of(cmd_optimize::USAGE),
        "search" if wants_help => usage_of(cmd_search::USAGE),
        "ler" if wants_help => usage_of(cmd_ler::USAGE),
        "sweep" if wants_help => usage_of(cmd_sweep::USAGE),
        "check" if wants_help => usage_of(cmd_check::USAGE),
        "report" if wants_help => usage_of(cmd_report::USAGE),
        "trace" if wants_help => usage_of(cmd_trace::USAGE),
        "code" => cmd_code::run(rest),
        "dem" => cmd_dem::run(rest),
        "optimize" => cmd_optimize::run(rest),
        "search" => cmd_search::run(rest),
        "ler" => cmd_ler::run(rest),
        "sweep" => cmd_sweep::run(rest),
        "check" => cmd_check::run(rest),
        "report" => cmd_report::run(rest),
        "trace" => cmd_trace::run(rest),
        "--help" | "-h" | "help" => usage_of(USAGE),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn usage_for(command: &str) -> &'static str {
    match command {
        "code" => cmd_code::USAGE,
        "dem" => cmd_dem::USAGE,
        "optimize" => cmd_optimize::USAGE,
        "search" => cmd_search::USAGE,
        "ler" => cmd_ler::USAGE,
        "sweep" => cmd_sweep::USAGE,
        "check" => cmd_check::USAGE,
        "report" => cmd_report::USAGE,
        "trace" => cmd_trace::USAGE,
        _ => USAGE,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match dispatch(command, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage_for(command));
            ExitCode::from(2)
        }
        Err(CliError::Failure(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_commands_are_usage_errors() {
        // `lint` is a retired command.
        for command in ["lint", "nope"] {
            assert!(matches!(dispatch(command, &[]), Err(CliError::Usage(_))));
        }
    }
}
