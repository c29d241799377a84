//! On-disk interchange formats for the PropHunt suite.
//!
//! Everything the suite computes — codes, schedules, detector error models,
//! optimization runs, logical-error-rate estimates — exists in memory as Rust
//! values; this crate gives each of them a stable text representation with both a
//! writer and a parser, so artifacts can be persisted, diffed, resumed and
//! exchanged with other toolchains (schedule-optimization tools are routinely
//! compared by importing/exporting exactly these objects). See `FORMATS.md` at the
//! repository root for the full grammars and the versioning policy.
//!
//! Four formats:
//!
//! * [`dem`] — the Stim-compatible `.dem` detector-error-model format
//!   ([`write_dem`] / [`parse_dem`]), round-trippable through
//!   [`prophunt_circuit::dem::DetectorErrorModel`] with bit-identical
//!   probabilities.
//! * [`code`] — the CSS code spec format ([`CodeSpec`], [`write_code_spec`] /
//!   [`parse_code_spec`]) plus the family mini-language ([`resolve_family`]) naming
//!   the `prophunt-qec` constructors.
//! * [`schedule`] — the schedule format ([`write_schedule`] / [`parse_schedule`]),
//!   the paper's Figure 11 representation (per-stabilizer data-qubit orders plus
//!   shared-qubit relative orders) as a self-contained file.
//! * [`report`] — the JSON-lines run-report format ([`ReportRecord`]) for
//!   optimization runs and LER sweeps, built on the hand-rolled [`json`] module
//!   (the vendor tree ships no serde). The [`trace`] module adds the trace-v1
//!   side of the format: report-record conversion and Chrome trace-event /
//!   Perfetto export for `prophunt-obs` trace streams.
//!
//! All parsers return a typed [`FormatError`] carrying the 1-based line/column of
//! the first offending token; none of them panic on malformed input.
//!
//! # Example
//!
//! ```
//! use prophunt_formats::{parse_schedule, write_schedule, resolve_family};
//! use prophunt_circuit::schedule::ScheduleSpec;
//!
//! let surface = resolve_family("surface:3")?;
//! let schedule = surface.hand_designed_schedule().unwrap();
//! let text = write_schedule(&schedule);
//! assert_eq!(parse_schedule(&text)?, schedule);
//! # Ok::<(), prophunt_formats::FormatError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D6: user input never panics the process; every failure is a typed error.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod code;
pub mod dem;
pub mod error;
pub mod json;
pub mod report;
pub mod schedule;
pub mod trace;

pub use code::{parse_code_spec, resolve_family, write_code_spec, CodeSpec, ResolvedCode};
pub use dem::{parse_dem, write_dem};
pub use error::FormatError;
pub use json::Json;
pub use report::{
    iteration_to_record, parse_report, record_to_iteration, report_to_result, result_to_report,
    write_report, MetricsHistogram, ReportRecord,
};
pub use schedule::{parse_schedule, write_schedule};
pub use trace::{trace_event_to_record, write_chrome_trace};
