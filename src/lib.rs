//! Umbrella crate for the PropHunt reproduction suite.
//!
//! This crate re-exports the public API of every member crate so downstream users (and
//! the examples and integration tests in this repository) can depend on a single crate:
//!
//! * [`gf2`] — GF(2) linear algebra ([`prophunt_gf2`]).
//! * [`qec`] — CSS codes and constructions ([`prophunt_qec`]).
//! * [`circuit`] — SM circuits, schedules, noise and detector error models
//!   ([`prophunt_circuit`]).
//! * [`maxsat`] — CNF, CDCL SAT and MaxSAT ([`prophunt_maxsat`]).
//! * [`decoders`] — BP+OSD, union-find and logical-error-rate estimation
//!   ([`prophunt_decoders`]).
//! * [`core`] — the PropHunt optimizer itself ([`prophunt`]).
//! * [`zne`] — Hook-ZNE and DS-ZNE ([`prophunt_zne`]).
//! * [`obs`] — zero-dependency observability: counters, gauges, log2-bucketed
//!   histograms and one RAII span type behind an optional `Obs` handle, threaded
//!   through the runtime, Session, the LER kernel and search out-of-band of the
//!   deterministic seed streams ([`prophunt_obs`]); exported as `metrics`
//!   JSON-lines records and summarized by `prophunt report`.
//! * [`runtime`] — the deterministic bounded parallel execution layer shared by
//!   every parallel stage ([`prophunt_runtime`]).
//! * [`search`] — strategy-portfolio schedule search: the `Strategy` trait,
//!   MaxSAT descent / annealing / beam / hill-climbing arms, and the
//!   deterministic `Portfolio` executor ([`prophunt_search`]).
//! * [`formats`] — on-disk interchange formats: Stim-compatible `.dem` files,
//!   code specs, schedule files and JSON-lines run reports
//!   ([`prophunt_formats`]); the `prophunt` CLI is built on these.
//! * [`api`] — the unified experiment surface: `ExperimentSpec` builder,
//!   `Session` (cached models/decoders), typed `OptimizeJob`/`LerJob`s with a
//!   unified event stream, decoders and noise models selected by name and
//!   adaptive shot budgets ([`prophunt_api`]). Prefer this entry point for new code.
//!
//! See `README.md` for a quickstart, the crate map and the runtime's
//! determinism contract, and `FORMATS.md` for the file-format grammars.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use prophunt as core;
pub use prophunt_api as api;
pub use prophunt_circuit as circuit;
pub use prophunt_decoders as decoders;
pub use prophunt_formats as formats;
pub use prophunt_gf2 as gf2;
pub use prophunt_maxsat as maxsat;
pub use prophunt_obs as obs;
pub use prophunt_qec as qec;
pub use prophunt_runtime as runtime;
pub use prophunt_search as search;
pub use prophunt_zne as zne;
