//! PropHunt: automated optimization of quantum syndrome-measurement circuits by
//! ambiguity minimization.
//!
//! This crate is the paper's primary contribution. Starting from any valid CNOT schedule
//! for a CSS code (typically the coloration-circuit baseline), PropHunt repeatedly:
//!
//! 1. builds the circuit-level decoding graph (detector error model) of the current
//!    schedule ([`DecodingGraph`]),
//! 2. expands random connected subgraphs until they contain *ambiguity* — a logical
//!    observable not implied by the local syndrome information
//!    ([`find_ambiguous_subgraph`]),
//! 3. solves for a minimum-weight logical error inside each ambiguous subgraph, exactly,
//!    with a meet-in-the-middle GF(2) search; the paper's MaxSAT formulation stays as
//!    the Table 2 model and test oracle ([`minweight`]),
//! 4. enumerates candidate circuit changes (CNOT *reordering* and *rescheduling*) from
//!    the gates behind that logical error ([`changes`]),
//! 5. prunes candidates that break the circuit or fail to remove the ambiguity, and
//!    applies the survivors (minimum-depth tie-break) — one iteration of
//!    [`PropHunt::try_optimize`].
//!
//! The optimizer records every intermediate schedule, which both documents convergence
//! (the paper's Figure 12) and supplies the noise-amplification stages used by Hook-ZNE.
//!
//! # Example
//!
//! ```no_run
//! use prophunt::{PropHunt, PropHuntConfig};
//! use prophunt_circuit::schedule::ScheduleSpec;
//! use prophunt_qec::surface::rotated_surface_code_with_layout;
//!
//! let (code, _) = rotated_surface_code_with_layout(3);
//! let baseline = ScheduleSpec::coloration(&code);
//! let config = PropHuntConfig::quick(3);
//! let result = PropHunt::new(code, config).try_optimize(baseline)?;
//! println!("final depth: {}", result.final_depth());
//! # Ok::<(), prophunt_circuit::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambiguity;
pub mod changes;
pub mod minweight;
pub mod optimizer;

pub use ambiguity::{find_ambiguous_subgraph, AmbiguousSubgraph, DecodingGraph};
pub use changes::{CandidateChange, Rejection, RescheduleSwap};
pub use minweight::{MinWeightSolution, ModelKind};
pub use optimizer::{IterationRecord, OptimizationResult, PropHunt, PropHuntConfig};
