//! Syndrome-measurement circuits, circuit-level noise and detector error models.
//!
//! This crate is the "Stim-like" substrate of the PropHunt reproduction. It turns a CSS
//! code plus an abstract CNOT schedule into a concrete physical circuit, attaches a
//! circuit-level Pauli noise model, and finds the detectors and observables every
//! possible fault flips — with one backward sweep of bit-packed detector sensitivities,
//! as in Stim's error analysis — to produce the **detector error model**: the
//! circuit-level check matrix `H` and logical-observable matrix `L` that the paper's
//! ambiguity analysis and decoders operate on.
//!
//! The main pipeline is:
//!
//! 1. [`schedule::ScheduleSpec`] — the abstract schedule: the order in which each
//!    stabilizer's ancilla interacts with its data qubits, plus the relative order of
//!    stabilizers on every shared data qubit (the paper's Figure 11 representation).
//!    Constructors include the [`schedule::ScheduleSpec::coloration`] baseline and the
//!    hand-designed surface-code schedule.
//! 2. [`builder::MemoryExperiment`] — expands the schedule into a full memory-experiment
//!    circuit over `rounds` rounds with detectors and logical observables.
//! 3. [`noise::NoiseModel`] — the paper's uniform circuit-level depolarizing model with
//!    optional idle errors.
//! 4. [`dem::DetectorErrorModel`] — fault enumeration plus one backward sensitivity
//!    sweep: walking the circuit last operation first, each qubit keeps the
//!    detectors/observables an `X` or `Z` on it would flip (one bit each, 64 per word),
//!    and a fault's signature is the XOR of the rows at its position. That costs
//!    `O((operations + faults) · words)` per model rather than one forward propagation
//!    per fault. The sweep alone is [`dem::FaultSignatures`]; equal signatures merge
//!    into the circuit-level `H`/`L` columns; a Monte-Carlo [`dem::DemSampler`] samples
//!    the result.
//!
//! # Example
//!
//! ```
//! use prophunt_qec::surface::rotated_surface_code_with_layout;
//! use prophunt_circuit::schedule::ScheduleSpec;
//! use prophunt_circuit::builder::{MemoryBasis, MemoryExperiment};
//! use prophunt_circuit::noise::NoiseModel;
//! use prophunt_circuit::dem::DetectorErrorModel;
//!
//! let (code, layout) = rotated_surface_code_with_layout(3);
//! let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
//! let experiment = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z)?;
//! let dem = DetectorErrorModel::from_experiment(&experiment, &NoiseModel::uniform_depolarizing(1e-3));
//! assert!(dem.num_errors() > 100);
//! # Ok::<(), prophunt_circuit::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dem;
pub mod noise;
pub mod ops;
pub mod schedule;

pub use builder::{MemoryBasis, MemoryExperiment};
pub use dem::{DemSampler, DetectorErrorModel, ErrorMechanism, FaultSignatures, FaultSource};
pub use noise::NoiseModel;
pub use ops::{Circuit, Op};
pub use schedule::eval::{EvalOp, Move, ScheduleEval};
pub use schedule::{ScheduleSpec, StabilizerId};

/// Errors produced while building circuits from schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// The schedule could not be turned into a circuit (cyclic dependencies).
    Unschedulable,
    /// The schedule breaks stabilizer commutation.
    BreaksCommutation {
        /// Index of the offending X stabilizer.
        x_stabilizer: usize,
        /// Index of the offending Z stabilizer.
        z_stabilizer: usize,
    },
    /// The schedule does not cover every (stabilizer, data-qubit) pair of the code.
    IncompleteSchedule,
    /// The schedule's components are internally inconsistent (bad stabilizer ids,
    /// duplicate qubits in an order, a relative order naming an absent pair, ...).
    InvalidSchedule {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A detector error model's components are internally inconsistent (detector or
    /// observable indices out of range, probabilities outside `[0, 1]`).
    InvalidErrorModel {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::Unschedulable => {
                write!(f, "schedule contains a cyclic CNOT dependency and cannot be laid out")
            }
            CircuitError::BreaksCommutation { x_stabilizer, z_stabilizer } => write!(
                f,
                "schedule breaks commutation between X stabilizer {x_stabilizer} and Z stabilizer {z_stabilizer}"
            ),
            CircuitError::IncompleteSchedule => {
                write!(f, "schedule does not cover every stabilizer/data-qubit pair of the code")
            }
            CircuitError::InvalidSchedule { reason } => {
                write!(f, "invalid schedule: {reason}")
            }
            CircuitError::InvalidErrorModel { reason } => {
                write!(f, "invalid detector error model: {reason}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}
