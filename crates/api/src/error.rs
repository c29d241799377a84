//! The error type of the experiment API.

use prophunt_circuit::CircuitError;
use prophunt_formats::FormatError;
use std::fmt;

/// Anything that can go wrong while building an [`crate::ExperimentSpec`] or
/// running a job through a [`crate::Session`].
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// A format-layer failure: unparsable family string, code spec, schedule file.
    Format(FormatError),
    /// A circuit-layer failure: schedule invalid for the code, experiment build.
    Circuit(CircuitError),
    /// The requested decoder name is not one of [`crate::decoder::DECODER_NAMES`].
    UnknownDecoder {
        /// The requested name.
        name: String,
        /// The known decoder names.
        known: Vec<String>,
    },
    /// A noise spec string failed to parse or carries out-of-range parameters.
    InvalidNoise(String),
    /// The experiment spec itself is inconsistent (missing code, zero rounds,
    /// hand-designed schedule without a layout, ...).
    InvalidSpec(String),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Format(e) => write!(f, "{e}"),
            ApiError::Circuit(e) => write!(f, "{e}"),
            ApiError::UnknownDecoder { name, known } => {
                write!(f, "unknown decoder {name:?} (known: {})", known.join(", "))
            }
            ApiError::InvalidNoise(message) => write!(f, "invalid noise spec: {message}"),
            ApiError::InvalidSpec(message) => write!(f, "invalid experiment spec: {message}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<FormatError> for ApiError {
    fn from(e: FormatError) -> Self {
        ApiError::Format(e)
    }
}

impl From<CircuitError> for ApiError {
    fn from(e: CircuitError) -> Self {
        ApiError::Circuit(e)
    }
}
