//! Error type shared by the simulation crate.

use core::fmt;

/// Errors produced by circuit construction or simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A qubit index was out of range for the circuit/register.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// Number of qubits available.
        width: usize,
    },
    /// A classical bit index was out of range.
    ClbitOutOfRange {
        /// The offending index.
        clbit: usize,
        /// Number of classical bits available.
        width: usize,
    },
    /// The same qubit was used twice in one multi-qubit gate.
    DuplicateQubit {
        /// The duplicated index.
        qubit: usize,
    },
    /// Simulation would need more qubits than the engine supports.
    TooManyQubits {
        /// Requested width.
        requested: usize,
        /// Maximum supported width.
        max: usize,
    },
    /// The circuit contains no measurement but a measured distribution was
    /// requested.
    NoMeasurements,
    /// A gate that cannot be inverted symbolically (none currently) or other
    /// unsupported operation.
    Unsupported(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::QubitOutOfRange { qubit, width } => {
                write!(f, "qubit {qubit} out of range for width {width}")
            }
            SimError::ClbitOutOfRange { clbit, width } => {
                write!(f, "classical bit {clbit} out of range for width {width}")
            }
            SimError::DuplicateQubit { qubit } => {
                write!(f, "duplicate qubit {qubit} in multi-qubit gate")
            }
            SimError::TooManyQubits { requested, max } => {
                write!(
                    f,
                    "{requested} qubits requested, simulator supports at most {max}"
                )
            }
            SimError::NoMeasurements => write!(f, "circuit has no measurements"),
            SimError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = SimError::QubitOutOfRange { qubit: 9, width: 4 };
        assert_eq!(e.to_string(), "qubit 9 out of range for width 4");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
