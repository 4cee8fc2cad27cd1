//! Quantum circuit representation and simulation.
//!
//! This crate is the substrate the QuFI fault injector runs on — the role
//! Qiskit + Aer play in the original paper. It provides:
//!
//! * [`Gate`] — the gate set (Hadamard, Paulis, phases, rotations, the
//!   generic `U(θ,φ,λ)` injector gate of the paper, CX/CZ/SWAP/CP, Toffoli).
//! * [`QuantumCircuit`] — an instruction-list circuit IR with builder
//!   methods, composition, inversion and depth/size queries.
//! * [`Statevector`] — exact pure-state simulation (the "ideal" scenario).
//! * [`DensityMatrix`] — exact mixed-state simulation supporting Kraus
//!   channels, over which noise models and faults are applied (the
//!   "simulation of a physical machine" scenario).
//! * [`ProbDist`] / [`Counts`] — output probability distributions and
//!   finite-shot sampling (the paper uses 1024 shots per circuit).
//!
//! # Conventions
//!
//! Qubit 0 is the **least-significant bit** of a basis-state index, matching
//! Qiskit. Bitstrings are printed most-significant-qubit first, so state
//! `|q2 q1 q0⟩ = |101⟩` on a 3-qubit register has index `0b101 = 5` and
//! prints as `"101"`.
//!
//! # Example
//!
//! ```
//! use qufi_sim::{QuantumCircuit, Statevector};
//!
//! // Bell pair.
//! let mut qc = QuantumCircuit::new(2, 2);
//! qc.h(0).cx(0, 1).measure_all();
//! let sv = Statevector::from_circuit(&qc).unwrap();
//! let dist = sv.measurement_distribution(&qc);
//! assert!((dist.prob_of("00") - 0.5).abs() < 1e-12);
//! assert!((dist.prob_of("11") - 0.5).abs() < 1e-12);
//! ```

pub mod batch;
pub mod circuit;
pub mod counts;
pub mod density;
pub mod error;
pub mod gate;
mod kernel;
pub mod statevector;
pub mod unitary;
pub mod workspace;

pub use batch::{batch_width, BatchedDensity, BatchedStatevector, ObservedMask, MAX_BATCH_CELLS};
pub use circuit::{Instruction, Op, QuantumCircuit};
pub use counts::{Counts, ProbDist};
pub use density::DensityMatrix;
pub use error::SimError;
pub use gate::Gate;
pub use statevector::Statevector;
pub use workspace::EvolutionWorkspace;
