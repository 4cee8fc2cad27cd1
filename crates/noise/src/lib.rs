//! Quantum noise modeling for the QuFI reproduction.
//!
//! The paper injects faults "over the intrinsic noise of current quantum
//! computers" (§V-B), using IBM-Q noise models inside Qiskit Aer. This crate
//! provides the equivalent machinery:
//!
//! * [`KrausChannel`] — completely-positive trace-preserving maps:
//!   depolarizing, amplitude/phase damping, thermal relaxation (T1/T2),
//!   Pauli channels.
//! * [`ReadoutError`] — per-qubit measurement confusion matrices.
//! * [`NoiseModel`] — maps each gate application to the channels that follow
//!   it (depolarizing gate error + thermal relaxation for the gate duration),
//!   plus readout errors on measurement.
//! * [`BackendCalibration`] — synthetic per-qubit calibration tables for
//!   IBM-like 5- and 7-qubit devices (Jakarta, Casablanca, Lima, Bogota),
//!   with magnitudes drawn from published Falcon-processor data, and a
//!   [`BackendCalibration::with_drift`] method that models the day-to-day
//!   calibration drift the paper mentions ("the noise is not static", §V-E).
//! * [`plan`] — a circuit compiled against a noise model once, walked by
//!   both runners below; they differ only in what a channel stores.
//! * [`simulate`] — a noisy density-matrix runner: gate → unitary, then
//!   noise channels; measurement → readout confusion.
//! * [`trajectory`] — the Monte-Carlo statevector counterpart: per-shot
//!   Kraus-branch sampling that trades the density path's `4^n` cost for
//!   an `O(1/√shots)` statistical error, opening 10–14-qubit campaigns.
//!
//! # Example
//!
//! ```
//! use qufi_noise::{BackendCalibration, simulate};
//! use qufi_sim::QuantumCircuit;
//!
//! let cal = BackendCalibration::jakarta();
//! let model = cal.noise_model();
//! let mut qc = QuantumCircuit::new(2, 2);
//! qc.h(0).cx(0, 1).measure_all();
//! let dist = simulate::run_noisy(&qc, &model).unwrap();
//! // Noise leaks probability into the "wrong" outcomes…
//! assert!(dist.prob_of("01") > 0.0);
//! // …but the Bell outcomes still dominate.
//! assert!(dist.prob_of("00") + dist.prob_of("11") > 0.9);
//! ```

pub mod backend;
pub mod channel;
pub mod model;
pub mod plan;
pub mod readout;
pub mod simulate;
pub mod trajectory;

pub use backend::{BackendCalibration, GateTimes, QubitCalibration, BUILTIN_BACKENDS};
pub use channel::KrausChannel;
pub use model::NoiseModel;
pub use readout::ReadoutError;
pub use simulate::{NoisePlan, NoisyCursor};
pub use trajectory::{
    finish_trajectory_dist, run_trajectories, LaneCursor, ShotAccumulator, TrajPlan, TrajWorkspace,
    TrajectoryCursor, SHOT_BLOCK,
};
