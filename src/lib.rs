//! # qufi — umbrella crate for the QuFI reproduction
//!
//! Re-exports the whole stack behind one dependency:
//!
//! * [`math`] — complex scalars, matrices, angle grids ([`qufi_math`]).
//! * [`sim`] — circuit IR, statevector & density-matrix engines
//!   ([`qufi_sim`]).
//! * [`noise`] — Kraus channels, noise models, synthetic IBM-like
//!   calibrations ([`qufi_noise`]).
//! * [`transpile`] — layout, routing, basis translation, optimization
//!   ([`qufi_transpile`]).
//! * [`algos`] — Bernstein-Vazirani, Deutsch-Jozsa, QFT, GHZ, Grover
//!   ([`qufi_algos`]).
//! * [`core`] — the fault injector itself: fault model, QVF, campaigns
//!   ([`qufi_core`]).
//!
//! Batch orchestration (run manifests, checkpointed campaigns, artifact
//! export) lives in the separate `qufi-cli` crate, which drives this
//! stack through the `qufi` binary.
//!
//! # Quickstart
//!
//! ```
//! use qufi::prelude::*;
//!
//! // Build the paper's Fig. 4 scenario and score one fault.
//! let w = qufi::algos::bernstein_vazirani(0b101, 3);
//! let executor = NoisyExecutor::new(qufi::noise::BackendCalibration::jakarta());
//! // Prepare the injection point once (transpile + shared-prefix
//! // evolution), then replay faults from the snapshot.
//! let prepared = executor
//!     .prepare(&w.circuit, InjectionPoint { op_index: 2, qubit: 0 })
//!     .unwrap();
//! let dist = prepared
//!     .replay(FaultParams::shift(std::f64::consts::FRAC_PI_4, 0.0))
//!     .unwrap();
//! let qvf = qufi::core::metrics::qvf_from_dist(&dist, &w.correct_outputs);
//! assert!(qvf < 0.45, "a θ=π/4 shift is masked on BV (Fig. 4)");
//! ```

pub use qufi_algos as algos;
pub use qufi_core as core;
pub use qufi_math as math;
pub use qufi_noise as noise;
pub use qufi_sim as sim;
pub use qufi_transpile as transpile;

/// One-stop imports for applications.
pub mod prelude {
    pub use qufi_algos::{
        bernstein_vazirani, deutsch_jozsa, ghz, grover, qft_value_encoding, scaling_family,
        DjOracle, Workload,
    };
    pub use qufi_core::prelude::*;
    pub use qufi_core::{qubit_reliability, CampaignResult, ExecError, InjectionRecord};
    pub use qufi_noise::{BackendCalibration, NoiseModel};
    pub use qufi_sim::{Gate, ProbDist, QuantumCircuit};
    pub use qufi_transpile::{CouplingMap, OptimizationLevel, RoutingStrategy, Transpiler};
}
