//! # QuFI — the Quantum Fault Injector
//!
//! A Rust reproduction of the fault-injection framework from *"QuFI: a
//! Quantum Fault Injector to Measure the Reliability of Qubits and Quantum
//! Circuits"* (DSN 2022). Radiation-induced transient faults in
//! superconducting qubits are modeled as **parametrized phase shifts**: an
//! extra [`Gate::U`](qufi_sim::Gate)`(θ, φ, 0)` gate spliced into the
//! circuit after a gate of the original program (§III–IV of the paper). The
//! impact on the output distribution is quantified by the **Quantum
//! Vulnerability Factor** ([`metrics::qvf`]), a Michelson-contrast metric.
//!
//! The crate provides:
//!
//! * [`fault`] — the fault model: injection points, the 15°-step φ/θ sweep
//!   (312 configurations per point), single- and double-fault splicing.
//! * [`metrics`] — QVF, fault-severity classification (masked / dubious /
//!   silent-data-corruption), and distribution statistics.
//! * [`executor`] — the three execution scenarios of §IV-B: ideal
//!   simulation, noisy simulation of a physical machine, and a simulated
//!   hardware backend with calibration drift and 1024-shot sampling — plus
//!   a Monte-Carlo trajectory backend that extends the noisy scenario past
//!   the density-matrix width wall (10–14 qubits and beyond).
//! * [`campaign`] — parallel single-fault campaigns over all injection
//!   points × phase shifts.
//! * [`double`] — multi-qubit fault campaigns on physically-adjacent qubit
//!   pairs identified through transpilation (§IV-C).
//! * [`report`] — heatmaps (Fig. 5/6/8), histograms (Fig. 7/10), ΔQVF
//!   (Fig. 9), CSV export and ASCII rendering.
//!
//! # Example
//!
//! ```
//! use qufi_core::prelude::*;
//! use qufi_noise::BackendCalibration;
//! use qufi_sim::QuantumCircuit;
//!
//! // The paper's Fig. 4: Bernstein-Vazirani with a θ=π/4 fault on q0
//! // after the first Hadamard.
//! let mut qc = QuantumCircuit::new(4, 3);
//! qc.x(3).h(3).h(0).h(1).h(2);
//! qc.cx(0, 3).cx(2, 3);
//! qc.h(0).h(1).h(2);
//! qc.measure(0, 0).measure(1, 1).measure(2, 2);
//!
//! let executor = NoisyExecutor::new(BackendCalibration::jakarta());
//! let golden = golden_outputs(&qc).unwrap();
//! assert_eq!(golden, vec![0b101]);
//!
//! let point = InjectionPoint { op_index: 2, qubit: 0 }; // after h(0)
//! let fault = FaultParams::shift(std::f64::consts::FRAC_PI_4, 0.0);
//! let faulty = inject_fault(&qc, point, fault).unwrap();
//! let dist = executor.execute(&faulty).unwrap();
//! let qvf = qufi_core::metrics::qvf_from_dist(&dist, &golden);
//! assert!(qvf > 0.0 && qvf < 1.0);
//! ```

pub mod campaign;
pub mod double;
pub mod engine;
pub mod error;
pub mod executor;
pub mod fault;
pub mod mapping;
pub mod metrics;
pub mod par;
pub mod prepare_cache;
pub mod report;
pub mod retry;
pub mod serialize;
pub mod shard;

pub use campaign::{
    golden_outputs, run_point_sweep, run_point_sweep_parallel, run_single_campaign,
    split_thread_budget, CampaignOptions, CampaignResult, InjectionRecord,
};
pub use double::{DoubleCampaignResult, DoubleInjectionRecord, DoubleOptions};
pub use engine::{PreparedDoubleSweep, PreparedSweep, SweepExecutor};
pub use error::ExecError;
pub use executor::{Executor, HardwareExecutor, IdealExecutor, NoisyExecutor, TrajectoryExecutor};
pub use fault::{
    enumerate_injection_points, inject_double_fault, inject_fault, FaultGrid, FaultParams,
    InjectionPoint,
};
pub use mapping::{qubit_reliability, QubitReliability};
pub use metrics::{michelson_contrast, qvf, qvf_from_dist, Severity};
pub use prepare_cache::{CacheCounters, CacheStats, PrepareCache};
pub use retry::Backoff;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::campaign::{
        golden_outputs, run_point_sweep, run_point_sweep_parallel, run_single_campaign,
        split_thread_budget, CampaignOptions,
    };
    pub use crate::double::{run_double_campaign, DoubleOptions};
    pub use crate::engine::{PreparedDoubleSweep, PreparedSweep, SweepExecutor};
    pub use crate::executor::{
        Executor, HardwareExecutor, IdealExecutor, NoisyExecutor, TrajectoryExecutor,
    };
    pub use crate::fault::{
        enumerate_injection_points, inject_fault, FaultGrid, FaultParams, InjectionPoint,
    };
    pub use crate::metrics::{qvf_from_dist, Severity};
    pub use crate::report::{Heatmap, Histogram};
}
