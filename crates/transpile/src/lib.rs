//! Transpilation: mapping logical circuits onto physical devices.
//!
//! The QuFI paper transpiles every benchmark with Qiskit's
//! `optimization_level=3` "in order to have the most dense layout and to
//! reduce as much as possible the use of SWAP gates, which could change the
//! ordering of qubits", and it "keeps track of the logical and physical
//! qubits throughout the transpiling process, and tags the qubits that are
//! neighbors after the transpiling process" (§IV-C). This crate implements
//! that pipeline:
//!
//! 1. **decompose** — rewrite gates outside the routable set (Toffoli).
//! 2. **layout** ([`layout`]) — a dense connected-subgraph search picks
//!    the initial logical→physical map.
//! 3. **routing** ([`routing`]) — insert SWAPs along shortest paths so
//!    every 2-qubit gate acts on coupled physical qubits, tracking the
//!    evolving layout.
//! 4. **basis translation** ([`basis`]) — rewrite to the IBM native set
//!    `{rz, sx, x, cx}` via ZYZ decomposition.
//! 5. **optimization** ([`optimize`]) — cancel inverse pairs, merge
//!    rotations and resynthesize single-qubit runs in the native basis,
//!    iterated to a fixpoint.
//!
//! The pipeline has no switches: every campaign transpiles this way. The
//! [`Transpiler`] entry point runs it for one device and returns a
//! [`TranspileResult`] that exposes the final logical→physical map and the
//! physical-neighbour query QuFI's double-fault injection needs.
//!
//! # Example
//!
//! ```
//! use qufi_sim::QuantumCircuit;
//! use qufi_transpile::{CouplingMap, Transpiler};
//!
//! let mut qc = QuantumCircuit::new(3, 3);
//! qc.h(0).cx(0, 2).measure_all(); // 0 and 2 are not coupled on a line
//! let line = CouplingMap::line(3);
//! let result = Transpiler::new(line).run(&qc).unwrap();
//! // The routed circuit is semantically equivalent and uses only coupled pairs.
//! assert!(result.circuit().gate_count() > 0);
//! ```

pub mod basis;
pub mod error;
pub mod layout;
pub mod optimize;
pub mod routing;
pub mod topology;
pub mod transpiler;

pub use error::TranspileError;
pub use layout::Layout;
pub use topology::CouplingMap;
pub use transpiler::{TranspileResult, Transpiler};
