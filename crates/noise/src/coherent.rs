//! Coherent (systematic) error models.
//!
//! Stochastic Kraus channels capture *incoherent* noise; real devices also
//! suffer **coherent** errors — systematic over/under-rotations from
//! miscalibrated pulses. Coherent errors matter for fault injection because
//! they compose with the injected phase shift instead of averaging out, and
//! the paper's fault model (a deterministic `U(θ,φ,0)` shift) is itself a
//! coherent perturbation. This module expresses per-gate coherent errors so
//! ablations can compare fault propagation over coherent vs incoherent
//! noise floors.

use qufi_math::CMatrix;
use qufi_sim::circuit::Op;
use qufi_sim::{Gate, QuantumCircuit};

/// A systematic per-gate rotation error: every occurrence of a gate class
/// is followed by a small fixed rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherentError {
    /// Extra rotation about X after each `sx`/`x` pulse (radians).
    pub over_rotation_x: f64,
    /// Extra rotation about Z after every 1-qubit gate (phase miscalibration).
    pub phase_drift_z: f64,
    /// Extra ZZ-like phase after each 2-qubit gate, expressed as a CP angle.
    pub two_qubit_phase: f64,
}

impl CoherentError {
    /// No coherent error.
    pub fn none() -> Self {
        CoherentError {
            over_rotation_x: 0.0,
            phase_drift_z: 0.0,
            two_qubit_phase: 0.0,
        }
    }

    /// A typical miscalibration magnitude: 0.5° over-rotation, 0.2° phase
    /// drift, 1° residual ZZ phase.
    pub fn typical() -> Self {
        CoherentError {
            over_rotation_x: 0.5_f64.to_radians(),
            phase_drift_z: 0.2_f64.to_radians(),
            two_qubit_phase: 1.0_f64.to_radians(),
        }
    }

    /// `true` when all magnitudes are zero.
    pub fn is_none(&self) -> bool {
        self.over_rotation_x == 0.0 && self.phase_drift_z == 0.0 && self.two_qubit_phase == 0.0
    }

    /// Rewrites a circuit with the systematic errors appended after each
    /// gate. The result is still a pure circuit: coherent noise is unitary.
    pub fn apply_to_circuit(&self, qc: &QuantumCircuit) -> QuantumCircuit {
        let mut out = QuantumCircuit::with_name(qc.num_qubits(), qc.num_clbits(), &qc.name);
        for op in qc.instructions() {
            match op {
                Op::Gate { gate, qubits } => {
                    out.append(*gate, qubits);
                    if self.is_none() {
                        continue;
                    }
                    match qubits.len() {
                        1 => {
                            // rz is virtual — no pulse, no miscalibration.
                            if matches!(gate, Gate::Rz(_) | Gate::P(_) | Gate::I) {
                                continue;
                            }
                            if self.over_rotation_x != 0.0
                                && matches!(gate, Gate::Sx | Gate::Sxdg | Gate::X)
                            {
                                out.rx(self.over_rotation_x, qubits[0]);
                            }
                            if self.phase_drift_z != 0.0 {
                                out.rz(self.phase_drift_z, qubits[0]);
                            }
                        }
                        2 if self.two_qubit_phase != 0.0 => {
                            out.cp(self.two_qubit_phase, qubits[0], qubits[1]);
                        }
                        _ => {}
                    }
                }
                Op::Barrier(qs) => {
                    out.barrier(qs);
                }
                Op::Measure { qubit, clbit } => {
                    out.measure(*qubit, *clbit);
                }
            }
        }
        out
    }

    /// The effective single-`sx` unitary under this miscalibration
    /// (useful for analytic checks).
    pub fn effective_sx(&self) -> CMatrix {
        let mut m = CMatrix::sx();
        if self.over_rotation_x != 0.0 {
            m = CMatrix::rx(self.over_rotation_x).matmul(&m);
        }
        if self.phase_drift_z != 0.0 {
            m = CMatrix::rz(self.phase_drift_z).matmul(&m);
        }
        m
    }
}

impl Default for CoherentError {
    fn default() -> Self {
        CoherentError::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_sim::Statevector;

    #[test]
    fn none_is_identity_transform() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        let out = CoherentError::none().apply_to_circuit(&qc);
        assert_eq!(out, qc);
    }

    #[test]
    fn typical_error_perturbs_output_slightly() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.sx(0).sx(0).cx(0, 1).measure_all(); // sx·sx = X up to phase
        let noisy = CoherentError::typical().apply_to_circuit(&qc);
        let a = Statevector::from_circuit(&qc)
            .unwrap()
            .measurement_distribution(&qc);
        let b = Statevector::from_circuit(&noisy)
            .unwrap()
            .measurement_distribution(&noisy);
        let tv = a.tv_distance(&b);
        assert!(tv > 1e-6, "coherent error must be visible");
        assert!(tv < 0.05, "typical miscalibration should stay small: {tv}");
    }

    #[test]
    fn coherent_errors_accumulate_linearly_in_depth() {
        // The hallmark of coherent (vs incoherent) error: amplitude errors
        // add up coherently, so N repetitions drift ~N× further.
        let build = |reps: usize| {
            let mut qc = QuantumCircuit::new(1, 1);
            for _ in 0..reps {
                qc.sx(0);
                qc.sx(0);
                qc.sx(0);
                qc.sx(0); // sx^4 = I up to phase
            }
            qc.measure(0, 0);
            qc
        };
        let err = CoherentError {
            over_rotation_x: 0.02,
            phase_drift_z: 0.0,
            two_qubit_phase: 0.0,
        };
        let drift = |reps: usize| {
            let qc = build(reps);
            let noisy = err.apply_to_circuit(&qc);
            let d = Statevector::from_circuit(&noisy)
                .unwrap()
                .measurement_distribution(&noisy);
            d.prob(1) // leakage out of |0⟩
        };
        let d1 = drift(1);
        let d4 = drift(4);
        // Rotation angle scales ×4 → small-angle probability scales ~×16.
        assert!(d4 > 10.0 * d1, "d1={d1:.2e}, d4={d4:.2e}");
    }

    #[test]
    fn rz_is_untouched() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.rz(0.5, 0);
        let out = CoherentError::typical().apply_to_circuit(&qc);
        assert_eq!(out.gate_count(), 1);
    }

    #[test]
    fn two_qubit_phase_attaches_to_cx() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.cx(0, 1);
        let out = CoherentError::typical().apply_to_circuit(&qc);
        assert_eq!(out.gate_count(), 2);
        let names: Vec<&str> = out
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Gate { gate, .. } => Some(gate.name()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["cx", "cp"]);
    }

    #[test]
    fn effective_sx_is_unitary_and_near_sx() {
        let eff = CoherentError::typical().effective_sx();
        assert!(eff.is_unitary(1e-12));
        let diff = eff.sub(&CMatrix::sx()).frobenius_norm();
        assert!(diff > 1e-6 && diff < 0.05, "diff {diff}");
    }
}
