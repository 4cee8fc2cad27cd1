//! Exact pure-state (statevector) simulation.
//!
//! This engine implements the paper's scenario (1): "simulation without
//! external noise, which is ideal but not realistic". The fault injector uses
//! it to compute the fault-free *golden* output that defines `P(A)` in the
//! QVF, and the tests use it as an independent oracle against the
//! density-matrix engine.

use crate::circuit::{Op, QuantumCircuit};
use crate::counts::ProbDist;
use crate::error::SimError;
use crate::gate::Gate;
use crate::kernel::apply_matrix_on_bits;
use qufi_math::{CMatrix, Complex};

/// Maximum register width this engine accepts (2^24 amplitudes ≈ 256 MiB).
pub const MAX_QUBITS: usize = 24;

/// A pure quantum state over `n` qubits.
///
/// # Example
///
/// ```
/// use qufi_sim::{QuantumCircuit, Statevector};
///
/// let mut qc = QuantumCircuit::new(1, 0);
/// qc.h(0);
/// let sv = Statevector::from_circuit(&qc).unwrap();
/// let p = sv.probabilities();
/// assert!((p.prob(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    amps: Vec<Complex>,
    n: usize,
}

impl Statevector {
    /// The all-zeros state `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above [`MAX_QUBITS`].
    pub fn new(n: usize) -> Result<Self, SimError> {
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: n,
                max: MAX_QUBITS,
            });
        }
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::ONE;
        Ok(Statevector { amps, n })
    }

    /// Builds a state from raw amplitudes (normalized by the caller).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Self {
        let n = amps.len().trailing_zeros() as usize;
        assert_eq!(1usize << n, amps.len(), "length must be a power of two");
        Statevector { amps, n }
    }

    /// Runs the unitary part of a circuit on `|0…0⟩` (barriers and
    /// measurements are ignored — use
    /// [`Statevector::measurement_distribution`] to read out).
    ///
    /// # Errors
    ///
    /// Returns an error if the register is too wide.
    pub fn from_circuit(qc: &QuantumCircuit) -> Result<Self, SimError> {
        let mut sv = Statevector::new(qc.num_qubits())?;
        for op in qc.instructions() {
            if let Op::Gate { gate, qubits } = op {
                sv.apply_gate(*gate, qubits);
            }
        }
        Ok(sv)
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The amplitude of basis state `index`.
    #[inline]
    pub fn amp(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// All amplitudes, indexed by basis state.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Applies a gate in place.
    ///
    /// # Panics
    ///
    /// Panics if operands are out of range or of the wrong arity.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        assert_eq!(qubits.len(), gate.num_qubits(), "operand arity mismatch");
        self.apply_matrix(&gate.matrix(), qubits);
    }

    /// Applies an arbitrary `2^k × 2^k` unitary to the listed qubits.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn apply_matrix(&mut self, u: &CMatrix, qubits: &[usize]) {
        for &q in qubits {
            assert!(q < self.n, "qubit {q} out of range for width {}", self.n);
        }
        apply_matrix_on_bits(&mut self.amps, u.as_slice(), qubits, self.n, false);
    }

    /// Born-rule probabilities over all qubits.
    pub fn probabilities(&self) -> ProbDist {
        ProbDist::from_probs(self.amps.iter().map(|a| a.norm_sqr()).collect(), self.n)
    }

    /// The distribution over *classical bits* after the circuit's
    /// measurements, obtained by marginalizing through the measurement map.
    ///
    /// Falls back to the full qubit distribution if the circuit has no
    /// measurements.
    pub fn measurement_distribution(&self, qc: &QuantumCircuit) -> ProbDist {
        let map = qc.measurement_map();
        if map.is_empty() {
            return self.probabilities();
        }
        self.probabilities().marginalize(&map, qc.num_clbits())
    }

    /// Euclidean norm (1 for a normalized state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// An independent copy of the state — one `memcpy` of the `2^n`
    /// amplitude buffer. The sweep engine snapshots a prefix evolution
    /// once and replays many fault suffixes from the copies; mutating a
    /// snapshot never affects the original.
    pub fn snapshot(&self) -> Statevector {
        self.clone()
    }

    /// Overwrites this state with a copy of `src`, reusing the existing
    /// amplitude buffer when it is large enough — the allocation-free
    /// counterpart of [`Statevector::snapshot`] for shot loops that
    /// restore a parked prefix state into one reused shot state.
    pub fn copy_from(&mut self, src: &Statevector) {
        qufi_obs::add("sim.state_copies", 1);
        self.n = src.n;
        self.amps.clone_from(&src.amps);
    }

    /// Multiplies every amplitude by a real factor in place — the
    /// renormalization primitive of the trajectory engine, which scales a
    /// post-Kraus state by `1/√w` after sampling a branch of weight `w`.
    pub fn scale(&mut self, factor: f64) {
        for a in &mut self.amps {
            *a = *a * factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn bell_state_has_half_half() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).cx(0, 1);
        let sv = Statevector::from_circuit(&qc).unwrap();
        let p = sv.probabilities();
        assert!((p.prob(0b00) - 0.5).abs() < 1e-12);
        assert!((p.prob(0b11) - 0.5).abs() < 1e-12);
        assert!(p.prob(0b01) < 1e-12);
    }

    #[test]
    fn ghz_three_qubits() {
        let mut qc = QuantumCircuit::new(3, 0);
        qc.h(0).cx(0, 1).cx(1, 2);
        let p = Statevector::from_circuit(&qc).unwrap().probabilities();
        assert!((p.prob(0) - 0.5).abs() < 1e-12);
        assert!((p.prob(7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn x_flips_correct_qubit() {
        let mut qc = QuantumCircuit::new(3, 0);
        qc.x(1);
        let p = Statevector::from_circuit(&qc).unwrap().probabilities();
        assert!((p.prob(0b010) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.x(0).swap(0, 1);
        let p = Statevector::from_circuit(&qc).unwrap().probabilities();
        assert!((p.prob(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_marginalizes_ancilla() {
        // BV-style: q2 is an ancilla in |−⟩; only q0,q1 are measured.
        let mut qc = QuantumCircuit::new(3, 2);
        qc.x(2).h(2).x(0);
        qc.measure(0, 0).measure(1, 1);
        let sv = Statevector::from_circuit(&qc).unwrap();
        let d = sv.measurement_distribution(&qc);
        assert_eq!(d.num_bits(), 2);
        assert!((d.prob_of("01") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn u_gate_theta_pi_acts_as_x() {
        let mut a = QuantumCircuit::new(1, 0);
        a.u(PI, 0.0, 0.0, 0);
        let mut b = QuantumCircuit::new(1, 0);
        b.x(0);
        let pa = Statevector::from_circuit(&a).unwrap().probabilities();
        let pb = Statevector::from_circuit(&b).unwrap().probabilities();
        assert!(pa.tv_distance(&pb) < 1e-12);
    }

    #[test]
    fn phase_shift_invisible_without_interference() {
        // A φ-shift alone does not change probabilities...
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).u(0.0, FRAC_PI_2, 0.0, 0);
        let p = Statevector::from_circuit(&qc).unwrap().probabilities();
        assert!((p.prob(0) - 0.5).abs() < 1e-12);
        // ...but becomes visible after a second Hadamard (interference).
        let mut qc2 = QuantumCircuit::new(1, 0);
        qc2.h(0).u(0.0, PI, 0.0, 0).h(0);
        let p2 = Statevector::from_circuit(&qc2).unwrap().probabilities();
        assert!((p2.prob(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_preserved_by_long_random_circuit() {
        let mut qc = QuantumCircuit::new(4, 0);
        for i in 0..4 {
            qc.h(i);
        }
        for i in 0..3 {
            qc.cx(i, i + 1);
            qc.t(i);
            qc.ry(0.3 * (i as f64 + 1.0), i + 1);
        }
        qc.ccx(0, 1, 2).cp(0.9, 2, 3);
        let sv = Statevector::from_circuit(&qc).unwrap();
        assert!((sv.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn too_many_qubits_is_an_error() {
        assert!(matches!(
            Statevector::new(MAX_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn matrix_and_gate_application_agree() {
        let mut a = Statevector::new(2).unwrap();
        let mut b = Statevector::new(2).unwrap();
        a.apply_gate(Gate::Cx, &[1, 0]);
        b.apply_matrix(&Gate::Cx.matrix(), &[1, 0]);
        assert_eq!(a, b);
    }
}
