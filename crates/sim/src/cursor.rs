//! Resumable circuit evolution.
//!
//! A fault-injection sweep varies only the injected `U(θ, φ, 0)` gate: the
//! hundreds of configurations of one injection point share the entire
//! circuit prefix before the injector. [`CircuitCursor`] exploits that: it
//! evolves a circuit up to an instruction boundary **once**, hands out cheap
//! state snapshots ([`CircuitCursor::fork`]), and each snapshot finishes the
//! suffix independently. Because a cursor applies exactly the same
//! operations in exactly the same order as a straight-line run, a
//! fork-and-finish evolution is **bit-identical** to evolving the whole
//! circuit from scratch — the property the campaign engine's differential
//! test suite pins down.

use crate::circuit::{Op, QuantumCircuit};
use crate::density::DensityMatrix;
use crate::error::SimError;
use crate::gate::Gate;
use crate::statevector::Statevector;

/// A simulation state a [`CircuitCursor`] can drive: something that starts
/// at `|0…0⟩` and absorbs unitary gates.
pub trait EvolvableState: Clone {
    /// The all-zeros state over `n` qubits.
    ///
    /// # Errors
    ///
    /// Returns an error when the register is too wide for the engine.
    fn zero_state(n: usize) -> Result<Self, SimError>;

    /// Applies one unitary gate in place.
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]);
}

impl EvolvableState for Statevector {
    fn zero_state(n: usize) -> Result<Self, SimError> {
        Statevector::new(n)
    }

    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        Statevector::apply_gate(self, gate, qubits);
    }
}

impl EvolvableState for DensityMatrix {
    fn zero_state(n: usize) -> Result<Self, SimError> {
        DensityMatrix::new(n)
    }

    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        DensityMatrix::apply_gate(self, gate, qubits);
    }
}

/// A paused evolution: the state after the first [`position`] instructions
/// of a circuit.
///
/// Barriers and measurements are skipped, exactly as
/// [`Statevector::from_circuit`] and [`DensityMatrix::run_circuit`] skip
/// them, so `advance_to(qc.size())` reproduces those entry points
/// bit-for-bit.
///
/// [`position`]: CircuitCursor::position
///
/// # Example
///
/// ```
/// use qufi_sim::{CircuitCursor, Gate, QuantumCircuit, Statevector};
///
/// let mut qc = QuantumCircuit::new(2, 0);
/// qc.h(0).cx(0, 1);
/// // Evolve the prefix (just the H) once…
/// let mut cursor = CircuitCursor::<Statevector>::start(&qc).unwrap();
/// cursor.advance_to(&qc, 1);
/// // …then replay two different suffixes from snapshots.
/// let mut plain = cursor.fork();
/// plain.advance_to_end(&qc);
/// let mut faulty = cursor.fork();
/// faulty.apply_gate(Gate::X, &[1]);
/// faulty.advance_to_end(&qc);
/// assert!((plain.state().probabilities().prob(0b11) - 0.5).abs() < 1e-12);
/// assert!((faulty.state().probabilities().prob(0b01) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitCursor<S> {
    state: S,
    pos: usize,
}

impl<S: EvolvableState> CircuitCursor<S> {
    /// A cursor at instruction 0 of `qc`, in the all-zeros state.
    ///
    /// # Errors
    ///
    /// Returns an error when the register is too wide for the engine.
    pub fn start(qc: &QuantumCircuit) -> Result<Self, SimError> {
        Ok(CircuitCursor {
            state: S::zero_state(qc.num_qubits())?,
            pos: 0,
        })
    }

    /// Number of instructions already applied (the next instruction index).
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The current state.
    #[inline]
    pub fn state(&self) -> &S {
        &self.state
    }

    /// A snapshot of the paused evolution: an independent cursor at the
    /// same position whose state is a deep copy (one `memcpy` of the
    /// amplitude/density buffer). Replays from a fork never mutate the
    /// original.
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// Applies instructions `[position, upto)` of `qc` (gates evolve the
    /// state; barriers and measurements are skipped).
    ///
    /// # Panics
    ///
    /// Panics when `upto` is behind the cursor or beyond the circuit.
    pub fn advance_to(&mut self, qc: &QuantumCircuit, upto: usize) {
        assert!(
            upto >= self.pos,
            "cursor at {} cannot rewind to {upto}",
            self.pos
        );
        assert!(
            upto <= qc.size(),
            "advance_to({upto}) beyond circuit of {} instructions",
            qc.size()
        );
        for op in &qc.ops()[self.pos..upto] {
            if let Op::Gate { gate, qubits } = op {
                self.state.apply_gate(*gate, qubits);
            }
        }
        self.pos = upto;
    }

    /// Applies every remaining instruction of `qc`.
    ///
    /// # Panics
    ///
    /// Panics when the circuit is shorter than the cursor position.
    pub fn advance_to_end(&mut self, qc: &QuantumCircuit) {
        self.advance_to(qc, qc.size());
    }

    /// Applies one out-of-circuit gate (e.g. a spliced fault injector)
    /// without moving the instruction position.
    ///
    /// # Panics
    ///
    /// Panics if operands are invalid for the state.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.state.apply_gate(gate, qubits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_circuit() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0).cx(0, 1).t(1).barrier(&[]).ry(0.7, 2).cx(1, 2);
        qc.measure_all();
        qc
    }

    #[test]
    fn split_run_matches_straight_run_statevector() {
        let qc = sample_circuit();
        let whole = Statevector::from_circuit(&qc).unwrap();
        for k in 0..=qc.size() {
            let mut cursor = CircuitCursor::<Statevector>::start(&qc).unwrap();
            cursor.advance_to(&qc, k);
            let mut fork = cursor.fork();
            fork.advance_to_end(&qc);
            assert_eq!(fork.state(), &whole, "split at {k} diverged");
        }
    }

    #[test]
    fn split_run_matches_straight_run_density() {
        let qc = sample_circuit();
        let mut whole = DensityMatrix::new(3).unwrap();
        whole.run_circuit(&qc);
        for k in [0, 2, 4, qc.size()] {
            let mut cursor = CircuitCursor::<DensityMatrix>::start(&qc).unwrap();
            cursor.advance_to(&qc, k);
            cursor.advance_to_end(&qc);
            assert_eq!(cursor.state(), &whole, "split at {k} diverged");
        }
    }

    #[test]
    fn fork_leaves_the_original_untouched() {
        let qc = sample_circuit();
        let mut cursor = CircuitCursor::<Statevector>::start(&qc).unwrap();
        cursor.advance_to(&qc, 2);
        let before = cursor.state().clone();
        let mut fork = cursor.fork();
        fork.apply_gate(Gate::X, &[0]);
        fork.advance_to_end(&qc);
        assert_eq!(cursor.state(), &before, "fork mutated the snapshot");
        assert_eq!(cursor.position(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn rewinding_panics() {
        let qc = sample_circuit();
        let mut cursor = CircuitCursor::<Statevector>::start(&qc).unwrap();
        cursor.advance_to(&qc, 3);
        cursor.advance_to(&qc, 1);
    }

    #[test]
    #[should_panic(expected = "beyond circuit")]
    fn overrunning_panics() {
        let qc = sample_circuit();
        let mut cursor = CircuitCursor::<Statevector>::start(&qc).unwrap();
        cursor.advance_to(&qc, qc.size() + 1);
    }

    #[test]
    fn too_wide_register_is_an_error() {
        let qc = QuantumCircuit::new(crate::density::MAX_QUBITS + 1, 0);
        assert!(CircuitCursor::<DensityMatrix>::start(&qc).is_err());
    }
}
