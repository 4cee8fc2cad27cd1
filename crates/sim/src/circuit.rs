//! Instruction-list circuit IR.
//!
//! [`QuantumCircuit`] mirrors the small slice of Qiskit's `QuantumCircuit`
//! that QuFI needs: fluent builder methods for the gate set, measurement
//! mapping qubits to classical bits, composition, inversion, and the
//! structural queries (depth, size, gate counts) used by the transpiler and
//! by injection-point enumeration.

use crate::error::SimError;
use crate::gate::Gate;
use core::fmt;

/// One operation in a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A unitary gate applied to `qubits` (operand order matters for
    /// controlled gates).
    Gate {
        /// The gate.
        gate: Gate,
        /// Operand qubits, `gate.num_qubits()` of them.
        qubits: Vec<usize>,
    },
    /// A barrier over the given qubits: a no-op for simulation, but an
    /// optimization boundary for the transpiler.
    Barrier(Vec<usize>),
    /// Projective measurement of `qubit` into classical bit `clbit`.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
}

/// An [`Op`] paired with its position; yielded by [`QuantumCircuit::instructions`].
pub type Instruction = Op;

/// A quantum circuit over `num_qubits` qubits and `num_clbits` classical bits.
///
/// # Example
///
/// ```
/// use qufi_sim::{QuantumCircuit, Gate};
///
/// let mut qc = QuantumCircuit::new(3, 3);
/// qc.h(0).cx(0, 1).cx(1, 2);
/// assert_eq!(qc.num_qubits(), 3);
/// assert_eq!(qc.gate_count(), 3);
/// assert_eq!(qc.depth(), 3);
/// qc.measure_all(); // measurements extend the depth, as in Qiskit
/// assert_eq!(qc.depth(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantumCircuit {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<Op>,
    /// Optional human-readable name (used in reports and QASM comments).
    pub name: String,
}

impl QuantumCircuit {
    /// Creates an empty circuit.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        QuantumCircuit {
            num_qubits,
            num_clbits,
            ops: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty named circuit.
    pub fn with_name(num_qubits: usize, num_clbits: usize, name: &str) -> Self {
        let mut qc = QuantumCircuit::new(num_qubits, num_clbits);
        qc.name = name.to_owned();
        qc
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    #[inline]
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// All operations in order.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Iterator over operations.
    pub fn instructions(&self) -> impl Iterator<Item = &Op> {
        self.ops.iter()
    }

    /// Total number of operations (gates + barriers + measurements).
    pub fn size(&self) -> usize {
        self.ops.len()
    }

    /// Number of unitary gate operations (excludes barriers/measurements).
    pub fn gate_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Gate { .. }))
            .count()
    }

    /// Count of each gate mnemonic, sorted by name.
    pub fn gate_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for op in &self.ops {
            if let Op::Gate { gate, .. } = op {
                *counts.entry(gate.name()).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }

    /// Circuit depth: the longest chain of dependent gates (barriers and
    /// measurements included, as in Qiskit).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits + self.num_clbits];
        let mut max = 0;
        for op in &self.ops {
            let touched: Vec<usize> = match op {
                Op::Gate { qubits, .. } => qubits.clone(),
                Op::Barrier(qs) => qs.clone(),
                Op::Measure { qubit, clbit } => {
                    vec![*qubit, self.num_qubits + *clbit]
                }
            };
            if matches!(op, Op::Barrier(_)) {
                continue; // Qiskit's depth() skips barriers.
            }
            let new_level = touched.iter().map(|&i| level[i]).max().unwrap_or(0) + 1;
            for &i in &touched {
                level[i] = new_level;
            }
            max = max.max(new_level);
        }
        max
    }

    fn check_qubit(&self, q: usize) -> Result<(), SimError> {
        if q >= self.num_qubits {
            Err(SimError::QubitOutOfRange {
                qubit: q,
                width: self.num_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Appends a gate, validating operand indices.
    ///
    /// # Errors
    ///
    /// Returns an error if an operand is out of range, duplicated, or the
    /// operand count does not match the gate arity.
    pub fn try_append(&mut self, gate: Gate, qubits: &[usize]) -> Result<&mut Self, SimError> {
        if qubits.len() != gate.num_qubits() {
            return Err(SimError::Unsupported(format!(
                "gate {} expects {} operands, got {}",
                gate.name(),
                gate.num_qubits(),
                qubits.len()
            )));
        }
        for (i, &q) in qubits.iter().enumerate() {
            self.check_qubit(q)?;
            if qubits[..i].contains(&q) {
                return Err(SimError::DuplicateQubit { qubit: q });
            }
        }
        self.ops.push(Op::Gate {
            gate,
            qubits: qubits.to_vec(),
        });
        Ok(self)
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if operands are invalid; use [`QuantumCircuit::try_append`] for
    /// a fallible version.
    pub fn append(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.try_append(gate, qubits)
            .unwrap_or_else(|e| panic!("append {}: {e}", gate.name()));
        self
    }

    /// Inserts a gate at instruction position `index` (0 = before everything).
    ///
    /// This is the primitive the fault injector uses to splice the `U(θ,φ,0)`
    /// injector gate right after a target gate.
    ///
    /// # Panics
    ///
    /// Panics if `index > self.size()` or the operands are invalid.
    pub fn insert(&mut self, index: usize, gate: Gate, qubits: &[usize]) -> &mut Self {
        assert!(index <= self.ops.len(), "insert index out of bounds");
        for &q in qubits {
            self.check_qubit(q)
                .unwrap_or_else(|e| panic!("insert {}: {e}", gate.name()));
        }
        self.ops.insert(
            index,
            Op::Gate {
                gate,
                qubits: qubits.to_vec(),
            },
        );
        self
    }

    // ---- fluent builders for the gate set ----

    /// Identity gate on `q`.
    pub fn i(&mut self, q: usize) -> &mut Self {
        self.append(Gate::I, &[q])
    }
    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.append(Gate::H, &[q])
    }
    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.append(Gate::X, &[q])
    }
    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Y, &[q])
    }
    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Z, &[q])
    }
    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.append(Gate::S, &[q])
    }
    /// S† on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Sdg, &[q])
    }
    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.append(Gate::T, &[q])
    }
    /// T† on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Tdg, &[q])
    }
    /// √X on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Sx, &[q])
    }
    /// RY(θ) on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.append(Gate::Ry(theta), &[q])
    }
    /// RZ(λ) on `q`.
    pub fn rz(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.append(Gate::Rz(lambda), &[q])
    }
    /// P(λ) on `q`.
    pub fn p(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.append(Gate::P(lambda), &[q])
    }
    /// Generic `U(θ, φ, λ)` on `q`.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.append(Gate::U(theta, phi, lambda), &[q])
    }
    /// CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.append(Gate::Cx, &[control, target])
    }
    /// CZ between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.append(Gate::Cz, &[a, b])
    }
    /// Controlled phase between `control` and `target`.
    pub fn cp(&mut self, lambda: f64, control: usize, target: usize) -> &mut Self {
        self.append(Gate::Cp(lambda), &[control, target])
    }
    /// SWAP of `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.append(Gate::Swap, &[a, b])
    }
    /// Toffoli with controls `c0`, `c1` and target `t`.
    pub fn ccx(&mut self, c0: usize, c1: usize, t: usize) -> &mut Self {
        self.append(Gate::Ccx, &[c0, c1, t])
    }

    /// Barrier across the listed qubits (or all when empty).
    pub fn barrier(&mut self, qubits: &[usize]) -> &mut Self {
        let qs = if qubits.is_empty() {
            (0..self.num_qubits).collect()
        } else {
            qubits.to_vec()
        };
        self.ops.push(Op::Barrier(qs));
        self
    }

    /// Measures `qubit` into `clbit`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn measure(&mut self, qubit: usize, clbit: usize) -> &mut Self {
        self.check_qubit(qubit)
            .unwrap_or_else(|e| panic!("measure: {e}"));
        assert!(
            clbit < self.num_clbits,
            "measure: {}",
            SimError::ClbitOutOfRange {
                clbit,
                width: self.num_clbits
            }
        );
        self.ops.push(Op::Measure { qubit, clbit });
        self
    }

    /// Measures qubit `i` into classical bit `i` for every qubit.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer classical bits than qubits.
    pub fn measure_all(&mut self) -> &mut Self {
        assert!(
            self.num_clbits >= self.num_qubits,
            "measure_all needs at least as many clbits as qubits"
        );
        for q in 0..self.num_qubits {
            self.measure(q, q);
        }
        self
    }

    /// The `(qubit → clbit)` measurement map, in program order.
    pub fn measurement_map(&self) -> Vec<(usize, usize)> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Measure { qubit, clbit } => Some((*qubit, *clbit)),
                _ => None,
            })
            .collect()
    }

    /// `true` if the circuit contains at least one measurement.
    pub fn has_measurements(&self) -> bool {
        self.ops.iter().any(|op| matches!(op, Op::Measure { .. }))
    }

    /// Appends all operations of `other` to `self` (registers must be at
    /// least as wide).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits or clbits than `self` has.
    pub fn compose(&mut self, other: &QuantumCircuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "compose: width mismatch"
        );
        assert!(
            other.num_clbits <= self.num_clbits,
            "compose: clbit mismatch"
        );
        self.ops.extend(other.ops.iter().cloned());
        self
    }

    /// The inverse of the unitary part (measurements dropped, gates reversed
    /// and inverted).
    pub fn inverse(&self) -> QuantumCircuit {
        let mut qc = QuantumCircuit::with_name(
            self.num_qubits,
            self.num_clbits,
            &format!("{}_dg", self.name),
        );
        for op in self.ops.iter().rev() {
            if let Op::Gate { gate, qubits } = op {
                qc.append(gate.inverse(), qubits);
            }
        }
        qc
    }
}

impl fmt::Display for QuantumCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "QuantumCircuit '{}' ({} qubits, {} clbits, depth {})",
            self.name,
            self.num_qubits,
            self.num_clbits,
            self.depth()
        )?;
        for op in &self.ops {
            match op {
                Op::Gate { gate, qubits } => writeln!(f, "  {gate} {qubits:?}")?,
                Op::Barrier(qs) => writeln!(f, "  barrier {qs:?}")?,
                Op::Measure { qubit, clbit } => writeln!(f, "  measure q{qubit} -> c{clbit}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        assert_eq!(qc.size(), 4);
        assert_eq!(qc.gate_count(), 2);
        assert!(qc.has_measurements());
    }

    #[test]
    fn depth_counts_dependencies_not_ops() {
        let mut qc = QuantumCircuit::new(3, 0);
        qc.h(0).h(1).h(2); // parallel -> depth 1
        assert_eq!(qc.depth(), 1);
        qc.cx(0, 1); // depends on both -> depth 2
        assert_eq!(qc.depth(), 2);
        qc.h(2); // still parallel on q2 -> depth stays 2
        assert_eq!(qc.depth(), 2);
        qc.cx(1, 2); // chains -> 3
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn barrier_does_not_add_depth() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).barrier(&[]).h(0);
        assert_eq!(qc.depth(), 2);
    }

    #[test]
    fn try_append_validates() {
        let mut qc = QuantumCircuit::new(2, 0);
        assert!(matches!(
            qc.try_append(Gate::H, &[5]),
            Err(SimError::QubitOutOfRange { qubit: 5, width: 2 })
        ));
        assert!(matches!(
            qc.try_append(Gate::Cx, &[1, 1]),
            Err(SimError::DuplicateQubit { qubit: 1 })
        ));
        assert!(qc.try_append(Gate::Cx, &[0]).is_err());
        assert!(qc.try_append(Gate::Cx, &[0, 1]).is_ok());
    }

    #[test]
    fn insert_places_gate_at_index() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).x(0);
        qc.insert(1, Gate::Z, &[0]);
        let names: Vec<&str> = qc
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate { gate, .. } => gate.name(),
                _ => "?",
            })
            .collect();
        assert_eq!(names, vec!["h", "z", "x"]);
    }

    #[test]
    fn gate_counts_sorted_by_name() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).h(1).cx(0, 1).h(0);
        assert_eq!(qc.gate_counts(), vec![("cx", 1), ("h", 3)]);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut qc = QuantumCircuit::new(1, 1);
        qc.h(0).s(0).measure(0, 0);
        let inv = qc.inverse();
        assert!(!inv.has_measurements());
        let names: Vec<&str> = inv
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate { gate, .. } => gate.name(),
                _ => "?",
            })
            .collect();
        assert_eq!(names, vec!["sdg", "h"]);
    }

    #[test]
    fn measurement_map_preserves_order() {
        let mut qc = QuantumCircuit::new(3, 2);
        qc.measure(2, 0).measure(0, 1);
        assert_eq!(qc.measurement_map(), vec![(2, 0), (0, 1)]);
    }

    #[test]
    fn compose_concatenates() {
        let mut a = QuantumCircuit::new(2, 0);
        a.h(0);
        let mut b = QuantumCircuit::new(2, 0);
        b.cx(0, 1);
        a.compose(&b);
        assert_eq!(a.gate_count(), 2);
    }

    #[test]
    #[should_panic(expected = "measure_all")]
    fn measure_all_requires_clbits() {
        let mut qc = QuantumCircuit::new(3, 1);
        qc.measure_all();
    }
}
