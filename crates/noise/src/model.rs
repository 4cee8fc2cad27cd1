//! Noise models: which channels follow which gate.
//!
//! Mirrors the structure of Qiskit Aer's `NoiseModel.from_backend`:
//!
//! * every 1-qubit gate except the virtual `rz` is followed by a
//!   depolarizing error (the calibrated gate error) composed with thermal
//!   relaxation for the gate duration;
//! * every 2-qubit gate is followed by a 2-qubit depolarizing error and
//!   relaxation on both operands;
//! * measurement applies a per-qubit readout confusion matrix.
//!
//! Channels are precomputed at construction so a fault-injection campaign of
//! hundreds of thousands of circuit executions pays no per-gate setup cost.

use crate::channel::KrausChannel;
use crate::readout::ReadoutError;
use qufi_sim::Gate;
use std::collections::HashMap;

/// Per-qubit noise parameters used to build a [`NoiseModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitNoiseSpec {
    /// Spin-lattice relaxation time T1, in seconds.
    pub t1: f64,
    /// Spin-spin relaxation time T2, in seconds (≤ 2·T1).
    pub t2: f64,
    /// Depolarizing probability after each calibrated 1-qubit gate.
    pub gate_error_1q: f64,
    /// Readout confusion probabilities.
    pub readout: ReadoutError,
}

/// A compiled noise model: gate → channels.
///
/// # Example
///
/// ```
/// use qufi_noise::{NoiseModel, ReadoutError};
/// use qufi_sim::Gate;
///
/// let model = NoiseModel::ideal(3);
/// assert!(model.channels_after(Gate::H, &[0]).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct NoiseModel {
    n: usize,
    /// Combined depolarizing + relaxation channel after a 1-qubit gate.
    one_q: Vec<Option<KrausChannel>>,
    /// Combined 2-qubit channel keyed by the unordered operand pair, plus
    /// per-operand relaxation channels.
    two_q: HashMap<(usize, usize), KrausChannel>,
    /// Relaxation experienced by each operand during a 2-qubit gate.
    two_q_relax: Vec<Option<KrausChannel>>,
    readout: Vec<Option<ReadoutError>>,
}

impl NoiseModel {
    /// A noise-free model over `n` qubits (the paper's scenario 1).
    pub fn ideal(n: usize) -> Self {
        NoiseModel {
            n,
            one_q: vec![None; n],
            two_q: HashMap::new(),
            two_q_relax: vec![None; n],
            readout: vec![None; n],
        }
    }

    /// Builds a model from per-qubit specs and per-edge CX error rates.
    ///
    /// `time_1q` / `time_2q` are gate durations in seconds.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit outside `specs`, or any spec
    /// violates channel constraints (see [`KrausChannel::thermal_relaxation`]).
    pub fn from_specs(
        specs: &[QubitNoiseSpec],
        cx_errors: &[((usize, usize), f64)],
        time_1q: f64,
        time_2q: f64,
    ) -> Self {
        let n = specs.len();
        let mut one_q = Vec::with_capacity(n);
        let mut two_q_relax = Vec::with_capacity(n);
        let mut readout = Vec::with_capacity(n);
        for s in specs {
            let relax_1q = KrausChannel::thermal_relaxation(s.t1, s.t2, time_1q);
            let depol = KrausChannel::depolarizing(s.gate_error_1q, 1);
            let combined = depol.compose(&relax_1q);
            one_q.push((!combined.is_identity(1e-12)).then_some(combined));
            let relax_2q = KrausChannel::thermal_relaxation(s.t1, s.t2, time_2q);
            two_q_relax.push((!relax_2q.is_identity(1e-12)).then_some(relax_2q));
            readout.push((!s.readout.is_ideal()).then_some(s.readout));
        }
        let mut two_q = HashMap::new();
        for &((a, b), err) in cx_errors {
            assert!(a < n && b < n, "cx edge ({a},{b}) out of range");
            let key = (a.min(b), a.max(b));
            two_q.insert(key, KrausChannel::depolarizing(err, 2));
        }
        NoiseModel {
            n,
            one_q,
            two_q,
            two_q_relax,
            readout,
        }
    }

    /// Number of qubits the model covers.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// `true` when no gate or readout produces any error.
    pub fn is_ideal(&self) -> bool {
        self.one_q.iter().all(Option::is_none)
            && self.two_q.is_empty()
            && self.readout.iter().all(Option::is_none)
    }

    /// The channels (with their target qubits) to apply **after** a gate.
    ///
    /// `rz` is virtual on IBM hardware (implemented as a frame change) and
    /// carries no error; barriers and identity-free qubits yield nothing.
    pub fn channels_after(&self, gate: Gate, qubits: &[usize]) -> Vec<(&KrausChannel, Vec<usize>)> {
        let mut out = Vec::new();
        if matches!(gate, Gate::Rz(_)) {
            return out;
        }
        match qubits.len() {
            1 => {
                let q = qubits[0];
                if let Some(ch) = self.one_q.get(q).and_then(Option::as_ref) {
                    out.push((ch, vec![q]));
                }
            }
            2 => {
                let key = (qubits[0].min(qubits[1]), qubits[0].max(qubits[1]));
                if let Some(ch) = self.two_q.get(&key) {
                    out.push((ch, qubits.to_vec()));
                }
                for &q in qubits {
                    if let Some(ch) = self.two_q_relax.get(q).and_then(Option::as_ref) {
                        out.push((ch, vec![q]));
                    }
                }
            }
            _ => {
                // 3+ qubit gates (Toffoli) are decomposed by the transpiler
                // before hitting noisy hardware; when simulated directly we
                // apply per-qubit relaxation as an approximation.
                for &q in qubits {
                    if let Some(ch) = self.one_q.get(q).and_then(Option::as_ref) {
                        out.push((ch, vec![q]));
                    }
                }
            }
        }
        out
    }

    /// Per-qubit readout errors (`None` = ideal), indexed by qubit.
    pub fn readout_errors(&self) -> &[Option<ReadoutError>] {
        &self.readout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> QubitNoiseSpec {
        QubitNoiseSpec {
            t1: 120e-6,
            t2: 80e-6,
            gate_error_1q: 3e-4,
            readout: ReadoutError::new(0.02, 0.03),
        }
    }

    #[test]
    fn ideal_model_has_no_channels() {
        let m = NoiseModel::ideal(4);
        assert!(m.is_ideal());
        assert!(m.channels_after(Gate::H, &[2]).is_empty());
        assert!(m.channels_after(Gate::Cx, &[0, 1]).is_empty());
    }

    #[test]
    fn one_qubit_gate_gets_combined_channel() {
        let m = NoiseModel::from_specs(&[spec(), spec()], &[((0, 1), 8e-3)], 35e-9, 450e-9);
        let chans = m.channels_after(Gate::Sx, &[0]);
        assert_eq!(chans.len(), 1);
        assert_eq!(chans[0].1, vec![0]);
        assert!(chans[0].0.is_cptp(1e-9));
    }

    #[test]
    fn rz_is_noiseless() {
        let m = NoiseModel::from_specs(&[spec()], &[], 35e-9, 450e-9);
        assert!(m.channels_after(Gate::Rz(1.0), &[0]).is_empty());
        assert!(!m.channels_after(Gate::X, &[0]).is_empty());
    }

    #[test]
    fn two_qubit_gate_gets_depol_plus_relaxation() {
        let m = NoiseModel::from_specs(&[spec(), spec()], &[((0, 1), 8e-3)], 35e-9, 450e-9);
        let chans = m.channels_after(Gate::Cx, &[1, 0]);
        // 2q depolarizing + relaxation on each operand.
        assert_eq!(chans.len(), 3);
        assert_eq!(chans[0].1, vec![1, 0]);
    }

    #[test]
    fn edge_lookup_is_symmetric() {
        let m = NoiseModel::from_specs(&[spec(), spec()], &[((1, 0), 8e-3)], 35e-9, 450e-9);
        assert_eq!(m.channels_after(Gate::Cx, &[0, 1]).len(), 3);
        assert_eq!(m.channels_after(Gate::Cx, &[1, 0]).len(), 3);
    }

    #[test]
    fn uncoupled_pair_gets_relaxation_only() {
        let specs = [spec(), spec(), spec()];
        let m = NoiseModel::from_specs(&specs, &[((0, 1), 8e-3)], 35e-9, 450e-9);
        let chans = m.channels_after(Gate::Cx, &[0, 2]);
        assert_eq!(chans.len(), 2); // relaxation on 0 and 2, no 2q depol
    }

    #[test]
    fn readout_errors_exposed() {
        let m = NoiseModel::from_specs(&[spec()], &[], 35e-9, 450e-9);
        assert!(m.readout_errors()[0].is_some());
        assert!(!m.is_ideal());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let _ = NoiseModel::from_specs(&[spec()], &[((0, 3), 1e-2)], 35e-9, 450e-9);
    }
}
