//! Noisy circuit execution: the "simulation of a physical machine" scenario.
//!
//! Runs a circuit on the density-matrix engine, interleaving each gate with
//! the channels its [`NoiseModel`] prescribes, then applies readout
//! confusion before marginalizing to the classical register.
//!
//! The evolution is driven by [`NoisyCursor`], which can pause at any
//! instruction boundary, hand out state snapshots ([`NoisyCursor::fork`]),
//! and finish the suffix per fork. [`evolve_noisy`]/[`run_noisy`] are thin
//! wrappers that advance a cursor straight through — so a prefix-then-suffix
//! evolution applies exactly the same gate/Kraus sequence in exactly the
//! same order as a one-shot run and is numerically **bit-identical** to it.
//! Replay loops advance through a [`NoisePlan`] instead, the
//! [`Plan`] that stores each channel as its superoperator; it applies the
//! same sequence without looking up a channel or building a matrix.

use crate::channel::KrausChannel;
use crate::model::NoiseModel;
use crate::plan::{Plan, PlanChannel};
use crate::readout::finish_readout;
use qufi_math::CMatrix;
use qufi_sim::circuit::Op;
use qufi_sim::{DensityMatrix, Gate, ProbDist, QuantumCircuit, SimError};

/// The density path's [`Plan`]: each channel as its superoperator and
/// target qubits.
pub type NoisePlan = Plan<(CMatrix, Vec<usize>)>;

impl PlanChannel for (CMatrix, Vec<usize>) {
    const COMPILE_SPAN: &'static str = "noise.plan.compile_ns";
    const COMPILED: &'static str = "noise.plans_compiled";

    fn resolve(channel: &KrausChannel, targets: Vec<usize>) -> Self {
        (channel.superoperator().clone(), targets)
    }
}

/// A paused noisy evolution: the density matrix after the first
/// [`position`](NoisyCursor::position) instructions of a circuit, each gate
/// followed by its noise channels in the model's canonical order.
///
/// # Example
///
/// ```
/// use qufi_noise::{simulate::NoisyCursor, NoiseModel};
/// use qufi_sim::QuantumCircuit;
///
/// let mut qc = QuantumCircuit::new(2, 2);
/// qc.h(0).cx(0, 1).measure_all();
/// let model = NoiseModel::ideal(2);
/// let mut cursor = NoisyCursor::start(&qc, &model).unwrap();
/// cursor.advance_to(&qc, 1); // shared prefix: just the H
/// let mut fork = cursor.fork();
/// fork.advance_to_end(&qc);
/// let dist = fork.finish(&qc);
/// assert!((dist.prob_of("11") - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct NoisyCursor<'m> {
    rho: DensityMatrix,
    model: &'m NoiseModel,
    pos: usize,
}

impl<'m> NoisyCursor<'m> {
    /// A cursor at instruction 0 of `qc` in the `|0…0⟩⟨0…0|` state.
    ///
    /// # Errors
    ///
    /// Returns an error when the register exceeds the density-matrix
    /// engine's width limit.
    ///
    /// # Panics
    ///
    /// Panics if the model covers fewer qubits than the circuit uses.
    pub fn start(qc: &QuantumCircuit, model: &'m NoiseModel) -> Result<Self, SimError> {
        assert!(
            model.num_qubits() >= qc.num_qubits(),
            "noise model covers {} qubits, circuit needs {}",
            model.num_qubits(),
            qc.num_qubits()
        );
        Ok(NoisyCursor {
            rho: DensityMatrix::new(qc.num_qubits())?,
            model,
            pos: 0,
        })
    }

    /// Resumes from a previously-snapshotted density matrix at instruction
    /// `pos` — the inverse of [`NoisyCursor::into_state`].
    pub fn resume(rho: DensityMatrix, model: &'m NoiseModel, pos: usize) -> Self {
        NoisyCursor { rho, model, pos }
    }

    /// Number of instructions already applied.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The current density matrix.
    #[inline]
    pub fn state(&self) -> &DensityMatrix {
        &self.rho
    }

    /// Consumes the cursor, yielding the density matrix.
    pub fn into_state(self) -> DensityMatrix {
        self.rho
    }

    /// An independent snapshot of the paused evolution; replaying a fork
    /// never mutates the original.
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// Applies one gate followed by the channels the model prescribes for
    /// it — the same primitive [`advance_to`](NoisyCursor::advance_to) uses
    /// per instruction, exposed so a fault injector can splice an
    /// out-of-circuit gate (which then suffers gate noise like any physical
    /// gate) without moving the instruction position.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.rho.apply_gate(gate, qubits);
        for (ch, targets) in self.model.channels_after(gate, qubits) {
            self.rho.apply_superoperator(ch.superoperator(), &targets);
        }
    }

    /// Applies instructions `[position, upto)` of `qc`: gates evolve the
    /// state under noise, barriers and measurements are skipped.
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
                self.apply_gate(*gate, qubits);
            }
        }
        self.pos = upto;
    }

    /// Applies every remaining instruction of `qc`.
    pub fn advance_to_end(&mut self, qc: &QuantumCircuit) {
        self.advance_to(qc, qc.size());
    }

    /// Applies instructions `[position, upto)` through a [`NoisePlan`]
    /// compiled from the same circuit and model: the precompiled gate
    /// matrices and channel superoperators are applied in the exact order
    /// [`NoisyCursor::advance_to`] would apply them, so the two paths are
    /// bit-identical — the plan only removes the per-gate matrix
    /// construction and channel-lookup allocations from replay loops.
    ///
    /// # Panics
    ///
    /// Panics when `upto` is behind the cursor or beyond the plan.
    pub fn advance_planned(&mut self, plan: &NoisePlan, upto: usize) {
        for step in plan.steps(self.pos, upto) {
            self.rho.apply_unitary(&step.matrix, &step.qubits);
            for (superop, targets) in &step.channels {
                self.rho.apply_superoperator(superop, targets);
            }
        }
        self.pos = upto;
    }

    /// The planned counterpart of [`NoisyCursor::apply_gate`] for a spliced
    /// 1-qubit injector: applies the gate's unitary, then the channels the
    /// plan cached for a calibrated 1-qubit gate on `qubit`, without moving
    /// the instruction position. Bit-identical to
    /// [`NoisyCursor::apply_gate`] for any non-virtual 1-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics for multi-qubit gates and for the virtual `rz` (which carries
    /// no noise and must not be spliced through this path).
    pub fn apply_planned_injector(&mut self, plan: &NoisePlan, gate: Gate, qubit: usize) {
        let channels = plan.injector(gate, qubit);
        self.rho.apply_unitary(&gate.matrix(), &[qubit]);
        for (superop, targets) in channels {
            self.rho.apply_superoperator(superop, targets);
        }
    }

    /// Completes the run: readout confusion on the qubit distribution,
    /// then marginalization through `qc`'s measurement map (the full qubit
    /// distribution when the circuit has no measurements).
    pub fn finish(self, qc: &QuantumCircuit) -> ProbDist {
        self.finish_dist(qc)
    }

    /// [`NoisyCursor::finish`] without consuming the cursor, so a replay
    /// loop can read the distribution and then recycle the cursor's state
    /// buffer ([`NoisyCursor::into_state`]) for the next replay.
    pub fn finish_dist(&self, qc: &QuantumCircuit) -> ProbDist {
        finish_readout(
            self.rho.probabilities(),
            self.model.readout_errors(),
            &qc.measurement_map(),
            qc.num_clbits(),
        )
    }
}

/// Evolves the density matrix of `qc` under `model`'s gate noise.
///
/// Readout error is **not** applied here (it acts on the measured
/// distribution, not the state); use [`run_noisy`] for the full pipeline.
///
/// # Errors
///
/// Returns an error when the register exceeds the density-matrix engine's
/// width limit.
///
/// # Panics
///
/// Panics if the model covers fewer qubits than the circuit uses.
pub fn evolve_noisy(qc: &QuantumCircuit, model: &NoiseModel) -> Result<DensityMatrix, SimError> {
    let mut cursor = NoisyCursor::start(qc, model)?;
    cursor.advance_to_end(qc);
    Ok(cursor.into_state())
}

/// Full noisy execution: gate noise, readout confusion, marginalization to
/// the classical register. Returns the exact output distribution.
///
/// # Errors
///
/// Returns an error when the register exceeds the engine's width limit.
pub fn run_noisy(qc: &QuantumCircuit, model: &NoiseModel) -> Result<ProbDist, SimError> {
    let mut cursor = NoisyCursor::start(qc, model)?;
    cursor.advance_to_end(qc);
    Ok(cursor.finish(qc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendCalibration;
    use qufi_sim::Statevector;

    fn bell() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        qc
    }

    #[test]
    fn ideal_model_reproduces_statevector() {
        let qc = bell();
        let d_noisy = run_noisy(&qc, &NoiseModel::ideal(2)).unwrap();
        let sv = Statevector::from_circuit(&qc).unwrap();
        let d_pure = sv.measurement_distribution(&qc);
        assert!(d_noisy.tv_distance(&d_pure) < 1e-12);
    }

    #[test]
    fn realistic_noise_degrades_but_preserves_winner() {
        let qc = bell();
        let model = BackendCalibration::jakarta().noise_model();
        let d = run_noisy(&qc, &model).unwrap();
        // Wrong outcomes appear...
        assert!(d.prob_of("01") > 1e-4);
        assert!(d.prob_of("10") > 1e-4);
        // ...but Bell outcomes still dominate.
        assert!(d.prob_of("00") + d.prob_of("11") > 0.9);
        assert!((d.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noise_strictly_reduces_purity() {
        let qc = bell();
        let model = BackendCalibration::jakarta().noise_model();
        let rho = evolve_noisy(&qc, &model).unwrap();
        assert!(rho.purity() < 1.0 - 1e-6);
        assert!(rho.is_hermitian(1e-10));
        assert!((rho.trace().re - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stronger_noise_means_lower_fidelity() {
        let qc = bell();
        let base = BackendCalibration::jakarta();
        let d1 = run_noisy(&qc, &base.noise_model()).unwrap();
        let d3 = run_noisy(&qc, &base.scaled(5.0).noise_model()).unwrap();
        let ideal = Statevector::from_circuit(&qc)
            .unwrap()
            .measurement_distribution(&qc);
        assert!(d3.tv_distance(&ideal) > d1.tv_distance(&ideal));
    }

    #[test]
    fn readout_error_visible_on_deterministic_circuit() {
        let mut qc = QuantumCircuit::new(1, 1);
        qc.x(0).measure(0, 0);
        let cal = BackendCalibration::jakarta();
        let d = run_noisy(&qc, &cal.noise_model()).unwrap();
        // p10 of qubit 0 is 3.8%; gate error adds a bit more.
        assert!(d.prob_of("0") > 0.03);
        assert!(d.prob_of("0") < 0.08);
    }

    #[test]
    fn unmeasured_circuit_returns_qubit_distribution() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0);
        let d = run_noisy(&qc, &NoiseModel::ideal(2)).unwrap();
        assert_eq!(d.num_bits(), 2);
    }

    #[test]
    #[should_panic(expected = "noise model covers")]
    fn model_narrower_than_circuit_panics() {
        let qc = bell();
        let _ = evolve_noisy(&qc, &NoiseModel::ideal(1));
    }

    /// A four-gate noisy circuit split at every boundary: the resumed
    /// evolution must be *bit-identical* to the straight run — the exact
    /// guarantee the fork-sweep differential suite relies on.
    #[test]
    fn resumed_run_is_bit_identical_to_straight_run() {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0).cx(0, 1).sx(2).cx(1, 2).x(0);
        qc.measure_all();
        let model = BackendCalibration::jakarta()
            .restrict(&[0, 1, 2])
            .noise_model();
        let straight = run_noisy(&qc, &model).unwrap();
        for k in 0..=qc.size() {
            let mut prefix = NoisyCursor::start(&qc, &model).unwrap();
            prefix.advance_to(&qc, k);
            let snapshot = prefix.state().clone();
            let mut resumed = NoisyCursor::resume(snapshot, &model, k);
            resumed.advance_to_end(&qc);
            let dist = resumed.finish(&qc);
            for i in 0..dist.len() {
                assert!(
                    dist.prob(i).to_bits() == straight.prob(i).to_bits(),
                    "split at {k}: outcome {i} differs"
                );
            }
        }
    }

    /// Forking a cursor and finishing the fork leaves the parked prefix
    /// untouched, so many faults can replay from one snapshot.
    #[test]
    fn fork_replays_do_not_mutate_the_prefix() {
        let qc = bell();
        let model = BackendCalibration::lima().restrict(&[0, 1]).noise_model();
        let mut prefix = NoisyCursor::start(&qc, &model).unwrap();
        prefix.advance_to(&qc, 1);
        let before = prefix.state().clone();
        for gate in [Gate::X, Gate::U(0.3, 1.2, 0.0)] {
            let mut fork = prefix.fork();
            fork.apply_gate(gate, &[0]);
            fork.advance_to_end(&qc);
            let _ = fork.finish(&qc);
        }
        assert_eq!(prefix.state(), &before);
        assert_eq!(prefix.position(), 1);
    }

    /// The compiled-plan path must be *bit-identical* to the per-gate
    /// model-lookup path: same gates, same channels, same order — the plan
    /// only amortizes construction.
    #[test]
    fn planned_advance_is_bit_identical_to_model_advance() {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0).cx(0, 1).sx(2).rz(0.4, 1).cx(1, 2).x(0);
        qc.measure_all();
        let model = BackendCalibration::jakarta()
            .restrict(&[0, 1, 2])
            .noise_model();
        let plan = NoisePlan::compile(&qc, &model);
        assert_eq!(plan.size(), qc.size());

        for split in 0..=qc.size() {
            let mut via_model = NoisyCursor::start(&qc, &model).unwrap();
            via_model.advance_to(&qc, split);
            via_model.apply_gate(Gate::U(0.7, 1.1, 0.0), &[1]);
            via_model.advance_to_end(&qc);

            let mut via_plan = NoisyCursor::start(&qc, &model).unwrap();
            via_plan.advance_planned(&plan, split);
            via_plan.apply_planned_injector(&plan, Gate::U(0.7, 1.1, 0.0), 1);
            via_plan.advance_planned(&plan, qc.size());

            let dim = via_model.state().dim();
            for i in 0..dim {
                for j in 0..dim {
                    let (a, b) = (via_model.state().entry(i, j), via_plan.state().entry(i, j));
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "split {split}: entry ({i},{j}) differs: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "virtual rz")]
    fn planned_injector_rejects_rz() {
        let qc = bell();
        let model = NoiseModel::ideal(2);
        let plan = NoisePlan::compile(&qc, &model);
        let mut cursor = NoisyCursor::start(&qc, &model).unwrap();
        cursor.apply_planned_injector(&plan, Gate::Rz(0.3), 0);
    }

    /// The spliced-gate primitive matches inserting the same gate into the
    /// circuit and running straight — including the gate's own noise.
    #[test]
    fn spliced_gate_matches_inserted_gate() {
        let qc = bell();
        let model = BackendCalibration::jakarta()
            .restrict(&[0, 1])
            .noise_model();
        let mut spliced = qc.clone();
        spliced.insert(1, Gate::U(0.7, 0.4, 0.0), &[0]);
        let straight = run_noisy(&spliced, &model).unwrap();

        let mut cursor = NoisyCursor::start(&qc, &model).unwrap();
        cursor.advance_to(&qc, 1);
        cursor.apply_gate(Gate::U(0.7, 0.4, 0.0), &[0]);
        cursor.advance_to_end(&qc);
        let forked = cursor.finish(&qc);
        for i in 0..forked.len() {
            assert_eq!(forked.prob(i).to_bits(), straight.prob(i).to_bits());
        }
    }
}
