//! Circuits compiled against a noise model: the one compile walk behind
//! the density path's [`crate::NoisePlan`] and the trajectory path's
//! [`crate::TrajPlan`], which differ only in what a channel stores (see
//! [`PlanChannel`]).
//!
//! Gate matrices and channels are resolved **once** per `(circuit,
//! model)`, so a replay loop walking the same suffix hundreds of times
//! pays no per-gate matrix construction, channel lookup, or allocation.
//! A plan is only meaningful for the pair it was compiled from: walking
//! [`Plan::steps`] visits exactly the gates, and after each the channels,
//! that [`crate::NoisyCursor::advance_to`] applies against the same model.

use crate::channel::KrausChannel;
use crate::model::NoiseModel;
use qufi_math::CMatrix;
use qufi_sim::circuit::Op;
use qufi_sim::{Gate, QuantumCircuit};

/// What a [`Plan`] stores per noise channel, resolved from the model's
/// Kraus channel and its target qubits.
pub trait PlanChannel {
    /// The span timing one [`Plan::compile`].
    const COMPILE_SPAN: &'static str;
    /// The counter of compiled plans.
    const COMPILED: &'static str;

    /// Resolves one channel the model prescribes on `targets`.
    fn resolve(channel: &KrausChannel, targets: Vec<usize>) -> Self;
}

/// One compiled gate instruction: its unitary, its operands and the
/// channels that follow it, in the model's canonical order.
pub struct PlanStep<C> {
    /// The gate's unitary.
    pub matrix: CMatrix,
    /// The gate's operand qubits.
    pub qubits: Vec<usize>,
    /// The channels the model prescribes after the gate.
    pub channels: Vec<C>,
}

/// A circuit compiled against a noise model (see the module docs).
pub struct Plan<C> {
    size: usize,
    num_qubits: usize,
    /// One entry per instruction; `None` for barriers and measurements.
    pub(crate) steps: Vec<Option<PlanStep<C>>>,
    /// Per-qubit channels suffered by a spliced 1-qubit injector gate
    /// (`U(θ,φ,λ)` — a calibrated physical gate, never the virtual `rz`).
    pub(crate) injector_channels: Vec<Vec<C>>,
}

impl<C: PlanChannel> Plan<C> {
    /// Compiles `qc` against `model`.
    ///
    /// # Panics
    ///
    /// Panics if the model covers fewer qubits than the circuit uses.
    pub fn compile(qc: &QuantumCircuit, model: &NoiseModel) -> Self {
        let _compile_span = qufi_obs::span(C::COMPILE_SPAN);
        qufi_obs::add(C::COMPILED, 1);
        assert!(
            model.num_qubits() >= qc.num_qubits(),
            "noise model covers {} qubits, circuit needs {}",
            model.num_qubits(),
            qc.num_qubits()
        );
        let resolve = |gate: Gate, qubits: &[usize]| {
            model
                .channels_after(gate, qubits)
                .into_iter()
                .map(|(ch, targets)| C::resolve(ch, targets))
                .collect::<Vec<_>>()
        };
        let steps = qc
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate { gate, qubits } => Some(PlanStep {
                    matrix: gate.matrix(),
                    qubits: qubits.clone(),
                    channels: resolve(*gate, qubits),
                }),
                _ => None,
            })
            .collect();
        let injector_channels = (0..qc.num_qubits())
            .map(|q| resolve(Gate::U(0.0, 0.0, 0.0), &[q]))
            .collect();
        Plan {
            size: qc.size(),
            num_qubits: qc.num_qubits(),
            steps,
            injector_channels,
        }
    }
}

impl<C> Plan<C> {
    /// Number of instructions in the compiled circuit.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Width of the compiled circuit.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate steps among instructions `[from, upto)`, barriers and
    /// measurements skipped: what every planned advance walks, applying
    /// each step's unitary and then its channels in order.
    ///
    /// # Panics
    ///
    /// Panics when `upto` is behind `from` or beyond the plan.
    pub fn steps(&self, from: usize, upto: usize) -> impl Iterator<Item = &PlanStep<C>> {
        assert!(upto >= from, "cursor at {from} cannot rewind to {upto}");
        assert!(
            upto <= self.size,
            "advance_planned({upto}) beyond plan of {} instructions",
            self.size
        );
        self.steps[from..upto].iter().flatten()
    }

    /// The channels a spliced 1-qubit injector `gate` suffers on `qubit`,
    /// applied after the gate's unitary.
    ///
    /// # Panics
    ///
    /// Panics for multi-qubit gates and for the virtual `rz` (which
    /// carries no noise and must not be spliced through this path).
    pub fn injector(&self, gate: Gate, qubit: usize) -> &[C] {
        assert_eq!(gate.num_qubits(), 1, "injector must be a 1-qubit gate");
        assert!(
            !matches!(gate, Gate::Rz(_)),
            "virtual rz gates carry no noise and cannot use the injector path"
        );
        &self.injector_channels[qubit]
    }
}

#[cfg(test)]
mod tests {
    use crate::simulate::NoisyCursor;
    use crate::trajectory::{LaneCursor, TrajWorkspace, TrajectoryCursor};
    use crate::{NoiseModel, NoisePlan, TrajPlan};
    use qufi_sim::{Gate, QuantumCircuit};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn bell() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        qc
    }

    /// Every cursor reaches the plan's one range check: a density cursor
    /// asked to step back.
    #[test]
    #[should_panic(expected = "cursor at 2 cannot rewind to 1")]
    fn planned_advance_rejects_a_rewind() {
        let qc = bell();
        let model = NoiseModel::ideal(2);
        let plan = NoisePlan::compile(&qc, &model);
        let mut cursor = NoisyCursor::start(&qc, &model).unwrap();
        cursor.advance_planned(&plan, 2);
        cursor.advance_planned(&plan, 1);
    }

    /// A trajectory cursor asked to run past the last instruction.
    #[test]
    #[should_panic(expected = "advance_planned(5) beyond plan of 4 instructions")]
    fn planned_advance_rejects_a_range_past_the_end() {
        let qc = bell();
        let plan = TrajPlan::compile(&qc, &NoiseModel::ideal(2));
        let mut cursor = TrajectoryCursor::start(&plan).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        cursor.advance_planned(&plan, 5, &mut rng, &mut TrajWorkspace::new());
    }

    /// Lanes spliced with a two-qubit injector.
    #[test]
    #[should_panic(expected = "injector must be a 1-qubit gate")]
    fn injector_rejects_a_two_qubit_gate() {
        let qc = bell();
        let plan = TrajPlan::compile(&qc, &NoiseModel::ideal(2));
        let mut cursor = LaneCursor::start(&plan, 2).unwrap();
        let mut rngs = [SmallRng::seed_from_u64(0), SmallRng::seed_from_u64(1)];
        cursor.apply_planned_injector(&plan, Gate::Cx, 0, &mut rngs, &mut TrajWorkspace::new());
    }
}
