//! Monte-Carlo quantum-trajectory execution: the statevector path through
//! a noise model.
//!
//! The density-matrix engine ([`crate::simulate`]) is exact but pays
//! `4^n` memory and worse time — 7 qubits is effectively its ceiling.
//! This module trades exactness for width: each *shot* evolves a `2^n`
//! statevector, and every noise channel collapses to **one** sampled
//! Kraus branch (branch `i` with the Born weight `wᵢ = ‖Kᵢ|ψ⟩‖²`,
//! followed by renormalization). Averaging the per-shot probability
//! vectors is an unbiased estimator of the density-path distribution with
//! `O(1/√shots)` total-variation error.
//!
//! Two invariants carry over from the deterministic engine:
//!
//! - **Fixed RNG consumption**: exactly one uniform draw per multi-branch
//!   channel application, regardless of which branch wins; single-operator
//!   channels (including pure-unitary ones) consume **no** randomness.
//!   A shot's outcome is therefore a pure function of its seed.
//! - **Fixed fold order**: shots accumulate into fixed-size blocks
//!   ([`SHOT_BLOCK`]) that are folded in block order by
//!   [`ShotAccumulator::mean`], so the average's bits depend on shot
//!   indices alone.
//!
//! Readout confusion acts on the *averaged* distribution (it is linear in
//! the state, so this matches applying it per shot) and marginalization
//! follows, mirroring [`crate::simulate::NoisyCursor::finish_dist`].

use crate::model::NoiseModel;
use crate::readout::apply_readout_errors;
use qufi_math::{CMatrix, Complex};
use qufi_sim::circuit::Op;
use qufi_sim::{Gate, ProbDist, QuantumCircuit, SimError, Statevector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shots per accumulation block: shot probabilities sum into per-block
/// partials, and the blocks fold in order.
pub const SHOT_BLOCK: u64 = 64;

/// One noise channel resolved for trajectory sampling: the raw Kraus
/// operators (not the superoperator — trajectories act on vectors).
struct TrajChannel {
    ops: Vec<CMatrix>,
    targets: Vec<usize>,
}

/// One compiled gate instruction: its unitary and the Kraus channels that
/// follow it, resolved against a concrete [`NoiseModel`].
struct TrajStep {
    matrix: CMatrix,
    qubits: Vec<usize>,
    channels: Vec<TrajChannel>,
}

/// A circuit compiled against a noise model for trajectory execution —
/// the statevector counterpart of [`crate::NoisePlan`]. Gate matrices and
/// per-channel Kraus operator lists are resolved **once**, so a shot loop
/// walking the same circuit thousands of times pays no per-gate matrix
/// construction, channel lookup, or allocation.
pub struct TrajPlan {
    size: usize,
    num_qubits: usize,
    /// One entry per instruction; `None` for barriers and measurements.
    steps: Vec<Option<TrajStep>>,
    /// Per-qubit channels suffered by a spliced 1-qubit injector gate
    /// (`U(θ,φ,λ)` — a calibrated physical gate, never the virtual `rz`).
    injector_channels: Vec<Vec<TrajChannel>>,
}

impl TrajPlan {
    /// Compiles `qc` against `model`.
    ///
    /// # Panics
    ///
    /// Panics if the model covers fewer qubits than the circuit uses.
    pub fn compile(qc: &QuantumCircuit, model: &NoiseModel) -> Self {
        let _compile_span = qufi_obs::span("noise.traj.compile_ns");
        qufi_obs::add("noise.traj_plans_compiled", 1);
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
                .map(|(ch, targets)| TrajChannel {
                    ops: ch.kraus_operators().to_vec(),
                    targets,
                })
                .collect::<Vec<_>>()
        };
        let steps = qc
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate { gate, qubits } => Some(TrajStep {
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
        TrajPlan {
            size: qc.size(),
            num_qubits: qc.num_qubits(),
            steps,
            injector_channels,
        }
    }

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
}

/// Reusable scratch for branch-weight evaluation: candidate branches are
/// applied to a copy of the state so the winner can be committed by a
/// buffer swap instead of a recompute. One workspace per shot loop;
/// after warmup the loop allocates nothing.
#[derive(Default)]
pub struct TrajWorkspace {
    scratch: Option<Statevector>,
}

impl TrajWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        TrajWorkspace::default()
    }
}

/// A paused trajectory evolution: the statevector of **one shot** after
/// the first [`position`](TrajectoryCursor::position) instructions, with
/// every noise channel so far collapsed to a sampled Kraus branch.
///
/// The RNG is threaded through the advance calls rather than owned, so a
/// caller can park a prefix state and later resume the suffix under an
/// independently-seeded stream — the seed-derivation trick that keeps
/// grid replay schedule-invariant.
pub struct TrajectoryCursor {
    sv: Statevector,
    pos: usize,
}

impl TrajectoryCursor {
    /// A cursor at instruction 0 of the plan's circuit in `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns an error when the register exceeds the statevector
    /// engine's width limit.
    pub fn start(plan: &TrajPlan) -> Result<Self, SimError> {
        Ok(TrajectoryCursor {
            sv: Statevector::new(plan.num_qubits())?,
            pos: 0,
        })
    }

    /// Resumes from a previously-parked statevector at instruction `pos`
    /// — the inverse of [`TrajectoryCursor::into_state`].
    pub fn resume(sv: Statevector, pos: usize) -> Self {
        TrajectoryCursor { sv, pos }
    }

    /// Number of instructions already applied.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The current statevector.
    #[inline]
    pub fn state(&self) -> &Statevector {
        &self.sv
    }

    /// Consumes the cursor, yielding the statevector.
    pub fn into_state(self) -> Statevector {
        self.sv
    }

    /// Samples one Kraus branch of `ch` and applies it.
    ///
    /// Single-operator channels are applied directly — a one-operator
    /// CPTP channel is unitary, so no weight evaluation or RNG draw is
    /// needed (and skipping the draw keeps the per-shot stream fixed).
    /// Multi-branch channels consume exactly one uniform draw: branches
    /// are evaluated in the model's canonical order into the workspace
    /// scratch, and the first whose cumulative weight exceeds the draw
    /// wins. If floating-point shortfall leaves the cumulative weight
    /// below the draw after the last branch (`Σwᵢ = 1` only up to
    /// rounding), the last evaluated branch is committed.
    fn apply_channel<R: Rng>(&mut self, ch: &TrajChannel, rng: &mut R, ws: &mut TrajWorkspace) {
        if let [only] = ch.ops.as_slice() {
            self.sv.apply_matrix(only, &ch.targets);
            return;
        }
        qufi_obs::add("traj.branch_draws", 1);
        let u: f64 = rng.gen();
        let scratch = ws
            .scratch
            .get_or_insert_with(|| Statevector::from_amplitudes(vec![Complex::ONE]));
        let mut cumulative = 0.0f64;
        let mut weight = 1.0f64;
        for op in &ch.ops {
            qufi_obs::add("traj.branch_evals", 1);
            scratch.copy_from(&self.sv);
            scratch.apply_matrix(op, &ch.targets);
            weight = scratch
                .amplitudes()
                .iter()
                .map(|a| a.norm_sqr())
                .sum::<f64>();
            cumulative += weight;
            if u < cumulative {
                std::mem::swap(&mut self.sv, scratch);
                self.sv.scale(1.0 / weight.sqrt());
                return;
            }
        }
        // Σwᵢ fell short of the draw by rounding: commit the last branch,
        // which is still parked in scratch.
        qufi_obs::add("traj.branch_fallback", 1);
        std::mem::swap(&mut self.sv, scratch);
        self.sv.scale(1.0 / weight.sqrt());
    }

    /// Applies instructions `[position, upto)` through the plan: each
    /// gate's unitary, then one sampled branch per channel.
    ///
    /// # Panics
    ///
    /// Panics when `upto` is behind the cursor or beyond the plan.
    pub fn advance_planned<R: Rng>(
        &mut self,
        plan: &TrajPlan,
        upto: usize,
        rng: &mut R,
        ws: &mut TrajWorkspace,
    ) {
        assert!(
            upto >= self.pos,
            "cursor at {} cannot rewind to {upto}",
            self.pos
        );
        assert!(
            upto <= plan.size(),
            "advance_planned({upto}) beyond plan of {} instructions",
            plan.size()
        );
        for step in plan.steps[self.pos..upto].iter().flatten() {
            self.sv.apply_matrix(&step.matrix, &step.qubits);
            for ch in &step.channels {
                self.apply_channel(ch, rng, ws);
            }
        }
        self.pos = upto;
    }

    /// The trajectory counterpart of
    /// [`crate::NoisyCursor::apply_planned_injector`]: applies a spliced
    /// 1-qubit injector gate's unitary, then one sampled branch per
    /// channel the plan cached for a calibrated 1-qubit gate on `qubit`,
    /// without moving the instruction position.
    ///
    /// # Panics
    ///
    /// Panics for multi-qubit gates and for the virtual `rz` (which
    /// carries no noise and must not be spliced through this path).
    pub fn apply_planned_injector<R: Rng>(
        &mut self,
        plan: &TrajPlan,
        gate: Gate,
        qubit: usize,
        rng: &mut R,
        ws: &mut TrajWorkspace,
    ) {
        assert_eq!(gate.num_qubits(), 1, "injector must be a 1-qubit gate");
        assert!(
            !matches!(gate, Gate::Rz(_)),
            "virtual rz gates carry no noise and cannot use the injector path"
        );
        self.sv.apply_matrix(&gate.matrix(), &[qubit]);
        for ch in &plan.injector_channels[qubit] {
            self.apply_channel(ch, rng, ws);
        }
    }
}

/// Accumulates per-shot probability vectors into [`SHOT_BLOCK`]-sized
/// partial sums so the fold order is fixed by shot *index*: the
/// [`mean`](ShotAccumulator::mean) folds the partials in block order.
pub struct ShotAccumulator {
    dim: usize,
    shots: u64,
    blocks: Vec<Vec<f64>>,
}

impl ShotAccumulator {
    /// An accumulator covering all `shots` shots of an `num_qubits`-wide
    /// register.
    ///
    /// # Panics
    ///
    /// Panics when `shots` is zero.
    pub fn new(num_qubits: usize, shots: u64) -> Self {
        assert!(shots > 0, "trajectory execution needs at least one shot");
        let dim = 1usize << num_qubits;
        ShotAccumulator {
            dim,
            shots,
            blocks: vec![vec![0.0; dim]; shots.div_ceil(SHOT_BLOCK) as usize],
        }
    }

    /// Adds shot `shot`'s Born-rule probabilities. Shots **must** be
    /// added in increasing index order within each block, so the
    /// per-block FP sums are fixed.
    ///
    /// # Panics
    ///
    /// Panics when the shot lies past the last block or the state width
    /// disagrees.
    pub fn add_shot(&mut self, shot: u64, sv: &Statevector) {
        assert_eq!(sv.amplitudes().len(), self.dim, "state width mismatch");
        let partial = &mut self.blocks[(shot / SHOT_BLOCK) as usize];
        for (acc, a) in partial.iter_mut().zip(sv.amplitudes()) {
            *acc += a.norm_sqr();
        }
    }

    /// The mean probability vector: block partials folded strictly in
    /// block order, divided by the shot count last.
    pub fn mean(&self) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.dim];
        for block in &self.blocks {
            for (a, &p) in acc.iter_mut().zip(block) {
                *a += p;
            }
        }
        let inv = 1.0 / self.shots as f64;
        for a in &mut acc {
            *a *= inv;
        }
        acc
    }
}

/// Completes a trajectory run: readout confusion on the averaged qubit
/// distribution, then marginalization through `qc`'s measurement map —
/// the statistical mirror of [`crate::NoisyCursor::finish_dist`].
/// (Readout confusion is linear, so confusing the average equals
/// averaging confused shots.)
pub fn finish_trajectory_dist(
    mean_probs: Vec<f64>,
    num_qubits: usize,
    model: &NoiseModel,
    qc: &QuantumCircuit,
) -> ProbDist {
    let mut dist = ProbDist::from_probs(mean_probs, num_qubits);
    dist = apply_readout_errors(&dist, model.readout_errors());
    let map = qc.measurement_map();
    if map.is_empty() {
        dist
    } else {
        dist.marginalize(&map, qc.num_clbits())
    }
}

/// Full trajectory execution of `qc` under `model`: `shots` independent
/// trajectories, each seeded by `seed_for_shot(shot)`, averaged and
/// finished through readout confusion and marginalization.
///
/// The result is a pure function of the circuit, model, shot count, and
/// seed sequence — independent of scheduling, which is why callers derive
/// per-shot seeds from a `SeedHasher`-style mix rather than sharing a
/// sequential RNG.
///
/// # Errors
///
/// Returns an error when the register exceeds the statevector engine's
/// width limit.
///
/// # Panics
///
/// Panics if the model covers fewer qubits than the circuit uses or
/// `shots` is zero.
pub fn run_trajectories(
    qc: &QuantumCircuit,
    model: &NoiseModel,
    shots: u64,
    mut seed_for_shot: impl FnMut(u64) -> u64,
) -> Result<ProbDist, SimError> {
    let plan = TrajPlan::compile(qc, model);
    // Surface the width error before any shot work.
    TrajectoryCursor::start(&plan)?;
    qufi_obs::add("traj.shots", shots);
    let mut acc = ShotAccumulator::new(qc.num_qubits(), shots);
    let mut ws = TrajWorkspace::new();
    for shot in 0..shots {
        let mut rng = SmallRng::seed_from_u64(seed_for_shot(shot));
        let mut cursor = TrajectoryCursor::start(&plan)?;
        cursor.advance_planned(&plan, plan.size(), &mut rng, &mut ws);
        acc.add_shot(shot, cursor.state());
    }
    Ok(finish_trajectory_dist(
        acc.mean(),
        qc.num_qubits(),
        model,
        qc,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendCalibration;
    use crate::simulate::run_noisy;

    fn bell() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        qc
    }

    fn shot_seed(base: u64) -> impl FnMut(u64) -> u64 {
        move |shot| base.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(shot)
    }

    #[test]
    fn ideal_model_reproduces_statevector_per_shot() {
        let qc = bell();
        let d = run_trajectories(&qc, &NoiseModel::ideal(2), 8, shot_seed(1)).unwrap();
        let pure = Statevector::from_circuit(&qc)
            .unwrap()
            .measurement_distribution(&qc);
        // No channels → every shot is the exact pure state; 8 shots suffice.
        assert!(d.tv_distance(&pure) < 1e-12);
    }

    #[test]
    fn fixed_seeds_are_bit_identical() {
        let qc = bell();
        let model = BackendCalibration::jakarta()
            .restrict(&[0, 1])
            .noise_model();
        let a = run_trajectories(&qc, &model, 64, shot_seed(7)).unwrap();
        let b = run_trajectories(&qc, &model, 64, shot_seed(7)).unwrap();
        for i in 0..a.len() {
            assert_eq!(a.prob(i).to_bits(), b.prob(i).to_bits(), "outcome {i}");
        }
    }

    #[test]
    fn mean_converges_to_density_path() {
        let qc = bell();
        let model = BackendCalibration::jakarta()
            .restrict(&[0, 1])
            .noise_model();
        let oracle = run_noisy(&qc, &model).unwrap();
        let coarse = run_trajectories(&qc, &model, 256, shot_seed(3)).unwrap();
        let fine = run_trajectories(&qc, &model, 4096, shot_seed(3)).unwrap();
        assert!(coarse.tv_distance(&oracle) < 0.08);
        assert!(fine.tv_distance(&oracle) < 0.02);
    }

    #[test]
    fn readout_error_visible_on_deterministic_circuit() {
        let mut qc = QuantumCircuit::new(1, 1);
        qc.x(0).measure(0, 0);
        let model = BackendCalibration::jakarta().restrict(&[0]).noise_model();
        let d = run_trajectories(&qc, &model, 512, shot_seed(5)).unwrap();
        // p10 of qubit 0 is 3.8%; gate error adds a bit more.
        assert!(d.prob_of("0") > 0.02);
        assert!(d.prob_of("0") < 0.10);
    }

    #[test]
    fn injector_matches_inserted_gate_under_ideal_noise() {
        // With an ideal model the trajectory is deterministic, so the
        // spliced-injector path must agree exactly with insertion.
        let qc = bell();
        let model = NoiseModel::ideal(2);
        let plan = TrajPlan::compile(&qc, &model);
        let mut spliced = qc.clone();
        spliced.insert(1, Gate::U(0.7, 0.4, 0.0), &[0]);
        let straight = Statevector::from_circuit(&spliced)
            .unwrap()
            .measurement_distribution(&spliced);

        let mut rng = SmallRng::seed_from_u64(0);
        let mut ws = TrajWorkspace::new();
        let mut cursor = TrajectoryCursor::start(&plan).unwrap();
        cursor.advance_planned(&plan, 1, &mut rng, &mut ws);
        cursor.apply_planned_injector(&plan, Gate::U(0.7, 0.4, 0.0), 0, &mut rng, &mut ws);
        cursor.advance_planned(&plan, plan.size(), &mut rng, &mut ws);
        let mut acc = ShotAccumulator::new(2, 1);
        acc.add_shot(0, cursor.state());
        let d = finish_trajectory_dist(acc.mean(), 2, &model, &qc);
        for i in 0..d.len() {
            assert!((d.prob(i) - straight.prob(i)).abs() < 1e-12, "outcome {i}");
        }
    }

    #[test]
    #[should_panic(expected = "virtual rz")]
    fn injector_rejects_rz() {
        let qc = bell();
        let model = NoiseModel::ideal(2);
        let plan = TrajPlan::compile(&qc, &model);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ws = TrajWorkspace::new();
        let mut cursor = TrajectoryCursor::start(&plan).unwrap();
        cursor.apply_planned_injector(&plan, Gate::Rz(0.3), 0, &mut rng, &mut ws);
    }

    #[test]
    fn parked_prefix_resume_is_bit_identical_to_straight_shot() {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0).cx(0, 1).sx(2).cx(1, 2).x(0);
        qc.measure_all();
        let model = BackendCalibration::jakarta()
            .restrict(&[0, 1, 2])
            .noise_model();
        let plan = TrajPlan::compile(&qc, &model);
        let mut ws = TrajWorkspace::new();
        for split in 0..=plan.size() {
            // The prefix stream and the suffix stream are seeded
            // independently — exactly how the sweep engine replays.
            let straight = {
                let mut rng = SmallRng::seed_from_u64(41);
                let mut cursor = TrajectoryCursor::start(&plan).unwrap();
                cursor.advance_planned(&plan, split, &mut rng, &mut ws);
                let mut rng = SmallRng::seed_from_u64(42);
                cursor.advance_planned(&plan, plan.size(), &mut rng, &mut ws);
                cursor.into_state()
            };
            let resumed = {
                let mut rng = SmallRng::seed_from_u64(41);
                let mut cursor = TrajectoryCursor::start(&plan).unwrap();
                cursor.advance_planned(&plan, split, &mut rng, &mut ws);
                let parked = cursor.state().snapshot();
                assert_eq!(cursor.position(), split);
                let mut rng = SmallRng::seed_from_u64(42);
                let mut resumed = TrajectoryCursor::resume(parked, split);
                resumed.advance_planned(&plan, plan.size(), &mut rng, &mut ws);
                resumed.into_state()
            };
            for (i, (a, b)) in straight
                .amplitudes()
                .iter()
                .zip(resumed.amplitudes())
                .enumerate()
            {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "split {split}: amplitude {i} differs"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shots_panics() {
        let _ = ShotAccumulator::new(2, 0);
    }
}
