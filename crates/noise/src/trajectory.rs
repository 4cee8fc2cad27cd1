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
//!   ([`SHOT_BLOCK`]) that fold into the running sum in block order
//!   ([`ShotAccumulator`]), so the average's bits depend on shot indices
//!   alone.
//!
//! Readout confusion acts on the *averaged* distribution (it is linear in
//! the state, so this matches applying it per shot) and marginalization
//! follows: the one finish, [`crate::readout::finish_readout`], that
//! [`crate::simulate::NoisyCursor::finish_dist`] runs too.
//!
//! # Shots in lanes
//!
//! [`TrajectoryCursor`] runs one shot. [`LaneCursor`] runs up to
//! `qufi_sim::MAX_BATCH_CELLS` (16) shots in lockstep as the lanes of one
//! cell-major statevector block, each lane with its own RNG, so gates and
//! channels run stride-1 across shots while every shot keeps its own
//! summation order: each lane is bit-identical to that shot run alone
//! (`trajectory/lane_tests.rs` checks this against the scalar cursor).
//!
//! On a routed circuit a shot is mostly CX steps: the CX, then the
//! two-qubit depolarizing channel and each operand's relaxation channel.
//! Branch 0 of every calibrated channel is diagonal (identity-like) and
//! wins almost always. The scalar cursor copies the state, applies the
//! branch, sums its weight and renormalizes; the lanes pass over the block
//! instead. A pass forms each lane's weight `Σₐ|d·ψ[a]|²`, with each
//! product formed as the scalar kernel forms it and summed in amplitude
//! order, because `records.json` prints what these sums feed at full
//! precision. The lanes whose draw falls below their weight get branch 0
//! scaled by `1/√w`, but that commit waits for the next pass over the
//! block: the next channel's weight pass commits each amplitude before it
//! weighs it, and a gate or the end of an advance commits in a pass of its
//! own. So a CX step makes five passes: the CX, one weight pass, two
//! commit-and-weigh passes and one commit. The other lanes (0.5% of lane
//! draws on `traj-shard`) are extracted and continue through the scalar
//! channel code from branch 1 at once, before the commit, which leaves
//! them as they are.
//!
//! # Where a shot's time goes
//!
//! Scalar, a routed CX step of one 10-qubit shot took 9.5–11.0 µs on one
//! core of an AVX-512 Xeon: 17% in the CX, 33–35% in the three branch
//! kernels, 27–30% in the weight sums and 7–8% in the copies. In lanes, a
//! 10-qubit block of 16 shots holds 256 KiB, so its passes stream from L2
//! rather than L1, but every pass is vector work across 16 shots, and the
//! kernels skip what the bits do not need: the CX copies amplitudes, and
//! the relaxation's unit entry (`diag(1, c)`) is never multiplied. A CX
//! step of such a block, fastest of 60 rounds of 20, took 38–41 ns per
//! amplitude (55–60 ns with a separate weight and commit pass per
//! channel). Timed per phase on that core (`qufi run` of a ghz-10
//! `traj-shard` manifest at one thread, three runs), the lanes spend
//! 19–20% in gates, 10–11% in weight-only passes, 43–45% in
//! commit-and-weigh passes, 16–17% in commit-only passes, 8–9% in
//! extracted lanes and under 1% each in draws, block copies and shot
//! accumulation.

use crate::model::NoiseModel;
use crate::readout::finish_readout;
use qufi_math::{CMatrix, Complex};
use qufi_sim::circuit::Op;
use qufi_sim::{
    batch_width, BatchedStatevector, Gate, ProbDist, QuantumCircuit, SimError, Statevector,
    MAX_BATCH_CELLS,
};
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
    /// The diagonal of branch 0 when every off-diagonal entry is zero (of
    /// either sign), which holds for every calibrated relaxation and
    /// depolarizing channel: the lanes then weigh and commit branch 0 in
    /// passes over the block (see [`LaneCursor`]).
    diagonal: Option<Vec<Complex>>,
}

impl TrajChannel {
    fn new(ops: Vec<CMatrix>, targets: Vec<usize>) -> Self {
        let k0 = &ops[0];
        let dim = k0.rows();
        let diagonal = (0..dim)
            .all(|r| (0..dim).all(|c| r == c || (k0[(r, c)].re == 0.0 && k0[(r, c)].im == 0.0)))
            .then(|| (0..dim).map(|i| k0[(i, i)]).collect());
        TrajChannel {
            ops,
            targets,
            diagonal,
        }
    }

    /// Commits one of branches `from..` to `sv` for the draw `u`, where
    /// `cumulative` is the summed weight of the branches before `from`.
    ///
    /// Branches are evaluated in the model's canonical order into the
    /// workspace scratch, and the first whose cumulative weight exceeds the
    /// draw wins and is renormalized. If floating-point shortfall leaves
    /// the cumulative weight below the draw after the last branch
    /// (`Σwᵢ = 1` only up to rounding), the last evaluated branch is
    /// committed.
    fn sample_from(
        &self,
        sv: &mut Statevector,
        u: f64,
        from: usize,
        mut cumulative: f64,
        ws: &mut TrajWorkspace,
    ) {
        debug_assert!(from < self.ops.len(), "no branch left to evaluate");
        let scratch = ws
            .scratch
            .get_or_insert_with(|| Statevector::from_amplitudes(vec![Complex::ONE]));
        let mut weight = 1.0f64;
        for op in &self.ops[from..] {
            ws.evals += 1;
            ws.copies += 1;
            scratch.copy_from(sv);
            scratch.apply_matrix(op, &self.targets);
            weight = scratch
                .amplitudes()
                .iter()
                .map(|a| a.norm_sqr())
                .sum::<f64>();
            cumulative += weight;
            if u < cumulative {
                std::mem::swap(sv, scratch);
                sv.scale(1.0 / weight.sqrt());
                return;
            }
        }
        // Σwᵢ fell short of the draw by rounding: commit the last branch,
        // which is still parked in scratch.
        qufi_obs::add("traj.branch_fallback", 1);
        std::mem::swap(sv, scratch);
        sv.scale(1.0 / weight.sqrt());
    }
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
                .map(|(ch, targets)| TrajChannel::new(ch.kraus_operators().to_vec(), targets))
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

    /// The gate steps among instructions `[from, upto)`.
    ///
    /// # Panics
    ///
    /// Panics when `upto` is behind `from` or beyond the plan.
    fn steps(&self, from: usize, upto: usize) -> impl Iterator<Item = &TrajStep> {
        assert!(upto >= from, "cursor at {from} cannot rewind to {upto}");
        assert!(
            upto <= self.size,
            "advance_planned({upto}) beyond plan of {} instructions",
            self.size
        );
        self.steps[from..upto].iter().flatten()
    }

    /// The channels a spliced 1-qubit injector gate suffers on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics for multi-qubit gates and for the virtual `rz` (which
    /// carries no noise and must not be spliced through this path).
    fn injector(&self, gate: Gate, qubit: usize) -> &[TrajChannel] {
        assert_eq!(gate.num_qubits(), 1, "injector must be a 1-qubit gate");
        assert!(
            !matches!(gate, Gate::Rz(_)),
            "virtual rz gates carry no noise and cannot use the injector path"
        );
        &self.injector_channels[qubit]
    }
}

/// Reusable scratch for branch-weight evaluation: candidate branches are
/// applied to a copy of the state so the winner can be committed by a
/// buffer swap instead of a recompute, and a lane that leaves the fast
/// path is extracted into a statevector of its own. One workspace per shot
/// loop; after warmup the loop allocates nothing.
///
/// The workspace also tallies the loop's `traj.branch_draws`,
/// `traj.branch_evals`, `traj.lane_continuations` and `sim.state_copies`
/// (every shot state copied: a block copy counts its lanes) and adds each
/// to the telemetry recorder once, when it is dropped, rather than once
/// per draw, branch and copy.
#[derive(Default)]
pub struct TrajWorkspace {
    scratch: Option<Statevector>,
    lane: Option<Statevector>,
    draws: u64,
    evals: u64,
    continuations: u64,
    copies: u64,
}

impl TrajWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        TrajWorkspace::default()
    }
}

impl Drop for TrajWorkspace {
    fn drop(&mut self) {
        for (name, n) in [
            ("traj.branch_draws", self.draws),
            ("traj.branch_evals", self.evals),
            ("traj.lane_continuations", self.continuations),
            ("sim.state_copies", self.copies),
        ] {
            if n > 0 {
                qufi_obs::add(name, n);
            }
        }
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
    /// Multi-branch channels consume exactly one uniform draw and commit
    /// the first branch whose cumulative weight exceeds it
    /// (`TrajChannel::sample_from`).
    fn apply_channel<R: Rng>(&mut self, ch: &TrajChannel, rng: &mut R, ws: &mut TrajWorkspace) {
        if let [only] = ch.ops.as_slice() {
            self.sv.apply_matrix(only, &ch.targets);
            return;
        }
        ws.draws += 1;
        let u: f64 = rng.gen();
        ch.sample_from(&mut self.sv, u, 0, 0.0, ws);
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
        for step in plan.steps(self.pos, upto) {
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
        let channels = plan.injector(gate, qubit);
        self.sv.apply_matrix(&gate.matrix(), &[qubit]);
        for ch in channels {
            self.apply_channel(ch, rng, ws);
        }
    }
}

/// Up to [`MAX_BATCH_CELLS`] shots of one plan evolving in lockstep as the
/// lanes of one cell-major [`BatchedStatevector`] block: the lane
/// counterpart of [`TrajectoryCursor`].
///
/// Each lane is one shot with its own RNG, and the lanes see exactly the
/// operation sequence and draws a [`TrajectoryCursor`] makes for that shot,
/// so every lane is bit-identical to it:
///
/// - A gate, or a channel with one operator, goes through the batched
///   kernels (bit-identical to the scalar ones under `qufi_sim`'s
///   arithmetic contract) and draws nothing.
/// - A multi-branch channel draws once per lane. When its branch 0 is
///   diagonal, one pass forms every lane's branch-0 weight `w`. A lane
///   whose draw is not below `w` continues at once through the scalar
///   channel code from branch 1 with `w` as its cumulative weight, then is
///   written back. The other lanes get branch 0 scaled by `1/√w`, but that
///   commit is left pending: the next diagonal channel's weight pass
///   applies it as it goes, and anything else (a gate, a single-operator
///   channel, a branch 0 that is not diagonal, the end of an advance)
///   applies it first in a pass of its own. The commit leaves the
///   continued lanes as they are, so no lane is weighed twice. When branch
///   0 is not diagonal, every lane takes the scalar code from branch 0.
pub struct LaneCursor {
    block: BatchedStatevector,
    pos: usize,
    pending: PendingCommit,
}

/// The branch-0 commit of the last diagonal channel a [`LaneCursor`]
/// sampled, not yet applied: its diagonal, its targets and one scale per
/// lane (`None` for a lane that continued through the scalar code). The
/// buffers are reused from channel to channel.
#[derive(Default)]
struct PendingCommit {
    active: bool,
    diagonal: Vec<Complex>,
    targets: Vec<usize>,
    scale: [Option<f64>; MAX_BATCH_CELLS],
}

impl LaneCursor {
    /// A cursor at instruction 0 of the plan's circuit with `lanes` shots
    /// in `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns an error when the register exceeds the statevector
    /// engine's width limit.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is 0 or exceeds [`MAX_BATCH_CELLS`].
    pub fn start(plan: &TrajPlan, lanes: usize) -> Result<Self, SimError> {
        Ok(LaneCursor {
            block: BatchedStatevector::broadcast(&Statevector::new(plan.num_qubits())?, lanes),
            pos: 0,
            pending: PendingCommit::default(),
        })
    }

    /// Returns to instruction 0 with `lanes` shots in `|0…0⟩`, reusing the
    /// block's buffers.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is 0 or exceeds [`MAX_BATCH_CELLS`].
    pub fn restart(&mut self, lanes: usize) {
        self.block.reset(lanes);
        self.pos = 0;
    }

    /// Overwrites this cursor with a copy of `src`'s lanes and position,
    /// reusing the block's buffers; tallies one state copy per lane.
    pub fn fork_from(&mut self, src: &LaneCursor, ws: &mut TrajWorkspace) {
        debug_assert!(
            !src.pending.active,
            "public calls end with no commit pending"
        );
        ws.copies += src.lanes() as u64;
        self.block.copy_from(&src.block);
        self.pos = src.pos;
    }

    /// Number of lanes (shots) in the block.
    fn lanes(&self) -> usize {
        self.block.width()
    }

    /// Applies instructions `[position, upto)` through the plan to every
    /// lane, lane `i` drawing from `rngs[i]`.
    ///
    /// # Panics
    ///
    /// Panics when `upto` is behind the cursor or beyond the plan, or
    /// when there is not one RNG per lane.
    pub fn advance_planned<R: Rng>(
        &mut self,
        plan: &TrajPlan,
        upto: usize,
        rngs: &mut [R],
        ws: &mut TrajWorkspace,
    ) {
        assert_eq!(rngs.len(), self.lanes(), "one RNG per lane");
        for step in plan.steps(self.pos, upto) {
            self.flush();
            self.block.apply_matrix(&step.matrix, &step.qubits);
            for ch in &step.channels {
                self.apply_channel(ch, rngs, ws);
            }
        }
        self.flush();
        self.pos = upto;
    }

    /// The lane counterpart of [`TrajectoryCursor::apply_planned_injector`]:
    /// one injector gate shared by every lane, then its channels.
    ///
    /// # Panics
    ///
    /// Panics for multi-qubit gates, for the virtual `rz`, or when there
    /// is not one RNG per lane.
    pub fn apply_planned_injector<R: Rng>(
        &mut self,
        plan: &TrajPlan,
        gate: Gate,
        qubit: usize,
        rngs: &mut [R],
        ws: &mut TrajWorkspace,
    ) {
        assert_eq!(rngs.len(), self.lanes(), "one RNG per lane");
        let channels = plan.injector(gate, qubit);
        self.block.apply_matrix(&gate.matrix(), &[qubit]);
        for ch in channels {
            self.apply_channel(ch, rngs, ws);
        }
        self.flush();
    }

    /// Adds every lane to `acc` as shots `first, first + 1, …`, in shot
    /// order.
    pub fn accumulate(&self, acc: &mut ShotAccumulator, first: u64) {
        debug_assert!(
            !self.pending.active,
            "public calls end with no commit pending"
        );
        for lane in 0..self.lanes() {
            acc.add_with(first + lane as u64, |row| {
                self.block.add_probabilities(lane, row)
            });
        }
    }

    /// Samples one branch of `ch` in every lane (see [`LaneCursor`]),
    /// leaving a diagonal branch 0's commit pending.
    fn apply_channel<R: Rng>(&mut self, ch: &TrajChannel, rngs: &mut [R], ws: &mut TrajWorkspace) {
        if let [only] = ch.ops.as_slice() {
            self.flush();
            self.block.apply_matrix(only, &ch.targets);
            return;
        }
        let lanes = self.lanes();
        ws.draws += lanes as u64;
        let mut draws = [0.0f64; MAX_BATCH_CELLS];
        for (u, rng) in draws.iter_mut().zip(rngs.iter_mut()) {
            *u = rng.gen();
        }
        let Some(diagonal) = &ch.diagonal else {
            self.flush();
            for (lane, &u) in draws[..lanes].iter().enumerate() {
                self.continue_lane(lane, ch, u, 0, 0.0, ws);
            }
            return;
        };
        ws.evals += lanes as u64;
        let mut weights = [0.0f64; MAX_BATCH_CELLS];
        let pending = &mut self.pending;
        if pending.active {
            self.block.apply_diagonal_scaled_and_weigh(
                (&pending.diagonal, &pending.targets),
                &pending.scale[..lanes],
                (diagonal, &ch.targets),
                &mut weights[..lanes],
            );
        } else {
            self.block
                .diagonal_weights(diagonal, &ch.targets, &mut weights[..lanes]);
        }
        // `0 + w = w` for a weight, which is never `−0`: a lane accepts
        // branch 0 exactly when the scalar cumulative sum would.
        for ((s, &u), &w) in pending
            .scale
            .iter_mut()
            .zip(&draws)
            .zip(&weights)
            .take(lanes)
        {
            *s = (u < w).then(|| 1.0 / w.sqrt());
        }
        pending.active = true;
        pending.diagonal.clone_from(diagonal);
        pending.targets.clone_from(&ch.targets);
        for lane in 0..lanes {
            if self.pending.scale[lane].is_none() {
                self.continue_lane(lane, ch, draws[lane], 1, weights[lane], ws);
            }
        }
    }

    /// Applies the pending branch-0 commit, if any, in a pass of its own.
    fn flush(&mut self) {
        let pending = &mut self.pending;
        if pending.active {
            pending.active = false;
            let lanes = self.block.width();
            self.block.apply_diagonal_scaled(
                &pending.diagonal,
                &pending.targets,
                &pending.scale[..lanes],
            );
        }
    }

    /// Runs lane `lane` through the scalar channel code from branch `from`
    /// with the summed weight `cumulative` of the branches before it.
    fn continue_lane(
        &mut self,
        lane: usize,
        ch: &TrajChannel,
        u: f64,
        from: usize,
        cumulative: f64,
        ws: &mut TrajWorkspace,
    ) {
        ws.continuations += 1;
        ws.copies += 2;
        let mut sv = ws
            .lane
            .take()
            .unwrap_or_else(|| Statevector::from_amplitudes(vec![Complex::ONE]));
        self.block.extract_cell(lane, &mut sv);
        ch.sample_from(&mut sv, u, from, cumulative, ws);
        self.block.store_cell(lane, &sv);
        ws.lane = Some(sv);
    }
}

/// Accumulates per-shot probability vectors into [`SHOT_BLOCK`]-sized
/// partial sums so the fold order is fixed by shot *index*: each partial
/// folds into the running sum as soon as its last shot lands, so the sum
/// is `0 + p₀ + p₁ + …` in block order and a cell holds two rows.
pub struct ShotAccumulator {
    shots: u64,
    /// The next shot index to land.
    next: u64,
    partial: Vec<f64>,
    sum: Vec<f64>,
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
            shots,
            next: 0,
            partial: vec![0.0; dim],
            sum: vec![0.0; dim],
        }
    }

    /// Adds shot `shot`'s Born-rule probabilities.
    ///
    /// # Panics
    ///
    /// Panics unless `shot` is the next shot in index order, or when the
    /// state width disagrees.
    pub fn add_shot(&mut self, shot: u64, sv: &Statevector) {
        assert_eq!(
            sv.amplitudes().len(),
            self.sum.len(),
            "state width mismatch"
        );
        self.add_with(shot, |partial| {
            for (acc, a) in partial.iter_mut().zip(sv.amplitudes()) {
                *acc += a.norm_sqr();
            }
        });
    }

    /// Lands shot `shot`, whose probabilities `add` adds to the current
    /// partial row, and folds the partial into the sum when it was the
    /// block's last shot.
    fn add_with(&mut self, shot: u64, add: impl FnOnce(&mut [f64])) {
        assert_eq!(shot, self.next, "shots must land in index order");
        assert!(
            shot < self.shots,
            "shot {shot} past the last of {}",
            self.shots
        );
        add(&mut self.partial);
        self.next += 1;
        if self.next.is_multiple_of(SHOT_BLOCK) || self.next == self.shots {
            for (s, p) in self.sum.iter_mut().zip(&mut self.partial) {
                *s += *p;
                *p = 0.0;
            }
        }
    }

    /// The mean probability vector: block partials folded strictly in
    /// block order, divided by the shot count last.
    ///
    /// # Panics
    ///
    /// Panics before every shot has landed.
    pub fn mean(&self) -> Vec<f64> {
        assert_eq!(self.next, self.shots, "mean before every shot landed");
        let inv = 1.0 / self.shots as f64;
        self.sum.iter().map(|s| s * inv).collect()
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
    finish_readout(
        ProbDist::from_probs(mean_probs, num_qubits),
        model.readout_errors(),
        &qc.measurement_map(),
        qc.num_clbits(),
    )
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
    // Surfaces the width error before any shot work.
    let mut cursor = LaneCursor::start(&plan, 1)?;
    let lanes = batch_width(1 << plan.num_qubits());
    qufi_obs::add("traj.shots", shots);
    let mut acc = ShotAccumulator::new(qc.num_qubits(), shots);
    let mut ws = TrajWorkspace::new();
    let mut rngs = Vec::with_capacity(lanes);
    for first in (0..shots).step_by(lanes) {
        let width = (shots - first).min(lanes as u64);
        cursor.restart(width as usize);
        rngs.clear();
        rngs.extend(
            (first..first + width).map(|shot| SmallRng::seed_from_u64(seed_for_shot(shot))),
        );
        cursor.advance_planned(&plan, plan.size(), &mut rngs, &mut ws);
        cursor.accumulate(&mut acc, first);
    }
    Ok(finish_trajectory_dist(
        acc.mean(),
        qc.num_qubits(),
        model,
        qc,
    ))
}

#[cfg(test)]
mod lane_tests;

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
                let parked = cursor.state().clone();
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
