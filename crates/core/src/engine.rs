//! The forked-state sweep engine.
//!
//! The paper's sweep varies only the injected `U(θ, φ, 0)` gate: all 312
//! configurations of one injection point (§IV-B) share everything before
//! the injector. The naive pipeline nevertheless rebuilt, re-transpiled and
//! re-simulated the whole faulty circuit per configuration. This module
//! splits that work:
//!
//! 1. [`SweepExecutor::prepare`] runs **once per injection point**: it
//!    carries the logical site through transpilation with a splice marker
//!    ([`crate::mapping`]), compacts the physical circuit, evolves the
//!    prefix up to the splice boundary, and parks the simulator state.
//! 2. [`PreparedSweep::replay`] runs **once per configuration**: it forks
//!    the parked state, applies the injector gate (which suffers gate noise
//!    like any physical gate), finishes the suffix, and reads out.
//!
//! Each scenario parks its point in one private type: `IdealPrepared`
//! (statevector prefix of the logical circuit), `PhysicalSweep`
//! (density-matrix prefix under the noise model, for the noisy scenario
//! and — plus a finite-shot sampler — the hardware one) and
//! `TrajectorySweep` (shots as the lanes of statevector blocks). One generic
//! wrapper implements [`PreparedSweep`] and [`PreparedDoubleSweep`] over
//! all three, so a single fault and the double strike of §III-C take the
//! same replay code with one or two splice sites.
//!
//! Because the prefix/suffix evolution applies exactly the same operation
//! sequence as a straight run (see [`qufi_noise::simulate::NoisyCursor`]),
//! a replay is **bit-identical** to the naive rebuild — a guarantee pinned
//! by `tests/fork_equivalence.rs`, which diffs every replay against
//! [`PreparedSweep::replay_naive`], the retained per-configuration oracle
//! path.
//!
//! Faults are spliced into the **transpiled physical circuit**, matching
//! the paper's methodology ("QuFI keeps track of the logical and physical
//! qubits throughout the transpiling process", §IV-C): a radiation strike
//! is a runtime event, so the injector must not be fused away or merged
//! with neighboring gates by the circuit optimizer.

use crate::error::ExecError;
use crate::executor::{
    compile, Executor, HardwareExecutor, IdealExecutor, NoisyExecutor, TrajectoryExecutor,
};
use crate::fault::{
    check_double_site, check_fault_order, check_injection_point, FaultGrid, FaultParams,
    InjectionPoint,
};
use crate::mapping::{mark_double_injection_site, mark_injection_site, SpliceSite};
use qufi_math::CMatrix;
use qufi_noise::readout::finish_readout;
use qufi_noise::simulate::{NoisePlan, NoisyCursor};
use qufi_noise::trajectory::{
    finish_trajectory_dist, LaneCursor, ShotAccumulator, TrajPlan, TrajWorkspace, TrajectoryCursor,
};
use qufi_noise::NoiseModel;
use qufi_sim::{
    batch_width, BatchedDensity, BatchedStatevector, DensityMatrix, ObservedMask, Op, ProbDist,
    QuantumCircuit, Statevector,
};
use qufi_transpile::Transpiler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;

/// An [`Executor`] that can split a fault sweep into per-point preparation
/// and per-configuration replay.
pub trait SweepExecutor: Executor {
    /// Prepares a single-fault sweep at `point`: transpile once, evolve
    /// the shared prefix once, park the state.
    ///
    /// # Errors
    ///
    /// Out-of-range points, transpilation and simulation failures.
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError>;

    /// Prepares a double-fault sweep: the first fault at `point`, the
    /// second on `neighbor` at the same position (§III-C).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SweepExecutor::prepare`], plus an invalid
    /// neighbor.
    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError>;
}

/// A parked single-fault sweep: replay any `(θ, φ)` against the snapshot.
///
/// Implementations are `Sync`: replays only *borrow* the parked snapshot
/// (each one evolves its own copy), so any number of threads may replay
/// concurrently against one prepared sweep — the foundation of
/// [`PreparedSweep::replay_grid`].
pub trait PreparedSweep: Sync {
    /// Fast path: fork the parked prefix state and finish the suffix with
    /// the injector spliced in.
    ///
    /// # Errors
    ///
    /// Simulation failures.
    fn replay(&self, fault: FaultParams) -> Result<ProbDist, ExecError>;

    /// Oracle path: rebuild, re-transpile and re-simulate the entire
    /// faulty circuit from scratch — the pre-engine per-configuration
    /// pipeline. Kept as the ground truth the differential suite diffs
    /// [`PreparedSweep::replay`] against.
    ///
    /// # Errors
    ///
    /// Simulation and transpilation failures.
    fn replay_naive(&self, fault: FaultParams) -> Result<ProbDist, ExecError>;

    /// Replays the entire `(θ, φ)` grid across `threads` worker threads,
    /// returning one distribution per cell **in grid order**
    /// ([`FaultGrid::iter`] order).
    ///
    /// Cells are grouped by θ and cut into blocks of up to 16 cells (fewer
    /// when a block would exceed the amplitude budget). A block of
    /// two or more cells evolves in lockstep through the cell-major
    /// kernels of [`qufi_sim::batch`], so each suffix gate's index
    /// arithmetic is computed once per block, its inner loops run stride-1
    /// across cells, and θ-identical cells share one `sin/cos(θ/2)`
    /// evaluation of the injector. A one-cell block takes the scalar
    /// [`PreparedSweep::replay`] path. Trajectory blocks instead run each
    /// shot batch's prefix once and share it among the block's cells.
    ///
    /// Determinism contract: a cell goes through exactly the operation
    /// sequence of [`PreparedSweep::replay`] in either path, the blocks are
    /// fixed by the grid alone (whichever worker of [`crate::par::run`]
    /// claims one), and every replay depends only on `(self, fault)` — so
    /// the returned cells are bit-identical to per-cell replays for every
    /// thread count, including `threads = 1`. Sampling scenarios keep this
    /// property because their seeds derive from the fault angles, never
    /// from replay order.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PreparedSweep::replay`].
    fn replay_grid(&self, grid: &FaultGrid, threads: usize) -> Result<Vec<ProbDist>, ExecError>;

    /// Gates evolved once at preparation time (the shared prefix).
    fn prefix_gates(&self) -> usize;

    /// Gates evolved per replay (the suffix, excluding the injector).
    fn suffix_gates(&self) -> usize;
}

/// One injector matrix per cell of a θ-sorted block, hoisting the
/// `sin/cos(θ/2)` pair across runs of θ-identical cells. Bit-identical to
/// per-cell [`CMatrix::u_gate`] construction because `u_gate` delegates to
/// [`CMatrix::u_gate_from_trig`].
fn injector_matrices(faults: &[FaultParams]) -> Vec<CMatrix> {
    let mut mats = Vec::with_capacity(faults.len());
    let mut run: Option<(u64, (f64, f64))> = None;
    for f in faults {
        let bits = f.theta.to_bits();
        let (s, c) = match run {
            Some((b, sc)) if b == bits => sc,
            _ => {
                let sc = ((f.theta / 2.0).sin(), (f.theta / 2.0).cos());
                run = Some((bits, sc));
                sc
            }
        };
        mats.push(CMatrix::u_gate_from_trig(s, c, f.phi, f.lambda));
    }
    mats
}

/// The block split behind every [`PreparedSweep::replay_grid`]: cells are
/// stably sorted by θ bit pattern (θ-identical cells share one trig
/// evaluation and blocks stay maximally uniform) and chunked into
/// `width`-sized blocks — the ragged tail simply forms a narrower block.
/// The blocks are the tasks of [`crate::par::run`] over `threads` workers.
/// A one-cell block goes through `replay_cell`, every wider one through
/// `replay_block`. Results scatter back to **grid order** by original cell
/// index; the sort is invisible in the output because every replay depends
/// only on `(sweep, fault)`.
///
/// Replays are infallible (the fallible work — transpilation, planning,
/// prefix evolution — happened at prepare time), so the tasks' error type
/// is [`Infallible`]. The `replay.batch.*` counters count cell-major
/// blocks only; one-cell blocks count as `replay.batch.scalar_fallback`.
fn replay_grid_blocks(
    grid: &FaultGrid,
    threads: usize,
    width: usize,
    replay_cell: impl Fn(FaultParams) -> ProbDist + Sync,
    replay_block: impl Fn(&[FaultParams]) -> Vec<ProbDist> + Sync,
) -> Vec<ProbDist> {
    let mut sorted: Vec<(usize, FaultParams)> = grid
        .iter()
        .map(|(theta, phi)| FaultParams::shift(theta, phi))
        .enumerate()
        .collect();
    if sorted.is_empty() {
        return Vec::new();
    }
    sorted.sort_by_key(|(_, f)| f.theta.to_bits());
    let (order, faults): (Vec<usize>, Vec<FaultParams>) = sorted.into_iter().unzip();
    let _grid_span = qufi_obs::span("replay.grid_ns");
    let block_count = faults.len().div_ceil(width);
    let block = |b: usize| b * width..((b + 1) * width).min(faults.len());
    let Ok(blocks) = crate::par::run(block_count, threads, |b| {
        let dists = match faults[block(b)] {
            [fault] => vec![replay_cell(fault)],
            ref cells => replay_block(cells),
        };
        debug_assert_eq!(dists.len(), block(b).len());
        Ok::<_, Infallible>(dists)
    });
    let mut out: Vec<Option<ProbDist>> = vec![None; faults.len()];
    for (b, dists) in blocks.into_iter().enumerate() {
        for (&i, dist) in order[block(b)].iter().zip(dists) {
            out[i] = Some(dist);
        }
    }
    // One-cell blocks are all of them (width 1) or only the ragged tail,
    // so the cell-major cells are a prefix of the sorted order.
    let scalar_cells = (0..block_count).filter(|&b| block(b).len() == 1).count();
    let batched = &faults[..faults.len() - scalar_cells];
    qufi_obs::add("replay.cells", faults.len() as u64);
    if !batched.is_empty() {
        let theta_groups = 1 + batched
            .windows(2)
            .filter(|w| w[0].theta.to_bits() != w[1].theta.to_bits())
            .count();
        qufi_obs::add("replay.batch.cells", batched.len() as u64);
        qufi_obs::add("replay.batch.blocks", (block_count - scalar_cells) as u64);
        qufi_obs::add("replay.batch.theta_groups", theta_groups as u64);
    }
    if scalar_cells > 0 {
        qufi_obs::add("replay.batch.scalar_fallback", scalar_cells as u64);
    }
    out.into_iter()
        .map(|slot| slot.expect("every cell was replayed"))
        .collect()
}

/// A parked double-fault sweep.
pub trait PreparedDoubleSweep {
    /// Fast path for a `(first, second)` fault pair.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidFault`] when the second fault exceeds the
    /// first; simulation failures otherwise.
    fn replay(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError>;

    /// Oracle path: full rebuild per fault pair.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PreparedDoubleSweep::replay`].
    fn replay_naive(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError>;
}

/// One scenario's parked injection point, with one splice site per fault:
/// the struck qubit, then the neighbor of a double strike. `faults` holds
/// one fault per site, in site order.
trait SweepPoint: Sync {
    /// Fast path: fork the parked prefix and finish the suffix with the
    /// injectors spliced in.
    fn replay(&self, faults: &[FaultParams]) -> ProbDist;

    /// Oracle path: rebuild and re-simulate the whole faulty circuit.
    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError>;

    /// Cells per grid block: one unless the point has a cell-major engine.
    fn block_width(&self) -> usize {
        1
    }

    /// One θ-sorted block of two or more cells, each bit-identical to its
    /// [`SweepPoint::replay`]. Reached only when the block width exceeds 1.
    fn replay_block(&self, _faults: &[FaultParams]) -> Vec<ProbDist> {
        unreachable!("width-1 grids form one-cell blocks only")
    }

    /// The circuit the replays run on and the instruction index the parked
    /// prefix reached.
    fn prefix_boundary(&self) -> (&QuantumCircuit, usize);
}

/// The one implementation of [`PreparedSweep`] and [`PreparedDoubleSweep`],
/// over any scenario's [`SweepPoint`].
struct Prepared<P>(P);

impl<P: SweepPoint> PreparedSweep for Prepared<P> {
    fn replay(&self, fault: FaultParams) -> Result<ProbDist, ExecError> {
        Ok(self.0.replay(&[fault]))
    }

    fn replay_naive(&self, fault: FaultParams) -> Result<ProbDist, ExecError> {
        self.0.replay_naive(&[fault])
    }

    fn replay_grid(&self, grid: &FaultGrid, threads: usize) -> Result<Vec<ProbDist>, ExecError> {
        let point = &self.0;
        Ok(replay_grid_blocks(
            grid,
            threads,
            point.block_width(),
            |fault| point.replay(&[fault]),
            |faults| point.replay_block(faults),
        ))
    }

    fn prefix_gates(&self) -> usize {
        let (qc, boundary) = self.0.prefix_boundary();
        gates_in(qc, 0..boundary)
    }

    fn suffix_gates(&self) -> usize {
        let (qc, boundary) = self.0.prefix_boundary();
        gates_in(qc, boundary..qc.size())
    }
}

impl<P: SweepPoint> PreparedDoubleSweep for Prepared<P> {
    fn replay(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        Ok(self.0.replay(&[first, second]))
    }

    fn replay_naive(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        self.0.replay_naive(&[first, second])
    }
}

/// Splices injector gates into a circuit at the given sites (ascending
/// index order, equal indices keep fault order).
fn splice_faults(
    qc: &QuantumCircuit,
    sites: &[SpliceSite],
    faults: &[FaultParams],
) -> QuantumCircuit {
    debug_assert_eq!(sites.len(), faults.len());
    let mut out = qc.clone();
    for (site, fault) in sites.iter().zip(faults).rev() {
        out.insert(site.index, fault.injector_gate(), &[site.qubit]);
    }
    out.name = format!("{}+fault", qc.name);
    out
}

/// Gate count of instructions `[0, upto)` / `[upto, len)` of a circuit.
fn gates_in(qc: &QuantumCircuit, range: std::ops::Range<usize>) -> usize {
    qc.ops()[range]
        .iter()
        .filter(|op| matches!(op, Op::Gate { .. }))
        .count()
}

/// Applies the gates among instructions `[from, upto)` of `qc` to `state`,
/// skipping barriers and measurements exactly as
/// [`Statevector::from_circuit`] does, so a prefix parked at `from` and
/// finished here is bit-identical to a straight run.
fn advance_state(state: &mut Statevector, qc: &QuantumCircuit, from: usize, upto: usize) {
    for op in &qc.ops()[from..upto] {
        if let Op::Gate { gate, qubits } = op {
            state.apply_gate(*gate, qubits);
        }
    }
}

/// [`advance_state`] for a batched block: the same instruction walk, each
/// gate shared by every cell of the block.
fn advance_batched(batch: &mut BatchedStatevector, qc: &QuantumCircuit, from: usize, upto: usize) {
    for op in &qc.ops()[from..upto] {
        if let Op::Gate { gate, qubits } = op {
            batch.apply_gate(*gate, qubits);
        }
    }
}

/// The qubits a strike at `point` hits, in splice-site order: the point's
/// qubit, then a double strike's `neighbor`.
fn struck_qubits(point: InjectionPoint, neighbor: Option<usize>) -> impl Iterator<Item = usize> {
    std::iter::once(point.qubit).chain(neighbor)
}

/// `qc` with a splice marker per struck qubit after `point` (see
/// [`crate::mapping`]), and the number of markers.
fn mark(
    qc: &QuantumCircuit,
    point: InjectionPoint,
    neighbor: Option<usize>,
) -> Result<(QuantumCircuit, usize), ExecError> {
    let marked = match neighbor {
        None => mark_injection_site(qc, point)?,
        Some(n) => mark_double_injection_site(qc, point, n)?,
    };
    Ok((marked, struck_qubits(point, neighbor).count()))
}

// ---------------------------------------------------------------------------
// Ideal executor: no transpilation, statevector prefix forking.

struct IdealPrepared {
    circuit: QuantumCircuit,
    sites: Vec<SpliceSite>,
    /// The state after instructions `[0, sites[0].index)`.
    prefix: Statevector,
}

impl IdealPrepared {
    /// Parks the statevector prefix of the logical circuit up to the
    /// injection site.
    fn new(
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Self, ExecError> {
        match neighbor {
            None => check_injection_point(qc, point)?,
            Some(n) => check_double_site(qc, point, n)?,
        }
        let index = point.op_index + 1;
        let sites = struck_qubits(point, neighbor)
            .map(|qubit| SpliceSite { index, qubit })
            .collect();
        let prefix_span = qufi_obs::span("prepare.prefix_ns");
        let mut prefix = Statevector::new(qc.num_qubits()).map_err(ExecError::Sim)?;
        advance_state(&mut prefix, qc, 0, index);
        prefix_span.finish();
        Ok(IdealPrepared {
            circuit: qc.clone(),
            sites,
            prefix,
        })
    }
}

impl SweepPoint for IdealPrepared {
    fn replay(&self, faults: &[FaultParams]) -> ProbDist {
        let mut sv = self.prefix.clone();
        let mut pos = self.sites[0].index;
        for (site, fault) in self.sites.iter().zip(faults) {
            advance_state(&mut sv, &self.circuit, pos, site.index);
            pos = site.index;
            sv.apply_gate(fault.injector_gate(), &[site.qubit]);
        }
        advance_state(&mut sv, &self.circuit, pos, self.circuit.size());
        sv.measurement_distribution(&self.circuit)
    }

    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        let faulty = splice_faults(&self.circuit, &self.sites, faults);
        let sv = Statevector::from_circuit(&faulty).map_err(ExecError::Sim)?;
        Ok(sv.measurement_distribution(&faulty))
    }

    /// Single-site points batch; the prefix always stops at the site.
    fn block_width(&self) -> usize {
        if self.sites.len() == 1 {
            batch_width(self.prefix.amplitudes().len())
        } else {
            1
        }
    }

    /// Broadcast the parked prefix into the block, apply each cell's
    /// injector, evolve the shared suffix once across all cells.
    fn replay_block(&self, faults: &[FaultParams]) -> Vec<ProbDist> {
        let site = &self.sites[0];
        let mats = injector_matrices(faults);
        let mut batch = BatchedStatevector::broadcast(&self.prefix, faults.len());
        batch.apply_matrix_per_cell(&mats, site.qubit);
        advance_batched(&mut batch, &self.circuit, site.index, self.circuit.size());
        let map = self.circuit.measurement_map();
        let clbits = self.circuit.num_clbits();
        (0..faults.len())
            .map(|c| finish_readout(batch.probabilities(c), &[], &map, clbits))
            .collect()
    }

    fn prefix_boundary(&self) -> (&QuantumCircuit, usize) {
        (&self.circuit, self.sites[0].index)
    }
}

impl SweepExecutor for IdealExecutor {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let sweep = IdealPrepared::new(qc, point, None)?;
        Ok(Box::new(Prepared(sweep)))
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        let sweep = IdealPrepared::new(qc, point, Some(neighbor))?;
        Ok(Box::new(Prepared(sweep)))
    }
}

// ---------------------------------------------------------------------------
// Transpiling executors: marker through the pipeline, density-matrix
// prefix forking under the noise model.

/// One batched density operation of a single-site suffix, in application
/// order (see [`PhysicalSweep::suffix_ops`]).
enum SuffixOp<'a> {
    /// The per-cell fault injector on the splice qubit.
    Injector(&'a usize),
    Unitary(&'a CMatrix, &'a [usize]),
    Superop(&'a CMatrix, &'a [usize]),
}

impl<'a> SuffixOp<'a> {
    /// A gate's noise channels, in the plan's order.
    fn channels(chs: &'a [(CMatrix, Vec<usize>)]) -> impl Iterator<Item = SuffixOp<'a>> {
        chs.iter()
            .map(|(superop, targets)| SuffixOp::Superop(superop, targets))
    }

    fn operands(&self) -> &'a [usize] {
        match *self {
            SuffixOp::Injector(qubit) => std::slice::from_ref(qubit),
            SuffixOp::Unitary(_, qubits) | SuffixOp::Superop(_, qubits) => qubits,
        }
    }
}

/// The finite-shot view the hardware scenario reads every exact
/// distribution through.
struct Sampler {
    /// Base for per-configuration sampling seeds.
    base: u64,
    shots: u64,
}

impl Sampler {
    /// Samples `exact`, seeded by the fault angles so replay order never
    /// matters.
    fn sample(&self, exact: ProbDist, faults: &[FaultParams]) -> ProbDist {
        let mut rng = SmallRng::seed_from_u64(fault_seed(self.base, faults).finish());
        exact.sample(&mut rng, self.shots).to_prob_dist()
    }
}

/// The noisy and hardware scenarios' parked point: the stripped compact
/// physical circuit, its splice sites, the noise model, and the parked
/// prefix state.
struct PhysicalSweep<'a> {
    /// Re-transpiles `marked` for every naive replay.
    transpiler: &'a Transpiler,
    /// Marked logical circuit.
    marked: QuantumCircuit,
    /// Stripped compact physical circuit the replays run on.
    physical: QuantumCircuit,
    /// Splice sites in compact physical coordinates, program order.
    sites: Vec<SpliceSite>,
    model: NoiseModel,
    /// The physical circuit compiled against the model: gate matrices and
    /// channel superoperators resolved once per point, reused per replay.
    plan: NoisePlan,
    prefix: DensityMatrix,
    prefix_pos: usize,
    /// One observed mask per [`PhysicalSweep::suffix_ops`] entry when the
    /// point is [`batchable`](PhysicalSweep::batchable), else empty.
    masks: Vec<ObservedMask>,
    /// The hardware scenario's finite-shot view; `None` keeps the exact
    /// distributions.
    sampler: Option<Sampler>,
}

impl<'a> PhysicalSweep<'a> {
    /// Marks `qc` at `point` (and `neighbor`), transpiles it, recovers the
    /// physical splice sites and parks the prefix evolution under
    /// `model_for(active)`.
    fn prepare(
        transpiler: &'a Transpiler,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
        model_for: impl FnOnce(&[usize]) -> NoiseModel,
        sampler: Option<Sampler>,
    ) -> Result<Self, ExecError> {
        let (marked, n_sites) = mark(qc, point, neighbor)?;
        let (physical, sites, active) = compile(transpiler, &marked, n_sites)?;
        let plan_span = qufi_obs::span("prepare.plan_ns");
        let model = model_for(&active);
        let plan = NoisePlan::compile(&physical, &model);
        plan_span.finish();
        let prefix_span = qufi_obs::span("prepare.prefix_ns");
        let mut cursor = NoisyCursor::start(&physical, &model).map_err(ExecError::Sim)?;
        cursor.advance_planned(&plan, sites[0].index);
        let prefix_pos = cursor.position();
        let prefix = cursor.into_state();
        prefix_span.finish();
        let mut sweep = PhysicalSweep {
            transpiler,
            marked,
            physical,
            sites,
            model,
            plan,
            prefix,
            prefix_pos,
            masks: Vec::new(),
            sampler,
        };
        if sweep.batchable() {
            // The readout reads only ρ's diagonal.
            let operands: Vec<&[usize]> = sweep.suffix_ops().map(|op| op.operands()).collect();
            sweep.masks = ObservedMask::backward_from_diagonal(operands);
        }
        Ok(sweep)
    }

    /// The noisy scenario: the executor's calibrated model, exact output.
    fn noisy(
        ex: &'a NoisyExecutor,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Self, ExecError> {
        PhysicalSweep::prepare(
            ex.transpiler(),
            qc,
            point,
            neighbor,
            |a| ex.model_for(a),
            None,
        )
    }

    /// The hardware scenario: one calibration batch per injection point.
    /// The drifted device and the sampling-seed base derive from (executor
    /// seed, point identity), never from the executor's shared stream.
    fn hardware(
        ex: &'a HardwareExecutor,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Self, ExecError> {
        let mut rng = SmallRng::seed_from_u64(point_seed(ex.seed(), point, neighbor));
        let cal = ex.calibration().with_drift(&mut rng, ex.drift_sigma());
        let sampler = Sampler {
            base: rng.gen(),
            shots: ex.shots(),
        };
        PhysicalSweep::prepare(
            ex.transpiler(),
            qc,
            point,
            neighbor,
            |active| cal.restrict(active).noise_model(),
            Some(sampler),
        )
    }

    /// `exact` as the scenario reports it: through the sampler, if any.
    fn finish(&self, exact: ProbDist, faults: &[FaultParams]) -> ProbDist {
        match &self.sampler {
            Some(sampler) => sampler.sample(exact, faults),
            None => exact,
        }
    }

    /// Whether the batched single-fault path applies: exactly one splice
    /// site, with the parked prefix advanced exactly to it.
    fn batchable(&self) -> bool {
        self.sites.len() == 1 && self.prefix_pos == self.sites[0].index
    }

    /// The batched suffix of a [`batchable`](PhysicalSweep::batchable)
    /// point: the per-cell injector and its channels, then each planned
    /// step's unitary and channels — the sequence
    /// [`SweepPoint::replay`] applies through the cursor.
    fn suffix_ops(&self) -> impl Iterator<Item = SuffixOp<'_>> {
        let site = &self.sites[0];
        std::iter::once(SuffixOp::Injector(&site.qubit))
            .chain(SuffixOp::channels(self.plan.injector_channels(site.qubit)))
            .chain(
                self.plan
                    .planned_steps(self.prefix_pos, self.physical.size())
                    .flat_map(|(matrix, qubits, chs)| {
                        std::iter::once(SuffixOp::Unitary(matrix, qubits))
                            .chain(SuffixOp::channels(chs))
                    }),
            )
    }
}

impl SweepPoint for PhysicalSweep<'_> {
    /// Fork the parked state, splice the injectors, finish the suffix
    /// through the compiled plan.
    fn replay(&self, faults: &[FaultParams]) -> ProbDist {
        let mut cur = NoisyCursor::resume(self.prefix.clone(), &self.model, self.prefix_pos);
        for (site, fault) in self.sites.iter().zip(faults) {
            cur.advance_planned(&self.plan, site.index);
            cur.apply_planned_injector(&self.plan, fault.injector_gate(), site.qubit);
        }
        cur.advance_planned(&self.plan, self.physical.size());
        self.finish(cur.finish_dist(&self.physical), faults)
    }

    /// The full pre-engine pipeline: re-transpile the marked circuit,
    /// splice, and simulate the whole faulty circuit from `|0…0⟩`.
    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        let (physical, sites, _) = compile(self.transpiler, &self.marked, faults.len())?;
        let faulty = splice_faults(&physical, &sites, faults);
        let exact = qufi_noise::simulate::run_noisy(&faulty, &self.model)?;
        Ok(self.finish(exact, faults))
    }

    /// The amplitude budget over one cell's flat ρ, or one cell when the
    /// point is not [`batchable`](PhysicalSweep::batchable).
    fn block_width(&self) -> usize {
        if self.batchable() {
            batch_width(self.prefix.dim() * self.prefix.dim())
        } else {
            1
        }
    }

    /// Broadcast the parked prefix into the block, apply each cell's noisy
    /// injector, run the planned suffix once across all cells, and finish
    /// each cell exactly like [`NoisyCursor::finish_dist`]. Each operation
    /// computes only the entries its observed mask keeps, so the diagonal
    /// the readout reads is bit-identical to an unmasked replay's.
    fn replay_block(&self, faults: &[FaultParams]) -> Vec<ProbDist> {
        let mats = injector_matrices(faults);
        let mut batch = BatchedDensity::broadcast(&self.prefix, faults.len());
        debug_assert_eq!(self.suffix_ops().count(), self.masks.len());
        for (op, &mask) in self.suffix_ops().zip(&self.masks) {
            match op {
                SuffixOp::Injector(&qubit) => {
                    batch.apply_unitary_per_cell_masked(&mats, qubit, mask)
                }
                SuffixOp::Unitary(u, qubits) => batch.apply_unitary_masked(u, qubits, mask),
                SuffixOp::Superop(s, qubits) => batch.apply_superoperator_masked(s, qubits, mask),
            }
        }
        let (groups, skipped) = batch.group_counts();
        qufi_obs::add("replay.batch.groups", groups);
        qufi_obs::add("replay.batch.groups_skipped", skipped);
        let map = self.physical.measurement_map();
        let errors = self.model.readout_errors();
        let clbits = self.physical.num_clbits();
        faults
            .iter()
            .enumerate()
            .map(|(c, fault)| {
                let exact = finish_readout(batch.probabilities(c), errors, &map, clbits);
                self.finish(exact, std::slice::from_ref(fault))
            })
            .collect()
    }

    fn prefix_boundary(&self) -> (&QuantumCircuit, usize) {
        (&self.physical, self.prefix_pos)
    }
}

impl SweepExecutor for NoisyExecutor {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let sweep = PhysicalSweep::noisy(self, qc, point, None)?;
        Ok(Box::new(Prepared(sweep)))
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        let sweep = PhysicalSweep::noisy(self, qc, point, Some(neighbor))?;
        Ok(Box::new(Prepared(sweep)))
    }
}

impl SweepExecutor for HardwareExecutor {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let sweep = PhysicalSweep::hardware(self, qc, point, None)?;
        Ok(Box::new(Prepared(sweep)))
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        let sweep = PhysicalSweep::hardware(self, qc, point, Some(neighbor))?;
        Ok(Box::new(Prepared(sweep)))
    }
}

// ---------------------------------------------------------------------------
// Seeds: hardware sweeps derive per-point drift and per-fault sampling
// seeds, trajectory sweeps per-shot streams, both deterministically so
// results are independent of scheduling order.

/// Incremental FNV-1a hasher for deriving deterministic RNG streams.
///
/// The single implementation behind every schedule-independence guarantee
/// in the stack: hardware sweeps derive per-point drift and per-fault
/// sampling seeds here, and the `qufi` CLI derives per-(job, point)
/// executor seeds from the same construction — so results never depend on
/// thread interleaving, replay order, or interrupt/resume splits.
#[derive(Debug, Clone)]
pub struct SeedHasher(u64);

impl SeedHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        SeedHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn mix_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        self
    }

    /// Mixes one word (little-endian bytes).
    pub fn mix_u64(&mut self, w: u64) -> &mut Self {
        self.mix_bytes(&w.to_le_bytes())
    }

    /// The derived seed.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for SeedHasher {
    fn default() -> Self {
        SeedHasher::new()
    }
}

/// FNV-1a mix of arbitrary words — the seed-derivation shorthand for
/// hardware and trajectory sweeps.
pub(crate) fn derive_seed(words: &[u64]) -> u64 {
    let mut h = SeedHasher::new();
    for &w in words {
        h.mix_u64(w);
    }
    h.finish()
}

/// `base` mixed with each fault's θ and φ bits, in fault order: the seed
/// of one grid cell's sampling stream.
fn fault_seed(base: u64, faults: &[FaultParams]) -> SeedHasher {
    let mut h = SeedHasher::new();
    h.mix_u64(base);
    for f in faults {
        h.mix_u64(f.theta.to_bits()).mix_u64(f.phi.to_bits());
    }
    h
}

/// The per-point base seed of the sampling scenarios: the executor seed
/// mixed with the point and the neighbor (`u64::MAX` for a single strike).
fn point_seed(seed: u64, point: InjectionPoint, neighbor: Option<usize>) -> u64 {
    derive_seed(&[
        seed,
        point.op_index as u64,
        point.qubit as u64,
        neighbor.map_or(u64::MAX, |n| n as u64),
    ])
}

// ---------------------------------------------------------------------------
// Trajectory executor: shots in lanes, Kraus-branch sampling through prefix
// and suffix, seeds derived per (point, shot) for the prefix and per (point,
// fault angles, shot) for the suffix, so the Monte-Carlo estimate is as
// schedule-invariant as the exact paths.

/// Stream tag separating per-shot *prefix* seeds from per-(cell, shot)
/// *suffix* seeds: suffix seeds mix fault-angle bit patterns in this slot,
/// and no valid angle has the all-ones (NaN) pattern.
const PREFIX_STREAM_TAG: u64 = u64::MAX;

/// Everything the trajectory replay path shares for one injection point.
struct TrajectorySweep<'a> {
    /// Re-transpiles `marked` for every naive replay.
    transpiler: &'a Transpiler,
    /// Marked logical circuit.
    marked: QuantumCircuit,
    /// Stripped compact physical circuit the replays run on.
    physical: QuantumCircuit,
    /// Splice sites in compact physical coordinates, program order.
    sites: Vec<SpliceSite>,
    model: NoiseModel,
    /// Kraus-operator plan compiled once per point, reused per shot.
    plan: TrajPlan,
    prefix_pos: usize,
    /// Base for the per-shot prefix and per-(cell, shot) suffix streams.
    point_base: u64,
    shots: u64,
}

impl<'a> TrajectorySweep<'a> {
    /// Marks `qc` at `point` (and `neighbor`), transpiles it and compiles
    /// the Kraus plan. No state is parked: every replay evolves each shot
    /// batch's prefix from `|0…0⟩`.
    fn prepare(
        executor: &'a TrajectoryExecutor,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Self, ExecError> {
        let (marked, n_sites) = mark(qc, point, neighbor)?;
        TrajectorySweep::compile(
            executor.transpiler(),
            marked,
            n_sites,
            |active| executor.model_for(active),
            point_seed(executor.seed(), point, neighbor),
            executor.shots(),
        )
    }

    /// Transpiles `marked` and compiles the Kraus plan under
    /// `model_for(active)`.
    fn compile(
        transpiler: &'a Transpiler,
        marked: QuantumCircuit,
        n_sites: usize,
        model_for: impl FnOnce(&[usize]) -> NoiseModel,
        point_base: u64,
        shots: u64,
    ) -> Result<Self, ExecError> {
        let (physical, sites, active) = compile(transpiler, &marked, n_sites)?;
        let plan_span = qufi_obs::span("prepare.plan_ns");
        let model = model_for(&active);
        let plan = TrajPlan::compile(&physical, &model);
        plan_span.finish();
        // Surfaces the width error here, so replays cannot fail.
        LaneCursor::start(&plan, 1).map_err(ExecError::Sim)?;
        Ok(TrajectorySweep {
            transpiler,
            marked,
            prefix_pos: sites[0].index,
            physical,
            sites,
            model,
            plan,
            point_base,
            shots,
        })
    }

    /// The per-shot prefix RNG stream; disjoint from every suffix stream
    /// by the [`PREFIX_STREAM_TAG`] slot.
    fn prefix_seed(&self, shot: u64) -> u64 {
        derive_seed(&[self.point_base, PREFIX_STREAM_TAG, shot])
    }

    /// The per-(cell, shot) suffix RNG stream, keyed by the fault angles
    /// so replay order and grid chunking never matter.
    fn suffix_seed(&self, faults: &[FaultParams], shot: u64) -> u64 {
        fault_seed(self.point_base, faults).mix_u64(shot).finish()
    }

    /// Every shot of every cell (one fault per site each), as lanes of
    /// shot batches: each batch's prefix is evolved once from `|0…0⟩`
    /// under the prefix streams, then each cell finishes the suffix under
    /// its own streams, every cell but the last in a fork of the prefix
    /// and the last in the prefix's own block (so a one-cell replay holds
    /// one block). Shots land in each cell's [`ShotAccumulator`] in shot
    /// order, so every cell is bit-identical to the scalar shot loop of
    /// [`SweepPoint::replay_naive`].
    fn run_cells(&self, cells: &[&[FaultParams]]) -> Vec<ProbDist> {
        qufi_obs::add("traj.shots", self.shots * cells.len() as u64);
        let n = self.physical.num_qubits();
        let lanes = batch_width(1 << n);
        let mut accs: Vec<ShotAccumulator> = cells
            .iter()
            .map(|_| ShotAccumulator::new(n, self.shots))
            .collect();
        let mut ws = TrajWorkspace::new();
        let start = || LaneCursor::start(&self.plan, lanes).expect("width checked at prepare");
        let (mut prefix, mut fork) = (start(), None);
        let mut rngs = Vec::with_capacity(lanes);
        for first in (0..self.shots).step_by(lanes) {
            let width = (self.shots - first).min(lanes as u64);
            let shots = first..first + width;
            prefix.restart(width as usize);
            rngs.clear();
            rngs.extend(
                shots
                    .clone()
                    .map(|shot| SmallRng::seed_from_u64(self.prefix_seed(shot))),
            );
            prefix.advance_planned(&self.plan, self.prefix_pos, &mut rngs, &mut ws);
            for (i, (&faults, acc)) in cells.iter().zip(&mut accs).enumerate() {
                let cursor = if i + 1 < cells.len() {
                    let fork = fork.get_or_insert_with(start);
                    fork.fork_from(&prefix, &mut ws);
                    fork
                } else {
                    &mut prefix
                };
                rngs.clear();
                rngs.extend(
                    shots
                        .clone()
                        .map(|shot| SmallRng::seed_from_u64(self.suffix_seed(faults, shot))),
                );
                for (site, fault) in self.sites.iter().zip(faults) {
                    cursor.advance_planned(&self.plan, site.index, &mut rngs, &mut ws);
                    cursor.apply_planned_injector(
                        &self.plan,
                        fault.injector_gate(),
                        site.qubit,
                        &mut rngs,
                        &mut ws,
                    );
                }
                cursor.advance_planned(&self.plan, self.plan.size(), &mut rngs, &mut ws);
                cursor.accumulate(acc, first);
            }
        }
        accs.iter()
            .map(|acc| finish_trajectory_dist(acc.mean(), n, &self.model, &self.physical))
            .collect()
    }
}

impl SweepPoint for TrajectorySweep<'_> {
    /// All shots of one `(θ, φ)` cell (one fault per site), averaged,
    /// confused, and marginalized: a one-cell [`TrajectorySweep::run_cells`].
    fn replay(&self, faults: &[FaultParams]) -> ProbDist {
        let mut dists = self.run_cells(&[faults]);
        dists.pop().expect("one cell in, one distribution out")
    }

    /// Re-transpile the marked circuit and recompile the Kraus plan from
    /// scratch, then run every shot alone through a scalar
    /// [`TrajectoryCursor`]: the prefix from `|0…0⟩` under the shot's
    /// prefix stream, then the suffix under the cell's stream. The streams
    /// are the same pure functions of `(point, fault angles, shot)`, so
    /// this is **bit-identical** to [`SweepPoint::replay`] — it shares
    /// neither the transpilation and plan nor the lanes.
    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        let naive = TrajectorySweep::compile(
            self.transpiler,
            self.marked.clone(),
            faults.len(),
            |_| self.model.clone(),
            self.point_base,
            self.shots,
        )?;
        let n = naive.physical.num_qubits();
        let mut acc = ShotAccumulator::new(n, naive.shots);
        let mut ws = TrajWorkspace::new();
        for shot in 0..naive.shots {
            let mut cursor = TrajectoryCursor::start(&naive.plan).map_err(ExecError::Sim)?;
            let mut rng = SmallRng::seed_from_u64(naive.prefix_seed(shot));
            cursor.advance_planned(&naive.plan, naive.prefix_pos, &mut rng, &mut ws);
            let mut rng = SmallRng::seed_from_u64(naive.suffix_seed(faults, shot));
            for (site, fault) in naive.sites.iter().zip(faults) {
                cursor.advance_planned(&naive.plan, site.index, &mut rng, &mut ws);
                cursor.apply_planned_injector(
                    &naive.plan,
                    fault.injector_gate(),
                    site.qubit,
                    &mut rng,
                    &mut ws,
                );
            }
            cursor.advance_planned(&naive.plan, naive.plan.size(), &mut rng, &mut ws);
            acc.add_shot(shot, cursor.state());
        }
        Ok(finish_trajectory_dist(
            acc.mean(),
            n,
            &naive.model,
            &naive.physical,
        ))
    }

    /// Single-site points replay grids in blocks of cells that share each
    /// shot batch's prefix.
    fn block_width(&self) -> usize {
        if self.sites.len() == 1 {
            batch_width(1 << self.physical.num_qubits())
        } else {
            1
        }
    }

    fn replay_block(&self, faults: &[FaultParams]) -> Vec<ProbDist> {
        let cells: Vec<&[FaultParams]> = faults.iter().map(std::slice::from_ref).collect();
        self.run_cells(&cells)
    }

    fn prefix_boundary(&self) -> (&QuantumCircuit, usize) {
        (&self.physical, self.prefix_pos)
    }
}

impl SweepExecutor for TrajectoryExecutor {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let sweep = TrajectorySweep::prepare(self, qc, point, None)?;
        Ok(Box::new(Prepared(sweep)))
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        let sweep = TrajectorySweep::prepare(self, qc, point, Some(neighbor))?;
        Ok(Box::new(Prepared(sweep)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_algos::bernstein_vazirani;
    use qufi_noise::BackendCalibration;
    use std::f64::consts::{FRAC_PI_2, PI};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn bv() -> QuantumCircuit {
        bernstein_vazirani(0b101, 3).circuit
    }

    fn some_point() -> InjectionPoint {
        InjectionPoint {
            op_index: 2,
            qubit: 0,
        }
    }

    fn assert_bit_identical(a: &ProbDist, b: &ProbDist, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: width mismatch");
        for i in 0..a.len() {
            assert_eq!(
                a.prob(i).to_bits(),
                b.prob(i).to_bits(),
                "{what}: outcome {i} differs ({} vs {})",
                a.prob(i),
                b.prob(i)
            );
        }
    }

    #[test]
    fn ideal_replay_matches_naive_bitwise() {
        let qc = bv();
        let prepared = IdealExecutor.prepare(&qc, some_point()).unwrap();
        for (theta, phi) in [(0.0, 0.0), (PI, 0.0), (FRAC_PI_2, PI), (0.3, 5.9)] {
            let fault = FaultParams::shift(theta, phi);
            let fast = prepared.replay(fault).unwrap();
            let slow = prepared.replay_naive(fault).unwrap();
            assert_bit_identical(&fast, &slow, "ideal");
        }
    }

    #[test]
    fn noisy_replay_matches_naive_bitwise() {
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        for (theta, phi) in [(0.0, 0.0), (PI, 0.0), (FRAC_PI_2, FRAC_PI_2)] {
            let fault = FaultParams::shift(theta, phi);
            let fast = prepared.replay(fault).unwrap();
            let slow = prepared.replay_naive(fault).unwrap();
            assert_bit_identical(&fast, &slow, "noisy");
        }
    }

    #[test]
    fn hardware_replay_matches_naive_bitwise_and_is_order_independent() {
        let qc = bv();
        let ex = HardwareExecutor::new(BackendCalibration::jakarta(), 42);
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let faults = [
            FaultParams::shift(PI, 0.0),
            FaultParams::shift(0.0, PI),
            FaultParams::shift(FRAC_PI_2, FRAC_PI_2),
        ];
        let forward: Vec<ProbDist> = faults
            .iter()
            .map(|&f| prepared.replay(f).unwrap())
            .collect();
        // Naive replays in reverse order must reproduce each distribution.
        for (i, &f) in faults.iter().enumerate().rev() {
            let slow = prepared.replay_naive(f).unwrap();
            assert_bit_identical(&forward[i], &slow, "hardware");
        }
        // A fresh prepare of the same point reproduces everything.
        let again = ex.prepare(&qc, some_point()).unwrap();
        for (i, &f) in faults.iter().enumerate() {
            assert_bit_identical(&forward[i], &again.replay(f).unwrap(), "re-prepare");
        }
    }

    #[test]
    fn hardware_preparation_ignores_the_shared_stream() {
        // Burning executions on the ad-hoc path must not change sweep
        // results: per-point streams derive from the seed, not the shared
        // RNG state.
        let qc = bv();
        let ex = HardwareExecutor::new(BackendCalibration::jakarta(), 7);
        let before = ex
            .prepare(&qc, some_point())
            .unwrap()
            .replay(FaultParams::shift(PI, 0.0))
            .unwrap();
        let _ = ex.execute(&qc).unwrap();
        let _ = ex.execute(&qc).unwrap();
        let after = ex
            .prepare(&qc, some_point())
            .unwrap()
            .replay(FaultParams::shift(PI, 0.0))
            .unwrap();
        assert_bit_identical(&before, &after, "shared-stream independence");
    }

    #[test]
    fn double_replay_matches_naive_across_executors() {
        let qc = bv();
        let point = some_point();
        let first = FaultParams::shift(PI, PI);
        let second = FaultParams::shift(FRAC_PI_2, FRAC_PI_2);
        let noisy = NoisyExecutor::new(BackendCalibration::lima());
        let hw = HardwareExecutor::new(BackendCalibration::jakarta(), 5);

        let p = IdealExecutor.prepare_double(&qc, point, 1).unwrap();
        assert_bit_identical(
            &p.replay(first, second).unwrap(),
            &p.replay_naive(first, second).unwrap(),
            "ideal double",
        );
        let p = noisy.prepare_double(&qc, point, 1).unwrap();
        assert_bit_identical(
            &p.replay(first, second).unwrap(),
            &p.replay_naive(first, second).unwrap(),
            "noisy double",
        );
        let p = hw.prepare_double(&qc, point, 1).unwrap();
        assert_bit_identical(
            &p.replay(first, second).unwrap(),
            &p.replay_naive(first, second).unwrap(),
            "hardware double",
        );
        let traj = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 5, 130);
        let p = traj.prepare_double(&qc, point, 1).unwrap();
        assert_bit_identical(
            &p.replay(first, second).unwrap(),
            &p.replay_naive(first, second).unwrap(),
            "trajectory double",
        );
    }

    #[test]
    fn trajectory_replay_matches_naive_bitwise() {
        // 130 shots = two full accumulation blocks plus a partial tail, and
        // eight 16-lane batches plus a ragged batch of 2: the lanes are
        // checked against the naive path's scalar shot loop at both edges.
        let qc = bv();
        let ex = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 42, 130);
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        for (theta, phi) in [(0.0, 0.0), (PI, 0.0), (FRAC_PI_2, FRAC_PI_2), (0.3, 5.9)] {
            let fault = FaultParams::shift(theta, phi);
            let fast = prepared.replay(fault).unwrap();
            let slow = prepared.replay_naive(fault).unwrap();
            assert_bit_identical(&fast, &slow, "trajectory");
        }
    }

    #[test]
    fn double_replay_enforces_fault_ordering() {
        let qc = bv();
        let p = IdealExecutor.prepare_double(&qc, some_point(), 1).unwrap();
        let weak = FaultParams::shift(FRAC_PI_2, 0.0);
        let strong = FaultParams::shift(PI, 0.0);
        assert!(matches!(
            p.replay(weak, strong),
            Err(ExecError::InvalidFault(_))
        ));
    }

    #[test]
    fn prepare_rejects_bad_sites() {
        let qc = bv();
        let bad = InjectionPoint {
            op_index: qc.size() + 3,
            qubit: 0,
        };
        assert!(matches!(
            IdealExecutor.prepare(&qc, bad),
            Err(ExecError::InjectionOutOfRange { .. })
        ));
        let noisy = NoisyExecutor::new(BackendCalibration::lima());
        assert!(noisy.prepare(&qc, bad).is_err());
        assert!(matches!(
            noisy.prepare_double(&qc, some_point(), 0),
            Err(ExecError::InvalidFault(_))
        ));
    }

    #[test]
    fn forked_path_skips_prefix_work() {
        // The whole point of the engine: replays only evolve the suffix.
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let late_point = {
            // Choose the last gate so the prefix dominates.
            let points = crate::fault::enumerate_injection_points(&qc);
            *points.last().unwrap()
        };
        let prepared = ex.prepare(&qc, late_point).unwrap();
        assert!(
            prepared.prefix_gates() > prepared.suffix_gates(),
            "late-point sweep should park most gates in the prefix \
             ({} prefix vs {} suffix)",
            prepared.prefix_gates(),
            prepared.suffix_gates()
        );
    }

    #[test]
    fn replay_grid_is_grid_ordered_and_thread_count_invariant() {
        let qc = bv();
        let grid = FaultGrid::coarse();
        for prepared in [
            IdealExecutor.prepare(&qc, some_point()).unwrap(),
            NoisyExecutor::new(BackendCalibration::lima())
                .prepare(&qc, some_point())
                .unwrap(),
            HardwareExecutor::new(BackendCalibration::jakarta(), 3)
                .prepare(&qc, some_point())
                .unwrap(),
            TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 11, 128)
                .prepare(&qc, some_point())
                .unwrap(),
        ] {
            // Serial reference, one replay per cell in grid order.
            let reference: Vec<ProbDist> = grid
                .iter()
                .map(|(t, p)| prepared.replay(FaultParams::shift(t, p)).unwrap())
                .collect();
            for threads in [1, 2, 4, 7] {
                let cells = prepared.replay_grid(&grid, threads).unwrap();
                assert_eq!(cells.len(), grid.len());
                for (i, (cell, want)) in cells.iter().zip(&reference).enumerate() {
                    assert_bit_identical(cell, want, &format!("grid cell {i} at {threads}t"));
                }
            }
        }
    }

    /// The parked snapshot is only borrowed: hammering one prepared sweep
    /// from several threads at once — replay_grid against replay_grid
    /// against single replays — must leave every later replay bit-identical
    /// to the pre-concurrency reference.
    #[test]
    fn concurrent_replay_grid_leaves_the_parked_snapshot_unmutated() {
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let grid = FaultGrid::coarse();
        let probe = FaultParams::shift(FRAC_PI_2, PI);
        let before = prepared.replay(probe).unwrap();
        let grid_before = prepared.replay_grid(&grid, 1).unwrap();

        let prepared = &*prepared;
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let cells = prepared.replay_grid(&grid, 2).unwrap();
                    for (cell, want) in cells.iter().zip(&grid_before) {
                        assert_bit_identical(cell, want, "concurrent grid");
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..5 {
                    assert_bit_identical(
                        &prepared.replay(probe).unwrap(),
                        &before,
                        "concurrent single replay",
                    );
                }
            });
        });
        assert_bit_identical(
            &prepared.replay(probe).unwrap(),
            &before,
            "post-concurrency replay",
        );
    }

    #[test]
    fn one_cell_blocks_take_the_scalar_path() {
        // Cells tagged by φ = grid index; each closure reports the block
        // sizes it saw, so the split between the two paths is visible.
        let phis: Vec<f64> = (0..17).map(f64::from).collect();
        let grid = FaultGrid::custom(vec![0.5], phis.clone());
        let cell = |f: FaultParams| ProbDist::from_probs(vec![f.phi], 0);
        for (width, threads, want_scalar, want_blocks) in [
            (16, 1, 1, vec![16]),
            (16, 2, 1, vec![16]),
            (4, 3, 1, vec![4, 4, 4, 4]),
            (1, 4, 17, vec![]),
        ] {
            let scalar = AtomicUsize::new(0);
            let blocks = Mutex::new(Vec::new());
            let out = replay_grid_blocks(
                &grid,
                threads,
                width,
                |f| {
                    scalar.fetch_add(1, Ordering::Relaxed);
                    cell(f)
                },
                |faults| {
                    assert!(faults.len() > 1, "a one-cell block reached the block path");
                    blocks.lock().unwrap().push(faults.len());
                    faults.iter().map(|&f| cell(f)).collect()
                },
            );
            let got: Vec<f64> = out.iter().map(|d| d.prob(0)).collect();
            assert_eq!(got, phis, "grid order");
            assert_eq!(scalar.into_inner(), want_scalar, "w={width}");
            let mut blocks = blocks.into_inner().unwrap();
            blocks.sort_unstable();
            assert_eq!(blocks, want_blocks, "w={width}");
        }
    }

    #[test]
    fn replay_grid_batched_matches_scalar_bitwise() {
        // Cell-major blocks must match per-cell replays bit for bit at
        // every thread count and grid shape: θ-duplicate cells (hoisted
        // trig run, one 15-cell block), a ragged grid (a 16-cell block
        // plus a 3-cell tail) and a single-cell grid (the scalar path).
        let qc = bv();
        let ragged: Vec<f64> = (0..19).map(|i| 0.15 * f64::from(i)).collect();
        let grids = [
            FaultGrid::coarse(),
            FaultGrid::custom(vec![0.0, 0.7, 0.7, 2.1, PI], vec![0.0, 1.3, 5.0]),
            FaultGrid::custom(ragged, vec![2.2]),
            FaultGrid::custom(vec![FRAC_PI_2], vec![PI]),
        ];
        for prepared in [
            IdealExecutor.prepare(&qc, some_point()).unwrap(),
            NoisyExecutor::new(BackendCalibration::lima())
                .prepare(&qc, some_point())
                .unwrap(),
            HardwareExecutor::new(BackendCalibration::jakarta(), 3)
                .prepare(&qc, some_point())
                .unwrap(),
        ] {
            for grid in &grids {
                let reference: Vec<ProbDist> = grid
                    .iter()
                    .map(|(t, p)| prepared.replay(FaultParams::shift(t, p)).unwrap())
                    .collect();
                for threads in [1, 2, 4] {
                    let cells = prepared.replay_grid(grid, threads).unwrap();
                    assert_eq!(cells.len(), grid.len());
                    for (i, (cell, want)) in cells.iter().zip(&reference).enumerate() {
                        assert_bit_identical(
                            cell,
                            want,
                            &format!("batched cell {i} of {} at {threads}t", grid.len()),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trajectory_replay_grid_batched_falls_back_to_scalar() {
        // A trajectory grid replays in blocks of cells that fork each shot
        // batch's prefix. 18 cells form a 16-cell block and a 2-cell block,
        // each re-evolving the prefix; both must reproduce per-cell replays.
        let qc = bv();
        let ex = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 11, 64);
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let thetas: Vec<f64> = (0..6).map(|i| 0.5 * f64::from(i)).collect();
        let grid = FaultGrid::custom(thetas, vec![0.3, 2.0, 4.1]);
        assert_eq!(grid.len(), 18);
        let batched = prepared.replay_grid(&grid, 2).unwrap();
        let scalar: Vec<ProbDist> = grid
            .iter()
            .map(|(t, p)| prepared.replay(FaultParams::shift(t, p)).unwrap())
            .collect();
        assert_eq!(batched.len(), scalar.len());
        for (cell, want) in batched.iter().zip(&scalar) {
            assert_bit_identical(cell, want, "trajectory fallback");
        }
    }

    #[test]
    fn replay_grid_on_empty_grid_is_empty() {
        let qc = bv();
        let prepared = IdealExecutor.prepare(&qc, some_point()).unwrap();
        let empty = FaultGrid::custom(vec![], vec![0.0]);
        assert!(prepared.replay_grid(&empty, 4).unwrap().is_empty());
    }

    #[test]
    fn null_fault_replay_still_carries_injector_noise() {
        // The injector is a physical runtime gate: even (0,0) adds one
        // noisy gate relative to the clean execution.
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let clean = ex.execute(&qc).unwrap();
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let null = prepared.replay(FaultParams::shift(0.0, 0.0)).unwrap();
        let tv = clean.tv_distance(&null);
        assert!(tv > 0.0, "injector should cost one gate of noise");
        assert!(tv < 5e-3, "a null fault must stay nearly invisible: {tv}");
    }
}
