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
    compact_circuit, Executor, HardwareExecutor, IdealExecutor, NoisyExecutor, TrajectoryExecutor,
};
use crate::fault::{
    check_double_site, check_fault_order, check_injection_point, FaultGrid, FaultParams,
    InjectionPoint,
};
use crate::mapping::{
    extract_splice_sites, mark_double_injection_site, mark_injection_site, SpliceSite,
};
use parking_lot::Mutex;
use qufi_math::CMatrix;
use qufi_noise::readout::apply_readout_errors;
use qufi_noise::simulate::{NoisePlan, NoisyCursor};
use qufi_noise::trajectory::{
    finish_trajectory_dist, ShotAccumulator, TrajPlan, TrajWorkspace, TrajectoryCursor, SHOT_BLOCK,
};
use qufi_noise::NoiseModel;
use qufi_sim::{
    BatchedDensity, BatchedStatevector, CircuitCursor, DensityMatrix, EvolvableState, ObservedMask,
    Op, ProbDist, QuantumCircuit, Statevector,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

impl<E: SweepExecutor + ?Sized> SweepExecutor for &E {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        (**self).prepare(qc, point)
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        (**self).prepare_double(qc, point, neighbor)
    }
}

/// Per-thread reusable buffers for replaying against a parked snapshot:
/// the simulator state a replay evolves in, restored from the borrowed
/// snapshot by a buffer-reusing copy instead of a fresh clone per replay.
///
/// A scratch carries no results between replays — only capacity — so one
/// scratch per worker thread is the entire threading discipline, and a
/// replay through a reused scratch is bit-identical to one through a fresh
/// scratch.
#[derive(Default)]
pub struct ReplayScratch {
    /// Density-matrix buffer for the noisy/hardware replay paths.
    pub(crate) rho: Option<DensityMatrix>,
    /// Statevector buffer for the ideal replay path.
    pub(crate) sv: Option<Statevector>,
    /// Statevector buffer for the trajectory replay path (one shot's
    /// evolving state).
    pub(crate) traj_sv: Option<Statevector>,
    /// Kraus branch-sampling workspace for the trajectory replay path.
    pub(crate) traj_ws: TrajWorkspace,
}

impl ReplayScratch {
    /// An empty scratch; buffers are allocated on first replay.
    pub fn new() -> Self {
        ReplayScratch::default()
    }
}

/// A parked single-fault sweep: replay any `(θ, φ)` against the snapshot.
///
/// Implementations are `Sync`: replays only *borrow* the parked snapshot
/// (each one copies it into caller-owned [`ReplayScratch`] buffers), so any
/// number of threads may replay concurrently against one prepared sweep —
/// the foundation of [`PreparedSweep::replay_grid`].
pub trait PreparedSweep: Sync {
    /// Fast path: fork the parked prefix state and finish the suffix with
    /// the injector spliced in.
    ///
    /// # Errors
    ///
    /// Simulation failures.
    fn replay(&self, fault: FaultParams) -> Result<ProbDist, ExecError> {
        self.replay_with(fault, &mut ReplayScratch::new())
    }

    /// [`PreparedSweep::replay`] through caller-owned scratch buffers: the
    /// parked snapshot is copied into the scratch state (reusing its
    /// allocation) and the suffix evolves there, so a replay loop performs
    /// zero steady-state allocations for state buffers. Bit-identical to
    /// [`PreparedSweep::replay`].
    ///
    /// # Errors
    ///
    /// Simulation failures.
    fn replay_with(
        &self,
        fault: FaultParams,
        scratch: &mut ReplayScratch,
    ) -> Result<ProbDist, ExecError>;

    /// Oracle path: rebuild, re-transpile and re-simulate the entire
    /// faulty circuit from scratch — the pre-engine per-configuration
    /// pipeline. Kept as the ground truth the differential suite diffs
    /// [`PreparedSweep::replay`] against.
    ///
    /// # Errors
    ///
    /// Simulation and transpilation failures.
    fn replay_naive(&self, fault: FaultParams) -> Result<ProbDist, ExecError>;

    /// Replays the entire `(θ, φ)` grid, chunked deterministically across
    /// `threads` worker threads, returning one distribution per cell **in
    /// grid order** ([`FaultGrid::iter`] order).
    ///
    /// Determinism contract: cells are assigned to workers by contiguous
    /// index ranges fixed by `grid.len()` and `threads` alone, each worker
    /// replays through its own [`ReplayScratch`], and every replay depends
    /// only on `(self, fault)` — so the returned cells are bit-identical
    /// for every thread count and scheduling order, including `threads =
    /// 1`. Sampling scenarios keep this property because their seeds
    /// derive from the fault angles, never from replay order.
    ///
    /// # Errors
    ///
    /// Any replay failure fails the whole grid (remaining workers cancel);
    /// the reported error is from the lowest-indexed chunk that failed
    /// before cancellation took effect.
    fn replay_grid(&self, grid: &FaultGrid, threads: usize) -> Result<Vec<ProbDist>, ExecError> {
        replay_grid_chunked(self, grid, threads)
    }

    /// Batched counterpart of [`PreparedSweep::replay_grid`]: evolves whole
    /// blocks of grid cells in lockstep through the cell-major kernels of
    /// [`qufi_sim::batch`], so each suffix gate's index arithmetic is
    /// computed once per block and its inner loops run stride-1 across
    /// cells. Cells are grouped by θ first, letting every θ-identical run
    /// share one `sin/cos(θ/2)` evaluation of the injector.
    ///
    /// **Bit-identical** to [`PreparedSweep::replay_grid`] for every batch
    /// width and thread count: a batched cell goes through exactly the
    /// scalar per-cell operation sequence, and grouping only reorders which
    /// cells evolve together — never the arithmetic inside one cell.
    ///
    /// The width is read from `QUFI_BATCH_CELLS` per call (default 16,
    /// clamped to `1..=`[`qufi_sim::MAX_BATCH_CELLS`]). Width 1 — the CLI's
    /// `--no-batch` — grids too small to batch, multi-site sweeps, and
    /// scenarios without a batched path (trajectory) all take the scalar
    /// per-cell fan-out instead.
    ///
    /// # Errors
    ///
    /// Same contract as [`PreparedSweep::replay_grid`].
    fn replay_grid_batched(
        &self,
        grid: &FaultGrid,
        threads: usize,
    ) -> Result<Vec<ProbDist>, ExecError> {
        replay_grid_scalar_fallback(self, grid, threads)
    }

    /// Gates evolved once at preparation time (the shared prefix).
    fn prefix_gates(&self) -> usize;

    /// Gates evolved per replay (the suffix, excluding the injector).
    fn suffix_gates(&self) -> usize;
}

/// The deterministic fan-out behind [`PreparedSweep::replay_grid`].
fn replay_grid_chunked<S: PreparedSweep + ?Sized>(
    sweep: &S,
    grid: &FaultGrid,
    threads: usize,
) -> Result<Vec<ProbDist>, ExecError> {
    let cells: Vec<FaultParams> = grid
        .iter()
        .map(|(theta, phi)| FaultParams::shift(theta, phi))
        .collect();
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    // One span per grid, one counter add per chunk: the per-cell loop
    // below stays telemetry-free.
    let _grid_span = qufi_obs::span("replay.grid_ns");
    let workers = threads.max(1).min(cells.len());
    if workers == 1 {
        let mut scratch = ReplayScratch::new();
        let dists: Result<Vec<ProbDist>, ExecError> = cells
            .iter()
            .map(|&fault| sweep.replay_with(fault, &mut scratch))
            .collect();
        if dists.is_ok() {
            qufi_obs::add("replay.cells", cells.len() as u64);
        }
        return dists;
    }
    // Contiguous chunks of fixed size: the (cell → worker) assignment is a
    // pure function of (grid.len(), threads), never of scheduling.
    let chunk = cells.len().div_ceil(workers);
    let mut out: Vec<Option<ProbDist>> = vec![None; cells.len()];
    let first_error: Mutex<Option<(usize, ExecError)>> = Mutex::new(None);
    let failed = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for (chunk_idx, (slots, faults)) in
            out.chunks_mut(chunk).zip(cells.chunks(chunk)).enumerate()
        {
            let first_error = &first_error;
            let failed = &failed;
            scope.spawn(move || {
                let mut scratch = ReplayScratch::new();
                let mut completed: u64 = 0;
                for (slot, &fault) in slots.iter_mut().zip(faults) {
                    // A failure anywhere aborts the whole grid; stop
                    // burning replays whose results would be discarded.
                    if failed.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    match sweep.replay_with(fault, &mut scratch) {
                        Ok(dist) => {
                            *slot = Some(dist);
                            completed += 1;
                        }
                        Err(e) => {
                            failed.store(true, std::sync::atomic::Ordering::Relaxed);
                            let mut guard = first_error.lock();
                            // Keep the error of the lowest-indexed chunk
                            // among those observed before cancellation.
                            if guard.as_ref().is_none_or(|(i, _)| chunk_idx < *i) {
                                *guard = Some((chunk_idx, e));
                            }
                            break;
                        }
                    }
                }
                qufi_obs::add("replay.cells", completed);
                // Merge before the closure returns: the scope's exit
                // synchronizes with closure completion, not with TLS
                // destructors, so relying on the sink's at-exit Drop
                // would race the caller's snapshot.
                qufi_obs::flush();
            });
        }
    });
    if let Some((_, e)) = first_error.into_inner() {
        return Err(e);
    }
    Ok(out
        .into_iter()
        .map(|slot| slot.expect("every cell was replayed"))
        .collect())
}

/// Default number of grid cells evolved per batched block. 16 keeps the
/// single-operand kernels (the bulk of a transpiled suffix) on their widest,
/// fastest monomorphization; the 2q/generic kernels tile the cell axis
/// internally, so a wide block never hurts them.
const DEFAULT_BATCH_CELLS: usize = 16;

/// Ceiling on `flat state length × batch width`: a batched block holds at
/// most this many split-complex amplitudes (~64 MiB), shrinking the width
/// for wide registers instead of ballooning memory.
const MAX_BATCH_AMPS: usize = 1 << 22;

/// Batch width for [`PreparedSweep::replay_grid_batched`], read per call
/// so the CLI and tests can vary it (`QUFI_BATCH_CELLS`, clamped to
/// `1..=`[`qufi_sim::MAX_BATCH_CELLS`]). Width 1 disables batching.
fn batch_width() -> usize {
    std::env::var("QUFI_BATCH_CELLS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|w| w.clamp(1, qufi_sim::MAX_BATCH_CELLS))
        .unwrap_or(DEFAULT_BATCH_CELLS)
}

/// The effective width for a grid over states of `flat_len` amplitudes:
/// the configured width, shrunk to the grid size and the amplitude
/// budget. `None` means batching is off or pointless (width ≤ 1) — take
/// the scalar path.
fn effective_batch_width(flat_len: usize, grid_len: usize) -> Option<usize> {
    let w = batch_width()
        .min(grid_len)
        .min(MAX_BATCH_AMPS / flat_len.max(1));
    (w > 1).then_some(w)
}

/// The scalar fallback behind [`PreparedSweep::replay_grid_batched`]:
/// counts the cells that bypassed batching, then runs the per-cell path.
fn replay_grid_scalar_fallback<S: PreparedSweep + ?Sized>(
    sweep: &S,
    grid: &FaultGrid,
    threads: usize,
) -> Result<Vec<ProbDist>, ExecError> {
    qufi_obs::add("replay.batch.scalar_fallback", grid.len() as u64);
    sweep.replay_grid(grid, threads)
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

/// The deterministic fan-out behind the batched grid replays: cells are
/// stably sorted by θ bit pattern (θ-identical cells share one trig
/// evaluation and blocks stay maximally uniform), chunked into
/// `width`-sized blocks — the ragged tail simply forms a narrower block —
/// and blocks are handed to workers in contiguous ranges. Results scatter
/// back to **grid order** by original cell index; the sort is invisible in
/// the output because every replay depends only on `(self, fault)`.
///
/// Block replays are infallible (the fallible work — transpilation,
/// planning, prefix evolution — happened at prepare time), so unlike
/// [`replay_grid_chunked`] there is no cancellation protocol.
fn replay_grid_batched_blocks<F>(
    grid: &FaultGrid,
    threads: usize,
    width: usize,
    replay_block: F,
) -> Vec<ProbDist>
where
    F: Fn(&[FaultParams]) -> Vec<ProbDist> + Sync,
{
    let mut sorted: Vec<(usize, FaultParams)> = grid
        .iter()
        .map(|(theta, phi)| FaultParams::shift(theta, phi))
        .enumerate()
        .collect();
    sorted.sort_by_key(|(_, f)| f.theta.to_bits());
    let _grid_span = qufi_obs::span("replay.grid_ns");
    let theta_groups = 1 + sorted
        .windows(2)
        .filter(|w| w[0].1.theta.to_bits() != w[1].1.theta.to_bits())
        .count();
    let block_count = sorted.len().div_ceil(width);
    let run_blocks = |blocks: std::ops::Range<usize>| -> Vec<(usize, ProbDist)> {
        let mut results = Vec::with_capacity(blocks.len() * width);
        let mut faults = Vec::with_capacity(width);
        for b in blocks {
            let cells = &sorted[b * width..((b + 1) * width).min(sorted.len())];
            faults.clear();
            faults.extend(cells.iter().map(|&(_, f)| f));
            let dists = replay_block(&faults);
            debug_assert_eq!(dists.len(), cells.len());
            results.extend(cells.iter().map(|&(i, _)| i).zip(dists));
        }
        results
    };
    let workers = threads.max(1).min(block_count);
    let mut out: Vec<Option<ProbDist>> = vec![None; sorted.len()];
    if workers == 1 {
        for (i, dist) in run_blocks(0..block_count) {
            out[i] = Some(dist);
        }
    } else {
        // Contiguous block ranges: the (block → worker) assignment is a
        // pure function of (grid.len(), width, threads), never scheduling.
        let per_worker = block_count.div_ceil(workers);
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let run_blocks = &run_blocks;
                    scope.spawn(move || {
                        let part =
                            run_blocks(w * per_worker..((w + 1) * per_worker).min(block_count));
                        qufi_obs::flush();
                        part
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batched replay worker panicked"))
                .collect::<Vec<_>>()
        });
        for part in parts {
            for (i, dist) in part {
                out[i] = Some(dist);
            }
        }
    }
    qufi_obs::add("replay.cells", sorted.len() as u64);
    qufi_obs::add("replay.batch.cells", sorted.len() as u64);
    qufi_obs::add("replay.batch.blocks", block_count as u64);
    qufi_obs::add("replay.batch.theta_groups", theta_groups as u64);
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

/// Applies instructions `[from, upto)` of `qc` to a borrowed state — the
/// cursor-advance loop without cursor ownership, so replays can evolve a
/// scratch state restored from a parked snapshot. Bit-identical to
/// [`CircuitCursor::advance_to`] by construction (same loop).
fn advance_state<S: EvolvableState>(state: &mut S, qc: &QuantumCircuit, from: usize, upto: usize) {
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

// ---------------------------------------------------------------------------
// Ideal executor: no transpilation, statevector prefix forking.

struct IdealPrepared {
    circuit: QuantumCircuit,
    sites: Vec<SpliceSite>,
    prefix: CircuitCursor<Statevector>,
}

impl IdealPrepared {
    fn new(qc: &QuantumCircuit, sites: Vec<SpliceSite>) -> Result<Self, ExecError> {
        let prefix_span = qufi_obs::span("prepare.prefix_ns");
        let mut prefix = CircuitCursor::<Statevector>::start(qc).map_err(ExecError::Sim)?;
        prefix.advance_to(qc, sites[0].index);
        prefix_span.finish();
        Ok(IdealPrepared {
            circuit: qc.clone(),
            sites,
            prefix,
        })
    }

    fn replay_faults(&self, faults: &[FaultParams], scratch: &mut ReplayScratch) -> ProbDist {
        // Borrow the parked snapshot: restore it into the scratch
        // statevector (reusing its buffer) instead of cloning per replay.
        let sv = match scratch.sv.as_mut() {
            Some(sv) => {
                sv.copy_from(self.prefix.state());
                sv
            }
            None => scratch.sv.insert(self.prefix.state().clone()),
        };
        let mut pos = self.prefix.position();
        for (site, fault) in self.sites.iter().zip(faults) {
            advance_state(sv, &self.circuit, pos, site.index);
            pos = site.index;
            sv.apply_gate(fault.injector_gate(), &[site.qubit]);
        }
        advance_state(sv, &self.circuit, pos, self.circuit.size());
        sv.measurement_distribution(&self.circuit)
    }

    fn replay_faults_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        let faulty = splice_faults(&self.circuit, &self.sites, faults);
        let sv = Statevector::from_circuit(&faulty).map_err(ExecError::Sim)?;
        Ok(sv.measurement_distribution(&faulty))
    }

    /// One θ-sorted block of the batched grid replay: broadcast the parked
    /// prefix into the block, apply each cell's injector, evolve the shared
    /// suffix once across all cells.
    fn replay_block(&self, faults: &[FaultParams]) -> Vec<ProbDist> {
        let site = &self.sites[0];
        let mats = injector_matrices(faults);
        let mut batch = BatchedStatevector::broadcast(self.prefix.state(), faults.len());
        batch.apply_matrix_per_cell(&mats, site.qubit);
        advance_batched(&mut batch, &self.circuit, site.index, self.circuit.size());
        (0..faults.len())
            .map(|c| batch.measurement_distribution(c, &self.circuit))
            .collect()
    }
}

impl PreparedSweep for IdealPrepared {
    fn replay_with(
        &self,
        fault: FaultParams,
        scratch: &mut ReplayScratch,
    ) -> Result<ProbDist, ExecError> {
        Ok(self.replay_faults(&[fault], scratch))
    }

    fn replay_naive(&self, fault: FaultParams) -> Result<ProbDist, ExecError> {
        self.replay_faults_naive(&[fault])
    }

    fn replay_grid_batched(
        &self,
        grid: &FaultGrid,
        threads: usize,
    ) -> Result<Vec<ProbDist>, ExecError> {
        let batchable = self.sites.len() == 1 && self.prefix.position() == self.sites[0].index;
        match effective_batch_width(self.prefix.state().amplitudes().len(), grid.len()) {
            Some(width) if batchable => {
                Ok(replay_grid_batched_blocks(grid, threads, width, |faults| {
                    self.replay_block(faults)
                }))
            }
            _ => replay_grid_scalar_fallback(self, grid, threads),
        }
    }

    fn prefix_gates(&self) -> usize {
        gates_in(&self.circuit, 0..self.sites[0].index)
    }

    fn suffix_gates(&self) -> usize {
        gates_in(&self.circuit, self.sites[0].index..self.circuit.size())
    }
}

impl PreparedDoubleSweep for IdealPrepared {
    fn replay(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        Ok(self.replay_faults(&[first, second], &mut ReplayScratch::new()))
    }

    fn replay_naive(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        self.replay_faults_naive(&[first, second])
    }
}

impl SweepExecutor for IdealExecutor {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        check_injection_point(qc, point)?;
        let sites = vec![SpliceSite {
            index: point.op_index + 1,
            qubit: point.qubit,
        }];
        Ok(Box::new(IdealPrepared::new(qc, sites)?))
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        check_double_site(qc, point, neighbor)?;
        let sites = vec![
            SpliceSite {
                index: point.op_index + 1,
                qubit: point.qubit,
            },
            SpliceSite {
                index: point.op_index + 1,
                qubit: neighbor,
            },
        ];
        Ok(Box::new(IdealPrepared::new(qc, sites)?))
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

/// Everything the noisy/hardware replay paths share for one point: the
/// stripped compact physical circuit, its splice sites, the noise model,
/// and the parked prefix state.
struct PhysicalSweep {
    /// Marked logical circuit — `replay_naive` re-transpiles it per call.
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
}

impl PhysicalSweep {
    /// Transpiles a marked circuit, recovers the physical splice sites and
    /// parks the prefix evolution under `model_for(active)`.
    fn prepare(
        transpiler: &qufi_transpile::Transpiler,
        marked: QuantumCircuit,
        n_sites: usize,
        model_for: impl FnOnce(&[usize]) -> NoiseModel,
    ) -> Result<Self, ExecError> {
        let transpile_span = qufi_obs::span("prepare.transpile_ns");
        let result = transpiler.run(&marked)?;
        transpile_span.finish();
        let compact_span = qufi_obs::span("prepare.compact_ns");
        let active = result.active_physical_qubits();
        let compact = compact_circuit(result.circuit(), &active);
        let (physical, sites) = extract_splice_sites(&compact);
        compact_span.finish();
        if sites.len() != n_sites {
            return Err(ExecError::Engine(format!(
                "expected {n_sites} splice markers after transpilation, found {}",
                sites.len()
            )));
        }
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
            marked,
            physical,
            sites,
            model,
            plan,
            prefix,
            prefix_pos,
            masks: Vec::new(),
        };
        if sweep.batchable() {
            // The readout reads only ρ's diagonal.
            let operands: Vec<&[usize]> = sweep.suffix_ops().map(|op| op.operands()).collect();
            sweep.masks = ObservedMask::backward_from_diagonal(operands);
        }
        Ok(sweep)
    }

    /// Fast path: borrow the parked state into the scratch density matrix,
    /// splice the injectors, finish the suffix through the compiled plan.
    fn replay(&self, faults: &[FaultParams], scratch: &mut ReplayScratch) -> ProbDist {
        let rho = match scratch.rho.take() {
            Some(mut rho) => {
                rho.copy_from(&self.prefix);
                rho
            }
            None => self.prefix.clone(),
        };
        let mut cur = NoisyCursor::resume(rho, &self.model, self.prefix_pos);
        for (site, fault) in self.sites.iter().zip(faults) {
            cur.advance_planned(&self.plan, site.index);
            cur.apply_planned_injector(&self.plan, fault.injector_gate(), site.qubit);
        }
        cur.advance_planned(&self.plan, self.physical.size());
        let dist = cur.finish_dist(&self.physical);
        scratch.rho = Some(cur.into_state());
        dist
    }

    /// Oracle path: the full pre-engine pipeline — re-transpile the marked
    /// circuit, splice, and simulate the whole faulty circuit from `|0…0⟩`.
    fn replay_naive(
        &self,
        transpiler: &qufi_transpile::Transpiler,
        faults: &[FaultParams],
    ) -> Result<ProbDist, ExecError> {
        let result = transpiler.run(&self.marked)?;
        let active = result.active_physical_qubits();
        let compact = compact_circuit(result.circuit(), &active);
        let (physical, sites) = extract_splice_sites(&compact);
        if sites.len() != faults.len() {
            return Err(ExecError::Engine(format!(
                "expected {} splice markers after re-transpilation, found {}",
                faults.len(),
                sites.len()
            )));
        }
        let faulty = splice_faults(&physical, &sites, faults);
        qufi_noise::simulate::run_noisy(&faulty, &self.model).map_err(ExecError::Sim)
    }

    fn prefix_gates(&self) -> usize {
        gates_in(&self.physical, 0..self.prefix_pos)
    }

    fn suffix_gates(&self) -> usize {
        gates_in(&self.physical, self.prefix_pos..self.physical.size())
    }

    /// Whether the batched single-fault path applies: exactly one splice
    /// site, with the parked prefix advanced exactly to it.
    fn batchable(&self) -> bool {
        self.sites.len() == 1 && self.prefix_pos == self.sites[0].index
    }

    /// Flat amplitude count of one cell's ρ — the batched width budget is
    /// expressed in these.
    fn flat_len(&self) -> usize {
        self.prefix.dim() * self.prefix.dim()
    }

    /// The batched suffix of a [`batchable`](PhysicalSweep::batchable)
    /// point: the per-cell injector and its channels, then each planned
    /// step's unitary and channels — the sequence [`PhysicalSweep::replay`]
    /// applies through the cursor.
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

    /// One θ-sorted block of the batched grid replay: broadcast the parked
    /// prefix into the block, apply each cell's noisy injector, run the
    /// planned suffix once across all cells, and finish each cell exactly
    /// like [`NoisyCursor::finish_dist`]. Each operation computes only the
    /// entries its observed mask keeps, so the diagonal the readout reads
    /// is bit-identical to an unmasked replay's.
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
        (0..faults.len())
            .map(|c| {
                let dist =
                    apply_readout_errors(&batch.probabilities(c), self.model.readout_errors());
                if map.is_empty() {
                    dist
                } else {
                    dist.marginalize(&map, self.physical.num_clbits())
                }
            })
            .collect()
    }
}

struct NoisyPrepared<'a> {
    executor: &'a NoisyExecutor,
    sweep: PhysicalSweep,
}

impl PreparedSweep for NoisyPrepared<'_> {
    fn replay_with(
        &self,
        fault: FaultParams,
        scratch: &mut ReplayScratch,
    ) -> Result<ProbDist, ExecError> {
        Ok(self.sweep.replay(&[fault], scratch))
    }

    fn replay_naive(&self, fault: FaultParams) -> Result<ProbDist, ExecError> {
        self.sweep
            .replay_naive(self.executor.transpiler(), &[fault])
    }

    fn replay_grid_batched(
        &self,
        grid: &FaultGrid,
        threads: usize,
    ) -> Result<Vec<ProbDist>, ExecError> {
        match effective_batch_width(self.sweep.flat_len(), grid.len()) {
            Some(width) if self.sweep.batchable() => {
                Ok(replay_grid_batched_blocks(grid, threads, width, |faults| {
                    self.sweep.replay_block(faults)
                }))
            }
            _ => replay_grid_scalar_fallback(self, grid, threads),
        }
    }

    fn prefix_gates(&self) -> usize {
        self.sweep.prefix_gates()
    }

    fn suffix_gates(&self) -> usize {
        self.sweep.suffix_gates()
    }
}

impl PreparedDoubleSweep for NoisyPrepared<'_> {
    fn replay(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        Ok(self
            .sweep
            .replay(&[first, second], &mut ReplayScratch::new()))
    }

    fn replay_naive(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        self.sweep
            .replay_naive(self.executor.transpiler(), &[first, second])
    }
}

impl SweepExecutor for NoisyExecutor {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let marked = mark_injection_site(qc, point)?;
        let sweep = PhysicalSweep::prepare(self.transpiler(), marked, 1, |a| self.model_for(a))?;
        Ok(Box::new(NoisyPrepared {
            executor: self,
            sweep,
        }))
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        let marked = mark_double_injection_site(qc, point, neighbor)?;
        let sweep = PhysicalSweep::prepare(self.transpiler(), marked, 2, |a| self.model_for(a))?;
        Ok(Box::new(NoisyPrepared {
            executor: self,
            sweep,
        }))
    }
}

// ---------------------------------------------------------------------------
// Hardware executor: per-point calibration drift, per-configuration shot
// sampling, both derived deterministically so results are independent of
// scheduling order.

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

struct HardwarePrepared<'a> {
    executor: &'a HardwareExecutor,
    sweep: PhysicalSweep,
    /// Base for per-configuration sampling seeds.
    sample_base: u64,
}

impl HardwarePrepared<'_> {
    /// One calibration batch per injection point: the drifted device and
    /// the sampling-seed base derive from (executor seed, point identity),
    /// never from the executor's shared stream.
    fn prepare<'a>(
        executor: &'a HardwareExecutor,
        marked: QuantumCircuit,
        n_sites: usize,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<HardwarePrepared<'a>, ExecError> {
        let mut rng = SmallRng::seed_from_u64(derive_seed(&[
            executor.seed(),
            point.op_index as u64,
            point.qubit as u64,
            neighbor.map_or(u64::MAX, |n| n as u64),
        ]));
        let cal = executor
            .calibration()
            .with_drift(&mut rng, executor.drift_sigma());
        let sample_base: u64 = rng.gen();
        let sweep = PhysicalSweep::prepare(executor.transpiler(), marked, n_sites, |active| {
            cal.restrict(active).noise_model()
        })?;
        Ok(HardwarePrepared {
            executor,
            sweep,
            sample_base,
        })
    }

    /// The finite-shot view of an exact distribution, seeded by the fault
    /// angles so replay order never matters.
    fn sample(&self, exact: ProbDist, faults: &[FaultParams]) -> ProbDist {
        let mut words = vec![self.sample_base];
        for f in faults {
            words.push(f.theta.to_bits());
            words.push(f.phi.to_bits());
        }
        let mut rng = SmallRng::seed_from_u64(derive_seed(&words));
        exact.sample(&mut rng, self.executor.shots()).to_prob_dist()
    }
}

impl PreparedSweep for HardwarePrepared<'_> {
    fn replay_with(
        &self,
        fault: FaultParams,
        scratch: &mut ReplayScratch,
    ) -> Result<ProbDist, ExecError> {
        Ok(self.sample(self.sweep.replay(&[fault], scratch), &[fault]))
    }

    fn replay_naive(&self, fault: FaultParams) -> Result<ProbDist, ExecError> {
        let exact = self
            .sweep
            .replay_naive(self.executor.transpiler(), &[fault])?;
        Ok(self.sample(exact, &[fault]))
    }

    fn replay_grid_batched(
        &self,
        grid: &FaultGrid,
        threads: usize,
    ) -> Result<Vec<ProbDist>, ExecError> {
        match effective_batch_width(self.sweep.flat_len(), grid.len()) {
            // Sampling seeds derive from the fault angles, so drawing the
            // finite-shot view per cell of a batched block changes nothing.
            Some(width) if self.sweep.batchable() => {
                Ok(replay_grid_batched_blocks(grid, threads, width, |faults| {
                    self.sweep
                        .replay_block(faults)
                        .into_iter()
                        .zip(faults)
                        .map(|(exact, &fault)| self.sample(exact, &[fault]))
                        .collect()
                }))
            }
            _ => replay_grid_scalar_fallback(self, grid, threads),
        }
    }

    fn prefix_gates(&self) -> usize {
        self.sweep.prefix_gates()
    }

    fn suffix_gates(&self) -> usize {
        self.sweep.suffix_gates()
    }
}

impl PreparedDoubleSweep for HardwarePrepared<'_> {
    fn replay(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        let faults = [first, second];
        Ok(self.sample(
            self.sweep.replay(&faults, &mut ReplayScratch::new()),
            &faults,
        ))
    }

    fn replay_naive(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        let faults = [first, second];
        let exact = self
            .sweep
            .replay_naive(self.executor.transpiler(), &faults)?;
        Ok(self.sample(exact, &faults))
    }
}

impl SweepExecutor for HardwareExecutor {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let marked = mark_injection_site(qc, point)?;
        Ok(Box::new(HardwarePrepared::prepare(
            self, marked, 1, point, None,
        )?))
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        let marked = mark_double_injection_site(qc, point, neighbor)?;
        Ok(Box::new(HardwarePrepared::prepare(
            self,
            marked,
            2,
            point,
            Some(neighbor),
        )?))
    }
}

// ---------------------------------------------------------------------------
// Trajectory executor: per-shot statevector prefixes, Kraus-branch sampling
// through the suffix, seeds derived per (point, fault angles, shot) so the
// Monte-Carlo estimate is as schedule-invariant as the exact paths.

/// Stream tag separating per-shot *prefix* seeds from per-(cell, shot)
/// *suffix* seeds: suffix seeds mix fault-angle bit patterns in this slot,
/// and no valid angle has the all-ones (NaN) pattern.
const PREFIX_STREAM_TAG: u64 = u64::MAX;

/// Default ceiling on parked prefix-bank memory (amplitude bytes). Above
/// it the sweep recomputes the prefix per (cell, shot) from the same seed
/// stream — bit-identical, just slower. Override with
/// `QUFI_TRAJ_BANK_BYTES`.
const DEFAULT_BANK_BYTES: u64 = 256 << 20;

/// Where a replay gets shot `s`'s prefix state from.
enum PrefixBank {
    /// One parked statevector per shot, computed once at prepare time and
    /// shared (borrowed) by every grid cell.
    Banked(Vec<Statevector>),
    /// The bank would exceed the memory budget: replays re-evolve the
    /// prefix from `|0…0⟩` under the same per-shot seed, which yields the
    /// identical state.
    Recompute,
}

/// Everything the trajectory replay path shares for one injection point.
struct TrajectorySweep {
    /// Marked logical circuit — `replay_naive` re-transpiles it per call.
    marked: QuantumCircuit,
    /// Stripped compact physical circuit the replays run on.
    physical: QuantumCircuit,
    /// Splice sites in compact physical coordinates, program order.
    sites: Vec<SpliceSite>,
    model: NoiseModel,
    /// Kraus-operator plan compiled once per point, reused per shot.
    plan: TrajPlan,
    prefix_pos: usize,
    /// `|0…0⟩` template restored into scratch when recomputing prefixes.
    zero: Statevector,
    bank: PrefixBank,
    /// Base for the per-shot prefix and per-(cell, shot) suffix streams.
    point_base: u64,
    shots: u64,
}

/// Worker count for the optional shot-level parallel split, read per call
/// so tests can vary it; shots are handed out in whole accumulator blocks
/// to keep the fold bit-identical to serial.
fn shot_workers() -> usize {
    std::env::var("QUFI_TRAJ_SHOT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

fn bank_byte_limit() -> u64 {
    std::env::var("QUFI_TRAJ_BANK_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_BANK_BYTES)
}

impl TrajectorySweep {
    /// Transpiles a marked circuit, compiles the Kraus plan, and parks one
    /// prefix statevector per shot (or arranges seed-identical recompute
    /// when the bank would exceed `bank_limit` bytes of amplitudes).
    fn prepare(
        executor: &TrajectoryExecutor,
        marked: QuantumCircuit,
        n_sites: usize,
        point: InjectionPoint,
        neighbor: Option<usize>,
        bank_limit: u64,
    ) -> Result<Self, ExecError> {
        let transpile_span = qufi_obs::span("prepare.transpile_ns");
        let result = executor.transpiler().run(&marked)?;
        transpile_span.finish();
        let compact_span = qufi_obs::span("prepare.compact_ns");
        let active = result.active_physical_qubits();
        let compact = compact_circuit(result.circuit(), &active);
        let (physical, sites) = extract_splice_sites(&compact);
        compact_span.finish();
        if sites.len() != n_sites {
            return Err(ExecError::Engine(format!(
                "expected {n_sites} splice markers after transpilation, found {}",
                sites.len()
            )));
        }
        let plan_span = qufi_obs::span("prepare.plan_ns");
        let model = executor.model_for(&active);
        let plan = TrajPlan::compile(&physical, &model);
        plan_span.finish();
        let point_base = derive_seed(&[
            executor.seed(),
            point.op_index as u64,
            point.qubit as u64,
            neighbor.map_or(u64::MAX, |n| n as u64),
        ]);
        let shots = executor.shots();
        let zero = Statevector::new(physical.num_qubits()).map_err(ExecError::Sim)?;
        let prefix_pos = sites[0].index;
        let mut sweep = TrajectorySweep {
            marked,
            physical,
            sites,
            model,
            plan,
            prefix_pos,
            zero,
            bank: PrefixBank::Recompute,
            point_base,
            shots,
        };
        let amp_bytes = (std::mem::size_of::<qufi_math::Complex>() as u64)
            .saturating_mul(1u64 << sweep.physical.num_qubits())
            .saturating_mul(shots);
        if amp_bytes <= bank_limit {
            let prefix_span = qufi_obs::span("prepare.prefix_ns");
            let mut ws = TrajWorkspace::new();
            // `bank` is still `Recompute` here, so this fills the bank
            // through the exact code path the fallback replays later.
            let bank = (0..shots)
                .map(|shot| sweep.prefix_into(sweep.zero.clone(), shot, &mut ws))
                .collect();
            sweep.bank = PrefixBank::Banked(bank);
            prefix_span.finish();
        }
        Ok(sweep)
    }

    /// The per-shot prefix RNG stream; disjoint from every suffix stream
    /// by the [`PREFIX_STREAM_TAG`] slot.
    fn prefix_seed(&self, shot: u64) -> u64 {
        derive_seed(&[self.point_base, PREFIX_STREAM_TAG, shot])
    }

    /// The per-(cell, shot) suffix RNG stream, keyed by the fault angles
    /// so replay order and grid chunking never matter.
    fn suffix_seed(&self, faults: &[FaultParams], shot: u64) -> u64 {
        let mut words = Vec::with_capacity(2 + 2 * faults.len());
        words.push(self.point_base);
        for f in faults {
            words.push(f.theta.to_bits());
            words.push(f.phi.to_bits());
        }
        words.push(shot);
        derive_seed(&words)
    }

    /// Loads shot `shot`'s prefix state into `state` (buffer reused, no
    /// allocation): from the bank when parked, otherwise re-evolved from
    /// `|0…0⟩` under the same per-shot stream — the single code path the
    /// bank fill itself runs, which is what makes the two modes
    /// bit-identical.
    fn prefix_into(
        &self,
        mut state: Statevector,
        shot: u64,
        ws: &mut TrajWorkspace,
    ) -> Statevector {
        match &self.bank {
            PrefixBank::Banked(bank) => {
                state.copy_from(&bank[shot as usize]);
                state
            }
            PrefixBank::Recompute => {
                state.copy_from(&self.zero);
                let mut rng = SmallRng::seed_from_u64(self.prefix_seed(shot));
                let mut cursor = TrajectoryCursor::resume(state, 0);
                cursor.advance_planned(&self.plan, self.prefix_pos, &mut rng, ws);
                cursor.into_state()
            }
        }
    }

    /// Runs shots `[start, end)` of one cell into `acc` through the given
    /// plan (the parked one, or a freshly compiled one on the naive path).
    #[allow(clippy::too_many_arguments)]
    fn run_shot_range(
        &self,
        plan: &TrajPlan,
        sites: &[SpliceSite],
        faults: &[FaultParams],
        start: u64,
        end: u64,
        acc: &mut ShotAccumulator,
        sv_buf: &mut Option<Statevector>,
        ws: &mut TrajWorkspace,
    ) {
        for shot in start..end {
            let state = match sv_buf.take() {
                Some(s) => s,
                None => self.zero.clone(),
            };
            let state = self.prefix_into(state, shot, ws);
            let mut rng = SmallRng::seed_from_u64(self.suffix_seed(faults, shot));
            let mut cursor = TrajectoryCursor::resume(state, self.prefix_pos);
            for (site, fault) in sites.iter().zip(faults) {
                cursor.advance_planned(plan, site.index, &mut rng, ws);
                cursor.apply_planned_injector(
                    plan,
                    fault.injector_gate(),
                    site.qubit,
                    &mut rng,
                    ws,
                );
            }
            cursor.advance_planned(plan, plan.size(), &mut rng, ws);
            acc.add_shot(shot, cursor.state());
            *sv_buf = Some(cursor.into_state());
        }
    }

    /// Fast path: all shots of one `(θ, φ)` cell — prefix from the bank,
    /// suffix under the cell's seed stream — averaged, confused, and
    /// marginalized. `QUFI_TRAJ_SHOT_THREADS > 1` splits the shots across
    /// scoped threads in whole accumulator blocks; the absorb-in-worker-
    /// order merge keeps the result bit-identical to the serial fold.
    fn replay(&self, faults: &[FaultParams], scratch: &mut ReplayScratch) -> ProbDist {
        qufi_obs::add("traj.shots", self.shots);
        let n = self.physical.num_qubits();
        let mut acc = ShotAccumulator::new(n, self.shots);
        let blocks = self.shots.div_ceil(SHOT_BLOCK);
        let workers = (shot_workers() as u64).min(blocks).max(1);
        if workers == 1 {
            self.run_shot_range(
                &self.plan,
                &self.sites,
                faults,
                0,
                self.shots,
                &mut acc,
                &mut scratch.traj_sv,
                &mut scratch.traj_ws,
            );
        } else {
            let per_worker_blocks = blocks.div_ceil(workers);
            // Rounding blocks up may leave trailing workers with nothing to
            // do (4 blocks over 3 workers → 2 + 2 + 0); drop them.
            let workers = blocks.div_ceil(per_worker_blocks);
            let parts = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let start = w * per_worker_blocks * SHOT_BLOCK;
                        let end = ((w + 1) * per_worker_blocks * SHOT_BLOCK).min(self.shots);
                        scope.spawn(move || {
                            let mut part =
                                ShotAccumulator::for_shot_range(n, self.shots, start, end);
                            let mut sv_buf = None;
                            let mut ws = TrajWorkspace::new();
                            self.run_shot_range(
                                &self.plan,
                                &self.sites,
                                faults,
                                start,
                                end,
                                &mut part,
                                &mut sv_buf,
                                &mut ws,
                            );
                            qufi_obs::flush();
                            part
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shot worker panicked"))
                    .collect::<Vec<_>>()
            });
            for part in &parts {
                acc.absorb(part);
            }
        }
        finish_trajectory_dist(acc.mean(), n, &self.model, &self.physical)
    }

    /// Oracle-flavored path: re-transpile the marked circuit and recompile
    /// the Kraus plan from scratch, then run every shot un-banked and
    /// un-split. The seed streams are the same pure functions of
    /// `(point, fault angles, shot)`, so this is **bit-identical** to
    /// [`TrajectorySweep::replay`] — it independently re-derives
    /// everything the prepare step amortizes (transpilation, plan, prefix
    /// bank, scratch reuse, shot chunking).
    fn replay_naive(
        &self,
        transpiler: &qufi_transpile::Transpiler,
        faults: &[FaultParams],
    ) -> Result<ProbDist, ExecError> {
        let result = transpiler.run(&self.marked)?;
        let active = result.active_physical_qubits();
        let compact = compact_circuit(result.circuit(), &active);
        let (physical, sites) = extract_splice_sites(&compact);
        if sites.len() != faults.len() {
            return Err(ExecError::Engine(format!(
                "expected {} splice markers after re-transpilation, found {}",
                faults.len(),
                sites.len()
            )));
        }
        let plan = TrajPlan::compile(&physical, &self.model);
        let n = physical.num_qubits();
        let prefix_pos = sites[0].index;
        let mut acc = ShotAccumulator::new(n, self.shots);
        let mut ws = TrajWorkspace::new();
        let mut sv_buf = None;
        let naive = TrajectorySweep {
            marked: self.marked.clone(),
            physical,
            sites,
            model: self.model.clone(),
            plan,
            prefix_pos,
            zero: Statevector::new(n).map_err(ExecError::Sim)?,
            bank: PrefixBank::Recompute,
            point_base: self.point_base,
            shots: self.shots,
        };
        naive.run_shot_range(
            &naive.plan,
            &naive.sites,
            faults,
            0,
            naive.shots,
            &mut acc,
            &mut sv_buf,
            &mut ws,
        );
        Ok(finish_trajectory_dist(
            acc.mean(),
            n,
            &naive.model,
            &naive.physical,
        ))
    }

    fn prefix_gates(&self) -> usize {
        gates_in(&self.physical, 0..self.prefix_pos)
    }

    fn suffix_gates(&self) -> usize {
        gates_in(&self.physical, self.prefix_pos..self.physical.size())
    }
}

struct TrajectoryPrepared<'a> {
    executor: &'a TrajectoryExecutor,
    sweep: TrajectorySweep,
}

impl PreparedSweep for TrajectoryPrepared<'_> {
    fn replay_with(
        &self,
        fault: FaultParams,
        scratch: &mut ReplayScratch,
    ) -> Result<ProbDist, ExecError> {
        Ok(self.sweep.replay(&[fault], scratch))
    }

    fn replay_naive(&self, fault: FaultParams) -> Result<ProbDist, ExecError> {
        self.sweep
            .replay_naive(self.executor.transpiler(), &[fault])
    }

    fn prefix_gates(&self) -> usize {
        self.sweep.prefix_gates()
    }

    fn suffix_gates(&self) -> usize {
        self.sweep.suffix_gates()
    }
}

impl PreparedDoubleSweep for TrajectoryPrepared<'_> {
    fn replay(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        Ok(self
            .sweep
            .replay(&[first, second], &mut ReplayScratch::new()))
    }

    fn replay_naive(&self, first: FaultParams, second: FaultParams) -> Result<ProbDist, ExecError> {
        check_fault_order(first, second)?;
        self.sweep
            .replay_naive(self.executor.transpiler(), &[first, second])
    }
}

impl SweepExecutor for TrajectoryExecutor {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let marked = mark_injection_site(qc, point)?;
        let sweep = TrajectorySweep::prepare(self, marked, 1, point, None, bank_byte_limit())?;
        Ok(Box::new(TrajectoryPrepared {
            executor: self,
            sweep,
        }))
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        let marked = mark_double_injection_site(qc, point, neighbor)?;
        let sweep =
            TrajectorySweep::prepare(self, marked, 2, point, Some(neighbor), bank_byte_limit())?;
        Ok(Box::new(TrajectoryPrepared {
            executor: self,
            sweep,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_algos::bernstein_vazirani;
    use qufi_noise::BackendCalibration;
    use std::f64::consts::{FRAC_PI_2, PI};

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
        // 130 shots = two full blocks plus a partial tail, so the naive
        // path exercises the same block-folding edge cases as the fast one.
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
    fn trajectory_bank_modes_are_bit_identical() {
        // The parked prefix bank is a cache, not a semantic switch: forcing
        // recompute (limit 0) must reproduce the banked path bit for bit.
        let qc = bv();
        let ex = TrajectoryExecutor::with_shots(BackendCalibration::lima(), 9, 96);
        let point = some_point();
        let faults = [
            FaultParams::shift(PI, 0.0),
            FaultParams::shift(FRAC_PI_2, PI),
        ];
        let marked = mark_injection_site(&qc, point).unwrap();
        let banked =
            TrajectorySweep::prepare(&ex, marked.clone(), 1, point, None, u64::MAX).unwrap();
        let recomputed = TrajectorySweep::prepare(&ex, marked, 1, point, None, 0).unwrap();
        assert!(matches!(banked.bank, PrefixBank::Banked(_)));
        assert!(matches!(recomputed.bank, PrefixBank::Recompute));
        let mut scratch = ReplayScratch::new();
        for &fault in &faults {
            assert_bit_identical(
                &banked.replay(&[fault], &mut scratch),
                &recomputed.replay(&[fault], &mut scratch),
                "bank mode",
            );
        }
    }

    #[test]
    fn trajectory_shot_parallelism_is_bit_identical() {
        // Shot workers only change scheduling: block-partial accumulators
        // are absorbed in block order, so every worker count agrees bitwise.
        // (Other tests may race on this env var; they assert bit-identity
        // regardless of worker count, so the race is benign by design.)
        let qc = bv();
        let ex = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 13, 256);
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let fault = FaultParams::shift(FRAC_PI_2, 0.3);
        std::env::set_var("QUFI_TRAJ_SHOT_THREADS", "1");
        let serial = prepared.replay(fault).unwrap();
        for workers in ["2", "3", "7"] {
            std::env::set_var("QUFI_TRAJ_SHOT_THREADS", workers);
            assert_bit_identical(
                &prepared.replay(fault).unwrap(),
                &serial,
                &format!("{workers} shot workers"),
            );
        }
        std::env::remove_var("QUFI_TRAJ_SHOT_THREADS");
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
    fn reused_scratch_is_bit_identical_to_fresh_scratch() {
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let faults = [
            FaultParams::shift(PI, 0.0),
            FaultParams::shift(0.3, 5.9),
            FaultParams::shift(FRAC_PI_2, FRAC_PI_2),
        ];
        let mut scratch = ReplayScratch::new();
        for &fault in &faults {
            let reused = prepared.replay_with(fault, &mut scratch).unwrap();
            let fresh = prepared.replay(fault).unwrap();
            assert_bit_identical(&reused, &fresh, "scratch reuse");
        }
        // The trajectory path keeps its own statevector + workspace in the
        // scratch; reuse across faults must not leak state between replays.
        let traj = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 21, 96);
        let prepared = traj.prepare(&qc, some_point()).unwrap();
        for &fault in &faults {
            let reused = prepared.replay_with(fault, &mut scratch).unwrap();
            let fresh = prepared.replay(fault).unwrap();
            assert_bit_identical(&reused, &fresh, "trajectory scratch reuse");
        }
    }

    #[test]
    fn replay_grid_batched_matches_scalar_bitwise() {
        // Bit-identity must hold for every batch width, thread count and
        // grid shape — including a grid with θ-duplicate cells (hoisted
        // trig run), a ragged grid (len not a multiple of the width) and a
        // single-cell grid (which takes the scalar path). (Other tests may
        // race on the env var; every assertion here holds for any width,
        // so the race is benign by design.)
        let qc = bv();
        let grids = [
            FaultGrid::coarse(),
            FaultGrid::custom(vec![0.0, 0.7, 0.7, 2.1, PI], vec![0.0, 1.3, 5.0]),
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
                let reference = prepared.replay_grid(grid, 1).unwrap();
                for width in ["1", "3", "8", "16"] {
                    std::env::set_var("QUFI_BATCH_CELLS", width);
                    for threads in [1, 2, 4] {
                        let cells = prepared.replay_grid_batched(grid, threads).unwrap();
                        assert_eq!(cells.len(), grid.len());
                        for (i, (cell, want)) in cells.iter().zip(&reference).enumerate() {
                            assert_bit_identical(
                                cell,
                                want,
                                &format!("batched cell {i} w={width} t={threads}"),
                            );
                        }
                    }
                }
                std::env::remove_var("QUFI_BATCH_CELLS");
            }
        }
    }

    #[test]
    fn trajectory_replay_grid_batched_falls_back_to_scalar() {
        // The trajectory scenario has no batched path: the batched entry
        // point must transparently produce the scalar grid result.
        let qc = bv();
        let ex = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 11, 64);
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let grid = FaultGrid::custom(vec![0.0, PI], vec![0.3]);
        let batched = prepared.replay_grid_batched(&grid, 2).unwrap();
        let scalar = prepared.replay_grid(&grid, 1).unwrap();
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
