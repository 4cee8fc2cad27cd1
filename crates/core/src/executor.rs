//! Execution backends — the three scenarios of paper §IV-B.
//!
//! 1. [`IdealExecutor`] — "simulation without external noise, which is ideal
//!    but not realistic"; used to derive golden outputs.
//! 2. [`NoisyExecutor`] — "simulation of a physical machine, tuning the
//!    noise over which the fault is injected using the IBM-Q noise model":
//!    transpile onto the device, then evolve the exact density matrix under
//!    the calibrated noise model.
//! 3. [`HardwareExecutor`] — stands in for "physical execution on the
//!    available IBM-Q machine": the noisy pipeline plus per-job calibration
//!    drift and finite-shot sampling (1024 shots, as the paper uses). See
//!    PAPER.md, "Execution scenarios (§IV-B)", for the substitution
//!    rationale.
//!
//! A fourth backend, [`TrajectoryExecutor`], targets the widths the exact
//! density path cannot reach: it runs scenario 2's noise model through
//! Monte-Carlo statevector trajectories (`qufi_noise::trajectory`), paying
//! an `O(1/√shots)` statistical error instead of `4^n` memory.

use crate::error::ExecError;
use crate::mapping::{extract_splice_sites, SpliceSite};
use crate::prepare_cache::PrepareCache;
use parking_lot::Mutex;
use qufi_noise::{simulate, BackendCalibration, NoiseModel};
use qufi_sim::circuit::Op;
use qufi_sim::{ProbDist, QuantumCircuit, Statevector};
use qufi_transpile::{CouplingMap, Transpiler};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Active-qubit subsets seen by one executor — small (one per distinct
/// transpiled footprint), so the restricted-model cache never needs to
/// evict in practice.
const MODEL_CACHE_CAP: usize = 32;

/// A backend able to run circuits and return output distributions.
///
/// Implementations must be shareable across campaign worker threads.
pub trait Executor: Sync {
    /// Runs the circuit and returns the distribution over its classical
    /// register.
    ///
    /// # Errors
    ///
    /// Implementation-specific; simulation or transpilation failures.
    fn execute(&self, qc: &QuantumCircuit) -> Result<ProbDist, ExecError>;

    /// Short backend label for reports.
    fn name(&self) -> &str;
}

/// Scenario 1: exact noiseless statevector simulation of the logical
/// circuit.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealExecutor;

impl Executor for IdealExecutor {
    fn execute(&self, qc: &QuantumCircuit) -> Result<ProbDist, ExecError> {
        let sv = Statevector::from_circuit(qc)?;
        Ok(sv.measurement_distribution(qc))
    }

    fn name(&self) -> &str {
        "ideal"
    }
}

/// Remaps a physical circuit onto the compact register `0..active.len()`
/// (position of each physical qubit within `active`).
fn compact_circuit(qc: &QuantumCircuit, active: &[usize]) -> QuantumCircuit {
    let mut pos = vec![usize::MAX; qc.num_qubits()];
    for (i, &p) in active.iter().enumerate() {
        pos[p] = i;
    }
    let mut out = QuantumCircuit::with_name(active.len(), qc.num_clbits(), &qc.name);
    for op in qc.instructions() {
        match op {
            Op::Gate { gate, qubits } => {
                let mapped: Vec<usize> = qubits.iter().map(|&q| pos[q]).collect();
                out.append(*gate, &mapped);
            }
            Op::Barrier(qs) => {
                let mapped: Vec<usize> = qs
                    .iter()
                    .map(|&q| pos[q])
                    .filter(|&q| q != usize::MAX)
                    .collect();
                out.barrier(&mapped);
            }
            Op::Measure { qubit, clbit } => {
                out.measure(pos[*qubit], *clbit);
            }
        }
    }
    out
}

/// The transpiler for a calibrated device: its coupling map, through the
/// one pipeline every transpiling executor runs.
fn device_transpiler(calibration: &BackendCalibration) -> Transpiler {
    Transpiler::new(CouplingMap::from_edges(
        calibration.num_qubits(),
        calibration.coupling(),
    ))
}

/// Transpiles `qc` onto the device and compacts the result onto the
/// device qubits it occupies: the stripped compact circuit, its splice
/// sites (which must number `n_sites`) and those device qubits, in
/// compact order. The first step of every transpiling
/// [`Executor::execute`] (no markers), sweep prepare and naive replay;
/// its two phases are timed as the `prepare.transpile_ns` and
/// `prepare.compact_ns` spans.
pub(crate) fn compile(
    transpiler: &Transpiler,
    qc: &QuantumCircuit,
    n_sites: usize,
) -> Result<(QuantumCircuit, Vec<SpliceSite>, Vec<usize>), ExecError> {
    let transpile_span = qufi_obs::span("prepare.transpile_ns");
    let result = transpiler.run(qc)?;
    transpile_span.finish();
    let compact_span = qufi_obs::span("prepare.compact_ns");
    let active = result.active_physical_qubits();
    let (circuit, sites) = extract_splice_sites(&compact_circuit(result.circuit(), &active));
    compact_span.finish();
    if sites.len() != n_sites {
        return Err(ExecError::Engine(format!(
            "expected {n_sites} splice markers after transpilation, found {}",
            sites.len()
        )));
    }
    Ok((circuit, sites, active))
}

/// Scenario 2: noisy density-matrix simulation after transpilation onto a
/// calibrated device.
///
/// The density matrix is restricted to the physical qubits the transpiled
/// circuit actually occupies, which keeps 4-qubit campaigns on a 7-qubit
/// device 64× cheaper with bit-identical results (idle qubits stay in |0⟩
/// and factor out).
pub struct NoisyExecutor {
    calibration: BackendCalibration,
    transpiler: Transpiler,
    /// Noise models per active-qubit set, built lazily and shared
    /// single-flight across threads.
    model_cache: PrepareCache<Vec<usize>, NoiseModel>,
    label: String,
}

impl NoisyExecutor {
    /// Creates a noisy executor that transpiles onto the calibration's
    /// coupling map.
    pub fn new(calibration: BackendCalibration) -> Self {
        let label = format!("noisy-sim({})", calibration.name);
        NoisyExecutor {
            transpiler: device_transpiler(&calibration),
            calibration,
            model_cache: PrepareCache::new(MODEL_CACHE_CAP),
            label,
        }
    }

    /// The transpiler in use.
    pub fn transpiler(&self) -> &Transpiler {
        &self.transpiler
    }

    pub(crate) fn model_for(&self, active: &[usize]) -> NoiseModel {
        (*self.model_cache.get_or_build(&active.to_vec(), || {
            self.calibration.restrict(active).noise_model()
        }))
        .clone()
    }
}

impl Executor for NoisyExecutor {
    fn execute(&self, qc: &QuantumCircuit) -> Result<ProbDist, ExecError> {
        let (compact, _, active) = compile(&self.transpiler, qc, 0)?;
        Ok(simulate::run_noisy(&compact, &self.model_for(&active))?)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Scenario 3: simulated hardware — noisy simulation with per-job
/// calibration drift and finite-shot sampling.
pub struct HardwareExecutor {
    base: BackendCalibration,
    transpiler: Transpiler,
    shots: u64,
    drift_sigma: f64,
    /// Construction seed; the shared stream below serves ad-hoc
    /// [`Executor::execute`] calls, while the sweep engine derives
    /// per-injection-point streams from this seed so campaign results do
    /// not depend on scheduling order.
    seed: u64,
    rng: Mutex<SmallRng>,
    label: String,
}

impl HardwareExecutor {
    /// Standard IBM-Q-like configuration: 1024 shots, 5% calibration drift.
    pub fn new(calibration: BackendCalibration, seed: u64) -> Self {
        HardwareExecutor::with_config(calibration, seed, 1024, 0.05)
    }

    /// Fully explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or `drift_sigma < 0`.
    pub fn with_config(
        calibration: BackendCalibration,
        seed: u64,
        shots: u64,
        drift_sigma: f64,
    ) -> Self {
        assert!(shots > 0, "need at least one shot");
        assert!(drift_sigma >= 0.0, "negative drift");
        let label = format!("hardware({})", calibration.name);
        HardwareExecutor {
            transpiler: device_transpiler(&calibration),
            base: calibration,
            shots,
            drift_sigma,
            seed,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            label,
        }
    }

    /// Shots per job.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The transpiler in use.
    pub fn transpiler(&self) -> &Transpiler {
        &self.transpiler
    }

    /// The undrifted base calibration.
    pub fn calibration(&self) -> &BackendCalibration {
        &self.base
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    pub(crate) fn drift_sigma(&self) -> f64 {
        self.drift_sigma
    }
}

impl Executor for HardwareExecutor {
    fn execute(&self, qc: &QuantumCircuit) -> Result<ProbDist, ExecError> {
        let (compact, _, active) = compile(&self.transpiler, qc, 0)?;
        // Each job sees a slightly different machine and its own shot noise.
        let (cal, mut sample_rng) = {
            let mut rng = self.rng.lock();
            let cal = self.base.with_drift(&mut *rng, self.drift_sigma);
            let sample_seed: u64 = rand::Rng::gen(&mut *rng);
            (cal, SmallRng::seed_from_u64(sample_seed))
        };
        let model = cal.restrict(&active).noise_model();
        let exact = simulate::run_noisy(&compact, &model)?;
        let counts = exact.sample(&mut sample_rng, self.shots);
        Ok(counts.to_prob_dist())
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Scenario 2 at trajectory widths: Monte-Carlo statevector sampling of
/// the same calibrated noise model [`NoisyExecutor`] evolves exactly.
///
/// No calibration drift is applied — the model is shared verbatim with
/// the density path, which is what lets the statistical-equivalence suite
/// use [`NoisyExecutor`] as the oracle on overlap widths (≤ 7 qubits)
/// while this executor extends the same scenario to 10–14 qubits.
///
/// Determinism: every shot's RNG stream is derived from
/// `(seed, stream tag, shot)` through the campaign seed hasher, so the
/// result is a pure function of `(circuit, calibration, shots, seed)` —
/// independent of threading or chunking, like every other backend.
pub struct TrajectoryExecutor {
    calibration: BackendCalibration,
    transpiler: Transpiler,
    /// Noise models per active-qubit set, built lazily and shared
    /// single-flight across threads.
    model_cache: PrepareCache<Vec<usize>, NoiseModel>,
    shots: u64,
    seed: u64,
    label: String,
}

impl TrajectoryExecutor {
    /// Standard configuration: 1024 trajectories per execution.
    pub fn new(calibration: BackendCalibration, seed: u64) -> Self {
        TrajectoryExecutor::with_shots(calibration, seed, 1024)
    }

    /// Fully explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn with_shots(calibration: BackendCalibration, seed: u64, shots: u64) -> Self {
        assert!(shots > 0, "need at least one shot");
        let label = format!("trajectory({})", calibration.name);
        TrajectoryExecutor {
            transpiler: device_transpiler(&calibration),
            calibration,
            model_cache: PrepareCache::new(MODEL_CACHE_CAP),
            shots,
            seed,
            label,
        }
    }

    /// Trajectories per execution.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The transpiler in use.
    pub fn transpiler(&self) -> &Transpiler {
        &self.transpiler
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    pub(crate) fn model_for(&self, active: &[usize]) -> NoiseModel {
        (*self.model_cache.get_or_build(&active.to_vec(), || {
            self.calibration.restrict(active).noise_model()
        }))
        .clone()
    }
}

impl Executor for TrajectoryExecutor {
    fn execute(&self, qc: &QuantumCircuit) -> Result<ProbDist, ExecError> {
        let (compact, _, active) = compile(&self.transpiler, qc, 0)?;
        let model = self.model_for(&active);
        // The u64::MAX tag separates the ad-hoc execute stream from the
        // sweep engine's per-point streams (which mix fault-angle bits in
        // that slot — never u64::MAX, see the engine's seed derivation).
        let seed = self.seed;
        let dist = qufi_noise::run_trajectories(&compact, &model, self.shots, |shot| {
            crate::engine::derive_seed(&[seed, u64::MAX, shot])
        })?;
        Ok(dist)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_algos::bernstein_vazirani;

    fn bv() -> QuantumCircuit {
        bernstein_vazirani(0b101, 3).circuit
    }

    #[test]
    fn ideal_executor_returns_golden() {
        let d = IdealExecutor.execute(&bv()).unwrap();
        assert!((d.prob(0b101) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_executor_keeps_winner_with_leakage() {
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let d = ex.execute(&bv()).unwrap();
        assert_eq!(d.most_probable().0, 0b101);
        assert!(d.prob(0b101) < 1.0 - 1e-4, "noise should leak probability");
        assert!(d.prob(0b101) > 0.7);
    }

    #[test]
    fn noisy_executor_is_deterministic() {
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let a = ex.execute(&bv()).unwrap();
        let b = ex.execute(&bv()).unwrap();
        assert!(a.tv_distance(&b) < 1e-15);
    }

    #[test]
    fn compaction_matches_full_width_simulation() {
        // Same circuit through lima (5q) vs jakarta (7q): distributions
        // differ by calibration, but compaction itself must not corrupt
        // anything — compare compact against manually-padded execution.
        let cal = BackendCalibration::jakarta();
        let ex = NoisyExecutor::new(cal.clone());
        let qc = bv();
        let result = ex.transpiler().run(&qc).unwrap();
        let active = result.active_physical_qubits();
        let compact = compact_circuit(result.circuit(), &active);
        let compact_dist =
            simulate::run_noisy(&compact, &cal.restrict(&active).noise_model()).unwrap();
        let full_dist = simulate::run_noisy(result.circuit(), &cal.noise_model()).unwrap();
        assert!(compact_dist.tv_distance(&full_dist) < 1e-9);
    }

    #[test]
    fn hardware_executor_samples_and_drifts() {
        let ex = HardwareExecutor::new(BackendCalibration::jakarta(), 11);
        let a = ex.execute(&bv()).unwrap();
        let b = ex.execute(&bv()).unwrap();
        // Finite-shot noise: distributions are close but not identical.
        assert!(a.tv_distance(&b) > 0.0);
        assert!(a.tv_distance(&b) < 0.2);
        // The answer still dominates.
        assert_eq!(a.most_probable().0, 0b101);
        // Probabilities are multiples of 1/shots.
        let p = a.prob(0b101);
        assert!((p * 1024.0 - (p * 1024.0).round()).abs() < 1e-9);
    }

    #[test]
    fn hardware_executor_is_reproducible_per_seed() {
        let a = HardwareExecutor::new(BackendCalibration::jakarta(), 42)
            .execute(&bv())
            .unwrap();
        let b = HardwareExecutor::new(BackendCalibration::jakarta(), 42)
            .execute(&bv())
            .unwrap();
        assert!(a.tv_distance(&b) < 1e-15);
    }

    #[test]
    fn trajectory_executor_is_reproducible_and_converges() {
        let a = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 42, 512)
            .execute(&bv())
            .unwrap();
        let b = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 42, 512)
            .execute(&bv())
            .unwrap();
        for i in 0..a.len() {
            assert_eq!(a.prob(i).to_bits(), b.prob(i).to_bits(), "outcome {i}");
        }
        // Statistically close to the exact density path on the same model.
        let oracle = NoisyExecutor::new(BackendCalibration::jakarta())
            .execute(&bv())
            .unwrap();
        assert!(a.tv_distance(&oracle) < 0.05);
        assert_eq!(a.most_probable().0, 0b101);
    }

    #[test]
    fn executor_names_are_meaningful() {
        assert_eq!(IdealExecutor.name(), "ideal");
        assert!(NoisyExecutor::new(BackendCalibration::lima())
            .name()
            .contains("lima"));
        assert!(HardwareExecutor::new(BackendCalibration::jakarta(), 0)
            .name()
            .contains("jakarta"));
        assert!(TrajectoryExecutor::new(BackendCalibration::guadalupe(), 0)
            .name()
            .contains("guadalupe"));
    }

    #[test]
    fn executors_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<IdealExecutor>();
        assert_sync::<NoisyExecutor>();
        assert_sync::<HardwareExecutor>();
        assert_sync::<TrajectoryExecutor>();
    }
}
