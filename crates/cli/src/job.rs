//! The campaign job matrix: one job per (workload × backend ×
//! noise-scale) cell, each sweeping the full fault grid over every
//! injection point of its circuit.
//!
//! Jobs are the checkpointing unit; injection points are the scheduling
//! unit. Hardware-scenario randomness is derived per *point* from the
//! campaign seed and the job/point identity, so results are
//! bit-reproducible no matter how the thread pool interleaves work or
//! how often a campaign is interrupted and resumed.

use crate::checkpoint::JobMeta;
use crate::error::CliError;
use crate::manifest::{ExecutorKind, Manifest};
use qufi_core::campaign::{golden_outputs, run_point_sweep_parallel};
use qufi_core::engine::{SeedHasher, SweepExecutor};
use qufi_core::executor::{HardwareExecutor, IdealExecutor, NoisyExecutor, TrajectoryExecutor};
use qufi_core::fault::{enumerate_injection_points, FaultGrid, InjectionPoint};
use qufi_core::{ExecError, InjectionRecord};
use qufi_noise::BackendCalibration;
use qufi_sim::QuantumCircuit;

/// Identity of one job in the campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload registry name (`"bv-4"`).
    pub workload: String,
    /// Backend name, or `"logical"` for backend-less ideal campaigns.
    pub backend: String,
    /// Noise scale applied to the backend calibration.
    pub scale: f64,
}

impl JobSpec {
    /// The job's stable identifier — used for checkpoint and artifact
    /// file names, so it is restricted to filesystem-safe characters.
    pub fn id(&self) -> String {
        if (self.scale - 1.0).abs() < f64::EPSILON {
            format!("{}@{}", self.workload, self.backend)
        } else {
            format!("{}@{}@x{}", self.workload, self.backend, self.scale)
        }
    }
}

/// Placeholder backend name for ideal (backend-less) campaigns.
pub const LOGICAL_BACKEND: &str = "logical";

/// Enumerates the campaign's job matrix in manifest order — the
/// canonical job numbering that progress reporting and artifact
/// directories follow.
pub fn job_matrix(manifest: &Manifest) -> Vec<JobSpec> {
    let backends: Vec<String> = if manifest.backends.is_empty() {
        vec![LOGICAL_BACKEND.to_string()]
    } else {
        manifest.backends.clone()
    };
    let mut jobs = Vec::new();
    for workload in &manifest.workloads {
        for backend in &backends {
            for &scale in &manifest.noise_scales {
                jobs.push(JobSpec {
                    workload: workload.clone(),
                    backend: backend.clone(),
                    scale,
                });
            }
        }
    }
    jobs
}

/// How a job executes circuits. Ideal and noisy executors are
/// deterministic and shared by every point of the job. The hardware and
/// trajectory scenarios build an executor per point (see
/// [`JobExecutor::with_point`]), so their drift, shot and trajectory
/// streams do not depend on scheduling order.
enum JobExecutor {
    Ideal,
    /// Boxed: its calibration tables dwarf the other variants.
    Noisy(Box<NoisyExecutor>),
    Hardware {
        /// Scaled calibration every per-point executor starts from.
        calibration: BackendCalibration,
        shots: u64,
        /// Calibration drift σ.
        drift: f64,
        /// The campaign seed and job id, mixed; each point mixes in its
        /// identity to seed its executor.
        seeds: SeedHasher,
    },
    Trajectory {
        calibration: BackendCalibration,
        shots: u64,
        seeds: SeedHasher,
    },
}

/// A job bound to its circuit, golden outputs and executor — everything
/// needed to run injection points.
pub struct JobRuntime {
    /// The job's identity.
    pub spec: JobSpec,
    /// The workload circuit.
    pub circuit: QuantumCircuit,
    /// Golden outcome indices.
    pub golden: Vec<usize>,
    /// QVF of the fault-free execution under this job's executor.
    pub baseline_qvf: f64,
    /// All injection points of the circuit, in enumeration order.
    pub points: Vec<InjectionPoint>,
    executor: JobExecutor,
}

/// Sentinel point identity for a job's fault-free baseline execution.
const BASELINE_POINT: (usize, usize) = (usize::MAX, usize::MAX);

impl JobRuntime {
    /// Builds the runtime for one job: resolves the workload and
    /// backend, constructs the executor, and measures golden outputs
    /// and the fault-free baseline QVF.
    ///
    /// # Errors
    ///
    /// Unknown names (normally caught by manifest validation) and
    /// execution failures of the fault-free circuit.
    pub fn prepare(manifest: &Manifest, spec: &JobSpec) -> Result<Self, CliError> {
        let (circuit, executor) = resolve(manifest, spec)?;
        let golden = golden_outputs(&circuit)?;
        let dist = executor.with_point(BASELINE_POINT, |ex| ex.execute(&circuit))?;
        let baseline_qvf = qufi_core::metrics::qvf_from_dist(&dist, &golden);
        Ok(JobRuntime::assemble(
            spec.clone(),
            circuit,
            executor,
            golden,
            baseline_qvf,
        ))
    }

    /// The runtime of a job whose golden outputs and baseline QVF were
    /// measured by [`JobRuntime::prepare`] when `meta` was written: the
    /// circuit, executor and points are resolved as `prepare` resolves
    /// them, and nothing is executed.
    ///
    /// # Errors
    ///
    /// Unknown workload or backend names.
    pub fn from_meta(manifest: &Manifest, meta: &JobMeta) -> Result<Self, CliError> {
        let spec = meta.spec();
        let (circuit, executor) = resolve(manifest, &spec)?;
        Ok(JobRuntime::assemble(
            spec,
            circuit,
            executor,
            meta.golden.clone(),
            meta.baseline_qvf,
        ))
    }

    fn assemble(
        spec: JobSpec,
        circuit: QuantumCircuit,
        executor: JobExecutor,
        golden: Vec<usize>,
        baseline_qvf: f64,
    ) -> Self {
        JobRuntime {
            spec,
            points: enumerate_injection_points(&circuit),
            circuit,
            golden,
            baseline_qvf,
            executor,
        }
    }

    /// Runs the full grid at one injection point — the scheduling unit.
    ///
    /// # Errors
    ///
    /// Propagates the first execution failure.
    pub fn run_point(
        &self,
        point: InjectionPoint,
        grid: &FaultGrid,
    ) -> Result<Vec<InjectionRecord>, ExecError> {
        self.run_point_split(point, grid, 1)
    }

    /// [`JobRuntime::run_point`] with the grid fanned across `grid_threads`
    /// threads — the second level of the scheduler's thread split. Records
    /// are bit-identical for every `grid_threads` value (see
    /// [`qufi_core::engine::PreparedSweep::replay_grid`]).
    ///
    /// # Errors
    ///
    /// Propagates the first execution failure.
    pub fn run_point_split(
        &self,
        point: InjectionPoint,
        grid: &FaultGrid,
        grid_threads: usize,
    ) -> Result<Vec<InjectionRecord>, ExecError> {
        self.executor
            .with_point((point.op_index, point.qubit), |ex| {
                run_point_sweep_parallel(&self.circuit, &self.golden, ex, point, grid, grid_threads)
            })
    }
}

/// The job's workload circuit and executor.
fn resolve(manifest: &Manifest, spec: &JobSpec) -> Result<(QuantumCircuit, JobExecutor), CliError> {
    let workload = qufi_algos::build_workload(&spec.workload)
        .map_err(|e| CliError::manifest(e.to_string()))?;
    // Per-point seeds hash (campaign seed, job id, op index, qubit).
    let seeds = SeedHasher::new()
        .mix_u64(manifest.seed)
        .mix_bytes(spec.id().as_bytes())
        .clone();
    let executor = match manifest.executor {
        ExecutorKind::Ideal => JobExecutor::Ideal,
        ExecutorKind::Noisy => {
            JobExecutor::Noisy(Box::new(NoisyExecutor::new(scaled_calibration(spec)?)))
        }
        ExecutorKind::Hardware => JobExecutor::Hardware {
            calibration: scaled_calibration(spec)?,
            shots: manifest.shots,
            drift: manifest.drift,
            seeds,
        },
        ExecutorKind::Trajectory => JobExecutor::Trajectory {
            calibration: scaled_calibration(spec)?,
            shots: manifest.shots,
            seeds,
        },
    };
    Ok((workload.circuit, executor))
}

impl JobExecutor {
    /// Runs `f` on the executor of the point `(op_index, qubit)`
    /// ([`BASELINE_POINT`] for the fault-free run): the job's shared one,
    /// or a hardware or trajectory executor seeded for that point.
    fn with_point<R>(
        &self,
        (op_index, qubit): (usize, usize),
        f: impl FnOnce(&dyn SweepExecutor) -> R,
    ) -> R {
        let seed = |seeds: &SeedHasher| {
            seeds
                .clone()
                .mix_u64(op_index as u64)
                .mix_u64(qubit as u64)
                .finish()
        };
        match self {
            JobExecutor::Ideal => f(&IdealExecutor),
            JobExecutor::Noisy(ex) => f(ex.as_ref()),
            JobExecutor::Hardware {
                calibration,
                shots,
                drift,
                seeds,
            } => f(&HardwareExecutor::with_config(
                calibration.clone(),
                seed(seeds),
                *shots,
                *drift,
            )),
            JobExecutor::Trajectory {
                calibration,
                shots,
                seeds,
            } => f(&TrajectoryExecutor::with_shots(
                calibration.clone(),
                seed(seeds),
                *shots,
            )),
        }
    }
}

/// Everything [`JobRuntime::prepare`] reads, flattened into a hashable
/// key: the executor scenario plus the manifest knobs that reach it.
/// Two (manifest, spec) pairs with equal keys build byte-identical
/// runtimes, which is what makes runtimes safe to share across
/// campaigns — and across tenants of the campaign service.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RuntimeKey {
    executor: &'static str,
    workload: String,
    backend: String,
    scale_bits: u64,
    seed: u64,
    shots: u64,
    drift_bits: u64,
}

impl RuntimeKey {
    /// The cache key for `spec` under `manifest`.
    pub fn new(manifest: &Manifest, spec: &JobSpec) -> RuntimeKey {
        RuntimeKey {
            executor: manifest.executor.keyword(),
            workload: spec.workload.clone(),
            backend: spec.backend.clone(),
            scale_bits: spec.scale.to_bits(),
            seed: manifest.seed,
            shots: manifest.shots,
            drift_bits: manifest.drift.to_bits(),
        }
    }
}

/// A shared single-flight cache of prepared job runtimes, keyed by
/// [`RuntimeKey`]. Concurrent campaigns that name the same (workload,
/// backend, scale, executor-config) cell pay the prepare cost —
/// workload build, golden outputs, baseline execution, point
/// enumeration — exactly once and share the result.
pub type RuntimeCache = qufi_core::PrepareCache<RuntimeKey, JobRuntime>;

/// [`JobRuntime::prepare`] through a shared [`RuntimeCache`].
///
/// # Errors
///
/// Propagates [`JobRuntime::prepare`] failures; a failed prepare is not
/// cached, so a later retry rebuilds.
pub fn prepare_cached(
    cache: &RuntimeCache,
    manifest: &Manifest,
    spec: &JobSpec,
) -> Result<std::sync::Arc<JobRuntime>, CliError> {
    cache.get_or_try_build(&RuntimeKey::new(manifest, spec), || {
        JobRuntime::prepare(manifest, spec)
    })
}

fn scaled_calibration(spec: &JobSpec) -> Result<BackendCalibration, CliError> {
    let cal = BackendCalibration::named(&spec.backend)
        .ok_or_else(|| CliError::manifest(format!("unknown backend {:?}", spec.backend)))?;
    Ok(if (spec.scale - 1.0).abs() < f64::EPSILON {
        cal
    } else {
        cal.scaled(spec.scale)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn manifest(executor: &str) -> Manifest {
        Manifest::from_toml(&format!(
            "[campaign]\nname = \"t\"\nseed = 9\nexecutor = \"{executor}\"\n\
             workloads = [\"bv-3\", \"ghz-3\"]\nbackends = [\"lima\", \"jakarta\"]\n\
             noise_scales = [1.0, 2.0]\n[grid]\npreset = \"coarse\"\n"
        ))
        .unwrap()
    }

    #[test]
    fn matrix_is_workload_major_and_ids_are_stable() {
        let jobs = job_matrix(&manifest("noisy"));
        assert_eq!(jobs.len(), 2 * 2 * 2);
        assert_eq!(jobs[0].id(), "bv-3@lima");
        assert_eq!(jobs[1].id(), "bv-3@lima@x2");
        assert_eq!(jobs[2].id(), "bv-3@jakarta");
        assert_eq!(jobs[7].id(), "ghz-3@jakarta@x2");
    }

    #[test]
    fn ideal_manifest_without_backends_gets_logical_job() {
        let m = Manifest::from_toml("[campaign]\nexecutor = \"ideal\"\nworkloads = [\"bv-3\"]\n")
            .unwrap();
        let jobs = job_matrix(&m);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id(), "bv-3@logical");
    }

    #[test]
    fn prepare_measures_golden_and_baseline() {
        let m = manifest("noisy");
        let rt = JobRuntime::prepare(&m, &job_matrix(&m)[0]).unwrap();
        assert_eq!(rt.golden, vec![0b10]); // alternating secret "10"
        assert!(rt.baseline_qvf > 0.0 && rt.baseline_qvf < 0.45);
        assert!(!rt.points.is_empty());
    }

    #[test]
    fn hardware_points_are_reproducible_and_independent() {
        let m = manifest("hardware");
        let jobs = job_matrix(&m);
        let rt = JobRuntime::prepare(&m, &jobs[0]).unwrap();
        let grid = FaultGrid::custom(vec![0.0, 1.0], vec![0.0]);
        let p0 = rt.points[0];
        let p1 = rt.points[1];
        // Same point twice → identical records (order-independence).
        let a = rt.run_point(p1, &grid).unwrap();
        let _ = rt.run_point(p0, &grid).unwrap();
        let b = rt.run_point(p1, &grid).unwrap();
        assert_eq!(a, b);
        // A fresh runtime reproduces them too.
        let rt2 = JobRuntime::prepare(&m, &jobs[0]).unwrap();
        assert_eq!(rt2.run_point(p1, &grid).unwrap(), a);
        assert_eq!(rt2.baseline_qvf, rt.baseline_qvf);
    }

    #[test]
    fn trajectory_points_are_reproducible_and_independent() {
        let m = Manifest::from_toml(
            "[campaign]\nname = \"t\"\nseed = 9\nexecutor = \"trajectory\"\nshots = 192\n\
             workloads = [\"bv-3\"]\nbackends = [\"lima\"]\n[grid]\npreset = \"coarse\"\n",
        )
        .unwrap();
        let jobs = job_matrix(&m);
        let rt = JobRuntime::prepare(&m, &jobs[0]).unwrap();
        let grid = FaultGrid::custom(vec![0.0, 1.0], vec![0.0]);
        let p0 = rt.points[0];
        let p1 = rt.points[1];
        // Same point twice → identical records (order-independence).
        let a = rt.run_point(p1, &grid).unwrap();
        let _ = rt.run_point(p0, &grid).unwrap();
        let b = rt.run_point(p1, &grid).unwrap();
        assert_eq!(a, b);
        // A fresh runtime and a split grid reproduce them too.
        let rt2 = JobRuntime::prepare(&m, &jobs[0]).unwrap();
        assert_eq!(rt2.run_point_split(p1, &grid, 2).unwrap(), a);
        assert_eq!(rt2.baseline_qvf, rt.baseline_qvf);
    }

    #[test]
    fn from_meta_takes_the_stored_measurements_and_runs_points_alike() {
        let m = Manifest::from_toml(
            "[campaign]\nname = \"t\"\nseed = 9\nexecutor = \"trajectory\"\nshots = 64\n\
             workloads = [\"bv-3\"]\nbackends = [\"lima\"]\n",
        )
        .unwrap();
        let jobs = job_matrix(&m);
        let rt = JobRuntime::prepare(&m, &jobs[0]).unwrap();
        // A baseline no execution measured: `from_meta` must carry it over.
        let mut meta = JobMeta::from_runtime(&rt);
        meta.baseline_qvf = 0.5;
        let stored = JobRuntime::from_meta(&m, &meta).unwrap();
        assert_eq!(JobMeta::from_runtime(&stored), meta);
        assert_eq!(stored.points, rt.points);
        let grid = FaultGrid::custom(vec![0.0, 1.0], vec![0.0]);
        let p = rt.points[1];
        assert_eq!(
            stored.run_point(p, &grid).unwrap(),
            rt.run_point(p, &grid).unwrap()
        );
    }

    #[test]
    fn runtime_cache_shares_across_equal_specs_and_splits_on_config() {
        let m = manifest("noisy");
        let jobs = job_matrix(&m);
        let cache = RuntimeCache::new(8);
        let a = prepare_cached(&cache, &m, &jobs[0]).unwrap();
        let b = prepare_cached(&cache, &m, &jobs[0]).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "same cell shares one runtime"
        );
        let other = prepare_cached(&cache, &m, &jobs[1]).unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(&a, &other),
            "x2 scale is a different cell"
        );
        // A different seed changes hardware-scenario streams → distinct key.
        let mh = manifest("hardware");
        let mut mh2 = mh.clone();
        mh2.seed = mh.seed + 1;
        assert_ne!(
            RuntimeKey::new(&mh, &jobs[0]),
            RuntimeKey::new(&mh2, &jobs[0])
        );
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn scale_changes_the_noise_floor() {
        let m = manifest("noisy");
        let jobs = job_matrix(&m);
        let nominal = JobRuntime::prepare(&m, &jobs[0]).unwrap();
        let doubled = JobRuntime::prepare(&m, &jobs[1]).unwrap();
        assert!(doubled.baseline_qvf > nominal.baseline_qvf);
    }
}
