//! Double (multi-qubit) fault campaigns (paper §III-C, §IV-C, results §V-D).
//!
//! A particle strike can perturb several qubits at once; the qubit closer to
//! the impact suffers the larger shift. QuFI injects the first fault
//! `(θ0, φ0)` as usual and a second, weaker fault `(θ1 ≤ θ0, φ1 ≤ φ0)` on a
//! qubit **physically adjacent** to the first after transpilation — the
//! candidate pairs come from [`neighbor_pairs`].

use crate::engine::SweepExecutor;
use crate::error::ExecError;
use crate::fault::{enumerate_injection_points, FaultGrid, FaultParams, InjectionPoint};
use crate::metrics::{mean, qvf_from_dist, stddev};
use qufi_sim::QuantumCircuit;
use qufi_transpile::Transpiler;

/// One executed double injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleInjectionRecord {
    /// First (stronger) fault location.
    pub point: InjectionPoint,
    /// The neighbouring qubit hit by the second fault.
    pub neighbor: usize,
    /// First fault θ0.
    pub theta0: f64,
    /// First fault φ0.
    pub phi0: f64,
    /// Second fault θ1 ≤ θ0.
    pub theta1: f64,
    /// Second fault φ1 ≤ φ0.
    pub phi1: f64,
    /// Resulting QVF.
    pub qvf: f64,
}

/// Configuration of a double-fault campaign.
#[derive(Debug, Clone)]
pub struct DoubleOptions {
    /// Grid for the **first** fault; the second sweeps the same lattice
    /// restricted to `θ1 ≤ θ0`, `φ1 ≤ φ0`.
    pub grid: FaultGrid,
    /// Explicit first-fault points (`None` = all).
    pub points: Option<Vec<InjectionPoint>>,
    /// Physically-adjacent logical pairs eligible for the second fault.
    pub pairs: Vec<(usize, usize)>,
    /// Worker threads (`0` = all cores).
    pub threads: usize,
    /// Use the naive per-configuration oracle path instead of the
    /// forked-state fast path (see
    /// [`CampaignOptions::naive`](crate::campaign::CampaignOptions::naive)).
    pub naive: bool,
}

impl DoubleOptions {
    /// Coarse variant for benches.
    pub fn coarse(pairs: Vec<(usize, usize)>) -> Self {
        DoubleOptions {
            grid: FaultGrid::coarse(),
            points: None,
            pairs,
            threads: 0,
            naive: false,
        }
    }
}

/// Results of a double-fault campaign.
#[derive(Debug, Clone)]
pub struct DoubleCampaignResult {
    /// Name of the analyzed circuit.
    pub circuit_name: String,
    /// Golden outcome indices.
    pub golden: Vec<usize>,
    /// One record per executed double injection, sorted.
    pub records: Vec<DoubleInjectionRecord>,
    /// First-fault grid.
    pub grid: FaultGrid,
}

impl DoubleCampaignResult {
    /// All QVF values.
    pub fn qvfs(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.qvf).collect()
    }

    /// Mean QVF.
    pub fn mean_qvf(&self) -> f64 {
        mean(&self.qvfs())
    }

    /// Population standard deviation.
    pub fn stddev_qvf(&self) -> f64 {
        stddev(&self.qvfs())
    }

    /// Records with the first fault fixed to `(θ0, φ0)` — the paper's
    /// Fig. 8c "explosion plot" slice.
    pub fn slice_first_fault(&self, theta0: f64, phi0: f64) -> Vec<DoubleInjectionRecord> {
        self.records
            .iter()
            .copied()
            .filter(|r| (r.theta0 - theta0).abs() < 1e-9 && (r.phi0 - phi0).abs() < 1e-9)
            .collect()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Identifies the logical qubit pairs that are physically adjacent after
/// transpiling `qc` — "QuFI … tags the qubits that are neighbors after the
/// transpiling process" (§IV-C).
///
/// # Errors
///
/// Propagates transpilation failures.
pub fn neighbor_pairs(
    qc: &QuantumCircuit,
    transpiler: &Transpiler,
) -> Result<Vec<(usize, usize)>, ExecError> {
    Ok(transpiler.run(qc)?.coupled_logical_pairs())
}

/// Runs a double-fault campaign: first fault on each injection point whose
/// qubit belongs to a pair, second fault on the paired neighbour, sweeping
/// `θ1 ≤ θ0`, `φ1 ≤ φ0` on the same angle lattice. Each (point, neighbor)
/// item is prepared once through the forked-state engine; the quadratic
/// fault lattice replays from the snapshot.
///
/// # Errors
///
/// An execution error aborts the campaign. The error returned is the one
/// of the lowest-index failing (point, neighbor) item, so it is the same
/// at every thread count (see [`crate::par`]).
pub fn run_double_campaign<E: SweepExecutor>(
    qc: &QuantumCircuit,
    golden: &[usize],
    executor: &E,
    options: &DoubleOptions,
) -> Result<DoubleCampaignResult, ExecError> {
    let points = options
        .points
        .clone()
        .unwrap_or_else(|| enumerate_injection_points(qc));

    // Expand (point, neighbor) work items from the pair list.
    let mut items: Vec<(InjectionPoint, usize)> = Vec::new();
    for &p in &points {
        for &(a, b) in &options.pairs {
            if p.qubit == a {
                items.push((p, b));
            } else if p.qubit == b {
                items.push((p, a));
            }
        }
    }

    let threads = crate::par::resolve_threads(options.threads);
    let grid = &options.grid;
    let sweeps = crate::par::run(items.len(), threads, |i| {
        let (point, neighbor) = items[i];
        let prepared = executor.prepare_double(qc, point, neighbor)?;
        let mut records = Vec::new();
        for &phi0 in &grid.phis {
            for &theta0 in &grid.thetas {
                for &phi1 in grid.phis.iter().filter(|&&p| p <= phi0 + 1e-12) {
                    for &theta1 in grid.thetas.iter().filter(|&&t| t <= theta0 + 1e-12) {
                        let first = FaultParams::shift(theta0, phi0);
                        let second = FaultParams::shift(theta1, phi1);
                        let dist = if options.naive {
                            prepared.replay_naive(first, second)
                        } else {
                            prepared.replay(first, second)
                        }?;
                        records.push(DoubleInjectionRecord {
                            point,
                            neighbor,
                            theta0,
                            phi0,
                            theta1,
                            phi1,
                            qvf: qvf_from_dist(&dist, golden),
                        });
                    }
                }
            }
        }
        Ok::<_, ExecError>(records)
    })?;
    let mut records: Vec<DoubleInjectionRecord> = sweeps.into_iter().flatten().collect();
    records.sort_by(|a, b| {
        (a.point, a.neighbor, a.phi0, a.theta0, a.phi1, a.theta1)
            .partial_cmp(&(b.point, b.neighbor, b.phi0, b.theta0, b.phi1, b.theta1))
            .expect("angles are finite")
    });
    Ok(DoubleCampaignResult {
        circuit_name: qc.name.clone(),
        golden: golden.to_vec(),
        records,
        grid: options.grid.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{golden_outputs, run_single_campaign};
    use crate::executor::{Executor, IdealExecutor, NoisyExecutor};
    use qufi_algos::bernstein_vazirani;
    use qufi_noise::BackendCalibration;
    use qufi_transpile::{CouplingMap, OptimizationLevel};
    use std::f64::consts::PI;

    #[test]
    fn neighbor_pairs_on_jakarta() {
        let w = bernstein_vazirani(0b101, 3);
        let t = Transpiler::new(CouplingMap::ibm_h7(), OptimizationLevel::Level3);
        let pairs = neighbor_pairs(&w.circuit, &t).unwrap();
        assert!(!pairs.is_empty());
        for &(a, b) in &pairs {
            assert!(a < b && b < 4);
        }
    }

    #[test]
    fn second_fault_never_exceeds_first() {
        let w = bernstein_vazirani(0b1, 1);
        let opts = DoubleOptions::coarse(vec![(0, 1)]);
        let res =
            run_double_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        assert!(!res.is_empty());
        for r in &res.records {
            assert!(r.theta1 <= r.theta0 + 1e-12);
            assert!(r.phi1 <= r.phi0 + 1e-12);
        }
    }

    #[test]
    fn double_fault_mean_qvf_exceeds_single_fault_mean() {
        // The paper's headline §V-D claim on BV: double faults are worse.
        let w = bernstein_vazirani(0b101, 3);
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let points = vec![
            crate::fault::InjectionPoint {
                op_index: 2,
                qubit: 0,
            },
            crate::fault::InjectionPoint {
                op_index: 5,
                qubit: 0,
            },
        ];
        let grid = FaultGrid::custom(vec![0.0, PI / 2.0, PI], vec![0.0, PI / 2.0, PI]);
        let single = run_single_campaign(
            &w.circuit,
            &w.correct_outputs,
            &ex,
            &crate::campaign::CampaignOptions {
                grid: grid.clone(),
                points: Some(points.clone()),
                threads: 0,
                naive: false,
            },
        )
        .unwrap();
        let t = ex.transpiler().clone();
        let pairs = neighbor_pairs(&w.circuit, &t).unwrap();
        let double = run_double_campaign(
            &w.circuit,
            &w.correct_outputs,
            &ex,
            &DoubleOptions {
                grid,
                points: Some(points),
                pairs,
                threads: 0,
                naive: false,
            },
        )
        .unwrap();
        assert!(
            double.mean_qvf() > single.mean_qvf(),
            "double {:.4} should exceed single {:.4}",
            double.mean_qvf(),
            single.mean_qvf()
        );
    }

    #[test]
    fn null_second_fault_reduces_to_single() {
        // θ1 = φ1 = 0: the double record must equal the single-fault QVF.
        let w = bernstein_vazirani(0b11, 2);
        let golden = golden_outputs(&w.circuit).unwrap();
        let point = crate::fault::InjectionPoint {
            op_index: 2,
            qubit: 0,
        };
        let opts = DoubleOptions {
            grid: FaultGrid::custom(vec![0.0, PI], vec![0.0]),
            points: Some(vec![point]),
            pairs: vec![(0, 1)],
            threads: 1,
            naive: false,
        };
        let res = run_double_campaign(&w.circuit, &golden, &IdealExecutor, &opts).unwrap();
        let zero_second: Vec<_> = res
            .records
            .iter()
            .filter(|r| r.theta0 == PI && r.theta1 == 0.0 && r.phi1 == 0.0)
            .collect();
        assert!(!zero_second.is_empty());
        let single =
            crate::fault::inject_fault(&w.circuit, point, FaultParams::shift(PI, 0.0)).unwrap();
        let single_qvf = qvf_from_dist(&IdealExecutor.execute(&single).unwrap(), &golden);
        for r in zero_second {
            assert!((r.qvf - single_qvf).abs() < 1e-9);
        }
    }

    #[test]
    fn slice_extracts_fixed_first_fault() {
        let w = bernstein_vazirani(0b1, 1);
        let opts = DoubleOptions::coarse(vec![(0, 1)]);
        let res =
            run_double_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        let max_t = *opts.grid.thetas.last().unwrap();
        let max_p = *opts.grid.phis.last().unwrap();
        let slice = res.slice_first_fault(max_t, max_p);
        // The (max, max) slice sweeps the full second-fault lattice.
        assert_eq!(
            slice.len() * res.records.len() / res.records.len(),
            slice.len()
        );
        assert!(!slice.is_empty());
        for r in &slice {
            assert_eq!(r.theta0, max_t);
            assert_eq!(r.phi0, max_p);
        }
    }

    #[test]
    fn empty_pairs_yield_empty_campaign() {
        let w = bernstein_vazirani(0b1, 1);
        let opts = DoubleOptions::coarse(vec![]);
        let res =
            run_double_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        assert!(res.is_empty());
    }
}
