//! Single-fault injection campaigns (paper §IV-B, results §V-B).
//!
//! A campaign sweeps every injection point of a circuit (after each gate,
//! on each operand qubit) across the φ/θ fault grid, executes each faulty
//! circuit, and records the QVF. Points are independent, so the work fans
//! out over the deterministic worker pool of [`crate::par`].
//!
//! Execution goes through the forked-state sweep engine
//! ([`crate::engine`]): each point transpiles and evolves its circuit
//! prefix **once**, then replays all grid configurations from a state
//! snapshot. The pre-engine per-configuration pipeline survives as
//! [`run_point_sweep_naive`], the oracle the differential test suite
//! compares against.

use crate::engine::SweepExecutor;
use crate::error::ExecError;
use crate::executor::{Executor, IdealExecutor};
use crate::fault::{enumerate_injection_points, FaultGrid, FaultParams, InjectionPoint};
use crate::metrics::{
    checkpoint_qvf, mean_of, qvf_from_dist, record_severity, stddev_of, Severity,
};
use qufi_sim::QuantumCircuit;
use std::cmp::Ordering;

/// One executed injection and its measured QVF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionRecord {
    /// Where the fault struck.
    pub point: InjectionPoint,
    /// θ shift injected.
    pub theta: f64,
    /// φ shift injected.
    pub phi: f64,
    /// Resulting Quantum Vulnerability Factor.
    pub qvf: f64,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// The φ/θ sweep; defaults to the paper's 312-configuration grid.
    pub grid: FaultGrid,
    /// Explicit injection points (`None` = every gate/operand pair).
    pub points: Option<Vec<InjectionPoint>>,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            grid: FaultGrid::paper(),
            points: None,
            threads: 0,
        }
    }
}

impl CampaignOptions {
    /// The paper's full grid on all injection points.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A coarse grid for quick runs and benches.
    pub fn coarse() -> Self {
        CampaignOptions {
            grid: FaultGrid::coarse(),
            ..Self::default()
        }
    }
}

/// The outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Name of the analyzed circuit.
    pub circuit_name: String,
    /// Golden outcome indices used for the QVF.
    pub golden: Vec<usize>,
    /// QVF of the fault-free (but still noisy) execution — the `(0, 0)`
    /// reference spot of the paper's heatmaps.
    pub baseline_qvf: f64,
    /// One record per (point, θ, φ), sorted by (point, φ, θ).
    pub records: Vec<InjectionRecord>,
    /// The grid that was swept.
    pub grid: FaultGrid,
}

/// The deterministic record order: (point, φ, θ). The sort is stable, so
/// records this order ties (duplicates, or angles of zero that differ
/// only in sign) keep their input order.
fn record_order(a: &InjectionRecord, b: &InjectionRecord) -> Ordering {
    (a.point, a.phi, a.theta)
        .partial_cmp(&(b.point, b.phi, b.theta))
        .expect("angles are finite")
}

fn sort_records(records: &mut [InjectionRecord]) {
    records.sort_by(record_order);
}

/// Drops every record whose (point, θ, φ) bits repeat an earlier one, from
/// records in [`record_order`]. Repeats tie in that order, so each one is
/// looked for only in its run of tied records, which is a single record
/// unless the input held duplicates or signed zeros.
fn dedup_sorted(records: &mut Vec<InjectionRecord>) {
    let same = |a: &InjectionRecord, b: &InjectionRecord| {
        a.point == b.point
            && a.theta.to_bits() == b.theta.to_bits()
            && a.phi.to_bits() == b.phi.to_bits()
    };
    let (mut kept, mut run) = (0, 0);
    for i in 0..records.len() {
        let r = records[i];
        if kept > 0 && record_order(&records[kept - 1], &r) != Ordering::Equal {
            run = kept;
        }
        if !records[run..kept].iter().any(|k| same(k, &r)) {
            records[kept] = r;
            kept += 1;
        }
    }
    records.truncate(kept);
}

impl CampaignResult {
    /// Assembles a result from independently-produced pieces (checkpoint
    /// shards, per-point jobs) — records are sorted into the canonical
    /// (point, φ, θ) order so the result is identical to what one
    /// uninterrupted [`run_single_campaign`] call would have returned.
    pub fn from_parts(
        circuit_name: impl Into<String>,
        golden: Vec<usize>,
        baseline_qvf: f64,
        grid: FaultGrid,
        mut records: Vec<InjectionRecord>,
    ) -> Self {
        sort_records(&mut records);
        CampaignResult {
            circuit_name: circuit_name.into(),
            golden,
            baseline_qvf,
            records,
            grid,
        }
    }

    /// Incrementally merges more records into this result (e.g. a resumed
    /// campaign folding fresh injections into a checkpoint). Each (point,
    /// θ, φ) is kept once, at its first occurrence, already-present
    /// records first — so replaying a checkpoint over itself is a no-op;
    /// ordering is restored. Works in place: a stable sort, then a pass
    /// that drops repeats.
    pub fn merge_records(&mut self, extra: Vec<InjectionRecord>) {
        if extra.is_empty() {
            return;
        }
        if self.records.is_empty() {
            self.records = extra;
        } else {
            self.records.extend(extra);
        }
        sort_records(&mut self.records);
        dedup_sorted(&mut self.records);
    }

    /// All QVF values.
    pub fn qvfs(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.qvf).collect()
    }

    /// Mean QVF over all injections.
    pub fn mean_qvf(&self) -> f64 {
        mean_of(self.records.iter().map(|r| r.qvf))
    }

    /// Population standard deviation of the QVF.
    pub fn stddev_qvf(&self) -> f64 {
        stddev_of(self.records.iter().map(|r| r.qvf))
    }

    /// `(masked, dubious, sdc)` counts (paper §V-B classification), each
    /// record classed at checkpoint precision ([`record_severity`]) as its
    /// exported row is.
    pub fn severity_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.records {
            match record_severity(r.qvf) {
                Severity::Masked => c.0 += 1,
                Severity::Dubious => c.1 += 1,
                Severity::Sdc => c.2 += 1,
            }
        }
        c
    }

    /// Fraction of injections that *improved* the QVF relative to the
    /// fault-free baseline — the paper reports ~0.9% of injections
    /// compensating the intrinsic noise (§V-B).
    ///
    /// A record counts when its QVF is below the baseline at checkpoint
    /// precision ([`checkpoint_qvf`]), so a result rebuilt from checkpointed
    /// records counts exactly the records the live campaign counts.
    pub fn improved_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let baseline = checkpoint_qvf(self.baseline_qvf);
        // Rounding is monotone: a record at or above the exact baseline
        // cannot round below the rounded one, so only the rest are rendered.
        let improved = self
            .records
            .iter()
            .filter(|r| r.qvf < self.baseline_qvf && checkpoint_qvf(r.qvf) < baseline)
            .count();
        improved as f64 / self.records.len() as f64
    }

    /// The distinct qubits that received injections.
    pub fn injected_qubits(&self) -> Vec<usize> {
        let mut qs: Vec<usize> = self.records.iter().map(|r| r.point.qubit).collect();
        qs.sort_unstable();
        qs.dedup();
        qs
    }

    /// Total number of injections.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no injection was performed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Determines the golden (expected) outputs of a circuit from its ideal,
/// fault-free execution: all outcomes within `1e-9` of the maximum
/// probability (multiple-winner circuits like GHZ yield several).
///
/// # Errors
///
/// [`ExecError::NoGoldenState`] when the ideal output is all-zero (cannot
/// happen for valid circuits) and simulation errors otherwise.
pub fn golden_outputs(qc: &QuantumCircuit) -> Result<Vec<usize>, ExecError> {
    let dist = IdealExecutor.execute(qc)?;
    let (_, max_p) = dist.most_probable();
    if max_p <= 0.0 {
        return Err(ExecError::NoGoldenState);
    }
    Ok((0..dist.len())
        .filter(|&i| dist.prob(i) >= max_p - 1e-9)
        .collect())
}

/// Executes one scheduling unit of a campaign: every (θ, φ) of `grid`
/// injected at a single `point`, serially, in grid order, through the
/// forked-state fast path — the point is prepared (transpile + prefix
/// evolution) once and each configuration replays from the snapshot.
/// Campaign drivers (the in-process thread pool here, the `qufi` CLI's
/// checkpointed scheduler) fan these out and merge the records with
/// [`CampaignResult::merge_records`].
///
/// # Errors
///
/// The first execution error aborts the sweep.
pub fn run_point_sweep<E: SweepExecutor + ?Sized>(
    qc: &QuantumCircuit,
    golden: &[usize],
    executor: &E,
    point: InjectionPoint,
    grid: &FaultGrid,
) -> Result<Vec<InjectionRecord>, ExecError> {
    run_point_sweep_parallel(qc, golden, executor, point, grid, 1)
}

/// [`run_point_sweep`] with the grid fanned across `grid_threads` worker
/// threads by [`crate::engine::PreparedSweep::replay_grid`]: the point is
/// still prepared once; the 312 replays evolve in cell-major blocks of up
/// to 16 cells, and a one-cell block (or a trajectory cell) replays on
/// its own. Records are identical — bit-for-bit, including sampling
/// scenarios — to per-cell replays, for every `grid_threads` value.
///
/// # Errors
///
/// The first execution error aborts the sweep.
pub fn run_point_sweep_parallel<E: SweepExecutor + ?Sized>(
    qc: &QuantumCircuit,
    golden: &[usize],
    executor: &E,
    point: InjectionPoint,
    grid: &FaultGrid,
    grid_threads: usize,
) -> Result<Vec<InjectionRecord>, ExecError> {
    let prepare_span = qufi_obs::span("point.prepare_ns");
    let prepared = executor.prepare(qc, point)?;
    let prepare_ns = prepare_span.finish();
    let replay_span = qufi_obs::span("point.replay_ns");
    let dists = prepared.replay_grid(grid, grid_threads)?;
    let replay_ns = replay_span.finish();
    qufi_obs::record_cost(
        point.op_index,
        point.qubit,
        prepare_ns,
        replay_ns,
        grid.len() as u64,
    );
    Ok(grid
        .iter()
        .zip(dists)
        .map(|((theta, phi), dist)| InjectionRecord {
            point,
            theta,
            phi,
            qvf: qvf_from_dist(&dist, golden),
        })
        .collect())
}

/// Splits a total thread budget between point-level workers and per-point
/// grid threads: `(point_workers, grid_threads)` with `point_workers ×
/// grid_threads ≤ total`. Point-level parallelism is preferred (points
/// amortize a transpile + prefix evolution each); leftover budget goes to
/// the per-point grid. The split affects scheduling only — results are
/// identical for any split.
pub fn split_thread_budget(total: usize, points: usize) -> (usize, usize) {
    let total = total.max(1);
    let workers = total.min(points.max(1));
    (workers, (total / workers).max(1))
}

/// The naive oracle variant of [`run_point_sweep`]: every configuration
/// rebuilds, re-transpiles and re-simulates the whole faulty circuit.
/// Bit-identical to the fast path (enforced by the differential suite)
/// but pays the per-config transpile and prefix evolution the engine
/// amortizes — ~2–3× slower on the paper's bv-4 baseline (BENCHMARKS.md).
/// Use it only to cross-check the engine.
///
/// # Errors
///
/// The first execution error aborts the sweep.
pub fn run_point_sweep_naive<E: SweepExecutor + ?Sized>(
    qc: &QuantumCircuit,
    golden: &[usize],
    executor: &E,
    point: InjectionPoint,
    grid: &FaultGrid,
) -> Result<Vec<InjectionRecord>, ExecError> {
    let prepared = executor.prepare(qc, point)?;
    let mut out = Vec::with_capacity(grid.len());
    for (theta, phi) in grid.iter() {
        let fault = FaultParams::shift(theta, phi);
        let dist = prepared.replay_naive(fault)?;
        out.push(InjectionRecord {
            point,
            theta,
            phi,
            qvf: qvf_from_dist(&dist, golden),
        });
    }
    Ok(out)
}

/// Runs a single-fault campaign of `qc` on `executor`.
///
/// Every injection builds the faulty circuit, executes it, and scores the
/// output against `golden` with the QVF. Records come back sorted by
/// (point, φ, θ) for reproducibility regardless of thread scheduling.
///
/// # Errors
///
/// An execution error aborts the campaign. The error returned is the one
/// of the lowest-index failing point, so it is the same at every thread
/// count (see [`crate::par`]).
pub fn run_single_campaign<E: SweepExecutor + ?Sized>(
    qc: &QuantumCircuit,
    golden: &[usize],
    executor: &E,
    options: &CampaignOptions,
) -> Result<CampaignResult, ExecError> {
    let points = options
        .points
        .clone()
        .unwrap_or_else(|| enumerate_injection_points(qc));
    let baseline_qvf = qvf_from_dist(&executor.execute(qc)?, golden);

    // One task per injection point; each task sweeps the whole grid, which
    // amortizes scheduling overhead over ~312 executions. Two-level split:
    // point workers claim points; each point fans its grid across the
    // leftover per-worker budget.
    let (n_threads, grid_threads) =
        split_thread_budget(crate::par::resolve_threads(options.threads), points.len());
    let sweeps = crate::par::run(points.len(), n_threads, |i| {
        run_point_sweep_parallel(qc, golden, executor, points[i], &options.grid, grid_threads)
    })?;
    Ok(CampaignResult::from_parts(
        qc.name.clone(),
        golden.to_vec(),
        baseline_qvf,
        options.grid.clone(),
        sweeps.into_iter().flatten().collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::NoisyExecutor;
    use qufi_algos::{bernstein_vazirani, ghz};
    use qufi_noise::BackendCalibration;
    use std::f64::consts::PI;

    #[test]
    fn golden_outputs_single_and_multi() {
        let bv = bernstein_vazirani(0b101, 3);
        assert_eq!(golden_outputs(&bv.circuit).unwrap(), vec![0b101]);
        let g = ghz(3);
        assert_eq!(golden_outputs(&g.circuit).unwrap(), vec![0, 0b111]);
    }

    #[test]
    fn ideal_campaign_null_fault_has_zero_qvf() {
        let w = bernstein_vazirani(0b11, 2);
        let opts = CampaignOptions {
            grid: FaultGrid::custom(vec![0.0], vec![0.0]),
            points: None,
            threads: 2,
        };
        let res =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        assert!(!res.is_empty());
        for r in &res.records {
            assert!(
                r.qvf < 1e-9,
                "null fault should be invisible, got {}",
                r.qvf
            );
        }
        assert_eq!(res.baseline_qvf, 0.0);
    }

    #[test]
    fn theta_pi_everywhere_is_harmful_somewhere() {
        let w = bernstein_vazirani(0b101, 3);
        let opts = CampaignOptions {
            grid: FaultGrid::custom(vec![PI], vec![0.0]),
            points: None,
            threads: 0,
        };
        let res =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        // A bit-flip-equivalent fault on a measured qubit must produce SDCs.
        let (_, _, sdc) = res.severity_counts();
        assert!(sdc > 0, "no SDC from θ=π faults: {res:?}");
    }

    #[test]
    fn records_are_sorted_and_complete() {
        let w = bernstein_vazirani(0b1, 1);
        let opts = CampaignOptions {
            grid: FaultGrid::coarse(),
            points: None,
            threads: 3,
        };
        let res =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        let n_points = enumerate_injection_points(&w.circuit).len();
        assert_eq!(res.len(), n_points * opts.grid.len());
        for w in res.records.windows(2) {
            assert!(
                (w[0].point, w[0].phi, w[0].theta) <= (w[1].point, w[1].phi, w[1].theta),
                "records unsorted"
            );
        }
    }

    #[test]
    fn thread_budget_split_prefers_points_then_grid() {
        // More points than threads: all budget to point workers.
        assert_eq!(split_thread_budget(4, 12), (4, 1));
        // Fewer points than threads: leftover budget goes to the grid.
        assert_eq!(split_thread_budget(8, 3), (3, 2));
        assert_eq!(split_thread_budget(8, 1), (1, 8));
        // Degenerate inputs stay sane.
        assert_eq!(split_thread_budget(0, 0), (1, 1));
        assert_eq!(split_thread_budget(1, 100), (1, 1));
    }

    #[test]
    fn grid_parallel_point_sweep_matches_serial() {
        let w = bernstein_vazirani(0b101, 3);
        let golden = golden_outputs(&w.circuit).unwrap();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let point = InjectionPoint {
            op_index: 2,
            qubit: 0,
        };
        let grid = FaultGrid::coarse();
        let serial = run_point_sweep(&w.circuit, &golden, &ex, point, &grid).unwrap();
        for threads in [2, 4] {
            let parallel =
                run_point_sweep_parallel(&w.circuit, &golden, &ex, point, &grid, threads).unwrap();
            assert_eq!(serial, parallel, "{threads}-thread grid sweep diverged");
        }
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let w = bernstein_vazirani(0b10, 2);
        let mk = |threads| CampaignOptions {
            grid: FaultGrid::coarse(),
            points: None,
            threads,
        };
        let a =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &mk(1)).unwrap();
        let b =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &mk(4)).unwrap();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn noisy_campaign_baseline_is_nonzero() {
        let w = bernstein_vazirani(0b101, 3);
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let opts = CampaignOptions {
            grid: FaultGrid::custom(vec![0.0, PI], vec![0.0]),
            points: Some(vec![InjectionPoint {
                op_index: 2,
                qubit: 0,
            }]),
            threads: 0,
        };
        let res = run_single_campaign(&w.circuit, &w.correct_outputs, &ex, &opts).unwrap();
        // "A fault-free execution … its color is not solid green (QVF > 0)
        // due to noise" (§V-B).
        assert!(res.baseline_qvf > 0.0);
        assert!(res.baseline_qvf < 0.45, "baseline should still be masked");
        // The θ=0 injection behaves like the baseline; θ=π is much worse.
        let q0 = res.records.iter().find(|r| r.theta == 0.0).unwrap().qvf;
        let qpi = res.records.iter().find(|r| r.theta == PI).unwrap().qvf;
        assert!(qpi > q0 + 0.3, "θ=π ({qpi}) vs θ=0 ({q0})");
    }

    #[test]
    fn point_sweeps_merge_into_the_full_campaign() {
        // Fan the campaign out point-by-point through the public job unit
        // and reassemble with merge_records: must bit-match the one-shot
        // run, regardless of merge order or duplicated shards.
        let w = bernstein_vazirani(0b10, 2);
        let opts = CampaignOptions {
            grid: FaultGrid::coarse(),
            points: None,
            threads: 1,
        };
        let whole =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();

        let mut rebuilt = CampaignResult::from_parts(
            w.circuit.name.clone(),
            whole.golden.clone(),
            whole.baseline_qvf,
            opts.grid.clone(),
            Vec::new(),
        );
        let mut points = enumerate_injection_points(&w.circuit);
        points.reverse(); // out-of-order merges must not matter
        for p in points {
            let shard = run_point_sweep(
                &w.circuit,
                &w.correct_outputs,
                &IdealExecutor,
                p,
                &opts.grid,
            )
            .unwrap();
            rebuilt.merge_records(shard.clone());
            rebuilt.merge_records(shard); // replaying a shard is a no-op
        }
        assert_eq!(rebuilt.records, whole.records);
    }

    #[test]
    fn merge_keeps_first_occurrences_and_both_signs_of_zero() {
        let rec = |op_index, theta: f64, qvf| InjectionRecord {
            point: InjectionPoint { op_index, qubit: 0 },
            theta,
            phi: 0.0,
            qvf,
        };
        let mut result = CampaignResult::from_parts(
            "t",
            vec![0],
            0.0,
            FaultGrid::custom(vec![0.0, 1.0], vec![0.0]),
            Vec::new(),
        );
        // -0.0 and 0.0 tie in the canonical order but are distinct records;
        // each keeps its first occurrence, and ties keep input order.
        result.merge_records(vec![
            rec(1, 1.0, 0.1),
            rec(0, -0.0, 0.2),
            rec(0, 0.0, 0.3),
            rec(0, -0.0, 0.4),
            rec(1, 1.0, 0.5),
            rec(0, 0.0, 0.6),
        ]);
        let kept: Vec<(usize, u64, f64)> = result
            .records
            .iter()
            .map(|r| (r.point.op_index, r.theta.to_bits(), r.qvf))
            .collect();
        assert_eq!(
            kept,
            vec![
                (0, (-0.0f64).to_bits(), 0.2),
                (0, 0.0f64.to_bits(), 0.3),
                (1, 1.0f64.to_bits(), 0.1),
            ]
        );
        // Already-present records win over later duplicates.
        result.merge_records(vec![rec(0, 0.0, 0.9), rec(2, 0.0, 0.7), rec(0, -0.0, 0.8)]);
        let qvfs: Vec<f64> = result.records.iter().map(|r| r.qvf).collect();
        assert_eq!(qvfs, vec![0.2, 0.3, 0.1, 0.7]);
    }
}
