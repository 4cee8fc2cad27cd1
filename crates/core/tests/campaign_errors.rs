//! A failing library campaign reports the same error at every thread
//! count: the one of its lowest-index failing task.
//!
//! Both injection points lie outside the circuit, so both tasks fail.
//! Point 0 is slow to fail and point 1 fails at once. A pool that kept
//! the first error by wall clock reported point 1 whenever two workers
//! ran; a serial run reports point 0. The sleep only makes that race
//! visible: the lowest-index rule holds for every interleaving.

use qufi_algos::bernstein_vazirani;
use qufi_core::campaign::{run_single_campaign, CampaignOptions};
use qufi_core::double::{run_double_campaign, DoubleOptions};
use qufi_core::engine::{PreparedDoubleSweep, PreparedSweep, SweepExecutor};
use qufi_core::executor::{Executor, IdealExecutor};
use qufi_core::fault::{FaultGrid, InjectionPoint};
use qufi_core::ExecError;
use qufi_sim::{ProbDist, QuantumCircuit};
use std::time::Duration;

const POINTS: [InjectionPoint; 2] = [
    InjectionPoint {
        op_index: 1000,
        qubit: 0,
    },
    InjectionPoint {
        op_index: 1001,
        qubit: 0,
    },
];

/// [`IdealExecutor`], except that preparing point 0 first sleeps ~50 ms.
struct SlowFirstPoint(IdealExecutor);

impl SlowFirstPoint {
    fn stall(point: InjectionPoint) {
        if point == POINTS[0] {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Executor for SlowFirstPoint {
    fn execute(&self, qc: &QuantumCircuit) -> Result<ProbDist, ExecError> {
        self.0.execute(qc)
    }
}

impl SweepExecutor for SlowFirstPoint {
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        Self::stall(point);
        self.0.prepare(qc, point)
    }

    fn prepare_double<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: usize,
    ) -> Result<Box<dyn PreparedDoubleSweep + 'a>, ExecError> {
        Self::stall(point);
        self.0.prepare_double(qc, point, neighbor)
    }
}

fn assert_names_point_0(err: ExecError, threads: usize) {
    assert!(
        matches!(err, ExecError::InjectionOutOfRange { op_index: 1000, .. }),
        "threads = {threads}: expected point 0's error, got {err}"
    );
}

#[test]
fn single_campaign_reports_the_lowest_index_error() {
    let w = bernstein_vazirani(0b101, 3);
    for threads in [1, 2, 4] {
        let options = CampaignOptions {
            grid: FaultGrid::coarse(),
            points: Some(POINTS.to_vec()),
            threads,
        };
        let err = run_single_campaign(
            &w.circuit,
            &w.correct_outputs,
            &SlowFirstPoint(IdealExecutor),
            &options,
        )
        .unwrap_err();
        assert_names_point_0(err, threads);
    }
}

#[test]
fn double_campaign_reports_the_lowest_index_error() {
    let w = bernstein_vazirani(0b101, 3);
    for threads in [1, 2, 4] {
        let options = DoubleOptions {
            points: Some(POINTS.to_vec()),
            threads,
            ..DoubleOptions::coarse(vec![(0, 1)])
        };
        let err = run_double_campaign(
            &w.circuit,
            &w.correct_outputs,
            &SlowFirstPoint(IdealExecutor),
            &options,
        )
        .unwrap_err();
        assert_names_point_0(err, threads);
    }
}
