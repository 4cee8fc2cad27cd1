//! Library campaign drivers keep every worker's telemetry.
//!
//! Point workers record into thread-local sinks. A worker that returns
//! without `qufi_obs::flush()` leaves its sink to the thread's TLS
//! destructor, which can run after the scope's join and so after the
//! caller's snapshot: whole workers' counters vanish. The recorder is
//! process-global, so this check runs in a test binary of its own.

use qufi_algos::bernstein_vazirani;
use qufi_core::campaign::{golden_outputs, run_single_campaign, CampaignOptions};
use qufi_core::executor::NoisyExecutor;
use qufi_core::fault::{enumerate_injection_points, FaultGrid};
use qufi_noise::BackendCalibration;

#[test]
fn two_thread_single_campaign_counts_every_replayed_cell() {
    qufi_obs::reset();
    qufi_obs::enable();
    let w = bernstein_vazirani(0b101, 3);
    let golden = golden_outputs(&w.circuit).expect("golden outputs");
    let executor = NoisyExecutor::new(BackendCalibration::jakarta());
    let options = CampaignOptions {
        grid: FaultGrid::coarse(),
        threads: 2,
        ..CampaignOptions::default()
    };
    let result = run_single_campaign(&w.circuit, &golden, &executor, &options).expect("campaign");

    let snap = qufi_obs::snapshot();
    let points = enumerate_injection_points(&w.circuit).len();
    let expected = (points * options.grid.len()) as u64;
    assert_eq!(result.records.len() as u64, expected, "campaign geometry");
    assert_eq!(
        snap.counters.get("replay.cells").copied().unwrap_or(0),
        expected,
        "replay.cells must equal points × grid right after the campaign"
    );
}
