//! Multi-qubit faults — the paper's §V-D study: a particle strike hits two
//! physically adjacent qubits, the closer one harder. Compares single- vs
//! double-fault QVF on Bernstein-Vazirani.
//!
//! Run with: `cargo run --release --example double_fault`

use qufi::prelude::*;

fn main() -> Result<(), ExecError> {
    let w = bernstein_vazirani(0b101, 3);
    let executor = NoisyExecutor::new(BackendCalibration::jakarta());
    let golden = golden_outputs(&w.circuit)?;

    // Which logical qubits end up physically adjacent? (paper §IV-C)
    let pairs = qufi::core::double::neighbor_pairs(&w.circuit, executor.transpiler())?;
    println!("physically adjacent logical pairs after transpiling: {pairs:?}");

    // Coarse grids keep the example interactive.
    let grid = FaultGrid::coarse();
    let single = run_single_campaign(
        &w.circuit,
        &golden,
        &executor,
        &CampaignOptions {
            grid: grid.clone(),
            points: None,
            threads: 0,
        },
    )?;
    let double = run_double_campaign(
        &w.circuit,
        &golden,
        &executor,
        &DoubleOptions {
            grid,
            points: None,
            pairs,
            threads: 0,
        },
    )?;

    println!(
        "single faults: {:>7} injections, mean QVF {:.4} (σ {:.4})",
        single.len(),
        single.mean_qvf(),
        single.stddev_qvf()
    );
    println!(
        "double faults: {:>7} injections, mean QVF {:.4} (σ {:.4})",
        double.len(),
        double.mean_qvf(),
        double.stddev_qvf()
    );
    println!(
        "ΔQVF = {:+.4} → double faults are {} harmful",
        double.mean_qvf() - single.mean_qvf(),
        if double.mean_qvf() > single.mean_qvf() {
            "more"
        } else {
            "not more"
        }
    );

    println!("\nQVF distribution (single vs double):");
    let hs = Histogram::new(&single.qvfs(), 10);
    let hd = Histogram::new(&double.qvfs(), 10);
    println!("single:\n{}", hs.ascii());
    println!("double:\n{}", hd.ascii());
    Ok(())
}
