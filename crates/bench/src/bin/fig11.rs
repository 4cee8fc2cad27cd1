//! Fig. 11 — QVF comparison between (simulated) IBM-Q Jakarta hardware and
//! the noise-model simulation for the four gate-equivalent faults
//! (T, S, Z, Y) on Bernstein-Vazirani. The paper finds absolute differences
//! below 0.052. bv-4@jakarta runs as two `qufi run` campaigns, under
//! `noisy` and under `hardware`, into `results/figures/fig11-<executor>`,
//! on the θ × φ grid that holds the four faults' cells.

use qufi_bench::experiments::{fig11_manifest, fig11_rows};
use qufi_cli::ExecutorKind;

fn main() {
    qufi_bench::banner("Fig. 11 — simulated hardware vs noise-model simulation (BV)");
    let [hardware, simulation] = [ExecutorKind::Hardware, ExecutorKind::Noisy].map(|executor| {
        let manifest = fig11_manifest(executor);
        let mut jobs = qufi_bench::figure_campaign(&manifest.name, &manifest);
        jobs.remove(0).1
    });
    println!(
        "{:<6} {:>12} {:>12} {:>8}",
        "gate", "hardware", "simulation", "|Δ|"
    );
    let mut csv = String::from("gate,hardware_qvf,simulation_qvf,abs_diff\n");
    let mut max_diff = 0.0f64;
    for (gate, hw, sim) in fig11_rows(&hardware, &simulation) {
        let name = gate.name();
        let diff = (hw - sim).abs();
        max_diff = max_diff.max(diff);
        println!("{name:<6} {hw:>12.4} {sim:>12.4} {diff:>8.4}");
        csv.push_str(&format!("{name},{hw:.6},{sim:.6},{diff:.6}\n"));
    }
    println!("max |Δ| = {max_diff:.4} (paper reports < 0.052)");
    qufi_bench::write_artifact("fig11_hardware_vs_sim.csv", &csv);
}
