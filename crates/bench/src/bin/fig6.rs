//! Fig. 6 — per-qubit QVF heatmaps of the 4-qubit QFT, including the
//! highlighted (φ=π, θ=π/4) cell the paper reads off per qubit: the
//! `manifests/paper.toml` study narrowed to `qft-4`, run as a `qufi run`
//! campaign into `results/figures/fig6`.

use qufi_cli::GridSpec;
use qufi_core::report::Heatmap;
use std::f64::consts::PI;

fn main() {
    let mut manifest = qufi_bench::paper_manifest();
    manifest.name = "fig6".into();
    manifest.workloads = vec!["qft-4".into()];
    if qufi_bench::coarse_requested() {
        manifest.grid = GridSpec::Preset("coarse".into());
    }
    qufi_bench::banner("Fig. 6 — per-qubit QVF heatmaps, QFT-4");
    let jobs = qufi_bench::figure_campaign("fig6", &manifest);
    let (_, res) = &jobs[0];
    println!(
        "campaign: {} injections, mean QVF {:.4}",
        res.len(),
        res.mean_qvf()
    );

    // The paper highlights the (φ=π, θ=π/4) square per qubit.
    let grid = &res.grid;
    let ti = grid
        .thetas
        .iter()
        .position(|&t| (t - PI / 4.0).abs() < 1e-9);
    let pi_idx = grid.phis.iter().position(|&p| (p - PI).abs() < 1e-9);
    for q in res.injected_qubits() {
        let hm = Heatmap::from_campaign_qubit(res, q);
        println!("\nqubit #{q}: mean {:.4}", hm.mean());
        if let (Some(ti), Some(pi_idx)) = (ti, pi_idx) {
            println!("  QVF at (φ=π, θ=π/4): {:.4}", hm.value(pi_idx, ti));
        }
        println!("{}", hm.ascii());
        qufi_bench::write_artifact(&format!("fig6_qft4_qubit{q}.csv"), &hm.to_csv());
    }
}
