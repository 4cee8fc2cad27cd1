//! Fig. 5 — QVF heatmaps for the 4-qubit BV / DJ / QFT circuits under the
//! full single-fault sweep (φ ∈ [0,2π) and θ ∈ [0,π], 15° steps), injected
//! over the Jakarta noise model: `manifests/paper.toml`, run as a `qufi run`
//! campaign into `results/figures/fig5`. Also prints the §V-B severity
//! classification table and the fraction of noise-compensating injections.

use qufi_cli::GridSpec;
use qufi_core::report::Heatmap;

fn main() {
    let mut manifest = qufi_bench::paper_manifest();
    if qufi_bench::coarse_requested() {
        manifest.grid = GridSpec::Preset("coarse".into());
    }
    qufi_bench::banner("Fig. 5 — QVF heatmaps, 4-qubit circuits, single faults");
    let jobs = qufi_bench::figure_campaign("fig5", &manifest);
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "circuit", "injections", "meanQVF", "baseline", "masked", "dubious", "sdc", "improved%"
    );
    for (meta, res) in &jobs {
        let hm = Heatmap::from_campaign(res);
        let (m, d, s) = res.severity_counts();
        println!(
            "{:<8} {:>10} {:>9.4} {:>9.4} {:>8} {:>8} {:>8} {:>9.2}%",
            meta.workload,
            res.len(),
            res.mean_qvf(),
            res.baseline_qvf,
            m,
            d,
            s,
            100.0 * res.improved_fraction()
        );
        println!("{}", hm.ascii());
        qufi_bench::write_artifact(&format!("fig5_{}.csv", meta.workload), &hm.to_csv());
    }
}
