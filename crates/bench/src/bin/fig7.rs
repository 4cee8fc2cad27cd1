//! Fig. 7 — QVF distribution histograms while scaling BV / DJ / QFT from 4
//! to 7 qubits: BV and DJ keep their reliability profile, QFT concentrates
//! toward QVF ≈ 0.5 (lower σ) as it scales. The twelve circuits run on
//! jakarta as one `qufi run` campaign into `results/figures/fig7`.

use qufi_bench::experiments::{fig7_manifest, FIG7_FAMILIES as FAMILIES};
use qufi_cli::GridSpec;
use qufi_core::report::Histogram;
use qufi_math::AngleGrid;
use std::f64::consts::PI;

const QUBITS: [usize; 4] = [4, 5, 6, 7];

fn main() {
    let coarse = qufi_bench::coarse_requested();
    let full = std::env::args().any(|a| a == "--full");
    // Default: 30°-step grid. The histograms of Fig. 7 are distribution
    // statistics over a smooth QVF surface, so halving the angular
    // resolution leaves mean/σ essentially unchanged while making the
    // 7-qubit sweep tractable on one core; pass --full for the paper's
    // 15° grid.
    let grid = if coarse {
        GridSpec::Preset("coarse".into())
    } else if full {
        GridSpec::Preset("paper".into())
    } else {
        GridSpec::Custom {
            thetas: AngleGrid::new(0.0, PI, PI / 6.0, true).values(),
            phis: AngleGrid::new(0.0, 2.0 * PI, PI / 6.0, false).values(),
        }
    };
    let manifest = fig7_manifest(&QUBITS, grid);
    qufi_bench::banner("Fig. 7 — QVF histograms vs circuit scale (4→7 qubits)");
    let jobs = qufi_bench::figure_campaign("fig7", &manifest);
    for (family, runs) in FAMILIES.iter().zip(jobs.chunks(QUBITS.len())) {
        println!("\n[{family}]");
        println!(
            "{:>6} {:>10} {:>9} {:>9}",
            "qubits", "injections", "meanQVF", "stddev"
        );
        for (qubits, (_, res)) in QUBITS.iter().zip(runs) {
            println!(
                "{:>6} {:>10} {:>9.4} {:>9.4}",
                qubits,
                res.len(),
                res.mean_qvf(),
                res.stddev_qvf()
            );
            qufi_bench::write_artifact(
                &format!("fig7_{family}_{qubits}q.csv"),
                &Histogram::new(&res.qvfs(), 50).to_csv(),
            );
        }
        // The paper's scaling claim, printed as an explicit check.
        let (first, last) = (&runs[0].1, &runs[runs.len() - 1].1);
        println!(
            "  σ(QVF) {}q → {}q: {:+.4} ({})",
            QUBITS[0],
            QUBITS[QUBITS.len() - 1],
            last.stddev_qvf() - first.stddev_qvf(),
            if *family == "qft" {
                "QFT concentrates toward 0.5 as it scales"
            } else {
                "profile approximately scale-independent"
            }
        );
    }
}
