//! Shared experiment drivers for the QuFI reproduction.
//!
//! Every figure of the paper's evaluation (§V) has a driver here, used both
//! by the `fig*` binaries (full paper-scale grids, CSV output under
//! `results/`) and by the Criterion benches (coarse grids, timing only).
//!
//! | Paper artifact | Driver | Binary |
//! |----------------|--------|--------|
//! | Fig. 4 worked example | [`experiments::fig4_worked_example`] | `fig4` |
//! | Fig. 5 QVF heatmaps (BV/DJ/QFT, 4q) | [`experiments::fig5_heatmaps`] | `fig5` |
//! | Fig. 6 per-qubit heatmaps (QFT-4) | [`experiments::fig6_per_qubit`] | `fig6` |
//! | Fig. 7 scaling histograms (4→7q) | [`experiments::fig7_scaling`] | `fig7` |
//! | Fig. 8 single vs double heatmaps | [`experiments::fig8_double`] | `fig8` |
//! | Fig. 9 ΔQVF map | [`experiments::fig9_delta`] | `fig9` |
//! | Fig. 10 QVF distributions | [`experiments::fig10_distributions`] | `fig10` |
//! | Fig. 11 hardware vs simulation | [`experiments::fig11_hardware`] | `fig11` |

pub mod experiments;

use std::fs;
use std::path::{Path, PathBuf};

/// Where experiment binaries drop their CSV artifacts.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"));
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a CSV artifact and reports the path on stdout. A figure whose
/// artifact cannot be written has failed: the error goes to stderr and the
/// binary exits with status 1.
pub fn write_artifact(name: &str, contents: &str) {
    let path = results_dir().join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => {
            eprintln!("  failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `true` when the binary was invoked with `--coarse` (45° grids instead of
/// the paper's 15°, for quick smoke runs).
pub fn coarse_requested() -> bool {
    std::env::args().any(|a| a == "--coarse")
}

/// A console section header.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
