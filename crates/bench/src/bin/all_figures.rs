//! Runs every figure experiment in sequence (pass `--coarse` to smoke-test).
//! A figure that fails or cannot be launched does not stop the others, but
//! the run then exits with status 1.

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let coarse = qufi_bench::coarse_requested();
    let mut failed = Vec::new();
    // fig8 also writes the Fig. 9 and Fig. 10 artifacts.
    for fig in ["fig4", "fig5", "fig6", "fig7", "fig8", "fig11"] {
        let mut cmd = Command::new(
            std::env::current_exe()
                .expect("self path")
                .with_file_name(fig),
        );
        if coarse {
            cmd.arg("--coarse");
        }
        match cmd.status() {
            Ok(s) if s.success() => continue,
            Ok(s) => eprintln!("{fig} exited with {s}"),
            Err(e) => eprintln!("could not launch {fig}: {e}"),
        }
        failed.push(fig);
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed figures: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
