//! A leveled stderr log sink for the CLI.
//!
//! Independent of the metric recorder: verbosity is a process-wide knob
//! set once from the command line. Policy (from the CLI's `--quiet` /
//! `--verbose` flags):
//!
//! - `error` — always printed.
//! - `warn`  — printed unless `--quiet`; prefixed `warning:` so salvage
//!   and reconcile anomalies are visible in scrollback.
//! - `info`  — progress lines; printed when `--verbose`, or at normal
//!   verbosity only when stderr is a terminal (batch/CI logs stay clean).

use std::io::IsTerminal;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How chatty the process is on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verbosity {
    /// Errors only.
    Quiet,
    /// Warnings always; progress only on a terminal.
    Normal,
    /// Everything, terminal or not.
    Verbose,
}

static LEVEL: AtomicU8 = AtomicU8::new(1);

/// Sets the process-wide verbosity.
pub fn set_verbosity(level: Verbosity) {
    let raw = match level {
        Verbosity::Quiet => 0,
        Verbosity::Normal => 1,
        Verbosity::Verbose => 2,
    };
    LEVEL.store(raw, Ordering::Relaxed);
}

/// Current process-wide verbosity.
#[must_use]
pub fn verbosity() -> Verbosity {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        1 => Verbosity::Normal,
        _ => Verbosity::Verbose,
    }
}

fn stderr_is_tty() -> bool {
    static TTY: OnceLock<bool> = OnceLock::new();
    *TTY.get_or_init(|| std::io::stderr().is_terminal())
}

/// Whether an `info` line would be printed right now.
#[must_use]
pub fn info_enabled() -> bool {
    match verbosity() {
        Verbosity::Quiet => false,
        Verbosity::Normal => stderr_is_tty(),
        Verbosity::Verbose => true,
    }
}

/// Progress line (see module docs for when it shows).
pub fn info(msg: &str) {
    if info_enabled() {
        eprintln!("{msg}");
    }
}

/// Visible warning; suppressed only by `--quiet`.
pub fn warn(msg: &str) {
    if verbosity() != Verbosity::Quiet {
        eprintln!("warning: {msg}");
    }
}

/// Always printed.
pub fn error(msg: &str) {
    eprintln!("error: {msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbosity_gates_are_consistent() {
        // The level is process-global, so exercise all transitions in one
        // test and restore the default at the end.
        set_verbosity(Verbosity::Quiet);
        assert_eq!(verbosity(), Verbosity::Quiet);
        assert!(!info_enabled());

        set_verbosity(Verbosity::Verbose);
        assert_eq!(verbosity(), Verbosity::Verbose);
        assert!(info_enabled());

        set_verbosity(Verbosity::Normal);
        assert_eq!(verbosity(), Verbosity::Normal);
        // Under a test harness stderr may or may not be a terminal; the
        // policy just has to match the probe.
        assert_eq!(info_enabled(), stderr_is_tty());
    }
}
