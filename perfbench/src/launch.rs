//! `qufi-perfbench exec REPORT PROGRAM [ARGS...]`: runs one program
//! process and writes its exit code, start time (`CLOCK_MONOTONIC`, the
//! clock of Python's `time.monotonic`), wall time, CPU time and peak RSS
//! to REPORT as one JSON object.
//!
//! `run.py` starts every program process through this launcher because
//! the kernel carries a process's peak RSS across `exec`: a child spawned
//! straight from the Python interpreter reports at least the
//! interpreter's own peak (about 21 MB, against the 8.5 MB of a `paper`
//! run). Here the program is the only child of a small process, so its
//! peak RSS is its own. Its stdio, environment and process group are the
//! launcher's.

use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[derive(Default)]
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[derive(Default)]
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

#[derive(Default)]
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const RUSAGE_CHILDREN: i32 = -1;
const CLOCK_MONOTONIC: i32 = 1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn ns(t: &Timeval) -> i64 {
    t.sec * 1_000_000_000 + t.usec * 1_000
}

/// Runs the launcher; exits with the program's exit code, or 128 plus
/// the signal that killed it.
pub fn run(args: &[String]) -> ExitCode {
    let [report, program, rest @ ..] = args else {
        eprintln!("qufi-perfbench exec: usage: exec REPORT PROGRAM [ARGS...]");
        return ExitCode::FAILURE;
    };
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a writable `struct timespec` for the call to fill.
    if unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) } != 0 {
        eprintln!("qufi-perfbench exec: clock_gettime failed");
        return ExitCode::FAILURE;
    }
    let start = Instant::now();
    let status = match Command::new(program).args(rest).status() {
        Ok(status) => status,
        Err(e) => {
            eprintln!("qufi-perfbench exec: {program}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ns = start.elapsed().as_nanos();
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a writable `struct rusage` for the call to fill.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) } != 0 {
        eprintln!("qufi-perfbench exec: getrusage failed");
        return ExitCode::FAILURE;
    }
    let code = match (status.code(), status.signal()) {
        (Some(code), _) => code,
        (None, signal) => -signal.unwrap_or(0),
    };
    let json = format!(
        "{{\"code\":{code},\"start_ns\":{},\"wall_ns\":{wall_ns},\"cpu_ns\":{},\"maxrss_kb\":{}}}\n",
        ts.sec * 1_000_000_000 + ts.nsec,
        ns(&ru.utime) + ns(&ru.stime),
        ru.maxrss_kb
    );
    if let Err(e) = std::fs::write(report, json) {
        eprintln!("qufi-perfbench exec: writing {report}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::from(if code >= 0 { code } else { 128 - code } as u8)
}
