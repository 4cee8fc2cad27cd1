//! Quantum error correction vs transient faults — the paper's §II-B/§II-C
//! discussion made concrete: "QEC is designed to protect a qubit from the
//! intrinsic noise … current QEC is not sufficient to guarantee reliability
//! from transient faults."
//!
//! Sweeps the QuFI fault grid over the idle window of the 3-qubit bit-flip
//! code and an unprotected reference qubit, then reports how many faults
//! each masks. The code wins against θ (bit-flip-like) shifts but buys
//! nothing against the φ (phase) component — exactly why transient faults
//! need their own analysis.
//!
//! Run with: `cargo run --release --example qec_resilience`

use qufi::algos::qec::{bit_flip_code, unprotected, CodeWorkload};
use qufi::prelude::*;

fn campaign_on_window(code: &CodeWorkload, ex: &impl SweepExecutor) -> CampaignResult {
    // Inject only inside the idle window between encode and decode.
    let points: Vec<InjectionPoint> = enumerate_injection_points(&code.workload.circuit)
        .into_iter()
        .filter(|p| p.op_index >= code.region.start && p.op_index < code.region.end)
        .collect();
    let opts = CampaignOptions {
        grid: FaultGrid::paper(),
        points: Some(points),
        threads: 0,
    };
    run_single_campaign(
        &code.workload.circuit,
        &code.workload.correct_outputs,
        ex,
        &opts,
    )
    .expect("campaign")
}

/// The bit-flip code protecting a **superposed** logical state
/// `(|0_L⟩ + |1_L⟩)/√2`, where phase faults become logical errors.
fn superposed_bit_flip_code() -> CodeWorkload {
    use qufi::algos::qec::CodeRegion;
    let mut qc = QuantumCircuit::with_name(3, 1, "bitflip-super");
    qc.h(0);
    qc.cx(0, 1).cx(0, 2);
    qc.barrier(&[]);
    let start = qc.size();
    qc.i(0).i(1).i(2);
    let end = qc.size();
    qc.barrier(&[]);
    qc.cx(0, 1).cx(0, 2).ccx(2, 1, 0);
    qc.h(0); // rotate back: fault-free outcome is |0⟩
    qc.measure(0, 0);
    CodeWorkload {
        workload: Workload::new(qc, vec![0], "bitflip-super"),
        region: CodeRegion { start, end },
    }
}

fn main() {
    let ex = IdealExecutor; // isolate the fault effect from device noise
    let rows = [
        ("code, |1_L⟩", campaign_on_window(&bit_flip_code(true), &ex)),
        (
            "code, |+_L⟩",
            campaign_on_window(&superposed_bit_flip_code(), &ex),
        ),
        ("unprotected", campaign_on_window(&unprotected(true), &ex)),
    ];

    println!("3-qubit bit-flip code vs unprotected qubit, full QuFI grid\n");
    println!(
        "{:<14} {:>10} {:>9} {:>8} {:>8} {:>8}",
        "circuit", "injections", "meanQVF", "masked", "dubious", "sdc"
    );
    for (name, res) in &rows {
        let (m, d, s) = res.severity_counts();
        println!(
            "{:<14} {:>10} {:>9.4} {:>8} {:>8} {:>8}",
            name,
            res.len(),
            res.mean_qvf(),
            m,
            d,
            s
        );
    }

    // Split by fault flavour: pure-θ faults (bit-flip-like) vs pure-φ
    // (phase) faults.
    let flavor_mean = |res: &CampaignResult, theta: bool| -> f64 {
        let vals: Vec<f64> = res
            .records
            .iter()
            .filter(|r| {
                if theta {
                    r.phi.abs() < 1e-9
                } else {
                    r.theta.abs() < 1e-9
                }
            })
            .map(|r| r.qvf)
            .collect();
        qufi::core::metrics::mean(&vals)
    };
    let at = |res: &CampaignResult, theta: f64, phi: f64| -> f64 {
        let vals: Vec<f64> = res
            .records
            .iter()
            .filter(|r| (r.theta - theta).abs() < 1e-9 && (r.phi - phi).abs() < 1e-9)
            .map(|r| r.qvf)
            .collect();
        qufi::core::metrics::mean(&vals)
    };
    println!("\nmean QVF by fault flavour:");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "circuit", "θ (mean)", "θ=π exact", "φ (mean)", "φ=π exact"
    );
    for (name, res) in &rows {
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            name,
            flavor_mean(res, true),
            at(res, std::f64::consts::PI, 0.0),
            flavor_mean(res, false),
            at(res, 0.0, std::f64::consts::PI),
        );
    }
    println!(
        "\n→ on basis states the code masks the entire grid. On a superposed\n  \
         logical state it fails across the board: the fault model's θ=π is\n  \
         U(π,0,0) = −iY, whose phase component turns into a logical error\n  \
         the bit-flip stabilizers cannot see, mid-range θ rotations decohere\n  \
         into logical phase errors, and pure φ shifts pass straight through.\n  \
         QEC tuned to one fault model does not cover the radiation-induced\n  \
         phase-shift spectrum (paper §II-B)."
    );
}
