//! Pins the transpiler's output for every (workload, backend) pair that
//! `manifests/*.toml`, the CLI's golden campaigns and perfbench's
//! workloads run: the physical circuit, each logical qubit's final seat
//! and the active register. A change to layout, routing, basis
//! translation or optimization that moves any of them fails here, by
//! name, before it can move an exported byte.

use qufi::algos::build_workload;
use qufi::core::engine::SeedHasher;
use qufi::noise::BackendCalibration;
use qufi::transpile::{CouplingMap, Transpiler};

/// `(workload, backend, digest)`, digests from [`digest`].
const PINS: &[(&str, &str, u64)] = &[
    ("bv-4", "jakarta", 0x001abc93be2235e5),
    ("dj-4", "jakarta", 0x1c6db7aa6375e6a4),
    ("qft-4", "jakarta", 0x34264464b205f71f),
    ("bv-5", "jakarta", 0x2702ce7e1e0964ed),
    ("dj-5", "jakarta", 0x1b8c620fe0ccbfb0),
    ("qft-5", "jakarta", 0x2ae0338e95b0fe27),
    ("ghz-4", "jakarta", 0x2fbfbfdd5131f03b),
    ("bv-4", "lima", 0x001abc93be2235e5),
    ("dj-4", "lima", 0x1c6db7aa6375e6a4),
    ("qft-4", "lima", 0x34264464b205f71f),
    ("bv-5", "lima", 0x404423f3ca501d74),
    ("dj-5", "lima", 0xdf1d4ca2b600e6a1),
    ("qft-5", "lima", 0x505ef5b9d1ba0a9a),
    ("bv-2", "lima", 0x0ef4ca1a24c5282d),
    ("ghz-2", "lima", 0x376222774e83785d),
    ("bv-3", "lima", 0x2da45561efb2d9ff),
    ("ghz-3", "lima", 0xee5e9bc267b1a073),
    ("bv-4", "bogota", 0x15b317c4ee58bc2f),
    ("dj-4", "bogota", 0x377e4fd9309dd02b),
    ("qft-4", "bogota", 0xa47d008fb53d6e3a),
    ("bv-5", "bogota", 0x80e517ea60ce9cf5),
    ("dj-5", "bogota", 0xbfb08eeba249be03),
    ("qft-5", "bogota", 0x57d6a746acf9f084),
    ("ghz-4", "bogota", 0x084be4d8d7536392),
    ("ghz-10", "guadalupe", 0xb0f1c6ae5db3eae5),
    ("ghz-13", "guadalupe", 0x25ebdc1932e3d4da),
];

/// FNV-1a over the transpiled ops' `Debug` text, then each logical
/// qubit's final physical seat, then the active physical qubits.
fn digest(workload: &str, backend: &str) -> u64 {
    let w = build_workload(workload).expect("registry workload");
    let cal = BackendCalibration::named(backend).expect("built-in backend");
    let cm = CouplingMap::from_edges(cal.num_qubits(), cal.coupling());
    let result = Transpiler::new(cm).run(&w.circuit).expect("transpiles");
    let mut h = SeedHasher::new();
    h.mix_bytes(format!("{:?}", result.circuit().ops()).as_bytes());
    for l in 0..w.circuit.num_qubits() {
        h.mix_u64(result.physical_qubit(l) as u64);
    }
    for p in result.active_physical_qubits() {
        h.mix_u64(p as u64);
    }
    h.finish()
}

#[test]
fn transpiled_circuits_match_their_pins() {
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(w, b, pin)| {
            let got = digest(w, b);
            (got != pin).then(|| format!("{w}@{b}: pinned {pin:016x}, got {got:016x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "transpiled output moved:\n{}",
        moved.join("\n")
    );
}
