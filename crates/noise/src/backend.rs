//! Synthetic backend calibration data.
//!
//! The paper runs on IBM-Q machines (Jakarta for the hardware experiment,
//! Casablanca for the topology discussion) whose daily calibration data feeds
//! the Aer noise model. Real calibration tables are not redistributable, so
//! this module ships **synthetic** tables whose magnitudes follow published
//! IBM Falcon r5.11 figures: T1 ≈ 100–180 µs, T2 ≈ 20–140 µs, single-qubit
//! error ≈ 2–4·10⁻⁴, CX error ≈ 6·10⁻³–1.2·10⁻², readout error 1–4%.
//! See PAPER.md, "Execution scenarios (§IV-B)", for the substitution
//! rationale.

use crate::model::{NoiseModel, QubitNoiseSpec};
use crate::readout::ReadoutError;
use rand::Rng;

/// Gate durations in seconds (uniform across qubits, as on IBM backends to
/// first order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTimes {
    /// Single-qubit gate (sx/x/u) duration.
    pub one_q: f64,
    /// Two-qubit (cx) duration.
    pub two_q: f64,
    /// Measurement duration.
    pub readout: f64,
}

impl Default for GateTimes {
    fn default() -> Self {
        GateTimes {
            one_q: 35.5e-9,
            two_q: 450e-9,
            readout: 5.35e-6,
        }
    }
}

/// Calibration of a single physical qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitCalibration {
    /// T1 in seconds.
    pub t1: f64,
    /// T2 in seconds.
    pub t2: f64,
    /// Depolarizing error per calibrated single-qubit gate.
    pub gate_error_1q: f64,
    /// P(read 1 | prepared 0).
    pub readout_p01: f64,
    /// P(read 0 | prepared 1).
    pub readout_p10: f64,
}

/// A device calibration snapshot: qubits, coupling map and CX error rates.
///
/// # Example
///
/// ```
/// use qufi_noise::BackendCalibration;
///
/// let cal = BackendCalibration::jakarta();
/// assert_eq!(cal.num_qubits(), 7);
/// assert!(cal.coupling().contains(&(5, 6)));
/// let model = cal.noise_model();
/// assert!(!model.is_ideal());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCalibration {
    /// Device name, e.g. `"ibmq_jakarta"`.
    pub name: String,
    /// Per-qubit calibration, indexed by physical qubit.
    pub qubits: Vec<QubitCalibration>,
    /// Undirected coupling edges `(min, max)`.
    pub coupling: Vec<(usize, usize)>,
    /// CX depolarizing error per edge (same key order as `coupling`).
    pub cx_errors: Vec<f64>,
    /// Gate durations.
    pub times: GateTimes,
}

/// Builds one qubit's calibration from raw microsecond/percent figures.
fn qubit(t1_us: f64, t2_us: f64, err_1q: f64, p01: f64, p10: f64) -> QubitCalibration {
    QubitCalibration {
        t1: t1_us * 1e-6,
        t2: t2_us * 1e-6,
        gate_error_1q: err_1q,
        readout_p01: p01,
        readout_p10: p10,
    }
}

/// Short names of the built-in synthetic calibrations, resolvable by
/// [`BackendCalibration::named`] — the catalogue behind `qufi list
/// backends` and campaign-manifest `backends = [...]` entries.
pub const BUILTIN_BACKENDS: &[&str] = &["jakarta", "casablanca", "lima", "bogota", "guadalupe"];

impl BackendCalibration {
    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Resolves a built-in calibration by name. Accepts the short form
    /// (`"jakarta"`) and the full device name (`"ibmq_jakarta"`),
    /// case-insensitively; `None` for anything else.
    pub fn named(name: &str) -> Option<BackendCalibration> {
        let key = name.trim().to_ascii_lowercase();
        match key.strip_prefix("ibmq_").unwrap_or(&key) {
            "jakarta" => Some(Self::jakarta()),
            "casablanca" => Some(Self::casablanca()),
            "lima" => Some(Self::lima()),
            "bogota" => Some(Self::bogota()),
            "guadalupe" => Some(Self::guadalupe()),
            _ => None,
        }
    }

    /// The short names [`Self::named`] resolves.
    pub fn builtin_names() -> &'static [&'static str] {
        BUILTIN_BACKENDS
    }

    /// The undirected coupling edges.
    pub fn coupling(&self) -> &[(usize, usize)] {
        &self.coupling
    }

    /// Synthetic 7-qubit device with the IBM Falcon r5.11H "H" topology
    /// used by Jakarta (the paper's hardware target, §V-E).
    ///
    /// ```text
    /// 0 - 1 - 2
    ///     |
    ///     3
    ///     |
    /// 4 - 5 - 6
    /// ```
    pub fn jakarta() -> Self {
        BackendCalibration {
            name: "ibmq_jakarta".into(),
            qubits: vec![
                qubit(182.0, 43.5, 2.3e-4, 0.022, 0.038),
                qubit(171.4, 67.2, 2.9e-4, 0.018, 0.031),
                qubit(115.8, 23.9, 2.1e-4, 0.025, 0.044),
                qubit(97.6, 40.3, 3.2e-4, 0.031, 0.052),
                qubit(126.2, 33.8, 2.4e-4, 0.016, 0.029),
                qubit(140.9, 62.5, 2.7e-4, 0.020, 0.034),
                qubit(133.1, 30.7, 2.0e-4, 0.027, 0.046),
            ],
            coupling: vec![(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)],
            cx_errors: vec![7.7e-3, 6.4e-3, 9.9e-3, 7.2e-3, 6.9e-3, 8.4e-3],
            times: GateTimes::default(),
        }
    }

    /// Synthetic 7-qubit Casablanca device (same "H" topology as Jakarta —
    /// the machine shown in the paper's Fig. 1).
    pub fn casablanca() -> Self {
        BackendCalibration {
            name: "ibmq_casablanca".into(),
            qubits: vec![
                qubit(104.1, 135.6, 2.6e-4, 0.024, 0.041),
                qubit(131.7, 87.3, 2.2e-4, 0.019, 0.033),
                qubit(161.9, 119.4, 3.1e-4, 0.022, 0.037),
                qubit(121.4, 140.2, 2.5e-4, 0.028, 0.048),
                qubit(88.6, 26.4, 2.9e-4, 0.017, 0.030),
                qubit(145.3, 71.8, 2.3e-4, 0.023, 0.040),
                qubit(109.8, 51.1, 2.8e-4, 0.026, 0.043),
            ],
            coupling: vec![(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)],
            cx_errors: vec![9.1e-3, 7.3e-3, 1.12e-2, 8.0e-3, 7.6e-3, 1.04e-2],
            times: GateTimes::default(),
        }
    }

    /// Synthetic 5-qubit Lima device (T-shaped Falcon r4T topology).
    pub fn lima() -> Self {
        BackendCalibration {
            name: "ibmq_lima".into(),
            qubits: vec![
                qubit(118.3, 151.2, 2.4e-4, 0.021, 0.036),
                qubit(137.5, 104.7, 2.1e-4, 0.018, 0.032),
                qubit(95.9, 110.3, 2.8e-4, 0.029, 0.050),
                qubit(152.6, 84.9, 2.2e-4, 0.020, 0.035),
                qubit(26.4, 21.7, 3.5e-4, 0.035, 0.058),
            ],
            coupling: vec![(0, 1), (1, 2), (1, 3), (3, 4)],
            cx_errors: vec![6.1e-3, 8.7e-3, 7.0e-3, 1.19e-2],
            times: GateTimes::default(),
        }
    }

    /// Synthetic 5-qubit Bogota device (linear Falcon r4L topology).
    pub fn bogota() -> Self {
        BackendCalibration {
            name: "ibmq_bogota".into(),
            qubits: vec![
                qubit(102.7, 146.8, 2.0e-4, 0.019, 0.030),
                qubit(88.2, 122.5, 2.6e-4, 0.023, 0.039),
                qubit(129.4, 153.0, 2.3e-4, 0.017, 0.028),
                qubit(144.0, 96.1, 2.5e-4, 0.025, 0.042),
                qubit(111.6, 132.3, 2.9e-4, 0.030, 0.047),
            ],
            coupling: vec![(0, 1), (1, 2), (2, 3), (3, 4)],
            cx_errors: vec![6.8e-3, 7.9e-3, 6.3e-3, 9.2e-3],
            times: GateTimes::default(),
        }
    }

    /// Synthetic 16-qubit Guadalupe device (Falcon r4P heavy-hex cell) —
    /// the width target of the trajectory executor, far past the
    /// density-matrix engine's practical ceiling.
    ///
    /// ```text
    ///  0 -  1 -  2 -  3
    ///       |         |
    ///       4         5
    ///       |         |
    ///  6 -  7         8 -  9
    ///       |         |
    ///      10        11
    ///       |         |
    /// 15 - 12 - 13 - 14
    /// ```
    pub fn guadalupe() -> Self {
        BackendCalibration {
            name: "ibmq_guadalupe".into(),
            qubits: vec![
                qubit(121.5, 89.4, 2.4e-4, 0.021, 0.035),
                qubit(98.7, 112.6, 2.8e-4, 0.025, 0.042),
                qubit(143.2, 54.8, 2.1e-4, 0.018, 0.031),
                qubit(110.9, 131.7, 3.0e-4, 0.029, 0.049),
                qubit(156.3, 77.2, 2.3e-4, 0.016, 0.028),
                qubit(89.1, 98.5, 3.3e-4, 0.032, 0.054),
                qubit(134.6, 45.9, 2.2e-4, 0.020, 0.033),
                qubit(117.4, 124.1, 2.6e-4, 0.023, 0.038),
                qubit(102.8, 66.3, 2.9e-4, 0.027, 0.045),
                qubit(148.0, 105.2, 2.0e-4, 0.017, 0.029),
                qubit(95.5, 83.7, 3.1e-4, 0.030, 0.051),
                qubit(127.3, 139.8, 2.5e-4, 0.022, 0.036),
                qubit(139.9, 59.1, 2.3e-4, 0.019, 0.032),
                qubit(106.2, 117.9, 2.7e-4, 0.026, 0.044),
                qubit(151.7, 72.6, 2.2e-4, 0.018, 0.030),
                qubit(92.4, 101.3, 3.2e-4, 0.031, 0.052),
            ],
            coupling: vec![
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
            ],
            cx_errors: vec![
                7.4e-3, 6.8e-3, 9.2e-3, 7.9e-3, 1.08e-2, 6.5e-3, 8.8e-3, 7.1e-3, 9.6e-3, 6.2e-3,
                8.1e-3, 7.7e-3, 1.15e-2, 6.9e-3, 8.5e-3, 7.3e-3,
            ],
            times: GateTimes::default(),
        }
    }

    /// Compiles this calibration into a [`NoiseModel`].
    pub fn noise_model(&self) -> NoiseModel {
        let specs: Vec<QubitNoiseSpec> = self
            .qubits
            .iter()
            .map(|q| QubitNoiseSpec {
                t1: q.t1,
                t2: q.t2,
                gate_error_1q: q.gate_error_1q,
                readout: ReadoutError::new(q.readout_p01, q.readout_p10),
            })
            .collect();
        let cx: Vec<((usize, usize), f64)> = self
            .coupling
            .iter()
            .copied()
            .zip(self.cx_errors.iter().copied())
            .collect();
        NoiseModel::from_specs(&specs, &cx, self.times.one_q, self.times.two_q)
    }

    /// Returns a copy with all error magnitudes scaled by `factor`
    /// (T1/T2 scale inversely). Useful for noise-sensitivity ablations.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 0`.
    pub fn scaled(&self, factor: f64) -> BackendCalibration {
        assert!(factor >= 0.0, "negative noise scale");
        let mut out = self.clone();
        let f = factor.max(1e-9);
        for q in &mut out.qubits {
            q.t1 /= f;
            q.t2 = (q.t2 / f).min(2.0 * q.t1);
            q.gate_error_1q = (q.gate_error_1q * factor).min(1.0);
            q.readout_p01 = (q.readout_p01 * factor).min(1.0);
            q.readout_p10 = (q.readout_p10 * factor).min(1.0);
        }
        for e in &mut out.cx_errors {
            *e = (*e * factor).min(1.0);
        }
        out
    }

    /// Restricts the calibration to a subset of physical qubits, remapping
    /// them to `0..subset.len()` in the given order. Edges with an endpoint
    /// outside the subset are dropped.
    ///
    /// Simulators use this to shrink the density matrix to the qubits a
    /// transpiled circuit actually touches.
    ///
    /// # Panics
    ///
    /// Panics if `subset` contains duplicates or out-of-range qubits.
    pub fn restrict(&self, subset: &[usize]) -> BackendCalibration {
        let mut remap = vec![None; self.num_qubits()];
        for (new, &old) in subset.iter().enumerate() {
            assert!(old < self.num_qubits(), "qubit {old} out of range");
            assert!(remap[old].is_none(), "duplicate qubit {old} in subset");
            remap[old] = Some(new);
        }
        let qubits = subset.iter().map(|&q| self.qubits[q]).collect();
        let mut coupling = Vec::new();
        let mut cx_errors = Vec::new();
        for (&(a, b), &err) in self.coupling.iter().zip(&self.cx_errors) {
            if let (Some(na), Some(nb)) = (remap[a], remap[b]) {
                coupling.push((na.min(nb), na.max(nb)));
                cx_errors.push(err);
            }
        }
        BackendCalibration {
            name: format!("{}[{}q]", self.name, subset.len()),
            qubits,
            coupling,
            cx_errors,
            times: self.times,
        }
    }

    /// A calibration-drifted copy, modeling day-to-day variation of a real
    /// device ("the noise is not static and may slightly change the state
    /// probability distribution", §V-E). Each parameter is multiplied by
    /// `e^{σ·N(0,1)}` with `σ = rel_sigma`, respecting physical constraints.
    pub fn with_drift<R: Rng + ?Sized>(&self, rng: &mut R, rel_sigma: f64) -> BackendCalibration {
        let mut out = self.clone();
        let jitter = |rng: &mut R, v: f64, lo: f64, hi: f64| -> f64 {
            // Box-Muller for a standard normal using only the Rng trait.
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen::<f64>();
            let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (v * (rel_sigma * n).exp()).clamp(lo, hi)
        };
        for q in &mut out.qubits {
            q.t1 = jitter(rng, q.t1, 5e-6, 1e-3);
            q.t2 = jitter(rng, q.t2, 5e-6, 2.0 * q.t1);
            q.gate_error_1q = jitter(rng, q.gate_error_1q, 1e-6, 0.1);
            q.readout_p01 = jitter(rng, q.readout_p01, 1e-4, 0.3);
            q.readout_p10 = jitter(rng, q.readout_p10, 1e-4, 0.3);
        }
        for e in &mut out.cx_errors {
            *e = jitter(rng, *e, 1e-5, 0.3);
        }
        out.name = format!("{}+drift", self.name);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn builtin_devices_are_well_formed() {
        for cal in [
            BackendCalibration::jakarta(),
            BackendCalibration::casablanca(),
            BackendCalibration::lima(),
            BackendCalibration::bogota(),
            BackendCalibration::guadalupe(),
        ] {
            assert_eq!(cal.cx_errors.len(), cal.coupling.len());
            for q in &cal.qubits {
                assert!(q.t1 > 0.0 && q.t2 > 0.0);
                assert!(q.t2 <= 2.0 * q.t1 + 1e-12, "{}: T2 > 2*T1", cal.name);
                assert!(q.gate_error_1q < 1e-2);
                assert!(q.readout_p01 < 0.1 && q.readout_p10 < 0.1);
            }
            for &(a, b) in &cal.coupling {
                assert!(a < b && b < cal.num_qubits());
            }
            // The noise model compiles.
            let m = cal.noise_model();
            assert_eq!(m.num_qubits(), cal.num_qubits());
            assert!(!m.is_ideal());
        }
    }

    #[test]
    fn named_resolves_every_builtin_and_rejects_strangers() {
        for &name in BackendCalibration::builtin_names() {
            let cal = BackendCalibration::named(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(cal.name.contains(name));
            // Full device name and odd casing also resolve.
            assert_eq!(BackendCalibration::named(&cal.name), Some(cal.clone()));
            assert_eq!(
                BackendCalibration::named(&name.to_ascii_uppercase()),
                Some(cal)
            );
        }
        assert_eq!(BackendCalibration::named("ibmq_nowhere"), None);
    }

    #[test]
    fn jakarta_and_casablanca_share_topology() {
        assert_eq!(
            BackendCalibration::jakarta().coupling,
            BackendCalibration::casablanca().coupling
        );
    }

    #[test]
    fn drift_changes_values_but_respects_bounds() {
        let cal = BackendCalibration::jakarta();
        let mut rng = SmallRng::seed_from_u64(99);
        let drifted = cal.with_drift(&mut rng, 0.1);
        assert_ne!(cal.qubits[0].t1, drifted.qubits[0].t1);
        for q in &drifted.qubits {
            assert!(q.t2 <= 2.0 * q.t1 + 1e-12);
        }
        // Drift is modest: within a factor of ~2 at sigma=0.1.
        for (a, b) in cal.qubits.iter().zip(&drifted.qubits) {
            assert!((b.t1 / a.t1).abs() < 2.0 && (b.t1 / a.t1).abs() > 0.5);
        }
        // The drifted model still compiles.
        let _ = drifted.noise_model();
    }

    #[test]
    fn drift_is_deterministic_per_seed() {
        let cal = BackendCalibration::lima();
        let a = cal.with_drift(&mut SmallRng::seed_from_u64(7), 0.05);
        let b = cal.with_drift(&mut SmallRng::seed_from_u64(7), 0.05);
        assert_eq!(a, b);
    }

    #[test]
    fn restrict_remaps_qubits_and_edges() {
        let cal = BackendCalibration::jakarta();
        // Keep physical {1, 3, 5} -> new {0, 1, 2}; edges (1,3) and (3,5)
        // survive as (0,1) and (1,2).
        let sub = cal.restrict(&[1, 3, 5]);
        assert_eq!(sub.num_qubits(), 3);
        assert_eq!(sub.coupling, vec![(0, 1), (1, 2)]);
        assert_eq!(sub.qubits[0], cal.qubits[1]);
        assert_eq!(sub.qubits[2], cal.qubits[5]);
        let _ = sub.noise_model();
    }

    #[test]
    fn restrict_order_defines_remapping() {
        let cal = BackendCalibration::jakarta();
        let sub = cal.restrict(&[5, 3]);
        // new 0 = old 5, new 1 = old 3, edge (3,5) -> (0,1).
        assert_eq!(sub.qubits[0], cal.qubits[5]);
        assert_eq!(sub.coupling, vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn restrict_rejects_duplicates() {
        let _ = BackendCalibration::jakarta().restrict(&[1, 1]);
    }

    #[test]
    fn scaled_zero_is_nearly_ideal() {
        let cal = BackendCalibration::bogota().scaled(0.0);
        for q in &cal.qubits {
            assert_eq!(q.gate_error_1q, 0.0);
            assert_eq!(q.readout_p01, 0.0);
            assert!(q.t1 > 1.0); // effectively infinite coherence
        }
    }

    #[test]
    fn scaled_up_increases_errors() {
        let base = BackendCalibration::jakarta();
        let hot = base.scaled(3.0);
        assert!(hot.qubits[0].gate_error_1q > base.qubits[0].gate_error_1q);
        assert!(hot.cx_errors[0] > base.cx_errors[0]);
        assert!(hot.qubits[0].t1 < base.qubits[0].t1);
    }
}
