//! Angle grids and pretty-printing for the QuFI fault model.
//!
//! The paper sweeps the injector gate parameters over
//! `φ ∈ [0, 2π)` and `θ ∈ [0, π]` in 15° steps with `λ = 0`, giving
//! 24 × 13 = 312 configurations per injection point (§IV-B). [`AngleGrid`]
//! generates those sequences; [`PiFraction`] renders axis labels like `3π/4`
//! exactly as they appear on the paper's figures.

use core::fmt;
use std::f64::consts::PI;

/// Converts degrees to radians.
///
/// # Example
///
/// ```
/// use qufi_math::deg;
/// assert!((deg(180.0) - std::f64::consts::PI).abs() < 1e-12);
/// ```
#[inline]
pub fn deg(degrees: f64) -> f64 {
    degrees * PI / 180.0
}

/// An inclusive/exclusive sweep over an angle range with a fixed step.
///
/// # Example
///
/// ```
/// use qufi_math::AngleGrid;
///
/// // The QuFI paper's θ grid: [0, π] every 15° → 13 points.
/// assert_eq!(AngleGrid::qufi_theta().values().len(), 13);
/// // The φ grid: [0, 2π) every 15° → 24 points.
/// assert_eq!(AngleGrid::qufi_phi().values().len(), 24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngleGrid {
    start: f64,
    end: f64,
    step: f64,
    inclusive: bool,
}

impl AngleGrid {
    /// Creates a grid from `start` to `end` with the given `step`.
    /// When `inclusive` is true the endpoint is part of the grid.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0` or `end < start`.
    pub fn new(start: f64, end: f64, step: f64, inclusive: bool) -> Self {
        assert!(step > 0.0, "step must be positive");
        assert!(end >= start, "empty angle range");
        AngleGrid {
            start,
            end,
            step,
            inclusive,
        }
    }

    /// The paper's θ grid: `[0, π]` every 15°, inclusive (13 values).
    pub fn qufi_theta() -> Self {
        AngleGrid::new(0.0, PI, deg(15.0), true)
    }

    /// The paper's φ grid: `[0, 2π)` every 15°, endpoint excluded (24 values).
    pub fn qufi_phi() -> Self {
        AngleGrid::new(0.0, 2.0 * PI, deg(15.0), false)
    }

    /// Half-range φ grid `[0, π]` used by the double-fault study (§V-D),
    /// exploiting the φ-symmetry of Bernstein-Vazirani around π.
    pub fn qufi_phi_half() -> Self {
        AngleGrid::new(0.0, PI, deg(15.0), true)
    }

    /// A coarse grid (45° steps) used by benches to bound wall-clock time.
    pub fn coarse(end: f64, inclusive: bool) -> Self {
        AngleGrid::new(0.0, end, deg(45.0), inclusive)
    }

    /// Step size in radians.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Materializes the grid values.
    pub fn values(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let n = ((self.end - self.start) / self.step).round() as i64;
        for k in 0..=n {
            let v = self.start + self.step * k as f64;
            if v > self.end + 1e-12 {
                break;
            }
            if !self.inclusive && (v - self.end).abs() < 1e-12 {
                break;
            }
            out.push(v);
        }
        out
    }

    /// Values ≤ `limit` (used for the second fault of a double injection,
    /// which must have magnitude at most that of the first: θ1 ≤ θ0, φ1 ≤ φ0).
    pub fn values_up_to(&self, limit: f64) -> Vec<f64> {
        self.values()
            .into_iter()
            .filter(|&v| v <= limit + 1e-12)
            .collect()
    }
}

/// Renders an angle as the nearest simple fraction of π (`0`, `π/4`, `3π/2`, …)
/// or falls back to radians with two decimals.
///
/// # Example
///
/// ```
/// use qufi_math::PiFraction;
/// use std::f64::consts::PI;
///
/// assert_eq!(PiFraction(PI / 2.0).to_string(), "π/2");
/// assert_eq!(PiFraction(3.0 * PI / 4.0).to_string(), "3π/4");
/// assert_eq!(PiFraction(0.0).to_string(), "0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiFraction(pub f64);

impl fmt::Display for PiFraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let x = self.0 / PI;
        if x.abs() < 1e-9 {
            return write!(f, "0");
        }
        for den in [1u32, 2, 3, 4, 6, 12] {
            let num = x * den as f64;
            if (num - num.round()).abs() < 1e-9 {
                let num = num.round() as i64;
                return match (num, den) {
                    (1, 1) => write!(f, "π"),
                    (-1, 1) => write!(f, "-π"),
                    (n, 1) => write!(f, "{n}π"),
                    (1, d) => write!(f, "π/{d}"),
                    (-1, d) => write!(f, "-π/{d}"),
                    (n, d) => write!(f, "{n}π/{d}"),
                };
            }
        }
        write!(f, "{:.2}rad", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qufi_grids_match_paper_counts() {
        let theta = AngleGrid::qufi_theta().values();
        let phi = AngleGrid::qufi_phi().values();
        assert_eq!(theta.len(), 13);
        assert_eq!(phi.len(), 24);
        // 312 configurations per injection point (§IV-B).
        assert_eq!(theta.len() * phi.len(), 312);
        assert!((theta[0]).abs() < 1e-15);
        assert!((theta[12] - PI).abs() < 1e-12);
        assert!((phi[23] - deg(345.0)).abs() < 1e-12);
    }

    #[test]
    fn inclusive_flag_controls_endpoint() {
        let inc = AngleGrid::new(0.0, PI, PI / 2.0, true).values();
        let exc = AngleGrid::new(0.0, PI, PI / 2.0, false).values();
        assert_eq!(inc.len(), 3);
        assert_eq!(exc.len(), 2);
    }

    #[test]
    fn values_up_to_filters() {
        let g = AngleGrid::qufi_theta();
        let vals = g.values_up_to(deg(45.0));
        assert_eq!(vals.len(), 4); // 0, 15, 30, 45 degrees
                                   // Limit exactly on a grid point is included.
        assert!((vals[3] - deg(45.0)).abs() < 1e-12);
    }

    #[test]
    fn pi_fraction_rendering() {
        assert_eq!(PiFraction(PI).to_string(), "π");
        assert_eq!(PiFraction(PI / 4.0).to_string(), "π/4");
        assert_eq!(PiFraction(7.0 * PI / 4.0).to_string(), "7π/4");
        assert_eq!(PiFraction(-PI / 2.0).to_string(), "-π/2");
        assert_eq!(PiFraction(2.0 * PI).to_string(), "2π");
        assert_eq!(PiFraction(deg(15.0)).to_string(), "π/12");
        // 0.5 rad is not a nice fraction of π.
        assert_eq!(PiFraction(0.5).to_string(), "0.50rad");
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = AngleGrid::new(0.0, 1.0, 0.0, true);
    }

    #[test]
    fn coarse_grid() {
        assert_eq!(AngleGrid::coarse(PI, true).values().len(), 5);
        assert_eq!(AngleGrid::coarse(2.0 * PI, false).values().len(), 8);
    }
}
