//! Aggregation and rendering of campaign results: the heatmaps, histograms
//! and Δ-maps of the paper's Figures 5–10, plus CSV export for external
//! plotting.

use crate::campaign::{CampaignResult, InjectionRecord};
use crate::double::DoubleCampaignResult;
use crate::fault::FaultGrid;
use crate::metrics::{record_severity, Severity};
use crate::serialize::{render_to_string, write_qvf_fixed, AngleText};
use qufi_math::PiFraction;
use std::fmt::Write as _;
use std::io::{self, Write as _};

/// A mean-QVF map over the (φ, θ) fault lattice — one cell per injected
/// phase-shift configuration, averaged over all injection points that
/// received it (the paper's Fig. 5/6/8 heatmaps).
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    thetas: Vec<f64>,
    phis: Vec<f64>,
    /// Row-major [phi][theta] mean values; NaN for empty cells.
    values: Vec<f64>,
    counts: Vec<usize>,
}

impl Heatmap {
    /// Builds a heatmap from `(θ, φ, qvf)` samples on the given grid.
    /// Samples not matching a lattice point (within 1e-6 — loose enough to
    /// absorb CSV round-tripping) are ignored.
    pub fn from_samples<I: IntoIterator<Item = (f64, f64, f64)>>(
        grid: &FaultGrid,
        samples: I,
    ) -> Self {
        let thetas = grid.thetas.clone();
        let phis = grid.phis.clone();
        let mut sums = vec![0.0; thetas.len() * phis.len()];
        let mut counts = vec![0usize; sums.len()];
        for (t, p, v) in samples {
            let ti = thetas.iter().position(|&x| (x - t).abs() < 1e-6);
            let pi = phis.iter().position(|&x| (x - p).abs() < 1e-6);
            if let (Some(ti), Some(pi)) = (ti, pi) {
                sums[pi * thetas.len() + ti] += v;
                counts[pi * thetas.len() + ti] += 1;
            }
        }
        let values = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { f64::NAN })
            .collect();
        Heatmap {
            thetas,
            phis,
            values,
            counts,
        }
    }

    /// Heatmap of a whole single-fault campaign (Fig. 5).
    pub fn from_campaign(result: &CampaignResult) -> Self {
        Heatmap::from_samples(
            &result.grid,
            result.records.iter().map(|r| (r.theta, r.phi, r.qvf)),
        )
    }

    /// Heatmap restricted to faults on one qubit (Fig. 6).
    pub fn from_campaign_qubit(result: &CampaignResult, qubit: usize) -> Self {
        Heatmap::from_samples(
            &result.grid,
            result
                .records
                .iter()
                .filter(|r| r.point.qubit == qubit)
                .map(|r| (r.theta, r.phi, r.qvf)),
        )
    }

    /// First-fault heatmap of a double campaign: each (θ0, φ0) cell averages
    /// over every second-fault configuration (Fig. 8b).
    pub fn from_double_campaign(result: &DoubleCampaignResult) -> Self {
        Heatmap::from_samples(
            &result.grid,
            result.records.iter().map(|r| (r.theta0, r.phi0, r.qvf)),
        )
    }

    /// θ axis values.
    pub fn thetas(&self) -> &[f64] {
        &self.thetas
    }

    /// φ axis values.
    pub fn phis(&self) -> &[f64] {
        &self.phis
    }

    /// Mean QVF at lattice indices (`phi_idx`, `theta_idx`); NaN when empty.
    pub fn value(&self, phi_idx: usize, theta_idx: usize) -> f64 {
        self.values[phi_idx * self.thetas.len() + theta_idx]
    }

    /// Sample count behind a cell.
    pub fn count(&self, phi_idx: usize, theta_idx: usize) -> usize {
        self.counts[phi_idx * self.thetas.len() + theta_idx]
    }

    /// Mean over all non-empty cells.
    pub fn mean(&self) -> f64 {
        crate::metrics::mean_of(self.values.iter().copied().filter(|v| !v.is_nan()))
    }

    /// Cell-wise difference `self − other` (the ΔQVF map of Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics when the lattices differ.
    pub fn delta(&self, other: &Heatmap) -> Heatmap {
        assert_eq!(self.thetas, other.thetas, "θ lattice mismatch");
        assert_eq!(self.phis, other.phis, "φ lattice mismatch");
        let values = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(&a, &b)| a - b)
            .collect();
        Heatmap {
            thetas: self.thetas.clone(),
            phis: self.phis.clone(),
            values,
            counts: self.counts.clone(),
        }
    }

    /// ASCII rendering in the paper's orientation (φ decreasing downward…
    /// actually φ increases upward, θ rightward). Severity glyphs:
    /// `.` masked (green), `o` dubious (white), `#` SDC (red),
    /// space for empty cells.
    pub fn ascii(&self) -> String {
        let mut out = String::new();
        for (pi, &phi) in self.phis.iter().enumerate().rev() {
            let _ = write!(out, "{:>6} |", PiFraction(phi).to_string());
            for ti in 0..self.thetas.len() {
                let v = self.value(pi, ti);
                let c = if v.is_nan() {
                    ' '
                } else {
                    match Severity::classify(v) {
                        Severity::Masked => '.',
                        Severity::Dubious => 'o',
                        Severity::Sdc => '#',
                    }
                };
                let _ = write!(out, " {c}");
            }
            out.push('\n');
        }
        let _ = write!(out, "{:>6} +", "φ/θ");
        for _ in 0..self.thetas.len() {
            out.push_str("--");
        }
        out.push('\n');
        if let (Some(&first), Some(&last)) = (self.thetas.first(), self.thetas.last()) {
            let _ = writeln!(
                out,
                "{:>8}θ: {} … {} ({} steps)",
                "",
                PiFraction(first),
                PiFraction(last),
                self.thetas.len()
            );
        }
        out
    }

    /// CSV rows `phi,theta,mean_qvf,count` (radians, 6 decimals).
    pub fn to_csv(&self) -> String {
        render_to_string(32 * (self.values.len() + 1), |out| self.write_csv(out))
    }

    /// Writes [`Heatmap::to_csv`]'s rows to `out`.
    ///
    /// # Errors
    ///
    /// The sink's.
    pub fn write_csv<W: io::Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(b"phi,theta,mean_qvf,count\n")?;
        for (pi, &phi) in self.phis.iter().enumerate() {
            for (ti, &theta) in self.thetas.iter().enumerate() {
                let v = self.value(pi, ti);
                write!(out, "{phi:.6},{theta:.6},")?;
                if !v.is_nan() {
                    write!(out, "{v:.6}")?;
                }
                writeln!(out, ",{}", self.count(pi, ti))?;
            }
        }
        Ok(())
    }
}

/// A fixed-range histogram over `[0, 1]` QVF values (Fig. 7 / Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<usize>,
    total: usize,
}

impl Histogram {
    /// Bins `values` into `bins` equal-width buckets over `[0, 1]`; values
    /// outside the range clamp to the boundary bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn new(values: &[f64], bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        let mut counts = vec![0usize; bins];
        for &v in values {
            let idx = ((v * bins as f64).floor() as isize).clamp(0, bins as isize - 1) as usize;
            counts[idx] += 1;
        }
        let edges = (0..=bins).map(|i| i as f64 / bins as f64).collect();
        Histogram {
            edges,
            counts,
            total: values.len(),
        }
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Probability-density values per bin (integrates to 1), as plotted on
    /// the paper's density axes.
    pub fn density(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let width = 1.0 / self.counts.len() as f64;
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64 / width)
            .collect()
    }

    /// A rough terminal rendering: one row per bin with a `#` bar.
    pub fn ascii(&self) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(c * 50 / max);
            let _ = writeln!(
                out,
                "[{:.2},{:.2}) {:>7} |{bar}",
                self.edges[i],
                self.edges[i + 1],
                c
            );
        }
        out
    }

    /// CSV rows `bin_low,bin_high,count,density`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bin_low,bin_high,count,density\n");
        let dens = self.density();
        for (i, &den) in dens.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:.4},{:.4},{},{:.6}",
                self.edges[i],
                self.edges[i + 1],
                self.counts[i],
                den
            );
        }
        out
    }
}

/// Bytes to reserve per record for [`records_to_csv`]: a record of the
/// paper campaign renders to 41–46 bytes.
const RECORD_CSV_BYTES: usize = 48;

/// CSV export of raw single-fault records:
/// `op_index,qubit,theta,phi,qvf,severity`. The severity is the class of
/// the QVF as printed ([`record_severity`]).
pub fn records_to_csv(records: &[InjectionRecord]) -> String {
    render_to_string((records.len() + 1) * RECORD_CSV_BYTES, |out| {
        write_records_csv(out, records)
    })
}

/// Writes [`records_to_csv`]'s text to `out`, rendering each distinct θ
/// and φ once.
///
/// # Errors
///
/// The sink's.
pub fn write_records_csv<W: io::Write + ?Sized>(
    out: &mut W,
    records: &[InjectionRecord],
) -> io::Result<()> {
    let mut angles = AngleText::new(|text, v| {
        let _ = write!(text, "{v:.9}");
    });
    // Records come grouped by point: render a point's prefix once.
    let (mut point, mut prefix) = (None, Vec::new());
    out.write_all(b"op_index,qubit,theta,phi,qvf,severity\n")?;
    for r in records {
        if point != Some(r.point) {
            prefix.clear();
            write!(prefix, "{},{},", r.point.op_index, r.point.qubit)?;
            point = Some(r.point);
        }
        out.write_all(&prefix)?;
        angles.write(out, r.theta)?;
        out.write_all(b",")?;
        angles.write(out, r.phi)?;
        out.write_all(b",")?;
        write_qvf_fixed(out, r.qvf)?;
        out.write_all(b",")?;
        out.write_all(record_severity(r.qvf).label().as_bytes())?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::InjectionPoint;
    use std::f64::consts::PI;

    fn sample_grid() -> FaultGrid {
        FaultGrid::custom(vec![0.0, PI], vec![0.0, PI])
    }

    fn rec(theta: f64, phi: f64, qvf: f64, qubit: usize) -> InjectionRecord {
        InjectionRecord {
            point: InjectionPoint { op_index: 0, qubit },
            theta,
            phi,
            qvf,
        }
    }

    #[test]
    fn heatmap_averages_cells() {
        let grid = sample_grid();
        let samples = vec![(0.0, 0.0, 0.2), (0.0, 0.0, 0.4), (PI, PI, 1.0)];
        let hm = Heatmap::from_samples(&grid, samples);
        assert!((hm.value(0, 0) - 0.3).abs() < 1e-12);
        assert_eq!(hm.count(0, 0), 2);
        assert!((hm.value(1, 1) - 1.0).abs() < 1e-12);
        assert!(hm.value(0, 1).is_nan());
    }

    #[test]
    fn heatmap_from_campaign_filters_by_qubit() {
        let grid = sample_grid();
        let result = CampaignResult {
            circuit_name: "t".into(),
            golden: vec![0],
            baseline_qvf: 0.1,
            records: vec![rec(0.0, 0.0, 0.0, 0), rec(0.0, 0.0, 1.0, 1)],
            grid: grid.clone(),
        };
        let all = Heatmap::from_campaign(&result);
        assert!((all.value(0, 0) - 0.5).abs() < 1e-12);
        let q0 = Heatmap::from_campaign_qubit(&result, 0);
        assert!((q0.value(0, 0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_cellwise() {
        let grid = sample_grid();
        let a = Heatmap::from_samples(&grid, vec![(0.0, 0.0, 0.8)]);
        let b = Heatmap::from_samples(&grid, vec![(0.0, 0.0, 0.3)]);
        let d = a.delta(&b);
        assert!((d.value(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ascii_uses_severity_glyphs() {
        let grid = sample_grid();
        let hm =
            Heatmap::from_samples(&grid, vec![(0.0, 0.0, 0.1), (PI, 0.0, 0.5), (0.0, PI, 0.9)]);
        let art = hm.ascii();
        assert!(art.contains('.'), "masked glyph missing:\n{art}");
        assert!(art.contains('o'), "dubious glyph missing:\n{art}");
        assert!(art.contains('#'), "sdc glyph missing:\n{art}");
    }

    #[test]
    fn histogram_bins_and_density() {
        let h = Histogram::new(&[0.05, 0.05, 0.95, 0.5], 10);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        // Density integrates to 1.
        let integral: f64 = h.density().iter().map(|d| d * 0.1).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let h = Histogram::new(&[-0.1, 1.5, 1.0], 4);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 2);
    }

    #[test]
    fn csv_outputs_have_headers_and_rows() {
        let grid = sample_grid();
        let hm = Heatmap::from_samples(&grid, vec![(0.0, 0.0, 0.25)]);
        let csv = hm.to_csv();
        assert!(csv.starts_with("phi,theta,mean_qvf,count\n"));
        assert_eq!(csv.lines().count(), 1 + 4);
        let rcsv = records_to_csv(&[rec(0.0, 0.0, 0.7, 2)]);
        assert!(rcsv.contains("sdc"));
        let h = Histogram::new(&[0.5], 2);
        assert!(h.to_csv().contains("bin_low"));
    }

    #[test]
    fn csv_severity_is_the_class_of_the_printed_qvf() {
        // Each QVF prints as a class threshold, so its row says dubious,
        // as does the same row re-read from a checkpoint.
        let records = [rec(0.0, 0.0, 0.4499996, 0), rec(0.0, 0.0, 0.5500004, 1)];
        let csv = records_to_csv(&records);
        assert!(csv.contains(",0.450000,dubious\n"), "{csv}");
        assert!(csv.contains(",0.550000,dubious\n"), "{csv}");
        let reread = crate::serialize::records_from_csv(&csv).unwrap();
        assert_eq!(records_to_csv(&reread), csv);
        let result = CampaignResult {
            circuit_name: "t".into(),
            golden: vec![0],
            baseline_qvf: 0.1,
            records: records.to_vec(),
            grid: sample_grid(),
        };
        assert_eq!(result.severity_counts(), (0, 2, 0));
    }

    #[test]
    fn histogram_ascii_renders_bars() {
        let h = Histogram::new(&[0.1, 0.1, 0.1, 0.9], 2);
        let art = h.ascii();
        assert!(art.lines().count() == 2);
        assert!(art.contains('#'));
    }
}
