//! CSV persistence for campaign data.
//!
//! Campaigns at paper scale take minutes to hours; persisting the raw
//! records lets analyses (heatmaps, histograms, qubit rankings) re-run
//! without re-executing circuits, and lets external tooling (the paper's
//! published data is CSV too) consume the results.

use crate::campaign::{CampaignResult, InjectionRecord};
use crate::double::DoubleInjectionRecord;
use crate::fault::InjectionPoint;
use crate::metrics::Severity;
use crate::report::Heatmap;
use core::fmt;

/// A CSV parsing failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvError {
    /// Line where parsing failed.
    pub line: usize,
    /// Why.
    pub reason: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csv parse error at line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CsvError {}

fn err(line: usize, reason: impl Into<String>) -> CsvError {
    CsvError {
        line,
        reason: reason.into(),
    }
}

fn parse_field<T: std::str::FromStr>(
    fields: &[&str],
    idx: usize,
    line: usize,
    name: &str,
) -> Result<T, CsvError> {
    fields
        .get(idx)
        .ok_or_else(|| err(line, format!("missing field {name}")))?
        .trim()
        .parse::<T>()
        .map_err(|_| err(line, format!("bad {name} value")))
}

/// Parses records written by [`crate::report::records_to_csv`]. The
/// trailing `severity` column is ignored (it is derivable from the QVF).
///
/// # Errors
///
/// Returns the first malformed line.
pub fn records_from_csv(text: &str) -> Result<Vec<InjectionRecord>, CsvError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if i == 0 {
            if !line.starts_with("op_index,") {
                return Err(err(lineno, "unexpected header"));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        out.push(InjectionRecord {
            point: InjectionPoint {
                op_index: parse_field(&f, 0, lineno, "op_index")?,
                qubit: parse_field(&f, 1, lineno, "qubit")?,
            },
            theta: parse_field(&f, 2, lineno, "theta")?,
            phi: parse_field(&f, 3, lineno, "phi")?,
            qvf: parse_field(&f, 4, lineno, "qvf")?,
        });
    }
    Ok(out)
}

/// Serializes double-injection records as CSV.
pub fn double_records_to_csv(records: &[DoubleInjectionRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("op_index,qubit,neighbor,theta0,phi0,theta1,phi1,qvf\n");
    for r in records {
        let _ = writeln!(
            out,
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6}",
            r.point.op_index, r.point.qubit, r.neighbor, r.theta0, r.phi0, r.theta1, r.phi1, r.qvf
        );
    }
    out
}

/// Parses records written by [`double_records_to_csv`].
///
/// # Errors
///
/// Returns the first malformed line.
pub fn double_records_from_csv(text: &str) -> Result<Vec<DoubleInjectionRecord>, CsvError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if i == 0 {
            if !line.starts_with("op_index,") {
                return Err(err(lineno, "unexpected header"));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        out.push(DoubleInjectionRecord {
            point: InjectionPoint {
                op_index: parse_field(&f, 0, lineno, "op_index")?,
                qubit: parse_field(&f, 1, lineno, "qubit")?,
            },
            neighbor: parse_field(&f, 2, lineno, "neighbor")?,
            theta0: parse_field(&f, 3, lineno, "theta0")?,
            phi0: parse_field(&f, 4, lineno, "phi0")?,
            theta1: parse_field(&f, 5, lineno, "theta1")?,
            phi1: parse_field(&f, 6, lineno, "phi1")?,
            qvf: parse_field(&f, 7, lineno, "qvf")?,
        });
    }
    Ok(out)
}

/// Minimal JSON writers. serde is not available offline (see
/// `vendor/README.md`), so machine-readable artifacts are emitted by
/// hand; the format is plain enough for any consumer. The `write_*` forms
/// append to a buffer, so a large document renders without a `String` per
/// value.
pub mod json {
    use std::fmt::Write as _;

    /// Escapes and quotes a string per RFC 8259.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        write_string(&mut out, s);
        out
    }

    /// [`string`], appended to `out`.
    pub(crate) fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Renders a float: shortest round-trip form, `null` for NaN/∞
    /// (which JSON cannot represent).
    pub fn num(v: f64) -> String {
        let mut out = String::new();
        write_num(&mut out, v);
        out
    }

    /// [`num`], appended to `out`.
    pub(crate) fn write_num(out: &mut String, v: f64) {
        if v.is_finite() {
            let start = out.len();
            let _ = write!(out, "{v}");
            // Rust renders whole floats as "1"; keep them typed as floats.
            if !out[start..].contains(['.', 'e']) {
                out.push_str(".0");
            }
        } else {
            out.push_str("null");
        }
    }

    /// Renders `[a, b, …]` from rendered items.
    pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
        let mut out = String::from("[");
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&item);
        }
        out.push(']');
        out
    }

    /// `[a, b, …]` of floats, appended to `out`.
    pub(crate) fn write_nums(out: &mut String, values: &[f64]) {
        out.push('[');
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_num(out, v);
        }
        out.push(']');
    }
}

/// Bytes to reserve per record for [`records_to_json`]: a record of the
/// paper campaign renders to 80–99 bytes.
const RECORD_JSON_BYTES: usize = 112;

/// Appends `records` as a JSON array of objects.
fn write_records_json(out: &mut String, records: &[InjectionRecord]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"op_index\":{},\"qubit\":{},\"theta\":",
            r.point.op_index, r.point.qubit
        );
        json::write_num(out, r.theta);
        out.push_str(",\"phi\":");
        json::write_num(out, r.phi);
        out.push_str(",\"qvf\":");
        json::write_num(out, r.qvf);
        out.push_str(",\"severity\":");
        json::write_string(out, Severity::classify(r.qvf).label());
        out.push('}');
    }
    out.push(']');
}

/// Serializes raw records as a JSON array (the JSON sibling of
/// [`crate::report::records_to_csv`]).
pub fn records_to_json(records: &[InjectionRecord]) -> String {
    let mut out = String::with_capacity(records.len() * RECORD_JSON_BYTES + 2);
    write_records_json(&mut out, records);
    out
}

/// Serializes a whole campaign — metadata, summary statistics and raw
/// records — as one JSON document.
pub fn campaign_to_json(result: &CampaignResult) -> String {
    use std::fmt::Write as _;
    let (masked, dubious, sdc) = result.severity_counts();
    let mut out = String::with_capacity(result.records.len() * RECORD_JSON_BYTES + 512);
    out.push_str("{\"circuit\":");
    json::write_string(&mut out, &result.circuit_name);
    out.push_str(",\"golden\":[");
    for (i, g) in result.golden.iter().enumerate() {
        let _ = write!(out, "{}{g}", if i > 0 { "," } else { "" });
    }
    out.push_str("],\"baseline_qvf\":");
    json::write_num(&mut out, result.baseline_qvf);
    out.push_str(",\"mean_qvf\":");
    json::write_num(&mut out, result.mean_qvf());
    out.push_str(",\"stddev_qvf\":");
    json::write_num(&mut out, result.stddev_qvf());
    let _ = write!(
        out,
        ",\"severity\":{{\"masked\":{masked},\"dubious\":{dubious},\"sdc\":{sdc}}},\"grid\":{{\"thetas\":"
    );
    json::write_nums(&mut out, &result.grid.thetas);
    out.push_str(",\"phis\":");
    json::write_nums(&mut out, &result.grid.phis);
    out.push_str("},\"records\":");
    write_records_json(&mut out, &result.records);
    out.push('}');
    out
}

/// Serializes a heatmap — axes plus row-major `[phi][theta]` means and
/// counts — as JSON (the JSON sibling of [`Heatmap::to_csv`]).
pub fn heatmap_to_json(hm: &Heatmap) -> String {
    let mut values = Vec::with_capacity(hm.phis().len() * hm.thetas().len());
    let mut counts = Vec::with_capacity(values.capacity());
    for pi in 0..hm.phis().len() {
        for ti in 0..hm.thetas().len() {
            values.push(json::num(hm.value(pi, ti)));
            counts.push(hm.count(pi, ti).to_string());
        }
    }
    format!(
        "{{\"thetas\":{},\"phis\":{},\"values\":{},\"counts\":{}}}",
        json::array(hm.thetas().iter().map(|&t| json::num(t))),
        json::array(hm.phis().iter().map(|&p| json::num(p))),
        json::array(values),
        json::array(counts),
    )
}

#[cfg(test)]
// Test fixtures intentionally use 6-decimal values that mimic the CSV
// output precision; they are not meant to be π.
#[allow(clippy::approx_constant)]
mod tests {
    use super::*;
    use crate::report::records_to_csv;

    fn sample_records() -> Vec<InjectionRecord> {
        vec![
            InjectionRecord {
                point: InjectionPoint {
                    op_index: 2,
                    qubit: 0,
                },
                theta: 0.785398,
                phi: 3.141593,
                qvf: 0.42,
            },
            InjectionRecord {
                point: InjectionPoint {
                    op_index: 5,
                    qubit: 3,
                },
                theta: 0.0,
                phi: 0.261799,
                qvf: 0.91,
            },
        ]
    }

    #[test]
    fn single_records_roundtrip() {
        let records = sample_records();
        let csv = records_to_csv(&records);
        let back = records_from_csv(&csv).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.point, b.point);
            assert!((a.theta - b.theta).abs() < 1e-6);
            assert!((a.qvf - b.qvf).abs() < 1e-6);
        }
    }

    #[test]
    fn double_records_roundtrip() {
        let records = vec![DoubleInjectionRecord {
            point: InjectionPoint {
                op_index: 1,
                qubit: 2,
            },
            neighbor: 0,
            theta0: 3.141593,
            phi0: 3.141593,
            theta1: 1.570796,
            phi1: 0.785398,
            qvf: 0.63,
        }];
        let csv = double_records_to_csv(&records);
        let back = double_records_from_csv(&csv).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].neighbor, 0);
        assert!((back[0].phi1 - 0.785398).abs() < 1e-9);
    }

    #[test]
    fn bad_header_rejected_with_line() {
        let e = records_from_csv("nope\n1,2,3,4,5\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn bad_value_reports_line_and_field() {
        let csv = "op_index,qubit,theta,phi,qvf,severity\n1,x,0.0,0.0,0.5,masked\n";
        let e = records_from_csv(csv).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("qubit"));
    }

    #[test]
    fn blank_lines_tolerated() {
        let csv = records_to_csv(&sample_records()) + "\n\n";
        assert_eq!(records_from_csv(&csv).unwrap().len(), 2);
    }

    #[test]
    fn json_records_carry_all_fields() {
        let j = records_to_json(&sample_records());
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"op_index\":2"));
        assert!(j.contains("\"qvf\":0.42"));
        assert!(j.contains("\"severity\":\"masked\""));
        assert!(j.contains("\"severity\":\"sdc\""));
    }

    #[test]
    fn json_campaign_document_is_complete() {
        use crate::campaign::CampaignResult;
        use crate::fault::FaultGrid;
        let result = CampaignResult::from_parts(
            "bv-4",
            vec![5],
            0.1,
            FaultGrid::custom(vec![0.0], vec![0.0, 3.141593]),
            sample_records(),
        );
        let j = campaign_to_json(&result);
        for key in [
            "\"circuit\":\"bv-4\"",
            "\"golden\":[5]",
            "\"baseline_qvf\":0.1",
            "\"mean_qvf\":",
            "\"severity\":{\"masked\":1",
            "\"thetas\":[0.0]",
            "\"records\":[",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn json_heatmap_uses_null_for_empty_cells() {
        use crate::fault::FaultGrid;
        let grid = FaultGrid::custom(vec![0.0, 1.0], vec![0.0]);
        let hm = Heatmap::from_samples(&grid, vec![(0.0, 0.0, 0.5)]);
        let j = heatmap_to_json(&hm);
        assert!(j.contains("\"values\":[0.5,null]"), "{j}");
        assert!(j.contains("\"counts\":[1,0]"), "{j}");
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json::string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json::num(f64::NAN), "null");
        assert_eq!(json::num(2.0), "2.0");
    }
}
