//! CSV persistence for campaign data.
//!
//! Campaigns at paper scale take minutes to hours; persisting the raw
//! records lets analyses (heatmaps, histograms, qubit rankings) re-run
//! without re-executing circuits, and lets external tooling (the paper's
//! published data is CSV too) consume the results.

use crate::campaign::{CampaignResult, InjectionRecord};
use crate::fault::InjectionPoint;
use crate::metrics::{record_severity, QVF_DECIMALS};
use crate::report::Heatmap;
use core::fmt;
use std::io::{self, Write};

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
    fields: &mut std::str::Split<'_, char>,
    line: usize,
    name: &str,
) -> Result<T, CsvError> {
    fields
        .next()
        .ok_or_else(|| err(line, format!("missing field {name}")))?
        .trim()
        .parse::<T>()
        .map_err(|_| err(line, format!("bad {name} value")))
}

/// A line-at-a-time parser of the text [`crate::report::records_to_csv`]
/// writes, so a caller can stream a file through it: it checks the
/// header, skips blank lines and numbers lines from 1, the header. The
/// trailing `severity` column is ignored (it is derivable from the QVF).
#[derive(Debug, Default)]
pub struct RecordsCsvParser {
    lines: usize,
}

impl RecordsCsvParser {
    /// Parses the next line, given without its terminator: `Some` record,
    /// or `None` for the header and blank lines.
    ///
    /// # Errors
    ///
    /// A bad header or record, with its line number.
    pub fn parse_line(&mut self, line: &str) -> Result<Option<InjectionRecord>, CsvError> {
        self.lines += 1;
        let lineno = self.lines;
        if lineno == 1 {
            return if line.starts_with("op_index,") {
                Ok(None)
            } else {
                Err(err(lineno, "unexpected header"))
            };
        }
        if line.trim().is_empty() {
            return Ok(None);
        }
        let f = &mut line.split(',');
        Ok(Some(InjectionRecord {
            point: InjectionPoint {
                op_index: parse_field(f, lineno, "op_index")?,
                qubit: parse_field(f, lineno, "qubit")?,
            },
            theta: parse_field(f, lineno, "theta")?,
            phi: parse_field(f, lineno, "phi")?,
            qvf: parse_field(f, lineno, "qvf")?,
        }))
    }
}

/// Parses records written by [`crate::report::records_to_csv`], through
/// [`RecordsCsvParser`].
///
/// # Errors
///
/// Returns the first malformed line.
pub fn records_from_csv(text: &str) -> Result<Vec<InjectionRecord>, CsvError> {
    let mut parser = RecordsCsvParser::default();
    // At most one record per line terminator: the header takes a line.
    let mut out = Vec::with_capacity(text.bytes().filter(|&b| b == b'\n').count());
    for line in text.lines() {
        out.extend(parser.parse_line(line)?);
    }
    Ok(out)
}

/// Renders text through `render` into a `String` of `capacity` bytes to
/// start with: the `String` form of the writers here, which take any sink.
pub(crate) fn render_to_string(
    capacity: usize,
    render: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> String {
    let mut out = Vec::with_capacity(capacity);
    render(&mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("rendered text is UTF-8")
}

/// Renders each distinct angle once per artifact: a campaign's records
/// repeat its grid's few θ and φ values thousands of times. It remembers
/// up to [`AngleText::CAP`] values; any others render on every use.
pub(crate) struct AngleText {
    render: fn(&mut Vec<u8>, f64),
    seen: Vec<(u64, Vec<u8>)>,
}

impl AngleText {
    const CAP: usize = 64;

    pub(crate) fn new(render: fn(&mut Vec<u8>, f64)) -> Self {
        AngleText {
            render,
            seen: Vec::new(),
        }
    }

    /// Writes `angle` as `render` would.
    pub(crate) fn write<W: Write + ?Sized>(&mut self, out: &mut W, angle: f64) -> io::Result<()> {
        let bits = angle.to_bits();
        if let Some((_, text)) = self.seen.iter().find(|(seen, _)| *seen == bits) {
            return out.write_all(text);
        }
        let mut text = Vec::new();
        (self.render)(&mut text, angle);
        out.write_all(&text)?;
        if self.seen.len() < Self::CAP {
            self.seen.push((bits, text));
        }
        Ok(())
    }
}

/// `qvf` in units of the checkpoint's last decimal place
/// ([`QVF_DECIMALS`]) when it is the double nearest such a value in
/// [0, 1], as every QVF read back from a checkpoint is. Its text is then
/// the digits of that count, which [`write_qvf_fixed`] and
/// [`write_qvf_json`] write without formatting a float. −0 is left to
/// the formatter, which prints its sign.
fn qvf_units(qvf: f64) -> Option<u32> {
    let scale = f64::from(QVF_SCALE);
    let units = (qvf * scale).round();
    (qvf.is_sign_positive() && qvf <= 1.0 && (units / scale).to_bits() == qvf.to_bits())
        .then_some(units as u32)
}

/// `10^QVF_DECIMALS`.
const QVF_SCALE: u32 = 10u32.pow(QVF_DECIMALS as u32);

/// `units` of [`qvf_units`] as `d.dddddd`.
fn qvf_digits(units: u32) -> [u8; 2 + QVF_DECIMALS] {
    let mut text = [b'0'; 2 + QVF_DECIMALS];
    text[0] += (units / QVF_SCALE) as u8;
    text[1] = b'.';
    let mut frac = units % QVF_SCALE;
    for digit in text[2..].iter_mut().rev() {
        *digit += (frac % 10) as u8;
        frac /= 10;
    }
    text
}

/// Writes `qvf` as `{:.QVF_DECIMALS$}` does: the checkpoint's `qvf`
/// column.
pub(crate) fn write_qvf_fixed<W: Write + ?Sized>(out: &mut W, qvf: f64) -> io::Result<()> {
    match qvf_units(qvf) {
        Some(units) => out.write_all(&qvf_digits(units)),
        None => write!(out, "{qvf:.QVF_DECIMALS$}"),
    }
}

/// Writes `qvf` as [`json::num`] does. A value with at most
/// [`QVF_DECIMALS`] decimals has no shorter round-trip form than those
/// decimals, so its text is theirs without trailing zeros.
fn write_qvf_json<W: Write + ?Sized>(out: &mut W, qvf: f64) -> io::Result<()> {
    match qvf_units(qvf) {
        Some(units) => {
            let text = qvf_digits(units);
            // Keep "d.0" for a whole value, as `json::num` does.
            let end = text[2..]
                .iter()
                .rposition(|&d| d != b'0')
                .map_or(3, |i| i + 3);
            out.write_all(&text[..end])
        }
        None => json::write_num(out, qvf),
    }
}

/// Minimal JSON writers. serde is not available offline (see
/// `vendor/README.md`), so machine-readable artifacts are emitted by
/// hand; the format is plain enough for any consumer. The `write_*` forms
/// take any sink, so a large document renders without a `String` per
/// value or for the whole.
pub mod json {
    use std::io::{self, Write};

    /// Escapes and quotes a string per RFC 8259.
    pub fn string(s: &str) -> String {
        super::render_to_string(s.len() + 2, |out| write_string(out, s))
    }

    /// [`string`], written to `out`.
    pub(crate) fn write_string<W: Write + ?Sized>(out: &mut W, s: &str) -> io::Result<()> {
        out.write_all(b"\"")?;
        for c in s.chars() {
            match c {
                '"' => out.write_all(b"\\\"")?,
                '\\' => out.write_all(b"\\\\")?,
                '\n' => out.write_all(b"\\n")?,
                '\r' => out.write_all(b"\\r")?,
                '\t' => out.write_all(b"\\t")?,
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
                c => out.write_all(c.encode_utf8(&mut [0; 4]).as_bytes())?,
            }
        }
        out.write_all(b"\"")
    }

    /// Renders a float: shortest round-trip form, `null` for NaN/∞
    /// (which JSON cannot represent).
    pub fn num(v: f64) -> String {
        super::render_to_string(24, |out| write_num(out, v))
    }

    /// [`num`], written to `out`.
    pub(crate) fn write_num<W: Write + ?Sized>(out: &mut W, v: f64) -> io::Result<()> {
        if !v.is_finite() {
            return out.write_all(b"null");
        }
        write!(out, "{v}")?;
        // `{}` never uses an exponent and prints a decimal point exactly
        // when the value has a fractional part, so whole floats come out
        // as "1"; keep them typed as floats.
        if v.fract() == 0.0 {
            out.write_all(b".0")?;
        }
        Ok(())
    }

    /// `[a, b, …]` of floats, written to `out`.
    pub(crate) fn write_nums<W: Write + ?Sized>(
        out: &mut W,
        values: impl IntoIterator<Item = f64>,
    ) -> io::Result<()> {
        out.write_all(b"[")?;
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write_num(out, v)?;
        }
        out.write_all(b"]")
    }
}

/// Bytes to reserve per record for [`records_to_json`]: a record of the
/// paper campaign renders to 80–99 bytes.
const RECORD_JSON_BYTES: usize = 112;

/// Writes `records` as a JSON array of objects, rendering each distinct
/// θ and φ once.
fn write_records_json<W: Write + ?Sized>(
    out: &mut W,
    records: &[InjectionRecord],
) -> io::Result<()> {
    let mut angles = AngleText::new(|text, v| {
        let _ = json::write_num(text, v);
    });
    // Records come grouped by point: render a point's prefix once.
    let (mut point, mut prefix) = (None, Vec::new());
    out.write_all(b"[")?;
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        if point != Some(r.point) {
            prefix.clear();
            write!(
                prefix,
                "{{\"op_index\":{},\"qubit\":{},\"theta\":",
                r.point.op_index, r.point.qubit
            )?;
            point = Some(r.point);
        }
        out.write_all(&prefix)?;
        angles.write(out, r.theta)?;
        out.write_all(b",\"phi\":")?;
        angles.write(out, r.phi)?;
        out.write_all(b",\"qvf\":")?;
        write_qvf_json(out, r.qvf)?;
        // Severity labels are plain words: nothing to escape.
        out.write_all(b",\"severity\":\"")?;
        out.write_all(record_severity(r.qvf).label().as_bytes())?;
        out.write_all(b"\"}")?;
    }
    out.write_all(b"]")
}

/// Serializes raw records as a JSON array (the JSON sibling of
/// [`crate::report::records_to_csv`]).
pub fn records_to_json(records: &[InjectionRecord]) -> String {
    render_to_string(records.len() * RECORD_JSON_BYTES + 2, |out| {
        write_records_json(out, records)
    })
}

/// Serializes a whole campaign — metadata, summary statistics and raw
/// records — as one JSON document: [`write_campaign_json`] into a
/// `String`.
pub fn campaign_to_json(result: &CampaignResult) -> String {
    render_to_string(result.records.len() * RECORD_JSON_BYTES + 512, |out| {
        write_campaign_json(out, result)
    })
}

/// Writes [`campaign_to_json`]'s document to `out`, rendering each
/// distinct θ and φ of the records once.
///
/// # Errors
///
/// The sink's.
pub fn write_campaign_json<W: Write + ?Sized>(
    out: &mut W,
    result: &CampaignResult,
) -> io::Result<()> {
    let (masked, dubious, sdc) = result.severity_counts();
    out.write_all(b"{\"circuit\":")?;
    json::write_string(out, &result.circuit_name)?;
    out.write_all(b",\"golden\":[")?;
    for (i, g) in result.golden.iter().enumerate() {
        write!(out, "{}{g}", if i > 0 { "," } else { "" })?;
    }
    out.write_all(b"],\"baseline_qvf\":")?;
    json::write_num(out, result.baseline_qvf)?;
    out.write_all(b",\"mean_qvf\":")?;
    json::write_num(out, result.mean_qvf())?;
    out.write_all(b",\"stddev_qvf\":")?;
    json::write_num(out, result.stddev_qvf())?;
    write!(
        out,
        ",\"severity\":{{\"masked\":{masked},\"dubious\":{dubious},\"sdc\":{sdc}}},\"grid\":{{\"thetas\":"
    )?;
    json::write_nums(out, result.grid.thetas.iter().copied())?;
    out.write_all(b",\"phis\":")?;
    json::write_nums(out, result.grid.phis.iter().copied())?;
    out.write_all(b"},\"records\":")?;
    write_records_json(out, &result.records)?;
    out.write_all(b"}")
}

/// Serializes a heatmap — axes plus row-major `[phi][theta]` means and
/// counts — as JSON (the JSON sibling of [`Heatmap::to_csv`]).
pub fn heatmap_to_json(hm: &Heatmap) -> String {
    render_to_string(256, |out| write_heatmap_json(out, hm))
}

/// Writes [`heatmap_to_json`]'s document to `out`.
///
/// # Errors
///
/// The sink's.
pub fn write_heatmap_json<W: Write + ?Sized>(out: &mut W, hm: &Heatmap) -> io::Result<()> {
    let cells =
        || (0..hm.phis().len()).flat_map(|pi| (0..hm.thetas().len()).map(move |ti| (pi, ti)));
    out.write_all(b"{\"thetas\":")?;
    json::write_nums(out, hm.thetas().iter().copied())?;
    out.write_all(b",\"phis\":")?;
    json::write_nums(out, hm.phis().iter().copied())?;
    out.write_all(b",\"values\":")?;
    json::write_nums(out, cells().map(|(pi, ti)| hm.value(pi, ti)))?;
    out.write_all(b",\"counts\":[")?;
    for (i, (pi, ti)) in cells().enumerate() {
        write!(out, "{}{}", if i > 0 { "," } else { "" }, hm.count(pi, ti))?;
    }
    out.write_all(b"]}")
}

#[cfg(test)]
// Test fixtures intentionally use 6-decimal values that mimic the CSV
// output precision; they are not meant to be π.
#[allow(clippy::approx_constant)]
mod tests {
    use super::*;
    use crate::metrics::Severity;
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
    fn record_writers_match_per_value_formatting() {
        // More distinct angles than the memo keeps, and QVFs both at and
        // beyond checkpoint precision.
        let records: Vec<InjectionRecord> = (0..300)
            .map(|i| InjectionRecord {
                point: InjectionPoint {
                    op_index: i / 40,
                    qubit: i % 3,
                },
                theta: (i % 97) as f64 * 0.0331,
                phi: [0.0, -0.0, 3.141592653589793, 1.0][i % 4],
                qvf: [0.25, 0.4499996, 0.123456789, 1.0, 0.0][i % 5] + (i as f64) * 1e-6,
            })
            .collect();
        let mut csv = String::from("op_index,qubit,theta,phi,qvf,severity\n");
        let mut json = String::from("[");
        for (i, r) in records.iter().enumerate() {
            let label = Severity::classify(crate::metrics::checkpoint_qvf(r.qvf)).label();
            csv += &format!(
                "{},{},{:.9},{:.9},{:.6},{label}\n",
                r.point.op_index, r.point.qubit, r.theta, r.phi, r.qvf
            );
            json += &format!(
                "{}{{\"op_index\":{},\"qubit\":{},\"theta\":{},\"phi\":{},\"qvf\":{},\"severity\":\"{label}\"}}",
                if i > 0 { "," } else { "" },
                r.point.op_index,
                r.point.qubit,
                json::num(r.theta),
                json::num(r.phi),
                json::num(r.qvf),
            );
        }
        json.push(']');
        assert_eq!(records_to_csv(&records), csv);
        assert_eq!(records_to_json(&records), json);
    }

    #[test]
    fn qvf_text_matches_float_formatting() {
        let render = |write: fn(&mut Vec<u8>, f64) -> io::Result<()>, v: f64| {
            render_to_string(16, |out| write(out, v))
        };
        // Every checkpointed QVF (multiples of 1e-6 in [0, 1]) and values
        // that take the formatting path: signed zero, unrounded, out of range.
        let checkpointed = (0..=QVF_SCALE).map(|n| f64::from(n) / 1e6);
        let others = [
            -0.0,
            0.4499996,
            0.0720640412,
            1e-7,
            1.0000001,
            -0.5,
            2.0,
            f64::NAN,
        ];
        for v in checkpointed.chain([1.0, 0.45, 0.55]).chain(others) {
            assert_eq!(render(write_qvf_fixed, v), format!("{v:.6}"), "{v}");
            assert_eq!(render(write_qvf_json, v), json::num(v), "{v}");
        }
        assert_eq!(qvf_units(0.45), Some(450_000));
        assert_eq!(qvf_units(-0.0), None);
    }

    #[test]
    fn json_numbers_stay_typed_as_floats() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -3.0,
            0.5,
            1e300,
            1e-300,
            4503599627370497.0,
            0.1 + 0.2,
        ] {
            let text = json::num(v);
            assert!(text.contains('.') && !text.contains('e'), "{text}");
            assert_eq!(
                text.parse::<f64>().unwrap().to_bits(),
                v.to_bits(),
                "{text}"
            );
        }
        assert_eq!(json::num(f64::INFINITY), "null");
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json::string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json::num(f64::NAN), "null");
        assert_eq!(json::num(2.0), "2.0");
    }
}
