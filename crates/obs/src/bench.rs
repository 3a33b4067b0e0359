//! The row format `benchmark/RESULTS.json` uses: a machine-readable list
//! of measurements.
//!
//! The repo benchmark (`benchmark/`, `bench run`) writes its results as a
//! JSON array of `{"metric", "value", "unit", "config"}` objects — one row
//! per measurement — so `bench compare` / `bench check` and scripts can
//! parse them without a JSON dependency. [`render_bench_json`] and
//! [`parse_bench_json`] are exact inverses for every finite row.
//!
//! ```
//! use lego_obs::bench::{render_bench_json, parse_bench_json, BenchRow};
//!
//! let rows = vec![BenchRow::new("evaluate_single", 123456.0, "ns", "lenet@lego_256")];
//! let text = render_bench_json(&rows);
//! assert_eq!(parse_bench_json(&text).unwrap(), rows);
//! ```

use std::fmt;

/// One benchmark measurement row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Stable metric name, e.g. `evaluate_single_cold_ns`.
    pub metric: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`, e.g. `ns`, `evals/s`, `bytes`.
    pub unit: String,
    /// Workload/hardware configuration the measurement was taken under,
    /// e.g. `resnet50@lego_256 mode=deterministic`.
    pub config: String,
}

impl BenchRow {
    /// Build a row. Non-finite values are clamped to `0` so the rendered
    /// document is always valid JSON.
    pub fn new(
        metric: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
        config: impl Into<String>,
    ) -> Self {
        BenchRow {
            metric: metric.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.into(),
            config: config.into(),
        }
    }
}

/// Render rows as a stable JSON array (one object per line, sorted-input
/// order preserved).
pub fn render_bench_json(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    out.push_str("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {\"metric\": \"");
        escape_into(&mut out, &row.metric);
        out.push_str("\", \"value\": ");
        out.push_str(&fmt_f64(if row.value.is_finite() {
            row.value
        } else {
            0.0
        }));
        out.push_str(", \"unit\": \"");
        escape_into(&mut out, &row.unit);
        out.push_str("\", \"config\": \"");
        escape_into(&mut out, &row.config);
        out.push_str("\"}");
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Why [`parse_bench_json`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchParseError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for BenchParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bench json error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for BenchParseError {}

/// Parse a document produced by [`render_bench_json`] (or any JSON array
/// of objects). Unknown fields are ignored — including structured values
/// (nested objects/arrays, booleans, `null`), which are skipped, so the
/// parser also validates documents like Chrome trace-event JSON whose
/// events carry an `args` object. Missing fields default (`value` to 0,
/// strings to empty). Never panics on malformed input.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRow>, BenchParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'[')?;
    let mut rows = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            rows.push(p.object()?);
            p.skip_ws();
            match p.next() {
                Some(b',') => p.skip_ws(),
                Some(b']') => break,
                _ => return Err(p.err("expected ',' or ']' after object")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after array"));
    }
    Ok(rows)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> BenchParseError {
        BenchParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), BenchParseError> {
        if self.next() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn object(&mut self) -> Result<BenchRow, BenchParseError> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut row = BenchRow::new("", 0.0, "", "");
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(row);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match self.peek() {
                Some(b'"') => {
                    let value = self.string()?;
                    match key.as_str() {
                        "metric" => row.metric = value,
                        "unit" => row.unit = value,
                        "config" => row.config = value,
                        _ => {}
                    }
                }
                Some(b'{' | b'[' | b't' | b'f' | b'n') => self.skip_value()?,
                _ => {
                    let value = self.number()?;
                    if key == "value" {
                        row.value = value;
                    }
                }
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => return Ok(row),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, BenchParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    }
                }
            }
        }
    }

    /// Skip one JSON value of any shape (used for unknown structured
    /// fields like a trace event's `args` object).
    fn skip_value(&mut self) -> Result<(), BenchParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b'{') | Some(b'[') => {
                let (open, close) = if self.peek() == Some(b'{') {
                    (b'{', b'}')
                } else {
                    (b'[', b']')
                };
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(close) {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    if open == b'{' {
                        self.skip_ws();
                        self.string()?;
                        self.skip_ws();
                        self.expect(b':')?;
                    }
                    self.skip_value()?;
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b) if b == close => return Ok(()),
                        _ => return Err(self.err("expected ',' or close in value")),
                    }
                }
            }
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'n') => self.keyword("null"),
            _ => {
                self.number()?;
                Ok(())
            }
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), BenchParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<f64, BenchParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| self.err("malformed number"))
    }
}

/// Format an `f64` for JSON output: shortest round-trip decimal, with a
/// plain integer rendering for integral values. Deterministic.
pub(crate) fn fmt_f64(v: f64) -> String {
    let mut s = format!("{v}");
    if s == "-0" {
        s = "0".to_string();
    }
    s
}

/// JSON-escape `s` into `out` (quotes, backslashes, control characters).
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact() {
        let rows = vec![
            BenchRow::new("evaluate_single_cold", 123456.0, "ns", "lenet@lego_256"),
            BenchRow::new("batch_throughput", 12.5, "evals/s", "zoo mode=wall_clock"),
            BenchRow::new("weird \"name\"\n", -0.75, "x\\y", "tabs\there"),
        ];
        let text = render_bench_json(&rows);
        assert_eq!(parse_bench_json(&text).unwrap(), rows);
        // Render is deterministic.
        assert_eq!(render_bench_json(&rows), text);
    }

    #[test]
    fn empty_array() {
        assert_eq!(parse_bench_json("[]").unwrap(), vec![]);
        assert_eq!(parse_bench_json(&render_bench_json(&[])).unwrap(), vec![]);
    }

    #[test]
    fn malformed_inputs_error_without_panic() {
        for bad in [
            "",
            "[",
            "[{",
            "[{}",
            "[{\"metric\": }]",
            "[{\"value\": nope}]",
            "[{\"metric\": \"unterminated}]",
            "[{}] trailing",
            "{\"metric\": \"not an array\"}",
            "[{\"metric\": \"a\"} {\"metric\": \"b\"}]",
        ] {
            assert!(parse_bench_json(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn unknown_fields_ignored_missing_fields_default() {
        let rows =
            parse_bench_json("[{\"metric\": \"m\", \"extra\": 7, \"note\": \"hi\"}]").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "m");
        assert_eq!(rows[0].value, 0.0);
        assert_eq!(rows[0].unit, "");
    }

    #[test]
    fn structured_unknown_fields_are_skipped() {
        // The shape of a Chrome trace-event row: nested args object,
        // plus booleans/null/arrays for good measure.
        let text = "[{\"metric\": \"m\", \"args\": {\"request_id\": 7, \"nested\": {\"deep\": [1, 2, {\"x\": null}]}}, \"flag\": true, \"off\": false, \"none\": null, \"list\": [], \"value\": 3}]";
        let rows = parse_bench_json(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "m");
        assert_eq!(rows[0].value, 3.0);
        // Unterminated nesting still errors without panicking.
        assert!(parse_bench_json("[{\"args\": {\"a\": [1, }]").is_err());
        assert!(parse_bench_json("[{\"flag\": tru}]").is_err());
    }

    #[test]
    fn scientific_notation_parses() {
        let rows = parse_bench_json("[{\"metric\": \"m\", \"value\": 1.5e3}]").unwrap();
        assert_eq!(rows[0].value, 1500.0);
    }

    #[test]
    fn non_finite_values_clamp_to_zero() {
        let row = BenchRow::new("m", f64::NAN, "ns", "");
        assert_eq!(row.value, 0.0);
        let text = render_bench_json(&[BenchRow {
            metric: "m".into(),
            value: f64::INFINITY,
            unit: "ns".into(),
            config: String::new(),
        }]);
        assert_eq!(parse_bench_json(&text).unwrap()[0].value, 0.0);
    }
}
