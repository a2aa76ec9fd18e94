//! Tabular log writer: the TSV/JSONL backend of per-request span traces.
//!
//! The span *schema* lives with the engines that emit spans (see
//! `llmsim-core`'s `trace` module); this module owns only the wire
//! formats. Both renderings are fully deterministic: cells are formatted
//! with `f64`'s shortest-roundtrip `Display`, so identical simulations
//! produce byte-identical files — the property the replay CI job diffs
//! against.

use std::fmt::Write as _;

/// One value in a tabular log row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A string cell (TSV: written raw with tabs/newlines replaced by
    /// spaces; JSONL: quoted and escaped).
    Str(String),
    /// An integer cell.
    Int(i64),
    /// A float cell. `NaN` marks "not applicable" (e.g. the dispatch time
    /// of a rejected request) and renders as `NaN` in TSV / `null` in
    /// JSONL.
    Num(f64),
}

impl Cell {
    /// Renders this cell as one TSV field (tabs/newlines in strings are
    /// replaced by spaces; floats use shortest-roundtrip `Display`).
    #[must_use]
    pub fn to_tsv_field(&self) -> String {
        let mut out = String::new();
        self.push_tsv_field(&mut out);
        out
    }

    /// Appends this cell's TSV field to `out` without an intermediate
    /// `String` (same bytes as [`Cell::to_tsv_field`]).
    fn push_tsv_field(&self, out: &mut String) {
        match self {
            Cell::Str(s) => {
                for (i, part) in s.split(['\t', '\n', '\r']).enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(part);
                }
            }
            // Writing to a `String` cannot fail.
            Cell::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Cell::Num(x) => {
                let _ = write!(out, "{x}");
            }
        }
    }

    /// Renders this cell as one JSON value (`NaN`/infinities become
    /// `null`, strings are escaped).
    #[must_use]
    pub fn to_json_value(&self) -> String {
        match self {
            Cell::Str(s) => json_escape(s),
            Cell::Int(i) => i.to_string(),
            Cell::Num(x) if x.is_finite() => x.to_string(),
            Cell::Num(_) => "null".to_string(),
        }
    }
}

/// Renders one TSV data line (no trailing newline) from a row of cells.
#[must_use]
pub fn tsv_line(cells: &[Cell]) -> String {
    let mut out = String::new();
    push_tsv_line(&mut out, cells);
    out
}

/// Appends one TSV data line (no trailing newline) to `out`, writing each
/// field in place rather than through a `String` per field.
///
/// [`TabularLog::to_tsv`] and the streaming span sink in `llmsim-core`
/// both go through this function, which is what makes a streamed file
/// byte-identical to a buffered render of the same rows.
pub fn push_tsv_line(out: &mut String, cells: &[Cell]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        cell.push_tsv_field(out);
    }
}

/// Renders one JSONL object line (no trailing newline) from column names
/// and a row of cells. Shared by [`TabularLog::to_jsonl`] and the
/// streaming span sink for the same byte-identity reason as [`tsv_line`].
///
/// # Panics
///
/// Panics if `columns` and `cells` have different lengths.
#[must_use]
pub fn jsonl_line(columns: &[String], cells: &[Cell]) -> String {
    assert_eq!(
        columns.len(),
        cells.len(),
        "row arity {} != column count {}",
        cells.len(),
        columns.len()
    );
    let mut out = String::new();
    out.push('{');
    for (i, (col, cell)) in columns.iter().zip(cells).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_escape(col));
        out.push(':');
        out.push_str(&cell.to_json_value());
    }
    out.push('}');
    out
}

/// Escapes a string as a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A fixed-arity table of [`Cell`]s renderable as TSV or JSONL.
#[derive(Debug, Clone, PartialEq)]
pub struct TabularLog {
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl TabularLog {
    /// Creates an empty log with the given column names.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    #[must_use]
    pub fn new(columns: Vec<String>) -> Self {
        assert!(!columns.is_empty(), "a tabular log needs columns");
        TabularLog {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the header.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity {} != column count {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Data rows recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no data rows have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as tab-separated values: one header line, one line per row,
    /// `\n` line endings.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = self.columns.join("\t");
        out.push('\n');
        for row in &self.rows {
            push_tsv_line(&mut out, row);
            out.push('\n');
        }
        out
    }

    /// Renders as JSON Lines: one object per row keyed by column name.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&jsonl_line(&self.columns, row));
            out.push('\n');
        }
        out
    }
}

/// Validates that `text` is a well-formed TSV log: a non-empty header and
/// at least one data row, every row with the header's arity. Returns the
/// data-row count.
///
/// # Errors
///
/// Returns a description of the first structural problem found — the
/// check the CI replay job fails on.
pub fn validate_tsv(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| "empty file".to_string())?;
    let arity = header.split('\t').count();
    if header.trim().is_empty() {
        return Err("blank header line".into());
    }
    let mut rows = 0usize;
    for (i, line) in lines.enumerate() {
        let got = line.split('\t').count();
        if got != arity {
            return Err(format!(
                "row {} has {got} fields, header has {arity}",
                i + 1
            ));
        }
        rows += 1;
    }
    if rows == 0 {
        return Err("no data rows".into());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TabularLog {
        let mut t = TabularLog::new(vec!["id".into(), "name".into(), "lat_s".into()]);
        t.row(vec![Cell::Int(0), Cell::Str("spr".into()), Cell::Num(0.25)]);
        t.row(vec![
            Cell::Int(1),
            Cell::Str("a100".into()),
            Cell::Num(f64::NAN),
        ]);
        t
    }

    #[test]
    fn tsv_round_trip_structure() {
        let t = sample();
        let tsv = t.to_tsv();
        assert_eq!(tsv, "id\tname\tlat_s\n0\tspr\t0.25\n1\ta100\tNaN\n");
        assert_eq!(validate_tsv(&tsv), Ok(2));
    }

    #[test]
    fn jsonl_escapes_and_nulls() {
        let mut t = TabularLog::new(vec!["k".into(), "v".into()]);
        t.row(vec![Cell::Str("a\"b\\c\nd".into()), Cell::Num(f64::NAN)]);
        assert_eq!(t.to_jsonl(), "{\"k\":\"a\\\"b\\\\c\\nd\",\"v\":null}\n");
    }

    #[test]
    fn tsv_replaces_embedded_tabs() {
        let mut t = TabularLog::new(vec!["s".into()]);
        t.row(vec![Cell::Str("a\tb".into())]);
        assert_eq!(t.to_tsv(), "s\na b\n");
    }

    #[test]
    fn validation_rejects_malformed_logs() {
        assert!(validate_tsv("").is_err());
        assert!(validate_tsv("a\tb\n").is_err(), "no data rows");
        assert!(validate_tsv("a\tb\n1\n").is_err(), "arity mismatch");
        assert_eq!(validate_tsv("a\tb\n1\t2\n"), Ok(1));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics_at_append() {
        let mut t = TabularLog::new(vec!["a".into(), "b".into()]);
        t.row(vec![Cell::Int(1)]);
    }

    #[test]
    fn golden_tsv_and_jsonl_bytes() {
        // Exact wire bytes for the edge cases of every cell kind. The
        // streaming-vs-buffered proptest shares the line formatter, so it
        // cannot catch a change to it; this test can.
        let mut t = TabularLog::new(vec![
            "nan".into(),
            "neg_zero".into(),
            "tiny".into(),
            "huge".into(),
            "inf".into(),
            "min".into(),
            "s".into(),
        ]);
        t.row(vec![
            Cell::Num(f64::NAN),
            Cell::Num(-0.0),
            Cell::Num(1e-7),
            Cell::Num(1e21),
            Cell::Num(f64::INFINITY),
            Cell::Int(i64::MIN),
            Cell::Str("a\tb\nc".into()),
        ]);
        t.row(vec![
            Cell::Num(0.25),
            Cell::Num(0.0),
            Cell::Num(-1.5),
            Cell::Num(123_456_789.0),
            Cell::Num(f64::NEG_INFINITY),
            Cell::Int(i64::MAX),
            Cell::Str(String::new()),
        ]);
        assert_eq!(
            t.to_tsv(),
            "nan\tneg_zero\ttiny\thuge\tinf\tmin\ts\n\
             NaN\t-0\t0.0000001\t1000000000000000000000\tinf\t-9223372036854775808\ta b c\n\
             0.25\t0\t-1.5\t123456789\t-inf\t9223372036854775807\t\n"
        );
        assert_eq!(
            t.to_jsonl(),
            "{\"nan\":null,\"neg_zero\":-0,\"tiny\":0.0000001,\"huge\":1000000000000000000000,\
             \"inf\":null,\"min\":-9223372036854775808,\"s\":\"a\\tb\\nc\"}\n\
             {\"nan\":0.25,\"neg_zero\":0,\"tiny\":-1.5,\"huge\":123456789,\
             \"inf\":null,\"min\":9223372036854775807,\"s\":\"\"}\n"
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().to_tsv(), sample().to_tsv());
        assert_eq!(sample().to_jsonl(), sample().to_jsonl());
    }
}
