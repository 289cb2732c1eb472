//! Docs-drift gate: cross-check figures quoted in the prose docs
//! against the emitted `bench_results/*.json` rows.
//!
//! Prose that quotes a number carries an invisible HTML-comment marker
//! tying it to the row it came from:
//!
//! ```text
//! <!-- check: file=fig7_tileio_groups series="ParColl-4" x=4 value=1534.9 -->
//! ```
//!
//! `report --check-docs` re-reads the markers and fails when the quoted
//! `value` no longer matches the row's `y` (or, with `extra=<key>`, that
//! extra field) within `rel` relative tolerance (default 0.5% — quoted
//! numbers are rounded for prose). A doc set with *zero* markers fails
//! too: the gate guarding nothing is itself a drift.

use crate::table::{rows_from_json, Row};
use std::path::Path;

/// One `<!-- check: ... -->` marker found in a doc.
#[derive(Debug, Clone, PartialEq)]
pub struct DocCheck {
    /// Doc the marker lives in (for reporting).
    pub doc: String,
    /// 1-indexed line of the marker.
    pub line: usize,
    /// Row file stem under the results directory.
    pub file: String,
    /// Row series to match.
    pub series: String,
    /// Row x to match.
    pub x: f64,
    /// The value the prose quotes.
    pub value: f64,
    /// Relative tolerance for the comparison.
    pub rel: f64,
    /// Check this extra field instead of `y`.
    pub extra: Option<String>,
}

/// Default relative tolerance: prose rounds to a few significant digits.
pub const DEFAULT_REL: f64 = 0.005;

fn unquote(v: &str) -> &str {
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or(v)
}

/// Split a marker body into `key=value` tokens, honoring quoted values
/// with spaces (`series="Cray/ext2ph"` is one token).
fn tokens(body: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let Some(eq) = rest.find('=') else { break };
        let key = rest[..eq].trim();
        let after = &rest[eq + 1..];
        let (value, tail) = if let Some(q) = after.strip_prefix('"') {
            match q.find('"') {
                Some(end) => (&q[..end], &q[end + 1..]),
                None => (q, ""),
            }
        } else {
            match after.find(char::is_whitespace) {
                Some(end) => (&after[..end], &after[end..]),
                None => (after, ""),
            }
        };
        out.push((key, value));
        rest = tail.trim_start();
    }
    out
}

/// Extract every check marker from `text` (one doc). Malformed markers
/// are errors, not skips — a typo'd marker silently checks nothing.
pub fn parse_markers(doc: &str, text: &str) -> Result<Vec<DocCheck>, String> {
    let mut checks = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("<!-- check:") {
            let body_start = at + "<!-- check:".len();
            let Some(end) = rest[body_start..].find("-->") else {
                return Err(format!("{doc}:{}: unterminated check marker", i + 1));
            };
            let body = &rest[body_start..body_start + end];
            let mut check = DocCheck {
                doc: doc.to_string(),
                line: i + 1,
                file: String::new(),
                series: String::new(),
                x: f64::NAN,
                value: f64::NAN,
                rel: DEFAULT_REL,
                extra: None,
            };
            for (key, raw) in tokens(body) {
                let v = unquote(raw);
                let num = || {
                    v.parse::<f64>()
                        .map_err(|e| format!("{doc}:{}: bad {key}={v:?}: {e}", i + 1))
                };
                match key {
                    "file" => check.file = v.to_string(),
                    "series" => check.series = v.to_string(),
                    "x" => check.x = num()?,
                    "value" => check.value = num()?,
                    "rel" => check.rel = num()?,
                    "extra" => check.extra = Some(v.to_string()),
                    other => {
                        return Err(format!("{doc}:{}: unknown check key {other:?}", i + 1))
                    }
                }
            }
            if check.file.is_empty() || check.series.is_empty() {
                return Err(format!("{doc}:{}: check needs file= and series=", i + 1));
            }
            if check.x.is_nan() || check.value.is_nan() {
                return Err(format!("{doc}:{}: check needs x= and value=", i + 1));
            }
            checks.push(check);
            rest = &rest[body_start + end..];
        }
    }
    Ok(checks)
}

fn find_row<'a>(rows: &'a [Row], check: &DocCheck) -> Option<&'a Row> {
    rows.iter()
        .find(|r| r.series == check.series && (r.x - check.x).abs() < 1e-9)
}

/// Verify `checks` against the row documents under `results_dir`.
/// Returns human-readable failures (empty = all quoted figures hold).
pub fn verify(checks: &[DocCheck], results_dir: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for c in checks {
        let at = format!("{}:{}", c.doc, c.line);
        let path = results_dir.join(format!("{}.json", c.file));
        let Ok(text) = std::fs::read_to_string(&path) else {
            failures.push(format!("{at}: missing results file {}", path.display()));
            continue;
        };
        let Some(rows) = rows_from_json(&text) else {
            failures.push(format!("{at}: {} is not a row document", path.display()));
            continue;
        };
        let Some(row) = find_row(&rows, c) else {
            failures.push(format!(
                "{at}: no row {:?} x={} in {}",
                c.series, c.x, c.file
            ));
            continue;
        };
        let actual = match &c.extra {
            None => Some(row.y),
            Some(key) => row.extra.get(key).copied(),
        };
        let Some(actual) = actual else {
            failures.push(format!(
                "{at}: row {:?} x={} has no extra {:?}",
                c.series,
                c.x,
                c.extra.as_deref().unwrap_or("")
            ));
            continue;
        };
        let tol = c.rel * c.value.abs().max(f64::MIN_POSITIVE);
        if (actual - c.value).abs() > tol {
            let what = c.extra.as_deref().unwrap_or("y");
            failures.push(format!(
                "{at}: {} {:?} x={} {what}: doc quotes {} but rows say {actual} (> {:.2}% off)",
                c.file,
                c.series,
                c.x,
                c.value,
                c.rel * 100.0,
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::rows_to_json;

    fn results_dir(rows: &[Row]) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bench_doccheck_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("figX.json"), rows_to_json(rows)).unwrap();
        dir
    }

    #[test]
    fn marker_parses_with_quoted_series_and_defaults() {
        let text = "prose\n<!-- check: file=figX series=\"Cray/ext2ph\" x=4 value=1534.9 -->\n";
        let checks = parse_markers("DOC.md", text).unwrap();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].series, "Cray/ext2ph");
        assert_eq!(checks[0].line, 2);
        assert_eq!(checks[0].rel, DEFAULT_REL);
        assert!(checks[0].extra.is_none());
    }

    #[test]
    fn malformed_marker_is_an_error() {
        assert!(parse_markers("D.md", "<!-- check: series=\"a\" x=1 value=2 -->").is_err());
        assert!(parse_markers("D.md", "<!-- check: file=f series=\"a\" x=1").is_err());
        assert!(parse_markers("D.md", "<!-- check: file=f series=\"a\" x=1 value=nope -->").is_err());
    }

    #[test]
    fn verify_passes_within_tolerance_and_fails_on_drift() {
        let rows = vec![Row::new("s", 4.0, 1534.9047, "MB/s").with("sync_s", 0.00123)];
        let dir = results_dir(&rows);
        let ok = DocCheck {
            doc: "D.md".into(),
            line: 1,
            file: "figX".into(),
            series: "s".into(),
            x: 4.0,
            value: 1534.9,
            rel: DEFAULT_REL,
            extra: None,
        };
        assert!(verify(std::slice::from_ref(&ok), &dir).is_empty());
        let extra = DocCheck {
            value: 0.0012,
            rel: 0.05,
            extra: Some("sync_s".into()),
            ..ok.clone()
        };
        assert!(verify(&[extra], &dir).is_empty());
        let drifted = DocCheck {
            value: 1700.0,
            ..ok
        };
        let fails = verify(&[drifted], &dir);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("doc quotes 1700"), "{}", fails[0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
