//! Deterministic on-disk persistence of sweep reports.
//!
//! CI wants to diff experiment numbers across commits, which needs a format
//! that is (a) **stable** — field order and layout never depend on map
//! iteration or scheduling — and (b) **lossless** — every `f64` survives a
//! write→parse round trip bit-for-bit. This module serializes a
//! [`FigureReport`], the one report kind every sweep produces, to a
//! line-oriented plain-text format using Rust's shortest-round-trip float
//! formatting (`{}`), which guarantees `value.to_string().parse::<f64>() ==
//! value` exactly:
//!
//! ```text
//! mf-report v1 figure
//! id fig5
//! x-label number of tasks
//! y-label period (ms)
//! title m = 50, p = 5
//! series H2
//! point 50 30 1234.5678 12.25 1200 1280.5
//! point 60 -
//! end
//! ```
//!
//! A `point` line is `x count mean std_dev min max`, or `x -` for a point
//! where the method produced no result.
//!
//! Labels and titles may contain spaces (they end the line); embedded
//! newlines are rejected at write time rather than silently corrupting the
//! format. All figure binaries take `--out <path>` to write this format, and
//! the CI smoke sweeps of `ext_portfolio` and `ext_localsearch` each diff two
//! independently produced files.

use crate::report::{FigureReport, Series};
use crate::stats::Stats;
use std::fmt::Write as _;

/// Format magic of figure reports.
const FIGURE_HEADER: &str = "mf-report v1 figure";

/// Errors raised when writing or parsing a persisted report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// A label/title contained a newline and cannot be persisted losslessly.
    UnencodableText(String),
    /// The input is not a report in the expected format.
    Malformed {
        /// 1-based line number of the offending line (0 for global issues).
        line: usize,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::UnencodableText(text) => {
                write!(
                    f,
                    "text contains a newline and cannot be persisted: {text:?}"
                )
            }
            PersistError::Malformed { line, detail } => {
                write!(f, "malformed report at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Result alias for persistence operations.
pub type PersistResult<T> = std::result::Result<T, PersistError>;

fn check_line(text: &str) -> PersistResult<&str> {
    if text.contains('\n') || text.contains('\r') {
        Err(PersistError::UnencodableText(text.to_string()))
    } else {
        Ok(text)
    }
}

/// Serializes a figure report. Deterministic: equal reports produce equal
/// bytes, and every float round-trips exactly.
pub fn figure_to_text(report: &FigureReport) -> PersistResult<String> {
    let mut out = String::new();
    let _ = writeln!(out, "{FIGURE_HEADER}");
    let _ = writeln!(out, "id {}", check_line(&report.id)?);
    let _ = writeln!(out, "x-label {}", check_line(&report.x_label)?);
    let _ = writeln!(out, "y-label {}", check_line(&report.y_label)?);
    let _ = writeln!(out, "title {}", check_line(&report.title)?);
    for series in &report.series {
        let _ = writeln!(out, "series {}", check_line(&series.label)?);
        for (x, stats) in &series.points {
            match stats {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "point {x} {} {} {} {} {}",
                        s.count, s.mean, s.std_dev, s.min, s.max
                    );
                }
                None => {
                    let _ = writeln!(out, "point {x} -");
                }
            }
        }
    }
    let _ = writeln!(out, "end");
    Ok(out)
}

struct LineParser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> LineParser<'a> {
    fn new(text: &'a str) -> Self {
        LineParser {
            lines: text.lines().enumerate(),
        }
    }

    /// The next non-empty line as `(1-based number, content)`.
    fn next(&mut self) -> Option<(usize, &'a str)> {
        for (index, line) in self.lines.by_ref() {
            if !line.trim().is_empty() {
                return Some((index + 1, line));
            }
        }
        None
    }
}

fn malformed(line: usize, detail: impl Into<String>) -> PersistError {
    PersistError::Malformed {
        line,
        detail: detail.into(),
    }
}

fn expect_tag<'a>(entry: Option<(usize, &'a str)>, tag: &str) -> PersistResult<(usize, &'a str)> {
    let (line, content) = entry.ok_or_else(|| malformed(0, format!("missing `{tag}` line")))?;
    content
        .strip_prefix(tag)
        .and_then(|rest| {
            rest.strip_prefix(' ')
                .or(Some(rest).filter(|r| r.is_empty()))
        })
        .map(|rest| (line, rest))
        .ok_or_else(|| malformed(line, format!("expected `{tag} …`, found `{content}`")))
}

fn parse_f64(line: usize, token: &str) -> PersistResult<f64> {
    token
        .parse::<f64>()
        .map_err(|_| malformed(line, format!("not a float: `{token}`")))
}

fn parse_usize(line: usize, token: &str) -> PersistResult<usize> {
    token
        .parse::<usize>()
        .map_err(|_| malformed(line, format!("not an integer: `{token}`")))
}

/// Parses a figure report written by [`figure_to_text`].
pub fn figure_from_text(text: &str) -> PersistResult<FigureReport> {
    let mut parser = LineParser::new(text);
    expect_tag(parser.next(), FIGURE_HEADER)
        .map_err(|_| malformed(1, format!("missing `{FIGURE_HEADER}` header")))?;
    let (_, id) = expect_tag(parser.next(), "id")?;
    let (_, x_label) = expect_tag(parser.next(), "x-label")?;
    let (_, y_label) = expect_tag(parser.next(), "y-label")?;
    let (_, title) = expect_tag(parser.next(), "title")?;
    let mut series: Vec<Series> = Vec::new();
    loop {
        let (line, content) = parser
            .next()
            .ok_or_else(|| malformed(0, "missing `end` line"))?;
        if content == "end" {
            break;
        }
        if let Some(label) = content.strip_prefix("series ") {
            series.push(Series {
                label: label.to_string(),
                points: Vec::new(),
            });
        } else if let Some(rest) = content.strip_prefix("point ") {
            let current = series
                .last_mut()
                .ok_or_else(|| malformed(line, "`point` before any `series`"))?;
            let tokens: Vec<&str> = rest.split(' ').collect();
            match tokens.as_slice() {
                [x, "-"] => current.points.push((parse_f64(line, x)?, None)),
                [x, count, mean, std_dev, min, max] => current.points.push((
                    parse_f64(line, x)?,
                    Some(Stats {
                        count: parse_usize(line, count)?,
                        mean: parse_f64(line, mean)?,
                        std_dev: parse_f64(line, std_dev)?,
                        min: parse_f64(line, min)?,
                        max: parse_f64(line, max)?,
                    }),
                )),
                _ => return Err(malformed(line, format!("bad point line: `{content}`"))),
            }
        } else {
            return Err(malformed(line, format!("unexpected line: `{content}`")));
        }
    }
    Ok(FigureReport {
        id: id.to_string(),
        title: title.to_string(),
        x_label: x_label.to_string(),
        y_label: y_label.to_string(),
        series,
    })
}

/// Writes a figure report to a file (creating parent directories).
pub fn write_figure(path: &std::path::Path, report: &FigureReport) -> std::io::Result<()> {
    let text = figure_to_text(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> FigureReport {
        let stats = |mean: f64| Stats {
            count: 3,
            mean,
            std_dev: 0.1 + mean / 7.0,
            min: mean - 1.0,
            max: mean + 1.5,
        };
        FigureReport {
            id: "figX".into(),
            title: "m = 50, p = 5 — smoke".into(),
            x_label: "number of tasks".into(),
            y_label: "period (ms)".into(),
            series: vec![
                Series {
                    label: "H2".into(),
                    points: vec![(10.0, Some(stats(100.125))), (20.0, Some(stats(1.0 / 3.0)))],
                },
                Series {
                    label: "MIP (budget)".into(),
                    points: vec![(10.0, Some(stats(90.0))), (20.0, None)],
                },
            ],
        }
    }

    #[test]
    fn figure_round_trip_is_exact() {
        let report = sample_figure();
        let text = figure_to_text(&report).unwrap();
        let parsed = figure_from_text(&text).unwrap();
        assert_eq!(parsed, report);
        // Serialization is deterministic: same report, same bytes.
        assert_eq!(figure_to_text(&parsed).unwrap(), text);
    }

    #[test]
    fn figure_round_trip_preserves_awkward_floats() {
        let mut report = sample_figure();
        report.series[0].points[0] = (
            0.1,
            Some(Stats {
                count: 1,
                mean: f64::MIN_POSITIVE,
                std_dev: 1e300,
                min: -0.0,
                max: 12345.678901234567,
            }),
        );
        let text = figure_to_text(&report).unwrap();
        let parsed = figure_from_text(&text).unwrap();
        let (x, stats) = parsed.series[0].points[0];
        let (ex, expected) = report.series[0].points[0];
        assert_eq!(x.to_bits(), ex.to_bits());
        let (stats, expected) = (stats.unwrap(), expected.unwrap());
        assert_eq!(stats.mean.to_bits(), expected.mean.to_bits());
        assert_eq!(stats.std_dev.to_bits(), expected.std_dev.to_bits());
        assert_eq!(stats.min.to_bits(), expected.min.to_bits());
        assert_eq!(stats.max.to_bits(), expected.max.to_bits());
    }

    #[test]
    fn newlines_in_labels_are_rejected() {
        let mut report = sample_figure();
        report.series[0].label = "two\nlines".into();
        assert!(matches!(
            figure_to_text(&report),
            Err(PersistError::UnencodableText(_))
        ));
    }

    #[test]
    fn malformed_inputs_are_rejected_with_line_numbers() {
        assert!(figure_from_text("not a report").is_err());
        let mut text = figure_to_text(&sample_figure()).unwrap();
        text = text.replace("point 20 -", "point 20 oops");
        let err = figure_from_text(&text).unwrap_err();
        assert!(matches!(err, PersistError::Malformed { .. }), "{err}");
        // A report without its `end` marker is incomplete.
        let truncated = figure_to_text(&sample_figure()).unwrap().replace("end", "");
        assert!(figure_from_text(&truncated).is_err());
    }
}
