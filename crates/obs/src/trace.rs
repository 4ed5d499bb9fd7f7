//! The append-only `mf-trace v1` event log.
//!
//! Styled after the experiment tier's `mf-report v1`: a versioned header
//! line, one whitespace-delimited record per line, and a counted `end`
//! footer so truncation is detectable. The grammar (`<…>` are unsigned
//! decimal integers unless noted):
//!
//! ```text
//! mf-trace v1
//! span <name> <start-ns> <duration-ns>
//! slow <command> <duration-ns> <threshold-ns>
//! commit <cell> <round> move|swap <a> <b> <period-bits> <improved:0|1>
//! round <cell> <round> <period-bits|-> <done:0|1>
//! cache <cell> <round> <probes> <evaluations> <skips> <reuses> <rescales>
//! dropped <class> <count>
//! end <event-count>
//! ```
//!
//! `cache` and `dropped` records are no longer written (the sweep cache and
//! its sampling cap are gone) but still parse, so older traces read.
//!
//! `<name>`/`<command>`/`<class>` are single tokens (non-empty, no
//! whitespace or control characters). Periods travel as the IEEE-754 bit
//! pattern of the `f64` (`<period-bits>`), exactly like the search
//! engine's commit trace, so a traced solve can be compared bit-for-bit
//! against `enable_commit_trace`. Serialization is canonical:
//! write→parse→write is byte-identical, pinned by tests here and used by
//! the `microfactory trace` CLI verifier.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Format tag on the first line of every trace file.
pub const TRACE_FORMAT: &str = "mf-trace v1";

/// One record in an `mf-trace v1` log.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A closed timing span.
    Span {
        /// Span name (single token).
        name: String,
        /// Clock reading at open.
        start_ns: u64,
        /// Nanoseconds between open and close.
        duration_ns: u64,
    },
    /// A request that exceeded the server's slow-request threshold.
    Slow {
        /// Protocol command keyword.
        command: String,
        /// Measured latency.
        duration_ns: u64,
        /// The threshold it exceeded.
        threshold_ns: u64,
    },
    /// A committed search step (move or swap), with the period it reached.
    Commit {
        /// Portfolio cell the step belongs to (0 outside the portfolio).
        cell: u64,
        /// Portfolio round (0 outside the portfolio).
        round: u64,
        /// `true` for a swap, `false` for a move.
        swap: bool,
        /// Moved task (moves) or first swapped task.
        a: u64,
        /// Destination machine (moves) or second swapped task.
        b: u64,
        /// IEEE-754 bits of the committed period.
        period_bits: u64,
        /// Whether this commit improved the engine's incumbent.
        improved: bool,
    },
    /// A portfolio cell finishing a round.
    Round {
        /// Portfolio cell.
        cell: u64,
        /// Completed round index.
        round: u64,
        /// IEEE-754 bits of the cell's period after the round, if the
        /// cell holds a mapping.
        period_bits: Option<u64>,
        /// Whether the cell is done (seed failed or converged).
        done: bool,
    },
    /// Sweep-cache outcome counters for one search run. Nothing writes
    /// these any more; they still parse so older trace files read.
    Cache {
        /// Portfolio cell.
        cell: u64,
        /// Portfolio round.
        round: u64,
        /// Candidates considered by sweeps.
        probes: u64,
        /// Candidates re-evaluated.
        evaluations: u64,
        /// Candidates skipped via certified cached scores.
        skips: u64,
        /// Cached scores reused verbatim.
        reuses: u64,
        /// Cached deltas rescaled by the chain fast path.
        rescales: u64,
    },
    /// Events withheld by a sampling cap. Nothing writes these any more;
    /// they still parse so older trace files read.
    Dropped {
        /// Which event class was capped (single token).
        class: String,
        /// How many events were dropped.
        count: u64,
    },
}

/// Why a trace document could not be written or read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A name/command/class token was empty or contained whitespace or
    /// control characters, so it cannot survive the line format.
    UnencodableToken(String),
    /// The text being parsed is not a valid `mf-trace v1` document.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnencodableToken(token) => {
                write!(f, "token {token:?} cannot be encoded in mf-trace v1")
            }
            TraceError::Malformed { line, detail } => {
                write!(f, "malformed mf-trace v1 document at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

fn malformed(line: usize, detail: impl Into<String>) -> TraceError {
    TraceError::Malformed {
        line,
        detail: detail.into(),
    }
}

fn check_token(token: &str) -> Result<(), TraceError> {
    if token.is_empty() || token.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(TraceError::UnencodableToken(token.to_string()));
    }
    Ok(())
}

fn event_line(event: &TraceEvent) -> Result<String, TraceError> {
    Ok(match event {
        TraceEvent::Span {
            name,
            start_ns,
            duration_ns,
        } => {
            check_token(name)?;
            format!("span {name} {start_ns} {duration_ns}")
        }
        TraceEvent::Slow {
            command,
            duration_ns,
            threshold_ns,
        } => {
            check_token(command)?;
            format!("slow {command} {duration_ns} {threshold_ns}")
        }
        TraceEvent::Commit {
            cell,
            round,
            swap,
            a,
            b,
            period_bits,
            improved,
        } => {
            let kind = if *swap { "swap" } else { "move" };
            let improved = u64::from(*improved);
            format!("commit {cell} {round} {kind} {a} {b} {period_bits} {improved}")
        }
        TraceEvent::Round {
            cell,
            round,
            period_bits,
            done,
        } => {
            let period = match period_bits {
                Some(bits) => bits.to_string(),
                None => "-".to_string(),
            };
            let done = u64::from(*done);
            format!("round {cell} {round} {period} {done}")
        }
        TraceEvent::Cache {
            cell,
            round,
            probes,
            evaluations,
            skips,
            reuses,
            rescales,
        } => {
            format!("cache {cell} {round} {probes} {evaluations} {skips} {reuses} {rescales}")
        }
        TraceEvent::Dropped { class, count } => {
            check_token(class)?;
            format!("dropped {class} {count}")
        }
    })
}

/// Serializes events as a complete `mf-trace v1` document (header, one
/// line per event, counted `end` footer). Canonical: parsing the result
/// and re-serializing reproduces it byte for byte.
pub fn events_to_text(events: &[TraceEvent]) -> Result<String, TraceError> {
    let mut text = String::new();
    text.push_str(TRACE_FORMAT);
    text.push('\n');
    for event in events {
        text.push_str(&event_line(event)?);
        text.push('\n');
    }
    text.push_str(&format!("end {}\n", events.len()));
    Ok(text)
}

struct LineParser<'t> {
    lines: std::iter::Enumerate<std::str::Lines<'t>>,
}

impl<'t> LineParser<'t> {
    fn new(text: &'t str) -> Self {
        LineParser {
            lines: text.lines().enumerate(),
        }
    }

    /// Next non-empty line as `(1-based line number, content)`.
    fn next(&mut self) -> Option<(usize, &'t str)> {
        for (index, line) in self.lines.by_ref() {
            if !line.trim().is_empty() {
                return Some((index + 1, line));
            }
        }
        None
    }
}

fn parse_u64(line: usize, field: &str, token: &str) -> Result<u64, TraceError> {
    token.parse::<u64>().map_err(|_| {
        malformed(
            line,
            format!("{field} is not an unsigned integer: {token:?}"),
        )
    })
}

fn parse_flag(line: usize, field: &str, token: &str) -> Result<bool, TraceError> {
    match token {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(malformed(
            line,
            format!("{field} must be 0 or 1: {token:?}"),
        )),
    }
}

fn expect_fields(
    line: usize,
    tag: &str,
    fields: &[&str],
    expected: usize,
) -> Result<(), TraceError> {
    if fields.len() != expected {
        return Err(malformed(
            line,
            format!(
                "{tag} record needs {expected} fields after the tag, got {}",
                fields.len()
            ),
        ));
    }
    Ok(())
}

fn parse_event(line: usize, content: &str) -> Result<TraceEvent, TraceError> {
    let mut tokens = content.split_whitespace();
    let tag = tokens.next().expect("next() only yields non-empty lines");
    let fields: Vec<&str> = tokens.collect();
    match tag {
        "span" => {
            expect_fields(line, "span", &fields, 3)?;
            check_token(fields[0])?;
            Ok(TraceEvent::Span {
                name: fields[0].to_string(),
                start_ns: parse_u64(line, "start-ns", fields[1])?,
                duration_ns: parse_u64(line, "duration-ns", fields[2])?,
            })
        }
        "slow" => {
            expect_fields(line, "slow", &fields, 3)?;
            check_token(fields[0])?;
            Ok(TraceEvent::Slow {
                command: fields[0].to_string(),
                duration_ns: parse_u64(line, "duration-ns", fields[1])?,
                threshold_ns: parse_u64(line, "threshold-ns", fields[2])?,
            })
        }
        "commit" => {
            expect_fields(line, "commit", &fields, 7)?;
            let swap = match fields[2] {
                "move" => false,
                "swap" => true,
                other => {
                    return Err(malformed(
                        line,
                        format!("commit kind must be move or swap: {other:?}"),
                    ))
                }
            };
            Ok(TraceEvent::Commit {
                cell: parse_u64(line, "cell", fields[0])?,
                round: parse_u64(line, "round", fields[1])?,
                swap,
                a: parse_u64(line, "a", fields[3])?,
                b: parse_u64(line, "b", fields[4])?,
                period_bits: parse_u64(line, "period-bits", fields[5])?,
                improved: parse_flag(line, "improved", fields[6])?,
            })
        }
        "round" => {
            expect_fields(line, "round", &fields, 4)?;
            let period_bits = if fields[2] == "-" {
                None
            } else {
                Some(parse_u64(line, "period-bits", fields[2])?)
            };
            Ok(TraceEvent::Round {
                cell: parse_u64(line, "cell", fields[0])?,
                round: parse_u64(line, "round", fields[1])?,
                period_bits,
                done: parse_flag(line, "done", fields[3])?,
            })
        }
        "cache" => {
            expect_fields(line, "cache", &fields, 7)?;
            Ok(TraceEvent::Cache {
                cell: parse_u64(line, "cell", fields[0])?,
                round: parse_u64(line, "round", fields[1])?,
                probes: parse_u64(line, "probes", fields[2])?,
                evaluations: parse_u64(line, "evaluations", fields[3])?,
                skips: parse_u64(line, "skips", fields[4])?,
                reuses: parse_u64(line, "reuses", fields[5])?,
                rescales: parse_u64(line, "rescales", fields[6])?,
            })
        }
        "dropped" => {
            expect_fields(line, "dropped", &fields, 2)?;
            check_token(fields[0])?;
            Ok(TraceEvent::Dropped {
                class: fields[0].to_string(),
                count: parse_u64(line, "count", fields[1])?,
            })
        }
        other => Err(malformed(line, format!("unknown record tag {other:?}"))),
    }
}

/// Parses a complete `mf-trace v1` document produced by
/// [`events_to_text`] or a finished [`TraceWriter`].
pub fn events_from_text(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let mut parser = LineParser::new(text);
    let (line, header) = parser
        .next()
        .ok_or_else(|| malformed(1, "empty document"))?;
    if header.trim() != TRACE_FORMAT {
        return Err(malformed(
            line,
            format!("expected header {TRACE_FORMAT:?}, got {header:?}"),
        ));
    }
    let mut events = Vec::new();
    loop {
        let (line, content) = parser
            .next()
            .ok_or_else(|| malformed(line, "missing end footer"))?;
        let mut tokens = content.split_whitespace();
        let tag = tokens.next().expect("non-empty line");
        if tag == "end" {
            let fields: Vec<&str> = tokens.collect();
            expect_fields(line, "end", &fields, 1)?;
            let declared = parse_u64(line, "event-count", fields[0])?;
            if declared != events.len() as u64 {
                return Err(malformed(
                    line,
                    format!(
                        "end declares {declared} events, document has {}",
                        events.len()
                    ),
                ));
            }
            if let Some((line, content)) = parser.next() {
                return Err(malformed(
                    line,
                    format!("trailing content after end footer: {content:?}"),
                ));
            }
            return Ok(events);
        }
        events.push(parse_event(line, content)?);
    }
}

/// Streams events to a file: header at create, one line per
/// [`append`](TraceWriter::append), counted footer at
/// [`finish`](TraceWriter::finish).
#[derive(Debug)]
pub struct TraceWriter {
    file: BufWriter<File>,
    path: PathBuf,
    count: u64,
}

impl TraceWriter {
    /// Creates (truncating) `path` and writes the format header.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = BufWriter::new(File::create(&path)?);
        writeln!(file, "{TRACE_FORMAT}")?;
        Ok(TraceWriter {
            file,
            path,
            count: 0,
        })
    }

    /// The path the trace is being written to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event.
    pub fn append(&mut self, event: &TraceEvent) -> io::Result<()> {
        let line = event_line(event)
            .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error.to_string()))?;
        writeln!(self.file, "{line}")?;
        self.count += 1;
        Ok(())
    }

    /// Writes the counted `end` footer and flushes. The document parses
    /// with [`events_from_text`] only after this.
    pub fn finish(mut self) -> io::Result<()> {
        writeln!(self.file, "end {}", self.count)?;
        self.file.flush()
    }
}

/// A [`TraceWriter`] behind a mutex, shareable across the server's worker
/// engines and connection threads. Appends are best-effort: the first I/O
/// error disables the writer (observability must never take down serving),
/// and [`finish`](SharedTraceWriter::finish) reports whether everything
/// made it to disk.
#[derive(Debug)]
pub struct SharedTraceWriter {
    inner: Mutex<SharedState>,
}

#[derive(Debug)]
struct SharedState {
    writer: Option<TraceWriter>,
    error: Option<io::Error>,
}

impl SharedTraceWriter {
    /// Creates the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(SharedTraceWriter {
            inner: Mutex::new(SharedState {
                writer: Some(TraceWriter::create(path)?),
                error: None,
            }),
        })
    }

    /// Appends one event; on I/O failure the writer is disabled and the
    /// error is held for [`finish`](SharedTraceWriter::finish).
    pub fn append(&self, event: &TraceEvent) {
        let mut state = self.inner.lock().expect("trace writer lock poisoned");
        if state.error.is_some() {
            return;
        }
        if let Some(writer) = state.writer.as_mut() {
            if let Err(error) = writer.append(event) {
                state.writer = None;
                state.error = Some(error);
            }
        }
    }

    /// Writes the footer and flushes, surfacing any earlier append error.
    /// Idempotent: later calls are no-ops.
    pub fn finish(&self) -> io::Result<()> {
        let mut state = self.inner.lock().expect("trace writer lock poisoned");
        if let Some(error) = state.error.take() {
            return Err(error);
        }
        match state.writer.take() {
            Some(writer) => writer.finish(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Span {
                name: "solve".to_string(),
                start_ns: 0,
                duration_ns: 1_234_567,
            },
            TraceEvent::Slow {
                command: "solve".to_string(),
                duration_ns: 2_000_000_000,
                threshold_ns: 1_000_000_000,
            },
            TraceEvent::Commit {
                cell: 3,
                round: 1,
                swap: false,
                a: 7,
                b: 2,
                period_bits: 4_638_387_860_618_067_575,
                improved: true,
            },
            TraceEvent::Commit {
                cell: 3,
                round: 1,
                swap: true,
                a: 4,
                b: 9,
                period_bits: 4_638_387_860_618_067_570,
                improved: false,
            },
            TraceEvent::Round {
                cell: 3,
                round: 1,
                period_bits: Some(4_638_387_860_618_067_570),
                done: false,
            },
            TraceEvent::Round {
                cell: 5,
                round: 1,
                period_bits: None,
                done: true,
            },
            TraceEvent::Cache {
                cell: 3,
                round: 1,
                probes: 100,
                evaluations: 60,
                skips: 40,
                reuses: 30,
                rescales: 10,
            },
            TraceEvent::Dropped {
                class: "cache".to_string(),
                count: 12,
            },
        ]
    }

    #[test]
    fn write_parse_write_is_byte_identical() {
        let events = sample_events();
        let text = events_to_text(&events).unwrap();
        let parsed = events_from_text(&text).unwrap();
        assert_eq!(parsed, events);
        let rewritten = events_to_text(&parsed).unwrap();
        assert_eq!(rewritten, text);
    }

    #[test]
    fn writer_produces_a_parseable_document() {
        let dir = std::env::temp_dir().join(format!(
            "mf-obs-trace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("writer.mf-trace");
        let events = sample_events();
        let mut writer = TraceWriter::create(&path).unwrap();
        for event in &events {
            writer.append(event).unwrap();
        }
        writer.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, events_to_text(&events).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_writer_is_concurrency_safe_and_counted() {
        let dir = std::env::temp_dir().join(format!(
            "mf-obs-shared-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.mf-trace");
        let shared = std::sync::Arc::new(SharedTraceWriter::create(&path).unwrap());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        shared.append(&TraceEvent::Span {
                            name: format!("t{t}"),
                            start_ns: i,
                            duration_ns: 1,
                        });
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        shared.finish().unwrap();
        let parsed = events_from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.len(), 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_documents_are_rejected_with_line_numbers() {
        let cases: &[(&str, usize)] = &[
            ("", 1),
            ("mf-report v1\nend 0\n", 1),
            ("mf-trace v1\n", 1),
            ("mf-trace v1\nspan solve 1\nend 1\n", 2),
            ("mf-trace v1\nwat 1 2\nend 1\n", 2),
            ("mf-trace v1\nspan solve 1 2\nend 7\n", 3),
            ("mf-trace v1\nend 0\nspan solve 1 2\n", 3),
            ("mf-trace v1\ncommit 0 0 hop 1 2 3 1\nend 1\n", 2),
            ("mf-trace v1\nround 0 0 x 1\nend 1\n", 2),
        ];
        for (text, expected_line) in cases {
            match events_from_text(text) {
                Err(TraceError::Malformed { line, .. }) => {
                    assert_eq!(line, *expected_line, "wrong line for {text:?}")
                }
                other => panic!("expected malformed error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn unencodable_tokens_are_rejected_at_write_time() {
        for bad in ["", "two words", "tab\tted", "new\nline"] {
            let event = TraceEvent::Span {
                name: bad.to_string(),
                start_ns: 0,
                duration_ns: 0,
            };
            assert_eq!(
                events_to_text(std::slice::from_ref(&event)),
                Err(TraceError::UnencodableToken(bad.to_string()))
            );
        }
    }
}
