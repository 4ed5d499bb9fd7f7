//! A plain-text interchange format for problem instances and mappings.
//!
//! The format is deliberately simple — one record per line, `#` comments —
//! so that instances can be written by hand, versioned, and fed to the
//! command-line tool (`mf-cli`) without pulling a serialisation framework:
//!
//! ```text
//! # microfactory instance
//! tasks 4
//! machines 3
//! types 2
//! # task <index> <type> [successor <index>]
//! task 0 0 successor 1
//! task 1 1 successor 2
//! task 2 0 successor 3
//! task 3 1
//! # time <type> <machine> <milliseconds>
//! time 0 0 120.0
//! ...
//! # failure <task> <machine> <probability>
//! failure 0 0 0.01
//! ...
//! ```
//!
//! Every `time` and `failure` entry must be present (the format is explicit
//! rather than defaulted, so a missing number is an error, not a silent 0).
//!
//! Each document has two parse entries over one parser:
//! [`instance_from_text`] takes the whole text, and [`instance_from_lines`]
//! takes it as lines, one item each — the form a protocol payload or a
//! journal record already holds, parsed where it sits without joining it
//! into a second copy. The scanner reads the items as if joined with `\n`,
//! so `instance_from_lines(lines)` and `instance_from_text(&joined)` give
//! the same outcome, line numbers in errors included; mappings likewise
//! ([`mapping_from_text`], [`mapping_from_lines`]).

use crate::application::{Application, ApplicationBuilder};
use crate::error::{ModelError, Result};
use crate::failure::FailureModel;
use crate::ids::{MachineId, TaskId, TaskTypeId};
use crate::instance::Instance;
use crate::mapping::Mapping;
use crate::platform::Platform;
use std::fmt::Write as _;

/// Serialises an instance to the text format.
pub fn instance_to_text(instance: &Instance) -> String {
    let app = instance.application();
    let mut out = String::new();
    let _ = writeln!(out, "# microfactory instance");
    let _ = writeln!(out, "tasks {}", app.task_count());
    let _ = writeln!(out, "machines {}", instance.machine_count());
    let _ = writeln!(out, "types {}", app.type_count());
    for task in app.tasks() {
        match app.successor(task.id) {
            Some(succ) => {
                let _ = writeln!(
                    out,
                    "task {} {} successor {}",
                    task.id.index(),
                    task.ty.index(),
                    succ.index()
                );
            }
            None => {
                let _ = writeln!(out, "task {} {}", task.id.index(), task.ty.index());
            }
        }
    }
    for ty in 0..app.type_count() {
        for u in 0..instance.machine_count() {
            let _ = writeln!(
                out,
                "time {} {} {}",
                ty,
                u,
                instance.platform().time(TaskTypeId(ty), MachineId(u))
            );
        }
    }
    for task in app.tasks() {
        for u in 0..instance.machine_count() {
            let _ = writeln!(
                out,
                "failure {} {} {}",
                task.id.index(),
                u,
                instance.failure(task.id, MachineId(u)).value()
            );
        }
    }
    out
}

/// Serialises a mapping to the text format (`assign <task> <machine>` lines).
pub fn mapping_to_text(mapping: &Mapping) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# microfactory mapping");
    let _ = writeln!(out, "machines {}", mapping.machine_count());
    for (i, machine) in mapping.as_slice().iter().enumerate() {
        let _ = writeln!(out, "assign {} {}", i, machine.index());
    }
    out
}

/// Byte classes of the record scanner.
const TOKEN: u8 = 0;
const SPACE: u8 = 1;
const NEWLINE: u8 = 2;
const WIDE: u8 = 3;

/// The class of every byte: the ASCII bytes `char::is_whitespace` accepts
/// (space, `\t`, `\x0B`, `\x0C`, `\r`) are spaces, `\n` ends a line,
/// the other ASCII bytes belong to tokens, and a byte of a multi-byte UTF-8
/// sequence is wide.
const CLASS: [u8; 256] = {
    let mut class = [WIDE; 256];
    let mut byte = 0;
    while byte < 0x80 {
        class[byte] = match byte as u8 {
            b'\n' => NEWLINE,
            b' ' | b'\t' | 0x0B | 0x0C | b'\r' => SPACE,
            _ => TOKEN,
        };
        byte += 1;
    }
    class
};

/// A one-pass scanner over the records of a text file: the lines holding a
/// token that is not a `#` comment, split into whitespace-separated tokens
/// exactly as `str::lines`, `str::trim` and `str::split_whitespace` split
/// them. The text arrives as pieces that are read as if joined with `\n`:
/// the end of a piece ends a line, and so does a `\n` inside one. ASCII is
/// classified byte by byte; at the first non-ASCII byte of a line the rest
/// of that line goes to `split_whitespace`, so Unicode whitespace (U+00A0,
/// U+3000, …) still separates tokens. The hand-over happens at a token
/// start, where both splits agree.
struct Records<'a, I> {
    pieces: I,
    /// The current piece.
    text: &'a str,
    /// Byte offset of the scan in the current piece.
    pos: usize,
    /// 1-based number of the current line (0 before the first).
    line: usize,
    /// The rest of the current line, once it turned out to hold non-ASCII.
    unicode: Option<std::str::SplitWhitespace<'a>>,
}

impl<'a, I: Iterator<Item = &'a str>> Records<'a, I> {
    fn new(pieces: I) -> Self {
        Records {
            pieces,
            text: "",
            pos: 0,
            line: 0,
            unicode: None,
        }
    }

    /// Moves to the next record and returns its keyword (its first token),
    /// skipping blank and comment lines and the unread tokens of the
    /// current one; `None` after the last line.
    fn next_record(&mut self) -> Option<&'a str> {
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            match rest.iter().position(|&byte| byte == b'\n') {
                Some(offset) => self.pos += offset + 1,
                None => {
                    self.text = self.pieces.next()?;
                    self.pos = 0;
                }
            }
            self.line += 1;
            self.unicode = None;
            match self.token() {
                Some(keyword) if !keyword.starts_with('#') => return Some(keyword),
                _ => {}
            }
        }
    }

    /// The next token of the current record; `None` at the end of the line.
    fn token(&mut self) -> Option<&'a str> {
        if let Some(words) = &mut self.unicode {
            return words.next();
        }
        let bytes = self.text.as_bytes();
        let mut end = self.pos;
        while end < bytes.len() && CLASS[usize::from(bytes[end])] == SPACE {
            end += 1;
        }
        let start = end;
        while end < bytes.len() && CLASS[usize::from(bytes[end])] == TOKEN {
            end += 1;
        }
        if end < bytes.len() && CLASS[usize::from(bytes[end])] == WIDE {
            let line_end = bytes[end..]
                .iter()
                .position(|&byte| byte == b'\n')
                .map_or(bytes.len(), |offset| end + offset);
            let mut words = self.text[start..line_end].split_whitespace();
            let token = words.next();
            self.unicode = Some(words);
            self.pos = line_end;
            return token;
        }
        self.pos = end;
        (end > start).then(|| &self.text[start..end])
    }
}

fn parse_error(line_number: usize, detail: impl Into<String>) -> ModelError {
    ModelError::RuleViolation {
        kind: crate::mapping::MappingKind::General,
        detail: format!("line {line_number}: {}", detail.into()),
    }
}

fn parse_usize(token: Option<&str>, line: usize, what: &str) -> Result<usize> {
    token
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| parse_error(line, format!("expected {what} (unsigned integer)")))
}

fn parse_f64(token: Option<&str>, line: usize, what: &str) -> Result<f64> {
    token
        .and_then(|t| t.parse::<f64>().ok())
        .ok_or_else(|| parse_error(line, format!("expected {what} (number)")))
}

/// Parses an instance from the text format.
pub fn instance_from_text(text: &str) -> Result<Instance> {
    instance_from_lines([text])
}

/// Parses an instance from a text-format document given as lines — usually
/// one line per item, as a protocol payload or a journal record holds them,
/// though an item may hold several. The items parse exactly as their join
/// with `\n` does under [`instance_from_text`], line numbers in errors
/// included, without building the joined copy.
pub fn instance_from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Instance> {
    let mut task_count: Option<usize> = None;
    let mut machine_count: Option<usize> = None;
    let mut type_count: Option<usize> = None;
    let mut task_types: Vec<Option<usize>> = Vec::new();
    let mut successors: Vec<Option<usize>> = Vec::new();
    let mut times: Vec<Vec<Option<f64>>> = Vec::new();
    let mut failures: Vec<Vec<Option<f64>>> = Vec::new();

    let mut records = Records::new(lines.into_iter());
    while let Some(keyword) = records.next_record() {
        let line_number = records.line;
        match keyword {
            "tasks" => {
                let n = parse_usize(records.token(), line_number, "task count")?;
                task_count = Some(n);
                task_types = vec![None; n];
                successors = vec![None; n];
                failures = vec![Vec::new(); n];
            }
            "machines" => {
                machine_count = Some(parse_usize(records.token(), line_number, "machine count")?);
            }
            "types" => {
                let p = parse_usize(records.token(), line_number, "type count")?;
                type_count = Some(p);
                times = vec![Vec::new(); p];
            }
            "task" => {
                let n = task_count
                    .ok_or_else(|| parse_error(line_number, "`tasks` must come first"))?;
                let id = parse_usize(records.token(), line_number, "task index")?;
                if id >= n {
                    return Err(parse_error(
                        line_number,
                        format!("task index {id} out of range"),
                    ));
                }
                let ty = parse_usize(records.token(), line_number, "task type")?;
                task_types[id] = Some(ty);
                match records.token() {
                    None => {}
                    Some("successor") => {
                        let succ = parse_usize(records.token(), line_number, "successor index")?;
                        successors[id] = Some(succ);
                    }
                    Some(other) => {
                        return Err(parse_error(
                            line_number,
                            format!("unexpected token `{other}`"),
                        ))
                    }
                }
            }
            "time" => {
                let p = type_count
                    .ok_or_else(|| parse_error(line_number, "`types` must come first"))?;
                let m = machine_count
                    .ok_or_else(|| parse_error(line_number, "`machines` must come first"))?;
                let ty = parse_usize(records.token(), line_number, "type index")?;
                let machine = parse_usize(records.token(), line_number, "machine index")?;
                let value = parse_f64(records.token(), line_number, "processing time")?;
                if ty >= p || machine >= m {
                    return Err(parse_error(line_number, "time entry out of range"));
                }
                if times[ty].is_empty() {
                    times[ty] = vec![None; m];
                }
                times[ty][machine] = Some(value);
            }
            "failure" => {
                let n = task_count
                    .ok_or_else(|| parse_error(line_number, "`tasks` must come first"))?;
                let m = machine_count
                    .ok_or_else(|| parse_error(line_number, "`machines` must come first"))?;
                let task = parse_usize(records.token(), line_number, "task index")?;
                let machine = parse_usize(records.token(), line_number, "machine index")?;
                let value = parse_f64(records.token(), line_number, "failure probability")?;
                if task >= n || machine >= m {
                    return Err(parse_error(line_number, "failure entry out of range"));
                }
                if failures[task].is_empty() {
                    failures[task] = vec![None; m];
                }
                failures[task][machine] = Some(value);
            }
            other => {
                return Err(parse_error(
                    line_number,
                    format!("unknown keyword `{other}`"),
                ))
            }
        }
    }

    let n = task_count.ok_or_else(|| parse_error(0, "missing `tasks` header"))?;
    let m = machine_count.ok_or_else(|| parse_error(0, "missing `machines` header"))?;
    let p = type_count.ok_or_else(|| parse_error(0, "missing `types` header"))?;

    // Application.
    let mut builder = ApplicationBuilder::new();
    for (i, ty) in task_types.iter().enumerate() {
        let ty = ty.ok_or_else(|| parse_error(0, format!("task {i} is not declared")))?;
        if ty >= p {
            return Err(ModelError::UnknownType { ty, type_count: p });
        }
        builder.add_task(ty);
    }
    for (i, succ) in successors.iter().enumerate() {
        if let Some(succ) = succ {
            builder.add_dependency(TaskId(i), TaskId(*succ))?;
        }
    }
    let app = build_with_declared_types(builder, p)?;

    // Platform.
    let mut type_times = Vec::with_capacity(p);
    for (ty, row) in times.into_iter().enumerate() {
        if row.len() != m {
            return Err(parse_error(
                0,
                format!("missing `time` entries for type {ty}"),
            ));
        }
        let mut values = Vec::with_capacity(m);
        for (u, value) in row.into_iter().enumerate() {
            values.push(
                value.ok_or_else(|| parse_error(0, format!("missing `time {ty} {u}` entry")))?,
            );
        }
        type_times.push(values);
    }
    let platform = Platform::from_type_times(m, type_times)?;

    // Failures.
    let mut failure_rows = Vec::with_capacity(n);
    for (task, row) in failures.into_iter().enumerate() {
        if row.len() != m {
            return Err(parse_error(
                0,
                format!("missing `failure` entries for task {task}"),
            ));
        }
        let mut values = Vec::with_capacity(m);
        for (u, value) in row.into_iter().enumerate() {
            values
                .push(value.ok_or_else(|| {
                    parse_error(0, format!("missing `failure {task} {u}` entry"))
                })?);
        }
        failure_rows.push(values);
    }
    let failure_model = FailureModel::from_matrix(failure_rows, m)?;

    Instance::new(app, platform, failure_model)
}

/// Parses a mapping from the text format.
pub fn mapping_from_text(text: &str) -> Result<Mapping> {
    mapping_from_lines([text])
}

/// Parses a mapping from a text-format document given as lines, exactly as
/// their join with `\n` parses under [`mapping_from_text`] (see
/// [`instance_from_lines`]).
pub fn mapping_from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Mapping> {
    let mut machine_count: Option<usize> = None;
    let mut assignments: Vec<(usize, usize)> = Vec::new();
    let mut records = Records::new(lines.into_iter());
    while let Some(keyword) = records.next_record() {
        let line_number = records.line;
        match keyword {
            "machines" => {
                machine_count = Some(parse_usize(records.token(), line_number, "machine count")?);
            }
            "assign" => {
                let task = parse_usize(records.token(), line_number, "task index")?;
                let machine = parse_usize(records.token(), line_number, "machine index")?;
                assignments.push((task, machine));
            }
            other => {
                return Err(parse_error(
                    line_number,
                    format!("unknown keyword `{other}`"),
                ))
            }
        }
    }
    let m = machine_count.ok_or_else(|| parse_error(0, "missing `machines` header"))?;
    assignments.sort_by_key(|&(task, _)| task);
    for (expected, &(task, _)) in assignments.iter().enumerate() {
        if task != expected {
            return Err(parse_error(
                0,
                format!("missing `assign` entry for task {expected}"),
            ));
        }
    }
    Mapping::from_indices(&assignments.iter().map(|&(_, u)| u).collect::<Vec<_>>(), m)
}

/// Finalises an application while honouring the declared number of types even
/// when the highest types are unused.
fn build_with_declared_types(builder: ApplicationBuilder, declared: usize) -> Result<Application> {
    let app = builder.build()?;
    if app.type_count() > declared {
        return Err(ModelError::UnknownType {
            ty: app.type_count() - 1,
            type_count: declared,
        });
    }
    Ok(app)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instance() -> Instance {
        let app = Application::from_successors(&[0, 1, 0], &[Some(1), Some(2), None]).unwrap();
        let platform =
            Platform::from_type_times(2, vec![vec![100.0, 200.0], vec![300.0, 150.0]]).unwrap();
        let failures =
            FailureModel::from_matrix(vec![vec![0.01, 0.02], vec![0.03, 0.04], vec![0.0, 0.05]], 2)
                .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    /// The `str::lines` → `str::trim` → `str::split_whitespace` split the
    /// scanner replaces: each non-blank, non-comment line as its number and
    /// tokens.
    fn reference_records(text: &str) -> Vec<(usize, Vec<&str>)> {
        text.lines()
            .enumerate()
            .filter_map(|(index, line)| {
                let line = line.trim();
                (!line.is_empty() && !line.starts_with('#'))
                    .then(|| (index + 1, line.split_whitespace().collect()))
            })
            .collect()
    }

    /// The scanner's records over `lines`: each record's line number, its
    /// keyword and at most `read` more tokens.
    fn scanned_records<'a>(
        lines: impl Iterator<Item = &'a str>,
        read: usize,
    ) -> Vec<(usize, Vec<&'a str>)> {
        let mut records = Records::new(lines);
        let mut actual = Vec::new();
        while let Some(keyword) = records.next_record() {
            let mut tokens = vec![keyword];
            tokens.extend(std::iter::from_fn(|| records.token()).take(read));
            actual.push((records.line, tokens));
        }
        actual
    }

    /// The scanner agrees with the reference split on seeded random texts
    /// over ASCII and Unicode whitespace, line ends, comment marks and token
    /// bytes — also when a record's tokens are only partly read before the
    /// scanner moves on — whether it reads the text whole, split at `\n`,
    /// as its `str::lines`, or regrouped into pieces of several lines.
    #[test]
    fn records_split_like_the_reference() {
        const ALPHABET: [&str; 18] = [
            "a", "7", ".", "#", " ", "\t", "\x0B", "\x0C", "\r", "\n", "\r\n", "\u{A0}",
            "\u{3000}", "\u{85}", "\u{2028}", "é", "\x1F", "☃",
        ];
        for seed in 0..4000u64 {
            let mut state = seed;
            let mut next = || {
                state = crate::seed::splitmix64(state);
                state
            };
            let len = next() % 48;
            let text: String = (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
                .collect();
            let read = (next() % 4) as usize;
            let expected: Vec<(usize, Vec<&str>)> = reference_records(&text)
                .into_iter()
                .map(|(line, tokens)| (line, tokens.into_iter().take(1 + read).collect()))
                .collect();
            // Whole, line by line, and regrouped into multi-line pieces.
            let lines: Vec<&str> = text.split('\n').collect();
            let mut pieces = Vec::new();
            let mut rest = &lines[..];
            while !rest.is_empty() {
                let take = 1 + (next() % 3) as usize;
                let (piece, tail) = rest.split_at(take.min(rest.len()));
                pieces.push(piece.join("\n"));
                rest = tail;
            }
            for (walk, actual) in [
                ("whole", scanned_records([text.as_str()].into_iter(), read)),
                ("split", scanned_records(lines.iter().copied(), read)),
                ("lines", scanned_records(text.lines(), read)),
                (
                    "pieces",
                    scanned_records(pieces.iter().map(String::as_str), read),
                ),
            ] {
                assert_eq!(actual, expected, "seed {seed}, {walk}: {text:?}");
            }
        }
    }

    #[test]
    fn instance_round_trip() {
        let original = sample_instance();
        let text = instance_to_text(&original);
        let parsed = instance_from_text(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn mapping_round_trip() {
        let mapping = Mapping::from_indices(&[0, 1, 0], 2).unwrap();
        let text = mapping_to_text(&mapping);
        let parsed = mapping_from_text(&text).unwrap();
        assert_eq!(parsed, mapping);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let original = sample_instance();
        let mut text = String::from("\n# leading comment\n\n");
        text.push_str(&instance_to_text(&original));
        text.push_str("\n# trailing comment\n");
        assert_eq!(instance_from_text(&text).unwrap(), original);
    }

    #[test]
    fn missing_entries_are_rejected() {
        let original = sample_instance();
        let text = instance_to_text(&original);
        // Drop the last failure line.
        let truncated: Vec<&str> = text.lines().take(text.lines().count() - 1).collect();
        assert!(instance_from_text(&truncated.join("\n")).is_err());
        // Drop the headers entirely.
        assert!(instance_from_text("task 0 0\n").is_err());
        assert!(instance_from_text("").is_err());
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let err = instance_from_text("tasks two\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = instance_from_text("tasks 1\nmachines 1\ntypes 1\nbogus 1 2\n").unwrap_err();
        assert!(err.to_string().contains("bogus"));
        let err = mapping_from_text("machines 2\nassign 1 0\n").unwrap_err();
        assert!(err.to_string().contains("task 0"));
    }

    #[test]
    fn out_of_range_entries_are_rejected() {
        assert!(instance_from_text("tasks 1\nmachines 1\ntypes 1\ntask 5 0\n").is_err());
        assert!(
            instance_from_text("tasks 1\nmachines 1\ntypes 1\ntask 0 0\ntime 3 0 10\n").is_err()
        );
        assert!(instance_from_text(
            "tasks 1\nmachines 1\ntypes 1\ntask 0 0\ntime 0 0 10\nfailure 0 4 0.1\n"
        )
        .is_err());
        // Task declared with a type beyond the declared count.
        assert!(instance_from_text(
            "tasks 1\nmachines 1\ntypes 1\ntask 0 3\ntime 0 0 10\nfailure 0 0 0.0\n"
        )
        .is_err());
    }
}
