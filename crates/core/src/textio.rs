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
//!
//! The model attaches a failure rate to every (task, machine) pair, so
//! `failure` records are nearly all of an instance (2 000 of the 2 204
//! lines at 100 tasks × 20 machines), and the parser is shaped around
//! them:
//!
//! - **A fast path.** A line that is exactly `failure <task> <machine>
//!   <value>` — the keyword at the line start, single spaces, both indices
//!   plain ASCII digits that fit a `usize`, a value that ends the line and
//!   parses as `f64` — is read in one pass: the keyword by prefix, the
//!   indices by one digit loop with an overflow check. Any other shape (a
//!   sign, leading, extra or tab separators, a trailing token or comment,
//!   non-ASCII, an overflowing index) reads nothing and falls back to the
//!   general token path, so every outcome, error text and line number is
//!   the general path's. Whole texts and per-line pieces both take it.
//! - **Flat staging.** `time` and `failure` entries are staged in one
//!   row-major buffer per record kind, with a presence mask, and the
//!   failure buffer becomes the [`FailureModel`] through
//!   [`FailureModel::from_flat`] without another copy. A row takes its
//!   width from the `machines` count in force at its first entry, so a
//!   document that redeclares that count between entries gets the same
//!   `missing` error it always did; an entry beyond its row's width is
//!   out of range. A `tasks` or `types` header lays out at most
//!   `PRESIZED_ROWS` (4 096) rows, and later rows are added as their
//!   entries arrive, so a header count alone cannot exhaust memory.
//! - **Bounded by the document.** A complete document holds a line per
//!   task and per (row, machine) entry, so no row index or staged
//!   `rows × machines` size can exceed its length in bytes. An
//!   entry that would grow past that length is out of range, the outcome
//!   an allocator refusing the room gives, so a short hostile document
//!   allocates little whatever its counts and indices ask.

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
    /// The current record's task, machine and probability, when it is a
    /// `failure` record that [`Records::failure_entry`] read whole.
    failure: Option<(usize, usize, f64)>,
}

impl<'a, I: Iterator<Item = &'a str>> Records<'a, I> {
    fn new(pieces: I) -> Self {
        Records {
            pieces,
            text: "",
            pos: 0,
            line: 0,
            unicode: None,
            failure: None,
        }
    }

    /// Moves to the next record and returns its keyword (its first token),
    /// skipping blank and comment lines and the unread tokens of the
    /// current one; `None` after the last line. A `failure` record of the
    /// fast path's shape comes back with its entry in `self.failure`.
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
            self.failure = self.failure_entry();
            if self.failure.is_some() {
                return Some("failure");
            }
            match self.token() {
                Some(keyword) if !keyword.starts_with('#') => return Some(keyword),
                _ => {}
            }
        }
    }

    /// The fast path of the commonest record: reads the current line whole
    /// when it is exactly `failure␠<task>␠<machine>␠<value>` — the keyword
    /// at the line start, single spaces, both indices plain ASCII digits
    /// that fit a `usize`, and a value of token bytes that ends the line and
    /// that `str::parse::<f64>` accepts. Any other shape (a sign, leading
    /// or extra whitespace, a tab, a trailing token or comment, non-ASCII,
    /// an overflowing index, an unparsable value) reads nothing and returns
    /// `None`, and the general token path reads the line, so it gives the
    /// same outcome, error text and line number as before.
    fn failure_entry(&mut self) -> Option<(usize, usize, f64)> {
        const KEYWORD: &[u8] = b"failure ";
        let bytes = self.text.as_bytes();
        if !bytes[self.pos..].starts_with(KEYWORD) {
            return None;
        }
        let mut at = self.pos + KEYWORD.len();
        let task = index_then_space(bytes, &mut at)?;
        let machine = index_then_space(bytes, &mut at)?;
        let start = at;
        while at < bytes.len() && CLASS[usize::from(bytes[at])] == TOKEN {
            at += 1;
        }
        if at == start || bytes.get(at).is_some_and(|&byte| byte != b'\n') {
            return None;
        }
        let value = self.text[start..at].parse::<f64>().ok()?;
        self.pos = at;
        Some((task, machine, value))
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

/// Reads the ASCII digits at `*at` as a `usize` and the one space after
/// them, moving `*at` past both; `None` when there is no digit, the value
/// overflows or no space follows.
fn index_then_space(bytes: &[u8], at: &mut usize) -> Option<usize> {
    let start = *at;
    let mut value = 0usize;
    while let Some(digit) = bytes.get(*at).filter(|byte| byte.is_ascii_digit()) {
        value = value
            .checked_mul(10)?
            .checked_add(usize::from(digit - b'0'))?;
        *at += 1;
    }
    if *at == start || bytes.get(*at) != Some(&b' ') {
        return None;
    }
    *at += 1;
    Some(value)
}

/// The `time` or `failure` entries of a document as they are read: one row
/// per type or task, staged row-major `stride` slots apart in one value
/// buffer and one presence mask. A row takes its width from the `machines`
/// count in force at its first entry (0 while it has none), as a document
/// may redeclare that count; it is complete only when its width is the
/// final count and all of its entries are present. The buffers are
/// allocated at the first entry for at most [`PRESIZED_ROWS`] rows, grown
/// as later rows' entries arrive, and re-laid out only if a later row is
/// wider, which a document can only do on its way to a `missing` error.
/// No buffer grows past `limit` entries, the document's length.
struct Staging {
    /// The header's row count; rows past `widths` have no entry yet.
    rows: usize,
    widths: Vec<usize>,
    stride: usize,
    /// The rows laid out so far, `stride` slots each; rows past them have
    /// no entry yet.
    values: Vec<f64>,
    present: Vec<bool>,
    limit: usize,
}

impl Staging {
    /// Staging for a header count of `rows` rows in a document of `limit`
    /// bytes.
    fn new(rows: usize, limit: usize) -> Self {
        Staging {
            rows,
            widths: vec![0; rows.min(PRESIZED_ROWS)],
            stride: 0,
            values: Vec::new(),
            present: Vec::new(),
            limit,
        }
    }

    /// Stores entry `(row, column)`, read while `machine_count` machines
    /// are declared, over any earlier one; `false` (nothing stored) when
    /// `column` lies beyond a row that started under a smaller count, or
    /// when the rows at this width pass the limit or cannot be allocated.
    fn set(&mut self, row: usize, column: usize, machine_count: usize, value: f64) -> bool {
        if row >= self.widths.len() && !grow_to(&mut self.widths, row + 1, self.limit) {
            return false;
        }
        let width = &mut self.widths[row];
        if *width == 0 {
            *width = machine_count;
        }
        let width = *width;
        if column >= width || (width > self.stride && !self.widen(width)) {
            return false;
        }
        // `column < width <= stride`, so the stride is positive here.
        if row >= self.values.len() / self.stride {
            let grown = (row + 1).checked_mul(self.stride).is_some_and(|len| {
                grow_to(&mut self.values, len, self.limit)
                    && grow_to(&mut self.present, len, self.limit)
            });
            if !grown {
                return false;
            }
        }
        let slot = row * self.stride + column;
        self.values[slot] = value;
        self.present[slot] = true;
        true
    }

    /// Re-lays the rows out `stride` slots apart, keeping every entry: the
    /// rows laid out so far and as many more of the presized rows as the
    /// limit holds. `false` (nothing changed) when the laid rows at that
    /// stride pass the limit or the allocator refuses them.
    fn widen(&mut self, stride: usize) -> bool {
        let laid = self.values.len().checked_div(self.stride).unwrap_or(0);
        let rows = laid.max(self.widths.len().min(self.limit / stride)).max(1);
        let Some(len) = rows.checked_mul(stride).filter(|&len| len <= self.limit) else {
            return false;
        };
        let (mut values, mut present) = (Vec::new(), Vec::new());
        if values.try_reserve_exact(len).is_err() || present.try_reserve_exact(len).is_err() {
            return false;
        }
        values.resize(len, 0.0);
        present.resize(len, false);
        if self.stride > 0 {
            let old_rows = self
                .values
                .chunks(self.stride)
                .zip(self.present.chunks(self.stride));
            let new_rows = values.chunks_mut(stride).zip(present.chunks_mut(stride));
            for ((old_values, old_present), (new_values, new_present)) in old_rows.zip(new_rows) {
                new_values[..self.stride].copy_from_slice(old_values);
                new_present[..self.stride].copy_from_slice(old_present);
            }
        }
        self.stride = stride;
        self.values = values;
        self.present = present;
        true
    }

    /// The complete rows as one row-major `rows × machine_count` buffer, or
    /// the error naming the first incomplete row (`noun` and its index) or
    /// its first missing entry (`keyword`, row and column). A row no entry
    /// reached has width 0.
    fn finish(self, machine_count: usize, keyword: &str, noun: &str) -> Result<Vec<f64>> {
        let missing_row =
            |row| parse_error(0, format!("missing `{keyword}` entries for {noun} {row}"));
        for (row, &width) in self.widths.iter().enumerate() {
            if width != machine_count {
                return Err(missing_row(row));
            }
            let present = &self.present[row * self.stride..][..width];
            if let Some(column) = present.iter().position(|&present| !present) {
                return Err(parse_error(
                    0,
                    format!("missing `{keyword} {row} {column}` entry"),
                ));
            }
        }
        if self.rows > self.widths.len() && machine_count != 0 {
            return Err(missing_row(self.widths.len()));
        }
        // Every row has the final width, and a row widens the stride to
        // its own width, so the stride is that width unless no entry came.
        debug_assert!(self.stride == machine_count || self.values.is_empty());
        Ok(self.values)
    }
}

/// The most rows a `tasks` or `types` header count lays out before their
/// entries arrive. Each task and each type needs records of its own, so a
/// larger count is only as good as the document behind it: rows past this
/// one are added as their entries arrive, and a header alone stages at most
/// this many, however large its count.
const PRESIZED_ROWS: usize = 1 << 12;

/// Grows `entries` with defaults to at least `len` entries; `false`
/// (nothing changed) when `len` passes `limit` or the allocator refuses the
/// room, as an index under a huge header count can ask.
fn grow_to<T: Clone + Default>(entries: &mut Vec<T>, len: usize, limit: usize) -> bool {
    let additional = len.saturating_sub(entries.len());
    if len > limit || entries.try_reserve(additional).is_err() {
        return false;
    }
    entries.resize(entries.len() + additional, T::default());
    true
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
/// included, without building the joined copy. The items are walked once
/// before parsing, to sum the document's length.
pub fn instance_from_lines<'a, I>(lines: I) -> Result<Instance>
where
    I: IntoIterator<Item = &'a str>,
    I::IntoIter: Clone,
{
    let lines = lines.into_iter();
    // The document's length in bytes bounds every row and staging size.
    let limit = lines.clone().map(|line| line.len() + 1).sum();
    let mut task_count: Option<usize> = None;
    let mut machine_count: Option<usize> = None;
    let mut type_count: Option<usize> = None;
    // The type and the successor of every task by index, laid out like the
    // staging rows: at most `PRESIZED_ROWS` from the header, the rest as
    // `task` records arrive.
    let mut declared: Vec<(Option<usize>, Option<usize>)> = Vec::new();
    let mut times = Staging::new(0, limit);
    let mut failures = Staging::new(0, limit);

    let mut records = Records::new(lines);
    while let Some(keyword) = records.next_record() {
        let line_number = records.line;
        match keyword {
            "tasks" => {
                let n = parse_usize(records.token(), line_number, "task count")?;
                task_count = Some(n);
                declared = vec![(None, None); n.min(PRESIZED_ROWS)];
                failures = Staging::new(n, limit);
            }
            "machines" => {
                machine_count = Some(parse_usize(records.token(), line_number, "machine count")?);
            }
            "types" => {
                let p = parse_usize(records.token(), line_number, "type count")?;
                type_count = Some(p);
                times = Staging::new(p, limit);
            }
            "task" => {
                let n = task_count
                    .ok_or_else(|| parse_error(line_number, "`tasks` must come first"))?;
                let id = parse_usize(records.token(), line_number, "task index")?;
                if id >= n || !grow_to(&mut declared, id + 1, limit) {
                    return Err(parse_error(
                        line_number,
                        format!("task index {id} out of range"),
                    ));
                }
                let ty = parse_usize(records.token(), line_number, "task type")?;
                declared[id].0 = Some(ty);
                match records.token() {
                    None => {}
                    Some("successor") => {
                        let succ = parse_usize(records.token(), line_number, "successor index")?;
                        declared[id].1 = Some(succ);
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
                if ty >= p || machine >= m || !times.set(ty, machine, m, value) {
                    return Err(parse_error(line_number, "time entry out of range"));
                }
            }
            "failure" => {
                let n = task_count
                    .ok_or_else(|| parse_error(line_number, "`tasks` must come first"))?;
                let m = machine_count
                    .ok_or_else(|| parse_error(line_number, "`machines` must come first"))?;
                let (task, machine, value) = match records.failure.take() {
                    Some(entry) => entry,
                    None => (
                        parse_usize(records.token(), line_number, "task index")?,
                        parse_usize(records.token(), line_number, "machine index")?,
                        parse_f64(records.token(), line_number, "failure probability")?,
                    ),
                };
                if task >= n || machine >= m || !failures.set(task, machine, m, value) {
                    return Err(parse_error(line_number, "failure entry out of range"));
                }
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

    // Application. Task indices stay below `n`, so once every task is
    // declared, `declared` holds exactly `n` entries.
    let mut builder = ApplicationBuilder::new();
    for i in 0..n {
        let ty = declared.get(i).and_then(|task| task.0);
        let ty = ty.ok_or_else(|| parse_error(0, format!("task {i} is not declared")))?;
        if ty >= p {
            return Err(ModelError::UnknownType { ty, type_count: p });
        }
        builder.add_task(ty);
    }
    for (i, &(_, succ)) in declared.iter().enumerate() {
        if let Some(succ) = succ {
            builder.add_dependency(TaskId(i), TaskId(succ))?;
        }
    }
    let app = build_with_declared_types(builder, p)?;

    let times = times.finish(m, "time", "type")?;
    let type_times = times.chunks(m.max(1)).map(<[f64]>::to_vec).collect();
    let platform = Platform::from_type_times(m, type_times)?;
    let failure_model = FailureModel::from_flat(n, m, failures.finish(m, "failure", "task")?)?;

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
    fn failure_records_take_the_fast_path_only_in_their_exact_shape() {
        // `|` splits the text into pieces, as a payload's lines arrive.
        let entries = |text: &str| {
            let mut records = Records::new(text.split('|'));
            let mut entries = Vec::new();
            while records.next_record().is_some() {
                entries.push(records.failure.take());
            }
            entries
        };
        assert_eq!(
            entries("failure 12 3 0.25\nfailure 007 0 1e-3|failure 1 2 0.5"),
            [Some((12, 3, 0.25)), Some((7, 0, 1e-3)), Some((1, 2, 0.5))]
        );
        for line in [
            "failure +1 0 0.1",
            "failure -1 0 0.1",
            "failure 1 0 0.1 ",
            "failure 1 0 0.1\r",
            "failure\t1 0 0.1",
            "failure 1\t0 0.1",
            "failure 1  0 0.1",
            " failure 1 0 0.1",
            "failure 1 0 0.1 extra",
            "failure 1 0 0.1#x",
            "failure 1 0 0.1\u{A0}",
            "failures 1 0 0.1",
            "failure1 0 0.1",
            "failure 18446744073709551616 0 0.1",
            "failure 1 18446744073709551616 0.1",
            "failure 1 0",
            "failure 1 0 ",
            "failure 1 0 x",
            "failure",
        ] {
            assert_eq!(entries(line), [None], "{line:?}");
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
