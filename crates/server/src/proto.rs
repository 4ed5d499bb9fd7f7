//! `mf-proto` — the line-delimited text protocol of the serve loop
//! (versions 1, 2 and 3).
//!
//! The protocol is styled after `mf-report v1` (`mf_experiments::persist`):
//! plain text, one record per line, multi-line payloads carried by an
//! explicit line count (requests) or closed by an `end` marker (responses),
//! and every `f64` written with Rust's shortest-round-trip formatting so
//! values survive a write→parse round trip **bit-for-bit**. A session opens
//! with the server greeting line `mf-proto v1` and speaks **v1** until the
//! client upgrades it.
//!
//! # Version negotiation
//!
//! Upgrades are negotiated with a `hello` handshake: the client sends
//! `hello mf-proto vN` (any requested version above the highest supported
//! is negotiated down to it) and the server answers `ok hello mf-proto vM`
//! with the version the session now speaks. A client that never says
//! `hello` stays on v1 and sees byte-identical v1 behavior. v2 adds:
//!
//! * `batch N` — a request envelope carrying `N` instance commands that are
//!   answered in one round trip with an `ok batch N … end` block;
//! * `status-export` — the full statistics report as one JSON document;
//! * extra `stats` counters (evaluator builds and the keyed evaluate cache).
//!
//! v3 adds the **anytime solve**: `solve <name> anytime [budget B] [seed S]`
//! is answered by a streaming multi-part block whose `gap` lines report the
//! monotone incumbent/bound race (first line already feasible, last line
//! `proven 1` when the gap closed):
//!
//! ```text
//! C: solve line6 anytime budget 50000
//! S: ok solve-anytime 3 437.51948051948053 3 6
//! S: gap seed 0 445.2 381.26618826373489 0
//! S: gap lns 12500 440.1 381.26618826373489 0
//! S: gap bnb 14061 437.51948051948053 437.51948051948053 1
//! S: assign 0 1
//! S: …
//! S: end
//! ```
//!
//! ```text
//! C: load line6 18
//! C: # microfactory instance
//! C: tasks 6
//! C: …                         (16 more payload lines)
//! S: ok load line6 6 3 2
//! C: solve line6 heuristic SD-H2 seed 7
//! S: ok solve SD-H2 437.51948051948053 3 6
//! S: assign 0 1
//! S: …
//! S: end
//! C: shutdown
//! S: ok shutdown
//! ```
//!
//! Serialization is **canonical**: for any request or response value,
//! `parse(write(x)) == x` and `write(parse(write(x))) == write(x)` byte for
//! byte — the round-trip property `proto_roundtrip.rs` pins for every
//! variant. Malformed input produces a typed [`ProtoError`], never a panic.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io::BufRead;

/// The protocol magic, sent by the server as its greeting line. The greeting
/// always names v1 — the version every session starts in — so v1 clients
/// and transcripts stay byte-identical; v2 is negotiated by `hello`.
pub const GREETING: &str = "mf-proto v1";

/// The protocol family name used by the `hello` handshake.
pub const PROTO_NAME: &str = "mf-proto";

/// The highest protocol version this implementation speaks.
pub const CURRENT_VERSION: u32 = 3;

/// A negotiated protocol version of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ProtoVersion {
    /// `mf-proto v1` — the PR-4 request/response protocol; every session
    /// starts here.
    #[default]
    V1,
    /// `mf-proto v2` — adds the `batch` envelope, `status-export` and the
    /// evaluate-cache `stats` counters.
    V2,
    /// `mf-proto v3` — adds the anytime solve (`solve <name> anytime …`)
    /// answered by a streaming `ok solve-anytime` block of monotone
    /// incumbent/bound `gap` lines.
    V3,
}

impl ProtoVersion {
    /// The version number on the wire (`1`, `2` or `3`).
    pub fn number(self) -> u32 {
        match self {
            ProtoVersion::V1 => 1,
            ProtoVersion::V2 => 2,
            ProtoVersion::V3 => 3,
        }
    }

    /// The version a server offers to a client requesting `requested`:
    /// exactly what was asked for when it is supported, otherwise the
    /// highest supported version below it. `None` for v0 (never valid).
    pub fn negotiate(requested: u32) -> Option<ProtoVersion> {
        match requested {
            0 => None,
            1 => Some(ProtoVersion::V1),
            2 => Some(ProtoVersion::V2),
            _ => Some(ProtoVersion::V3),
        }
    }

    fn from_number(number: u32) -> Option<ProtoVersion> {
        match number {
            1 => Some(ProtoVersion::V1),
            2 => Some(ProtoVersion::V2),
            3 => Some(ProtoVersion::V3),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProtoVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{PROTO_NAME} v{}", self.number())
    }
}

/// Errors raised while parsing or writing protocol lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The input ended in the middle of a request or response.
    UnexpectedEof {
        /// What was being parsed when the input ran out.
        context: &'static str,
    },
    /// A line did not match the grammar.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// A name or text field contains characters the wire format cannot carry.
    UnencodableText {
        /// The offending text.
        text: String,
    },
    /// An I/O error from the underlying reader.
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            ProtoError::Malformed { detail } => write!(f, "malformed protocol line: {detail}"),
            ProtoError::UnencodableText { text } => {
                write!(f, "text cannot be encoded on one protocol line: {text:?}")
            }
            ProtoError::Io(detail) => write!(f, "protocol I/O error: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e.to_string())
    }
}

/// Result alias for protocol operations.
pub type ProtoResult<T> = std::result::Result<T, ProtoError>;

fn malformed(detail: impl Into<String>) -> ProtoError {
    ProtoError::Malformed {
        detail: detail.into(),
    }
}

/// `true` for names the wire format can carry as a single token: non-empty
/// ASCII alphanumerics plus `.`, `_`, `-` and `#` (portfolio cell labels such
/// as `H6-H4w#1` travel through the same token slot as instance names).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-' || b == b'#')
}

fn check_name(name: &str) -> ProtoResult<&str> {
    if valid_name(name) {
        Ok(name)
    } else {
        Err(ProtoError::UnencodableText {
            text: name.to_string(),
        })
    }
}

/// Counts the `\n` and `\r` bytes of `text`. The count runs in chunks of
/// 255 bytes with a `u8` tally, which cannot overflow and which the
/// compiler vectorizes — so validating a payload costs one fast pass over
/// its bytes.
pub(crate) fn line_separators(text: &str) -> usize {
    text.as_bytes()
        .chunks(255)
        .map(|chunk| {
            let tally = chunk.iter().fold(0u8, |tally, &byte| {
                tally + u8::from((byte == b'\n') | (byte == b'\r'))
            });
            usize::from(tally)
        })
        .sum()
}

/// A payload line must not itself be a line separator.
fn check_payload_line(line: &str) -> ProtoResult<&str> {
    if line.contains('\n') || line.contains('\r') {
        Err(ProtoError::UnencodableText {
            text: line.to_string(),
        })
    } else {
        Ok(line)
    }
}

/// How a `solve` request wants the mapping computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveMethod {
    /// One registry heuristic (`"H4w"`, `"SD-H2"`, …; canonical casing).
    Heuristic(String),
    /// The parallel search portfolio on the server's shared pool.
    Portfolio,
    /// The anytime incumbent/bound race (v3): seed heuristic, LNS slice and
    /// LP-bounded branch-and-bound under one step budget, answered by
    /// a streaming `ok solve-anytime` block.
    Anytime {
        /// Step budget (heuristic evaluations + branch-and-bound nodes);
        /// `None` uses the server's default budget.
        budget: Option<u64>,
    },
}

/// A what-if probe against the session's resident evaluator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Move one task to a machine.
    Move {
        /// Task index.
        task: usize,
        /// Target machine index.
        machine: usize,
    },
    /// Exchange the machines of two tasks.
    Swap {
        /// First task index.
        a: usize,
        /// Second task index.
        b: usize,
    },
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Version handshake (`hello mf-proto vN`): asks the server to speak
    /// protocol version `requested`; the server answers with the negotiated
    /// version and the session switches to it.
    Hello {
        /// The version the client asks for (negotiated down if unknown).
        requested: u32,
    },
    /// A v2 envelope of `N` instance commands, answered in one round trip.
    /// Only instance-named commands (`load`, `unload`, `evaluate`, `whatif`,
    /// `solve`) may ride a batch; envelopes never nest.
    Batch(Vec<Request>),
    /// The full statistics report as one machine-readable JSON document
    /// (v2; the `stats --json` of the protocol).
    StatusExport,
    /// Load (or replace) a named instance from inline `mf_core::textio`
    /// instance text.
    Load {
        /// Store name of the instance.
        name: String,
        /// Instance text, one payload line per entry.
        payload: Vec<String>,
    },
    /// Drop a named instance from the store.
    Unload {
        /// Store name.
        name: String,
    },
    /// List the resident instances.
    List,
    /// Evaluate a mapping (inline `mf_core::textio` mapping text) against a
    /// resident instance; refreshes the session's resident evaluator.
    Evaluate {
        /// Store name of the instance.
        name: String,
        /// Mapping text, one payload line per entry.
        payload: Vec<String>,
    },
    /// What-if probe against the resident evaluator state the session's last
    /// `evaluate`/`solve` on this instance left behind.
    WhatIf {
        /// Store name of the instance.
        name: String,
        /// The probe.
        probe: Probe,
    },
    /// Compute a mapping for a resident instance.
    Solve {
        /// Store name of the instance.
        name: String,
        /// Solver choice.
        method: SolveMethod,
        /// Per-request seed; `None` uses the defaults of the equivalent
        /// one-shot CLI run (so answers are bit-identical to it).
        seed: Option<u64>,
    },
    /// Server statistics counters.
    Stats,
    /// End the session; a TCP server stops accepting new connections.
    Shutdown,
}

impl Request {
    /// The wire keyword of the request's head line.
    pub fn keyword(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Batch(_) => "batch",
            Request::StatusExport => "status-export",
            Request::Load { .. } => "load",
            Request::Unload { .. } => "unload",
            Request::List => "list",
            Request::Evaluate { .. } => "evaluate",
            Request::WhatIf { .. } => "whatif",
            Request::Solve { .. } => "solve",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// The instance name this request targets, if it is an instance command.
    /// Exactly the commands with a `Some` name may ride a [`Request::Batch`]
    /// envelope, and they are what a router shards across workers.
    pub fn instance_name(&self) -> Option<&str> {
        match self {
            Request::Load { name, .. }
            | Request::Unload { name }
            | Request::Evaluate { name, .. }
            | Request::WhatIf { name, .. }
            | Request::Solve { name, .. } => Some(name),
            Request::Hello { .. }
            | Request::Batch(_)
            | Request::StatusExport
            | Request::List
            | Request::Stats
            | Request::Shutdown => None,
        }
    }
}

/// One incumbent/bound report in a `solve-anytime` response block. Within
/// a block, `steps` never decreases, `period` never increases, `bound`
/// never decreases, and only the last report may be `proven`.
#[derive(Debug, Clone, PartialEq)]
pub struct GapReport {
    /// Single-token phase label (`seed`, `lns`, `bnb`).
    pub phase: String,
    /// Cumulative steps consumed when the report fired.
    pub steps: u64,
    /// Incumbent period (ms, lossless).
    pub period: f64,
    /// Certified lower bound (ms, lossless).
    pub bound: f64,
    /// Whether the incumbent is proven optimal (gap zero).
    pub proven: bool,
}

/// One named instance in a `list` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceInfo {
    /// Store name.
    pub name: String,
    /// Task count.
    pub tasks: usize,
    /// Machine count.
    pub machines: usize,
    /// Task-type count.
    pub types: usize,
}

/// Error classes a request can fail with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line (or its arguments) did not make sense.
    BadRequest,
    /// No resident instance under that name.
    UnknownInstance,
    /// The inline instance/mapping payload was rejected by `textio` or does
    /// not fit the instance.
    InvalidPayload,
    /// The solver produced no mapping (e.g. more task types than machines).
    Infeasible,
    /// `whatif` without resident evaluator state for the instance in this
    /// session.
    NoResidentState,
    /// A durable server applied the request in memory but could not append
    /// it to its `mf-journal` — the change is live but not yet crash-safe.
    JournalFailed,
}

impl ErrorCode {
    /// The wire token of the code.
    pub fn token(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownInstance => "unknown-instance",
            ErrorCode::InvalidPayload => "invalid-payload",
            ErrorCode::Infeasible => "infeasible",
            ErrorCode::NoResidentState => "no-resident-state",
            ErrorCode::JournalFailed => "journal-failed",
        }
    }

    fn from_token(token: &str) -> Option<Self> {
        Some(match token {
            "bad-request" => ErrorCode::BadRequest,
            "unknown-instance" => ErrorCode::UnknownInstance,
            "invalid-payload" => ErrorCode::InvalidPayload,
            "infeasible" => ErrorCode::Infeasible,
            "no-resident-state" => ErrorCode::NoResidentState,
            "journal-failed" => ErrorCode::JournalFailed,
            _ => return None,
        })
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake answer: the version the session now speaks.
    Hello {
        /// The negotiated version.
        version: ProtoVersion,
    },
    /// The answers of a [`Request::Batch`], in request order.
    Batch(Vec<Response>),
    /// The statistics report as JSON document lines (v2).
    StatusExport(Vec<String>),
    /// Instance loaded (or replaced).
    Loaded {
        /// Store name.
        name: String,
        /// Task count.
        tasks: usize,
        /// Machine count.
        machines: usize,
        /// Task-type count.
        types: usize,
    },
    /// Instance dropped.
    Unloaded {
        /// Store name.
        name: String,
    },
    /// The resident instances, sorted by name.
    List(Vec<InstanceInfo>),
    /// Mapping evaluated. Floats are lossless (`{}` formatting).
    Evaluated {
        /// System period (ms), bit-identical to the one-shot evaluation.
        period: f64,
        /// Critical machine index (lowest index on exact ties).
        critical: usize,
        /// Per-machine loads (ms), indexed by machine.
        loads: Vec<f64>,
    },
    /// What-if probe answered from resident evaluator state.
    WhatIf {
        /// Candidate system period (ms).
        period: f64,
        /// Candidate critical machine index.
        critical: usize,
    },
    /// Mapping computed.
    Solved {
        /// Winning method label (registry name, or portfolio cell label).
        label: String,
        /// Achieved system period (ms), bit-identical to the one-shot run.
        period: f64,
        /// Machine count of the mapping.
        machines: usize,
        /// Machine index per task, in task order.
        assignment: Vec<usize>,
    },
    /// Anytime mapping computed (v3): the streamed incumbent/bound reports
    /// followed by the final assignment. The first report already carries a
    /// feasible incumbent; the reports are monotone (see [`GapReport`]).
    SolvedAnytime {
        /// Every incumbent/bound report, in emission order.
        reports: Vec<GapReport>,
        /// Achieved system period (ms) — the last report's incumbent.
        period: f64,
        /// Machine count of the mapping.
        machines: usize,
        /// Machine index per task, in task order.
        assignment: Vec<usize>,
    },
    /// Statistics counters, in the server's fixed presentation order.
    Stats(Vec<(String, u64)>),
    /// Session closed by request.
    Shutdown,
    /// The request failed.
    Error {
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail (single line).
        detail: String,
    },
}

impl Response {
    /// Convenience constructor for error responses.
    pub fn error(code: ErrorCode, detail: impl Into<String>) -> Self {
        Response::Error {
            code,
            detail: detail.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `<command> <name> <N>` and the `N` checked payload lines to
/// `out`, reserving the whole block once: a load payload runs to thousands
/// of lines, so each is copied with `push_str` rather than formatted.
fn push_counted(
    out: &mut String,
    command: &str,
    name: &str,
    payload: &[String],
) -> ProtoResult<()> {
    let name = check_name(name)?;
    let payload_len: usize = payload.iter().map(|line| line.len() + 1).sum();
    // The head: command, name, a count of at most 20 digits, 2 spaces, `\n`.
    out.reserve(command.len() + name.len() + 23 + payload_len);
    let _ = writeln!(out, "{command} {name} {}", payload.len());
    let block = out.len();
    for line in payload {
        out.push_str(line);
        out.push('\n');
    }
    // One pass over the block validates every line at once: it holds one
    // separator per line unless some line carries its own `\n` or `\r`.
    if line_separators(&out[block..]) != payload.len() {
        for line in payload {
            check_payload_line(line)?;
        }
    }
    Ok(())
}

/// Serializes a request in canonical wire form (trailing newline included).
pub fn request_to_text(request: &Request) -> ProtoResult<String> {
    let mut out = String::new();
    match request {
        Request::Hello { requested } => {
            let _ = writeln!(out, "hello {PROTO_NAME} v{requested}");
        }
        Request::Batch(items) => {
            let _ = writeln!(out, "batch {}", items.len());
            for item in items {
                if matches!(item, Request::Batch(_)) {
                    return Err(ProtoError::UnencodableText {
                        text: "batch envelopes cannot nest".to_string(),
                    });
                }
                out.push_str(&request_to_text(item)?);
            }
        }
        Request::StatusExport => {
            let _ = writeln!(out, "status-export");
        }
        Request::Load { name, payload } => push_counted(&mut out, "load", name, payload)?,
        Request::Unload { name } => {
            let _ = writeln!(out, "unload {}", check_name(name)?);
        }
        Request::List => {
            let _ = writeln!(out, "list");
        }
        Request::Evaluate { name, payload } => push_counted(&mut out, "evaluate", name, payload)?,
        Request::WhatIf { name, probe } => match probe {
            Probe::Move { task, machine } => {
                let _ = writeln!(out, "whatif {} move {task} {machine}", check_name(name)?);
            }
            Probe::Swap { a, b } => {
                let _ = writeln!(out, "whatif {} swap {a} {b}", check_name(name)?);
            }
        },
        Request::Solve { name, method, seed } => {
            let _ = write!(out, "solve {}", check_name(name)?);
            match method {
                SolveMethod::Heuristic(heuristic) => {
                    let _ = write!(out, " heuristic {}", check_name(heuristic)?);
                }
                SolveMethod::Portfolio => {
                    let _ = write!(out, " portfolio");
                }
                SolveMethod::Anytime { budget } => {
                    let _ = write!(out, " anytime");
                    if let Some(budget) = budget {
                        let _ = write!(out, " budget {budget}");
                    }
                }
            }
            if let Some(seed) = seed {
                let _ = write!(out, " seed {seed}");
            }
            out.push('\n');
        }
        Request::Stats => {
            let _ = writeln!(out, "stats");
        }
        Request::Shutdown => {
            let _ = writeln!(out, "shutdown");
        }
    }
    Ok(out)
}

/// Serializes a response in canonical wire form (trailing newline included).
pub fn response_to_text(response: &Response) -> ProtoResult<String> {
    let mut out = String::new();
    match response {
        Response::Hello { version } => {
            let _ = writeln!(out, "ok hello {version}");
        }
        Response::Batch(items) => {
            let _ = writeln!(out, "ok batch {}", items.len());
            for item in items {
                if matches!(item, Response::Batch(_)) {
                    return Err(ProtoError::UnencodableText {
                        text: "batch envelopes cannot nest".to_string(),
                    });
                }
                out.push_str(&response_to_text(item)?);
            }
            let _ = writeln!(out, "end");
        }
        Response::StatusExport(lines) => {
            let _ = writeln!(out, "ok status-export {}", lines.len());
            for line in lines {
                let _ = writeln!(out, "{}", check_payload_line(line)?);
            }
            let _ = writeln!(out, "end");
        }
        Response::Loaded {
            name,
            tasks,
            machines,
            types,
        } => {
            let _ = writeln!(
                out,
                "ok load {} {tasks} {machines} {types}",
                check_name(name)?
            );
        }
        Response::Unloaded { name } => {
            let _ = writeln!(out, "ok unload {}", check_name(name)?);
        }
        Response::List(entries) => {
            let _ = writeln!(out, "ok list {}", entries.len());
            for entry in entries {
                let _ = writeln!(
                    out,
                    "instance {} {} {} {}",
                    check_name(&entry.name)?,
                    entry.tasks,
                    entry.machines,
                    entry.types
                );
            }
            let _ = writeln!(out, "end");
        }
        Response::Evaluated {
            period,
            critical,
            loads,
        } => {
            let _ = writeln!(out, "ok evaluate {period} {critical}");
            for (u, load) in loads.iter().enumerate() {
                let _ = writeln!(out, "load {u} {load}");
            }
            let _ = writeln!(out, "end");
        }
        Response::WhatIf { period, critical } => {
            let _ = writeln!(out, "ok whatif {period} {critical}");
        }
        Response::Solved {
            label,
            period,
            machines,
            assignment,
        } => {
            let _ = writeln!(
                out,
                "ok solve {} {period} {machines} {}",
                check_name(label)?,
                assignment.len()
            );
            for (task, machine) in assignment.iter().enumerate() {
                let _ = writeln!(out, "assign {task} {machine}");
            }
            let _ = writeln!(out, "end");
        }
        Response::SolvedAnytime {
            reports,
            period,
            machines,
            assignment,
        } => {
            let _ = writeln!(
                out,
                "ok solve-anytime {} {period} {machines} {}",
                reports.len(),
                assignment.len()
            );
            for report in reports {
                let _ = writeln!(
                    out,
                    "gap {} {} {} {} {}",
                    check_name(&report.phase)?,
                    report.steps,
                    report.period,
                    report.bound,
                    u8::from(report.proven)
                );
            }
            for (task, machine) in assignment.iter().enumerate() {
                let _ = writeln!(out, "assign {task} {machine}");
            }
            let _ = writeln!(out, "end");
        }
        Response::Stats(entries) => {
            let _ = writeln!(out, "ok stats {}", entries.len());
            for (key, value) in entries {
                let _ = writeln!(out, "stat {} {value}", check_name(key)?);
            }
            let _ = writeln!(out, "end");
        }
        Response::Shutdown => {
            let _ = writeln!(out, "ok shutdown");
        }
        Response::Error { code, detail } => {
            if detail.contains('\n') || detail.contains('\r') {
                return Err(ProtoError::UnencodableText {
                    text: detail.clone(),
                });
            }
            let _ = writeln!(out, "err {} {detail}", code.token());
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Upper bound on any `Vec::with_capacity` driven by a wire-supplied count.
/// Real counts above this still parse — they just grow by pushing.
const WIRE_CAPACITY_CAP: usize = 1024;

/// The most a thread keeps in spare payload lines, each line counted at its
/// capacity plus its `String` header. The largest benchmark payload needs
/// about 90 KiB and a 200×64 instance about 0.5 MiB.
const SPARE_LINE_BYTES: usize = 1 << 20;

/// Payload line `String`s handed back after their request was answered,
/// kept for the next counted-payload read on the same thread. The router
/// answers every instance command on the session thread that read it, so a
/// serving thread gets back every line it hands out; a thread that never
/// hands lines back (a client) reads into fresh `String`s.
#[derive(Debug, Default)]
struct SpareLines {
    /// The next line to hand out is the last.
    lines: Vec<String>,
    /// What `lines` counts against [`SPARE_LINE_BYTES`].
    bytes: usize,
}

thread_local! {
    static SPARE_LINES: Cell<SpareLines> = const {
        Cell::new(SpareLines {
            lines: Vec::new(),
            bytes: 0,
        })
    };
}

impl SpareLines {
    fn cost(line: &String) -> usize {
        line.capacity() + std::mem::size_of::<String>()
    }

    /// A spare line (not cleared), or a fresh one when none is left.
    fn pop(&mut self) -> String {
        match self.lines.pop() {
            Some(line) => {
                self.bytes -= Self::cost(&line);
                line
            }
            None => String::new(),
        }
    }

    /// Keeps the longest prefix of `payload` that fits the byte cap, so the
    /// next reads pop its lines in the order they were read; drops the rest.
    fn keep(&mut self, mut payload: Vec<String>) {
        let mut fits = 0;
        for line in &payload {
            let bytes = self.bytes + Self::cost(line);
            if bytes > SPARE_LINE_BYTES {
                break;
            }
            self.bytes = bytes;
            fits += 1;
        }
        payload.truncate(fits);
        self.lines.extend(payload.into_iter().rev());
    }
}

/// Hands the lines of an answered `load`/`evaluate` payload back to this
/// thread's spare list, for the next payload [`ProtoReader`] reads here.
pub(crate) fn recycle_payload(payload: Vec<String>) {
    let _ = SPARE_LINES.try_with(|spare| {
        let mut lines = spare.take();
        lines.keep(payload);
        spare.set(lines);
    });
}

/// A line source over any [`BufRead`], tracking EOF and stream desync.
#[derive(Debug)]
pub struct ProtoReader<R> {
    reader: R,
    desynced: bool,
}

impl<R: BufRead> ProtoReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        ProtoReader {
            reader,
            desynced: false,
        }
    }

    /// `true` once a parse failure left the stream offset untrustworthy —
    /// a `load`/`evaluate` head that failed before its payload count was
    /// known, so the following lines may be payload, not requests. A serve
    /// loop should answer the error and close the session rather than
    /// execute payload lines as commands.
    pub fn is_desynced(&self) -> bool {
        self.desynced
    }

    /// Reads the next line into `line`, replacing its contents, without
    /// the terminator; `false` at EOF.
    fn read_line_into(&mut self, line: &mut String) -> ProtoResult<bool> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Ok(false);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(true)
    }

    /// The next line without its terminator; `None` at EOF.
    fn next_line(&mut self) -> ProtoResult<Option<String>> {
        let mut line = String::new();
        Ok(self.read_line_into(&mut line)?.then_some(line))
    }

    /// The next non-empty line; `None` at EOF.
    fn next_content_line(&mut self) -> ProtoResult<Option<String>> {
        loop {
            match self.next_line()? {
                None => return Ok(None),
                Some(line) if line.trim().is_empty() => continue,
                Some(line) => return Ok(Some(line)),
            }
        }
    }

    /// Reads exactly `count` payload lines (payload lines may be blank-ish
    /// comment lines of the embedded text format, so no blank skipping),
    /// each into a line taken from this thread's spare list.
    fn payload(&mut self, count: usize, context: &'static str) -> ProtoResult<Vec<String>> {
        // Counts come off the wire: cap the pre-allocation so a hostile
        // header cannot request petabytes before a single line is read
        // (growth beyond the cap is amortized push).
        let mut lines = Vec::with_capacity(count.min(WIRE_CAPACITY_CAP));
        let mut spare = SPARE_LINES.take();
        let read = (0..count).try_for_each(|_| {
            let mut line = spare.pop();
            if self.read_line_into(&mut line)? {
                lines.push(line);
                Ok(())
            } else {
                Err(ProtoError::UnexpectedEof { context })
            }
        });
        let read = match read {
            Ok(()) => Ok(lines),
            Err(error) => {
                spare.keep(lines);
                Err(error)
            }
        };
        SPARE_LINES.set(spare);
        read
    }

    /// Reads the server greeting line (`None` at EOF). The caller compares
    /// it against [`GREETING`].
    pub fn read_greeting(&mut self) -> ProtoResult<Option<String>> {
        self.next_content_line()
    }

    /// Reads one request; `None` at a clean EOF (before any request line).
    pub fn read_request(&mut self) -> ProtoResult<Option<Request>> {
        let Some(line) = self.next_content_line()? else {
            return Ok(None);
        };
        self.parse_request_head(&line).map(Some)
    }

    fn parse_request_head(&mut self, line: &str) -> ProtoResult<Request> {
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("content lines are non-empty");
        let request = match keyword {
            "hello" => {
                match tokens.next() {
                    Some(PROTO_NAME) => {}
                    other => {
                        return Err(malformed(format!(
                            "expected `hello {PROTO_NAME} vN`, found `hello {}`",
                            other.unwrap_or("")
                        )))
                    }
                }
                let requested = parse_version(tokens.next())?;
                reject_extra(tokens.next(), line)?;
                Request::Hello { requested }
            }
            "batch" => {
                // Until all the enveloped requests are parsed, a failure
                // leaves an unknown number of request/payload lines
                // unconsumed — the stream is desynced throughout.
                self.desynced = true;
                let count = parse_count(tokens.next(), "batch")?;
                reject_extra(tokens.next(), line)?;
                let mut items = Vec::with_capacity(count.min(WIRE_CAPACITY_CAP));
                for _ in 0..count {
                    let Some(item_line) = self.next_content_line()? else {
                        return Err(ProtoError::UnexpectedEof {
                            context: "batch items",
                        });
                    };
                    let item = self.parse_request_head(&item_line)?;
                    // A nested `load`/`evaluate` clears the flag after its
                    // payload — re-arm it while the envelope stays open.
                    self.desynced = true;
                    if matches!(item, Request::Batch(_)) {
                        return Err(malformed("batch envelopes cannot nest"));
                    }
                    items.push(item);
                }
                self.desynced = false;
                Request::Batch(items)
            }
            "status-export" => {
                reject_extra(tokens.next(), line)?;
                Request::StatusExport
            }
            "load" | "evaluate" => {
                // Until the payload count is parsed, any failure leaves the
                // payload lines unconsumed — mark the stream desynced so the
                // serve loop doesn't execute them as commands.
                self.desynced = true;
                let name = parse_name(tokens.next(), keyword)?;
                let count = parse_count(tokens.next(), keyword)?;
                reject_extra(tokens.next(), line)?;
                self.desynced = false;
                let payload = self.payload(
                    count,
                    if keyword == "load" {
                        "load payload"
                    } else {
                        "evaluate payload"
                    },
                )?;
                for candidate in &payload {
                    check_payload_line(candidate)?;
                }
                if keyword == "load" {
                    Request::Load { name, payload }
                } else {
                    Request::Evaluate { name, payload }
                }
            }
            "unload" => {
                let name = parse_name(tokens.next(), keyword)?;
                reject_extra(tokens.next(), line)?;
                Request::Unload { name }
            }
            "list" => {
                reject_extra(tokens.next(), line)?;
                Request::List
            }
            "whatif" => {
                let name = parse_name(tokens.next(), keyword)?;
                let probe = match tokens.next() {
                    Some("move") => Probe::Move {
                        task: parse_index(tokens.next(), "whatif task")?,
                        machine: parse_index(tokens.next(), "whatif machine")?,
                    },
                    Some("swap") => Probe::Swap {
                        a: parse_index(tokens.next(), "whatif first task")?,
                        b: parse_index(tokens.next(), "whatif second task")?,
                    },
                    other => {
                        return Err(malformed(format!(
                            "expected `move` or `swap`, found `{}`",
                            other.unwrap_or("")
                        )))
                    }
                };
                reject_extra(tokens.next(), line)?;
                Request::WhatIf { name, probe }
            }
            "solve" => {
                let name = parse_name(tokens.next(), keyword)?;
                let method = match tokens.next() {
                    Some("heuristic") => {
                        SolveMethod::Heuristic(parse_name(tokens.next(), "heuristic")?)
                    }
                    Some("portfolio") => SolveMethod::Portfolio,
                    Some("anytime") => SolveMethod::Anytime { budget: None },
                    other => {
                        return Err(malformed(format!(
                            "expected `heuristic <name>`, `portfolio` or `anytime`, found `{}`",
                            other.unwrap_or("")
                        )))
                    }
                };
                let mut next = tokens.next();
                let method = match (method, next) {
                    (SolveMethod::Anytime { .. }, Some("budget")) => {
                        let budget = parse_u64(tokens.next(), "budget")?;
                        next = tokens.next();
                        SolveMethod::Anytime {
                            budget: Some(budget),
                        }
                    }
                    (method, _) => method,
                };
                let seed = match next {
                    None => None,
                    Some("seed") => Some(parse_u64(tokens.next(), "seed")?),
                    Some(other) => {
                        return Err(malformed(format!("unexpected token `{other}`")));
                    }
                };
                reject_extra(tokens.next(), line)?;
                Request::Solve { name, method, seed }
            }
            "stats" => {
                reject_extra(tokens.next(), line)?;
                Request::Stats
            }
            "shutdown" => {
                reject_extra(tokens.next(), line)?;
                Request::Shutdown
            }
            other => {
                return Err(malformed(format!(
                    "unknown request `{other}` (expected hello, load, unload, list, evaluate, \
                     whatif, solve, batch, stats, status-export or shutdown)"
                )))
            }
        };
        Ok(request)
    }

    /// Reads one response; `None` at a clean EOF.
    pub fn read_response(&mut self) -> ProtoResult<Option<Response>> {
        let Some(line) = self.next_content_line()? else {
            return Ok(None);
        };
        self.parse_response_head(&line).map(Some)
    }

    fn parse_response_head(&mut self, line: &str) -> ProtoResult<Response> {
        let mut tokens = line.split_whitespace();
        match tokens.next().expect("content lines are non-empty") {
            "ok" => {}
            "err" => {
                let code_token = tokens
                    .next()
                    .ok_or_else(|| malformed("`err` without a code"))?;
                let code = ErrorCode::from_token(code_token)
                    .ok_or_else(|| malformed(format!("unknown error code `{code_token}`")))?;
                let rest = line
                    .splitn(3, ' ')
                    .nth(2)
                    .ok_or_else(|| malformed("`err` without a detail message"))?;
                return Ok(Response::Error {
                    code,
                    detail: rest.to_string(),
                });
            }
            other => {
                return Err(malformed(format!(
                    "expected `ok …` or `err …`, found `{other}`"
                )))
            }
        }
        let verb = tokens
            .next()
            .ok_or_else(|| malformed("`ok` without a verb"))?;
        let response = match verb {
            "hello" => {
                match tokens.next() {
                    Some(PROTO_NAME) => {}
                    other => {
                        return Err(malformed(format!(
                            "expected `ok hello {PROTO_NAME} vN`, found `ok hello {}`",
                            other.unwrap_or("")
                        )))
                    }
                }
                let number = parse_version(tokens.next())?;
                let version = ProtoVersion::from_number(number)
                    .ok_or_else(|| malformed(format!("unsupported hello version v{number}")))?;
                Response::Hello { version }
            }
            "batch" => {
                let count = parse_count(tokens.next(), "batch count")?;
                reject_extra(tokens.next(), line)?;
                let mut items = Vec::with_capacity(count.min(WIRE_CAPACITY_CAP));
                for _ in 0..count {
                    let item = self.read_response()?.ok_or(ProtoError::UnexpectedEof {
                        context: "batch answers",
                    })?;
                    if matches!(item, Response::Batch(_)) {
                        return Err(malformed("batch envelopes cannot nest"));
                    }
                    items.push(item);
                }
                self.expect_end("batch")?;
                return Ok(Response::Batch(items));
            }
            "status-export" => {
                let count = parse_count(tokens.next(), "status-export line count")?;
                reject_extra(tokens.next(), line)?;
                let lines = self.payload(count, "status-export document")?;
                for candidate in &lines {
                    check_payload_line(candidate)?;
                }
                self.expect_end("status-export")?;
                return Ok(Response::StatusExport(lines));
            }
            "load" => Response::Loaded {
                name: parse_name(tokens.next(), "loaded name")?,
                tasks: parse_count(tokens.next(), "task count")?,
                machines: parse_count(tokens.next(), "machine count")?,
                types: parse_count(tokens.next(), "type count")?,
            },
            "unload" => Response::Unloaded {
                name: parse_name(tokens.next(), "unloaded name")?,
            },
            "list" => {
                let count = parse_count(tokens.next(), "list count")?;
                reject_extra(tokens.next(), line)?;
                let mut entries = Vec::with_capacity(count.min(WIRE_CAPACITY_CAP));
                for _ in 0..count {
                    let entry = self.next_content_line()?.ok_or(ProtoError::UnexpectedEof {
                        context: "list entries",
                    })?;
                    let mut t = entry.split_whitespace();
                    match t.next() {
                        Some("instance") => {}
                        _ => return Err(malformed(format!("expected `instance …`: `{entry}`"))),
                    }
                    entries.push(InstanceInfo {
                        name: parse_name(t.next(), "instance name")?,
                        tasks: parse_count(t.next(), "task count")?,
                        machines: parse_count(t.next(), "machine count")?,
                        types: parse_count(t.next(), "type count")?,
                    });
                    reject_extra(t.next(), &entry)?;
                }
                self.expect_end("list")?;
                return Ok(Response::List(entries));
            }
            "evaluate" => {
                let period = parse_f64(tokens.next(), "period")?;
                let critical = parse_index(tokens.next(), "critical machine")?;
                reject_extra(tokens.next(), line)?;
                let mut loads = Vec::new();
                loop {
                    let entry = self.next_content_line()?.ok_or(ProtoError::UnexpectedEof {
                        context: "evaluate loads",
                    })?;
                    if entry == "end" {
                        break;
                    }
                    let mut t = entry.split_whitespace();
                    match t.next() {
                        Some("load") => {}
                        _ => return Err(malformed(format!("expected `load …`: `{entry}`"))),
                    }
                    let index = parse_index(t.next(), "machine index")?;
                    if index != loads.len() {
                        return Err(malformed(format!(
                            "load lines out of order: expected machine {}, found {index}",
                            loads.len()
                        )));
                    }
                    loads.push(parse_f64(t.next(), "machine load")?);
                    reject_extra(t.next(), &entry)?;
                }
                return Ok(Response::Evaluated {
                    period,
                    critical,
                    loads,
                });
            }
            "whatif" => Response::WhatIf {
                period: parse_f64(tokens.next(), "period")?,
                critical: parse_index(tokens.next(), "critical machine")?,
            },
            "solve" => {
                let label = parse_name(tokens.next(), "solve label")?;
                let period = parse_f64(tokens.next(), "period")?;
                let machines = parse_count(tokens.next(), "machine count")?;
                let tasks = parse_count(tokens.next(), "task count")?;
                reject_extra(tokens.next(), line)?;
                let mut assignment = Vec::with_capacity(tasks.min(WIRE_CAPACITY_CAP));
                for _ in 0..tasks {
                    let entry = self.next_content_line()?.ok_or(ProtoError::UnexpectedEof {
                        context: "solve assignment",
                    })?;
                    let mut t = entry.split_whitespace();
                    match t.next() {
                        Some("assign") => {}
                        _ => return Err(malformed(format!("expected `assign …`: `{entry}`"))),
                    }
                    let task = parse_index(t.next(), "task index")?;
                    if task != assignment.len() {
                        return Err(malformed(format!(
                            "assign lines out of order: expected task {}, found {task}",
                            assignment.len()
                        )));
                    }
                    assignment.push(parse_index(t.next(), "machine index")?);
                    reject_extra(t.next(), &entry)?;
                }
                self.expect_end("solve")?;
                return Ok(Response::Solved {
                    label,
                    period,
                    machines,
                    assignment,
                });
            }
            "solve-anytime" => {
                let report_count = parse_count(tokens.next(), "report count")?;
                let period = parse_f64(tokens.next(), "period")?;
                let machines = parse_count(tokens.next(), "machine count")?;
                let tasks = parse_count(tokens.next(), "task count")?;
                reject_extra(tokens.next(), line)?;
                let mut reports = Vec::with_capacity(report_count.min(WIRE_CAPACITY_CAP));
                for _ in 0..report_count {
                    let entry = self.next_content_line()?.ok_or(ProtoError::UnexpectedEof {
                        context: "solve-anytime gap reports",
                    })?;
                    let mut t = entry.split_whitespace();
                    match t.next() {
                        Some("gap") => {}
                        _ => return Err(malformed(format!("expected `gap …`: `{entry}`"))),
                    }
                    let phase = parse_name(t.next(), "gap phase")?;
                    let steps = parse_u64(t.next(), "gap steps")?;
                    let period = parse_f64(t.next(), "gap period")?;
                    let bound = parse_f64(t.next(), "gap bound")?;
                    let proven = match t.next() {
                        Some("0") => false,
                        Some("1") => true,
                        other => {
                            return Err(malformed(format!(
                                "expected proven flag 0 or 1, found `{}`",
                                other.unwrap_or("")
                            )))
                        }
                    };
                    reject_extra(t.next(), &entry)?;
                    reports.push(GapReport {
                        phase,
                        steps,
                        period,
                        bound,
                        proven,
                    });
                }
                let mut assignment = Vec::with_capacity(tasks.min(WIRE_CAPACITY_CAP));
                for _ in 0..tasks {
                    let entry = self.next_content_line()?.ok_or(ProtoError::UnexpectedEof {
                        context: "solve-anytime assignment",
                    })?;
                    let mut t = entry.split_whitespace();
                    match t.next() {
                        Some("assign") => {}
                        _ => return Err(malformed(format!("expected `assign …`: `{entry}`"))),
                    }
                    let task = parse_index(t.next(), "task index")?;
                    if task != assignment.len() {
                        return Err(malformed(format!(
                            "assign lines out of order: expected task {}, found {task}",
                            assignment.len()
                        )));
                    }
                    assignment.push(parse_index(t.next(), "machine index")?);
                    reject_extra(t.next(), &entry)?;
                }
                self.expect_end("solve-anytime")?;
                return Ok(Response::SolvedAnytime {
                    reports,
                    period,
                    machines,
                    assignment,
                });
            }
            "stats" => {
                let count = parse_count(tokens.next(), "stats count")?;
                reject_extra(tokens.next(), line)?;
                let mut entries = Vec::with_capacity(count.min(WIRE_CAPACITY_CAP));
                for _ in 0..count {
                    let entry = self.next_content_line()?.ok_or(ProtoError::UnexpectedEof {
                        context: "stats entries",
                    })?;
                    let mut t = entry.split_whitespace();
                    match t.next() {
                        Some("stat") => {}
                        _ => return Err(malformed(format!("expected `stat …`: `{entry}`"))),
                    }
                    entries.push((
                        parse_name(t.next(), "stat key")?,
                        parse_u64(t.next(), "stat value")?,
                    ));
                    reject_extra(t.next(), &entry)?;
                }
                self.expect_end("stats")?;
                return Ok(Response::Stats(entries));
            }
            "shutdown" => Response::Shutdown,
            other => return Err(malformed(format!("unknown response verb `{other}`"))),
        };
        // Single-line responses reach here (block responses returned above);
        // the live iterator holds exactly the unconsumed tail of the line.
        reject_extra(tokens.next(), line)?;
        Ok(response)
    }

    fn expect_end(&mut self, context: &'static str) -> ProtoResult<()> {
        match self.next_content_line()? {
            Some(line) if line == "end" => Ok(()),
            Some(line) => Err(malformed(format!("expected `end`, found `{line}`"))),
            None => Err(ProtoError::UnexpectedEof { context }),
        }
    }
}

fn parse_name(token: Option<&str>, what: &str) -> ProtoResult<String> {
    let token = token.ok_or_else(|| malformed(format!("missing {what} name")))?;
    if valid_name(token) {
        Ok(token.to_string())
    } else {
        Err(malformed(format!(
            "invalid {what} name `{token}` (ASCII letters, digits, `.`, `_`, `-`; \
             at most 64 characters)"
        )))
    }
}

fn parse_count(token: Option<&str>, what: &str) -> ProtoResult<usize> {
    token
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| malformed(format!("expected {what} (unsigned integer)")))
}

fn parse_index(token: Option<&str>, what: &str) -> ProtoResult<usize> {
    parse_count(token, what)
}

fn parse_u64(token: Option<&str>, what: &str) -> ProtoResult<u64> {
    token
        .and_then(|t| t.parse::<u64>().ok())
        .ok_or_else(|| malformed(format!("expected {what} (u64)")))
}

fn parse_version(token: Option<&str>) -> ProtoResult<u32> {
    token
        .and_then(|t| t.strip_prefix('v'))
        .and_then(|t| t.parse::<u32>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| malformed("expected a protocol version (`v1`, `v2`, …)"))
}

fn parse_f64(token: Option<&str>, what: &str) -> ProtoResult<f64> {
    token
        .and_then(|t| t.parse::<f64>().ok())
        .ok_or_else(|| malformed(format!("expected {what} (float)")))
}

fn reject_extra(token: Option<&str>, line: &str) -> ProtoResult<()> {
    match token {
        None => Ok(()),
        Some(extra) => Err(malformed(format!(
            "unexpected trailing token `{extra}` in `{line}`"
        ))),
    }
}

/// Splits a `mf_core::textio` document into protocol payload lines, the
/// lines the engine hands to `textio::instance_from_lines` or
/// `textio::mapping_from_lines` as they arrived.
pub fn text_payload(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

/// Parses exactly one request from a text buffer (convenience for tests and
/// the client's script translation).
pub fn request_from_text(text: &str) -> ProtoResult<Request> {
    let mut reader = ProtoReader::new(text.as_bytes());
    reader
        .read_request()?
        .ok_or(ProtoError::UnexpectedEof { context: "request" })
}

/// Parses exactly one response from a text buffer.
pub fn response_from_text(text: &str) -> ProtoResult<Response> {
    let mut reader = ProtoReader::new(text.as_bytes());
    reader.read_response()?.ok_or(ProtoError::UnexpectedEof {
        context: "response",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(valid_name("line6"));
        assert!(valid_name("a.b_c-d"));
        assert!(!valid_name(""));
        assert!(!valid_name("two words"));
        assert!(!valid_name("tab\there"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn single_line_requests_round_trip() {
        for request in [
            Request::Unload { name: "a".into() },
            Request::List,
            Request::Stats,
            Request::Shutdown,
            Request::WhatIf {
                name: "inst".into(),
                probe: Probe::Move {
                    task: 3,
                    machine: 1,
                },
            },
            Request::WhatIf {
                name: "inst".into(),
                probe: Probe::Swap { a: 0, b: 5 },
            },
            Request::Solve {
                name: "inst".into(),
                method: SolveMethod::Heuristic("SD-H2".into()),
                seed: None,
            },
            Request::Solve {
                name: "inst".into(),
                method: SolveMethod::Portfolio,
                seed: Some(u64::MAX),
            },
        ] {
            let text = request_to_text(&request).unwrap();
            let parsed = request_from_text(&text).unwrap();
            assert_eq!(parsed, request);
            assert_eq!(request_to_text(&parsed).unwrap(), text);
        }
    }

    #[test]
    fn payload_requests_round_trip() {
        let request = Request::Load {
            name: "line".into(),
            payload: vec![
                "# comment".into(),
                "tasks 2".into(),
                "".into(),
                "  indented".into(),
            ],
        };
        let text = request_to_text(&request).unwrap();
        let parsed = request_from_text(&text).unwrap();
        assert_eq!(parsed, request);
        assert_eq!(request_to_text(&parsed).unwrap(), text);
    }

    #[test]
    fn truncated_payload_is_an_eof_error() {
        let err = request_from_text("load a 3\nonly one line\n").unwrap_err();
        assert!(matches!(err, ProtoError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "frobnicate",
            "load",
            "load name",
            "load two words 0",
            "unload",
            "unload bad name",
            "list extra",
            "whatif a move 1",
            "whatif a shuffle 1 2",
            "solve a",
            "solve a exact",
            "solve a heuristic",
            "solve a portfolio seed",
            "solve a portfolio seed -3",
            "solve a portfolio seed 1 extra",
            "stats now",
            "shutdown please",
        ] {
            let err = request_from_text(&format!("{bad}\n")).unwrap_err();
            assert!(
                matches!(err, ProtoError::Malformed { .. }),
                "`{bad}` must be Malformed, was {err:?}"
            );
        }
    }

    #[test]
    fn responses_round_trip_with_lossless_floats() {
        for response in [
            Response::Loaded {
                name: "a".into(),
                tasks: 6,
                machines: 3,
                types: 2,
            },
            Response::Unloaded { name: "a".into() },
            Response::List(vec![
                InstanceInfo {
                    name: "a".into(),
                    tasks: 1,
                    machines: 2,
                    types: 1,
                },
                InstanceInfo {
                    name: "b".into(),
                    tasks: 100,
                    machines: 20,
                    types: 5,
                },
            ]),
            Response::List(Vec::new()),
            Response::Evaluated {
                period: 1.0 / 3.0,
                critical: 1,
                loads: vec![f64::MIN_POSITIVE, 437.519_480_519_480_5, 0.0],
            },
            Response::WhatIf {
                period: 1e300,
                critical: 0,
            },
            Response::Solved {
                label: "H6-H4w#1".into(),
                period: 12345.678901234567,
                machines: 3,
                assignment: vec![0, 2, 1, 1],
            },
            Response::Stats(vec![("requests".into(), 7), ("errors".into(), 0)]),
            Response::Shutdown,
            Response::Error {
                code: ErrorCode::UnknownInstance,
                detail: "no instance named `x` is loaded".into(),
            },
        ] {
            let text = response_to_text(&response).unwrap();
            let parsed = response_from_text(&text).unwrap();
            if let (
                Response::Evaluated {
                    period: a,
                    loads: la,
                    ..
                },
                Response::Evaluated {
                    period: b,
                    loads: lb,
                    ..
                },
            ) = (&parsed, &response)
            {
                assert_eq!(a.to_bits(), b.to_bits());
                for (x, y) in la.iter().zip(lb) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            assert_eq!(parsed, response);
            assert_eq!(response_to_text(&parsed).unwrap(), text);
        }
    }

    #[test]
    fn malformed_responses_are_typed_errors() {
        for bad in [
            "yes",
            "ok",
            "ok frobnicate",
            "ok load a x 3 2",
            "ok list 1\nnot an instance line\nend",
            "ok evaluate 1.5 0\nload 1 2.0\nend",
            "ok solve a 1.5 3 1\nassign 1 0\nend",
            "ok shutdown now",
            "err",
            "err what happened",
        ] {
            let err = response_from_text(&format!("{bad}\n")).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtoError::Malformed { .. } | ProtoError::UnexpectedEof { .. }
                ),
                "`{bad}` must fail typed, was {err:?}"
            );
        }
        // Truncated blocks hit EOF, not panics.
        let err = response_from_text("ok list 2\ninstance a 1 1 1\n").unwrap_err();
        assert!(matches!(err, ProtoError::UnexpectedEof { .. }), "{err}");
        let err = response_from_text("ok solve a 1.5 3 2\nassign 0 1\n").unwrap_err();
        assert!(matches!(err, ProtoError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn v2_requests_round_trip() {
        for request in [
            Request::Hello { requested: 1 },
            Request::Hello { requested: 2 },
            Request::Hello { requested: 7 },
            Request::StatusExport,
            Request::Batch(Vec::new()),
            Request::Batch(vec![
                Request::Load {
                    name: "a".into(),
                    payload: vec!["tasks 1".into(), "".into()],
                },
                Request::WhatIf {
                    name: "a".into(),
                    probe: Probe::Swap { a: 1, b: 2 },
                },
                Request::Solve {
                    name: "a".into(),
                    method: SolveMethod::Portfolio,
                    seed: Some(3),
                },
                Request::Unload { name: "a".into() },
            ]),
        ] {
            let text = request_to_text(&request).unwrap();
            let parsed = request_from_text(&text).unwrap();
            assert_eq!(parsed, request);
            assert_eq!(request_to_text(&parsed).unwrap(), text);
        }
    }

    #[test]
    fn v2_responses_round_trip() {
        for response in [
            Response::Hello {
                version: ProtoVersion::V1,
            },
            Response::Hello {
                version: ProtoVersion::V2,
            },
            Response::StatusExport(vec![
                "{".into(),
                "  \"format\": \"mf-stats v1\",".into(),
                "}".into(),
            ]),
            Response::Batch(Vec::new()),
            Response::Batch(vec![
                Response::Loaded {
                    name: "a".into(),
                    tasks: 2,
                    machines: 1,
                    types: 1,
                },
                Response::Evaluated {
                    period: 1.0 / 3.0,
                    critical: 0,
                    loads: vec![0.5],
                },
                Response::Error {
                    code: ErrorCode::NoResidentState,
                    detail: "no resident evaluator state".into(),
                },
            ]),
        ] {
            let text = response_to_text(&response).unwrap();
            let parsed = response_from_text(&text).unwrap();
            assert_eq!(parsed, response);
            assert_eq!(response_to_text(&parsed).unwrap(), text);
        }
    }

    #[test]
    fn batch_envelopes_cannot_nest() {
        let nested = Request::Batch(vec![Request::Batch(vec![Request::List])]);
        assert!(matches!(
            request_to_text(&nested),
            Err(ProtoError::UnencodableText { .. })
        ));
        let err = request_from_text("batch 1\nbatch 1\nlist\n").unwrap_err();
        assert!(matches!(err, ProtoError::Malformed { .. }), "{err}");
        let err = response_from_text("ok batch 1\nok batch 0\nend\nend\n").unwrap_err();
        assert!(matches!(err, ProtoError::Malformed { .. }), "{err}");
    }

    #[test]
    fn truncated_batch_is_an_eof_error_and_desyncs() {
        let mut reader = ProtoReader::new("batch 2\nlist\n".as_bytes());
        let err = reader.read_request().unwrap_err();
        assert!(matches!(err, ProtoError::UnexpectedEof { .. }), "{err}");
        assert!(
            reader.is_desynced(),
            "a torn envelope must desync the stream"
        );
        // A batch whose inner payload count is malformed also stays desynced.
        let mut reader = ProtoReader::new("batch 2\nload a 1\ntasks 1\nunload\n".as_bytes());
        let err = reader.read_request().unwrap_err();
        assert!(matches!(err, ProtoError::Malformed { .. }), "{err}");
        assert!(reader.is_desynced());
    }

    #[test]
    fn malformed_hellos_are_typed_errors() {
        for bad in [
            "hello",
            "hello mf-proto",
            "hello mf-proto 2",
            "hello mf-proto v0",
            "hello mf-proto vtwo",
            "hello other-proto v2",
            "hello mf-proto v2 extra",
            "status-export now",
        ] {
            let err = request_from_text(&format!("{bad}\n")).unwrap_err();
            assert!(
                matches!(err, ProtoError::Malformed { .. }),
                "`{bad}` must be Malformed, was {err:?}"
            );
        }
    }

    #[test]
    fn version_negotiation_prefers_the_highest_shared_version() {
        assert_eq!(ProtoVersion::negotiate(0), None);
        assert_eq!(ProtoVersion::negotiate(1), Some(ProtoVersion::V1));
        assert_eq!(ProtoVersion::negotiate(2), Some(ProtoVersion::V2));
        assert_eq!(ProtoVersion::negotiate(3), Some(ProtoVersion::V3));
        assert_eq!(ProtoVersion::negotiate(9), Some(ProtoVersion::V3));
        assert_eq!(ProtoVersion::V2.to_string(), "mf-proto v2");
        assert_eq!(ProtoVersion::V3.to_string(), "mf-proto v3");
        assert_eq!(ProtoVersion::default(), ProtoVersion::V1);
    }

    #[test]
    fn v3_anytime_requests_round_trip() {
        for request in [
            Request::Solve {
                name: "inst".into(),
                method: SolveMethod::Anytime { budget: None },
                seed: None,
            },
            Request::Solve {
                name: "inst".into(),
                method: SolveMethod::Anytime {
                    budget: Some(50_000),
                },
                seed: Some(7),
            },
            Request::Solve {
                name: "inst".into(),
                method: SolveMethod::Anytime { budget: None },
                seed: Some(u64::MAX),
            },
        ] {
            let text = request_to_text(&request).unwrap();
            let parsed = request_from_text(&text).unwrap();
            assert_eq!(parsed, request);
            assert_eq!(request_to_text(&parsed).unwrap(), text);
        }
        for bad in [
            "solve a anytime budget",
            "solve a anytime budget x",
            "solve a anytime budget 1 extra",
            "solve a anytime seed",
            "solve a anytime 5",
        ] {
            let err = request_from_text(&format!("{bad}\n")).unwrap_err();
            assert!(
                matches!(err, ProtoError::Malformed { .. }),
                "`{bad}` must be Malformed, was {err:?}"
            );
        }
    }

    #[test]
    fn v3_anytime_responses_round_trip_with_lossless_floats() {
        let response = Response::SolvedAnytime {
            reports: vec![
                GapReport {
                    phase: "seed".into(),
                    steps: 0,
                    period: 445.2,
                    bound: 381.266_188_263_734_9,
                    proven: false,
                },
                GapReport {
                    phase: "lns".into(),
                    steps: 12_500,
                    period: 440.1,
                    bound: 381.266_188_263_734_9,
                    proven: false,
                },
                GapReport {
                    phase: "bnb".into(),
                    steps: 14_061,
                    period: 437.519_480_519_480_5,
                    bound: 437.519_480_519_480_5,
                    proven: true,
                },
            ],
            period: 437.519_480_519_480_5,
            machines: 3,
            assignment: vec![0, 1, 2, 0, 1, 2],
        };
        let text = response_to_text(&response).unwrap();
        let parsed = response_from_text(&text).unwrap();
        if let (
            Response::SolvedAnytime { reports: a, .. },
            Response::SolvedAnytime { reports: b, .. },
        ) = (&parsed, &response)
        {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.period.to_bits(), y.period.to_bits());
                assert_eq!(x.bound.to_bits(), y.bound.to_bits());
            }
        }
        assert_eq!(parsed, response);
        assert_eq!(response_to_text(&parsed).unwrap(), text);

        // The empty-report and empty-assignment corners round-trip too.
        let empty = Response::SolvedAnytime {
            reports: Vec::new(),
            period: 1.5,
            machines: 1,
            assignment: Vec::new(),
        };
        let text = response_to_text(&empty).unwrap();
        assert_eq!(response_from_text(&text).unwrap(), empty);

        for bad in [
            "ok solve-anytime 1 1.5 3 0\ngap seed 0 1.5 1.0 2\nend",
            "ok solve-anytime 1 1.5 3 0\nnot a gap line\nend",
            "ok solve-anytime 0 1.5 3 1\nassign 1 0\nend",
            "ok solve-anytime 0 1.5 3 0\nmore\nend",
        ] {
            let err = response_from_text(&format!("{bad}\n")).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtoError::Malformed { .. } | ProtoError::UnexpectedEof { .. }
                ),
                "`{bad}` must fail typed, was {err:?}"
            );
        }
        let err = response_from_text("ok solve-anytime 1 1.5 3 0\n").unwrap_err();
        assert!(matches!(err, ProtoError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn unencodable_values_are_rejected_at_write_time() {
        assert!(matches!(
            request_to_text(&Request::Unload {
                name: "two words".into()
            }),
            Err(ProtoError::UnencodableText { .. })
        ));
        assert!(matches!(
            request_to_text(&Request::Load {
                name: "a".into(),
                payload: vec!["line\nbreak".into()],
            }),
            Err(ProtoError::UnencodableText { .. })
        ));
        assert!(matches!(
            response_to_text(&Response::Error {
                code: ErrorCode::BadRequest,
                detail: "two\nlines".into()
            }),
            Err(ProtoError::UnencodableText { .. })
        ));
    }

    /// The one-pass payload check finds a separator anywhere in a long
    /// payload — across its 255-byte chunks, at either end — and names the
    /// offending line.
    #[test]
    fn a_separator_deep_in_a_long_payload_is_named() {
        for (index, bad) in [(0, "\rfirst"), (417, "mid\rdle"), (599, "last\n")] {
            let mut payload: Vec<String> =
                (0..600).map(|k| format!("failure {k} 3 0.01")).collect();
            payload[index] = bad.to_string();
            for request in [
                Request::Load {
                    name: "a".into(),
                    payload: payload.clone(),
                },
                Request::Evaluate {
                    name: "a".into(),
                    payload: payload.clone(),
                },
            ] {
                assert_eq!(
                    request_to_text(&request),
                    Err(ProtoError::UnencodableText {
                        text: bad.to_string()
                    })
                );
            }
        }
        assert_eq!(line_separators("a\rb\n\r\nc"), 4);
        assert_eq!(line_separators(&"x\n".repeat(1000)), 1000);
    }

    /// The bytes this thread's spare list counts, checked against its lines.
    fn spare_bytes() -> usize {
        SPARE_LINES.with(|spare| {
            let lines = spare.take();
            let bytes = lines.bytes;
            let counted: usize = lines.lines.iter().map(SpareLines::cost).sum();
            spare.set(lines);
            assert_eq!(bytes, counted);
            bytes
        })
    }

    /// Reads one request from `bytes` through a fresh reader; when
    /// `recycle`, hands the lines of a `load`/`evaluate` payload back, as
    /// the engine does, and returns a copy.
    fn read_one(bytes: &[u8], recycle: bool) -> ProtoResult<Option<Request>> {
        let mut read = ProtoReader::new(bytes).read_request();
        if let Ok(Some(Request::Load { payload, .. } | Request::Evaluate { payload, .. })) =
            &mut read
        {
            if recycle {
                let lines = std::mem::take(payload);
                payload.clone_from(&lines);
                recycle_payload(lines);
            }
        }
        read
    }

    /// Seeded `load`/`evaluate` requests: long lines first, then short
    /// ones, `\n` or `\r\n` endings, blank lines and non-ASCII text.
    fn seeded_payload_requests(seed: u64, count: usize) -> Vec<Vec<u8>> {
        const WORDS: [&str; 8] = ["failure", "0.0125", "#", "☃", "é", "機械", "\u{A0}", "x"];
        let mut state = seed;
        let mut next = move || {
            state = mf_core::seed::splitmix64(state);
            state
        };
        (0..count)
            .map(|k| {
                let lines = next() % 48;
                let command = if next() % 2 == 0 { "load" } else { "evaluate" };
                let mut text = format!("{command} p{k} {lines}\n");
                for line in 0..lines {
                    let words = if line < lines / 3 {
                        20 + next() % 40
                    } else {
                        next() % 4
                    };
                    for word in 0..words {
                        if word > 0 {
                            text.push(' ');
                        }
                        text.push_str(WORDS[(next() % WORDS.len() as u64) as usize]);
                    }
                    text.push_str(if next() % 3 == 0 { "\r\n" } else { "\n" });
                }
                text.into_bytes()
            })
            .collect()
    }

    /// Reads through a warm spare list, recycling after every request, give
    /// what fresh reads on a thread that never recycles give — payloads and
    /// errors alike.
    #[test]
    fn reads_through_recycled_lines_match_fresh_reads() {
        let requests = seeded_payload_requests(17, 400);
        let failures: [&[u8]; 3] = [
            b"load a 3\nonly one line\n",
            b"evaluate a 3\nok\n\xff\xfe not utf-8\nlast\n",
            b"load a 2\nab\rcd\nlast\n",
        ];
        let read_all = move |recycle: bool| {
            if recycle {
                recycle_payload((0..64).map(|k| "z".repeat(300 + k)).collect());
            }
            let mut reads: Vec<ProtoResult<Option<Request>>> = requests
                .iter()
                .map(|bytes| read_one(bytes, recycle))
                .collect();
            reads.extend(failures.iter().map(|bytes| read_one(bytes, recycle)));
            assert!(spare_bytes() <= SPARE_LINE_BYTES);
            reads
        };
        let fresh = std::thread::spawn({
            let read_all = read_all.clone();
            move || read_all(false)
        })
        .join()
        .unwrap();
        let warm = std::thread::spawn(move || read_all(true)).join().unwrap();
        assert_eq!(warm, fresh);
        let errors: Vec<&ProtoError> = fresh[400..]
            .iter()
            .map(|read| read.as_ref().unwrap_err())
            .collect();
        assert!(matches!(errors[0], ProtoError::UnexpectedEof { .. }));
        assert!(matches!(errors[1], ProtoError::Io(_)));
        assert_eq!(
            errors[2],
            &ProtoError::UnencodableText {
                text: "ab\rcd".into()
            }
        );
        assert!(fresh[..400]
            .iter()
            .all(|read| read.as_ref().unwrap().is_some()));
    }

    /// The next read pops recycled lines in the order they were read, and a
    /// thread never keeps more than the byte cap — not even of blank lines.
    #[test]
    fn spare_lines_come_back_in_order_within_the_byte_cap() {
        std::thread::spawn(|| {
            recycle_payload((1..=5).map(|k| String::with_capacity(100 * k)).collect());
            let Ok(Some(Request::Load { payload, .. })) =
                read_one(b"load a 5\n1\n2\n3\n4\n5\n", false)
            else {
                panic!("the load reads");
            };
            let capacities: Vec<usize> = payload.iter().map(String::capacity).collect();
            assert_eq!(capacities, [100, 200, 300, 400, 500]);
            assert_eq!(spare_bytes(), 0);

            recycle_payload(vec![String::new(); 100_000]);
            let bytes = spare_bytes();
            assert!(bytes <= SPARE_LINE_BYTES, "{bytes}");
            assert!(
                bytes > SPARE_LINE_BYTES - std::mem::size_of::<String>(),
                "{bytes}"
            );

            let blank = format!("load a 100000\n{}", "\n".repeat(100_000));
            let Ok(Some(Request::Load { payload, .. })) = read_one(blank.as_bytes(), true) else {
                panic!("the load reads");
            };
            assert_eq!(payload.len(), 100_000);
            assert!(spare_bytes() <= SPARE_LINE_BYTES);
            for _ in 0..3 {
                recycle_payload(vec!["y".repeat(1000); 2000]);
                assert!(spare_bytes() <= SPARE_LINE_BYTES);
            }
        })
        .join()
        .unwrap();
    }
}
