//! Typed engine errors with **stable wire strings**.
//!
//! Every way a request can fail inside the dispatch layer is one
//! [`EngineError`] variant; its [`ErrorCode`] and its `Display` string are
//! exactly what travels on the wire as `err <code> <detail>`. Centralizing
//! the strings here means a router can forward a worker's error response
//! verbatim and a client (or the golden transcripts) can pin them — the
//! strings are part of the protocol contract, not incidental formatting.

use crate::proto::{ErrorCode, ProtoVersion, Response};
use mf_exact::solve::SolveError;

/// A dispatch-layer failure. Converts losslessly to (and is the single
/// source of) the `err <code> <detail>` wire form via
/// [`EngineError::code`] and `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No resident instance under that name.
    UnknownInstance {
        /// The requested store name.
        name: String,
    },
    /// An inline instance/mapping payload was rejected by `textio`, or an
    /// evaluator could not be built from it. The detail is already flattened
    /// to one line.
    InvalidPayload {
        /// One-line description of the rejection.
        detail: String,
    },
    /// A syntactically valid mapping that does not fit the instance.
    MappingMismatch {
        /// The validator's one-line explanation.
        detail: String,
    },
    /// `solve` returned no mapping: an unknown heuristic name, a failed
    /// solver or an empty portfolio. Its detail is the solve error's
    /// `Display`, flattened to one line.
    Solve(SolveError),
    /// A solver's mapping could not be evaluated (defensive: solver
    /// mappings are valid by construction).
    Infeasible {
        /// One-line description.
        detail: String,
    },
    /// `whatif` without resident evaluator state for the instance in this
    /// session (never evaluated/solved, or invalidated by a reload).
    NoResidentState {
        /// The requested store name.
        name: String,
    },
    /// A request that was well-formed on the wire but wrong at dispatch
    /// time (out-of-range probe, failed resume, …).
    BadRequest {
        /// One-line description.
        detail: String,
    },
    /// A v2 command sent on a session still speaking v1.
    VersionRequired {
        /// The wire keyword of the rejected command.
        command: &'static str,
        /// The version the command needs.
        needs: ProtoVersion,
    },
    /// A `hello` asking for a version that cannot be negotiated (v0).
    UnsupportedVersion {
        /// The version number the client asked for.
        requested: u32,
    },
    /// A command inside a `batch` envelope that is not an instance command.
    NotBatchable {
        /// The wire keyword of the rejected command.
        command: &'static str,
    },
    /// A durable engine applied a `load`/`unload` in memory but could not
    /// append it to the journal — the state is live but would not survive a
    /// restart.
    JournalFailed {
        /// One-line description of the append failure.
        detail: String,
    },
}

impl EngineError {
    /// The wire error class of this failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            EngineError::UnknownInstance { .. } => ErrorCode::UnknownInstance,
            EngineError::InvalidPayload { .. } | EngineError::MappingMismatch { .. } => {
                ErrorCode::InvalidPayload
            }
            EngineError::Solve(SolveError::UnknownHeuristic { .. }) => ErrorCode::BadRequest,
            EngineError::Solve(_) | EngineError::Infeasible { .. } => ErrorCode::Infeasible,
            EngineError::NoResidentState { .. } => ErrorCode::NoResidentState,
            EngineError::BadRequest { .. }
            | EngineError::VersionRequired { .. }
            | EngineError::UnsupportedVersion { .. }
            | EngineError::NotBatchable { .. } => ErrorCode::BadRequest,
            EngineError::JournalFailed { .. } => ErrorCode::JournalFailed,
        }
    }

    /// The `err <code> <detail>` response of this failure — the only place
    /// engine error responses are built.
    pub fn into_response(self) -> Response {
        Response::Error {
            code: self.code(),
            detail: self.to_string(),
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownInstance { name } => {
                write!(f, "no instance named `{name}` is loaded")
            }
            EngineError::InvalidPayload { detail } => write!(f, "{detail}"),
            EngineError::MappingMismatch { detail } => {
                write!(f, "mapping does not fit the instance: {detail}")
            }
            EngineError::Solve(error) => f.write_str(&one_line(error)),
            EngineError::Infeasible { detail } => write!(f, "{detail}"),
            EngineError::NoResidentState { name } => write!(
                f,
                "no resident evaluator state for `{name}` — run `evaluate` or `solve` first"
            ),
            EngineError::BadRequest { detail } => write!(f, "{detail}"),
            EngineError::VersionRequired { command, needs } => write!(
                f,
                "`{command}` requires {needs} — negotiate with `hello {needs}` first"
            ),
            EngineError::UnsupportedVersion { requested } => {
                write!(f, "cannot negotiate mf-proto v{requested}")
            }
            EngineError::NotBatchable { command } => write!(
                f,
                "`{command}` cannot ride a batch envelope (only load, unload, evaluate, \
                 whatif and solve can)"
            ),
            EngineError::JournalFailed { detail } => write!(
                f,
                "applied in memory but not journaled — will not survive a restart: {detail}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Flattens an error's display onto one protocol line.
pub(crate) fn one_line(e: impl std::fmt::Display) -> String {
    e.to_string().replace(['\n', '\r'], " ")
}

impl From<EngineError> for Response {
    fn from(error: EngineError) -> Response {
        error.into_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{response_from_text, response_to_text};

    /// The wire strings are a protocol contract: pin them literally, and pin
    /// that every variant survives a wire round trip losslessly (the property
    /// a router relies on when forwarding worker errors).
    #[test]
    fn wire_strings_are_stable_and_round_trip() {
        let cases: Vec<(EngineError, ErrorCode, String)> = vec![
            (
                EngineError::UnknownInstance { name: "x".into() },
                ErrorCode::UnknownInstance,
                "no instance named `x` is loaded".into(),
            ),
            (
                EngineError::MappingMismatch {
                    detail: "5 tasks, mapping has 4".into(),
                },
                ErrorCode::InvalidPayload,
                "mapping does not fit the instance: 5 tasks, mapping has 4".into(),
            ),
            (
                EngineError::Solve(SolveError::UnknownHeuristic {
                    requested: "H9".into(),
                }),
                ErrorCode::BadRequest,
                format!(
                    "unknown heuristic `H9` (expected one of {})",
                    mf_heuristics::registry_names().join(", ")
                ),
            ),
            (
                EngineError::Solve(SolveError::Failed {
                    label: "H4w".into(),
                    detail: "4 task types\nbut only 3 machines".into(),
                }),
                ErrorCode::Infeasible,
                "H4w failed: 4 task types but only 3 machines".into(),
            ),
            (
                EngineError::Solve(SolveError::PortfolioEmpty),
                ErrorCode::Infeasible,
                "no portfolio cell produced a mapping (more task types than machines?)".into(),
            ),
            (
                EngineError::NoResidentState { name: "a".into() },
                ErrorCode::NoResidentState,
                "no resident evaluator state for `a` — run `evaluate` or `solve` first".into(),
            ),
            (
                EngineError::VersionRequired {
                    command: "batch",
                    needs: ProtoVersion::V2,
                },
                ErrorCode::BadRequest,
                "`batch` requires mf-proto v2 — negotiate with `hello mf-proto v2` first".into(),
            ),
            (
                EngineError::UnsupportedVersion { requested: 0 },
                ErrorCode::BadRequest,
                "cannot negotiate mf-proto v0".into(),
            ),
            (
                EngineError::NotBatchable { command: "stats" },
                ErrorCode::BadRequest,
                "`stats` cannot ride a batch envelope (only load, unload, evaluate, \
                 whatif and solve can)"
                    .into(),
            ),
            (
                EngineError::JournalFailed {
                    detail: "journal io failed: disk full".into(),
                },
                ErrorCode::JournalFailed,
                "applied in memory but not journaled — will not survive a restart: \
                 journal io failed: disk full"
                    .into(),
            ),
        ];
        for (error, code, detail) in cases {
            assert_eq!(error.code(), code, "{error:?}");
            assert_eq!(error.to_string(), detail, "{error:?}");
            let response = error.into_response();
            let text = response_to_text(&response).unwrap();
            let parsed = response_from_text(&text).unwrap();
            assert_eq!(parsed, response, "error must forward losslessly");
        }
    }
}
