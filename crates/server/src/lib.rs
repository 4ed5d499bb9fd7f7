//! # mf-server — a long-lived solve/evaluate server
//!
//! The one-shot CLI pays process start-up, instance parsing and evaluator
//! construction on every invocation. This crate keeps the last two
//! **resident**: a server process owns an
//! [`InstanceStore`] of named instances, a shared
//! [`BatchRunner`](mf_exact::solve::runner::BatchRunner) for the portfolio
//! race, and one [`Session`] per connection holding the
//! [`EvaluatorSnapshot`](mf_core::EvaluatorSnapshot) state that `whatif`
//! probes resume in `O(1)` — and answers queries over a
//! line-delimited text protocol, [`proto`], via TCP (thread per connection)
//! or a stdio pipe.
//!
//! Sessions start in `mf-proto v1`; a `hello mf-proto v2` handshake unlocks
//! `batch N` envelopes (many requests, one round trip, answers in request
//! order), the `status-export` JSON report, and the keyed-cache counters in
//! `stats`. The server answers repeated `evaluate`s of an unchanged
//! instance from one keyed [`EvaluateCache`] — (store name, load generation,
//! mapping fingerprint) → full breakdown plus pristine evaluator snapshot.
//! A [`Router`] serves every session: it hashes instance names across `N`
//! worker engines (`mf serve --workers N`, one by default), which share the
//! one store, cache, journal and solver pool, and answers the aggregate
//! commands itself.
//!
//! Answers are **bit-identical to the equivalent one-shot CLI run**: solve
//! requests go through the same entry point as `microfactory solve`
//! ([`mf_exact::solve::solve`]), and the
//! portfolio outcome is bit-identical for every thread count, so a resident
//! server is a pure performance upgrade, never a numerical fork — and the
//! router's answers are pinned byte-identical across worker counts.
//!
//! ```
//! use mf_server::router::Router;
//! use mf_server::server::serve_stdio;
//!
//! let router = Router::new(1, 1);
//! let mut output = Vec::new();
//! serve_stdio(&router, "list\nshutdown\n".as_bytes(), &mut output).unwrap();
//! let text = String::from_utf8(output).unwrap();
//! assert!(text.starts_with("mf-proto v1\n"));
//! assert!(text.contains("ok shutdown"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod errors;
pub mod journal;
pub mod obs;
pub mod proto;
pub mod router;
pub mod server;
pub mod stats;
pub mod store;

pub use cache::{CachedEvaluation, EvaluateCache, EVALUATE_CACHE_CAP};
pub use client::{Client, ClientError, Evaluation, Solution};
/// The per-connection [`Session`] under the name `perfbench`'s replay uses.
pub use engine::Session as RouterSession;
pub use engine::{Engine, Session};
pub use errors::EngineError;
pub use journal::{
    records_from_text, records_to_text, Journal, JournalError, JournalRecord, JournalResult,
    RecoveredInstance, COMPACT_EVERY, JOURNAL_FILE, JOURNAL_FORMAT, LOCK_FILE,
};
pub use mf_exact::solve::DEFAULT_HEURISTIC_SEED;
pub use obs::{ObsConfig, DEFAULT_SLOW_THRESHOLD_NS, TRACKED_COMMANDS};
pub use proto::{
    request_from_text, request_to_text, response_from_text, response_to_text, text_payload,
    ErrorCode, GapReport, InstanceInfo, Probe, ProtoError, ProtoReader, ProtoResult, ProtoVersion,
    Request, Response, SolveMethod, CURRENT_VERSION, GREETING, PROTO_NAME,
};
pub use router::Router;
pub use server::{run_session, serve_stdio, Server, MAX_ACCEPT_FAILURES};
pub use stats::{Stat, StatRow, StatsReport, STATS, STATS_FORMAT};
pub use store::{InstanceStore, StoredInstance};
