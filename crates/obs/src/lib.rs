//! `mf-obs` — observability primitives for the micro-factory workspace.
//!
//! The serving tier (`mf-server`) exposes lifetime `u64` counters through
//! `stats` v1/v2, but counters cannot answer "how slow was the p99
//! `solve`?", "what did that solve *do*?", or "which portfolio strategy
//! found the incumbent?". This crate supplies the missing layer, std-only
//! and dependency-free so every workspace crate can use it without cycles:
//!
//! * [`clock`] — the injectable [`Clock`] trait.
//!   Production code uses [`MonotonicClock`];
//!   tests inject [`ManualClock`] so latency-bearing
//!   output stays byte-identical run to run.
//! * [`hist`] — fixed-bucket log2 latency [`Histogram`]s:
//!   lock-free recording, mergeable bucket-wise across worker engines,
//!   deterministic exposition, p50/p90/p99/max derivable from a snapshot.
//! * [`trace`] — the append-only `mf-trace v1` event log, styled after
//!   `mf-report v1`: versioned header, one event per line, counted `end`
//!   footer, write→parse→write byte-identity.
//! * [`progress`] — search progress events ([`ProgressEvent`]) and the
//!   [`ProgressSink`], the search engine's one observer, so a traced solve
//!   shows when each strategy found each incumbent.
//!
//! Each solver reports through one channel, written straight to `mf-trace`:
//! a search engine through its [`ProgressSink`], the portfolio by stamping
//! its cells' sinks into `commit` and `round` records, and the anytime
//! solver through its live event callback, one `round` record per event.

pub mod clock;
pub mod hist;
pub mod progress;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use hist::{Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use progress::{ProgressEvent, ProgressSink};
pub use trace::{
    events_from_text, events_to_text, SharedTraceWriter, TraceError, TraceEvent, TraceWriter,
    TRACE_FORMAT,
};
