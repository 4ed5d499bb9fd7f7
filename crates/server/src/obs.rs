//! Serving-tier observability wiring: clock injection, per-command request
//! latency histograms, the slow-request log, and the optional `mf-trace v1`
//! writer.
//!
//! Everything here is additive to the protocol: attaching an [`ObsConfig`]
//! (with a manual clock, a trace writer, any threshold) never changes a
//! byte of any response — latency lands in histograms exposed through the
//! `status-export` report, spans and slow-request records go to the trace
//! file, and the slow-request log goes to stderr. That invariant is what
//! keeps the golden transcripts byte-identical with tracing on.

use std::sync::Arc;

use mf_obs::{Clock, Histogram, HistogramSnapshot, MonotonicClock, SharedTraceWriter, TraceEvent};

/// Default slow-request threshold: 1 s.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 1_000_000_000;

/// Every request keyword with a latency histogram slot, in the fixed
/// exposition order of the `histograms` block (the wire keywords of
/// `mf-proto v2`, in the dispatch table's order). Served through a router,
/// only the instance commands a shard answers ever record a sample.
pub const TRACKED_COMMANDS: &[&str] = &[
    "hello",
    "batch",
    "status-export",
    "load",
    "unload",
    "list",
    "evaluate",
    "whatif",
    "solve",
    "stats",
    "shutdown",
];

/// Observability configuration of an engine or router.
///
/// The default is production wiring: a monotonic clock, no trace file, a
/// 1 s slow-request threshold. Tests inject a
/// [`ManualClock`](mf_obs::ManualClock) to make every measured duration —
/// and therefore every histogram bucket — deterministic.
#[derive(Clone)]
pub struct ObsConfig {
    /// The clock every latency measurement reads.
    pub clock: Arc<dyn Clock>,
    /// Where spans and slow-request records go (`None`: tracing off).
    pub trace: Option<Arc<SharedTraceWriter>>,
    /// Requests slower than this are logged to stderr and traced.
    pub slow_threshold_ns: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            clock: Arc::new(MonotonicClock::new()),
            trace: None,
            slow_threshold_ns: DEFAULT_SLOW_THRESHOLD_NS,
        }
    }
}

impl ObsConfig {
    /// Production wiring (monotonic clock, no trace, 1 s threshold).
    pub fn new() -> Self {
        ObsConfig::default()
    }

    /// Replaces the clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a trace writer.
    pub fn with_trace(mut self, trace: Arc<SharedTraceWriter>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Overrides the slow-request threshold.
    pub fn with_slow_threshold_ns(mut self, threshold_ns: u64) -> Self {
        self.slow_threshold_ns = threshold_ns;
        self
    }
}

/// Per-engine observability state: the config plus one latency histogram
/// per tracked command. Recording is lock-free.
pub(crate) struct ObsState {
    config: ObsConfig,
    latency: Vec<Histogram>,
}

impl ObsState {
    pub(crate) fn new(config: ObsConfig) -> Self {
        ObsState {
            config,
            latency: TRACKED_COMMANDS.iter().map(|_| Histogram::new()).collect(),
        }
    }

    /// Current clock reading — the request-dispatch start mark.
    pub(crate) fn now_ns(&self) -> u64 {
        self.config.clock.now_ns()
    }

    /// Records one completed request: latency histogram, trace span, and —
    /// past the threshold — the slow-request log plus a trace record.
    pub(crate) fn observe_request(&self, keyword: &'static str, start_ns: u64) {
        let duration_ns = self.config.clock.now_ns().saturating_sub(start_ns);
        if let Some(index) = TRACKED_COMMANDS.iter().position(|&c| c == keyword) {
            self.latency[index].record(duration_ns);
        }
        if let Some(trace) = &self.config.trace {
            trace.append(&TraceEvent::Span {
                name: keyword.to_string(),
                start_ns,
                duration_ns,
            });
        }
        if duration_ns >= self.config.slow_threshold_ns {
            eprintln!(
                "mf-server: slow request: {keyword} took {} ms (threshold {} ms)",
                duration_ns / 1_000_000,
                self.config.slow_threshold_ns / 1_000_000,
            );
            if let Some(trace) = &self.config.trace {
                trace.append(&TraceEvent::Slow {
                    command: keyword.to_string(),
                    duration_ns,
                    threshold_ns: self.config.slow_threshold_ns,
                });
            }
        }
    }

    /// Appends one record to the trace file, if tracing is on. Anytime
    /// solves route their incumbent/bound improvements here as `round`
    /// records.
    pub(crate) fn trace_event(&self, event: &TraceEvent) {
        if let Some(trace) = &self.config.trace {
            trace.append(event);
        }
    }

    /// Snapshots every per-command histogram, in [`TRACKED_COMMANDS`]
    /// order.
    pub(crate) fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        TRACKED_COMMANDS
            .iter()
            .zip(self.latency.iter())
            .map(|(command, histogram)| (command.to_string(), histogram.snapshot()))
            .collect()
    }
}
