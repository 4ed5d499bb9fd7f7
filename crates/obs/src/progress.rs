//! Solver progress events and sinks.
//!
//! The search engine and the portfolio report what they are doing through
//! a [`ProgressSink`]; events are context-free (no cell/round) so the
//! emitting layer stays ignorant of who is listening, and the collector
//! stamps portfolio coordinates when converting to
//! [`TraceEvent`]s via
//! [`ProgressEvent::into_trace`].
//!
//! A `Vec<ProgressEvent>` is the standard collector: it records every event
//! in emission order, so a traced solve reconstructs the exact committed
//! step sequence.

use crate::trace::TraceEvent;

/// One progress report from a running search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProgressEvent {
    /// A committed move/swap, mirroring the engine's `CommitStep` plus the
    /// incumbent-improved verdict.
    Commit {
        /// `true` for a swap, `false` for a move.
        swap: bool,
        /// Moved task (moves) or first swapped task.
        a: u64,
        /// Destination machine (moves) or second swapped task.
        b: u64,
        /// IEEE-754 bits of the committed period.
        period_bits: u64,
        /// Whether the commit improved the engine's best-so-far.
        improved: bool,
    },
    /// An anytime-solve incumbent/bound improvement. Mapped onto the
    /// `Round` trace record (the anytime driver's "rounds" are its stream
    /// messages), with `done` carrying the optimality-proven flag.
    Incumbent {
        /// IEEE-754 bits of the incumbent period.
        period_bits: u64,
        /// Steps consumed when the incumbent was found (stamped into the
        /// trace record's `round` coordinate by the collector).
        steps: u64,
        /// Whether the incumbent is proven optimal (gap closed).
        proven: bool,
    },
}

impl ProgressEvent {
    /// Stamps portfolio coordinates onto the event, yielding the
    /// `mf-trace v1` record.
    pub fn into_trace(self, cell: u64, round: u64) -> TraceEvent {
        match self {
            ProgressEvent::Commit {
                swap,
                a,
                b,
                period_bits,
                improved,
            } => TraceEvent::Commit {
                cell,
                round,
                swap,
                a,
                b,
                period_bits,
                improved,
            },
            ProgressEvent::Incumbent {
                period_bits,
                steps,
                proven,
            } => TraceEvent::Round {
                cell,
                round: steps,
                period_bits: Some(period_bits),
                done: proven,
            },
        }
    }
}

/// Receives progress events from a running search. Implementations must
/// not panic on any event sequence — the solver treats the sink as
/// fire-and-forget.
pub trait ProgressSink {
    /// Called once per event, in the order the search produced them.
    fn emit(&mut self, event: ProgressEvent);
}

/// Discards everything; for call sites that need a sink value but no
/// observation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn emit(&mut self, _event: ProgressEvent) {}
}

/// Collects every event, in emission order.
impl ProgressSink for Vec<ProgressEvent> {
    fn emit(&mut self, event: ProgressEvent) {
        self.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(a: u64) -> ProgressEvent {
        ProgressEvent::Commit {
            swap: false,
            a,
            b: 0,
            period_bits: 0,
            improved: false,
        }
    }

    #[test]
    fn a_vec_collects_every_event_in_order() {
        let mut sink = Vec::new();
        for i in 0..5 {
            sink.emit(commit(i));
        }
        assert_eq!(sink, (0..5).map(commit).collect::<Vec<_>>());
    }

    #[test]
    fn incumbents_are_lossless_and_map_to_round_records() {
        let mut sink = Vec::new();
        let event = ProgressEvent::Incumbent {
            period_bits: 40.25_f64.to_bits(),
            steps: 1234,
            proven: true,
        };
        sink.emit(event);
        assert_eq!(sink, [event]);
        assert_eq!(
            event.into_trace(5, 0),
            crate::trace::TraceEvent::Round {
                cell: 5,
                round: 1234,
                period_bits: Some(40.25_f64.to_bits()),
                done: true,
            }
        );
    }

    #[test]
    fn into_trace_stamps_coordinates() {
        let event = commit(7).into_trace(2, 3);
        assert_eq!(
            event,
            crate::trace::TraceEvent::Commit {
                cell: 2,
                round: 3,
                swap: false,
                a: 7,
                b: 0,
                period_bits: 0,
                improved: false,
            }
        );
    }
}
