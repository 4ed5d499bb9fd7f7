//! The parallel batch-evaluation engine.
//!
//! [`BatchRunner::map`] fans independent work items out on scoped worker
//! threads and collects the results by item index. Every experiment sweep
//! ([`crate::figures::run_sweep`]), the summary tables, the portfolio rounds
//! and the server's portfolio solves run on it.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of thread count** as long as each
//! item's work is a pure function of its index: a sweep item derives its
//! instance and RNG seeds from its coordinates alone (SplitMix64 mixing, no
//! shared mutable state), and the runner assembles results **by item
//! index**, not by completion order.

use crate::config::ExperimentConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fans independent work items out across scoped worker threads and collects
/// the results in item order.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner with an explicit thread count (`0` = one per logical CPU,
    /// capped at 16 — the same convention as
    /// [`ExperimentConfig::effective_threads`]).
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: crate::config::resolve_threads(threads),
        }
    }

    /// A runner using the thread count of an experiment configuration.
    pub fn from_config(config: &ExperimentConfig) -> Self {
        BatchRunner::new(config.effective_threads())
    }

    /// The effective number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `work(i)` for every `i < items` and collects the results in index
    /// order — the output is identical for every thread count as long as
    /// `work` is a pure function of `i`.
    ///
    /// Up to [`threads`](Self::threads) scoped workers each claim the next
    /// unclaimed index from one shared counter, so uneven items balance
    /// themselves; results are put back by index, not completion order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of `work` once every worker has stopped.
    pub fn map<T, F>(&self, items: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(items);
        if workers <= 1 {
            return (0..items).map(work).collect();
        }
        // The counter only hands out indices; results travel back through
        // `join`, which orders them after the worker's writes, so `Relaxed`
        // suffices.
        let next = AtomicUsize::new(0);
        let claim = || {
            std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)))
                .take_while(|&i| i < items)
                .map(|i| (i, work(i)))
                .collect::<Vec<_>>()
        };
        let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
            for handle in handles {
                let done = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, value) in done {
                    slots[i] = Some(value);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every index is claimed by exactly one worker"))
            .collect()
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let results = BatchRunner::new(4).map(100, |i| i * i);
        assert_eq!(results.len(), 100);
        for (i, &value) in results.iter().enumerate() {
            assert_eq!(value, i * i);
        }
    }

    #[test]
    fn map_single_thread_and_empty_cases() {
        assert_eq!(BatchRunner::new(1).map(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        let empty: Vec<usize> = BatchRunner::new(8).map(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(
            BatchRunner::new(16).map(3, |i| i as f64 * 0.5),
            vec![0.0, 0.5, 1.0]
        );
    }

    #[test]
    fn map_propagates_a_worker_panic() {
        let outcome = std::panic::catch_unwind(|| {
            BatchRunner::new(4).map(64, |i| {
                if i == 37 {
                    panic!("item {i} fails");
                }
                i
            })
        });
        let panic = outcome.expect_err("a panicking item must fail the whole map");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("item 37 fails")
        );
    }
}
