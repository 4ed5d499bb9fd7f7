//! Experiment configuration.

/// Global knobs shared by all figure experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Number of random instances averaged per point (30 in the paper for the
    /// specialized-mapping figures, 100 for Figure 9).
    pub repetitions: usize,
    /// Base seed from which every instance seed is derived.
    pub base_seed: u64,
    /// Node budget for the exact solver used as the "MIP" reference in
    /// Figures 10–12.
    pub exact_node_budget: u64,
    /// Number of worker threads for the sweep (0 = one per logical CPU, capped
    /// at 16).
    pub threads: usize,
}

impl ExperimentConfig {
    /// The paper's full protocol: 30 repetitions (100 for Figure 9, which
    /// scales its own repetition count ×3), generous exact budget.
    pub fn full() -> Self {
        ExperimentConfig {
            repetitions: 30,
            base_seed: 20100607,
            exact_node_budget: 50_000_000,
            threads: 0,
        }
    }

    /// A reduced protocol that keeps every curve's shape but runs in seconds:
    /// 10 repetitions and a tighter exact budget. Used by the test-suite, by
    /// the Criterion benches and as the default of the binaries.
    pub fn quick() -> Self {
        ExperimentConfig {
            repetitions: 10,
            base_seed: 20100607,
            exact_node_budget: 2_000_000,
            threads: 0,
        }
    }

    /// Seed for repetition `rep` of point `point` of figure `figure`: the
    /// one instance-seed scheme of every sweep
    /// ([`crate::figures::run_sweep`]), the extension sweeps included.
    ///
    /// The packed coordinates go through [`mf_core::seed::splitmix64`] — the
    /// same mixer the per-method streams
    /// ([`crate::figures::method_seed`]) and the H6 local search use — so
    /// the derived seeds stay well spread and reproducible.
    pub fn seed_for(&self, figure: u32, point: usize, rep: usize) -> u64 {
        mf_core::seed::splitmix64(
            self.base_seed
                .wrapping_add((figure as u64) << 48)
                .wrapping_add((point as u64) << 24)
                .wrapping_add(rep as u64),
        )
    }

    /// Effective number of worker threads (see
    /// [`resolve_threads`](crate::runner::resolve_threads)).
    pub fn effective_threads(&self) -> usize {
        crate::runner::resolve_threads(self.threads)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let config = ExperimentConfig::full();
        let a = config.seed_for(5, 0, 0);
        let b = config.seed_for(5, 0, 1);
        let c = config.seed_for(5, 1, 0);
        let d = config.seed_for(6, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, ExperimentConfig::full().seed_for(5, 0, 0));
    }

    #[test]
    fn presets_differ_in_cost() {
        assert!(ExperimentConfig::full().repetitions > ExperimentConfig::quick().repetitions);
        assert!(ExperimentConfig::quick().effective_threads() >= 1);
        let fixed = ExperimentConfig {
            threads: 3,
            ..ExperimentConfig::quick()
        };
        assert_eq!(fixed.effective_threads(), 3);
    }
}
