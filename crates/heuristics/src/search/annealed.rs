//! The annealed hill climb — the search policy behind H6.
//!
//! Seeded stochastic proposals over the move/swap neighborhoods with
//! Metropolis acceptance and a geometrically cooling temperature. This is a
//! behavior-preserving extraction of the loop that lived inside
//! `H6LocalSearch::polish` before the search subsystem existed: for the same
//! [`LocalSearchConfig`] (same seed, same knobs) it consumes the identical
//! RNG stream and produces the **bit-identical** mapping, which the
//! `h6_regression` test pins.

use crate::search::engine::{metropolis, SearchEngine};
use crate::search::strategy::SearchStrategy;
use crate::HeuristicResult;
use mf_core::prelude::*;
use mf_core::rng::StdRng;
use mf_core::seed::splitmix64;

/// Tuning knobs of the annealed hill climb (and therefore of H6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalSearchConfig {
    /// Maximum number of neighborhood proposals.
    pub max_steps: usize,
    /// Stop after this many consecutive proposals without a new best period.
    pub stale_limit: usize,
    /// Initial annealing temperature as a fraction of the seed period
    /// (`0.0` disables annealing: pure hill climbing).
    pub initial_temperature: f64,
    /// Multiplicative temperature decay per proposal.
    pub cooling: f64,
    /// Probability of proposing a swap instead of a move.
    pub swap_probability: f64,
    /// Seed of the neighborhood RNG stream (mixed through
    /// [`splitmix64`], the same derivation the batch runner uses for its
    /// per-cell streams).
    pub seed: u64,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            max_steps: 4000,
            stale_limit: 1000,
            initial_temperature: 0.02,
            cooling: 0.995,
            swap_probability: 0.4,
            seed: 0x4853_6C0C,
        }
    }
}

/// Seeded move/swap proposals with Metropolis acceptance and annealing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealedClimb {
    config: LocalSearchConfig,
}

impl AnnealedClimb {
    /// A climb with explicit knobs.
    pub fn new(config: LocalSearchConfig) -> Self {
        AnnealedClimb { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LocalSearchConfig {
        &self.config
    }
}

impl Default for AnnealedClimb {
    fn default() -> Self {
        AnnealedClimb::new(LocalSearchConfig::default())
    }
}

impl SearchStrategy for AnnealedClimb {
    fn name(&self) -> &str {
        "annealed"
    }

    fn run(&self, engine: &mut SearchEngine<'_>) -> HeuristicResult<()> {
        let n = engine.tasks();
        let m = engine.machines();
        if n == 0 || m < 2 {
            return Ok(());
        }
        let config = &self.config;
        let mut rng = StdRng::seed_from_u64(splitmix64(config.seed));
        let mut temperature = config.initial_temperature.max(0.0) * engine.current_period();
        let mut stale = 0usize;

        // One budget unit per proposal, drawn or filtered — the same
        // accounting the pre-refactor H6 loop used for `max_steps`.
        while !engine.exhausted() {
            if stale >= config.stale_limit {
                break;
            }
            engine.charge(1);
            stale += 1;
            temperature *= config.cooling;

            let improved = if rng.gen_bool(config.swap_probability) {
                let a = TaskId(rng.gen_range(0..n));
                let b = TaskId(rng.gen_range(0..n));
                if !engine.allows_swap(a, b) {
                    continue;
                }
                let period = engine.evaluate_swap(a, b)?;
                if !metropolis(period - engine.current_period(), temperature, &mut rng) {
                    continue;
                }
                engine.commit_swap(a, b)?.improved_best
            } else {
                let t = TaskId(rng.gen_range(0..n));
                let to = MachineId(rng.gen_range(0..m));
                if !engine.allows_move(t, to) {
                    continue;
                }
                let period = engine.evaluate_move(t, to)?;
                if !metropolis(period - engine.current_period(), temperature, &mut rng) {
                    continue;
                }
                engine.commit_move(t, to)?.improved_best
            };
            if improved {
                stale = 0;
            }
        }
        Ok(())
    }
}
