//! The annealed hill climb — the search policy behind H6.
//!
//! Seeded stochastic proposals over the move/swap neighborhoods with
//! Metropolis acceptance and a geometrically cooling temperature. For the
//! same seed and engine budget it consumes the identical RNG stream and
//! produces the **bit-identical** mapping the original monolithic H6 loop
//! did, which the `h6_regression` test pins.

use crate::search::engine::{metropolis, SearchEngine};
use crate::search::strategy::SearchStrategy;
use crate::HeuristicResult;
use mf_core::prelude::*;
use mf_core::rng::StdRng;
use mf_core::seed::splitmix64;

/// Stop after this many consecutive proposals without a new best period.
const STALE_LIMIT: usize = 1000;

/// Initial annealing temperature as a fraction of the seed period.
const INITIAL_TEMPERATURE: f64 = 0.02;

/// Multiplicative temperature decay per proposal.
const COOLING: f64 = 0.995;

/// Probability of proposing a swap instead of a move.
const SWAP_PROBABILITY: f64 = 0.4;

/// Seeded move/swap proposals with Metropolis acceptance and annealing.
///
/// One engine budget unit is one proposal, drawn or filtered, so the
/// budget handed to the engine is the climb's proposal cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnealedClimb {
    /// Seed of the neighborhood RNG stream (mixed through [`splitmix64`],
    /// the same derivation the batch runner uses for its per-cell streams).
    seed: u64,
}

impl AnnealedClimb {
    /// A climb drawing its proposals from the stream of `seed`.
    pub fn new(seed: u64) -> Self {
        AnnealedClimb { seed }
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
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed));
        let mut temperature = INITIAL_TEMPERATURE * engine.current_period();
        let mut stale = 0usize;

        while !engine.exhausted() {
            if stale >= STALE_LIMIT {
                break;
            }
            engine.charge(1);
            stale += 1;
            temperature *= COOLING;

            let improved = if rng.gen_bool(SWAP_PROBABILITY) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::H6_BUDGET;
    use crate::search::polish_with;

    #[test]
    fn polishing_finds_an_obvious_improvement() {
        // Two same-type tasks stacked on a slow machine while a fast one
        // idles: one move fixes it, and the climb must find that move.
        let app = Application::linear_chain(&[0, 0]).unwrap();
        let platform = Platform::from_type_times(2, vec![vec![1000.0, 100.0]]).unwrap();
        let failures = FailureModel::uniform(2, 2, FailureRate::ZERO);
        let inst = Instance::new(app, platform, failures).unwrap();
        let bad = Mapping::from_indices(&[0, 0], 2).unwrap();
        let polished =
            polish_with(&inst, &bad, &AnnealedClimb::new(0x4853_6C0C), H6_BUDGET).unwrap();
        let period = inst.period(&polished).unwrap().value();
        // The seed stacks both tasks on the slow M0 (period 2·1000). The
        // optimum stacks both on the fast M1 (period 2·100 = 200) — spreading
        // them would leave the slow machine critical at 1000.
        assert!(
            period <= 200.0 + 1e-9,
            "the climb missed the improvement: period {period}"
        );
    }
}
