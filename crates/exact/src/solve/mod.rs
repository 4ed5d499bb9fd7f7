//! The one solve entry point. Every front end runs the paper's pipeline
//! (constructive heuristic, local search, exact proof; §6) through
//! [`solve`], which alone resolves heuristic names, applies
//! [`DEFAULT_HEURISTIC_SEED`] and builds the portfolio and anytime configs
//! from the seed and budget: the same (instance, method, seed) gets the same
//! mapping, bit for bit, from the CLI and from the server. Its parts are
//! [`anytime`], [`portfolio`] and the scoped-thread [`runner`].

pub mod anytime;
pub mod portfolio;
pub mod runner;

use crate::{branch_and_bound, BnbConfig, BnbOutcome};
pub use anytime::RootBound;
use anytime::{solve_anytime_memoized, AnytimeConfig, AnytimeEvent, AnytimeOutcome};
use mf_core::prelude::*;
use mf_heuristics::search::SearchTelemetry;
use mf_obs::TraceEvent;
use portfolio::{run_portfolio, run_portfolio_traced, PortfolioConfig, PortfolioOutcome};
use runner::BatchRunner;

/// Seed of a heuristic solve that names none.
pub const DEFAULT_HEURISTIC_SEED: u64 = 1;

/// What [`solve`] runs.
#[derive(Debug, Clone, Copy)]
pub enum Method<'a> {
    /// A registry heuristic by name, in any casing (`h4w`, `sd-h2`, …).
    Heuristic(&'a str),
    /// The parallel search portfolio.
    Portfolio,
    /// The anytime incumbent/bound race.
    Anytime {
        /// Step budget (`None`: the [`AnytimeConfig`] default).
        budget: Option<u64>,
        /// The solved instance's seed-bound memo: a fresh one for a one-shot
        /// solve, the resident instance's own in the server.
        root: &'a RootBound,
    },
    /// Branch-and-bound under [`BnbConfig::default`]; ignores the seed.
    Exact,
}

/// What a caller watches of a solve. It cannot steer the run.
pub struct Observer<'a> {
    /// Receives each anytime event the moment it is found.
    pub on_event: &'a mut dyn FnMut(&AnytimeEvent),
    /// When set, receives the solve's `mf-trace v1` events: a heuristic's
    /// search steps (as cell 0, round 0), the portfolio's steps and rounds,
    /// or the anytime events' `round` records.
    pub trace: Option<&'a mut Vec<TraceEvent>>,
}

/// A solved instance.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The solved mapping.
    pub mapping: Mapping,
    /// The canonical heuristic name, the winning portfolio cell, `"anytime"`
    /// or `"exact"`.
    pub label: String,
    /// Steps consumed: the anytime run's, or the exact solver's nodes (0 for
    /// the unbudgeted heuristic and portfolio solves).
    pub steps: u64,
    /// Whether the mapping is proven optimal.
    pub proven: bool,
    /// The method's own report of the work behind it.
    pub telemetry: Telemetry,
}

/// The work behind a [`Solution`], as its method reports it.
#[derive(Debug, Clone)]
pub enum Telemetry {
    /// A search-driven heuristic's counters (`None` for a constructive one).
    Heuristic(Option<SearchTelemetry>),
    /// The portfolio's cells and rounds.
    Portfolio(PortfolioOutcome),
    /// The anytime events and branch-and-bound counts.
    Anytime(AnytimeOutcome),
    /// The branch-and-bound counts.
    Exact(BnbOutcome),
}

/// Why [`solve`] has no mapping. The `Display` strings are the server's
/// wire details and the CLI's error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// A heuristic name outside the registry.
    UnknownHeuristic {
        /// The name as requested.
        requested: String,
    },
    /// A solver failed on this instance.
    Failed {
        /// The canonical heuristic name, `"anytime"` or `"exact"`.
        label: String,
        /// The solver's error.
        detail: String,
    },
    /// No portfolio cell produced a mapping.
    PortfolioEmpty,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::UnknownHeuristic { requested } => write!(
                f,
                "unknown heuristic `{requested}` (expected one of {})",
                mf_heuristics::registry_names().join(", ")
            ),
            SolveError::Failed { label, detail } => write!(f, "{label} failed: {detail}"),
            SolveError::PortfolioEmpty => {
                f.write_str("no portfolio cell produced a mapping (more task types than machines?)")
            }
        }
    }
}

impl std::error::Error for SolveError {}

fn failed(label: &str, error: impl std::fmt::Display) -> SolveError {
    let (label, detail) = (label.to_string(), error.to_string());
    SolveError::Failed { label, detail }
}

/// Solves `instance` with `method`. `seed` overrides the heuristic's
/// [`DEFAULT_HEURISTIC_SEED`], the portfolio's base seed or the anytime
/// LNS slice's seed.
pub fn solve(
    instance: &Instance,
    method: Method<'_>,
    seed: Option<u64>,
    runner: &BatchRunner,
    observer: Observer<'_>,
) -> std::result::Result<Solution, SolveError> {
    let Observer { on_event, trace } = observer;
    let (mapping, label, telemetry) = match method {
        Method::Heuristic(requested) => {
            let unknown = || SolveError::UnknownHeuristic {
                requested: requested.to_string(),
            };
            let label = mf_heuristics::canonical_registry_name(requested).ok_or_else(unknown)?;
            let seed = seed.unwrap_or(DEFAULT_HEURISTIC_SEED);
            let heuristic = mf_heuristics::paper_heuristic(&label, seed).expect("a registry name");
            let mut steps = Vec::new();
            let (mapping, search) = match trace {
                Some(_) => heuristic.map_with_progress(instance, &mut steps),
                None => heuristic.map_traced(instance),
            }
            .map_err(|e| failed(&label, e))?;
            if let Some(trace) = trace {
                trace.extend(steps.into_iter().map(|step| step.into_trace(0, 0)));
            }
            (mapping, label, Telemetry::Heuristic(search))
        }
        Method::Portfolio => {
            let defaults = PortfolioConfig::default();
            let base_seed = seed.unwrap_or(defaults.base_seed);
            let config = PortfolioConfig {
                base_seed,
                ..defaults
            };
            let outcome = match trace {
                Some(trace) => {
                    let (outcome, events) = run_portfolio_traced(instance, &config, runner);
                    trace.extend(events);
                    outcome
                }
                None => run_portfolio(instance, &config, runner),
            };
            let (Some(label), Some(mapping)) = (outcome.winner_label(), &outcome.best_mapping)
            else {
                return Err(SolveError::PortfolioEmpty);
            };
            (
                mapping.clone(),
                label.to_string(),
                Telemetry::Portfolio(outcome),
            )
        }
        Method::Anytime { budget, root } => {
            let defaults = AnytimeConfig::default();
            let step_budget = budget.unwrap_or(defaults.step_budget);
            let seed = seed.unwrap_or(defaults.seed);
            let config = AnytimeConfig {
                step_budget,
                seed,
                ..defaults
            };
            let outcome = solve_anytime_memoized(instance, &config, root, on_event)
                .map_err(|e| failed("anytime", e))?;
            if let Some(trace) = trace {
                trace.extend(outcome.events.iter().map(AnytimeEvent::to_trace));
            }
            (
                outcome.mapping.clone(),
                "anytime".into(),
                Telemetry::Anytime(outcome),
            )
        }
        Method::Exact => {
            let outcome =
                branch_and_bound(instance, BnbConfig::default()).map_err(|e| failed("exact", e))?;
            (
                outcome.mapping.clone(),
                "exact".into(),
                Telemetry::Exact(outcome),
            )
        }
    };
    let (steps, proven) = match &telemetry {
        Telemetry::Anytime(outcome) => (outcome.steps, outcome.proven_optimal),
        Telemetry::Exact(outcome) => (outcome.nodes, outcome.proven_optimal),
        _ => (0, false),
    };
    Ok(Solution {
        mapping,
        label,
        steps,
        proven,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sim::{GeneratorConfig, InstanceGenerator};

    fn instance(tasks: usize, machines: usize, types: usize) -> Instance {
        InstanceGenerator::new(GeneratorConfig::paper_standard(tasks, machines, types))
            .generate(3)
            .unwrap()
    }

    /// Solves with a recording observer: the answer, the events `on_event`
    /// saw and, when `traced`, the trace.
    fn observed(
        instance: &Instance,
        method: Method<'_>,
        seed: Option<u64>,
        traced: bool,
    ) -> (
        std::result::Result<Solution, SolveError>,
        Vec<AnytimeEvent>,
        Vec<TraceEvent>,
    ) {
        let (mut seen, mut trace) = (Vec::new(), Vec::new());
        let observer = Observer {
            on_event: &mut |event: &AnytimeEvent| seen.push(*event),
            trace: traced.then_some(&mut trace),
        };
        let solved = solve(instance, method, seed, &BatchRunner::new(1), observer);
        (solved, seen, trace)
    }

    fn solved(instance: &Instance, method: Method<'_>, seed: Option<u64>) -> Solution {
        observed(instance, method, seed, false).0.unwrap()
    }

    #[test]
    fn heuristic_names_resolve_in_any_casing_with_the_default_seed() {
        let inst = instance(12, 5, 3);
        let h1 = solved(&inst, Method::Heuristic("h1"), None);
        let direct = mf_heuristics::paper_heuristic("H1", DEFAULT_HEURISTIC_SEED)
            .unwrap()
            .map(&inst)
            .unwrap();
        assert_eq!((h1.label.as_str(), &h1.mapping), ("H1", &direct));
        assert!(matches!(h1.telemetry, Telemetry::Heuristic(None)));
        let reseeded = solved(&inst, Method::Heuristic("H1"), Some(99));
        assert_ne!(reseeded.mapping, direct, "H1 must react to the seed");
        let sd = solved(&inst, Method::Heuristic("sd-H2"), None);
        let Telemetry::Heuristic(Some(search)) = sd.telemetry else {
            panic!("a search strategy reports its telemetry");
        };
        assert_eq!(sd.label, "SD-H2");
        assert!(search.eval.dense_what_ifs + search.eval.exact_what_ifs > 0);

        let error = observed(&inst, Method::Heuristic("H9"), None, false)
            .0
            .unwrap_err();
        let requested = "H9".to_string();
        assert_eq!(error, SolveError::UnknownHeuristic { requested });
        assert!(error.to_string().starts_with("unknown heuristic `H9`"));
    }

    /// Observers watch, they never steer: every method answers the same
    /// solution with and without a trace, only a traced run fills it, and
    /// `on_event` sees exactly the anytime events.
    #[test]
    fn observers_never_change_the_solution() {
        let inst = instance(10, 4, 2);
        let root = RootBound::new();
        let methods = [
            Method::Heuristic("sd-h2"),
            Method::Portfolio,
            Method::Anytime {
                budget: Some(2000),
                root: &root,
            },
        ];
        for method in methods {
            let (plain, plain_seen, untraced) = observed(&inst, method, None, false);
            let (traced, seen, trace) = observed(&inst, method, None, true);
            let (plain, traced) = (plain.unwrap(), traced.unwrap());
            assert_eq!(traced.mapping, plain.mapping, "{method:?}");
            assert_eq!(traced.label, plain.label, "{method:?}");
            assert_eq!(plain_seen, seen, "{method:?}");
            assert!(untraced.is_empty() && !trace.is_empty(), "{method:?}");
            match traced.telemetry {
                Telemetry::Anytime(outcome) => {
                    assert_eq!(outcome.events, seen);
                    assert_eq!(trace.len(), seen.len());
                    assert!(traced.steps == outcome.steps && traced.steps <= 2000);
                }
                Telemetry::Portfolio(outcome) => {
                    assert_eq!(outcome.winner_label(), Some(traced.label.as_str()));
                    assert!(seen.is_empty());
                }
                _ => assert!(seen.is_empty()),
            }
        }
    }

    /// The repository benchmark's `prove` pool: 64 instances of three
    /// shapes (chain and in-forest alternating), each with its step budget
    /// and drawn LNS seed, from the benchmark's fixed fixture stream.
    fn prove_pool() -> Vec<(Instance, u64, u64)> {
        let mut state = 0x6D66_6669_7874_u64 ^ 3u64.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut next = || {
            let draw = mf_core::seed::splitmix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            draw
        };
        let mut instances = Vec::new();
        for (tasks, machines, count, budget) in
            [(8, 10, 44, 2000), (9, 12, 12, 2000), (20, 24, 8, 100)]
        {
            let shapes = [
                GeneratorConfig::paper_standard(tasks, machines, 3),
                GeneratorConfig::standard_in_forest(tasks, machines, 3),
            ];
            for k in 0..count {
                let generator = InstanceGenerator::new(shapes[k % 2]);
                instances.push((generator.generate(next()).unwrap(), budget));
            }
        }
        instances
            .into_iter()
            .map(|(instance, budget)| (instance, budget, next() >> 32))
            .collect()
    }

    /// The bits of everything an anytime solve answers, flattened: each
    /// event's period, bound, steps and verdict, then `steps`, `proven`,
    /// the LP counters and the mapping.
    fn anytime_bits(solution: &Solution) -> Vec<u64> {
        let Telemetry::Anytime(outcome) = &solution.telemetry else {
            panic!("an anytime solve reports anytime telemetry");
        };
        let events = outcome.events.iter().flat_map(|e| {
            [
                e.period.to_bits(),
                e.bound.to_bits(),
                e.steps,
                u64::from(e.proven),
            ]
        });
        let counts = [
            solution.steps,
            u64::from(solution.proven),
            outcome.lp_solves,
            outcome.lp_reuses,
            outcome.lp_pivots,
        ];
        let mapping = solution.mapping.as_slice().iter().map(|u| u.index() as u64);
        events.chain(counts).chain(mapping).collect()
    }

    /// A memo that already holds the seed bound answers every `prove`
    /// request bit for bit like a fresh one: the same events, mapping,
    /// steps, verdict and LP counters.
    #[test]
    fn a_warm_root_bound_memo_changes_no_anytime_answer() {
        let pool = prove_pool();
        assert_eq!(pool.len(), 64);
        for (index, (inst, budget, seed)) in pool.iter().enumerate() {
            let root = RootBound::new();
            let method = Method::Anytime {
                budget: Some(*budget),
                root: &root,
            };
            let cold = solved(inst, method, Some(*seed));
            let bound = root.get().expect("the solve fills the memo");
            let warm = solved(inst, method, Some(*seed));
            assert_eq!(root.get().map(f64::to_bits), Some(bound.to_bits()));
            assert_eq!(anytime_bits(&warm), anytime_bits(&cold), "request {index}");
        }
    }
}
