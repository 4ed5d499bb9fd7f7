//! # mf-experiments — reproduction harness for the paper's evaluation (§7)
//!
//! Every figure of the paper has a module under [`figures`] and a binary
//! (`cargo run -p mf-experiments --release --bin fig5`, …) that regenerates the
//! corresponding series: period (ms) as a function of the number of tasks,
//! types, or the normalisation against the exact optimum.
//!
//! The harness is deliberately deterministic: every point is an average over
//! `repetitions` instances drawn from seeded generators, and the seeds are
//! derived from the experiment configuration, so two runs of the same binary
//! produce identical numbers.
//!
//! ```
//! use mf_experiments::config::ExperimentConfig;
//! use mf_experiments::figures::fig6;
//!
//! // A miniature run (2 repetitions) of the Figure 6 experiment.
//! let config = ExperimentConfig { repetitions: 2, ..ExperimentConfig::quick() };
//! let report = fig6::run(&config);
//! assert!(!report.series.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anytime;
pub mod config;
pub mod figures;
pub mod persist;
pub mod portfolio;
pub mod report;
pub mod runner;
pub mod stats;

pub use anytime::{
    solve_anytime, solve_anytime_observed, AnytimeConfig, AnytimeEvent, AnytimeOutcome,
    AnytimePhase,
};
pub use config::ExperimentConfig;
pub use persist::{figure_from_text, figure_to_text};
pub use portfolio::{PortfolioConfig, PortfolioOutcome};
pub use report::{FigureReport, Series};
pub use stats::Stats;
