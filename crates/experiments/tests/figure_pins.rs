//! Byte pins of the §7 figure reports.
//!
//! Each test runs one figure through its reduced entry point (two x values,
//! two repetitions, two worker threads) and compares an FNV-1a-64 digest of
//! its `mf-report v1` text with a recorded value. Any change to an instance
//! seed, a heuristic answer, the sweep's aggregation order or the report
//! format moves a digest. The summary table is pinned the same way.
//!
//! A moved digest is a changed answer: record the old and new values where
//! the change is described, never just overwrite them.

use mf_experiments::figures::{
    ext_localsearch, ext_portfolio, ext_split, fig10, fig11, fig12, fig5, fig6, fig7, fig8, fig9,
    summary,
};
use mf_experiments::portfolio::PortfolioConfig;
use mf_experiments::{figure_to_text, ExperimentConfig, FigureReport};
use mf_sim::GeneratorConfig;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        repetitions: 2,
        threads: 2,
        ..ExperimentConfig::quick()
    }
}

fn assert_pinned(report: &FigureReport, expected: u64) {
    let text = figure_to_text(report).expect("reports carry no newlines");
    let digest = fnv1a64(text.as_bytes());
    assert_eq!(
        digest, expected,
        "{}: digest {digest:#018x} != pinned {expected:#018x}; report:\n{text}",
        report.id
    );
}

#[test]
fn fig5_bytes_are_pinned() {
    assert_pinned(
        &fig5::run_with_tasks(&config(), vec![50, 60]),
        0x3761_55c5_c69d_8f1b,
    );
}

#[test]
fn fig6_bytes_are_pinned() {
    assert_pinned(
        &fig6::run_with_tasks(&config(), vec![10, 20]),
        0x3ce9_44bf_2d83_642c,
    );
}

#[test]
fn fig7_bytes_are_pinned() {
    assert_pinned(
        &fig7::run_with_tasks(&config(), vec![100, 110]),
        0x3988_977e_cc54_fd5e,
    );
}

#[test]
fn fig8_bytes_are_pinned() {
    assert_pinned(
        &fig8::run_with_tasks(&config(), vec![10, 20]),
        0x39eb_9563_a7c5_a910,
    );
}

#[test]
fn fig9_bytes_are_pinned() {
    assert_pinned(
        &fig9::run_with_types(&config(), vec![20, 30]),
        0x49f1_64af_c318_3474,
    );
}

#[test]
fn fig10_bytes_are_pinned() {
    assert_pinned(
        &fig10::run_with_tasks(&config(), vec![6, 8]),
        0xab35_45c5_94f9_49d6,
    );
}

#[test]
fn fig11_bytes_are_pinned() {
    assert_pinned(
        &fig11::run_with_tasks(&config(), vec![6, 8]),
        0xaea3_61d9_ca06_4ef5,
    );
}

#[test]
fn fig12_bytes_are_pinned() {
    assert_pinned(
        &fig12::run_with_tasks(&config(), vec![6, 8]),
        0x38b4_62da_08df_dc5d,
    );
}

#[test]
fn ext_split_bytes_are_pinned() {
    assert_pinned(
        &ext_split::run_with_tasks(&config(), vec![10, 20]),
        0xd9d4_955d_fda9_d1d4,
    );
}

#[test]
fn summary_table_is_pinned() {
    let table = summary::run_with(&config(), vec![20, 30], vec![4, 6]).to_table();
    let digest = fnv1a64(table.as_bytes());
    assert_eq!(
        digest, 0xc48e_53dc_fc18_427a,
        "summary: digest {digest:#018x} moved; table:\n{table}"
    );
}

#[test]
fn ext_localsearch_bytes_are_pinned() {
    let config = ExperimentConfig {
        repetitions: 1,
        ..config()
    };
    assert_pinned(&ext_localsearch::run(&config), 0xc76e_7f69_58cf_e6eb);
}

#[test]
fn ext_portfolio_bytes_are_pinned() {
    let config = config();
    let scenarios = vec![
        GeneratorConfig::paper_standard(20, 8, 2),
        GeneratorConfig::paper_high_failure(16, 8, 4),
    ];
    let portfolio = PortfolioConfig {
        annealed_streams: 1,
        round_steps: 300,
        sweep_budget: 5_000,
        max_rounds: 2,
        ..ext_portfolio::sweep_portfolio_config()
    };
    assert_pinned(
        &ext_portfolio::run_with(&config, scenarios, &portfolio),
        0x9785_2048_24d1_3c63,
    );
}
