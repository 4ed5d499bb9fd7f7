//! Golden-file pin of the `mf-report v1` persistence format.
//!
//! CI diffs serialized reports across commits, so the byte layout is an
//! interface: if `figure_to_text` ever changes its output for the same
//! report, every stored report silently stops diffing cleanly. This test
//! pins the exact bytes for a fixed report (including awkward floats) and
//! proves the round trip is lossless — both directions, plus a real sweep.
//!
//! To regenerate after an *intentional* format change:
//! `UPDATE_GOLDEN=1 cargo test -p mf-experiments --test report_persist`.

use mf_experiments::figures::fig6;
use mf_experiments::persist::{figure_from_text, figure_to_text};
use mf_experiments::{ExperimentConfig, FigureReport, Series, Stats};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("figure_report_v1.txt")
}

/// A fixed report exercising the format's corners: spaces in labels and
/// title, a missing point, integers, fractions that need all 17 digits, and
/// subnormal/huge magnitudes. Built from literals only (no libm), so the
/// bytes are identical on every platform.
fn golden_report() -> FigureReport {
    FigureReport {
        id: "golden".into(),
        title: "m = 50, p = 5 — persistence pin".into(),
        x_label: "number of tasks".into(),
        y_label: "period (ms)".into(),
        series: vec![
            Series {
                label: "H2".into(),
                points: vec![
                    (
                        50.0,
                        Some(Stats {
                            count: 30,
                            mean: 1234.5678,
                            std_dev: 1.0 / 3.0,
                            min: 1200.0,
                            max: 1280.5,
                        }),
                    ),
                    (
                        60.0,
                        Some(Stats {
                            count: 30,
                            mean: 0.1 + 0.2, // famously 0.30000000000000004
                            std_dev: f64::MIN_POSITIVE,
                            min: -0.0,
                            max: 1e300,
                        }),
                    ),
                ],
            },
            Series {
                label: "MIP (node budget)".into(),
                points: vec![(50.0, None), (60.0, None)],
            },
        ],
    }
}

#[test]
fn golden_file_bytes_are_pinned() {
    let report = golden_report();
    let text = figure_to_text(&report).unwrap();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        text,
        golden,
        "serialized bytes diverged from the golden file {}",
        path.display()
    );
    // And the golden file parses back to the exact report.
    let parsed = figure_from_text(&golden).unwrap();
    assert_eq!(parsed, report);
}

#[test]
fn a_real_sweep_round_trips_losslessly() {
    // A miniature Figure 6 sweep: deterministic heuristics only (H2, H3,
    // H4, H4w — no exp() in sight), so this is stable across platforms.
    let config = ExperimentConfig {
        repetitions: 2,
        threads: 1,
        ..ExperimentConfig::quick()
    };
    let figure = fig6::run_with_tasks(&config, vec![16, 24]);
    let figure_text = figure_to_text(&figure).unwrap();
    assert_eq!(figure_from_text(&figure_text).unwrap(), figure);
    // Serialization is deterministic: a second pass yields identical bytes.
    assert_eq!(figure_to_text(&figure).unwrap(), figure_text);
}
