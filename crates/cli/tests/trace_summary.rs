//! The `microfactory trace` summary of an anytime solve: the real binary
//! writes a trace with `solve --anytime --trace`, then `trace` verifies it
//! and counts its records.
//!
//! An anytime trace carries one `round` record per improvement report, and
//! its `done` flag means "proven optimal". The summary must count those
//! without calling them finished portfolio cells.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_microfactory");

fn run(args: &[&str]) -> String {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("microfactory runs");
    assert!(
        output.status.success(),
        "`microfactory {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

#[test]
fn anytime_trace_summary_counts_the_proven_round() {
    let dir = std::env::temp_dir().join(format!("mf-trace-summary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let instance = dir.join("line.mf");
    let trace = dir.join("anytime.trace");
    let instance_text = run(&[
        "generate",
        "--tasks",
        "8",
        "--machines",
        "4",
        "--types",
        "2",
        "--seed",
        "3",
    ]);
    std::fs::write(&instance, instance_text).unwrap();
    run(&[
        "solve",
        "--anytime",
        "--trace",
        trace.to_str().unwrap(),
        instance.to_str().unwrap(),
    ]);
    let summary = run(&["trace", trace.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);

    // Seed, LNS and the proving branch-and-bound report: three rounds, the
    // last one proven.
    let rounds = summary
        .lines()
        .find(|line| line.trim_start().starts_with("rounds:"))
        .unwrap_or_else(|| panic!("no rounds line in {summary:?}"));
    assert_eq!(
        rounds,
        "  rounds:  3 (1 done: a converged portfolio cell or a proven anytime incumbent)"
    );
    assert!(summary.contains("  commits: 0 (0 improved the incumbent)"));
}
