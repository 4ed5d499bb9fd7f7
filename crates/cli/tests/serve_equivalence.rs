//! Server/CLI equivalence: for a fixed instance and seed, `solve` through
//! the real `microfactory serve --stdio` binary returns the **same mapping
//! and the bit-identical period** as the one-shot `microfactory solve` path
//! — for a seeded search strategy, for `--portfolio` and for `--anytime`.
//! The CLI's `--exact` path, which the server does not serve, is pinned
//! against brute force.
//!
//! This is the acceptance pin for the serve mode: a resident server is a
//! performance upgrade, never a numerical fork.

use mf_core::textio;
use mf_server::{Response, GREETING};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_microfactory");

fn run(args: &[&str], stdin: Option<&str>) -> (String, String) {
    let mut command = Command::new(BIN);
    command
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    command.stdin(if stdin.is_some() {
        Stdio::piped()
    } else {
        Stdio::null()
    });
    let mut child = command.spawn().expect("spawn microfactory");
    if let Some(input) = stdin {
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("feed stdin");
    }
    let output = child.wait_with_output().expect("microfactory runs");
    assert!(
        output.status.success(),
        "`microfactory {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8(output.stdout).expect("stdout is UTF-8"),
        String::from_utf8(output.stderr).expect("stderr is UTF-8"),
    )
}

/// Parses the serve-session responses after the greeting line.
fn session_responses(transcript: &str) -> Vec<Response> {
    let rest = transcript
        .strip_prefix(&format!("{GREETING}\n"))
        .unwrap_or_else(|| panic!("missing greeting in {transcript:?}"));
    let mut reader = mf_server::ProtoReader::new(rest.as_bytes());
    let mut responses = Vec::new();
    while let Some(response) = reader.read_response().expect("transcript parses") {
        responses.push(response);
    }
    responses
}

#[test]
fn server_solve_matches_the_one_shot_cli_bit_for_bit() {
    // A fixed instance, produced by the CLI itself.
    let (instance_text, _) = run(
        &[
            "generate",
            "--tasks",
            "10",
            "--machines",
            "4",
            "--types",
            "2",
            "--seed",
            "9",
        ],
        None,
    );
    let dir = std::env::temp_dir().join(format!("mf-serve-equivalence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let instance_path = dir.join("instance.mf");
    std::fs::write(&instance_path, &instance_text).unwrap();
    let instance = textio::instance_from_text(&instance_text).unwrap();

    // One-shot CLI answers: stdout is exactly the mapping text.
    let (cli_heuristic, _) = run(
        &[
            "solve",
            "--heuristic",
            "sd-h2",
            instance_path.to_str().unwrap(),
        ],
        None,
    );
    let (cli_portfolio, _) = run(
        &["solve", "--portfolio", instance_path.to_str().unwrap()],
        None,
    );
    let heuristic_mapping = textio::mapping_from_text(&cli_heuristic).unwrap();
    let portfolio_mapping = textio::mapping_from_text(&cli_portfolio).unwrap();

    // The same two solves through the served protocol (one session).
    let payload_lines = instance_text.lines().count();
    let mut script = format!("load inst {payload_lines}\n{instance_text}");
    script.push_str("solve inst heuristic SD-H2\nsolve inst portfolio\nshutdown\n");
    let (transcript, _) = run(&["serve", "--stdio"], Some(&script));
    let responses = session_responses(&transcript);
    assert_eq!(
        responses.len(),
        4,
        "load + 2 solves + shutdown: {responses:?}"
    );

    let expectations = [
        (&responses[1], &heuristic_mapping, "SD-H2"),
        (&responses[2], &portfolio_mapping, "portfolio"),
    ];
    for (response, cli_mapping, what) in expectations {
        let Response::Solved {
            period,
            machines,
            assignment,
            ..
        } = response
        else {
            panic!("expected a solve response for {what}, got {response:?}");
        };
        let cli_assignment: Vec<usize> = cli_mapping.as_slice().iter().map(|u| u.index()).collect();
        assert_eq!(
            assignment, &cli_assignment,
            "{what}: server mapping differs from the one-shot CLI"
        );
        assert_eq!(*machines, cli_mapping.machine_count());
        let cli_period = instance.period(cli_mapping).unwrap().value();
        assert_eq!(
            period.to_bits(),
            cli_period.to_bits(),
            "{what}: server period {period} is not bit-identical to the CLI's {cli_period}"
        );
    }

    // The very same script through a sharded `--workers 2` server binary is
    // byte-identical — the router tier never forks the transcript.
    let (sharded, _) = run(&["serve", "--stdio", "--workers", "2"], Some(&script));
    assert_eq!(
        sharded, transcript,
        "--workers 2 changed the serve transcript"
    );

    // A v2 session with a batch envelope also agrees across worker counts,
    // and the second evaluate of the solved mapping is a keyed-cache hit.
    let mapping_lines = cli_heuristic.lines().count();
    let v2_script = format!(
        "hello mf-proto v2\nload inst {payload_lines}\n{instance_text}\
         batch 2\nsolve inst heuristic SD-H2\nevaluate inst {mapping_lines}\n{cli_heuristic}\
         stats\nshutdown\n"
    );
    let (single, _) = run(&["serve", "--stdio"], Some(&v2_script));
    let (routed, _) = run(&["serve", "--stdio", "--workers", "2"], Some(&v2_script));
    assert_eq!(routed, single, "--workers 2 changed the v2 transcript");
    assert!(
        single.contains("stat evaluate-cache-hits 1"),
        "the batched evaluate of the solved mapping must hit the cache:\n{single}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a CLI-generated instance (`generate` with the flags in `args`)
/// into a fresh temporary directory: its text, its path and the directory.
fn generated_instance(tag: &str, args: &str) -> (String, PathBuf, PathBuf) {
    let args: Vec<&str> = std::iter::once("generate")
        .chain(args.split_whitespace())
        .collect();
    let (text, _) = run(&args, None);
    let dir = std::env::temp_dir().join(format!("mf-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("instance.mf");
    std::fs::write(&path, &text).unwrap();
    (text, path, dir)
}

#[test]
fn anytime_solve_matches_the_one_shot_cli_bit_for_bit() {
    let generate = "--tasks 10 --machines 4 --types 2 --seed 9";
    let (instance_text, path, dir) = generated_instance("anytime-equivalence", generate);
    let instance = textio::instance_from_text(&instance_text).unwrap();
    let path = path.to_str().unwrap();
    let (cli_text, _) = run(&["solve", "--anytime", "--budget", "2000", path], None);
    let cli_mapping = textio::mapping_from_text(&cli_text).unwrap();

    let payload_lines = instance_text.lines().count();
    let script = format!(
        "hello mf-proto v3\nload inst {payload_lines}\n{instance_text}\
         solve inst anytime budget 2000\nshutdown\n"
    );
    let (transcript, _) = run(&["serve", "--stdio"], Some(&script));
    let responses = session_responses(&transcript);
    let Response::SolvedAnytime {
        period,
        machines,
        assignment,
        ..
    } = &responses[2]
    else {
        panic!("expected an anytime solve response, got {responses:?}");
    };
    let cli_assignment: Vec<usize> = cli_mapping.as_slice().iter().map(|u| u.index()).collect();
    assert_eq!(assignment, &cli_assignment);
    assert_eq!(*machines, cli_mapping.machine_count());
    let cli_period = instance.period(&cli_mapping).unwrap().value();
    assert_eq!(period.to_bits(), cli_period.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// `solve --exact` prints a proven optimum: the brute-force optimum's
/// period, labelled `exact optimum` on stderr.
#[test]
fn exact_solve_prints_the_brute_force_optimum() {
    let generate = "--tasks 6 --machines 4 --types 2 --seed 5";
    let (instance_text, path, dir) = generated_instance("exact-solve", generate);
    let instance = textio::instance_from_text(&instance_text).unwrap();
    let (mapping_text, stderr) = run(&["solve", "--exact", path.to_str().unwrap()], None);
    assert!(stderr.starts_with("exact optimum"), "{stderr}");
    let mapping = textio::mapping_from_text(&mapping_text).unwrap();
    let period = instance.period(&mapping).unwrap().value();
    let optimum = mf_exact::brute_force_specialized(&instance)
        .unwrap()
        .period
        .value();
    assert!(
        (period - optimum).abs() <= 1e-9 * optimum,
        "--exact printed period {period}, brute force finds {optimum}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI rejects mistyped flags loudly instead of silently ignoring them —
/// the failure mode that used to turn `--portolio` into a default H4w run.
#[test]
fn mistyped_flags_fail_loudly() {
    let output = Command::new(BIN)
        .args(["solve", "--portolio", "nonexistent.mf"])
        .output()
        .expect("microfactory runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--portolio"), "{stderr}");
    assert!(stderr.contains("valid flags"), "{stderr}");
    assert!(stderr.contains("--portfolio"), "{stderr}");
}
