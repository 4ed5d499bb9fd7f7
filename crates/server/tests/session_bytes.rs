//! Byte pin of one stdio session that moves large payloads: generated
//! 100×20 and 40×8 instances loaded alternately under the same three names
//! for three rounds, each followed by an evaluate of its H4w mapping, with
//! `#` comment and blank payload lines mixed in, a `batch` of evaluates,
//! `whatif` probes, a rejected payload and an unload. The script is read
//! through a 7-byte `BufReader`, so payload lines straddle buffer refills.
//! The FNV-1a-64 digest of the transcript is pinned at 1 and 3 workers; the
//! value was recorded before payload lines were recycled and parsed in
//! place, and must not move.

use mf_core::textio;
use mf_heuristics::{H4wFastestMachine, Heuristic};
use mf_server::{serve_stdio, Router};
use mf_sim::{GeneratorConfig, InstanceGenerator};
use std::fmt::Write as _;
use std::io::BufReader;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `text` as payload lines with `#` comment and blank lines mixed in.
fn payload(text: &str, tag: &str) -> Vec<String> {
    let mut lines = vec![format!("# {tag}"), String::new()];
    for (k, line) in text.lines().enumerate() {
        lines.push(line.to_string());
        if k % 13 == 4 {
            lines.push(String::new());
        }
        if k % 17 == 9 {
            lines.push(format!("#   note {k}"));
        }
    }
    lines.push("   ".to_string());
    lines
}

fn push_counted(script: &mut String, command: &str, name: &str, lines: &[String]) {
    let _ = writeln!(script, "{command} {name} {}", lines.len());
    for line in lines {
        script.push_str(line);
        script.push('\n');
    }
}

fn script() -> String {
    let big = InstanceGenerator::new(GeneratorConfig::paper_standard(100, 20, 5));
    let small = InstanceGenerator::new(GeneratorConfig::standard_in_forest(40, 8, 3));
    let names = ["north", "south", "west"];
    let mut script = String::from("hello mf-proto v2\n");
    let mut mappings = Vec::new();
    for round in 0..3u64 {
        mappings.clear();
        for (k, name) in names.iter().enumerate() {
            let seed = 10 * round + k as u64;
            let generator = if (round as usize + k) % 2 == 0 {
                &big
            } else {
                &small
            };
            let instance = generator.generate(seed).unwrap();
            let instance_text = textio::instance_to_text(&instance);
            push_counted(
                &mut script,
                "load",
                name,
                &payload(&instance_text, &format!("seed {seed}")),
            );
            let mapping = H4wFastestMachine.map(&instance).unwrap();
            let mapping_lines = payload(&textio::mapping_to_text(&mapping), "H4w");
            push_counted(&mut script, "evaluate", name, &mapping_lines);
            mappings.push(mapping_lines);
        }
        let _ = writeln!(script, "whatif {} move 0 1", names[0]);
        let _ = writeln!(script, "whatif {} swap 1 2", names[1]);
        let _ = writeln!(script, "batch {}", names.len());
        for (name, lines) in names.iter().zip(&mappings).rev() {
            push_counted(&mut script, "evaluate", name, lines);
        }
        let _ = writeln!(script, "whatif {} swap 0 3", names[2]);
        script.push_str("list\n");
    }
    // A payload the instance parser rejects, then one the mapping parser
    // rejects: both are answered as errors and the session goes on.
    push_counted(
        &mut script,
        "load",
        "broken",
        &payload("tasks 2\nmachines two\n", "bad"),
    );
    push_counted(
        &mut script,
        "evaluate",
        names[0],
        &payload("machines 20\nassign 0\n", "bad"),
    );
    let _ = writeln!(script, "unload {}", names[1]);
    script.push_str("list\nshutdown\n");
    script
}

#[test]
fn a_payload_heavy_session_is_pinned_at_one_and_three_workers() {
    let script = script();
    assert_eq!(
        format!("{:016x}", fnv1a64(script.as_bytes())),
        "f6bbea3b495396aa",
        "the script changed, so the transcript pin no longer applies"
    );
    for workers in [1, 3] {
        let router = Router::new(workers, 1);
        let mut output = Vec::new();
        serve_stdio(
            &router,
            BufReader::with_capacity(7, script.as_bytes()),
            &mut output,
        )
        .unwrap();
        let transcript = String::from_utf8(output).expect("protocol output is UTF-8");
        assert_eq!(
            transcript
                .lines()
                .filter(|line| line.starts_with("err "))
                .count(),
            2,
            "{transcript}"
        );
        assert_eq!(
            format!("{:016x}", fnv1a64(transcript.as_bytes())),
            "94abcf5f7e11e2ce",
            "workers {workers}"
        );
    }
}
