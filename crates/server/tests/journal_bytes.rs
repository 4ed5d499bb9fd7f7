//! Byte pins of `mf-journal v1` as the journal writes it: a scripted run of
//! loads, an unload, a reload, a churn across two compactions and a
//! reopen, with the FNV-1a-64 digest of `journal.mfj` after every phase and
//! the digest of the replayed live set at the end. Any change to how the
//! journal encodes, appends or compacts records shows up here as a changed
//! digest; the pinned values were recorded before the journal kept its
//! shadow as encoded records, and must not move.

use mf_core::textio;
use mf_server::{Journal, RecoveredInstance, COMPACT_EVERY, JOURNAL_FILE};
use mf_sim::{GeneratorConfig, InstanceGenerator};
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("mf-journal-bytes-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A generated instance as payload lines, with extra `#` comment and blank
/// lines mixed in: the journal must keep them exactly as they arrived.
fn payload(config: GeneratorConfig, seed: u64) -> Vec<String> {
    let instance = InstanceGenerator::new(config).generate(seed).unwrap();
    let mut lines = vec![format!("# generated, seed {seed}"), String::new()];
    for (k, line) in textio::instance_to_text(&instance).lines().enumerate() {
        lines.push(line.to_string());
        if k % 7 == 3 {
            lines.push(String::new());
        }
        if k % 11 == 5 {
            lines.push(format!("#   note {k}: kept verbatim"));
        }
    }
    lines.push("   ".to_string());
    lines
}

fn file_digest(dir: &Path) -> u64 {
    fnv1a64(&std::fs::read(dir.join(JOURNAL_FILE)).unwrap())
}

/// Digest of the replayed live set: names, generations and payload lines in
/// replay order, each field newline-terminated.
fn live_digest(live: &[RecoveredInstance]) -> u64 {
    let mut text = String::new();
    for entry in live {
        text.push_str(&format!(
            "{} {} {}\n",
            entry.name,
            entry.generation,
            entry.payload.len()
        ));
        for line in &entry.payload {
            text.push_str(line);
            text.push('\n');
        }
    }
    fnv1a64(text.as_bytes())
}

#[test]
fn journal_bytes_are_pinned_across_loads_churn_and_reopen() {
    let dir = TempDir::new("pins");
    let chain = payload(GeneratorConfig::paper_standard(10, 4, 2), 9);
    let forest = payload(GeneratorConfig::standard_in_forest(14, 5, 3), 4);
    let wide = payload(GeneratorConfig::paper_standard(20, 6, 3), 2);
    let mut digests = Vec::new();
    let mut generation = 0u64;
    let mut next_generation = || {
        generation += 1;
        generation - 1
    };
    {
        let journal = Journal::open(dir.path()).unwrap();
        digests.push(("open", file_digest(dir.path())));

        journal
            .record_load("chain", next_generation(), &chain)
            .unwrap();
        journal
            .record_load("forest", next_generation(), &forest)
            .unwrap();
        journal
            .record_load("wide", next_generation(), &wide)
            .unwrap();
        digests.push(("three loads", file_digest(dir.path())));

        journal.record_unload("forest").unwrap();
        journal
            .record_load("chain", next_generation(), &chain)
            .unwrap();
        digests.push(("unload and reload", file_digest(dir.path())));

        for k in 0..2 * COMPACT_EVERY {
            let (name, lines) = match k % 3 {
                0 => ("chain", &chain),
                1 => ("wide", &wide),
                _ => ("forest", &forest),
            };
            journal.record_load(name, next_generation(), lines).unwrap();
        }
        digests.push(("churn", file_digest(dir.path())));
    }
    let journal = Journal::open(dir.path()).unwrap();
    digests.push(("reopen", file_digest(dir.path())));
    let live = journal.live_instances().unwrap();
    let names: Vec<(&str, u64)> = live
        .iter()
        .map(|entry| (entry.name.as_str(), entry.generation))
        .collect();
    assert_eq!(names, [("forest", 129), ("chain", 130), ("wide", 131)]);
    assert_eq!(journal.mark(), 132);

    let actual: Vec<String> = digests
        .iter()
        .map(|(phase, digest)| format!("{phase}: {digest:016x}"))
        .chain(std::iter::once(format!(
            "live: {:016x}",
            live_digest(&live)
        )))
        .collect();
    let expected = [
        "open: 0d5c569242c64b5a",
        "three loads: d1c2af5864237c9e",
        "unload and reload: efe32e50e09d0eff",
        "churn: 3c62cea698c645e9",
        "reopen: 491dbb5c71a4a07c",
        "live: 9c0acdedf8fee485",
    ];
    assert_eq!(actual.join("\n"), expected.join("\n"));
}
