//! Outcome pins of the text parsers: every row feeds one text to
//! `instance_from_text` or `mapping_from_text`, and its `str::lines` to
//! `instance_from_lines` or `mapping_from_lines`, and pins either the
//! FNV-1a-64 digest of the canonical text of the result or the exact
//! `Display` of the error — the same pin for both entries. The rows cover the instance and mapping payloads of the
//! server's golden sessions, generated chains and forests, and the corners
//! of the accepted set: line ends, Unicode whitespace, non-ASCII comments,
//! number spellings the standard parsers accept or refuse, trailing tokens
//! and out-of-range indices. A parser rewrite must leave every row as it
//! is.

use microfactory::model::textio;
use microfactory::prelude::*;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn instance_outcome(parsed: Result<Instance>) -> String {
    match parsed {
        Ok(instance) => format!(
            "ok {:016x}",
            fnv1a64(textio::instance_to_text(&instance).as_bytes())
        ),
        Err(error) => format!("err {error}"),
    }
}

fn mapping_outcome(parsed: Result<Mapping>) -> String {
    match parsed {
        Ok(mapping) => format!(
            "ok {:016x}",
            fnv1a64(textio::mapping_to_text(&mapping).as_bytes())
        ),
        Err(error) => format!("err {error}"),
    }
}

/// The counted `load` and `evaluate` payloads of one golden session script,
/// as `(command, name, text)`.
fn golden_payloads(file: &str) -> Vec<(String, String, String)> {
    let path = format!(
        "{}/crates/server/tests/golden/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let script = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = script.lines();
    let mut payloads = Vec::new();
    while let Some(line) = lines.next() {
        let tokens: Vec<&str> = line.split(' ').collect();
        if let ["load" | "evaluate", name, count] = tokens.as_slice() {
            let count: usize = count.parse().unwrap();
            let text: Vec<&str> = lines.by_ref().take(count).collect();
            payloads.push((tokens[0].to_string(), name.to_string(), text.join("\n")));
        }
    }
    payloads
}

fn generated(config: GeneratorConfig, seed: u64) -> String {
    let instance = InstanceGenerator::new(config).generate(seed).unwrap();
    textio::instance_to_text(&instance)
}

/// A small valid instance the corner rows edit.
const BASE: &str = "\
tasks 2
machines 2
types 1
task 0 0 successor 1
task 1 0
time 0 0 120
time 0 1 80.5
failure 0 0 0.01
failure 0 1 0.02
failure 1 0 0
failure 1 1 0.5
";

/// `BASE` with its first occurrence of `from` replaced by `to`.
fn edit(from: &str, to: &str) -> String {
    assert!(BASE.contains(from), "{from:?}");
    BASE.replacen(from, to, 1)
}

const MAPPING: &str = "machines 2\nassign 0 1\nassign 1 0\n";

fn mapping_edit(from: &str, to: &str) -> String {
    assert!(MAPPING.contains(from), "{from:?}");
    MAPPING.replacen(from, to, 1)
}

fn instance_rows() -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = Vec::new();
    for file in [
        "smoke_session.in",
        "batched_session.in",
        "restart_session_a.in",
        "anytime_session.in",
    ] {
        for (command, name, text) in golden_payloads(file) {
            if command == "load" {
                rows.push((format!("golden {file} {name}"), text));
            }
        }
    }
    for seed in [1, 2] {
        rows.push((
            format!("chain 12x4x3 seed {seed}"),
            generated(GeneratorConfig::paper_standard(12, 4, 3), seed),
        ));
        rows.push((
            format!("forest 20x5x3 seed {seed}"),
            generated(GeneratorConfig::standard_in_forest(20, 5, 3), seed),
        ));
    }
    rows.push((
        "chain 100x20x5 seed 1".to_string(),
        generated(GeneratorConfig::paper_standard(100, 20, 5), 1),
    ));
    rows.push((
        "high-failure chain 30x6x4 seed 3".to_string(),
        generated(GeneratorConfig::paper_high_failure(30, 6, 4), 3),
    ));
    let forest = generated(GeneratorConfig::standard_in_forest(20, 5, 3), 7);

    let corners: Vec<(&str, String)> = vec![
        ("base", BASE.to_string()),
        ("no trailing newline", BASE.trim_end().to_string()),
        ("crlf", BASE.replace('\n', "\r\n")),
        ("crlf forest", forest.replace('\n', "\r\n")),
        ("lone cr line ends", BASE.replace('\n', "\r")),
        ("tab separators", BASE.replace(' ', "\t")),
        ("vertical tab separators", BASE.replace(' ', "\x0B")),
        ("form feed separators", BASE.replace(' ', "\x0C")),
        ("double spaces", BASE.replace(' ', "  ")),
        ("indented lines", BASE.replace('\n', "\n   ")),
        ("no-break space separators", BASE.replace(' ', "\u{A0}")),
        (
            "ideographic space separators",
            BASE.replace(' ', "\u{3000}"),
        ),
        ("next-line separators", BASE.replace(' ', "\u{85}")),
        ("line separator separators", BASE.replace(' ', "\u{2028}")),
        ("ideographic indent", BASE.replace('\n', "\n\u{3000}")),
        (
            "zero-width space",
            edit("time 0 0 120", "time 0 0\u{200B}120"),
        ),
        ("info separator", edit("time 0 0 120", "time 0 0\x1F120")),
        (
            "non-ascii comments",
            format!("# café ünïcødé — ☃ 機械\n{BASE}# fin ✓\n"),
        ),
        (
            "indented non-ascii comment",
            format!("\u{A0}\u{3000}# 注釈\n\t# ☃\n{BASE}"),
        ),
        (
            "blank and space-only lines",
            BASE.replace('\n', "\n \t\n\n"),
        ),
        (
            "comment after tokens",
            edit("tasks 2", "tasks 2 # two tasks"),
        ),
        ("comment glued to token", edit("tasks 2", "tasks 2#two")),
        ("plus count", edit("tasks 2", "tasks +2")),
        ("plus seven machines", edit("machines 2", "machines +7")),
        ("minus count", edit("tasks 2", "tasks -2")),
        ("leading zeros", edit("task 1 0", "task 0001 000")),
        ("hex count", edit("types 1", "types 0x1")),
        ("underscore count", edit("types 1", "types 1_0")),
        ("arabic digit", edit("types 1", "types \u{663}")),
        ("fullwidth digit", edit("types 1", "types \u{FF11}")),
        (
            "overflowing count",
            edit("tasks 2", "tasks 99999999999999999999999"),
        ),
        (
            "overflowing index",
            edit("task 1 0", "task 18446744073709551616 0"),
        ),
        ("max index", edit("task 1 0", "task 18446744073709551615 0")),
        ("exponent time", edit("time 0 0 120", "time 0 0 1e3")),
        (
            "upper exponent time",
            edit("time 0 0 120", "time 0 0 1.5E+2"),
        ),
        ("dot-led time", edit("time 0 1 80.5", "time 0 1 .5")),
        ("dot-tailed time", edit("time 0 1 80.5", "time 0 1 80.")),
        ("plus time", edit("time 0 1 80.5", "time 0 1 +80.5")),
        ("inf time", edit("time 0 0 120", "time 0 0 inf")),
        ("infinity time", edit("time 0 0 120", "time 0 0 Infinity")),
        ("negative time", edit("time 0 0 120", "time 0 0 -120")),
        ("zero time", edit("time 0 0 120", "time 0 0 0")),
        ("NaN time", edit("time 0 0 120", "time 0 0 NaN")),
        ("NaN failure", edit("failure 0 1 0.02", "failure 0 1 NaN")),
        ("nan failure", edit("failure 0 1 0.02", "failure 0 1 nan")),
        (
            "negative zero failure",
            edit("failure 1 0 0", "failure 1 0 -0"),
        ),
        ("one failure", edit("failure 1 1 0.5", "failure 1 1 1")),
        (
            "exponent failure",
            edit("failure 1 1 0.5", "failure 1 1 5e-1"),
        ),
        ("huge exponent time", edit("time 0 0 120", "time 0 0 1e400")),
        (
            "tiny exponent failure",
            edit("failure 1 0 0", "failure 1 0 1e-400"),
        ),
        ("comma decimal", edit("time 0 1 80.5", "time 0 1 80,5")),
        ("trailing token on tasks", edit("tasks 2", "tasks 2 extra")),
        (
            "trailing token on time",
            edit("time 0 0 120", "time 0 0 120 ms"),
        ),
        (
            "trailing token on failure",
            edit("failure 0 0 0.01", "failure 0 0 0.01 0.02"),
        ),
        (
            "trailing token after successor",
            edit("task 0 0 successor 1", "task 0 0 successor 1 more"),
        ),
        ("unexpected task token", edit("task 1 0", "task 1 0 next")),
        (
            "successor without index",
            edit("task 1 0", "task 1 0 successor"),
        ),
        ("missing time value", edit("time 0 0 120", "time 0 0")),
        (
            "missing failure value",
            edit("failure 0 0 0.01", "failure 0 0"),
        ),
        ("task out of range", edit("task 1 0", "task 2 0")),
        ("type out of range", edit("task 1 0", "task 1 1")),
        (
            "successor out of range",
            edit("task 1 0", "task 1 0 successor 5"),
        ),
        ("self successor", edit("task 1 0", "task 1 0 successor 1")),
        (
            "time type out of range",
            edit("time 0 1 80.5", "time 1 1 80.5"),
        ),
        (
            "time machine out of range",
            edit("time 0 1 80.5", "time 0 2 80.5"),
        ),
        (
            "failure task out of range",
            edit("failure 1 1 0.5", "failure 2 1 0.5"),
        ),
        (
            "failure machine out of range",
            edit("failure 1 1 0.5", "failure 1 2 0.5"),
        ),
        ("missing time entry", edit("time 0 1 80.5\n", "")),
        ("missing failure entry", edit("failure 1 1 0.5\n", "")),
        ("undeclared task", edit("task 1 0\n", "")),
        ("task before tasks", format!("task 0 0\n{BASE}")),
        (
            "time before types",
            edit("types 1\n", "time 0 0 1\ntypes 1\n"),
        ),
        (
            "failure before machines",
            format!("tasks 1\nfailure 0 0 0.1\n{BASE}"),
        ),
        ("repeated tasks header", format!("{BASE}tasks 2\n")),
        ("unknown keyword", edit("types 1", "kinds 1")),
        ("upper-case keyword", edit("types 1", "Types 1")),
        ("empty text", String::new()),
        ("only comments", "# nothing\n\n# here\n".to_string()),
        ("missing machines header", edit("machines 2\n", "")),
        ("missing types header", edit("types 1\n", "")),
        ("zero tasks", "tasks 0\nmachines 1\ntypes 0\n".to_string()),
    ];
    rows.extend(
        corners
            .into_iter()
            .map(|(label, text)| (label.to_string(), text)),
    );
    rows
}

fn mapping_rows() -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = Vec::new();
    for file in [
        "smoke_session.in",
        "batched_session.in",
        "restart_session_a.in",
        "restart_session_b.in",
    ] {
        for (command, name, text) in golden_payloads(file) {
            if command == "evaluate" {
                rows.push((format!("golden {file} {name}"), text));
            }
        }
    }
    let corners: Vec<(&str, String)> = vec![
        ("base", MAPPING.to_string()),
        ("crlf", MAPPING.replace('\n', "\r\n")),
        ("lone cr line ends", MAPPING.replace('\n', "\r")),
        ("vertical tab separators", MAPPING.replace(' ', "\x0B")),
        ("no-break space separators", MAPPING.replace(' ', "\u{A0}")),
        (
            "ideographic space separators",
            MAPPING.replace(' ', "\u{3000}"),
        ),
        (
            "non-ascii comments",
            format!("# répartition ☃\n{MAPPING}# ✓\n"),
        ),
        ("plus machine", mapping_edit("assign 0 1", "assign 0 +1")),
        (
            "plus seven machines",
            mapping_edit("machines 2", "machines +7"),
        ),
        (
            "overflowing machine count",
            mapping_edit("machines 2", "machines 99999999999999999999999"),
        ),
        ("float index", mapping_edit("assign 0 1", "assign 0 1e0")),
        ("inf index", mapping_edit("assign 0 1", "assign 0 inf")),
        (
            "trailing token",
            mapping_edit("assign 0 1", "assign 0 1 extra"),
        ),
        (
            "machine out of range",
            mapping_edit("assign 0 1", "assign 0 2"),
        ),
        ("task gap", mapping_edit("assign 1 0", "assign 2 0")),
        ("duplicate assign", format!("{MAPPING}assign 1 1\n")),
        ("missing machines header", mapping_edit("machines 2\n", "")),
        ("unknown keyword", mapping_edit("assign 1 0", "place 1 0")),
        (
            "missing machine index",
            mapping_edit("assign 1 0", "assign 1"),
        ),
        ("empty text", String::new()),
    ];
    rows.extend(
        corners
            .into_iter()
            .map(|(label, text)| (label.to_string(), text)),
    );
    rows
}

/// Compares the outcomes with the pins; on a mismatch prints the actual
/// table as Rust string literals, ready to paste after a deliberate change.
fn check(actual: &[String], pins: &[&str]) {
    if actual != pins {
        for line in actual {
            eprintln!("    {line:?},");
        }
    }
    assert_eq!(actual.join("\n"), pins.join("\n"));
}

const INSTANCE_PINS: &[&str] = &[
    "golden smoke_session.in line6 => ok db9939d22f71f68c",
    "golden batched_session.in east => ok db9939d22f71f68c",
    "golden batched_session.in west => ok db9939d22f71f68c",
    "golden restart_session_a.in alpha => ok bc24ef753d0abe89",
    "golden restart_session_a.in beta => ok 688384f574b6f14f",
    "golden anytime_session.in line6 => ok db9939d22f71f68c",
    "chain 12x4x3 seed 1 => ok 8ee11f3b3204eb8e",
    "forest 20x5x3 seed 1 => ok f4cf1ceb4159e4e7",
    "chain 12x4x3 seed 2 => ok de4d37bd330ef6d6",
    "forest 20x5x3 seed 2 => ok d119132125c610cb",
    "chain 100x20x5 seed 1 => ok 19fd4fafcd2f55de",
    "high-failure chain 30x6x4 seed 3 => ok af426d04b7e80926",
    "base => ok 36ebe091e9d0590c",
    "no trailing newline => ok 36ebe091e9d0590c",
    "crlf => ok 36ebe091e9d0590c",
    "crlf forest => ok 49dd56978944a689",
    "lone cr line ends => err mapping violates General rule: line 0: missing `machines` header",
    "tab separators => ok 36ebe091e9d0590c",
    "vertical tab separators => ok 36ebe091e9d0590c",
    "form feed separators => ok 36ebe091e9d0590c",
    "double spaces => ok 36ebe091e9d0590c",
    "indented lines => ok 36ebe091e9d0590c",
    "no-break space separators => ok 36ebe091e9d0590c",
    "ideographic space separators => ok 36ebe091e9d0590c",
    "next-line separators => ok 36ebe091e9d0590c",
    "line separator separators => ok 36ebe091e9d0590c",
    "ideographic indent => ok 36ebe091e9d0590c",
    "zero-width space => err mapping violates General rule: line 6: expected machine index (unsigned integer)",
    "info separator => err mapping violates General rule: line 6: expected machine index (unsigned integer)",
    "non-ascii comments => ok 36ebe091e9d0590c",
    "indented non-ascii comment => ok 36ebe091e9d0590c",
    "blank and space-only lines => ok 36ebe091e9d0590c",
    "comment after tokens => ok 36ebe091e9d0590c",
    "comment glued to token => err mapping violates General rule: line 1: expected task count (unsigned integer)",
    "plus count => ok 36ebe091e9d0590c",
    "plus seven machines => err mapping violates General rule: line 0: missing `time 0 2` entry",
    "minus count => err mapping violates General rule: line 1: expected task count (unsigned integer)",
    "leading zeros => ok 36ebe091e9d0590c",
    "hex count => err mapping violates General rule: line 3: expected type count (unsigned integer)",
    "underscore count => err mapping violates General rule: line 3: expected type count (unsigned integer)",
    "arabic digit => err mapping violates General rule: line 3: expected type count (unsigned integer)",
    "fullwidth digit => err mapping violates General rule: line 3: expected type count (unsigned integer)",
    "overflowing count => err mapping violates General rule: line 1: expected task count (unsigned integer)",
    "overflowing index => err mapping violates General rule: line 5: expected task index (unsigned integer)",
    "max index => err mapping violates General rule: line 5: task index 18446744073709551615 out of range",
    "exponent time => ok 4459d2551120ff54",
    "upper exponent time => ok 09ac826091655c1d",
    "dot-led time => ok ca8ee5b6fa5cb70e",
    "dot-tailed time => ok be0b15adda142737",
    "plus time => ok 36ebe091e9d0590c",
    "inf time => err processing time for type 0 on machine 0 must be finite and > 0, got inf",
    "infinity time => err processing time for type 0 on machine 0 must be finite and > 0, got inf",
    "negative time => err processing time for type 0 on machine 0 must be finite and > 0, got -120",
    "zero time => err processing time for type 0 on machine 0 must be finite and > 0, got 0",
    "NaN time => err processing time for type 0 on machine 0 must be finite and > 0, got NaN",
    "NaN failure => err failure rate must lie in [0, 1), got NaN",
    "nan failure => err failure rate must lie in [0, 1), got NaN",
    "negative zero failure => ok 5817229131d52c8d",
    "one failure => err failure rate must lie in [0, 1), got 1",
    "exponent failure => ok 36ebe091e9d0590c",
    "huge exponent time => err processing time for type 0 on machine 0 must be finite and > 0, got inf",
    "tiny exponent failure => ok 36ebe091e9d0590c",
    "comma decimal => err mapping violates General rule: line 7: expected processing time (number)",
    "trailing token on tasks => ok 36ebe091e9d0590c",
    "trailing token on time => ok 36ebe091e9d0590c",
    "trailing token on failure => ok 36ebe091e9d0590c",
    "trailing token after successor => ok 36ebe091e9d0590c",
    "unexpected task token => err mapping violates General rule: line 5: unexpected token `next`",
    "successor without index => err mapping violates General rule: line 5: expected successor index (unsigned integer)",
    "missing time value => err mapping violates General rule: line 6: expected processing time (number)",
    "missing failure value => err mapping violates General rule: line 8: expected failure probability (number)",
    "task out of range => err mapping violates General rule: line 5: task index 2 out of range",
    "type out of range => err type index 1 out of range (application declares 1 types)",
    "successor out of range => err task index 5 out of range (application has 2 tasks)",
    "self successor => err application graph contains a cycle",
    "time type out of range => err mapping violates General rule: line 7: time entry out of range",
    "time machine out of range => err mapping violates General rule: line 7: time entry out of range",
    "failure task out of range => err mapping violates General rule: line 11: failure entry out of range",
    "failure machine out of range => err mapping violates General rule: line 11: failure entry out of range",
    "missing time entry => err mapping violates General rule: line 0: missing `time 0 1` entry",
    "missing failure entry => err mapping violates General rule: line 0: missing `failure 1 1` entry",
    "undeclared task => err mapping violates General rule: line 0: task 1 is not declared",
    "task before tasks => err mapping violates General rule: line 1: `tasks` must come first",
    "time before types => err mapping violates General rule: line 3: `types` must come first",
    "failure before machines => err mapping violates General rule: line 2: `machines` must come first",
    "repeated tasks header => err mapping violates General rule: line 0: task 0 is not declared",
    "unknown keyword => err mapping violates General rule: line 3: unknown keyword `kinds`",
    "upper-case keyword => err mapping violates General rule: line 3: unknown keyword `Types`",
    "empty text => err mapping violates General rule: line 0: missing `tasks` header",
    "only comments => err mapping violates General rule: line 0: missing `tasks` header",
    "missing machines header => err mapping violates General rule: line 5: `machines` must come first",
    "missing types header => err mapping violates General rule: line 5: `types` must come first",
    "zero tasks => err application has no tasks",
];

const MAPPING_PINS: &[&str] = &[
    "golden smoke_session.in line6 => ok 64f4950e9d012003",
    "golden batched_session.in east => ok 64f4950e9d012003",
    "golden batched_session.in west => ok 64f4950e9d012003",
    "golden batched_session.in east => ok 64f4950e9d012003",
    "golden restart_session_a.in alpha => ok c294a4c6a493cc86",
    "golden restart_session_b.in alpha => ok c294a4c6a493cc86",
    "base => ok 2dd3d7e7c01cf97a",
    "crlf => ok 2dd3d7e7c01cf97a",
    "lone cr line ends => ok fba12a3859685362",
    "vertical tab separators => ok 2dd3d7e7c01cf97a",
    "no-break space separators => ok 2dd3d7e7c01cf97a",
    "ideographic space separators => ok 2dd3d7e7c01cf97a",
    "non-ascii comments => ok 2dd3d7e7c01cf97a",
    "plus machine => ok 2dd3d7e7c01cf97a",
    "plus seven machines => ok acceabeb5258f51f",
    "overflowing machine count => err mapping violates General rule: line 1: expected machine count (unsigned integer)",
    "float index => err mapping violates General rule: line 2: expected machine index (unsigned integer)",
    "inf index => err mapping violates General rule: line 2: expected machine index (unsigned integer)",
    "trailing token => ok 2dd3d7e7c01cf97a",
    "machine out of range => err machine index 2 out of range (platform has 2 machines)",
    "task gap => err mapping violates General rule: line 0: missing `assign` entry for task 1",
    "duplicate assign => err mapping violates General rule: line 0: missing `assign` entry for task 2",
    "missing machines header => err mapping violates General rule: line 0: missing `machines` header",
    "unknown keyword => err mapping violates General rule: line 3: unknown keyword `place`",
    "missing machine index => err mapping violates General rule: line 3: expected machine index (unsigned integer)",
    "empty text => err mapping violates General rule: line 0: missing `machines` header",
];

#[test]
fn instance_parser_outcomes_are_pinned() {
    let rows = instance_rows();
    let from_text: Vec<String> = rows
        .iter()
        .map(|(label, text)| {
            let outcome = instance_outcome(textio::instance_from_text(text));
            format!("{label} => {outcome}")
        })
        .collect();
    check(&from_text, INSTANCE_PINS);
    let from_lines: Vec<String> = rows
        .iter()
        .map(|(label, text)| {
            let outcome = instance_outcome(textio::instance_from_lines(text.lines()));
            format!("{label} => {outcome}")
        })
        .collect();
    check(&from_lines, INSTANCE_PINS);
}

#[test]
fn mapping_parser_outcomes_are_pinned() {
    let rows = mapping_rows();
    let from_text: Vec<String> = rows
        .iter()
        .map(|(label, text)| {
            let outcome = mapping_outcome(textio::mapping_from_text(text));
            format!("{label} => {outcome}")
        })
        .collect();
    check(&from_text, MAPPING_PINS);
    let from_lines: Vec<String> = rows
        .iter()
        .map(|(label, text)| {
            let outcome = mapping_outcome(textio::mapping_from_lines(text.lines()));
            format!("{label} => {outcome}")
        })
        .collect();
    check(&from_lines, MAPPING_PINS);
}
