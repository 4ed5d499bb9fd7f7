//! The golden stdio transcript: a scripted load / list / solve / evaluate /
//! whatif / portfolio / error / stats / shutdown session whose byte-exact
//! output is committed under `tests/golden/`.
//!
//! The same pair of files drives the CI smoke step, which pipes
//! `smoke_session.in` through the real `microfactory serve --stdio` binary
//! and diffs against `smoke_session.out` — so the protocol, the dispatch
//! layer and the CLI wiring cannot drift apart silently. Every answer in the
//! transcript is deterministic: heuristics use their fixed default seed, and
//! the portfolio outcome is bit-identical for every thread count.
//!
//! Regenerate after an intentional protocol change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mf-server --test golden_transcript
//! ```

use mf_server::{serve_stdio, Router};

#[test]
fn stdio_session_matches_the_golden_transcript() {
    let input = include_str!("golden/smoke_session.in");
    let expected_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/smoke_session.out"
    );
    let router = Router::new(1, 1);
    let mut output = Vec::new();
    serve_stdio(&router, input.as_bytes(), &mut output).unwrap();
    let actual = String::from_utf8(output).expect("protocol output is UTF-8");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(expected_path, &actual).expect("write golden transcript");
        return;
    }
    let expected = std::fs::read_to_string(expected_path).expect("golden transcript exists");
    assert_eq!(
        actual, expected,
        "stdio transcript drifted from tests/golden/smoke_session.out; \
         re-run with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// The transcript must be independent of the solver thread count — the
/// portfolio determinism guarantee, observed end-to-end at the protocol
/// layer.
#[test]
fn transcript_is_thread_count_independent() {
    let input = include_str!("golden/smoke_session.in");
    let mut outputs = Vec::new();
    for threads in [1usize, 4] {
        let router = Router::new(1, threads);
        let mut output = Vec::new();
        serve_stdio(&router, input.as_bytes(), &mut output).unwrap();
        outputs.push(output);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "thread count changed the protocol transcript"
    );
}

/// The `mf-proto v2` golden transcript: hello negotiation, a `batch 5`
/// envelope mixing solves, cached evaluates, an in-envelope error and a
/// whatif, a repeated evaluate served from the keyed cache, and the extended
/// v2 stats block. Deliberately free of `status-export` so the very same
/// bytes come out of a sharded router at any worker count (pinned below).
#[test]
fn batched_v2_session_matches_the_golden_transcript() {
    let input = include_str!("golden/batched_session.in");
    let expected_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/batched_session.out"
    );
    let router = Router::new(1, 1);
    let mut output = Vec::new();
    serve_stdio(&router, input.as_bytes(), &mut output).unwrap();
    let actual = String::from_utf8(output).expect("protocol output is UTF-8");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(expected_path, &actual).expect("write golden transcript");
        return;
    }
    let expected = std::fs::read_to_string(expected_path).expect("golden transcript exists");
    assert_eq!(
        actual, expected,
        "v2 transcript drifted from tests/golden/batched_session.out; \
         re-run with UPDATE_GOLDEN=1 if the change is intentional"
    );
    // The repeated evaluate and the in-batch evaluate of the solved mapping
    // are the two keyed-cache hits the transcript must show.
    assert!(
        actual.contains("stat evaluate-cache-hits 2"),
        "expected two cache hits in the v2 stats block:\n{actual}"
    );
    assert!(actual.contains("stat evaluator-builds 2"), "{actual}");
}

/// The `mf-proto v3` anytime golden transcript: hello negotiation, one
/// budgeted + seeded anytime solve and one default-config anytime solve of
/// the same instance, each answered by a streaming `ok solve-anytime` block
/// (monotone gap reports: seed heuristic → LNS slice → branch-and-bound),
/// and the v3 stats block with the anytime/B&B/LP counters. Steps are
/// evaluator calls and B&B nodes — never wall clock — so every byte is
/// deterministic; the CI smoke step pipes the same file through the real
/// `microfactory serve --stdio` binary.
#[test]
fn anytime_v3_session_matches_the_golden_transcript() {
    let input = include_str!("golden/anytime_session.in");
    let expected_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/anytime_session.out"
    );
    let router = Router::new(1, 1);
    let mut output = Vec::new();
    serve_stdio(&router, input.as_bytes(), &mut output).unwrap();
    let actual = String::from_utf8(output).expect("protocol output is UTF-8");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(expected_path, &actual).expect("write golden transcript");
        return;
    }
    let expected = std::fs::read_to_string(expected_path).expect("golden transcript exists");
    assert_eq!(
        actual, expected,
        "v3 anytime transcript drifted from tests/golden/anytime_session.out; \
         re-run with UPDATE_GOLDEN=1 if the change is intentional"
    );
    // The stream must open with the seed incumbent at step 0 and close each
    // solve with a proven report (gap 0 within the default step budget on
    // this shape), and the v3 counters must record both solves.
    assert!(actual.contains("gap seed 0 "), "{actual}");
    assert!(actual.contains("stat solves-anytime 2"), "{actual}");
    assert!(actual.contains("stat anytime-proven 2"), "{actual}");
}

/// The hostile golden transcript: three two-line `load`s whose header
/// counts (`tasks 2^40`, `types 2^40`, `tasks` at the `usize` maximum) no
/// allocator could size a table for, each answered by a typed `err`, then
/// a normal `load`, `evaluate` and `whatif`; then four short `load`s that
/// name one entry twenty million rows or machines deep, each refused as out
/// of range and followed by the same `whatif`, answered byte-identically;
/// then a `list` the same server answers as if nothing had come before.
#[test]
fn hostile_session_matches_the_golden_transcript() {
    let input = include_str!("golden/hostile_session.in");
    let expected_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/hostile_session.out"
    );
    let router = Router::new(1, 1);
    let mut output = Vec::new();
    serve_stdio(&router, input.as_bytes(), &mut output).unwrap();
    let actual = String::from_utf8(output).expect("protocol output is UTF-8");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(expected_path, &actual).expect("write golden transcript");
        return;
    }
    let expected = std::fs::read_to_string(expected_path).expect("golden transcript exists");
    assert_eq!(
        actual, expected,
        "hostile transcript drifted from tests/golden/hostile_session.out; \
         re-run with UPDATE_GOLDEN=1 if the change is intentional"
    );
    assert_eq!(
        actual.matches("\nerr invalid-payload ").count(),
        7,
        "{actual}"
    );
}

/// Every golden script produces its committed bytes from routers of 1, 2
/// and 4 workers — the worker count is a pure deployment choice, never a
/// protocol fork. `resident_session` solves `SESSION_SNAPSHOT_CAP + 2`
/// instances in one session and then probes the two oldest: the cap bounds
/// the connection's one snapshot map, so they answer `no-resident-state`
/// however the names spread over shards. `evaluate_cache_session`
/// evaluates 60 mappings on each of four names, passing the evaluate
/// cache's 128 entries, then evaluates each name's first mapping again:
/// the server's one cache evicts the same entries at every worker count,
/// so its `stats` bytes match too. `anytime_reload_session` solves `line6`
/// anytime twice, reloads the name with a different instance and solves
/// again: the third solve's seed bound must be the new instance's.
#[test]
fn transcripts_are_worker_count_independent() {
    for (input, expected) in [
        (
            include_str!("golden/smoke_session.in"),
            include_str!("golden/smoke_session.out"),
        ),
        (
            include_str!("golden/batched_session.in"),
            include_str!("golden/batched_session.out"),
        ),
        (
            include_str!("golden/anytime_session.in"),
            include_str!("golden/anytime_session.out"),
        ),
        (
            include_str!("golden/hostile_session.in"),
            include_str!("golden/hostile_session.out"),
        ),
        (
            include_str!("golden/resident_session.in"),
            include_str!("golden/resident_session.out"),
        ),
        (
            include_str!("golden/evaluate_cache_session.in"),
            include_str!("golden/evaluate_cache_session.out"),
        ),
        (
            include_str!("golden/anytime_reload_session.in"),
            include_str!("golden/anytime_reload_session.out"),
        ),
    ] {
        for workers in [1usize, 2, 4] {
            let router = Router::new(workers, 1);
            let mut output = Vec::new();
            serve_stdio(&router, input.as_bytes(), &mut output).unwrap();
            assert_eq!(
                String::from_utf8(output).unwrap(),
                expected,
                "{workers} router workers changed the transcript"
            );
        }
    }
}
