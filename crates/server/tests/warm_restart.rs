//! Kill-and-resume warm restarts: a durable router that is
//! dropped mid-conversation — no shutdown, no flushes beyond the journal's
//! own per-append flush — and reopened over the same data directory must
//! continue the conversation **byte-identically** to one process that never
//! died.
//!
//! The two session scripts are pinned under `tests/golden/` together with
//! the uninterrupted transcript; the CI crash-recovery job drives the same
//! scripts through the real binary with a real SIGKILL between them.
//! Deliberately free of `stats`/`status-export` (counters reset on restart)
//! and of `shutdown` (the CI job inspects the server after session B).
//!
//! Regenerate after an intentional protocol change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mf-server --test warm_restart
//! ```

use mf_core::textio;
use mf_heuristics::{H4wFastestMachine, Heuristic};
use mf_server::proto::{text_payload, Request, Response};
use mf_server::{serve_stdio, Router};
use mf_sim::{GeneratorConfig, InstanceGenerator};
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("mf-warm-restart-{tag}-{}", std::process::id()));
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

fn instance_text(tasks: usize, machines: usize, types: usize, seed: u64) -> String {
    let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(tasks, machines, types))
        .generate(seed)
        .unwrap();
    textio::instance_to_text(&instance)
}

/// `alpha`'s instance — and the H4w mapping both sessions evaluate (the
/// same mapping `solve alpha heuristic H4w` answers, so the evaluate after
/// the restart exercises the generation-keyed cache on recovered state).
fn alpha_text() -> String {
    instance_text(10, 4, 2, 9)
}

fn beta_text() -> String {
    instance_text(12, 5, 3, 11)
}

fn alpha_mapping_text() -> String {
    let instance = textio::instance_from_text(&alpha_text()).unwrap();
    textio::mapping_to_text(&H4wFastestMachine.map(&instance).unwrap())
}

/// `<command> <N>` followed by the `N` payload lines.
fn with_payload(command: &str, text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = format!("{command} {}\n", lines.len());
    for line in &lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The pre-kill session: loads both instances, then works `alpha` hard
/// enough to warm the keyed evaluate cache and park resident whatif state.
fn session_a() -> String {
    let mut script = String::new();
    script.push_str(&with_payload("load alpha", &alpha_text()));
    script.push_str(&with_payload("load beta", &beta_text()));
    script.push_str("list\n");
    script.push_str("solve alpha heuristic H4w\n");
    script.push_str(&with_payload("evaluate alpha", &alpha_mapping_text()));
    script.push_str("whatif alpha move 0 1\n");
    script.push_str("solve beta portfolio\n");
    script
}

/// The post-kill session: both instances must still answer — `list` shows
/// them, the evaluate/whatif pair resumes on `alpha`, `beta` still solves,
/// and the unload must stick.
fn session_b() -> String {
    let mut script = String::new();
    script.push_str("list\n");
    script.push_str(&with_payload("evaluate alpha", &alpha_mapping_text()));
    script.push_str("whatif alpha move 0 1\n");
    script.push_str("whatif alpha swap 0 2\n");
    script.push_str("solve beta heuristic SD-H2 seed 7\n");
    script.push_str("unload beta\n");
    script.push_str("list\n");
    script
}

fn transcript(router: &Router, script: &str) -> String {
    let mut output = Vec::new();
    serve_stdio(router, script.as_bytes(), &mut output).unwrap();
    String::from_utf8(output).unwrap()
}

/// Both sessions against one process that never dies — the reference every
/// kill-and-resume variant must reproduce byte for byte.
fn uninterrupted_reference() -> String {
    let router = Router::new(1, 1);
    let mut full = transcript(&router, &session_a());
    full.push_str(&transcript(&router, &session_b()));
    full
}

/// The scripts and the uninterrupted transcript are pinned as golden files —
/// the same bytes the CI crash-recovery job pipes through the real binary.
#[test]
fn restart_scripts_and_transcript_are_pinned() {
    let golden = |file: &str| format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let pins = [
        (golden("restart_session_a.in"), session_a()),
        (golden("restart_session_b.in"), session_b()),
        (golden("restart_session.out"), uninterrupted_reference()),
    ];
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        for (path, actual) in &pins {
            std::fs::write(path, actual).expect("write golden file");
        }
        return;
    }
    for (path, actual) in &pins {
        let expected = std::fs::read_to_string(path).expect("golden file exists");
        assert_eq!(
            actual, &expected,
            "{path} drifted; re-run with UPDATE_GOLDEN=1 if the change is intentional"
        );
    }
}

/// The tentpole pin: kill a durable server after session A (drop without
/// shutdown), reopen the data directory, run session B — the concatenated
/// transcript equals the uninterrupted run, at any worker count.
#[test]
fn kill_and_resume_matches_the_uninterrupted_run() {
    let reference = uninterrupted_reference();
    for workers in [1usize, 2] {
        let dir = TempDir::new(&format!("router{workers}"));
        let mut full = {
            let router = Router::with_data_dir(workers, 1, dir.path()).unwrap();
            transcript(&router, &session_a())
        }; // dropped here: the "kill"
        let router = Router::with_data_dir(workers, 1, dir.path()).unwrap();
        full.push_str(&transcript(&router, &session_b()));
        assert_eq!(
            full, reference,
            "{workers}-worker durable router restart changed the bytes"
        );
    }
}

/// One shared journal serves any worker count: a session served by one
/// worker count can be resumed by another (each shard replays only the
/// names that hash to it), in both directions.
#[test]
fn restarts_recover_across_worker_counts() {
    let reference = uninterrupted_reference();
    for (before, after) in [(1usize, 2usize), (2, 1)] {
        let dir = TempDir::new(&format!("cross{before}to{after}"));
        let mut full = {
            let router = Router::with_data_dir(before, 1, dir.path()).unwrap();
            transcript(&router, &session_a())
        };
        let router = Router::with_data_dir(after, 1, dir.path()).unwrap();
        full.push_str(&transcript(&router, &session_b()));
        assert_eq!(
            full, reference,
            "{before}-to-{after}-worker restart changed the bytes"
        );
    }
}

/// The restart-generation bugfix, observed at the store: generations issued
/// after a replay are strictly above every generation ever issued before it,
/// so a `(generation, fingerprint)` cache key can never alias across the
/// restart.
#[test]
fn restart_resumes_generations_strictly_above_the_journal_mark() {
    let dir = TempDir::new("generations");
    {
        let router = Router::with_data_dir(1, 1, dir.path()).unwrap();
        let engine = &router.engines()[0];
        let mut session = router.begin_session();
        for (name, text) in [("alpha", alpha_text()), ("beta", beta_text())] {
            let response = router.dispatch(
                &mut session,
                Request::Load {
                    name: name.into(),
                    payload: text_payload(&text),
                },
            );
            assert!(matches!(response, Response::Loaded { .. }), "{response:?}");
        }
        // beta took generation 1; unloading it must not surrender the mark.
        let response = router.dispatch(
            &mut session,
            Request::Unload {
                name: "beta".into(),
            },
        );
        assert!(
            matches!(response, Response::Unloaded { .. }),
            "{response:?}"
        );
        assert_eq!(engine.store().get("alpha").unwrap().generation, 0);
    }
    let router = Router::with_data_dir(1, 1, dir.path()).unwrap();
    let engine = &router.engines()[0];
    let mut session = router.begin_session();
    assert_eq!(
        engine.store().get("alpha").unwrap().generation,
        0,
        "replay must pin the journaled generation"
    );
    let response = router.dispatch(
        &mut session,
        Request::Load {
            name: "gamma".into(),
            payload: text_payload(&beta_text()),
        },
    );
    assert!(matches!(response, Response::Loaded { .. }), "{response:?}");
    assert_eq!(
        engine.store().get("gamma").unwrap().generation,
        2,
        "the first post-restart generation must be strictly above beta's 1"
    );
}

/// The high-severity restart-aliasing regression: shard engines issue
/// generations from independent counters, so a shared journal written at
/// `--workers 2` pins both shards' first loads at generation 0. Restarting
/// at `--workers 1` replays both into ONE shard, in front of ONE evaluate
/// cache — and evaluating both with the same mapping bytes (same
/// fingerprint) must answer each instance's own period, which only holds
/// because the cache key carries the instance name.
#[test]
fn same_generation_instances_replayed_into_one_engine_do_not_alias_the_cache() {
    // Two instances of identical shape (one shared mapping text is valid
    // for both) whose processing times differ (so their periods differ).
    let shaped_instance = |fast: u64, slow: u64| {
        format!(
            "tasks 2\nmachines 2\ntypes 1\ntask 0 0\ntask 1 0\n\
             time 0 0 {fast}\ntime 0 1 {slow}\n\
             failure 0 0 0.0\nfailure 0 1 0.0\nfailure 1 0 0.0\nfailure 1 1 0.0\n"
        )
    };
    let text_a = shaped_instance(10, 20);
    let text_b = shaped_instance(30, 40);
    let mapping = {
        let instance = textio::instance_from_text(&text_a).unwrap();
        textio::mapping_to_text(&H4wFastestMachine.map(&instance).unwrap())
    };
    // Two names that land on different shards of a 2-worker router.
    let probe = Router::new(2, 1);
    let candidates: Vec<String> = (0..64).map(|k| format!("inst{k}")).collect();
    let name_a = candidates
        .iter()
        .find(|name| probe.shard_of(name) == 0)
        .expect("64 names must touch shard 0")
        .clone();
    let name_b = candidates
        .iter()
        .find(|name| probe.shard_of(name) == 1)
        .expect("64 names must touch shard 1")
        .clone();

    let dir = TempDir::new("alias");
    {
        let router = Router::with_data_dir(2, 1, dir.path()).unwrap();
        let mut session = router.begin_session();
        for (name, text) in [(&name_a, &text_a), (&name_b, &text_b)] {
            let response = router.dispatch(
                &mut session,
                Request::Load {
                    name: name.to_string(),
                    payload: text_payload(text),
                },
            );
            assert!(matches!(response, Response::Loaded { .. }), "{response:?}");
        }
        // The collision ingredient: both shards issued generation 0.
        let generation_of = |name: &str| {
            let shard = router.shard_of(name);
            router.engines()[shard]
                .store()
                .get(name)
                .unwrap()
                .generation
        };
        assert_eq!(generation_of(&name_a), 0);
        assert_eq!(generation_of(&name_b), 0);
    }

    // Restart with a single worker: both live in one store at generation 0.
    let router = Router::with_data_dir(1, 1, dir.path()).unwrap();
    let mut session = router.begin_session();
    let mut evaluate = |name: &str| match router.dispatch(
        &mut session,
        Request::Evaluate {
            name: name.to_string(),
            payload: text_payload(&mapping),
        },
    ) {
        Response::Evaluated { period, .. } => period,
        other => panic!("evaluate {name} failed: {other:?}"),
    };
    let expected = |text: &str| {
        let instance = textio::instance_from_text(text).unwrap();
        let mapping = textio::mapping_from_text(&mapping).unwrap();
        instance.period(&mapping).unwrap().value()
    };
    // Warm the cache with `name_a`'s entry, then `name_b` must miss it.
    let got_a = evaluate(&name_a);
    let got_b = evaluate(&name_b);
    assert_eq!(got_a.to_bits(), expected(&text_a).to_bits());
    assert_eq!(
        got_b.to_bits(),
        expected(&text_b).to_bits(),
        "`evaluate {name_b}` must not be served from `{name_a}`'s cache entry"
    );
    assert_ne!(got_a.to_bits(), got_b.to_bits());
}

/// The recovery counter block: after session A the journal holds the boot
/// mark plus two loads; a reopening router reports exactly that replay in
/// `status_report`, at any worker count — and in-memory routers keep an
/// empty block (their JSON is unchanged).
#[test]
fn recovery_counters_surface_the_replay_in_the_status_report() {
    let dir = TempDir::new("counters");
    {
        let router = Router::with_data_dir(1, 1, dir.path()).unwrap();
        assert!(
            router
                .status_report()
                .recovery
                .iter()
                .any(|(key, value)| key == "journal-entries-replayed" && *value == 0),
            "a fresh journal replays nothing"
        );
        transcript(&router, &session_a());
    }
    let router = Router::with_data_dir(1, 1, dir.path()).unwrap();
    let report = router.status_report();
    let get = |key: &str| {
        report
            .recovery
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no recovery counter `{key}`"))
            .1
    };
    assert_eq!(get("journal-entries-replayed"), 3, "boot mark + two loads");
    assert!(get("journal-bytes-replayed") > 0);
    assert_eq!(get("journal-compactions"), 1, "the boot snapshot");
    assert_eq!(get("journal-live-instances"), 2);
    assert_eq!(get("journal-generation-mark"), 2);
    let json = report.to_json();
    assert!(json.contains("\"journal-entries-replayed\": 3"), "{json}");
    // A 2-worker router over the same directory reports the same block.
    drop(router);
    let router = Router::with_data_dir(2, 1, dir.path()).unwrap();
    assert_eq!(router.status_report().recovery, report.recovery);
    // In-memory servers never grow the block.
    assert!(Router::new(1, 1).status_report().recovery.is_empty());
    assert!(!Router::new(1, 1)
        .status_report()
        .to_json()
        .contains("recovery"));
}
