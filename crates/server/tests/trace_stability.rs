//! Golden-transcript stability under tracing: replaying every committed
//! golden session with a live `mf-trace v1` writer (and a tight
//! slow-request threshold) must produce **byte-identical** protocol output
//! to the committed transcript — observability is read-only on the wire —
//! at every worker count. The trace files themselves must round-trip through
//! the parser, with one span per instance command of the script (the
//! commands the router answers itself record none).

use mf_obs::{events_from_text, events_to_text, SharedTraceWriter, TraceEvent};
use mf_server::{serve_stdio, ObsConfig, ProtoReader, Request, Router};
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("mf-trace-stability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
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

/// Every golden session script, paired with its committed transcript. The
/// restart pair replays against one router that never dies — the same
/// uninterrupted reference `restart_session.out` pins.
fn golden_sessions() -> Vec<(&'static str, Vec<&'static str>, &'static str)> {
    vec![
        (
            "smoke_session",
            vec![include_str!("golden/smoke_session.in")],
            include_str!("golden/smoke_session.out"),
        ),
        (
            "batched_session",
            vec![include_str!("golden/batched_session.in")],
            include_str!("golden/batched_session.out"),
        ),
        (
            "restart_session",
            vec![
                include_str!("golden/restart_session_a.in"),
                include_str!("golden/restart_session_b.in"),
            ],
            include_str!("golden/restart_session.out"),
        ),
    ]
}

fn replay(router: &Router, scripts: &[&str]) -> String {
    let mut full = String::new();
    for script in scripts {
        let mut output = Vec::new();
        serve_stdio(router, script.as_bytes(), &mut output).unwrap();
        full.push_str(&String::from_utf8(output).unwrap());
    }
    full
}

/// The instance commands a script sends — single requests and `batch`
/// items alike — i.e. the spans a traced replay must close.
fn instance_commands(scripts: &[&str]) -> usize {
    let mut count = 0;
    for script in scripts {
        let mut reader = ProtoReader::new(script.as_bytes());
        while let Some(request) = reader.read_request().expect("golden scripts parse") {
            count += match request {
                Request::Batch(items) => items
                    .iter()
                    .filter(|item| item.instance_name().is_some())
                    .count(),
                request => usize::from(request.instance_name().is_some()),
            };
        }
    }
    count
}

#[test]
fn golden_transcripts_are_byte_identical_with_tracing_on() {
    for (name, scripts, expected) in golden_sessions() {
        for workers in [1usize, 2, 4] {
            // Tracing off: the committed transcript (guards against
            // environment skew before blaming tracing).
            let untraced = replay(&Router::new(workers, 1), &scripts);
            assert_eq!(
                untraced, expected,
                "{name}: untraced {workers}-worker replay drifted"
            );

            // Tracing on, with a paranoid 0 ns slow threshold so every
            // instance command also exercises the slow-request path.
            let dir = TempDir::new(&format!("{name}-{workers}"));
            let trace_path = dir.path().join("server.mf-trace");
            let trace = Arc::new(SharedTraceWriter::create(&trace_path).unwrap());
            let obs = ObsConfig::new()
                .with_trace(Arc::clone(&trace))
                .with_slow_threshold_ns(0);
            let traced = replay(&Router::with_observability(workers, 1, obs), &scripts);
            assert_eq!(
                traced, expected,
                "{name}: tracing changed the {workers}-worker protocol bytes"
            );
            trace.finish().unwrap();

            // The trace round-trips and covers the whole script: every
            // instance command closed exactly one span, and threshold 0
            // pairs each span with a slow record.
            let text = std::fs::read_to_string(&trace_path).unwrap();
            let events = events_from_text(&text).unwrap();
            assert_eq!(
                events_to_text(&events).unwrap(),
                text,
                "{name}: {workers}-worker trace file is not canonical"
            );
            let spans = events
                .iter()
                .filter(|event| matches!(event, TraceEvent::Span { .. }))
                .count();
            let slow = events
                .iter()
                .filter(|event| matches!(event, TraceEvent::Slow { .. }))
                .count();
            assert!(spans > 0, "{name}: traced replay closed no spans");
            assert_eq!(
                spans,
                instance_commands(&scripts),
                "{name}: one span per instance command at {workers} workers"
            );
            assert_eq!(spans, slow, "{name}: threshold 0 makes every span slow");
        }
    }
}
