//! Deterministic request-latency observability: with an injected
//! [`ManualClock`] every measured duration — and therefore every histogram
//! bucket, quantile, trace span and slow-request record — is an exact,
//! pinnable value. Every instance command — sent alone or riding a `batch`
//! envelope — is timed by its shard as its own command; the commands the
//! router answers itself record nothing. The router's exposed histograms
//! are the **bucket-wise sum** of its workers' histograms, for any worker
//! count.

use mf_obs::{events_from_text, Histogram, ManualClock, SharedTraceWriter, TraceEvent};
use mf_server::proto::{text_payload, Request, Response};
use mf_server::{ObsConfig, Router, TRACKED_COMMANDS};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("mf-obs-latency-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn instance_text(seed: u64) -> String {
    let instance = mf_sim::InstanceGenerator::new(mf_sim::GeneratorConfig::paper_standard(6, 3, 2))
        .generate(seed)
        .unwrap();
    mf_core::textio::instance_to_text(&instance)
}

fn load(name: &str, seed: u64) -> Request {
    Request::Load {
        name: name.into(),
        payload: text_payload(&instance_text(seed)),
    }
}

fn get<'h>(
    histograms: &'h [(String, mf_obs::HistogramSnapshot)],
    command: &str,
) -> &'h mf_obs::HistogramSnapshot {
    &histograms
        .iter()
        .find(|(name, _)| name == command)
        .unwrap_or_else(|| panic!("no {command} histogram"))
        .1
}

fn expected(samples_ns: &[u64]) -> mf_obs::HistogramSnapshot {
    let histogram = Histogram::new();
    for &sample in samples_ns {
        histogram.record(sample);
    }
    histogram.snapshot()
}

fn clocked_router(workers: usize) -> Router {
    let clock = Arc::new(ManualClock::ticking(1000));
    Router::with_observability(workers, 1, ObsConfig::new().with_clock(clock))
}

/// A ticking manual clock advances by its step on **every** reading, and a
/// shard reads it exactly twice (start, end) per instance command — so
/// every instance command measures exactly one step, pinning the whole
/// histogram. `hello`, `list` and `stats` are answered by the router and
/// record no sample.
#[test]
fn manual_clock_pins_every_latency_bucket() {
    for workers in [1usize, 3] {
        let router = clocked_router(workers);
        let mut session = router.begin_session();
        router.dispatch(&mut session, Request::Hello { requested: 2 });
        router.dispatch(&mut session, load("alpha", 1));
        router.dispatch(&mut session, load("bravo", 2));
        router.dispatch(&mut session, Request::List);
        router.dispatch(&mut session, Request::List);
        router.dispatch(&mut session, Request::Stats);
        router.dispatch(
            &mut session,
            Request::Unload {
                name: "alpha".into(),
            },
        );

        let histograms = router.histograms();
        let order: Vec<&str> = histograms.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(order, TRACKED_COMMANDS, "fixed exposition order");
        assert_eq!(get(&histograms, "load"), &expected(&[1000, 1000]));
        assert_eq!(get(&histograms, "unload"), &expected(&[1000]));
        for untouched in [
            "hello",
            "batch",
            "status-export",
            "list",
            "evaluate",
            "whatif",
            "solve",
            "stats",
            "shutdown",
        ] {
            assert_eq!(
                get(&histograms, untouched).count(),
                0,
                "{untouched} at {workers} workers"
            );
        }
        let loads = get(&histograms, "load");
        assert_eq!(loads.sum_ns(), 2000);
        assert_eq!(loads.max_ns(), 1000);
        assert_eq!(loads.p50_ns(), 1000);
        assert_eq!(loads.p99_ns(), 1000);
    }
}

/// A `batch` envelope is answered by the router and records no sample of
/// its own; each instance item is timed by its shard as its own command
/// (one step), and a non-batchable item is refused in place, untimed.
#[test]
fn batch_items_are_timed_as_their_own_commands() {
    for workers in [1usize, 3] {
        let router = clocked_router(workers);
        let mut session = router.begin_session();
        router.dispatch(&mut session, Request::Hello { requested: 2 });
        router.dispatch(&mut session, load("alpha", 1));
        let items = vec![
            Request::Unload {
                name: "alpha".into(),
            },
            Request::List, // not batchable: answers an error in place
            load("bravo", 2),
        ];
        let Response::Batch(answers) = router.dispatch(&mut session, Request::Batch(items)) else {
            panic!("batch failed");
        };
        assert!(matches!(answers[1], Response::Error { .. }), "{answers:?}");

        let histograms = router.histograms();
        assert_eq!(get(&histograms, "batch").count(), 0, "{workers} workers");
        assert_eq!(get(&histograms, "list").count(), 0, "{workers} workers");
        assert_eq!(get(&histograms, "unload"), &expected(&[1000]));
        assert_eq!(get(&histograms, "load"), &expected(&[1000, 1000]));
    }
}

/// The acceptance invariant of the sharded tier, pinned: the histograms a
/// router exposes (and publishes through `status-export`) are exactly the
/// bucket-wise sum of its workers' histograms.
#[test]
fn router_histograms_are_the_bucketwise_sum_of_workers() {
    let router = clocked_router(3);
    let mut session = router.begin_session();
    for k in 0..8 {
        let response = router.dispatch(&mut session, load(&format!("inst{k}"), k));
        assert!(matches!(response, Response::Loaded { .. }));
    }
    let response = router.dispatch(
        &mut session,
        Request::Unload {
            name: "inst3".into(),
        },
    );
    assert!(matches!(response, Response::Unloaded { .. }));

    // Hand-merge the worker snapshots bucket-wise...
    let mut summed = router.engines()[0].histograms();
    for worker in &router.engines()[1..] {
        for (total, (key, snapshot)) in summed.iter_mut().zip(worker.histograms()) {
            assert_eq!(total.0, key);
            total.1.merge(&snapshot);
        }
    }
    // ...and the router must expose exactly that sum, everywhere it
    // publishes histograms.
    assert_eq!(router.histograms(), summed);
    assert_eq!(router.status_report().histograms, summed);
    assert_eq!(get(&summed, "load"), &expected(&[1000; 8]));
    assert_eq!(get(&summed, "unload"), &expected(&[1000]));
    // The workers genuinely share the work: no single worker saw all loads.
    assert!(router
        .engines()
        .iter()
        .all(|worker| get(&worker.histograms(), "load").count() < 8));
}

/// With a trace writer attached every instance command appends a span,
/// and commands past the slow threshold also append a slow record and hit
/// the stderr log; router-answered commands (`hello`, `list`) trace
/// nothing. The trace file round-trips through the `mf-trace v1` parser,
/// and the responses are byte-identical to an untraced router's.
#[test]
fn traced_requests_append_spans_and_slow_records() {
    let dir = TempDir::new("spans");
    let trace_path = dir.0.join("server.mf-trace");
    let trace = Arc::new(SharedTraceWriter::create(&trace_path).unwrap());
    let clock = Arc::new(ManualClock::ticking(1000));
    let obs = ObsConfig::new()
        .with_clock(clock)
        .with_trace(Arc::clone(&trace))
        .with_slow_threshold_ns(1000); // every 1000 ns request is "slow"
    let router = Router::with_observability(1, 1, obs);
    let plain = Router::new(1, 1);

    let mut session = router.begin_session();
    let mut plain_session = plain.begin_session();
    for request in [
        Request::Hello { requested: 2 },
        load("alpha", 1),
        Request::List,
        Request::Unload {
            name: "alpha".into(),
        },
    ] {
        let traced = router.dispatch(&mut session, request.clone());
        let untraced = plain.dispatch(&mut plain_session, request);
        assert_eq!(traced, untraced, "tracing never changes a response");
    }
    trace.finish().unwrap();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let events = events_from_text(&text).unwrap();
    let spans: Vec<(&str, u64, u64)> = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Span {
                name,
                start_ns,
                duration_ns,
            } => Some((name.as_str(), *start_ns, *duration_ns)),
            _ => None,
        })
        .collect();
    // Start marks advance by 1000 per reading plus the slow-check
    // readings' drift — the durations are what's pinned.
    let names: Vec<&str> = spans.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(names, ["load", "unload"]);
    assert!(spans.iter().all(|&(_, _, duration)| duration == 1000));
    let slow: Vec<&str> = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Slow { command, .. } => Some(command.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(slow, ["load", "unload"], "all at the threshold");
}
