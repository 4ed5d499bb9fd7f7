//! Acceptance for the sharded serving tier: a router over any worker count
//! answers **byte-identically** to a one-worker router — for scripted stdio
//! sessions, for batch envelopes, and for the aggregated stats block — and
//! repeated evaluates are served from the keyed cache at any worker count.

use mf_core::textio;
use mf_server::{request_to_text, serve_stdio, Client, Request, Router, Server, SolveMethod};
use mf_sim::{GeneratorConfig, InstanceGenerator};

fn instance_text(seed: u64) -> String {
    let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(8, 4, 2))
        .generate(seed)
        .unwrap();
    textio::instance_to_text(&instance)
}

/// A session script exercising every shardable command over enough distinct
/// names that a multi-worker router actually spreads them: loads, solves,
/// evaluates (twice, so the keyed cache fires), whatifs, a mixed batch, an
/// error, unloads, and the closing stats block.
fn script() -> String {
    let names = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
    let mut requests = vec![Request::Hello { requested: 3 }];
    for (index, name) in names.iter().enumerate() {
        requests.push(Request::Load {
            name: name.to_string(),
            payload: mf_server::text_payload(&instance_text(index as u64 + 1)),
        });
    }
    requests.push(Request::List);
    for name in &names {
        requests.push(Request::Solve {
            name: name.to_string(),
            method: SolveMethod::Heuristic("h4w".into()),
            seed: None,
        });
    }
    // One batch touching every instance, with a non-batchable item in the
    // middle that must answer an error in place.
    let mut items: Vec<Request> = names
        .iter()
        .map(|name| Request::Solve {
            name: name.to_string(),
            method: SolveMethod::Heuristic("SD-H2".into()),
            seed: Some(7),
        })
        .collect();
    items.insert(3, Request::Stats);
    items.push(Request::Unload {
        name: "missing".into(),
    });
    requests.push(Request::Batch(items));
    for name in &names {
        requests.push(Request::WhatIf {
            name: name.to_string(),
            probe: mf_server::Probe::Swap { a: 0, b: 1 },
        });
    }
    // Anytime solves are v3-gated: the router must hand its negotiated
    // version down to the worker engines, or these would answer `err`.
    for name in &names[..2] {
        requests.push(Request::Solve {
            name: name.to_string(),
            method: SolveMethod::Anytime {
                budget: Some(20_000),
            },
            seed: None,
        });
    }
    requests.push(Request::Unload {
        name: "alpha".into(),
    });
    requests.push(Request::List);
    requests.push(Request::Stats);
    requests.push(Request::Shutdown);
    requests
        .iter()
        .map(|request| request_to_text(request).unwrap())
        .collect()
}

#[test]
fn routed_sessions_are_byte_identical_to_a_single_worker() {
    let input = script();
    let mut reference = Vec::new();
    serve_stdio(&Router::new(1, 1), input.as_bytes(), &mut reference).unwrap();
    let reference = String::from_utf8(reference).unwrap();
    // The script is a real workout, not a trivially-empty transcript.
    assert!(reference.contains("ok batch 8"), "{reference}");
    assert!(
        reference.contains("cannot ride a batch envelope"),
        "{reference}"
    );
    assert!(reference.contains("stat evaluate-cache-"), "{reference}");
    assert!(reference.contains("ok solve-anytime"), "{reference}");
    assert!(reference.contains("gap seed 0 "), "{reference}");
    assert!(reference.contains("stat solves-anytime 2"), "{reference}");
    for (workers, threads) in [(1usize, 2usize), (2, 2), (4, 1), (16, 1)] {
        let router = Router::new(workers, threads);
        let mut output = Vec::new();
        serve_stdio(&router, input.as_bytes(), &mut output).unwrap();
        assert_eq!(
            String::from_utf8(output).unwrap(),
            reference,
            "router({workers} workers, {threads} threads) diverged from one worker"
        );
    }
}

#[test]
fn routed_tcp_sessions_serve_repeated_evaluates_from_the_keyed_cache() {
    let server = Server::bind_router("127.0.0.1:0", 3, 1).unwrap();
    let addr = server.local_addr().unwrap();
    let router = std::sync::Arc::clone(server.router());
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.hello(2).unwrap();
    client.load("hot", &instance_text(42)).unwrap();
    let solution = client
        .solve("hot", SolveMethod::Heuristic("h4w".into()), None)
        .unwrap();
    let stat = |client: &mut Client, key: &str| {
        client
            .stats()
            .unwrap()
            .into_iter()
            .find(|(k, _)| k == key)
            .unwrap()
            .1
    };
    let builds_after_solve = stat(&mut client, "evaluator-builds");

    // Ten evaluates of the same mapping: every one bit-identical, none of
    // them builds an evaluator — all served from the keyed cache.
    for _ in 0..10 {
        let evaluation = client.evaluate("hot", &solution.mapping).unwrap();
        assert_eq!(evaluation.period.to_bits(), solution.period.to_bits());
    }
    assert_eq!(
        stat(&mut client, "evaluator-builds"),
        builds_after_solve,
        "cache hits must not rebuild evaluators"
    );
    assert_eq!(stat(&mut client, "evaluate-cache-hits"), 10);

    // Reloading the instance invalidates the cached entry.
    client.load("hot", &instance_text(42)).unwrap();
    client.evaluate("hot", &solution.mapping).unwrap();
    assert_eq!(
        stat(&mut client, "evaluator-builds"),
        builds_after_solve + 1
    );

    // The machine-readable report sees all three worker shards.
    let json = client.status_export().unwrap();
    assert!(json.contains("\"workers\": 3"), "{json}");
    assert_eq!(router.workers(), 3);

    client.shutdown().unwrap();
    drop(client);
    handle.join().unwrap();
}
