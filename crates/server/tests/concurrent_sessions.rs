//! Concurrency acceptance: the server answers ≥ 2 simultaneous sessions over
//! the shared solver pool, and concurrency never changes the numbers —
//! every concurrent answer is bit-identical to the same query asked alone.
//!
//! Written against the typed [`Client`] API: each call builds the request,
//! ships it, and destructures the matching answer, so the assertions compare
//! structured values instead of wire text.

use mf_core::textio;
use mf_server::client::Solution;
use mf_server::{Client, ClientError, ErrorCode, Probe, ProtoVersion, Router, Server, SolveMethod};
use mf_sim::{GeneratorConfig, InstanceGenerator};
use std::sync::Arc;

fn instance_text(seed: u64) -> String {
    let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(10, 4, 2))
        .generate(seed)
        .unwrap();
    textio::instance_to_text(&instance)
}

/// One session's workload: load a private instance, solve it with a
/// heuristic and with the portfolio, and return both solutions.
fn session_workload(addr: std::net::SocketAddr, name: &str, seed: u64) -> (Solution, Solution) {
    let mut client = Client::connect(addr).unwrap();
    let shape = client.load(name, &instance_text(seed)).unwrap();
    assert_eq!(shape, (10, 4, 2));
    let heuristic = client
        .solve(name, SolveMethod::Heuristic("TS-H2".into()), None)
        .unwrap();
    let portfolio = client.solve(name, SolveMethod::Portfolio, None).unwrap();
    (heuristic, portfolio)
}

fn assert_bit_identical(left: &Solution, right: &Solution) {
    assert_eq!(left.label, right.label);
    assert_eq!(left.period.to_bits(), right.period.to_bits());
    assert_eq!(left.mapping, right.mapping);
}

#[test]
fn two_concurrent_sessions_share_the_pool_and_stay_bit_identical() {
    let server = Server::with_handler("127.0.0.1:0", Arc::new(Router::new(1, 0))).unwrap();
    let addr = server.local_addr().unwrap();
    let router = Arc::clone(server.router());
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // Serial reference answers, asked before any concurrency.
    let reference_a = session_workload(addr, "ref-a", 11);
    let reference_b = session_workload(addr, "ref-b", 22);

    // The same two workloads, raced on two live sessions at once (distinct
    // store names so the sessions interleave on the shared store and pool
    // without replacing each other's instances).
    let worker_a = std::thread::spawn(move || session_workload(addr, "conc-a", 11));
    let worker_b = std::thread::spawn(move || session_workload(addr, "conc-b", 22));
    let concurrent_a = worker_a.join().unwrap();
    let concurrent_b = worker_b.join().unwrap();
    assert_bit_identical(&concurrent_a.0, &reference_a.0);
    assert_bit_identical(&concurrent_a.1, &reference_a.1);
    assert_bit_identical(&concurrent_b.0, &reference_b.0);
    assert_bit_identical(&concurrent_b.1, &reference_b.1);

    // Both sessions' instances are resident in the one shared store.
    let mut client = Client::connect(addr).unwrap();
    let names: Vec<String> = client
        .list()
        .unwrap()
        .into_iter()
        .map(|info| info.name)
        .collect();
    assert_eq!(names, vec!["conc-a", "conc-b", "ref-a", "ref-b"]);

    // The router counted all five sessions (4 workloads + this one).
    let stats = router.stats_for(ProtoVersion::V1);
    let sessions = stats.iter().find(|(k, _)| k == "sessions").unwrap().1;
    assert_eq!(sessions, 5);

    client.shutdown().unwrap();
    drop(client);
    server_thread.join().unwrap();
}

/// Sessions are isolated where they must be: resident whatif state is
/// per-session, while the store is shared.
#[test]
fn whatif_state_is_session_scoped() {
    let server = Server::with_handler("127.0.0.1:0", Arc::new(Router::new(1, 1))).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut first = Client::connect(addr).unwrap();
    let mut second = Client::connect(addr).unwrap();
    first.load("shared", &instance_text(5)).unwrap();
    // First session solves — it gains resident whatif state.
    first
        .solve("shared", SolveMethod::Heuristic("H4w".into()), None)
        .unwrap();
    let probe = Probe::Move {
        task: 0,
        machine: 1,
    };
    let (period, _) = first.what_if("shared", probe).unwrap();
    assert!(period.is_finite());
    // Second session sees the shared instance but has no resident state.
    let denied = second.what_if("shared", probe).unwrap_err();
    assert!(
        matches!(
            denied,
            ClientError::Server {
                code: ErrorCode::NoResidentState,
                ..
            }
        ),
        "{denied}"
    );
    second.shutdown().unwrap();
    drop(first);
    drop(second);
    server_thread.join().unwrap();
}
