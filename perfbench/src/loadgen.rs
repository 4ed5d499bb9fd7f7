//! The closed-loop load generator: one in-process [`Router`] behind
//! [`Server`] on loopback TCP, driven by [`CLIENTS`] typed [`Client`]s that
//! each send their next request only after the previous answer arrived.
//! A third, monitor session loads the fixtures and reads the server's
//! counters around each phase.

use crate::check::Answer;
use crate::harvest::{Counters, Delta};
use crate::workload::{Plan, Step, CLIENTS};
use mf_server::proto::Response;
use mf_server::{Client, Router, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker shards of the router (`serve --workers 2`).
pub const WORKERS: usize = 2;

/// Solver threads per worker.
pub const SOLVER_THREADS: usize = 1;

/// Protocol version every session negotiates.
pub const PROTO_VERSION: u32 = 3;

/// A running server: `Router::with_data_dir(2 workers, 1 solver thread)`
/// on an ephemeral loopback port, with its journal in a fresh directory.
pub struct Tier {
    addr: SocketAddr,
    serve: Option<JoinHandle<std::io::Result<()>>>,
    data_dir: PathBuf,
}

impl Tier {
    /// Opens the journal under `data_dir` (wiped first), binds, and starts
    /// the accept loop on its own thread.
    pub fn start(data_dir: PathBuf) -> Result<Tier, String> {
        let _ = std::fs::remove_dir_all(&data_dir);
        let router = Router::with_data_dir(WORKERS, SOLVER_THREADS, &data_dir)
            .map_err(|e| format!("opening the journal: {e}"))?;
        let server = Server::with_handler("127.0.0.1:0", Arc::new(router))
            .map_err(|e| format!("binding: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let serve = std::thread::spawn(move || server.run());
        Ok(Tier {
            addr,
            serve: Some(serve),
            data_dir,
        })
    }

    /// A new session, upgraded to [`PROTO_VERSION`].
    pub fn connect(&self) -> Result<Client, String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        client.hello(PROTO_VERSION).map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// Sends `shutdown`, joins the server (every other session must be
    /// closed by now) and removes the data directory.
    fn stop(&mut self) -> Result<(), String> {
        let Some(serve) = self.serve.take() else {
            return Ok(());
        };
        let asked = Client::connect(self.addr)
            .and_then(|mut client| client.shutdown())
            .map_err(|e| format!("shutdown: {e}"));
        let joined = match serve.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("the server thread panicked".to_string()),
        };
        let _ = std::fs::remove_dir_all(&self.data_dir);
        asked.and(joined)
    }
}

impl Drop for Tier {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A set-up server: fixtures loaded, clients connected and warmed up.
pub struct Setup {
    /// The workload's input.
    pub plan: Plan,
    /// Per client: the warm-up answers, in request order.
    pub warm_answers: Vec<Vec<Answer>>,
    clients: Vec<Client>,
    monitor: Client,
    tier: Tier,
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this long (the untraced, timed run).
    Elapsed(Duration),
    /// After this many requests per client (fixed work: every count the
    /// server keeps is then a function of the seed alone).
    Requests(usize),
}

/// One client's side of a phase.
///
/// A client's answers repeat with its stream: every answer a session model
/// predicts depends only on the position in the stream once the stream has
/// cycled once (the resident mappings a `whatif` probes are then those the
/// previous cycle left). So only the first two cycles are recorded for the
/// checker; each later answer must equal the one a cycle earlier, compared
/// as it arrives. The log, and with it the process's peak memory, then does
/// not grow with the server's throughput.
pub struct ClientRun {
    /// Answers of the first two cycles of the stream, in send order; a
    /// transport failure ends the client.
    pub answers: Vec<Answer>,
    /// Client-observed round trip of every request, ns (saturating).
    pub nanos: Vec<u32>,
    /// Later answers that differed from the answer a cycle earlier.
    pub differed: u64,
    /// The first of them.
    pub first_difference: Option<String>,
}

/// A driven phase.
pub struct PhaseRun {
    /// Per client.
    pub clients: Vec<ClientRun>,
    /// From the common start to the last client's last answer.
    pub elapsed: Duration,
    /// What the server's counters did meanwhile.
    pub delta: Delta,
}

impl Setup {
    /// Starts the tier, loads the plan's fixtures over the monitor session,
    /// connects the clients and sends their warm-up requests.
    pub fn new(plan: Plan, data_dir: PathBuf) -> Result<Setup, String> {
        let tier = Tier::start(data_dir)?;
        let mut monitor = tier.connect()?;
        for load in plan.fixture_loads() {
            match monitor.request(&load) {
                Ok(Response::Loaded { .. }) => {}
                other => return Err(format!("loading a fixture: {other:?}")),
            }
        }
        let mut clients = Vec::new();
        let mut warm_answers = Vec::new();
        for warmup in &plan.warmup {
            let mut client = tier.connect()?;
            warm_answers.push(
                warmup
                    .iter()
                    .map(|step| Answer::record(client.request(&step.request)))
                    .collect(),
            );
            clients.push(client);
        }
        Ok(Setup {
            plan,
            warm_answers,
            clients,
            monitor,
            tier,
        })
    }

    /// Runs one closed-loop phase, reading the counters before and after.
    pub fn drive(&mut self, until: Until) -> Result<PhaseRun, String> {
        let before = Counters::read(&mut self.monitor).map_err(|e| e.to_string())?;
        let barrier = Barrier::new(CLIENTS + 1);
        let (start, runs) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.plan.streams)
                .map(|(client, stream)| {
                    let barrier = &barrier;
                    scope.spawn(move || run_client(client, stream, until, barrier))
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let runs: Vec<(ClientRun, Instant)> = handles
                .into_iter()
                .map(|handle| handle.join().expect("client threads do not panic"))
                .collect();
            (start, runs)
        });
        let end = runs.iter().map(|(_, end)| *end).max().unwrap_or(start);
        let after = Counters::read(&mut self.monitor).map_err(|e| e.to_string())?;
        Ok(PhaseRun {
            clients: runs.into_iter().map(|(run, _)| run).collect(),
            elapsed: end.saturating_duration_since(start),
            delta: after.since(&before),
        })
    }

    /// Closes every session, then stops the server; hands back the plan.
    pub fn tear_down(self) -> Result<Plan, String> {
        let Setup {
            plan,
            clients,
            monitor,
            mut tier,
            ..
        } = self;
        drop(clients);
        drop(monitor);
        tier.stop().map(|()| plan)
    }
}

fn run_client(
    client: &mut Client,
    stream: &[Step],
    until: Until,
    barrier: &Barrier,
) -> (ClientRun, Instant) {
    let mut run = ClientRun {
        answers: Vec::new(),
        nanos: Vec::new(),
        differed: 0,
        first_difference: None,
    };
    let cycle = stream.len();
    barrier.wait();
    let start = Instant::now();
    for (i, step) in stream.iter().cycle().enumerate() {
        let done = match until {
            Until::Elapsed(limit) => start.elapsed() >= limit,
            Until::Requests(count) => i >= count,
        };
        if done {
            break;
        }
        let sent = Instant::now();
        let answer = client.request(&step.request);
        let nanos = sent.elapsed().as_nanos();
        run.nanos.push(u32::try_from(nanos).unwrap_or(u32::MAX));
        let broken = answer.is_err();
        let answer = Answer::record(answer);
        if i < 2 * cycle {
            run.answers.push(answer);
        } else {
            let earlier = &run.answers[cycle + i % cycle];
            if answer != *earlier {
                run.differed += 1;
                run.first_difference.get_or_insert_with(|| {
                    format!("request {i}: answered {answer:?}, a cycle earlier {earlier:?}")
                });
            }
        }
        if broken {
            break;
        }
    }
    (run, Instant::now())
}
