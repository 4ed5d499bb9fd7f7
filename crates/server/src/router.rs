//! The serving tier: a router in front of a pool of worker engines.
//!
//! A [`Router`] is the one thing that serves a session, at any worker count
//! (`--workers 1` is a router over one shard). It hashes every instance
//! name onto one of `N` [`Engine`]s, which each count their own work and
//! time their own commands. The state every shard needs is built once per
//! server and shared by all of them: one [`InstanceStore`], one keyed
//! evaluate cache, one journal with its mutation-order guard, and one
//! solver pool. Every cap — the store's bytes, the evaluate cache's
//! entries, each connection's snapshots — therefore holds per server,
//! whatever the worker count.
//!
//! The router answers `hello`, `list`, `stats`, `status-export`, `shutdown`
//! and the `batch` envelope itself; the five instance commands go to the
//! owning shard, which times each one as its own command. Each connection
//! runs on its own thread, and nothing in a shard queues work.
//!
//! A connection owns exactly one [`Session`]: its negotiated version and
//! its resident what-if snapshots. The router hands that same session to
//! whichever shard a command lands on, so the snapshot cap and the version
//! gates hold per connection, whatever the worker count.
//!
//! # Byte-identical across worker counts
//!
//! For the same session script, a router with **any** worker count
//! produces byte-identical responses —
//!
//! * every answer is a pure function of (instance, request, seed), and the
//!   store, the evaluate cache and their LRU schedules are the server's,
//!   not a shard's;
//! * `stats` reads the store and cache keys and the session-level counters
//!   (`sessions`, `requests`, `errors`) once, from the router, and sums
//!   every other key over the workers: each is a plain sum of work done,
//!   which does not depend on how names spread;
//! * a session's resident snapshots live in one recency-capped map, not
//!   one per shard, so `whatif` finds (or misses) the same snapshots;
//! * `batch` items run inline, in request order, each on its own shard.

use crate::engine::{gate, hello_response, Engine, Session, Shared};
use crate::errors::EngineError;
use crate::journal::{Journal, JournalError};
use crate::obs::ObsConfig;
use crate::proto::{InstanceInfo, ProtoVersion, Request, Response};
use crate::stats::{self, Counters, Stat, StatsReport};
use crate::store::InstanceStore;
use mf_exact::solve::runner::BatchRunner;
use mf_obs::HistogramSnapshot;
use std::path::Path;
use std::sync::Arc;

/// Most workers a router will spin up (matches the workspace-wide thread
/// cap). A worker owns only its counters and histograms; the store, the
/// evaluate cache and the solver pool are one per server.
pub const MAX_WORKERS: usize = 16;

/// A shard router over a pool of worker [`Engine`]s.
pub struct Router {
    /// The store, evaluate cache, journal and solver pool of the server.
    pub(crate) shared: Arc<Shared>,
    workers: Vec<Arc<Engine>>,
    /// The session-level counters: `sessions`, `requests` and `errors`.
    counters: Counters,
}

impl Router {
    /// A router over `workers` engines (clamped to `1..=` [`MAX_WORKERS`])
    /// sharing one `threads`-worker solver pool (`0` = one per CPU, capped
    /// at 16).
    pub fn new(workers: usize, threads: usize) -> Self {
        Router::with_observability(workers, threads, ObsConfig::default())
    }

    /// [`Router::new`] with explicit observability wiring. All workers
    /// share the config (one clock, one trace writer), so the tier's trace
    /// file interleaves every shard's spans on one timeline.
    pub fn with_observability(workers: usize, threads: usize, obs: ObsConfig) -> Self {
        Router::build(
            workers,
            Shared::new(InstanceStore::new(), threads, None),
            obs,
        )
    }

    /// A durable router: one `mf-journal v1` under `data_dir` serves the
    /// whole server. On boot every journaled instance is replayed into the
    /// store and the generation counter is fast-forwarded past the
    /// journal's high-water mark, so no load can reissue a pre-restart
    /// generation.
    pub fn with_data_dir(
        workers: usize,
        threads: usize,
        data_dir: impl AsRef<Path>,
    ) -> Result<Router, JournalError> {
        Router::with_data_dir_observability(workers, threads, data_dir, ObsConfig::default())
    }

    /// [`Router::with_data_dir`] with explicit observability wiring.
    pub fn with_data_dir_observability(
        workers: usize,
        threads: usize,
        data_dir: impl AsRef<Path>,
        obs: ObsConfig,
    ) -> Result<Router, JournalError> {
        let journal = Journal::open(data_dir)?;
        let shared = Shared::new(InstanceStore::new(), threads, Some(journal));
        shared.replay()?;
        Ok(Router::build(workers, shared, obs))
    }

    fn build(workers: usize, shared: Shared, obs: ObsConfig) -> Self {
        let shared = Arc::new(shared);
        Router {
            workers: (0..workers.clamp(1, MAX_WORKERS))
                .map(|_| Arc::new(Engine::new(Arc::clone(&shared), obs.clone())))
                .collect(),
            shared,
            counters: Counters::new(),
        }
    }

    /// The number of worker shards.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The worker engines, indexed by shard.
    pub fn engines(&self) -> &[Arc<Engine>] {
        &self.workers
    }

    /// The resident instance store every shard shares.
    pub fn store(&self) -> &InstanceStore {
        &self.shared.store
    }

    /// The solver pool every shard shares.
    pub fn runner(&self) -> &BatchRunner {
        &self.shared.runner
    }

    /// The shard a store name lives on: a splitmix64 chain over the name
    /// bytes, reduced modulo the worker count. Deterministic across
    /// processes and runs, so a name always finds its resident instance.
    pub fn shard_of(&self, name: &str) -> usize {
        let mut digest = mf_core::seed::splitmix64(0x6D66_5F72_6F75_7465);
        for &byte in name.as_bytes() {
            digest = mf_core::seed::splitmix64(digest ^ u64::from(byte));
        }
        (digest % self.workers.len() as u64) as usize
    }

    /// Starts a session (counted in `stats`).
    pub fn begin_session(&self) -> Session {
        self.counters.bump(Stat::Sessions);
        Session::default()
    }

    /// Dispatches one request: instance commands forward to the owning
    /// shard, aggregate commands (`list`, `stats`, `status-export`) merge
    /// over all workers, and `batch` forwards its items one by one.
    pub fn dispatch(&self, session: &mut Session, request: Request) -> Response {
        self.counters.bump(Stat::Requests);
        let response = self.route(session, request);
        if matches!(response, Response::Error { .. }) {
            self.counters.bump(Stat::Errors);
        }
        response
    }

    fn route(&self, session: &mut Session, request: Request) -> Response {
        match request {
            Request::Hello { requested } => hello_response(requested, &mut session.version),
            Request::Batch(items) => match gate(session.version, ProtoVersion::V2, "batch") {
                Ok(()) => self.batch(session, items),
                Err(response) => response,
            },
            Request::StatusExport => match gate(session.version, ProtoVersion::V2, "status-export")
            {
                Ok(()) => Response::StatusExport(self.status_report().json_lines()),
                Err(response) => response,
            },
            Request::List => self.list(),
            Request::Stats => Response::Stats(self.stats_for(session.version)),
            Request::Shutdown => Response::Shutdown,
            request => self.forward(session, request),
        }
    }

    /// Hands an instance command to the shard that owns its name. Anything
    /// else cannot ride a `batch` envelope and answers the stable
    /// not-batchable error.
    fn forward(&self, session: &mut Session, request: Request) -> Response {
        let Some(shard) = request.instance_name().map(|name| self.shard_of(name)) else {
            return EngineError::NotBatchable {
                command: request.keyword(),
            }
            .into_response();
        };
        self.workers[shard].dispatch(session, request)
    }

    /// Runs a batch envelope: each item is forwarded inline, in request
    /// order, on this session's thread.
    fn batch(&self, session: &mut Session, items: Vec<Request>) -> Response {
        let answers: Vec<Response> = items
            .into_iter()
            .map(|item| self.forward(session, item))
            .collect();
        // Counter parity with the same commands sent one per round trip:
        // every item is one request, every error answer one error (the
        // envelope itself was counted by `dispatch` and is never an error).
        self.counters.add(Stat::Requests, answers.len() as u64);
        let errors = answers
            .iter()
            .filter(|response| matches!(response, Response::Error { .. }))
            .count();
        self.counters.add(Stat::Errors, errors as u64);
        Response::Batch(answers)
    }

    fn list(&self) -> Response {
        let entries = self
            .shared
            .store
            .snapshot()
            .iter()
            .map(|stored| InstanceInfo {
                name: stored.name.clone(),
                tasks: stored.tasks(),
                machines: stored.machines(),
                types: stored.types(),
            })
            .collect();
        Response::List(entries)
    }

    /// The aggregated statistics: the session-level counters and the
    /// store and evaluate-cache keys are the server's own, read once; every
    /// other key is summed over the workers.
    pub fn stats_for(&self, version: ProtoVersion) -> Vec<(String, u64)> {
        let Shared { store, cache, .. } = &*self.shared;
        stats::answer(version, |stat| match stat {
            Stat::Sessions | Stat::Requests | Stat::Errors => self.counters.get(stat),
            Stat::Instances => store.len() as u64,
            Stat::InstanceBytes => store.stats().bytes,
            Stat::InstanceHits => store.stats().hits,
            Stat::InstanceEvictions => store.stats().evictions,
            Stat::EvaluateCacheHits => cache.hits(),
            Stat::EvaluateCacheMisses => cache.misses(),
            Stat::EvaluateCacheEvictions => cache.evictions(),
            stat => self.workers.iter().map(|worker| worker.stat(stat)).sum(),
        })
    }

    /// The full machine-readable report: aggregated counters plus the raw
    /// per-worker lists (the only place worker topology is visible — plain
    /// `stats` stays byte-identical across worker counts).
    pub fn status_report(&self) -> StatsReport {
        StatsReport {
            recovery: self
                .shared
                .journal()
                .map(|journal| journal.status_counters())
                .unwrap_or_default(),
            global: self.stats_for(ProtoVersion::V3),
            histograms: self.histograms(),
            workers: self
                .workers
                .iter()
                .map(|worker| worker.stats_for(ProtoVersion::V3))
                .collect(),
        }
    }

    /// The tier's per-command latency histograms: for each
    /// [`TRACKED_COMMANDS`](crate::obs::TRACKED_COMMANDS) entry, the
    /// bucket-wise sum of every worker's snapshot. The router forwards
    /// without timing of its own, so this sum is the tier's
    /// instance-command latency distribution; the commands the router
    /// answers itself record no sample.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut totals = self.workers[0].histograms();
        for worker in &self.workers[1..] {
            for (total, (_, snapshot)) in totals.iter_mut().zip(worker.histograms()) {
                total.1.merge(&snapshot);
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::text_payload;
    use crate::stats::STATS;
    use mf_core::textio;
    use mf_sim::{GeneratorConfig, InstanceGenerator};
    use std::collections::HashSet;

    fn instance_text(seed: u64) -> String {
        let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(6, 3, 2))
            .generate(seed)
            .unwrap();
        textio::instance_to_text(&instance)
    }

    /// The store footprint of one instance.
    fn store_bytes(text: &str) -> u64 {
        let instance = textio::instance_from_text(text).unwrap();
        InstanceStore::new()
            .insert("probe", instance)
            .approx_bytes()
    }

    /// A router whose store holds at most ~`max_bytes`, durable when a
    /// `data_dir` is given: the test-only way to cross the store's cap.
    fn capped_router(workers: usize, max_bytes: u64, data_dir: Option<&Path>) -> Router {
        let journal = data_dir.map(|dir| Journal::open(dir).expect("the journal opens"));
        let shared = Shared::new(InstanceStore::with_capacity(max_bytes), 1, journal);
        shared.replay().expect("the journal replays");
        Router::build(workers, shared, ObsConfig::default())
    }

    fn load(router: &Router, session: &mut Session, name: &str, text: &str) {
        let response = router.dispatch(
            session,
            Request::Load {
                name: name.into(),
                payload: text_payload(text),
            },
        );
        assert!(matches!(response, Response::Loaded { .. }), "{response:?}");
    }

    #[test]
    fn sharding_is_stable_and_spreads_names() {
        let router = Router::new(4, 1);
        let mut used = HashSet::new();
        for k in 0..64 {
            let name = format!("inst{k}");
            let shard = router.shard_of(&name);
            assert_eq!(shard, router.shard_of(&name), "sharding must be stable");
            assert!(shard < 4);
            used.insert(shard);
        }
        assert_eq!(used.len(), 4, "64 names must touch all 4 shards");
        // Worker counts are clamped, never zero.
        assert_eq!(Router::new(0, 1).workers(), 1);
        assert_eq!(Router::new(99, 1).workers(), MAX_WORKERS);
    }

    #[test]
    fn list_answers_the_shared_store_sorted_by_name() {
        let router = Router::new(3, 1);
        let mut session = router.begin_session();
        for name in ["zeta", "alpha", "mid"] {
            load(&router, &mut session, name, &instance_text(1));
        }
        let Response::List(entries) = router.dispatch(&mut session, Request::List) else {
            panic!("list failed");
        };
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    /// The store's byte cap bounds the server, not a shard: crossing it
    /// evicts the same names, counts the same evictions and answers the
    /// same `err` for an evicted name at every worker count.
    #[test]
    fn the_store_byte_cap_holds_per_server_at_any_worker_count() {
        let instance = instance_text(1);
        let unit = store_bytes(&instance);
        let lines = instance.lines().count();
        let names: Vec<String> = (0..6).map(|k| format!("inst{k}")).collect();
        let mut script = String::new();
        for name in &names[..3] {
            script += &format!("load {name} {lines}\n{instance}");
        }
        script += "solve inst0 heuristic H4w\n";
        for name in &names[3..] {
            script += &format!("load {name} {lines}\n{instance}");
        }
        script += "list\nsolve inst1 heuristic H4w\nstats\n";
        let transcript = |workers: usize| {
            let router = capped_router(workers, 3 * unit, None);
            let shards: HashSet<usize> = names.iter().map(|name| router.shard_of(name)).collect();
            assert!(shards.len() > 1 || workers == 1, "{workers} workers");
            let mut output = Vec::new();
            crate::server::serve_stdio(&router, script.as_bytes(), &mut output).unwrap();
            String::from_utf8(output).unwrap()
        };
        let one = transcript(1);
        for expected in [
            "ok list 3\ninstance inst3 6 3 2\ninstance inst4 6 3 2\ninstance inst5 6 3 2\nend\n",
            "err unknown-instance no instance named `inst1` is loaded\n",
            "stat instance-evictions 3\n",
        ] {
            assert!(one.contains(expected), "{expected}: {one}");
        }
        for workers in [2, 4] {
            assert_eq!(transcript(workers), one, "{workers} workers");
        }
    }

    /// A load that crosses the byte cap purges the cached evaluations of
    /// the names it evicted along with its own: six loads, each evaluated
    /// once, under a three-instance cap leave three instances and three
    /// cache entries (six before the evicted names were purged).
    #[test]
    fn byte_cap_evictions_purge_the_evicted_names_cached_evaluations() {
        use mf_heuristics::{H4wFastestMachine, Heuristic};
        let instance = instance_text(1);
        let unit = store_bytes(&instance);
        let parsed = textio::instance_from_text(&instance).unwrap();
        let mapping = textio::mapping_to_text(&H4wFastestMachine.map(&parsed).unwrap());
        for workers in [1, 2] {
            let router = capped_router(workers, 3 * unit, None);
            let mut session = router.begin_session();
            for k in 0..6 {
                let name = format!("inst{k}");
                load(&router, &mut session, &name, &instance);
                let response = router.dispatch(
                    &mut session,
                    Request::Evaluate {
                        name,
                        payload: text_payload(&mapping),
                    },
                );
                assert!(
                    matches!(response, Response::Evaluated { .. }),
                    "{response:?}"
                );
            }
            assert_eq!(router.store().len(), 3, "{workers} workers");
            assert_eq!(router.shared.cache.len(), 3, "{workers} workers");
        }
    }

    /// Loads on different shards evict each other's names from the one
    /// store, and the journal records every mutation in the store's order:
    /// after each round of concurrent loads the journal's live names are
    /// the store's, and a router reopened from the journal lists exactly
    /// what the live one held.
    #[test]
    fn cross_shard_evictions_replay_to_the_same_list() {
        let dir = std::env::temp_dir().join(format!("mf-router-evictions-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let instance = instance_text(1);
        let unit = store_bytes(&instance);
        let router = capped_router(2, 3 * unit, Some(&dir));
        // Two names per shard: each round, each thread reloads the name the
        // other thread's load most likely just evicted.
        let pools: Vec<Vec<String>> = (0..2)
            .map(|shard| {
                (0..)
                    .map(|k| format!("inst{k}"))
                    .filter(|name| router.shard_of(name) == shard)
                    .take(2)
                    .collect()
            })
            .collect();
        let journal_names_vs_store = |router: &Router| {
            let journal = router.shared.journal().expect("durable");
            let mut journaled: Vec<String> = journal
                .live_instances()
                .unwrap()
                .into_iter()
                .map(|recovered| recovered.name)
                .collect();
            journaled.sort();
            let stored: Vec<String> = router
                .store()
                .snapshot()
                .iter()
                .map(|stored| stored.name.clone())
                .collect();
            (journaled, stored)
        };
        // The first round whose journal disagreed with the store. Recorded,
        // not asserted, so that no thread is left waiting at the barrier.
        let mismatch = std::sync::Mutex::new(None);
        let barrier = std::sync::Barrier::new(pools.len());
        std::thread::scope(|scope| {
            for (t, pool) in pools.iter().enumerate() {
                let (router, instance, barrier) = (&router, &instance, &barrier);
                let mismatch = &mismatch;
                scope.spawn(move || {
                    let mut session = router.begin_session();
                    for round in 0..400 {
                        load(router, &mut session, &pool[round % 2], instance);
                        barrier.wait();
                        if t == 0 {
                            let (journaled, stored) = journal_names_vs_store(router);
                            if journaled != stored {
                                let mut first = mismatch.lock().unwrap();
                                first.get_or_insert((round, journaled, stored));
                            }
                        }
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(mismatch.into_inner().unwrap(), None);
        assert!(
            router.store().stats().evictions > 0,
            "the cap must be crossed"
        );
        let list = |router: &Router| router.dispatch(&mut router.begin_session(), Request::List);
        let live = list(&router);
        drop(router);
        let reopened = Router::with_data_dir(2, 1, &dir).unwrap();
        assert_eq!(list(&reopened), live);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_aggregate_over_workers_with_router_session_counters() {
        let router = Router::new(4, 1);
        let mut session = router.begin_session();
        for k in 0..8 {
            load(
                &router,
                &mut session,
                &format!("inst{k}"),
                &instance_text(1),
            );
        }
        let unknown = router.dispatch(
            &mut session,
            Request::Unload {
                name: "missing".into(),
            },
        );
        assert!(matches!(unknown, Response::Error { .. }));
        let Response::Stats(stats) = router.dispatch(&mut session, Request::Stats) else {
            panic!("stats failed");
        };
        let get = |key: &str| stats.iter().find(|(k, _)| k == key).unwrap().1;
        assert_eq!(get("instances"), 8, "summed over shards");
        assert_eq!(get("loads"), 8);
        assert_eq!(get("sessions"), 1, "router-level, not per touched worker");
        assert_eq!(get("requests"), 10);
        assert_eq!(get("errors"), 1);
        // v1 sessions see exactly the 16 v1 keys.
        assert_eq!(stats.len(), 16);
    }

    /// Pins the aggregation rule of every key on a three-worker tier
    /// whose traffic moves every live counter: `global` is the per-worker
    /// sum, except the session-level keys and the store and evaluate-cache
    /// keys, which are the router's own and read 0 in every worker row.
    #[test]
    fn status_report_lists_every_worker() {
        let router = Router::new(3, 1);
        let instance = instance_text(1);
        let lines = instance.lines().count();
        let mapping = "machines 3\nassign 0 0\nassign 1 1\nassign 2 2\n\
                       assign 3 0\nassign 4 1\nassign 5 2\n";
        // Thirty evaluated names overflow the session's snapshot cap.
        let mut script = String::from("hello mf-proto v3\n");
        for k in 0..30 {
            script += &format!("load inst{k} {lines}\n{instance}evaluate inst{k} 7\n{mapping}");
        }
        script += &format!(
            "evaluate inst0 7\n{mapping}whatif inst0 move 0 1\nsolve inst1 heuristic SD\n\
             solve inst2 portfolio\nsolve inst3 anytime\nunload missing\nunload inst4\n"
        );
        let mut output = Vec::new();
        crate::server::serve_stdio(&router, script.as_bytes(), &mut output).unwrap();
        let output = String::from_utf8(output).unwrap();
        assert_eq!(output.matches("\nerr ").count(), 1, "{output}");

        let report = router.status_report();
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.global.len(), STATS.len());
        for (index, row) in STATS.iter().enumerate() {
            let (key, global) = &report.global[index];
            assert_eq!(key, row.key);
            let summed: u64 = report.workers.iter().map(|worker| worker[index].1).sum();
            let expected = match row.stat {
                Stat::Sessions => {
                    assert_eq!(summed, 0, "sessions are the router's, not a shard's");
                    1
                }
                Stat::Requests => 1 + 2 * 30 + 7,
                Stat::Errors => 1,
                Stat::Instances
                | Stat::InstanceBytes
                | Stat::InstanceHits
                | Stat::InstanceEvictions
                | Stat::EvaluateCacheHits
                | Stat::EvaluateCacheMisses
                | Stat::EvaluateCacheEvictions => {
                    assert_eq!(summed, 0, "{key} is the server's, not a shard's");
                    *global
                }
                _ => summed,
            };
            assert_eq!(*global, expected, "{key}");
            // Only the byte-cap and cache-cap evictions and the exact
            // what-if fallback are out of this traffic's reach.
            let untouched = row.key.starts_with("sweep-")
                || matches!(
                    row.stat,
                    Stat::InstanceEvictions | Stat::EvaluateCacheEvictions | Stat::WhatifExact
                );
            assert_eq!(*global == 0, untouched, "{key} = {global}");
        }
    }
}
