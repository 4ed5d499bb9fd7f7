//! The serving tier: a router in front of a pool of worker engines.
//!
//! A [`Router`] is the one thing that serves a session, at any worker count
//! (`--workers 1` is a router over one shard). It owns `N` independent
//! [`Engine`]s — each with its **own**
//! [`InstanceStore`](crate::store::InstanceStore), its own solver pool and
//! its own keyed evaluate cache — and hashes every instance name onto one of
//! them. Heavy `solve … portfolio` traffic on one shard therefore cannot
//! stall cheap `evaluate` traffic on another, and each shard's caches stay
//! private to the names it owns.
//!
//! The router answers `hello`, `list`, `stats`, `status-export`, `shutdown`
//! and the `batch` envelope itself; the five instance commands go to the
//! owning shard, which times each one as its own command.
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
//! * every answer is a pure function of (instance, request, seed), and a
//!   name's requests always land on the same worker in order;
//! * `list` is the name-sorted merge of the worker stores (one store's
//!   `BTreeMap` order is the same sort);
//! * `stats` keys are all plain sums of work done, so each key's sum over
//!   the workers does not depend on how names spread — with the
//!   session-level counters (`sessions`, `requests`, `errors`) kept by the
//!   router itself, since workers only see forwarded traffic;
//! * a session's resident snapshots live in one recency-capped map, not
//!   one per shard, so `whatif` finds (or misses) the same snapshots;
//! * `batch` items run inline, in request order, each on its own shard.
//!
//! The one caveat: each worker bounds its store bytes independently, so
//! under byte-cap pressure the *eviction* schedule (not any answer to a
//! resident name) can differ between worker counts.

use crate::engine::{gate, hello_response, Engine, Session};
use crate::errors::EngineError;
use crate::journal::{Journal, JournalError};
use crate::obs::ObsConfig;
use crate::proto::{InstanceInfo, ProtoVersion, Request, Response};
use crate::stats::{self, Counters, Stat, StatsReport};
use mf_obs::HistogramSnapshot;
use std::path::Path;
use std::sync::Arc;

/// Most workers a router will spin up (matches the workspace-wide thread
/// cap; each worker owns a full store byte budget and a batch runner).
pub const MAX_WORKERS: usize = 16;

/// A shard router over a pool of worker [`Engine`]s.
pub struct Router {
    workers: Vec<Arc<Engine>>,
    /// The shared durable journal, when the tier runs with a data directory
    /// (one journal for the whole tier — worker shards append through it and
    /// the router surfaces its recovery counters).
    journal: Option<Arc<Journal>>,
    /// The session-level counters: `sessions`, `requests` and `errors`.
    counters: Counters,
}

impl Router {
    /// A router over `workers` fresh engines (clamped to `1..=`
    /// [`MAX_WORKERS`]), each with a `threads`-worker solver pool (`0` = one
    /// per CPU, capped at 16).
    pub fn new(workers: usize, threads: usize) -> Self {
        Router::build(workers, threads, None, ObsConfig::default())
    }

    /// [`Router::new`] with explicit observability wiring. All workers
    /// share the config (one clock, one trace writer), so the tier's trace
    /// file interleaves every shard's spans on one timeline.
    pub fn with_observability(workers: usize, threads: usize, obs: ObsConfig) -> Self {
        Router::build(workers, threads, None, obs)
    }

    /// A durable router: one shared `mf-journal v1` under `data_dir`
    /// serves the whole tier. On boot every journaled instance is replayed
    /// into the worker shard its **name hashes to** — the same shard that
    /// will serve its requests — and every worker's generation counter is
    /// fast-forwarded past the journal's high-water mark, so no shard can
    /// reissue a pre-restart generation.
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
        let journal = Arc::new(Journal::open(data_dir)?);
        let router = Router::build(workers, threads, Some(Arc::clone(&journal)), obs);
        for recovered in journal.live_instances()? {
            let shard = router.shard_of(&recovered.name);
            router.workers[shard].adopt(recovered)?;
        }
        for worker in &router.workers {
            worker.finish_replay();
        }
        Ok(router)
    }

    fn build(
        workers: usize,
        threads: usize,
        journal: Option<Arc<Journal>>,
        obs: ObsConfig,
    ) -> Self {
        let workers = workers.clamp(1, MAX_WORKERS);
        Router {
            workers: (0..workers)
                .map(|_| Arc::new(Engine::with_journal(threads, journal.clone(), obs.clone())))
                .collect(),
            journal,
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
        let mut entries: Vec<InstanceInfo> = self
            .workers
            .iter()
            .flat_map(|worker| {
                worker
                    .store()
                    .snapshot()
                    .iter()
                    .map(|stored| InstanceInfo {
                        name: stored.name.clone(),
                        tasks: stored.tasks(),
                        machines: stored.machines(),
                        types: stored.types(),
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Response::List(entries)
    }

    /// The aggregated statistics: each key summed over the workers, except
    /// the session-level counters, which are the router's own (workers
    /// only ever see forwarded traffic, the router sees the session).
    pub fn stats_for(&self, version: ProtoVersion) -> Vec<(String, u64)> {
        stats::answer(version, |stat| match stat {
            Stat::Sessions | Stat::Requests | Stat::Errors => self.counters.get(stat),
            stat => self.workers.iter().map(|worker| worker.stat(stat)).sum(),
        })
    }

    /// The full machine-readable report: aggregated counters plus the raw
    /// per-worker lists (the only place worker topology is visible — plain
    /// `stats` stays byte-identical across worker counts).
    pub fn status_report(&self) -> StatsReport {
        StatsReport {
            recovery: self
                .journal
                .as_ref()
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

    fn instance_text(seed: u64) -> String {
        let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(6, 3, 2))
            .generate(seed)
            .unwrap();
        textio::instance_to_text(&instance)
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
        let mut used = std::collections::HashSet::new();
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
    fn list_merges_worker_stores_sorted_by_name() {
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
    /// sum, except the session-level keys, which are the router's own.
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
