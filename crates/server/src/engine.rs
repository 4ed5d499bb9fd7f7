//! Instance-command dispatch: the bridge between `mf-proto` and the solver
//! stack, one shard at a time.
//!
//! An [`Engine`] is one shard worker of a [`Router`](crate::router::Router),
//! shared by every session the router forwards to it. It owns the shard's
//! resident [`InstanceStore`], the [`BatchRunner`] the portfolio races on,
//! and the shard's statistics counters. It answers `hello` and the five
//! instance commands (`load`, `unload`, `evaluate`, `whatif`, `solve`);
//! the router answers everything else. Each connection gets one [`Session`]
//! per touched shard, which carries the **resident evaluator state**: after an
//! `evaluate` or `solve` on an instance, the session keeps the committed
//! [`EvaluatorSnapshot`] of that mapping, and later `whatif` probes resume it
//! in `O(1)` — no demand walk, no load rebuild — answering move/swap
//! questions in `O(affected tasks + log m)`.
//!
//! # Equivalence with the one-shot CLI
//!
//! Every answer is a pure function of (instance, request, seed) and uses the
//! same defaults as the `microfactory` CLI — `solve … heuristic` seeds its
//! heuristic with `1`, `solve … portfolio` runs `PortfolioConfig::default()`
//! (whose outcome is bit-identical for every thread count) — so server
//! responses are **bit-identical** to the equivalent one-shot run. The
//! `serve_equivalence` integration test pins this against the real CLI
//! binary.

use crate::cache::{CachedEvaluation, EvaluateCache};
use crate::errors::EngineError;
use crate::journal::{Journal, JournalResult, RecoveredInstance};
use crate::obs::{ObsConfig, ObsState};
use crate::proto::{
    recycle_payload, GapReport, Probe, ProtoVersion, Request, Response, SolveMethod,
};
use crate::store::{InstanceStore, StoredInstance};
use mf_core::prelude::*;
use mf_core::textio;
use mf_experiments::anytime::{solve_anytime_observed, AnytimeConfig};
use mf_experiments::portfolio::{run_portfolio, PortfolioConfig};
use mf_experiments::runner::BatchRunner;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default seed of `solve … heuristic` requests — the seed the CLI's
/// `--heuristic` path hard-codes, so un-seeded requests match it exactly.
pub const DEFAULT_HEURISTIC_SEED: u64 = 1;

/// Most resident evaluator snapshots one session keeps; the
/// least-recently-used snapshot is dropped past this (a snapshot is ~the
/// instance's per-task vectors plus the mass-row cache, so an unbounded map
/// would grow with every instance a long-lived dashboard session touches).
pub const SESSION_SNAPSHOT_CAP: usize = 8;

/// The `stats` v2 keys of the deleted sweep cache, in presentation order.
/// They always answer 0; retiring them needs a stats version bump.
const RETIRED_SWEEP_KEYS: [&str; 5] = [
    "sweep-probes",
    "sweep-evaluations",
    "sweep-skips",
    "sweep-reuses",
    "sweep-rescales",
];

#[derive(Debug, Default)]
struct Counters {
    loads: AtomicU64,
    unloads: AtomicU64,
    evaluations: AtomicU64,
    whatifs: AtomicU64,
    resumes: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_evictions: AtomicU64,
    solves_heuristic: AtomicU64,
    solves_portfolio: AtomicU64,
    solves_anytime: AtomicU64,
    /// `gap` lines streamed by anytime solves (incumbent/bound reports).
    anytime_reports: AtomicU64,
    /// Anytime solves that closed the gap (proven optimal within budget).
    anytime_proven: AtomicU64,
    /// Branch-and-bound nodes explored by anytime solves.
    bnb_nodes: AtomicU64,
    /// LP relaxations solved from scratch / warm-reused by anytime solves.
    lp_solves: AtomicU64,
    lp_reuses: AtomicU64,
    sessions: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    /// `IncrementalEvaluator::new` calls — what the keyed evaluate cache
    /// saves; a cache hit serves an `evaluate` without bumping this.
    builds: AtomicU64,
    /// What-ifs answered by the evaluator's dense prefix-mass fast path —
    /// summed over resident `whatif` probes and search-driven solves.
    whatif_dense: AtomicU64,
    /// What-ifs answered by the exact ancestor walk (degenerate shapes).
    whatif_exact: AtomicU64,
    /// Mass rows (re)built by the dense path — what the per-tour-range
    /// invalidation and warm resident snapshots save.
    mass_row_builds: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) -> u64 {
        counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Folds the evaluator-counter *delta* of one operation in.
    fn add_eval_delta(&self, after: EvalCounters, before: EvalCounters) {
        Counters::add(
            &self.whatif_dense,
            after.dense_what_ifs - before.dense_what_ifs,
        );
        Counters::add(
            &self.whatif_exact,
            after.exact_what_ifs - before.exact_what_ifs,
        );
        Counters::add(
            &self.mass_row_builds,
            after.mass_row_builds - before.mass_row_builds,
        );
    }
}

/// Session-scoped resident evaluator state for one instance.
struct ResidentState {
    /// The store generation the snapshot was built against; a reload (or
    /// unload + load) of the name invalidates the snapshot.
    generation: u64,
    snapshot: EvaluatorSnapshot,
    /// Session-local recency stamp (for the [`SESSION_SNAPSHOT_CAP`] LRU).
    last_used: u64,
}

/// Per-connection state: the negotiated protocol version plus the resident
/// evaluator snapshots of this session, capped at [`SESSION_SNAPSHOT_CAP`]
/// by recency.
#[derive(Default)]
pub struct Session {
    resident: HashMap<String, ResidentState>,
    clock: u64,
    version: ProtoVersion,
}

impl Session {
    /// The protocol version this session speaks (v1 until a `hello`
    /// upgrades it).
    pub fn version(&self) -> ProtoVersion {
        self.version
    }

    /// Overwrites the version slot. The router negotiates `hello` itself
    /// and copies the result onto its worker sessions, so engine-level
    /// version gates see what the client negotiated.
    pub(crate) fn sync_version(&mut self, version: ProtoVersion) {
        self.version = version;
    }
}

/// Negotiates a `hello` against a session's version slot — the one
/// handshake implementation the engine and the router share, so their
/// responses are byte-identical.
pub(crate) fn hello_response(requested: u32, slot: &mut ProtoVersion) -> Response {
    match ProtoVersion::negotiate(requested) {
        Some(version) => {
            *slot = version;
            Response::Hello { version }
        }
        None => EngineError::UnsupportedVersion { requested }.into_response(),
    }
}

/// Rejects a v2-only command on a v1 session with the stable
/// version-required error (the router's gate for `batch` and
/// `status-export`).
pub(crate) fn gate_v2(
    version: ProtoVersion,
    command: &'static str,
) -> std::result::Result<(), Response> {
    if version >= ProtoVersion::V2 {
        Ok(())
    } else {
        Err(EngineError::VersionRequired {
            command,
            needs: ProtoVersion::V2,
        }
        .into_response())
    }
}

/// Rejects a v3-only command on an older session with the stable
/// version-required error.
pub(crate) fn gate_v3(
    version: ProtoVersion,
    command: &'static str,
) -> std::result::Result<(), Response> {
    if version >= ProtoVersion::V3 {
        Ok(())
    } else {
        Err(EngineError::VersionRequired {
            command,
            needs: ProtoVersion::V3,
        }
        .into_response())
    }
}

/// One shard worker of the serving tier.
pub struct Engine {
    store: InstanceStore,
    runner: BatchRunner,
    counters: Counters,
    cache: EvaluateCache,
    /// The durable log of store mutations, when the server runs with a
    /// data directory. `None` keeps the engine fully in-memory with zero
    /// overhead on the load path.
    journal: Option<Arc<Journal>>,
    /// Serializes (apply in memory, append to journal) pairs so the journal
    /// replays to exactly the store's mutation order. Only taken when a
    /// journal is attached.
    durable: Mutex<()>,
    /// Request-latency histograms, span tracing, and the slow-request log.
    obs: ObsState,
}

impl Engine {
    /// A shard engine wired to the tier's journal (when the tier is
    /// durable) and observability config. The router is the only caller:
    /// it builds one engine per shard and, on a durable tier, replays
    /// [`Journal::live_instances`] via [`Engine::adopt`] and then calls
    /// [`Engine::finish_replay`].
    pub(crate) fn with_journal(
        threads: usize,
        journal: Option<Arc<Journal>>,
        obs: ObsConfig,
    ) -> Self {
        Engine {
            store: InstanceStore::new(),
            runner: BatchRunner::new(threads),
            counters: Counters::default(),
            cache: EvaluateCache::new(),
            journal,
            durable: Mutex::new(()),
            obs: ObsState::new(obs),
        }
    }

    /// Replays one journaled instance into the store, pinned at its
    /// journaled generation. Payloads that no longer parse (a foreign edit
    /// of the journal file) are dropped from the journal rather than
    /// resurrected; replay evictions (recovered set larger than the byte
    /// cap) are journaled like live evictions so the log stays exact.
    pub(crate) fn adopt(&self, recovered: RecoveredInstance) -> JournalResult<()> {
        let RecoveredInstance {
            name,
            generation,
            payload,
        } = recovered;
        match textio::instance_from_lines(payload.iter().map(String::as_str)) {
            Ok(instance) => {
                let (_, evicted) = self.store.insert_pinned(&name, instance, generation);
                if let Some(journal) = &self.journal {
                    for gone in &evicted {
                        journal.record_unload(gone)?;
                    }
                }
            }
            Err(_) => {
                if let Some(journal) = &self.journal {
                    journal.record_unload(&name)?;
                }
            }
        }
        Ok(())
    }

    /// Completes a replay: fast-forwards the store's generation counter to
    /// the journal's high-water mark, so every generation issued after the
    /// restart is strictly above every generation issued before it.
    pub(crate) fn finish_replay(&self) {
        if let Some(journal) = &self.journal {
            self.store.reserve_generations(journal.mark());
        }
    }

    /// The attached journal, when this engine is durable.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The mutation-order lock of a durable engine (`None` when there is no
    /// journal: in-memory loads stay lock-free).
    fn durable_guard(&self) -> Option<MutexGuard<'_, ()>> {
        self.journal
            .as_ref()
            .map(|_| self.durable.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The resident instance store.
    pub fn store(&self) -> &InstanceStore {
        &self.store
    }

    /// The shared solver pool.
    pub fn runner(&self) -> &BatchRunner {
        &self.runner
    }

    /// The keyed evaluate cache.
    pub fn cache(&self) -> &EvaluateCache {
        &self.cache
    }

    /// Starts a session (counted in `stats`).
    pub fn begin_session(&self) -> Session {
        Counters::bump(&self.counters.sessions);
        Session::default()
    }

    /// Dispatches one request against the shared store and the session's
    /// resident state. A shard serves the five instance commands — exactly
    /// what can ride a `batch` envelope — plus `hello`; anything else
    /// answers the stable not-batchable error. Every call counts as one
    /// request (one error when it answers an error) and is timed as its own
    /// command.
    pub fn dispatch(&self, session: &mut Session, request: Request) -> Response {
        Counters::bump(&self.counters.requests);
        let keyword = request.keyword();
        let start_ns = self.obs.now_ns();
        let response = match request {
            Request::Hello { requested } => hello_response(requested, &mut session.version),
            Request::Load { name, payload } => {
                let response = self.load(session, &name, &payload);
                recycle_payload(payload);
                response
            }
            Request::Unload { name } => self.unload(session, &name),
            Request::Evaluate { name, payload } => {
                let response = self.evaluate(session, &name, &payload);
                recycle_payload(payload);
                response
            }
            Request::WhatIf { name, probe } => self.what_if(session, &name, probe),
            Request::Solve { name, method, seed } => self.solve(session, &name, &method, seed),
            _ => EngineError::NotBatchable { command: keyword }.into_response(),
        };
        self.obs.observe_request(keyword, start_ns);
        if matches!(response, Response::Error { .. }) {
            Counters::bump(&self.counters.errors);
        }
        response
    }

    fn load(&self, session: &mut Session, name: &str, payload: &[String]) -> Response {
        let instance = match textio::instance_from_lines(payload.iter().map(String::as_str)) {
            Ok(instance) => instance,
            Err(e) => {
                return EngineError::InvalidPayload {
                    detail: one_line(e),
                }
                .into_response()
            }
        };
        let (stored, journaled) = {
            let _guard = self.durable_guard();
            let (stored, evicted) = self.store.insert_tracked(name, instance);
            let journaled = match &self.journal {
                Some(journal) => journal
                    .record_load(name, stored.generation, payload)
                    .and_then(|()| {
                        evicted
                            .iter()
                            .try_for_each(|gone| journal.record_unload(gone))
                    }),
                None => Ok(()),
            };
            (stored, journaled)
        };
        // A replacement invalidates this session's snapshot immediately;
        // other sessions' snapshots die lazily via the generation check, and
        // cached evaluations of older generations can never hit again —
        // purging just frees them eagerly.
        session.resident.remove(name);
        self.cache.purge(name);
        // The load counter tracks applied store mutations, so it moves even
        // when journaling the mutation fails (the load is live in memory —
        // only its durability is gone).
        Counters::bump(&self.counters.loads);
        if let Err(error) = journaled {
            return EngineError::JournalFailed {
                detail: one_line(error),
            }
            .into_response();
        }
        Response::Loaded {
            name: name.to_string(),
            tasks: stored.tasks(),
            machines: stored.machines(),
            types: stored.types(),
        }
    }

    fn unload(&self, session: &mut Session, name: &str) -> Response {
        let (removed, journaled) = {
            let _guard = self.durable_guard();
            let removed = self.store.remove(name);
            let journaled = match &self.journal {
                Some(journal) if removed => journal.record_unload(name),
                _ => Ok(()),
            };
            (removed, journaled)
        };
        if removed {
            session.resident.remove(name);
            self.cache.purge(name);
            // Counted on apply, not on durability — see `load`.
            Counters::bump(&self.counters.unloads);
            if let Err(error) = journaled {
                return EngineError::JournalFailed {
                    detail: one_line(error),
                }
                .into_response();
            }
            Response::Unloaded {
                name: name.to_string(),
            }
        } else {
            EngineError::UnknownInstance {
                name: name.to_string(),
            }
            .into_response()
        }
    }

    /// Parks a snapshot as the session's resident state for `name`,
    /// evicting the session's least-recently-used snapshot past
    /// [`SESSION_SNAPSHOT_CAP`].
    fn remember(
        &self,
        session: &mut Session,
        name: &str,
        generation: u64,
        snapshot: EvaluatorSnapshot,
    ) {
        session.clock += 1;
        if !session.resident.contains_key(name) && session.resident.len() >= SESSION_SNAPSHOT_CAP {
            if let Some(coldest) = session
                .resident
                .iter()
                .min_by_key(|(_, state)| state.last_used)
                .map(|(key, _)| key.clone())
            {
                session.resident.remove(&coldest);
                Counters::bump(&self.counters.snapshot_evictions);
            }
        }
        session.resident.insert(
            name.to_string(),
            ResidentState {
                generation,
                snapshot,
                last_used: session.clock,
            },
        );
    }

    fn fetch(&self, name: &str) -> std::result::Result<std::sync::Arc<StoredInstance>, Response> {
        self.store.get(name).ok_or_else(|| {
            EngineError::UnknownInstance {
                name: name.to_string(),
            }
            .into_response()
        })
    }

    /// Builds the evaluator for `(instance, mapping)` — the committed state
    /// `evaluate` answers from — and parks the full answer in the keyed
    /// cache under `(generation, fingerprint)`.
    fn build_evaluation(
        &self,
        name: &str,
        stored: &StoredInstance,
        mapping: &Mapping,
        fingerprint: u64,
    ) -> std::result::Result<CachedEvaluation, String> {
        let evaluator = IncrementalEvaluator::new(&stored.instance, mapping).map_err(one_line)?;
        Counters::bump(&self.counters.builds);
        let cached = CachedEvaluation {
            period: evaluator.period().value(),
            critical: evaluator.critical_machine().index(),
            loads: evaluator.loads().to_vec(),
            snapshot: evaluator.into_snapshot(),
        };
        self.cache
            .insert(name, stored.generation, fingerprint, cached.clone());
        Ok(cached)
    }

    fn evaluate(&self, session: &mut Session, name: &str, payload: &[String]) -> Response {
        let stored = match self.fetch(name) {
            Ok(stored) => stored,
            Err(response) => return response,
        };
        let mapping = match textio::mapping_from_lines(payload.iter().map(String::as_str)) {
            Ok(mapping) => mapping,
            Err(e) => {
                return EngineError::InvalidPayload {
                    detail: one_line(e),
                }
                .into_response()
            }
        };
        if let Err(e) = stored
            .instance
            .validate_mapping(&mapping, MappingKind::General)
        {
            return EngineError::MappingMismatch {
                detail: one_line(e),
            }
            .into_response();
        }
        // The evaluator's initial state is computed with the exact operations
        // of a full `machine_periods` evaluation, so the response is
        // bit-identical to the one-shot CLI path — and the committed state
        // doubles as this session's resident snapshot for `whatif` probes.
        // A keyed-cache hit serves the identical answer (and the identical
        // pristine snapshot) without building the evaluator at all.
        let fingerprint = mapping.fingerprint();
        let evaluation = match self.cache.lookup(name, stored.generation, fingerprint) {
            Some(hit) => hit,
            None => match self.build_evaluation(name, &stored, &mapping, fingerprint) {
                Ok(built) => built,
                Err(detail) => return EngineError::InvalidPayload { detail }.into_response(),
            },
        };
        Counters::bump(&self.counters.evaluations);
        let response = Response::Evaluated {
            period: evaluation.period,
            critical: evaluation.critical,
            loads: evaluation.loads,
        };
        self.remember(session, name, stored.generation, evaluation.snapshot);
        response
    }

    fn what_if(&self, session: &mut Session, name: &str, probe: Probe) -> Response {
        let stored = match self.fetch(name) {
            Ok(stored) => stored,
            Err(response) => return response,
        };
        let stale = EngineError::NoResidentState {
            name: name.to_string(),
        }
        .into_response();
        let Some(state) = session.resident.remove(name) else {
            return stale;
        };
        if state.generation != stored.generation {
            // The instance was reloaded since the snapshot was taken.
            return stale;
        }
        Counters::bump(&self.counters.snapshot_hits);
        let mut evaluator = match IncrementalEvaluator::resume(&stored.instance, state.snapshot) {
            Ok(evaluator) => evaluator,
            Err(e) => {
                return EngineError::BadRequest {
                    detail: one_line(e),
                }
                .into_response()
            }
        };
        Counters::bump(&self.counters.resumes);
        // The evaluator's counters are cumulative and ride the snapshot, so
        // the probe's own cost is the delta across the call.
        let counters_before = evaluator.counters();
        let evaluation = match probe {
            Probe::Move { task, machine } => {
                evaluator.evaluate_move(TaskId(task), MachineId(machine))
            }
            Probe::Swap { a, b } => evaluator.evaluate_swap(TaskId(a), TaskId(b)),
        };
        self.counters
            .add_eval_delta(evaluator.counters(), counters_before);
        // What-ifs never mutate committed state, so the snapshot stays valid
        // either way — keep it resident even when the probe was out of range.
        let response = match evaluation {
            Ok(evaluation) => {
                Counters::bump(&self.counters.whatifs);
                Response::WhatIf {
                    period: evaluation.period.value(),
                    critical: evaluation.critical_machine.index(),
                }
            }
            Err(e) => EngineError::BadRequest {
                detail: one_line(e),
            }
            .into_response(),
        };
        self.remember(session, name, stored.generation, evaluator.into_snapshot());
        response
    }

    fn solve(
        &self,
        session: &mut Session,
        name: &str,
        method: &SolveMethod,
        seed: Option<u64>,
    ) -> Response {
        let stored = match self.fetch(name) {
            Ok(stored) => stored,
            Err(response) => return response,
        };
        if let SolveMethod::Anytime { budget } = method {
            return self.solve_anytime(session, name, &stored, *budget, seed);
        }
        let instance = &stored.instance;
        let (label, mapping) = match method {
            SolveMethod::Heuristic(requested) => {
                let Some(canonical) = mf_heuristics::canonical_registry_name(requested) else {
                    return EngineError::UnknownHeuristic {
                        requested: requested.clone(),
                    }
                    .into_response();
                };
                let heuristic = mf_heuristics::paper_heuristic(
                    &canonical,
                    seed.unwrap_or(DEFAULT_HEURISTIC_SEED),
                )
                .expect("canonical names are constructible");
                match heuristic.map_traced(instance) {
                    Ok((mapping, telemetry)) => {
                        Counters::bump(&self.counters.solves_heuristic);
                        if let Some(telemetry) = telemetry {
                            // Search-driven solve: fold its evaluator
                            // counters into the server totals.
                            self.counters
                                .add_eval_delta(telemetry.eval, EvalCounters::default());
                        }
                        (canonical, mapping)
                    }
                    Err(e) => {
                        return EngineError::SolverFailed {
                            label: canonical,
                            detail: one_line(e),
                        }
                        .into_response()
                    }
                }
            }
            SolveMethod::Portfolio => {
                let config = PortfolioConfig {
                    base_seed: seed.unwrap_or(PortfolioConfig::default().base_seed),
                    ..PortfolioConfig::default()
                };
                let outcome = run_portfolio(instance, &config, &self.runner);
                let (Some(winner), Some(mapping)) =
                    (outcome.winner_label(), outcome.best_mapping.clone())
                else {
                    return EngineError::PortfolioEmpty.into_response();
                };
                Counters::bump(&self.counters.solves_portfolio);
                (winner.to_string(), mapping)
            }
            SolveMethod::Anytime { .. } => unreachable!("handled above"),
        };
        // One evaluator build serves both the response period (its initial
        // state is bit-identical to the full `machine_periods` walk the CLI
        // does) and this session's resident state, so a client can
        // immediately probe `whatif` moves around the solution. The build is
        // keyed-cached too: re-solving to a mapping this engine has already
        // evaluated (or an `evaluate` of a solved mapping) is a cache hit.
        let fingerprint = mapping.fingerprint();
        let evaluation = match self.cache.lookup(name, stored.generation, fingerprint) {
            Some(hit) => hit,
            None => match self.build_evaluation(name, &stored, &mapping, fingerprint) {
                Ok(built) => built,
                Err(detail) => return EngineError::Infeasible { detail }.into_response(),
            },
        };
        let period = evaluation.period;
        self.remember(session, name, stored.generation, evaluation.snapshot);
        Response::Solved {
            label,
            period,
            machines: mapping.machine_count(),
            assignment: mapping.as_slice().iter().map(|u| u.index()).collect(),
        }
    }

    /// `solve … anytime` (v3): the deterministic incumbent/bound race of
    /// [`mf_experiments::anytime::solve_anytime`] under a step budget, its
    /// events answered as the `gap` lines of a streaming
    /// [`Response::SolvedAnytime`] block and mirrored into the trace file
    /// as `round` records. The solved mapping becomes this session's
    /// resident evaluator state, exactly like the other solve methods.
    fn solve_anytime(
        &self,
        session: &mut Session,
        name: &str,
        stored: &StoredInstance,
        budget: Option<u64>,
        seed: Option<u64>,
    ) -> Response {
        if let Err(response) = gate_v3(session.version, "solve") {
            return response;
        }
        let mut config = AnytimeConfig::default();
        if let Some(budget) = budget {
            config.step_budget = budget;
        }
        if let Some(seed) = seed {
            config.seed = seed;
        }
        let mut sink = TraceIncumbentSink { obs: &self.obs };
        let outcome =
            match solve_anytime_observed(&stored.instance, &config, &mut |_| {}, &mut sink) {
                Ok(outcome) => outcome,
                Err(e) => {
                    return EngineError::SolverFailed {
                        label: "anytime".to_string(),
                        detail: one_line(e),
                    }
                    .into_response()
                }
            };
        let c = &self.counters;
        Counters::bump(&c.solves_anytime);
        Counters::add(&c.anytime_reports, outcome.events.len() as u64);
        if outcome.proven_optimal {
            Counters::bump(&c.anytime_proven);
        }
        Counters::add(&c.bnb_nodes, outcome.nodes);
        Counters::add(&c.lp_solves, outcome.lp_solves);
        Counters::add(&c.lp_reuses, outcome.lp_reuses);
        let reports = outcome
            .events
            .iter()
            .map(|event| GapReport {
                phase: event.phase.label().to_string(),
                steps: event.steps,
                period: event.period,
                bound: event.bound,
                proven: event.proven,
            })
            .collect();
        let mapping = outcome.mapping;
        let fingerprint = mapping.fingerprint();
        let evaluation = match self.cache.lookup(name, stored.generation, fingerprint) {
            Some(hit) => hit,
            None => match self.build_evaluation(name, stored, &mapping, fingerprint) {
                Ok(built) => built,
                Err(detail) => return EngineError::Infeasible { detail }.into_response(),
            },
        };
        let period = evaluation.period;
        self.remember(session, name, stored.generation, evaluation.snapshot);
        Response::SolvedAnytime {
            reports,
            period,
            machines: mapping.machine_count(),
            assignment: mapping.as_slice().iter().map(|u| u.index()).collect(),
        }
    }

    /// The statistics counters a session of `version` sees, in fixed
    /// presentation order: the 16 v1 keys, plus — on v2 sessions — the
    /// evaluator-build and keyed evaluate-cache counters, followed by the
    /// evaluator what-if/mass-row counters and the five retired `sweep-*`
    /// keys (the sweep cache is gone; they always answer 0 so the v2 list
    /// keeps its shape), plus — on v3 sessions — the
    /// anytime-solve counters (solves, streamed reports, proven runs, and
    /// the exact phase's node/LP work). Every key is a plain sum over the
    /// work done, so the router aggregates worker lists index-aligned and
    /// its answer is the same for any worker count.
    pub fn stats_for(&self, version: ProtoVersion) -> Vec<(String, u64)> {
        let mut entries = self.stats();
        if version >= ProtoVersion::V2 {
            let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
            entries.push(("evaluator-builds".to_string(), read(&self.counters.builds)));
            entries.push(("evaluate-cache-hits".to_string(), self.cache.hits()));
            entries.push(("evaluate-cache-misses".to_string(), self.cache.misses()));
            entries.push((
                "evaluate-cache-evictions".to_string(),
                self.cache.evictions(),
            ));
            let c = &self.counters;
            entries.push(("whatif-dense".to_string(), read(&c.whatif_dense)));
            entries.push(("whatif-exact".to_string(), read(&c.whatif_exact)));
            entries.push(("mass-row-builds".to_string(), read(&c.mass_row_builds)));
            for key in RETIRED_SWEEP_KEYS {
                entries.push((key.to_string(), 0));
            }
        }
        if version >= ProtoVersion::V3 {
            let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
            let c = &self.counters;
            entries.push(("solves-anytime".to_string(), read(&c.solves_anytime)));
            entries.push(("anytime-reports".to_string(), read(&c.anytime_reports)));
            entries.push(("anytime-proven".to_string(), read(&c.anytime_proven)));
            entries.push(("bnb-nodes".to_string(), read(&c.bnb_nodes)));
            entries.push(("lp-solves".to_string(), read(&c.lp_solves)));
            entries.push(("lp-reuses".to_string(), read(&c.lp_reuses)));
        }
        entries
    }

    /// Snapshots the per-command request-latency histograms, in
    /// [`TRACKED_COMMANDS`](crate::obs::TRACKED_COMMANDS) order. Every
    /// bucket is a plain sum of the work this engine dispatched, so a
    /// router aggregates worker snapshots bucket-wise.
    pub fn histograms(&self) -> Vec<(String, mf_obs::HistogramSnapshot)> {
        self.obs.histograms()
    }

    /// The statistics counters, in fixed presentation order. Alongside the
    /// request counters, the store's byte footprint and hit/eviction counts
    /// and the session snapshot caches' hit/eviction counts make warm-cache
    /// behavior of a long-running server observable.
    pub fn stats(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        let store = self.store.stats();
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        vec![
            ("instances".to_string(), self.store.len() as u64),
            ("instance-bytes".to_string(), store.bytes),
            ("instance-hits".to_string(), store.hits),
            ("instance-evictions".to_string(), store.evictions),
            ("loads".to_string(), read(&c.loads)),
            ("unloads".to_string(), read(&c.unloads)),
            ("evaluations".to_string(), read(&c.evaluations)),
            ("whatifs".to_string(), read(&c.whatifs)),
            ("evaluator-resumes".to_string(), read(&c.resumes)),
            ("snapshot-hits".to_string(), read(&c.snapshot_hits)),
            (
                "snapshot-evictions".to_string(),
                read(&c.snapshot_evictions),
            ),
            ("solves-heuristic".to_string(), read(&c.solves_heuristic)),
            ("solves-portfolio".to_string(), read(&c.solves_portfolio)),
            ("sessions".to_string(), read(&c.sessions)),
            ("requests".to_string(), read(&c.requests)),
            ("errors".to_string(), read(&c.errors)),
        ]
    }
}

/// Flattens an error's display onto one protocol line.
fn one_line(e: impl std::fmt::Display) -> String {
    e.to_string().replace(['\n', '\r'], " ")
}

/// Mirrors anytime incumbent/bound improvements into the engine's trace
/// file as `round` records. Tracing off makes this a no-op, and the trace
/// never changes a response byte.
struct TraceIncumbentSink<'a> {
    obs: &'a ObsState,
}

impl mf_obs::ProgressSink for TraceIncumbentSink<'_> {
    fn emit(&mut self, event: mf_obs::ProgressEvent) {
        self.obs.trace_event(&event.into_trace(0, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{text_payload, ErrorCode};
    use crate::router::{Router, RouterSession};
    use mf_heuristics::{H4wFastestMachine, Heuristic};
    use mf_sim::{GeneratorConfig, InstanceGenerator};

    fn instance_text(tasks: usize, machines: usize, types: usize, seed: u64) -> String {
        let instance =
            InstanceGenerator::new(GeneratorConfig::paper_standard(tasks, machines, types))
                .generate(seed)
                .unwrap();
        textio::instance_to_text(&instance)
    }

    fn load(router: &Router, session: &mut RouterSession, name: &str, text: &str) {
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
    fn load_list_solve_evaluate_whatif_flow() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        let text = instance_text(8, 4, 2, 3);
        load(&router, &mut session, "a", &text);

        let Response::List(entries) = router.dispatch(&mut session, Request::List) else {
            panic!("list failed");
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "a");
        assert_eq!(entries[0].tasks, 8);
        assert_eq!(entries[0].machines, 4);

        // Solve with H4w matches a direct run bit-for-bit.
        let Response::Solved {
            label,
            period,
            machines,
            assignment,
        } = router.dispatch(
            &mut session,
            Request::Solve {
                name: "a".into(),
                method: SolveMethod::Heuristic("h4w".into()),
                seed: None,
            },
        )
        else {
            panic!("solve failed");
        };
        assert_eq!(label, "H4w");
        assert_eq!(machines, 4);
        let instance = textio::instance_from_text(&text).unwrap();
        let direct = H4wFastestMachine.map(&instance).unwrap();
        assert_eq!(
            assignment,
            direct
                .as_slice()
                .iter()
                .map(|u| u.index())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            period.to_bits(),
            instance.period(&direct).unwrap().value().to_bits()
        );

        // Evaluate that mapping: bit-identical to the full breakdown.
        let mapping_text = textio::mapping_to_text(&direct);
        let Response::Evaluated {
            period: evaluated,
            critical,
            loads,
        } = router.dispatch(
            &mut session,
            Request::Evaluate {
                name: "a".into(),
                payload: text_payload(&mapping_text),
            },
        )
        else {
            panic!("evaluate failed");
        };
        let breakdown = instance.machine_periods(&direct).unwrap();
        assert_eq!(
            evaluated.to_bits(),
            breakdown.system_period().value().to_bits()
        );
        for (u, load) in loads.iter().enumerate() {
            assert_eq!(load.to_bits(), breakdown.as_slice()[u].to_bits());
        }
        assert!(critical < 4);

        // Whatif resumes the resident evaluator and agrees with a fresh one.
        let Response::WhatIf {
            period: probed,
            critical: probed_critical,
        } = router.dispatch(
            &mut session,
            Request::WhatIf {
                name: "a".into(),
                probe: Probe::Move {
                    task: 0,
                    machine: 1,
                },
            },
        )
        else {
            panic!("whatif failed");
        };
        let mut fresh = IncrementalEvaluator::new(&instance, &direct).unwrap();
        let expected = fresh.evaluate_move(TaskId(0), MachineId(1)).unwrap();
        assert_eq!(probed.to_bits(), expected.period.value().to_bits());
        assert_eq!(probed_critical, expected.critical_machine.index());

        // The stats counters saw all of it.
        let Response::Stats(stats) = router.dispatch(&mut session, Request::Stats) else {
            panic!("stats failed");
        };
        let get = |key: &str| {
            stats
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("instances"), 1);
        assert_eq!(get("loads"), 1);
        assert_eq!(get("evaluations"), 1);
        assert_eq!(get("whatifs"), 1);
        assert_eq!(get("evaluator-resumes"), 1);
        assert_eq!(get("snapshot-hits"), 1);
        assert_eq!(get("snapshot-evictions"), 0);
        assert_eq!(get("solves-heuristic"), 1);
        assert_eq!(get("sessions"), 1);
        assert_eq!(get("errors"), 0);
        // The store saw one lookup per solve/evaluate/whatif.
        assert_eq!(get("instance-hits"), 3);
        assert_eq!(get("instance-evictions"), 0);
        assert!(get("instance-bytes") > 0);
    }

    #[test]
    fn anytime_solves_need_a_v3_hello_and_stream_monotone_reports() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        let text = instance_text(10, 5, 2, 7);
        load(&router, &mut session, "a", &text);
        let anytime = |budget| Request::Solve {
            name: "a".into(),
            method: SolveMethod::Anytime { budget },
            seed: None,
        };

        // v1 and v2 sessions are refused with the stable gating error.
        for requested in [1, 2] {
            if requested > 1 {
                assert!(matches!(
                    router.dispatch(&mut session, Request::Hello { requested }),
                    Response::Hello { .. }
                ));
            }
            let Response::Error { code, detail } = router.dispatch(&mut session, anytime(None))
            else {
                panic!("anytime must be gated below v3");
            };
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(detail.contains("requires mf-proto v3"), "{detail}");
        }

        assert!(matches!(
            router.dispatch(&mut session, Request::Hello { requested: 3 }),
            Response::Hello {
                version: ProtoVersion::V3
            }
        ));
        let Response::SolvedAnytime {
            reports,
            period,
            machines,
            assignment,
        } = router.dispatch(&mut session, anytime(None))
        else {
            panic!("anytime solve failed");
        };
        assert!(!reports.is_empty());
        assert_eq!(reports[0].phase, "seed");
        assert_eq!(reports[0].steps, 0, "first report is the free seed");
        for pair in reports.windows(2) {
            assert!(pair[1].period <= pair[0].period);
            assert!(pair[1].bound >= pair[0].bound);
            assert!(pair[1].steps >= pair[0].steps);
            assert!(!pair[0].proven, "a proven report must be the last");
        }
        let last = reports.last().unwrap();
        assert_eq!(last.period.to_bits(), period.to_bits());

        // The answer is the anytime library outcome, bit for bit.
        let instance = textio::instance_from_text(&text).unwrap();
        let direct =
            mf_experiments::anytime::solve_anytime(&instance, &AnytimeConfig::default()).unwrap();
        assert_eq!(machines, 5);
        assert_eq!(
            assignment,
            direct
                .mapping
                .as_slice()
                .iter()
                .map(|u| u.index())
                .collect::<Vec<_>>()
        );
        assert_eq!(period.to_bits(), direct.period.value().to_bits());

        // The solved mapping is resident: whatif probes work immediately.
        assert!(matches!(
            router.dispatch(
                &mut session,
                Request::WhatIf {
                    name: "a".into(),
                    probe: Probe::Swap { a: 0, b: 1 },
                },
            ),
            Response::WhatIf { .. }
        ));

        // The v3 counters saw the run.
        let stats = v2_stats(&router, &mut session);
        assert_eq!(stat_of(&stats, "solves-anytime"), 1);
        assert_eq!(stat_of(&stats, "anytime-reports"), reports.len() as u64);
        assert_eq!(
            stat_of(&stats, "anytime-proven"),
            u64::from(direct.proven_optimal)
        );
        assert_eq!(stat_of(&stats, "bnb-nodes"), direct.nodes);
        assert_eq!(stat_of(&stats, "lp-solves"), direct.lp_solves);
        assert_eq!(stat_of(&stats, "lp-reuses"), direct.lp_reuses);
    }

    #[test]
    fn session_snapshot_cache_is_capped_by_recency() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        // One more instance than the cap; evaluating each in turn parks one
        // snapshot per name.
        let count = SESSION_SNAPSHOT_CAP + 1;
        for k in 0..count {
            let text = instance_text(6, 3, 2, k as u64 + 1);
            let name = format!("inst{k}");
            load(&router, &mut session, &name, &text);
            let instance = textio::instance_from_text(&text).unwrap();
            let mapping = H4wFastestMachine.map(&instance).unwrap();
            let response = router.dispatch(
                &mut session,
                Request::Evaluate {
                    name: name.clone(),
                    payload: text_payload(&textio::mapping_to_text(&mapping)),
                },
            );
            assert!(
                matches!(response, Response::Evaluated { .. }),
                "{response:?}"
            );
        }
        // The first (coldest) snapshot was evicted: whatif has no resident
        // state for it. The most recent one still answers.
        let probe = |session: &mut RouterSession, name: &str| {
            router.dispatch(
                session,
                Request::WhatIf {
                    name: name.into(),
                    probe: Probe::Move {
                        task: 0,
                        machine: 1,
                    },
                },
            )
        };
        let evicted = probe(&mut session, "inst0");
        assert!(
            matches!(
                evicted,
                Response::Error {
                    code: ErrorCode::NoResidentState,
                    ..
                }
            ),
            "{evicted:?}"
        );
        let warm = probe(&mut session, &format!("inst{}", count - 1));
        assert!(matches!(warm, Response::WhatIf { .. }), "{warm:?}");
        let Response::Stats(stats) = router.dispatch(&mut session, Request::Stats) else {
            panic!("stats failed");
        };
        let get = |key: &str| {
            stats
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("snapshot-evictions"), 1);
        assert_eq!(get("snapshot-hits"), 1);
    }

    #[test]
    fn whatif_requires_resident_state_and_survives_bad_probes() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        load(&router, &mut session, "a", &instance_text(6, 3, 2, 1));
        // No evaluate/solve yet.
        let response = router.dispatch(
            &mut session,
            Request::WhatIf {
                name: "a".into(),
                probe: Probe::Move {
                    task: 0,
                    machine: 1,
                },
            },
        );
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::NoResidentState,
                    ..
                }
            ),
            "{response:?}"
        );
        // Solve creates resident state; an out-of-range probe errors but the
        // state stays usable.
        let solved = router.dispatch(
            &mut session,
            Request::Solve {
                name: "a".into(),
                method: SolveMethod::Heuristic("H2".into()),
                seed: None,
            },
        );
        assert!(matches!(solved, Response::Solved { .. }), "{solved:?}");
        let bad = router.dispatch(
            &mut session,
            Request::WhatIf {
                name: "a".into(),
                probe: Probe::Move {
                    task: 99,
                    machine: 0,
                },
            },
        );
        assert!(
            matches!(
                bad,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "{bad:?}"
        );
        let good = router.dispatch(
            &mut session,
            Request::WhatIf {
                name: "a".into(),
                probe: Probe::Swap { a: 0, b: 1 },
            },
        );
        assert!(matches!(good, Response::WhatIf { .. }), "{good:?}");
        // Reloading the instance invalidates the resident snapshot.
        load(&router, &mut session, "a", &instance_text(6, 3, 2, 2));
        let stale = router.dispatch(
            &mut session,
            Request::WhatIf {
                name: "a".into(),
                probe: Probe::Swap { a: 0, b: 1 },
            },
        );
        assert!(
            matches!(
                stale,
                Response::Error {
                    code: ErrorCode::NoResidentState,
                    ..
                }
            ),
            "{stale:?}"
        );
    }

    #[test]
    fn error_paths_are_typed() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        let unknown = router.dispatch(
            &mut session,
            Request::Solve {
                name: "missing".into(),
                method: SolveMethod::Portfolio,
                seed: None,
            },
        );
        assert!(matches!(
            unknown,
            Response::Error {
                code: ErrorCode::UnknownInstance,
                ..
            }
        ));
        let garbage = router.dispatch(
            &mut session,
            Request::Load {
                name: "bad".into(),
                payload: text_payload("tasks two\n"),
            },
        );
        assert!(matches!(
            garbage,
            Response::Error {
                code: ErrorCode::InvalidPayload,
                ..
            }
        ));
        load(&router, &mut session, "a", &instance_text(6, 3, 2, 1));
        let typo = router.dispatch(
            &mut session,
            Request::Solve {
                name: "a".into(),
                method: SolveMethod::Heuristic("portolio".into()),
                seed: None,
            },
        );
        match typo {
            Response::Error {
                code: ErrorCode::BadRequest,
                detail,
            } => assert!(detail.contains("H4w"), "detail must list names: {detail}"),
            other => panic!("expected bad-request, got {other:?}"),
        }
        // 5 types on 3 machines: every solver fails feasibly.
        let infeasible_text = instance_text(10, 3, 5, 1);
        load(&router, &mut session, "tight", &infeasible_text);
        for method in [SolveMethod::Heuristic("H4w".into()), SolveMethod::Portfolio] {
            let response = router.dispatch(
                &mut session,
                Request::Solve {
                    name: "tight".into(),
                    method,
                    seed: None,
                },
            );
            assert!(
                matches!(
                    response,
                    Response::Error {
                        code: ErrorCode::Infeasible,
                        ..
                    }
                ),
                "{response:?}"
            );
        }
        let Response::Stats(stats) = router.dispatch(&mut session, Request::Stats) else {
            panic!("stats failed");
        };
        let errors = stats.iter().find(|(k, _)| k == "errors").unwrap().1;
        assert_eq!(errors, 5);
    }

    #[test]
    fn per_request_seeds_change_seeded_answers_deterministically() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        load(&router, &mut session, "a", &instance_text(12, 5, 3, 7));
        let solve = |session: &mut RouterSession, seed: Option<u64>| match router.dispatch(
            session,
            Request::Solve {
                name: "a".into(),
                method: SolveMethod::Heuristic("H1".into()),
                seed,
            },
        ) {
            Response::Solved { assignment, .. } => assignment,
            other => panic!("solve failed: {other:?}"),
        };
        let default_seed = solve(&mut session, None);
        let explicit_default = solve(&mut session, Some(DEFAULT_HEURISTIC_SEED));
        let reseeded = solve(&mut session, Some(99));
        let reseeded_again = solve(&mut session, Some(99));
        assert_eq!(default_seed, explicit_default);
        assert_eq!(reseeded, reseeded_again);
        assert_ne!(default_seed, reseeded, "H1 must react to the seed");
    }
    fn stat_of(stats: &[(String, u64)], key: &str) -> u64 {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no stat `{key}`"))
            .1
    }

    fn v2_stats(router: &Router, session: &mut RouterSession) -> Vec<(String, u64)> {
        match router.dispatch(session, Request::Stats) {
            Response::Stats(stats) => stats,
            other => panic!("stats failed: {other:?}"),
        }
    }

    #[test]
    fn repeated_evaluates_hit_the_keyed_cache_without_rebuilding() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        assert!(matches!(
            router.dispatch(&mut session, Request::Hello { requested: 2 }),
            Response::Hello {
                version: ProtoVersion::V2
            }
        ));
        let text = instance_text(10, 4, 2, 5);
        load(&router, &mut session, "a", &text);
        let instance = textio::instance_from_text(&text).unwrap();
        let mapping = H4wFastestMachine.map(&instance).unwrap();
        let evaluate = |session: &mut RouterSession| match router.dispatch(
            session,
            Request::Evaluate {
                name: "a".into(),
                payload: text_payload(&textio::mapping_to_text(&mapping)),
            },
        ) {
            Response::Evaluated {
                period,
                critical,
                loads,
            } => (period.to_bits(), critical, loads),
            other => panic!("evaluate failed: {other:?}"),
        };

        let cold = evaluate(&mut session);
        let stats = v2_stats(&router, &mut session);
        assert_eq!(stat_of(&stats, "evaluator-builds"), 1);
        assert_eq!(stat_of(&stats, "evaluate-cache-misses"), 1);
        assert_eq!(stat_of(&stats, "evaluate-cache-hits"), 0);

        // Second evaluate of the same (instance generation, mapping): served
        // from the cache — no evaluator build — and bit-identical.
        let warm = evaluate(&mut session);
        assert_eq!(warm, cold);
        let stats = v2_stats(&router, &mut session);
        assert_eq!(stat_of(&stats, "evaluator-builds"), 1, "hit must not build");
        assert_eq!(stat_of(&stats, "evaluate-cache-hits"), 1);
        assert_eq!(
            stat_of(&stats, "evaluations"),
            2,
            "hits still count as evaluations"
        );

        // The cached snapshot backs `whatif` exactly like a fresh build.
        let Response::WhatIf { period, critical } = router.dispatch(
            &mut session,
            Request::WhatIf {
                name: "a".into(),
                probe: Probe::Swap { a: 0, b: 1 },
            },
        ) else {
            panic!("whatif failed");
        };
        let mut fresh = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let expected = fresh.evaluate_swap(TaskId(0), TaskId(1)).unwrap();
        assert_eq!(period.to_bits(), expected.period.value().to_bits());
        assert_eq!(critical, expected.critical_machine.index());

        // Reloading the instance bumps the store generation: the old entry is
        // unreachable and the next evaluate is a miss again.
        load(&router, &mut session, "a", &text);
        evaluate(&mut session);
        let stats = v2_stats(&router, &mut session);
        assert_eq!(
            stat_of(&stats, "evaluator-builds"),
            2,
            "reload must invalidate"
        );
        assert_eq!(stat_of(&stats, "evaluate-cache-misses"), 2);
        assert_eq!(stat_of(&stats, "evaluate-cache-hits"), 1);

        // Unload purges the instance's entries outright.
        assert!(matches!(
            router.dispatch(&mut session, Request::Unload { name: "a".into() }),
            Response::Unloaded { .. }
        ));
        assert_eq!(
            router.engines()[0].cache().len(),
            0,
            "unload must purge the cache"
        );
    }

    /// A request that panicked with the evaluate cache locked leaves the
    /// engine serving: the next evaluate misses, rebuilds the evaluator and
    /// answers bit-identically, and the one after it hits again.
    #[test]
    fn evaluates_after_a_panic_in_the_cache_rebuild_and_match() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        router.dispatch(&mut session, Request::Hello { requested: 2 });
        let text = instance_text(10, 4, 2, 5);
        load(&router, &mut session, "a", &text);
        let instance = textio::instance_from_text(&text).unwrap();
        let mapping = H4wFastestMachine.map(&instance).unwrap();
        let evaluate = |session: &mut RouterSession| match router.dispatch(
            session,
            Request::Evaluate {
                name: "a".into(),
                payload: text_payload(&textio::mapping_to_text(&mapping)),
            },
        ) {
            Response::Evaluated {
                period,
                critical,
                loads,
            } => (period.to_bits(), critical, loads),
            other => panic!("evaluate failed: {other:?}"),
        };
        let cold = evaluate(&mut session);
        assert_eq!(evaluate(&mut session), cold);
        let cache = router.engines()[0].cache();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.panic_with_lock_held()
        }));
        assert!(panicked.is_err(), "the injected panic must unwind");

        assert_eq!(evaluate(&mut session), cold);
        let stats = v2_stats(&router, &mut session);
        assert_eq!(stat_of(&stats, "evaluator-builds"), 2, "the miss rebuilds");
        assert_eq!(stat_of(&stats, "evaluate-cache-misses"), 2);
        assert_eq!(stat_of(&stats, "evaluate-cache-hits"), 1);
        assert_eq!(evaluate(&mut session), cold);
        let stats = v2_stats(&router, &mut session);
        assert_eq!(stat_of(&stats, "evaluate-cache-hits"), 2);
        assert_eq!(stat_of(&stats, "evaluator-builds"), 2);
    }

    #[test]
    fn batches_need_a_v2_hello_and_answer_item_by_item() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        let text = instance_text(8, 4, 2, 3);

        // v1 sessions cannot batch.
        let response = router.dispatch(&mut session, Request::Batch(vec![Request::List]));
        let Response::Error { code, detail } = response else {
            panic!("expected an error");
        };
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("requires mf-proto v2"), "{detail}");

        // After a v2 hello, a mixed batch answers in order, with errors and
        // non-batchable commands answered in place.
        assert!(matches!(
            router.dispatch(&mut session, Request::Hello { requested: 2 }),
            Response::Hello {
                version: ProtoVersion::V2
            }
        ));
        let requests_before = stat_of(&v2_stats(&router, &mut session), "requests");
        let batch = Request::Batch(vec![
            Request::Load {
                name: "a".into(),
                payload: text_payload(&text),
            },
            Request::Solve {
                name: "a".into(),
                method: SolveMethod::Heuristic("h4w".into()),
                seed: None,
            },
            Request::List, // not instance-keyed: cannot ride an envelope
            Request::Unload {
                name: "missing".into(),
            },
        ]);
        let Response::Batch(answers) = router.dispatch(&mut session, batch) else {
            panic!("batch failed");
        };
        assert_eq!(answers.len(), 4);
        assert!(matches!(answers[0], Response::Loaded { .. }), "{answers:?}");
        assert!(matches!(answers[1], Response::Solved { .. }), "{answers:?}");
        assert!(
            matches!(
                &answers[2],
                Response::Error {
                    code: ErrorCode::BadRequest,
                    detail
                } if detail.contains("cannot ride a batch envelope")
            ),
            "{answers:?}"
        );
        assert!(
            matches!(
                answers[3],
                Response::Error {
                    code: ErrorCode::UnknownInstance,
                    ..
                }
            ),
            "{answers:?}"
        );

        // Counter parity with the serial script: the envelope plus one
        // request per item, and one error per error answer.
        let stats = v2_stats(&router, &mut session);
        assert_eq!(stat_of(&stats, "requests"), requests_before + 1 + 4 + 1);
        // The v1 batch rejection above, the in-envelope `list`, and the
        // unknown-instance unload.
        assert_eq!(stat_of(&stats, "errors"), 3);
        assert_eq!(stat_of(&stats, "loads"), 1);
        assert_eq!(stat_of(&stats, "solves-heuristic"), 1);
    }

    #[test]
    fn v2_stats_extend_v1_stats_with_the_cache_counters() {
        let router = Router::new(1, 1);
        let engine = &router.engines()[0];
        let v1 = engine.stats_for(ProtoVersion::V1);
        let v2 = engine.stats_for(ProtoVersion::V2);
        let v3 = engine.stats_for(ProtoVersion::V3);
        assert_eq!(v1, engine.stats(), "v1 view is the legacy stats list");
        assert_eq!(&v2[..v1.len()], &v1[..], "v2 must extend, not reorder");
        let appended: Vec<&str> = v2[v1.len()..].iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            appended,
            [
                "evaluator-builds",
                "evaluate-cache-hits",
                "evaluate-cache-misses",
                "evaluate-cache-evictions",
                "whatif-dense",
                "whatif-exact",
                "mass-row-builds",
                "sweep-probes",
                "sweep-evaluations",
                "sweep-skips",
                "sweep-reuses",
                "sweep-rescales"
            ]
        );
        assert_eq!(&v3[..v2.len()], &v2[..], "v3 must extend, not reorder");
        let appended: Vec<&str> = v3[v2.len()..].iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            appended,
            [
                "solves-anytime",
                "anytime-reports",
                "anytime-proven",
                "bnb-nodes",
                "lp-solves",
                "lp-reuses"
            ]
        );
        // status-export reports the complete (v3) counter list as the
        // global block.
        let report = router.status_report();
        assert_eq!(report.global, v3);
        assert_eq!(report.workers, vec![v3]);

        // The retired sweep-cache keys answer 0 even after a search-driven
        // solve on an instance wide enough (m = 64) for the old cache to run.
        let mut session = router.begin_session();
        router.dispatch(&mut session, Request::Hello { requested: 2 });
        load(&router, &mut session, "wide", &instance_text(30, 64, 4, 5));
        let solved = router.dispatch(
            &mut session,
            Request::Solve {
                name: "wide".into(),
                method: SolveMethod::Heuristic("SD".into()),
                seed: None,
            },
        );
        assert!(matches!(solved, Response::Solved { .. }), "{solved:?}");
        let stats = v2_stats(&router, &mut session);
        assert!(stat_of(&stats, "whatif-dense") > 0, "SD must have searched");
        for key in RETIRED_SWEEP_KEYS {
            assert_eq!(stat_of(&stats, key), 0, "{key}");
        }
    }
}
