//! Instance-command dispatch: the bridge between `mf-proto` and the solver
//! stack, one shard at a time.
//!
//! An [`Engine`] is one shard worker of a [`Router`](crate::router::Router),
//! shared by every session the router forwards to it. It answers `hello`
//! and the five instance commands (`load`, `unload`, `evaluate`, `whatif`,
//! `solve`); the router answers everything else. A shard owns only its
//! statistics counters and its latency histograms: the resident
//! [`InstanceStore`], the keyed [`EvaluateCache`], the journal with its
//! mutation-order guard and the [`BatchRunner`] the portfolio races on are
//! one `Shared` state per server, so every cap bounds the whole server.
//!
//! A connection is one [`Session`], which the router passes to whichever
//! shard owns the instance a command names. It carries the negotiated
//! protocol version and the **resident evaluator state**: after an
//! `evaluate` or `solve` on an instance, the session keeps the committed
//! [`EvaluatorSnapshot`] of that mapping, and later `whatif` probes resume it
//! in `O(1)` — no demand walk, no load rebuild — answering move/swap
//! questions in `O(affected tasks + log m)`. One map keyed by name holds the
//! session's snapshots, and [`SESSION_SNAPSHOT_CAP`] bounds it per
//! connection at any worker count.
//!
//! # Equivalence with the one-shot CLI
//!
//! Every answer is a pure function of (instance, request, seed). `solve`
//! is one call of [`mf_exact::solve::solve`], the entry point the
//! `microfactory` CLI's `solve` calls too, so both apply the same default
//! seeds and configs (and the portfolio's outcome is bit-identical for
//! every thread count): server responses are **bit-identical** to the
//! equivalent one-shot run. The `serve_equivalence` integration test pins
//! this against the real CLI binary.

use crate::cache::{CachedEvaluation, EvaluateCache};
use crate::errors::{one_line, EngineError};
use crate::journal::{Journal, JournalResult};
use crate::obs::{ObsConfig, ObsState};
use crate::proto::{
    recycle_payload, GapReport, Probe, ProtoVersion, Request, Response, SolveMethod,
};
use crate::stats::{self, Counters, Stat};
use crate::store::{InstanceStore, StoredInstance};
use mf_core::prelude::*;
use mf_core::textio;
use mf_exact::solve::anytime::AnytimeEvent;
use mf_exact::solve::runner::BatchRunner;
use mf_exact::solve::{self, Method, Observer, Telemetry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Most resident evaluator snapshots one session keeps; the
/// least-recently-used snapshot is dropped past this (a snapshot is ~the
/// instance's per-task vectors plus the mass-row cache, so an unbounded map
/// would grow with every instance a long-lived dashboard session touches).
pub const SESSION_SNAPSHOT_CAP: usize = 8;

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
    /// v1 until a `hello` upgrades it.
    pub(crate) version: ProtoVersion,
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

/// Rejects a command that `needs` a newer protocol than the session's
/// `version` with the stable version-required error (the gate of `batch`,
/// `status-export` and anytime `solve`).
pub(crate) fn gate(
    version: ProtoVersion,
    needs: ProtoVersion,
    command: &'static str,
) -> std::result::Result<(), Response> {
    if version >= needs {
        Ok(())
    } else {
        Err(EngineError::VersionRequired { command, needs }.into_response())
    }
}

/// The state every shard of one server shares: the router builds it once
/// and hands the same `Arc` to each [`Engine`].
pub(crate) struct Shared {
    pub(crate) store: InstanceStore,
    pub(crate) cache: EvaluateCache,
    pub(crate) runner: BatchRunner,
    /// The durable log of store mutations, when the server runs with a
    /// data directory (`None` keeps the server in-memory, its loads
    /// lock-free). Its lock is the mutation-order guard: each store
    /// mutation and its appends happen under it, so the journal replays to
    /// exactly the store's order, even when a load on one shard evicts a
    /// name another shard serves.
    journal: Option<Mutex<Journal>>,
}

impl Shared {
    pub(crate) fn new(store: InstanceStore, threads: usize, journal: Option<Journal>) -> Self {
        Shared {
            store,
            cache: EvaluateCache::new(),
            runner: BatchRunner::new(threads),
            journal: journal.map(Mutex::new),
        }
    }

    /// The journal of a durable server, locked.
    pub(crate) fn journal(&self) -> Option<MutexGuard<'_, Journal>> {
        let journal = self.journal.as_ref()?;
        Some(journal.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Replays the journal's live instances into the store, each pinned at
    /// its journaled generation, then fast-forwards the generation counter
    /// to the journal's high-water mark, so every generation issued after
    /// the restart is strictly above every generation issued before it.
    /// Payloads that no longer parse (a foreign edit of the journal file)
    /// are dropped from the journal rather than resurrected; replay
    /// evictions (recovered set larger than the byte cap) are journaled
    /// like live evictions so the log stays exact.
    pub(crate) fn replay(&self) -> JournalResult<()> {
        let Some(journal) = self.journal() else {
            return Ok(());
        };
        for recovered in journal.live_instances()? {
            let lines = recovered.payload.iter().map(String::as_str);
            let Ok(instance) = textio::instance_from_lines(lines) else {
                journal.record_unload(&recovered.name)?;
                continue;
            };
            let generation = recovered.generation;
            let (_, evicted) = self
                .store
                .insert_pinned(&recovered.name, instance, generation);
            for gone in &evicted {
                journal.record_unload(gone)?;
            }
        }
        self.store.reserve_generations(journal.mark());
        Ok(())
    }

    /// Inserts (or replaces) `name` and journals the load with every name
    /// the byte cap evicted for it. Cached evaluations of the name's older
    /// generations and of every evicted name can never hit again; purging
    /// just frees them eagerly.
    fn insert(
        &self,
        name: &str,
        instance: Instance,
        payload: &[String],
    ) -> (Arc<StoredInstance>, JournalResult<()>) {
        let journal = self.journal();
        let (stored, evicted) = self.store.insert_tracked(name, instance);
        for purged in std::iter::once(name).chain(evicted.iter().map(String::as_str)) {
            self.cache.purge(purged);
        }
        let journaled = match &journal {
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
    }

    /// Removes `name` and journals the unload; `false` when it was not
    /// loaded.
    fn remove(&self, name: &str) -> (bool, JournalResult<()>) {
        let journal = self.journal();
        let removed = self.store.remove(name);
        if removed {
            self.cache.purge(name);
        }
        let journaled = match &journal {
            Some(journal) if removed => journal.record_unload(name),
            _ => Ok(()),
        };
        (removed, journaled)
    }
}

/// One shard worker of the serving tier: its counters and histograms over
/// the state every shard of the server shares.
pub struct Engine {
    shared: Arc<Shared>,
    counters: Counters,
    /// Request-latency histograms, span tracing, and the slow-request log.
    obs: ObsState,
}

impl Engine {
    /// A shard engine over the server's shared state. The router is the
    /// only caller: it builds one engine per shard.
    pub(crate) fn new(shared: Arc<Shared>, obs: ObsConfig) -> Self {
        Engine {
            shared,
            counters: Counters::new(),
            obs: ObsState::new(obs),
        }
    }

    /// A fresh session for dispatching to this shard directly. Served
    /// connections get theirs from
    /// [`Router::begin_session`](crate::router::Router::begin_session),
    /// which counts it in `stats`; a shard counts no sessions.
    pub fn begin_session(&self) -> Session {
        Session::default()
    }

    /// Dispatches one request against the shared store and the session's
    /// resident state. A shard serves the five instance commands — exactly
    /// what can ride a `batch` envelope — plus `hello`; anything else
    /// answers the stable not-batchable error. Every call counts as one
    /// request (one error when it answers an error) and is timed as its own
    /// command.
    pub fn dispatch(&self, session: &mut Session, request: Request) -> Response {
        self.counters.bump(Stat::Requests);
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
            self.counters.bump(Stat::Errors);
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
        let (stored, journaled) = self.shared.insert(name, instance, payload);
        // A replacement invalidates this session's snapshot immediately;
        // other sessions' snapshots die lazily via the generation check.
        session.resident.remove(name);
        // The load counter tracks applied store mutations, so it moves even
        // when journaling the mutation fails (the load is live in memory —
        // only its durability is gone).
        self.counters.bump(Stat::Loads);
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
        let (removed, journaled) = self.shared.remove(name);
        if removed {
            session.resident.remove(name);
            // Counted on apply, not on durability — see `load`.
            self.counters.bump(Stat::Unloads);
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
                self.counters.bump(Stat::SnapshotEvictions);
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
        self.shared.store.get(name).ok_or_else(|| {
            EngineError::UnknownInstance {
                name: name.to_string(),
            }
            .into_response()
        })
    }

    /// The committed state of `(instance, mapping)` — a keyed-cache hit, or
    /// a fresh build — parked as the session's resident snapshot for
    /// `name`. Returns its period, critical machine and loads, or the
    /// build's one-line error, which each caller answers with its own code.
    fn settle(
        &self,
        session: &mut Session,
        name: &str,
        stored: &StoredInstance,
        mapping: &Mapping,
    ) -> std::result::Result<(f64, usize, Vec<f64>), String> {
        let fingerprint = mapping.fingerprint();
        let evaluation = match self
            .shared
            .cache
            .lookup(name, stored.generation, fingerprint)
        {
            Some(hit) => hit,
            None => self.build_evaluation(name, stored, mapping, fingerprint)?,
        };
        self.remember(session, name, stored.generation, evaluation.snapshot);
        Ok((evaluation.period, evaluation.critical, evaluation.loads))
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
        self.counters.bump(Stat::EvaluatorBuilds);
        let cached = CachedEvaluation {
            period: evaluator.period().value(),
            critical: evaluator.critical_machine().index(),
            loads: evaluator.loads().to_vec(),
            snapshot: evaluator.into_snapshot(),
        };
        self.shared
            .cache
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
        let (period, critical, loads) = match self.settle(session, name, &stored, &mapping) {
            Ok(settled) => settled,
            Err(detail) => return EngineError::InvalidPayload { detail }.into_response(),
        };
        self.counters.bump(Stat::Evaluations);
        Response::Evaluated {
            period,
            critical,
            loads,
        }
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
        self.counters.bump(Stat::SnapshotHits);
        let mut evaluator = match IncrementalEvaluator::resume(&stored.instance, state.snapshot) {
            Ok(evaluator) => evaluator,
            Err(e) => {
                return EngineError::BadRequest {
                    detail: one_line(e),
                }
                .into_response()
            }
        };
        self.counters.bump(Stat::EvaluatorResumes);
        // The evaluator's counters are cumulative and ride the snapshot, so
        // the probe's own cost is the delta across the call.
        let counters_before = evaluator.counters();
        let evaluation = match probe {
            Probe::Move { task, machine } => {
                evaluator.evaluate_move(TaskId(task), MachineId(machine))
            }
            Probe::Swap { a, b } => evaluator.evaluate_swap(TaskId(a), TaskId(b)),
        };
        self.add_eval_delta(evaluator.counters(), counters_before);
        // What-ifs never mutate committed state, so the snapshot stays valid
        // either way — keep it resident even when the probe was out of range.
        let response = match evaluation {
            Ok(evaluation) => {
                self.counters.bump(Stat::Whatifs);
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

    /// `solve`: one [`mf_exact::solve::solve`] call, the same entry point
    /// the CLI's `solve` makes. `anytime` needs a v3 session; its events
    /// are appended to the trace file as `round` records while the solve
    /// runs and answered as the `gap` lines of a
    /// [`Response::SolvedAnytime`] block. The solved mapping becomes this
    /// session's resident evaluator state.
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
        let method = match method {
            SolveMethod::Heuristic(requested) => Method::Heuristic(requested),
            SolveMethod::Portfolio => Method::Portfolio,
            SolveMethod::Anytime { budget } => {
                if let Err(response) = gate(session.version, ProtoVersion::V3, "solve") {
                    return response;
                }
                Method::Anytime { budget: *budget }
            }
        };
        let mut trace = |event: &AnytimeEvent| self.obs.trace_event(&event.to_trace());
        let observer = Observer {
            on_event: &mut trace,
            trace: None,
        };
        let runner = &self.shared.runner;
        let solved = match solve::solve(&stored.instance, method, seed, runner, observer) {
            Ok(solved) => solved,
            Err(error) => return EngineError::Solve(error).into_response(),
        };
        let c = &self.counters;
        match &solved.telemetry {
            Telemetry::Heuristic(search) => {
                c.bump(Stat::SolvesHeuristic);
                let eval = search.map(|search| search.eval).unwrap_or_default();
                self.add_eval_delta(eval, EvalCounters::default());
            }
            Telemetry::Portfolio(_) => c.bump(Stat::SolvesPortfolio),
            Telemetry::Anytime(outcome) => {
                c.bump(Stat::SolvesAnytime);
                c.add(Stat::AnytimeReports, outcome.events.len() as u64);
                c.add(Stat::AnytimeProven, u64::from(outcome.proven_optimal));
                c.add(Stat::BnbNodes, outcome.nodes);
                c.add(Stat::LpSolves, outcome.lp_solves);
                c.add(Stat::LpReuses, outcome.lp_reuses);
            }
            Telemetry::Exact(_) => {}
        }
        // One evaluator build serves both the response period (its initial
        // state is bit-identical to the full `machine_periods` walk the CLI
        // does) and this session's resident state, so a client can
        // immediately probe `whatif` moves around the solution. The build is
        // keyed-cached too: re-solving to a mapping this engine has already
        // evaluated (or an `evaluate` of a solved mapping) is a cache hit.
        let mapping = &solved.mapping;
        let period = match self.settle(session, name, &stored, mapping) {
            Ok((period, _, _)) => period,
            Err(detail) => return EngineError::Infeasible { detail }.into_response(),
        };
        let machines = mapping.machine_count();
        let assignment = mapping.as_slice().iter().map(|u| u.index()).collect();
        let Telemetry::Anytime(outcome) = solved.telemetry else {
            return Response::Solved {
                label: solved.label,
                period,
                machines,
                assignment,
            };
        };
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
        Response::SolvedAnytime {
            reports,
            period,
            machines,
            assignment,
        }
    }

    /// The `stats` answer of a session of `version`, valued by
    /// [`Engine::stat`].
    pub fn stats_for(&self, version: ProtoVersion) -> Vec<(String, u64)> {
        stats::answer(version, |stat| self.stat(stat))
    }

    /// One statistic of this shard: a plain sum of the work it did, so a
    /// router sums it over its workers. The store and evaluate-cache keys
    /// read 0 here (the router reads them from the shared state), as do
    /// `sessions` and the retired `sweep-*` keys.
    pub fn stat(&self, stat: Stat) -> u64 {
        self.counters.get(stat)
    }

    /// Folds the evaluator-counter *delta* of one operation in.
    fn add_eval_delta(&self, after: EvalCounters, before: EvalCounters) {
        let c = &self.counters;
        c.add(
            Stat::WhatifDense,
            after.dense_what_ifs - before.dense_what_ifs,
        );
        c.add(
            Stat::WhatifExact,
            after.exact_what_ifs - before.exact_what_ifs,
        );
        c.add(
            Stat::MassRowBuilds,
            after.mass_row_builds - before.mass_row_builds,
        );
    }

    /// Snapshots the per-command request-latency histograms, in
    /// [`TRACKED_COMMANDS`](crate::obs::TRACKED_COMMANDS) order. Every
    /// bucket is a plain sum of the work this engine dispatched, so a
    /// router aggregates worker snapshots bucket-wise.
    pub fn histograms(&self) -> Vec<(String, mf_obs::HistogramSnapshot)> {
        self.obs.histograms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{text_payload, ErrorCode};
    use crate::router::Router;
    use crate::stats::STATS;
    use mf_heuristics::{H4wFastestMachine, Heuristic};
    use mf_sim::{GeneratorConfig, InstanceGenerator};

    fn instance_text(tasks: usize, machines: usize, types: usize, seed: u64) -> String {
        let instance =
            InstanceGenerator::new(GeneratorConfig::paper_standard(tasks, machines, types))
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
        let direct = solve::anytime::solve_anytime(&instance, &Default::default()).unwrap();
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

    /// The cap bounds the connection's one snapshot map, whichever shards
    /// its instances hash to.
    #[test]
    fn session_snapshot_cache_is_capped_by_recency() {
        for workers in [1, 2, 4, 16] {
            let router = Router::new(workers, 1);
            let mut session = router.begin_session();
            // One more instance than the cap; evaluating each in turn parks
            // one snapshot per name.
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
            // The first (coldest) snapshot was evicted: whatif has no
            // resident state for it. The most recent one still answers.
            let probe = |session: &mut Session, name: &str| {
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
                "{workers} workers: {evicted:?}"
            );
            let warm = probe(&mut session, &format!("inst{}", count - 1));
            assert!(matches!(warm, Response::WhatIf { .. }), "{warm:?}");
            let Response::Stats(stats) = router.dispatch(&mut session, Request::Stats) else {
                panic!("stats failed");
            };
            assert_eq!(
                stat_of(&stats, "snapshot-evictions"),
                1,
                "{workers} workers"
            );
            assert_eq!(stat_of(&stats, "snapshot-hits"), 1, "{workers} workers");
        }
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
        let solve = |session: &mut Session, seed: Option<u64>| match router.dispatch(
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
        let explicit_default = solve(&mut session, Some(crate::DEFAULT_HEURISTIC_SEED));
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

    fn v2_stats(router: &Router, session: &mut Session) -> Vec<(String, u64)> {
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
        let evaluate = |session: &mut Session| match router.dispatch(
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
        assert_eq!(router.shared.cache.len(), 0, "unload must purge the cache");
    }

    /// A search-driven `solve … heuristic` adds its evaluator work to the
    /// `whatif-dense`, `whatif-exact` and `mass-row-builds` keys: exactly
    /// the telemetry of the same solve run directly, for every strategy
    /// prefix, H6 included.
    #[test]
    fn search_solves_count_their_evaluator_work() {
        let router = Router::new(1, 1);
        let mut session = router.begin_session();
        router.dispatch(&mut session, Request::Hello { requested: 2 });
        let text = instance_text(12, 5, 3, 7);
        load(&router, &mut session, "x", &text);
        let instance = textio::instance_from_text(&text).unwrap();
        let work = |stats: &[(String, u64)]| {
            (
                stat_of(stats, "whatif-dense") + stat_of(stats, "whatif-exact"),
                stat_of(stats, "mass-row-builds"),
            )
        };
        for prefix in mf_heuristics::STRATEGY_PREFIXES {
            let before = work(&v2_stats(&router, &mut session));
            let response = router.dispatch(
                &mut session,
                Request::Solve {
                    name: "x".into(),
                    method: SolveMethod::Heuristic(prefix.to_string()),
                    seed: Some(1),
                },
            );
            assert!(matches!(response, Response::Solved { .. }), "{response:?}");
            let after = work(&v2_stats(&router, &mut session));
            let (_, telemetry) = mf_heuristics::paper_heuristic(prefix, 1)
                .unwrap()
                .map_traced(&instance)
                .unwrap();
            let eval = telemetry.expect("a search solve reports telemetry").eval;
            let expected = (
                eval.dense_what_ifs + eval.exact_what_ifs,
                eval.mass_row_builds,
            );
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                expected,
                "{prefix}"
            );
            if *prefix == "H6" {
                assert!(expected.0 > 0 && expected.1 > 0, "{expected:?}");
            }
        }
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
        let evaluate = |session: &mut Session| match router.dispatch(
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
        let cache = &router.shared.cache;
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
    fn status_export_reports_v3_and_retired_sweep_keys_read_zero() {
        let router = Router::new(1, 1);
        // status-export reports the complete (v3) counter list as the
        // global block.
        let v3 = router.engines()[0].stats_for(ProtoVersion::V3);
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
        for row in STATS.iter().filter(|row| row.key.starts_with("sweep-")) {
            assert_eq!(stat_of(&stats, row.key), 0, "{}", row.key);
        }
    }
}
