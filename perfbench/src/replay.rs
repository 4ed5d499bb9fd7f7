//! The traced replay: each workload's seeded request stream, replayed
//! single-threaded in-process, with one span per layer call.
//!
//! Per request, the replay
//!
//! 1. opens a root span `request` carrying the request id;
//! 2. parses the request's wire text (`server.parse`,
//!    [`ProtoReader::read_request`]);
//! 3. answers it itself by calling each layer's public functions — store,
//!    cache, `textio`, the incremental evaluator, the heuristics, the
//!    portfolio, the anytime phases, the LP root bound, the journal — one
//!    span per call (a *replica* of what the engine does, on replica state
//!    of its own);
//! 4. times the owning shard's [`Engine::dispatch`](mf_server::Engine) on a
//!    mirror tier (span `engine`), then the full [`Router::dispatch`] on the
//!    main tier (span `router`);
//! 5. serializes the router's answer (`server.serialize`,
//!    [`response_to_text`]).
//!
//! All three answers must be byte-identical on the wire, which proves the
//! replica did the same work as the dispatch. The replica spans are
//! measured beside — not inside — the engine dispatch they model, and are
//! *attributed* to it as its children: the engine span's self time, named
//! `other`, is its duration minus the replica spans, and the router's self
//! time is the router span minus the engine span. So for every request
//! `router + Σ layers + other = router span`, the dispatch total.
//!
//! Spans stay in memory and are written to one file when the replay ends.

use crate::loadgen::{PROTO_VERSION, SOLVER_THREADS, WORKERS};
use crate::workload::{Plan, Step, CLIENTS};
use mf_core::{
    textio, EvaluatorSnapshot, IncrementalEvaluator, Instance, MachineId, Mapping, MappingKind,
    TaskId,
};
use mf_exact::{branch_and_bound_seeded, lp_root_bound, BnbConfig};
use mf_experiments::anytime::{AnytimeConfig, AnytimePhase};
use mf_experiments::portfolio::{run_portfolio, PortfolioConfig};
use mf_experiments::runner::BatchRunner;
use mf_heuristics::search::{polish_with_telemetry, LnsConfig, SubtreeMoveLns};
use mf_heuristics::{H4wFastestMachine, Heuristic};
use mf_server::engine::Session;
use mf_server::proto::{
    request_to_text, response_to_text, ErrorCode, GapReport, Probe, ProtoReader, Request, Response,
    SolveMethod,
};
use mf_server::{
    CachedEvaluation, EvaluateCache, InstanceStore, Journal, Router, RouterSession,
    DEFAULT_HEURISTIC_SEED,
};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name: `request`, `engine`, `router` or `<layer>.<call>`.
    pub name: &'static str,
    /// Request id (shared by every span of one request).
    pub request: u32,
    /// Span id (unique in the replay).
    pub id: u32,
    /// Parent span id (0: none).
    pub parent: u32,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Runs `f` inside a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.id();
        let start_ns = self.now();
        let value = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            id,
            parent,
            start_ns,
            end_ns,
        });
        value
    }
}

/// Work counts the replica saw (deterministic for a seed).
#[derive(Debug, Default, Clone)]
pub struct ReplicaCounts {
    /// Evaluator calls (dense + exact what-ifs) of heuristic solves.
    pub evaluator_calls: u64,
    /// Sweep-cache (probes, skips) of heuristic solves, by machine count.
    pub sweep: BTreeMap<usize, (u64, u64)>,
    /// Portfolio solves and their summed rounds.
    pub portfolios: u64,
    /// Σ portfolio rounds.
    pub portfolio_rounds: u64,
    /// Branch-and-bound nodes of anytime solves.
    pub nodes: u64,
}

/// What the replay measured.
pub struct Traced {
    /// Requests replayed (warm-up included).
    pub requests: u64,
    /// Requests whose three answers differed, or whose decomposition did
    /// not sum to its dispatch total.
    pub mismatches: u64,
    /// The first mismatch, for stderr.
    pub first_mismatch: Option<String>,
    /// Per span name over measured requests: (calls, total ns).
    pub calls: BTreeMap<&'static str, (u64, u64)>,
    /// Σ router span (the dispatch total), ns.
    pub dispatch_ns: i128,
    /// Σ self time per layer (`router`, `store`, …, `other`), ns.
    pub self_ns: BTreeMap<&'static str, i128>,
    /// Σ root spans, ns.
    pub root_ns: i128,
    /// Σ root self time (the replay's own bookkeeping), ns.
    pub root_self_ns: i128,
    /// Measured requests.
    pub measured: u64,
    /// Per measured request: router span minus engine span, ns.
    pub router_hops: Vec<f64>,
    /// Work counts.
    pub counts: ReplicaCounts,
}

impl Traced {
    /// Mean ns per call of a span name (0 when never called).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .map_or(0.0, |&(calls, ns)| ns as f64 / calls.max(1) as f64)
    }

    /// Total ns of a span name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.calls.get(name).map_or(0, |&(_, ns)| ns)
    }
}

/// The layer a replica span belongs to: its name up to the first dot.
fn layer(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Replica state of one worker shard.
struct Shard {
    store: InstanceStore,
    cache: EvaluateCache,
}

/// Answers requests by calling the layers directly, mirroring the engine.
struct Replica {
    shards: Vec<Shard>,
    journal: Journal,
    runner: BatchRunner,
    /// Per session: resident (generation, snapshot) per name.
    resident: Vec<HashMap<String, (u64, EvaluatorSnapshot)>>,
    counts: ReplicaCounts,
}

fn error(detail: impl std::fmt::Display) -> Response {
    Response::error(ErrorCode::BadRequest, format!("replica: {detail}"))
}

fn span_of_strategy(label: &str) -> &'static str {
    match label {
        "SD" => "heuristics.solve.SD",
        "TS" => "heuristics.solve.TS",
        "H6" => "heuristics.solve.H6",
        "LNS" => "heuristics.solve.LNS",
        _ => "heuristics.solve.other",
    }
}

impl Replica {
    fn answer(
        &mut self,
        shard: usize,
        t: &mut Tracer,
        id: u32,
        parent: u32,
        session: usize,
        request: &Request,
    ) -> Response {
        let name = match request.instance_name() {
            Some(name) => name.to_string(),
            None => return error("only instance commands are replayed"),
        };
        match request {
            Request::Load { payload, .. } => {
                let text = payload.join("\n");
                let instance = match t.time("core.parse_instance", id, parent, || {
                    textio::instance_from_text(&text)
                }) {
                    Ok(instance) => instance,
                    Err(e) => return error(e),
                };
                let store = &self.shards[shard].store;
                let (stored, evicted) = t.time("store.insert", id, parent, || {
                    store.insert_tracked(&name, instance)
                });
                let journal = &self.journal;
                let journaled = t.time("journal.append", id, parent, || {
                    journal
                        .record_load(&name, stored.generation, payload)
                        .and_then(|()| {
                            evicted
                                .iter()
                                .try_for_each(|gone| journal.record_unload(gone))
                        })
                });
                if let Err(e) = journaled {
                    return error(e);
                }
                self.resident[session].remove(&name);
                self.shards[shard].cache.purge(&name);
                Response::Loaded {
                    name,
                    tasks: stored.tasks(),
                    machines: stored.machines(),
                    types: stored.types(),
                }
            }
            Request::Unload { .. } => {
                let store = &self.shards[shard].store;
                if !t.time("store.remove", id, parent, || store.remove(&name)) {
                    return error("unknown instance");
                }
                let journal = &self.journal;
                if let Err(e) = t.time("journal.append", id, parent, || {
                    journal.record_unload(&name)
                }) {
                    return error(e);
                }
                self.resident[session].remove(&name);
                self.shards[shard].cache.purge(&name);
                Response::Unloaded { name }
            }
            Request::Evaluate { payload, .. } => {
                let store = &self.shards[shard].store;
                let Some(stored) = t.time("store.get", id, parent, || store.get(&name)) else {
                    return error("unknown instance");
                };
                let text = payload.join("\n");
                let mapping = match t.time("core.parse_mapping", id, parent, || {
                    textio::mapping_from_text(&text)
                }) {
                    Ok(mapping) => mapping,
                    Err(e) => return error(e),
                };
                if let Err(e) = stored
                    .instance
                    .validate_mapping(&mapping, MappingKind::General)
                {
                    return error(e);
                }
                match self.evaluation(
                    shard,
                    t,
                    id,
                    parent,
                    &name,
                    stored.generation,
                    &stored.instance,
                    &mapping,
                ) {
                    Ok(evaluation) => {
                        self.resident[session]
                            .insert(name, (stored.generation, evaluation.snapshot));
                        Response::Evaluated {
                            period: evaluation.period,
                            critical: evaluation.critical,
                            loads: evaluation.loads,
                        }
                    }
                    Err(e) => error(e),
                }
            }
            Request::WhatIf { probe, .. } => {
                let store = &self.shards[shard].store;
                let Some(stored) = t.time("store.get", id, parent, || store.get(&name)) else {
                    return error("unknown instance");
                };
                let Some((generation, snapshot)) = self.resident[session].remove(&name) else {
                    return error("no resident state");
                };
                if generation != stored.generation {
                    return error("stale resident state");
                }
                let mut evaluator = match t.time("core.resume", id, parent, || {
                    IncrementalEvaluator::resume(&stored.instance, snapshot)
                }) {
                    Ok(evaluator) => evaluator,
                    Err(e) => return error(e),
                };
                let evaluation = t.time("core.whatif", id, parent, || match *probe {
                    Probe::Move { task, machine } => {
                        evaluator.evaluate_move(TaskId(task), MachineId(machine))
                    }
                    Probe::Swap { a, b } => evaluator.evaluate_swap(TaskId(a), TaskId(b)),
                });
                self.resident[session].insert(name, (generation, evaluator.into_snapshot()));
                match evaluation {
                    Ok(evaluation) => Response::WhatIf {
                        period: evaluation.period.value(),
                        critical: evaluation.critical_machine.index(),
                    },
                    Err(e) => error(e),
                }
            }
            Request::Solve { method, seed, .. } => {
                let store = &self.shards[shard].store;
                let Some(stored) = t.time("store.get", id, parent, || store.get(&name)) else {
                    return error("unknown instance");
                };
                let instance = &stored.instance;
                let solved = match method {
                    SolveMethod::Heuristic(requested) => {
                        self.heuristic(t, id, parent, instance, requested, *seed)
                    }
                    SolveMethod::Portfolio => self.portfolio(t, id, parent, instance, *seed),
                    SolveMethod::Anytime { budget } => {
                        self.anytime(t, id, parent, instance, *budget, *seed)
                    }
                };
                let (label, mapping, reports) = match solved {
                    Ok(solved) => solved,
                    Err(e) => return error(e),
                };
                let evaluation = match self.evaluation(
                    shard,
                    t,
                    id,
                    parent,
                    &name,
                    stored.generation,
                    instance,
                    &mapping,
                ) {
                    Ok(evaluation) => evaluation,
                    Err(e) => return error(e),
                };
                self.resident[session].insert(name, (stored.generation, evaluation.snapshot));
                let machines = mapping.machine_count();
                let assignment = mapping.as_slice().iter().map(|u| u.index()).collect();
                match reports {
                    Some(reports) => Response::SolvedAnytime {
                        reports,
                        period: evaluation.period,
                        machines,
                        assignment,
                    },
                    None => Response::Solved {
                        label,
                        period: evaluation.period,
                        machines,
                        assignment,
                    },
                }
            }
            _ => error("not an instance command"),
        }
    }

    /// The engine's keyed-cache evaluation: a lookup, and a build plus an
    /// insert on a miss.
    #[allow(clippy::too_many_arguments)]
    fn evaluation(
        &self,
        shard: usize,
        t: &mut Tracer,
        id: u32,
        parent: u32,
        name: &str,
        generation: u64,
        instance: &Instance,
        mapping: &Mapping,
    ) -> Result<CachedEvaluation, String> {
        let cache = &self.shards[shard].cache;
        let fingerprint = mapping.fingerprint();
        if let Some(hit) = t.time("cache.lookup", id, parent, || {
            cache.lookup(name, generation, fingerprint)
        }) {
            return Ok(hit);
        }
        let evaluator = t
            .time("core.build", id, parent, || {
                IncrementalEvaluator::new(instance, mapping)
            })
            .map_err(|e| e.to_string())?;
        let built = CachedEvaluation {
            period: evaluator.period().value(),
            critical: evaluator.critical_machine().index(),
            loads: evaluator.loads().to_vec(),
            snapshot: evaluator.into_snapshot(),
        };
        cache.insert(name, generation, fingerprint, built.clone());
        Ok(built)
    }

    fn heuristic(
        &mut self,
        t: &mut Tracer,
        id: u32,
        parent: u32,
        instance: &Instance,
        requested: &str,
        seed: Option<u64>,
    ) -> Result<(String, Mapping, Option<Vec<GapReport>>), String> {
        let canonical =
            mf_heuristics::canonical_registry_name(requested).ok_or("unknown heuristic")?;
        let heuristic =
            mf_heuristics::paper_heuristic(&canonical, seed.unwrap_or(DEFAULT_HEURISTIC_SEED))
                .ok_or("unconstructible heuristic")?;
        let (mapping, telemetry) = t
            .time(span_of_strategy(&canonical), id, parent, || {
                heuristic.map_traced(instance)
            })
            .map_err(|e| e.to_string())?;
        if let Some(telemetry) = telemetry {
            self.counts.evaluator_calls +=
                telemetry.eval.dense_what_ifs + telemetry.eval.exact_what_ifs;
            let sweep = self
                .counts
                .sweep
                .entry(instance.machine_count())
                .or_default();
            sweep.0 += telemetry.sweep.probes;
            sweep.1 += telemetry.sweep.skips;
        }
        Ok((canonical, mapping, None))
    }

    fn portfolio(
        &mut self,
        t: &mut Tracer,
        id: u32,
        parent: u32,
        instance: &Instance,
        seed: Option<u64>,
    ) -> Result<(String, Mapping, Option<Vec<GapReport>>), String> {
        let config = PortfolioConfig {
            base_seed: seed.unwrap_or(PortfolioConfig::default().base_seed),
            ..PortfolioConfig::default()
        };
        let runner = &self.runner;
        let outcome = t.time("experiments.portfolio", id, parent, || {
            run_portfolio(instance, &config, runner)
        });
        self.counts.portfolios += 1;
        self.counts.portfolio_rounds += outcome.rounds as u64;
        let label = outcome.winner_label().map(str::to_string);
        match (label, outcome.best_mapping) {
            (Some(label), Some(mapping)) => Ok((label, mapping, None)),
            _ => Err("empty portfolio".to_string()),
        }
    }

    /// The anytime pipeline of `mf_experiments::anytime`, phase by phase.
    fn anytime(
        &mut self,
        t: &mut Tracer,
        id: u32,
        parent: u32,
        instance: &Instance,
        budget: Option<u64>,
        seed: Option<u64>,
    ) -> Result<(String, Mapping, Option<Vec<GapReport>>), String> {
        let mut config = AnytimeConfig::default();
        if let Some(budget) = budget {
            config.step_budget = budget;
        }
        if let Some(seed) = seed {
            config.seed = seed;
        }
        let fail = |e: &dyn std::fmt::Display| e.to_string();
        let (mut mapping, mut incumbent) =
            t.time("experiments.anytime_seed", id, parent, || {
                let mapping = H4wFastestMachine.map(instance).map_err(|e| fail(&e))?;
                let period = instance.period(&mapping).map_err(|e| fail(&e))?.value();
                Ok::<_, String>((mapping, period))
            })?;
        let mut bound = t
            .time("lp.root_bound", id, parent, || root_lower_bound(instance))?
            .min(incumbent);
        let mut steps = 0;
        let mut proven = incumbent <= bound * (1.0 + config.tolerance);
        let mut reports = Vec::new();
        let mut report =
            |phase: AnytimePhase, period: f64, bound: f64, steps: u64, proven: bool| {
                reports.push(GapReport {
                    phase: phase.label().to_string(),
                    steps,
                    period,
                    bound,
                    proven,
                })
            };
        report(AnytimePhase::Seed, incumbent, bound, steps, proven);
        if !proven {
            let slice = (config.step_budget as f64 * config.heuristic_fraction.clamp(0.0, 1.0))
                .floor() as usize;
            if slice > 0 {
                let lns = SubtreeMoveLns::new(LnsConfig {
                    seed: config.seed,
                    ..LnsConfig::default()
                });
                let (polished, telemetry) = t
                    .time("experiments.anytime_lns", id, parent, || {
                        polish_with_telemetry(instance, &mapping, &lns, slice)
                    })
                    .map_err(|e| e.to_string())?;
                steps += telemetry.map_or(0, |t| t.eval.dense_what_ifs + t.eval.exact_what_ifs);
                let polished_period = instance
                    .period(&polished)
                    .map_err(|e| e.to_string())?
                    .value();
                if polished_period < incumbent {
                    mapping = polished;
                    incumbent = polished_period;
                    proven = incumbent <= bound * (1.0 + config.tolerance);
                    report(AnytimePhase::Heuristic, incumbent, bound, steps, proven);
                }
            }
        }
        let remaining = config.step_budget.saturating_sub(steps);
        if !proven && remaining > 0 {
            let bnb = BnbConfig {
                max_nodes: remaining,
                tolerance: config.tolerance,
                lp_bounds: config.lp_bounds,
                ..BnbConfig::default()
            };
            let outcome = t
                .time("experiments.anytime_exact", id, parent, || {
                    branch_and_bound_seeded(instance, bnb, &mapping)
                })
                .map_err(|e| e.to_string())?;
            self.counts.nodes += outcome.nodes;
            steps += outcome.nodes;
            let improved = outcome.period.value() < incumbent;
            if improved {
                mapping = outcome.mapping;
                incumbent = outcome.period.value();
            }
            if outcome.proven_optimal {
                proven = true;
                bound = incumbent;
            }
            if improved || proven {
                report(AnytimePhase::Exact, incumbent, bound, steps, proven);
            }
        }
        Ok(("anytime".to_string(), mapping, Some(reports)))
    }
}

/// The anytime solver's root bound: the LP relaxation when the simplex
/// converges, never below the packing bound.
fn root_lower_bound(instance: &Instance) -> Result<f64, String> {
    let lower_demand = instance.demand_lower_bounds().map_err(|e| e.to_string())?;
    let mut total = 0.0_f64;
    let mut largest = 0.0_f64;
    for task in instance.application().tasks() {
        let demand = match instance.application().successor(task.id) {
            None => 1.0,
            Some(successor) => lower_demand[successor.index()],
        };
        let best = instance
            .platform()
            .machines()
            .map(|u| instance.effective_time(task.id, u))
            .fold(f64::INFINITY, f64::min);
        let contribution = demand * best;
        total += contribution;
        largest = largest.max(contribution);
    }
    let packing = (total / instance.machine_count() as f64).max(largest);
    Ok(lp_root_bound(instance).map_or(packing, |lp| lp.max(packing)))
}

/// The two tiers and the replica, with their sessions.
struct Stacks {
    router: Router,
    sessions: Vec<RouterSession>,
    mirror: Router,
    /// Per session, per shard.
    mirror_sessions: Vec<Vec<Session>>,
    replica: Replica,
}

impl Stacks {
    fn open(dir: &Path) -> Result<Stacks, String> {
        let fresh = |tag: &str| {
            let path = dir.join(tag);
            let _ = std::fs::remove_dir_all(&path);
            path
        };
        let router = Router::with_data_dir(WORKERS, SOLVER_THREADS, fresh("router"))
            .map_err(|e| e.to_string())?;
        let mirror = Router::with_data_dir(WORKERS, SOLVER_THREADS, fresh("mirror"))
            .map_err(|e| e.to_string())?;
        let journal = Journal::open(fresh("replica")).map_err(|e| e.to_string())?;
        // One session per client plus one for the fixture loads.
        let sessions = (0..=CLIENTS)
            .map(|_| {
                let mut session = router.begin_session();
                router.dispatch(
                    &mut session,
                    Request::Hello {
                        requested: PROTO_VERSION,
                    },
                );
                session
            })
            .collect();
        let mirror_sessions = (0..=CLIENTS)
            .map(|_| {
                mirror
                    .engines()
                    .iter()
                    .map(|engine| {
                        let mut session = engine.begin_session();
                        engine.dispatch(
                            &mut session,
                            Request::Hello {
                                requested: PROTO_VERSION,
                            },
                        );
                        session
                    })
                    .collect()
            })
            .collect();
        let replica = Replica {
            shards: (0..WORKERS)
                .map(|_| Shard {
                    store: InstanceStore::new(),
                    cache: EvaluateCache::new(),
                })
                .collect(),
            journal,
            runner: BatchRunner::new(SOLVER_THREADS),
            resident: vec![HashMap::new(); CLIENTS + 1],
            counts: ReplicaCounts::default(),
        };
        Ok(Stacks {
            router,
            sessions,
            mirror,
            mirror_sessions,
            replica,
        })
    }

    fn shard(&self, request: &Request) -> usize {
        request
            .instance_name()
            .map_or(0, |name| self.router.shard_of(name))
    }

    /// The mirror's answer: the owning shard's `Engine::dispatch` (a batch
    /// runs item by item on each item's shard).
    fn mirror_dispatch(&mut self, session: usize, request: Request) -> Response {
        match request {
            Request::Batch(items) => Response::Batch(
                items
                    .into_iter()
                    .map(|item| self.mirror_dispatch(session, item))
                    .collect(),
            ),
            request => {
                let shard = self.shard(&request);
                self.mirror.engines()[shard]
                    .dispatch(&mut self.mirror_sessions[session][shard], request)
            }
        }
    }

    fn replica_answer(
        &mut self,
        t: &mut Tracer,
        id: u32,
        parent: u32,
        session: usize,
        request: &Request,
    ) -> Response {
        match request {
            Request::Batch(items) => Response::Batch(
                items
                    .iter()
                    .map(|item| self.replica_answer(t, id, parent, session, item))
                    .collect(),
            ),
            request => {
                let shard = self.shard(request);
                self.replica.answer(shard, t, id, parent, session, request)
            }
        }
    }
}

/// Replays the fixture loads, then each client's warm-up and first
/// `per_client` pool steps (clients interleaved round-robin), and writes
/// the spans to `spans_path`.
pub fn replay(
    plan: &Plan,
    per_client: usize,
    dir: &Path,
    spans_path: &Path,
) -> Result<Traced, String> {
    let mut stacks = Stacks::open(dir)?;
    let mut t = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        next_id: 0,
    };
    let mut traced = Traced {
        requests: 0,
        mismatches: 0,
        first_mismatch: None,
        calls: BTreeMap::new(),
        dispatch_ns: 0,
        self_ns: BTreeMap::new(),
        root_ns: 0,
        root_self_ns: 0,
        measured: 0,
        router_hops: Vec::new(),
        counts: ReplicaCounts::default(),
    };
    let loads: Vec<Step> = plan
        .fixture_loads()
        .into_iter()
        .map(|request| Step {
            request,
            mix: Default::default(),
        })
        .collect();
    let mut order: Vec<(usize, &Step, bool)> = loads.iter().map(|s| (CLIENTS, s, false)).collect();
    let longest_warmup = plan.warmup.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest_warmup {
        for client in 0..CLIENTS {
            if let Some(step) = plan.warmup[client].get(i) {
                order.push((client, step, false));
            }
        }
    }
    for i in 0..per_client {
        for client in 0..CLIENTS {
            let stream = &plan.streams[client];
            order.push((client, &stream[i % stream.len()], true));
        }
    }
    for (request_id, (session, step, measured)) in order.into_iter().enumerate() {
        let id = request_id as u32 + 1;
        traced.requests += 1;
        let first_span = t.spans.len();
        let root = t.id();
        let root_start = t.now();
        let wire = request_to_text(&step.request).map_err(|e| e.to_string())?;
        let parsed = t
            .time("server.parse", id, root, || {
                ProtoReader::new(wire.as_bytes()).read_request()
            })
            .map_err(|e| e.to_string())?
            .ok_or("empty request text")?;
        let engine = t.id();
        let expected = stacks.replica_answer(&mut t, id, engine, session, &parsed);
        let mirrored = parsed.clone();
        let engine_start = t.now();
        let mirrored = stacks.mirror_dispatch(session, mirrored);
        let engine_end = t.now();
        t.spans.push(Span {
            name: "engine",
            request: id,
            id: engine,
            parent: root,
            start_ns: engine_start,
            end_ns: engine_end,
        });
        let Stacks {
            router, sessions, ..
        } = &mut stacks;
        let routed = t.time("router", id, root, || {
            router.dispatch(&mut sessions[session], parsed)
        });
        let text = t
            .time("server.serialize", id, root, || response_to_text(&routed))
            .map_err(|e| e.to_string())?;
        let root_end = t.now();
        t.spans.push(Span {
            name: "request",
            request: id,
            id: root,
            parent: 0,
            start_ns: root_start,
            end_ns: root_end,
        });

        let same =
            |response: &Response| response_to_text(response).is_ok_and(|other| other == text);
        let mut problem = None;
        if matches!(routed, Response::Error { .. }) || !same(&expected) || !same(&mirrored) {
            problem = Some(format!(
                "request {id} `{}`: router {:?} / engine {:?} / replica {:?}",
                wire.lines().next().unwrap_or_default(),
                first_line(&text),
                response_to_text(&mirrored).map(|t| first_line(&t)),
                response_to_text(&expected).map(|t| first_line(&t)),
            ));
        }
        if measured {
            if let Err(detail) = account(&mut traced, &t.spans[first_span..], root, engine) {
                problem.get_or_insert(format!("request {id}: {detail}"));
            }
        }
        if let Some(problem) = problem {
            traced.mismatches += 1;
            traced.first_mismatch.get_or_insert(problem);
        }
    }
    traced.counts = stacks.replica.counts.clone();
    write_spans(spans_path, &t.spans).map_err(|e| format!("writing spans: {e}"))?;
    drop(stacks);
    let _ = std::fs::remove_dir_all(dir);
    Ok(traced)
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or_default().to_string()
}

/// Folds one request's spans into the totals and checks its
/// decomposition: router self + Σ replica layers + other = dispatch.
fn account(traced: &mut Traced, spans: &[Span], root: u32, engine: u32) -> Result<(), String> {
    let span = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.ns() as i128)
    };
    let dispatch = span("router");
    let engine_ns = span("engine");
    let root_ns = span("request");
    let mut layers: BTreeMap<&'static str, i128> = BTreeMap::new();
    let mut replicas = 0i128;
    let mut children = 0i128;
    for s in spans {
        if s.id != root {
            children += s.ns() as i128;
            let entry = traced.calls.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.ns();
        }
        if s.parent == engine {
            replicas += s.ns() as i128;
            *layers.entry(layer(s.name)).or_default() += s.ns() as i128;
        }
    }
    layers.insert("router", dispatch - engine_ns);
    layers.insert("other", engine_ns - replicas);
    let sum: i128 = layers.values().sum();
    if sum != dispatch {
        return Err(format!(
            "layers sum to {sum} ns, dispatch took {dispatch} ns"
        ));
    }
    for (name, ns) in layers {
        *traced.self_ns.entry(name).or_default() += ns;
    }
    traced.router_hops.push((dispatch - engine_ns) as f64);
    traced.dispatch_ns += dispatch;
    traced.root_ns += root_ns;
    traced.root_self_ns += root_ns - children;
    traced.measured += 1;
    Ok(())
}

/// Writes the spans, one per line: request, id, parent, name, start, end.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.request, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
