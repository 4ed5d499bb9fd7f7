//! The answer checker. After the timed phase, and untimed, it re-derives
//! every recorded answer from the library:
//!
//! * `evaluate`/`whatif` periods, critical machines and loads match a
//!   local [`IncrementalEvaluator`] (and `evaluate` a local
//!   [`Instance::period`]) bit for bit;
//! * `solve … heuristic` answers equal `paper_heuristic(name, seed).map`;
//! * portfolio answers re-evaluate to the answered period and repeat
//!   exactly whenever the same request is sent again;
//! * anytime reports are monotone, the final mapping re-evaluates to the
//!   answered period, and proven answers equal a packing-bound
//!   `branch_and_bound` optimum.
//!
//! A mismatch counts as a failed request. Answers past the second cycle of
//! a client's stream are not recorded: the load generator compares each
//! with the answer a cycle earlier as it arrives (see
//! [`ClientRun`](crate::loadgen::ClientRun)).

use crate::workload::{Plan, Step};
use mf_core::{IncrementalEvaluator, Instance, MachineId, Mapping, TaskId};
use mf_exact::{branch_and_bound, BnbConfig};
use mf_server::proto::{request_to_text, GapReport, Probe, Request, Response, SolveMethod};
use mf_server::{ClientError, DEFAULT_HEURISTIC_SEED};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Relative tolerance of the exact solvers' optimality proofs.
const PROOF_TOLERANCE: f64 = 1e-9;

/// Answer-quality sums over the checked solve answers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    /// Σ answered period ÷ H4w period, over heuristic and portfolio solves.
    pub ratio_sum: f64,
    /// Solves in `ratio_sum`.
    pub ratio_count: u64,
    /// Anytime answers.
    pub anytime: u64,
    /// Anytime answers proven optimal.
    pub proven: u64,
    /// Σ final relative gap of the anytime answers.
    pub gap_sum: f64,
}

impl Quality {
    /// Folds another client's sums in.
    pub fn merge(&mut self, other: &Quality) {
        self.ratio_sum += other.ratio_sum;
        self.ratio_count += other.ratio_count;
        self.anytime += other.anytime;
        self.proven += other.proven;
        self.gap_sum += other.gap_sum;
    }
}

/// What the checker found in one client's log.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Round trips whose answer was an error, missing, or wrong.
    pub failed: u64,
    /// The first failure, for the report on stderr.
    pub first_failure: Option<String>,
    /// Answer quality of the solves.
    pub quality: Quality,
}

/// Checks one client's answers, in the order it sent its requests: the
/// warm-up answers followed by the timed ones.
pub fn check_client(plan: &Plan, client: usize, warm: &[Answer], timed: &[Answer]) -> Verdict {
    let mut checker = Checker::new(plan);
    let mut verdict = Verdict::default();
    let answers = warm.iter().chain(timed);
    for (step, answer) in plan.sequence(client, timed.len()).zip(answers) {
        if let Err(detail) = checker.check(step, answer, &mut verdict.quality) {
            verdict.failed += 1;
            if verdict.first_failure.is_none() {
                let request = request_to_text(&step.request).unwrap_or_default();
                let head = request.lines().next().unwrap_or_default();
                verdict.first_failure = Some(format!("client {client} `{head}`: {detail}"));
            }
        }
    }
    verdict
}

/// One recorded answer. Cheap answers are kept as a digest, so a long run's
/// log stays small; solve answers, which the checker validates rather than
/// predicts, and error answers are kept in full.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// [`digest_of`] the response.
    Digest(u64),
    /// The response itself (boxed: most answers are digests).
    Full(Box<Response>),
    /// The transport failed.
    Failed(Box<str>),
}

impl Answer {
    /// Records a client call's outcome.
    pub fn record(outcome: Result<Response, ClientError>) -> Answer {
        match outcome {
            Ok(response) if keep_in_full(&response) => Answer::Full(Box::new(response)),
            Ok(response) => Answer::Digest(digest_of(&response)),
            Err(error) => Answer::Failed(error.to_string().into()),
        }
    }
}

fn keep_in_full(response: &Response) -> bool {
    match response {
        Response::Batch(items) => items.iter().any(keep_in_full),
        Response::Evaluated { .. }
        | Response::WhatIf { .. }
        | Response::Loaded { .. }
        | Response::Unloaded { .. } => false,
        _ => true,
    }
}

/// A 64-bit digest of a response's exact content (floats by bit pattern).
pub fn digest_of(response: &Response) -> u64 {
    fn feed(hasher: &mut DefaultHasher, response: &Response) {
        match response {
            Response::Batch(items) => {
                0u8.hash(hasher);
                items.len().hash(hasher);
                items.iter().for_each(|item| feed(hasher, item));
            }
            Response::Evaluated {
                period,
                critical,
                loads,
            } => {
                1u8.hash(hasher);
                period.to_bits().hash(hasher);
                critical.hash(hasher);
                loads.iter().for_each(|l| l.to_bits().hash(hasher));
            }
            Response::WhatIf { period, critical } => {
                2u8.hash(hasher);
                period.to_bits().hash(hasher);
                critical.hash(hasher);
            }
            other => {
                3u8.hash(hasher);
                format!("{other:?}").hash(hasher);
            }
        }
    }
    let mut hasher = DefaultHasher::new();
    feed(&mut hasher, response);
    hasher.finish()
}

/// (instance, resident mapping fingerprint, (move 0 / swap 1, a, b)).
type WhatIfKey = (usize, u64, (u8, usize, usize));

/// The session state the server keeps for one client, replayed locally.
struct Checker<'p> {
    plan: &'p Plan,
    /// Resident instance per name.
    current: HashMap<String, &'p Instance>,
    /// The session's resident mapping (and its fingerprint) per name.
    resident: HashMap<String, (u64, Mapping)>,
    /// One evaluator per instance, at the resident mapping it was built on.
    evaluators: HashMap<usize, (u64, IncrementalEvaluator<'p>)>,
    /// Evaluated mapping (fingerprint, mapping, answer) per (instance, payload).
    evaluations: HashMap<(usize, u64), (u64, Mapping, Response)>,
    /// What-if answers per (instance, resident fingerprint, probe).
    whatifs: HashMap<WhatIfKey, Response>,
    heuristics: HashMap<(usize, String, u64), (String, Mapping, u64)>,
    /// First answer of every portfolio/anytime request, by request text.
    repeats: HashMap<String, Response>,
    optima: HashMap<usize, f64>,
}

fn address(instance: &Instance) -> usize {
    instance as *const Instance as usize
}

fn payload_hash(payload: &[String]) -> u64 {
    let mut hasher = DefaultHasher::new();
    payload.hash(&mut hasher);
    hasher.finish()
}

fn ensure(condition: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(detail())
    }
}

impl<'p> Checker<'p> {
    fn new(plan: &'p Plan) -> Checker<'p> {
        Checker {
            plan,
            current: plan
                .fixtures
                .iter()
                .map(|f| (f.name.clone(), &*f.instance))
                .collect(),
            resident: HashMap::new(),
            evaluators: HashMap::new(),
            evaluations: HashMap::new(),
            whatifs: HashMap::new(),
            heuristics: HashMap::new(),
            repeats: HashMap::new(),
            optima: HashMap::new(),
        }
    }

    fn check(&mut self, step: &Step, answer: &Answer, quality: &mut Quality) -> Result<(), String> {
        let actual = match answer {
            Answer::Failed(error) => return Err(format!("transport: {error}")),
            Answer::Full(response) => Some(&**response),
            Answer::Digest(_) => None,
        };
        let expected = match (&step.request, actual) {
            (Request::Batch(items), Some(Response::Batch(answers))) => {
                ensure(items.len() == answers.len(), || {
                    format!("{} answers to {} items", answers.len(), items.len())
                })?;
                let expected = items
                    .iter()
                    .zip(answers)
                    .map(|(item, answer)| self.expect(item, Some(answer), quality))
                    .collect::<Result<_, _>>()?;
                Response::Batch(expected)
            }
            (Request::Batch(items), None) => Response::Batch(
                items
                    .iter()
                    .map(|item| self.expect(item, None, quality))
                    .collect::<Result<_, _>>()?,
            ),
            (request, actual) => self.expect(request, actual, quality)?,
        };
        let same = match answer {
            Answer::Full(response) => **response == expected,
            Answer::Digest(digest) => digest_of(&expected) == *digest,
            Answer::Failed(_) => false,
        };
        ensure(same, || {
            format!("answered {answer:?}, expected {expected:?}")
        })
    }

    fn instance(&self, name: &str) -> Result<&'p Instance, String> {
        self.current
            .get(name)
            .copied()
            .ok_or_else(|| format!("`{name}` is not resident in the local model"))
    }

    /// The answer the server must give to `request`, advancing the local
    /// session model. Solve answers are validated against the library
    /// rather than predicted, so they need the recorded answer itself.
    fn expect(
        &mut self,
        request: &Request,
        actual: Option<&Response>,
        quality: &mut Quality,
    ) -> Result<Response, String> {
        if let Some(Response::Error { code, detail }) = actual {
            return Err(format!("err {} {detail}", code.token()));
        }
        match request {
            Request::Load { name, payload } => {
                let instance = self
                    .plan
                    .loadable
                    .get(payload)
                    .ok_or("load payload not in the plan")?;
                self.current.insert(name.clone(), &**instance);
                self.resident.remove(name);
                Ok(Response::Loaded {
                    name: name.clone(),
                    tasks: instance.task_count(),
                    machines: instance.machine_count(),
                    types: instance.type_count(),
                })
            }
            Request::Unload { name } => {
                self.current.remove(name);
                self.resident.remove(name);
                Ok(Response::Unloaded { name: name.clone() })
            }
            Request::Evaluate { name, payload } => self.expect_evaluate(name, payload),
            Request::WhatIf { name, probe } => self.expect_what_if(name, *probe),
            Request::Solve { name, method, seed } => {
                let response = actual.ok_or("solve answers are recorded in full")?;
                let instance = self.instance(name)?;
                let h4w_period = self.plan.fixture(name).map(|f| f.h4w_period);
                match method {
                    SolveMethod::Heuristic(requested) => {
                        self.check_heuristic(instance, requested, *seed, response)?;
                    }
                    SolveMethod::Portfolio | SolveMethod::Anytime { .. } => {
                        self.check_repeat(request, response)?;
                        if let SolveMethod::Anytime { budget } = method {
                            self.check_anytime(
                                instance,
                                budget.unwrap_or(u64::MAX),
                                response,
                                quality,
                            )?;
                        }
                    }
                }
                let (period, mapping) = solved_mapping(response)?;
                let built = IncrementalEvaluator::new(instance, &mapping)
                    .map_err(|e| format!("answered mapping does not evaluate: {e}"))?;
                ensure(built.period().value().to_bits() == period.to_bits(), || {
                    format!(
                        "answered period {period} != re-evaluated {}",
                        built.period().value()
                    )
                })?;
                if let (Response::Solved { .. }, Some(reference)) = (response, h4w_period) {
                    quality.ratio_sum += period / reference;
                    quality.ratio_count += 1;
                }
                self.resident
                    .insert(name.clone(), (mapping.fingerprint(), mapping));
                Ok(response.clone())
            }
            other => Err(format!("the mixes never send `{}`", other.keyword())),
        }
    }

    fn expect_evaluate(&mut self, name: &str, payload: &[String]) -> Result<Response, String> {
        let instance = self.instance(name)?;
        let key = (address(instance), payload_hash(payload));
        if let Entry::Vacant(slot) = self.evaluations.entry(key) {
            let mapping = mf_core::textio::mapping_from_text(&payload.join("\n"))
                .map_err(|e| format!("plan mapping does not parse: {e}"))?;
            let evaluator = IncrementalEvaluator::new(instance, &mapping)
                .map_err(|e| format!("plan mapping does not evaluate: {e}"))?;
            let period = evaluator.period().value();
            let full = instance
                .period(&mapping)
                .map_err(|e| e.to_string())?
                .value();
            ensure(full.to_bits() == period.to_bits(), || {
                format!("local evaluator {period} != Instance::period {full}")
            })?;
            let answer = Response::Evaluated {
                period,
                critical: evaluator.critical_machine().index(),
                loads: evaluator.loads().to_vec(),
            };
            slot.insert((mapping.fingerprint(), mapping, answer));
        }
        let (fingerprint, mapping, answer) = &self.evaluations[&key];
        self.resident
            .insert(name.to_string(), (*fingerprint, mapping.clone()));
        Ok(answer.clone())
    }

    fn expect_what_if(&mut self, name: &str, probe: Probe) -> Result<Response, String> {
        let instance = self.instance(name)?;
        let (fingerprint, mapping) = self
            .resident
            .get(name)
            .ok_or_else(|| format!("no resident mapping for `{name}` in the local model"))?;
        let probe_key = match probe {
            Probe::Move { task, machine } => (0, task, machine),
            Probe::Swap { a, b } => (1, a, b),
        };
        let key = (address(instance), *fingerprint, probe_key);
        if !self.whatifs.contains_key(&key) {
            let stale = self
                .evaluators
                .get(&address(instance))
                .map_or(true, |(built_for, _)| built_for != fingerprint);
            if stale {
                let evaluator =
                    IncrementalEvaluator::new(instance, mapping).map_err(|e| e.to_string())?;
                self.evaluators
                    .insert(address(instance), (*fingerprint, evaluator));
            }
            let evaluator = &mut self
                .evaluators
                .get_mut(&address(instance))
                .expect("built above")
                .1;
            let evaluation = match probe {
                Probe::Move { task, machine } => {
                    evaluator.evaluate_move(TaskId(task), MachineId(machine))
                }
                Probe::Swap { a, b } => evaluator.evaluate_swap(TaskId(a), TaskId(b)),
            }
            .map_err(|e| format!("local what-if failed: {e}"))?;
            self.whatifs.insert(
                key,
                Response::WhatIf {
                    period: evaluation.period.value(),
                    critical: evaluation.critical_machine.index(),
                },
            );
        }
        Ok(self.whatifs[&key].clone())
    }

    fn check_heuristic(
        &mut self,
        instance: &'p Instance,
        requested: &str,
        seed: Option<u64>,
        response: &Response,
    ) -> Result<(), String> {
        let seed = seed.unwrap_or(DEFAULT_HEURISTIC_SEED);
        let key = (address(instance), requested.to_string(), seed);
        if !self.heuristics.contains_key(&key) {
            let canonical = mf_heuristics::canonical_registry_name(requested)
                .ok_or_else(|| format!("unknown heuristic `{requested}`"))?;
            let heuristic = mf_heuristics::paper_heuristic(&canonical, seed)
                .ok_or("unconstructible heuristic")?;
            let mapping = heuristic.map(instance).map_err(|e| e.to_string())?;
            let period = instance
                .period(&mapping)
                .map_err(|e| e.to_string())?
                .value();
            self.heuristics
                .insert(key.clone(), (canonical, mapping, period.to_bits()));
        }
        let (label, mapping, period) = &self.heuristics[&key];
        let expected = Response::Solved {
            label: label.clone(),
            period: f64::from_bits(*period),
            machines: mapping.machine_count(),
            assignment: mapping.as_slice().iter().map(|u| u.index()).collect(),
        };
        ensure(*response == expected, || {
            format!("heuristic answer differs from the local {label} run")
        })
    }

    /// Portfolio and anytime answers are deterministic: a repeated request
    /// must get the identical answer.
    fn check_repeat(&mut self, request: &Request, response: &Response) -> Result<(), String> {
        let text = request_to_text(request).map_err(|e| e.to_string())?;
        let first = self.repeats.entry(text).or_insert_with(|| response.clone());
        ensure(first == response, || {
            "a repeated request got a different answer".to_string()
        })
    }

    fn check_anytime(
        &mut self,
        instance: &Instance,
        budget: u64,
        response: &Response,
        quality: &mut Quality,
    ) -> Result<(), String> {
        let Response::SolvedAnytime {
            reports, period, ..
        } = response
        else {
            return Err(format!("expected an anytime answer, got {response:?}"));
        };
        check_reports(reports, *period, budget)?;
        let last = reports.last().expect("checked non-empty");
        quality.anytime += 1;
        if last.proven {
            quality.proven += 1;
            let optimum = *self.optima.entry(address(instance)).or_insert_with(|| {
                branch_and_bound(instance, BnbConfig::default())
                    .map(|outcome| outcome.period.value())
                    .unwrap_or(f64::NAN)
            });
            ensure(
                (period - optimum).abs() <= PROOF_TOLERANCE * optimum,
                || format!("proven period {period} != branch-and-bound optimum {optimum}"),
            )?;
        } else {
            quality.gap_sum += ((last.period - last.bound) / last.period).clamp(0.0, 1.0);
        }
        Ok(())
    }
}

/// Anytime report invariants: non-empty, seeded first, monotone, proven
/// only last, within budget, ending on the answered period.
fn check_reports(reports: &[GapReport], period: f64, budget: u64) -> Result<(), String> {
    let first = reports.first().ok_or("no gap reports")?;
    ensure(first.phase == "seed", || {
        format!("first report phase `{}`", first.phase)
    })?;
    for pair in reports.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        ensure(
            b.steps >= a.steps && b.period <= a.period && b.bound >= a.bound && !a.proven,
            || format!("reports not monotone: {a:?} then {b:?}"),
        )?;
    }
    let last = reports.last().expect("non-empty");
    // A capped branch-and-bound counts the node that trips its cap
    // (`nodes > max_nodes` aborts), so a budget-capped run reports one step
    // past its budget.
    ensure(last.steps <= budget.saturating_add(1), || {
        format!("{} steps over a budget of {budget}", last.steps)
    })?;
    ensure(last.period.to_bits() == period.to_bits(), || {
        format!("last report {} != answered period {period}", last.period)
    })
}

fn solved_mapping(response: &Response) -> Result<(f64, Mapping), String> {
    let (period, machines, assignment) = match response {
        Response::Solved {
            period,
            machines,
            assignment,
            ..
        }
        | Response::SolvedAnytime {
            period,
            machines,
            assignment,
            ..
        } => (*period, *machines, assignment),
        other => return Err(format!("expected a solve answer, got {other:?}")),
    };
    let mapping = Mapping::from_indices(assignment, machines).map_err(|e| e.to_string())?;
    Ok((period, mapping))
}
