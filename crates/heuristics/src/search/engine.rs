//! The shared search engine: incremental candidate evaluation, specialized-
//! rule preservation, best-so-far tracking and the evaluation budget.
//!
//! Strategies ([`SearchStrategy`](crate::search::SearchStrategy)) never touch
//! the [`IncrementalEvaluator`] directly: they ask the engine whether a move
//! or swap is admissible, what period it would produce, and commit the ones
//! they take. The engine keeps the invariants every strategy relies on:
//!
//! * a specialized seed mapping stays specialized — proposals that would put
//!   two task types on one machine are inadmissible;
//! * the best mapping seen (starting with the seed itself) is snapshotted, so
//!   [`SearchEngine::into_best`] is never worse than the seed, no matter how
//!   far a strategy wandered uphill;
//! * the budget ([`SearchEngine::charge`] / [`SearchEngine::exhausted`])
//!   meters work in *candidate evaluations*, the unit every strategy shares.

use crate::heuristic::HeuristicResult;
use crate::search::sweep::SweepIndex;
use mf_core::incremental::EvalCounters;
use mf_core::prelude::*;
use mf_core::rng::StdRng;
use mf_obs::{ProgressEvent, ProgressSink};

/// Relative slack below which a new period does not count as an improvement
/// (guards against accumulating no-op "improvements" from float noise).
pub const IMPROVEMENT_EPSILON: f64 = 1e-12;

/// Metropolis acceptance: always take improvements, take uphill steps with
/// probability `exp(−Δ/T)` while the temperature is positive.
///
/// Only draws from `rng` when the step is not an improvement and the
/// temperature is positive — callers that rely on reproducible streams (the
/// annealed climb) count on that.
pub fn metropolis(delta: f64, temperature: f64, rng: &mut StdRng) -> bool {
    if delta < -IMPROVEMENT_EPSILON {
        return true;
    }
    if temperature <= f64::EPSILON {
        return false;
    }
    rng.gen_bool((-delta / temperature).exp().clamp(0.0, 1.0))
}

/// Outcome of a large-neighborhood restage probe
/// ([`SearchEngine::restage_greedy`]): the staged period of the candidate
/// and the number of staged placements tried — the budget units the probe
/// consumed, in the same "candidate evaluations" currency every strategy
/// charges in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestageProbe {
    /// Staged period of the restaged mapping.
    pub period: f64,
    /// Staged placements tried while building it.
    pub trials: usize,
}

/// The outcome of committing a move or swap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitOutcome {
    /// The committed (exact, not what-if) period of the new mapping.
    pub period: f64,
    /// `true` when the commit set a new best-so-far period.
    pub improved_best: bool,
}

/// One committed step, as recorded by the (opt-in) commit trace — the
/// observable the search determinism tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStep {
    /// A committed single-task move and the bits of the resulting period.
    Move {
        /// Reassigned task.
        task: usize,
        /// Target machine.
        to: usize,
        /// `f64::to_bits` of the committed period.
        period: u64,
    },
    /// A committed two-task swap and the bits of the resulting period.
    Swap {
        /// First task.
        a: usize,
        /// Second task.
        b: usize,
        /// `f64::to_bits` of the committed period.
        period: u64,
    },
}

/// Shared state of a neighborhood search over one instance.
///
/// Built from a seed mapping, driven by a strategy, harvested with
/// [`SearchEngine::into_best`].
pub struct SearchEngine<'a> {
    instance: &'a Instance,
    eval: IncrementalEvaluator<'a>,
    /// Whether the *seed* was specialized — if so, every proposal must keep
    /// the mapping specialized.
    specialized: bool,
    /// The task type a machine currently serves (`None` when idle). Tracked
    /// even for general seeds so commits stay cheap.
    machine_type: Vec<Option<TaskTypeId>>,
    /// Number of tasks currently hosted per machine.
    tasks_on: Vec<usize>,
    current: f64,
    best: f64,
    best_mapping: Mapping,
    steps: usize,
    max_steps: usize,
    /// Evaluator commit count after the last commit attempt (no-op applies
    /// do not commit, so the count — not the call — is the commit signal).
    commit_count: u64,
    /// Opt-in record of every committed step (for differential pinning).
    trace: Option<Vec<CommitStep>>,
    /// Opt-in live observer of the run (see
    /// [`set_progress_sink`](Self::set_progress_sink)). Never consulted for
    /// decisions, so an attached sink cannot change search results.
    progress: Option<&'a mut dyn ProgressSink>,
    /// The admissible-candidate index of the sweeping strategies, kept
    /// between sweeps so its buffers are reused.
    sweep: SweepIndex,
    /// Restage scratch, reused across probes: staged machine loads, their
    /// suffix maxima, rechained task demands and type claims.
    stage_load: Vec<f64>,
    stage_suffix: Vec<f64>,
    stage_demand: Vec<f64>,
    stage_claimed: Vec<Option<TaskTypeId>>,
}

/// The first maximum of `loads` in index order — the value the evaluators'
/// tournament trees report (they keep the lower index on ties, which only
/// shows in the sign of a zero). `NEG_INFINITY` when `loads` is empty.
#[inline]
fn first_max(loads: &[f64]) -> f64 {
    let mut max = f64::NEG_INFINITY;
    for &load in loads {
        if load > max {
            max = load;
        }
    }
    max
}

impl<'a> SearchEngine<'a> {
    /// Builds an engine over `instance`, starting from `mapping`, with a
    /// budget of `max_steps` candidate evaluations.
    pub fn new(
        instance: &'a Instance,
        mapping: &Mapping,
        max_steps: usize,
    ) -> HeuristicResult<Self> {
        let app = instance.application();
        let m = instance.machine_count();
        let specialized = instance.is_specialized(mapping);
        let eval = IncrementalEvaluator::new(instance, mapping)?;
        let mut machine_type: Vec<Option<TaskTypeId>> = vec![None; m];
        let mut tasks_on = vec![0usize; m];
        for task in app.tasks() {
            let u = mapping.machine_of(task.id).index();
            tasks_on[u] += 1;
            machine_type[u] = Some(task.ty);
        }
        let current = eval.period().value();
        Ok(SearchEngine {
            instance,
            eval,
            specialized,
            machine_type,
            tasks_on,
            current,
            best: current,
            best_mapping: mapping.clone(),
            steps: 0,
            max_steps,
            commit_count: 0,
            trace: None,
            progress: None,
            sweep: SweepIndex::default(),
            stage_load: Vec::new(),
            stage_suffix: Vec::new(),
            stage_demand: Vec::new(),
            stage_claimed: Vec::new(),
        })
    }

    /// The instance being searched.
    #[inline]
    pub fn instance(&self) -> &'a Instance {
        self.instance
    }

    /// Number of tasks.
    #[inline]
    pub fn tasks(&self) -> usize {
        self.instance.task_count()
    }

    /// Number of machines.
    #[inline]
    pub fn machines(&self) -> usize {
        self.instance.machine_count()
    }

    /// `true` when the seed mapping was specialized (and therefore every
    /// proposal is filtered through the specialized rule).
    #[inline]
    pub fn preserves_specialization(&self) -> bool {
        self.specialized
    }

    /// The machine currently executing a task.
    #[inline]
    pub fn machine_of(&self, task: TaskId) -> MachineId {
        self.eval.machine_of(task)
    }

    /// The period of the current (last committed) mapping.
    #[inline]
    pub fn current_period(&self) -> f64 {
        self.current
    }

    /// The best period seen so far (never worse than the seed's).
    #[inline]
    pub fn best_period(&self) -> f64 {
        self.best
    }

    /// Candidate evaluations consumed so far.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Consumes `amount` units of budget (saturating).
    #[inline]
    pub fn charge(&mut self, amount: usize) {
        self.steps = self.steps.saturating_add(amount);
    }

    /// `true` once the evaluation budget is spent.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.steps >= self.max_steps
    }

    /// Number of tasks the committed mapping puts on `machine`.
    #[inline]
    pub(crate) fn tasks_on(&self, machine: MachineId) -> usize {
        self.tasks_on[machine.index()]
    }

    /// The task type `machine` serves in the committed mapping (`None` when
    /// idle; meaningful for specialized seeds only).
    #[inline]
    pub(crate) fn machine_type(&self, machine: MachineId) -> Option<TaskTypeId> {
        self.machine_type[machine.index()]
    }

    /// Rebuilds the admissible-candidate index from the committed state and
    /// hands it to `walk` together with the engine. The index describes the
    /// state at the call, so `walk` must not commit.
    pub(crate) fn with_sweep_index<R>(
        &mut self,
        walk: impl FnOnce(&mut Self, &SweepIndex) -> R,
    ) -> R {
        let mut index = std::mem::take(&mut self.sweep);
        index.rebuild(self);
        let result = walk(self, &index);
        self.sweep = index;
        result
    }

    /// `true` when moving `task` to `to` is admissible: a real change, and —
    /// for specialized seeds — one that keeps the mapping specialized.
    pub fn allows_move(&self, task: TaskId, to: MachineId) -> bool {
        let from = self.eval.machine_of(task);
        if to == from {
            return false;
        }
        if self.specialized {
            let ty = self.instance.application().task_type(task);
            let u = to.index();
            if self.machine_type[u] != Some(ty) && self.tasks_on[u] > 0 {
                return false;
            }
        }
        true
    }

    /// `true` when exchanging the machines of `a` and `b` is admissible.
    /// Same-type swaps keep both machines' types; cross-type swaps are only
    /// specialized when both machines host a single task (they exchange their
    /// dedications).
    pub fn allows_swap(&self, a: TaskId, b: TaskId) -> bool {
        if a == b {
            return false;
        }
        let (ua, ub) = (self.eval.machine_of(a), self.eval.machine_of(b));
        if ua == ub {
            return false;
        }
        if self.specialized {
            let app = self.instance.application();
            let (ta, tb) = (app.task_type(a), app.task_type(b));
            if ta != tb && !(self.tasks_on[ua.index()] == 1 && self.tasks_on[ub.index()] == 1) {
                return false;
            }
        }
        true
    }

    /// What-if period of moving `task` to `to` (state untouched). Callers are
    /// expected to [`charge`](Self::charge) for the evaluation.
    pub fn evaluate_move(&mut self, task: TaskId, to: MachineId) -> HeuristicResult<f64> {
        Ok(self.eval.evaluate_move(task, to)?.period.value())
    }

    /// What-if period of swapping the machines of `a` and `b`.
    pub fn evaluate_swap(&mut self, a: TaskId, b: TaskId) -> HeuristicResult<f64> {
        Ok(self.eval.evaluate_swap(a, b)?.period.value())
    }

    /// Takes the bounded-what-if probe of `task` (see [`TaskProbe`]) for
    /// [`probe_move`](Self::probe_move) and [`probe_swap`](Self::probe_swap).
    /// It stays valid until the next commit. Taking it warms the task's mass
    /// row, so sweeps take it at the task's first candidate.
    pub fn probe_task(&mut self, task: TaskId) -> HeuristicResult<TaskProbe> {
        Ok(self.eval.probe_task(task)?)
    }

    /// What-if period of moving the probed task to `to`, or `None` when it
    /// is `>= bound` — for sweeps that only keep candidates strictly below
    /// their incumbent. Most losing candidates are settled from the
    /// critical machine alone, without a machine scan; a `Some` period is
    /// bit-identical to [`evaluate_move`](Self::evaluate_move). Callers
    /// charge for the evaluation as for an unbounded one.
    #[inline]
    pub fn probe_move(
        &mut self,
        probe: &TaskProbe,
        to: MachineId,
        bound: Option<f64>,
    ) -> HeuristicResult<Option<f64>> {
        let evaluation = probe.move_below(&mut self.eval, to, bound)?;
        Ok(evaluation.map(|e| e.period.value()))
    }

    /// What-if period of swapping the machines of the probed task and `b`,
    /// or `None` when it is `>= bound` (see [`probe_move`](Self::probe_move)).
    #[inline]
    pub fn probe_swap(
        &mut self,
        probe: &TaskProbe,
        b: TaskId,
        bound: Option<f64>,
    ) -> HeuristicResult<Option<f64>> {
        let evaluation = probe.swap_below(&mut self.eval, b, bound)?;
        Ok(evaluation.map(|e| e.period.value()))
    }

    /// The underlying evaluator's diagnostics counters (dense/exact what-if
    /// split, commits, mass-row churn).
    #[inline]
    pub fn evaluator_counters(&self) -> EvalCounters {
        self.eval.counters()
    }

    /// Starts recording every committed step (see [`CommitStep`]); used by
    /// the tests that pin search determinism.
    pub fn enable_commit_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The committed steps recorded since
    /// [`enable_commit_trace`](Self::enable_commit_trace) (empty when
    /// tracing is off).
    pub fn commit_trace(&self) -> &[CommitStep] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Attaches a live progress observer: every real commit is reported as
    /// a [`ProgressEvent::Commit`] (mirroring the commit trace, plus the
    /// incumbent-improved verdict). The sink is write-only — search
    /// decisions, budgets and results are bit-identical with or without it.
    pub fn set_progress_sink(&mut self, sink: &'a mut dyn ProgressSink) {
        self.progress = Some(sink);
    }

    /// Number of tasks strictly upstream of `task` — the size of the subtree
    /// a restage probe tears out (0 for sources, where a restage degenerates
    /// to a plain move).
    #[inline]
    pub fn subtree_size(&self, task: TaskId) -> usize {
        let (start, end) = self.eval.topology().subtree_span(task);
        end - start
    }

    /// Tears `task`'s strict subtree (its Euler-tour mass row) plus the
    /// task's own contribution out of the committed loads, then restages the
    /// whole span on the same machines with `task` itself on `to`: every
    /// upstream demand rescales by the one factor ratio the move induces, so
    /// the restage is one flat `O(m)` pass adding the ratio-scaled row (its
    /// non-zero entries) to the torn loads instead of a full re-evaluate.
    /// Returns the staged period (within 1e-9 of a full recompute; the LNS
    /// differential test pins this). `to == machine_of(task)` restages in
    /// place and returns the current period up to staging noise.
    ///
    /// `to` must be `task`'s current machine or a target
    /// [`allows_move`](Self::allows_move) accepts; the staged period of any
    /// other target describes a mapping the search may not commit.
    pub fn restage_move(&mut self, task: TaskId, to: MachineId) -> f64 {
        let inst = self.instance;
        let from = self.eval.machine_of(task);
        let demand = self.eval.demand_of(task);
        let ratio = inst.factor(task, to) / inst.factor(task, from);
        let own_old = demand * inst.time(task, from);
        let own_new = demand * ratio * inst.time(task, to);
        let (from, to) = (from.index(), to.index());
        let loads = &mut self.stage_load;
        loads.clear();
        loads.extend_from_slice(self.eval.loads());
        let row = self.eval.subtree_mass_row(task);
        // Per machine, the same float operations in the same order as
        // tearing the row and the root out, then staging the scaled row and
        // the root on `to`.
        let mut period = f64::NEG_INFINITY;
        for (u, (&load, &mass)) in loads.iter().zip(row).enumerate() {
            let mut staged = load - mass;
            if u == from {
                staged -= own_old;
            }
            let scaled = mass * ratio;
            if scaled != 0.0 {
                staged += scaled;
            }
            if u == to {
                staged += own_new;
            }
            if staged > period {
                period = staged;
            }
        }
        period.max(0.0)
    }

    /// The full large-neighborhood probe: tears `root`'s strict subtree out
    /// of the committed loads, lands `root` on `to`, then re-places every
    /// subtree member greedily (consumers before producers, so each member's
    /// rechained demand is exact) on the machine minimising the staged
    /// period among its admissible targets. `plan` receives the `(task,
    /// machine)` moves that differ from the committed mapping, in a commit
    /// order that keeps demands consistent; the probe itself never mutates
    /// engine state.
    ///
    /// Each member costs two flat `O(m)` passes over the staged loads: one
    /// right-to-left for suffix maxima, then one left-to-right trying every
    /// admissible machine, whose staged period is the larger of the prefix
    /// maximum, its own loaded value and the suffix maximum after it. A
    /// trial leaves its machine at `(load + c) − c`, exactly as a staged
    /// place/unplace pair would.
    ///
    /// Specialized seeds stay specialized: members only land on machines
    /// already dedicated to their type (including ones the plan itself
    /// dedicates) or on idle machines, the same rule
    /// [`allows_move`](Self::allows_move) enforces at commit time.
    ///
    /// # Panics
    ///
    /// `to` must be `root`'s current machine or a target
    /// [`allows_move`](Self::allows_move) accepts. Any other target may
    /// claim the only machine a member is admissible on, and the probe
    /// panics when it finds no machine for that member.
    pub fn restage_greedy(
        &mut self,
        root: TaskId,
        to: MachineId,
        plan: &mut Vec<(TaskId, MachineId)>,
    ) -> RestageProbe {
        plan.clear();
        let inst = self.instance;
        let app = inst.application();
        let m = inst.machine_count();
        let from = self.eval.machine_of(root);
        let demand_root = self.eval.demand_of(root);
        let own_old = demand_root * inst.time(root, from);
        let loads = &mut self.stage_load;
        loads.clear();
        loads.extend_from_slice(self.eval.loads());
        let row = self.eval.subtree_mass_row(root);
        for (load, &mass) in loads.iter_mut().zip(row) {
            *load -= mass;
        }
        loads[from.index()] -= own_old;
        let mut trials = 0usize;

        // The root lands on `to`; its demand rescales by the factor ratio.
        let out_demand_root = demand_root / inst.factor(root, from);
        loads[to.index()] += out_demand_root * inst.effective_time(root, to);
        trials += 1;
        if to != from {
            plan.push((root, to));
        }

        // Rechained demand of the already-placed tasks (root + members).
        let demand_new = &mut self.stage_demand;
        demand_new.resize(inst.task_count(), 0.0);
        demand_new[root.index()] = out_demand_root * inst.factor(root, to);
        // Type claims the plan has made so far, seeded from the committed
        // dedication map — the conservative specialized filter.
        let claimed = &mut self.stage_claimed;
        claimed.clone_from(&self.machine_type);
        if self.specialized {
            claimed[to.index()] = Some(app.task_type(root));
        }
        let suffix = &mut self.stage_suffix;
        suffix.resize(m + 1, f64::NEG_INFINITY);
        // Members in consumer-first order (reversed tour slice: every task's
        // successor has a later tour position, so it is processed first and
        // its rechained demand is available).
        for &s in self.eval.topology().strict_subtree(root).iter().rev() {
            let s = TaskId(s as usize);
            let ty = app.task_type(s);
            let succ = app
                .successor(s)
                .expect("strict-subtree members have a successor");
            let out_demand = demand_new[succ.index()];
            // `suffix[u]`: the first maximum of `loads[u..]`.
            for u in (0..m).rev() {
                suffix[u] = if loads[u] >= suffix[u + 1] {
                    loads[u]
                } else {
                    suffix[u + 1]
                };
            }
            let mut prefix = f64::NEG_INFINITY;
            let mut best: Option<(f64, MachineId, f64)> = None;
            for u in 0..m {
                let claim = claimed[u];
                if !(self.specialized && claim.is_some() && claim != Some(ty)) {
                    let v = MachineId(u);
                    let contribution = out_demand * inst.effective_time(s, v);
                    let placed = loads[u] + contribution;
                    let mut period = prefix;
                    if placed > period {
                        period = placed;
                    }
                    if suffix[u + 1] > period {
                        period = suffix[u + 1];
                    }
                    let period = period.max(0.0);
                    loads[u] = placed - contribution;
                    trials += 1;
                    let better = match best {
                        None => true,
                        Some((incumbent, _, _)) => period < incumbent - IMPROVEMENT_EPSILON,
                    };
                    if better {
                        best = Some((period, v, contribution));
                    }
                }
                if loads[u] > prefix {
                    prefix = loads[u];
                }
            }
            // An admissible machine always exists: the member's own machine
            // is dedicated to its type.
            let (_, v, contribution) =
                best.expect("the member's current machine is always admissible");
            loads[v.index()] += contribution;
            demand_new[s.index()] = out_demand * inst.factor(s, v);
            if self.specialized {
                claimed[v.index()] = Some(ty);
            }
            if v != self.eval.machine_of(s) {
                plan.push((s, v));
            }
        }
        RestageProbe {
            period: first_max(loads).max(0.0),
            trials,
        }
    }

    /// Records a commit attempt in the opt-in trace; `step` builds the trace
    /// record lazily. Returns whether a real commit happened (no-op applies
    /// return `false`).
    fn after_commit(&mut self, step: impl FnOnce() -> CommitStep) -> bool {
        let commits = self.eval.counters().commits;
        if commits == self.commit_count {
            return false;
        }
        self.commit_count = commits;
        if let Some(trace) = &mut self.trace {
            trace.push(step());
        }
        true
    }

    /// Reports a real commit to the attached progress sink, if any.
    fn emit_progress(&mut self, swap: bool, a: usize, b: usize, outcome: &CommitOutcome) {
        let Some(sink) = self.progress.as_deref_mut() else {
            return;
        };
        sink.emit(ProgressEvent::Commit {
            swap,
            a: a as u64,
            b: b as u64,
            period_bits: outcome.period.to_bits(),
            improved: outcome.improved_best,
        });
    }

    /// Commits a move, updating the type bookkeeping, the current period and
    /// the best-so-far snapshot. The returned period is the exact committed
    /// one (what-ifs on chains are ratio-scaled and may differ by a few ulp —
    /// `best` must never understate).
    pub fn commit_move(&mut self, task: TaskId, to: MachineId) -> HeuristicResult<CommitOutcome> {
        let from = self.eval.machine_of(task);
        let ty = self.instance.application().task_type(task);
        let committed = self.eval.apply_move(task, to)?.period.value();
        let real_commit = self.after_commit(|| CommitStep::Move {
            task: task.index(),
            to: to.index(),
            period: committed.to_bits(),
        });
        if from != to {
            self.tasks_on[from.index()] -= 1;
            if self.tasks_on[from.index()] == 0 {
                self.machine_type[from.index()] = None;
            }
            self.tasks_on[to.index()] += 1;
            self.machine_type[to.index()] = Some(ty);
        }
        let outcome = self.record(committed);
        if real_commit {
            self.emit_progress(false, task.index(), to.index(), &outcome);
        }
        Ok(outcome)
    }

    /// Commits a swap of the machines of `a` and `b`.
    pub fn commit_swap(&mut self, a: TaskId, b: TaskId) -> HeuristicResult<CommitOutcome> {
        let (ua, ub) = (self.eval.machine_of(a), self.eval.machine_of(b));
        let app = self.instance.application();
        let (ta, tb) = (app.task_type(a), app.task_type(b));
        let committed = self.eval.apply_swap(a, b)?.period.value();
        let real_commit = self.after_commit(|| CommitStep::Swap {
            a: a.index(),
            b: b.index(),
            period: committed.to_bits(),
        });
        if ua != ub && ta != tb {
            self.machine_type[ua.index()] = Some(tb);
            self.machine_type[ub.index()] = Some(ta);
        }
        let outcome = self.record(committed);
        if real_commit {
            self.emit_progress(true, a.index(), b.index(), &outcome);
        }
        Ok(outcome)
    }

    fn record(&mut self, committed: f64) -> CommitOutcome {
        self.current = committed;
        let improved_best = committed < self.best - IMPROVEMENT_EPSILON;
        if improved_best {
            self.best = committed;
            self.best_mapping = self.eval.mapping();
        }
        CommitOutcome {
            period: committed,
            improved_best,
        }
    }

    /// Materialises the current (last committed) assignment — which may be
    /// worse than [`into_best`](Self::into_best) when the strategy accepted
    /// uphill steps.
    pub fn current_mapping(&self) -> Mapping {
        self.eval.mapping()
    }

    /// The best mapping seen (the seed itself if nothing improved on it).
    pub fn into_best(self) -> Mapping {
        self.best_mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h4_family::H4wFastestMachine;
    use crate::Heuristic;

    fn instance() -> Instance {
        let app = Application::linear_chain(&[0, 1, 0, 1]).unwrap();
        let platform = Platform::from_type_times(
            3,
            vec![vec![100.0, 200.0, 400.0], vec![300.0, 150.0, 250.0]],
        )
        .unwrap();
        let failures = FailureModel::uniform(4, 3, FailureRate::new(0.05).unwrap());
        Instance::new(app, platform, failures).unwrap()
    }

    #[test]
    fn budget_is_metered_and_saturates() {
        let inst = instance();
        let seed = H4wFastestMachine.map(&inst).unwrap();
        let mut engine = SearchEngine::new(&inst, &seed, 3).unwrap();
        assert!(!engine.exhausted());
        engine.charge(2);
        assert!(!engine.exhausted());
        engine.charge(usize::MAX);
        assert!(engine.exhausted());
        assert_eq!(engine.steps(), usize::MAX);
    }

    #[test]
    fn specialized_filters_apply_and_commits_update_bookkeeping() {
        let inst = instance();
        let seed = H4wFastestMachine.map(&inst).unwrap();
        assert!(inst.is_specialized(&seed));
        let mut engine = SearchEngine::new(&inst, &seed, 100).unwrap();
        assert!(engine.preserves_specialization());
        // Self-moves and same-machine swaps are never admissible.
        let t0 = TaskId(0);
        assert!(!engine.allows_move(t0, engine.machine_of(t0)));
        assert!(!engine.allows_swap(t0, t0));
        // Every admissible committed move keeps the mapping specialized.
        for t in 0..inst.task_count() {
            for u in 0..inst.machine_count() {
                let (task, to) = (TaskId(t), MachineId(u));
                if engine.allows_move(task, to) {
                    engine.commit_move(task, to).unwrap();
                    assert!(inst.is_specialized(&engine.current_mapping()));
                }
            }
        }
    }

    #[test]
    fn best_is_never_worse_than_the_seed() {
        let inst = instance();
        let seed = H4wFastestMachine.map(&inst).unwrap();
        let seed_period = inst.period(&seed).unwrap().value();
        let mut engine = SearchEngine::new(&inst, &seed, 100).unwrap();
        // Commit a few arbitrary (possibly degrading) admissible moves.
        for t in 0..inst.task_count() {
            for u in 0..inst.machine_count() {
                let (task, to) = (TaskId(t), MachineId(u));
                if engine.allows_move(task, to) {
                    engine.commit_move(task, to).unwrap();
                }
            }
        }
        let best = engine.best_period();
        let mapping = engine.into_best();
        let final_period = inst.period(&mapping).unwrap().value();
        assert!(final_period <= seed_period + 1e-9);
        assert!((final_period - best).abs() <= 1e-9 * best.max(1.0));
    }

    #[test]
    fn progress_sink_mirrors_the_commit_trace_and_changes_nothing() {
        use crate::search::SearchStrategy;
        use crate::search::SteepestDescent;
        use mf_obs::ProgressEvent;

        let inst = instance();
        let seed = H4wFastestMachine.map(&inst).unwrap();

        let mut reference = SearchEngine::new(&inst, &seed, 10_000).unwrap();
        reference.enable_commit_trace();
        SteepestDescent::default().run(&mut reference).unwrap();
        let steps: Vec<CommitStep> = reference.commit_trace().to_vec();
        let reference_best = reference.into_best();

        let mut sink = Vec::new();
        let mut observed = SearchEngine::new(&inst, &seed, 10_000).unwrap();
        observed.set_progress_sink(&mut sink);
        SteepestDescent::default().run(&mut observed).unwrap();
        let observed_best = observed.into_best();

        // The sink is write-only: identical result with or without it.
        assert_eq!(observed_best, reference_best);

        // Every commit event mirrors the commit-trace step exactly.
        let commits: Vec<(bool, u64, u64, u64)> = sink
            .iter()
            .filter_map(|event| match *event {
                ProgressEvent::Commit {
                    swap,
                    a,
                    b,
                    period_bits,
                    ..
                } => Some((swap, a, b, period_bits)),
                _ => None,
            })
            .collect();
        let expected: Vec<(bool, u64, u64, u64)> = steps
            .iter()
            .map(|step| match *step {
                CommitStep::Move { task, to, period } => (false, task as u64, to as u64, period),
                CommitStep::Swap { a, b, period } => (true, a as u64, b as u64, period),
            })
            .collect();
        assert!(!expected.is_empty(), "the fixture must commit something");
        assert_eq!(commits, expected);
    }

    #[test]
    fn metropolis_accepts_improvements_and_respects_zero_temperature() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(metropolis(-1.0, 0.0, &mut rng));
        assert!(!metropolis(1.0, 0.0, &mut rng));
        // Positive temperature: uphill steps are sometimes taken.
        let taken = (0..1000).filter(|_| metropolis(1.0, 2.0, &mut rng)).count();
        assert!(taken > 200 && taken < 900, "exp(-0.5) ≈ 0.61, got {taken}");
    }
}
