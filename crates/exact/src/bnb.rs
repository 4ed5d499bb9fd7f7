//! Combinatorial branch-and-bound for the specialized-mapping problem.
//!
//! This solver plays the role of ILOG CPLEX in the paper's experiments
//! (Figures 10–12): it computes the **optimal specialized mapping** of small
//! instances, and degrades gracefully (reporting a non-proven incumbent) when
//! its node budget is exhausted — mirroring the paper's observation that the
//! MIP "is not able to find solutions anymore" beyond ~15 tasks.
//!
//! The search walks the application backwards (so every task's product demand
//! is exact at placement time, just like the heuristics), branches on the
//! admissible machines of the current task and prunes with two bounds:
//!
//! * the current maximum machine load (a valid lower bound on any completion);
//! * a packing bound: the final total load is at least the current total plus,
//!   for every remaining task, its smallest possible contribution on any
//!   machine; dividing by `m` bounds the final makespan from below.
//!
//! Node scoring goes through a per-search-path
//! [`PartialAssignmentEvaluator`]: placements and backtracks update the
//! staged machine loads in `O(log m)` and the load-maximum bound is read in
//! `O(1)` from its tournament tree.
//!
//! The incumbent is seeded with the H4w heuristic so that pruning is effective
//! from the first node.

use mf_core::prelude::*;
use mf_heuristics::{H4wFastestMachine, Heuristic};
use mf_lp::SlackForm;

/// Feasibility tolerance of the warm-reuse test on an ancestor's optimum.
const REUSE_TOLERANCE: f64 = 1e-9;

/// Configuration of the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnbConfig {
    /// Maximum number of search nodes (task placements explored).
    pub max_nodes: u64,
    /// Relative optimality tolerance: a node is pruned when its bound is not
    /// better than `incumbent · (1 − tolerance)`.
    pub tolerance: f64,
    /// Prune with the load-splitting LP relaxation on top of the packing
    /// bound (see `LpBoundState`'s module comments): each node that the
    /// packing bound fails to prune solves an LP over its free placements
    /// whose optimum certifiably dominates it, or reuses the nearest
    /// ancestor's optimum when that is still feasible. The explored tree
    /// shrinks (dramatically on `m ≫ p` instances); the optimum found is
    /// unchanged. Off by default — on small trees the packing bound alone
    /// is cheaper: in `BENCH_core.json` an LP-bounded node costs 0.88 µs
    /// (`bnb_prove/lp_bound`) and a packing node 0.091 µs.
    pub lp_bounds: bool,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            max_nodes: 20_000_000,
            tolerance: 1e-9,
            lp_bounds: false,
        }
    }
}

impl BnbConfig {
    /// A configuration with a custom node budget.
    pub fn with_node_budget(max_nodes: u64) -> Self {
        BnbConfig {
            max_nodes,
            ..Default::default()
        }
    }
}

/// Result of the branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbOutcome {
    /// The best specialized mapping found.
    pub mapping: Mapping,
    /// Its period.
    pub period: Period,
    /// `true` if the search finished and the mapping is proven optimal.
    pub proven_optimal: bool,
    /// Number of nodes explored.
    pub nodes: u64,
    /// LP relaxations solved from scratch (0 unless
    /// [`BnbConfig::lp_bounds`]).
    pub lp_solves: u64,
    /// LP bounds answered by reusing the nearest ancestor's still-feasible
    /// optimum (zero simplex pivots).
    pub lp_reuses: u64,
    /// Simplex pivots summed over the `lp_solves` relaxations.
    pub lp_pivots: u64,
}

/// The filtered load-splitting LP relaxation driving
/// [`BnbConfig::lp_bounds`].
///
/// Variables: `x[i][u] ≥ 0` — the fraction of task `i` carried by machine
/// `u` — and the makespan `K`. Rows:
///
/// * per machine `u`: `Σ_i c[i][u]·x[i][u] − K ≤ −δ_u`, where `c[i][u]` is
///   task `i`'s *lower-bound* contribution on `u` (its mapping-independent
///   output-demand lower bound times the effective time) and `δ_u`
///   accumulates, for every task already seated on `u`, the gap between its
///   exact staged contribution and `c`;
/// * per task `i`: `Σ_u x[i][u] = 1`.
///
/// Unfiltered (the root call of [`lp_root_bound`]), the minimum `K` is a
/// certified lower bound on every mapping's period, dominating the packing
/// bound `(total_load + Σ remaining min-contributions)/m` (sum the machine
/// rows). Inside the search the relaxation is *filtered* in the
/// Lenstra–Shmoys–Tardos style against the incumbent threshold `θ =
/// incumbent·(1−tolerance)`: a placement `(i, u)` with `load_u + c[i][u] ≥
/// θ`, or on a machine dedicated to another type, cannot appear in any
/// specialized completion beating the incumbent, so `x[i][u]` is fixed to
/// zero. The filtered optimum lower-bounds every completion better than the
/// threshold it was filtered at, so `optimum ≥ θ` — or outright
/// infeasibility — proves no such completion exists and prunes the node.
/// This is far stronger than the unfiltered splitting bound: remaining
/// tasks can no longer escape fractionally onto machines they could never
/// integrally use.
///
/// Seats (a task fixed to its machine) and filters are plain state arrays.
/// Each node solves the **compact** problem over the free placements only:
/// seated tasks leave the LP and their exact staged load (`c` plus the
/// clamped correction) moves into their machine row's right-hand side, and
/// fixed-to-zero placements are dropped. The tableau therefore shrinks with
/// depth instead of growing a bound row per fixed variable. The compact
/// problem is also rewritten around each task's cheapest free placement and
/// the reference assignment's makespan (see [`bound`](Self::bound)) so that
/// every row is a `≤` with a non-negative right-hand side: the simplex
/// starts from the all-slack basis and never runs phase 1. Optima are
/// mapped back to the full `n·m + 1` space, where the warm-reuse test runs:
/// walking down the search path only tightens the relaxation (loads only
/// grow and the threshold only drops, so ancestors' filters stay valid), so
/// an ancestor's optimum that still satisfies the current node's full
/// problem is provably still optimal and costs no simplex work — which
/// happens exactly when the branched placement was already integral in it.
#[derive(Default)]
struct LpBoundState {
    /// Lower-bound contribution `c[i][u]`, row-major `task · m + machine`.
    costs: Vec<f64>,
    /// Per task, the machine it is seated on and that seat's correction.
    seats: Vec<Option<(usize, f64)>>,
    /// Whether a placement is currently filtered out (fixed to zero).
    filtered: Vec<bool>,
    /// Current correction `δ_u` per machine.
    corrections: Vec<f64>,
    /// Placements filtered on the current search path, in filter order.
    undo: Vec<usize>,
    machines: usize,
    /// The workspace and buffers of [`bound`](Self::bound), kept across nodes.
    lp: SlackForm,
    columns: Vec<(usize, usize, usize)>,
    ones: Vec<usize>,
    loads: Vec<f64>,
    solves: u64,
    reuses: u64,
    pivots: u64,
}

/// Verdict of one [`LpBoundState::bound`] call.
enum LpVerdict {
    /// The relaxation's optimum lower-bounds every completion beating the
    /// threshold the filters were applied at. `solved` is true when a fresh
    /// solve wrote its full-space optimum into the caller's buffer, false
    /// when the ancestor's optimum was reused.
    Bound { objective: f64, solved: bool },
    /// The filtered relaxation is infeasible: no completion can beat the
    /// incumbent threshold. Prune.
    Infeasible,
    /// The simplex failed (iteration cap); fall back to the cheap bounds.
    Unavailable,
}

impl LpBoundState {
    fn new(instance: &Instance) -> Result<Self> {
        let n = instance.task_count();
        let m = instance.machine_count();
        let lower_demand = instance.demand_lower_bounds()?;
        let app = instance.application();
        let mut costs = vec![0.0; n * m];
        for i in 0..n {
            let task = TaskId(i);
            let d = match app.successor(task) {
                None => 1.0,
                Some(succ) => lower_demand[succ.index()],
            };
            for u in 0..m {
                costs[i * m + u] = d * instance.effective_time(task, MachineId(u));
            }
        }
        Ok(LpBoundState {
            costs,
            seats: vec![None; n],
            filtered: vec![false; n * m],
            corrections: vec![0.0; m],
            machines: m,
            ..LpBoundState::default()
        })
    }

    /// Seats `task` on `machine` with the exact staged contribution
    /// `increment`.
    fn seat(&mut self, task: TaskId, machine: MachineId, increment: f64) {
        let (i, w) = (task.index(), machine.index());
        // The exact contribution is at least the lower-bound cost; clamp the
        // correction at zero so float noise can never *loosen* a row.
        let correction = (increment - self.costs[i * self.machines + w]).max(0.0);
        self.corrections[w] += correction;
        self.seats[i] = Some((w, correction));
    }

    /// Reverts one [`seat`](Self::seat).
    fn unseat(&mut self, task: TaskId) {
        if let Some((w, correction)) = self.seats[task.index()].take() {
            self.corrections[w] -= correction;
        }
    }

    /// The value placement `j` is fixed to — `1` on a seated task's machine,
    /// `0` elsewhere on a seated task or when filtered — or `None` when free.
    fn fixed_value(&self, j: usize) -> Option<f64> {
        match self.seats[j / self.machines] {
            Some((w, _)) => Some(if j % self.machines == w { 1.0 } else { 0.0 }),
            None if self.filtered[j] => Some(0.0),
            None => None,
        }
    }

    /// Applies the incumbent filters at a node: every still-free placement
    /// `(i, u)` that no specialized completion beating `threshold` can use —
    /// its machine is dedicated to another type, or its exact load floor
    /// `load_u + c[i][u]` already reaches the threshold — is fixed to zero.
    /// Each is pushed on the undo stack for [`undo_filters`](Self::undo_filters)
    /// (ancestor filters stay valid deeper: loads only grow and the
    /// threshold only drops, so they are left in place for the subtree).
    fn apply_filters(&mut self, instance: &Instance, state: &PartialState, threshold: f64) {
        let app = instance.application();
        for i in 0..instance.task_count() {
            if state.assignment[i].is_some() {
                continue;
            }
            let ty = app.task_type(TaskId(i));
            for u in 0..self.machines {
                let j = i * self.machines + u;
                if self.filtered[j] {
                    continue;
                }
                let dedicated_elsewhere =
                    matches!(state.machine_type[u], Some(existing) if existing != ty);
                let cannot_fit = state.loads.load_of(MachineId(u)) + self.costs[j] >= threshold;
                if dedicated_elsewhere || cannot_fit {
                    self.filtered[j] = true;
                    self.undo.push(j);
                }
            }
        }
    }

    /// Reverts every [`apply_filters`](Self::apply_filters) since the undo
    /// stack stood at `mark`.
    fn undo_filters(&mut self, mark: usize) {
        for j in self.undo.drain(mark..) {
            self.filtered[j] = false;
        }
    }

    /// Whether an ancestor's full-space optimum satisfies the current
    /// relaxation within [`REUSE_TOLERANCE`]. Only bounds and machine rows
    /// move down a search path; the task rows never change, so the
    /// ancestor's optimum still satisfies them.
    fn admits(&self, values: &[f64]) -> bool {
        let (n, m) = (self.seats.len(), self.machines);
        let k = values[n * m];
        let bounds = k >= -REUSE_TOLERANCE
            && values[..n * m]
                .iter()
                .enumerate()
                .all(|(j, &x)| match self.fixed_value(j) {
                    Some(v) => x >= v - REUSE_TOLERANCE && x <= v + REUSE_TOLERANCE,
                    None => x >= -REUSE_TOLERANCE,
                });
        bounds
            && (0..m).all(|u| {
                let lhs: f64 = (0..n)
                    .map(|i| self.costs[i * m + u] * values[i * m + u])
                    .chain(std::iter::once(-k))
                    .sum();
                lhs <= -self.corrections[u] + REUSE_TOLERANCE
            })
    }

    /// Bounds the current node: reuses `hint` — the nearest ancestor's
    /// full-space optimum — when it is still feasible, otherwise solves the
    /// compact relaxation over the free placements from scratch, writing
    /// its full-space optimum into `values`.
    ///
    /// The compact relaxation is stated so that every row is a `≤` with a
    /// non-negative right-hand side, which lets the simplex start from the
    /// all-slack basis without a phase 1. Each unseated task `i` takes its
    /// cheapest free placement `r(i)` as a reference (lowest index on
    /// ties), and `x_r(i) = 1 − Σ x_j` over its other free placements turns
    /// the task row into `Σ x_j ≤ 1` (dropped when `r(i)` is the only one).
    /// With `L_u` the seated plus reference load of machine `u` and
    /// `K̄ = max_u L_u` — the reference assignment's makespan, so capping
    /// `K` there loses nothing — `K = K̄ − s` turns machine row `u` into
    /// `Σ_j (c_j on u) x_j − Σ_j (c_r(i) on u) x_j + s ≤ K̄ − L_u`, and the
    /// bound is `K̄` minus the largest feasible `s`.
    fn bound(&mut self, hint: Option<&[f64]>, values: &mut Vec<f64>) -> LpVerdict {
        if let Some(hint) = hint.filter(|hint| self.admits(hint)) {
            self.reuses += 1;
            return LpVerdict::Bound {
                objective: hint[hint.len() - 1],
                solved: false,
            };
        }
        let (n, m) = (self.seats.len(), self.machines);
        // Non-reference free placements in row-major order, each with its
        // task's reference placement and task row; every machine starts
        // from its seated and reference loads, and those placements start
        // at 1 in the full-space optimum.
        self.columns.clear();
        self.ones.clear();
        self.loads.clone_from(&self.corrections);
        let mut task_rows = 0;
        for (i, seat) in self.seats.iter().enumerate() {
            if let Some((w, _)) = *seat {
                self.loads[w] += self.costs[i * m + w];
                self.ones.push(i * m + w);
                continue;
            }
            let free = (i * m..(i + 1) * m).filter(|&j| !self.filtered[j]);
            let reference = free
                .clone()
                .reduce(|r, j| if self.costs[j] < self.costs[r] { j } else { r });
            let Some(r) = reference else {
                return LpVerdict::Infeasible;
            };
            self.loads[r % m] += self.costs[r];
            self.ones.push(r);
            let start = self.columns.len();
            let row = m + task_rows;
            self.columns
                .extend(free.filter(|&j| j != r).map(|j| (j, r, row)));
            task_rows += usize::from(self.columns.len() > start);
        }
        let k_bar = self.loads.iter().copied().fold(0.0, f64::max);

        // Maximise `s`, the last column: machine rows first, then task rows.
        let s = self.columns.len();
        self.lp.reset(s + 1, m + task_rows);
        self.lp.set_objective(s, 1.0);
        for (c, &(j, r, row)) in self.columns.iter().enumerate() {
            self.lp.add_coefficient(j % m, c, self.costs[j]);
            self.lp.add_coefficient(r % m, c, -self.costs[r]);
            self.lp.add_coefficient(row, c, 1.0);
        }
        for (u, &load) in self.loads.iter().enumerate() {
            self.lp.add_coefficient(u, s, 1.0);
            self.lp.set_rhs(u, k_bar - load);
        }
        for row in m..m + task_rows {
            self.lp.set_rhs(row, 1.0);
        }

        match self.lp.solve() {
            Ok(solution) => {
                self.solves += 1;
                self.pivots += solution.iterations as u64;
                values.clear();
                values.resize(n * m + 1, 0.0);
                for &j in &self.ones {
                    values[j] = 1.0;
                }
                for (&(j, r, _), &x) in self.columns.iter().zip(&solution.values) {
                    values[j] = x;
                    values[r] -= x;
                }
                let objective = k_bar - solution.objective;
                values[n * m] = objective;
                LpVerdict::Bound {
                    objective,
                    solved: true,
                }
            }
            // Every row starts feasible at the all-slack basis, so the only
            // failures left are numerical ones.
            Err(_) => LpVerdict::Unavailable,
        }
    }
}

struct SearchContext<'a> {
    instance: &'a Instance,
    /// Tasks in placement (reverse topological) order.
    order: Vec<TaskId>,
    /// Per task, the smallest possible contribution `d_min · w/(1−f)` over all
    /// machines, where `d_min` uses the most reliable downstream machines.
    min_contribution: Vec<f64>,
    /// One reusable candidate buffer per depth — the recursion at depth `d`
    /// only ever touches buffer `d`, so nodes allocate nothing.
    candidate_scratch: Vec<Vec<(MachineId, f64)>>,
    /// One reusable LP optimum buffer per depth (none without the LP
    /// bound): a fresh solve at depth `d` writes buffer `d`, which then
    /// serves as the hint of `d`'s subtree.
    lp_scratch: Vec<Vec<f64>>,
    config: BnbConfig,
    best_period: f64,
    best_mapping: Option<Vec<MachineId>>,
    nodes: u64,
    aborted: bool,
    /// The incrementally tightened LP relaxation (when
    /// [`BnbConfig::lp_bounds`] is on).
    lp: Option<LpBoundState>,
}

struct PartialState {
    assignment: Vec<Option<MachineId>>,
    machine_type: Vec<Option<TaskTypeId>>,
    /// Staged per-machine loads, running total and load maximum — the
    /// per-search-path incremental evaluator.
    loads: PartialAssignmentEvaluator,
    demand: Vec<f64>,
    free_machines: usize,
    remaining_per_type: Vec<usize>,
    seated: Vec<bool>,
}

impl PartialState {
    fn new(instance: &Instance) -> Self {
        let n = instance.task_count();
        let m = instance.machine_count();
        let p = instance.type_count();
        let mut remaining_per_type = vec![0usize; p];
        for task in instance.application().tasks() {
            remaining_per_type[task.ty.index()] += 1;
        }
        PartialState {
            assignment: vec![None; n],
            machine_type: vec![None; m],
            loads: PartialAssignmentEvaluator::new(m),
            demand: vec![0.0; n],
            free_machines: m,
            remaining_per_type,
            seated: vec![false; p],
        }
    }

    fn output_demand(&self, instance: &Instance, task: TaskId) -> f64 {
        match instance.application().successor(task) {
            None => 1.0,
            Some(succ) => self.demand[succ.index()],
        }
    }

    fn unseated_count(&self) -> usize {
        self.remaining_per_type
            .iter()
            .zip(&self.seated)
            .filter(|(&r, &s)| r > 0 && !s)
            .count()
    }

    fn admissible(&self, instance: &Instance, task: TaskId, machine: MachineId) -> bool {
        let ty = instance.application().task_type(task);
        match self.machine_type[machine.index()] {
            Some(existing) => existing == ty,
            None => {
                if self.seated[ty.index()] {
                    self.free_machines > self.unseated_count()
                } else {
                    true
                }
            }
        }
    }
}

impl<'a> SearchContext<'a> {
    fn search(
        &mut self,
        depth: usize,
        state: &mut PartialState,
        remaining_min: f64,
        lp_inherited: f64,
        lp_hint: Option<&[f64]>,
    ) {
        if self.aborted {
            return;
        }
        // Test before counting, so a capped search reports `max_nodes`.
        if self.nodes >= self.config.max_nodes {
            self.aborted = true;
            return;
        }
        self.nodes += 1;

        if depth == self.order.len() {
            let period = state.loads.period().value();
            if period < self.best_period {
                self.best_period = period;
                self.best_mapping = Some(
                    state
                        .assignment
                        .iter()
                        .map(|a| a.expect("complete"))
                        .collect(),
                );
            }
            return;
        }

        // Cheap bounds first: max load, packing, and the LP value inherited
        // from an ancestor. The ancestor's filtered optimum lower-bounds
        // every completion beating the threshold it was filtered at (≥ the
        // current one), so comparing it against the current threshold is a
        // sound prune.
        let m = self.instance.machine_count() as f64;
        let packing_bound = (state.loads.total_load() + remaining_min) / m;
        let bound = state
            .loads
            .period()
            .value()
            .max(packing_bound)
            .max(lp_inherited);
        if bound >= self.best_period * (1.0 - self.config.tolerance) {
            return;
        }

        // LP tier, only consulted when the cheap bounds failed to prune:
        // filter the relaxation against the incumbent, then reuse the nearest
        // ancestor optimum or solve the compact relaxation. The filters stay
        // applied for the whole subtree (they only get more valid deeper)
        // and are undone on backtrack. A simplex failure falls back to the
        // cheap bounds — pruning less is always sound.
        let mut node_values = self
            .lp_scratch
            .get_mut(depth)
            .map(std::mem::take)
            .unwrap_or_default();
        let mut node_solved = false;
        let mut lp_bound = lp_inherited;
        let mut node_mark = None;
        if let Some(lp) = self.lp.as_mut() {
            let threshold = self.best_period * (1.0 - self.config.tolerance);
            let mark = lp.undo.len();
            lp.apply_filters(self.instance, state, threshold);
            let pruned = match lp.bound(lp_hint, &mut node_values) {
                LpVerdict::Bound { objective, solved } => {
                    lp_bound = lp_bound.max(objective);
                    node_solved = solved;
                    lp_bound >= threshold
                }
                LpVerdict::Infeasible => true,
                LpVerdict::Unavailable => false,
            };
            if pruned {
                lp.undo_filters(mark);
                self.lp_scratch[depth] = node_values;
                return;
            }
            node_mark = Some(mark);
        }
        let child_hint = if node_solved {
            Some(node_values.as_slice())
        } else {
            lp_hint
        };

        let task = self.order[depth];
        let ty = self.instance.application().task_type(task);
        let demand = state.output_demand(self.instance, task);
        let next_remaining_min = remaining_min - self.min_contribution[depth];

        // Candidate machines, cheapest incremental load first so that good
        // incumbents appear early in the depth-first search.
        let mut candidates = std::mem::take(&mut self.candidate_scratch[depth]);
        candidates.clear();
        candidates.extend(
            self.instance
                .platform()
                .machines()
                .filter(|&u| state.admissible(self.instance, task, u))
                .map(|u| (u, demand * self.instance.effective_time(task, u))),
        );
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        for &(machine, increment) in &candidates {
            let u = machine.index();
            // Apply.
            let was_free = state.machine_type[u].is_none();
            if was_free {
                state.machine_type[u] = Some(ty);
                state.free_machines -= 1;
            }
            let was_seated = state.seated[ty.index()];
            state.seated[ty.index()] = true;
            state.remaining_per_type[ty.index()] -= 1;
            let x = demand * self.instance.factor(task, machine);
            state.demand[task.index()] = x;
            state.loads.place(machine, increment);
            state.assignment[task.index()] = Some(machine);
            if let Some(lp) = self.lp.as_mut() {
                lp.seat(task, machine, increment);
            }

            self.search(depth + 1, state, next_remaining_min, lp_bound, child_hint);

            // Undo.
            if let Some(lp) = self.lp.as_mut() {
                lp.unseat(task);
            }
            state.assignment[task.index()] = None;
            state.loads.unplace();
            state.demand[task.index()] = 0.0;
            state.remaining_per_type[ty.index()] += 1;
            state.seated[ty.index()] = was_seated;
            if was_free {
                state.machine_type[u] = None;
                state.free_machines += 1;
            }
            if self.aborted {
                break;
            }
        }
        if let (Some(lp), Some(mark)) = (self.lp.as_mut(), node_mark) {
            lp.undo_filters(mark);
        }
        self.candidate_scratch[depth] = candidates;
        if let Some(slot) = self.lp_scratch.get_mut(depth) {
            *slot = node_values;
        }
    }
}

/// Finds the optimal specialized mapping of an instance by branch-and-bound.
///
/// Returns an error if the instance admits no specialized mapping at all
/// (more task types than machines).
pub fn branch_and_bound(instance: &Instance, config: BnbConfig) -> Result<BnbOutcome> {
    // Seed the incumbent with H4w (the paper's best heuristic); fall back to
    // any greedy placement if it fails, and bail out if nothing is feasible.
    let seed = H4wFastestMachine
        .map(instance)
        .map_err(|_| ModelError::NotEnoughMachines {
            machines: instance.machine_count(),
            required: instance.type_count(),
        })?;
    branch_and_bound_seeded(instance, config, &seed)
}

/// [`branch_and_bound`] with a caller-supplied incumbent instead of the H4w
/// seed. The anytime solver uses this to hand the exact phase whatever its
/// heuristic phase found: a tighter incumbent prunes more of the tree, and
/// the search can only return a mapping at least as good as `seed`.
///
/// `seed` must be a **specialized** mapping of `instance` (one type per
/// machine) — branch-and-bound enumerates specialized mappings only, so a
/// general seed could undercut every specialized completion and make the
/// search return the seed itself as a false "proven optimum".
pub fn branch_and_bound_seeded(
    instance: &Instance,
    config: BnbConfig,
    seed: &Mapping,
) -> Result<BnbOutcome> {
    let seed_period = instance.period(seed)?.value();

    // Smallest possible contribution of every task, paired with the placement
    // order. Demand lower bounds are mapping-independent.
    let order = instance.application().reverse_topological_order();
    let lower_demand = instance.demand_lower_bounds()?;
    let min_contribution: Vec<f64> = order
        .iter()
        .map(|&task| {
            let d = match instance.application().successor(task) {
                None => 1.0,
                Some(succ) => lower_demand[succ.index()],
            };
            let best_eff = instance
                .platform()
                .machines()
                .map(|u| instance.effective_time(task, u))
                .fold(f64::INFINITY, f64::min);
            d * best_eff
        })
        .collect();
    let total_min: f64 = min_contribution.iter().sum();

    let depths = order.len();
    let mut context = SearchContext {
        instance,
        order,
        min_contribution,
        candidate_scratch: vec![Vec::with_capacity(instance.machine_count()); depths],
        lp_scratch: vec![Vec::new(); if config.lp_bounds { depths } else { 0 }],
        config,
        best_period: seed_period,
        best_mapping: Some(seed.as_slice().to_vec()),
        nodes: 0,
        aborted: false,
        lp: if config.lp_bounds {
            Some(LpBoundState::new(instance)?)
        } else {
            None
        },
    };
    let mut state = PartialState::new(instance);
    context.search(0, &mut state, total_min, 0.0, None);

    let assignment = context
        .best_mapping
        .expect("seeded with a feasible mapping");
    let mapping = Mapping::new(assignment, instance.machine_count())?;
    let period = instance.period(&mapping)?;
    let (lp_solves, lp_reuses, lp_pivots) = context
        .lp
        .as_ref()
        .map_or((0, 0, 0), |lp| (lp.solves, lp.reuses, lp.pivots));
    Ok(BnbOutcome {
        mapping,
        period,
        proven_optimal: !context.aborted,
        nodes: context.nodes,
        lp_solves,
        lp_reuses,
        lp_pivots,
    })
}

/// The root load-splitting LP relaxation's optimum: a certified lower bound
/// on the period of **every** mapping of the instance (the relaxation does
/// not encode the specialized rule, so the bound holds for general mappings
/// too). `None` when the simplex fails or the instance has no demand lower
/// bounds; callers fall back to the packing bound.
///
/// This is the bound the anytime solver streams before branch-and-bound
/// tightens it, and the one [`BnbConfig::lp_bounds`] applies at every node.
pub fn lp_root_bound(instance: &Instance) -> Option<f64> {
    lp_root_relaxation(instance).map(|(bound, _)| bound)
}

/// [`lp_root_bound`] with the simplex pivots its solve took.
pub fn lp_root_relaxation(instance: &Instance) -> Option<(f64, u64)> {
    let mut lp = LpBoundState::new(instance).ok()?;
    match lp.bound(None, &mut Vec::new()) {
        LpVerdict::Bound { objective, .. } => Some((objective, lp.pivots)),
        LpVerdict::Infeasible | LpVerdict::Unavailable => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::brute_force_specialized;
    use mf_lp::{solve as lp_solve, ConstraintSense, LpError, LpProblem, Objective, VariableId};
    use mf_sim::{GeneratorConfig, InstanceGenerator};

    fn random_instance(n: usize, m: usize, p: usize, seed: u64) -> Instance {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let types: Vec<usize> = (0..n).map(|i| i % p).collect();
        let app = Application::linear_chain(&types).unwrap();
        let times = (0..p)
            .map(|_| (0..m).map(|_| 100.0 + 900.0 * next()).collect())
            .collect();
        let platform = Platform::from_type_times(m, times).unwrap();
        let failures = FailureModel::from_matrix(
            (0..n)
                .map(|_| (0..m).map(|_| 0.005 + 0.015 * next()).collect())
                .collect(),
            m,
        )
        .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        for seed in 0..8 {
            let inst = random_instance(6, 3, 2, seed);
            let exact = brute_force_specialized(&inst).unwrap();
            let bnb = branch_and_bound(&inst, BnbConfig::default()).unwrap();
            assert!(bnb.proven_optimal);
            assert!(
                (bnb.period.value() - exact.period.value()).abs() < 1e-6,
                "seed {seed}: bnb {} != brute force {}",
                bnb.period.value(),
                exact.period.value()
            );
            assert!(inst.is_specialized(&bnb.mapping));
        }
    }

    #[test]
    fn never_worse_than_the_seeding_heuristic() {
        for seed in 0..5 {
            let inst = random_instance(12, 5, 3, seed);
            let h4w = H4wFastestMachine.period(&inst).unwrap().value();
            let bnb = branch_and_bound(&inst, BnbConfig::default()).unwrap();
            assert!(bnb.period.value() <= h4w + 1e-9);
        }
    }

    #[test]
    fn node_budget_degrades_gracefully() {
        let inst = random_instance(14, 5, 3, 99);
        let outcome = branch_and_bound(&inst, BnbConfig::with_node_budget(50)).unwrap();
        assert!(!outcome.proven_optimal);
        // The incumbent is still a valid specialized mapping.
        assert!(inst.is_specialized(&outcome.mapping));
        assert!(outcome.nodes <= 50);
    }

    #[test]
    fn lp_bounds_find_the_same_optimum() {
        for seed in 0..6 {
            let inst = random_instance(8, 4, 2, 400 + seed);
            let packing = branch_and_bound(&inst, BnbConfig::default()).unwrap();
            let lp = branch_and_bound(
                &inst,
                BnbConfig {
                    lp_bounds: true,
                    ..BnbConfig::default()
                },
            )
            .unwrap();
            assert!(lp.proven_optimal && packing.proven_optimal);
            assert!(
                (lp.period.value() - packing.period.value()).abs() <= 1e-9,
                "seed {seed}: LP optimum {} != packing optimum {}",
                lp.period.value(),
                packing.period.value()
            );
            assert!(
                lp.nodes <= packing.nodes,
                "seed {seed}: the LP bound dominates the packing bound, so \
                 its tree cannot be larger ({} vs {})",
                lp.nodes,
                packing.nodes
            );
            assert!(lp.lp_solves > 0, "seed {seed}: the LP never ran");
            assert_eq!(packing.lp_solves, 0);
            assert_eq!(packing.lp_reuses, 0);
        }
    }

    /// The blocking CI floor of the LP bound, gated exactly: on the
    /// `bnb_prove/*` bench fixture — an `m ≫ p` shape, where dividing by the
    /// many machines washes out the packing bound — both variants prove the
    /// same optimum with pinned node and LP counts (the LP tree is under an
    /// eighth of the packing tree). Counts are `(nodes, lp_solves,
    /// lp_reuses, lp_pivots)`; the pivots gate the simplex's work per solve.
    #[test]
    fn lp_bound_counts_on_the_bnb_prove_fixture_are_pinned() {
        let fixture = InstanceGenerator::new(GeneratorConfig::paper_standard(12, 16, 3))
            .generate(7)
            .unwrap();
        let mut periods = Vec::new();
        for (lp_bounds, pinned) in [
            (false, (120_120, 0, 0, 0)),
            (true, (14_076, 1_528, 369, 7_858)),
        ] {
            let config = BnbConfig {
                lp_bounds,
                ..BnbConfig::default()
            };
            let outcome = branch_and_bound(&fixture, config).unwrap();
            assert!(outcome.proven_optimal);
            let counts = (
                outcome.nodes,
                outcome.lp_solves,
                outcome.lp_reuses,
                outcome.lp_pivots,
            );
            assert_eq!(counts, pinned, "lp_bounds = {lp_bounds}");
            periods.push(outcome.period.value().to_bits());
        }
        assert_eq!(periods[0], periods[1]);
    }

    /// The root bound the anytime golden transcript streams, to the bit.
    #[test]
    fn root_bound_of_the_anytime_golden_instance_is_pinned() {
        let session = include_str!("../../server/tests/golden/anytime_session.in");
        let payload: Vec<&str> = session.lines().skip(2).take(34).collect();
        let golden = mf_core::textio::instance_from_text(&payload.join("\n")).unwrap();
        let root = lp_root_bound(&golden).unwrap();
        assert_eq!(root.to_bits(), 530.649_694_680_775_3_f64.to_bits());
    }

    #[test]
    fn root_lp_bound_is_a_valid_lower_bound_dominating_packing() {
        for seed in 0..6 {
            let inst = random_instance(8, 5, 2, 700 + seed);
            let bound = lp_root_bound(&inst).expect("feasible relaxation");
            let exact = brute_force_specialized(&inst).unwrap();
            assert!(
                bound <= exact.period.value() + 1e-6,
                "seed {seed}: root LP bound {bound} exceeds the optimum {}",
                exact.period.value()
            );
            // Dominates the root packing bound: Σ min-contributions / m.
            let lower_demand = inst.demand_lower_bounds().unwrap();
            let packing: f64 = inst
                .application()
                .tasks()
                .map(|task| {
                    let d = match inst.application().successor(task.id) {
                        None => 1.0,
                        Some(succ) => lower_demand[succ.index()],
                    };
                    let best = inst
                        .platform()
                        .machines()
                        .map(|u| inst.effective_time(task.id, u))
                        .fold(f64::INFINITY, f64::min);
                    d * best
                })
                .sum::<f64>()
                / inst.machine_count() as f64;
            assert!(
                bound >= packing - 1e-6,
                "seed {seed}: root LP bound {bound} below the packing bound {packing}"
            );
        }
    }

    #[test]
    fn infeasible_instances_are_rejected() {
        let inst = random_instance(4, 2, 3, 1); // p=3 > m=2
        assert!(branch_and_bound(&inst, BnbConfig::default()).is_err());
    }

    #[test]
    fn handles_in_tree_applications() {
        // The Figure 1 application (a join) with 3 machines.
        let app = Application::paper_figure1();
        let p = app.type_count();
        let n = app.task_count();
        let platform = Platform::from_type_times(
            3,
            (0..p)
                .map(|t| vec![100.0 + 50.0 * t as f64, 200.0, 150.0])
                .collect(),
        )
        .unwrap();
        let failures = FailureModel::uniform(n, 3, FailureRate::new(0.02).unwrap());
        let inst = Instance::new(app, platform, failures).unwrap();
        let exact = brute_force_specialized(&inst).unwrap();
        let bnb = branch_and_bound(&inst, BnbConfig::default()).unwrap();
        assert!((bnb.period.value() - exact.period.value()).abs() < 1e-6);
    }

    /// The full `n·m` formulation of the current node, built from scratch:
    /// every placement a variable, seats and filters as fixed bounds, the
    /// corrections alone on the right-hand sides.
    fn full_formulation(lp: &LpBoundState) -> mf_lp::LpResult<f64> {
        let (n, m) = (lp.seats.len(), lp.machines);
        let mut problem = LpProblem::new(Objective::Minimize);
        for j in 0..n * m {
            match lp.fixed_value(j) {
                Some(v) => problem.add_bounded_variable("", v, v),
                None => problem.add_variable(""),
            };
        }
        let k = problem.add_variable("");
        problem.set_objective_coefficient(k, 1.0);
        for u in 0..m {
            let mut terms: Vec<_> = (0..n)
                .map(|i| (VariableId(i * m + u), lp.costs[i * m + u]))
                .collect();
            terms.push((k, -1.0));
            problem.add_constraint(terms, ConstraintSense::LessEqual, -lp.corrections[u]);
        }
        for i in 0..n {
            let terms = (0..m).map(|u| (VariableId(i * m + u), 1.0)).collect();
            problem.add_constraint(terms, ConstraintSense::Equal, 1.0);
        }
        lp_solve(&problem).map(|solution| solution.objective)
    }

    /// What one differential check saw: the verdicts, and the edge cases of
    /// the reference substitution in the node's compact problem.
    #[derive(Default)]
    struct WalkCounts {
        solved: u64,
        reused: u64,
        infeasible: u64,
        /// A task with exactly one free placement (its task row is dropped).
        single_free: u64,
        /// A task whose cheapest free cost is attained more than once.
        tied_reference: u64,
        /// A machine that is no unseated task's reference.
        unreferenced_machine: u64,
        /// Every machine row's right-hand side `K̄ − L_u` is zero.
        all_rows_at_k_bar: u64,
    }

    impl WalkCounts {
        /// Records the substitution edge cases of the current node.
        fn record_shape(&mut self, lp: &LpBoundState) {
            let m = lp.machines;
            let mut loads = lp.corrections.clone();
            let mut referenced = vec![false; m];
            for (i, seat) in lp.seats.iter().enumerate() {
                if let Some((w, _)) = *seat {
                    loads[w] += lp.costs[i * m + w];
                    continue;
                }
                let free: Vec<usize> = (i * m..(i + 1) * m).filter(|&j| !lp.filtered[j]).collect();
                let Some(&r) = free
                    .iter()
                    .min_by(|&&a, &&b| lp.costs[a].total_cmp(&lp.costs[b]))
                else {
                    return;
                };
                loads[r % m] += lp.costs[r];
                referenced[r % m] = true;
                self.single_free += u64::from(free.len() == 1);
                let ties = free.iter().filter(|&&j| lp.costs[j] == lp.costs[r]).count();
                self.tied_reference += u64::from(ties > 1);
            }
            self.unreferenced_machine += u64::from(referenced.contains(&false));
            let k_bar = loads.iter().copied().fold(0.0, f64::max);
            self.all_rows_at_k_bar += u64::from(loads.iter().all(|&load| load == k_bar));
        }

        /// Bounds the current node and checks it against the full
        /// formulation; returns the hint valid below the node.
        fn check(
            &mut self,
            lp: &mut LpBoundState,
            hint: Option<Vec<f64>>,
            at: &str,
        ) -> Option<Vec<f64>> {
            self.record_shape(lp);
            let reuses = lp.reuses;
            let mut values = Vec::new();
            match (lp.bound(hint.as_deref(), &mut values), full_formulation(lp)) {
                (LpVerdict::Bound { objective, solved }, Ok(full)) => {
                    assert!(
                        (objective - full).abs() <= 1e-9 * full.abs(),
                        "{at}: compact {objective} != full {full}"
                    );
                    self.solved += u64::from(solved);
                    self.reused += lp.reuses - reuses;
                    if solved {
                        Some(values)
                    } else {
                        hint
                    }
                }
                (LpVerdict::Infeasible, Err(LpError::Infeasible)) => {
                    self.infeasible += 1;
                    hint
                }
                (_, full) => panic!("{at}: verdicts differ, full {full:?}"),
            }
        }

        /// A random seat / filter / backtrack walk from the current node,
        /// checking the bound after every tightening.
        fn walk(&mut self, lp: &mut LpBoundState, seed: u64, root_hint: Option<Vec<f64>>) {
            let (n, m) = (lp.seats.len(), lp.machines);
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |bound: usize| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % bound as u64) as usize
            };
            // Undo records of the current path, and the hint valid below each
            // of its nodes (an ancestor optimum, as in the search).
            let mut path: Vec<std::result::Result<TaskId, Vec<usize>>> = Vec::new();
            let mut hints: Vec<Option<Vec<f64>>> = vec![root_hint];
            for step in 0..60 {
                if !path.is_empty() && next(4) == 0 {
                    match path.pop().unwrap() {
                        Ok(task) => lp.unseat(task),
                        Err(filters) => filters.into_iter().for_each(|j| lp.filtered[j] = false),
                    }
                    hints.pop();
                    continue;
                }
                let unseated: Vec<usize> = (0..n).filter(|&i| lp.seats[i].is_none()).collect();
                if !unseated.is_empty() && next(2) == 0 {
                    let task = TaskId(unseated[next(unseated.len())]);
                    let machine = next(m);
                    let cost = lp.costs[task.index() * m + machine];
                    let increment = cost * (1.0 + next(50) as f64 / 100.0);
                    lp.seat(task, MachineId(machine), increment);
                    path.push(Ok(task));
                } else {
                    let filters: Vec<usize> = (0..n * m)
                        .filter(|&j| lp.fixed_value(j).is_none() && next(5) == 0)
                        .collect();
                    for &j in &filters {
                        lp.filtered[j] = true;
                    }
                    path.push(Err(filters));
                }
                let hint = hints.last().cloned().flatten();
                let below = self.check(lp, hint, &format!("seed {seed} step {step}"));
                hints.push(below);
            }
        }
    }

    /// Random seat / filter / backtrack walks on seeded chains and forests:
    /// after every tightening the compact bound (reused or solved) must give
    /// the full formulation's verdict and optimum. A crafted node with
    /// uniform costs and staircase filters adds the substitution's edge
    /// cases the random costs never produce: tied references, a task with a
    /// single free placement, and every machine row at `K̄`.
    #[test]
    fn compact_bound_matches_the_full_formulation() {
        let mut counts = WalkCounts::default();
        for seed in 0..8u64 {
            let shape = if seed % 2 == 0 {
                GeneratorConfig::paper_standard(7, 5, 2)
            } else {
                GeneratorConfig::standard_in_forest(7, 5, 2)
            };
            let inst = InstanceGenerator::new(shape).generate(seed).unwrap();
            let mut lp = LpBoundState::new(&inst).unwrap();
            counts.walk(&mut lp, seed, None);
        }

        // Ten tasks on five machines at unit cost, task `i` free only on
        // machines `i mod 5` and up: every reference is a tie broken to
        // machine `i mod 5`, tasks 4 and 9 keep a single placement, and
        // each machine carries two references, so every row sits at `K̄`.
        let inst = InstanceGenerator::new(GeneratorConfig::paper_standard(10, 5, 2))
            .generate(11)
            .unwrap();
        let mut lp = LpBoundState::new(&inst).unwrap();
        lp.costs.fill(1.0);
        for i in 0..10 {
            for u in 0..i % 5 {
                lp.filtered[i * 5 + u] = true;
            }
        }
        let (tied, all_at_k_bar) = (counts.tied_reference, counts.all_rows_at_k_bar);
        let hint = counts.check(&mut lp, None, "crafted node");
        assert!(counts.tied_reference > tied && counts.all_rows_at_k_bar > all_at_k_bar);
        counts.walk(&mut lp, 11, hint);

        let WalkCounts {
            solved,
            reused,
            infeasible,
            single_free,
            tied_reference,
            unreferenced_machine,
            all_rows_at_k_bar,
        } = counts;
        assert!(
            solved > 0 && reused > 0 && infeasible > 0,
            "walks must exercise every verdict: {solved} solved, {reused} reused, \
             {infeasible} infeasible"
        );
        assert!(
            single_free > 0
                && tied_reference > 0
                && unreferenced_machine > 0
                && all_rows_at_k_bar > 0,
            "walks must exercise every substitution edge case: {single_free} single-placement \
             tasks, {tied_reference} tied references, {unreferenced_machine} unreferenced \
             machines, {all_rows_at_k_bar} nodes with every row at K̄"
        );
    }
}
