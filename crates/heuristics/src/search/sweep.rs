//! The per-sweep index of admissible candidates that steepest descent and
//! tabu search walk.
//!
//! Under the specialized rule a machine serves one task type, so most of the
//! `n·m` moves and `n(n−1)/2` swaps of a specialized mapping are
//! inadmissible. Instead of testing every pair with
//! [`SearchEngine::allows_move`] / [`SearchEngine::allows_swap`], a sweep
//! rebuilds this index from the committed state once and walks only the
//! pairs those predicates accept, in the same task-then-machine and
//! `a`-then-`b` order.
//!
//! Tasks fall into *buckets*: their type when the seed is specialized, one
//! bucket for every task otherwise. Per sweep the index holds each bucket's
//! move targets (the machines dedicated to that type or idle — every machine
//! for a general seed) and the tasks alone on their machine; swap partners
//! of `a` merge the same-bucket tasks after `a` with, when `a` is alone, the
//! other-bucket lone tasks after `a`. The buffers are `O(n + p·m)` and are
//! reused across sweeps, so only the first sweep of an engine allocates.

use crate::search::engine::SearchEngine;
use mf_core::prelude::*;

/// Admissible moves and swaps of the committed state (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct SweepIndex {
    /// Bucket of each task; fixed for the engine's life.
    bucket: Vec<usize>,
    /// Tasks of each bucket, ascending, flattened; bucket `k` spans
    /// `bucket_tasks[bucket_start[k]..bucket_start[k + 1]]`. Fixed.
    bucket_tasks: Vec<usize>,
    bucket_start: Vec<usize>,
    /// Committed machine of each task.
    machine: Vec<usize>,
    /// Tasks alone on their machine, ascending.
    lone: Vec<usize>,
    /// Admissible target machines of each bucket, ascending, flattened like
    /// `bucket_tasks` (bucket `k` spans `target_start[k]..target_start[k + 1]`).
    targets: Vec<usize>,
    target_start: Vec<usize>,
}

impl SweepIndex {
    /// Rebuilds the index from `engine`'s committed state.
    pub(crate) fn rebuild(&mut self, engine: &SearchEngine<'_>) {
        let app = engine.instance().application();
        let n = engine.tasks();
        let m = engine.machines();
        let specialized = engine.preserves_specialization();
        let buckets = if specialized { app.type_count() } else { 1 };
        if self.bucket.len() != n {
            self.bucket.clear();
            self.bucket.extend((0..n).map(|t| {
                if specialized {
                    app.task_type(TaskId(t)).index()
                } else {
                    0
                }
            }));
            self.bucket_tasks.clear();
            self.bucket_start.clear();
            for k in 0..buckets {
                self.bucket_start.push(self.bucket_tasks.len());
                self.bucket_tasks
                    .extend((0..n).filter(|&t| self.bucket[t] == k));
            }
            self.bucket_start.push(self.bucket_tasks.len());
        }

        self.machine.clear();
        self.machine
            .extend((0..n).map(|t| engine.machine_of(TaskId(t)).index()));
        self.lone.clear();
        self.lone
            .extend((0..n).filter(|&t| engine.tasks_on(MachineId(self.machine[t])) == 1));
        self.targets.clear();
        self.target_start.clear();
        for k in 0..buckets {
            self.target_start.push(self.targets.len());
            if specialized {
                let ty = TaskTypeId(k);
                self.targets.extend((0..m).filter(|&u| {
                    let machine = MachineId(u);
                    engine.tasks_on(machine) == 0 || engine.machine_type(machine) == Some(ty)
                }));
            } else {
                self.targets.extend(0..m);
            }
        }
        self.target_start.push(self.targets.len());
    }

    /// The machines `task` may move to, ascending: exactly those
    /// [`SearchEngine::allows_move`] accepts.
    pub(crate) fn move_targets(&self, task: TaskId) -> impl Iterator<Item = MachineId> + '_ {
        let t = task.index();
        let k = self.bucket[t];
        let from = self.machine[t];
        self.targets[self.target_start[k]..self.target_start[k + 1]]
            .iter()
            .filter(move |&&u| u != from)
            .map(|&u| MachineId(u))
    }

    /// The tasks `b > a` that `a` may swap with, ascending: exactly those
    /// [`SearchEngine::allows_swap`] accepts.
    pub(crate) fn swap_partners(&self, a: TaskId) -> SwapPartners<'_> {
        let a = a.index();
        let k = self.bucket[a];
        let same = &self.bucket_tasks[self.bucket_start[k]..self.bucket_start[k + 1]];
        let machine = self.machine[a];
        // Only a lone `a` may swap across buckets (both machines then
        // exchange their dedications).
        let start = self.lone.partition_point(|&b| b < a);
        let lone = match self.lone.get(start) {
            Some(&b) if b == a => &self.lone[start + 1..],
            _ => &[],
        };
        SwapPartners {
            index: self,
            bucket: k,
            machine,
            same: &same[same.partition_point(|&b| b <= a)..],
            lone,
        }
    }
}

/// The swap partners of one task, merged from its bucket and the lone
/// tasks of other buckets (see [`SweepIndex::swap_partners`]).
pub(crate) struct SwapPartners<'s> {
    index: &'s SweepIndex,
    bucket: usize,
    machine: usize,
    same: &'s [usize],
    lone: &'s [usize],
}

impl Iterator for SwapPartners<'_> {
    type Item = TaskId;

    fn next(&mut self) -> Option<TaskId> {
        loop {
            // Same-bucket lone tasks are already among `same`.
            while let Some((&b, rest)) = self.lone.split_first() {
                if self.index.bucket[b] != self.bucket {
                    break;
                }
                self.lone = rest;
            }
            let take_same = match (self.same.first(), self.lone.first()) {
                (None, None) => return None,
                (Some(&s), Some(&l)) => s < l,
                (same, _) => same.is_some(),
            };
            if take_same {
                let b = self.same[0];
                self.same = &self.same[1..];
                if self.index.machine[b] != self.machine {
                    return Some(TaskId(b));
                }
            } else {
                let b = self.lone[0];
                self.lone = &self.lone[1..];
                return Some(TaskId(b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::h4_family::H4wFastestMachine;
    use crate::search::SearchEngine;
    use crate::Heuristic;
    use mf_core::prelude::*;
    use mf_sim::{GeneratorConfig, InstanceGenerator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Admissible `(task, machine)` moves and `(a, b)` swaps, in scan order.
    type Pairs = (Vec<(usize, usize)>, Vec<(usize, usize)>);

    /// The index's pairs, in walk order.
    fn indexed(engine: &mut SearchEngine<'_>) -> Pairs {
        engine.with_sweep_index(|engine, index| {
            let n = engine.tasks();
            let moves = (0..n)
                .flat_map(|t| index.move_targets(TaskId(t)).map(move |u| (t, u.index())))
                .collect();
            let swaps = (0..n)
                .flat_map(|a| index.swap_partners(TaskId(a)).map(move |b| (a, b.index())))
                .collect();
            (moves, swaps)
        })
    }

    /// The pairs the predicates accept, in the full scan order.
    fn filtered(engine: &SearchEngine<'_>) -> Pairs {
        let (n, m) = (engine.tasks(), engine.machines());
        let moves = (0..n)
            .flat_map(|t| (0..m).map(move |u| (t, u)))
            .filter(|&(t, u)| engine.allows_move(TaskId(t), MachineId(u)))
            .collect();
        let swaps = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .filter(|&(a, b)| engine.allows_swap(TaskId(a), TaskId(b)))
            .collect();
        (moves, swaps)
    }

    /// On specialized and general seeds, through random admissible commits
    /// that idle machines and leave tasks alone, the index yields exactly
    /// the pairs `allows_move`/`allows_swap` accept, in scan order.
    #[test]
    fn sweep_index_matches_the_admissibility_predicates() {
        let mut rng = StdRng::seed_from_u64(0x5EE9_1DE7);
        let configs = [
            GeneratorConfig::paper_standard(12, 6, 3),
            GeneratorConfig::standard_in_forest(16, 10, 4),
            GeneratorConfig::paper_standard(24, 20, 5),
        ];
        for (c, config) in configs.into_iter().enumerate() {
            let instance = InstanceGenerator::new(config)
                .generate(0x1DE7 + c as u64)
                .unwrap();
            let (n, m) = (instance.task_count(), instance.machine_count());
            let specialized = H4wFastestMachine.map(&instance).unwrap();
            let general: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let general = Mapping::from_indices(&general, m).unwrap();
            for seed in [specialized, general] {
                let mut engine = SearchEngine::new(&instance, &seed, usize::MAX).unwrap();
                for _ in 0..40 {
                    assert_eq!(indexed(&mut engine), filtered(&engine));
                    let (moves, swaps) = filtered(&engine);
                    if rng.gen_bool(0.6) && !moves.is_empty() {
                        let (t, u) = moves[rng.gen_range(0..moves.len())];
                        engine.commit_move(TaskId(t), MachineId(u)).unwrap();
                    } else if !swaps.is_empty() {
                        let (a, b) = swaps[rng.gen_range(0..swaps.len())];
                        engine.commit_swap(TaskId(a), TaskId(b)).unwrap();
                    }
                }
            }
        }
    }
}
