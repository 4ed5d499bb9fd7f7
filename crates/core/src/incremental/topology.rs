//! Tour-order topology of the application in-forest.
//!
//! The dense what-if fast path needs, for every task, the set of tasks whose
//! demand scales when that task's failure factor changes: the task itself and
//! everything *upstream* of it (the tasks from which it is reachable along
//! successor links — its subtree in the predecessor forest). An **Euler
//! tour** makes every such influence set a contiguous range: we lay the
//! forest out in reversed pre-order (children of a task are its
//! predecessors, trees rooted at the sinks), so the subtree of task `i`
//! occupies tour positions `start(i) ..= pos(i)` with `i` itself at
//! `pos(i)`.
//!
//! On a linear chain `T₁ → … → Tₙ` the reversed pre-order is the identity
//! permutation (`pos(i) = i`, `start(i) = 0`), so the chain fast path that
//! predates this layer is literally the special case of the forest one —
//! same ranges, same iteration order, bit-identical floats.

use crate::application::Application;
use crate::ids::TaskId;

/// The shape class of an application, as the evaluator's fast paths see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A single linear chain in index order: subtree ranges are plain
    /// prefixes, and the dense path iterates `tasks 0..i` directly.
    Chain,
    /// A general in-forest (any number of roots, any fan-in): subtree ranges
    /// come from the Euler tour.
    Forest,
}

/// The Euler-tour layout of an application in-forest.
///
/// Laid out once per instance by [`Instance::new`](crate::instance::Instance::new)
/// and read through [`Instance::topology`](crate::instance::Instance::topology),
/// so evaluators and their snapshots carry no copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    /// Task at each tour position (reversed pre-order; roots last).
    order: Vec<u32>,
    /// Tour position of each task.
    pos: Vec<u32>,
    /// First tour position of each task's subtree (`subtree(i)` is
    /// `order[start[i] ..= pos[i]]`; the strict subtree drops `pos[i]`).
    start: Vec<u32>,
}

impl Topology {
    /// Lays out the application's in-forest.
    pub fn of(app: &Application) -> Self {
        let n = app.task_count();
        debug_assert!(n <= u32::MAX as usize, "task counts fit in u32");
        // Pre-order DFS from every sink (ascending id), children =
        // predecessors in stored order.
        let mut pre: Vec<u32> = Vec::with_capacity(n);
        let mut stack: Vec<TaskId> = Vec::new();
        for sink in app.sinks() {
            stack.push(sink);
            while let Some(task) = stack.pop() {
                pre.push(task.index() as u32);
                // Reversed push so stored predecessor order pops first.
                for &p in app.predecessors(task).iter().rev() {
                    stack.push(p);
                }
            }
        }
        debug_assert_eq!(pre.len(), n, "every task is reachable from a sink");
        // Subtree sizes: children appear after their parent in pre-order, so
        // a reverse scan accumulates child sizes before the parent reads
        // them.
        let mut size = vec![1u32; n];
        for &task in pre.iter().rev() {
            if let Some(succ) = app.successor(TaskId(task as usize)) {
                size[succ.index()] += size[task as usize];
            }
        }
        // Reverse the tour: subtree(i) becomes the inclusive range
        // [pos(i) + 1 − size(i), pos(i)].
        let mut order = vec![0u32; n];
        let mut pos = vec![0u32; n];
        let mut start = vec![0u32; n];
        for (pre_position, &task) in pre.iter().enumerate() {
            let p = (n - 1 - pre_position) as u32;
            order[p as usize] = task;
            pos[task as usize] = p;
            start[task as usize] = p + 1 - size[task as usize];
        }
        let kind = if app.is_linear_chain() {
            TopologyKind::Chain
        } else {
            TopologyKind::Forest
        };
        Topology {
            kind,
            order,
            pos,
            start,
        }
    }

    /// The shape class.
    #[inline]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// `true` for a single linear chain in index order.
    #[inline]
    pub fn is_chain(&self) -> bool {
        self.kind == TopologyKind::Chain
    }

    /// Number of tasks laid out.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.order.len()
    }

    /// The task at each tour position (reversed pre-order).
    #[inline]
    pub fn tour(&self) -> &[u32] {
        &self.order
    }

    /// The inclusive tour span `(start, end)` of `task`'s subtree — the task
    /// itself (at `end`) plus every task upstream of it (the influence set
    /// whose demands scale when `task`'s failure factor changes).
    #[inline]
    pub fn subtree_span(&self, task: TaskId) -> (usize, usize) {
        let i = task.index();
        (self.start[i] as usize, self.pos[i] as usize)
    }

    /// The tasks strictly upstream of `task` (its subtree without itself),
    /// in tour order. For a chain this is `0..i` in index order.
    #[inline]
    pub fn strict_subtree(&self, task: TaskId) -> &[u32] {
        let (start, end) = self.subtree_span(task);
        &self.order[start..end]
    }

    /// `true` when `a` is strictly upstream of `b` (`b` is reachable from
    /// `a` along successor links), `O(1)` from the tour spans.
    #[inline]
    pub fn is_upstream(&self, a: TaskId, b: TaskId) -> bool {
        Self::span_is_upstream(self.subtree_span(a), self.subtree_span(b))
    }

    /// [`is_upstream`](Self::is_upstream) from the two tasks' subtree spans:
    /// `a`'s tour position lies in `b`'s strict subtree range.
    #[inline]
    pub fn span_is_upstream(a: (usize, usize), b: (usize, usize)) -> bool {
        b.0 <= a.1 && a.1 < b.1
    }

    /// `true` when two inclusive tour spans share at least one position.
    /// Subtree spans in an in-forest are nested or disjoint, so this doubles
    /// as the "is one inside the other" test.
    #[inline]
    pub fn spans_overlap(a: (usize, usize), b: (usize, usize)) -> bool {
        a.0 <= b.1 && b.0 <= a.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_lay_out_as_the_identity() {
        let app = Application::linear_chain(&[0, 1, 0, 1, 2]).unwrap();
        let topology = Topology::of(&app);
        assert_eq!(topology.kind(), TopologyKind::Chain);
        assert!(topology.is_chain());
        assert_eq!(topology.tour(), &[0, 1, 2, 3, 4]);
        for i in 0..5 {
            assert_eq!(topology.subtree_span(TaskId(i)), (0, i));
            let strict: Vec<u32> = topology.strict_subtree(TaskId(i)).to_vec();
            assert_eq!(strict, (0..i as u32).collect::<Vec<_>>());
        }
        assert!(topology.is_upstream(TaskId(0), TaskId(4)));
        assert!(!topology.is_upstream(TaskId(4), TaskId(0)));
        assert!(!topology.is_upstream(TaskId(2), TaskId(2)));
    }

    #[test]
    fn figure1_subtrees_are_contiguous_and_complete() {
        // T1→T2, T3 join into T4, then T5 (0-indexed: 0→1, 2 → 3 → 4).
        let app = Application::paper_figure1();
        let topology = Topology::of(&app);
        assert_eq!(topology.kind(), TopologyKind::Forest);
        // The sink's subtree is everything; its own position is last.
        assert_eq!(topology.subtree_span(TaskId(4)), (0, 4));
        // T4 joins both branches: its subtree is all of {0, 1, 2, 3}.
        let (start, end) = topology.subtree_span(TaskId(3));
        assert_eq!(end - start, 3);
        let mut members: Vec<u32> = topology.strict_subtree(TaskId(3)).to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2]);
        // Leaves have empty strict subtrees.
        assert!(topology.strict_subtree(TaskId(0)).is_empty());
        assert!(topology.strict_subtree(TaskId(2)).is_empty());
        // Upstream relation matches reachability.
        assert!(topology.is_upstream(TaskId(0), TaskId(1)));
        assert!(topology.is_upstream(TaskId(0), TaskId(4)));
        assert!(topology.is_upstream(TaskId(2), TaskId(3)));
        assert!(!topology.is_upstream(TaskId(2), TaskId(1)));
        assert!(!topology.is_upstream(TaskId(1), TaskId(0)));
    }

    #[test]
    fn multi_root_forests_cover_every_task_once() {
        // Two trees: 0 → 1 and 2 → 3 ← 4 (sinks 1 and 3).
        let app = Application::from_successors(
            &[0, 1, 0, 1, 0],
            &[Some(1), None, Some(3), None, Some(3)],
        )
        .unwrap();
        let topology = Topology::of(&app);
        assert_eq!(topology.kind(), TopologyKind::Forest);
        let mut seen: Vec<u32> = topology.tour().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Spans are consistent: every task sits at the end of its span and
        // spans of distinct trees are disjoint.
        for t in 0..5 {
            let (start, end) = topology.subtree_span(TaskId(t));
            assert_eq!(topology.tour()[end], t as u32);
            assert!(start <= end);
        }
        let t1 = topology.subtree_span(TaskId(1));
        let t3 = topology.subtree_span(TaskId(3));
        assert!(!Topology::spans_overlap(t1, t3));
        assert!(!topology.is_upstream(TaskId(0), TaskId(3)));
        assert!(topology.is_upstream(TaskId(4), TaskId(3)));
    }

    #[test]
    fn balanced_tree_span_sizes_match_subtree_sizes() {
        let app = Application::balanced_in_tree(2, 3, 2).unwrap();
        let topology = Topology::of(&app);
        let root = app.sinks().next().unwrap();
        let (start, end) = topology.subtree_span(root);
        assert_eq!((start, end), (0, app.task_count() - 1));
        // Every strict subtree member really is upstream.
        for t in app.tasks() {
            for &member in topology.strict_subtree(t.id) {
                assert!(topology.is_upstream(TaskId(member as usize), t.id));
            }
        }
    }
}
