//! The application graph: typed tasks with fork-free precedence constraints.
//!
//! The paper's applications are DAGs in which every task has **at most one
//! successor** (a join merges several incoming products into one; a fork is
//! impossible because the product is a physical object). Such graphs are
//! in-forests: every weakly-connected component is an in-tree whose root is the
//! component's sink task.

use crate::error::{ModelError, Result};
use crate::ids::{TaskId, TaskTypeId};

/// A single task of the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// Identifier of the task.
    pub id: TaskId,
    /// Type of the task (`t(i)` in the paper). Tasks of the same type perform
    /// the same physical operation and therefore have the same processing time
    /// on a given machine.
    pub ty: TaskTypeId,
}

/// A fork-free application DAG (an in-forest of typed tasks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Application {
    tasks: Vec<Task>,
    /// `successor[i]` is the unique successor of task `i`, if any.
    successor: Vec<Option<TaskId>>,
    /// The tasks whose output each task merges, task by task in index
    /// order: task `i`'s are `predecessors[predecessor_start[i]..
    /// predecessor_start[i + 1]]`, in increasing index.
    predecessor_start: Vec<usize>,
    predecessors: Vec<TaskId>,
    /// Number of distinct task types (`p` in the paper).
    type_count: usize,
    /// Tasks in an order such that every task appears after all its
    /// predecessors (topological order).
    topological: Vec<TaskId>,
}

impl Application {
    /// Number of tasks `n`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of task types `p`.
    #[inline]
    pub fn type_count(&self) -> usize {
        self.type_count
    }

    /// Iterator over all tasks in index order.
    pub fn tasks(&self) -> impl Iterator<Item = Task> + '_ {
        self.tasks.iter().copied()
    }

    /// The type `t(i)` of a task.
    #[inline]
    pub fn task_type(&self, task: TaskId) -> TaskTypeId {
        self.tasks[task.index()].ty
    }

    /// The unique successor of a task, if any.
    #[inline]
    pub fn successor(&self, task: TaskId) -> Option<TaskId> {
        self.successor[task.index()]
    }

    /// The predecessors of a task (the tasks whose products it joins).
    #[inline]
    pub fn predecessors(&self, task: TaskId) -> &[TaskId] {
        let i = task.index();
        &self.predecessors[self.predecessor_start[i]..self.predecessor_start[i + 1]]
    }

    /// Tasks with no successor (the exits of the factory).
    pub fn sinks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.successor
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| TaskId(i))
    }

    /// Tasks with no predecessor (the entries of the factory).
    pub fn sources(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.predecessor_start
            .windows(2)
            .enumerate()
            .filter(|(_, range)| range[0] == range[1])
            .map(|(i, _)| TaskId(i))
    }

    /// Tasks in topological order (every task after all of its predecessors).
    #[inline]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topological
    }

    /// Tasks in reverse topological order (every task before all of its
    /// predecessors). The heuristics of the paper walk the application in this
    /// order, starting from the last task.
    pub fn reverse_topological_order(&self) -> Vec<TaskId> {
        self.topological.iter().rev().copied().collect()
    }

    /// Tasks grouped by type: entry `j` lists the tasks of type `j`.
    pub fn tasks_by_type(&self) -> Vec<Vec<TaskId>> {
        let mut groups = vec![Vec::new(); self.type_count];
        for task in &self.tasks {
            groups[task.ty.index()].push(task.id);
        }
        groups
    }

    /// `true` when the application is a single linear chain `T₁ → T₂ → … → Tₙ`
    /// (in index order). All experiments of the paper use linear chains.
    pub fn is_linear_chain(&self) -> bool {
        let n = self.task_count();
        if n == 0 {
            return false;
        }
        (0..n - 1).all(|i| self.successor[i] == Some(TaskId(i + 1)))
            && self.successor[n - 1].is_none()
            && (1..n).all(|i| self.predecessors(TaskId(i)) == [TaskId(i - 1)])
            && self.predecessors(TaskId(0)).is_empty()
    }

    /// Builds a linear chain from the list of task types, task `i` preceding
    /// task `i + 1`.
    ///
    /// Type indices may be arbitrary `usize` values; the number of declared
    /// types is `max + 1`.
    pub fn linear_chain(types: &[usize]) -> Result<Self> {
        let mut builder = ApplicationBuilder::new();
        let mut prev: Option<TaskId> = None;
        for &ty in types {
            let id = builder.add_task(ty);
            if let Some(p) = prev {
                builder.add_dependency(p, id)?;
            }
            prev = Some(id);
        }
        builder.build()
    }

    /// Builds an arbitrary fork-free application from an explicit successor
    /// relation: `successors[i]` is the index of the successor of task `i`
    /// (or `None` for a sink).
    pub fn from_successors(types: &[usize], successors: &[Option<usize>]) -> Result<Self> {
        if types.len() != successors.len() {
            return Err(ModelError::DimensionMismatch {
                context: "Application::from_successors",
                expected: types.len(),
                actual: successors.len(),
            });
        }
        let mut builder = ApplicationBuilder::new();
        for &ty in types {
            builder.add_task(ty);
        }
        for (i, succ) in successors.iter().enumerate() {
            if let Some(s) = succ {
                builder.add_dependency(TaskId(i), TaskId(*s))?;
            }
        }
        builder.build()
    }

    /// Builds the example application of the paper (Figure 1): two chains
    /// `T₁ → T₂` and `T₃` joining into `T₄`, followed by `T₅`.
    ///
    /// Types are assigned in order `[0, 1, 0, 1, 2]` for illustration.
    pub fn paper_figure1() -> Self {
        Application::from_successors(
            &[0, 1, 0, 1, 2],
            &[Some(1), Some(3), Some(3), Some(4), None],
        )
        .expect("the Figure 1 application is a valid in-tree")
    }

    /// Builds a balanced in-tree with the given arity and depth, assigning
    /// types round-robin over `type_count` types. Useful for tests and for
    /// exercising join-heavy applications.
    pub fn balanced_in_tree(arity: usize, depth: usize, type_count: usize) -> Result<Self> {
        if arity == 0 || type_count == 0 {
            return Err(ModelError::EmptyApplication);
        }
        let mut builder = ApplicationBuilder::new();
        let mut next_type = 0usize;
        let mut take_type = || {
            let t = next_type;
            next_type = (next_type + 1) % type_count;
            t
        };
        // Build bottom-up: root (sink) first, then its subtrees.
        let root = builder.add_task(take_type());
        let mut frontier = vec![root];
        for _ in 0..depth {
            let mut next_frontier = Vec::new();
            for &parent in &frontier {
                for _ in 0..arity {
                    let child = builder.add_task(take_type());
                    builder.add_dependency(child, parent)?;
                    next_frontier.push(child);
                }
            }
            frontier = next_frontier;
        }
        builder.build()
    }
}

/// Incremental builder for [`Application`] graphs.
#[derive(Debug, Default, Clone)]
pub struct ApplicationBuilder {
    types: Vec<usize>,
    successor: Vec<Option<TaskId>>,
}

impl ApplicationBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task of the given type and returns its identifier.
    pub fn add_task(&mut self, ty: usize) -> TaskId {
        let id = TaskId(self.types.len());
        self.types.push(ty);
        self.successor.push(None);
        id
    }

    /// Declares that `from` must complete before `to` (i.e. `to` is the unique
    /// successor of `from`).
    ///
    /// Returns an error if `from` already has a successor (fork) or if either
    /// task is unknown.
    pub fn add_dependency(&mut self, from: TaskId, to: TaskId) -> Result<()> {
        let n = self.types.len();
        for id in [from, to] {
            if id.index() >= n {
                return Err(ModelError::UnknownTask {
                    task: id.index(),
                    task_count: n,
                });
            }
        }
        if self.successor[from.index()].is_some() {
            return Err(ModelError::ForkDetected { task: from.index() });
        }
        self.successor[from.index()] = Some(to);
        Ok(())
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.types.len()
    }

    /// Finalises the application, checking acyclicity and normalising types.
    pub fn build(self) -> Result<Application> {
        if self.types.is_empty() {
            return Err(ModelError::EmptyApplication);
        }
        let n = self.types.len();
        let type_count = self.types.iter().copied().max().unwrap_or(0) + 1;

        let tasks: Vec<Task> = self
            .types
            .iter()
            .enumerate()
            .map(|(i, &ty)| Task {
                id: TaskId(i),
                ty: TaskTypeId(ty),
            })
            .collect();

        // Predecessor lists, flattened: count each task's, turn the counts
        // into start offsets, then place every task in its successor's list
        // in index order.
        let mut indegree = vec![0usize; n];
        for succ in self.successor.iter().flatten() {
            indegree[succ.index()] += 1;
        }
        let mut predecessor_start = Vec::with_capacity(n + 1);
        predecessor_start.push(0);
        for &count in &indegree {
            predecessor_start.push(predecessor_start[predecessor_start.len() - 1] + count);
        }
        let mut predecessors = vec![TaskId(0); predecessor_start[n]];
        let mut next_slot = predecessor_start[..n].to_vec();
        for (i, succ) in self.successor.iter().enumerate() {
            if let Some(s) = succ {
                predecessors[next_slot[s.index()]] = TaskId(i);
                next_slot[s.index()] += 1;
            }
        }

        // Kahn's algorithm for a topological order; also detects cycles.
        let mut queue: Vec<TaskId> = (0..n).filter(|&i| indegree[i] == 0).map(TaskId).collect();
        let mut topological = Vec::with_capacity(n);
        while let Some(task) = queue.pop() {
            topological.push(task);
            if let Some(succ) = self.successor[task.index()] {
                indegree[succ.index()] -= 1;
                if indegree[succ.index()] == 0 {
                    queue.push(succ);
                }
            }
        }
        if topological.len() != n {
            return Err(ModelError::CyclicApplication);
        }

        Ok(Application {
            tasks,
            successor: self.successor,
            predecessor_start,
            predecessors,
            type_count,
            topological,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_shape() {
        let app = Application::linear_chain(&[0, 1, 0, 1]).unwrap();
        assert_eq!(app.task_count(), 4);
        assert_eq!(app.type_count(), 2);
        assert!(app.is_linear_chain());
        assert_eq!(app.successor(TaskId(0)), Some(TaskId(1)));
        assert_eq!(app.successor(TaskId(3)), None);
        assert_eq!(app.predecessors(TaskId(3)), &[TaskId(2)]);
        assert_eq!(app.sinks().collect::<Vec<_>>(), vec![TaskId(3)]);
        assert_eq!(app.sources().collect::<Vec<_>>(), vec![TaskId(0)]);
    }

    #[test]
    fn empty_chain_is_rejected() {
        assert_eq!(
            Application::linear_chain(&[]),
            Err(ModelError::EmptyApplication)
        );
    }

    #[test]
    fn figure1_application() {
        let app = Application::paper_figure1();
        assert_eq!(app.task_count(), 5);
        assert!(!app.is_linear_chain());
        // T4 joins T2 and T3.
        let mut preds = app.predecessors(TaskId(3)).to_vec();
        preds.sort();
        assert_eq!(preds, vec![TaskId(1), TaskId(2)]);
        assert_eq!(app.successor(TaskId(4)), None);
        assert_eq!(app.sinks().count(), 1);
        assert_eq!(app.sources().count(), 2);
    }

    #[test]
    fn forks_are_rejected() {
        let mut builder = ApplicationBuilder::new();
        let a = builder.add_task(0);
        let b = builder.add_task(0);
        let c = builder.add_task(0);
        builder.add_dependency(a, b).unwrap();
        let err = builder.add_dependency(a, c).unwrap_err();
        assert_eq!(err, ModelError::ForkDetected { task: 0 });
    }

    #[test]
    fn cycles_are_rejected() {
        let app = Application::from_successors(&[0, 0], &[Some(1), Some(0)]);
        assert_eq!(app.unwrap_err(), ModelError::CyclicApplication);
    }

    #[test]
    fn unknown_tasks_are_rejected() {
        let mut builder = ApplicationBuilder::new();
        let a = builder.add_task(0);
        let err = builder.add_dependency(a, TaskId(5)).unwrap_err();
        assert!(matches!(err, ModelError::UnknownTask { task: 5, .. }));
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let app = Application::paper_figure1();
        let order = app.topological_order();
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        for task in app.tasks() {
            if let Some(succ) = app.successor(task.id) {
                assert!(
                    pos(task.id) < pos(succ),
                    "{} must precede {}",
                    task.id,
                    succ
                );
            }
        }
        let rev = app.reverse_topological_order();
        assert_eq!(rev.len(), order.len());
        assert_eq!(rev[0], *order.last().unwrap());
    }

    #[test]
    fn tasks_by_type_partition() {
        let app = Application::linear_chain(&[0, 1, 0, 2, 1]).unwrap();
        let groups = app.tasks_by_type();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![TaskId(0), TaskId(2)]);
        assert_eq!(groups[1], vec![TaskId(1), TaskId(4)]);
        assert_eq!(groups[2], vec![TaskId(3)]);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, app.task_count());
    }

    #[test]
    fn balanced_in_tree_structure() {
        let app = Application::balanced_in_tree(2, 2, 3).unwrap();
        // 1 + 2 + 4 tasks.
        assert_eq!(app.task_count(), 7);
        assert_eq!(app.sinks().count(), 1);
        assert_eq!(app.sources().count(), 4);
        // The root joins exactly `arity` products.
        let root = app.sinks().next().unwrap();
        assert_eq!(app.predecessors(root).len(), 2);
    }

    #[test]
    fn balanced_in_tree_rejects_degenerate_parameters() {
        assert!(Application::balanced_in_tree(0, 2, 1).is_err());
        assert!(Application::balanced_in_tree(2, 2, 0).is_err());
    }

    #[test]
    fn from_successors_validates_lengths() {
        let err = Application::from_successors(&[0, 1], &[None]).unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));
    }

    #[test]
    fn single_task_is_a_chain() {
        let app = Application::linear_chain(&[0]).unwrap();
        assert!(app.is_linear_chain());
        assert_eq!(app.sinks().count(), 1);
        assert_eq!(app.sources().count(), 1);
    }
}
