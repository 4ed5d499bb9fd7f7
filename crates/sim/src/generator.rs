//! Random instance generators reproducing the paper's experimental setup.
//!
//! Every figure of §7 draws `w_{i,u}` uniformly in `[100, 1000]` ms and
//! `f_{i,u}` uniformly in `[0.5%, 2%]` (or `[0, 10%]` for the high-failure
//! experiment of Figure 8, or attached to tasks only for Figure 9). The
//! generators are fully seeded so that every experiment in this repository is
//! reproducible.

use mf_core::prelude::*;
use mf_core::rng::StdRng;

/// The precedence shape of generated applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApplicationShape {
    /// A single linear chain in index order — the shape of every experiment
    /// in the paper's §7.
    Chain,
    /// A random **in-forest**: every non-final task either becomes a root
    /// (with the given probability) or points to a uniformly random later
    /// task, so fan-in is mixed and several trees coexist — the general
    /// application model of the paper's §2 (Figure 1 is a tree).
    RandomInForest {
        /// Probability that a task is a root (has no successor).
        root_probability: f64,
    },
}

/// How failure rates are structured across tasks and machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureStructure {
    /// Independent draw for every (task, machine) pair — the paper's general
    /// model.
    PerTaskAndMachine,
    /// One draw per task, shared by all machines (`f_{i,u} = f_i`, Figure 9).
    PerTask,
    /// One draw per machine, shared by all tasks (`f_{i,u} = f_u`, Theorem 2).
    PerMachine,
    /// A single constant failure rate everywhere.
    Constant(f64),
}

/// Parameters of the random instance generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Number of tasks `n`.
    pub tasks: usize,
    /// Number of machines `m`.
    pub machines: usize,
    /// Number of task types `p` (`p ≤ n` and, for specialized mappings to
    /// exist, `p ≤ m`).
    pub types: usize,
    /// Processing times are drawn uniformly in this range (ms).
    pub time_range: (f64, f64),
    /// Failure rates are drawn uniformly in this range.
    pub failure_range: (f64, f64),
    /// Structure of the failure model.
    pub failure_structure: FailureStructure,
    /// If `true` the platform is homogeneous: one time per type drawn once and
    /// shared by all machines (used for the Theorem 1 experiments).
    pub homogeneous_machines: bool,
    /// Precedence shape of the generated application.
    pub shape: ApplicationShape,
}

impl GeneratorConfig {
    /// The paper's standard setting: `w ∈ [100, 1000]` ms, `f ∈ [0.5%, 2%]`,
    /// per-(task, machine) failures.
    pub fn paper_standard(tasks: usize, machines: usize, types: usize) -> Self {
        GeneratorConfig {
            tasks,
            machines,
            types,
            time_range: (100.0, 1000.0),
            failure_range: (0.005, 0.02),
            failure_structure: FailureStructure::PerTaskAndMachine,
            homogeneous_machines: false,
            shape: ApplicationShape::Chain,
        }
    }

    /// The high-failure setting of Figure 8: `f ∈ [0, 10%]`.
    pub fn paper_high_failure(tasks: usize, machines: usize, types: usize) -> Self {
        GeneratorConfig {
            failure_range: (0.0, 0.10),
            ..Self::paper_standard(tasks, machines, types)
        }
    }

    /// The one-to-one setting of Figure 9: failures attached to tasks only.
    pub fn paper_task_failures(tasks: usize, machines: usize, types: usize) -> Self {
        GeneratorConfig {
            failure_structure: FailureStructure::PerTask,
            ..Self::paper_standard(tasks, machines, types)
        }
    }

    /// A tree-shaped workload: standard times, the Figure-8 failure range
    /// (`f ∈ [0, 10%]`) and a random in-forest application with ~15% roots —
    /// the shape the evaluator's forest fast path is exercised on.
    pub fn standard_in_forest(tasks: usize, machines: usize, types: usize) -> Self {
        GeneratorConfig {
            failure_range: (0.0, 0.10),
            shape: ApplicationShape::RandomInForest {
                root_probability: 0.15,
            },
            ..Self::paper_standard(tasks, machines, types)
        }
    }
}

/// Seeded random generator of linear-chain problem instances.
#[derive(Debug, Clone)]
pub struct InstanceGenerator {
    config: GeneratorConfig,
}

impl InstanceGenerator {
    /// Creates a generator for a configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        InstanceGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates one instance from a seed.
    pub fn generate(&self, seed: u64) -> Result<Instance> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.generate_with(&mut rng)
    }

    /// Generates one instance from an existing RNG.
    pub fn generate_with(&self, rng: &mut StdRng) -> Result<Instance> {
        let c = &self.config;
        let n = c.tasks;
        let m = c.machines;
        let p = c.types.max(1);

        // Task types: guarantee every type appears at least once (when n ≥ p),
        // then fill uniformly, so the declared p matches the effective p.
        let mut types: Vec<usize> = (0..n)
            .map(|i| {
                if i < p && n >= p {
                    i
                } else {
                    rng.gen_range(0..p)
                }
            })
            .collect();
        // Shuffle positions so the guaranteed types are not clustered at the head.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            types.swap(i, j);
        }
        let app = match c.shape {
            ApplicationShape::Chain => Application::linear_chain(&types)?,
            ApplicationShape::RandomInForest { root_probability } => {
                // Successors point strictly forward, so the graph is an
                // in-forest by construction; shared successors give fan-in.
                let successors: Vec<Option<usize>> = (0..n)
                    .map(|i| {
                        if i + 1 == n || rng.gen_bool(root_probability.clamp(0.0, 1.0)) {
                            None
                        } else {
                            Some(rng.gen_range(i + 1..n))
                        }
                    })
                    .collect();
                Application::from_successors(&types, &successors)?
            }
        };

        // Processing times per (type, machine).
        let (tmin, tmax) = c.time_range;
        let type_times: Vec<Vec<f64>> = (0..p)
            .map(|_| {
                if c.homogeneous_machines {
                    let t = rng.gen_range(tmin..=tmax);
                    vec![t; m]
                } else {
                    (0..m).map(|_| rng.gen_range(tmin..=tmax)).collect()
                }
            })
            .collect();
        let platform = Platform::from_type_times(m, type_times)?;

        // Failure rates.
        let (fmin, fmax) = c.failure_range;
        let draw = |rng: &mut StdRng| -> f64 {
            if fmax > fmin {
                rng.gen_range(fmin..fmax)
            } else {
                fmin
            }
        };
        let failures = match c.failure_structure {
            FailureStructure::PerTaskAndMachine => FailureModel::from_matrix(
                (0..n)
                    .map(|_| (0..m).map(|_| draw(rng)).collect())
                    .collect(),
                m,
            )?,
            FailureStructure::PerTask => {
                let rates: Vec<FailureRate> = (0..n)
                    .map(|_| FailureRate::new(draw(rng)))
                    .collect::<Result<_>>()?;
                FailureModel::task_dependent(&rates, m)
            }
            FailureStructure::PerMachine => {
                let rates: Vec<FailureRate> = (0..m)
                    .map(|_| FailureRate::new(draw(rng)))
                    .collect::<Result<_>>()?;
                FailureModel::machine_dependent(&rates, n)
            }
            FailureStructure::Constant(f) => FailureModel::uniform(n, m, FailureRate::new(f)?),
        };

        Instance::new(app, platform, failures)
    }

    /// Generates a batch of instances with consecutive derived seeds.
    pub fn generate_batch(&self, base_seed: u64, count: usize) -> Result<Vec<Instance>> {
        (0..count)
            .map(|k| self.generate(base_seed.wrapping_add(k as u64).wrapping_mul(0x9E37_79B9)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_instances_respect_the_configuration() {
        let config = GeneratorConfig::paper_standard(40, 10, 5);
        let generator = InstanceGenerator::new(config);
        let inst = generator.generate(1).unwrap();
        assert_eq!(inst.task_count(), 40);
        assert_eq!(inst.machine_count(), 10);
        assert_eq!(inst.type_count(), 5);
        assert!(inst.application().is_linear_chain());
        for task in inst.application().tasks() {
            for u in inst.platform().machines() {
                let w = inst.time(task.id, u);
                assert!((100.0..=1000.0).contains(&w));
                let f = inst.failure(task.id, u).value();
                assert!((0.005..=0.02).contains(&f));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let generator = InstanceGenerator::new(GeneratorConfig::paper_standard(10, 4, 2));
        let a = generator.generate(7).unwrap();
        let b = generator.generate(7).unwrap();
        assert_eq!(a, b);
        let c = generator.generate(8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn high_failure_configuration_widens_the_range() {
        let generator = InstanceGenerator::new(GeneratorConfig::paper_high_failure(30, 10, 5));
        let inst = generator.generate(3).unwrap();
        let mut max_f: f64 = 0.0;
        for task in inst.application().tasks() {
            for u in inst.platform().machines() {
                max_f = max_f.max(inst.failure(task.id, u).value());
            }
        }
        assert!(
            max_f > 0.02,
            "high-failure draws should exceed the standard 2% cap"
        );
        assert!(max_f < 0.10);
    }

    #[test]
    fn task_attached_failures_are_machine_independent() {
        let generator = InstanceGenerator::new(GeneratorConfig::paper_task_failures(20, 20, 5));
        let inst = generator.generate(11).unwrap();
        assert!(inst.failures().is_task_dependent_only());
    }

    #[test]
    fn per_machine_and_constant_structures() {
        let mut config = GeneratorConfig::paper_standard(10, 5, 2);
        config.failure_structure = FailureStructure::PerMachine;
        let inst = InstanceGenerator::new(config).generate(5).unwrap();
        assert!(inst.failures().is_machine_dependent_only());

        config.failure_structure = FailureStructure::Constant(0.01);
        let inst = InstanceGenerator::new(config).generate(5).unwrap();
        assert!(inst.failures().is_task_dependent_only());
        assert!(inst.failures().is_machine_dependent_only());
        assert_eq!(inst.failure(TaskId(0), MachineId(0)).value(), 0.01);
    }

    #[test]
    fn homogeneous_platform_option() {
        let mut config = GeneratorConfig::paper_standard(10, 6, 3);
        config.homogeneous_machines = true;
        let inst = InstanceGenerator::new(config).generate(2).unwrap();
        for ty in 0..3 {
            let times = inst.platform().type_times(TaskTypeId(ty));
            assert!(times.iter().all(|&t| t == times[0]));
        }
    }

    #[test]
    fn every_type_appears_when_tasks_are_plentiful() {
        let generator = InstanceGenerator::new(GeneratorConfig::paper_standard(50, 10, 5));
        for seed in 0..5 {
            let inst = generator.generate(seed).unwrap();
            let groups = inst.application().tasks_by_type();
            assert_eq!(groups.len(), 5);
            assert!(groups.iter().all(|g| !g.is_empty()));
        }
    }

    #[test]
    fn forest_shape_draws_valid_in_forests() {
        let generator = InstanceGenerator::new(GeneratorConfig::standard_in_forest(40, 8, 3));
        let mut saw_multiple_roots = false;
        let mut saw_fan_in = false;
        for seed in 0..5 {
            let inst = generator.generate(seed).unwrap();
            let app = inst.application();
            assert_eq!(app.task_count(), 40);
            assert!(!app.is_linear_chain());
            // Successors only point forward (in-forest by construction).
            for task in app.tasks() {
                if let Some(succ) = app.successor(task.id) {
                    assert!(succ.index() > task.id.index());
                }
            }
            saw_multiple_roots |= app.sinks().count() > 1;
            saw_fan_in |= app.tasks().any(|t| app.predecessors(t.id).len() > 1);
            // Same seed, same instance.
            let again = generator.generate(seed).unwrap();
            assert_eq!(format!("{inst:?}"), format!("{again:?}"));
        }
        assert!(saw_multiple_roots, "15% roots must yield multi-root draws");
        assert!(saw_fan_in, "random successors must produce joins");
    }

    #[test]
    fn batches_produce_distinct_instances() {
        let generator = InstanceGenerator::new(GeneratorConfig::paper_standard(8, 4, 2));
        let batch = generator.generate_batch(1, 5).unwrap();
        assert_eq!(batch.len(), 5);
        let distinct: std::collections::HashSet<String> =
            batch.iter().map(|i| format!("{i:?}")).collect();
        assert!(distinct.len() > 1);
    }
}
