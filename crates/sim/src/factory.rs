//! Discrete-event simulation of a micro-factory production line.
//!
//! The optimizers in this repository reason about an *analytic* period; this
//! simulator executes a mapping on a stochastic model of the factory to check
//! that the analytic value describes the real system:
//!
//! * each machine processes the tasks mapped to it, one product at a time;
//! * performing task `Tᵢ` on machine `Mᵤ` takes `w_{i,u}` ms and, with
//!   probability `f_{i,u}`, destroys the product;
//! * source tasks draw from an unlimited supply of raw products; a join task
//!   needs one product from each of its predecessors; finished products of the
//!   sink tasks are counted at the output;
//! * inter-task buffers are bounded (`buffer_capacity` products): a machine
//!   does not start a task whose successor buffer is full. This back-pressure
//!   is what real micro-factory cells do with their limited fixtures, and it
//!   is what makes a machine that owns several tasks share its time between
//!   them in the proportions the period analysis assumes;
//! * when several of its tasks are ready, a machine processes the one closest
//!   to the output (largest topological position), which keeps the pipeline
//!   drained and lets the bottleneck machine pace the line.
//!
//! The measured throughput (products per ms after a warm-up) converges to the
//! inverse of the analytic period for long enough runs.

use mf_core::prelude::*;
use mf_core::rng::StdRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// RNG seed (failure draws).
    pub seed: u64,
    /// Stop after this many finished products (0 = no product limit).
    pub target_products: u64,
    /// Stop after this much simulated time (ms).
    pub max_time: f64,
    /// Ignore the first `warmup_products` finished products when measuring the
    /// steady-state throughput.
    pub warmup_products: u64,
    /// Capacity of the buffer between a task and its successor (products).
    pub buffer_capacity: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            seed: 0x5EED,
            target_products: 1_000,
            max_time: 1e9,
            warmup_products: 50,
            buffer_capacity: 16,
        }
    }
}

/// Aggregated results of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Finished products counted at the output.
    pub produced: u64,
    /// Total simulated time (ms).
    pub elapsed: f64,
    /// Per-task number of processing attempts.
    pub attempts: Vec<u64>,
    /// Per-task number of products destroyed by a failure.
    pub losses: Vec<u64>,
    /// Steady-state throughput (products / ms), measured after the warm-up.
    pub throughput: f64,
    /// Inverse of [`SimulationReport::throughput`] (ms / product).
    pub measured_period: f64,
}

impl SimulationReport {
    /// Observed failure ratio of a task (losses / attempts), if it ran at all.
    pub fn observed_failure_rate(&self, task: TaskId) -> Option<f64> {
        let attempts = self.attempts[task.index()];
        if attempts == 0 {
            None
        } else {
            Some(self.losses[task.index()] as f64 / attempts as f64)
        }
    }
}

/// Event: machine `machine` finishes processing one product of task `task`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Completion {
    time: f64,
    machine: MachineId,
    task: TaskId,
}

impl Eq for Completion {}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need the earliest event.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.machine.index().cmp(&self.machine.index()))
            .then_with(|| other.task.index().cmp(&self.task.index()))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A discrete-event simulation of one mapping on one instance.
#[derive(Debug)]
pub struct FactorySimulation<'a> {
    instance: &'a Instance,
    mapping: &'a Mapping,
    config: SimulationConfig,
}

impl<'a> FactorySimulation<'a> {
    /// Prepares a simulation of `mapping` on `instance`.
    pub fn new(instance: &'a Instance, mapping: &'a Mapping, config: SimulationConfig) -> Self {
        FactorySimulation {
            instance,
            mapping,
            config,
        }
    }

    /// Runs the simulation and returns the aggregated report.
    pub fn run(&self) -> Result<SimulationReport> {
        let instance = self.instance;
        let mapping = self.mapping;
        instance.validate_mapping(mapping, MappingKind::General)?;

        let app = instance.application();
        let n = app.task_count();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Topological position of every task: larger = closer to the output.
        let mut topo_position = vec![0usize; n];
        for (pos, &task) in app.topological_order().iter().enumerate() {
            topo_position[task.index()] = pos;
        }

        // Which predecessor slot feeds which task, and available input counts.
        // Sources have an empty slot list and unlimited supply.
        let mut inputs: Vec<Vec<u64>> = (0..n)
            .map(|i| vec![0u64; app.predecessors(TaskId(i)).len()])
            .collect();
        // For routing: predecessor index of `task` within its successor's slot list.
        let mut slot_in_successor = vec![0usize; n];
        for i in 0..n {
            for (slot, &pred) in app.predecessors(TaskId(i)).iter().enumerate() {
                slot_in_successor[pred.index()] = slot;
            }
        }

        // Tasks grouped per machine, most-downstream first.
        let mut machine_tasks: Vec<Vec<TaskId>> = mapping.tasks_by_machine();
        for tasks in &mut machine_tasks {
            tasks.sort_by_key(|t| std::cmp::Reverse(topo_position[t.index()]));
        }

        let mut attempts = vec![0u64; n];
        let mut losses = vec![0u64; n];
        let mut produced = 0u64;
        let mut machine_busy = vec![false; instance.machine_count()];
        let mut events: BinaryHeap<Completion> = BinaryHeap::new();
        let mut now = 0.0f64;
        let mut warmup_time = 0.0f64;
        let mut warmup_count = 0u64;
        let capacity = self.config.buffer_capacity.max(1);

        // A task is startable when every predecessor buffer has a product and
        // the buffer towards its successor is not full (back-pressure).
        let is_ready = |task: TaskId, inputs: &Vec<Vec<u64>>| -> bool {
            let slots = &inputs[task.index()];
            let inputs_available = slots.is_empty() || slots.iter().all(|&count| count > 0);
            let output_space = match app.successor(task) {
                None => true,
                Some(succ) => {
                    let slot = slot_in_successor[task.index()];
                    inputs[succ.index()][slot] < capacity
                }
            };
            inputs_available && output_space
        };

        // Start the next job on a machine if one is ready (consuming its inputs).
        let start_next = |machine: MachineId,
                          now: f64,
                          inputs: &mut Vec<Vec<u64>>,
                          machine_busy: &mut Vec<bool>,
                          events: &mut BinaryHeap<Completion>| {
            let candidate = machine_tasks[machine.index()]
                .iter()
                .copied()
                .find(|&t| is_ready(t, inputs));
            if let Some(task) = candidate {
                for count in inputs[task.index()].iter_mut() {
                    *count -= 1;
                }
                machine_busy[machine.index()] = true;
                events.push(Completion {
                    time: now + instance.time(task, machine),
                    machine,
                    task,
                });
            } else {
                machine_busy[machine.index()] = false;
            }
        };

        // Wake every idle machine (buffer levels may have unblocked any of them).
        let wake_idle = |now: f64,
                         inputs: &mut Vec<Vec<u64>>,
                         machine_busy: &mut Vec<bool>,
                         events: &mut BinaryHeap<Completion>| {
            for u in instance.platform().machines() {
                if !machine_busy[u.index()] {
                    start_next(u, now, inputs, machine_busy, events);
                }
            }
        };

        wake_idle(now, &mut inputs, &mut machine_busy, &mut events);

        while let Some(Completion {
            time,
            machine,
            task,
        }) = events.pop()
        {
            now = time;
            if now > self.config.max_time {
                break;
            }
            attempts[task.index()] += 1;
            let failed = rng.gen_bool(instance.failure(task, machine).value());
            if failed {
                losses[task.index()] += 1;
            } else {
                match app.successor(task) {
                    None => {
                        produced += 1;
                        if produced == self.config.warmup_products {
                            warmup_time = now;
                            warmup_count = produced;
                        }
                        if self.config.target_products > 0
                            && produced >= self.config.target_products
                        {
                            break;
                        }
                    }
                    Some(succ) => {
                        let slot = slot_in_successor[task.index()];
                        inputs[succ.index()][slot] += 1;
                    }
                }
            }
            // The machine that just finished picks its next job, and any machine
            // unblocked by the buffer movement restarts as well.
            machine_busy[machine.index()] = false;
            wake_idle(now, &mut inputs, &mut machine_busy, &mut events);
        }

        let (steady_products, steady_time) = if produced > warmup_count && warmup_time > 0.0 {
            ((produced - warmup_count) as f64, now - warmup_time)
        } else {
            (produced as f64, now)
        };
        let throughput = if steady_time > 0.0 {
            steady_products / steady_time
        } else {
            0.0
        };
        let measured_period = if throughput > 0.0 {
            1.0 / throughput
        } else {
            f64::INFINITY
        };

        Ok(SimulationReport {
            produced,
            elapsed: now,
            attempts,
            losses,
            throughput,
            measured_period,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_instance(f: f64) -> (Instance, Mapping) {
        let app = Application::linear_chain(&[0, 1, 0]).unwrap();
        let platform =
            Platform::from_type_times(2, vec![vec![100.0, 120.0], vec![80.0, 90.0]]).unwrap();
        let failures = FailureModel::uniform(3, 2, FailureRate::new(f).unwrap());
        let instance = Instance::new(app, platform, failures).unwrap();
        let mapping = Mapping::from_indices(&[0, 1, 0], 2).unwrap();
        (instance, mapping)
    }

    #[test]
    fn failure_free_throughput_matches_the_analytic_period() {
        let (instance, mapping) = simple_instance(0.0);
        let analytic = instance.period(&mapping).unwrap().value();
        let sim = FactorySimulation::new(
            &instance,
            &mapping,
            SimulationConfig {
                target_products: 2_000,
                ..Default::default()
            },
        );
        let report = sim.run().unwrap();
        assert_eq!(report.produced, 2_000);
        assert!(report.losses.iter().all(|&l| l == 0));
        let relative = (report.measured_period - analytic).abs() / analytic;
        assert!(
            relative < 0.05,
            "measured {} vs analytic {analytic}",
            report.measured_period
        );
    }

    #[test]
    fn throughput_with_failures_tracks_the_analytic_period() {
        let (instance, mapping) = simple_instance(0.1);
        let analytic = instance.period(&mapping).unwrap().value();
        let sim = FactorySimulation::new(
            &instance,
            &mapping,
            SimulationConfig {
                target_products: 5_000,
                warmup_products: 200,
                ..Default::default()
            },
        );
        let report = sim.run().unwrap();
        let relative = (report.measured_period - analytic).abs() / analytic;
        assert!(
            relative < 0.10,
            "measured {} vs analytic {analytic} (relative error {relative:.3})",
            report.measured_period
        );
    }

    #[test]
    fn observed_failure_rates_match_the_model() {
        let (instance, mapping) = simple_instance(0.2);
        let sim = FactorySimulation::new(
            &instance,
            &mapping,
            SimulationConfig {
                target_products: 3_000,
                ..Default::default()
            },
        );
        let report = sim.run().unwrap();
        for task in instance.application().tasks() {
            let observed = report.observed_failure_rate(task.id).unwrap();
            assert!(
                (observed - 0.2).abs() < 0.03,
                "task {} observed failure rate {observed}",
                task.id
            );
        }
    }

    #[test]
    fn join_applications_merge_products() {
        let app = Application::paper_figure1();
        let n = app.task_count();
        let p = app.type_count();
        let platform = Platform::homogeneous(3, p, 50.0).unwrap();
        let failures = FailureModel::uniform(n, 3, FailureRate::new(0.05).unwrap());
        let instance = Instance::new(app, platform, failures).unwrap();
        let mapping = Mapping::from_indices(&[0, 1, 0, 1, 2], 3).unwrap();
        let analytic = instance.period(&mapping).unwrap().value();
        let sim = FactorySimulation::new(
            &instance,
            &mapping,
            SimulationConfig {
                target_products: 2_000,
                warmup_products: 100,
                ..Default::default()
            },
        );
        let report = sim.run().unwrap();
        assert!(report.produced >= 2_000);
        let relative = (report.measured_period - analytic).abs() / analytic;
        assert!(
            relative < 0.15,
            "measured {} vs analytic {analytic} (relative error {relative:.3})",
            report.measured_period
        );
    }

    #[test]
    fn time_limit_stops_the_run() {
        let (instance, mapping) = simple_instance(0.0);
        let sim = FactorySimulation::new(
            &instance,
            &mapping,
            SimulationConfig {
                target_products: 0,
                max_time: 10_000.0,
                ..Default::default()
            },
        );
        let report = sim.run().unwrap();
        assert!(report.elapsed <= 10_000.0 + 500.0);
        assert!(report.produced > 0);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let (instance, mapping) = simple_instance(0.1);
        let config = SimulationConfig {
            target_products: 500,
            ..Default::default()
        };
        let a = FactorySimulation::new(&instance, &mapping, config)
            .run()
            .unwrap();
        let b = FactorySimulation::new(&instance, &mapping, config)
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mapping_dimension_is_validated() {
        let (instance, _) = simple_instance(0.0);
        let bad = Mapping::from_indices(&[0, 1], 2).unwrap();
        let sim = FactorySimulation::new(&instance, &bad, SimulationConfig::default());
        assert!(sim.run().is_err());
    }
}
