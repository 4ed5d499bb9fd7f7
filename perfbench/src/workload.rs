//! Seeded workload plans: the resident fixtures, the per-client warm-up
//! requests and the per-client request pools the timed phase cycles
//! through.
//!
//! Everything here is a pure function of (workload, seed): the same seed
//! yields a byte-identical request stream. The server only ever sees the
//! generated request text.

use mf_core::textio;
use mf_core::{Instance, MachineId, Mapping};
use mf_heuristics::{H4wFastestMachine, Heuristic};
use mf_server::engine::SESSION_SNAPSHOT_CAP;
use mf_server::proto::{text_payload, Probe, Request, SolveMethod};
use mf_server::EVALUATE_CACHE_CAP;
use mf_sim::{GeneratorConfig, InstanceGenerator};
use std::collections::HashMap;
use std::sync::Arc;

/// Closed-loop clients per workload (one per core of the reference box).
pub const CLIENTS: usize = 2;

/// Task types of every generated instance with n ≥ 100.
const LARGE_TYPES: usize = 5;

/// Task types of the proof instances.
const PROOF_TYPES: usize = 3;

/// Step budget of the proof requests expected to close.
pub const PROOF_BUDGET: u64 = 2_000;

/// Step budget of the deliberately budget-capped proof requests on 20×24:
/// the server's default budget would run for minutes there.
pub const CAPPED_BUDGET: u64 = 100;

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `whatif`/`evaluate`/`batch` round trips on resident instances.
    Interactive,
    /// Heuristic and portfolio solves on both sides of the sweep-cache
    /// threshold.
    Search,
    /// `solve … anytime` with an explicit budget on every request.
    Prove,
    /// `load` churn with the journal on, each load followed by an
    /// `evaluate` and a `whatif`.
    Ingest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::Search,
        Workload::Prove,
        Workload::Ingest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Search => "search",
            Workload::Prove => "prove",
            Workload::Ingest => "ingest",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A splitmix64 stream: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed` and a per-use salt.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `1/n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// How many of a request's items have each cache-relevant property (a
/// batch envelope counts its items).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Instance commands carried.
    pub items: u32,
    /// `evaluate`s of a mapping the session sent before (cache hits).
    pub repeated: u32,
    /// `evaluate`s of a mapping never sent before (cache misses).
    pub fresh: u32,
    /// `load`s replacing a resident name (cache purge).
    pub reload: u32,
}

impl Mix {
    fn add(&mut self, other: Mix) {
        self.items += other.items;
        self.repeated += other.repeated;
        self.fresh += other.fresh;
        self.reload += other.reload;
    }
}

/// One request of a client's stream plus its mix properties.
#[derive(Debug, Clone)]
pub struct Step {
    /// The request sent.
    pub request: Request,
    /// What it exercises.
    pub mix: Mix,
}

/// One resident instance loaded during set-up.
pub struct Fixture {
    /// Store name.
    pub name: String,
    /// The instance.
    pub instance: Arc<Instance>,
    /// Its H4w period: the reference of `mean_period_ratio`.
    pub h4w_period: f64,
    /// Machines of the instance (the `m = 20` / `m = 64` split of `search`).
    pub machines: usize,
}

/// A workload's complete, seeded input.
pub struct Plan {
    /// Instances loaded before any client connects.
    pub fixtures: Vec<Fixture>,
    /// Per client: requests sent once during set-up, untimed.
    pub warmup: Vec<Vec<Step>>,
    /// Per client: the pool the timed phase cycles through.
    pub streams: Vec<Vec<Step>>,
    /// Requests per client in one pass: the traced run's fixed work.
    pub pass_len: usize,
    /// Every instance a `load` payload in the plan carries, by payload.
    pub loadable: HashMap<Vec<String>, Arc<Instance>>,
}

impl Plan {
    /// Builds the plan of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::Interactive => interactive(seed),
            Workload::Search => search(seed),
            Workload::Prove => prove(seed),
            Workload::Ingest => ingest(seed),
        }
    }

    /// The fixture under `name`.
    pub fn fixture(&self, name: &str) -> Option<&Fixture> {
        self.fixtures.iter().find(|f| f.name == name)
    }

    /// The `load` request of every fixture, in order.
    pub fn fixture_loads(&self) -> Vec<Request> {
        self.fixtures
            .iter()
            .map(|f| load(&f.name, &f.instance))
            .collect()
    }

    /// A client's request sequence: its warm-up, then `count` steps of its
    /// cycled pool.
    pub fn sequence(&self, client: usize, count: usize) -> impl Iterator<Item = &Step> {
        let stream = &self.streams[client];
        self.warmup[client]
            .iter()
            .chain((0..count).map(move |i| &stream[i % stream.len()]))
    }

    /// The canonical wire text of a client's sequence (warm-up plus one
    /// pass of its pool): what the server receives.
    #[cfg(test)]
    pub fn wire_text(&self, client: usize) -> String {
        self.sequence(client, self.streams[client].len())
            .map(|step| {
                mf_server::proto::request_to_text(&step.request).expect("generated requests encode")
            })
            .collect()
    }
}

fn generate(config: GeneratorConfig, seed: u64) -> Instance {
    InstanceGenerator::new(config)
        .generate(seed)
        .expect("the paper generators always produce valid instances")
}

fn h4w(instance: &Instance) -> Mapping {
    H4wFastestMachine
        .map(instance)
        .expect("every generated instance has at least as many machines as types")
}

fn fixture(name: String, instance: Instance) -> Fixture {
    let h4w_period = instance
        .period(&h4w(&instance))
        .expect("H4w mappings are valid")
        .value();
    Fixture {
        name,
        machines: instance.machine_count(),
        instance: Arc::new(instance),
        h4w_period,
    }
}

/// The chain and in-forest generator configs of one shape (the configs
/// the `mf-bench` fixtures use).
fn shapes(tasks: usize, machines: usize, types: usize) -> [GeneratorConfig; 2] {
    [
        GeneratorConfig::paper_standard(tasks, machines, types),
        GeneratorConfig::standard_in_forest(tasks, machines, types),
    ]
}

fn load(name: &str, instance: &Instance) -> Request {
    Request::Load {
        name: name.to_string(),
        payload: text_payload(&textio::instance_to_text(instance)),
    }
}

fn evaluate(name: &str, mapping: &Mapping) -> Request {
    Request::Evaluate {
        name: name.to_string(),
        payload: text_payload(&textio::mapping_to_text(mapping)),
    }
}

fn step(request: Request, mix: Mix) -> Step {
    Step { request, mix }
}

fn item() -> Mix {
    Mix {
        items: 1,
        ..Mix::default()
    }
}

fn random_probe(rng: &mut Rng, tasks: usize, machines: usize) -> Probe {
    if rng.one_in(2) {
        Probe::Move {
            task: rng.below(tasks),
            machine: rng.below(machines),
        }
    } else {
        let a = rng.below(tasks);
        let b = (a + 1 + rng.below(tasks - 1)) % tasks;
        Probe::Swap { a, b }
    }
}

/// `mapping` with one task moved to a different machine.
fn mutate(rng: &mut Rng, mapping: &Mapping) -> Mapping {
    let machines = mapping.machine_count();
    let mut assignment: Vec<MachineId> = mapping.as_slice().to_vec();
    let task = rng.below(assignment.len());
    let from = assignment[task].index();
    assignment[task] = MachineId((from + 1 + rng.below(machines - 1)) % machines);
    Mapping::new(assignment, machines).expect("in-range machine indices")
}

/// Deals a pool out to the clients in `passes` passes: each pass is a fresh
/// seeded shuffle of the whole pool, split in halves between the clients,
/// so every pass covers the pool exactly once and no two passes pair the
/// clients' requests the same way. (Requests contend for per-shard solver
/// pools, so a single order repeated every pass would fix one contention
/// pattern per seed.)
fn dealt(pool: &[Step], rng: &mut Rng, passes: usize) -> Vec<Vec<Step>> {
    let mut streams = vec![Vec::new(); CLIENTS];
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for _ in 0..passes {
        shuffle(rng, &mut order);
        for (client, stream) in streams.iter_mut().enumerate() {
            let share = &order[client * pool.len() / CLIENTS..(client + 1) * pool.len() / CLIENTS];
            stream.extend(share.iter().map(|&i| pool[i].clone()));
        }
    }
    streams
}

/// Requests per client pool of `interactive`.
pub const INTERACTIVE_POOL: usize = 4096;

/// Cached mappings per `interactive` instance: H4w plus one-task mutations.
const HOT_PER_INSTANCE: usize = 6;

fn interactive(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let [chain, forest] = shapes(100, 20, LARGE_TYPES);
    let mut fixtures = Vec::new();
    for k in 0..4 {
        fixtures.push(fixture(format!("c{k}"), generate(chain, rng.next_u64())));
    }
    for k in 0..4 {
        fixtures.push(fixture(format!("f{k}"), generate(forest, rng.next_u64())));
    }
    // Each session touches every instance, so the resident-snapshot cap
    // must hold all of them or a `whatif` could miss its snapshot.
    assert!(fixtures.len() <= SESSION_SNAPSHOT_CAP);
    let hot: Vec<Vec<Mapping>> = fixtures
        .iter()
        .map(|f| {
            let base = h4w(&f.instance);
            let mut set = vec![base.clone()];
            while set.len() < HOT_PER_INSTANCE {
                set.push(mutate(&mut rng, &base));
            }
            set
        })
        .collect();
    // The hot set fits one engine's evaluate cache with room to spare, so
    // its re-sends hit even while the misses churn the LRU.
    assert!(fixtures.len() * HOT_PER_INSTANCE < EVALUATE_CACHE_CAP);

    let mut warmup = Vec::new();
    let mut streams = Vec::new();
    for client in 0..CLIENTS {
        let mut rng = Rng::new(seed, 100 + client as u64);
        // Warm-up: every hot mapping once (cache fill), ending on H4w so
        // every instance has a resident snapshot before the first whatif.
        let mut warm = Vec::new();
        for (f, set) in fixtures.iter().zip(&hot) {
            for mapping in set.iter().rev() {
                warm.push(step(evaluate(&f.name, mapping), item()));
            }
        }
        let mut pool = Vec::with_capacity(INTERACTIVE_POOL);
        while pool.len() < INTERACTIVE_POOL {
            let roll = rng.below(100);
            // 60 % whatif, 27 % evaluate, 8 % batch, 5 % solve. The batch
            // share stays clear of 10 %, so the p90 lands inside a latency
            // cluster rather than on the edge between two.
            let step = if roll < 60 {
                interactive_item(&mut rng, &fixtures, &hot, true)
            } else if roll < 87 {
                interactive_item(&mut rng, &fixtures, &hot, false)
            } else if roll < 95 {
                let mut mix = Mix::default();
                let items = (0..8)
                    .map(|_| {
                        let whatif = rng.below(100) < 60;
                        let s = interactive_item(&mut rng, &fixtures, &hot, whatif);
                        mix.add(s.mix);
                        s.request
                    })
                    .collect();
                Step {
                    request: Request::Batch(items),
                    mix,
                }
            } else {
                let f = &fixtures[rng.below(fixtures.len())];
                step(
                    Request::Solve {
                        name: f.name.clone(),
                        method: SolveMethod::Heuristic("h4w".to_string()),
                        seed: None,
                    },
                    item(),
                )
            };
            pool.push(step);
        }
        warmup.push(warm);
        streams.push(pool);
    }
    Plan {
        fixtures,
        pass_len: streams[0].len(),
        warmup,
        streams,
        loadable: HashMap::new(),
    }
}

/// One `whatif` or `evaluate` (half hot re-sends, half one-task mutations)
/// on a random `interactive` instance.
fn interactive_item(
    rng: &mut Rng,
    fixtures: &[Fixture],
    hot: &[Vec<Mapping>],
    whatif: bool,
) -> Step {
    let k = rng.below(fixtures.len());
    let f = &fixtures[k];
    if whatif {
        let probe = random_probe(rng, f.instance.task_count(), f.machines);
        return step(
            Request::WhatIf {
                name: f.name.clone(),
                probe,
            },
            item(),
        );
    }
    let mapping = &hot[k][rng.below(hot[k].len())];
    if rng.one_in(2) {
        let mix = Mix {
            repeated: 1,
            ..item()
        };
        step(evaluate(&f.name, mapping), mix)
    } else {
        let mix = Mix { fresh: 1, ..item() };
        step(evaluate(&f.name, &mutate(rng, mapping)), mix)
    }
}

/// Passes dealt per `search` stream (a 20 s run completes about 25).
const SEARCH_PASSES: usize = 64;

/// Passes dealt per `prove` stream (a 20 s run completes about 9).
const PROVE_PASSES: usize = 32;

/// Search strategies the `search` mix draws from.
pub const SEARCH_METHODS: [&str; 4] = ["SD", "TS", "H6", "LNS"];

/// Seed of the fixed `search` and `prove` request sets. Solve and proof
/// times vary several-fold between instances of one shape (and between
/// solver seeds on one instance), so a set drawn per run seed would make
/// the run-to-run spread mostly luck; these two mixes keep their instances
/// and solver seeds fixed (like the `mf-bench` fixtures) and draw the
/// request order and the clients' split from the run seed.
const FIXTURE_SEED: u64 = 0x6D66_6669_7874;

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn search(seed: u64) -> Plan {
    let mut fixture_rng = Rng::new(FIXTURE_SEED, 2);
    let mut fixtures = Vec::new();
    for (tasks, machines) in [(100, 20), (200, 64)] {
        let [chain, forest] = shapes(tasks, machines, LARGE_TYPES);
        for (kind, config) in [("c", chain), ("f", forest)] {
            for k in 0..3 {
                let name = format!("s{machines}{kind}{k}");
                fixtures.push(fixture(name, generate(config, fixture_rng.next_u64())));
            }
        }
    }
    // Every strategy on every instance, twice with drawn solver seeds, and
    // the portfolio once on every m = 20 instance: 102 requests, one in 17 a
    // portfolio. (At one in 10 the p90 sits on the edge between the
    // portfolio cluster and the m = 64 sweeps, and flips between them from
    // run to run.) The set is fixed; the run seed deals the passes.
    let mut pool = Vec::new();
    for round in 0..2 {
        for f in &fixtures {
            let methods = SEARCH_METHODS
                .iter()
                .map(|m| SolveMethod::Heuristic(m.to_string()));
            let portfolio = (round == 0 && f.machines == 20).then_some(SolveMethod::Portfolio);
            for method in methods.chain(portfolio) {
                let request = Request::Solve {
                    name: f.name.clone(),
                    method,
                    seed: Some(fixture_rng.next_u64() >> 32),
                };
                pool.push(step(request, item()));
            }
        }
    }
    Plan {
        fixtures,
        warmup: vec![Vec::new(); CLIENTS],
        pass_len: pool.len() / CLIENTS,
        streams: dealt(&pool, &mut Rng::new(seed, 2), SEARCH_PASSES),
        loadable: HashMap::new(),
    }
}

/// Proof instances: (tasks, machines, count, budget).
const PROOF_SHAPES: [(usize, usize, usize, u64); 3] = [
    (8, 10, 44, PROOF_BUDGET),
    (9, 12, 12, PROOF_BUDGET),
    (20, 24, 8, CAPPED_BUDGET),
];

fn prove(seed: u64) -> Plan {
    let mut fixture_rng = Rng::new(FIXTURE_SEED, 3);
    let mut fixtures = Vec::new();
    let mut budgets = Vec::new();
    for (tasks, machines, count, budget) in PROOF_SHAPES {
        let configs = shapes(tasks, machines, PROOF_TYPES);
        for k in 0..count {
            let name = format!("p{tasks}x{machines}n{k}");
            fixtures.push(fixture(
                name,
                generate(configs[k % 2], fixture_rng.next_u64()),
            ));
            budgets.push(budget);
        }
    }
    // One request per instance, with drawn LNS seeds; the run seed deals
    // the passes.
    let pool: Vec<Step> = fixtures
        .iter()
        .zip(&budgets)
        .map(|(f, &budget)| {
            let request = Request::Solve {
                name: f.name.clone(),
                method: SolveMethod::Anytime {
                    budget: Some(budget),
                },
                seed: Some(fixture_rng.next_u64() >> 32),
            };
            step(request, item())
        })
        .collect();
    Plan {
        fixtures,
        warmup: vec![Vec::new(); CLIENTS],
        pass_len: pool.len() / CLIENTS,
        streams: dealt(&pool, &mut Rng::new(seed, 3), PROVE_PASSES),
        loadable: HashMap::new(),
    }
}

/// Load units (load, evaluate, whatif, sometimes unload) per `ingest` pool.
pub const INGEST_UNITS: usize = 512;

/// Instance versions each `ingest` client rotates through.
const INGEST_VERSIONS: usize = 32;

fn ingest(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 4);
    let [chain, forest] = shapes(100, 20, LARGE_TYPES);
    let mut loadable = HashMap::new();
    let mut warmup = Vec::new();
    let mut streams = Vec::new();
    for client in 0..CLIENTS {
        // Names are private to a client: another session's reload would
        // otherwise invalidate this session's resident snapshot.
        let names: Vec<String> = (0..SESSION_SNAPSHOT_CAP)
            .map(|j| format!("g{client}n{j}"))
            .collect();
        let versions: Vec<(Request, Request)> = (0..INGEST_VERSIONS)
            .map(|v| {
                let config = if v % 2 == 0 { chain } else { forest };
                let instance = generate(config, rng.next_u64());
                let base = h4w(&instance);
                let payload = text_payload(&textio::instance_to_text(&instance));
                loadable.insert(payload.clone(), Arc::new(instance));
                let placeholder = String::new();
                (
                    Request::Load {
                        name: placeholder.clone(),
                        payload,
                    },
                    evaluate(&placeholder, &base),
                )
            })
            .collect();
        let named = |request: &Request, name: &str| -> Request {
            let mut request = request.clone();
            match &mut request {
                Request::Load { name: slot, .. } | Request::Evaluate { name: slot, .. } => {
                    *slot = name.to_string()
                }
                _ => unreachable!("versions hold loads and evaluates"),
            }
            request
        };
        let mut warm = Vec::new();
        for (j, name) in names.iter().enumerate() {
            warm.push(step(named(&versions[j].0, name), item()));
            let fresh = Mix { fresh: 1, ..item() };
            warm.push(step(named(&versions[j].1, name), fresh));
        }
        let mut loaded = vec![true; names.len()];
        let mut pool = Vec::new();
        let mut crng = Rng::new(seed, 400 + client as u64);
        for unit in 0..INGEST_UNITS {
            let j = unit % names.len();
            let v = crng.below(INGEST_VERSIONS);
            let reload = Mix {
                reload: u32::from(loaded[j]),
                ..item()
            };
            pool.push(step(named(&versions[v].0, &names[j]), reload));
            // The load purged the name's cache entries: always a miss.
            pool.push(step(
                named(&versions[v].1, &names[j]),
                Mix { fresh: 1, ..item() },
            ));
            pool.push(step(
                Request::WhatIf {
                    name: names[j].clone(),
                    probe: random_probe(&mut crng, 100, 20),
                },
                item(),
            ));
            loaded[j] = !crng.one_in(16);
            if !loaded[j] {
                pool.push(step(
                    Request::Unload {
                        name: names[j].clone(),
                    },
                    item(),
                ));
            }
        }
        warmup.push(warm);
        streams.push(pool);
    }
    Plan {
        fixtures: Vec::new(),
        pass_len: streams[0].len(),
        warmup,
        streams,
        loadable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seeds_differ() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7);
            let b = Plan::new(workload, 7);
            let c = Plan::new(workload, 8);
            for client in 0..CLIENTS {
                let text = a.wire_text(client);
                assert_eq!(text, b.wire_text(client), "{}", workload.name());
                assert_ne!(text, c.wire_text(client), "{}", workload.name());
            }
            let loads = |plan: &Plan| -> Vec<String> {
                plan.fixture_loads()
                    .iter()
                    .map(|r| mf_server::proto::request_to_text(r).unwrap())
                    .collect()
            };
            assert_eq!(loads(&a), loads(&b));
        }
    }

    #[test]
    fn mixes_respect_the_server_caps() {
        // Every prove request carries an explicit budget.
        let plan = Plan::new(Workload::Prove, 3);
        for client in 0..CLIENTS {
            for step in plan.sequence(client, plan.streams[client].len()) {
                assert!(matches!(
                    step.request,
                    Request::Solve {
                        method: SolveMethod::Anytime { budget: Some(_) },
                        ..
                    }
                ));
            }
        }
        // No session touches more instances than it may keep resident.
        for workload in [Workload::Interactive, Workload::Ingest] {
            let plan = Plan::new(workload, 3);
            for client in 0..CLIENTS {
                let mut names = std::collections::BTreeSet::new();
                for step in plan.sequence(client, plan.streams[client].len()) {
                    let items = match &step.request {
                        Request::Batch(items) => items.iter().collect(),
                        request => vec![request],
                    };
                    for item in items {
                        names.insert(item.instance_name().unwrap().to_string());
                    }
                }
                assert!(names.len() <= SESSION_SNAPSHOT_CAP, "{}", workload.name());
            }
        }
        // Portfolio solves stay on the m = 20 shapes.
        let plan = Plan::new(Workload::Search, 3);
        for step in &plan.streams[0] {
            if let Request::Solve {
                name,
                method: SolveMethod::Portfolio,
                ..
            } = &step.request
            {
                assert_eq!(plan.fixture(name).unwrap().machines, 20);
            }
        }
    }
}
