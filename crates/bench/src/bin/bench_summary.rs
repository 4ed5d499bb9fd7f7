//! Headless perf summary: the core measurements as a machine-readable JSON
//! file.
//!
//! This binary times, with plain `Instant`, the strategy polish cost
//! (H6 / steepest descent / tabu over the shared H4w seed), branch-and-bound
//! node throughput (the staged evaluator under a node budget, plus the
//! `bnb_prove/*` pair proving one m ≫ p fixture under the packing vs the
//! LP bound, with simplex pivots per node and nanoseconds per pivot),
//! what-if cost on a tree-shaped instance (the forest variant of the dense
//! fast path vs a full recompute), the steepest-descent sweep on both the
//! forest and the chain shape (with its deterministic `evaluator_calls`
//! count and, as `probes`, the full machine scans among those calls), LNS
//! restage probes (staged subtree tear-out vs full candidate recompute, and
//! the full greedy member restage with its staged placements as `nodes`), a
//! full portfolio run, and the `load` path (parsing the fixture's instance
//! text, a journal churn across two compactions, and a whole stdio session
//! of loads and evaluates through the protocol reader, router and engine). It writes median
//! nanoseconds per run to `BENCH_core.json`, so the perf trajectory
//! accumulates commit over commit (CI uploads the file as an artifact).
//!
//! ```sh
//! cargo run --release -p mf-bench --bin bench_summary -- --out BENCH_core.json
//! cargo run --release -p mf-bench --bin bench_summary -- --quick   # CI smoke
//! ```
//!
//! The JSON is hand-written (the workspace has no serde): a flat
//! `mf-bench-summary v1` document with one entry per measurement — each row
//! carries both `median_ns` (the stable headline) and `elapsed_ns` (the
//! total timed nanoseconds across all iterations, so the artifact also
//! answers "where did the bench wall clock go"). `--trace PATH`
//! additionally writes the per-row elapsed times as an `mf-trace v1` span
//! log on a synthetic back-to-back timeline, readable with
//! `microfactory trace PATH`.

use mf_bench::{forest_instance, standard_instance};
use mf_core::prelude::*;
use mf_exact::{branch_and_bound, BnbConfig};
use mf_experiments::portfolio::{run_portfolio, PortfolioConfig};
use mf_experiments::runner::BatchRunner;
use mf_heuristics::search::{
    polish_with, SearchEngine, SearchStrategy, SteepestDescent, TabuSearch,
};
use mf_heuristics::{H4wFastestMachine, H6LocalSearch, Heuristic, LocalSearchConfig};
use mf_server::{serve_stdio, Journal, Router, COMPACT_EVERY};
use std::time::Instant;

/// One timed measurement.
struct Measurement {
    name: &'static str,
    timing: Timing,
    iterations: usize,
    /// Achieved period (strategy rows), explored nodes (B&B rows), probe
    /// throughput (what-if rows) or evaluator calls (sweep rows).
    quality: Quality,
}

/// The two numbers every row reports: the median single-run cost and the
/// total timed nanoseconds across all iterations.
#[derive(Clone, Copy)]
struct Timing {
    median_ns: u128,
    elapsed_ns: u128,
}

fn timing(samples: Vec<u128>) -> Timing {
    let elapsed_ns = samples.iter().sum();
    Timing {
        median_ns: median_ns(samples),
        elapsed_ns,
    }
}

enum Quality {
    PeriodMs(f64),
    Nodes {
        count: u64,
        per_second: f64,
    },
    /// A full proof: its nodes plus the simplex pivots the LP bound spent.
    Proof {
        nodes: u64,
        per_second: f64,
        lp_pivots: u64,
    },
    Sweep {
        period_ms: f64,
        evaluator_calls: u64,
        probes: u64,
    },
    /// Deterministic counts of the work one run does, as named columns.
    Counts(Vec<(&'static str, u64)>),
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time<R>(iterations: usize, mut run: impl FnMut() -> R) -> Vec<u128> {
    // One untimed warmup to populate caches/allocator pools.
    let _ = run();
    (0..iterations)
        .map(|_| {
            let start = Instant::now();
            let result = run();
            let elapsed = start.elapsed().as_nanos();
            std::hint::black_box(result);
            elapsed
        })
        .collect()
}

fn main() {
    let mut out_path = "BENCH_core.json".to_string();
    let mut trace_path: Option<String> = None;
    let mut iterations = 9usize;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out takes a path"),
            "--trace" => trace_path = Some(args.next().expect("--trace takes a path")),
            "--iterations" => {
                iterations = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .expect("--iterations takes a count >= 1")
            }
            "--quick" => quick = true,
            other => {
                eprintln!(
                    "unknown flag `{other}` \
                     (valid: --out PATH, --trace PATH, --iterations N, --quick)"
                );
                std::process::exit(2);
            }
        }
    }

    // The strategy-polish shape: evaluation-scale for the full run, a
    // reduced grid for `--quick` CI smoke.
    let (tasks, machines, sweep_budget, node_budget) = if quick {
        (40usize, 10usize, 10_000usize, 10_000u64)
    } else {
        (100, 20, 50_000, 100_000)
    };
    let instance = standard_instance(tasks, machines, 5, 42);
    let seed = H4wFastestMachine
        .map(&instance)
        .expect("m >= p so H4w succeeds");
    let h6_config = LocalSearchConfig {
        seed: 7,
        ..LocalSearchConfig::default()
    };
    let period_of = |mapping: &Mapping| instance.period(mapping).unwrap().value();

    let mut rows: Vec<Measurement> = Vec::new();

    let h6 = H6LocalSearch::polish(&instance, &seed, &h6_config).unwrap();
    rows.push(Measurement {
        name: "strategy_polish/h6_annealed",
        timing: timing(time(iterations, || {
            H6LocalSearch::polish(&instance, &seed, &h6_config).unwrap()
        })),
        iterations,
        quality: Quality::PeriodMs(period_of(&h6)),
    });

    let sd = polish_with(&instance, &seed, &SteepestDescent::default(), sweep_budget).unwrap();
    rows.push(Measurement {
        name: "strategy_polish/steepest_descent",
        timing: timing(time(iterations, || {
            polish_with(&instance, &seed, &SteepestDescent::default(), sweep_budget).unwrap()
        })),
        iterations,
        quality: Quality::PeriodMs(period_of(&sd)),
    });

    let ts = polish_with(&instance, &seed, &TabuSearch::default(), sweep_budget).unwrap();
    rows.push(Measurement {
        name: "strategy_polish/tabu",
        timing: timing(time(iterations, || {
            polish_with(&instance, &seed, &TabuSearch::default(), sweep_budget).unwrap()
        })),
        iterations,
        quality: Quality::PeriodMs(period_of(&ts)),
    });

    // What-if cost on a tree-shaped instance: the forest variant of the
    // dense fast path (Euler-tour subtree masses) vs rebuilding the
    // candidate mapping and recomputing from scratch. Same probe stream for
    // both sides.
    let forest = forest_instance(tasks, machines, 5, 42);
    let forest_seed = H4wFastestMachine
        .map(&forest)
        .expect("m >= p so H4w succeeds");
    let probe_count = if quick { 2_000usize } else { 20_000 };
    let probes: Vec<(TaskId, MachineId)> = (0..probe_count as u64)
        .map(|k| {
            let r = mf_core::seed::splitmix64(0xF0E5_u64.wrapping_add(k));
            (
                TaskId((r % tasks as u64) as usize),
                MachineId(((r >> 32) % machines as u64) as usize),
            )
        })
        .collect();
    {
        let mut eval = IncrementalEvaluator::new(&forest, &forest_seed).unwrap();
        assert!(
            eval.is_dense_fast_path(),
            "forest shape must ride the dense path"
        );
        let dense = timing(time(iterations, || {
            let mut acc = 0.0f64;
            for &(task, to) in &probes {
                acc += eval.evaluate_move(task, to).unwrap().period.value();
            }
            acc
        }));
        rows.push(Measurement {
            name: "whatif_forest/dense",
            timing: dense,
            iterations,
            quality: Quality::Nodes {
                count: probe_count as u64,
                per_second: probe_count as f64 / (dense.median_ns as f64 / 1e9),
            },
        });
        let full = timing(time(iterations, || {
            let mut acc = 0.0f64;
            for &(task, to) in &probes {
                let mut assignment = forest_seed.as_slice().to_vec();
                assignment[task.index()] = to;
                let candidate = Mapping::new(assignment, machines).unwrap();
                acc += forest.period(&candidate).unwrap().value();
            }
            acc
        }));
        rows.push(Measurement {
            name: "whatif_forest/full_recompute",
            timing: full,
            iterations,
            quality: Quality::Nodes {
                count: probe_count as u64,
                per_second: probe_count as f64 / (full.median_ns as f64 / 1e9),
            },
        });
    }

    // Steepest descent full sweeps on both the forest and the chain shape:
    // wall time plus the deterministic number of evaluator calls per run
    // (every candidate is one what-if) and of full machine scans among them
    // (`probes`: the calls the critical-machine probe did not settle).
    for (name, shape, shape_seed) in [
        ("sd_sweep_forest/full", &forest, &forest_seed),
        ("sd_sweep_chain/full", &instance, &seed),
    ] {
        let strategy = SteepestDescent::default();
        let run = |record: bool| {
            let mut engine = SearchEngine::new(shape, shape_seed, sweep_budget).unwrap();
            strategy.run(&mut engine).unwrap();
            if record {
                let counters = engine.evaluator_counters();
                let calls = counters.dense_what_ifs + counters.exact_what_ifs;
                Some((
                    engine.best_period(),
                    calls,
                    calls - counters.pruned_what_ifs,
                ))
            } else {
                None
            }
        };
        let (period, evaluator_calls, probes) = run(true).unwrap();
        rows.push(Measurement {
            name,
            timing: timing(time(iterations, || run(false))),
            iterations,
            quality: Quality::Sweep {
                period_ms: period,
                evaluator_calls,
                probes,
            },
        });
    }

    // LNS restage probes: the staged subtree tear-out (one flat pass over
    // the torn loads) vs rebuilding the candidate mapping and
    // recomputing the period from scratch. Same (root, target) stream on
    // both sides; the staged path is what `SubtreeMoveLns` pays per probe.
    {
        let restage_count = if quick { 500usize } else { 2_000 };
        let restages: Vec<(TaskId, MachineId)> = (0..restage_count as u64)
            .map(|k| {
                let r = mf_core::seed::splitmix64(0x1A45_u64.wrapping_add(k));
                (
                    TaskId((r % tasks as u64) as usize),
                    MachineId(((r >> 32) % machines as u64) as usize),
                )
            })
            .collect();
        let mut engine = SearchEngine::new(&forest, &forest_seed, sweep_budget).unwrap();
        let staged = timing(time(iterations, || {
            let mut acc = 0.0f64;
            for &(root, to) in &restages {
                acc += engine.restage_move(root, to);
            }
            acc
        }));
        rows.push(Measurement {
            name: "lns_restage/staged",
            timing: staged,
            iterations,
            quality: Quality::Nodes {
                count: restage_count as u64,
                per_second: restage_count as f64 / (staged.median_ns as f64 / 1e9),
            },
        });
        // The full greedy restage over the same stream: tear-out, root
        // landing and every member re-placed; `nodes` counts the staged
        // placements tried.
        let mut plan = Vec::new();
        let mut greedy_run = |engine: &mut SearchEngine<'_>| {
            let (mut acc, mut trials) = (0.0f64, 0u64);
            for &(root, to) in &restages {
                let probe = engine.restage_greedy(root, to, &mut plan);
                acc += probe.period;
                trials += probe.trials as u64;
            }
            (acc, trials)
        };
        let (_, greedy_trials) = greedy_run(&mut engine);
        let greedy = timing(time(iterations, || greedy_run(&mut engine)));
        rows.push(Measurement {
            name: "lns_restage/greedy",
            timing: greedy,
            iterations,
            quality: Quality::Nodes {
                count: greedy_trials,
                per_second: greedy_trials as f64 / (greedy.median_ns as f64 / 1e9),
            },
        });
        let full = timing(time(iterations, || {
            let mut acc = 0.0f64;
            for &(root, to) in &restages {
                let mut assignment = forest_seed.as_slice().to_vec();
                assignment[root.index()] = to;
                let candidate = Mapping::new(assignment, machines).unwrap();
                acc += forest.period(&candidate).unwrap().value();
            }
            acc
        }));
        rows.push(Measurement {
            name: "lns_restage/full",
            timing: full,
            iterations,
            quality: Quality::Nodes {
                count: restage_count as u64,
                per_second: restage_count as f64 / (full.median_ns as f64 / 1e9),
            },
        });
    }

    // Portfolio rounds at the auto thread count. The outcome is
    // bit-identical at every thread count (pinned in batch_determinism),
    // so the row's period is a fixed number and only the wall clock moves.
    {
        let portfolio_config = PortfolioConfig {
            annealed_streams: 1,
            round_steps: if quick { 500 } else { 1_500 },
            sweep_budget: if quick { 10_000 } else { 20_000 },
            max_rounds: if quick { 3 } else { 4 },
            ..PortfolioConfig::default()
        };
        let runner = BatchRunner::new(0);
        let outcome = run_portfolio(&instance, &portfolio_config, &runner);
        let period = outcome.best_period.expect("feasible bench instance");
        rows.push(Measurement {
            name: "portfolio_rounds",
            timing: timing(time(iterations, || {
                run_portfolio(&instance, &portfolio_config, &runner)
            })),
            iterations,
            quality: Quality::PeriodMs(period),
        });
    }

    // B&B node throughput under a binding node budget.
    let bnb_instance = standard_instance(20, 24, 5, 3);
    let config = BnbConfig::with_node_budget(node_budget);
    let outcome = branch_and_bound(&bnb_instance, config).unwrap();
    let measured = timing(time(iterations, || {
        branch_and_bound(&bnb_instance, config).unwrap()
    }));
    rows.push(Measurement {
        name: "bnb_nodes/evaluator",
        timing: measured,
        iterations,
        quality: Quality::Nodes {
            count: outcome.nodes,
            per_second: outcome.nodes as f64 / (measured.median_ns as f64 / 1e9),
        },
    });

    // LP-bound tree collapse: on a machine-rich shape (m ≫ p) both bound
    // variants prove the same optimum, so the `nodes` columns compare the
    // full proof trees (a test in mf-exact pins both rows' exact node, LP
    // solve, reuse and pivot counts). The per-layer columns split the LP
    // row's price: `pivots_per_node` is the simplex work per node, and
    // `ns_per_pivot` divides the whole proof's median wall clock by its
    // pivots (an upper bound on one pivot's cost). The wall-clock race
    // between the two rows is the headline here.
    let lp_fixture = standard_instance(12, 16, 3, 7);
    for (name, lp) in [("bnb_prove/packing", false), ("bnb_prove/lp_bound", true)] {
        let config = || BnbConfig {
            lp_bounds: lp,
            ..BnbConfig::default()
        };
        let outcome = branch_and_bound(&lp_fixture, config()).unwrap();
        assert!(
            outcome.proven_optimal,
            "{name} must prove optimality on the m >> p fixture"
        );
        let measured = timing(time(iterations, || {
            branch_and_bound(&lp_fixture, config()).unwrap()
        }));
        rows.push(Measurement {
            name,
            timing: measured,
            iterations,
            quality: Quality::Proof {
                nodes: outcome.nodes,
                per_second: outcome.nodes as f64 / (measured.median_ns as f64 / 1e9),
                lp_pivots: outcome.lp_pivots,
            },
        });
    }

    // The serving path of a `load`, layer by layer: parsing the instance
    // text of the bench fixture, and journaling it — a churn of
    // `2 × COMPACT_EVERY` reloads over four names into a fresh data
    // directory, so each run crosses two compactions. Each timed churn
    // also clears the previous run's directory; `bytes` is the journal's
    // size when the churn ends.
    {
        let text = mf_core::textio::instance_to_text(&instance);
        let lines = text.lines().count() as u64;
        rows.push(Measurement {
            name: "load_path/parse",
            timing: timing(time(iterations, || {
                mf_core::textio::instance_from_text(&text).unwrap()
            })),
            iterations,
            quality: Quality::Counts(vec![("lines", lines)]),
        });

        let payload: Vec<String> = text.lines().map(str::to_string).collect();
        let dir = std::env::temp_dir().join(format!("mf-bench-journal-{}", std::process::id()));
        let appends = 2 * COMPACT_EVERY;
        let churn = || {
            let _ = std::fs::remove_dir_all(&dir);
            let journal = Journal::open(&dir).expect("temp data directory");
            for generation in 0..appends {
                let name = ["n0", "n1", "n2", "n3"][(generation % 4) as usize];
                journal
                    .record_load(name, generation, &payload)
                    .expect("journal append");
            }
            journal
        };
        let journal = churn();
        let compactions = journal
            .status_counters()
            .into_iter()
            .find(|(key, _)| key == "journal-compactions")
            .map_or(0, |(_, count)| count);
        let bytes = std::fs::metadata(journal.path()).map_or(0, |meta| meta.len());
        drop(journal);
        rows.push(Measurement {
            name: "load_path/journal",
            timing: timing(time(iterations, churn)),
            iterations,
            quality: Quality::Counts(vec![
                ("appends", appends),
                ("compactions", compactions),
                ("bytes", bytes),
            ]),
        });
        let _ = std::fs::remove_dir_all(&dir);

        // The whole serving path of a payload: one stdio session reading
        // 64 `load`s of the fixture under four names, each followed by an
        // `evaluate` of its H4w mapping (a cache miss), through the real
        // protocol reader, router and engine.
        let mapping_text = mf_core::textio::mapping_to_text(&seed);
        let mut script = String::new();
        let mut payload_lines = 0u64;
        for k in 0..64 {
            let name = ["n0", "n1", "n2", "n3"][k % 4];
            for (command, text) in [("load", &text), ("evaluate", &mapping_text)] {
                let count = text.lines().count();
                script.push_str(&format!("{command} {name} {count}\n"));
                script.push_str(text);
                payload_lines += count as u64;
            }
        }
        let router = Router::new(1, 1);
        let mut transcript = Vec::new();
        serve_stdio(&router, script.as_bytes(), &mut transcript).expect("in-memory session");
        let answers = String::from_utf8(transcript).expect("protocol output is UTF-8");
        assert_eq!(answers.matches("\nok load ").count(), 64, "{answers}");
        assert_eq!(answers.matches("\nok evaluate ").count(), 64, "{answers}");
        rows.push(Measurement {
            name: "load_path/session",
            timing: timing(time(iterations, || {
                serve_stdio(&router, script.as_bytes(), std::io::sink()).expect("in-memory session")
            })),
            iterations,
            quality: Quality::Counts(vec![("requests", 128), ("payload_lines", payload_lines)]),
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"mf-bench-summary v1\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"tasks\": {tasks}, \"machines\": {machines}, \
         \"sweep_budget\": {sweep_budget}, \"bnb_node_budget\": {node_budget}, \
         \"quick\": {quick}}},\n"
    ));
    json.push_str("  \"measurements\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let quality = match &row.quality {
            Quality::PeriodMs(period) => format!("\"period_ms\": {period}"),
            Quality::Nodes { count, per_second } => {
                format!("\"nodes\": {count}, \"nodes_per_second\": {per_second}")
            }
            Quality::Proof {
                nodes,
                per_second,
                lp_pivots,
            } => {
                let ns_per_pivot = match *lp_pivots {
                    0 => "null".to_string(),
                    pivots => (row.timing.median_ns as f64 / pivots as f64).to_string(),
                };
                format!(
                    "\"nodes\": {nodes}, \"nodes_per_second\": {per_second}, \
                     \"lp_pivots\": {lp_pivots}, \"pivots_per_node\": {}, \
                     \"ns_per_pivot\": {ns_per_pivot}",
                    *lp_pivots as f64 / *nodes as f64
                )
            }
            Quality::Sweep {
                period_ms,
                evaluator_calls,
                probes,
            } => format!(
                "\"period_ms\": {period_ms}, \"evaluator_calls\": {evaluator_calls}, \
                 \"probes\": {probes}"
            ),
            Quality::Counts(counts) => counts
                .iter()
                .map(|(name, count)| format!("\"{name}\": {count}"))
                .collect::<Vec<_>>()
                .join(", "),
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"elapsed_ns\": {}, \
             \"iterations\": {}, {}}}{}\n",
            row.name,
            row.timing.median_ns,
            row.timing.elapsed_ns,
            row.iterations,
            quality,
            if index + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write `{out_path}`: {e}");
        std::process::exit(1);
    });
    if let Some(trace_path) = &trace_path {
        // One span per measurement on a synthetic back-to-back timeline:
        // the starts are cumulative offsets (the bench interleaves rows
        // with untimed setup, so real timestamps would mean nothing), the
        // durations are each row's total timed nanoseconds.
        let mut offset_ns = 0u64;
        let events: Vec<mf_obs::TraceEvent> = rows
            .iter()
            .map(|row| {
                let duration_ns = u64::try_from(row.timing.elapsed_ns).unwrap_or(u64::MAX);
                let span = mf_obs::TraceEvent::Span {
                    name: row.name.replace('/', "."),
                    start_ns: offset_ns,
                    duration_ns,
                };
                offset_ns = offset_ns.saturating_add(duration_ns);
                span
            })
            .collect();
        let text = mf_obs::events_to_text(&events).expect("bench row names are valid tokens");
        std::fs::write(trace_path, text).unwrap_or_else(|e| {
            eprintln!("cannot write `{trace_path}`: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {trace_path}: {} span(s)", events.len());
    }
    eprintln!("wrote {out_path}:");
    for row in &rows {
        eprintln!(
            "  {:<34} median {:>12} ns  (total {:>13} ns)",
            row.name, row.timing.median_ns, row.timing.elapsed_ns
        );
    }
}
