//! `microfactory` — command-line front end.
//!
//! ```text
//! microfactory generate --tasks 20 --machines 8 --types 3 --seed 1 > line.mf
//! microfactory solve --heuristic h4w line.mf > mapping.mf
//! microfactory solve --exact line.mf
//! microfactory evaluate line.mf mapping.mf
//! microfactory simulate --products 5000 line.mf mapping.mf
//! ```
//!
//! Instances and mappings use the plain-text format of `mf_core::textio`.

use mf_core::prelude::*;
use mf_core::textio;
use mf_exact::solve::anytime::AnytimeEvent;
use mf_exact::solve::runner::BatchRunner;
use mf_exact::solve::{Method, Observer, Telemetry, DEFAULT_HEURISTIC_SEED};
use mf_heuristics::all_paper_heuristics;
use mf_obs::{
    events_from_text, events_to_text, Clock, MonotonicClock, SharedTraceWriter, TraceEvent,
};
use mf_sim::{FactorySimulation, GeneratorConfig, InstanceGenerator, SimulationConfig};
use std::process::ExitCode;
use std::sync::Arc;

mod args;
use args::Arguments;

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let command = raw.remove(0);
    let args = Arguments::parse(&raw);
    let result = match command.as_str() {
        "generate" => checked(&command, &args, FLAGS_GENERATE, generate),
        "solve" => checked(&command, &args, FLAGS_SOLVE, solve),
        "evaluate" => checked(&command, &args, FLAGS_EVALUATE, evaluate),
        "simulate" => checked(&command, &args, FLAGS_SIMULATE, simulate),
        "serve" => checked(&command, &args, FLAGS_SERVE, serve),
        "client" => checked(&command, &args, FLAGS_CLIENT, client),
        "stats" => checked(&command, &args, FLAGS_STATS, stats),
        "trace" => checked(&command, &args, FLAGS_TRACE, trace),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
microfactory — throughput optimization for micro-factories subject to failures

USAGE:
  microfactory generate --tasks N --machines M --types P [--seed S] [--high-failure]
  microfactory solve    [--heuristic NAME | --exact | --portfolio | --anytime]
                        [--budget N] [--all] [--threads N] [--trace PATH]
                        INSTANCE
  microfactory evaluate INSTANCE MAPPING
  microfactory simulate [--products N] [--seed S] INSTANCE MAPPING
  microfactory serve    [--port P] [--threads N] [--workers W] [--stdio]
                        [--data-dir PATH] [--trace-dir PATH] [--slow-ms N]
  microfactory client   [--host H] --port P
  microfactory stats    [--host H] --port P [--json]
  microfactory trace    TRACE

COMMANDS:
  generate   print a random instance (paper's experimental distribution)
  solve      print a mapping computed by a heuristic (default h4w), the exact
             solver, or the parallel search portfolio (--portfolio races all
             constructive seeds x strategies x RNG streams on --threads
             workers; deterministic for any thread count); --trace PATH
             writes an mf-trace v1 log of the solve: every committed
             search step (with the period it reached and whether it
             improved the incumbent) and per-round cell summaries — the
             mapping printed is bit-identical with or without the flag;
             --anytime runs the incumbent/bound race (H4w seed,
             subtree-move LNS slice, LP-warm-started branch-and-bound)
             under a --budget of deterministic steps (default 200000),
             printing every improvement and the live optimality gap to
             stderr
  evaluate   print the period, throughput and per-machine loads of a mapping
  simulate   run the discrete-event simulation of a mapping
  serve      run the long-lived mf-proto solve/evaluate server: resident
             named instances, session whatif probes, one solver pool and
             one keyed evaluate cache (--port 0 picks a free port; --stdio
             serves one pipe session; --workers W hashes instance names
             across W engines behind the router, default 1, all sharing
             one store — answers are byte-identical for any W;
             --data-dir PATH journals loads/unloads to PATH/journal.mfj
             and replays them on boot, so instances — and their store
             generations — survive a restart or crash; --trace-dir PATH
             appends every instance command's latency span to
             PATH/server.mf-trace; --slow-ms N logs instance commands
             slower than N ms to stderr — default 1000)
  client     connect to a server and run the script on stdin (load/evaluate
             take client-side file paths; everything else is raw protocol)
  stats      fetch a running server's counters (one `key value` per line);
             --json emits the machine-readable mf-stats v1 report instead
             (with per-command latency histograms once the tier saw
             traffic)
  trace      verify an mf-trace v1 file round-trips byte-identically and
             print a summary of its events

HEURISTICS: h1, h2, h3, h4, h4w, h4f, plus the search strategies over any of
            them — h6 (annealed climb), sd (steepest descent), ts (tabu),
            lns (subtree-move large neighborhood): bare names polish h4w,
            h6-h2 / sd-h1 / lns-h4f pick the seed explicitly; use --all to
            compare";

/// Valid flags per subcommand (anything else is rejected up front).
const FLAGS_GENERATE: &[&str] = &["tasks", "machines", "types", "seed", "high-failure"];
const FLAGS_SOLVE: &[&str] = &[
    "heuristic",
    "exact",
    "portfolio",
    "anytime",
    "budget",
    "all",
    "threads",
    "trace",
];
const FLAGS_EVALUATE: &[&str] = &[];
const FLAGS_SIMULATE: &[&str] = &["products", "seed"];
const FLAGS_SERVE: &[&str] = &[
    "port",
    "threads",
    "workers",
    "stdio",
    "data-dir",
    "trace-dir",
    "slow-ms",
];
const FLAGS_CLIENT: &[&str] = &["host", "port"];
const FLAGS_STATS: &[&str] = &["host", "port", "json"];
const FLAGS_TRACE: &[&str] = &[];

/// Runs a subcommand after rejecting unknown flags.
fn checked(
    command: &str,
    args: &Arguments,
    allowed: &[&str],
    run: fn(&Arguments) -> std::result::Result<(), String>,
) -> std::result::Result<(), String> {
    args.reject_unknown_flags(command, allowed)?;
    run(args)
}

fn generate(args: &Arguments) -> std::result::Result<(), String> {
    let tasks = args.usize_flag("tasks").ok_or("missing --tasks")?;
    let machines = args.usize_flag("machines").ok_or("missing --machines")?;
    let types = args.usize_flag("types").ok_or("missing --types")?;
    let seed = args.u64_flag("seed").unwrap_or(1);
    let config = if args.has_flag("high-failure") {
        GeneratorConfig::paper_high_failure(tasks, machines, types)
    } else {
        GeneratorConfig::paper_standard(tasks, machines, types)
    };
    let instance = InstanceGenerator::new(config)
        .generate(seed)
        .map_err(|e| format!("cannot generate instance: {e}"))?;
    print!("{}", textio::instance_to_text(&instance));
    Ok(())
}

fn load_instance(path: &str) -> std::result::Result<Instance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    textio::instance_from_text(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

fn load_mapping(path: &str) -> std::result::Result<Mapping, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    textio::mapping_from_text(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

fn solve(args: &Arguments) -> std::result::Result<(), String> {
    let path = args.positional(0).ok_or("missing INSTANCE file")?;
    let instance = load_instance(path)?;
    // Tracing is pure observation: the mapping printed (and every stderr
    // diagnostic line) is bit-identical with and without `--trace`.
    let trace_path = args.string_flag("trace");
    let mut trace_events: Vec<TraceEvent> = Vec::new();
    let solve_clock = MonotonicClock::new();
    let solve_start_ns = solve_clock.now_ns();
    if args.has_flag("all") {
        eprintln!(
            "{:<6} {:>12} {:>16}",
            "name", "period(ms)", "throughput(/s)"
        );
        // The six constructive heuristics, then one column per search
        // strategy (over the default H4w seed).
        let strategies = mf_heuristics::STRATEGY_PREFIXES
            .iter()
            .filter_map(|prefix| mf_heuristics::paper_heuristic(prefix, DEFAULT_HEURISTIC_SEED));
        for heuristic in all_paper_heuristics(DEFAULT_HEURISTIC_SEED)
            .into_iter()
            .chain(strategies)
        {
            match heuristic.period(&instance) {
                Ok(period) => eprintln!(
                    "{:<6} {:>12.1} {:>16.4}",
                    heuristic.name(),
                    period.value(),
                    1000.0 / period.value()
                ),
                Err(e) => eprintln!("{:<6} failed: {e}", heuristic.name()),
            }
        }
    }
    let heuristic = args.string_flag("heuristic");
    let method = if args.has_flag("portfolio") {
        Method::Portfolio
    } else if args.has_flag("exact") {
        Method::Exact
    } else if args.has_flag("anytime") {
        eprintln!(
            "{:<5} {:>10} {:>12} {:>12} {:>8}",
            "phase", "step", "period(ms)", "bound(ms)", "gap"
        );
        Method::Anytime {
            budget: args.u64_flag("budget"),
        }
    } else {
        Method::Heuristic(heuristic.as_deref().unwrap_or("h4w"))
    };
    let runner = BatchRunner::new(args.usize_flag("threads").unwrap_or(0));
    let mut print_event = |event: &AnytimeEvent| {
        eprintln!(
            "{:<5} {:>10} {:>12.1} {:>12.1} {:>7.2}%{}",
            event.phase.label(),
            event.steps,
            event.period,
            event.bound,
            100.0 * event.gap(),
            if event.proven { " (proven)" } else { "" }
        );
    };
    let observer = Observer {
        on_event: &mut print_event,
        trace: trace_path.is_some().then_some(&mut trace_events),
    };
    let solved = mf_exact::solve::solve(&instance, method, None, &runner, observer)
        .map_err(|e| e.to_string())?;
    let label = match &solved.telemetry {
        Telemetry::Portfolio(outcome) => {
            eprintln!(
                "{:<10} {:>12} {:>16}",
                "cell", "period(ms)", "throughput(/s)"
            );
            for cell in &outcome.cells {
                match cell.period {
                    Some(ms) => eprintln!("{:<10} {ms:>12.1} {:>16.4}", cell.label, 1000.0 / ms),
                    None => eprintln!("{:<10} seed infeasible", cell.label),
                }
            }
            let (rounds, threads) = (outcome.rounds, runner.threads());
            let winner = &solved.label;
            format!("portfolio winner {winner} after {rounds} round(s) on {threads} thread(s)")
        }
        Telemetry::Exact(_) if solved.proven => "exact optimum".to_string(),
        Telemetry::Exact(_) => "best found (budget hit)".to_string(),
        Telemetry::Anytime(_) if solved.proven => {
            format!("anytime proven optimum in {} step(s)", solved.steps)
        }
        Telemetry::Anytime(outcome) => {
            let (gap, steps) = (100.0 * outcome.gap(), solved.steps);
            format!("anytime best (gap {gap:.2}%) after {steps} step(s)")
        }
        Telemetry::Heuristic(_) => solved.label.clone(),
    };
    let mapping = solved.mapping;
    let period = instance.period(&mapping).map_err(|e| e.to_string())?;
    eprintln!(
        "{label}: period {:.1} ms ({:.4} products/s)",
        period.value(),
        1000.0 / period.value()
    );
    if let Some(trace_path) = trace_path {
        trace_events.push(TraceEvent::Span {
            name: "solve".to_string(),
            start_ns: solve_start_ns,
            duration_ns: solve_clock.now_ns().saturating_sub(solve_start_ns),
        });
        let text =
            events_to_text(&trace_events).map_err(|e| format!("cannot serialize trace: {e}"))?;
        std::fs::write(&trace_path, text)
            .map_err(|e| format!("cannot write `{trace_path}`: {e}"))?;
        eprintln!("trace: {} event(s) -> {trace_path}", trace_events.len());
    }
    print!("{}", textio::mapping_to_text(&mapping));
    Ok(())
}

fn evaluate(args: &Arguments) -> std::result::Result<(), String> {
    let instance = load_instance(args.positional(0).ok_or("missing INSTANCE file")?)?;
    let mapping = load_mapping(args.positional(1).ok_or("missing MAPPING file")?)?;
    instance
        .validate_mapping(&mapping, MappingKind::General)
        .map_err(|e| format!("mapping does not fit the instance: {e}"))?;
    let breakdown = instance
        .machine_periods(&mapping)
        .map_err(|e| e.to_string())?;
    let period = breakdown.system_period();
    println!("rule:        {}", mapping.kind(instance.application()));
    println!("period:      {:.1} ms", period.value());
    println!("throughput:  {:.4} products/s", 1000.0 / period.value());
    println!("machine loads:");
    for u in instance.platform().machines() {
        let load = breakdown.of(u).value();
        let marker = if breakdown.critical_machines(1e-9).contains(&u) {
            "  <- critical"
        } else {
            ""
        };
        println!("  {u}: {load:.1} ms{marker}");
    }
    let demands = instance.demands(&mapping).map_err(|e| e.to_string())?;
    println!("raw products per finished product:");
    for (task, demand) in demands.source_demands(instance.application()) {
        println!("  {task}: {demand:.3}");
    }
    Ok(())
}

fn build_serve_router(
    workers: usize,
    threads: usize,
    data_dir: Option<&str>,
    obs: mf_server::ObsConfig,
) -> std::result::Result<mf_server::Router, String> {
    match data_dir {
        Some(dir) => mf_server::Router::with_data_dir_observability(workers, threads, dir, obs)
            .map_err(|e| format!("cannot open data dir `{dir}`: {e}")),
        None => Ok(mf_server::Router::with_observability(workers, threads, obs)),
    }
}

/// The serving tier's observability wiring from `--trace-dir` / `--slow-ms`:
/// the config every worker shard shares, plus the trace writer
/// to finish once the serve loop ends.
fn serve_observability(
    args: &Arguments,
) -> std::result::Result<(mf_server::ObsConfig, Option<Arc<SharedTraceWriter>>), String> {
    let mut obs = mf_server::ObsConfig::new();
    if let Some(ms) = args.u64_flag("slow-ms") {
        obs = obs.with_slow_threshold_ns(ms.saturating_mul(1_000_000));
    }
    let trace = match args.string_flag("trace-dir") {
        Some(dir) => {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create trace dir `{dir}`: {e}"))?;
            let path = std::path::Path::new(&dir).join("server.mf-trace");
            let writer = SharedTraceWriter::create(&path)
                .map_err(|e| format!("cannot create `{}`: {e}", path.display()))?;
            let writer = Arc::new(writer);
            obs = obs.with_trace(Arc::clone(&writer));
            Some(writer)
        }
        None => None,
    };
    Ok((obs, trace))
}

fn serve(args: &Arguments) -> std::result::Result<(), String> {
    let threads = args.usize_flag("threads").unwrap_or(0);
    let workers = args.usize_flag("workers").unwrap_or(1);
    let data_dir = args.string_flag("data-dir");
    let data_dir = data_dir.as_deref();
    let (obs, trace) = serve_observability(args)?;
    let result = serve_with(args, threads, workers, data_dir, obs);
    if let Some(writer) = trace {
        writer
            .finish()
            .map_err(|e| format!("cannot finish trace file: {e}"))?;
    }
    result
}

fn serve_with(
    args: &Arguments,
    threads: usize,
    workers: usize,
    data_dir: Option<&str>,
    obs: mf_server::ObsConfig,
) -> std::result::Result<(), String> {
    if args.has_flag("stdio") {
        let router = build_serve_router(workers, threads, data_dir, obs)?;
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return mf_server::serve_stdio(&router, stdin.lock(), stdout.lock())
            .map_err(|e| format!("stdio session failed: {e}"));
    }
    let port = match args.string_flag("port") {
        Some(raw) => raw
            .parse::<u16>()
            .map_err(|_| format!("invalid --port `{raw}` (expected 0..=65535)"))?,
        None => 0,
    };
    let router = Arc::new(build_serve_router(workers, threads, data_dir, obs)?);
    let server = mf_server::Server::with_handler(("127.0.0.1", port), router)
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let router = server.router();
    eprintln!(
        "mf-server listening on {addr} ({} worker shard(s) sharing {} solver thread(s)); \
         send `shutdown` to stop",
        router.workers(),
        router.runner().threads()
    );
    server.run().map_err(|e| format!("server loop failed: {e}"))
}

fn connect_client(args: &Arguments) -> std::result::Result<mf_server::Client, String> {
    let host = args
        .string_flag("host")
        .unwrap_or_else(|| "127.0.0.1".to_string());
    let port = args.usize_flag("port").ok_or("missing --port")?;
    let port = u16::try_from(port).map_err(|_| format!("invalid --port `{port}`"))?;
    mf_server::Client::connect((host.as_str(), port))
        .map_err(|e| format!("cannot connect to {host}:{port}: {e}"))
}

fn stats(args: &Arguments) -> std::result::Result<(), String> {
    let mut client = connect_client(args)?;
    client
        .hello(mf_server::CURRENT_VERSION)
        .map_err(|e| format!("version negotiation failed: {e}"))?;
    if args.has_flag("json") {
        let report = client
            .status_export()
            .map_err(|e| format!("status-export failed: {e}"))?;
        print!("{report}");
    } else {
        let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
        for (key, value) in stats {
            println!("{key} {value}");
        }
    }
    Ok(())
}

/// Verifies an `mf-trace v1` file and prints a one-screen summary.
///
/// "Verify" means the full canonical-form contract: the file parses, and
/// re-serializing the parsed events reproduces the input **byte for byte**
/// (the same write→parse→write identity the format's tests pin).
fn trace(args: &Arguments) -> std::result::Result<(), String> {
    let path = args.positional(0).ok_or("missing TRACE file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let events = events_from_text(&text)
        .map_err(|e| format!("`{path}` is not a valid mf-trace v1 file: {e}"))?;
    let round_trip =
        events_to_text(&events).map_err(|e| format!("cannot re-serialize `{path}`: {e}"))?;
    if round_trip != text {
        return Err(format!(
            "`{path}` parses but is not in canonical form (round-trip differs)"
        ));
    }
    let mut spans = 0u64;
    let mut span_ns = 0u64;
    let mut slow = 0u64;
    let mut commits = 0u64;
    let mut improved_commits = 0u64;
    let mut rounds = 0u64;
    let mut done_rounds = 0u64;
    for event in &events {
        match event {
            TraceEvent::Span { duration_ns, .. } => {
                spans += 1;
                span_ns = span_ns.saturating_add(*duration_ns);
            }
            TraceEvent::Slow { .. } => slow += 1,
            TraceEvent::Commit { improved, .. } => {
                commits += 1;
                improved_commits += u64::from(*improved);
            }
            TraceEvent::Round { done, .. } => {
                rounds += 1;
                done_rounds += u64::from(*done);
            }
        }
    }
    println!("{path}: mf-trace v1, {} event(s), canonical", events.len());
    println!("  spans:   {spans} ({span_ns} ns total)");
    println!("  slow:    {slow}");
    println!("  commits: {commits} ({improved_commits} improved the incumbent)");
    println!(
        "  rounds:  {rounds} ({done_rounds} done: a converged portfolio cell or a proven \
         anytime incumbent)"
    );
    Ok(())
}

/// Translates one client-script line into a structured request where the
/// script syntax diverges from the wire: `load`/`evaluate` take a
/// client-side file path whose contents become the inline payload, and a
/// `batch N` head swallows its next `N` script lines as the envelope items
/// (so the envelope ships atomically instead of deadlocking a line-by-line
/// loop). Returns `None` for plain single-line requests — those go out
/// verbatim through [`mf_server::Client::send_line`].
fn script_request(
    head: &str,
    lines: &[&str],
    next: &mut usize,
) -> std::result::Result<Option<mf_server::Request>, String> {
    let read_payload = |path: &str| {
        std::fs::read_to_string(path)
            .map(|text| mf_server::text_payload(&text))
            .map_err(|e| format!("cannot read `{path}`: {e}"))
    };
    let tokens: Vec<&str> = head.split_whitespace().collect();
    match tokens.as_slice() {
        ["load", name, path] => Ok(Some(mf_server::Request::Load {
            name: name.to_string(),
            payload: read_payload(path)?,
        })),
        ["evaluate", name, path] => Ok(Some(mf_server::Request::Evaluate {
            name: name.to_string(),
            payload: read_payload(path)?,
        })),
        ["batch", count] => {
            let count: usize = count
                .parse()
                .map_err(|_| format!("bad batch count `{count}`"))?;
            let mut items = Vec::with_capacity(count);
            while items.len() < count {
                let item = lines
                    .get(*next)
                    .ok_or("script ends inside a batch envelope")?
                    .trim();
                *next += 1;
                if item.is_empty() || item.starts_with('#') {
                    continue;
                }
                let request = match script_request(item, lines, next)? {
                    Some(request) => request,
                    None => mf_server::request_from_text(&format!("{item}\n"))
                        .map_err(|e| format!("bad request `{item}`: {e}"))?,
                };
                items.push(request);
            }
            Ok(Some(mf_server::Request::Batch(items)))
        }
        _ => Ok(None),
    }
}

fn client(args: &Arguments) -> std::result::Result<(), String> {
    let mut client = connect_client(args)?;
    let stdin = std::io::stdin();
    let mut script = String::new();
    std::io::Read::read_to_string(&mut stdin.lock(), &mut script)
        .map_err(|e| format!("cannot read script from stdin: {e}"))?;
    let lines: Vec<&str> = script.lines().collect();
    let mut next = 0;
    while next < lines.len() {
        let line = lines[next].trim();
        next += 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let response = match script_request(line, &lines, &mut next)? {
            Some(request) => client.request(&request),
            None => client.send_line(line),
        }
        .map_err(|e| format!("request failed: {e}"))?;
        print!(
            "{}",
            mf_server::response_to_text(&response).map_err(|e| e.to_string())?
        );
        if matches!(response, mf_server::Response::Shutdown) {
            break;
        }
    }
    Ok(())
}

fn simulate(args: &Arguments) -> std::result::Result<(), String> {
    let instance = load_instance(args.positional(0).ok_or("missing INSTANCE file")?)?;
    let mapping = load_mapping(args.positional(1).ok_or("missing MAPPING file")?)?;
    let products = args.u64_flag("products").unwrap_or(5_000);
    let seed = args.u64_flag("seed").unwrap_or(0x5EED);
    let config = SimulationConfig {
        seed,
        target_products: products,
        warmup_products: (products / 20).max(10),
        ..Default::default()
    };
    let report = FactorySimulation::new(&instance, &mapping, config)
        .run()
        .map_err(|e| format!("simulation failed: {e}"))?;
    let analytic = instance
        .period(&mapping)
        .map_err(|e| e.to_string())?
        .value();
    println!("products out:      {}", report.produced);
    println!("simulated period:  {:.1} ms", report.measured_period);
    println!("analytic period:   {analytic:.1} ms");
    println!(
        "relative error:    {:.2}%",
        100.0 * (report.measured_period - analytic).abs() / analytic
    );
    println!("losses per task:");
    for task in instance.application().tasks() {
        if let Some(observed) = report.observed_failure_rate(task.id) {
            println!(
                "  {}: {:.2}% observed ({:.2}% modelled)",
                task.id,
                100.0 * observed,
                100.0
                    * instance
                        .failure(task.id, mapping.machine_of(task.id))
                        .value()
            );
        }
    }
    Ok(())
}
