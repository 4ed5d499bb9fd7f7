//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <interactive|search|prove|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up one in-process `Router` behind `Server` on loopback
//! TCP (several times, reporting the median set-up time), drives it with
//! two closed-loop typed clients for `--seconds`, checks every answer, and
//! prints the end-to-end metrics. `--trace 1` drives a fixed amount of
//! work instead (so every count the server keeps repeats exactly for a
//! seed), harvests the server's counter deltas, then replays the stream
//! single-threaded with one span per layer call, and prints the per-layer
//! metrics. The last line of standard output is one JSON object; see
//! `README.md` beside this file.

mod check;
mod harvest;
mod loadgen;
mod metrics;
mod replay;
mod workload;

use check::{Quality, Verdict};
use loadgen::{PhaseRun, Setup, Until};
use metrics::{median, quantile, ratio, weighted_quantile, Report, END_TO_END, PER_LAYER};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Plan, Workload, CLIENTS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

const USAGE: &str =
    "usage: perfbench --workload <interactive|search|prove|ingest> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(args.workload, args.seed, Scale::FULL)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Where runs keep their journals and span files: inside the package.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn scratch(tag: &str) -> Result<PathBuf, String> {
    Ok(out_dir()?.join(format!("{tag}-{}", std::process::id())))
}

/// Process high-water resident set, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Checks both clients' answers (in parallel, one thread per client).
fn check(plan: &Plan, setup_answers: &[Vec<check::Answer>], phase: &PhaseRun) -> Vec<Verdict> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let run = &phase.clients[client];
                    let mut verdict =
                        check::check_client(plan, client, &setup_answers[client], &run.answers);
                    verdict.failed += run.differed;
                    if verdict.first_failure.is_none() {
                        verdict.first_failure = run
                            .first_difference
                            .as_ref()
                            .map(|d| format!("client {client}: {d}"));
                    }
                    verdict
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker threads do not panic"))
            .collect()
    })
}

/// Sum of failures; prints the first one.
fn failures(verdicts: &[Verdict]) -> u64 {
    for verdict in verdicts {
        if let Some(first) = &verdict.first_failure {
            eprintln!("perfbench: answer check failed: {first}");
        }
    }
    verdicts.iter().map(|v| v.failed).sum()
}

/// Client-observed latencies of the phase, sorted, in ns — optionally only
/// the top-level requests with one keyword.
fn latencies(plan: &Plan, phase: &PhaseRun, keyword: Option<&str>) -> Vec<u64> {
    let mut all = Vec::new();
    for (client, run) in phase.clients.iter().enumerate() {
        let stream = &plan.streams[client];
        for (i, &ns) in run.nanos.iter().enumerate() {
            let kind = stream[i % stream.len()].request.keyword();
            if keyword.map_or(true, |k| k == kind) {
                all.push(u64::from(ns));
            }
        }
    }
    all.sort_unstable();
    all
}

/// Per distinct request text of the plan's streams: its fastest round trip
/// in the phase (ns) and its weight, the number of times the streams hold
/// it — sorted by the round trip. A request the phase never sent is left
/// out.
///
/// The end-to-end latency quantiles are taken over these pairs: every
/// request counts at its own fastest round trip, with the mix's weights
/// from the plan rather than from where the timed phase happened to stop.
/// On a shared host other tenants slow a whole run by 10-50 %; they only
/// ever add time, so a request's best round trip over its dozens of
/// repetitions tracks the server's own cost, and a raw quantile does not
/// (it also hops between neighbouring requests' latencies on a mix of a
/// few dozen distinct solves). The raw quantiles go to standard error, and
/// the traced run's per-command p50s and p99 stay raw.
fn fastest_round_trips(plan: &Plan, phase: &PhaseRun) -> Vec<(u64, u64)> {
    let mut ids: HashMap<String, usize> = HashMap::new();
    // Per distinct request: (weight, fastest round trip so far).
    let mut groups: Vec<(u64, Option<u64>)> = Vec::new();
    for (stream, run) in plan.streams.iter().zip(&phase.clients) {
        let stream_ids: Vec<usize> = stream
            .iter()
            .map(|step| {
                let text = mf_server::proto::request_to_text(&step.request)
                    .expect("generated requests encode");
                let next = groups.len();
                let id = *ids.entry(text).or_insert(next);
                if id == next {
                    groups.push((0, None));
                }
                groups[id].0 += 1;
                id
            })
            .collect();
        for (i, &ns) in run.nanos.iter().enumerate() {
            let fastest = &mut groups[stream_ids[i % stream_ids.len()]].1;
            *fastest = Some(fastest.map_or(u64::from(ns), |f| f.min(u64::from(ns))));
        }
    }
    let mut fastest: Vec<(u64, u64)> = groups
        .into_iter()
        .filter_map(|(weight, fastest)| Some((fastest?, weight)))
        .collect();
    fastest.sort_unstable();
    fastest
}

fn untraced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup_seconds = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        let setup = Setup::new(Plan::new(workload, seed), scratch(&format!("tier{k}"))?)?;
        setup_seconds.push(start.elapsed().as_secs_f64());
        if k + 1 == SETUP_REPEATS {
            kept = Some(setup);
        } else {
            setup.tear_down()?;
        }
    }
    let mut setup = kept.expect("at least one set-up");
    let phase = setup.drive(Until::Elapsed(Duration::from_secs_f64(seconds)))?;
    let rss = peak_rss_mb();
    let verdicts = check(&setup.plan, &setup.warm_answers, &phase);
    let plan = setup.tear_down()?;

    let attempted: u64 = phase.clients.iter().map(|c| c.nanos.len() as u64).sum();
    let fastest = fastest_round_trips(&plan, &phase);
    let all = latencies(&plan, &phase, None);
    let mut values = BTreeMap::new();
    values.insert("setup_s", median(&mut setup_seconds));
    values.insert(
        "requests_per_s",
        ratio(attempted as f64, phase.elapsed.as_secs_f64()),
    );
    values.insert(
        "latency_p50_ms",
        weighted_quantile(&fastest, 0.50) as f64 / 1e6,
    );
    values.insert(
        "latency_p90_ms",
        weighted_quantile(&fastest, 0.90) as f64 / 1e6,
    );
    values.insert("peak_rss_mb", rss);
    eprintln!(
        "perfbench: {} seed {seed}: {attempted} requests in {:.3} s ({} distinct); raw p50 {:.4} ms, p90 {:.4} ms",
        workload.name(),
        phase.elapsed.as_secs_f64(),
        fastest.len(),
        quantile(&all, 0.50) as f64 / 1e6,
        quantile(&all, 0.90) as f64 / 1e6,
    );
    Ok(Report::new(
        END_TO_END,
        &values,
        attempted,
        failures(&verdicts),
    ))
}

/// How much fixed work a traced run does, per workload.
#[derive(Debug, Clone, Copy)]
struct Scale {
    /// Divides every request count (1 = the benchmark; larger = smoke).
    divisor: usize,
}

impl Scale {
    const FULL: Scale = Scale { divisor: 1 };

    /// Requests per client of the fixed-work closed-loop phase: one pass
    /// (the two clients' passes together cover the shared `search`/`prove`
    /// pools exactly once).
    fn loop_requests(self, plan: &Plan) -> usize {
        (plan.pass_len / self.divisor).max(1)
    }

    /// Pool steps per client of the traced replay.
    fn replay_requests(self, workload: Workload) -> usize {
        let per_client = match workload {
            Workload::Interactive => 3000,
            Workload::Search => 24,
            Workload::Prove => 8,
            Workload::Ingest => 1200,
        };
        (per_client / self.divisor).max(1)
    }
}

fn traced(workload: Workload, seed: u64, scale: Scale) -> Result<Report, String> {
    let mut setup = Setup::new(Plan::new(workload, seed), scratch("tier")?)?;
    let phase = setup.drive(Until::Requests(scale.loop_requests(&setup.plan)))?;
    let verdicts = check(&setup.plan, &setup.warm_answers, &phase);
    let plan = setup.tear_down()?;
    let spans = out_dir()?.join(format!("spans-{}-{seed}.tsv", workload.name()));
    let traced = replay::replay(
        &plan,
        scale.replay_requests(workload),
        &scratch("replay")?,
        &spans,
    )?;
    if let Some(mismatch) = &traced.first_mismatch {
        eprintln!("perfbench: replay mismatch: {mismatch}");
    }

    let mut quality = Quality::default();
    for verdict in &verdicts {
        quality.merge(&verdict.quality);
    }
    let failed = failures(&verdicts) + traced.mismatches;
    let attempted: u64 = phase
        .clients
        .iter()
        .map(|c| c.nanos.len() as u64)
        .sum::<u64>()
        + traced.requests;
    let values = per_layer(&plan, &phase, &quality, &traced, failed, attempted);
    eprintln!(
        "perfbench: {} seed {seed} traced: {} closed-loop requests, {} replayed; spans in {}",
        workload.name(),
        attempted - traced.requests,
        traced.requests,
        spans.display()
    );
    Ok(Report::new(PER_LAYER, &values, attempted, failed))
}

/// Derives every per-layer metric of a traced run.
fn per_layer(
    plan: &Plan,
    phase: &PhaseRun,
    quality: &Quality,
    traced: &replay::Traced,
    failed: u64,
    attempted: u64,
) -> BTreeMap<&'static str, f64> {
    let delta = &phase.delta;
    let stat = |key: &str| delta.stat(key) as f64;
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Client side.
    let client_p50 = |keyword: &str| quantile(&latencies(plan, phase, Some(keyword)), 0.5) as f64;
    v.insert(
        "latency_p99_ms",
        ms(quantile(&latencies(plan, phase, None), 0.99) as f64),
    );
    v.insert("whatif_p50_us", us(client_p50("whatif")));
    v.insert("evaluate_p50_us", us(client_p50("evaluate")));
    v.insert("load_p50_us", us(client_p50("load")));
    v.insert("failed_frac", ratio(failed as f64, attempted as f64));
    v.insert(
        "mean_period_ratio",
        ratio(quality.ratio_sum, quality.ratio_count as f64),
    );
    v.insert(
        "proven_frac",
        ratio(quality.proven as f64, quality.anytime as f64),
    );
    v.insert("mean_gap", ratio(quality.gap_sum, quality.anytime as f64));

    // Mix shares over the items sent in the phase.
    let mut items = 0.0;
    let (mut repeated, mut fresh, mut reload, mut whatifs) = (0.0, 0.0, 0.0, 0.0);
    for (client, run) in phase.clients.iter().enumerate() {
        let stream = &plan.streams[client];
        for i in 0..run.nanos.len() {
            let step = &stream[i % stream.len()];
            items += f64::from(step.mix.items);
            repeated += f64::from(step.mix.repeated);
            fresh += f64::from(step.mix.fresh);
            reload += f64::from(step.mix.reload);
            whatifs += match &step.request {
                mf_server::proto::Request::Batch(inner) => {
                    inner.iter().filter(|r| r.keyword() == "whatif").count() as f64
                }
                request => f64::from(u8::from(request.keyword() == "whatif")),
            };
        }
    }
    v.insert("mix.repeated_mapping_frac", ratio(repeated, items));
    v.insert("mix.fresh_mapping_frac", ratio(fresh, items));
    v.insert("mix.reload_frac", ratio(reload, items));

    // server.
    v.insert("server.parse_us", us(traced.mean_ns("server.parse")));
    v.insert(
        "server.serialize_us",
        us(traced.mean_ns("server.serialize")),
    );
    // Time the server's own histograms cannot see (socket, serve loop,
    // parse, serialize): client mean minus server mean per command. The
    // histogram sums are exact; their log2-bucket p50 is too coarse to
    // subtract from.
    for (metric, command) in [
        ("server.unseen_us.evaluate", "evaluate"),
        ("server.unseen_us.whatif", "whatif"),
        ("server.unseen_us.solve", "solve"),
        ("server.unseen_us.load", "load"),
    ] {
        let client = latencies(plan, phase, Some(command));
        let histogram = delta.histogram(command);
        let unseen = if client.is_empty() || histogram.count() == 0 {
            0.0
        } else {
            let client_mean = client.iter().sum::<u64>() as f64 / client.len() as f64;
            client_mean - histogram.sum_ns() as f64 / histogram.count() as f64
        };
        v.insert(metric, us(unseen));
    }

    // router.
    // The median hop: on solve-heavy mixes the two dispatches' own run-to-run
    // spread dwarfs the hop, and a mean would follow it.
    v.insert(
        "router.dispatch_us",
        us(median(&mut traced.router_hops.clone())),
    );

    // engine.
    for (command, p50, p99) in [
        (
            "evaluate",
            "engine.evaluate.p50_us",
            "engine.evaluate.p99_us",
        ),
        ("whatif", "engine.whatif.p50_us", "engine.whatif.p99_us"),
        ("batch", "engine.batch.p50_us", "engine.batch.p99_us"),
        ("solve", "engine.solve.p50_us", "engine.solve.p99_us"),
        ("load", "engine.load.p50_us", "engine.load.p99_us"),
    ] {
        let histogram = delta.histogram(command);
        v.insert(p50, us(histogram.p50_ns() as f64));
        v.insert(p99, us(histogram.p99_ns() as f64));
    }
    v.insert("engine.errors", stat("errors"));
    v.insert(
        "engine.snapshot_hit_ratio",
        ratio(stat("snapshot-hits"), whatifs),
    );

    // store, cache, journal.
    v.insert("store.get_ns", traced.mean_ns("store.get"));
    v.insert("store.instance_evictions", stat("instance-evictions"));
    let (hits, misses) = (stat("evaluate-cache-hits"), stat("evaluate-cache-misses"));
    v.insert("cache.hit_ratio", ratio(hits, hits + misses));
    v.insert("cache.evictions", stat("evaluate-cache-evictions"));
    v.insert("cache.lookup_ns", traced.mean_ns("cache.lookup"));
    v.insert("journal.append_us", us(traced.mean_ns("journal.append")));
    v.insert(
        "journal.compactions",
        delta.recovery("journal-compactions") as f64,
    );

    // core.
    v.insert(
        "core.parse_instance_us",
        us(traced.mean_ns("core.parse_instance")),
    );
    v.insert(
        "core.parse_mapping_us",
        us(traced.mean_ns("core.parse_mapping")),
    );
    v.insert("core.build_us", us(traced.mean_ns("core.build")));
    v.insert(
        "core.builds_per_evaluate",
        ratio(stat("evaluator-builds"), stat("evaluations")),
    );
    v.insert("core.resume_ns", traced.mean_ns("core.resume"));
    v.insert("core.whatif_ns", traced.mean_ns("core.whatif"));
    v.insert("core.whatif_dense", stat("whatif-dense"));
    v.insert("core.whatif_exact", stat("whatif-exact"));
    v.insert("core.mass_row_builds", stat("mass-row-builds"));

    // heuristics.
    let counts = &traced.counts;
    let mut heuristic_ns = 0.0;
    for (metric, span) in [
        ("heuristics.solve_ms.SD", "heuristics.solve.SD"),
        ("heuristics.solve_ms.TS", "heuristics.solve.TS"),
        ("heuristics.solve_ms.H6", "heuristics.solve.H6"),
        ("heuristics.solve_ms.LNS", "heuristics.solve.LNS"),
    ] {
        v.insert(metric, ms(traced.mean_ns(span)));
        heuristic_ns += traced.total_ns(span) as f64;
    }
    v.insert("heuristics.evaluator_calls", counts.evaluator_calls as f64);
    v.insert(
        "heuristics.ns_per_call",
        ratio(heuristic_ns, counts.evaluator_calls as f64),
    );
    v.insert(
        "heuristics.sweep_skip_ratio",
        ratio(stat("sweep-skips"), stat("sweep-probes")),
    );
    for (metric, machines) in [
        ("heuristics.sweep_skip_ratio.m20", 20),
        ("heuristics.sweep_skip_ratio.m64", 64),
    ] {
        let (probes, skips) = counts.sweep.get(&machines).copied().unwrap_or((0, 0));
        v.insert(metric, ratio(skips as f64, probes as f64));
    }
    v.insert("heuristics.sweep_rescales", stat("sweep-rescales"));

    // experiments, exact, lp.
    v.insert(
        "experiments.portfolio_ms",
        ms(traced.mean_ns("experiments.portfolio")),
    );
    v.insert(
        "experiments.portfolio_rounds",
        ratio(counts.portfolio_rounds as f64, counts.portfolios as f64),
    );
    v.insert(
        "experiments.anytime_seed_us",
        us(traced.mean_ns("experiments.anytime_seed")),
    );
    v.insert(
        "experiments.anytime_lns_ms",
        ms(traced.mean_ns("experiments.anytime_lns")),
    );
    v.insert(
        "experiments.anytime_exact_ms",
        ms(traced.mean_ns("experiments.anytime_exact")),
    );
    let anytime = stat("solves-anytime");
    v.insert("exact.nodes_per_solve", ratio(stat("bnb-nodes"), anytime));
    v.insert(
        "exact.us_per_node",
        us(ratio(
            traced.total_ns("experiments.anytime_exact") as f64,
            counts.nodes as f64,
        )),
    );
    let (lp_solves, lp_reuses) = (stat("lp-solves"), stat("lp-reuses"));
    v.insert("lp.solves_per_solve", ratio(lp_solves, anytime));
    v.insert("lp.reuse_ratio", ratio(lp_reuses, lp_solves + lp_reuses));
    v.insert("lp.root_bound_ms", ms(traced.mean_ns("lp.root_bound")));

    // The dispatch decomposition.
    v.insert("trace.dispatch_ms", ms(traced.dispatch_ns as f64));
    for (metric, layer) in [
        ("trace.self_ms.router", "router"),
        ("trace.self_ms.store", "store"),
        ("trace.self_ms.cache", "cache"),
        ("trace.self_ms.core", "core"),
        ("trace.self_ms.journal", "journal"),
        ("trace.self_ms.heuristics", "heuristics"),
        ("trace.self_ms.experiments", "experiments"),
        ("trace.self_ms.exact", "exact"),
        ("trace.self_ms.lp", "lp"),
        ("trace.self_ms.other", "other"),
    ] {
        v.insert(
            metric,
            ms(traced.self_ns.get(layer).copied().unwrap_or(0) as f64),
        );
    }
    let other = traced.self_ns.get("other").copied().unwrap_or(0) as f64;
    v.insert("trace.other_frac", ratio(other, traced.dispatch_ns as f64));
    v.insert(
        "trace.overhead_frac",
        ratio(traced.root_self_ns as f64, traced.root_ns as f64),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_refuse_garbage() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--workload prove --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::Prove);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 2.5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload prove --trace 2").is_err());
        assert!(parse("--seed 1").is_err(), "the workload is required");
        assert!(parse("--workload prove --bogus 1").is_err());
    }

    /// A smoke-length run of each workload, untraced and traced, reports
    /// every declared metric and checks every answer.
    #[test]
    fn smoke_runs_report_every_metric_without_failures() {
        let smoke = Scale { divisor: 16 };
        for workload in Workload::ALL {
            for report in [
                untraced(workload, 5, 0.3).unwrap(),
                traced(workload, 5, smoke).unwrap(),
            ] {
                let json = report.to_json();
                assert!(report.correct, "{}: {json}", workload.name());
                assert_eq!(report.failed, 0, "{}", workload.name());
                assert!(report.attempted > 0);
                for (def, value) in &report.metrics {
                    assert!(value.is_finite(), "{} {}", workload.name(), def.name);
                    assert!(json.contains(&format!("\"{}\":", def.name)));
                }
            }
        }
    }
}
