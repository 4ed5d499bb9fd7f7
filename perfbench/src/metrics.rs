//! Metric declarations, percentile helpers and the one-line JSON report.
//!
//! The two tables below are the single source of the metric names: the
//! report prints exactly these, and a test pins them against
//! `BENCHMARK.json`.

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` (read by the `BENCHMARK.json` pin).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: every workload reports all of them (untraced run).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("requests_per_s", "req/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_p90_ms", "ms", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: every workload reports all of them (traced run);
/// a layer the mix does not reach reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Client-observed, per command, over the fixed-work phase.
    m("latency_p99_ms", "ms", "lower"),
    m("whatif_p50_us", "us", "lower"),
    m("evaluate_p50_us", "us", "lower"),
    m("load_p50_us", "us", "lower"),
    m("failed_frac", "1", "lower"),
    // Answer quality (deterministic for a seed).
    m("mean_period_ratio", "1", "lower"),
    m("proven_frac", "1", "higher"),
    m("mean_gap", "1", "lower"),
    // Shares of the mix's items with each cache-relevant property.
    m("mix.repeated_mapping_frac", "1", "higher"),
    m("mix.fresh_mapping_frac", "1", "lower"),
    m("mix.reload_frac", "1", "lower"),
    // server: serve loop + proto.
    m("server.parse_us", "us", "lower"),
    m("server.serialize_us", "us", "lower"),
    m("server.unseen_us.evaluate", "us", "lower"),
    m("server.unseen_us.whatif", "us", "lower"),
    m("server.unseen_us.solve", "us", "lower"),
    m("server.unseen_us.load", "us", "lower"),
    // router.
    m("router.dispatch_us", "us", "lower"),
    // engine: status-export histograms and stats deltas.
    m("engine.evaluate.p50_us", "us", "lower"),
    m("engine.evaluate.p99_us", "us", "lower"),
    m("engine.whatif.p50_us", "us", "lower"),
    m("engine.whatif.p99_us", "us", "lower"),
    m("engine.batch.p50_us", "us", "lower"),
    m("engine.batch.p99_us", "us", "lower"),
    m("engine.solve.p50_us", "us", "lower"),
    m("engine.solve.p99_us", "us", "lower"),
    m("engine.load.p50_us", "us", "lower"),
    m("engine.load.p99_us", "us", "lower"),
    m("engine.errors", "count", "lower"),
    m("engine.snapshot_hit_ratio", "1", "higher"),
    // store.
    m("store.get_ns", "ns", "lower"),
    m("store.instance_evictions", "count", "lower"),
    // cache.
    m("cache.hit_ratio", "1", "higher"),
    m("cache.evictions", "count", "lower"),
    m("cache.lookup_ns", "ns", "lower"),
    // journal.
    m("journal.append_us", "us", "lower"),
    m("journal.compactions", "count", "lower"),
    // core.
    m("core.parse_instance_us", "us", "lower"),
    m("core.parse_mapping_us", "us", "lower"),
    m("core.build_us", "us", "lower"),
    m("core.builds_per_evaluate", "1", "lower"),
    m("core.resume_ns", "ns", "lower"),
    m("core.whatif_ns", "ns", "lower"),
    m("core.whatif_dense", "count", "lower"),
    m("core.whatif_exact", "count", "lower"),
    m("core.mass_row_builds", "count", "lower"),
    // heuristics.
    m("heuristics.solve_ms.SD", "ms", "lower"),
    m("heuristics.solve_ms.TS", "ms", "lower"),
    m("heuristics.solve_ms.H6", "ms", "lower"),
    m("heuristics.solve_ms.LNS", "ms", "lower"),
    m("heuristics.evaluator_calls", "count", "lower"),
    m("heuristics.ns_per_call", "ns", "lower"),
    m("heuristics.sweep_skip_ratio", "1", "higher"),
    m("heuristics.sweep_skip_ratio.m20", "1", "higher"),
    m("heuristics.sweep_skip_ratio.m64", "1", "higher"),
    m("heuristics.sweep_rescales", "count", "higher"),
    // experiments.
    m("experiments.portfolio_ms", "ms", "lower"),
    m("experiments.portfolio_rounds", "count", "lower"),
    m("experiments.anytime_seed_us", "us", "lower"),
    m("experiments.anytime_lns_ms", "ms", "lower"),
    m("experiments.anytime_exact_ms", "ms", "lower"),
    // exact.
    m("exact.nodes_per_solve", "count", "lower"),
    m("exact.us_per_node", "us", "lower"),
    // lp.
    m("lp.solves_per_solve", "count", "lower"),
    m("lp.reuse_ratio", "1", "higher"),
    m("lp.root_bound_ms", "ms", "lower"),
    // The traced replay's decomposition of the dispatch total.
    m("trace.dispatch_ms", "ms", "lower"),
    m("trace.self_ms.router", "ms", "lower"),
    m("trace.self_ms.store", "ms", "lower"),
    m("trace.self_ms.cache", "ms", "lower"),
    m("trace.self_ms.core", "ms", "lower"),
    m("trace.self_ms.journal", "ms", "lower"),
    m("trace.self_ms.heuristics", "ms", "lower"),
    m("trace.self_ms.experiments", "ms", "lower"),
    m("trace.self_ms.exact", "ms", "lower"),
    m("trace.self_ms.lp", "ms", "lower"),
    m("trace.self_ms.other", "ms", "lower"),
    m("trace.other_frac", "1", "lower"),
    m("trace.overhead_frac", "1", "lower"),
];

/// The nearest-rank `q`-quantile of `sorted` (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The nearest-rank `q`-quantile of `sorted` `(value, weight)` pairs, each
/// value counted `weight` times (0 when the weights sum to 0).
pub fn weighted_quantile(sorted: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = sorted.iter().map(|&(_, weight)| weight).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(value, weight) in sorted {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("the rank is at most the total weight")
}

/// The median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `numerator / denominator`, 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The final report: the last line of standard output.
pub struct Report {
    /// Every answer checked out and every internal invariant held.
    pub correct: bool,
    /// Requests attempted in the measured phase.
    pub attempted: u64,
    /// Of which failed (error answer, transport failure, wrong answer).
    pub failed: u64,
    /// Metric values by name, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl Report {
    /// A report over `table`, taking each value from `values` (missing
    /// metrics are a bug and fail the run).
    pub fn new(
        table: &'static [MetricDef],
        values: &std::collections::BTreeMap<&'static str, f64>,
        attempted: u64,
        failed: u64,
    ) -> Report {
        let mut correct = true;
        let metrics = table
            .iter()
            .map(|def| {
                let value = values.get(def.name).copied().unwrap_or(f64::NAN);
                if !value.is_finite() {
                    eprintln!("perfbench: metric {} has no finite value", def.name);
                    correct = false;
                }
                (def, if value.is_finite() { value } else { 0.0 })
            })
            .collect();
        Report {
            correct: correct && failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name, value, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a metric name is made of `[A-Za-z0-9_.-]`, starts with a letter
    /// or digit, and has at most 64 characters.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(matches!(def.better, "higher" | "lower"));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    /// The declared tables and `BENCHMARK.json` name the same metrics, in
    /// the same order, with the same units and directions.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |name: &str| {
                        let at = entry.find(&format!("\"{name}\"")).expect("field present");
                        entry[at..]
                            .split('"')
                            .nth(3)
                            .expect("string value")
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String, String)> = table
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(section(key), declared, "{key}");
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.9), 90);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        let unit: Vec<(u64, u64)> = sorted.iter().map(|&v| (v, 1)).collect();
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(weighted_quantile(&unit, q), quantile(&sorted, q));
        }
        // 10 counted 3 times, 20 once: ranks 1-3 are 10, rank 4 is 20.
        assert_eq!(weighted_quantile(&[(10, 3), (20, 1)], 0.75), 10);
        assert_eq!(weighted_quantile(&[(10, 3), (20, 1)], 0.76), 20);
        assert_eq!(weighted_quantile(&[(10, 0)], 0.5), 0);
    }
}
