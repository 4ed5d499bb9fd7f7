//! Capacity planning: how many machines does a target throughput need?
//!
//! The factory must ship one micro-component every 400 ms. Starting from the
//! minimum platform (one machine per task type), machines are added one by one
//! and the line is re-mapped with the paper's heuristics until the throughput
//! target is met — the kind of what-if study the throughput model is meant to
//! answer for a production engineer.
//!
//! ```bash
//! cargo run --release --example capacity_planning
//! ```

use mf_core::rng::StdRng;
use microfactory::prelude::*;

const TARGET_PERIOD_MS: f64 = 400.0;

fn main() -> Result<()> {
    let mut rng = StdRng::seed_from_u64(2010);

    // A 24-task chain over 4 operation types.
    let types: Vec<usize> = (0..24).map(|i| i % 4).collect();
    let app = Application::linear_chain(&types)?;

    // Candidate machine pool: each machine has its own speed profile per type
    // and its own reliability; we may install up to 20 of them.
    let pool_times: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..20).map(|_| rng.gen_range(100.0..1000.0)).collect())
        .collect();
    let pool_failures: Vec<Vec<f64>> = (0..24)
        .map(|_| (0..20).map(|_| rng.gen_range(0.005..0.02)).collect())
        .collect();

    println!("target: one product every {TARGET_PERIOD_MS} ms\n");
    println!("machines   best heuristic   period (ms)   throughput (/s)");

    for m in 4..=20 {
        // Install the first m machines of the pool.
        let platform =
            Platform::from_type_times(m, pool_times.iter().map(|row| row[..m].to_vec()).collect())?;
        let failures = FailureModel::from_matrix(
            pool_failures.iter().map(|row| row[..m].to_vec()).collect(),
            m,
        )?;
        let instance = Instance::new(app.clone(), platform, failures)?;

        // Best heuristic mapping for this platform size.
        let mut best: Option<(String, f64)> = None;
        for heuristic in all_paper_heuristics(1) {
            if let Ok(period) = heuristic.period(&instance) {
                let value = period.value();
                if best.as_ref().map_or(true, |(_, p)| value < *p) {
                    best = Some((heuristic.name().to_string(), value));
                }
            }
        }
        let (name, period) = best.expect("every heuristic handles m >= p");
        println!(
            "{m:>8}   {name:<14}   {period:>10.1}   {:>12.3}",
            1000.0 / period
        );

        if period <= TARGET_PERIOD_MS {
            println!(
                "\n=> {m} machines are enough: {name} reaches {period:.1} ms (target {TARGET_PERIOD_MS} ms)."
            );
            return Ok(());
        }
    }
    println!("\n=> even 20 machines cannot reach the target; the chain itself is too slow.");
    Ok(())
}
