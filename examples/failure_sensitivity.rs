//! Failure sensitivity: when does ignoring failures stop being a good idea?
//!
//! The paper concludes that H4w — which ignores failure rates entirely — is
//! the best heuristic under its 0.5–2% failure regime ("if we produce fast
//! enough we overcome the faults"). This example sweeps the failure intensity
//! from 0% to 30% and compares H4w with the failure-aware H4 and the
//! binary-search H2 to show where that conclusion stops holding.
//!
//! ```bash
//! cargo run --release --example failure_sensitivity
//! ```

use microfactory::prelude::*;

fn main() -> Result<()> {
    println!("max failure   H2 (ms)     H4 (ms)     H4w (ms)   H4w/H4");
    for &fmax in &[0.0f64, 0.02, 0.05, 0.10, 0.20, 0.30] {
        let config = GeneratorConfig {
            failure_range: (0.0, fmax.max(1e-9)),
            ..GeneratorConfig::paper_standard(40, 10, 4)
        };
        let generator = InstanceGenerator::new(config);

        // Average the three heuristics over a batch of instances.
        let mut sums = [0.0f64; 3];
        let reps = 20;
        for seed in 0..reps {
            let instance = generator.generate(1000 + seed)?;
            let h2 = H2BinaryPotential.period(&instance).expect("valid instance");
            let h4 = H4BestPerformance.period(&instance).expect("valid instance");
            let h4w = H4wFastestMachine.period(&instance).expect("valid instance");
            sums[0] += h2.value();
            sums[1] += h4.value();
            sums[2] += h4w.value();
        }
        let [h2, h4, h4w] = sums.map(|s| s / reps as f64);
        println!(
            "{:>10.0}%   {h2:>8.1}   {h4:>8.1}   {h4w:>8.1}   {:>6.3}",
            fmax * 100.0,
            h4w / h4
        );
    }
    println!(
        "\nReading: around the paper's regime (≤ 2%) H4w and H4 are within noise of each\n\
         other — speed is all that matters. As failures grow past ~10%, the failure-aware\n\
         H4 pulls ahead and the binary-search H2 becomes the most robust, matching the\n\
         paper's high-failure experiment (Figure 8)."
    );
    Ok(())
}
