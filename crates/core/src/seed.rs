//! Seed mixing: the SplitMix64 finalizer every component uses to derive
//! per-stream RNG seeds from structured coordinates.
//!
//! The experiment harness derives one seed per (scenario, repetition,
//! heuristic) grid cell, and the H6 local search derives its neighborhood
//! stream from the cell seed. Both must use the *same* mixer so that seeds
//! stay well spread when the inputs only differ in a few low bits — grid
//! coordinates are small integers packed into disjoint bit ranges, which a
//! weak mixer would map to correlated streams.

/// Mixes a 64-bit value into a well-dispersed seed.
///
/// This is the SplitMix64 finalizer (Steele, Lea, Flood — the same step
/// [`StdRng::seed_from_u64`](crate::rng::StdRng::seed_from_u64) expands its
/// state with): an odd-constant add followed by two
/// xor-shift-multiply rounds and a closing xor-shift. It is bijective, so
/// distinct inputs can never collide, and it avalanches: flipping any input
/// bit flips each output bit with probability ~1/2.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_deterministic_and_distinct_on_small_inputs() {
        assert_eq!(splitmix64(0), splitmix64(0));
        let outputs: Vec<u64> = (0..4096u64).map(splitmix64).collect();
        let mut sorted = outputs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            outputs.len(),
            "bijective mixers cannot collide"
        );
    }

    /// Flipping any single input bit must flip roughly half of the output
    /// bits (avalanche). Averaged over inputs, the Hamming distance of a
    /// 64-bit avalanche is 32 with a small deviation.
    #[test]
    fn splitmix64_avalanches_on_every_input_bit() {
        let samples: Vec<u64> = (0..32u64)
            .map(|i| splitmix64(i.wrapping_mul(0xABCD)))
            .collect();
        for bit in 0..64 {
            let mut total = 0u32;
            for &z in &samples {
                total += (splitmix64(z) ^ splitmix64(z ^ (1u64 << bit))).count_ones();
            }
            let mean = f64::from(total) / samples.len() as f64;
            assert!(
                (24.0..=40.0).contains(&mean),
                "bit {bit}: mean avalanche {mean:.1} out of 64"
            );
        }
    }

    /// Consecutive inputs (the worst case for grid coordinates) must land in
    /// well-dispersed buckets: the low 16 bits of 4096 consecutive outputs
    /// should cover close to the birthday-problem expectation (~3969 distinct
    /// values out of 65536 buckets).
    #[test]
    fn splitmix64_disperses_consecutive_inputs() {
        let mut low_bits: Vec<u16> = (0..4096u64).map(|z| splitmix64(z) as u16).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(
            low_bits.len() > 3700,
            "only {} distinct low-16-bit buckets out of 4096 draws",
            low_bits.len()
        );
    }
}
