//! Pins the workspace generator's streams to literal values.
//!
//! Every seeded instance, randomized heuristic and portfolio answer draws
//! from `StdRng`, so a slip in its state expansion, word generator or range
//! mapping would otherwise surface only as a diff in some downstream golden
//! transcript. These values were recorded from the xoshiro256++ generator the
//! workspace has always used.

use mf_core::rng::StdRng;

#[test]
fn streams_are_pinned() {
    // (seed, its first four words).
    #[rustfmt::skip]
    let words: [(u64, [u64; 4]); 4] = [
        (0, [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc, 0x02eebf8c3bbe5e1a]),
        (1, [0xcfc5d07f6f03c29b, 0xbf424132963fe08d, 0x19a37d5757aaf520, 0xbf08119f05cd56d6]),
        (42, [0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8]),
        (u64::MAX,
         [0x56ccf8ce948e27b2, 0xe68588432e5a5b90, 0xe3e9b5a48119ca8b, 0x460f19495532ae73]),
    ];
    for (seed, expected) in words {
        let mut rng = StdRng::seed_from_u64(seed);
        let drawn: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(drawn, expected, "seed {seed:#x}");
    }

    // Four draws from each range type the workspace samples, then a
    // gen_bool(0.3) run and a choice over seven elements, all on one stream.
    #[rustfmt::skip]
    let (full_u64s, spans, units) = (
        [0xf6b263f2f5790376, 0x77385b627c22c489, 0xb951f9b3621ea380, 0x54705b5adc01e528],
        [7.636766026555468, 3.291600379669854, 5.962446129950406, 3.180933714257954],
        [0.16281387368151234, 0.18442811236560408, 0.10993980303125217, 0.7899376132152394],
    );
    let mut rng = StdRng::seed_from_u64(7);
    let usizes: Vec<usize> = (0..4).map(|_| rng.gen_range(0..10usize)).collect();
    assert_eq!(usizes, [0, 1, 7, 4]);
    let u64s: Vec<u64> = (0..4).map(|_| rng.gen_range(0..=u64::MAX)).collect();
    assert_eq!(u64s, full_u64s);
    let u32s: Vec<u32> = (0..4).map(|_| rng.gen_range(0..7u32)).collect();
    assert_eq!(u32s, [6, 0, 0, 1]);
    let drawn: Vec<f64> = (0..4).map(|_| rng.gen_range(2.5..9.5f64)).collect();
    assert_eq!(drawn, spans);
    let drawn: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..=1.0f64)).collect();
    assert_eq!(drawn, units);
    let hits: Vec<usize> = (0..16).filter(|_| rng.gen_bool(0.3)).collect();
    assert_eq!(hits, [5, 6, 7, 9, 11]);
    let xs = [10, 20, 30, 40, 50, 60, 70];
    let picks: Vec<i32> = (0..8).map(|_| *rng.choose(&xs).unwrap()).collect();
    assert_eq!(picks, [20, 50, 60, 60, 70, 50, 10, 30]);
}
