//! Differential pin of the two entries into the simplex: random slack-form
//! maximisations solved through `solve(&LpProblem)` and through one reused
//! `SlackForm` must agree to the bit — objective, every value and the pivot
//! count — and the workspace must reject what `LpProblem::validate` rejects.

use mf_lp::{solve, ConstraintSense, LpError, LpProblem, Objective, SlackForm, VariableId};

/// A seeded splitmix64 stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// One of `values`, so draws repeat and the simplex meets ties.
    fn pick(&mut self, values: &[f64]) -> f64 {
        values[self.below(values.len())]
    }
}

/// A slack-form maximisation: objective terms, and per row its sparse
/// terms and right-hand side.
struct Case {
    columns: usize,
    objective: Vec<(usize, f64)>,
    rows: Vec<(Vec<(usize, f64)>, f64)>,
}

/// A dense-ish random problem with coefficients, objective and right-hand
/// sides drawn from small sets (zero right-hand sides included), so the
/// ratio test and the pricing see many ties and degenerate pivots.
fn random_case(stream: &mut Stream) -> Case {
    let columns = 1 + stream.below(30);
    let rows = 1 + stream.below(20);
    let objective = (0..columns)
        .map(|j| (j, stream.pick(&[0.0, 1.0, 1.0, 2.0, -1.0, 0.5])))
        .collect();
    let rows = (0..rows)
        .map(|_| {
            let mut terms = Vec::new();
            for j in 0..columns {
                if stream.below(3) > 0 {
                    terms.push((j, stream.pick(&[1.0, 1.0, 2.0, 3.0, 0.5, -1.0, -2.0, 0.0])));
                }
                // A repeated term, which both entries must sum.
                if stream.below(8) == 0 {
                    terms.push((j, stream.pick(&[1.0, -0.5])));
                }
            }
            (terms, stream.pick(&[0.0, 0.0, 1.0, 2.0, 5.0, 7.25]))
        })
        .collect();
    Case {
        columns,
        objective,
        rows,
    }
}

/// The shape of branch-and-bound's compact load-splitting relaxation with
/// `tasks` tasks on `machines` machines: one column per non-reference
/// placement plus the makespan slack `s`, a machine row per machine
/// (`+c` on the placement's machine, `−c_r` on its reference's, `+s`, right-
/// hand side `K̄ − L_u`, zero on the busiest machines) and a `Σ x ≤ 1` row
/// per task. Costs come from a small set, so references and ratios tie.
fn compact_case(stream: &mut Stream, tasks: usize, machines: usize) -> Case {
    let mut columns = Vec::new();
    let mut task_ranges = Vec::new();
    let mut loads = vec![0.0; machines];
    for _ in 0..tasks {
        let costs: Vec<f64> = (0..machines)
            .map(|_| stream.pick(&[100.0, 150.0, 150.0, 200.0, 325.5]))
            .collect();
        let free: Vec<usize> = (0..machines).filter(|_| stream.below(6) > 0).collect();
        let Some(&r) = free.iter().min_by(|&&a, &&b| costs[a].total_cmp(&costs[b])) else {
            continue;
        };
        loads[r] += costs[r];
        let start = columns.len();
        columns.extend(
            free.iter()
                .filter(|&&u| u != r)
                .map(|&u| (u, costs[u], r, costs[r])),
        );
        if columns.len() > start {
            task_ranges.push(start..columns.len());
        }
    }
    let k_bar = loads.iter().copied().fold(0.0, f64::max);
    let s = columns.len();
    let mut rows: Vec<(Vec<(usize, f64)>, f64)> = loads
        .iter()
        .map(|&load| (Vec::new(), k_bar - load))
        .collect();
    for (c, &(u, cost, r, reference_cost)) in columns.iter().enumerate() {
        rows[u].0.push((c, cost));
        rows[r].0.push((c, -reference_cost));
    }
    for row in &mut rows {
        row.0.push((s, 1.0));
    }
    rows.extend(
        task_ranges
            .into_iter()
            .map(|range| (range.map(|c| (c, 1.0)).collect(), 1.0)),
    );
    Case {
        columns: s + 1,
        objective: vec![(s, 1.0)],
        rows,
    }
}

fn through_problem(case: &Case) -> Result<(u64, Vec<u64>, usize), LpError> {
    let mut problem = LpProblem::new(Objective::Maximize);
    for _ in 0..case.columns {
        problem.add_variable("");
    }
    for &(j, c) in &case.objective {
        problem.set_objective_coefficient(VariableId(j), c);
    }
    for (terms, rhs) in &case.rows {
        let terms = terms.iter().map(|&(j, a)| (VariableId(j), a)).collect();
        problem.add_constraint(terms, ConstraintSense::LessEqual, *rhs);
    }
    solve(&problem).map(|solution| {
        let values = solution.values.iter().map(|v| v.to_bits()).collect();
        (solution.objective.to_bits(), values, solution.iterations)
    })
}

fn through_workspace(lp: &mut SlackForm, case: &Case) -> Result<(u64, Vec<u64>, usize), LpError> {
    lp.reset(case.columns, case.rows.len());
    for &(j, c) in &case.objective {
        lp.set_objective(j, c);
    }
    for (row, (terms, rhs)) in case.rows.iter().enumerate() {
        for &(j, a) in terms {
            lp.add_coefficient(row, j, a);
        }
        lp.set_rhs(row, *rhs);
    }
    lp.solve().map(|solution| {
        let values = solution.values.iter().map(|v| v.to_bits()).collect();
        (solution.objective.to_bits(), values, solution.iterations)
    })
}

#[test]
fn workspace_matches_the_general_entry_bit_for_bit() {
    let mut stream = Stream(0x5EED_51AC);
    // One workspace for every case, so each solve runs on a buffer that
    // held a differently shaped problem before.
    let mut lp = SlackForm::new();
    let (mut solved, mut unbounded, mut pivots, mut zero_rhs) = (0, 0, 0, 0);
    for index in 0..240 {
        let case = match index % 3 {
            0 => random_case(&mut stream),
            1 => {
                let (tasks, machines) = (2 + stream.below(10), 2 + stream.below(12));
                compact_case(&mut stream, tasks, machines)
            }
            // The perfbench `prove` capped shape: 20 tasks on 24 machines
            // compact to at most 461 columns and 44 rows.
            _ => compact_case(&mut stream, 20, 24),
        };
        assert!(case.columns <= 461 && case.rows.len() <= 44);
        zero_rhs += case.rows.iter().filter(|(_, rhs)| *rhs == 0.0).count();
        let general = through_problem(&case);
        let workspace = through_workspace(&mut lp, &case);
        assert_eq!(general, workspace, "case {index}");
        match general {
            Ok((_, _, iterations)) => {
                solved += 1;
                pivots += iterations;
            }
            Err(LpError::Unbounded) => unbounded += 1,
            Err(error) => panic!("case {index}: {error}"),
        }
    }
    assert!(
        solved > 200 && unbounded > 0 && pivots > 1_000 && zero_rhs > 200,
        "{solved} solved, {unbounded} unbounded, {pivots} pivots, {zero_rhs} zero rows"
    );
}

#[test]
fn workspace_rejects_what_validate_rejects() {
    let mut lp = SlackForm::new();
    let mut write = |coefficient: f64, rhs: f64| {
        lp.reset(2, 1);
        lp.set_objective(0, 1.0);
        lp.add_coefficient(0, 0, 1.0);
        lp.add_coefficient(0, 1, coefficient);
        lp.set_rhs(0, rhs);
        lp.solve().map(|solution| solution.objective)
    };
    assert!(matches!(
        write(f64::NAN, 1.0),
        Err(LpError::NotFinite {
            context: "constraint coefficient",
            ..
        })
    ));
    assert!(matches!(
        write(1.0, f64::INFINITY),
        Err(LpError::NotFinite {
            context: "constraint rhs",
            ..
        })
    ));
    assert_eq!(
        write(1.0, -2.0),
        Err(LpError::NegativeRhs {
            row: 0,
            value: -2.0
        })
    );
    // A reset clears the rejection; `-0.0` is not negative.
    assert_eq!(write(1.0, 3.0), Ok(3.0));
    assert_eq!(write(1.0, -0.0), Ok(0.0));

    lp.reset(1, 1);
    lp.set_objective(0, f64::NEG_INFINITY);
    assert!(matches!(
        lp.solve(),
        Err(LpError::NotFinite {
            context: "objective coefficient",
            ..
        })
    ));
    lp.reset(0, 1);
    assert_eq!(lp.solve().unwrap_err(), LpError::EmptyProblem);
}
