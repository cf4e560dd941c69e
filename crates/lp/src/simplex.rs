//! An exact-rational primal simplex for **packing LPs**:
//!
//! ```text
//!     maximise   Σ_j y_j
//!     subject to Σ_{j ∈ row_i} y_j ≤ 1   for every constraint row i
//!                y ≥ 0
//! ```
//!
//! This is the shape of both duals this crate certifies: the EDS
//! covering LP's dual (one row per edge, listing its closed edge
//! neighbourhood) and the vertex cover LP's dual, the fractional
//! matching polytope (one row per node, listing its incident edges).
//! Constraint rows arrive **sparse** (column index lists); the solver
//! expands them into a dense tableau but eliminates sparsely: each
//! pivot collects the nonzero columns of its normalised pivot row once
//! and updates the other rows only there. Skipping a zero column is
//! exact (`x − 0·f = x`, and that product can never overflow), so every
//! pivot, tableau entry and optimum is the one the dense update gives.
//! On the 111-edge EDS dual of `preferential_attachment(40, 3, 0)`
//! (851 pivots from the matching seed, about 80% of each pivot row
//! zero) this cuts the entry updates from 16.5 M to 3.2 M. With the
//! word-size path of [`Rational`], that release solve takes 0.18–0.23 s
//! on a 2-core Xeon, where the dense `i128` elimination took 2.8–3.2 s
//! (3–4 ms per pivot); at 195 edges, near the
//! [`LpBudget`](crate::LpBudget) ceiling, it takes 2.7–2.9 s instead of
//! 37.7 s.
//!
//! The slack basis (`y = 0`) is trivially feasible, so no phase-1 is
//! needed. Pivoting runs in two stages:
//!
//! 1. **Seed stage** — the caller may supply a preference list of
//!    variables (the edges of a maximal matching); these are pivoted
//!    into the basis first, reproducing the classical matching-based
//!    dual solution before any general pivoting happens.
//! 2. **Bland stage** — lowest-index entering/leaving rule, which
//!    terminates on every input (no cycling), run to optimality.
//!
//! All arithmetic is checked [`Rational`] work: an `i128` overflow or an
//! exhausted pivot budget abandons the solve (`None`) — the caller falls
//! back to the seed certificate rather than trusting a partial tableau.
//! Each [`maximise`] call adds its solve, pivot and abort counts to the
//! `eds_lp_*` series of the global telemetry registry, once per call.

use crate::metrics;
use crate::rational::Rational;

/// A packing LP instance: `rows[i]` lists the variables of constraint
/// `i` (all coefficients are 1, every right-hand side is 1, the
/// objective is the all-ones vector).
#[derive(Clone, Debug)]
pub struct PackingLp {
    /// Number of variables.
    pub variables: usize,
    /// Sparse 0/1 constraint rows (variable index lists, each ≤ 1).
    pub rows: Vec<Vec<usize>>,
}

/// Why a solve was abandoned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveAbort {
    /// An intermediate value left the `i128` fraction range.
    Overflow,
    /// The pivot budget was exhausted.
    PivotBudget,
    /// An entering column had no bounding row (the LP is unbounded —
    /// impossible for the graph duals, where every variable appears in
    /// at least one constraint).
    Unbounded,
}

/// The optimum of a packing LP: the variable values and the objective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackingOptimum {
    /// One value per variable, all in `[0, 1]`.
    pub values: Vec<Rational>,
    /// `Σ_j values[j]`.
    pub value: Rational,
    /// Pivots performed, seed stage and Bland stage together.
    pub pivots: usize,
}

/// Maximises the packing LP exactly.
///
/// `seed` is a list of variable indices to pivot into the basis first
/// (deduplicated, out-of-range entries ignored): seeding with the edges
/// of a maximal matching starts the solve at the classical
/// matching-based dual point, and the Bland stage can only improve on
/// it.
///
/// # Errors
///
/// [`SolveAbort::Overflow`] when exact arithmetic leaves the `i128`
/// range; [`SolveAbort::PivotBudget`] when the pivot cap (linear in the
/// tableau size) is exhausted; [`SolveAbort::Unbounded`] when a
/// variable appears in no constraint. None occur on the graph LPs this
/// crate builds at budgeted sizes.
pub fn maximise(lp: &PackingLp, seed: &[usize]) -> Result<PackingOptimum, SolveAbort> {
    let mut pivots = 0;
    let result = solve(lp, seed, &mut pivots);
    metrics::record_solve(pivots, result.is_err());
    result
}

/// [`maximise`] proper; `pivots` counts the pivots performed, also on
/// an aborted solve.
fn solve(lp: &PackingLp, seed: &[usize], pivots: &mut usize) -> Result<PackingOptimum, SolveAbort> {
    let n = lp.variables;
    let m = lp.rows.len();
    if n == 0 {
        return Ok(PackingOptimum {
            values: Vec::new(),
            value: Rational::ZERO,
            pivots: 0,
        });
    }
    // Dense tableau: m constraint rows × (n structural + m slack + rhs),
    // plus the objective row. Slack basis start.
    let cols = n + m + 1;
    let rhs = n + m;
    let mut t = vec![vec![Rational::ZERO; cols]; m + 1];
    for (i, row) in lp.rows.iter().enumerate() {
        for &j in row {
            if j < n {
                t[i][j] = Rational::ONE;
            }
        }
        t[i][n + i] = Rational::ONE;
        t[i][rhs] = Rational::ONE;
    }
    // Objective row: reduced costs, starting at -1 per structural
    // variable; t[m][rhs] accumulates the objective value.
    for cost in t[m].iter_mut().take(n) {
        *cost = Rational::integer(-1);
    }
    let mut basis: Vec<usize> = (n..n + m).collect();

    let budget = 64 * (m + n).max(16);
    // The pivot row's nonzero columns, refilled by every pivot.
    let mut support = Vec::with_capacity(cols);

    // Seed stage: bring the preferred variables in, one pivot each.
    let mut seen = vec![false; n];
    for &j in seed {
        if j >= n || seen[j] {
            continue;
        }
        seen[j] = true;
        if !t[m][j].is_negative() {
            continue; // already at its reduced-cost optimum
        }
        pivot_column(&mut t, &mut basis, j, rhs, m, &mut support)?;
        *pivots += 1;
    }

    // Bland stage: lowest-index entering column with negative reduced
    // cost, lowest-basis-index leaving row — terminates without cycling.
    while let Some(enter) = (0..n + m).find(|&j| t[m][j].is_negative()) {
        if *pivots >= budget {
            return Err(SolveAbort::PivotBudget);
        }
        pivot_column(&mut t, &mut basis, enter, rhs, m, &mut support)?;
        *pivots += 1;
    }

    // Read the structural values off the basis.
    let mut values = vec![Rational::ZERO; n];
    for (i, &b) in basis.iter().enumerate() {
        if b < n {
            values[b] = t[i][rhs];
        }
    }
    let value = crate::rational::checked_sum(&values).ok_or(SolveAbort::Overflow)?;
    Ok(PackingOptimum {
        values,
        value,
        pivots: *pivots,
    })
}

/// One pivot on column `enter`: Bland ratio test (lowest basis index on
/// ties), then row elimination over the normalised pivot row's nonzero
/// columns, which `support` collects. Errors on overflow or when no row
/// bounds the entering column (unbounded — impossible for the graph
/// duals, where every variable appears in some constraint).
fn pivot_column(
    t: &mut [Vec<Rational>],
    basis: &mut [usize],
    enter: usize,
    rhs: usize,
    m: usize,
    support: &mut Vec<usize>,
) -> Result<(), SolveAbort> {
    let mut leave: Option<(usize, Rational)> = None;
    for i in 0..m {
        if !t[i][enter].is_positive() {
            continue;
        }
        let ratio = t[i][rhs]
            .checked_div(t[i][enter])
            .ok_or(SolveAbort::Overflow)?;
        let better = match &leave {
            None => true,
            Some((r, best)) => ratio < *best || (ratio == *best && basis[i] < basis[*r]),
        };
        if better {
            leave = Some((i, ratio));
        }
    }
    let Some((row, _)) = leave else {
        return Err(SolveAbort::Unbounded);
    };

    // Normalise the pivot row, collecting its nonzero columns: a zero
    // stays zero, and only a nonzero entry can change another row.
    let pivot = t[row][enter];
    support.clear();
    for (j, x) in t[row].iter_mut().enumerate() {
        if !x.is_zero() {
            *x = x.checked_div(pivot).ok_or(SolveAbort::Overflow)?;
            support.push(j);
        }
    }
    // Eliminate the entering column from every other row.
    let (above, rest) = t.split_at_mut(row);
    let (pivot_row, below) = rest.split_first_mut().expect("row < t.len()");
    for r in above.iter_mut().chain(below) {
        let factor = r[enter];
        if factor.is_zero() {
            continue;
        }
        for &j in support.iter() {
            let delta = pivot_row[j]
                .checked_mul(factor)
                .ok_or(SolveAbort::Overflow)?;
            r[j] = r[j].checked_sub(delta).ok_or(SolveAbort::Overflow)?;
        }
    }
    basis[row] = enter;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::DualObjective;
    use crate::rational::reference;
    use pn_graph::matching::greedy_maximal_matching;
    use pn_graph::{generators, SimpleGraph};
    use proptest::prelude::*;
    use std::cmp::Ordering;

    fn solve(rows: Vec<Vec<usize>>, n: usize) -> PackingOptimum {
        maximise(&PackingLp { variables: n, rows }, &[]).unwrap()
    }

    #[test]
    fn empty_lp() {
        let opt = solve(Vec::new(), 0);
        assert_eq!(opt.value, Rational::ZERO);
    }

    #[test]
    fn single_variable() {
        // max y0 s.t. y0 ≤ 1.
        let opt = solve(vec![vec![0]], 1);
        assert_eq!(opt.value, Rational::ONE);
        assert_eq!(opt.values, vec![Rational::ONE]);
    }

    #[test]
    fn fractional_matching_on_a_triangle() {
        // Nodes {a,b,c}, edges 0=ab, 1=bc, 2=ca; rows are node stars.
        // Optimum: y = 1/2 everywhere, value 3/2.
        let opt = solve(vec![vec![0, 2], vec![0, 1], vec![1, 2]], 3);
        assert_eq!(opt.value, Rational::new(3, 2));
        for v in &opt.values {
            assert_eq!(*v, Rational::new(1, 2));
        }
    }

    #[test]
    fn shared_constraint_caps_the_sum() {
        // Two variables sharing one row: value 1.
        let opt = solve(vec![vec![0, 1]], 2);
        assert_eq!(opt.value, Rational::ONE);
    }

    #[test]
    fn seeding_reaches_the_same_optimum() {
        let lp = PackingLp {
            variables: 3,
            rows: vec![vec![0, 2], vec![0, 1], vec![1, 2]],
        };
        for seed in [vec![], vec![0], vec![2, 2, 99], vec![1, 0, 2]] {
            let opt = maximise(&lp, &seed).unwrap();
            assert_eq!(opt.value, Rational::new(3, 2), "seed {seed:?}");
        }
    }

    #[test]
    fn disjoint_constraints_are_independent() {
        // max y0 + y1, y0 ≤ 1, y1 ≤ 1.
        let opt = solve(vec![vec![0], vec![1]], 2);
        assert_eq!(opt.value, Rational::integer(2));
    }

    #[test]
    fn optimum_reports_its_pivots() {
        // Triangle fractional matching from the slack basis: Bland
        // brings y0, then y1, then y2 into the basis.
        let lp = PackingLp {
            variables: 3,
            rows: vec![vec![0, 2], vec![0, 1], vec![1, 2]],
        };
        let cold = maximise(&lp, &[]).unwrap();
        assert_eq!(cold.value, Rational::new(3, 2));
        assert_eq!(cold.pivots, 3);
        // The seed pivots y0 in first, once: a repeated or out-of-range
        // seed entry costs no pivot.
        assert_eq!(maximise(&lp, &[0, 0, 99]).unwrap().pivots, 3);
        assert_eq!(solve(Vec::new(), 0).pivots, 0);
        assert_eq!(solve(vec![vec![0]], 1).pivots, 1);
    }

    // -- the dense-elimination oracle --------------------------------

    /// The solver before sparse elimination, verbatim apart from the
    /// pivot count: every pivot updates every column of every row, in
    /// the original `i128` arithmetic of [`reference`].
    fn maximise_dense(lp: &PackingLp, seed: &[usize]) -> Result<PackingOptimum, SolveAbort> {
        let n = lp.variables;
        let m = lp.rows.len();
        if n == 0 {
            return Ok(PackingOptimum {
                values: Vec::new(),
                value: Rational::ZERO,
                pivots: 0,
            });
        }
        let cols = n + m + 1;
        let rhs = n + m;
        let mut t = vec![vec![Rational::ZERO; cols]; m + 1];
        for (i, row) in lp.rows.iter().enumerate() {
            for &j in row {
                if j < n {
                    t[i][j] = Rational::ONE;
                }
            }
            t[i][n + i] = Rational::ONE;
            t[i][rhs] = Rational::ONE;
        }
        for cost in t[m].iter_mut().take(n) {
            *cost = Rational::integer(-1);
        }
        let mut basis: Vec<usize> = (n..n + m).collect();
        let budget = 64 * (m + n).max(16);
        let mut pivots = 0usize;
        let mut seen = vec![false; n];
        for &j in seed {
            if j >= n || seen[j] {
                continue;
            }
            seen[j] = true;
            if !t[m][j].is_negative() {
                continue;
            }
            pivot_dense(&mut t, &mut basis, j, rhs, m)?;
            pivots += 1;
        }
        while let Some(enter) = (0..n + m).find(|&j| t[m][j].is_negative()) {
            if pivots >= budget {
                return Err(SolveAbort::PivotBudget);
            }
            pivot_dense(&mut t, &mut basis, enter, rhs, m)?;
            pivots += 1;
        }
        let mut values = vec![Rational::ZERO; n];
        for (i, &b) in basis.iter().enumerate() {
            if b < n {
                values[b] = t[i][rhs];
            }
        }
        let value = values
            .iter()
            .try_fold(Rational::ZERO, |acc, &v| reference::add(acc, v))
            .ok_or(SolveAbort::Overflow)?;
        Ok(PackingOptimum {
            values,
            value,
            pivots,
        })
    }

    fn pivot_dense(
        t: &mut [Vec<Rational>],
        basis: &mut [usize],
        enter: usize,
        rhs: usize,
        m: usize,
    ) -> Result<(), SolveAbort> {
        let mut leave: Option<(usize, Rational)> = None;
        for i in 0..m {
            if !t[i][enter].is_positive() {
                continue;
            }
            let ratio = reference::div(t[i][rhs], t[i][enter]).ok_or(SolveAbort::Overflow)?;
            let better = match &leave {
                None => true,
                Some((r, best)) => match reference::cmp(ratio, *best) {
                    Ordering::Less => true,
                    Ordering::Equal => basis[i] < basis[*r],
                    Ordering::Greater => false,
                },
            };
            if better {
                leave = Some((i, ratio));
            }
        }
        let Some((row, _)) = leave else {
            return Err(SolveAbort::Unbounded);
        };
        let pivot = t[row][enter];
        for x in t[row].iter_mut() {
            *x = reference::div(*x, pivot).ok_or(SolveAbort::Overflow)?;
        }
        for i in 0..t.len() {
            if i == row || t[i][enter].is_zero() {
                continue;
            }
            let factor = t[i][enter];
            for j in 0..t[i].len() {
                let delta = reference::mul(t[row][j], factor).ok_or(SolveAbort::Overflow)?;
                t[i][j] = reference::sub(t[i][j], delta).ok_or(SolveAbort::Overflow)?;
            }
        }
        basis[row] = enter;
        Ok(())
    }

    /// Both duals of `g`, solved sparse and dense from the matching seed
    /// `dual_certificate` uses — and, when `cold`, also from the slack
    /// basis: identical optima (values, value, pivot count) or
    /// identical aborts.
    fn assert_sparse_matches_dense(g: &SimpleGraph, label: &str, cold: bool) {
        let matching: Vec<usize> = greedy_maximal_matching(g)
            .iter()
            .map(|e| e.index())
            .collect();
        let seeds: &[&[usize]] = if cold {
            &[&matching, &[]]
        } else {
            &[&matching]
        };
        for objective in [DualObjective::EdgeDomination, DualObjective::VertexCover] {
            let lp = PackingLp {
                variables: g.edge_count(),
                rows: crate::dual_rows(g, objective),
            };
            for seed in seeds {
                assert_eq!(
                    maximise(&lp, seed),
                    maximise_dense(&lp, seed),
                    "{label}, {} dual, {} seed variables",
                    objective.name(),
                    seed.len()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn sparse_gnp_matches_dense(
            n in 4usize..=16,
            tenths in 1u32..=6,
            seed in 0u64..10_000,
        ) {
            let g = generators::gnp(n, f64::from(tenths) / 10.0, seed).expect("gnp builds");
            prop_assume!(g.edge_count() <= 60);
            assert_sparse_matches_dense(&g, &format!("gnp({n}, 0.{tenths}, {seed})"), true);
        }

        #[test]
        fn sparse_regular_matches_dense(
            half in 3usize..=12,
            d in 2usize..=5,
            seed in 0u64..10_000,
        ) {
            let n = 2 * half;
            prop_assume!(n > d && n * d / 2 <= 60);
            let g = generators::random_regular(n, d, seed).expect("regular builds");
            assert_sparse_matches_dense(&g, &format!("regular({n}, {d}, {seed})"), true);
        }

        #[test]
        fn sparse_power_law_matches_dense(
            n in 5usize..=22,
            m in 1usize..=3,
            seed in 0u64..10_000,
        ) {
            prop_assume!(m < n);
            let g = generators::preferential_attachment(n, m, seed).expect("power law builds");
            prop_assume!(g.edge_count() <= 60);
            assert_sparse_matches_dense(&g, &format!("power-law({n}, {m}, {seed})"), true);
        }
    }

    /// Up to the 200-edge `LpBudget` ceiling, from the production seed,
    /// where the dense oracle is slow (about 36 s for the 195-edge EDS
    /// dual in release on a 2-core Xeon): release builds only.
    #[cfg(not(debug_assertions))]
    #[test]
    fn sparse_matches_dense_up_to_the_budget() {
        let ceiling = generators::preferential_attachment(68, 3, 3).unwrap();
        assert_eq!(ceiling.edge_count(), 195);
        assert_sparse_matches_dense(&ceiling, "power-law(68, 3, 3)", false);
        for (label, g) in [
            // 100 edges whose EDS dual overflows i128: identical aborts.
            ("regular(40, 5, 2)", generators::random_regular(40, 5, 2)),
            ("regular(60, 3, 4)", generators::random_regular(60, 3, 4)),
            ("gnp(30, 0.2, 5)", generators::gnp(30, 0.2, 5)),
        ] {
            assert_sparse_matches_dense(&g.unwrap(), label, false);
        }
    }
}
