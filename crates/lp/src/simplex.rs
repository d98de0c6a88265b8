#![allow(clippy::needless_range_loop)] // dense tableau math reads clearer indexed
//! Dense two-phase primal simplex.
//!
//! Standard textbook construction: every constraint receives a slack (≤),
//! surplus+artificial (≥), or artificial (=) variable; phase 1 minimizes the
//! sum of artificials to find a basic feasible solution, phase 2 minimizes
//! the real objective. Bland's rule is used as an anti-cycling fallback after
//! a degenerate stretch; Dantzig's rule otherwise for speed.
//!
//! The BWP LP of the quick and paper workloads has 1,249 variables and 422
//! rows (26 tables × 16 segments × 3 regions, plus the latency bound), so
//! the tableau is 422 × 1,675 and mostly zeros. The solver stays dense —
//! one `Vec<f64>` per row — but does not touch the zeros: rows are built
//! from the sparse constraint terms, the reduced-cost row sums only basic
//! rows with a nonzero cost, and a pivot updates only the columns where the
//! normalised pivot row is nonzero. Every value it does compute has the
//! operands and the order of the textbook loops; a skipped update is
//! `x − f·0`, which could change only the sign of a zero, and no
//! comparison reads that sign. The right-hand-side column is always
//! updated, so the solution is the textbook one bit for bit.

use crate::problem::{LpError, LpProblem, LpSolution, Relation};

const EPS: f64 = 1e-9;

/// Solves `problem`; see [`LpProblem::solve`].
pub fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    Tableau::build(problem).run(problem)
}

struct Tableau {
    /// rows × cols coefficient matrix; last column is the RHS.
    a: Vec<Vec<f64>>,
    /// Basis variable of each row.
    basis: Vec<usize>,
    rows: usize,
    cols: usize, // total structural+slack+artificial variables
    artificial_start: usize,
    num_vars: usize,
    /// Pivots taken so far.
    pivots: usize,
    /// Columns where the current pivot row is nonzero, RHS included.
    nonzero: Vec<usize>,
}

impl Tableau {
    fn build(p: &LpProblem) -> Self {
        let n = p.num_vars;
        // Rows with a negative RHS are negated, which flips ≤ and ≥.
        let relation = |rhs: f64, rel: Relation| match rel {
            Relation::Le if rhs < 0.0 => Relation::Ge,
            Relation::Ge if rhs < 0.0 => Relation::Le,
            rel => rel,
        };
        // Count extra columns.
        let mut num_slack = 0;
        let mut num_art = 0;
        for c in &p.constraints {
            match relation(c.rhs, c.relation) {
                Relation::Le => num_slack += 1,
                Relation::Ge => {
                    num_slack += 1;
                    num_art += 1;
                }
                Relation::Eq => num_art += 1,
            }
        }
        let artificial_start = n + num_slack;
        let cols = n + num_slack + num_art;
        let m = p.constraints.len();
        let mut a = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut slack_idx = n;
        let mut art_idx = artificial_start;
        for c in &p.constraints {
            let mut row = vec![0.0; cols + 1];
            for &(v, coef) in &c.terms {
                row[v] += coef;
            }
            // Normalize to non-negative RHS.
            row[cols] = if c.rhs < 0.0 {
                for x in &mut row[..n] {
                    *x = -*x;
                }
                -c.rhs
            } else {
                c.rhs
            };
            match relation(c.rhs, c.relation) {
                Relation::Le => {
                    row[slack_idx] = 1.0;
                    basis.push(slack_idx);
                    slack_idx += 1;
                }
                Relation::Ge => {
                    row[slack_idx] = -1.0;
                    slack_idx += 1;
                    row[art_idx] = 1.0;
                    basis.push(art_idx);
                    art_idx += 1;
                }
                Relation::Eq => {
                    row[art_idx] = 1.0;
                    basis.push(art_idx);
                    art_idx += 1;
                }
            }
            a.push(row);
        }
        Self {
            a,
            basis,
            rows: m,
            cols,
            artificial_start,
            num_vars: n,
            pivots: 0,
            nonzero: Vec::with_capacity(cols + 1),
        }
    }

    fn run(&mut self, p: &LpProblem) -> Result<LpSolution, LpError> {
        // Phase 1: minimize sum of artificials (as maximize -Σ art).
        if self.artificial_start < self.cols {
            let mut obj = vec![0.0; self.cols];
            for c in obj.iter_mut().skip(self.artificial_start) {
                *c = -1.0;
            }
            let val = self.optimize(&obj)?;
            if val < -1e-7 {
                return Err(LpError::Infeasible);
            }
            self.drive_out_artificials();
        }
        let phase1_pivots = self.pivots;
        // Phase 2: minimize the real objective, as maximize -c·x.
        let mut obj = vec![0.0; self.cols];
        for (v, &c) in p.objective.iter().enumerate() {
            obj[v] = -c;
        }
        // Artificials must stay out: forbid them by a strongly negative cost.
        let val = self.optimize(&obj)?;
        let mut values = vec![0.0; self.num_vars];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < self.num_vars {
                values[b] = self.a[r][self.cols];
            }
        }
        Ok(LpSolution {
            objective: -val,
            values,
            pivots: [phase1_pivots, self.pivots - phase1_pivots],
        })
    }

    /// Maximizes `obj·x` from the current basic feasible point; returns the
    /// optimal value. Artificial columns are never allowed to (re-)enter.
    fn optimize(&mut self, obj: &[f64]) -> Result<f64, LpError> {
        // Reduced-cost row maintained explicitly:
        // z_j = c_B · B^-1 A_j - c_j, from scratch, summed row by row in
        // row order. A basic with cost 0 would add only zeros.
        let cols = self.cols;
        let mut z = vec![0.0; cols + 1];
        for (row, &b) in self.a.iter().zip(&self.basis) {
            let cost = obj[b];
            if cost != 0.0 {
                for (zj, &arj) in z.iter_mut().zip(row) {
                    *zj += cost * arj;
                }
            }
        }
        for (zj, &cj) in z.iter_mut().zip(obj) {
            *zj -= cj;
        }
        let max_iters = 200 * (self.rows + cols).max(50);
        let mut degenerate_streak = 0usize;
        for _ in 0..max_iters {
            // Entering column: most negative reduced cost (Dantzig), or
            // Bland's first-negative after degeneracy.
            let bland = degenerate_streak > self.rows + 10;
            let mut enter: Option<usize> = None;
            let mut best = -EPS;
            for (j, &zj) in z.iter().enumerate().take(cols) {
                if j >= self.artificial_start && obj[j] == 0.0 {
                    // Phase 2: artificials are not eligible.
                    continue;
                }
                if zj < best {
                    enter = Some(j);
                    if bland {
                        break;
                    }
                    best = zj;
                }
            }
            let Some(e) = enter else {
                // Optimal.
                let mut val = 0.0;
                for r in 0..self.rows {
                    val += obj[self.basis[r]] * self.a[r][cols];
                }
                return Ok(val);
            };
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows {
                let coef = self.a[r][e];
                if coef > EPS {
                    let ratio = self.a[r][cols] / coef;
                    if ratio < best_ratio - EPS
                        || (bland
                            && (ratio - best_ratio).abs() <= EPS
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]))
                    {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(l) = leave else {
                return Err(LpError::Unbounded);
            };
            if best_ratio <= EPS {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            self.pivot(l, e, &mut z);
        }
        Err(LpError::IterationLimit)
    }

    fn pivot(&mut self, row: usize, col: usize, z: &mut [f64]) {
        let cols = self.cols;
        let mut pivot_row = std::mem::take(&mut self.a[row]);
        let pv = pivot_row[col];
        debug_assert!(pv.abs() > EPS, "pivot on near-zero element");
        // Normalise the pivot row and note its nonzero columns: the other
        // rows and z change only there. The RHS column is always updated.
        self.nonzero.clear();
        for j in 0..cols {
            if pivot_row[j] != 0.0 {
                pivot_row[j] /= pv;
                self.nonzero.push(j);
            }
        }
        pivot_row[cols] /= pv;
        self.nonzero.push(cols);
        for (r, other) in self.a.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let f = other[col];
            if f.abs() > EPS {
                for &j in &self.nonzero {
                    other[j] -= f * pivot_row[j];
                }
            }
        }
        let zf = z[col];
        if zf.abs() > EPS {
            for &j in &self.nonzero {
                z[j] -= zf * pivot_row[j];
            }
        }
        self.a[row] = pivot_row;
        self.basis[row] = col;
        self.pivots += 1;
        // Recompute the entering column's reduced cost exactly (should be 0).
        z[col] = 0.0;
    }

    /// After phase 1, pivot remaining (zero-valued) artificial basis
    /// variables out where possible so phase 2 starts clean.
    fn drive_out_artificials(&mut self) {
        for r in 0..self.rows {
            if self.basis[r] >= self.artificial_start {
                // Find a structural/slack column with nonzero coefficient.
                if let Some(j) = (0..self.artificial_start).find(|&j| self.a[r][j].abs() > 1e-7) {
                    let mut z = vec![0.0; self.cols + 1];
                    self.pivot(r, j, &mut z);
                }
                // Otherwise the row is redundant (all-zero): harmless.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Relation};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y, x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6),
        // solved as min -3x - 5y.
        let mut p = LpProblem::new(2);
        p.set_objective_coeff(0, -3.0).set_objective_coeff(1, -5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        approx(s.objective, -36.0);
        approx(s.values[0], 2.0);
        approx(s.values[1], 6.0);
    }

    #[test]
    fn minimize_with_ge() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 -> 2*4? best at y=0,x=4 -> 8
        let mut p = LpProblem::new(2);
        p.set_objective_coeff(0, 2.0).set_objective_coeff(1, 3.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 8.0);
        approx(s.values[0], 4.0);
    }

    #[test]
    fn equality_constraint() {
        // min x + y s.t. x + y = 5, x <= 2 -> 5 (e.g. x=2,y=3)
        let mut p = LpProblem::new(2);
        p.set_objective_coeff(0, 1.0).set_objective_coeff(1, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 2.0);
        let s = p.solve().unwrap();
        approx(s.objective, 5.0);
        approx(s.values[0] + s.values[1], 5.0);
        assert!(s.values[0] <= 2.0 + 1e-9);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = LpProblem::new(1);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = LpProblem::new(1);
        p.set_objective_coeff(0, -1.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2  (i.e. y - x >= 2), min y -> with x>=0, min y = 2 at x=0.
        let mut p = LpProblem::new(2);
        p.set_objective_coeff(1, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Relation::Le, -2.0);
        let s = p.solve().unwrap();
        approx(s.objective, 2.0);
    }

    #[test]
    fn min_max_latency_structure() {
        // The BWP shape: min t s.t. t >= D_j / bw_j with D_j linear in x.
        // min t ; t - 2x >= 0 ; t - (10 - x) * 0.5 >= 0 ; x <= 10
        // => t = max(2x, 5 - 0.5x), optimum where equal: x = 2, t = 4.
        let mut p = LpProblem::new(2); // x0 = t, x1 = x
        p.set_objective_coeff(0, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, -2.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(0, 1.0), (1, 0.5)], Relation::Ge, 5.0);
        p.add_constraint(vec![(1, 1.0)], Relation::Le, 10.0);
        let s = p.solve().unwrap();
        approx(s.objective, 4.0);
        approx(s.values[1], 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: several redundant constraints through origin.
        let mut p = LpProblem::new(2);
        p.set_objective_coeff(0, -1.0).set_objective_coeff(1, -1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(0, 2.0), (1, 2.0)], Relation::Le, 2.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, -1.0);
    }

    #[test]
    fn zero_constraint_problem() {
        // min 0 with no constraints: trivially solvable at origin.
        let p = LpProblem::new(3);
        let s = p.solve().unwrap();
        approx(s.objective, 0.0);
        assert_eq!(s.values, vec![0.0; 3]);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // x + x <= 4 means 2x <= 4.
        let mut p = LpProblem::new(1);
        p.set_objective_coeff(0, -1.0);
        p.add_constraint(vec![(0, 1.0), (0, 1.0)], Relation::Le, 4.0);
        let s = p.solve().unwrap();
        approx(s.objective, -2.0);
    }
}
