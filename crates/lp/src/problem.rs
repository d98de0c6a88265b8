//! Linear-program description.
//!
//! The ReCross bandwidth-aware partitioner (paper §4.3) formulates embedding
//! placement as a small LP: minimize the batch latency `t` subject to region
//! capacities (Equ. 3) and simplex constraints on the per-table splits
//! (Equ. 1–2). The paper solves it with Gurobi; we provide a self-contained
//! problem builder + two-phase simplex instead.

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `Σ a_i x_i ≤ b`
    Le,
    /// `Σ a_i x_i = b`
    Eq,
    /// `Σ a_i x_i ≥ b`
    Ge,
}

/// One linear constraint over the problem's variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficients: (variable index, coefficient).
    pub terms: Vec<(usize, f64)>,
    /// Relation to the right-hand side.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: minimize `c·x` s.t. constraints, with `x ≥ 0`. To
/// maximize, minimize `−c·x`; to bound a variable, add a `Le` row.
///
/// # Examples
///
/// ```
/// use recross_lp::problem::{LpProblem, Relation};
///
/// // maximize x + y s.t. x + 2y <= 4, 3x + y <= 6, as minimize -x - y
/// let mut p = LpProblem::new(2);
/// p.set_objective_coeff(0, -1.0);
/// p.set_objective_coeff(1, -1.0);
/// p.add_constraint(vec![(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
/// p.add_constraint(vec![(0, 3.0), (1, 1.0)], Relation::Le, 6.0);
/// let sol = p.solve().unwrap();
/// // optimum 2.8 at the vertex (1.6, 1.2)
/// assert!((sol.objective + 2.8).abs() < 1e-8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    pub(crate) num_vars: usize,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

/// A solution to an [`LpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal (minimal) objective value.
    pub objective: f64,
    /// Optimal variable assignment.
    pub values: Vec<f64>,
    /// Pivots taken in phase 1 (including those that drive zero-valued
    /// artificials out of the basis) and in phase 2. A deterministic
    /// measure of solver work.
    pub pivots: [usize; 2],
}

/// Why an LP could not be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No assignment satisfies all constraints.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The solver exceeded its iteration budget (numerical trouble).
    IterationLimit,
}

impl core::fmt::Display for LpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => {
                write!(f, "simplex iteration limit exceeded")
            }
        }
    }
}

impl std::error::Error for LpError {}

impl LpProblem {
    /// Creates a problem with `num_vars` non-negative variables and an
    /// all-zero objective.
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Sets the objective coefficient of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or `coeff` is not finite.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: f64) -> &mut Self {
        assert!(var < self.num_vars, "variable index out of range");
        assert!(coeff.is_finite(), "objective coefficient must be finite");
        self.objective[var] = coeff;
        self
    }

    /// Adds a general constraint.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range variable indices or non-finite numbers.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(usize, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> &mut Self {
        assert!(rhs.is_finite(), "rhs must be finite");
        for &(v, c) in &terms {
            assert!(v < self.num_vars, "variable index out of range");
            assert!(c.is_finite(), "coefficient must be finite");
        }
        self.constraints.push(Constraint {
            terms,
            relation,
            rhs,
        });
        self
    }

    /// Solves the program with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::IterationLimit`].
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        crate::simplex::solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "variable index out of range")]
    fn objective_index_checked() {
        LpProblem::new(1).set_objective_coeff(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "coefficient must be finite")]
    fn constraint_coeff_checked() {
        LpProblem::new(1).add_constraint(vec![(0, f64::NAN)], Relation::Le, 1.0);
    }

    #[test]
    fn builder_counts() {
        let mut p = LpProblem::new(3);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0);
        assert_eq!(p.num_vars, 3);
        assert_eq!(p.constraints.len(), 1);
    }
}
