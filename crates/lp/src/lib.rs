//! # recross-lp
//!
//! A small, dependency-free linear-programming substrate for the ReCross
//! reproduction. The paper's bandwidth-aware partitioning (§4.3) formulates
//! embedding-table placement as an LP solved by Gurobi; this crate provides
//! an exact replacement sized for that problem class:
//!
//! * [`problem`] — LP builder ([`LpProblem`]): minimize over
//!   non-negative variables subject to ≤/=/≥ constraints;
//! * [`simplex`] — dense two-phase primal simplex with anti-cycling.
//!
//! The concave access CDFs enter the LP as per-segment access shares;
//! `recross::partition` cuts them into segments itself.
//!
//! # Examples
//!
//! ```
//! use recross_lp::{LpProblem, Relation};
//!
//! // minimize t subject to t >= 3x and t >= 6 - x, 0 <= x <= 10
//! let mut p = LpProblem::new(2); // vars: t, x
//! p.set_objective_coeff(0, 1.0);
//! p.add_constraint(vec![(0, 1.0), (1, -3.0)], Relation::Ge, 0.0);
//! p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 6.0);
//! p.add_constraint(vec![(1, 1.0)], Relation::Le, 10.0);
//! let sol = p.solve()?;
//! assert!((sol.objective - 4.5).abs() < 1e-7); // t = 4.5 at x = 1.5
//! # Ok::<(), recross_lp::LpError>(())
//! ```

pub mod problem;
pub mod simplex;

pub use problem::{Constraint, LpError, LpProblem, LpSolution, Relation};
