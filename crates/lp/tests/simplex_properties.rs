//! Randomized tests of the simplex solver against brute-force enumeration.
//!
//! For random small LPs with only ≤ constraints (plus variable bounds,
//! written as ≤ rows), the optimum lies at a vertex of the polytope; we
//! grid-sample the box and compare objectives. The solver minimizes, so
//! maximizing `c·x` is posed as minimizing `−c·x`. Also checks solver invariants: returned points are
//! feasible and no feasible sample beats the optimum.
//!
//! Cases are generated from the in-repo deterministic PRNG (the container
//! has no network, so an external property-testing crate is not available);
//! every run covers the same seeded case set, which keeps failures
//! reproducible by construction.
//!
//! Last, a digest pins the bits of every solution (objective, values,
//! pivot counts, or the error) over a few hundred seeded LPs of mixed
//! shape, so a solver change that claims the same pivot sequence must
//! leave it unchanged.

use recross_lp::{LpError, LpProblem, LpSolution, Relation};
use recross_workload::rng::Xoshiro256pp;

#[derive(Debug, Clone)]
struct SmallLp {
    c: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>, // a·x <= b, all entries >= 0, b > 0
    ub: Vec<f64>,
}

fn uniform(rng: &mut Xoshiro256pp, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn random_lp(rng: &mut Xoshiro256pp) -> SmallLp {
    let n = 2 + rng.next_bounded(2) as usize; // 2..4 variables
    let c = (0..n).map(|_| uniform(rng, 0.1, 5.0)).collect();
    let num_rows = 1 + rng.next_bounded(3) as usize; // 1..4 constraints
    let rows = (0..num_rows)
        .map(|_| {
            let a = (0..n).map(|_| uniform(rng, 0.0, 3.0)).collect();
            (a, uniform(rng, 1.0, 20.0))
        })
        .collect();
    let ub = (0..n).map(|_| uniform(rng, 0.5, 10.0)).collect();
    SmallLp { c, rows, ub }
}

/// The LP minimizing `sign · c·x` (`sign = -1.0` maximizes `c·x`).
fn build(lp: &SmallLp, sign: f64) -> LpProblem {
    let n = lp.c.len();
    let mut p = LpProblem::new(n);
    for (i, &ci) in lp.c.iter().enumerate() {
        p.set_objective_coeff(i, sign * ci);
    }
    for (a, b) in &lp.rows {
        p.add_constraint(
            a.iter().enumerate().map(|(i, &v)| (i, v)).collect(),
            Relation::Le,
            *b,
        );
    }
    for (i, &u) in lp.ub.iter().enumerate() {
        p.add_constraint(vec![(i, 1.0)], Relation::Le, u);
    }
    p
}

fn feasible(lp: &SmallLp, x: &[f64]) -> bool {
    let eps = 1e-6;
    x.iter()
        .enumerate()
        .all(|(i, &v)| v >= -eps && v <= lp.ub[i] + eps)
        && lp
            .rows
            .iter()
            .all(|(a, b)| a.iter().zip(x).map(|(ai, xi)| ai * xi).sum::<f64>() <= b + eps)
}

#[test]
fn optimum_is_feasible_and_unbeaten_by_grid() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x51A917);
    for case in 0..128 {
        let lp = random_lp(&mut rng);
        // All coefficients non-negative with upper bounds → always feasible
        // (origin) and bounded.
        let sol = build(&lp, -1.0).solve().expect("bounded and feasible");
        let best = -sol.objective;
        assert!(
            feasible(&lp, &sol.values),
            "case {case}: optimum must be feasible: {lp:?}"
        );
        let obj = |x: &[f64]| lp.c.iter().zip(x).map(|(c, v)| c * v).sum::<f64>();
        assert!((obj(&sol.values) - best).abs() < 1e-6, "case {case}");
        // Grid sample of the box; no feasible point may beat the optimum.
        let n = lp.c.len();
        let steps = 6usize;
        let mut idx = vec![0usize; n];
        loop {
            let x: Vec<f64> = idx
                .iter()
                .enumerate()
                .map(|(i, &k)| lp.ub[i] * k as f64 / (steps - 1) as f64)
                .collect();
            if feasible(&lp, &x) {
                assert!(
                    obj(&x) <= best + 1e-6,
                    "case {case}: grid point {x:?} with objective {} beats optimum {best}",
                    obj(&x),
                );
            }
            // Advance the mixed-radix counter.
            let mut done = true;
            for slot in idx.iter_mut() {
                *slot += 1;
                if *slot < steps {
                    done = false;
                    break;
                }
                *slot = 0;
            }
            if done {
                break;
            }
        }
    }
}

#[test]
fn minimizing_positive_costs_stays_at_the_origin() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x317_111);
    for case in 0..128 {
        let lp = random_lp(&mut rng);
        // min c·x over the same polytope with x >= 0 trivially gives 0 at
        // the origin; check the solver agrees.
        let sol = build(&lp, 1.0).solve().expect("feasible");
        assert!(
            sol.objective.abs() < 1e-7,
            "case {case}: origin is optimal: {}",
            sol.objective
        );
    }
}

#[test]
fn adding_a_constraint_never_improves() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x7143);
    for case in 0..128 {
        let lp = random_lp(&mut rng);
        let base = -build(&lp, -1.0).solve().expect("feasible").objective;
        let mut tighter = build(&lp, -1.0);
        // Σ x_i <= half of the loosest bound.
        let cap = lp.ub.iter().cloned().fold(f64::INFINITY, f64::min) / 2.0;
        tighter.add_constraint(
            (0..lp.c.len()).map(|i| (i, 1.0)).collect(),
            Relation::Le,
            cap,
        );
        let t = -tighter.solve().expect("still feasible").objective;
        assert!(
            t <= base + 1e-6,
            "case {case}: tightening improved: {t} > {base}"
        );
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn solution(&mut self, r: &Result<LpSolution, LpError>) {
        match r {
            Ok(sol) => {
                self.word(sol.objective.to_bits());
                for v in &sol.values {
                    self.word(v.to_bits());
                }
                for &p in &sol.pivots {
                    self.word(p as u64);
                }
            }
            Err(e) => self.word(u64::MAX - *e as u64),
        }
    }
}

/// A general LP: ≤/=/≥ rows of random sign and sparsity (some repeated
/// terms) built around a feasible point, some passing through it
/// (degenerate) and a few with a random right-hand side, and some
/// variables left unbounded, so the set holds infeasible and unbounded
/// cases besides optimal ones.
fn mixed_lp(rng: &mut Xoshiro256pp) -> LpProblem {
    let n = 2 + rng.next_bounded(7) as usize;
    let m = 1 + rng.next_bounded(8) as usize;
    let x0: Vec<f64> = (0..n).map(|_| uniform(rng, 0.0, 4.0)).collect();
    let mut p = LpProblem::new(n);
    for v in 0..n {
        if rng.next_bounded(4) != 0 {
            p.set_objective_coeff(v, uniform(rng, -5.0, 5.0));
        }
    }
    for _ in 0..m {
        let mut terms = Vec::new();
        for v in 0..n {
            if rng.next_bounded(5) < 2 {
                terms.push((v, uniform(rng, -3.0, 3.0)));
            }
        }
        if rng.next_bounded(6) == 0 {
            terms.push((rng.next_bounded(n as u64) as usize, 1.0));
        }
        let at_x0: f64 = terms.iter().map(|&(v, c)| c * x0[v]).sum();
        let slack = if rng.next_bounded(4) == 0 {
            0.0
        } else {
            uniform(rng, 0.0, 5.0)
        };
        let (relation, rhs) = match rng.next_bounded(5) {
            0 | 1 => (Relation::Le, at_x0 + slack),
            2 | 3 => (Relation::Ge, at_x0 - slack),
            _ => (Relation::Eq, at_x0),
        };
        let rhs = if rng.next_bounded(10) == 0 {
            uniform(rng, -10.0, 10.0)
        } else {
            rhs
        };
        p.add_constraint(terms, relation, rhs);
    }
    for (v, &x) in x0.iter().enumerate() {
        if rng.next_bounded(5) != 0 {
            p.add_constraint(vec![(v, 1.0)], Relation::Le, x + uniform(rng, 0.0, 6.0));
        }
    }
    p
}

/// The partitioner's shape at small size: minimize `t` over per-segment
/// region fractions that sum to one, under region capacities, with
/// `t` at least each region's load over its bandwidth.
fn partition_lp(rng: &mut Xoshiro256pp) -> LpProblem {
    let tables = 2 + rng.next_bounded(5) as usize;
    let segments = 2 + rng.next_bounded(4) as usize;
    let var = |i: usize, s: usize, j: usize| 1 + (i * segments + s) * 3 + j;
    let mut p = LpProblem::new(1 + tables * segments * 3);
    p.set_objective_coeff(0, 1.0);
    for i in 0..tables {
        for s in 0..segments {
            p.add_constraint(
                (0..3).map(|j| (var(i, s, j), 1.0)).collect(),
                Relation::Eq,
                1.0,
            );
        }
    }
    let bytes: Vec<f64> = (0..tables).map(|_| uniform(rng, 1.0, 8.0)).collect();
    let total: f64 = bytes.iter().sum();
    for (j, cap) in [0.7, 0.25, 0.15].iter().enumerate() {
        let terms = (0..tables)
            .flat_map(|i| (0..segments).map(move |s| (i, s)))
            .map(|(i, s)| (var(i, s, j), bytes[i] / segments as f64))
            .collect();
        p.add_constraint(terms, Relation::Le, cap * total);
    }
    let shares: Vec<Vec<f64>> = (0..tables)
        .map(|_| {
            // A decreasing access share per segment (a concave CDF).
            let alpha = uniform(rng, 0.0, 1.5);
            let w: Vec<f64> = (0..segments)
                .map(|s| ((s + 1) as f64).powf(-alpha))
                .collect();
            let sum: f64 = w.iter().sum();
            w.iter().map(|x| x / sum).collect()
        })
        .collect();
    for bw in [1.0, 2.0, 4.0] {
        let mut terms = vec![(0, 1.0)];
        for (i, share) in shares.iter().enumerate() {
            for (s, &a) in share.iter().enumerate() {
                terms.push((var(i, s, terms.len() % 3), -a / bw));
            }
        }
        p.add_constraint(terms, Relation::Ge, 0.0);
    }
    p
}

#[test]
fn solution_bits_are_pinned() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xB175);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut outcomes = [0usize; 4];
    for _ in 0..300 {
        let r = mixed_lp(&mut rng).solve();
        outcomes[match r {
            Ok(_) => 0,
            Err(LpError::Infeasible) => 1,
            Err(LpError::Unbounded) => 2,
            Err(LpError::IterationLimit) => 3,
        }] += 1;
        h.solution(&r);
    }
    for _ in 0..100 {
        h.solution(&partition_lp(&mut rng).solve());
    }
    // Optimal, infeasible, unbounded, iteration limit.
    assert_eq!(outcomes, [222, 44, 34, 0]);
    assert_eq!(
        h.0, 0x80aa_a473_efe0_5e15,
        "solution digest moved: {:#018x}",
        h.0
    );
}
