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

use recross_lp::{LpProblem, Relation};
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
