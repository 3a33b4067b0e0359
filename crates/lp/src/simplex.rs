//! Dense two-phase primal simplex over `f64`, compiled for tests only.
//!
//! The production delay-matching path uses the specialized network solver
//! in [`crate::delay`]; this module is the independent oracle its tests
//! compare against.

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x = rhs`
    Eq,
    /// `coeffs · x ≥ rhs`
    Ge,
}

/// One linear constraint `coeffs · x REL rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficients, one per variable.
    pub coeffs: Vec<f64>,
    /// Constraint relation.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Objective coefficients, one per variable.
    pub objective: Vec<f64>,
    /// `true` to minimize, `false` to maximize.
    pub minimize: bool,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// Outcome of solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An optimal solution was found.
    Optimal {
        /// Optimal variable assignment.
        x: Vec<f64>,
        /// Objective value at `x` (in the problem's own sense).
        objective: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

const EPS: f64 = 1e-9;

/// Solves a linear program with the two-phase primal simplex method.
///
/// Variables are implicitly constrained to `x ≥ 0`. Bland's rule is used for
/// pivot selection, so the method cannot cycle.
///
/// # Panics
///
/// Panics if a constraint's coefficient count differs from the objective's.
pub fn solve(p: &Problem) -> Outcome {
    let n = p.objective.len();
    for c in &p.constraints {
        assert_eq!(c.coeffs.len(), n, "constraint arity mismatch");
    }
    let m = p.constraints.len();

    // Normalize rows to non-negative rhs and count auxiliary columns.
    let mut rows: Vec<(Vec<f64>, Relation, f64)> = p
        .constraints
        .iter()
        .map(|c| {
            if c.rhs < 0.0 {
                let coeffs: Vec<f64> = c.coeffs.iter().map(|v| -v).collect();
                let rel = match c.rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                (coeffs, rel, -c.rhs)
            } else {
                (c.coeffs.clone(), c.rel, c.rhs)
            }
        })
        .collect();

    let n_slack = rows
        .iter()
        .filter(|(_, r, _)| matches!(r, Relation::Le | Relation::Ge))
        .count();
    let n_art = rows
        .iter()
        .filter(|(_, r, _)| matches!(r, Relation::Eq | Relation::Ge))
        .count();
    let total = n + n_slack + n_art;

    // Tableau: m rows × (total + 1) columns, last column is the rhs.
    let mut tab = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut slack_idx = n;
    let mut art_idx = n + n_slack;
    let mut artificials = Vec::new();

    for (i, (coeffs, rel, rhs)) in rows.drain(..).enumerate() {
        tab[i][..n].copy_from_slice(&coeffs);
        tab[i][total] = rhs;
        match rel {
            Relation::Le => {
                tab[i][slack_idx] = 1.0;
                basis[i] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                tab[i][slack_idx] = -1.0;
                slack_idx += 1;
                tab[i][art_idx] = 1.0;
                basis[i] = art_idx;
                artificials.push(art_idx);
                art_idx += 1;
            }
            Relation::Eq => {
                tab[i][art_idx] = 1.0;
                basis[i] = art_idx;
                artificials.push(art_idx);
                art_idx += 1;
            }
        }
    }

    // Phase 1: minimize the sum of artificial variables.
    if !artificials.is_empty() {
        let mut cost = vec![0.0f64; total + 1];
        for &a in &artificials {
            cost[a] = 1.0;
        }
        // Price out the basic artificials.
        let mut z = vec![0.0f64; total + 1];
        for (i, &b) in basis.iter().enumerate() {
            if cost[b] != 0.0 {
                for j in 0..=total {
                    z[j] += cost[b] * tab[i][j];
                }
            }
        }
        let mut reduced: Vec<f64> = (0..total).map(|j| cost[j] - z[j]).collect();
        let mut obj = z[total];
        if !iterate(&mut tab, &mut basis, &mut reduced, &mut obj, total) {
            // Phase 1 objective is bounded below by 0, so this cannot happen.
            unreachable!("phase 1 simplex reported unbounded");
        }
        if obj > 1e-7 {
            return Outcome::Infeasible;
        }
        // Drive any remaining artificial out of the basis if possible.
        for i in 0..m {
            if artificials.contains(&basis[i]) {
                if let Some(j) = (0..n + n_slack).find(|&j| tab[i][j].abs() > EPS) {
                    pivot(&mut tab, &mut basis, i, j, total);
                } else {
                    // Redundant row; leave the artificial at value 0.
                }
            }
        }
    }

    // Phase 2: optimize the real objective (internally: minimize).
    let sign = if p.minimize { 1.0 } else { -1.0 };
    let mut cost = vec![0.0f64; total + 1];
    for (c, &obj) in cost.iter_mut().zip(&p.objective).take(n) {
        *c = sign * obj;
    }
    for &a in &artificials {
        cost[a] = 1e12; // keep artificials pinned at zero
    }
    let mut z = vec![0.0f64; total + 1];
    for (i, &b) in basis.iter().enumerate() {
        if cost[b] != 0.0 {
            for j in 0..=total {
                z[j] += cost[b] * tab[i][j];
            }
        }
    }
    let mut reduced: Vec<f64> = (0..total).map(|j| cost[j] - z[j]).collect();
    let mut obj = z[total];
    if !iterate(&mut tab, &mut basis, &mut reduced, &mut obj, total) {
        return Outcome::Unbounded;
    }

    let mut x = vec![0.0f64; n];
    for (i, &b) in basis.iter().enumerate() {
        if b < n {
            x[b] = tab[i][total];
        }
    }
    let objective: f64 = p.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    Outcome::Optimal { x, objective }
}

/// Runs simplex iterations with Bland's rule. Returns `false` on unbounded.
fn iterate(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    reduced: &mut [f64],
    obj: &mut f64,
    total: usize,
) -> bool {
    loop {
        // Bland's rule: smallest index with negative reduced cost.
        let Some(enter) = (0..total).find(|&j| reduced[j] < -EPS) else {
            return true;
        };
        // Ratio test, again breaking ties by smallest basis index.
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for (i, row) in tab.iter().enumerate() {
            if row[enter] > EPS {
                let ratio = row[total] / row[enter];
                if ratio < best - EPS
                    || (ratio < best + EPS && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return false; // unbounded
        };
        let delta = reduced[enter] * best;
        pivot_with_reduced(tab, basis, reduced, leave, enter, total);
        *obj += delta;
    }
}

fn pivot(tab: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let piv = tab[row][col];
    for v in tab[row].iter_mut() {
        *v /= piv;
    }
    let pivot_row = tab[row].clone();
    for (i, r) in tab.iter_mut().enumerate() {
        if i != row && r[col].abs() > EPS {
            let f = r[col];
            for (v, &pv) in r.iter_mut().zip(&pivot_row).take(total + 1) {
                *v -= f * pv;
            }
        }
    }
    basis[row] = col;
}

fn pivot_with_reduced(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    reduced: &mut [f64],
    row: usize,
    col: usize,
    total: usize,
) {
    pivot(tab, basis, row, col, total);
    let f = reduced[col];
    if f.abs() > EPS {
        for (j, r) in reduced.iter_mut().enumerate() {
            *r -= f * tab[row][j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(p: &Problem) -> (Vec<f64>, f64) {
        match solve(p) {
            Outcome::Optimal { x, objective } => (x, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → 36 at (2, 6).
        let p = Problem {
            objective: vec![3.0, 5.0],
            minimize: false,
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0, 0.0],
                    rel: Relation::Le,
                    rhs: 4.0,
                },
                Constraint {
                    coeffs: vec![0.0, 2.0],
                    rel: Relation::Le,
                    rhs: 12.0,
                },
                Constraint {
                    coeffs: vec![3.0, 2.0],
                    rel: Relation::Le,
                    rhs: 18.0,
                },
            ],
        };
        let (x, obj) = optimal(&p);
        assert!((obj - 36.0).abs() < 1e-6);
        assert!((x[0] - 2.0).abs() < 1e-6 && (x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 → 9 at (4 - 0, ...): x=4,y=0 gives 8.
        let p = Problem {
            objective: vec![2.0, 3.0],
            minimize: true,
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0, 1.0],
                    rel: Relation::Ge,
                    rhs: 4.0,
                },
                Constraint {
                    coeffs: vec![1.0, 0.0],
                    rel: Relation::Ge,
                    rhs: 1.0,
                },
            ],
        };
        let (x, obj) = optimal(&p);
        assert!((obj - 8.0).abs() < 1e-6, "got {obj} at {x:?}");
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 6, x <= 2 → x=0, y=3, obj=3.
        let p = Problem {
            objective: vec![1.0, 1.0],
            minimize: true,
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0, 2.0],
                    rel: Relation::Eq,
                    rhs: 6.0,
                },
                Constraint {
                    coeffs: vec![1.0, 0.0],
                    rel: Relation::Le,
                    rhs: 2.0,
                },
            ],
        };
        let (x, obj) = optimal(&p);
        assert!((obj - 3.0).abs() < 1e-6, "got {obj} at {x:?}");
        assert!((x[0] + 2.0 * x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let p = Problem {
            objective: vec![1.0],
            minimize: true,
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0],
                    rel: Relation::Ge,
                    rhs: 5.0,
                },
                Constraint {
                    coeffs: vec![1.0],
                    rel: Relation::Le,
                    rhs: 2.0,
                },
            ],
        };
        assert_eq!(solve(&p), Outcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let p = Problem {
            objective: vec![1.0],
            minimize: false,
            constraints: vec![Constraint {
                coeffs: vec![1.0],
                rel: Relation::Ge,
                rhs: 1.0,
            }],
        };
        assert_eq!(solve(&p), Outcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2 with x,y >= 0: minimize y → y >= x + 2 → y = 2 at x = 0.
        let p = Problem {
            objective: vec![0.0, 1.0],
            minimize: true,
            constraints: vec![Constraint {
                coeffs: vec![1.0, -1.0],
                rel: Relation::Le,
                rhs: -2.0,
            }],
        };
        let (x, obj) = optimal(&p);
        assert!((obj - 2.0).abs() < 1e-6, "got {obj} at {x:?}");
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classic degenerate LP; Bland's rule must terminate.
        let p = Problem {
            objective: vec![0.75, -150.0, 0.02, -6.0],
            minimize: false,
            constraints: vec![
                Constraint {
                    coeffs: vec![0.25, -60.0, -0.04, 9.0],
                    rel: Relation::Le,
                    rhs: 0.0,
                },
                Constraint {
                    coeffs: vec![0.5, -90.0, -0.02, 3.0],
                    rel: Relation::Le,
                    rhs: 0.0,
                },
                Constraint {
                    coeffs: vec![0.0, 0.0, 1.0, 0.0],
                    rel: Relation::Le,
                    rhs: 1.0,
                },
            ],
        };
        let (_, obj) = optimal(&p);
        assert!(
            (obj - 0.05).abs() < 1e-6,
            "Beale's example optimum is 1/20, got {obj}"
        );
    }
}
