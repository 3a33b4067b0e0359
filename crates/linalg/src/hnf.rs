//! Column-style Hermite normal form and exact integer solving, whose
//! solution lattice carries an integer nullspace basis.
//!
//! LEGO's interconnection analysis (paper §IV-A, Equations 6–7) asks for all
//! integer solutions of systems like `M_{I→D}·M_{S→I}·Δs = 0` and
//! `M_{I→D}·(M_{T→I}·Δt + M_{S→I}·Δs) = 0`. The solution sets are lattices;
//! we describe them with a particular solution plus an integer basis of the
//! kernel, both obtained from a column-style Hermite normal form `H = A·U`
//! with `U` unimodular.
//!
//! Internal arithmetic uses `i128` so intermediate pivoting cannot overflow
//! for the small matrices LEGO manipulates.

use crate::mat::IMat;

/// Result of a column-style Hermite normal form computation: `h = a · u`
/// with `u` unimodular, `h` in column echelon form.
#[derive(Debug, Clone)]
pub struct Hnf {
    /// The echelon-form matrix `H`.
    pub h: IMat,
    /// The unimodular transform `U` with `A·U = H`.
    pub u: IMat,
    /// `(row, col)` positions of the pivots of `H`, in increasing row order.
    pub pivots: Vec<(usize, usize)>,
}

/// Integer solution set of `A·x = b`: all solutions are
/// `particular + Σ kᵢ·basis[i]` for integers `kᵢ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntSolution {
    /// One integer solution.
    pub particular: Vec<i64>,
    /// Integer basis of the kernel of `A`.
    pub basis: Vec<Vec<i64>>,
}

fn to_i128(m: &IMat) -> Vec<Vec<i128>> {
    (0..m.rows())
        .map(|r| m.row(r).iter().map(|&x| x as i128).collect())
        .collect()
}

fn to_imat(m: &[Vec<i128>]) -> IMat {
    let rows: Vec<Vec<i64>> = m
        .iter()
        .map(|row| {
            row.iter()
                .map(|&x| i64::try_from(x).expect("HNF entry exceeds i64 range"))
                .collect()
        })
        .collect();
    IMat::from_rows(&rows)
}

/// Computes the column-style Hermite normal form `H = A·U`.
///
/// `H` is in column echelon form: each pivot row has exactly one nonzero
/// entry among the columns at or to the right of its pivot column, pivots
/// are positive, and entries to the left of a pivot are reduced modulo the
/// pivot. Columns of `U` corresponding to zero columns of `H` form an
/// integer basis of the kernel of `A`.
///
/// # Examples
///
/// ```
/// use lego_linalg::{hermite_normal_form, IMat};
///
/// let a = IMat::from_rows(&[vec![2, 4, 4]]);
/// let hnf = hermite_normal_form(&a);
/// assert_eq!(&a * &hnf.u, hnf.h);
/// assert_eq!(hnf.pivots.len(), 1);
/// ```
pub fn hermite_normal_form(a: &IMat) -> Hnf {
    let rows = a.rows();
    let cols = a.cols();
    let mut h = to_i128(a);
    // U starts as the identity; we mirror every column operation onto it.
    let mut u: Vec<Vec<i128>> = (0..cols)
        .map(|r| (0..cols).map(|c| i128::from(r == c)).collect())
        .collect();
    let mut pivots = Vec::new();
    let mut c = 0usize;

    let swap_cols = |h: &mut Vec<Vec<i128>>, u: &mut Vec<Vec<i128>>, i: usize, j: usize| {
        if i != j {
            for row in h.iter_mut() {
                row.swap(i, j);
            }
            for row in u.iter_mut() {
                row.swap(i, j);
            }
        }
    };
    // col[j] -= q * col[i]
    let axpy_cols =
        |h: &mut Vec<Vec<i128>>, u: &mut Vec<Vec<i128>>, j: usize, q: i128, i: usize| {
            for row in h.iter_mut() {
                let v = row[i];
                row[j] -= q * v;
            }
            for row in u.iter_mut() {
                let v = row[i];
                row[j] -= q * v;
            }
        };
    let negate_col = |h: &mut Vec<Vec<i128>>, u: &mut Vec<Vec<i128>>, i: usize| {
        for row in h.iter_mut() {
            row[i] = -row[i];
        }
        for row in u.iter_mut() {
            row[i] = -row[i];
        }
    };

    for r in 0..rows {
        if c >= cols {
            break;
        }
        // Eliminate row r across columns c.. using gcd-style column ops.
        loop {
            // Find the column with the smallest nonzero |H[r][j]| for j >= c.
            let best = (c..cols)
                .filter(|&j| h[r][j] != 0)
                .min_by_key(|&j| h[r][j].unsigned_abs());
            let Some(jmin) = best else { break };
            swap_cols(&mut h, &mut u, c, jmin);
            let mut done = true;
            for j in c + 1..cols {
                if h[r][j] != 0 {
                    let q = h[r][j].div_euclid(h[r][c]);
                    axpy_cols(&mut h, &mut u, j, q, c);
                    if h[r][j] != 0 {
                        done = false;
                    }
                }
            }
            if done {
                break;
            }
        }
        if h[r][c] != 0 {
            if h[r][c] < 0 {
                negate_col(&mut h, &mut u, c);
            }
            // Reduce entries to the left of the pivot (canonical HNF).
            for j in 0..c {
                if h[r][j] != 0 {
                    let q = h[r][j].div_euclid(h[r][c]);
                    axpy_cols(&mut h, &mut u, j, q, c);
                }
            }
            pivots.push((r, c));
            c += 1;
        }
    }

    Hnf {
        h: to_imat(&h),
        u: to_imat(&u),
        pivots,
    }
}

/// Solves `A·x = b` over the integers.
///
/// Returns `None` when no integer solution exists (either the system is
/// inconsistent over the rationals or the solution is fractional).
/// Otherwise returns a particular solution and a kernel basis describing
/// the full solution lattice; `solve(a, &vec![0; a.rows()])` never fails, and
/// its `basis` is an integer basis of the nullspace of `A`.
///
/// # Examples
///
/// ```
/// use lego_linalg::{solve, IMat};
///
/// let a = IMat::from_rows(&[vec![2, 0], vec![0, 3]]);
/// let sol = solve(&a, &[4, 9]).unwrap();
/// assert_eq!(sol.particular, vec![2, 3]);
/// assert!(sol.basis.is_empty());
/// assert!(solve(&a, &[1, 0]).is_none()); // 2x = 1 has no integer solution
/// ```
///
/// # Panics
///
/// Panics if `b.len() != a.rows()`.
pub fn solve(a: &IMat, b: &[i64]) -> Option<IntSolution> {
    assert_eq!(b.len(), a.rows(), "solve: rhs length mismatch");
    let hnf = hermite_normal_form(a);
    let h = to_i128(&hnf.h);
    let rank = hnf.pivots.len();
    let mut y = vec![0i128; a.cols()];
    let mut residual: Vec<i128> = b.iter().map(|&x| x as i128).collect();

    // Forward substitution over the pivots: pivot rows are increasing, and in
    // each pivot row every column right of the pivot is zero, so solving in
    // pivot order is well-defined.
    for &(r, c) in &hnf.pivots {
        // residual currently holds b - H·y for the y set so far.
        let num = residual[r];
        let den = h[r][c];
        if num % den != 0 {
            return None; // fractional solution
        }
        let yc = num / den;
        y[c] = yc;
        if yc != 0 {
            for (row, res) in residual.iter_mut().enumerate() {
                *res -= h[row][c] * yc;
            }
        }
    }
    if residual.iter().any(|&x| x != 0) {
        return None; // inconsistent system
    }

    // x = U·y
    let u = to_i128(&hnf.u);
    let particular: Vec<i64> = (0..a.cols())
        .map(|r| {
            let v: i128 = (0..a.cols()).map(|c| u[r][c] * y[c]).sum();
            i64::try_from(v).expect("solution exceeds i64 range")
        })
        .collect();
    let basis = (rank..a.cols()).map(|j| hnf.u.col(j)).collect();
    debug_assert_eq!(a.mul_vec(&particular), b.to_vec());
    Some(IntSolution { particular, basis })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_hnf(a: &IMat) {
        let hnf = hermite_normal_form(a);
        // Defining property: A·U = H.
        assert_eq!(&(a * &hnf.u), &hnf.h);
        // U unimodular: |det U| = 1, checked via integer Bareiss on small U.
        assert_eq!(det(&hnf.u).abs(), 1, "U not unimodular for {a:?}");
        // Echelon structure: each pivot row has zeros right of its pivot.
        for &(r, c) in &hnf.pivots {
            assert!(hnf.h[(r, c)] > 0);
            for j in c + 1..a.cols() {
                assert_eq!(hnf.h[(r, j)], 0, "nonzero right of pivot in {a:?}");
            }
        }
        // Columns past the last pivot are zero.
        for j in hnf.pivots.len()..a.cols() {
            assert!(hnf.h.col(j).iter().all(|&x| x == 0));
        }
    }

    /// Exact determinant by fraction-free Gaussian elimination (test helper).
    fn det(m: &IMat) -> i64 {
        assert_eq!(m.rows(), m.cols());
        let n = m.rows();
        let mut a: Vec<Vec<i128>> = (0..n)
            .map(|r| m.row(r).iter().map(|&x| x as i128).collect())
            .collect();
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n {
            if a[k][k] == 0 {
                let Some(p) = (k + 1..n).find(|&p| a[p][k] != 0) else {
                    return 0;
                };
                a.swap(k, p);
                sign = -sign;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev;
                }
                a[i][k] = 0;
            }
            prev = a[k][k];
        }
        i64::try_from(sign * a[n - 1][n - 1]).unwrap()
    }

    #[test]
    fn hnf_simple_cases() {
        check_hnf(&IMat::from_rows(&[vec![2, 4, 4]]));
        check_hnf(&IMat::from_rows(&[vec![1, 0, 0], vec![0, 1, 0]]));
        check_hnf(&IMat::from_rows(&[vec![3, 6], vec![4, 8]]));
        check_hnf(&IMat::zeros(2, 3));
        check_hnf(&IMat::identity(4));
    }

    #[test]
    fn nullspace_of_gemm_x_mapping() {
        // GEMM tensor X reads index [i, k] from iteration [i, j, k]:
        // kernel must be spanned by the j direction.
        let m = IMat::from_rows(&[vec![1, 0, 0], vec![0, 0, 1]]);
        let basis = solve(&m, &[0, 0]).unwrap().basis;
        assert_eq!(basis.len(), 1);
        let v = &basis[0];
        assert_eq!(m.mul_vec(v), vec![0, 0]);
        assert_ne!(v[1], 0, "kernel must move along j");
        assert_eq!(v[0], 0);
        assert_eq!(v[2], 0);
    }

    #[test]
    fn solve_consistent_and_inconsistent() {
        let a = IMat::from_rows(&[vec![1, 2], vec![3, 4]]);
        let sol = solve(&a, &[5, 11]).unwrap();
        assert_eq!(a.mul_vec(&sol.particular), vec![5, 11]);
        assert!(sol.basis.is_empty());

        // Singular but consistent: x + y = 2 (doubled row).
        let a2 = IMat::from_rows(&[vec![1, 1], vec![2, 2]]);
        let sol2 = solve(&a2, &[2, 4]).unwrap();
        assert_eq!(a2.mul_vec(&sol2.particular), vec![2, 4]);
        assert_eq!(sol2.basis.len(), 1);

        // Inconsistent.
        assert!(solve(&a2, &[2, 5]).is_none());
        // Fractional: 2x = 3.
        assert!(solve(&IMat::from_rows(&[vec![2]]), &[3]).is_none());
    }

    #[test]
    fn solve_underdetermined_lattice() {
        // x + 2y + 3z = 6 has a 2-d solution lattice.
        let a = IMat::from_rows(&[vec![1, 2, 3]]);
        let sol = solve(&a, &[6]).unwrap();
        assert_eq!(sol.basis.len(), 2);
        for basis_vec in &sol.basis {
            assert_eq!(a.mul_vec(basis_vec), vec![0]);
        }
        // Shifting by any basis combination stays a solution.
        let shifted: Vec<i64> = sol
            .particular
            .iter()
            .zip(&sol.basis[0])
            .zip(&sol.basis[1])
            .map(|((p, b0), b1)| p + 2 * b0 - 3 * b1)
            .collect();
        assert_eq!(a.mul_vec(&shifted), vec![6]);
    }

    #[test]
    fn zero_matrix_kernel_is_everything() {
        let a = IMat::zeros(2, 3);
        let sol = solve(&a, &[0, 0]).unwrap();
        assert_eq!(sol.basis.len(), 3);
        assert_eq!(sol.particular, vec![0, 0, 0]);
        assert!(solve(&a, &[1, 0]).is_none());
    }
}
