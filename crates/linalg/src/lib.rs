//! Integer linear algebra for the LEGO spatial-accelerator generator.
//!
//! LEGO's relation-centric representation (paper §III) is built entirely on
//! affine transformations over integer vectors: data mappings
//! `d = M_{I→D}·i + b`, dataflow mappings `i = [M_{T→I} M_{S→I}]·[t; s]`, and
//! the interconnection analysis (paper §IV-A) reduces to solving integer
//! linear systems `A·x = 0` and `A·x = b` inside small bounded boxes.
//!
//! This crate provides:
//!
//! * [`IMat`] — a dense integer matrix with exact `i64` arithmetic,
//! * [`hnf`] — column-style Hermite normal form and exact integer solving
//!   of `A·x = b`, whose solution carries an integer basis of the nullspace
//!   (`solve(&a, &vec![0; a.rows()])` for the nullspace alone),
//! * [`AffineMap`] — an affine transformation `x ↦ M·x + b` with composition,
//! * small vector helpers ([`dot`], [`linearize`]) used across the
//!   workspace.
//!
//! # Examples
//!
//! ```
//! use lego_linalg::{IMat, AffineMap};
//!
//! // The GEMM output mapping y = [i, j] from iteration index [i, j, k].
//! let m = IMat::from_rows(&[vec![1, 0, 0], vec![0, 1, 0]]);
//! let map = AffineMap::linear(m);
//! assert_eq!(map.apply(&[3, 4, 5]), vec![3, 4]);
//! ```

pub mod affine;
pub mod hnf;
pub mod mat;

pub use affine::AffineMap;
pub use hnf::{hermite_normal_form, solve, Hnf, IntSolution};
pub use mat::IMat;

/// Dot product of two equal-length integer vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(lego_linalg::dot(&[1, 2], &[3, 4]), 11);
/// ```
pub fn dot(a: &[i64], b: &[i64]) -> i64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Flattens a multi-dimensional loop index into a scalar timestamp
/// following the paper's Equation 3:
/// `t = ((t0·R1 + t1)·R2 + t2)·…` where `sizes = [R0, R1, …]`.
///
/// The first dimension is the outermost loop.
///
/// # Panics
///
/// Panics if `index` and `sizes` have different lengths.
///
/// # Examples
///
/// ```
/// // A 2-level nest of sizes [3, 4]: index [1, 2] is cycle 1*4 + 2 = 6.
/// assert_eq!(lego_linalg::linearize(&[1, 2], &[3, 4]), 6);
/// ```
pub fn linearize(index: &[i64], sizes: &[i64]) -> i64 {
    assert_eq!(index.len(), sizes.len(), "linearize: length mismatch");
    let mut t = 0i64;
    for (x, r) in index.iter().zip(sizes) {
        t = t * r + x;
    }
    t
}

/// Inverse of [`linearize`]: splits a scalar timestamp back into a
/// multi-dimensional loop index for the given loop sizes.
///
/// # Panics
///
/// Panics if any size is non-positive.
pub fn delinearize(mut t: i64, sizes: &[i64]) -> Vec<i64> {
    let mut out = vec![0i64; sizes.len()];
    for (slot, &r) in out.iter_mut().zip(sizes).rev() {
        assert!(r > 0, "delinearize: non-positive loop size");
        *slot = t.rem_euclid(r);
        t = t.div_euclid(r);
    }
    out
}

/// Greatest common divisor of two integers by absolute value
/// (`gcd(0, 0) = 0`).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// GCD folded over a slice; returns 0 for an empty slice or all-zero input.
pub fn gcd_all(xs: &[i64]) -> i64 {
    xs.iter().fold(0, |acc, &x| gcd(acc, x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[], &[]), 0);
        assert_eq!(dot(&[1, -2, 3], &[4, 5, 6]), 4 - 10 + 18);
    }

    #[test]
    fn linearize_matches_paper_equation3() {
        // t = ((t0*R1 + t1)*R2 + t2)
        let sizes = [2, 3, 4];
        #[allow(clippy::identity_op)] // spell out the row-major formula
        let expect = (1 * 3 + 2) * 4 + 3;
        assert_eq!(linearize(&[1, 2, 3], &sizes), expect);
        assert_eq!(linearize(&[0, 0, 0], &sizes), 0);
    }

    #[test]
    fn delinearize_roundtrip() {
        let sizes = [3, 5, 2, 7];
        let total: i64 = sizes.iter().product();
        for t in 0..total {
            let idx = delinearize(t, &sizes);
            assert_eq!(linearize(&idx, &sizes), t);
            for (x, r) in idx.iter().zip(&sizes) {
                assert!(*x >= 0 && x < r);
            }
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd_all(&[4, 6, 8]), 2);
        assert_eq!(gcd_all(&[]), 0);
        assert_eq!(gcd_all(&[0, 0]), 0);
        assert_eq!(gcd_all(&[0, 5]), 5);
    }
}
