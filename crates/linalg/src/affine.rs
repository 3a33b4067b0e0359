//! Affine transformations `x ↦ M·x + b` over integer vectors.

use crate::mat::IMat;

/// An affine map `f(x) = M·x + b`.
///
/// This is the elementary building block of LEGO's relation-centric
/// representation (paper §III): tensor data mappings `f_{I→D}`, dataflow
/// mappings `f_{TS→I}` and their compositions `f_{TS→D}` are all affine.
///
/// # Examples
///
/// ```
/// use lego_linalg::{AffineMap, IMat};
///
/// // Conv2D input height: ih = oh + kh - 1.
/// let m = IMat::from_rows(&[vec![1, 1]]);
/// let f = AffineMap::new(m, vec![-1]);
/// assert_eq!(f.apply(&[5, 2]), vec![6]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineMap {
    matrix: IMat,
    bias: Vec<i64>,
}

impl AffineMap {
    /// Creates an affine map from a matrix and a bias vector.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != matrix.rows()`.
    pub fn new(matrix: IMat, bias: Vec<i64>) -> Self {
        assert_eq!(
            bias.len(),
            matrix.rows(),
            "affine map: bias length mismatch"
        );
        AffineMap { matrix, bias }
    }

    /// Creates a purely linear map (zero bias).
    pub fn linear(matrix: IMat) -> Self {
        let bias = vec![0; matrix.rows()];
        AffineMap { matrix, bias }
    }

    /// The identity map on `n`-dimensional vectors.
    pub fn identity(n: usize) -> Self {
        AffineMap::linear(IMat::identity(n))
    }

    /// The linear part `M`.
    pub fn matrix(&self) -> &IMat {
        &self.matrix
    }

    /// The bias `b`.
    pub fn bias(&self) -> &[i64] {
        &self.bias
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.matrix.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.matrix.rows()
    }

    /// Evaluates the map at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn apply(&self, x: &[i64]) -> Vec<i64> {
        let mut y = self.matrix.mul_vec(x);
        for (yi, bi) in y.iter_mut().zip(&self.bias) {
            *yi += bi;
        }
        y
    }

    /// Composition `self ∘ inner`: first applies `inner`, then `self`.
    ///
    /// # Panics
    ///
    /// Panics if `inner.out_dim() != self.in_dim()`.
    pub fn compose(&self, inner: &AffineMap) -> AffineMap {
        assert_eq!(
            inner.out_dim(),
            self.in_dim(),
            "compose: dimension mismatch"
        );
        let matrix = &self.matrix * &inner.matrix;
        let bias = self.apply(&inner.bias);
        AffineMap { matrix, bias }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_and_identity() {
        let id = AffineMap::identity(3);
        assert_eq!(id.apply(&[7, -2, 0]), vec![7, -2, 0]);
        assert_eq!(id.in_dim(), 3);
        assert_eq!(id.out_dim(), 3);
    }

    #[test]
    fn compose_matches_sequential_application() {
        // inner: R^2 -> R^3, outer: R^3 -> R^1.
        let inner = AffineMap::new(
            IMat::from_rows(&[vec![1, 0], vec![0, 1], vec![1, 1]]),
            vec![1, 2, 3],
        );
        let outer = AffineMap::new(IMat::from_rows(&[vec![1, -1, 2]]), vec![10]);
        let comp = outer.compose(&inner);
        for x in [[0, 0], [1, 2], [-3, 5]] {
            assert_eq!(comp.apply(&x), outer.apply(&inner.apply(&x)));
        }
    }

    #[test]
    fn differences_drop_bias() {
        let f = AffineMap::new(IMat::from_rows(&[vec![2, 3]]), vec![41]);
        let a = [5, 7];
        let d = [1, -1];
        let moved = [a[0] + d[0], a[1] + d[1]];
        let diff: Vec<i64> = f
            .apply(&moved)
            .iter()
            .zip(f.apply(&a))
            .map(|(u, v)| u - v)
            .collect();
        assert_eq!(diff, f.matrix().mul_vec(&d));
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn bad_bias_panics() {
        let _ = AffineMap::new(IMat::identity(2), vec![0]);
    }
}
