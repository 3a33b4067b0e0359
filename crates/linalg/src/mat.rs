//! Dense integer matrices with exact `i64` arithmetic.

use std::fmt;
use std::ops::Mul;

/// A dense row-major integer matrix.
///
/// All LEGO relation matrices are tiny (a handful of rows/columns), so a
/// simple dense representation with exact 64-bit integer arithmetic is both
/// the fastest and the most robust choice. Arithmetic panics on overflow in
/// debug builds; the magnitudes involved (loop sizes, strides) stay far below
/// `i64::MAX` in practice.
///
/// # Examples
///
/// ```
/// use lego_linalg::IMat;
///
/// let a = IMat::from_rows(&[vec![1, 2], vec![3, 4]]);
/// let i = IMat::identity(2);
/// assert_eq!(&a * &i, a);
/// assert_eq!(a.mul_vec(&[1, 1]), vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IMat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = IMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<i64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        IMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix with the given shape from a flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_flat: size mismatch");
        IMat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[i64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<i64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Horizontally concatenates `self` with `other` (`[self | other]`).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &IMat) -> IMat {
        assert_eq!(self.rows, other.rows, "hstack: row count mismatch");
        let mut m = IMat::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            m.data[r * m.cols..r * m.cols + self.cols].copy_from_slice(self.row(r));
            m.data[r * m.cols + self.cols..(r + 1) * m.cols].copy_from_slice(other.row(r));
        }
        m
    }

    /// Iterates over all entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.data.iter().copied()
    }
}

impl std::ops::Index<(usize, usize)> for IMat {
    type Output = i64;

    fn index(&self, (r, c): (usize, usize)) -> &i64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IMat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut i64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &IMat {
    type Output = IMat;

    fn mul(self, rhs: &IMat) -> IMat {
        assert_eq!(self.cols, rhs.rows, "matrix product: dimension mismatch");
        let mut out = IMat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = IMat::from_rows(&[vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6);
        assert_eq!(m.row(0), &[1, 2, 3]);
        assert_eq!(m.col(1), vec![2, 5]);
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = IMat::from_rows(&[vec![2, -1], vec![7, 0]]);
        assert_eq!(&a * &IMat::identity(2), a);
        assert_eq!(&IMat::identity(2) * &a, a);
    }

    #[test]
    fn matrix_product() {
        let a = IMat::from_rows(&[vec![1, 2], vec![3, 4]]);
        let b = IMat::from_rows(&[vec![0, 1], vec![1, 0]]);
        let ab = &a * &b;
        assert_eq!(ab, IMat::from_rows(&[vec![2, 1], vec![4, 3]]));
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let a = IMat::from_rows(&[vec![1, 0, 2], vec![0, 3, -1]]);
        assert_eq!(a.mul_vec(&[1, 1, 1]), vec![3, 2]);
    }

    #[test]
    fn stacking() {
        let a = IMat::from_rows(&[vec![1], vec![2]]);
        let b = IMat::from_rows(&[vec![3], vec![4]]);
        assert_eq!(a.hstack(&b), IMat::from_rows(&[vec![1, 3], vec![2, 4]]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn product_shape_mismatch_panics() {
        let a = IMat::zeros(2, 3);
        let b = IMat::zeros(2, 3);
        let _ = &a * &b;
    }
}
