//! Dense integer tensors and the reference loop-nest executor.
//!
//! Generated hardware is verified by comparing its cycle-accurate output
//! against [`reference_execute`], which runs the workload's loop nest
//! exactly as written (paper Figure 3a) on exact integer data.

use crate::workload::{TensorAccess, Workload};
use lego_linalg::AffineMap;

/// A dense row-major integer tensor.
///
/// Integer data keeps verification exact: a generated accelerator must
/// reproduce the reference output bit-for-bit.
///
/// # Examples
///
/// ```
/// use lego_ir::TensorData;
///
/// let mut t = TensorData::zeros(&[2, 3]);
/// t.set(&[1, 2], 7);
/// assert_eq!(t.get(&[1, 2]), 7);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorData {
    shape: Vec<i64>,
    data: Vec<i64>,
}

impl TensorData {
    /// Creates a zero-filled tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if any extent is non-positive.
    pub fn zeros(shape: &[i64]) -> Self {
        assert!(shape.iter().all(|&d| d > 0), "non-positive tensor extent");
        let len: i64 = shape.iter().product();
        TensorData {
            shape: shape.to_vec(),
            data: vec![0; len as usize],
        }
    }

    /// Creates a tensor filled by a function of the flat element index —
    /// handy for deterministic pseudo-random test data.
    pub fn from_fn(shape: &[i64], f: impl Fn(usize) -> i64) -> Self {
        let mut t = TensorData::zeros(shape);
        for (i, v) in t.data.iter_mut().enumerate() {
            *v = f(i);
        }
        t
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[i64] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has no elements (never true for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[i64]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0usize;
        for (x, d) in index.iter().zip(&self.shape) {
            assert!(
                *x >= 0 && x < d,
                "index {index:?} out of bounds {:?}",
                self.shape
            );
            off = off * (*d as usize) + *x as usize;
        }
        off
    }

    /// Reads the element at `index`.
    pub fn get(&self, index: &[i64]) -> i64 {
        self.data[self.offset(index)]
    }

    /// Writes the element at `index`.
    pub fn set(&mut self, index: &[i64], value: i64) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Borrow the flat element storage.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Mutably borrow the flat element storage.
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// `(coefs, base)` with `offset(map(x)) == coefs·x + base` for every `x`
    /// in the box `0 ≤ x < extents`: the row-major layout folded into `map`.
    ///
    /// # Panics
    ///
    /// Panics if `map` sends a point of the box out of bounds. Each
    /// coordinate is affine in `x`, so checking the box's corners is exact.
    pub fn offset_map(&self, map: &AffineMap, extents: &[i64]) -> (Vec<i64>, i64) {
        assert_eq!(map.out_dim(), self.shape.len(), "index rank mismatch");
        let (mut coefs, mut base) = (vec![0i64; map.in_dim()], 0i64);
        for (r, (&d, &b)) in self.shape.iter().zip(map.bias()).enumerate() {
            let row = map.matrix().row(r);
            let corner = |f: fn(i64, i64) -> i64| {
                b + row
                    .iter()
                    .zip(extents)
                    .map(|(m, e)| f(m * (e - 1), 0))
                    .sum::<i64>()
            };
            let (lo, hi) = (corner(i64::min), corner(i64::max));
            assert!(
                lo >= 0 && hi < d,
                "index {lo}..={hi} out of bounds {d} on axis {r}"
            );
            base = base * d + b;
            coefs.iter_mut().zip(row).for_each(|(c, m)| *c = *c * d + m);
        }
        (coefs, base)
    }
}

/// Steps the row-major odometer `digits` over `extents` to its next point,
/// moving each `offsets[j]` along by `coefs[j]` (read at `digits`' axes) as
/// the digits change. Returns `false` once the box is exhausted, with
/// `digits` and `offsets` back at its first point.
pub fn advance(
    digits: &mut [i64],
    extents: &[i64],
    coefs: &[Vec<i64>],
    offsets: &mut [i64],
) -> bool {
    for k in (0..digits.len()).rev() {
        let carry = digits[k] + 1 == extents[k];
        let step = if carry { 1 - extents[k] } else { 1 };
        digits[k] += step;
        offsets
            .iter_mut()
            .zip(coefs)
            .for_each(|(o, c)| *o += step * c[k]);
        if !carry {
            return true;
        }
    }
    false
}

/// The workload's input accesses, after checking `inputs` (in declaration
/// order) against them.
///
/// # Panics
///
/// Panics if the number or shapes of inputs do not match the workload.
pub fn checked_inputs<'w>(workload: &'w Workload, inputs: &[&TensorData]) -> Vec<&'w TensorAccess> {
    let accesses: Vec<_> = workload.inputs().collect();
    assert_eq!(inputs.len(), accesses.len(), "input count mismatch");
    for (t, a) in inputs.iter().zip(&accesses) {
        let shape = workload.tensor_shape(&a.tensor);
        assert_eq!(t.shape(), shape, "shape mismatch for tensor `{}`", a.tensor);
    }
    accesses
}

/// Executes the workload's loop nest on the given inputs (in the workload's
/// input declaration order) and returns the output tensor.
///
/// # Panics
///
/// Panics if the number or shapes of inputs do not match the workload.
///
/// # Examples
///
/// ```
/// use lego_ir::{kernels, tensor::reference_execute, TensorData};
///
/// let g = kernels::gemm(2, 2, 2);
/// let x = TensorData::from_fn(&[2, 2], |i| i as i64);      // [[0,1],[2,3]]
/// let w = TensorData::from_fn(&[2, 2], |i| 1 + i as i64);  // [[1,2],[3,4]]
/// let y = reference_execute(&g, &[&x, &w]);
/// assert_eq!(y.get(&[0, 0]), 0 * 1 + 1 * 3);
/// assert_eq!(y.get(&[1, 1]), 2 * 2 + 3 * 4);
/// ```
pub fn reference_execute(workload: &Workload, inputs: &[&TensorData]) -> TensorData {
    let input_accesses = checked_inputs(workload, inputs);
    let out_access = workload.output();
    let mut out = TensorData::zeros(&workload.tensor_shape(&out_access.tensor));

    // Walk the domain with one odometer carrying every access's flat offset.
    let bounds = &workload.bounds;
    let data = inputs.iter().copied().chain([&out]);
    let maps = input_accesses.iter().copied().chain([out_access]);
    let (coefs, mut offsets): (Vec<_>, Vec<_>) = data
        .zip(maps)
        .map(|(t, a)| t.offset_map(&a.map, bounds))
        .unzip();
    let mut idx = vec![0i64; bounds.len()];
    let mut vals = vec![0i64; inputs.len()];
    loop {
        for ((v, t), &o) in vals.iter_mut().zip(inputs).zip(&offsets) {
            *v = t.data[o as usize];
        }
        let y = offsets[inputs.len()] as usize;
        out.data[y] = workload.op.apply(out.data[y], &vals);
        if !advance(&mut idx, bounds, &coefs, &mut offsets) {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn gemm_reference_matches_manual() {
        let g = kernels::gemm(3, 2, 4);
        let x = TensorData::from_fn(&[3, 4], |i| (i as i64 * 7 + 3) % 11 - 5);
        let w = TensorData::from_fn(&[4, 2], |i| (i as i64 * 5 + 1) % 9 - 4);
        let y = reference_execute(&g, &[&x, &w]);
        for i in 0..3 {
            for j in 0..2 {
                let expect: i64 = (0..4).map(|k| x.get(&[i, k]) * w.get(&[k, j])).sum();
                assert_eq!(y.get(&[i, j]), expect);
            }
        }
    }

    #[test]
    fn conv_reference_matches_manual() {
        let c = kernels::conv2d(1, 2, 2, 3, 3, 2, 2, 1);
        let x = TensorData::from_fn(&[1, 2, 4, 4], |i| (i as i64 % 5) - 2);
        let w = TensorData::from_fn(&[2, 2, 2, 2], |i| (i as i64 % 3) - 1);
        let y = reference_execute(&c, &[&x, &w]);
        for oc in 0..2 {
            for oh in 0..3 {
                for ow in 0..3 {
                    let mut expect = 0i64;
                    for ic in 0..2 {
                        for kh in 0..2 {
                            for kw in 0..2 {
                                expect +=
                                    x.get(&[0, ic, oh + kh, ow + kw]) * w.get(&[oc, ic, kh, kw]);
                            }
                        }
                    }
                    assert_eq!(y.get(&[0, oc, oh, ow]), expect);
                }
            }
        }
    }

    #[test]
    fn mttkrp_reference_matches_manual() {
        let m = kernels::mttkrp(2, 3, 2, 2);
        let a = TensorData::from_fn(&[2, 2, 2], |i| i as i64 - 3);
        let b = TensorData::from_fn(&[2, 3], |i| 2 * i as i64 - 5);
        let c = TensorData::from_fn(&[2, 3], |i| i as i64 % 4);
        let y = reference_execute(&m, &[&a, &b, &c]);
        for i in 0..2 {
            for j in 0..3 {
                let mut expect = 0i64;
                for k in 0..2 {
                    for l in 0..2 {
                        expect += a.get(&[i, k, l]) * b.get(&[k, j]) * c.get(&[l, j]);
                    }
                }
                assert_eq!(y.get(&[i, j]), expect);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_input_shape_panics() {
        let g = kernels::gemm(2, 2, 2);
        let x = TensorData::zeros(&[3, 3]);
        let w = TensorData::zeros(&[2, 2]);
        reference_execute(&g, &[&x, &w]);
    }

    #[test]
    fn offsets_are_row_major() {
        let t = TensorData::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
    }
}
