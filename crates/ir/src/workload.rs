//! Workload representation: the hardware-agnostic data mappings.

use lego_linalg::AffineMap;
use lego_sparse::DensityModel;

/// Errors raised while building or validating IR objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A workload must have exactly one output access.
    OutputCount(usize),
    /// A data mapping's input arity does not match the iteration domain.
    MapArity {
        /// Offending tensor name.
        tensor: String,
        /// The map's input dimensionality.
        got: usize,
        /// The iteration-domain dimensionality.
        expected: usize,
    },
    /// Iteration bounds must be positive.
    NonPositiveBound(String),
    /// Duplicate tensor or dimension name.
    DuplicateName(String),
    /// The operator arity does not match the number of input tensors.
    OpArity {
        /// Operator's required input count.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// A dataflow factor references an unknown dimension name.
    UnknownDim(String),
    /// The factor sizes of a dimension do not multiply to its bound.
    FactorMismatch {
        /// Dimension name.
        dim: String,
        /// Product of declared factors.
        product: i64,
        /// Required bound.
        bound: i64,
    },
    /// Control vector length must equal the number of spatial axes.
    ControlArity {
        /// Provided length.
        got: usize,
        /// Number of spatial axes.
        expected: usize,
    },
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::OutputCount(n) => write!(f, "workload needs exactly one output, found {n}"),
            IrError::MapArity {
                tensor,
                got,
                expected,
            } => write!(
                f,
                "tensor `{tensor}` map takes {got} dims, iteration domain has {expected}"
            ),
            IrError::NonPositiveBound(d) => write!(f, "dimension `{d}` has non-positive bound"),
            IrError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            IrError::OpArity { expected, got } => {
                write!(
                    f,
                    "operator takes {expected} inputs, workload provides {got}"
                )
            }
            IrError::UnknownDim(d) => write!(f, "unknown iteration dimension `{d}`"),
            IrError::FactorMismatch {
                dim,
                product,
                bound,
            } => write!(
                f,
                "factors of `{dim}` multiply to {product}, bound is {bound}"
            ),
            IrError::ControlArity { got, expected } => {
                write!(f, "control vector has {got} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for IrError {}

/// Whether a tensor is read or accumulated by the loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorRole {
    /// Read-only operand.
    Input,
    /// Read-modify-write accumulator (the workload's result).
    Output,
}

/// The computation in the loop body, executed by each functional unit.
///
/// The paper's FUs are user-definable (§II); these variants cover every
/// kernel in the evaluation. The arity is the number of *input* operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuOp {
    /// `Y += A · B` — GEMM, Conv2D, attention.
    MulAcc,
    /// `Y += A · B · C` — MTTKRP's three-operand product.
    TripleMulAcc,
    /// `Y += (A · B) << C` — BitFusion-style mixed-precision MAC.
    MulShiftAcc,
    /// `Y = max(Y, A)` — pooling-style reduction.
    MaxAcc,
}

impl FuOp {
    /// Number of input operands the operator consumes.
    pub fn arity(self) -> usize {
        match self {
            FuOp::MulAcc => 2,
            FuOp::TripleMulAcc | FuOp::MulShiftAcc => 3,
            FuOp::MaxAcc => 1,
        }
    }

    /// Evaluates one loop-body step on integer data.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn apply(self, acc: i64, inputs: &[i64]) -> i64 {
        assert_eq!(inputs.len(), self.arity(), "operator arity mismatch");
        match self {
            FuOp::MulAcc => acc + inputs[0] * inputs[1],
            FuOp::TripleMulAcc => acc + inputs[0] * inputs[1] * inputs[2],
            FuOp::MulShiftAcc => acc + ((inputs[0] * inputs[1]) << inputs[2].clamp(0, 32)),
            FuOp::MaxAcc => acc.max(inputs[0]),
        }
    }
}

/// One tensor operand with its affine data mapping `d = M_{I→D}·i + b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorAccess {
    /// Tensor name (unique within the workload).
    pub tensor: String,
    /// Read or accumulate.
    pub role: TensorRole,
    /// Affine map from the iteration domain to this tensor's index space.
    pub map: AffineMap,
    /// Statistical value density of this tensor (dense unless annotated).
    /// Hardware generation and the cost stack may exploit it; the
    /// functional reference executor ignores it — density describes the
    /// data, not the computation.
    pub density: DensityModel,
}

/// A tensor workload: iteration domain, data mappings, and loop body.
///
/// # Examples
///
/// ```
/// let gemm = lego_ir::kernels::gemm(16, 16, 16);
/// assert_eq!(gemm.rank(), 3);
/// assert_eq!(gemm.inputs().count(), 2);
/// assert_eq!(gemm.total_ops(), 2 * 16 * 16 * 16); // MACs count as 2 ops
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Human-readable kernel name.
    pub name: String,
    /// Names of the computation iteration dimensions (`⃗i`).
    pub dims: Vec<String>,
    /// Full iteration bound of each dimension.
    pub bounds: Vec<i64>,
    /// All tensor accesses (inputs plus exactly one output).
    pub accesses: Vec<TensorAccess>,
    /// The loop-body operator.
    pub op: FuOp,
}

impl Workload {
    /// Constructs and validates a workload.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] describing the first structural problem found
    /// (wrong output count, arity mismatches, non-positive bounds, duplicate
    /// names).
    pub fn new(
        name: impl Into<String>,
        dims: Vec<(&str, i64)>,
        accesses: Vec<TensorAccess>,
        op: FuOp,
    ) -> Result<Self, IrError> {
        let w = Workload {
            name: name.into(),
            dims: dims.iter().map(|(d, _)| d.to_string()).collect(),
            bounds: dims.iter().map(|&(_, b)| b).collect(),
            accesses,
            op,
        };
        w.validate()?;
        Ok(w)
    }

    fn validate(&self) -> Result<(), IrError> {
        let outputs = self
            .accesses
            .iter()
            .filter(|a| a.role == TensorRole::Output)
            .count();
        if outputs != 1 {
            return Err(IrError::OutputCount(outputs));
        }
        let inputs = self.accesses.len() - 1;
        if inputs != self.op.arity() {
            return Err(IrError::OpArity {
                expected: self.op.arity(),
                got: inputs,
            });
        }
        let rank = self.dims.len();
        for a in &self.accesses {
            if a.map.in_dim() != rank {
                return Err(IrError::MapArity {
                    tensor: a.tensor.clone(),
                    got: a.map.in_dim(),
                    expected: rank,
                });
            }
        }
        for (d, &b) in self.dims.iter().zip(&self.bounds) {
            if b <= 0 {
                return Err(IrError::NonPositiveBound(d.clone()));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for d in &self.dims {
            if !seen.insert(d.as_str()) {
                return Err(IrError::DuplicateName(d.clone()));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for a in &self.accesses {
            if !seen.insert(a.tensor.as_str()) {
                return Err(IrError::DuplicateName(a.tensor.clone()));
            }
        }
        Ok(())
    }

    /// Dimensionality of the computation iteration domain.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Index of the named dimension.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d == name)
    }

    /// The single output access.
    pub fn output(&self) -> &TensorAccess {
        self.accesses
            .iter()
            .find(|a| a.role == TensorRole::Output)
            .expect("validated workload has an output")
    }

    /// Iterates over the input accesses in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = &TensorAccess> {
        self.accesses.iter().filter(|a| a.role == TensorRole::Input)
    }

    /// Looks up an access by tensor name.
    pub fn access(&self, tensor: &str) -> Option<&TensorAccess> {
        self.accesses.iter().find(|a| a.tensor == tensor)
    }

    /// Annotates the named tensor with a statistical value density. A name
    /// that matches no access is ignored (annotations are advisory).
    #[must_use]
    pub fn with_tensor_density(mut self, tensor: &str, density: DensityModel) -> Self {
        if let Some(a) = self.accesses.iter_mut().find(|a| a.tensor == tensor) {
            a.density = density;
        }
        self
    }

    /// The annotated density of the named tensor (dense for unknown names).
    pub fn tensor_density(&self, tensor: &str) -> DensityModel {
        self.access(tensor)
            .map_or(DensityModel::Dense, |a| a.density)
    }

    /// Total number of points in the iteration domain.
    pub fn domain_size(&self) -> i64 {
        self.bounds.iter().product()
    }

    /// Total arithmetic operations (each multiply-accumulate counts as 2).
    pub fn total_ops(&self) -> i64 {
        let per_point = match self.op {
            FuOp::MulAcc => 2,
            FuOp::TripleMulAcc => 3,
            FuOp::MulShiftAcc => 3,
            FuOp::MaxAcc => 1,
        };
        per_point * self.domain_size()
    }

    /// Shape of the named tensor: one more than the maximum index reached
    /// over the iteration domain in each tensor dimension.
    ///
    /// Affine maps attain their extrema at box corners, so only the `2^rank`
    /// corners are evaluated.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not exist in this workload.
    pub fn tensor_shape(&self, tensor: &str) -> Vec<i64> {
        let access = self
            .access(tensor)
            .unwrap_or_else(|| panic!("unknown tensor `{tensor}`"));
        let rank = self.rank();
        let nd = access.map.out_dim();
        let mut max = vec![0i64; nd];
        for corner in 0..(1usize << rank) {
            let point: Vec<i64> = (0..rank)
                .map(|d| {
                    if corner >> d & 1 == 1 {
                        self.bounds[d] - 1
                    } else {
                        0
                    }
                })
                .collect();
            let idx = access.map.apply(&point);
            for (m, v) in max.iter_mut().zip(&idx) {
                *m = (*m).max(*v);
            }
        }
        max.iter().map(|&m| m + 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use lego_linalg::IMat;

    #[test]
    fn gemm_shapes() {
        let g = kernels::gemm(4, 5, 6);
        assert_eq!(g.tensor_shape("Y"), vec![4, 5]);
        assert_eq!(g.tensor_shape("X"), vec![4, 6]);
        assert_eq!(g.tensor_shape("W"), vec![6, 5]);
    }

    #[test]
    fn conv_shapes_with_stride() {
        // 2D conv: oh=3, ow=3, kh=kw=3, stride 2 → ih = 2*2 + 2 = 7.
        let c = kernels::conv2d(1, 2, 4, 3, 3, 3, 3, 2);
        assert_eq!(c.tensor_shape("X"), vec![1, 2, 7, 7]);
        assert_eq!(c.tensor_shape("W"), vec![4, 2, 3, 3]);
        assert_eq!(c.tensor_shape("Y"), vec![1, 4, 3, 3]);
    }

    #[test]
    fn validation_rejects_bad_workloads() {
        // No output.
        let err = Workload::new(
            "bad",
            vec![("i", 2)],
            vec![TensorAccess {
                tensor: "X".into(),
                role: TensorRole::Input,
                map: AffineMap::identity(1),
                density: DensityModel::Dense,
            }],
            FuOp::MaxAcc,
        )
        .unwrap_err();
        assert_eq!(err, IrError::OutputCount(0));

        // Wrong arity map.
        let err = Workload::new(
            "bad",
            vec![("i", 2)],
            vec![
                TensorAccess {
                    tensor: "Y".into(),
                    role: TensorRole::Output,
                    map: AffineMap::identity(2),
                    density: DensityModel::Dense,
                },
                TensorAccess {
                    tensor: "X".into(),
                    role: TensorRole::Input,
                    map: AffineMap::identity(1),
                    density: DensityModel::Dense,
                },
            ],
            FuOp::MaxAcc,
        )
        .unwrap_err();
        assert!(matches!(err, IrError::MapArity { .. }));

        // Bad bound.
        let err = Workload::new(
            "bad",
            vec![("i", 0)],
            vec![
                TensorAccess {
                    tensor: "Y".into(),
                    role: TensorRole::Output,
                    map: AffineMap::identity(1),
                    density: DensityModel::Dense,
                },
                TensorAccess {
                    tensor: "X".into(),
                    role: TensorRole::Input,
                    map: AffineMap::identity(1),
                    density: DensityModel::Dense,
                },
            ],
            FuOp::MaxAcc,
        )
        .unwrap_err();
        assert_eq!(err, IrError::NonPositiveBound("i".into()));
    }

    #[test]
    fn op_semantics() {
        assert_eq!(FuOp::MulAcc.apply(10, &[3, 4]), 22);
        assert_eq!(FuOp::TripleMulAcc.apply(1, &[2, 3, 4]), 25);
        assert_eq!(FuOp::MulShiftAcc.apply(0, &[3, 2, 1]), 12);
        assert_eq!(FuOp::MaxAcc.apply(5, &[9]), 9);
        assert_eq!(FuOp::MaxAcc.apply(5, &[3]), 5);
    }

    #[test]
    fn total_ops_counts_macs_twice() {
        let g = kernels::gemm(2, 2, 2);
        assert_eq!(g.total_ops(), 16);
    }

    #[test]
    fn dim_lookup() {
        let g = kernels::gemm(2, 2, 2);
        assert_eq!(g.dim_index("k"), Some(2));
        assert_eq!(g.dim_index("zz"), None);
        let m = g.access("W").unwrap().map.matrix();
        assert_eq!(m, &IMat::from_rows(&[vec![0, 0, 1], vec![0, 1, 0]]));
    }
}
