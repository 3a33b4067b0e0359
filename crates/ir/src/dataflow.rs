//! Dataflow mappings: tiling, reordering, parallelization (paper §III-B).

use crate::workload::{IrError, TensorAccess, Workload};
use lego_linalg::{dot, AffineMap, IMat};

/// A dataflow mapping `i = [M_{T→I} M_{S→I}]·[t; s]` plus the control flow
/// vector `c` (paper Definitions 2 and §III-C).
///
/// `t` is the for-loop state index (lexicographic order = execution order,
/// first entry outermost); `s` is the FU coordinate in the spatial array.
///
/// # Examples
///
/// ```
/// use lego_ir::{kernels, DataflowBuilder};
///
/// // The TPU-style systolic GEMM of paper Figure 3: parallel k and j.
/// let gemm = kernels::gemm(8, 4, 4);
/// let df = DataflowBuilder::new(&gemm)
///     .par("k", 2)
///     .par("j", 2)
///     .seq("i", 2)        // t1_i
///     .seq("j", 2)        // t0_j
///     .seq("k", 2)        // t0_k
///     .seq("i", 4)        // t0_i
///     .control(vec![1, 1])
///     .build("gemm-kj-systolic")
///     .unwrap();
/// assert_eq!(df.num_fus(), 4);
/// assert_eq!(df.t_bias(&[1, 1]), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataflow {
    /// Name, e.g. `"GEMM-IJ"`.
    pub name: String,
    /// For-loop sizes `R_T`, outermost first.
    pub temporal_sizes: Vec<i64>,
    /// Parfor-loop sizes `R_S` — the FU array dimensions.
    pub spatial_sizes: Vec<i64>,
    /// `M_{T→I}`: iteration-domain rank × number of temporal loops.
    pub m_t: IMat,
    /// `M_{S→I}`: iteration-domain rank × number of spatial axes.
    pub m_s: IMat,
    /// Control flow vector `c`, one entry per spatial axis.
    pub control: Vec<i64>,
}

impl Dataflow {
    /// Number of functional units in the array.
    pub fn num_fus(&self) -> i64 {
        self.spatial_sizes.iter().product()
    }

    /// Number of temporal steps (product of for-loop sizes).
    pub fn total_steps(&self) -> i64 {
        self.temporal_sizes.iter().product()
    }

    /// Number of spatial axes.
    pub fn spatial_rank(&self) -> usize {
        self.spatial_sizes.len()
    }

    /// Evaluates `i = M_T·t + M_S·s`.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn iter_index(&self, t: &[i64], s: &[i64]) -> Vec<i64> {
        let mut i = self.m_t.mul_vec(t);
        for (acc, v) in i.iter_mut().zip(self.m_s.mul_vec(s)) {
            *acc += v;
        }
        i
    }

    /// Timestamp bias `t_bias = sᵀ·c` of the FU at coordinate `s`
    /// (paper Equation 4).
    pub fn t_bias(&self, s: &[i64]) -> i64 {
        dot(s, &self.control)
    }

    /// Enumerates all FU coordinates in row-major order.
    ///
    /// Allocates the whole table (one `Vec` per FU): call it once per
    /// dataflow and borrow the result, not once per lookup.
    pub fn fu_coords(&self) -> Vec<Vec<i64>> {
        let mut coords = vec![vec![]];
        for &p in &self.spatial_sizes {
            let mut next = Vec::with_capacity(coords.len() * p as usize);
            for c in &coords {
                for v in 0..p {
                    let mut c2 = c.clone();
                    c2.push(v);
                    next.push(c2);
                }
            }
            coords = next;
        }
        coords
    }

    /// Linearizes an FU coordinate to a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `s` has the wrong rank.
    pub fn fu_index(&self, s: &[i64]) -> usize {
        lego_linalg::linearize(s, &self.spatial_sizes) as usize
    }

    /// The composed relation `f_{TS→D} = f_{I→D} ∘ f_{TS→I}` for one tensor
    /// access, as an affine map over the stacked `[t; s]` vector.
    pub fn composed_map(&self, access: &TensorAccess) -> AffineMap {
        let m_ts = self.m_t.hstack(&self.m_s);
        access.map.compose(&AffineMap::linear(m_ts))
    }

    /// `M_{I→D}·M_{S→I}` — how spatial displacement moves the tensor index.
    pub fn m_sd(&self, access: &TensorAccess) -> IMat {
        access.map.matrix() * &self.m_s
    }

    /// `M_{I→D}·M_{T→I}` — how temporal displacement moves the tensor index.
    pub fn m_td(&self, access: &TensorAccess) -> IMat {
        access.map.matrix() * &self.m_t
    }

    /// Exhaustively verifies that the mapping is a bijection onto the
    /// workload's iteration domain. Intended for tests and small domains.
    pub fn verify_bijective(&self, workload: &Workload) -> bool {
        let total = workload.domain_size();
        if self.total_steps() * self.num_fus() != total {
            return false;
        }
        let mut seen = std::collections::HashSet::new();
        let coords = self.fu_coords();
        for step in 0..self.total_steps() {
            let t = lego_linalg::delinearize(step, &self.temporal_sizes);
            for s in &coords {
                let i = self.iter_index(&t, s);
                if i.iter()
                    .zip(&workload.bounds)
                    .any(|(v, b)| *v < 0 || v >= b)
                {
                    return false;
                }
                if !seen.insert(i) {
                    return false;
                }
            }
        }
        seen.len() as i64 == total
    }
}

#[derive(Debug, Clone, Copy)]
enum Place {
    Temporal,
    Spatial,
}

/// Builder assembling a [`Dataflow`] from tiling factors.
///
/// Temporal factors are declared outermost-first with [`seq`](Self::seq);
/// spatial axes with [`par`](Self::par). Within one iteration dimension the
/// spatial factor is innermost (parfor loops are the innermost loops, as in
/// the paper's examples), and temporal factors nest in declaration order.
/// [`build`](Self::build) auto-inserts an outer temporal loop for any
/// dimension whose declared factors do not reach its bound.
#[derive(Debug, Clone)]
pub struct DataflowBuilder<'w> {
    workload: &'w Workload,
    factors: Vec<(usize, i64, Place)>,
    control: Option<Vec<i64>>,
}

impl<'w> DataflowBuilder<'w> {
    /// Starts a builder for the given workload.
    pub fn new(workload: &'w Workload) -> Self {
        DataflowBuilder {
            workload,
            factors: Vec::new(),
            control: None,
        }
    }

    /// Adds a spatial (parfor) axis of the given size on a dimension.
    #[must_use]
    pub fn par(mut self, dim: &str, size: i64) -> Self {
        let d = self.workload.dim_index(dim).unwrap_or(usize::MAX);
        self.factors.push((d, size, Place::Spatial));
        self
    }

    /// Adds a temporal (for) loop of the given size; call order is
    /// outermost-first.
    #[must_use]
    pub fn seq(mut self, dim: &str, size: i64) -> Self {
        let d = self.workload.dim_index(dim).unwrap_or(usize::MAX);
        self.factors.push((d, size, Place::Temporal));
        self
    }

    /// Sets the control flow vector (one entry per spatial axis, in `par`
    /// declaration order). Defaults to all zeros (broadcast).
    #[must_use]
    pub fn control(mut self, c: Vec<i64>) -> Self {
        self.control = Some(c);
        self
    }

    /// Builds and validates the dataflow.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownDim`] for a bad dimension name,
    /// [`IrError::FactorMismatch`] if a dimension's factors do not divide
    /// its bound, and [`IrError::ControlArity`] for a mis-sized control
    /// vector.
    pub fn build(self, name: impl Into<String>) -> Result<Dataflow, IrError> {
        let rank = self.workload.rank();
        for &(d, _, _) in &self.factors {
            if d >= rank {
                return Err(IrError::UnknownDim("<unknown>".into()));
            }
        }

        // Auto-complete: any dimension whose declared factors fall short of
        // its bound gets one outer temporal loop with the remainder.
        let mut declared = vec![1i64; rank];
        for &(d, size, _) in &self.factors {
            declared[d] *= size;
        }
        let mut factors = Vec::new();
        for (d, &product) in declared.iter().enumerate() {
            let bound = self.workload.bounds[d];
            if product == 0 || bound % product != 0 {
                return Err(IrError::FactorMismatch {
                    dim: self.workload.dims[d].clone(),
                    product,
                    bound,
                });
            }
            let rem = bound / product;
            if rem > 1 {
                factors.push((d, rem, Place::Temporal));
            }
        }
        factors.extend(self.factors.iter().copied());

        // Per-dimension factor ordering for stride computation: temporal
        // factors in declaration order, then spatial factors (innermost).
        let mut strides = vec![0i64; factors.len()];
        for d in 0..rank {
            let temporal: Vec<usize> = factors
                .iter()
                .enumerate()
                .filter(|(_, &(fd, _, p))| fd == d && matches!(p, Place::Temporal))
                .map(|(idx, _)| idx)
                .collect();
            let spatial: Vec<usize> = factors
                .iter()
                .enumerate()
                .filter(|(_, &(fd, _, p))| fd == d && matches!(p, Place::Spatial))
                .map(|(idx, _)| idx)
                .collect();
            let chain: Vec<usize> = temporal.into_iter().chain(spatial).collect();
            let mut stride = 1i64;
            for &idx in chain.iter().rev() {
                strides[idx] = stride;
                stride *= factors[idx].1;
            }
        }

        let temporal: Vec<usize> = factors
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, p))| matches!(p, Place::Temporal))
            .map(|(idx, _)| idx)
            .collect();
        let spatial: Vec<usize> = factors
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, p))| matches!(p, Place::Spatial))
            .map(|(idx, _)| idx)
            .collect();

        let mut m_t = IMat::zeros(rank, temporal.len());
        for (col, &idx) in temporal.iter().enumerate() {
            m_t[(factors[idx].0, col)] = strides[idx];
        }
        let mut m_s = IMat::zeros(rank, spatial.len());
        for (col, &idx) in spatial.iter().enumerate() {
            m_s[(factors[idx].0, col)] = strides[idx];
        }

        let control = self.control.unwrap_or_else(|| vec![0; spatial.len()]);
        if control.len() != spatial.len() {
            return Err(IrError::ControlArity {
                got: control.len(),
                expected: spatial.len(),
            });
        }

        Ok(Dataflow {
            name: name.into(),
            temporal_sizes: temporal.iter().map(|&i| factors[i].1).collect(),
            spatial_sizes: spatial.iter().map(|&i| factors[i].1).collect(),
            m_t,
            m_s,
            control,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn figure3_gemm_matrices() {
        // Paper Figure 3: R_T = [R1_i, R0_j, R0_k, R0_i], R_S = [P_k, P_j].
        let gemm = kernels::gemm(8, 4, 6);
        let df = DataflowBuilder::new(&gemm)
            .par("k", 2)
            .par("j", 2)
            .seq("i", 2)
            .seq("j", 2)
            .seq("k", 3)
            .seq("i", 4)
            .control(vec![1, 1])
            .build("gemm-tpu")
            .unwrap();
        assert_eq!(df.temporal_sizes, vec![2, 2, 3, 4]);
        assert_eq!(df.spatial_sizes, vec![2, 2]);
        // i = t1_i·R0_i + t0_i = 4·t1_i + t0_i
        assert_eq!(df.m_t.row(0), &[4, 0, 0, 1]);
        // j = t0_j·P_j + s_j
        assert_eq!(df.m_t.row(1), &[0, 2, 0, 0]);
        assert_eq!(df.m_s.row(1), &[0, 1]);
        // k = t0_k·P_k + s_k
        assert_eq!(df.m_t.row(2), &[0, 0, 2, 0]);
        assert_eq!(df.m_s.row(2), &[1, 0]);
        assert!(df.verify_bijective(&gemm));
    }

    #[test]
    fn auto_completion_adds_outer_loops() {
        let gemm = kernels::gemm(8, 4, 6);
        let df = DataflowBuilder::new(&gemm)
            .par("i", 2)
            .par("j", 2)
            .build("gemm-ij")
            .unwrap();
        // i: 8/2=4 outer, j: 4/2=2 outer, k: 6 outer.
        assert_eq!(df.temporal_sizes, vec![4, 2, 6]);
        assert!(df.verify_bijective(&gemm));
    }

    #[test]
    fn factor_mismatch_rejected() {
        let gemm = kernels::gemm(8, 4, 6);
        let err = DataflowBuilder::new(&gemm)
            .par("i", 3) // 3 does not divide 8
            .build("bad")
            .unwrap_err();
        assert!(matches!(err, IrError::FactorMismatch { .. }));
    }

    #[test]
    fn unknown_dim_rejected() {
        let gemm = kernels::gemm(8, 4, 6);
        let err = DataflowBuilder::new(&gemm)
            .par("zz", 2)
            .build("bad")
            .unwrap_err();
        assert!(matches!(err, IrError::UnknownDim(_)));
    }

    #[test]
    fn control_arity_checked() {
        let gemm = kernels::gemm(8, 4, 6);
        let err = DataflowBuilder::new(&gemm)
            .par("i", 2)
            .control(vec![1, 1])
            .build("bad")
            .unwrap_err();
        assert!(matches!(err, IrError::ControlArity { .. }));
    }

    #[test]
    fn t_bias_matches_equation4() {
        let gemm = kernels::gemm(4, 4, 4);
        let df = DataflowBuilder::new(&gemm)
            .par("k", 2)
            .par("j", 2)
            .control(vec![1, 1])
            .build("sys")
            .unwrap();
        assert_eq!(df.t_bias(&[0, 0]), 0);
        assert_eq!(df.t_bias(&[1, 0]), 1);
        assert_eq!(df.t_bias(&[1, 1]), 2);
    }

    #[test]
    fn conv_figure4_layout() {
        // ShiDianNao-style: spatial [ow, oh], broadcast control.
        let conv = kernels::conv2d(1, 2, 2, 4, 4, 3, 3, 1);
        let df = DataflowBuilder::new(&conv)
            .par("ow", 2)
            .par("oh", 2)
            .build("conv-ohow")
            .unwrap();
        assert_eq!(df.control, vec![0, 0]);
        assert!(df.verify_bijective(&conv));
        // X moves by ±1 in ih when s moves along oh.
        let x = conv.access("X").unwrap();
        let m_sd = df.m_sd(x);
        // Rows of X: [n, ic, ih, iw]; columns: [s_ow, s_oh].
        assert_eq!(m_sd[(2, 1)], 1); // ih tracks oh
        assert_eq!(m_sd[(3, 0)], 1); // iw tracks ow
    }

    #[test]
    fn multi_level_spatial_same_dim() {
        // Both spatial axes taken from the same dimension.
        let gemm = kernels::gemm(8, 2, 2);
        let df = DataflowBuilder::new(&gemm)
            .par("i", 2)
            .par("i", 4)
            .build("gemm-ii")
            .unwrap();
        assert_eq!(df.spatial_sizes, vec![2, 4]);
        assert!(df.verify_bijective(&gemm));
        // i = 4·s0 + s1 (first axis is outer).
        assert_eq!(df.m_s.row(0), &[4, 1]);
    }

    #[test]
    fn composed_map_evaluates_tensor_index() {
        let gemm = kernels::gemm(4, 4, 4);
        let df = DataflowBuilder::new(&gemm)
            .par("j", 2)
            .par("k", 2)
            .build("f")
            .unwrap();
        let y = gemm.access("Y").unwrap();
        let f = df.composed_map(y);
        // [t...; s_j, s_k]: check a couple of points against the definition.
        let t = vec![1, 1, 1];
        let s = vec![1, 0];
        let i = df.iter_index(&t, &s);
        let expect = y.map.apply(&i);
        let ts: Vec<i64> = t.iter().chain(&s).copied().collect();
        assert_eq!(f.apply(&ts), expect);
    }
}
