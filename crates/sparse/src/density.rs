//! Statistical density models for tensor values.
//!
//! A density model answers one question — what fraction of a tensor's
//! elements is nonzero, and with what structure — without storing any
//! actual values. The cost stack only needs expectations: expected nonzero
//! MAC counts, expected compressed footprints, expected skipped fetches.
//!
//! Densities are stored **exactly** (parts-per-thousand or an N:M ratio)
//! rather than as `f64` so the annotations stay `Hash`/`Eq`: layers carry
//! them, and the explorer's memoized evaluation cache fingerprints layers
//! by value.

/// Statistical density of one tensor's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DensityModel {
    /// Every element is (treated as) nonzero — the dense baseline.
    #[default]
    Dense,
    /// Independent Bernoulli nonzeros at `permille`/1000 density — the
    /// unstructured-pruning and masked-attention model.
    Uniform {
        /// Nonzero probability in exact parts-per-thousand (0..=1000).
        permille: u16,
    },
    /// N:M structured sparsity: exactly `n` nonzeros in every group of `m`
    /// consecutive elements (2:4 is the sparse-tensor-core flavor). The
    /// fixed group structure keeps skipping hardware load-balanced.
    StructuredNM {
        /// Nonzeros per group.
        n: u8,
        /// Group size (`n <= m`, `m > 0`).
        m: u8,
    },
}

impl DensityModel {
    /// Uniform density from a fraction in `[0, 1]`, rounded to the nearest
    /// permille. A fraction that rounds to 1000 ‰ collapses to
    /// [`DensityModel::Dense`] so "fully dense" has one canonical encoding.
    ///
    /// # Panics
    ///
    /// Panics if `density` is not a finite value in `[0, 1]`.
    pub fn uniform(density: f64) -> Self {
        assert!(
            density.is_finite() && (0.0..=1.0).contains(&density),
            "density must be in [0, 1], got {density}"
        );
        let permille = (density * 1000.0).round() as u16;
        if permille >= 1000 {
            DensityModel::Dense
        } else {
            DensityModel::Uniform { permille }
        }
    }

    /// 2:4 structured sparsity (50 % density), the Ampere-class format.
    pub fn two_to_four() -> Self {
        DensityModel::StructuredNM { n: 2, m: 4 }
    }

    /// Expected fraction of nonzero elements, always in `[0, 1]`.
    pub fn density(&self) -> f64 {
        match *self {
            DensityModel::Dense => 1.0,
            DensityModel::Uniform { permille } => f64::from(permille.min(1000)) / 1000.0,
            DensityModel::StructuredNM { n, m } => {
                let m = m.max(1);
                f64::from(n.min(m)) / f64::from(m)
            }
        }
    }

    /// Whether the model carries no exploitable zeros.
    pub fn is_dense(&self) -> bool {
        self.density() >= 1.0
    }

    /// Whether the nonzero positions follow a fixed N:M group structure
    /// (deterministically schedulable, so skipping pays no load-imbalance
    /// penalty).
    pub fn is_structured(&self) -> bool {
        matches!(self, DensityModel::StructuredNM { .. })
    }

    /// Expected nonzero count among `elems` elements (ceiling, so a
    /// non-empty tensor never rounds to zero nonzeros).
    pub fn nnz(&self, elems: i64) -> i64 {
        if elems <= 0 {
            return 0;
        }
        (elems as f64 * self.density()).ceil() as i64
    }
}

impl std::fmt::Display for DensityModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DensityModel::Dense => write!(f, "dense"),
            DensityModel::Uniform { permille } => {
                write!(f, "d{:.1}%", f64::from(permille) / 10.0)
            }
            DensityModel::StructuredNM { n, m } => write!(f, "{n}:{m}"),
        }
    }
}

/// Per-tensor density annotations of one layer: weights, input
/// activations, and outputs (the output model covers masked attention,
/// where score positions are dropped before they are ever computed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LayerSparsity {
    /// Weight (stationary operand) density.
    pub weights: DensityModel,
    /// Input-activation (streaming operand) density.
    pub inputs: DensityModel,
    /// Output density — positions that are masked away entirely (causal
    /// attention) rather than merely quantizing to zero.
    pub outputs: DensityModel,
}

impl LayerSparsity {
    /// The fully dense annotation (the default on every layer).
    pub fn dense() -> Self {
        LayerSparsity::default()
    }

    /// Annotation with only the weight tensor sparse.
    pub fn weights(model: DensityModel) -> Self {
        LayerSparsity {
            weights: model,
            ..Default::default()
        }
    }

    /// Replaces the input-activation density.
    #[must_use]
    pub fn with_inputs(mut self, model: DensityModel) -> Self {
        self.inputs = model;
        self
    }

    /// Replaces the output density.
    #[must_use]
    pub fn with_outputs(mut self, model: DensityModel) -> Self {
        self.outputs = model;
        self
    }

    /// Whether every tensor is dense (nothing for sparse hardware to
    /// exploit — the cost stack prices it as `SparseEffects::DENSE`).
    pub fn is_dense(&self) -> bool {
        self.weights.is_dense() && self.inputs.is_dense() && self.outputs.is_dense()
    }

    /// Expected fraction of MACs with both operands nonzero **and** an
    /// unmasked output — the independence product of the three densities.
    /// Always in `(0, 1]`.
    pub fn mac_density(&self) -> f64 {
        (self.weights.density() * self.inputs.density() * self.outputs.density()).clamp(0.0, 1.0)
    }

    /// Whether every non-dense tensor follows a fixed N:M structure, so a
    /// skipping frontend can schedule work without load imbalance.
    pub fn is_structured(&self) -> bool {
        [self.weights, self.inputs, self.outputs]
            .iter()
            .all(|d| d.is_dense() || d.is_structured())
    }
}

impl std::fmt::Display for LayerSparsity {
    /// Only the non-dense tensors, e.g. `w=2:4` or `w=d10.0%+o=d50.2%`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_dense() {
            return write!(f, "dense");
        }
        let mut first = true;
        for (tag, d) in [("w", self.weights), ("i", self.inputs), ("o", self.outputs)] {
            if !d.is_dense() {
                if !first {
                    write!(f, "+")?;
                }
                write!(f, "{tag}={d}")?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn densities_are_exact_and_bounded() {
        assert_eq!(DensityModel::Dense.density(), 1.0);
        assert_eq!(
            DensityModel::uniform(0.1),
            DensityModel::Uniform { permille: 100 }
        );
        assert_eq!(DensityModel::uniform(1.0), DensityModel::Dense);
        assert_eq!(DensityModel::two_to_four().density(), 0.5);
        for d in [
            DensityModel::Dense,
            DensityModel::uniform(0.0),
            DensityModel::uniform(0.37),
            DensityModel::StructuredNM { n: 1, m: 16 },
        ] {
            assert!((0.0..=1.0).contains(&d.density()), "{d:?}");
        }
    }

    #[test]
    fn nnz_rounds_up_and_handles_edges() {
        assert_eq!(DensityModel::two_to_four().nnz(100), 50);
        assert_eq!(DensityModel::uniform(0.001).nnz(100), 1);
        assert_eq!(DensityModel::Dense.nnz(7), 7);
        assert_eq!(DensityModel::uniform(0.5).nnz(0), 0);
    }

    #[test]
    fn layer_sparsity_products_and_structure() {
        let s = LayerSparsity::weights(DensityModel::two_to_four());
        assert!(!s.is_dense());
        assert!(s.is_structured());
        assert!((s.mac_density() - 0.5).abs() < 1e-12);
        let u = s.with_inputs(DensityModel::uniform(0.5));
        assert!(!u.is_structured());
        assert!((u.mac_density() - 0.25).abs() < 1e-12);
        assert!(LayerSparsity::dense().is_dense());
        assert_eq!(LayerSparsity::dense().mac_density(), 1.0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(DensityModel::two_to_four().to_string(), "2:4");
        assert_eq!(DensityModel::uniform(0.1).to_string(), "d10.0%");
        assert_eq!(LayerSparsity::dense().to_string(), "dense");
        let s = LayerSparsity::weights(DensityModel::two_to_four())
            .with_outputs(DensityModel::uniform(0.502));
        assert_eq!(s.to_string(), "w=2:4+o=d50.2%");
    }
}
