//! Neural-network model zoo (paper §VI-A).
//!
//! Layer-shape descriptors for every model the paper evaluates: AlexNet,
//! MobileNetV2, ResNet50, EfficientNetV2, BERT, GPT-2, CoAtNet, LeNet, and
//! the generative models DDPM, Stable Diffusion, and LLaMA-7B. Only shapes
//! and operation counts matter to the performance/energy evaluation;
//! non-tensor work (activations, normalization, softmax) is recorded per
//! layer so the post-processing-unit model can charge it (Figure 12b).

pub mod zoo;

use lego_sparse::LayerSparsity;

/// A tensor layer: the unit of mapping and simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Dense matrix multiply `M×K · K×N`.
    Gemm {
        /// Rows of the output.
        m: i64,
        /// Columns of the output.
        n: i64,
        /// Contraction depth.
        k: i64,
    },
    /// 2D convolution (output-centric shape, stride folded in).
    Conv {
        /// Batch.
        n: i64,
        /// Input channels.
        ic: i64,
        /// Output channels.
        oc: i64,
        /// Output height.
        oh: i64,
        /// Output width.
        ow: i64,
        /// Kernel height.
        kh: i64,
        /// Kernel width.
        kw: i64,
        /// Stride.
        stride: i64,
    },
    /// Depthwise 2D convolution.
    DwConv {
        /// Batch.
        n: i64,
        /// Channels.
        c: i64,
        /// Output height.
        oh: i64,
        /// Output width.
        ow: i64,
        /// Kernel height.
        kh: i64,
        /// Kernel width.
        kw: i64,
        /// Stride.
        stride: i64,
    },
    /// Multi-head attention (both matmuls of `heads` heads).
    Attention {
        /// Number of heads.
        heads: i64,
        /// Query length.
        seq_q: i64,
        /// Key/value length.
        seq_kv: i64,
        /// Per-head key dimension.
        dk: i64,
        /// Per-head value dimension.
        dv: i64,
    },
}

/// Non-tensor operations executed on the post-processing units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Nonlinear {
    /// ReLU / ReLU6 / SiLU-style pointwise activation.
    Activation,
    /// Softmax (exp + reduce + divide).
    Softmax,
    /// Layer/batch/group normalization.
    Normalization,
}

impl Nonlinear {
    /// Every non-tensor operation kind, in canonical order.
    pub const ALL: [Nonlinear; 3] = [
        Nonlinear::Activation,
        Nonlinear::Softmax,
        Nonlinear::Normalization,
    ];
}

/// One layer instance (possibly repeated) within a model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Human-readable name. Interned as `Arc<str>` so clones along the
    /// evaluation hot path (reports, mapped layers) are refcount bumps,
    /// not heap copies; hashes identically to a `String` of the same text.
    pub name: std::sync::Arc<str>,
    /// Shape descriptor.
    pub kind: LayerKind,
    /// Repetition count (identical blocks).
    pub count: i64,
    /// Non-tensor work: (kind, element count) per single instance.
    pub nonlinear: Vec<(Nonlinear, i64)>,
    /// Per-tensor density annotations (dense by default). Only hardware
    /// with a sparse acceleration feature can exploit them; dense hardware
    /// executes the layer as if every tensor were dense.
    pub sparsity: LayerSparsity,
}

impl Layer {
    /// Creates a layer with no non-tensor work.
    pub fn new(name: impl Into<std::sync::Arc<str>>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
            count: 1,
            nonlinear: Vec::new(),
            sparsity: LayerSparsity::dense(),
        }
    }

    /// Sets the repetition count.
    #[must_use]
    pub fn repeat(mut self, count: i64) -> Self {
        self.count = count;
        self
    }

    /// Adds non-tensor work.
    #[must_use]
    pub fn with_nonlinear(mut self, kind: Nonlinear, elems: i64) -> Self {
        self.nonlinear.push((kind, elems));
        self
    }

    /// Sets the per-tensor density annotations.
    #[must_use]
    pub fn with_sparsity(mut self, sparsity: LayerSparsity) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Expected nonzero MACs of one instance (the MACs a perfect skipping
    /// datapath would execute). Equals [`Layer::macs`] for dense layers.
    pub fn effectual_macs(&self) -> i64 {
        if self.sparsity.is_dense() {
            return self.macs();
        }
        (self.macs() as f64 * self.sparsity.mac_density()).ceil() as i64
    }

    /// Multiply-accumulate count of a single instance.
    pub fn macs(&self) -> i64 {
        match self.kind {
            LayerKind::Gemm { m, n, k } => m * n * k,
            LayerKind::Conv {
                n,
                ic,
                oc,
                oh,
                ow,
                kh,
                kw,
                ..
            } => n * ic * oc * oh * ow * kh * kw,
            LayerKind::DwConv {
                n,
                c,
                oh,
                ow,
                kh,
                kw,
                ..
            } => n * c * oh * ow * kh * kw,
            LayerKind::Attention {
                heads,
                seq_q,
                seq_kv,
                dk,
                dv,
            } => heads * seq_q * seq_kv * (dk + dv),
        }
    }

    /// Operations (2 per MAC, paper convention).
    pub fn ops(&self) -> i64 {
        2 * self.macs()
    }

    /// Weight footprint in elements (zero for attention).
    pub fn weight_elems(&self) -> i64 {
        match self.kind {
            LayerKind::Gemm { n, k, .. } => n * k,
            LayerKind::Conv { ic, oc, kh, kw, .. } => ic * oc * kh * kw,
            LayerKind::DwConv { c, kh, kw, .. } => c * kh * kw,
            LayerKind::Attention { .. } => 0,
        }
    }

    /// Input activation footprint in elements.
    pub fn input_elems(&self) -> i64 {
        match self.kind {
            LayerKind::Gemm { m, k, .. } => m * k,
            LayerKind::Conv {
                n,
                ic,
                oh,
                ow,
                kh,
                kw,
                stride,
                ..
            } => n * ic * (stride * (oh - 1) + kh) * (stride * (ow - 1) + kw),
            LayerKind::DwConv {
                n,
                c,
                oh,
                ow,
                kh,
                kw,
                stride,
            } => n * c * (stride * (oh - 1) + kh) * (stride * (ow - 1) + kw),
            LayerKind::Attention {
                heads,
                seq_q,
                seq_kv,
                dk,
                dv,
            } => heads * (seq_q * dk + seq_kv * (dk + dv)),
        }
    }

    /// Output footprint in elements.
    pub fn output_elems(&self) -> i64 {
        match self.kind {
            LayerKind::Gemm { m, n, .. } => m * n,
            LayerKind::Conv { n, oc, oh, ow, .. } => n * oc * oh * ow,
            LayerKind::DwConv { n, c, oh, ow, .. } => n * c * oh * ow,
            LayerKind::Attention {
                heads, seq_q, dv, ..
            } => heads * seq_q * dv,
        }
    }

    /// Total non-tensor elements of one instance.
    pub fn nonlinear_elems(&self) -> i64 {
        self.nonlinear.iter().map(|&(_, e)| e).sum()
    }

    /// Builds the equivalent `lego-ir` workload (for hardware generation),
    /// propagating this layer's density annotations onto the IR tensors
    /// (`W` weights, `X` inputs, `Y`/`S` outputs).
    pub fn to_workload(&self) -> lego_ir::Workload {
        let w = self.kind_workload();
        if self.sparsity.is_dense() {
            return w;
        }
        w.with_tensor_density("W", self.sparsity.weights)
            .with_tensor_density("X", self.sparsity.inputs)
            .with_tensor_density("Q", self.sparsity.inputs)
            .with_tensor_density("K", self.sparsity.inputs)
            .with_tensor_density("Y", self.sparsity.outputs)
            .with_tensor_density("S", self.sparsity.outputs)
    }

    /// The density-free IR workload of this layer's shape.
    fn kind_workload(&self) -> lego_ir::Workload {
        use lego_ir::kernels;
        match self.kind {
            LayerKind::Gemm { m, n, k } => kernels::gemm(m, n, k),
            LayerKind::Conv {
                n,
                ic,
                oc,
                oh,
                ow,
                kh,
                kw,
                stride,
            } => kernels::conv2d(n, ic, oc, oh, ow, kh, kw, stride),
            LayerKind::DwConv {
                n,
                c,
                oh,
                ow,
                kh,
                kw,
                stride,
            } => kernels::depthwise_conv2d(n, c, oh, ow, kh, kw, stride),
            LayerKind::Attention {
                seq_q, seq_kv, dk, ..
            } => kernels::attention_scores(seq_q, seq_kv, dk),
        }
    }
}

/// A whole network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Model name as used in the paper's figures.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl Model {
    /// Total MACs over all layers and repetitions.
    pub fn total_macs(&self) -> i64 {
        self.layers.iter().map(|l| l.macs() * l.count).sum()
    }

    /// Total operations (2 × MACs).
    pub fn total_ops(&self) -> i64 {
        2 * self.total_macs()
    }

    /// Total weight bytes at the given element width.
    pub fn weight_bytes(&self, bytes_per_elem: i64) -> i64 {
        self.layers
            .iter()
            .map(|l| l.weight_elems() * l.count * bytes_per_elem)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_arithmetic() {
        let l = Layer::new("g", LayerKind::Gemm { m: 4, n: 8, k: 16 });
        assert_eq!(l.macs(), 512);
        assert_eq!(l.ops(), 1024);
        assert_eq!(l.weight_elems(), 128);
        assert_eq!(l.input_elems(), 64);
        assert_eq!(l.output_elems(), 32);
    }

    #[test]
    fn conv_input_accounts_stride_and_halo() {
        let l = Layer::new(
            "c",
            LayerKind::Conv {
                n: 1,
                ic: 3,
                oc: 8,
                oh: 10,
                ow: 10,
                kh: 3,
                kw: 3,
                stride: 2,
            },
        );
        // ih = 2*9 + 3 = 21.
        assert_eq!(l.input_elems(), 3 * 21 * 21);
    }

    #[test]
    fn attention_macs_cover_both_matmuls() {
        let l = Layer::new(
            "a",
            LayerKind::Attention {
                heads: 12,
                seq_q: 16,
                seq_kv: 16,
                dk: 64,
                dv: 64,
            },
        );
        assert_eq!(l.macs(), 12 * 16 * 16 * 128);
    }

    #[test]
    fn model_totals_respect_repeats() {
        let m = Model {
            name: "t".into(),
            layers: vec![Layer::new("g", LayerKind::Gemm { m: 2, n: 2, k: 2 }).repeat(3)],
        };
        assert_eq!(m.total_macs(), 24);
    }

    #[test]
    fn to_workload_shapes_match() {
        let l = Layer::new(
            "c",
            LayerKind::Conv {
                n: 1,
                ic: 4,
                oc: 8,
                oh: 6,
                ow: 6,
                kh: 3,
                kw: 3,
                stride: 1,
            },
        );
        let w = l.to_workload();
        assert_eq!(w.domain_size(), l.macs());
    }
}
