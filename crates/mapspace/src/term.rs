//! The mapping-term language the e-graph rewrites: loop nests with
//! tile/order/spatial-vs-temporal annotations over a layer's tensor
//! accesses.
//!
//! A layer's iteration space is named by its native [`Axis`] set (the GEMM
//! view's `M/N/K` for matrix layers, the convolution loop axes for conv
//! layers). A mapping term is a nest of [`ENode::Spatial`] and
//! [`ENode::Temporal`] loops around the layer's [`ENode::Access`] leaf;
//! whole models compose per-layer nests with [`ENode::Seq`] fusion groups.
//! Exactly the spatializations the simulator has a hardware template for
//! lower to a [`SpatialMapping`] ([`lower_spatial`]); everything else is a
//! legal term the rewriter may visit but the extractor cannot price.

use lego_model::SpatialMapping;
use lego_workloads::LayerKind;

/// One loop axis of a layer's iteration space.
///
/// `M`/`N`/`K` are the GEMM-view axes (im2col for convolutions);
/// `Oh/Ow/Ic/Oc/Kh` are the native convolution axes. The derived order is
/// the canonical order used for deterministic pair normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axis {
    /// GEMM rows (output pixels under im2col).
    M,
    /// GEMM columns (output channels under im2col).
    N,
    /// GEMM reduction.
    K,
    /// Convolution output rows.
    Oh,
    /// Convolution output columns.
    Ow,
    /// Convolution input channels.
    Ic,
    /// Convolution output channels.
    Oc,
    /// Convolution kernel rows.
    Kh,
}

impl Axis {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Axis::M => "m",
            Axis::N => "n",
            Axis::K => "k",
            Axis::Oh => "oh",
            Axis::Ow => "ow",
            Axis::Ic => "ic",
            Axis::Oc => "oc",
            Axis::Kh => "kh",
        }
    }
}

/// The native loop axes of a layer kind, innermost-last, in the canonical
/// seed order.
pub fn layer_axes(kind: &LayerKind) -> &'static [Axis] {
    match kind {
        LayerKind::Gemm { .. } | LayerKind::Attention { .. } => &[Axis::M, Axis::N, Axis::K],
        LayerKind::Conv { .. } | LayerKind::DwConv { .. } => {
            &[Axis::Oh, Axis::Ow, Axis::Ic, Axis::Oc, Axis::Kh]
        }
    }
}

/// The hardware template that spatializes the unordered axis pair
/// `{a, b}`, or `None` when the simulator has no template for it.
///
/// Convolution layers can spatialize either their native axes or the
/// im2col view's: binding an output-pixel axis and the output channels is
/// exactly the `GemmMN` im2col mapping, and binding a reduction axis with
/// the output channels is `GemmKN`.
pub fn lower_spatial(a: Axis, b: Axis) -> Option<SpatialMapping> {
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    match (x, y) {
        (Axis::M, Axis::N) => Some(SpatialMapping::GemmMN),
        (Axis::N, Axis::K) => Some(SpatialMapping::GemmKN),
        (Axis::Oh, Axis::Ow) => Some(SpatialMapping::ConvOhOw),
        (Axis::Ic, Axis::Oc) => Some(SpatialMapping::ConvIcOc),
        (Axis::Oh, Axis::Kh) => Some(SpatialMapping::ConvKhOh),
        // im2col: output pixels × output channels.
        (Axis::Oh, Axis::Oc) | (Axis::Ow, Axis::Oc) => Some(SpatialMapping::GemmMN),
        // im2col: reduction × output channels.
        (Axis::Oc, Axis::Kh) => Some(SpatialMapping::GemmKN),
        _ => None,
    }
}

/// The canonical spatial axis pair that seeds a nest lowering to
/// `mapping`, drawn from the layer's native axes.
pub fn seed_spatial_pair(kind: &LayerKind, mapping: SpatialMapping) -> (Axis, Axis) {
    let conv = matches!(kind, LayerKind::Conv { .. } | LayerKind::DwConv { .. });
    match (mapping, conv) {
        (SpatialMapping::GemmMN, false) => (Axis::M, Axis::N),
        (SpatialMapping::GemmKN, false) => (Axis::N, Axis::K),
        (SpatialMapping::GemmMN, true) => (Axis::Oh, Axis::Oc),
        (SpatialMapping::GemmKN, true) => (Axis::Oc, Axis::Kh),
        (SpatialMapping::ConvOhOw, _) => (Axis::Oh, Axis::Ow),
        (SpatialMapping::ConvIcOc, _) => (Axis::Ic, Axis::Oc),
        (SpatialMapping::ConvKhOh, _) => (Axis::Oh, Axis::Kh),
    }
}

/// An e-class id: a dense, deterministic numeric id minted in insertion
/// order by [`EGraph::add`](crate::EGraph::add).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id(pub u32);

impl std::fmt::Display for Id {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One mapping-term node. Children are e-class [`Id`]s, so a node denotes
/// every term reachable by picking representatives for its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ENode {
    /// The tensor-access compute statement of one distinct layer shape
    /// (the leaf every loop nest closes over).
    Access {
        /// Index into the search's distinct-shape table.
        shape: u32,
    },
    /// A temporal loop over `axis` with an L1 tile-edge annotation
    /// (`0` = untiled full sweep) around `body`.
    Temporal {
        /// The iterated axis.
        axis: Axis,
        /// Tile edge cap (`0` = uncapped).
        tile: u16,
        /// The nest under this loop.
        body: Id,
    },
    /// A spatial loop binding `axis` to one dimension of the PE array.
    Spatial {
        /// The spatialized axis.
        axis: Axis,
        /// The nest under this loop.
        body: Id,
    },
    /// Sequential composition of two fusion groups (model level).
    Seq {
        /// First group.
        a: Id,
        /// Second group.
        b: Id,
    },
}

impl ENode {
    /// Applies `f` to every child class id, returning the rewritten node.
    pub fn map_children(self, mut f: impl FnMut(Id) -> Id) -> ENode {
        match self {
            ENode::Access { shape } => ENode::Access { shape },
            ENode::Temporal { axis, tile, body } => ENode::Temporal {
                axis,
                tile,
                body: f(body),
            },
            ENode::Spatial { axis, body } => ENode::Spatial {
                axis,
                body: f(body),
            },
            ENode::Seq { a, b } => ENode::Seq { a: f(a), b: f(b) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_template_has_a_seed_pair_that_lowers_back() {
        let gemm = LayerKind::Gemm { m: 8, n: 8, k: 8 };
        let conv = LayerKind::Conv {
            n: 1,
            ic: 8,
            oc: 8,
            oh: 8,
            ow: 8,
            kh: 3,
            kw: 3,
            stride: 1,
        };
        for m in SpatialMapping::ALL {
            let (a, b) = seed_spatial_pair(&conv, m);
            assert_eq!(lower_spatial(a, b), Some(m), "{m:?} on conv");
            assert!(layer_axes(&conv).contains(&a) && layer_axes(&conv).contains(&b));
        }
        for m in [SpatialMapping::GemmMN, SpatialMapping::GemmKN] {
            let (a, b) = seed_spatial_pair(&gemm, m);
            assert_eq!(lower_spatial(a, b), Some(m), "{m:?} on gemm");
            assert!(layer_axes(&gemm).contains(&a) && layer_axes(&gemm).contains(&b));
        }
    }

    #[test]
    fn lowering_is_symmetric_in_the_pair() {
        for &a in layer_axes(&LayerKind::Conv {
            n: 1,
            ic: 1,
            oc: 1,
            oh: 1,
            ow: 1,
            kh: 1,
            kw: 1,
            stride: 1,
        }) {
            for &b in &[
                Axis::M,
                Axis::N,
                Axis::K,
                Axis::Oh,
                Axis::Ow,
                Axis::Ic,
                Axis::Oc,
                Axis::Kh,
            ] {
                assert_eq!(lower_spatial(a, b), lower_spatial(b, a));
            }
        }
    }
}
