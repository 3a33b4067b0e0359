//! # lego-sparse — sparsity modeling for the LEGO cost stack
//!
//! LEGO's evaluation targets dense tensor workloads, but the dominant
//! growth scenario in foundation-model inference is sparse: pruned
//! weights, N:M structured sparsity, masked attention. This crate opens
//! that workload class analytically, following Sparseloop's split of the
//! problem into three orthogonal layers:
//!
//! 1. **Density models** ([`DensityModel`], [`LayerSparsity`]) — *how many
//!    zeros* a tensor statistically carries, and with what structure.
//!    Workload layers carry a [`LayerSparsity`] annotation per tensor
//!    (weights / inputs / outputs); densities are stored exactly
//!    (permille or N:M) so annotations stay `Hash`/`Eq` for evaluation
//!    caches.
//! 2. **Representation formats** ([`CompressedFormat`]) — *how zeros are
//!    stored*: Dense, Bitmask, RLE, CSR, each priced by storage bytes
//!    (payload + metadata) and decode energy per compressed byte.
//!    Format selection picks the smallest representation the frontend
//!    can consume, with Dense always available, so compression never
//!    inflates traffic.
//! 3. **Acceleration features** ([`SparseAccel`], [`SparseHw`]) — *what
//!    the datapath does about zeros*: **gating** (clock-gate the FU:
//!    save compute energy, still pay cycles and traffic) or **skipping**
//!    (intersect compressed streams: save cycles *and* traffic, pay
//!    frontend area/energy and — for unstructured sparsity — a
//!    load-imbalance factor).
//!
//! The bridge into the cost stack is [`SparseHw::effects`]: given a
//! layer's sparsity annotation, it returns the multiplicative
//! [`SparseEffects`] on the dense cost components (expected-nonzero MAC
//! counts, compressed traffic, skipped fetches, frontend/decode
//! overheads) — or `None` when the execution is provably dense (no
//! acceleration feature, or density 1.0), which the consumer reads as
//! [`SparseEffects::DENSE`]: every scale 1, `Dense` formats, no frontend
//! energy. Unit scales are exact — `x·1.0` and `x + 0.0` change no bit and
//! every scaled integer stays below 2^53 — so the cost stack prices dense
//! and sparse layers through one path, and every dense result stays
//! byte-identical with sparsity modeling compiled in.
//!
//! The crate is deliberately dependency-free: `lego-workloads` annotates
//! its layers with these types, `lego-model` bundles a [`SparseHw`] into
//! its cost context, `lego-sim` applies the effects, and `lego-explorer`
//! searches the acceleration feature as a genome axis (sparse support is
//! an honest area-vs-EDP trade-off).
//!
//! ```
//! use lego_sparse::{DensityModel, LayerSparsity, SparseAccel, SparseHw};
//!
//! // ResNet50 pruned to 2:4 structured weight sparsity…
//! let layer = LayerSparsity::weights(DensityModel::two_to_four());
//! // …on a skipping-enabled datapath:
//! let hw = SparseHw::with_accel(SparseAccel::Skipping);
//! let eff = hw.effects(&layer).expect("sparse work on sparse hardware");
//! assert_eq!(eff.compute_scale, 0.5);          // N:M skips perfectly
//! assert!(eff.weight_bytes_scale < 0.7);       // bitmask-compressed weights
//! // Dense data has no effects, which prices as `SparseEffects::DENSE`:
//! assert!(hw.effects(&LayerSparsity::dense()).is_none());
//! ```

pub mod accel;
pub mod density;
pub mod format;

pub use accel::{SparseAccel, SparseEffects, SparseHw};
pub use density::{DensityModel, LayerSparsity};
pub use format::CompressedFormat;
