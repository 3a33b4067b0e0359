//! Sparse acceleration features and their effect on dense costs.
//!
//! Sparseloop distinguishes *representation* (how zeros are stored —
//! [`CompressedFormat`]) from *action
//! optimization* (what the hardware does when it sees one). This module
//! models the two classic action optimizations:
//!
//! * **Gating** — a zero-detect latch in front of each FU holds the
//!   operand registers and clock-gates the multiplier when either operand
//!   is zero. Compute *energy* scales with the nonzero-MAC fraction, but
//!   every cycle and every byte of traffic is still paid: zeros are
//!   fetched, staged, and skipped in place.
//! * **Skipping** — an index-intersection frontend walks compressed
//!   operand streams and dispatches only effectual MACs. Compute cycles,
//!   operand traffic, and buffer accesses all shrink with density; the
//!   price is a bigger per-FU frontend and decode energy on every
//!   compressed byte. Unstructured sparsity additionally pays a
//!   load-imbalance factor — the reason N:M structured formats exist.
//!
//! Both features cost area on the PE datapath even when the data is dense.
//! A layer with density 1.0 gets no effects ([`SparseHw::effects`] returns
//! `None`), which callers read as [`SparseEffects::DENSE`]: every scale 1
//! and no frontend energy. Pricing through unit scales reproduces dense
//! arithmetic bit for bit, because `x·1.0` and `x + 0.0` are exact and every
//! scaled integer stays below 2^53, so there is one pricing path and dense
//! results stay byte-identical with sparse modeling compiled in.

use crate::density::LayerSparsity;
use crate::format::CompressedFormat;

/// The sparse acceleration feature a PE datapath implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparseAccel {
    /// Plain dense datapath: sparsity is ignored entirely.
    #[default]
    None,
    /// Zero-gating: skip compute energy, still pay cycles and traffic.
    Gating,
    /// Skipping: skip compute cycles *and* operand traffic.
    Skipping,
}

impl SparseAccel {
    /// Every feature, in canonical order.
    pub const ALL: [SparseAccel; 3] = [
        SparseAccel::None,
        SparseAccel::Gating,
        SparseAccel::Skipping,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SparseAccel::None => "dense",
            SparseAccel::Gating => "gate",
            SparseAccel::Skipping => "skip",
        }
    }

    /// Area overhead of the sparse frontend per FU, in µm². Anchored to the
    /// ~460 µm² int8 FU of the 28 nm tech model: the gating latch +
    /// zero-detect is ~5 % of an FU, the skipping intersection/dispatch
    /// queue ~13 %.
    pub fn frontend_area_um2_per_fu(self) -> f64 {
        match self {
            SparseAccel::None => 0.0,
            SparseAccel::Gating => 22.0,
            SparseAccel::Skipping => 58.0,
        }
    }

    /// Frontend energy per MAC position it examines, in pJ (zero-detect
    /// compare for gating; metadata intersection + dispatch for skipping).
    /// For reference, one int8 MAC costs ~0.17 pJ in the default tech
    /// model.
    pub fn frontend_pj_per_mac(self) -> f64 {
        match self {
            SparseAccel::None => 0.0,
            SparseAccel::Gating => 0.0006,
            SparseAccel::Skipping => 0.0018,
        }
    }

    /// The compressed formats this cost model lets the frontend consume —
    /// exactly the candidate set [`SparseHw::effects`] selects from.
    /// Gating fetches every operand position (its defining contract is
    /// "skip compute, still pay traffic"), so its streams stay dense;
    /// skipping must index into the stream, which rules out RLE's
    /// sequential decode but admits CSR. RLE remains in the format library
    /// for designs that decompress at the DRAM boundary.
    pub fn supported_formats(self) -> &'static [CompressedFormat] {
        match self {
            SparseAccel::None | SparseAccel::Gating => &[CompressedFormat::Dense],
            SparseAccel::Skipping => &[
                CompressedFormat::Dense,
                CompressedFormat::Bitmask,
                CompressedFormat::Csr,
            ],
        }
    }

    /// Fraction of ideal skip speedup actually achieved. Structured N:M
    /// sparsity is perfectly schedulable; unstructured sparsity leaves
    /// lanes idle waiting for the slowest intersection.
    fn skip_efficiency(structured: bool) -> f64 {
        if structured {
            1.0
        } else {
            0.75
        }
    }
}

impl std::fmt::Display for SparseAccel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The sparse half of a hardware configuration.
///
/// Kept separate from the dense `HwConfig` so existing configurations and
/// presets are untouched; the cost context bundles one of these next to
/// the dense description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SparseHw {
    /// The acceleration feature on the PE datapath.
    pub accel: SparseAccel,
}

impl SparseHw {
    /// A plain dense datapath (the default).
    pub fn dense() -> Self {
        SparseHw::default()
    }

    /// A datapath with the given acceleration feature.
    pub fn with_accel(accel: SparseAccel) -> Self {
        SparseHw { accel }
    }

    /// Whether any sparse feature is present (and hence frontend area is
    /// spent).
    pub fn is_enabled(&self) -> bool {
        self.accel != SparseAccel::None
    }

    /// The multiplicative effects of running a layer with `sparsity` on
    /// this datapath, or `None` when the execution is **provably dense**:
    /// no acceleration feature, or a fully dense layer. Callers read `None`
    /// as [`SparseEffects::DENSE`], whose unit scales price a layer exactly
    /// as dense arithmetic would (see the module header).
    pub fn effects(&self, sparsity: &LayerSparsity) -> Option<SparseEffects> {
        if !self.is_enabled() || sparsity.is_dense() {
            return None;
        }
        let mac_density = sparsity.mac_density();
        if self.accel == SparseAccel::Gating {
            return Some(SparseEffects {
                mac_energy_scale: mac_density,
                frontend_pj_per_mac: self.accel.frontend_pj_per_mac(),
                ..SparseEffects::DENSE
            });
        }
        // Skipping: compressed operand streams, only effectual MACs issued.
        let wd = sparsity.weights.density();
        let id = sparsity.inputs.density();
        let formats = self.accel.supported_formats();
        let pick = |density: f64| {
            const BLOCK: i64 = 4096;
            let nnz = (BLOCK as f64 * density).ceil() as i64;
            CompressedFormat::best_for(BLOCK, nnz, formats)
        };
        let weight_format = pick(wd);
        let input_format = pick(id);
        let eff = SparseAccel::skip_efficiency(sparsity.is_structured());
        // Achieved cycles: ideal nonzero fraction, padded back toward dense
        // by the imbalance the scheduler cannot hide.
        let compute_scale = (mac_density + (1.0 - mac_density) * (1.0 - eff)).min(1.0);
        Some(SparseEffects {
            compute_scale,
            mac_energy_scale: mac_density,
            weight_bytes_scale: weight_format.compression_ratio(wd).min(1.0),
            input_bytes_scale: input_format.compression_ratio(id).min(1.0),
            output_bytes_scale: sparsity.outputs.density(),
            weight_format,
            input_format,
            frontend_pj_per_mac: self.accel.frontend_pj_per_mac(),
        })
    }
}

impl std::fmt::Display for SparseHw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.accel)
    }
}

/// Multiplicative adjustments a sparse execution applies to the dense cost
/// components. Every `*_scale` is in `(0, 1]`; applying them to the dense
/// quantities yields the expected sparse quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseEffects {
    /// Fraction of dense compute cycles actually issued — and so of operand
    /// buffer reads issued and of MAC positions the frontend examines
    /// (dense positions for gating, surviving positions for skipping).
    pub compute_scale: f64,
    /// Fraction of MACs that toggle the datapath (energy).
    pub mac_energy_scale: f64,
    /// Compressed-to-dense ratio of weight DRAM/SRAM footprint.
    pub weight_bytes_scale: f64,
    /// Compressed-to-dense ratio of input-activation footprint.
    pub input_bytes_scale: f64,
    /// Fraction of output positions materialized (masked outputs are
    /// never computed or written).
    pub output_bytes_scale: f64,
    /// Chosen weight storage format.
    pub weight_format: CompressedFormat,
    /// Chosen input-activation storage format.
    pub input_format: CompressedFormat,
    /// Frontend energy per examined MAC position, in pJ.
    pub frontend_pj_per_mac: f64,
}

impl SparseEffects {
    /// A dense execution: every scale 1, `Dense` formats, no frontend
    /// energy. What [`SparseHw::effects`]' `None` stands for.
    pub const DENSE: SparseEffects = SparseEffects {
        compute_scale: 1.0,
        mac_energy_scale: 1.0,
        weight_bytes_scale: 1.0,
        input_bytes_scale: 1.0,
        output_bytes_scale: 1.0,
        weight_format: CompressedFormat::Dense,
        input_format: CompressedFormat::Dense,
        frontend_pj_per_mac: 0.0,
    };

    /// Frontend + decode energy for a layer that executes `dense_macs` MAC
    /// positions and streams the given dense operand footprints, in pJ.
    pub fn overhead_pj(&self, dense_macs: i64, weight_bytes: i64, input_bytes: i64) -> f64 {
        let frontend = self.frontend_pj_per_mac * dense_macs as f64 * self.compute_scale;
        let decode = self.weight_format.decode_pj_per_byte()
            * (weight_bytes as f64 * self.weight_bytes_scale)
            + self.input_format.decode_pj_per_byte()
                * (input_bytes as f64 * self.input_bytes_scale);
        frontend + decode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityModel;

    fn two_to_four() -> LayerSparsity {
        LayerSparsity::weights(DensityModel::two_to_four())
    }

    #[test]
    fn dense_or_disabled_is_a_provable_noop() {
        assert!(SparseHw::dense().effects(&two_to_four()).is_none());
        assert!(SparseHw::with_accel(SparseAccel::Skipping)
            .effects(&LayerSparsity::dense())
            .is_none());
        assert!(SparseHw::with_accel(SparseAccel::Gating)
            .effects(&LayerSparsity::dense())
            .is_none());
    }

    #[test]
    fn gating_saves_energy_but_not_cycles_or_traffic() {
        let e = SparseHw::with_accel(SparseAccel::Gating)
            .effects(&two_to_four())
            .unwrap();
        assert_eq!(e.compute_scale, 1.0);
        assert_eq!(e.weight_bytes_scale, 1.0);
        assert_eq!(e.input_bytes_scale, 1.0);
        assert!((e.mac_energy_scale - 0.5).abs() < 1e-12);
        assert!(e.frontend_pj_per_mac > 0.0);
        assert_eq!(e.weight_format, CompressedFormat::Dense);
    }

    #[test]
    fn skipping_single_tensor_structured_halves_cycles_and_shrinks_weights() {
        let e = SparseHw::with_accel(SparseAccel::Skipping)
            .effects(&two_to_four())
            .unwrap();
        assert!((e.compute_scale - 0.5).abs() < 1e-12, "2:4 is schedulable");
        assert!((e.mac_energy_scale - 0.5).abs() < 1e-12);
        // Bitmask at 50 % density: 0.5 payload + 1/8 mask.
        assert_eq!(e.weight_format, CompressedFormat::Bitmask);
        assert!((e.weight_bytes_scale - 0.625).abs() < 1e-9);
        // Dense inputs stay dense.
        assert_eq!(e.input_format, CompressedFormat::Dense);
        assert_eq!(e.input_bytes_scale, 1.0);
    }

    #[test]
    fn unstructured_skipping_pays_imbalance() {
        let structured = SparseHw::with_accel(SparseAccel::Skipping)
            .effects(&two_to_four())
            .unwrap();
        let unstructured = SparseHw::with_accel(SparseAccel::Skipping)
            .effects(&LayerSparsity::weights(DensityModel::uniform(0.5)))
            .unwrap();
        assert!(unstructured.compute_scale > structured.compute_scale);
        assert!(unstructured.compute_scale < 1.0);
    }

    #[test]
    fn effects_scales_stay_in_unit_interval() {
        for accel in [SparseAccel::Gating, SparseAccel::Skipping] {
            for permille in [1u16, 100, 250, 500, 750, 999] {
                let sp = LayerSparsity::weights(DensityModel::Uniform { permille })
                    .with_inputs(DensityModel::uniform(0.7));
                let e = SparseHw::with_accel(accel).effects(&sp).unwrap();
                for s in [
                    e.compute_scale,
                    e.mac_energy_scale,
                    e.weight_bytes_scale,
                    e.input_bytes_scale,
                    e.output_bytes_scale,
                ] {
                    assert!((0.0..=1.0).contains(&s), "{accel:?} {permille} {s}");
                    assert!(s > 0.0);
                }
            }
        }
    }

    #[test]
    fn overhead_energy_is_positive_and_scales_with_work() {
        let e = SparseHw::with_accel(SparseAccel::Skipping)
            .effects(&two_to_four())
            .unwrap();
        let small = e.overhead_pj(1000, 1000, 1000);
        let large = e.overhead_pj(10_000, 10_000, 10_000);
        assert!(small > 0.0);
        assert!((large - 10.0 * small).abs() < 1e-9);
    }
}
