//! Area / power / energy models and the unified cost stack (paper §VI-A).
//!
//! The paper synthesizes generated RTL with Synopsys DC on TSMC 28 nm and
//! models SRAM with CACTI. This crate substitutes analytic per-primitive
//! cost tables calibrated to the paper's reported design points (Figure 12:
//! 256-FU LEGO-MNICOC at 1.76 mm² / 285 mW with buffers at 86 % of area and
//! the FU array at 57 % of power). The paper's area/power *deltas* come from
//! counting structural resources — registers removed by the LP, adders
//! removed by pin reuse, shared control logic — so counting the same
//! primitives with fixed per-primitive costs reproduces the ratios.
//!
//! # The cost stack
//!
//! Beyond the per-primitive tables, this crate owns the **cost-model
//! layer** the rest of the workspace evaluates designs through
//! ([`costmodel`]): a [`CostContext`] bundling `{ hw, tech, sram, noc }`
//! is built once per [`HwConfig`] and priced through three groups of its
//! methods —
//!
//! * compute (FU-array cycles, datapath energy),
//! * memory (DRAM stream cycles, SRAM/DRAM access energy, leakage),
//! * NoC (L1 butterfly fill, L2 wormhole-mesh transfer latency as
//!   [`lego_noc::Transfer`]s, transport energy).
//!
//! `lego-sim` consumes the context for per-layer simulation (multi-cluster
//! designs pay modeled L2-mesh latency, not just energy), `lego-mapper`
//! threads it through whole-model mapping, and `lego-explorer` searches
//! the cluster axis against it under area/power feasibility constraints.

pub mod cost;
pub mod costmodel;
pub mod hw;
pub mod sram;

pub use cost::{dag_cost, l2_router_area_um2, macro_area, DagCost, FpgaCost, MacroArea};
pub use costmodel::{CostContext, L2Traffic, NocModel};
pub use hw::{HwConfig, HwConfigError, SpatialMapping};
pub use lego_sparse::{
    CompressedFormat, DensityModel, LayerSparsity, SparseAccel, SparseEffects, SparseHw,
};
pub use sram::SramModel;

/// Technology constants (TSMC 28 nm @ 1 GHz unless noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechModel {
    /// Area of one flip-flop bit (µm²).
    pub ff_area_um2: f64,
    /// Area of one LUT-equivalent / adder bit (µm²).
    pub lut_area_um2: f64,
    /// Area of a multiplier per bit-product (µm², scales with w1·w2).
    pub mult_area_um2_per_bit2: f64,
    /// Area of one mux input bit (µm²).
    pub mux_area_um2_per_bit: f64,
    /// Dynamic energy of one flip-flop toggle (pJ/bit).
    pub ff_energy_pj: f64,
    /// Dynamic energy of one adder bit (pJ).
    pub add_energy_pj_per_bit: f64,
    /// Dynamic energy of a multiplier per bit-product (pJ).
    pub mult_energy_pj_per_bit2: f64,
    /// Leakage + clock-tree power per µm² of logic (µW/µm²).
    pub static_uw_per_um2: f64,
    /// DRAM access energy (pJ/byte, LPDDR4-class).
    pub dram_pj_per_byte: f64,
    /// NoC energy per byte per hop (pJ).
    pub noc_pj_per_byte_hop: f64,
    /// Clock frequency (GHz).
    pub freq_ghz: f64,
}

impl Default for TechModel {
    fn default() -> Self {
        TechModel {
            ff_area_um2: 2.5,
            lut_area_um2: 2.0,
            mult_area_um2_per_bit2: 4.7,
            mux_area_um2_per_bit: 0.9,
            ff_energy_pj: 0.0018,
            add_energy_pj_per_bit: 0.003,
            mult_energy_pj_per_bit2: 0.0011,
            static_uw_per_um2: 0.12,
            dram_pj_per_byte: 20.0,
            noc_pj_per_byte_hop: 0.18,
            freq_ghz: 1.0,
        }
    }
}

impl TechModel {
    /// Scales the model to another node by a simple Dennard-ish factor
    /// (area ∝ λ², energy ∝ λ): used for the 45 nm SODA comparison and the
    /// 65 nm Eyeriss point.
    pub fn scaled_to(&self, nm: f64) -> TechModel {
        let lambda = nm / 28.0;
        TechModel {
            ff_area_um2: self.ff_area_um2 * lambda * lambda,
            lut_area_um2: self.lut_area_um2 * lambda * lambda,
            mult_area_um2_per_bit2: self.mult_area_um2_per_bit2 * lambda * lambda,
            mux_area_um2_per_bit: self.mux_area_um2_per_bit * lambda * lambda,
            ff_energy_pj: self.ff_energy_pj * lambda,
            add_energy_pj_per_bit: self.add_energy_pj_per_bit * lambda,
            mult_energy_pj_per_bit2: self.mult_energy_pj_per_bit2 * lambda,
            static_uw_per_um2: self.static_uw_per_um2 / lambda,
            dram_pj_per_byte: self.dram_pj_per_byte,
            noc_pj_per_byte_hop: self.noc_pj_per_byte_hop * lambda,
            freq_ghz: self.freq_ghz / lambda,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_28nm_1ghz() {
        let t = TechModel::default();
        assert_eq!(t.freq_ghz, 1.0);
        assert!(t.ff_area_um2 > 0.0);
    }

    #[test]
    fn scaling_grows_area_quadratically() {
        let t = TechModel::default();
        let t45 = t.scaled_to(45.0);
        let ratio = t45.ff_area_um2 / t.ff_area_um2;
        assert!((ratio - (45.0f64 / 28.0).powi(2)).abs() < 1e-9);
        assert!(t45.freq_ghz < t.freq_ghz);
    }
}
