//! Hardware configuration: the description every cost component prices.
//!
//! `HwConfig` (and the `SpatialMapping` dataflows it fuses) used to live in
//! `lego-sim`; it moved down into the cost-model layer so that one
//! [`CostContext`](crate::CostContext) can bundle the configuration with
//! the technology, SRAM, and NoC models it is priced under.

use lego_noc::{Butterfly, Mesh};
use std::fmt;

/// A spatial dataflow the hardware can be configured into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpatialMapping {
    /// GEMM output tile (M on rows, N on columns); convs run as im2col.
    GemmMN,
    /// GEMM K on rows, N on columns (reduction-parallel).
    GemmKN,
    /// Conv input channels × output channels (NVDLA-style).
    ConvIcOc,
    /// Conv output plane (ShiDianNao-style) — the depthwise rescuer.
    ConvOhOw,
    /// Conv kernel rows × output rows (Eyeriss-style).
    ConvKhOh,
}

impl SpatialMapping {
    /// Every spatial dataflow the simulator knows, in canonical order.
    pub const ALL: [SpatialMapping; 5] = [
        SpatialMapping::GemmMN,
        SpatialMapping::GemmKN,
        SpatialMapping::ConvIcOc,
        SpatialMapping::ConvOhOw,
        SpatialMapping::ConvKhOh,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SpatialMapping::GemmMN => "MN",
            SpatialMapping::GemmKN => "KN",
            SpatialMapping::ConvIcOc => "ICOC",
            SpatialMapping::ConvOhOw => "OHOW",
            SpatialMapping::ConvKhOh => "KHOH",
        }
    }
}

/// Why a [`HwConfig`] is not a valid design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwConfigError {
    /// The fused-dataflow set is empty: nothing can be mapped.
    NoDataflows,
    /// The FU array has a non-positive extent.
    EmptyArray,
    /// A cluster-grid extent is zero.
    EmptyClusterGrid,
    /// The on-chip buffer has zero capacity.
    NoBuffer,
    /// DRAM bandwidth is not a positive finite number.
    NoBandwidth,
    /// A power figure is negative or not finite.
    InvalidPower,
}

impl fmt::Display for HwConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwConfigError::NoDataflows => write!(f, "hardware fuses no spatial dataflows"),
            HwConfigError::EmptyArray => write!(f, "FU array extent must be positive"),
            HwConfigError::EmptyClusterGrid => write!(f, "cluster grid extent must be positive"),
            HwConfigError::NoBuffer => write!(f, "on-chip buffer capacity must be positive"),
            HwConfigError::NoBandwidth => write!(f, "DRAM bandwidth must be positive and finite"),
            HwConfigError::InvalidPower => {
                write!(
                    f,
                    "static and dynamic power must be finite and non-negative"
                )
            }
        }
    }
}

impl std::error::Error for HwConfigError {}

/// Hardware configuration under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct HwConfig {
    /// FU array extent per cluster (P0 × P1).
    pub array: (i64, i64),
    /// L2 mesh of clusters (1×1 = single array).
    pub clusters: (u32, u32),
    /// On-chip buffer capacity in KB (shared pool, per cluster).
    pub buffer_kb: u64,
    /// DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Number of post-processing units (LUT + reduction each).
    pub num_ppus: i64,
    /// Spatial dataflows this design supports (fused configurations).
    pub dataflows: Vec<SpatialMapping>,
    /// Static (leakage + clock) power of the chip in mW.
    pub static_mw: f64,
    /// Peak dynamic power of the FU array + NoC at full activity, in mW.
    pub dynamic_mw: f64,
}

impl HwConfig {
    /// The paper's Gemmini-comparable LEGO configuration: 256 MACs,
    /// 256 KB buffer, 16 GB/s DRAM (§VI-A), fused MN/ICOC/OHOW dataflows.
    pub fn lego_256() -> Self {
        HwConfig {
            array: (16, 16),
            clusters: (1, 1),
            buffer_kb: 256,
            dram_gbps: 16.0,
            num_ppus: 16,
            dataflows: vec![
                SpatialMapping::GemmMN,
                SpatialMapping::ConvIcOc,
                SpatialMapping::ConvOhOw,
            ],
            static_mw: 45.0,
            dynamic_mw: 240.0,
        }
    }

    /// The Table II generative-AI configuration: 1024 FUs, 576 KB,
    /// 32 PPUs, 32 GB/s, single ICOC-style dataflow.
    pub fn lego_icoc_1k() -> Self {
        HwConfig {
            array: (32, 32),
            clusters: (1, 1),
            buffer_kb: 576,
            dram_gbps: 32.0,
            num_ppus: 32,
            dataflows: vec![SpatialMapping::GemmMN, SpatialMapping::ConvIcOc],
            static_mw: 95.0,
            dynamic_mw: 506.0,
        }
    }

    /// Checks that the configuration describes a buildable, mappable
    /// design. Call sites that construct configurations from search axes
    /// (rather than the fixed presets) should validate before simulating.
    ///
    /// # Errors
    ///
    /// Returns the first [`HwConfigError`] found.
    pub fn validate(&self) -> Result<(), HwConfigError> {
        if self.array.0 <= 0 || self.array.1 <= 0 {
            return Err(HwConfigError::EmptyArray);
        }
        if self.clusters.0 == 0 || self.clusters.1 == 0 {
            return Err(HwConfigError::EmptyClusterGrid);
        }
        if self.buffer_kb == 0 {
            return Err(HwConfigError::NoBuffer);
        }
        if !(self.dram_gbps.is_finite() && self.dram_gbps > 0.0) {
            return Err(HwConfigError::NoBandwidth);
        }
        if ![self.static_mw, self.dynamic_mw]
            .iter()
            .all(|p| p.is_finite() && *p >= 0.0)
        {
            return Err(HwConfigError::InvalidPower);
        }
        if self.dataflows.is_empty() {
            return Err(HwConfigError::NoDataflows);
        }
        Ok(())
    }

    /// Number of L2 clusters.
    pub fn num_clusters(&self) -> i64 {
        i64::from(self.clusters.0) * i64::from(self.clusters.1)
    }

    /// Total number of functional units.
    pub fn num_fus(&self) -> i64 {
        self.array.0 * self.array.1 * self.num_clusters()
    }

    /// The L2 mesh model (one router per cluster).
    pub fn l2_mesh(&self) -> Mesh {
        Mesh::new(self.clusters.0.max(1), self.clusters.1.max(1), 16, 1)
    }

    /// The L1 distribution butterfly spanning one cluster's FU array.
    pub fn l1_butterfly(&self) -> Butterfly {
        Butterfly::with_endpoints((self.array.0.max(1) * self.array.1.max(1)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_configs_validate() {
        assert_eq!(HwConfig::lego_256().validate(), Ok(()));
        assert_eq!(HwConfig::lego_icoc_1k().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_empty_dataflow_sets() {
        let mut hw = HwConfig::lego_256();
        hw.dataflows.clear();
        assert_eq!(hw.validate(), Err(HwConfigError::NoDataflows));
    }

    #[test]
    fn validation_catches_degenerate_resources() {
        let mut hw = HwConfig::lego_256();
        hw.array = (0, 16);
        assert_eq!(hw.validate(), Err(HwConfigError::EmptyArray));
        let mut hw = HwConfig::lego_256();
        hw.clusters = (2, 0);
        assert_eq!(hw.validate(), Err(HwConfigError::EmptyClusterGrid));
        let mut hw = HwConfig::lego_256();
        hw.buffer_kb = 0;
        assert_eq!(hw.validate(), Err(HwConfigError::NoBuffer));
        for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut hw = HwConfig::lego_256();
            hw.dram_gbps = gbps;
            assert_eq!(hw.validate(), Err(HwConfigError::NoBandwidth), "{gbps}");
        }
        for mw in [-1.0, f64::NAN, f64::INFINITY] {
            let mut hw = HwConfig::lego_256();
            hw.static_mw = mw;
            assert_eq!(hw.validate(), Err(HwConfigError::InvalidPower), "{mw}");
            let mut hw = HwConfig::lego_256();
            hw.dynamic_mw = mw;
            assert_eq!(hw.validate(), Err(HwConfigError::InvalidPower), "{mw}");
        }
    }

    #[test]
    fn l1_butterfly_spans_the_array() {
        let hw = HwConfig::lego_256();
        assert_eq!(hw.l1_butterfly().stages(), 8); // log2(256)
    }
}
