//! The cost-model layer: one [`CostContext`] per hardware configuration,
//! priced through its methods.
//!
//! Before this layer existed, every evaluation site re-derived its costs
//! inline — `SramModel::default()` here, a `mean_hops()` call there — and
//! the L2 cluster mesh divided compute cycles for free, so nothing could
//! honestly search the cluster axis. Following the layered analytic cost
//! stacks of Sparseloop/Timeloop, the components are now explicit groups of
//! [`CostContext`] methods:
//!
//! * compute — FU-array cycles and datapath energy;
//! * memory — DRAM stream cycles, SRAM/DRAM access energy, leakage;
//! * NoC — L1 butterfly fill and L2 wormhole-mesh transfer latency
//!   ([`lego_noc::Transfer`]-returning, so latency and hop counts travel
//!   together) plus transport energy.
//!
//! [`CostContext`] bundles `{ hw, tech, sram, noc }` and is built **once**
//! per configuration; `lego_sim` consumes it for per-layer simulation,
//! `lego_mapper` and `lego-explorer` thread it through whole-model mapping
//! and design-space search.

use crate::cost::{l2_router_area_um2, macro_area, MacroArea};
use crate::hw::HwConfig;
use crate::{SramModel, TechModel};
use lego_noc::{Butterfly, Mesh, Transfer};
use lego_sparse::{LayerSparsity, SparseEffects, SparseHw};

/// Traffic one layer pushes through the L2 cluster mesh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2Traffic {
    /// Bytes scattered/gathered between the memory port and individual
    /// clusters (disjoint per-cluster payloads: inputs and outputs of the
    /// split dimension).
    pub scatter_bytes: i64,
    /// Bytes multicast from the port to every cluster (operands every
    /// cluster needs in full — the weight stream when clusters split M).
    pub broadcast_bytes: i64,
    /// Bytes exchanged between adjacent clusters (conv halo rows), summed
    /// over every cluster boundary; the per-boundary exchanges overlap.
    pub halo_bytes: i64,
}

impl L2Traffic {
    /// Total bytes crossing any mesh link.
    pub fn total_bytes(&self) -> i64 {
        self.scatter_bytes + self.broadcast_bytes + self.halo_bytes
    }
}

/// The NoC instances of one configuration: the L1 distribution butterfly
/// inside a cluster and the L2 wormhole mesh across clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocModel {
    /// L2 wormhole mesh (one router per cluster).
    pub mesh: Mesh,
    /// L1 distribution butterfly spanning one cluster's FU array.
    pub butterfly: Butterfly,
}

impl NocModel {
    /// The networks `hw` instantiates.
    pub fn for_hw(hw: &HwConfig) -> Self {
        NocModel {
            mesh: hw.l2_mesh(),
            butterfly: hw.l1_butterfly(),
        }
    }
}

/// Everything needed to price one hardware configuration, built once and
/// threaded through per-layer simulation, whole-model mapping, and
/// design-space search.
#[derive(Debug, Clone, PartialEq)]
pub struct CostContext {
    /// The configuration under evaluation.
    pub hw: HwConfig,
    /// Technology constants.
    pub tech: TechModel,
    /// SRAM macro model.
    pub sram: SramModel,
    /// Instantiated NoC models.
    pub noc: NocModel,
    /// The sparse half of the configuration: which acceleration feature
    /// (gating/skipping) the PE datapath carries, if any. Dense by
    /// default; priced in area whenever present, and in per-layer costs
    /// whenever a layer actually carries zeros.
    pub sparse: SparseHw,
}

impl CostContext {
    /// Builds the context for `hw` under `tech`, with the default SRAM
    /// model, a dense datapath, and the NoCs the configuration implies.
    pub fn new(hw: HwConfig, tech: TechModel) -> Self {
        let noc = NocModel::for_hw(&hw);
        CostContext {
            hw,
            tech,
            sram: SramModel::default(),
            noc,
            sparse: SparseHw::dense(),
        }
    }

    /// Replaces the SRAM model.
    #[must_use]
    pub fn with_sram(mut self, sram: SramModel) -> Self {
        self.sram = sram;
        self
    }

    /// Replaces this context with a fresh build for a new configuration:
    /// `CostContext::new(hw.clone(), tech).with_sram(sram).with_sparse(sparse)`.
    /// No workspace code calls it; it stays only because the repository
    /// benchmark's context probe does.
    pub fn update(&mut self, hw: &HwConfig, tech: TechModel, sram: SramModel, sparse: SparseHw) {
        *self = CostContext::new(hw.clone(), tech)
            .with_sram(sram)
            .with_sparse(sparse);
    }

    /// Replaces the sparse datapath configuration.
    #[must_use]
    pub fn with_sparse(mut self, sparse: SparseHw) -> Self {
        self.sparse = sparse;
        self
    }

    /// The sparse-execution effects of running a layer annotated with
    /// `sparsity` on this configuration, or `None` when the execution is
    /// provably dense (no acceleration feature, or a fully dense layer),
    /// which callers read as [`SparseEffects::DENSE`].
    pub fn sparse_effects(&self, sparsity: &LayerSparsity) -> Option<SparseEffects> {
        self.sparse.effects(sparsity)
    }

    /// Analytic area of the whole configuration: FU arrays, the total
    /// (per-cluster × clusters) buffer pool split into
    /// `banks_per_cluster × clusters` banks, PPUs, and — for multi-cluster
    /// designs — the L2 wormhole routers.
    pub fn area(&self, banks_per_cluster: u64) -> MacroArea {
        let n = self.hw.num_clusters().max(1) as u64;
        let mut area = macro_area(
            self.hw.num_fus(),
            self.hw.buffer_kb * n,
            banks_per_cluster.max(1) * n,
            self.hw.num_ppus,
            &self.tech,
            &self.sram,
        );
        if n > 1 {
            area.noc_um2 += l2_router_area_um2(self.noc.mesh.routers(), &self.tech);
        }
        // Sparse frontend (zero-detect latch or intersection unit) sits on
        // every FU datapath — paid even when the data turns out dense,
        // which is exactly what makes sparse support a real area trade-off.
        // A dense datapath adds exactly 0.0.
        area.array_um2 += self.sparse.accel.frontend_area_um2_per_fu() * self.hw.num_fus() as f64;
        area
    }

    /// Peak power draw (static + full-activity dynamic), in mW — the
    /// quantity design-space power budgets constrain.
    pub fn peak_power_mw(&self) -> f64 {
        self.hw.static_mw + self.hw.dynamic_mw
    }

    // Compute: FU-array cycle counts and datapath energy.

    /// Cycles to execute `macs` multiply-accumulates at the achieved
    /// spatial `utilization` (fraction of peak lanes busy).
    pub fn compute_cycles(&self, macs: i64, utilization: f64) -> i64 {
        let peak_per_cycle = (self.hw.array.0 * self.hw.array.1 * self.hw.num_clusters()) as f64;
        (macs as f64 / (peak_per_cycle * utilization.max(1e-4))).ceil() as i64
    }

    /// Datapath (multiplier + accumulator) energy for `macs` MACs, in pJ.
    pub fn mac_energy_pj(&self, macs: i64) -> f64 {
        // One int8 MAC: 8×8 multiply plus a 32-bit accumulate.
        macs as f64
            * (64.0 * self.tech.mult_energy_pj_per_bit2 + 32.0 * self.tech.add_energy_pj_per_bit)
    }

    /// Clock-tree / operand-network share of the array's dynamic energy
    /// over `time_ns`, scaled by duty cycle and utilization.
    pub fn array_energy_pj(&self, time_ns: f64, busy: f64, utilization: f64) -> f64 {
        self.hw.dynamic_mw * time_ns * busy * utilization * 0.35
    }

    // Memory: DRAM stream time, access energy, leakage.

    /// Cycles to stream `bytes` over the DRAM interface (double-buffered,
    /// so callers overlap this against compute).
    pub fn dram_cycles(&self, bytes: i64) -> i64 {
        let bytes_per_cycle = self.hw.dram_gbps / self.tech.freq_ghz; // GB/s ÷ Gcycle/s
        (bytes as f64 / bytes_per_cycle).ceil() as i64
    }

    /// DRAM access energy for `bytes`, in pJ.
    pub fn dram_energy_pj(&self, bytes: i64) -> f64 {
        bytes as f64 * self.tech.dram_pj_per_byte
    }

    /// On-chip buffer energy for `accesses` single-element accesses, in pJ.
    pub fn sram_energy_pj(&self, accesses: i64) -> f64 {
        self.sram.access_energy_pj(self.hw.buffer_kb * 1024, 1) * accesses as f64
    }

    /// Static (leakage + clock) energy over `time_ns`, in pJ.
    pub fn static_energy_pj(&self, time_ns: f64) -> f64 {
        self.hw.static_mw * time_ns // mW × ns = pJ
    }

    // NoC: the L1 distribution network and the L2 cluster mesh.

    /// Pipeline-fill cycles of the L1 distribution network (butterfly
    /// stages between the buffer and the FU array).
    pub fn l1_fill_cycles(&self) -> i64 {
        i64::from(self.noc.butterfly.stages())
    }

    /// Full latency of routing `traffic` over the L2 mesh: worst-case X-Y
    /// head latency plus wormhole serialization. Zero for a single cluster.
    pub fn l2_latency(&self, traffic: &L2Traffic) -> Transfer {
        if self.hw.num_clusters() <= 1 {
            return Transfer { cycles: 0, hops: 0 };
        }
        // Scatter and multicast traffic share the injection port, so their
        // serialization adds; halo exchange rides neighbor links and
        // overlaps, so the slower of the two streams bounds the transfer.
        let port_bytes = (traffic.scatter_bytes + traffic.broadcast_bytes).max(0) as u64;
        let inject = self.noc.mesh.scatter(port_bytes);
        let halo_cycles = if traffic.halo_bytes > 0 {
            // `halo_bytes` totals every boundary; the exchanges overlap, so
            // latency is one boundary's share streamed over its own link.
            let boundaries = (self.noc.mesh.routers() - 1).max(1);
            self.noc
                .mesh
                .neighbor_exchange((traffic.halo_bytes as u64).div_ceil(boundaries))
                .cycles
        } else {
            0
        };
        Transfer {
            cycles: inject.cycles.max(halo_cycles),
            hops: inject.hops,
        }
    }

    /// The non-overlappable part of [`CostContext::l2_latency`]: the X-Y
    /// head latency to the farthest cluster. The serialized body streams
    /// behind the head and may overlap with the compute/memory body.
    pub fn l2_head_cycles(&self) -> i64 {
        if self.hw.num_clusters() <= 1 {
            return 0;
        }
        (self.noc.mesh.max_hops() * u64::from(self.noc.mesh.hop_cycles)) as i64
    }

    /// Transport energy of moving `dram_bytes` through the distribution
    /// network(s) plus `halo_bytes` of neighbor exchange, in pJ.
    pub fn transport_energy_pj(&self, dram_bytes: i64, halo_bytes: i64) -> f64 {
        let per_byte_hop = self.tech.noc_pj_per_byte_hop;
        if self.hw.num_clusters() > 1 {
            dram_bytes as f64 * self.noc.mesh.mean_hops() * per_byte_hop
                + halo_bytes as f64 * per_byte_hop
        } else {
            // Single cluster: only the L1 distribution network toggles.
            dram_bytes as f64 * 0.25 * per_byte_hop
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(clusters: (u32, u32)) -> CostContext {
        let mut hw = HwConfig::lego_256();
        hw.clusters = clusters;
        CostContext::new(hw, TechModel::default())
    }

    #[test]
    fn clusters_divide_compute_cycles() {
        let single = ctx((1, 1));
        let quad = ctx((2, 2));
        let macs = 1 << 20;
        assert_eq!(
            single.compute_cycles(macs, 1.0),
            4 * quad.compute_cycles(macs, 1.0)
        );
    }

    #[test]
    fn l2_latency_is_zero_for_one_cluster_and_positive_otherwise() {
        let traffic = L2Traffic {
            scatter_bytes: 4096,
            broadcast_bytes: 1024,
            halo_bytes: 0,
        };
        assert_eq!(ctx((1, 1)).l2_latency(&traffic).cycles, 0);
        assert_eq!(ctx((1, 1)).l2_head_cycles(), 0);
        let quad = ctx((2, 2));
        assert!(quad.l2_latency(&traffic).cycles > 0);
        assert!(quad.l2_head_cycles() > 0);
    }

    #[test]
    fn l2_latency_monotone_in_hop_distance() {
        // Same cluster count, longer mesh diagonal ⇒ no cheaper.
        let traffic = L2Traffic {
            scatter_bytes: 1 << 16,
            broadcast_bytes: 1 << 12,
            halo_bytes: 512,
        };
        let compact = ctx((2, 4)).l2_latency(&traffic);
        let strip = ctx((1, 8)).l2_latency(&traffic);
        assert!(compact.hops < strip.hops);
        assert!(compact.cycles <= strip.cycles);
    }

    #[test]
    fn halo_latency_is_per_boundary_not_total() {
        // 8 clusters in a strip have 7 boundaries; the exchanges overlap,
        // so 7 × 1024 B of total halo streams as one 1024 B exchange.
        let c = ctx((1, 8));
        let traffic = L2Traffic {
            scatter_bytes: 0,
            broadcast_bytes: 0,
            halo_bytes: 7 * 1024,
        };
        let per_boundary = c.noc.mesh.neighbor_exchange(1024).cycles;
        assert_eq!(c.l2_latency(&traffic).cycles, per_boundary);
    }

    #[test]
    fn area_adds_routers_only_for_multi_cluster() {
        let single = ctx((1, 1)).area(32);
        let quad = ctx((2, 2)).area(32);
        // Four clusters: 4× arrays and buffers, plus routers.
        assert!(quad.array_um2 > 3.9 * single.array_um2);
        assert!(quad.noc_um2 > 4.0 * single.noc_um2);
        let routers = l2_router_area_um2(4, &TechModel::default());
        assert!((quad.noc_um2 - 4.0 * single.noc_um2 - routers).abs() < 1e-6);
    }

    #[test]
    fn sparse_frontend_is_area_not_a_dense_cost() {
        use lego_sparse::SparseAccel;
        let dense = ctx((1, 1));
        let mut gate = dense.clone();
        gate.sparse = SparseHw::with_accel(SparseAccel::Gating);
        let mut skip = dense.clone();
        skip.sparse = SparseHw::with_accel(SparseAccel::Skipping);
        // Frontend area stacks: none < gating < skipping.
        let a = |c: &CostContext| c.area(32).total_um2();
        assert!(a(&dense) < a(&gate));
        assert!(a(&gate) < a(&skip));
        // A dense layer yields no effects on any datapath: it is priced
        // through `SparseEffects::DENSE`.
        assert!(dense.sparse_effects(&LayerSparsity::dense()).is_none());
        assert!(skip.sparse_effects(&LayerSparsity::dense()).is_none());
        // A sparse layer yields effects only on sparse hardware.
        let sp = LayerSparsity::weights(lego_sparse::DensityModel::two_to_four());
        assert!(dense.sparse_effects(&sp).is_none());
        assert!(skip.sparse_effects(&sp).is_some());
    }

    #[test]
    fn context_matches_reference_energy_constants() {
        let c = ctx((1, 1));
        let t = TechModel::default();
        assert!(
            (c.mac_energy_pj(1000)
                - 1000.0 * (64.0 * t.mult_energy_pj_per_bit2 + 32.0 * t.add_energy_pj_per_bit))
                .abs()
                < 1e-9
        );
        assert_eq!(c.dram_cycles(16_000), 1000); // 16 GB/s at 1 GHz
        assert!((c.static_energy_pj(10.0) - 450.0).abs() < 1e-9); // 45 mW × 10 ns
    }
}
