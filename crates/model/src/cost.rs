//! DAG costing: area, power, FF/LUT resource counts.
//!
//! Every primitive of the backend DAG maps to flip-flop bits, LUT-equivalent
//! logic bits, and multiplier bit-products; [`dag_cost`] rolls them up into
//! ASIC area/power through the [`TechModel`] and FPGA-style FF/LUT counts
//! for the AutoSA comparison (paper Table VIII).

use crate::TechModel;
use lego_backend::{Dag, Prim};

/// FPGA-style resource counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FpgaCost {
    /// Flip-flop count.
    pub ff: f64,
    /// LUT count (logic-bit equivalents).
    pub lut: f64,
    /// DSP slices (one per multiplier).
    pub dsp: f64,
}

/// Rolled-up cost of one DAG under a technology model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DagCost {
    /// Logic area in µm² (excludes SRAM).
    pub area_um2: f64,
    /// Dynamic power in mW at full activity and the model's frequency.
    pub dynamic_mw: f64,
    /// Static power in mW.
    pub static_mw: f64,
    /// Total flip-flop bits (pipeline + FIFO + control + accumulators).
    pub ff_bits: f64,
    /// FPGA-style counts.
    pub fpga: FpgaCost,
}

impl DagCost {
    /// Total power (mW).
    pub fn total_mw(&self) -> f64 {
        self.dynamic_mw + self.static_mw
    }
}

/// Computes area/power/resource cost of a DAG.
///
/// `activity` scales dynamic power (1.0 = every node toggles every cycle);
/// clock-gated edges contribute dynamic power scaled by the fraction of
/// dataflows that use them (the §V-D power-gating benefit).
pub fn dag_cost(dag: &Dag, tech: &TechModel, activity: f64) -> DagCost {
    let mut area = 0.0f64;
    let mut dyn_pj_per_cycle = 0.0f64;
    let mut ff_bits = 0.0f64;
    let mut lut_bits = 0.0f64;
    let mut dsp = 0.0f64;

    for node in &dag.nodes {
        let w = f64::from(node.width.max(1));
        match &node.prim {
            Prim::Mul => {
                // Operand widths multiply; approximate by (w/2)² since the
                // output is the sum of the operand widths.
                let bit2 = (w / 2.0) * (w / 2.0);
                area += bit2 * tech.mult_area_um2_per_bit2;
                dyn_pj_per_cycle += bit2 * tech.mult_energy_pj_per_bit2;
                dsp += 1.0;
            }
            Prim::Add | Prim::Max | Prim::Shift => {
                area += w * tech.lut_area_um2;
                dyn_pj_per_cycle += w * tech.add_energy_pj_per_bit;
                lut_bits += w;
                if node.accumulate {
                    area += w * tech.ff_area_um2;
                    dyn_pj_per_cycle += w * tech.ff_energy_pj;
                    ff_bits += w;
                }
            }
            Prim::Reducer { inputs } => {
                // Balanced tree: inputs-1 adders plus a register per level.
                let adders = (*inputs as f64 - 1.0).max(0.0);
                area += adders * w * tech.lut_area_um2;
                dyn_pj_per_cycle += adders * w * tech.add_energy_pj_per_bit;
                lut_bits += adders * w;
                let levels = (usize::BITS - inputs.max(&1).leading_zeros()) as f64;
                area += levels * w * tech.ff_area_um2;
                dyn_pj_per_cycle += levels * w * tech.ff_energy_pj;
                ff_bits += levels * w;
                if node.accumulate {
                    area += w * tech.ff_area_um2;
                    ff_bits += w;
                }
            }
            Prim::Mux { inputs } => {
                let ins = *inputs as f64;
                area += ins * w * tech.mux_area_um2_per_bit;
                dyn_pj_per_cycle += ins * w * tech.add_energy_pj_per_bit * 0.2;
                lut_bits += ins * w * 0.5;
            }
            Prim::Fifo { depth } => {
                let max_depth = depth.iter().flatten().copied().max().unwrap_or(0) as f64;
                area += max_depth * w * tech.ff_area_um2;
                dyn_pj_per_cycle += max_depth.min(2.0) * w * tech.ff_energy_pj;
                ff_bits += max_depth * w;
            }
            Prim::Counter { levels } => {
                // One full-width counter per loop level.
                let bits = *levels as f64 * w;
                area += bits * (tech.ff_area_um2 + tech.lut_area_um2);
                dyn_pj_per_cycle += bits * (tech.ff_energy_pj + tech.add_energy_pj_per_bit);
                ff_bits += bits;
                lut_bits += bits;
            }
            Prim::AddrGen { terms } => {
                // terms constant-multiplies + adds at address width, plus an
                // output register.
                let bits = *terms as f64 * w;
                area += bits * tech.lut_area_um2 * 1.5 + w * tech.ff_area_um2;
                dyn_pj_per_cycle += bits * tech.add_energy_pj_per_bit + w * tech.ff_energy_pj;
                ff_bits += w;
                lut_bits += bits * 1.5;
            }
            Prim::CtrlFwd => {
                area += w * tech.ff_area_um2;
                dyn_pj_per_cycle += w * tech.ff_energy_pj;
                ff_bits += w;
            }
            Prim::ReadPort { .. } | Prim::WritePort { .. } => {
                // Port register + handshake.
                area += w * (tech.ff_area_um2 + 0.5 * tech.lut_area_um2);
                dyn_pj_per_cycle += w * tech.ff_energy_pj;
                ff_bits += w;
                lut_bits += 0.5 * w;
            }
            Prim::Const { .. } => {}
        }
    }

    for e in &dag.edges {
        let w = f64::from(e.width.max(1));
        let regs = e.extra_regs as f64;
        area += regs * w * tech.ff_area_um2;
        ff_bits += regs * w;
        // Gated edges only toggle in the dataflows that use them.
        let act = e.active.iter().filter(|&&a| a).count() as f64 / dag.n_dataflows.max(1) as f64;
        let toggle = if e.gated { act } else { 1.0 };
        dyn_pj_per_cycle += regs * w * tech.ff_energy_pj * toggle;
        // Wire toggle energy.
        dyn_pj_per_cycle += w * 0.0004 * toggle;
    }

    let dynamic_mw = dyn_pj_per_cycle * tech.freq_ghz * activity;
    let static_mw = area * tech.static_uw_per_um2 / 1000.0;
    DagCost {
        area_um2: area,
        dynamic_mw,
        static_mw,
        ff_bits,
        fpga: FpgaCost {
            ff: ff_bits,
            lut: lut_bits,
            dsp,
        },
    }
}

/// Area breakdown of a whole accelerator *configuration*.
///
/// [`dag_cost`] prices a generated primitive DAG; this estimate prices a
/// configuration (FU count, buffer capacity, PPUs) before any hardware is
/// generated, which is what a design-space search needs — thousands of
/// candidate configurations per second, not one RTL elaboration each. The
/// constants count the same primitives the DAG costing uses (8-bit
/// multiplier, 32-bit accumulator and adder, operand registers, distribution
/// muxes) and land the paper's 256-FU / 256 KB point near its reported
/// 1.76 mm² (Figure 12a, buffers ≈ 86 % of area).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroArea {
    /// FU array (multipliers, accumulators, operand registers).
    pub array_um2: f64,
    /// On-chip SRAM macros.
    pub sram_um2: f64,
    /// Distribution/reduction network registers.
    pub noc_um2: f64,
    /// Post-processing units (LUT + reduction tree each).
    pub ppu_um2: f64,
}

impl MacroArea {
    /// Total area in µm².
    pub fn total_um2(&self) -> f64 {
        self.array_um2 + self.sram_um2 + self.noc_um2 + self.ppu_um2
    }
}

/// Analytic area of an accelerator configuration (see [`MacroArea`]).
///
/// # Panics
///
/// Panics if `buffer_kb == 0` or `banks == 0`.
pub fn macro_area(
    num_fus: i64,
    buffer_kb: u64,
    banks: u64,
    num_ppus: i64,
    tech: &TechModel,
    sram: &crate::SramModel,
) -> MacroArea {
    let fus = num_fus.max(1) as f64;
    // One int8 FU: 8×8 multiplier, 32-bit accumulator + adder, two 8-bit
    // operand registers, and a 2-input operand mux.
    let per_fu = 64.0 * tech.mult_area_um2_per_bit2
        + 32.0 * (tech.ff_area_um2 + tech.lut_area_um2)
        + 16.0 * tech.ff_area_um2
        + 16.0 * tech.mux_area_um2_per_bit;
    // Distribution/drain pipeline: ~24 register bits per FU.
    let noc_per_fu = 24.0 * tech.ff_area_um2;
    // One PPU: 256-entry×8-bit LUT plus a 32-bit 8-way reduction tree.
    let per_ppu = 256.0 * 8.0 * 0.35 + 8.0 * 32.0 * tech.lut_area_um2 + 64.0 * tech.ff_area_um2;
    MacroArea {
        array_um2: fus * per_fu,
        sram_um2: sram.area_um2(buffer_kb * 1024, banks),
        noc_um2: fus * noc_per_fu,
        ppu_um2: num_ppus.max(0) as f64 * per_ppu,
    }
}

/// Area of the L2 wormhole-mesh routers in µm² (`routers` ≥ 1 per
/// cluster): a 5-port, 16-byte crossbar of muxes plus flit buffering.
/// Matches the Table IV scaling harness, which shows the L2 NoC staying
/// under 10 % of total area.
pub fn l2_router_area_um2(routers: u64, tech: &TechModel) -> f64 {
    let per_router = 128.0 * 16.0 * tech.mux_area_um2_per_bit + 512.0 * tech.ff_area_um2;
    routers as f64 * per_router
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_backend::{lower, optimize, BackendConfig, OptimizeOptions};
    use lego_frontend::{build_adg, FrontendConfig};
    use lego_ir::kernels::{self, dataflows};

    fn cost_of(
        w: &lego_ir::Workload,
        dfs: &[lego_ir::Dataflow],
        opts: &OptimizeOptions,
    ) -> DagCost {
        let adg = build_adg(w, dfs, &FrontendConfig::default()).unwrap();
        let mut dag = lower(&adg, &BackendConfig::default());
        optimize(&mut dag, opts);
        dag_cost(&dag, &TechModel::default(), 1.0)
    }

    #[test]
    fn optimized_design_is_cheaper() {
        let gemm = kernels::gemm(16, 4, 4);
        let df = dataflows::par2(&gemm, "k", 4, "j", 4, "KJ").unwrap();
        let base = cost_of(
            &gemm,
            std::slice::from_ref(&df),
            &OptimizeOptions::baseline(),
        );
        let opt = cost_of(&gemm, &[df], &OptimizeOptions::default());
        assert!(opt.area_um2 < base.area_um2, "{opt:?} vs {base:?}");
        assert!(opt.total_mw() <= base.total_mw());
    }

    #[test]
    fn shared_control_beats_per_fu_control() {
        // The Table VI/VIII mechanism: per-FU control multiplies FF cost.
        let gemm = kernels::gemm(16, 8, 8);
        let df = dataflows::gemm_ij(&gemm, 8);
        let adg = build_adg(&gemm, &[df], &FrontendConfig::default()).unwrap();
        let mut shared = lower(&adg, &BackendConfig::default());
        let mut perfu = lower(
            &adg,
            &BackendConfig {
                per_fu_control: true,
            },
        );
        optimize(&mut shared, &OptimizeOptions::default());
        optimize(&mut perfu, &OptimizeOptions::default());
        let t = TechModel::default();
        let cs = dag_cost(&shared, &t, 1.0);
        let cp = dag_cost(&perfu, &t, 1.0);
        assert!(
            cp.fpga.ff > 2.0 * cs.fpga.ff,
            "per-FU control FF {} vs shared {}",
            cp.fpga.ff,
            cs.fpga.ff
        );
    }

    #[test]
    fn macro_area_lands_near_paper_figure12() {
        let t = TechModel::default();
        let s = crate::SramModel::default();
        let a = macro_area(256, 256, 32, 16, &t, &s);
        let mm2 = a.total_um2() / 1e6;
        // Paper: 1.76 mm² with buffers at ~86 % of area.
        assert!(mm2 > 1.0 && mm2 < 2.5, "total {mm2} mm²");
        assert!(a.sram_um2 / a.total_um2() > 0.6, "{a:?}");
        // Monotone in every resource.
        let bigger = macro_area(1024, 576, 64, 32, &t, &s);
        assert!(bigger.total_um2() > a.total_um2());
    }

    #[test]
    fn larger_arrays_cost_more() {
        let g1 = kernels::gemm(8, 4, 4);
        let g2 = kernels::gemm(8, 8, 8);
        let c1 = cost_of(
            &g1,
            &[dataflows::gemm_ij(&g1, 4)],
            &OptimizeOptions::default(),
        );
        let c2 = cost_of(
            &g2,
            &[dataflows::gemm_ij(&g2, 8)],
            &OptimizeOptions::default(),
        );
        assert!(c2.area_um2 > 2.0 * c1.area_um2);
        assert!(c2.fpga.dsp == 4.0 * c1.fpga.dsp);
    }
}
