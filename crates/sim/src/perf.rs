//! Layer-level performance/energy evaluation.
//!
//! Every cost a layer pays — FU cycles, DRAM streams, SRAM/DRAM/NoC energy,
//! L2 mesh latency — is charged through the [`CostContext`] built from the
//! [`HwConfig`](lego_model::HwConfig) under evaluation, so the simulation
//! and the design-space search price hardware through one stack.

use lego_model::{CostContext, L2Traffic, SparseEffects, SpatialMapping, TechModel};
use lego_workloads::{Layer, LayerKind, Model};

/// Energy breakdown of one layer execution (picojoules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// MAC (datapath) energy.
    pub mac_pj: f64,
    /// On-chip buffer access energy.
    pub sram_pj: f64,
    /// DRAM traffic energy.
    pub dram_pj: f64,
    /// NoC transport energy.
    pub noc_pj: f64,
    /// Static energy over the layer's runtime.
    pub static_pj: f64,
    /// Post-processing unit energy.
    pub ppu_pj: f64,
    /// Sparse frontend + format-decode energy (zero for a dense execution).
    pub sparse_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.mac_pj
            + self.sram_pj
            + self.dram_pj
            + self.noc_pj
            + self.static_pj
            + self.ppu_pj
            + self.sparse_pj
    }
}

/// Result of simulating one layer instance.
///
/// Plain `Copy` data (every field is scalar), so cache hits, report rows,
/// and aggregation inputs are register copies, never heap traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPerf {
    /// Execution cycles (compute/memory overlapped, PPU serialized).
    pub cycles: i64,
    /// Spatial utilization of the FU array in [0, 1].
    pub utilization: f64,
    /// MAC operations executed.
    pub macs: i64,
    /// DRAM bytes moved.
    pub dram_bytes: i64,
    /// L1 accesses (reads + writes).
    pub l1_accesses: i64,
    /// Cycles spent in post-processing (already included in `cycles`).
    pub ppu_cycles: i64,
    /// Modeled L2-mesh transfer cycles for multi-cluster designs (head
    /// serialized into `cycles`, stream overlapped against the body);
    /// zero for a single cluster.
    pub noc_cycles: i64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// The mapping that was used.
    pub mapping: SpatialMapping,
}

/// Aggregated whole-model performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPerf {
    /// Total cycles.
    pub cycles: i64,
    /// Total operations (2 × MACs).
    pub ops: i64,
    /// Throughput in GOP/s at the technology frequency.
    pub gops: f64,
    /// Average power in W.
    pub watts: f64,
    /// Energy efficiency in GOPS/W.
    pub gops_per_watt: f64,
    /// MAC-weighted average utilization.
    pub utilization: f64,
    /// Fraction of total latency spent on post-processing.
    pub ppu_fraction: f64,
    /// Instruction-stream bandwidth demand in GB/s (system overhead check).
    pub instr_gbps: f64,
}

/// Ceiling division for positive i64 (the std `div_ceil` on signed
/// integers is unstable).
fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// `x.ceil() as i64`, bit for bit for every `x` (NaN and infinities
/// included), without the libm call `f64::ceil` compiles to on baseline
/// x86-64. Every scaled count in this module goes through it.
fn ceil_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_add(i64::from((t as f64) < x))
}

/// `dim` work items on `p` lanes: achieved fraction of peak.
fn eff(dim: i64, p: i64) -> f64 {
    if dim <= 0 || p <= 0 {
        return 0.0;
    }
    let waves = div_ceil(dim, p);
    dim as f64 / (waves * p) as f64
}

/// GEMM-view dimensions (m, n, k) of any layer.
fn gemm_view(kind: &LayerKind) -> (i64, i64, i64) {
    match *kind {
        LayerKind::Gemm { m, n, k } => (m, n, k),
        LayerKind::Conv {
            n,
            ic,
            oc,
            oh,
            ow,
            kh,
            kw,
            ..
        } => (n * oh * ow, oc, ic * kh * kw),
        LayerKind::DwConv {
            n,
            c,
            oh,
            ow,
            kh,
            kw,
            ..
        } => (n * oh * ow * c, 1, kh * kw),
        LayerKind::Attention {
            heads,
            seq_q,
            seq_kv,
            dk,
            dv,
        } => {
            // Two chained GEMMs; expose the score GEMM's shape, the PV GEMM
            // has the same aggregate cost.
            (heads * seq_q, seq_kv, dk + dv)
        }
    }
}

/// Spatial utilization of `kind` under `mapping` on a `p0 × p1` array.
fn spatial_utilization(kind: &LayerKind, mapping: SpatialMapping, p0: i64, p1: i64) -> f64 {
    let (m, n, k) = gemm_view(kind);
    match mapping {
        SpatialMapping::GemmMN => eff(m, p0) * eff(n, p1),
        SpatialMapping::GemmKN => eff(k, p0) * eff(n, p1),
        SpatialMapping::ConvIcOc => match *kind {
            LayerKind::Conv { ic, oc, .. } => eff(ic, p0) * eff(oc, p1),
            // Depthwise has one input channel per output channel: the IC
            // axis collapses to a single lane.
            LayerKind::DwConv { c, .. } => eff(1, p0) * eff(c, p1),
            _ => eff(k, p0) * eff(n, p1),
        },
        SpatialMapping::ConvOhOw => match *kind {
            LayerKind::Conv { oh, ow, .. } | LayerKind::DwConv { oh, ow, .. } => {
                eff(oh, p0) * eff(ow, p1)
            }
            // Output-plane parallelism degenerates to M-only for GEMMs.
            _ => eff(m, p0 * p1),
        },
        SpatialMapping::ConvKhOh => match *kind {
            LayerKind::Conv { kh, oh, .. } | LayerKind::DwConv { kh, oh, .. } => {
                eff(kh, p0) * eff(oh, p1)
            }
            _ => eff(m, p1) * eff(1, p0),
        },
    }
}

/// DRAM traffic of a tiled `m×n×k` contraction with a byte budget, each
/// operand scaled by its compressed-to-dense byte ratio in `e`.
///
/// Square-ish L1 tiles with full-`k` panels: each output tile loads a
/// `t×k` input panel and a `k×t` weight panel, outputs are written once
/// (partials stay on chip). The loop order keeps one side stationary —
/// iterating N-tiles innermost re-reads the weight panels once per M-tile
/// sweep while streaming each input panel once, and vice versa — so the
/// traffic is the cheaper of the two orders.
/// `tile_cap = None` keeps the automatic buffer-limited tile choice;
/// `Some(t)` additionally clamps the tile edge to `t`, which trades on-chip
/// reuse for smaller working sets — the tiling axis of the design-space
/// exploration in `lego-explorer`.
///
/// Compression shrinks the streams *and* the working set, so the same
/// buffer holds larger tiles and the re-read sweeps get cheaper — the
/// compound win Sparseloop attributes to compressed on-chip residency.
/// Under [`SparseEffects::DENSE`] every product below is an exact integer
/// (below 2^53), so the dense traffic is exact too; the integer oracle in
/// this module's tests holds it to that.
pub fn tiled_dram_traffic(
    m: i64,
    n: i64,
    k: i64,
    buffer_bytes: i64,
    tile_cap: Option<i64>,
    e: &SparseEffects,
) -> i64 {
    let (w_scale, i_scale, o_scale) = (
        e.weight_bytes_scale,
        e.input_bytes_scale,
        e.output_bytes_scale,
    );
    let weights = (n * k) as f64 * w_scale;
    let inputs = (m * k) as f64 * i_scale;
    let outputs = (m * n) as f64 * o_scale;
    // Pick the largest square tile fitting the double-buffered budget:
    // t·k·(w+i) (weight and input panels) + t²·o (outputs) ≤ B/2. The fit
    // condition is monotone in t, so the edge is the positive root of that
    // quadratic; the two exact walks repair any float rounding against the
    // predicate (they run 0–1 steps).
    let budget = (buffer_bytes / 2).max(64) as f64;
    let cap_mn = m.max(n).max(1);
    let operand = k as f64 * (w_scale + i_scale);
    let root = if o_scale > 0.0 {
        ((operand * operand + 4.0 * o_scale * budget).sqrt() - operand) / (2.0 * o_scale)
    } else if operand > 0.0 {
        budget / operand
    } else {
        cap_mn as f64
    };
    let fits = |t: i64| (t * k) as f64 * (w_scale + i_scale) + (t * t) as f64 * o_scale <= budget;
    let mut t = (root.floor() as i64).clamp(1, cap_mn);
    while t < cap_mn && fits(t + 1) {
        t += 1;
    }
    while t > 1 && !fits(t) {
        t -= 1;
    }
    if let Some(cap) = tile_cap {
        t = t.min(cap.max(1));
    }
    let tm = t.min(m).max(1);
    let tn = t.min(n).max(1);
    let m_sweeps = div_ceil(m, tm);
    let n_sweeps = div_ceil(n, tn);
    // N-innermost: weights re-read once per M-tile, inputs streamed once.
    let n_inner = weights * m_sweeps as f64 + inputs;
    // M-innermost: inputs re-read once per N-tile, weights streamed once.
    let m_inner = weights + inputs * n_sweeps as f64;
    ceil_i64(n_inner.min(m_inner) + outputs)
}

/// Halo bytes exchanged between adjacent clusters when `n_clusters` split
/// a convolution's output rows: every boundary shares `kh - 1` input rows.
fn cluster_halo_bytes(kind: &LayerKind, n_clusters: i64) -> i64 {
    if n_clusters <= 1 {
        return 0;
    }
    match *kind {
        LayerKind::Conv {
            n,
            ic,
            ow,
            kh,
            kw,
            stride,
            ..
        } => (n_clusters - 1) * n * ic * (stride * (ow - 1) + kw) * (kh - 1),
        LayerKind::DwConv {
            n,
            c,
            ow,
            kh,
            kw,
            stride,
            ..
        } => (n_clusters - 1) * n * c * (stride * (ow - 1) + kw) * (kh - 1),
        _ => 0,
    }
}

/// Simulates one layer instance under a fixed mapping, charging every cost
/// through the configuration's [`CostContext`].
///
/// Every cost component is the dense one scaled by the layer's
/// [`SparseEffects`] on this datapath: expected-nonzero MAC counts
/// (skipping), gated datapath energy (gating), compressed DRAM/SRAM
/// traffic, plus frontend/decode overhead energy. When
/// [`CostContext::sparse_effects`] returns `None` — dense hardware or a
/// fully dense layer — the layer is priced under [`SparseEffects::DENSE`].
/// Its unit scales reproduce dense arithmetic bit for bit (`x·1.0` and
/// `x + 0.0` are exact, and every scaled integer stays below 2^53), so this
/// one path prices dense and sparse layers alike.
pub fn simulate_layer_ctx(
    layer: &Layer,
    mapping: SpatialMapping,
    ctx: &CostContext,
    tile_cap: Option<i64>,
) -> LayerPerf {
    let hw = &ctx.hw;
    let (p0, p1) = hw.array;
    let n_clusters = hw.num_clusters();
    let macs = layer.macs();
    let util = spatial_utilization(&layer.kind, mapping, p0, p1).max(1e-4);
    let e = ctx
        .sparse_effects(&layer.sparsity)
        .unwrap_or(SparseEffects::DENSE);

    // Compute cycles: clusters split the M dimension of the layer. A
    // skipping datapath issues only the (imbalance-padded) nonzero MACs,
    // but at least one when the layer has any.
    let issued = ceil_i64(macs as f64 * e.compute_scale).max(macs.min(1));
    let compute_cycles = ctx.compute_cycles(issued, util);

    // DRAM traffic (int8 operands, int8 writeback after quantization);
    // sparse operands stream in their compressed formats.
    let (m, n, k) = gemm_view(&layer.kind);
    let buffer_bytes = hw.buffer_kb as i64 * 1024;
    let mut bytes = tiled_dram_traffic(m, n, k, buffer_bytes, tile_cap, &e);
    // Convs re-read less input than the im2col view thanks to halo overlap;
    // the over-counted input bytes were compressed too.
    if matches!(
        layer.kind,
        LayerKind::Conv { .. } | LayerKind::DwConv { .. }
    ) {
        let dense_in = layer.input_elems();
        let im2col_in = m * k;
        let correction = im2col_in - dense_in.min(im2col_in);
        bytes -= ceil_i64(correction as f64 * e.input_bytes_scale);
    }
    let mem_cycles = ctx.dram_cycles(bytes);

    // L2 mesh feedback: everything that crosses DRAM also crosses the mesh
    // to reach the clusters. Weights are multicast (clusters split M, so
    // every cluster consumes the full weight stream); inputs and outputs
    // are scattered/gathered; convs additionally exchange halo rows between
    // neighbors. The wormhole stream competes with the compute/memory body,
    // and the X-Y head latency to the farthest cluster is serialized.
    let halo_bytes = cluster_halo_bytes(&layer.kind, n_clusters);
    let broadcast_bytes = ceil_i64((n * k) as f64 * e.weight_bytes_scale).min(bytes);
    let l2_traffic = L2Traffic {
        scatter_bytes: (bytes - broadcast_bytes).max(0),
        broadcast_bytes,
        halo_bytes,
    };
    let l2 = ctx.l2_latency(&l2_traffic);
    let l2_head = ctx.l2_head_cycles();
    let noc_cycles = l2.cycles as i64;
    let noc_stream = (noc_cycles - l2_head).max(0);

    // PPU: vectorized LUT + reduction, 4 elements per PPU per cycle,
    // pipelined behind the array so it overlaps with compute/memory; only
    // the non-overlapped tail adds latency (paper Figure 12b).
    let ppu_total = div_ceil(layer.nonlinear_elems().max(0), 4 * hw.num_ppus.max(1));
    let body = compute_cycles.max(mem_cycles).max(noc_stream);
    let ppu_cycles = (ppu_total - body * 4 / 5).max(ppu_total / 16);

    // Pipeline fill/drain: array skew, L1 butterfly stages, L2 mesh head.
    let fill = p0 + p1 + 8 + ctx.l1_fill_cycles() + l2_head;
    let cycles = body + ppu_cycles + fill;

    // L1 accesses: operand reads shrink by the mapping's spatial reuse; the
    // stationary operand also amortizes over the innermost temporal loop.
    let (reuse_in, reuse_w) = match mapping {
        SpatialMapping::GemmMN => (p1, p0), // input row reused across N, weight across M
        SpatialMapping::GemmKN => (p1, 1),
        SpatialMapping::ConvIcOc => (p1, 1),
        SpatialMapping::ConvOhOw => (1, p0 * p1), // weights broadcast over the plane
        SpatialMapping::ConvKhOh => (p0, p1),
    };
    let in_reads = macs / reuse_in.max(1);
    let w_reads = macs / reuse_w.max(1);
    let out_writes = layer.output_elems();
    // A skipping frontend never fetches operands of skipped MACs, and
    // masked outputs are never written (gating keeps all scales at 1).
    let l1_accesses = ceil_i64((in_reads + w_reads) as f64 * e.compute_scale)
        + ceil_i64(out_writes as f64 * e.output_bytes_scale);

    // Energy roll-up through the cost stack. Only effectual MACs toggle the
    // datapath (gating and skipping).
    let time_ns = cycles as f64 / ctx.tech.freq_ghz;
    let busy = compute_cycles as f64 / cycles.max(1) as f64;
    let mac_pj =
        ctx.mac_energy_pj(macs) * e.mac_energy_scale + ctx.array_energy_pj(time_ns, busy, util);
    let sram_pj = ctx.sram_energy_pj(l1_accesses);
    let dram_pj = ctx.dram_energy_pj(bytes);
    let noc_pj = ctx.transport_energy_pj(bytes, halo_bytes);
    let static_pj = ctx.static_energy_pj(time_ns);
    let ppu_pj = ppu_total as f64 * hw.num_ppus as f64 * 0.9;
    // What sparsity costs: the frontend examines MAC positions and the
    // decoders walk the compressed operand streams.
    let sparse_pj = e.overhead_pj(macs, n * k, m * k);

    LayerPerf {
        cycles,
        utilization: util * (compute_cycles as f64 / cycles.max(1) as f64),
        macs,
        dram_bytes: bytes,
        l1_accesses,
        ppu_cycles,
        noc_cycles,
        energy: EnergyBreakdown {
            mac_pj,
            sram_pj,
            dram_pj,
            noc_pj,
            static_pj,
            ppu_pj,
            sparse_pj,
        },
        mapping,
    }
}

/// Picks the best supported mapping for a layer (fewest cycles, then least
/// energy) against a prebuilt [`CostContext`] — the paper's mapping-search
/// tool at layer granularity.
///
/// A configuration with an empty dataflow set cannot map anything
/// ([`HwConfig::validate`](lego_model::HwConfig::validate) rejects it);
/// rather than panic, the layer falls back to the universal im2col `GemmMN`
/// mapping. Ties in cycles go to the lower energy, and remaining ties to
/// the earlier mapping in the menu; the order is total, so a NaN energy
/// cannot panic the search.
pub fn best_mapping_ctx(layer: &Layer, ctx: &CostContext, tile_cap: Option<i64>) -> LayerPerf {
    ctx.hw
        .dataflows
        .iter()
        .map(|&m| simulate_layer_ctx(layer, m, ctx, tile_cap))
        .min_by(|a, b| {
            a.cycles
                .cmp(&b.cycles)
                .then_with(|| a.energy.total_pj().total_cmp(&b.energy.total_pj()))
        })
        .unwrap_or_else(|| simulate_layer_ctx(layer, SpatialMapping::GemmMN, ctx, tile_cap))
}

/// Aggregates `(count, per-layer result)` pairs into whole-model numbers
/// in a single pass over borrowed results.
///
/// Each output keeps its own accumulator, summed in iteration order, so the
/// float results depend only on that order and no caller has to materialise
/// a `Vec<(i64, LayerPerf)>` just to aggregate.
pub fn aggregate_iter<'a, I>(model: &Model, perfs: I, tech: &TechModel) -> ModelPerf
where
    I: IntoIterator<Item = (i64, &'a LayerPerf)>,
{
    let mut cycles: i64 = 0;
    let mut ppu: i64 = 0;
    let mut energy_pj: f64 = 0.0;
    let mut util_num: f64 = 0.0;
    let mut util_den: f64 = 0.0;
    let mut instrs: f64 = 0.0;
    for (c, p) in perfs {
        cycles += c * p.cycles;
        ppu += c * p.ppu_cycles;
        energy_pj += c as f64 * p.energy.total_pj();
        util_num += (c * p.macs) as f64 * p.utilization;
        util_den += (c * p.macs) as f64;
        instrs += c as f64 * 24.0;
    }
    let ops = model.total_ops();
    let time_s = cycles as f64 / (tech.freq_ghz * 1e9);
    let watts = energy_pj * 1e-12 / time_s.max(1e-12);
    let gops = ops as f64 / 1e9 / time_s.max(1e-12);
    let util = util_num / util_den.max(1.0);
    // Instruction stream: ~32 B of configuration per tile of work; tiles
    // approximated by layer count × sweeps (≥ 2000 cycles per instruction
    // per the paper's §VI-B system-overhead analysis).
    let instr_gbps = instrs * 32.0 / time_s.max(1e-12) / 1e9;

    ModelPerf {
        cycles,
        ops,
        gops,
        watts,
        gops_per_watt: gops / watts.max(1e-9),
        utilization: util,
        ppu_fraction: ppu as f64 / cycles.max(1) as f64,
        instr_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_model::{DensityModel, HwConfig, LayerSparsity, SparseAccel, SparseHw};
    use lego_workloads::zoo;

    const DENSE: SparseEffects = SparseEffects::DENSE;

    /// The integer tile solver that [`tiled_dram_traffic`] replaced: every
    /// dense traffic figure is held to it exactly.
    fn tiled_dram_traffic_reference(
        m: i64,
        n: i64,
        k: i64,
        buffer_bytes: i64,
        tile_cap: Option<i64>,
    ) -> i64 {
        let weights = n * k;
        let inputs = m * k;
        let outputs = m * n;
        // Largest square tile with t·k (weights) + t·k (inputs) + t·t
        // (outputs) ≤ B/2, walked from the positive root √(k² + B) − k.
        let budget = (buffer_bytes / 2).max(64);
        let cap_mn = m.max(n).max(1);
        let root = ((k as f64) * (k as f64) + budget as f64).sqrt() - k as f64;
        let mut t = (root.floor() as i64).clamp(1, cap_mn);
        while (t + 1) * k * 2 + (t + 1) * (t + 1) <= budget && t < cap_mn {
            t += 1;
        }
        while t > 1 && t * k * 2 + t * t > budget {
            t -= 1;
        }
        if let Some(cap) = tile_cap {
            t = t.min(cap.max(1));
        }
        let tm = t.min(m).max(1);
        let tn = t.min(n).max(1);
        let n_inner = weights * div_ceil(m, tm) + inputs;
        let m_inner = weights + inputs * div_ceil(n, tn);
        n_inner.min(m_inner) + outputs
    }

    fn tech() -> TechModel {
        TechModel::default()
    }

    fn ctx_of(hw: &HwConfig) -> CostContext {
        CostContext::new(hw.clone(), tech())
    }

    fn sim(layer: &Layer, mapping: SpatialMapping, hw: &HwConfig) -> LayerPerf {
        simulate_layer_ctx(layer, mapping, &ctx_of(hw), None)
    }

    fn best(layer: &Layer, hw: &HwConfig) -> LayerPerf {
        best_mapping_ctx(layer, &ctx_of(hw), None)
    }

    fn sim_model(model: &Model, hw: &HwConfig) -> ModelPerf {
        let ctx = ctx_of(hw);
        let perfs: Vec<(i64, LayerPerf)> = model
            .layers
            .iter()
            .map(|l| (l.count, best_mapping_ctx(l, &ctx, None)))
            .collect();
        aggregate_iter(model, perfs.iter().map(|(c, p)| (*c, p)), &tech())
    }

    #[test]
    fn utilization_model_basics() {
        // Perfect fit.
        let k = LayerKind::Gemm {
            m: 64,
            n: 64,
            k: 64,
        };
        assert!((spatial_utilization(&k, SpatialMapping::GemmMN, 16, 16) - 1.0).abs() < 1e-9);
        // Remainder wave: 20 rows on 16 lanes → 20/32.
        let k = LayerKind::Gemm {
            m: 20,
            n: 64,
            k: 64,
        };
        assert!(
            (spatial_utilization(&k, SpatialMapping::GemmMN, 16, 16) - 20.0 / 32.0).abs() < 1e-9
        );
        // Depthwise on ICOC collapses to one lane of 16.
        let dw = LayerKind::DwConv {
            n: 1,
            c: 64,
            oh: 28,
            ow: 28,
            kh: 3,
            kw: 3,
            stride: 1,
        };
        assert!(spatial_utilization(&dw, SpatialMapping::ConvIcOc, 16, 16) <= 1.0 / 16.0 + 1e-9);
        // ...but OHOW keeps it busy.
        assert!(spatial_utilization(&dw, SpatialMapping::ConvOhOw, 16, 16) > 0.7);
    }

    #[test]
    fn decode_gemv_is_memory_bound() {
        let hw = HwConfig::lego_256();
        let l = lego_workloads::Layer::new(
            "ffn",
            LayerKind::Gemm {
                m: 1,
                n: 3072,
                k: 768,
            },
        );
        let p = best(&l, &hw);
        // Weights dominate traffic; utilization collapses.
        assert!(p.dram_bytes >= 3072 * 768);
        assert!(p.utilization < 0.1, "{p:?}");
    }

    #[test]
    fn dataflow_switching_saves_depthwise() {
        let hw_fused = HwConfig::lego_256();
        let mut hw_icoc = HwConfig::lego_256();
        hw_icoc.dataflows = vec![SpatialMapping::GemmMN, SpatialMapping::ConvIcOc];
        let dw = lego_workloads::Layer::new(
            "dw",
            LayerKind::DwConv {
                n: 1,
                c: 144,
                oh: 56,
                ow: 56,
                kh: 3,
                kw: 3,
                stride: 1,
            },
        );
        let fused = best(&dw, &hw_fused);
        let icoc = best(&dw, &hw_icoc);
        assert!(
            icoc.cycles > 3 * fused.cycles,
            "OHOW must rescue depthwise: {} vs {}",
            icoc.cycles,
            fused.cycles
        );
        assert_eq!(fused.mapping, SpatialMapping::ConvOhOw);
    }

    #[test]
    fn empty_dataflow_set_falls_back_instead_of_panicking() {
        let mut hw = HwConfig::lego_256();
        hw.dataflows.clear();
        assert!(hw.validate().is_err());
        let l = lego_workloads::Layer::new(
            "g",
            LayerKind::Gemm {
                m: 64,
                n: 64,
                k: 64,
            },
        );
        let p = best(&l, &hw);
        assert_eq!(p.mapping, SpatialMapping::GemmMN);
        assert!(p.cycles > 0);
    }

    #[test]
    fn model_aggregate_is_consistent() {
        let hw = HwConfig::lego_256();
        let m = zoo::resnet50();
        let perf = sim_model(&m, &hw);
        assert!(perf.gops > 50.0, "{perf:?}");
        assert!(perf.gops_per_watt > 100.0, "{perf:?}");
        assert!(perf.utilization > 0.3, "{perf:?}");
        assert!(perf.ppu_fraction < 0.25, "{perf:?}");
    }

    #[test]
    fn ppu_overhead_is_small_across_models() {
        let hw = HwConfig::lego_256();
        for m in zoo::figure11_models() {
            let perf = sim_model(&m, &hw);
            assert!(
                perf.ppu_fraction < 0.30,
                "{}: PPU fraction {}",
                m.name,
                perf.ppu_fraction
            );
        }
    }

    #[test]
    fn instruction_overhead_below_one_percent() {
        let hw = HwConfig::lego_256();
        let perf = sim_model(&zoo::resnet50(), &hw);
        assert!(
            perf.instr_gbps < 0.01 * hw.dram_gbps,
            "instr {} GB/s",
            perf.instr_gbps
        );
    }

    #[test]
    fn tiled_traffic_matches_hand_count() {
        // 6×4·4×2 GEMM, tiles capped at 2: tm = tn = 2, so 3 M-sweeps and
        // 2 N-sweeps over full-k panels. Weights (n·k = 8) streamed once
        // with inputs (m·k = 12) re-read per N-sweep: 8 + 12·2 = 32 beats
        // re-reading weights per M-sweep (8·3 + 12 = 36). Outputs (24)
        // written once. Hand count: 32 + 24 = 56.
        assert_eq!(tiled_dram_traffic(6, 4, 2, 128, Some(2), &DENSE), 56);
        // The mirrored shape swaps the operand roles and loop order, so by
        // symmetry the traffic is identical: weights (12) re-read per
        // M-sweep (×2) with inputs (8) streamed once, plus 24 outputs.
        assert_eq!(
            tiled_dram_traffic(4, 6, 2, 128, Some(2), &DENSE),
            12 * 2 + 8 + 24
        );
    }

    #[test]
    fn tiled_traffic_never_rereads_both_operands() {
        // The cheaper loop order keeps one operand stationary: traffic is
        // bounded by one full pass of one operand plus sweeps of the other,
        // never sweeps of both.
        for (m, n, k, cap) in [(64, 8, 16, 4), (8, 64, 16, 4), (128, 128, 32, 8)] {
            let t = tiled_dram_traffic(m, n, k, 1024, Some(cap), &DENSE);
            let tm = cap.min(m);
            let tn = cap.min(n);
            let both = n * k * div_ceil(m, tm) + m * k * div_ceil(n, tn) + m * n;
            assert!(t < both, "({m},{n},{k}): {t} should beat {both}");
        }
    }

    #[test]
    fn tile_cap_only_adds_traffic() {
        let b = 256 * 1024;
        let auto = tiled_dram_traffic(512, 512, 512, b, None, &DENSE);
        for cap in [4, 8, 16, 64, 1 << 20] {
            let capped = tiled_dram_traffic(512, 512, 512, b, Some(cap), &DENSE);
            assert!(capped >= auto, "cap {cap}: {capped} < {auto}");
        }
        // A generous cap is a no-op, so the uncapped path is the None case.
        let hw = HwConfig::lego_256();
        let l = lego_workloads::Layer::new(
            "g",
            LayerKind::Gemm {
                m: 256,
                n: 256,
                k: 256,
            },
        );
        let a = sim(&l, SpatialMapping::GemmMN, &hw);
        let b = simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx_of(&hw), Some(1 << 20));
        assert_eq!(a, b);
    }

    #[test]
    fn clusters_charge_nonzero_noc_latency() {
        // Same 1024 total FUs: one 32×32 array vs four 16×16 clusters, with
        // DRAM fast enough (64 B/cycle) that the clustered design's 16 B
        // mesh injection port becomes the bottleneck. The clustered design
        // must pay modeled L2 latency, not just energy.
        let mut flat = HwConfig::lego_256();
        flat.array = (32, 32);
        flat.dram_gbps = 64.0;
        let mut tiled = HwConfig::lego_256();
        tiled.array = (16, 16);
        tiled.clusters = (2, 2);
        tiled.dram_gbps = 64.0;
        let l = lego_workloads::Layer::new(
            "g",
            LayerKind::Gemm {
                m: 512,
                n: 512,
                k: 64,
            },
        );
        let pf = sim(&l, SpatialMapping::GemmMN, &flat);
        let pt = sim(&l, SpatialMapping::GemmMN, &tiled);
        assert_eq!(pf.noc_cycles, 0);
        assert!(pt.noc_cycles > 0, "{pt:?}");
        assert!(
            pt.cycles > pf.cycles,
            "clustered {} vs flat {}",
            pt.cycles,
            pf.cycles
        );
        assert!(pt.energy.noc_pj > pf.energy.noc_pj);
    }

    #[test]
    fn cycles_monotone_in_mesh_hop_distance() {
        // Fixed workload, fixed cluster count: stretching the mesh diagonal
        // (more X-Y hops to the farthest cluster) never speeds a layer up.
        let l = lego_workloads::Layer::new(
            "g",
            LayerKind::Gemm {
                m: 1024,
                n: 256,
                k: 256,
            },
        );
        let cycles_of = |clusters: (u32, u32)| {
            let mut hw = HwConfig::lego_256();
            hw.clusters = clusters;
            (
                hw.l2_mesh().max_hops(),
                sim(&l, SpatialMapping::GemmMN, &hw).cycles,
            )
        };
        // 8 clusters arranged from compact to strip: hop distance 4 → 7.
        let mut shapes: Vec<(u64, i64)> =
            vec![cycles_of((2, 4)), cycles_of((4, 2)), cycles_of((1, 8))];
        shapes.sort_by_key(|&(hops, _)| hops);
        for w in shapes.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "cycles must be non-decreasing in hop distance: {shapes:?}"
            );
        }
        // The longer diagonal costs strictly more: its serialized X-Y head
        // is longer while every overlapped stream is identical.
        assert!(shapes.first().unwrap().1 < shapes.last().unwrap().1);
    }

    #[test]
    fn conv_clusters_pay_halo_exchange() {
        let conv = LayerKind::Conv {
            n: 1,
            ic: 64,
            oc: 64,
            oh: 56,
            ow: 56,
            kh: 3,
            kw: 3,
            stride: 1,
        };
        assert_eq!(cluster_halo_bytes(&conv, 1), 0);
        let h4 = cluster_halo_bytes(&conv, 4);
        assert_eq!(h4, 3 * 64 * 58 * 2);
        // GEMMs have no halo.
        assert_eq!(
            cluster_halo_bytes(
                &LayerKind::Gemm {
                    m: 64,
                    n: 64,
                    k: 64
                },
                4
            ),
            0
        );
    }

    #[test]
    fn dense_traffic_matches_the_integer_oracle() {
        let check = |m: i64, n: i64, k: i64, buffer: i64, cap: Option<i64>| {
            assert_eq!(
                tiled_dram_traffic(m, n, k, buffer, cap, &DENSE),
                tiled_dram_traffic_reference(m, n, k, buffer, cap),
                "({m},{n},{k}) buffer {buffer} cap {cap:?}"
            );
        };
        // Fixed grid: the GEMM view of every zoo layer, plus edge shapes,
        // under buffers from 0 to 16 MiB and every cap from 1 to 256.
        let mut models = zoo::figure11_models();
        models.extend(zoo::sparse_models());
        models.extend([
            zoo::lenet(),
            zoo::ddpm(),
            zoo::stable_diffusion(),
            zoo::llama7b_decode(1),
            zoo::llama7b_decode(32),
        ]);
        let mut shapes: Vec<(i64, i64, i64)> = models
            .iter()
            .flat_map(|model| model.layers.iter().map(|l| gemm_view(&l.kind)))
            .chain([(6, 4, 2), (1, 3072, 768), (50257, 768, 1), (1, 1, 1)])
            .collect();
        shapes.sort_unstable();
        shapes.dedup();
        let buffers = [
            0,
            127,
            128,
            4096,
            64 << 10,
            256 << 10,
            576 << 10,
            4 << 20,
            16 << 20,
        ];
        let caps = std::iter::once(None).chain((1..=256).map(Some));
        for &(m, n, k) in &shapes {
            for buffer in buffers {
                for cap in caps.clone() {
                    check(m, n, k, buffer, cap);
                }
            }
        }
        // Seeded random shapes and buffers (SplitMix64), both spread over
        // orders of magnitude so that small panels against large buffers,
        // the reverse, and the 64-byte budget floor all come up; half the
        // draws are uncapped, the rest capped at 1–256.
        let mut state = 0x5EED_u64;
        let mut next = |bits: u32| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let z = z ^ (z >> 31);
            (z >> (64 - bits)) as i64
        };
        for _ in 0..400_000 {
            let mut dim = || (1i64 << next(4)) + next(16) % (1i64 << next(4));
            let (m, n, k) = (dim(), dim(), dim());
            let buffer = next(25) >> next(5);
            let cap = match next(9) {
                0..=255 => None,
                c => Some(c - 255),
            };
            check(m, n, k, buffer, cap);
        }
    }

    #[test]
    fn ceil_i64_is_ceil_then_cast() {
        for x in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            2.000_000_1,
            1e15 + 0.5,
            9.3e18,
            -9.3e18,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(ceil_i64(x), x.ceil() as i64, "{x}");
        }
    }

    #[test]
    fn compressed_weights_cut_traffic_and_grow_tiles() {
        let (m, n, k, buf) = (512i64, 512i64, 512i64, 64 * 1024i64);
        let dense = tiled_dram_traffic(m, n, k, buf, None, &DENSE);
        // 2:4 weights in bitmask: 0.625× footprint.
        let bitmask = SparseEffects {
            weight_bytes_scale: 0.625,
            ..DENSE
        };
        let sparse = tiled_dram_traffic(m, n, k, buf, None, &bitmask);
        assert!(sparse < dense, "{sparse} !< {dense}");
    }

    #[test]
    fn density_one_is_byte_identical_on_sparse_hardware() {
        // A dense layer on skipping/gating hardware must produce the exact
        // dense LayerPerf (the frontend only costs area).
        let mut ctx = CostContext::new(HwConfig::lego_256(), tech());
        let l = lego_workloads::Layer::new(
            "g",
            LayerKind::Gemm {
                m: 256,
                n: 256,
                k: 256,
            },
        );
        let dense = simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx, None);
        for accel in [SparseAccel::Gating, SparseAccel::Skipping] {
            ctx.sparse = SparseHw::with_accel(accel);
            assert_eq!(
                simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx, None),
                dense,
                "{accel:?}"
            );
        }
    }

    #[test]
    fn sparse_layer_on_dense_hardware_is_byte_identical_too() {
        let ctx = CostContext::new(HwConfig::lego_256(), tech());
        let dense_layer = lego_workloads::Layer::new(
            "g",
            LayerKind::Gemm {
                m: 256,
                n: 256,
                k: 256,
            },
        );
        let sparse_layer = dense_layer
            .clone()
            .with_sparsity(LayerSparsity::weights(DensityModel::two_to_four()));
        assert_eq!(
            simulate_layer_ctx(&dense_layer, SpatialMapping::GemmMN, &ctx, None),
            simulate_layer_ctx(&sparse_layer, SpatialMapping::GemmMN, &ctx, None),
            "dense hardware cannot exploit annotations"
        );
    }

    #[test]
    fn gating_saves_energy_but_not_cycles() {
        let mut ctx = CostContext::new(HwConfig::lego_256(), tech());
        let l = lego_workloads::Layer::new(
            "g",
            LayerKind::Gemm {
                m: 512,
                n: 512,
                k: 512,
            },
        )
        .with_sparsity(LayerSparsity::weights(DensityModel::two_to_four()));
        let dense = simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx, None);
        ctx.sparse = SparseHw::with_accel(SparseAccel::Gating);
        let gated = simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx, None);
        assert_eq!(gated.cycles, dense.cycles, "gating never changes timing");
        assert_eq!(gated.dram_bytes, dense.dram_bytes);
        assert!(gated.energy.mac_pj < dense.energy.mac_pj);
        assert!(gated.energy.sparse_pj > 0.0);
        assert!(gated.energy.total_pj() < dense.energy.total_pj());
    }

    #[test]
    fn skipping_beats_dense_edp_on_2to4_gemm() {
        let mut ctx = CostContext::new(HwConfig::lego_256(), tech());
        let l = lego_workloads::Layer::new(
            "g",
            LayerKind::Gemm {
                m: 512,
                n: 512,
                k: 512,
            },
        )
        .with_sparsity(LayerSparsity::weights(DensityModel::two_to_four()));
        let dense = simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx, None);
        ctx.sparse = SparseHw::with_accel(SparseAccel::Skipping);
        let skipped = simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx, None);
        assert!(skipped.cycles < dense.cycles, "skipping cuts cycles");
        assert!(skipped.dram_bytes < dense.dram_bytes, "compressed weights");
        let edp = |p: &LayerPerf| p.cycles as f64 * p.energy.total_pj();
        assert!(
            edp(&skipped) < 0.6 * edp(&dense),
            "2:4 skipping should roughly halve EDP: {} vs {}",
            edp(&skipped),
            edp(&dense)
        );
    }

    #[test]
    fn sparse_costs_are_monotone_in_density() {
        // Lower density ⇒ no more cycles, bytes, or energy on skipping HW.
        let mut ctx = CostContext::new(HwConfig::lego_256(), tech());
        ctx.sparse = SparseHw::with_accel(SparseAccel::Skipping);
        let perf_at = |permille: u16| {
            let l = lego_workloads::Layer::new(
                "g",
                LayerKind::Gemm {
                    m: 384,
                    n: 384,
                    k: 384,
                },
            )
            .with_sparsity(LayerSparsity::weights(DensityModel::Uniform { permille }));
            simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx, None)
        };
        let mut last = perf_at(50);
        for permille in [100, 250, 500, 750, 999] {
            let cur = perf_at(permille);
            assert!(last.cycles <= cur.cycles, "{permille}");
            assert!(last.dram_bytes <= cur.dram_bytes, "{permille}");
            assert!(last.energy.mac_pj <= cur.energy.mac_pj + 1e-9, "{permille}");
            last = cur;
        }
    }

    #[test]
    fn scaling_up_helps_compute_bound_models() {
        let small = HwConfig::lego_256();
        let mut big = HwConfig::lego_icoc_1k();
        big.dataflows = small.dataflows.clone();
        let m = zoo::ddpm();
        let ps = sim_model(&m, &small);
        let pb = sim_model(&m, &big);
        assert!(pb.gops > 2.0 * ps.gops, "{} vs {}", pb.gops, ps.gops);
    }
}
