//! Property tests for the sparsity model and its integration contract:
//!
//! 1. every density model yields a density in `[0, 1]` and an `nnz` in
//!    `[0, elems]`;
//! 2. on sparse hardware, cycles / DRAM traffic / datapath energy are
//!    monotone **nonincreasing as density decreases** (equivalently,
//!    nondecreasing in density);
//! 3. density 1.0 is **byte-identical** to the dense path on random
//!    layers — sparse hardware running dense data produces the exact
//!    dense `LayerPerf` — and compressed operands never add DRAM traffic.
//!    (That unit scales reproduce dense traffic exactly is checked in
//!    `lego-sim`, against the integer tile solver kept there as an oracle.)

use lego_model::{
    CostContext, HwConfig, SparseAccel, SparseEffects, SparseHw, SpatialMapping, TechModel,
};
use lego_sim::{simulate_layer_ctx, tiled_dram_traffic};
use lego_sparse::{CompressedFormat, DensityModel, LayerSparsity};
use lego_workloads::{Layer, LayerKind};
use proptest::prelude::*;

fn accel_of(idx: u8) -> SparseAccel {
    SparseAccel::ALL[idx as usize % SparseAccel::ALL.len()]
}

/// A random GEMM or Conv layer from compact shape parameters.
fn layer_of(kind: u8, a: i64, b: i64, c: i64) -> Layer {
    if kind.is_multiple_of(2) {
        Layer::new("g", LayerKind::Gemm { m: a, n: b, k: c })
    } else {
        Layer::new(
            "c",
            LayerKind::Conv {
                n: 1,
                ic: c.clamp(1, 64),
                oc: b.clamp(1, 128),
                oh: a.clamp(1, 56),
                ow: a.clamp(1, 56),
                kh: 3,
                kw: 3,
                stride: 1,
            },
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn density_is_always_in_unit_interval(
        permille in 0u16..=1200, // deliberately beyond the clamp
        n in 0u8..=20,
        m in 1u8..=16,
        elems in 0i64..100_000,
    ) {
        for model in [
            DensityModel::Dense,
            DensityModel::Uniform { permille },
            DensityModel::StructuredNM { n, m },
        ] {
            let d = model.density();
            prop_assert!((0.0..=1.0).contains(&d), "{model:?}: {d}");
            let nnz = model.nnz(elems);
            prop_assert!(nnz >= 0 && nnz <= elems.max(0), "{model:?}: {nnz}/{elems}");
        }
        // Format storage never goes negative or above dense either.
        for fmt in CompressedFormat::ALL {
            let nnz = DensityModel::Uniform { permille }.nnz(elems);
            prop_assert!(fmt.storage_bytes(elems, nnz) >= 0);
        }
    }

    #[test]
    fn sparse_costs_monotone_nonincreasing_as_density_drops(
        kind in 0u8..=1,
        a in 8i64..96,
        b in 8i64..96,
        c in 8i64..96,
        lo in 1u16..=999,
        hi in 1u16..=999,
        accel_idx in 1u8..=2, // gating or skipping
    ) {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut ctx = CostContext::new(HwConfig::lego_256(), TechModel::default());
        ctx.sparse = SparseHw::with_accel(accel_of(accel_idx));
        let perf_at = |permille: u16| {
            let l = layer_of(kind, a, b, c).with_sparsity(LayerSparsity::weights(
                DensityModel::Uniform { permille },
            ));
            simulate_layer_ctx(&l, SpatialMapping::GemmMN, &ctx, None)
        };
        let sparse = perf_at(lo);
        let denser = perf_at(hi);
        prop_assert!(sparse.cycles <= denser.cycles, "{} > {}", sparse.cycles, denser.cycles);
        prop_assert!(sparse.dram_bytes <= denser.dram_bytes);
        prop_assert!(sparse.l1_accesses <= denser.l1_accesses);
        prop_assert!(sparse.energy.mac_pj <= denser.energy.mac_pj + 1e-9);
        // And the sparse execution never exceeds the fully dense one.
        let dense = perf_at(1000);
        prop_assert!(denser.cycles <= dense.cycles);
        prop_assert!(denser.dram_bytes <= dense.dram_bytes);
    }

    #[test]
    fn density_one_is_byte_identical_to_the_dense_path(
        kind in 0u8..=1,
        a in 4i64..128,
        b in 4i64..128,
        c in 4i64..128,
        accel_idx in 0u8..=2,
        mapping_idx in 0usize..=2,
    ) {
        let mapping = [
            SpatialMapping::GemmMN,
            SpatialMapping::ConvIcOc,
            SpatialMapping::ConvOhOw,
        ][mapping_idx];
        let layer = layer_of(kind, a, b, c);
        let dense_ctx = CostContext::new(HwConfig::lego_256(), TechModel::default());
        let mut sparse_ctx = dense_ctx.clone();
        sparse_ctx.sparse = SparseHw::with_accel(accel_of(accel_idx));
        // A fully dense layer (density 1.0 everywhere) on sparse hardware:
        // the exact dense result, field for field.
        prop_assert_eq!(
            simulate_layer_ctx(&layer, mapping, &sparse_ctx, None),
            simulate_layer_ctx(&layer, mapping, &dense_ctx, None)
        );
        // An annotated layer on *dense* hardware is also the dense path.
        let annotated = layer.clone().with_sparsity(
            LayerSparsity::weights(DensityModel::two_to_four())
                .with_inputs(DensityModel::uniform(0.9)),
        );
        prop_assert_eq!(
            simulate_layer_ctx(&annotated, mapping, &dense_ctx, None),
            simulate_layer_ctx(&layer, mapping, &dense_ctx, None)
        );
    }

    #[test]
    fn compressed_operands_never_add_traffic(
        m in 1i64..2048,
        n in 1i64..2048,
        k in 1i64..512,
        buffer_kb in 1i64..512,
        cap in 0i64..128,
    ) {
        let buffer = buffer_kb * 1024;
        let tile_cap = if cap == 0 { None } else { Some(cap) };
        let dense = tiled_dram_traffic(m, n, k, buffer, tile_cap, &SparseEffects::DENSE);
        let compressed = SparseEffects {
            weight_bytes_scale: 0.625,
            input_bytes_scale: 0.8,
            ..SparseEffects::DENSE
        };
        let scaled = tiled_dram_traffic(m, n, k, buffer, tile_cap, &compressed);
        prop_assert!(scaled <= dense, "{} > {}", scaled, dense);
    }
}
