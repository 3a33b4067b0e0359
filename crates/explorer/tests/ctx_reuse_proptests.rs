//! Property-based test of in-place context reuse: re-pointing a
//! [`CostContext`] via [`CostContext::update`] must be indistinguishable,
//! field for field, from tearing the context down and rebuilding it with
//! [`CostContext::new`]. If `update` ever skips a component that the new
//! hardware actually changed, this property catches it on arbitrary genome
//! pairs, not just the configurations the unit tests happen to pick.

use lego_explorer::{DesignSpace, Genome, SplitMix64};
use lego_model::{CostContext, SparseHw, SramModel, TechModel};
use proptest::prelude::*;

fn arbitrary_genome(seed: u64) -> Genome {
    let mut rng = SplitMix64::new(seed);
    DesignSpace::paper().sample(&mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // `CostContext::update` from any genome's hardware to any other's is
    // exactly `CostContext::new` of the destination.
    #[test]
    fn ctx_update_equals_fresh_rebuild(from_seed in 0u64..1_000_000, to_seed in 0u64..1_000_000) {
        let tech = TechModel::default();
        let sram = SramModel::default();
        let from = arbitrary_genome(from_seed);
        let to = arbitrary_genome(to_seed);

        let mut recycled = CostContext::new(from.to_hw_config(), tech)
            .with_sram(sram)
            .with_sparse(SparseHw::with_accel(from.sparse));
        let to_hw = to.to_hw_config();
        let to_sparse = SparseHw::with_accel(to.sparse);
        recycled.update(&to_hw, tech, sram, to_sparse);

        let fresh = CostContext::new(to_hw, tech)
            .with_sram(sram)
            .with_sparse(to_sparse);
        prop_assert_eq!(recycled, fresh);
    }
}
