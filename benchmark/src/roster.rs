//! Seeded inputs: the same seed gives the same rosters, byte for byte, and
//! the programs under test receive only what is generated here.

use lego_eval::EvalRequest;
use lego_explorer::{DesignSpace, SplitMix64};
use lego_ir::tensor::TensorData;
use lego_model::{HwConfig, SparseAccel, SparseHw};
use lego_workloads::{zoo, Model};
use std::collections::HashSet;

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// A tensor of small signed values drawn from `rng`'s next state.
pub fn seeded_tensor(shape: &[i64], rng: &mut SplitMix64) -> TensorData {
    let base = rng.next_u64();
    TensorData::from_fn(shape, |i| {
        (SplitMix64::new(base.wrapping_add(i as u64)).next_u64() % 7) as i64 - 3
    })
}

/// The eleven dense zoo models.
pub fn zoo_models() -> Vec<Model> {
    vec![
        zoo::lenet(),
        zoo::alexnet(),
        zoo::mobilenet_v2(),
        zoo::resnet50(),
        zoo::efficientnet_v2(),
        zoo::bert_base(),
        zoo::gpt2_decode(),
        zoo::coatnet(),
        zoo::ddpm(),
        zoo::stable_diffusion(),
        zoo::llama7b_decode(1),
    ]
}

fn lego_256_clustered() -> HwConfig {
    HwConfig {
        clusters: (2, 2),
        ..HwConfig::lego_256()
    }
}

/// `eval_cold_zoo`: {11 zoo models + 3 sparse variants} × {`lego_256`,
/// `lego_icoc_1k`, `lego_256` with 2×2 clusters}, in seeded order. The
/// sparse variants run on skipping hardware so the sparse path is priced.
pub fn eval_roster(seed: u64) -> Vec<EvalRequest> {
    let dense = zoo_models().into_iter().map(|m| (m, SparseHw::dense()));
    let sparse = zoo::sparse_models()
        .into_iter()
        .map(|m| (m, SparseHw::with_accel(SparseAccel::Skipping)));
    let mut roster = Vec::new();
    for (model, sparse_hw) in dense.chain(sparse) {
        for hw in [
            HwConfig::lego_256(),
            HwConfig::lego_icoc_1k(),
            lego_256_clustered(),
        ] {
            roster.push(
                EvalRequest::builder(model.clone(), hw)
                    .sparse(sparse_hw)
                    .build()
                    .expect("zoo model on a paper configuration is a valid request"),
            );
        }
    }
    shuffle(&mut roster, &mut SplitMix64::new(seed));
    roster
}

/// `serve_*`: `n` distinct requests, each a zoo model on hardware sampled
/// from the paper design space. Models rotate, so every stretch of the
/// roster (the hot fifth too) carries the same mix of request sizes under
/// every seed; the seed picks the hardware.
pub fn serve_roster(seed: u64, n: usize) -> Vec<EvalRequest> {
    let mut rng = SplitMix64::new(seed);
    let models = zoo_models();
    let space = DesignSpace::paper();
    let mut seen = HashSet::new();
    let mut roster = Vec::with_capacity(n);
    while roster.len() < n {
        let model = models[roster.len() % models.len()].clone();
        let genome = space.sample(&mut rng);
        let request = EvalRequest::builder(model, genome.to_hw_config())
            .build()
            .expect("zoo model on a paper-space genome is a valid request");
        if seen.insert(request.fingerprint()) {
            roster.push(request);
        }
    }
    roster
}

/// Share of draws that go to the hottest fifth of the roster.
pub const HOT_DRAW_SHARE: f64 = 0.8;

/// `draws` roster indices, [`HOT_DRAW_SHARE`] of them from the first fifth
/// of `items` (the hot set) and the rest from the other four fifths.
pub fn hot_cold_draws(items: usize, draws: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let hot = (items / 5).max(1);
    (0..draws)
        .map(|_| {
            if rng.chance(HOT_DRAW_SHARE) || hot == items {
                rng.below(hot)
            } else {
                hot + rng.below(items - hot)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(roster: &[EvalRequest]) -> Vec<Vec<u8>> {
        roster.iter().map(EvalRequest::encode).collect()
    }

    #[test]
    fn eval_roster_is_the_full_cross_product_in_seeded_order() {
        let a = eval_roster(7);
        assert_eq!(a.len(), 14 * 3);
        assert_eq!(encoded(&a), encoded(&eval_roster(7)));
        let b = eval_roster(8);
        assert_ne!(encoded(&a), encoded(&b), "another seed, another order");
        let sorted = |r: &[EvalRequest]| {
            let mut bytes = encoded(r);
            bytes.sort();
            bytes
        };
        assert_eq!(sorted(&a), sorted(&b), "every seed covers the same set");
    }

    #[test]
    fn serve_roster_is_distinct_and_seeded() {
        let a = serve_roster(3, 64);
        assert_eq!(encoded(&a), encoded(&serve_roster(3, 64)));
        let prints: HashSet<u64> = a.iter().map(EvalRequest::fingerprint).collect();
        assert_eq!(prints.len(), 64);
        let b = serve_roster(4, 64);
        let hw = |r: &[EvalRequest]| r.iter().map(EvalRequest::hw_key).collect::<Vec<_>>();
        assert_ne!(hw(&a), hw(&b), "another seed, other hardware");
        let names = |r: &[EvalRequest]| {
            r.iter()
                .map(|r| r.workload.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b), "every seed, the same model mix");
    }

    #[test]
    fn seeded_tensors_repeat_and_stay_small() {
        let a = seeded_tensor(&[4, 5], &mut SplitMix64::new(1));
        let b = seeded_tensor(&[4, 5], &mut SplitMix64::new(1));
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|v| (-3..=3).contains(v)));
        assert_ne!(a, seeded_tensor(&[4, 5], &mut SplitMix64::new(2)));
    }

    #[test]
    fn four_fifths_of_draws_hit_the_hot_fifth() {
        let draws = hot_cold_draws(500, 20_000, &mut SplitMix64::new(11));
        assert!(draws.iter().all(|&i| i < 500));
        let hot = draws.iter().filter(|&&i| i < 100).count() as f64 / draws.len() as f64;
        assert!((hot - HOT_DRAW_SHARE).abs() < 0.02, "hot share {hot}");
        assert!(draws.iter().any(|&i| i >= 100));
        assert_eq!(draws, hot_cold_draws(500, 20_000, &mut SplitMix64::new(11)));
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut v, &mut SplitMix64::new(9));
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
