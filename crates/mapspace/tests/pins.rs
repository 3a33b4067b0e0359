//! Byte-identity pins for the mapping search: an FNV-1a of `render()`
//! plus `{:?}` of the saturation stats, per zoo model, over both
//! `mapspace_zoo` hardware configs and several node budgets. The default
//! budget (6144) is what the benchmark runs; 700 and 3000 cut saturation
//! mid-round, where the order rules match in (and so the choice of class
//! representative) decides which nodes get added. A seeded tile cap puts
//! tiled loops into the seed nests, so tile merges and the caps extraction
//! carries are pinned too. A change to the e-graph that moves any outcome
//! fails here.

use lego_eval::{stable_hash, EvalSession};
use lego_mapspace::{MapSearch, SearchConfig};
use lego_model::{HwConfig, TechModel};
use lego_workloads::{zoo, Model};

fn outcome_hash(
    session: &EvalSession,
    model: &Model,
    tile_caps: &[Option<i64>],
    budgets: &[usize],
) -> u64 {
    let mut text = String::new();
    for &tile_cap in tile_caps {
        for hw in [HwConfig::lego_256(), HwConfig::lego_icoc_1k()] {
            for &node_budget in budgets {
                let out = MapSearch::new(model, hw.clone(), TechModel::default())
                    .with_tile_cap(tile_cap)
                    .with_config(SearchConfig {
                        node_budget,
                        ..SearchConfig::default()
                    })
                    .run(session);
                text.push_str(&out.render());
                text.push_str(&format!("{:?}\n", out.stats));
            }
        }
    }
    stable_hash(&text)
}

/// Hashes every zoo model under `tile_caps` × both configs × `budgets`
/// and compares with `pins`.
fn assert_pinned(tile_caps: &[Option<i64>], budgets: &[usize], pins: [(&str, u64); 6]) {
    let session = EvalSession::new();
    let models = [
        zoo::lenet(),
        zoo::mobilenet_v2(),
        zoo::resnet50(),
        zoo::bert_base(),
        zoo::efficientnet_v2(),
        zoo::stable_diffusion(),
    ];
    let got: Vec<(&str, u64)> = models
        .iter()
        .map(|m| {
            let hash = outcome_hash(&session, m, tile_caps, budgets);
            (m.name.as_str(), hash)
        })
        .collect();
    assert_eq!(got, pins);
}

#[test]
fn search_outcomes_are_pinned_across_budgets() {
    assert_pinned(
        &[None],
        &[6144, 700, 3000],
        [
            ("LeNet", 6859428300840083346),
            ("MobileNetV2", 5093619096806192065),
            ("ResNet50", 13163423323466273699),
            ("BERT", 11703240254549781699),
            ("EfficientNetV2", 14403813536729878224),
            ("StableDiffusion", 1336661130181116410),
        ],
    );
}

#[test]
fn seeded_tile_outcomes_are_pinned() {
    assert_pinned(
        &[Some(64), Some(128)],
        &[6144, 700],
        [
            ("LeNet", 1399352758732968912),
            ("MobileNetV2", 4096735273069711715),
            ("ResNet50", 6053885432920442954),
            ("BERT", 11030458364845713054),
            ("EfficientNetV2", 18313808296405749113),
            ("StableDiffusion", 6261245487035019354),
        ],
    );
}
