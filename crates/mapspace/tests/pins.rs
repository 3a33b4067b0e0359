//! Byte-identity pins for the mapping search: an FNV-1a of `render()`
//! plus `{:?}` of the saturation stats, per zoo model, over both
//! `mapspace_zoo` hardware configs and three node budgets. The default
//! budget (6144) is what the benchmark runs; 700 and 3000 cut saturation
//! mid-round, where the order rules match in (and so the choice of class
//! representative) decides which nodes get added. A change to the e-graph
//! that moves any outcome fails here.

use lego_eval::{stable_hash, EvalSession};
use lego_mapspace::{MapSearch, SearchConfig};
use lego_model::{HwConfig, TechModel};
use lego_workloads::{zoo, Model};

fn outcome_hash(session: &EvalSession, model: &Model) -> u64 {
    let mut text = String::new();
    for hw in [HwConfig::lego_256(), HwConfig::lego_icoc_1k()] {
        for node_budget in [6144, 700, 3000] {
            let out = MapSearch::new(model, hw.clone(), TechModel::default())
                .with_config(SearchConfig {
                    node_budget,
                    ..SearchConfig::default()
                })
                .run(session);
            text.push_str(&out.render());
            text.push_str(&format!("{:?}\n", out.stats));
        }
    }
    stable_hash(&text)
}

#[test]
fn search_outcomes_are_pinned_across_budgets() {
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
        .map(|m| (m.name.as_str(), outcome_hash(&session, m)))
        .collect();
    assert_eq!(
        got,
        [
            ("LeNet", 6859428300840083346),
            ("MobileNetV2", 5093619096806192065),
            ("ResNet50", 13163423323466273699),
            ("BERT", 11703240254549781699),
            ("EfficientNetV2", 14403813536729878224),
            ("StableDiffusion", 1336661130181116410),
        ]
    );
}
