//! Concrete model definitions (batch 1, image sizes per paper §VI-A:
//! 224×224×3 for vision models, 384×384×3 for EfficientNetV2, BERT sequence
//! length 16, GPT-2/LLaMA prompt length 1000 with one generated token).
//!
//! Shapes are the standard published configurations; grouped convolutions
//! are folded into their dense-equivalent MAC counts.

use crate::{Layer, LayerKind, Model, Nonlinear};
use lego_sparse::{DensityModel, LayerSparsity};

fn conv(name: &str, ic: i64, oc: i64, oh: i64, kh: i64, stride: i64) -> Layer {
    let l = Layer::new(
        name,
        LayerKind::Conv {
            n: 1,
            ic,
            oc,
            oh,
            ow: oh,
            kh,
            kw: kh,
            stride,
        },
    );
    let outs = l.output_elems();
    l.with_nonlinear(Nonlinear::Activation, outs)
        .with_nonlinear(Nonlinear::Normalization, outs)
}

fn dwconv(name: &str, c: i64, oh: i64, kh: i64, stride: i64) -> Layer {
    let l = Layer::new(
        name,
        LayerKind::DwConv {
            n: 1,
            c,
            oh,
            ow: oh,
            kh,
            kw: kh,
            stride,
        },
    );
    let outs = l.output_elems();
    l.with_nonlinear(Nonlinear::Activation, outs)
        .with_nonlinear(Nonlinear::Normalization, outs)
}

fn fc(name: &str, n: i64, k: i64) -> Layer {
    Layer::new(name, LayerKind::Gemm { m: 1, n, k })
}

/// LeNet-5 on 28×28 MNIST (SODA comparison, Table VII).
pub fn lenet() -> Model {
    Model {
        name: "LeNet".into(),
        layers: vec![
            conv("conv1", 1, 6, 24, 5, 1),
            conv("conv2", 6, 16, 8, 5, 1),
            fc("fc1", 120, 400),
            fc("fc2", 84, 120),
            fc("fc3", 10, 84),
        ],
    }
}

/// AlexNet at 224×224 (groups folded dense).
pub fn alexnet() -> Model {
    Model {
        name: "AlexNet".into(),
        layers: vec![
            conv("conv1", 3, 96, 55, 11, 4),
            conv("conv2", 96, 256, 27, 5, 1),
            conv("conv3", 256, 384, 13, 3, 1),
            conv("conv4", 384, 384, 13, 3, 1),
            conv("conv5", 384, 256, 13, 3, 1),
            fc("fc6", 4096, 9216),
            fc("fc7", 4096, 4096),
            fc("fc8", 1000, 4096),
        ],
    }
}

/// MobileNetV2 at 224×224: the depthwise-separable blocks that dominate
/// the paper's Figure 11 speedup.
pub fn mobilenet_v2() -> Model {
    let mut layers = vec![conv("stem", 3, 32, 112, 3, 2)];
    // (expansion t, channels c, repeats n, first stride s, input size)
    let blocks: [(i64, i64, i64, i64, i64); 7] = [
        (1, 16, 1, 1, 112),
        (6, 24, 2, 2, 112),
        (6, 32, 3, 2, 56),
        (6, 64, 4, 2, 28),
        (6, 96, 3, 1, 14),
        (6, 160, 3, 2, 14),
        (6, 320, 1, 1, 7),
    ];
    let mut cin = 32i64;
    for (bi, (t, c, n, s, insize)) in blocks.into_iter().enumerate() {
        for rep in 0..n {
            let stride = if rep == 0 { s } else { 1 };
            let out = insize / s;
            let hidden = cin * t;
            if t != 1 {
                // The 1×1 expand runs at the block's *input* resolution
                // (out·stride); only the depthwise conv downsamples.
                layers.push(conv(
                    &format!("b{bi}.{rep}.expand"),
                    cin,
                    hidden,
                    out * stride,
                    1,
                    1,
                ));
            }
            layers.push(dwconv(&format!("b{bi}.{rep}.dw"), hidden, out, 3, stride));
            layers.push(conv(&format!("b{bi}.{rep}.project"), hidden, c, out, 1, 1));
            cin = c;
        }
    }
    layers.push(conv("head", 320, 1280, 7, 1, 1));
    layers.push(fc("fc", 1000, 1280));
    Model {
        name: "MobileNetV2".into(),
        layers,
    }
}

/// ResNet50 at 224×224.
pub fn resnet50() -> Model {
    let mut layers = vec![conv("conv1", 3, 64, 112, 7, 2)];
    let stages: [(i64, i64, i64, i64); 4] = [
        (64, 256, 3, 56),
        (128, 512, 4, 28),
        (256, 1024, 6, 14),
        (512, 2048, 3, 7),
    ];
    let mut cin = 64i64;
    for (si, (mid, out, blocks, size)) in stages.into_iter().enumerate() {
        for b in 0..blocks {
            let stride = if b == 0 && si > 0 { 2 } else { 1 };
            layers.push(conv(&format!("s{si}.{b}.c1"), cin, mid, size, 1, stride));
            layers.push(conv(&format!("s{si}.{b}.c2"), mid, mid, size, 3, 1));
            layers.push(conv(&format!("s{si}.{b}.c3"), mid, out, size, 1, 1));
            if b == 0 {
                layers.push(conv(&format!("s{si}.{b}.down"), cin, out, size, 1, stride));
            }
            cin = out;
        }
    }
    layers.push(fc("fc", 1000, 2048));
    Model {
        name: "ResNet50".into(),
        layers,
    }
}

/// EfficientNetV2-S at 384×384 (fused-MBConv early, MBConv late).
pub fn efficientnet_v2() -> Model {
    let mut layers = vec![conv("stem", 3, 24, 192, 3, 2)];
    // Fused-MBConv stages (plain conv3x3 expansion).
    for i in 0..2 {
        layers.push(conv(&format!("f1.{i}"), 24, 24, 192, 3, 1));
    }
    for i in 0..4 {
        let s = if i == 0 { 2 } else { 1 };
        layers.push(conv(
            &format!("f2.{i}.a"),
            if i == 0 { 24 } else { 48 },
            192,
            96,
            3,
            s,
        ));
        layers.push(conv(&format!("f2.{i}.b"), 192, 48, 96, 1, 1));
    }
    for i in 0..4 {
        let s = if i == 0 { 2 } else { 1 };
        layers.push(conv(
            &format!("f3.{i}.a"),
            if i == 0 { 48 } else { 64 },
            256,
            48,
            3,
            s,
        ));
        layers.push(conv(&format!("f3.{i}.b"), 256, 64, 48, 1, 1));
    }
    // MBConv stages with depthwise.
    let mb: [(i64, i64, i64, i64, i64); 3] = [
        (64, 128, 6, 24, 2),
        (128, 160, 9, 24, 1),
        (160, 256, 15, 12, 2),
    ];
    for (si, (cin0, cout, n, size, s0)) in mb.into_iter().enumerate() {
        let mut cin = cin0;
        for i in 0..n {
            let s = if i == 0 { s0 } else { 1 };
            let hidden = cin * 4;
            layers.push(conv(
                &format!("mb{si}.{i}.expand"),
                cin,
                hidden,
                size * s,
                1,
                1,
            ));
            layers.push(dwconv(&format!("mb{si}.{i}.dw"), hidden, size, 3, s));
            layers.push(conv(
                &format!("mb{si}.{i}.project"),
                hidden,
                cout,
                size,
                1,
                1,
            ));
            cin = cout;
        }
    }
    layers.push(conv("head", 256, 1280, 12, 1, 1));
    layers.push(fc("fc", 1000, 1280));
    Model {
        name: "EfficientNetV2".into(),
        layers,
    }
}

fn transformer_block(name: &str, seq: i64, d: i64, heads: i64, ffn: i64, kv: i64) -> Vec<Layer> {
    let dk = d / heads;
    vec![
        Layer::new(
            format!("{name}.qkv"),
            LayerKind::Gemm {
                m: seq,
                n: 3 * d,
                k: d,
            },
        )
        .with_nonlinear(Nonlinear::Normalization, seq * d),
        Layer::new(
            format!("{name}.attn"),
            LayerKind::Attention {
                heads,
                seq_q: seq,
                seq_kv: kv,
                dk,
                dv: dk,
            },
        )
        .with_nonlinear(Nonlinear::Softmax, heads * seq * kv),
        Layer::new(
            format!("{name}.proj"),
            LayerKind::Gemm { m: seq, n: d, k: d },
        ),
        Layer::new(
            format!("{name}.ffn1"),
            LayerKind::Gemm {
                m: seq,
                n: ffn,
                k: d,
            },
        )
        .with_nonlinear(Nonlinear::Activation, seq * ffn)
        .with_nonlinear(Nonlinear::Normalization, seq * d),
        Layer::new(
            format!("{name}.ffn2"),
            LayerKind::Gemm {
                m: seq,
                n: d,
                k: ffn,
            },
        ),
    ]
}

/// BERT-base with sequence length 16 (paper §VI-A).
pub fn bert_base() -> Model {
    let mut layers = Vec::new();
    for b in 0..12 {
        layers.extend(transformer_block(&format!("l{b}"), 16, 768, 12, 3072, 16));
    }
    Model {
        name: "BERT".into(),
        layers,
    }
}

/// GPT-2 decoding one token with a 1000-token prompt in the KV cache.
pub fn gpt2_decode() -> Model {
    let mut layers = Vec::new();
    for b in 0..12 {
        layers.extend(transformer_block(&format!("l{b}"), 1, 768, 12, 3072, 1001));
    }
    layers.push(fc("lm_head", 50257, 768));
    Model {
        name: "GPT2".into(),
        layers,
    }
}

/// CoAtNet-0 at 224×224: convolution stages followed by attention stages.
pub fn coatnet() -> Model {
    let mut layers = vec![
        conv("stem.0", 3, 64, 112, 3, 2),
        conv("stem.1", 64, 64, 112, 3, 1),
    ];
    // MBConv stages.
    let mut cin = 64i64;
    for (si, (c, n, size)) in [(96i64, 2i64, 56i64), (192, 3, 28)].into_iter().enumerate() {
        for i in 0..n {
            let s = if i == 0 { 2 } else { 1 };
            let hidden = cin * 4;
            layers.push(conv(
                &format!("c{si}.{i}.expand"),
                cin,
                hidden,
                size * s,
                1,
                1,
            ));
            layers.push(dwconv(&format!("c{si}.{i}.dw"), hidden, size, 3, s));
            layers.push(conv(&format!("c{si}.{i}.project"), hidden, c, size, 1, 1));
            cin = c;
        }
    }
    // Transformer stages (relative attention ≈ standard attention cost).
    for (si, (d, n, size)) in [(384i64, 5i64, 14i64), (768, 2, 7)].into_iter().enumerate() {
        let seq = size * size;
        layers.push(conv(&format!("t{si}.proj_in"), cin, d, size, 1, 2));
        for i in 0..n {
            layers.extend(transformer_block(
                &format!("t{si}.{i}"),
                seq,
                d,
                d / 32,
                d * 4,
                seq,
            ));
            let _ = i;
        }
        cin = d;
    }
    layers.push(fc("fc", 1000, 768));
    Model {
        name: "CoAtNet".into(),
        layers,
    }
}

/// DDPM denoising UNet (CIFAR-scale 32×32, channel multiplier 128).
pub fn ddpm() -> Model {
    let c = 128i64;
    let mut layers = Vec::new();
    layers.push(conv("in", 3, c, 32, 3, 1));
    for (si, (mult, size)) in [(1i64, 32i64), (2, 16), (2, 8), (2, 4)]
        .into_iter()
        .enumerate()
    {
        let ch = c * mult;
        layers.push(conv(&format!("down{si}.a"), ch, ch, size, 3, 1).repeat(2));
        layers.push(conv(&format!("down{si}.b"), ch, ch, size, 3, 1).repeat(2));
        if size == 16 {
            let seq = size * size;
            layers.push(
                Layer::new(
                    format!("down{si}.attn"),
                    LayerKind::Attention {
                        heads: 8,
                        seq_q: seq,
                        seq_kv: seq,
                        dk: ch / 8,
                        dv: ch / 8,
                    },
                )
                .with_nonlinear(Nonlinear::Softmax, 8 * seq * seq),
            );
        }
    }
    for (si, (mult, size)) in [(2i64, 4i64), (2, 8), (2, 16), (1, 32)]
        .into_iter()
        .enumerate()
    {
        let ch = c * mult;
        layers.push(conv(&format!("up{si}.a"), ch * 2, ch, size, 3, 1).repeat(3));
    }
    layers.push(conv("out", c, 3, 32, 3, 1));
    Model {
        name: "DDPM".into(),
        layers,
    }
}

/// Stable Diffusion UNet, one denoising step on a 64×64 latent.
pub fn stable_diffusion() -> Model {
    let c = 320i64;
    let mut layers = Vec::new();
    layers.push(conv("in", 4, c, 64, 3, 1));
    let stages: [(i64, i64, bool); 4] =
        [(1, 64, true), (2, 32, true), (4, 16, true), (4, 8, false)];
    for (si, (mult, size, attn)) in stages.into_iter().enumerate() {
        let ch = c * mult;
        layers.push(conv(&format!("down{si}.res"), ch, ch, size, 3, 1).repeat(2));
        if attn {
            let seq = size * size;
            let heads = 8;
            layers.push(
                Layer::new(
                    format!("down{si}.attn"),
                    LayerKind::Attention {
                        heads,
                        seq_q: seq,
                        seq_kv: seq,
                        dk: ch / heads,
                        dv: ch / heads,
                    },
                )
                .with_nonlinear(Nonlinear::Softmax, heads * seq * seq),
            );
            layers.push(
                Layer::new(
                    format!("down{si}.xattn_proj"),
                    LayerKind::Gemm {
                        m: seq,
                        n: ch,
                        k: ch,
                    },
                )
                .repeat(2),
            );
        }
    }
    for (si, (mult, size, _)) in stages.into_iter().rev().enumerate() {
        let ch = c * mult;
        layers.push(conv(&format!("up{si}.res"), ch * 2, ch, size, 3, 1).repeat(3));
    }
    layers.push(conv("out", c, 4, 64, 3, 1));
    Model {
        name: "StableDiffusion".into(),
        layers,
    }
}

/// LLaMA-7B decoding one token (32 layers, d=4096, KV cache of 1000).
pub fn llama7b_decode(batch: i64) -> Model {
    let d = 4096i64;
    let heads = 32i64;
    let ffn = 11008i64;
    let kv = 1000i64;
    let mut layers = Vec::new();
    for b in 0..32 {
        let dk = d / heads;
        layers.push(
            Layer::new(
                format!("l{b}.qkv"),
                LayerKind::Gemm {
                    m: batch,
                    n: 3 * d,
                    k: d,
                },
            )
            .with_nonlinear(Nonlinear::Normalization, batch * d),
        );
        layers.push(
            Layer::new(
                format!("l{b}.attn"),
                LayerKind::Attention {
                    heads: heads * batch,
                    seq_q: 1,
                    seq_kv: kv,
                    dk,
                    dv: dk,
                },
            )
            .with_nonlinear(Nonlinear::Softmax, batch * heads * kv),
        );
        layers.push(Layer::new(
            format!("l{b}.proj"),
            LayerKind::Gemm {
                m: batch,
                n: d,
                k: d,
            },
        ));
        layers.push(
            Layer::new(
                format!("l{b}.gate"),
                LayerKind::Gemm {
                    m: batch,
                    n: ffn,
                    k: d,
                },
            )
            .with_nonlinear(Nonlinear::Activation, batch * ffn),
        );
        layers.push(Layer::new(
            format!("l{b}.up"),
            LayerKind::Gemm {
                m: batch,
                n: ffn,
                k: d,
            },
        ));
        layers.push(Layer::new(
            format!("l{b}.down"),
            LayerKind::Gemm {
                m: batch,
                n: d,
                k: ffn,
            },
        ));
    }
    Model {
        name: format!("LLaMA-7B bs={batch}"),
        layers,
    }
}

/// Annotates every weight-carrying layer (GEMM, Conv, DwConv) of `model`
/// with the given weight density, renaming the model `"{name} {tag}"`.
/// Attention layers carry no weights and are left untouched.
pub fn prune_weights(mut model: Model, density: DensityModel, tag: &str) -> Model {
    for layer in &mut model.layers {
        if layer.weight_elems() > 0 {
            layer.sparsity.weights = density;
        }
    }
    model.name = format!("{} {tag}", model.name);
    model
}

/// ResNet50 with 2:4 structured weight sparsity on every convolution and
/// the classifier — the sparse-tensor-core pruning recipe, which loses
/// almost no accuracy and is exactly schedulable by skipping hardware.
pub fn resnet50_2to4() -> Model {
    prune_weights(resnet50(), DensityModel::two_to_four(), "@2:4")
}

/// BERT-base with 90 % unstructured weight sparsity (10 % density) on
/// every GEMM — the magnitude-pruning operating point; skipping hardware
/// pays a load-imbalance factor on the irregular nonzero pattern.
pub fn bert_base_pruned90() -> Model {
    prune_weights(bert_base(), DensityModel::uniform(0.10), "@90%sparse")
}

/// GPT-2 *prefill* over a 256-token prompt with causal masking: the
/// upper triangle of every attention score matrix is masked away, so
/// only `(seq+1)/2·seq` ≈ 50.2 % of score positions are ever computed or
/// written. The mask lands on the attention layers' *output* density;
/// the dense GEMMs around them are untouched.
pub fn gpt2_prefill_causal() -> Model {
    let seq = 256i64;
    // Lower triangle of a seq×seq score matrix, exact in permille.
    let causal = DensityModel::uniform((seq + 1) as f64 / (2 * seq) as f64);
    let mut layers = Vec::new();
    for b in 0..12 {
        layers.extend(transformer_block(&format!("l{b}"), seq, 768, 12, 3072, seq));
    }
    for layer in &mut layers {
        if matches!(layer.kind, LayerKind::Attention { .. }) {
            layer.sparsity = LayerSparsity::dense().with_outputs(causal);
        }
    }
    Model {
        name: "GPT2-prefill-causal".into(),
        layers,
    }
}

/// The model a command-line tool's `--model NAME` selects: the
/// constructor of that name, for the seven models the tools price.
pub fn by_name(name: &str) -> Option<Model> {
    Some(match name {
        "lenet" => lenet(),
        "mobilenet_v2" => mobilenet_v2(),
        "resnet50" => resnet50(),
        "bert_base" => bert_base(),
        "resnet50_2to4" => resnet50_2to4(),
        "bert_base_pruned90" => bert_base_pruned90(),
        "gpt2_prefill_causal" => gpt2_prefill_causal(),
        _ => return None,
    })
}

/// The three sparse-scenario models: structured pruning, unstructured
/// pruning, and masked attention.
pub fn sparse_models() -> Vec<Model> {
    vec![resnet50_2to4(), bert_base_pruned90(), gpt2_prefill_causal()]
}

/// The seven models of Figure 11, in the paper's order.
pub fn figure11_models() -> Vec<Model> {
    vec![
        alexnet(),
        mobilenet_v2(),
        resnet50(),
        efficientnet_v2(),
        bert_base(),
        gpt2_decode(),
        coatnet(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_counts_are_in_published_ballparks() {
        // Published MAC counts (±40% tolerance — folding groups and heads
        // shifts the totals slightly).
        let cases: [(Model, f64); 4] = [
            (alexnet(), 0.71e9),
            (mobilenet_v2(), 0.30e9),
            (resnet50(), 4.1e9),
            (lenet(), 0.4e6),
        ];
        for (m, expect) in cases {
            let macs = m.total_macs() as f64;
            assert!(
                macs > expect * 0.6 && macs < expect * 1.7,
                "{}: {macs:.2e} vs published {expect:.2e}",
                m.name
            );
        }
    }

    #[test]
    fn decode_models_are_memory_bound_shapes() {
        let g = gpt2_decode();
        // GEMV-dominated: weight bytes ≫ activation bytes.
        let weights = g.weight_bytes(1);
        assert!(weights > 80_000_000, "GPT-2 ~124M params, got {weights}");
        let l = llama7b_decode(1);
        assert!(l.weight_bytes(1) > 6_000_000_000, "LLaMA-7B ~6.7G params");
    }

    #[test]
    fn mobilenet_contains_depthwise() {
        let m = mobilenet_v2();
        assert!(m
            .layers
            .iter()
            .any(|l| matches!(l.kind, LayerKind::DwConv { .. })));
        // Depthwise MACs are a small share of totals but dominate runtime on
        // channel-parallel hardware.
        let dw: i64 = m
            .layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::DwConv { .. }))
            .map(|l| l.macs() * l.count)
            .sum();
        assert!(dw > 0 && dw < m.total_macs() / 5);
    }

    #[test]
    fn transformers_record_softmax_work() {
        for m in [bert_base(), gpt2_decode(), coatnet()] {
            assert!(
                m.layers
                    .iter()
                    .any(|l| l.nonlinear.iter().any(|(k, _)| *k == Nonlinear::Softmax)),
                "{} has no softmax",
                m.name
            );
        }
    }

    #[test]
    fn pruned_variants_annotate_without_changing_shapes() {
        let dense = resnet50();
        let sparse = resnet50_2to4();
        assert_eq!(dense.total_macs(), sparse.total_macs());
        assert_eq!(dense.layers.len(), sparse.layers.len());
        assert!(sparse.name.contains("2:4"));
        for (d, s) in dense.layers.iter().zip(&sparse.layers) {
            assert_eq!(d.kind, s.kind);
            if s.weight_elems() > 0 {
                assert_eq!(s.sparsity.weights, DensityModel::two_to_four());
                assert_eq!(s.effectual_macs(), (s.macs() + 1) / 2);
            } else {
                assert!(s.sparsity.is_dense());
            }
        }
        let bert = bert_base_pruned90();
        for l in bert.layers.iter().filter(|l| l.weight_elems() > 0) {
            assert!((l.sparsity.weights.density() - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn causal_prefill_masks_only_attention_outputs() {
        let m = gpt2_prefill_causal();
        let attn: Vec<_> = m
            .layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Attention { .. }))
            .collect();
        assert_eq!(attn.len(), 12);
        for l in &attn {
            let d = l.sparsity.outputs.density();
            assert!((d - 257.0 / 512.0).abs() < 1e-3, "causal mask ≈ 50.2 %");
            assert!(l.sparsity.weights.is_dense() && l.sparsity.inputs.is_dense());
            assert!(l.effectual_macs() < l.macs());
        }
        // The surrounding GEMMs stay dense.
        assert!(m
            .layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Gemm { .. }))
            .all(|l| l.sparsity.is_dense()));
    }

    #[test]
    fn sparsity_flows_into_ir_tensor_annotations() {
        let l = Layer::new(
            "c",
            LayerKind::Conv {
                n: 1,
                ic: 4,
                oc: 8,
                oh: 6,
                ow: 6,
                kh: 3,
                kw: 3,
                stride: 1,
            },
        )
        .with_sparsity(LayerSparsity::weights(DensityModel::two_to_four()));
        let w = l.to_workload();
        assert_eq!(w.tensor_density("W"), DensityModel::two_to_four());
        assert_eq!(w.tensor_density("X"), DensityModel::Dense);
    }

    #[test]
    fn by_name_finds_exactly_the_seven_tool_models() {
        let named = [
            ("lenet", lenet()),
            ("mobilenet_v2", mobilenet_v2()),
            ("resnet50", resnet50()),
            ("bert_base", bert_base()),
            ("resnet50_2to4", resnet50_2to4()),
            ("bert_base_pruned90", bert_base_pruned90()),
            ("gpt2_prefill_causal", gpt2_prefill_causal()),
        ];
        for (name, model) in named {
            assert_eq!(by_name(name), Some(model), "{name}");
        }
        assert!(["", "LeNet", "alexnet", "lenet "]
            .iter()
            .all(|n| by_name(n).is_none()));
    }

    #[test]
    fn all_models_have_positive_ops() {
        for m in [
            alexnet(),
            mobilenet_v2(),
            resnet50(),
            efficientnet_v2(),
            bert_base(),
            gpt2_decode(),
            coatnet(),
            lenet(),
            ddpm(),
            stable_diffusion(),
            llama7b_decode(1),
            llama7b_decode(32),
        ] {
            assert!(m.total_ops() > 0, "{}", m.name);
            for l in &m.layers {
                assert!(l.macs() > 0, "{}: layer {} empty", m.name, l.name);
            }
        }
    }
}
