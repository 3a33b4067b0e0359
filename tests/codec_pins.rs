//! The wire formats, pinned byte for byte: an FNV-1a hash of `encode()`
//! for requests that between them emit every tag the codec knows, of
//! their reports, and of a sharded-DSE snapshot. A corruption transcript
//! (the `{:?}` of decoding the payload with each byte in turn XOR-ed with
//! `0xA5`) pins every error variant, every `InvalidTag` name and every
//! `Truncated` offset, so a codec refactor that reorders a read fails
//! here even when round trips still succeed. The lego-serve frames that
//! carry those payloads are pinned the same way, with the frame checksum
//! itself over lengths around its word boundaries.

use std::fmt::Debug;
use std::hash::Hasher;

use lego::eval::{
    BaseObjective, CodecError, EvalError, EvalReport, EvalRequest, EvalSession, FnvHasher,
    Objective, Reject,
};
use lego::explorer::{
    explore_shard, DesignSpace, ExploreOptions, GridSearch, SearchStrategy, Snapshot,
};
use lego::model::{DensityModel, HwConfig, LayerSparsity};
use lego::model::{SparseAccel, SparseHw, SpatialMapping, TechModel};
use lego::serve::frame::{self, KIND_REPLY, KIND_REQUEST};
use lego::serve::wire;
use lego::workloads::{Layer, LayerKind, Model, Nonlinear};

/// All four layer kinds, all three density models and all three
/// nonlinear kinds.
fn kitchen_sink_model() -> Model {
    let pruned = LayerSparsity {
        weights: DensityModel::two_to_four(),
        inputs: DensityModel::uniform(0.35),
        outputs: DensityModel::Dense,
    };
    let masked = LayerSparsity {
        outputs: DensityModel::uniform(0.5),
        ..LayerSparsity::dense()
    };
    Model {
        name: "kitchen_sink".into(),
        layers: vec![
            Layer::new(
                "fc",
                LayerKind::Gemm {
                    m: 64,
                    n: 96,
                    k: 128,
                },
            )
            .with_nonlinear(Nonlinear::Activation, 6144)
            .with_sparsity(pruned),
            Layer::new(
                "conv",
                LayerKind::Conv {
                    n: 1,
                    ic: 32,
                    oc: 64,
                    oh: 14,
                    ow: 14,
                    kh: 3,
                    kw: 3,
                    stride: 2,
                },
            )
            .repeat(3)
            .with_nonlinear(Nonlinear::Normalization, 12544)
            .with_nonlinear(Nonlinear::Activation, 12544)
            .with_sparsity(pruned),
            Layer::new(
                "dw",
                LayerKind::DwConv {
                    n: 1,
                    c: 64,
                    oh: 7,
                    ow: 7,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                },
            ),
            Layer::new(
                "attn",
                LayerKind::Attention {
                    heads: 4,
                    seq_q: 32,
                    seq_kv: 48,
                    dk: 16,
                    dv: 16,
                },
            )
            .repeat(2)
            .with_nonlinear(Nonlinear::Softmax, 6144)
            .with_sparsity(masked),
        ],
    }
}

/// Five requests over every spatial mapping, sparse feature, base
/// objective and objective shape, penalty budgets `Some` and `None`, and
/// tile caps `Some` and `None`.
fn requests() -> Vec<EvalRequest> {
    use SpatialMapping::*;
    let hw = HwConfig {
        dataflows: vec![GemmMN, GemmKN, ConvIcOc, ConvOhOw, ConvKhOh],
        ..HwConfig::lego_256()
    };
    let mut tech = TechModel::default().scaled_to(45.0);
    tech.freq_ghz = 0.5;
    let objectives = [
        Objective::Base(BaseObjective::Edp),
        Objective::Base(BaseObjective::Edap),
        Objective::Penalized {
            base: BaseObjective::Latency,
            area_budget: Some(2.5e6),
            power_budget: None,
            weight: 4.0,
        },
        Objective::Penalized {
            base: BaseObjective::Energy,
            area_budget: None,
            power_budget: Some(800.0),
            weight: 1.5,
        },
        Objective::Lexicographic,
    ];
    let accels = [
        SparseAccel::None,
        SparseAccel::Gating,
        SparseAccel::Skipping,
    ];
    objectives
        .into_iter()
        .enumerate()
        .map(|(i, objective)| {
            EvalRequest::new(kitchen_sink_model(), hw.clone())
                .with_sparse(SparseHw::with_accel(accels[i % accels.len()]))
                .with_tech(tech)
                .with_objective(objective)
                .with_tile_cap((i % 2 == 0).then_some(64))
        })
        .collect()
}

/// The request every corruption transcript starts from: skipping, a
/// penalty with one budget set, and a tile cap.
fn kitchen_sink_request() -> EvalRequest {
    requests().swap_remove(2)
}

fn report_of(request: &EvalRequest) -> EvalReport {
    EvalSession::new().evaluate(request)
}

fn snapshot() -> Snapshot {
    let model = kitchen_sink_model();
    let space = DesignSpace {
        sparse_accels: SparseAccel::ALL.to_vec(),
        ..DesignSpace::tiny()
    };
    explore_shard(
        &model,
        &space.shard(0, 2),
        &mut [Box::new(GridSearch) as Box<dyn SearchStrategy>],
        &ExploreOptions {
            budget_per_strategy: 6,
            ..Default::default()
        },
    )
    .snapshot(&model.name, 7)
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a over `{:?}` of decoding `bytes` with each byte in turn XOR-ed
/// with `0xA5`.
fn corruption_transcript<T: Debug>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
) -> u64 {
    let mut h = FnvHasher::new();
    let mut fuzz = bytes.to_vec();
    for i in 0..fuzz.len() {
        fuzz[i] ^= 0xA5;
        h.write(format!("{:?}\n", decode(&fuzz)).as_bytes());
        fuzz[i] ^= 0xA5;
    }
    h.finish()
}

#[test]
fn pinned_requests_validate() {
    for request in requests() {
        request.validate().expect("a pinned request is valid");
    }
}

#[test]
fn request_bytes_are_pinned() {
    let hashes: Vec<u64> = requests().iter().map(|r| fnv(&r.encode())).collect();
    assert_eq!(
        hashes,
        [
            14254321851853155910,
            10601178552031637753,
            12482995072323602172,
            2740516704881348472,
            18185224573500924757
        ]
    );
}

#[test]
fn report_bytes_are_pinned() {
    let hashes: Vec<u64> = requests()
        .iter()
        .map(|r| fnv(&report_of(r).encode()))
        .collect();
    assert_eq!(
        hashes,
        [
            3534273554434308297,
            10329224031088426962,
            11809120824420086171,
            3598966943870052959,
            18012214041037764663
        ]
    );
}

#[test]
fn snapshot_bytes_are_pinned() {
    assert_eq!(fnv(&snapshot().encode()), 15651216785213573658);
}

#[test]
fn corruption_transcripts_are_pinned() {
    let request = kitchen_sink_request();
    let report = report_of(&request);
    assert_eq!(
        [
            corruption_transcript(&request.encode(), EvalRequest::decode),
            corruption_transcript(&report.encode(), EvalReport::decode),
            corruption_transcript(&snapshot().encode(), Snapshot::decode),
        ],
        [
            15870315820857655616,
            2899124651395111306,
            16119164337395693990
        ]
    );
}

#[test]
fn frame_bytes_are_pinned() {
    let request = kitchen_sink_request();
    let report = report_of(&request);
    let status = EvalError::Rejected(Reject::QueueFull { capacity: 8 });
    assert_eq!(
        [
            fnv(&frame::encode_frame(KIND_REQUEST, &request.encode())),
            fnv(&frame::encode_frame(
                KIND_REPLY,
                &wire::encode_ok_reply(&report.encode())
            )),
            fnv(&frame::encode_frame(
                KIND_REPLY,
                &wire::encode_status_reply(&status)
            )),
        ],
        [
            9749565964039192963,
            12802192876906980304,
            7725811598900714334
        ]
    );
}

/// The frame checksum of `len` bytes `i * 31 + 7`, for lengths around
/// an 8-byte word: empty, a partial word, one word, one and a bit, and a
/// served payload's size.
#[test]
fn frame_checksums_are_pinned() {
    let checksums: Vec<u64> = [0usize, 1, 7, 8, 9, 12_500]
        .iter()
        .map(|&len| frame::checksum(&(0..len).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>()))
        .collect();
    assert_eq!(
        checksums,
        [
            14695981039346656037,
            12638150915117944629,
            12616886595230208605,
            14922735100391453404,
            18167618475675993659,
            3490221082200532801
        ]
    );
}
