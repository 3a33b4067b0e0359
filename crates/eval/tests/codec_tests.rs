//! Codec contract tests: requests and reports are canonical wire payloads
//! (`encode → decode → encode` byte-identical), and malformed bytes error
//! instead of panicking — the properties a multi-host driver leans on.

use lego_eval::codec::{Dec, Enc, Wire};
use lego_eval::{BaseObjective, CodecError, EvalReport, EvalRequest, EvalSession, Objective};
use lego_model::{
    CompressedFormat, DensityModel, HwConfig, SparseAccel, SparseHw, SpatialMapping, TechModel,
};
use lego_workloads::{zoo, LayerKind, Nonlinear};
use proptest::prelude::*;

/// A request exercising every codec branch: sparse model (uniform +
/// structured + masked-output densities), non-default technology,
/// penalized objective, tile cap, skipping datapath.
fn kitchen_sink_request() -> EvalRequest {
    let mut tech = TechModel::default().scaled_to(45.0);
    tech.freq_ghz = 0.5;
    EvalRequest::new(zoo::gpt2_prefill_causal(), HwConfig::lego_icoc_1k())
        .with_sparse(SparseHw::with_accel(SparseAccel::Skipping))
        .with_tech(tech)
        .with_objective(Objective::penalized_edp(Some(2.5), Some(1.0), 4.0))
        .with_tile_cap(Some(64))
}

fn requests() -> Vec<EvalRequest> {
    vec![
        EvalRequest::new(zoo::lenet(), HwConfig::lego_256()),
        EvalRequest::new(zoo::resnet50_2to4(), HwConfig::lego_256())
            .with_sparse(SparseHw::with_accel(SparseAccel::Gating)),
        EvalRequest::new(zoo::lenet(), HwConfig::lego_256())
            .with_objective(Objective::Lexicographic),
        kitchen_sink_request(),
    ]
}

#[test]
fn request_roundtrip_is_byte_identical() {
    for request in requests() {
        let bytes = request.encode();
        let decoded = EvalRequest::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded, request, "{}", request.workload.name);
        assert_eq!(decoded.encode(), bytes, "canonical form");
    }
}

#[test]
fn report_roundtrip_is_byte_identical() {
    let session = EvalSession::new();
    for request in requests() {
        let report = session.evaluate(&request);
        let bytes = report.encode();
        let decoded = EvalReport::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded, report, "{}", request.workload.name);
        assert_eq!(decoded.encode(), bytes, "canonical form");
    }
}

#[test]
fn a_decoded_request_evaluates_to_the_same_report() {
    // The multi-host contract: ship the bytes anywhere, evaluate there,
    // get bit-for-bit the report the sender would have computed. Each side
    // evaluates on a fresh session: provenance records cache warmth, so
    // the contract compares equal cache states (cold vs cold).
    for request in requests() {
        let remote = EvalRequest::decode(&request.encode()).expect("decodes");
        assert_eq!(
            EvalSession::new().evaluate(&remote),
            EvalSession::new().evaluate(&request)
        );
        assert_eq!(remote.fingerprint(), request.fingerprint());
    }
}

#[test]
fn every_request_prefix_truncation_errors_instead_of_panicking() {
    let bytes = kitchen_sink_request().encode();
    for len in 0..bytes.len() {
        assert!(
            EvalRequest::decode(&bytes[..len]).is_err(),
            "a {len}-byte prefix must fail to decode"
        );
    }
}

#[test]
fn every_report_prefix_truncation_errors_instead_of_panicking() {
    let bytes = EvalSession::new()
        .evaluate(&kitchen_sink_request())
        .encode();
    for len in 0..bytes.len() {
        assert!(
            EvalReport::decode(&bytes[..len]).is_err(),
            "a {len}-byte prefix must fail to decode"
        );
    }
}

#[test]
fn corruption_is_reported_not_panicked() {
    let request = kitchen_sink_request();
    let good = request.encode();
    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        EvalRequest::decode(&bad),
        Err(CodecError::BadMagic)
    ));
    // Unknown version.
    let mut bad = good.clone();
    bad[8] = 0xEE;
    assert!(matches!(
        EvalRequest::decode(&bad),
        Err(CodecError::UnsupportedVersion(0xEE))
    ));
    // A report payload is not a request (and vice versa).
    let report_bytes = EvalSession::new().evaluate(&request).encode();
    assert!(matches!(
        EvalRequest::decode(&report_bytes),
        Err(CodecError::WrongKind { .. })
    ));
    assert!(matches!(
        EvalReport::decode(&good),
        Err(CodecError::WrongKind { .. })
    ));
    // Trailing garbage.
    let mut bad = good.clone();
    bad.push(0);
    assert!(matches!(
        EvalRequest::decode(&bad),
        Err(CodecError::TrailingBytes(1))
    ));
    // Every single-byte corruption either decodes (the byte was inert for
    // validation — e.g. part of a float) or errors; none panic.
    for i in 0..good.len() {
        let mut fuzz = good.clone();
        fuzz[i] ^= 0xA5;
        let _ = EvalRequest::decode(&fuzz);
    }
    for i in 0..report_bytes.len() {
        let mut fuzz = report_bytes.clone();
        fuzz[i] ^= 0xA5;
        let _ = EvalReport::decode(&fuzz);
    }
}

#[test]
fn files_roundtrip_through_disk() {
    let dir = std::env::temp_dir().join(format!("lego_eval_codec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let request = kitchen_sink_request();
    let report = EvalSession::new().evaluate(&request);
    let req_path = dir.join("request.bin");
    let rep_path = dir.join("report.bin");
    request.write_to(&req_path).expect("request writes");
    report.write_to(&rep_path).expect("report writes");
    assert_eq!(EvalRequest::read_from(&req_path).expect("reads"), request);
    assert_eq!(EvalReport::read_from(&rep_path).expect("reads"), report);
    std::fs::remove_dir_all(&dir).ok();
}

/// Arbitrary `i64`s, with the extremes and `-1` drawn often.
fn any_i64() -> impl Strategy<Value = i64> {
    (0u8..8, 0u64..u64::MAX).prop_map(|(pick, bits)| match pick {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1,
        _ => bits as i64,
    })
}

/// Arbitrary `f64` bit patterns: NaNs, infinities and subnormals included.
fn any_f64() -> impl Strategy<Value = f64> {
    (0u8..8, 0u64..u64::MAX).prop_map(|(pick, bits)| match pick {
        0 => f64::from_bits(u64::MAX),
        1 => f64::NEG_INFINITY,
        _ => f64::from_bits(bits),
    })
}

/// Every `LayerKind` variant with arbitrary fields, and its field bytes.
fn layer_kind() -> impl Strategy<Value = (LayerKind, usize)> {
    (0u8..4, proptest::collection::vec(any_i64(), 8usize)).prop_map(|(tag, v)| match tag {
        0 => (
            LayerKind::Gemm {
                m: v[0],
                n: v[1],
                k: v[2],
            },
            8 * 3,
        ),
        1 => {
            let kind = LayerKind::Conv {
                n: v[0],
                ic: v[1],
                oc: v[2],
                oh: v[3],
                ow: v[4],
                kh: v[5],
                kw: v[6],
                stride: v[7],
            };
            (kind, 8 * 8)
        }
        2 => {
            let kind = LayerKind::DwConv {
                n: v[0],
                c: v[1],
                oh: v[2],
                ow: v[3],
                kh: v[4],
                kw: v[5],
                stride: v[6],
            };
            (kind, 8 * 7)
        }
        _ => {
            let kind = LayerKind::Attention {
                heads: v[0],
                seq_q: v[1],
                seq_kv: v[2],
                dk: v[3],
                dv: v[4],
            };
            (kind, 8 * 5)
        }
    })
}

/// Every `DensityModel` variant with arbitrary fields, and its field bytes.
fn density_model() -> impl Strategy<Value = (DensityModel, usize)> {
    (0u8..3, 0u16..=u16::MAX, 0u8..=u8::MAX, 0u8..=u8::MAX).prop_map(|(tag, permille, n, m)| {
        match tag {
            0 => (DensityModel::Dense, 0),
            1 => (DensityModel::Uniform { permille }, 2),
            _ => (DensityModel::StructuredNM { n, m }, 2),
        }
    })
}

/// Every `Objective` variant with arbitrary fields, and its field bytes.
fn objective() -> impl Strategy<Value = (Objective, usize)> {
    let base = proptest::sample::select(BaseObjective::ALL.to_vec());
    let budget = || (proptest::bool::ANY, any_f64()).prop_map(|(some, v)| some.then_some(v));
    (0u8..3, base, budget(), budget(), any_f64()).prop_map(
        |(tag, base, area_budget, power_budget, weight)| match tag {
            0 => (Objective::Base(base), 1),
            1 => {
                let options = [area_budget, power_budget].map(|b| 1 + 8 * usize::from(b.is_some()));
                let penalized = Objective::Penalized {
                    base,
                    area_budget,
                    power_budget,
                    weight,
                };
                (penalized, 1 + options[0] + options[1] + 8)
            }
            _ => (Objective::Lexicographic, 0),
        },
    )
}

/// Encodes `value`, decodes it back and re-encodes it. The decode must
/// read every byte and give back the same value (compared through `Debug`,
/// so NaN fields count as equal; the bytes hold their payloads), and the
/// two encodings must be identical. Returns the encoded length.
fn reencode<T: Wire + std::fmt::Debug>(value: &T) -> Result<usize, TestCaseError> {
    let mut e = Enc::default();
    value.put(&mut e);
    let bytes = e.into_bytes();
    let mut d = Dec::new(&bytes);
    let decoded = T::get(&mut d).map_err(|err| TestCaseError::Fail(err.to_string()))?;
    d.done()
        .map_err(|err| TestCaseError::Fail(err.to_string()))?;
    prop_assert_eq!(format!("{decoded:?}"), format!("{value:?}"));
    let mut again = Enc::default();
    decoded.put(&mut again);
    prop_assert_eq!(again.into_bytes(), bytes, "re-encoding differs");
    Ok(bytes.len())
}

proptest! {
    #[test]
    fn every_derived_variant_roundtrips(
        (kind, kind_bytes) in layer_kind(),
        (density, density_bytes) in density_model(),
        (objective, objective_bytes) in objective(),
    ) {
        prop_assert_eq!(reencode(&kind)?, 1 + kind_bytes);
        prop_assert_eq!(reencode(&density)?, 1 + density_bytes);
        prop_assert_eq!(reencode(&objective)?, 1 + objective_bytes);
    }
}

/// The `what` of the `InvalidTag` that decoding the lone byte `tag` as a
/// `T` returns.
fn invalid_tag_name<T: Wire + std::fmt::Debug>(tag: u8) -> &'static str {
    match T::get(&mut Dec::new(&[tag])) {
        Err(CodecError::InvalidTag { what, tag: found }) => {
            assert_eq!(found, tag);
            what
        }
        other => panic!("tag {tag} decoded to {other:?}"),
    }
}

#[test]
fn the_first_tag_past_the_last_variant_is_invalid() {
    assert_eq!(invalid_tag_name::<LayerKind>(4), "layer kind");
    assert_eq!(invalid_tag_name::<DensityModel>(3), "density model");
    assert_eq!(invalid_tag_name::<Objective>(3), "objective");
    assert_eq!(invalid_tag_name::<SpatialMapping>(5), "spatial mapping");
    assert_eq!(invalid_tag_name::<SparseAccel>(3), "sparse feature");
    assert_eq!(invalid_tag_name::<CompressedFormat>(4), "compressed format");
    assert_eq!(invalid_tag_name::<Nonlinear>(3), "nonlinear kind");
    assert_eq!(invalid_tag_name::<BaseObjective>(4), "base objective");
    assert_eq!(invalid_tag_name::<Option<i64>>(2), "i64 option");
    assert_eq!(invalid_tag_name::<Option<f64>>(2), "f64 option");
}
