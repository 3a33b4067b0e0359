//! Codec contract tests: requests and reports are canonical wire payloads
//! (`encode → decode → encode` byte-identical), and malformed bytes error
//! instead of panicking — the properties a multi-host driver leans on.

use lego_eval::{CodecError, EvalReport, EvalRequest, EvalSession, Objective};
use lego_model::HwConfig;
use lego_model::{SparseAccel, SparseHw, TechModel};
use lego_workloads::zoo;

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
