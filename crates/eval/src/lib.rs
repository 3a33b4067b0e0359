//! # lego-eval — the canonical request/response evaluation layer
//!
//! Every earlier generation of this workspace priced designs through free
//! functions: `simulate_layer` / `simulate_layer_tiled` /
//! `simulate_layer_ctx`, `best_mapping` and friends, `map_model` and
//! friends — three generations of entry points over one honest cost model,
//! with every bench binary hand-wiring `HwConfig` + `TechModel` + sparsity
//! on the side. This crate collapses them into one API, the shape
//! Sparseloop- and Timeloop-style evaluators expose:
//!
//! * [`EvalRequest`] — *what* to price: a workload, a hardware
//!   configuration (dense + sparse halves), a technology model, the
//!   [`Objective`] to score, and the tiling knob;
//! * [`EvalSession`] — *how* it is priced: owns
//!   [`CostContext`](lego_model::CostContext) construction, the memoized
//!   [`EvalCache`], and the worker pool, behind
//!   [`evaluate`](EvalSession::evaluate) for one request and
//!   [`run_batch`](EvalSession::run_batch) for many;
//! * [`EvalReport`] — the response: per-layer mapping results (including
//!   the [`CompressedFormat`](lego_model::CompressedFormat) selected per
//!   operand), aggregated [`ModelPerf`](lego_sim::ModelPerf), a
//!   [`CostSummary`], and [`Provenance`].
//!
//! Requests and reports carry a versioned binary codec
//! ([`EvalRequest::encode`] / [`EvalReport::encode`]; same magic+version
//! discipline as the explorer's `Snapshot`, `encode → decode → encode`
//! byte-identical), so a multi-host driver can ship work over any byte
//! transport.
//!
//! ```
//! use lego_eval::{EvalRequest, EvalSession};
//! use lego_model::HwConfig;
//!
//! let session = EvalSession::new();
//! let request = EvalRequest::new(lego_workloads::zoo::lenet(), HwConfig::lego_256());
//! let report = session.evaluate(&request);
//! assert!(report.cost.edp() > 0.0);
//!
//! // The request round-trips byte-identically through the codec…
//! let bytes = request.encode();
//! let decoded = lego_eval::EvalRequest::decode(&bytes).unwrap();
//! assert_eq!(decoded.encode(), bytes);
//! // …and a remote worker evaluating the decoded request reproduces the
//! // report bit-for-bit (evaluation is pure; a fresh session matches the
//! // sender's cold cache, which provenance records).
//! assert_eq!(EvalSession::new().evaluate(&decoded), report);
//! ```
//!
//! `simulate_layer_ctx` / `best_mapping_ctx` / `map_model_ctx` — what a
//! session runs per layer — remain public as the low-level entry points
//! the session is tested against.
//!
//! Failures across the stack — codec, validation, transport, admission —
//! collapse into one [`EvalError`] enum whose [`StatusCode`] mapping is
//! the `lego-serve` wire status contract.

pub mod cache;
pub mod cli;
pub mod codec;
pub mod error;
pub mod hash;
pub mod objective;
#[allow(unsafe_code)]
pub mod pool;
pub mod session;

pub use cache::{estimated_resident_bytes_for, layer_key, CacheGauges, EvalCache};
pub use codec::{CodecError, VERSION as CODEC_VERSION};
pub use error::{EvalError, Reject, StatusCode};
pub use hash::{stable_hash, FnvHasher};
pub use objective::{BaseObjective, Objective, Objectives};
pub use pool::WorkerPool;
pub use session::{
    CostSummary, EvalReport, EvalRequest, EvalRequestBuilder, EvalRequestRef, EvalSession,
    LayerReport, Priced, Provenance,
};

/// Rejections of request building: `EvalRequest::new(..).with_*()` checked
/// by [`EvalRequest::validate`], the one validator the
/// [`EvalRequest::builder`] shim's `build` also runs.
#[cfg(test)]
mod builder {
    mod tests {
        use crate::{EvalRequest, StatusCode};
        use lego_model::HwConfig;
        use lego_workloads::Model;

        #[test]
        fn builder_rejects_empty_workload() {
            let empty = Model {
                name: "empty".into(),
                layers: Vec::new(),
            };
            let err = EvalRequest::builder(empty, HwConfig::lego_256())
                .build()
                .unwrap_err();
            assert_eq!(err.status(), StatusCode::EMPTY_WORKLOAD);
        }

        #[test]
        fn builder_rejects_invalid_hw() {
            let mut hw = HwConfig::lego_256();
            hw.dataflows.clear();
            let err = EvalRequest::builder(lego_workloads::zoo::lenet(), hw)
                .build()
                .unwrap_err();
            assert_eq!(err.status(), StatusCode::INVALID_HW);
        }

        #[test]
        fn builder_rejects_nonpositive_tile_cap() {
            let err = EvalRequest::new(lego_workloads::zoo::lenet(), HwConfig::lego_256())
                .with_tile_cap(Some(0))
                .validate()
                .unwrap_err();
            assert_eq!(err.status(), StatusCode::INVALID_TILE_CAP);
        }

        #[test]
        fn validate_agrees_with_the_builder() {
            let request = EvalRequest::new(lego_workloads::zoo::lenet(), HwConfig::lego_256());
            assert!(request.validate().is_ok());
            assert_eq!(
                EvalRequest::builder(request.workload.clone(), request.hw.clone())
                    .build()
                    .unwrap(),
                request
            );
            let bad = request.with_tile_cap(Some(-1));
            assert_eq!(
                bad.validate().unwrap_err().status(),
                StatusCode::INVALID_TILE_CAP
            );
        }
    }
}
