//! Deterministic request rosters for load generation.
//!
//! The `serve_client` binary and the soak test need the *same* request
//! stream on every run — CI compares reply files across two independent
//! server processes with `cmp`, so nothing here may be random. A roster
//! is a short list of named (model, hardware, sparsity, tiling)
//! combinations; a mix of `n` requests cycles through it round-robin.

use lego_eval::{EvalError, EvalRequest};
use lego_model::HwConfig;
use lego_model::{SparseAccel, SparseHw};
use lego_workloads::zoo;

/// A 2×2-cluster variant of LEGO-256: same per-cluster array, but the
/// evaluation now pays modeled L2-mesh traffic — the "clustered" leg of
/// the mixed load.
fn lego_256_clustered() -> HwConfig {
    let mut hw = HwConfig::lego_256();
    hw.clusters = (2, 2);
    hw
}

/// The named request roster for `mix`. Every entry differs from every
/// other in model, hardware, sparsity, or tiling, so their cache
/// footprints are disjoint and a byte-budgeted server cache visibly
/// evicts under the full mix.
pub fn roster(mix: &str) -> Result<Vec<EvalRequest>, EvalError> {
    let dense = || {
        vec![
            EvalRequest::new(zoo::lenet(), HwConfig::lego_256()),
            EvalRequest::new(zoo::mobilenet_v2(), HwConfig::lego_256()),
            EvalRequest::new(zoo::mobilenet_v2(), HwConfig::lego_256()).with_tile_cap(Some(64)),
        ]
    };
    let sparse = || {
        vec![
            EvalRequest::new(zoo::resnet50_2to4(), HwConfig::lego_256())
                .with_sparse(SparseHw::with_accel(SparseAccel::Skipping)),
            EvalRequest::new(zoo::lenet(), HwConfig::lego_256())
                .with_sparse(SparseHw::with_accel(SparseAccel::Gating)),
        ]
    };
    let clustered = || {
        vec![
            EvalRequest::new(zoo::mobilenet_v2(), lego_256_clustered()),
            EvalRequest::new(zoo::lenet(), lego_256_clustered()),
        ]
    };
    let requests = match mix {
        "dense" => dense(),
        "sparse" => sparse(),
        "clustered" => clustered(),
        "all" => [dense(), sparse(), clustered()].concat(),
        other => {
            return Err(EvalError::Unknown {
                what: "mix",
                name: other.to_string(),
            })
        }
    };
    for request in &requests {
        request.validate()?;
    }
    Ok(requests)
}

/// `n` requests cycling through [`roster`] round-robin.
pub fn request_mix(mix: &str, n: usize) -> Result<Vec<EvalRequest>, EvalError> {
    let roster = roster(mix)?;
    Ok((0..n).map(|i| roster[i % roster.len()].clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mix_name_builds_valid_requests() {
        for mix in ["dense", "sparse", "clustered", "all"] {
            let requests = roster(mix).unwrap();
            assert!(!requests.is_empty(), "{mix}");
            for r in &requests {
                r.validate().unwrap();
            }
        }
        assert!(roster("nope").is_err());
    }

    #[test]
    fn mixes_are_deterministic_and_fingerprint_disjoint() {
        let a = request_mix("all", 16).unwrap();
        let b = request_mix("all", 16).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.encode(), y.encode());
        }
        let roster = roster("all").unwrap();
        let prints: std::collections::HashSet<u64> =
            roster.iter().map(|r| r.fingerprint()).collect();
        assert_eq!(prints.len(), roster.len(), "roster entries must differ");
    }
}
