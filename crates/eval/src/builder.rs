//! Fluent, validating construction of an [`EvalRequest`].
//!
//! [`EvalRequest::new`] plus the `with_*` combinators build a request
//! without looking at it; nothing stops an empty workload, a hardware
//! configuration that fuses no dataflows, or a zero tile cap from reaching
//! the evaluator (where the cost model would price nonsense or panic deep
//! in a mapping search). The builder is the validated front door:
//! [`EvalRequestBuilder::build`] checks the request the way `lego-serve`
//! checks one arriving off the wire and returns a typed [`EvalError`]
//! instead of evaluating garbage.
//!
//! ```
//! use lego_eval::EvalRequest;
//! use lego_sim::HwConfig;
//!
//! let request = EvalRequest::builder(lego_workloads::zoo::lenet(), HwConfig::lego_256())
//!     .tile_cap(64)
//!     .build()
//!     .expect("a valid zoo request");
//! assert_eq!(request.tile_cap, Some(64));
//! ```

use crate::error::EvalError;
use crate::objective::Objective;
use crate::session::EvalRequest;
use lego_model::{SparseHw, TechModel};
use lego_sim::HwConfig;
use lego_workloads::Model;

/// Builds a validated [`EvalRequest`]; see the [module docs](self).
///
/// Created by [`EvalRequest::builder`]. Workload and hardware are the two
/// required inputs and are taken up front; everything else defaults the
/// same way [`EvalRequest::new`] defaults (dense datapath, default
/// technology, EDP objective, automatic tiling).
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until build() is called"]
pub struct EvalRequestBuilder {
    workload: Model,
    hw: HwConfig,
    sparse: SparseHw,
    tech: TechModel,
    objective: Objective,
    tile_cap: Option<i64>,
}

impl EvalRequestBuilder {
    pub(crate) fn new(workload: Model, hw: HwConfig) -> Self {
        EvalRequestBuilder {
            workload,
            hw,
            sparse: SparseHw::dense(),
            tech: TechModel::default(),
            objective: Objective::EDP,
            tile_cap: None,
        }
    }

    /// Replaces the sparse datapath configuration (default: dense).
    pub fn sparse(mut self, sparse: SparseHw) -> Self {
        self.sparse = sparse;
        self
    }

    /// Replaces the technology model (default: [`TechModel::default`]).
    pub fn tech(mut self, tech: TechModel) -> Self {
        self.tech = tech;
        self
    }

    /// Replaces the reported scalarization (default: EDP).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Caps the L1 tile edge (default: buffer-limited automatic tiling).
    pub fn tile_cap(mut self, cap: i64) -> Self {
        self.tile_cap = Some(cap);
        self
    }

    /// Validates and produces the request.
    ///
    /// # Errors
    ///
    /// - [`EvalError::EmptyWorkload`] if the workload has no layers;
    /// - [`EvalError::Hw`] if the hardware configuration fails
    ///   [`HwConfig::validate`];
    /// - [`EvalError::InvalidTileCap`] if a tile cap was set and is not
    ///   positive.
    pub fn build(self) -> Result<EvalRequest, EvalError> {
        if self.workload.layers.is_empty() {
            return Err(EvalError::EmptyWorkload);
        }
        self.hw.validate()?;
        if let Some(cap) = self.tile_cap {
            if cap <= 0 {
                return Err(EvalError::InvalidTileCap(cap));
            }
        }
        Ok(EvalRequest::new(self.workload, self.hw)
            .with_sparse(self.sparse)
            .with_tech(self.tech)
            .with_objective(self.objective)
            .with_tile_cap(self.tile_cap))
    }
}

impl EvalRequest {
    /// Starts a validating builder for a request pricing `workload` on
    /// `hw`; see [`EvalRequestBuilder`].
    pub fn builder(workload: Model, hw: HwConfig) -> EvalRequestBuilder {
        EvalRequestBuilder::new(workload, hw)
    }

    /// Validates an already-constructed request against the same rules
    /// [`EvalRequestBuilder::build`] enforces — what `lego-serve` runs on
    /// every request admitted off the wire.
    ///
    /// # Errors
    ///
    /// See [`EvalRequestBuilder::build`].
    pub fn validate(&self) -> Result<(), EvalError> {
        if self.workload.layers.is_empty() {
            return Err(EvalError::EmptyWorkload);
        }
        self.hw.validate()?;
        if let Some(cap) = self.tile_cap {
            if cap <= 0 {
                return Err(EvalError::InvalidTileCap(cap));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StatusCode;

    #[test]
    fn builder_defaults_match_new() {
        let built = EvalRequest::builder(lego_workloads::zoo::lenet(), HwConfig::lego_256())
            .build()
            .unwrap();
        let direct = EvalRequest::new(lego_workloads::zoo::lenet(), HwConfig::lego_256());
        assert_eq!(built, direct);
        assert_eq!(built.encode(), direct.encode());
    }

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
        let err = EvalRequest::builder(lego_workloads::zoo::lenet(), HwConfig::lego_256())
            .tile_cap(0)
            .build()
            .unwrap_err();
        assert_eq!(err.status(), StatusCode::INVALID_TILE_CAP);
    }

    #[test]
    fn validate_agrees_with_the_builder() {
        let request = EvalRequest::new(lego_workloads::zoo::lenet(), HwConfig::lego_256());
        assert!(request.validate().is_ok());
        let bad = EvalRequest::new(lego_workloads::zoo::lenet(), HwConfig::lego_256())
            .with_tile_cap(Some(-1));
        assert_eq!(
            bad.validate().unwrap_err().status(),
            StatusCode::INVALID_TILE_CAP
        );
    }
}
