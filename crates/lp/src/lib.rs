//! Linear-programming algorithms for the LEGO back end.
//!
//! The paper (§V) formulates three optimization problems over the detailed
//! architecture graph (DAG):
//!
//! 1. **Delay matching** (§V-A): insert the minimum total register *bits* so
//!    that all paths into every component carry the same latency. This is the
//!    LP `min Σ W_uv·EL_uv` with `EL_uv = D_v − D_u − L_uv ≥ 0`. The paper
//!    uses HiGHS; we exploit that the constraint matrix is a network matrix —
//!    the LP is the dual of a min-cost flow — and solve it exactly with
//!    [`solve_delay_matching`], which returns the earliest optimal
//!    schedule: a property of the LP, not of the flow algorithm.
//! 2. **Broadcast pin rewiring** (§V-B): re-runs the same LP with an
//!    optimistic cost for broadcast pins (implemented in `lego-backend`,
//!    using the hooks here).
//! 3. **Pin reusing** (§V-C): a 0-1 integer program mapping original reducer
//!    pins to a smaller set of physical pins across dataflow configurations,
//!    solved by [`optimize_pin_remap`] (exact branch-and-bound with a
//!    Hungarian-assignment greedy fallback).
//!
//! The tests check the delay-matching solver node by node against a dense
//! two-phase simplex, a test-only module.

pub mod assign;
pub mod delay;
pub mod mcmf;
#[cfg(test)]
mod simplex;

pub use assign::{hungarian, optimize_pin_remap, PinRemap};
pub use delay::{solve_delay_matching, DelayAssignment, DelayEdge, DelayError};
pub use mcmf::MinCostFlow;
