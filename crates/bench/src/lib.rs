//! Shared helpers, design points and the paper's claims table for the
//! harness binaries in `src/bin/`:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `paper_tables` | Figures 10–14 and Tables II–VIII, each with its scorecard |
//! | `table_dse` | Design-space exploration vs. the hand-picked `lego_256` |
//! | `table_sparse` | Sparse DSE (dense/gating/skipping) + per-layer formats |
//! | `mapspace_search` | Equality-saturation mapping search per model × hardware |
//! | `dse_shard` | Distributed DSE worker/coordinator (run/merge/verify) |
//! | `eval_report` | `EvalRequest`→`EvalReport` codec driver (determinism gate) |
//!
//! `paper_tables` follows every table with one line per claim in
//! [`paper::CLAIMS`]: `id | ours | paper | error | verdict`. The error is
//! relative for quantities and ratios, in percentage points for shares, and
//! `-` for "< x" bounds; the verdict is `within` (tolerance, a function of the
//! claim's unit class), `known gap` (outside it and flagged so in the table)
//! or `unscored`. The last line counts the rows within tolerance.
//!
//! Every table that prices a workload on a configuration does so through
//! [`harness::evaluate`] — one `EvalSession` per table speaking the
//! canonical `EvalRequest`/`EvalReport` API from `lego-eval` — and every
//! table that prices generated hardware through [`harness::adg`] and
//! [`harness::price`].

pub mod designs;
pub mod harness;
pub mod paper;

pub use designs::{kernel_designs, KernelDesign};
