//! Shared helpers and design points for the table/figure harness binaries.
//!
//! Every table and figure of the paper's evaluation (§VI) has a binary in
//! `src/bin/` that regenerates it:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table_fig10_opt_savings` | Figure 10 (area/energy savings per kernel) |
//! | `table_fig11_end2end` | Figure 11 (Gemmini vs LEGO end-to-end) |
//! | `table_fig12_breakdown` | Figure 12 (area/power/latency breakdowns) |
//! | `table_fig13_14_backend_ablation` | Figures 13–14 (per-pass breakdown) |
//! | `table_ii_genai` | Table II (generative models on LEGO-ICOC-1K) |
//! | `table_iii_handwritten` | Table III (Eyeriss / NVDLA comparison) |
//! | `table_iv_scaling` | Table IV (scaling to 16 384 FUs) |
//! | `table_v_fusion` | Table V (dataflow-fusion efficacy) |
//! | `table_vi_related` | Table VI (related-work factors) |
//! | `table_vii_soda` | Table VII (SODA toolchain comparison) |
//! | `table_viii_autosa` | Table VIII (AutoSA FF/LUT comparison) |
//! | `table_dse` | Design-space exploration vs. the hand-picked `lego_256` |
//! | `table_sparse` | Sparse DSE (dense/gating/skipping) + per-layer formats |
//! | `dse_shard` | Distributed DSE worker/coordinator (run/merge/verify) |
//! | `eval_report` | `EvalRequest`→`EvalReport` codec driver (determinism gate) |
//!
//! Every binary that prices a workload on a configuration does so through
//! [`harness::evaluate`] — one `EvalSession` per binary speaking the
//! canonical `EvalRequest`/`EvalReport` API from `lego-eval`.

pub mod designs;
pub mod harness;

pub use designs::{kernel_designs, KernelDesign};
