//! # LEGO — Spatial Accelerator Generation and Optimization
//!
//! A complete Rust reproduction of *LEGO: Spatial Accelerator Generation
//! and Optimization for Tensor Applications* (HPCA 2025). This facade crate
//! re-exports the whole workspace:
//!
//! * [`linalg`] — integer linear algebra (HNF, exact integer solving with its
//!   nullspace lattice, affine maps);
//! * [`graph`] — Chu-Liu/Edmonds arborescences, MSTs, union-find;
//! * [`lp`] — min-cost flow, exact delay-matching, pin remapping;
//! * [`ir`] — the relation-centric workload/dataflow representation (§III);
//! * [`frontend`] — interconnect planning, fusion, memory banking (§IV);
//! * [`backend`] — the primitive DAG and its optimization passes (§V);
//! * [`rtl`] — Verilog emission and edge-accurate functional simulation;
//! * [`model`] — 28 nm area/power/energy tables, a CACTI-style SRAM fit,
//!   and the unified cost stack: one `CostContext { hw, tech, sram, noc }`
//!   per configuration, priced through its compute / memory / NoC methods;
//! * [`eval`] — the canonical request/response evaluation layer: an
//!   `EvalSession` owns `CostContext` construction and the memoized
//!   `EvalCache`, and prices serializable `EvalRequest`s into
//!   `EvalReport`s (`evaluate` for one, `run_batch` on scoped threads
//!   for many); the versioned binary codec makes requests and reports
//!   wire payloads a multi-host driver can ship anywhere;
//! * [`serve`] — the long-lived evaluation server over that codec:
//!   framed TCP/Unix streams of requests into a warm shared session,
//!   bounded admission with backpressure, a byte-budgeted cache, and the
//!   unified `EvalError`/`StatusCode` wire status contract (`lego_serve`
//!   server and `serve_client` load-gen binaries);
//! * [`noc`] — butterfly and wormhole-mesh NoC models with
//!   `Transfer`-returning latency queries (broadcast, scatter, halo);
//! * [`sim`] — the performance/energy simulator (multi-cluster designs pay
//!   modeled L2-mesh latency, not just energy);
//! * [`mapper`] — the uncached per-layer mapping loop (`map_model_ctx`), the
//!   reference an `EvalSession` is tested against;
//! * [`mapspace`] — equality-saturation mapping search: a hash-consed
//!   e-graph over loop-nest mapping terms, dataflow/tiling/fusion rewrite
//!   rules saturated under a node budget, and a minimum-EDP extractor
//!   priced through a warm `EvalSession`;
//! * [`explorer`] — parallel hardware design-space exploration: grid /
//!   random / (μ+λ) evolutionary search over array shape × L2 cluster
//!   grid × buffer × bandwidth × dataflow set × tiling, under hard
//!   area/power feasibility budgets, sharing a memoized evaluation
//!   cache and accumulating a (latency, energy, area) Pareto frontier —
//!   shardable across processes/hosts (`DesignSpace::shard` partitions
//!   the space deterministically, `Snapshot` checkpoints a shard's
//!   frontier + cache to a file, and merging is a lossless union);
//! * [`sparse`] — Sparseloop-style sparsity modeling: density models
//!   (uniform, N:M structured, masked attention), compressed formats
//!   (bitmask / RLE / CSR) with storage and decode costs, and the
//!   gating/skipping acceleration features the cost stack prices;
//! * [`workloads`] — the ten-model NN zoo of the paper's evaluation,
//!   plus pruned/masked sparse variants (ResNet50 @ 2:4, BERT @ 90 %
//!   weight sparsity, causal-mask GPT-2 prefill);
//! * [`baselines`] — Gemmini / AutoSA / TensorLib / SODA / DSAGen models;
//! * [`core`] — the [`Lego`](core::Lego) generator builder: workload and
//!   dataflows in, optimized design, Verilog and simulation out.
//!
//! # Quickstart: evaluate a workload on a configuration
//!
//! Everything that prices a design goes through one API: build an
//! `EvalRequest`, hand it to an `EvalSession`, read the `EvalReport`.
//! The session owns the cost model, the memoized evaluation cache, and
//! batch threading; requests are serializable, so the same bytes evaluate
//! identically on any host.
//!
//! ```
//! use lego::eval::{EvalRequest, EvalSession};
//! use lego::model::HwConfig;
//!
//! let session = EvalSession::new();
//! let request = EvalRequest::new(
//!     lego::workloads::zoo::lenet(),
//!     HwConfig::lego_256(),
//! );
//! let report = session.evaluate(&request);
//! println!(
//!     "{:.0} GOP/s at {:.0} GOPS/W, EDP {:.3e}",
//!     report.model.gops, report.model.gops_per_watt, report.cost.edp(),
//! );
//!
//! // Requests round-trip byte-identically through the versioned codec —
//! // the transport contract of the multi-host evaluation workflow. A
//! // fresh session reproduces the report bit-for-bit (its provenance
//! // records cache warmth, so cold compares against cold).
//! let bytes = request.encode();
//! let decoded = EvalRequest::decode(&bytes).unwrap();
//! assert_eq!(decoded.encode(), bytes);
//! assert_eq!(EvalSession::new().evaluate(&decoded), report);
//! ```
//!
//! # Serving workflow
//!
//! The same bytes can be priced without sharing a process: [`serve`]
//! keeps an `EvalSession` warm behind framed TCP and Unix-socket
//! streams. A request travels as a checksummed frame; the reply is a
//! `status u16 | body` payload where OK carries the encoded report —
//! byte-identical to an offline `EvalSession::new()` evaluation, no
//! matter how warm the server is — and every failure (malformed bytes,
//! invalid hardware, full queue, oversized frame) is a typed
//! [`StatusCode`](eval::StatusCode) the client receives as
//! [`EvalError::Remote`](eval::EvalError), never a dropped connection.
//!
//! ```
//! use lego::eval::{EvalRequest, EvalSession};
//! use lego::serve::{Client, Server, ServerConfig};
//! use lego::model::HwConfig;
//!
//! let server = Server::new(ServerConfig::default());
//! let addr = server.listen_tcp("127.0.0.1:0").unwrap();
//!
//! let request = EvalRequest::new(lego::workloads::zoo::lenet(), HwConfig::lego_256())
//!     .with_tile_cap(Some(64));
//! request.validate().unwrap();
//! let mut client = Client::connect_tcp(addr).unwrap();
//! let served = client.evaluate_bytes(&request).unwrap();
//! assert_eq!(served, EvalSession::new().evaluate(&request).encode());
//! server.shutdown();
//! ```
//!
//! Out of process, the `lego_serve` binary serves the same protocol
//! (`lego_serve --tcp 127.0.0.1:7878 --cache-budget 16000000`) and
//! `serve_client` generates deterministic mixed load against it — see
//! `examples/serve_roundtrip.rs` for the full tour, including
//! backpressure and the status discipline.
//!
//! # Observability
//!
//! Attach an [`obs`] handle to see where an evaluation spends its work —
//! per-phase spans, cache warmth, mapping counts — without changing any
//! result. `Obs::deterministic()` never reads the clock, so its rendered
//! summary is byte-identical across runs (CI diffs it);
//! `Obs::wall_clock()` records real durations for perf hunts.
//!
//! ```
//! use lego::eval::{EvalRequest, EvalSession};
//! use lego::obs::Obs;
//! use lego::model::HwConfig;
//!
//! let obs = Obs::deterministic();
//! let session = EvalSession::new().with_obs(obs.clone());
//! let request = EvalRequest::new(
//!     lego::workloads::zoo::lenet(),
//!     HwConfig::lego_256(),
//! );
//! session.evaluate(&request);
//! let summary = obs.summary();
//! assert_eq!(summary.counter("eval.requests"), 1);
//! assert!(summary.spans.contains_key("eval/mapping_search"));
//! ```
//!
//! # Tracing & profiling workflow
//!
//! When the summary says *where* work went but not *when*, capture a
//! trace. `Obs::wall_clock().traced(n)` attaches a bounded ring buffer of
//! typed events (span enter/exit, counter deltas) to the recorder; every
//! span is stamped with the `RequestId` the session minted for its
//! evaluation, so concurrent requests untangle on the timeline.
//!
//! 1. **Capture.** Attach a traced handle and evaluate:
//!    `eval_report --wallclock --trace-out trace.json --folded-out
//!    stacks.txt`, or in code: `Obs::wall_clock().traced(65536)` →
//!    `obs.trace_snapshot()`. The ring is bounded — a run that overflows
//!    it drops the *oldest* events and the exporters still emit a
//!    well-formed trace (only matched enter/exit pairs are written).
//! 2. **Look at the timeline.** The Chrome trace-event JSON
//!    (`chrome_trace_json()`) loads in [Perfetto](https://ui.perfetto.dev)
//!    or `chrome://tracing`: `eval/evaluate` parents
//!    `eval/{context_build,mapping_search,aggregate}`, explorer runs add
//!    `explore/shard/strategy`, and counter tracks plot cache warmth over
//!    time. Click any span to read its `request_id`.
//! 3. **Find the hot stack.** `folded_stacks()` emits `outer;inner ns`
//!    lines for flamegraph tools (inferno, `flamegraph.pl`, speedscope) —
//!    self time per stack, children subtracted.
//! 4. **Read the percentiles.** Summaries carry log-bucketed p50/p90/p99
//!    per span and per recorded value (`SpanStat::p99_ns`), so a long
//!    tail is visible even when the mean looks fine. Deterministic mode
//!    records the same bucket *counts* but zeroes all wall values — the
//!    rendered summary stays byte-identical across runs.
//! 5. **Gate the regression.** A trace says where time goes inside one
//!    process; whether a change made anything faster or slower is decided
//!    by the repo benchmark alone — see *Performance workflow* below.
//!
//! ```
//! use lego::eval::{EvalRequest, EvalSession};
//! use lego::obs::Obs;
//! use lego::model::HwConfig;
//!
//! // Deterministic here so the doctest is stable; use wall_clock() to
//! // profile for real.
//! let obs = Obs::deterministic().traced(4096);
//! let session = EvalSession::new().with_obs(obs.clone());
//! let request = EvalRequest::new(
//!     lego::workloads::zoo::lenet(),
//!     HwConfig::lego_256(),
//! );
//! session.evaluate(&request);
//!
//! let snapshot = obs.trace_snapshot().unwrap();
//! let trace = snapshot.chrome_trace_json();       // -> Perfetto
//! let stacks = snapshot.folded_stacks();          // -> flamegraph
//! assert!(trace.contains("\"name\": \"eval/mapping_search\""));
//! assert!(trace.contains("\"request_id\": 1"));
//! assert!(stacks.contains("eval/evaluate;eval/mapping_search"));
//!
//! // The session's cache gauges price what stayed resident.
//! let gauges = session.cache().gauges();
//! assert!(gauges.entries > 0 && gauges.resident_bytes > 0);
//! ```
//!
//! # Generating hardware
//!
//! The generator half: describe a workload relation-centrically, pick a
//! spatial dataflow, and emit a verified design.
//!
//! ```
//! use lego::core::Lego;
//! use lego::ir::kernels::{self, dataflows};
//!
//! // Generate the 2×2 systolic GEMM array of the paper's Figure 3 and
//! // verify it against the reference loop nest.
//! let gemm = kernels::gemm(8, 4, 4);
//! let design = Lego::new(gemm.clone())
//!     .dataflow(dataflows::gemm_kj(&gemm, 2))
//!     .generate()
//!     .unwrap();
//!
//! use lego::ir::{tensor::reference_execute, TensorData};
//! let x = TensorData::from_fn(&[8, 4], |i| i as i64 % 5);
//! let w = TensorData::from_fn(&[4, 4], |i| i as i64 % 3);
//! assert_eq!(
//!     design.simulate(0, &[&x, &w]).output,
//!     reference_execute(&gemm, &[&x, &w]),
//! );
//! ```
//!
//! # Exploring the hardware design space
//!
//! Where the quickstart evaluates one configuration, the explorer
//! searches the space — every strategy routes its genome evaluations
//! through one shared `EvalSession`, so overlapping searches pay for each
//! layer simulation once:
//!
//! ```
//! use lego::explorer::{default_strategies, explore, DesignSpace, ExploreOptions};
//!
//! let model = lego::workloads::zoo::lenet();
//! let result = explore(
//!     &model,
//!     &DesignSpace::tiny(),
//!     &mut default_strategies(42),
//!     &ExploreOptions { budget_per_strategy: 16, ..Default::default() },
//! );
//! let best = result.best_by_edp().unwrap();
//! println!("best config: {} (EDP {:.3e})", best.genome, best.objectives.edp());
//! assert!(result.frontier.len() >= 1);
//! ```
//!
//! # Mapping-search workflow
//!
//! The mapper's enumeration picks each layer's best mapping from the
//! hardware's dataflow menu independently. The [`mapspace`] crate searches
//! a *rewrite space* instead: seed an e-graph with the enumerated
//! assignment, saturate loop-interchange / tile-split / spatial↔temporal /
//! fusion-regrouping rules, and extract the minimum-EDP assignment by
//! pricing candidates through the same warm `EvalSession` (so nothing is
//! simulated twice). The extracted EDP can never lose to enumeration —
//! the extractor's descent starts there — and strictly wins where the
//! menu is restrictive (e.g. depthwise layers on hardware without the
//! `OHOW` template). The outcome folds back into the explorer:
//! `suggest_genome` turns the extracted dataflow set and modal tile cap
//! into a warm-start genome for the evolutionary search, closing the
//! enumerate → saturate → extract → explore loop.
//!
//! ```
//! use lego::eval::EvalSession;
//! use lego::explorer::Genome;
//! use lego::mapspace::MapSearch;
//! use lego::model::TechModel;
//! use lego::model::HwConfig;
//!
//! let model = lego::workloads::zoo::lenet();
//! let session = EvalSession::new();
//! let out = MapSearch::new(&model, HwConfig::lego_icoc_1k(), TechModel::default())
//!     .run(&session);
//! assert!(out.rewrite_edp <= out.enumerated_edp);
//! println!("{}", out.render()); // per-layer choices + EDP summary
//!
//! // Fold the outcome back into the explorer's design space.
//! let warm = out.suggest_genome(&Genome::lego_256_baseline());
//! assert!(warm.dataflows.to_vec().len() >= 1);
//! ```
//!
//! The `mapspace_search` bench binary prints the enumerated-vs-rewrite
//! EDP table for the dense zoo (pinned byte for byte by the golden in
//! `crates/bench/tests/golden/`), and `examples/rewrite_mapping.rs` walks the loop on
//! MobileNetV2.
//!
//! # Performance workflow
//!
//! One timing methodology: the repo benchmark in `benchmark/` (its own
//! package outside the workspace; `BENCHMARK.json` declares its seven
//! workloads, five end-to-end metrics and their bounds,
//! `benchmark/README.md` says how a run measures). Nothing else in the
//! repository produces or gates a number. With
//! `alias bench='cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --'`:
//!
//! 1. **Run.** `bench --workload dse_sharded --seed 1 --seconds 10
//!    --trace 0` prints one workload's end-to-end metrics (`--trace 1`
//!    adds the per-layer replay); `bench run --out FILE` measures every
//!    workload both ways and `bench run --smoke` does the same in about
//!    ten seconds (CI job `benchmark-smoke`). Every op's output is checked
//!    against a reference, so a run that got faster by getting wrong fails.
//! 2. **Compare.** `bench compare before.json after.json` prints, per
//!    workload and end-to-end metric, both values, their ratio, the bound
//!    and `ok` / `regressed` / `unresolved`, and exits non-zero on any
//!    `regressed`. `quality_ratio` is deterministic and must not move.
//! 3. **Check.** `bench check [FILE]` holds `BENCHMARK.json` and a
//!    results file to the contract (every `*.replay_residual_share` and
//!    `trace.overhead_share` ≤ 0.10, every `failed_share` = 0).
//! 4. **Ten alternating pairs.** A single before/after pair on a shared
//!    machine proves nothing. Build the parent commit and the change in
//!    separate checkouts, run the workload at least ten times on each,
//!    alternating which side goes first, and report each side's median
//!    and quartiles. A gain is claimed only when the change wins at least
//!    nine pairs in ten and the medians differ by more than the parent's
//!    own interquartile range; no regression means every end-to-end
//!    metric on every workload stays within its `BENCHMARK.json` bound. A
//!    perf change that moves a golden byte
//!    (`crates/bench/tests/golden_bytes.rs`) is a semantic change, not a
//!    speedup; an optimisation the benchmark cannot see is complexity to
//!    delete.

pub use lego_backend as backend;
pub use lego_baselines as baselines;
pub use lego_core as core;
pub use lego_eval as eval;
pub use lego_explorer as explorer;
pub use lego_frontend as frontend;
pub use lego_graph as graph;
pub use lego_ir as ir;
pub use lego_linalg as linalg;
pub use lego_lp as lp;
pub use lego_mapper as mapper;
pub use lego_mapspace as mapspace;
pub use lego_model as model;
pub use lego_noc as noc;
pub use lego_obs as obs;
pub use lego_rtl as rtl;
pub use lego_serve as serve;
pub use lego_sim as sim;
pub use lego_sparse as sparse;
pub use lego_workloads as workloads;
