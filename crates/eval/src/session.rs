//! The request/response evaluation session.
//!
//! One [`EvalSession`] owns everything a caller used to hand-wire per call
//! site: [`CostContext`] construction, the
//! memoized [`EvalCache`], and batch evaluation on scoped threads. Callers
//! describe *what* to price as an [`EvalRequest`] and get back an
//! [`EvalReport`]; how the pricing happens (context construction, caching,
//! threading) is the session's business.

use crate::cache::{layer_key, EvalCache};
use crate::error::EvalError;
use crate::hash::FnvHasher;
use crate::objective::{Objective, Objectives};
use lego_model::{
    CompressedFormat, CostContext, HwConfig, MacroArea, SparseHw, SramModel, TechModel,
};
use lego_obs::Obs;
use lego_sim::{aggregate_iter, best_mapping_ctx, LayerPerf, ModelPerf};
use lego_workloads::{Layer, LayerKind, Model};
use std::borrow::Cow;
use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Everything one evaluation needs: the workload, the hardware (dense and
/// sparse halves), the technology, the scalarization to report, and the
/// tiling knob.
///
/// A request is a plain owned value with a versioned binary codec
/// ([`EvalRequest::encode`]/[`EvalRequest::decode`]), so a multi-host
/// driver can ship it over any byte transport and replay it bit-for-bit on
/// the other side. Build one with [`EvalRequest::new`] and the `with_*`
/// combinators, and call [`EvalRequest::validate`] where an invalid request
/// must be refused rather than priced:
///
/// ```
/// use lego_eval::{EvalRequest, StatusCode};
/// use lego_model::HwConfig;
///
/// let request = EvalRequest::new(lego_workloads::zoo::lenet(), HwConfig::lego_256())
///     .with_tile_cap(Some(64));
/// assert!(request.validate().is_ok());
/// let bad = request.with_tile_cap(Some(0));
/// assert_eq!(bad.validate().unwrap_err().status(), StatusCode::INVALID_TILE_CAP);
/// ```
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// The model to price, layer by layer.
    pub workload: Model,
    /// The dense hardware configuration under evaluation.
    pub hw: HwConfig,
    /// The sparse half of the configuration (gating/skipping frontend).
    pub sparse: SparseHw,
    /// Technology constants every cost is priced under.
    pub tech: TechModel,
    /// The scalarization reported in [`CostSummary::score`].
    pub objective: Objective,
    /// Optional L1 tile-edge cap (`None` = buffer-limited automatic
    /// tiling).
    pub tile_cap: Option<i64>,
    /// Lazily memoized [`layer_key`] per workload layer (index-aligned
    /// with `workload.layers`). Layer shapes are hashed once per request
    /// instead of once per evaluation — a sweep driver re-evaluating one
    /// request object pays the hashing cost only on the first call.
    layer_keys: std::sync::OnceLock<Box<[u64]>>,
}

impl PartialEq for EvalRequest {
    fn eq(&self, other: &Self) -> bool {
        // The memo is derived state; equality is over the request fields.
        self.workload == other.workload
            && self.hw == other.hw
            && self.sparse == other.sparse
            && self.tech == other.tech
            && self.objective == other.objective
            && self.tile_cap == other.tile_cap
    }
}

impl EvalRequest {
    /// A request with the default technology, a dense datapath, the EDP
    /// objective, and automatic tiling.
    pub fn new(workload: Model, hw: HwConfig) -> Self {
        EvalRequest {
            workload,
            hw,
            sparse: SparseHw::dense(),
            tech: TechModel::default(),
            objective: Objective::EDP,
            tile_cap: None,
            layer_keys: std::sync::OnceLock::new(),
        }
    }

    /// Per-layer [`layer_key`] values, hashed on first use and memoized.
    fn layer_keys(&self) -> &[u64] {
        self.layer_keys
            .get_or_init(|| self.workload.layers.iter().map(layer_key).collect())
    }

    /// Replaces the sparse datapath configuration.
    #[must_use]
    pub fn with_sparse(mut self, sparse: SparseHw) -> Self {
        self.sparse = sparse;
        self
    }

    /// Replaces the technology model.
    #[must_use]
    pub fn with_tech(mut self, tech: TechModel) -> Self {
        self.tech = tech;
        self
    }

    /// Replaces the reported scalarization.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Caps the L1 tile edge (see `lego_sim::tiled_dram_traffic`).
    #[must_use]
    pub fn with_tile_cap(mut self, tile_cap: Option<i64>) -> Self {
        self.tile_cap = tile_cap;
        self
    }

    /// The borrowed view of this request ([`EvalRequestRef`]) — what the
    /// hot evaluation path consumes, so sweep drivers that evaluate one
    /// workload under thousands of configurations never clone the model.
    pub fn as_view(&self) -> EvalRequestRef<'_> {
        EvalRequestRef {
            workload: &self.workload,
            hw: &self.hw,
            sparse: self.sparse,
            tech: self.tech,
            objective: self.objective,
            tile_cap: self.tile_cap,
            hw_key: None,
            layer_keys: Some(self.layer_keys()),
        }
    }

    /// Checks the request before it is priced — what `lego-serve` runs on
    /// every request admitted off the wire. Nothing else stops an empty
    /// workload, a hardware configuration that fuses no dataflows, a NaN
    /// technology constant, or a non-positive tile cap from reaching the
    /// cost model, which would price nonsense.
    ///
    /// # Errors
    ///
    /// - [`EvalError::EmptyWorkload`] if the workload has no layers;
    /// - [`EvalError::InvalidLayer`] if a layer has a dimension, stride,
    ///   count or non-tensor element count that is not positive, or more
    ///   operations (`2 · macs · count`), input elements or non-tensor
    ///   elements (`count · Σ elems`) than an `i64` counts;
    /// - [`EvalError::Hw`] if the hardware configuration fails
    ///   [`HwConfig::validate`];
    /// - [`EvalError::InvalidTech`] if a technology constant is negative or
    ///   not finite, or the clock is not positive;
    /// - [`EvalError::InvalidObjective`] if a penalized objective's weight
    ///   is negative or not finite, or a soft budget is not finite;
    /// - [`EvalError::InvalidTileCap`] if a tile cap is set and is not
    ///   positive.
    pub fn validate(&self) -> Result<(), EvalError> {
        if self.workload.layers.is_empty() {
            return Err(EvalError::EmptyWorkload);
        }
        if let Some(i) = self.workload.layers.iter().position(|l| !is_priceable(l)) {
            return Err(EvalError::InvalidLayer(i));
        }
        self.hw.validate()?;
        let tech = crate::codec::tech_fields(&self.tech);
        if let Some(&bad) = tech.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
            return Err(EvalError::InvalidTech(bad));
        }
        if self.tech.freq_ghz == 0.0 {
            return Err(EvalError::InvalidTech(0.0));
        }
        if let Objective::Penalized {
            area_budget,
            power_budget,
            weight,
            ..
        } = self.objective
        {
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(EvalError::InvalidObjective(weight));
            }
            let mut budgets = [area_budget, power_budget].into_iter().flatten();
            if let Some(bad) = budgets.find(|b| !b.is_finite()) {
                return Err(EvalError::InvalidObjective(bad));
            }
        }
        match self.tile_cap {
            Some(cap) if cap <= 0 => Err(EvalError::InvalidTileCap(cap)),
            _ => Ok(()),
        }
    }

    /// [`EvalRequest::new`] in builder form, validated by
    /// [`EvalRequestBuilder::build`]. The `benchmark/` package builds its
    /// rosters through it; everything else writes `new(..).with_*()`.
    pub fn builder(workload: Model, hw: HwConfig) -> EvalRequestBuilder {
        EvalRequestBuilder(EvalRequest::new(workload, hw))
    }

    /// Stable fingerprint of the request's hardware side — the hardware
    /// half of [`EvalCache`] keys for this request. Two requests with the
    /// same `hw`/`sparse`/`tech`/`tile_cap` share cache lines; any field
    /// difference separates them, because every field feeds the
    /// simulation.
    pub fn hw_key(&self) -> u64 {
        hw_fingerprint(&self.hw, self.sparse, &self.tech, self.tile_cap)
    }

    /// Stable fingerprint of the whole request (hardware side plus the
    /// workload's name and layer shapes) — recorded in
    /// [`Provenance::request_fingerprint`] so a report can be matched back
    /// to the request that produced it.
    pub fn fingerprint(&self) -> u64 {
        request_fingerprint(&self.workload, self.hw_key(), self.layer_keys())
    }
}

/// A request under construction; see [`EvalRequest::builder`].
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until build() is called"]
pub struct EvalRequestBuilder(EvalRequest);

impl EvalRequestBuilder {
    /// [`EvalRequest::with_sparse`].
    pub fn sparse(self, sparse: SparseHw) -> Self {
        EvalRequestBuilder(self.0.with_sparse(sparse))
    }

    /// The request, if it passes [`EvalRequest::validate`].
    ///
    /// # Errors
    ///
    /// See [`EvalRequest::validate`].
    pub fn build(self) -> Result<EvalRequest, EvalError> {
        self.0.validate()?;
        Ok(self.0)
    }
}

/// Whether the cost model can price `layer` (see [`EvalRequest::validate`]).
/// Each kind is checked as the convolution `[n, ic, oc, oh, ow, kh, kw,
/// stride]` with the same MACs. Only a strided window can read more input
/// elements than twice the MACs, which the operation count bounds, so
/// the windows' input is checked on its own. The products are checked
/// because `Layer::macs` overflows, and panics in debug builds, on a
/// shape that breaks the rule. Every non-tensor entry must be positive, and
/// `count × Σ elems` must fit an `i64`, so `Layer::nonlinear_elems` never
/// overflows and no entry can subtract post-processing work.
fn is_priceable(layer: &Layer) -> bool {
    let conv = match layer.kind {
        LayerKind::Gemm { m, n, k } => [1, k, n, m, 1, 1, 1, 1],
        LayerKind::Conv {
            n,
            ic,
            oc,
            oh,
            ow,
            kh,
            kw,
            stride,
        } => [n, ic, oc, oh, ow, kh, kw, stride],
        LayerKind::DwConv {
            n,
            c,
            oh,
            ow,
            kh,
            kw,
            stride,
        } => [n, c, 1, oh, ow, kh, kw, stride],
        LayerKind::Attention {
            heads,
            seq_q,
            seq_kv,
            dk,
            dv,
        } => match dk.checked_add(dv) {
            Some(d) if dk > 0 && dv > 0 => [heads, seq_q, seq_kv, d, 1, 1, 1, 1],
            _ => return false,
        },
    };
    let [n, ic, oc, oh, ow, kh, kw, stride] = conv;
    let product = |xs: &[i64]| xs.iter().try_fold(1i64, |acc, &x| acc.checked_mul(x));
    // The input rows (or columns) that `out` windows of `kernel` span.
    let span = |out: i64, kernel: i64| stride.checked_mul(out - 1)?.checked_add(kernel);
    let add_elems = |acc: i64, &(_, e): &(_, i64)| acc.checked_add(e).filter(|_| e > 0);
    layer.count > 0
        && layer
            .nonlinear
            .iter()
            .try_fold(0, add_elems)
            .and_then(|e| e.checked_mul(layer.count))
            .is_some()
        && conv.iter().all(|&d| d > 0)
        && product(&[2, layer.count, n, ic, oc, oh, ow, kh, kw]).is_some()
        && span(oh, kh)
            .zip(span(ow, kw))
            .and_then(|(h, w)| product(&[n, ic, h, w]))
            .is_some()
}

/// The borrowed form of an [`EvalRequest`] — same fields, no ownership,
/// plus an optional explicit cache key for callers (like the explorer)
/// that already fingerprint configurations their own way.
#[derive(Debug, Clone, Copy)]
pub struct EvalRequestRef<'a> {
    /// The model to price.
    pub workload: &'a Model,
    /// The dense hardware configuration under evaluation.
    pub hw: &'a HwConfig,
    /// The sparse half of the configuration.
    pub sparse: SparseHw,
    /// Technology constants.
    pub tech: TechModel,
    /// The scalarization reported in [`CostSummary::score`].
    pub objective: Objective,
    /// Optional L1 tile-edge cap.
    pub tile_cap: Option<i64>,
    /// Overrides the hardware half of the cache key (`None` = derive it
    /// from the request fields). The explorer passes its genome
    /// fingerprint here so session cache entries line up with snapshot
    /// checkpoints and warm-started caches.
    pub hw_key: Option<u64>,
    /// Precomputed [`layer_key`] values, index-aligned with
    /// `workload.layers` (`None` = hash each layer during evaluation).
    /// Callers that price one workload under many configurations (the
    /// explorer, [`EvalRequest::as_view`]) hash the layers once and pass
    /// the keys here; the values must equal `layer_key` of each layer or
    /// cache entries and provenance fingerprints will not line up. A slice
    /// whose length differs from the workload's layer count is ignored.
    pub layer_keys: Option<&'a [u64]>,
}

impl<'a> EvalRequestRef<'a> {
    /// The view's `layer_keys` when they cover the workload; otherwise
    /// every layer hashed.
    fn covering_layer_keys(&self) -> Cow<'a, [u64]> {
        match self.layer_keys {
            Some(keys) if keys.len() == self.workload.layers.len() => Cow::Borrowed(keys),
            _ => self.workload.layers.iter().map(layer_key).collect(),
        }
    }
}

/// Stable fingerprint of one hardware-side configuration (dense config,
/// sparse feature, technology, tiling cap).
fn hw_fingerprint(hw: &HwConfig, sparse: SparseHw, tech: &TechModel, tile_cap: Option<i64>) -> u64 {
    let mut h = FnvHasher::new();
    (
        hw.array,
        hw.clusters,
        hw.buffer_kb,
        hw.dram_gbps.to_bits(),
        hw.num_ppus,
    )
        .hash(&mut h);
    for m in &hw.dataflows {
        m.hash(&mut h);
    }
    (hw.static_mw.to_bits(), hw.dynamic_mw.to_bits()).hash(&mut h);
    sparse.hash(&mut h);
    for field in crate::codec::tech_fields(tech) {
        field.to_bits().hash(&mut h);
    }
    tile_cap.hash(&mut h);
    h.finish()
}

/// The [`SramModel`] fields that feed per-layer pricing
/// (`sram_energy_pj`), for cache-key fingerprinting.
fn sram_fields(s: &SramModel) -> [f64; 4] {
    [
        s.area_um2_per_byte,
        s.bank_overhead,
        s.access_pj_per_byte,
        s.leak_uw_per_kb,
    ]
}

/// Stable fingerprint of (workload, hardware key): what
/// [`Provenance::request_fingerprint`] records. `layer_keys` is the
/// [`layer_key`] of each layer in order.
fn request_fingerprint(workload: &Model, hw_key: u64, layer_keys: &[u64]) -> u64 {
    let mut h = FnvHasher::new();
    hw_key.hash(&mut h);
    workload.name.hash(&mut h);
    for (l, key) in workload.layers.iter().zip(layer_keys) {
        (key, l.count, &l.name).hash(&mut h);
    }
    h.finish()
}

/// One priced layer of an [`EvalReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name, as in the workload (shared with the workload's interned
    /// name — a refcount bump per report row, not a string copy).
    pub name: Arc<str>,
    /// Repetition count.
    pub count: i64,
    /// Chosen mapping and predicted performance.
    pub perf: LayerPerf,
    /// Storage format selected for the weight operand (`Dense` on the
    /// dense path — only a skipping frontend streams compressed operands).
    pub weight_format: CompressedFormat,
    /// Storage format selected for the input-activation operand.
    pub input_format: CompressedFormat,
}

/// The whole-design cost roll-up of one evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSummary {
    /// The (latency, energy, area) objective vector.
    pub objectives: Objectives,
    /// Analytic area breakdown (array / SRAM / NoC / PPU).
    pub area: MacroArea,
    /// Peak power draw (static + full-activity dynamic) in mW.
    pub peak_power_mw: f64,
    /// The scalarization the request asked for.
    pub objective: Objective,
    /// `objective` applied to this design (lower is better).
    pub score: f64,
}

impl CostSummary {
    /// Energy-delay product of the evaluated design.
    pub fn edp(&self) -> f64 {
        self.objectives.edp()
    }
}

/// Where a report came from: enough to match it to its request, to refuse
/// codec mismatches, and to say whether the evaluation was warm. Every
/// field except [`Provenance::request_id`] is a deterministic function of
/// the request and the session's cache state when the request was priced —
/// two runs of the same request against the same cache state produce
/// byte-identical provenance. The request id is an identity token (which
/// evaluation of this session produced the report), so it is excluded
/// from equality: reports differing only in `request_id` compare equal.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Session-local request id, minted per evaluation (the first request
    /// a session prices is `1`). This is the id trace events carry (see
    /// `lego_obs::Obs::request_scope`), so an exported trace's spans can
    /// be attributed back to the report they produced. Not a cross-session
    /// identity: two sessions both mint `1` first.
    pub request_id: u64,
    /// Version of the evaluating `lego-eval` crate.
    pub version: String,
    /// Codec version the report round-trips under.
    pub codec_version: u8,
    /// [`EvalRequest::fingerprint`] of the priced request.
    pub request_fingerprint: u64,
    /// [`EvalRequest::hw_key`] of the priced request (the request-level
    /// hardware-side fingerprint, not the session-internal cache key).
    pub hw_key: u64,
    /// Layer lookups *this request* answered from the session cache —
    /// counted locally per request, not read from the session-wide cache
    /// counters, so parallel batches still produce deterministic reports.
    /// `cache_misses == 0` means the evaluation was fully warm.
    pub cache_hits: u64,
    /// Layer lookups this request had to simulate.
    pub cache_misses: u64,
}

impl PartialEq for Provenance {
    fn eq(&self, other: &Self) -> bool {
        // `request_id` is an identity token, not a property of the result:
        // a warm replay of the same request must compare equal to the
        // original report even though the session minted it a fresh id.
        self.version == other.version
            && self.codec_version == other.codec_version
            && self.request_fingerprint == other.request_fingerprint
            && self.hw_key == other.hw_key
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
    }
}

impl Provenance {
    /// Whether every layer was answered from the cache (no simulation ran).
    pub fn warm(&self) -> bool {
        self.cache_misses == 0
    }
}

/// What [`EvalSession::price`] returns: an [`EvalReport`]'s numbers
/// without its per-layer rows and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Priced {
    /// Each layer's mapping result, index-aligned with the workload.
    pub per_layer: Vec<LayerPerf>,
    /// Aggregated whole-model performance.
    pub model: ModelPerf,
    /// Design-level cost roll-up.
    pub cost: CostSummary,
    /// [`Provenance::request_id`].
    pub request_id: u64,
    /// [`Provenance::hw_key`].
    pub hw_key: u64,
    /// [`Provenance::cache_misses`].
    pub cache_misses: u64,
}

/// The response to an [`EvalRequest`]: per-layer mapping results, the
/// aggregated model performance, the design-level cost summary, and
/// provenance. Serializable next to the request
/// ([`EvalReport::encode`]/[`EvalReport::decode`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// One entry per workload layer, in execution order.
    pub per_layer: Vec<LayerReport>,
    /// Aggregated whole-model performance.
    pub model: ModelPerf,
    /// Design-level cost roll-up (objectives, area, peak power, score).
    pub cost: CostSummary,
    /// Who evaluated what.
    pub provenance: Provenance,
}

impl EvalReport {
    /// Counts how many layers chose each dataflow — fused designs switch
    /// mappings at runtime, and this is the evidence.
    pub fn dataflow_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut hist: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for l in &self.per_layer {
            *hist.entry(l.perf.mapping.name()).or_default() += 1;
        }
        hist.into_iter().collect()
    }
}

/// The canonical evaluation layer: prices [`EvalRequest`]s into
/// [`EvalReport`]s through one [`CostContext`] per request, one shared
/// memoized [`EvalCache`], and scoped threads for batches.
///
/// Evaluation is pure, so everything a session does is deterministic:
/// batches return in input order regardless of thread interleaving, and
/// two sessions given the same requests produce byte-identical reports.
///
/// ```
/// use lego_eval::{EvalRequest, EvalSession};
/// use lego_model::HwConfig;
///
/// let session = EvalSession::new();
/// let report = session.evaluate(&EvalRequest::new(
///     lego_workloads::zoo::lenet(),
///     HwConfig::lego_256(),
/// ));
/// assert!(report.model.gops > 0.0);
/// assert_eq!(report.per_layer.len(), lego_workloads::zoo::lenet().layers.len());
/// ```
#[derive(Debug)]
pub struct EvalSession {
    cache: EvalCache,
    sram: SramModel,
    threads: usize,
    obs: Obs,
    /// The next request id to mint ([`Provenance::request_id`]); the
    /// first request a session prices is `1`.
    next_request: AtomicU64,
}

impl Default for EvalSession {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8);
        EvalSession {
            cache: EvalCache::new(),
            sram: SramModel::default(),
            threads,
            obs: Obs::disabled(),
            next_request: AtomicU64::new(1),
        }
    }
}

impl EvalSession {
    /// A session with a fresh cache, the default SRAM model, an automatic
    /// worker count, and observability disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides how many concurrent lanes batch evaluation uses: 0 means
    /// one, and more than the machine's `available_parallelism()` means
    /// that many.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.threads = threads.clamp(1, machine);
        self
    }

    /// Replaces the SRAM model every request is priced under.
    #[must_use]
    pub fn with_sram(mut self, sram: SramModel) -> Self {
        self.sram = sram;
        self
    }

    /// Bounds the session cache to `budget_bytes` of estimated resident
    /// memory ([`EvalCache::with_byte_budget`]): the shape a long-lived
    /// server needs, where the cache would otherwise grow monotonically
    /// across millions of requests. Replaces the cache, so apply it
    /// before absorbing entries into [`cache`](EvalSession::cache).
    #[must_use]
    pub fn with_cache_budget(mut self, budget_bytes: usize) -> Self {
        self.cache = EvalCache::with_byte_budget(budget_bytes);
        self
    }

    /// Attaches an observability handle: every evaluation records
    /// per-phase spans (`eval/context_build`, `eval/mapping_search`,
    /// `eval/aggregate`, and `sim/best_mapping` per simulated layer) and
    /// counters (`eval.requests`, `eval.layers`, `cache.hits`,
    /// `cache.misses`, `sim.mappings_tried`). Instrumentation never
    /// changes results: reports are byte-identical with any [`Obs`] mode.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle evaluations record into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The shared memo table.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Prices one request.
    pub fn evaluate(&self, request: &EvalRequest) -> EvalReport {
        self.evaluate_view(request.as_view())
    }

    /// Prices one request with *pristine* provenance: the report is
    /// byte-identical to what `EvalSession::new().evaluate(request)`
    /// would produce, regardless of how warm this session is or how many
    /// requests it has already served.
    ///
    /// Per-layer pricing is deterministic and cache-transparent, so the
    /// only session-dependent report fields are provenance's
    /// `request_id` (this session's mint counter) and the
    /// `cache_hits`/`cache_misses` warmth counters (this session's cache
    /// state). A fresh one-shot session would mint id `1` and miss once
    /// per *distinct* layer shape (repeated blocks within the model hit
    /// the line the first occurrence filled), so those are the values
    /// recorded — while the actual computation still flows through the
    /// shared warm cache. This is the `lego-serve` reply contract: a
    /// server answer is indistinguishable from offline evaluation, which
    /// is what lets CI `cmp` server replies across runs and against
    /// offline reports.
    pub fn evaluate_pristine(&self, request: &EvalRequest) -> EvalReport {
        let mut report = self.evaluate(request);
        let mut seen = std::collections::HashSet::new();
        let distinct = request
            .layer_keys()
            .iter()
            .filter(|&&k| seen.insert(k))
            .count() as u64;
        report.provenance.request_id = 1;
        report.provenance.cache_misses = distinct;
        report.provenance.cache_hits = report.per_layer.len() as u64 - distinct;
        report
    }

    /// The hardware half of the cache key one evaluation uses.
    ///
    /// Every input that feeds per-layer pricing must separate cache
    /// entries, including the ones a caller-supplied
    /// [`EvalRequestRef::hw_key`] cannot know about: the technology model
    /// (the explorer's genome fingerprint hashes only genome fields) and
    /// this session's [`SramModel`]. Folding them in here means
    /// warm-cache entries absorbed from a run that priced under a
    /// different technology or SRAM model *miss* — recomputing honestly —
    /// instead of being served as silently wrong results.
    /// `hw_fp` is the request-level hardware fingerprint the caller already
    /// computed (it is also what provenance records), so one evaluation
    /// hashes the configuration exactly once.
    fn cache_key(&self, request: &EvalRequestRef<'_>, hw_fp: u64) -> u64 {
        let mut h = FnvHasher::new();
        match request.hw_key {
            None => {
                hw_fp.hash(&mut h);
            }
            Some(key) => {
                key.hash(&mut h);
                // A caller key covers the configuration, not the tech.
                for field in crate::codec::tech_fields(&request.tech) {
                    field.to_bits().hash(&mut h);
                }
            }
        }
        for field in sram_fields(&self.sram) {
            field.to_bits().hash(&mut h);
        }
        h.finish()
    }

    /// Prices a borrowed request view — the zero-clone form sweep drivers
    /// and the explorer use (see [`EvalRequestRef`]): [`price`](Self::price)
    /// plus a [`LayerReport`] row per layer and the [`Provenance`].
    ///
    /// Each layer shape is hashed at most once per evaluation: the view's
    /// [`layer_keys`](EvalRequestRef::layer_keys) are used when they cover
    /// the workload, and otherwise every layer is hashed here. That one
    /// slice keys the cache lookups and the provenance fingerprint.
    pub fn evaluate_view(&self, request: EvalRequestRef<'_>) -> EvalReport {
        let layer_keys = request.covering_layer_keys();
        let priced = self.price(EvalRequestRef {
            layer_keys: Some(&layer_keys),
            ..request
        });
        let fingerprint = request_fingerprint(request.workload, priced.hw_key, &layer_keys);
        let per_layer: Vec<LayerReport> = request
            .workload
            .layers
            .iter()
            .zip(priced.per_layer)
            .map(|(layer, perf)| {
                let (weight_format, input_format) = request
                    .sparse
                    .effects(&layer.sparsity)
                    .map_or((CompressedFormat::Dense, CompressedFormat::Dense), |e| {
                        (e.weight_format, e.input_format)
                    });
                LayerReport {
                    name: Arc::clone(&layer.name),
                    count: layer.count,
                    perf,
                    weight_format,
                    input_format,
                }
            })
            .collect();
        EvalReport {
            // Provenance records the *request-level* fingerprints a driver
            // matches reports to requests by, never the session's cache key.
            provenance: Provenance {
                request_id: priced.request_id,
                version: env!("CARGO_PKG_VERSION").to_string(),
                codec_version: crate::codec::VERSION,
                request_fingerprint: fingerprint,
                hw_key: priced.hw_key,
                cache_hits: per_layer.len() as u64 - priced.cache_misses,
                cache_misses: priced.cache_misses,
            },
            per_layer,
            model: priced.model,
            cost: priced.cost,
        }
    }

    /// Prices a borrowed request view down to the numbers (see [`Priced`]):
    /// the form the mapping search uses, since it prices many
    /// configurations and never reads the report rows. Every layer is
    /// looked up in the session's [`EvalCache`].
    pub fn price(&self, request: EvalRequestRef<'_>) -> Priced {
        self.price_with(request, |cache_key, simulate| {
            let layer_keys = request.covering_layer_keys();
            let layers = request.workload.layers.iter().zip(layer_keys.iter());
            layers
                .map(|(layer, &lk)| self.cache.get_or_compute(cache_key, lk, || simulate(layer)))
                .collect()
        })
    }

    /// [`price`](Self::price) with the caller supplying the layers:
    /// `layers` gets the hardware half of this evaluation's cache keys and
    /// a function that simulates one layer (each call counts as a miss),
    /// and returns one `LayerPerf` per workload layer, index-aligned. The
    /// explorer prices each distinct shape of a genome once this way.
    pub fn price_with<F>(&self, request: EvalRequestRef<'_>, layers: F) -> Priced
    where
        F: FnOnce(u64, &dyn Fn(&Layer) -> LayerPerf) -> Vec<LayerPerf>,
    {
        // Mint this evaluation's request id and mark the calling thread
        // with it: every trace event recorded below (the eval/* spans and
        // cache counters) carries the id, which is how an exported trace
        // attributes spans to the report's provenance.
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let _req_scope = self.obs.request_scope(request_id);
        let _eval_span = self.obs.span("eval/evaluate");
        self.obs.count("eval.requests", 1);
        self.obs
            .count("eval.layers", request.workload.layers.len() as u64);
        // The request-level hardware fingerprint, computed exactly once per
        // evaluation: it keys the cache (when the caller supplied no key)
        // and is recorded in provenance.
        let hw_fp = hw_fingerprint(request.hw, request.sparse, &request.tech, request.tile_cap);
        let cache_key = self.cache_key(&request, hw_fp);
        let ctx = self.obs.time("eval/context_build", || {
            CostContext::new(request.hw.clone(), request.tech)
                .with_sram(self.sram)
                .with_sparse(request.sparse)
        });
        // Cache warmth is counted locally (not read from the cache's
        // counters) so a report's provenance depends only on this
        // request's lookups, never on what parallel batch neighbors did.
        let computed = Cell::new(0u64);
        let simulate = |layer: &Layer| {
            computed.set(computed.get() + 1);
            let _span = self.obs.span("sim/best_mapping");
            self.obs
                .count("sim.mappings_tried", ctx.hw.dataflows.len().max(1) as u64);
            best_mapping_ctx(layer, &ctx, request.tile_cap)
        };
        let per_layer = {
            let _search_span = self.obs.span("eval/mapping_search");
            layers(cache_key, &simulate)
        };
        let cache_misses = computed.get();
        let cache_hits = per_layer.len() as u64 - cache_misses;
        self.obs.count("cache.hits", cache_hits);
        self.obs.count("cache.misses", cache_misses);
        let counts = request.workload.layers.iter().map(|l| l.count);
        let model = self.obs.time("eval/aggregate", || {
            aggregate_iter(request.workload, counts.zip(&per_layer), &request.tech)
        });

        let latency_cycles = model.cycles as f64;
        let time_s = latency_cycles / (request.tech.freq_ghz * 1e9);
        let energy_pj = model.watts * time_s * 1e12;
        // Memory banked per array edge so wider arrays get more ports.
        let banks = (request.hw.array.0 + request.hw.array.1).max(1) as u64;
        let area = ctx.area(banks);
        let peak_power_mw = ctx.peak_power_mw();
        let objectives = Objectives {
            latency_cycles,
            energy_pj,
            area_um2: area.total_um2(),
        };
        let score = request.objective.score(&objectives, peak_power_mw);
        Priced {
            per_layer,
            model,
            cost: CostSummary {
                objectives,
                area,
                peak_power_mw,
                objective: request.objective,
                score,
            },
            request_id,
            hw_key: hw_fp,
            cache_misses,
        }
    }

    /// Runs `f` over `items`, returning results in input order — the one
    /// batch entry point: pass `|r| session.evaluate(r)` to price
    /// requests, or any other unit of work (the explorer evaluates
    /// genomes, not requests). The caller and up to `threads - 1` scoped
    /// threads claim indices from one counter, so a batch may nest or run
    /// beside another; a panic in `f` is re-raised here. `f` must be pure
    /// for the output to be deterministic, which every evaluation in this
    /// workspace is.
    pub fn run_batch<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let lanes = self.threads.min(items.len());
        if lanes <= 1 {
            return items.iter().map(f).collect();
        }
        // Relaxed: the counter only hands out indices; results reach the
        // caller through `join`, which orders them.
        let next = AtomicUsize::new(0);
        let lane = || {
            let claims = std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)));
            claims
                .map_while(|i| Some((i, f(items.get(i)?))))
                .collect::<Vec<_>>()
        };
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
            let mut done = lane();
            for helper in helpers {
                done.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StatusCode;
    use lego_model::SparseAccel;
    use lego_workloads::{zoo, Nonlinear};

    #[test]
    fn validate_accepts_a_zoo_request_and_names_each_rejection() {
        let ok = EvalRequest::new(zoo::lenet(), HwConfig::lego_256());
        assert!(ok.validate().is_ok());
        assert!(ok.clone().with_tile_cap(Some(1)).validate().is_ok());
        let empty = EvalRequest::new(
            Model {
                name: "empty".into(),
                layers: Vec::new(),
            },
            HwConfig::lego_256(),
        );
        let mut no_dataflows = ok.clone();
        no_dataflows.hw.dataflows.clear();
        for (bad, status) in [
            (empty, StatusCode::EMPTY_WORKLOAD),
            (no_dataflows, StatusCode::INVALID_HW),
            (
                ok.clone().with_tile_cap(Some(0)),
                StatusCode::INVALID_TILE_CAP,
            ),
            (
                ok.clone().with_tile_cap(Some(-1)),
                StatusCode::INVALID_TILE_CAP,
            ),
        ] {
            assert_eq!(bad.validate().unwrap_err().status(), status);
        }
        // An impossible layer is named by its index.
        for layer in impossible_layers() {
            let mut bad = ok.clone();
            bad.workload.layers.insert(2, layer.clone());
            let err = bad.validate().unwrap_err();
            assert!(matches!(err, EvalError::InvalidLayer(2)), "{layer:?}");
            assert_eq!(err.status(), StatusCode::INVALID_LAYER);
        }
        // Every zoo layer is possible.
        let models = [
            zoo::lenet(),
            zoo::alexnet(),
            zoo::mobilenet_v2(),
            zoo::resnet50(),
            zoo::efficientnet_v2(),
            zoo::bert_base(),
            zoo::gpt2_decode(),
            zoo::coatnet(),
            zoo::ddpm(),
            zoo::stable_diffusion(),
            zoo::llama7b_decode(1),
            zoo::llama7b_decode(32),
            zoo::resnet50_2to4(),
            zoo::bert_base_pruned90(),
            zoo::gpt2_prefill_causal(),
        ];
        let mut largest = 0;
        for model in &models {
            for layer in &model.layers {
                let fields = match layer.kind {
                    LayerKind::Gemm { m, n, k } => vec![m, n, k],
                    LayerKind::Conv {
                        n,
                        ic,
                        oc,
                        oh,
                        ow,
                        kh,
                        kw,
                        stride,
                    } => {
                        vec![n, ic, oc, oh, ow, kh, kw, stride]
                    }
                    LayerKind::DwConv {
                        n,
                        c,
                        oh,
                        ow,
                        kh,
                        kw,
                        stride,
                    } => {
                        vec![n, c, oh, ow, kh, kw, stride]
                    }
                    LayerKind::Attention {
                        heads,
                        seq_q,
                        seq_kv,
                        dk,
                        dv,
                    } => {
                        vec![heads, seq_q, seq_kv, dk, dv]
                    }
                };
                assert!(fields.iter().all(|&d| d > 0) && layer.count > 0);
                largest = fields.into_iter().max().unwrap().max(largest);
            }
            let request = EvalRequest::new(model.clone(), HwConfig::lego_256());
            assert!(request.validate().is_ok(), "{}", model.name);
        }
        let layers: usize = models.iter().map(|m| m.layers.len()).sum();
        assert_eq!((layers, largest), (996, 50_257));
    }

    /// Layers no accelerator can run, each of which the cost model
    /// would otherwise price into a finite (or negative) EDP.
    fn impossible_layers() -> Vec<Layer> {
        let gemm = |m, n, k| Layer::new("gemm", LayerKind::Gemm { m, n, k });
        let conv = |oh, stride| {
            let (n, ic, oc, ow, kh, kw) = (1, 8, 8, 4, 3, 3);
            let kind = LayerKind::Conv {
                n,
                ic,
                oc,
                oh,
                ow,
                kh,
                kw,
                stride,
            };
            Layer::new("conv", kind)
        };
        let attention = |dk, dv| {
            let (heads, seq_q, seq_kv) = (2, 8, 8);
            let kind = LayerKind::Attention {
                heads,
                seq_q,
                seq_kv,
                dk,
                dv,
            };
            Layer::new("attn", kind)
        };
        let dw = |c| {
            let (n, oh, ow, kh, kw, stride) = (1, 4, 4, 3, 3, 1);
            Layer::new(
                "dw",
                LayerKind::DwConv {
                    n,
                    c,
                    oh,
                    ow,
                    kh,
                    kw,
                    stride,
                },
            )
        };
        vec![
            gemm(0, 0, 0),
            gemm(-4, 4, 4),
            conv(4, 0),
            gemm(i64::MAX, i64::MAX, i64::MAX),
            gemm(4, 4, 4).repeat(0),
            gemm(4, 4, 4).repeat(-1),
            gemm(1 << 30, 1 << 30, 1 << 2).repeat(2),
            conv(i64::MIN, 1),
            conv(4, i64::MAX / 2),
            dw(-1),
            attention(0, 16),
            attention(i64::MAX, 1),
            // Negative non-tensor work would price a layer cheaper.
            gemm(4, 4, 4).with_nonlinear(Nonlinear::Softmax, -1_000_000_000),
            gemm(4, 4, 4).with_nonlinear(Nonlinear::Activation, 0),
            // Two entries whose sum, or one whose count multiple, overflows.
            gemm(4, 4, 4)
                .with_nonlinear(Nonlinear::Softmax, i64::MAX)
                .with_nonlinear(Nonlinear::Activation, i64::MAX),
            gemm(4, 4, 4)
                .with_nonlinear(Nonlinear::Softmax, i64::MAX / 2)
                .repeat(3),
        ]
    }

    #[test]
    fn validate_rejects_every_non_finite_cost_input() {
        let ok = EvalRequest::new(zoo::mobilenet_v2(), HwConfig::lego_256());
        let tech = |edit: fn(&mut TechModel)| {
            let mut bad = ok.clone();
            edit(&mut bad.tech);
            (bad, StatusCode::INVALID_TECH)
        };
        let hw = |edit: fn(&mut HwConfig)| {
            let mut bad = ok.clone();
            edit(&mut bad.hw);
            (bad, StatusCode::INVALID_HW)
        };
        let objective = |objective| {
            (
                ok.clone().with_objective(objective),
                StatusCode::INVALID_OBJECTIVE,
            )
        };
        for (bad, status) in [
            objective(Objective::penalized_edp(Some(1e9), None, f64::INFINITY)),
            objective(Objective::penalized_edp(Some(1e9), None, -1.0)),
            objective(Objective::penalized_edp(Some(f64::NAN), None, 1.0)),
            objective(Objective::penalized_edp(None, Some(f64::INFINITY), 1.0)),
            tech(|t| t.freq_ghz = f64::NAN),
            tech(|t| t.freq_ghz = 0.0),
            tech(|t| t.dram_pj_per_byte = f64::NAN),
            tech(|t| t.noc_pj_per_byte_hop = -1.0),
            hw(|h| h.static_mw = f64::NAN),
            hw(|h| h.dynamic_mw = f64::INFINITY),
            hw(|h| h.dram_gbps = f64::NAN),
            hw(|h| h.dram_gbps = f64::INFINITY),
        ] {
            let err = bad.validate().unwrap_err();
            assert_eq!(err.status(), status, "{err}");
        }
    }

    #[test]
    fn builder_is_new_plus_validate() {
        let sparse = SparseHw::with_accel(SparseAccel::Skipping);
        let built = EvalRequest::builder(zoo::lenet(), HwConfig::lego_256())
            .sparse(sparse)
            .build()
            .unwrap();
        let direct = EvalRequest::new(zoo::lenet(), HwConfig::lego_256()).with_sparse(sparse);
        assert_eq!(built, direct);
        assert_eq!(built.encode(), direct.encode());
        let mut hw = HwConfig::lego_256();
        hw.dataflows.clear();
        let err = EvalRequest::builder(zoo::lenet(), hw).build().unwrap_err();
        assert_eq!(err.status(), StatusCode::INVALID_HW);
    }

    #[test]
    fn partial_or_absent_caller_keys_price_identically() {
        let req = EvalRequest::new(zoo::resnet50(), HwConfig::lego_256());
        let keys: Vec<u64> = req.workload.layers.iter().map(layer_key).collect();
        let evaluate = |layer_keys| {
            let mut view = req.as_view();
            view.layer_keys = layer_keys;
            EvalSession::new().evaluate_view(view).encode()
        };
        let full = evaluate(Some(&keys));
        assert_eq!(evaluate(None), full);
        assert_eq!(evaluate(Some(&keys[..2])), full);
    }

    #[test]
    fn session_matches_the_ctx_internals_exactly() {
        // The session is a packaging of the `_ctx` path: same context, same
        // per-layer simulation, same aggregate — so results are
        // byte-identical to hand-wiring the internals.
        let model = zoo::mobilenet_v2();
        let hw = HwConfig::lego_256();
        let tech = TechModel::default();
        let report = EvalSession::new().evaluate(&EvalRequest::new(model.clone(), hw.clone()));
        let ctx = CostContext::new(hw, tech);
        for (layer, got) in model.layers.iter().zip(&report.per_layer) {
            assert_eq!(
                got.perf,
                best_mapping_ctx(layer, &ctx, None),
                "{}",
                layer.name
            );
            assert_eq!(got.name, layer.name);
            assert_eq!(got.count, layer.count);
        }
        let pairs: Vec<(i64, LayerPerf)> = model
            .layers
            .iter()
            .map(|l| (l.count, best_mapping_ctx(l, &ctx, None)))
            .collect();
        assert_eq!(
            report.model,
            aggregate_iter(&model, pairs.iter().map(|(c, p)| (*c, p)), &tech)
        );
    }

    #[test]
    fn price_is_the_report_without_rows_and_provenance() {
        let models = [
            "lenet",
            "mobilenet_v2",
            "resnet50",
            "bert_base",
            "resnet50_2to4",
            "bert_base_pruned90",
            "gpt2_prefill_causal",
        ]
        .map(|name| zoo::by_name(name).expect("a zoo model"));
        let variants = [
            SparseHw::dense(),
            SparseHw::with_accel(SparseAccel::Skipping),
        ]
        .into_iter()
        .flat_map(|sparse| [(sparse, None), (sparse, Some(64))]);
        for model in models {
            for hw in [HwConfig::lego_256(), HwConfig::lego_icoc_1k()] {
                for (sparse, tile_cap) in variants.clone() {
                    let request = EvalRequest::new(model.clone(), hw.clone())
                        .with_sparse(sparse)
                        .with_tile_cap(tile_cap);
                    let report = EvalSession::new().evaluate(&request);
                    let priced = EvalSession::new().price(request.as_view());
                    let perfs: Vec<LayerPerf> = report.per_layer.iter().map(|l| l.perf).collect();
                    let case = format!("{} {sparse:?} {tile_cap:?}", model.name);
                    assert_eq!(priced.per_layer, perfs, "{case}");
                    assert_eq!(priced.model, report.model, "{case}");
                    assert_eq!(priced.cost, report.cost, "{case}");
                    assert_eq!(priced.request_id, report.provenance.request_id);
                    assert_eq!(priced.hw_key, report.provenance.hw_key);
                    assert_eq!(priced.cache_misses, report.provenance.cache_misses);
                }
            }
        }
    }

    #[test]
    fn cache_counters_stay_exact_across_batch_lanes() {
        let ctx = CostContext::new(HwConfig::lego_256(), TechModel::default());
        let perf = best_mapping_ctx(&zoo::lenet().layers[0], &ctx, None);
        // 64 distinct keys over every shard, each looked up eight times.
        let lookups: Vec<(u64, u64)> = (0..512u64).map(|i| (i % 64, 7)).collect();
        let look_up_all = |session: &EvalSession| {
            session.run_batch(&lookups, |&(hw, layer)| {
                session.cache().get_or_compute(hw, layer, || perf)
            });
        };
        let cold = EvalSession::new().with_threads(4);
        look_up_all(&cold);
        let cache = cold.cache();
        assert_eq!(cache.hits() + cache.misses(), lookups.len() as u64);
        // Two lanes racing on a fresh key may both compute it.
        assert!(cache.misses() >= 64, "every distinct key misses once");
        assert_eq!(cache.len(), 64);
        let warm = EvalSession::new().with_threads(4);
        assert_eq!(warm.cache().absorb(cache.entries()), 64);
        look_up_all(&warm);
        assert_eq!(warm.cache().misses(), 0);
        assert_eq!(warm.cache().hits(), lookups.len() as u64);
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let session = EvalSession::new();
        let req = EvalRequest::new(zoo::resnet50(), HwConfig::lego_256());
        session.evaluate(&req);
        let misses = session.cache().misses();
        let again = session.evaluate(&req);
        assert_eq!(session.cache().misses(), misses, "second eval is all hits");
        assert!(session.cache().hits() > 0);
        assert!(again.cost.edp() > 0.0);
    }

    #[test]
    fn pristine_reports_match_a_fresh_session_byte_for_byte() {
        let warm = EvalSession::new();
        let requests = [
            EvalRequest::new(zoo::lenet(), HwConfig::lego_256()),
            EvalRequest::new(zoo::resnet50(), HwConfig::lego_256()),
        ];
        // Warm the session thoroughly and advance its id mint.
        for req in &requests {
            warm.evaluate(req);
            warm.evaluate(req);
        }
        for req in &requests {
            let offline = EvalSession::new().evaluate(req);
            let served = warm.evaluate_pristine(req);
            assert_eq!(served, offline);
            assert_eq!(served.encode(), offline.encode(), "byte-identical");
        }
    }

    #[test]
    fn budgeted_session_stays_bounded_across_a_sweep() {
        let budget = crate::cache::estimated_resident_bytes_for(64);
        let session = EvalSession::new().with_cache_budget(budget);
        for buffer_kb in [64u64, 128, 256, 512, 1024, 2048] {
            let mut hw = HwConfig::lego_256();
            hw.buffer_kb = buffer_kb;
            session.evaluate(&EvalRequest::new(zoo::resnet50(), hw));
        }
        let g = session.cache().gauges();
        assert!(
            g.within_budget(),
            "resident {} > budget {budget}",
            g.resident_bytes
        );
        assert!(g.evictions > 0, "a sweep past the budget must evict");
        assert_eq!(g.budget_bytes, Some(budget));
    }

    #[test]
    fn batch_and_stream_match_sequential_evaluation() {
        let hws = [HwConfig::lego_256(), HwConfig::lego_icoc_1k()];
        let requests: Vec<EvalRequest> = hws
            .iter()
            .map(|hw| EvalRequest::new(zoo::lenet(), hw.clone()))
            .collect();
        let par = EvalSession::new().with_threads(4);
        let batched = par.run_batch(&requests, |r| par.evaluate(r));
        // A fresh session for the sequential loop: provenance records
        // cache warmth, so only equal cache states compare byte-identical.
        let seq = EvalSession::new();
        let sequential: Vec<EvalReport> = requests.iter().map(|r| seq.evaluate(r)).collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn provenance_reports_cache_warmth() {
        let session = EvalSession::new();
        let req = EvalRequest::new(zoo::lenet(), HwConfig::lego_256());
        let cold = session.evaluate(&req);
        assert!(cold.provenance.cache_misses > 0, "cold run must simulate");
        assert!(!cold.provenance.warm());
        assert_eq!(
            cold.provenance.cache_hits + cold.provenance.cache_misses,
            req.workload.layers.len() as u64
        );
        let warm = session.evaluate(&req);
        assert!(warm.provenance.warm());
        assert_eq!(warm.provenance.cache_hits, req.workload.layers.len() as u64);
        // Warmth is the only difference between the two reports.
        assert_eq!(warm.per_layer, cold.per_layer);
        assert_eq!(warm.model, cold.model);
        assert_eq!(warm.cost, cold.cost);
    }

    #[test]
    fn observability_never_perturbs_reports() {
        let req = EvalRequest::new(zoo::resnet50(), HwConfig::lego_256());
        let plain = EvalSession::new().evaluate(&req);
        let obs = Obs::deterministic();
        let instrumented = EvalSession::new().with_obs(obs.clone()).evaluate(&req);
        assert_eq!(instrumented, plain, "instrumentation must not perturb");
        assert_eq!(instrumented.encode(), plain.encode());
        // And the recorder saw the evaluation's shape.
        let summary = obs.summary();
        assert_eq!(summary.counter("eval.requests"), 1);
        assert_eq!(
            summary.counter("eval.layers"),
            req.workload.layers.len() as u64
        );
        assert_eq!(
            summary.counter("cache.hits") + summary.counter("cache.misses"),
            req.workload.layers.len() as u64
        );
        assert!(summary.counter("sim.mappings_tried") > 0);
        assert_eq!(summary.spans["eval/evaluate"].count, 1);
        assert_eq!(summary.spans["eval/context_build"].count, 1);
        assert_eq!(summary.spans["eval/mapping_search"].count, 1);
        assert_eq!(summary.spans["eval/aggregate"].count, 1);
        // Deterministic mode never reads the clock.
        assert!(summary.spans.values().all(|s| s.total_ns == 0));
    }

    #[test]
    fn sparse_requests_report_format_selection() {
        let session = EvalSession::new();
        let skip = session.evaluate(
            &EvalRequest::new(zoo::resnet50_2to4(), HwConfig::lego_256())
                .with_sparse(SparseHw::with_accel(SparseAccel::Skipping)),
        );
        // 2:4 weights on a skipping frontend stream as bitmask.
        assert!(skip
            .per_layer
            .iter()
            .any(|l| l.weight_format == CompressedFormat::Bitmask));
        // The dense twin reports dense formats everywhere.
        let dense = session.evaluate(&EvalRequest::new(zoo::resnet50(), HwConfig::lego_256()));
        assert!(dense
            .per_layer
            .iter()
            .all(|l| l.weight_format == CompressedFormat::Dense
                && l.input_format == CompressedFormat::Dense));
    }

    #[test]
    fn warm_cache_preloads_evaluations() {
        let first = EvalSession::new();
        let req = EvalRequest::new(zoo::lenet(), HwConfig::lego_256());
        first.evaluate(&req);
        let entries = first.cache().entries();
        assert!(!entries.is_empty());
        // A fresh session warmed with those entries answers the same
        // request without a single simulation.
        let second = EvalSession::new();
        assert_eq!(second.cache().absorb(entries), first.cache().len());
        let report = second.evaluate(&req);
        assert_eq!(second.cache().misses(), 0, "warm start: no misses");
        assert_eq!(report, first.evaluate(&req));
    }

    #[test]
    fn foreign_cache_entries_from_a_different_sram_model_never_lie() {
        let req = EvalRequest::new(zoo::lenet(), HwConfig::lego_256());
        let default_sram = EvalSession::new();
        let cheap = default_sram.evaluate(&req);
        // A session pricing under a pricier SRAM model absorbs the
        // default-model entries…
        let pricier = EvalSession::new().with_sram(SramModel {
            access_pj_per_byte: 10.0 * SramModel::default().access_pj_per_byte,
            ..SramModel::default()
        });
        assert!(pricier.cache().absorb(default_sram.cache().entries()) > 0);
        let report = pricier.evaluate(&req);
        // …but never serves them: the SRAM model is folded into the cache
        // key, so the mismatched entries miss and pricing stays honest.
        assert!(pricier.cache().misses() > 0, "foreign entries must miss");
        assert!(
            report.model.watts > cheap.model.watts,
            "the pricier SRAM must show up in the result"
        );
    }

    #[test]
    fn fingerprints_separate_requests() {
        let a = EvalRequest::new(zoo::lenet(), HwConfig::lego_256());
        let mut b = a.clone();
        b.hw.buffer_kb = 512;
        let mut c = a.clone();
        c.tile_cap = Some(32);
        let mut d = a.clone();
        d.sparse = SparseHw::with_accel(SparseAccel::Skipping);
        assert_ne!(a.hw_key(), b.hw_key());
        assert_ne!(a.hw_key(), c.hw_key());
        assert_ne!(a.hw_key(), d.hw_key());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same request, same fingerprint — across sessions and processes.
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn request_ids_are_minted_per_evaluation() {
        let session = EvalSession::new();
        let req = EvalRequest::new(zoo::lenet(), HwConfig::lego_256());
        let first = session.evaluate(&req);
        let second = session.evaluate(&req);
        let third = session.evaluate(&req);
        assert_eq!(first.provenance.request_id, 1);
        assert_eq!(second.provenance.request_id, 2);
        assert_eq!(third.provenance.request_id, 3);
        // The id is an identity token, excluded from report equality: the
        // two warm replays differ only in their ids and compare equal.
        assert_eq!(first.per_layer, second.per_layer);
        assert_eq!(second.provenance, third.provenance);
        assert_eq!(second, third);
        // Batches mint one id per item (order across lanes is arbitrary).
        let batch_session = EvalSession::new().with_threads(4);
        let reports = batch_session.run_batch(&[req.clone(), req.clone(), req.clone()], |r| {
            batch_session.evaluate(r)
        });
        let mut ids: Vec<u64> = reports.iter().map(|r| r.provenance.request_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn provenance_matches_the_request_fingerprints() {
        // The report-to-request matching contract a multi-host driver
        // leans on: provenance records exactly what the request computes.
        let req = EvalRequest::new(zoo::lenet(), HwConfig::lego_256());
        let report = EvalSession::new().evaluate(&req);
        assert_eq!(report.provenance.request_fingerprint, req.fingerprint());
        assert_eq!(report.provenance.hw_key, req.hw_key());
        // The contract holds regardless of session-level state (SRAM) or
        // caller-supplied cache keys.
        let custom = EvalSession::new().with_sram(SramModel {
            access_pj_per_byte: 1.0,
            ..SramModel::default()
        });
        assert_eq!(
            custom.evaluate(&req).provenance.request_fingerprint,
            req.fingerprint()
        );
        let mut view = req.as_view();
        view.hw_key = Some(0xDEAD_BEEF);
        assert_eq!(
            EvalSession::new().evaluate_view(view).provenance.hw_key,
            req.hw_key()
        );
    }
}
