//! The memoized evaluation cache shared by every consumer of a session.

use lego_sim::LayerPerf;
use lego_workloads::Layer;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

const SHARDS: usize = 16;

/// One cached mapping result plus its CLOCK reference bit. The bit is an
/// atomic so the hit path can mark recency through a shared read lock —
/// hits stay reader-parallel even in a bounded cache.
#[derive(Debug)]
struct Slot {
    perf: LayerPerf,
    referenced: AtomicBool,
}

/// One shard: the memo map, (in bounded mode) the CLOCK ring of resident
/// keys in insertion/rotation order, and the shard's own hit/miss
/// counters. The ring holds exactly the map's keys; eviction pops the
/// front, giving recently referenced entries a second chance at the back.
/// The alignment gives every shard its own cache lines, so lookups on
/// different shards never write to a shared line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Shard {
    map: HashMap<(u64, u64), Slot>,
    ring: VecDeque<(u64, u64)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    /// Inserts `key` if absent, evicting via CLOCK second-chance until the
    /// shard fits `cap` entries (`None` = unbounded). Returns whether the
    /// value joined, plus how many entries were evicted to admit it.
    fn insert(&mut self, key: (u64, u64), perf: LayerPerf, cap: Option<usize>) -> (bool, u64) {
        if self.map.contains_key(&key) {
            return (false, 0);
        }
        let mut evicted = 0;
        if let Some(cap) = cap {
            if cap == 0 {
                // A budget below one entry per shard: nothing is resident.
                return (false, 0);
            }
            while self.map.len() >= cap {
                let candidate = self.ring.pop_front().expect("ring tracks the map");
                let slot = self.map.get(&candidate).expect("ring tracks the map");
                if slot.referenced.swap(false, Ordering::Relaxed) {
                    // Second chance: referenced since the hand last passed.
                    self.ring.push_back(candidate);
                } else {
                    self.map.remove(&candidate);
                    evicted += 1;
                }
            }
            self.ring.push_back(key);
        }
        self.map.insert(
            key,
            Slot {
                perf,
                referenced: AtomicBool::new(false),
            },
        );
        (true, evicted)
    }
}

/// Concurrent memo table from (hardware fingerprint, layer fingerprint) to
/// the layer's best mapping result.
///
/// Evaluation workloads overlap heavily — search strategies revisit elite
/// genomes, random sampling collides with grid enumeration, and repeated
/// blocks within a model share layer shapes — so the cache is shared
/// across every request of an [`EvalSession`](crate::EvalSession) and
/// across the worker threads inside one. (The hardware fingerprint is part
/// of the key: every configuration field feeds the simulation, so entries
/// cannot be shared across configurations.) It is sharded by key, and each
/// shard is an `RwLock` so the warm-run steady state — ~100% hits — takes
/// only shared read locks and never serializes readers; writers appear only
/// on misses and absorbs. It counts hits and misses so callers can verify
/// the sharing actually happens: each shard keeps its own pair of
/// counters, and [`hits`](EvalCache::hits)/[`misses`](EvalCache::misses)
/// sum them. A warm lookup costs less than a write to a cache line every
/// worker shares, so no counter is global.
///
/// # Bounded mode
///
/// By default the cache grows without bound — right for a one-shot sweep,
/// wrong for a long-lived server. [`EvalCache::with_byte_budget`] caps
/// resident memory (as priced by [`estimated_resident_bytes_for`]) with a
/// CLOCK second-chance policy: each hit sets the entry's reference bit
/// through the read lock (hits never take the write lock, bounded or
/// not), and an insert that would breach the budget sweeps the clock
/// ring, giving referenced entries a second chance and evicting the first
/// unreferenced one. Evictions are counted and surfaced through
/// [`CacheGauges::evictions`].
#[derive(Debug)]
pub struct EvalCache {
    shards: Vec<RwLock<Shard>>,
    /// Per-shard entry cap; `None` = unbounded.
    shard_cap: Option<usize>,
    /// The configured budget in bytes (`None` = unbounded).
    budget_bytes: Option<usize>,
    evictions: AtomicU64,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            shard_cap: None,
            budget_bytes: None,
            evictions: AtomicU64::new(0),
        }
    }
}

impl EvalCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that keeps
    /// [`estimated_resident_bytes`](EvalCache::estimated_resident_bytes)
    /// at or under `budget_bytes` by CLOCK second-chance eviction.
    ///
    /// The budget is split evenly across the cache's shards, so the
    /// guarantee is exact: the cache never reports more resident bytes
    /// than the budget. Budgets smaller than one entry per shard
    /// (16 entries) leave some or all shards capped at zero — those
    /// shards simply never retain, which keeps the bound honest at any
    /// budget.
    pub fn with_byte_budget(budget_bytes: usize) -> Self {
        let per_entry = estimated_resident_bytes_for(1);
        let total_entries = budget_bytes / per_entry;
        EvalCache {
            shard_cap: Some(total_entries / SHARDS),
            budget_bytes: Some(budget_bytes),
            ..Self::default()
        }
    }

    /// Looks up `(hw_key, layer_key)`, running `compute` on a miss.
    ///
    /// The hit path takes only a shared read lock (and `LayerPerf` is
    /// `Copy`), so warm lookups from many threads proceed without mutual
    /// exclusion. `compute` runs outside any lock, so a pure-but-slow
    /// evaluation never blocks other workers; two threads racing on the
    /// same fresh key may both compute, and the first insert wins (the
    /// evaluation is deterministic, so both results are identical).
    pub fn get_or_compute<F: FnOnce() -> LayerPerf>(
        &self,
        hw_key: u64,
        layer_key: u64,
        compute: F,
    ) -> LayerPerf {
        let key = (hw_key, layer_key);
        let shard = &self.shards[(hw_key ^ layer_key) as usize % SHARDS];
        let guard = shard.read().expect("cache shard poisoned");
        if let Some(hit) = guard.map.get(&key) {
            guard.hits.fetch_add(1, Ordering::Relaxed);
            hit.referenced.store(true, Ordering::Relaxed);
            return hit.perf;
        }
        guard.misses.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        let value = compute();
        let (_, evicted) =
            shard
                .write()
                .expect("cache shard poisoned")
                .insert(key, value, self.shard_cap);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        value
    }

    /// `f` summed over the shards, each read under its shard's read lock.
    fn sum<T: std::iter::Sum>(&self, f: impl Fn(&Shard) -> T) -> T {
        self.shards
            .iter()
            .map(|s| f(&s.read().expect("cache shard poisoned")))
            .sum()
    }

    /// Lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.sum(|s| s.hits.load(Ordering::Relaxed))
    }

    /// Lookups that had to evaluate.
    pub fn misses(&self) -> u64 {
        self.sum(|s| s.misses.load(Ordering::Relaxed))
    }

    /// Entries evicted to honor the byte budget (always `0` unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Reads an entry without computing (and without touching the hit/miss
    /// statistics or the entry's recency) — the lookup merge tooling and
    /// tests use.
    pub fn peek(&self, hw_key: u64, layer_key: u64) -> Option<LayerPerf> {
        self.shards[(hw_key ^ layer_key) as usize % SHARDS]
            .read()
            .expect("cache shard poisoned")
            .map
            .get(&(hw_key, layer_key))
            .map(|s| s.perf)
    }

    /// Every `((hw_key, layer_key), perf)` entry, sorted by key — the
    /// canonical order a snapshot serializes, so two caches with the same
    /// contents encode byte-identically regardless of insertion history.
    pub fn entries(&self) -> Vec<((u64, u64), LayerPerf)> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.shards {
            let shard = s.read().expect("cache shard poisoned");
            out.extend(shard.map.iter().map(|(k, v)| (*k, v.perf)));
        }
        // Keys are unique, so an unstable sort is still canonical.
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Set-unions foreign entries (a peer shard's snapshot) into this
    /// cache. The keys are stable FNV fingerprints, so union is the whole
    /// merge story — and an existing entry is **never** overwritten: on a
    /// key collision the resident value wins (both sides computed the same
    /// deterministic simulation, so they agree; the invariant is pinned by
    /// proptests). Returns the number of entries actually added. A bounded
    /// cache absorbs through the same CLOCK admission as a miss, so the
    /// byte budget holds across warms and merges too. A session's keys
    /// fold in the technology and SRAM models, so entries priced under
    /// other models never hit: a mismatched warm start costs recomputation, never
    /// correctness.
    pub fn absorb<I: IntoIterator<Item = ((u64, u64), LayerPerf)>>(&self, entries: I) -> usize {
        let mut added = 0;
        for ((hw_key, layer_key), perf) in entries {
            let shard = &self.shards[(hw_key ^ layer_key) as usize % SHARDS];
            let mut guard = shard.write().expect("cache shard poisoned");
            let (joined, evicted) = guard.insert((hw_key, layer_key), perf, self.shard_cap);
            if joined {
                added += 1;
            }
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        added
    }

    /// Rough resident memory of the table: key + value + per-entry
    /// `HashMap` bookkeeping for every stored entry. An estimate
    /// (allocator slack and unused table capacity are not counted), but a
    /// deterministic function of the entry count, so it is safe to
    /// surface in deterministic observability summaries.
    pub fn estimated_resident_bytes(&self) -> usize {
        estimated_resident_bytes_for(self.len())
    }

    /// One coherent reading of every gauge ([`CacheGauges`]). Each counter
    /// is read once; the set is not a transaction (concurrent lookups may
    /// land between reads), which is fine for the stats tables this feeds.
    pub fn gauges(&self) -> CacheGauges {
        CacheGauges {
            entries: self.len(),
            resident_bytes: self.estimated_resident_bytes(),
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            budget_bytes: self.budget_bytes,
        }
    }

    /// Distinct entries stored.
    pub fn len(&self) -> usize {
        self.sum(|s| s.map.len())
    }

    /// Whether the cache has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The [`EvalCache::estimated_resident_bytes`] formula applied to an
/// arbitrary entry count — for tooling (the `dse_shard merge` report)
/// that prices snapshot entry lists without materializing a cache.
pub fn estimated_resident_bytes_for(entries: usize) -> usize {
    // Control byte plus amortized empty-slot overhead per occupied
    // bucket (the hash table keeps its load factor below ~7/8).
    const PER_ENTRY_OVERHEAD: usize = 16;
    entries * (std::mem::size_of::<((u64, u64), LayerPerf)>() + PER_ENTRY_OVERHEAD)
}

/// A point-in-time reading of an [`EvalCache`]'s size and effectiveness
/// gauges — what `eval_report` and `dse_shard merge --report` surface in
/// their stats tables, and what `lego-serve` exposes for a long-lived
/// session (where the byte budget and eviction count are the proof the
/// cache is actually bounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGauges {
    /// Distinct entries resident.
    pub entries: usize,
    /// Estimated resident bytes ([`EvalCache::estimated_resident_bytes`]).
    pub resident_bytes: usize,
    /// Lookups answered from the table since construction.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// Entries evicted to honor the byte budget (`0` when unbounded).
    pub evictions: u64,
    /// The configured byte budget (`None` = unbounded).
    pub budget_bytes: Option<usize>,
}

impl CacheGauges {
    /// Fraction of lookups answered from the table (`0` when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Whether resident bytes respect the budget (vacuously true
    /// unbounded).
    pub fn within_budget(&self) -> bool {
        self.budget_bytes.is_none_or(|b| self.resident_bytes <= b)
    }
}

/// Stable fingerprint of a layer's *shape* (kind + non-tensor work +
/// density annotations).
///
/// The name and repetition count are deliberately excluded: two layers with
/// the same shape in different models (or under different names) evaluate
/// identically on the same hardware, and should hit the same cache line.
/// The sparsity annotation is *included* — a pruned layer and its dense
/// twin cost differently on sparse hardware, so they must not collide.
pub fn layer_key(layer: &Layer) -> u64 {
    crate::hash::stable_hash(&(&layer.kind, &layer.nonlinear, &layer.sparsity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_model::{CostContext, HwConfig, SpatialMapping, TechModel};
    use lego_sim::simulate_layer_ctx;
    use lego_workloads::LayerKind;

    fn perf() -> LayerPerf {
        simulate_layer_ctx(
            &Layer::new("l", LayerKind::Gemm { m: 8, n: 8, k: 8 }),
            SpatialMapping::GemmMN,
            &CostContext::new(HwConfig::lego_256(), TechModel::default()),
            None,
        )
    }

    /// A budget that admits exactly `entries_per_shard` entries per shard.
    fn budget_for(entries_per_shard: usize) -> usize {
        estimated_resident_bytes_for(entries_per_shard * SHARDS)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = EvalCache::new();
        let mut computed = 0;
        for _ in 0..3 {
            cache.get_or_compute(1, 2, || {
                computed += 1;
                perf()
            });
        }
        assert_eq!(computed, 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn resident_bytes_track_entry_count() {
        let cache = EvalCache::new();
        assert_eq!(cache.estimated_resident_bytes(), 0);
        cache.get_or_compute(1, 1, perf);
        let one = cache.estimated_resident_bytes();
        assert!(one > 0);
        cache.get_or_compute(1, 2, perf);
        assert_eq!(cache.estimated_resident_bytes(), 2 * one);
        assert_eq!(estimated_resident_bytes_for(2), 2 * one);
    }

    #[test]
    fn gauges_snapshot_the_counters() {
        let cache = EvalCache::new();
        assert_eq!(cache.gauges().hit_rate(), 0.0, "empty cache: no lookups");
        cache.get_or_compute(1, 1, perf);
        cache.get_or_compute(1, 1, perf);
        cache.get_or_compute(1, 1, perf);
        cache.get_or_compute(1, 2, perf);
        let g = cache.gauges();
        assert_eq!(g.entries, 2);
        assert_eq!(g.resident_bytes, cache.estimated_resident_bytes());
        assert_eq!((g.hits, g.misses), (2, 2));
        assert_eq!(g.hit_rate(), 0.5);
        assert_eq!(g.evictions, 0);
        assert_eq!(g.budget_bytes, None);
        assert!(g.within_budget());
    }

    #[test]
    fn keys_separate_entries() {
        let cache = EvalCache::new();
        cache.get_or_compute(1, 1, perf);
        cache.get_or_compute(1, 2, perf);
        cache.get_or_compute(2, 1, perf);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn absorb_unions_without_overwriting() {
        let a = EvalCache::new();
        let resident = perf();
        a.get_or_compute(1, 1, || resident);
        // A foreign snapshot carrying a colliding key plus a new one.
        let mut foreign = perf();
        foreign.cycles += 999;
        let added = a.absorb(vec![((1, 1), foreign), ((2, 2), foreign)]);
        assert_eq!(added, 1, "only the new key joins");
        assert_eq!(a.len(), 2);
        // The resident value survived the collision…
        assert_eq!(a.peek(1, 1), Some(resident));
        // …and the absorbed entry is served as a hit, not recomputed.
        let miss_before = a.misses();
        let got = a.get_or_compute(2, 2, || unreachable!("absorbed entry must hit"));
        assert_eq!(got, foreign);
        assert_eq!(a.misses(), miss_before);
        // peek never disturbs the statistics.
        let (h, m) = (a.hits(), a.misses());
        let _ = a.peek(2, 2);
        assert_eq!((a.hits(), a.misses()), (h, m));
    }

    #[test]
    fn entries_are_canonically_ordered() {
        let a = EvalCache::new();
        let b = EvalCache::new();
        // Same contents, different insertion orders.
        for (hw, layer) in [(3u64, 1u64), (1, 2), (2, 9)] {
            a.get_or_compute(hw, layer, perf);
        }
        for (hw, layer) in [(1u64, 2u64), (2, 9), (3, 1)] {
            b.get_or_compute(hw, layer, perf);
        }
        assert_eq!(a.entries(), b.entries());
        let keys: Vec<(u64, u64)> = a.entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(1, 2), (2, 9), (3, 1)]);
        // Round trip through absorb reproduces the contents.
        let c = EvalCache::new();
        assert_eq!(c.absorb(a.entries()), 3);
        assert_eq!(c.entries(), a.entries());
    }

    #[test]
    fn bounded_cache_never_exceeds_its_budget() {
        let budget = budget_for(2);
        let cache = EvalCache::with_byte_budget(budget);
        // Hammer one shard far past its cap: all keys with the same
        // (hw ^ layer) % SHARDS land together when hw varies by SHARDS.
        for i in 0..64u64 {
            cache.get_or_compute(i * SHARDS as u64, 0, perf);
        }
        let g = cache.gauges();
        assert!(
            g.within_budget(),
            "resident {} > budget {budget}",
            g.resident_bytes
        );
        assert!(g.evictions > 0, "overflow must evict");
        // The shard holds exactly its cap.
        assert_eq!(g.entries, 2);
        assert_eq!(g.evictions, 62);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        // One shard, cap 2: insert A and B, touch A, then insert C.
        // The clock hand must pass over referenced A and evict B.
        let cache = EvalCache::with_byte_budget(budget_for(2));
        let s = SHARDS as u64;
        cache.get_or_compute(s, 0, perf); // A
        cache.get_or_compute(2 * s, 0, perf); // B
        cache.get_or_compute(s, 0, perf); // hit A → referenced
        cache.get_or_compute(3 * s, 0, perf); // C → evicts B
        assert!(cache.peek(s, 0).is_some(), "referenced A survives");
        assert!(cache.peek(2 * s, 0).is_none(), "unreferenced B evicted");
        assert!(cache.peek(3 * s, 0).is_some(), "C resident");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn absorb_respects_the_budget() {
        let budget = budget_for(1);
        let cache = EvalCache::with_byte_budget(budget);
        let p = perf();
        // 4 entries into one shard, cap 1: three must be refused/evicted.
        let s = SHARDS as u64;
        let added = cache.absorb((1..=4).map(|i| ((i * s, 0), p)));
        assert!(added >= 1);
        let g = cache.gauges();
        assert!(g.within_budget());
        assert_eq!(g.entries, 1);
    }

    #[test]
    fn zero_budget_caches_nothing_but_still_serves() {
        let cache = EvalCache::with_byte_budget(0);
        let mut computed = 0;
        for _ in 0..2 {
            cache.get_or_compute(1, 2, || {
                computed += 1;
                perf()
            });
        }
        assert_eq!(computed, 2, "nothing retained, every lookup computes");
        assert_eq!(cache.len(), 0);
        assert!(cache.gauges().within_budget());
    }

    #[test]
    fn layer_key_ignores_name_and_count() {
        let kind = LayerKind::Gemm { m: 4, n: 4, k: 4 };
        let a = Layer::new("a", kind);
        let b = Layer::new("b", kind).repeat(7);
        assert_eq!(layer_key(&a), layer_key(&b));
        let c = Layer::new("c", LayerKind::Gemm { m: 4, n: 4, k: 8 });
        assert_ne!(layer_key(&a), layer_key(&c));
    }

    #[test]
    fn layer_key_separates_sparsity_annotations() {
        use lego_model::{DensityModel, LayerSparsity};
        let kind = LayerKind::Gemm { m: 4, n: 4, k: 4 };
        let dense = Layer::new("a", kind);
        let pruned = Layer::new("a", kind)
            .with_sparsity(LayerSparsity::weights(DensityModel::two_to_four()));
        assert_ne!(layer_key(&dense), layer_key(&pruned));
    }
}
